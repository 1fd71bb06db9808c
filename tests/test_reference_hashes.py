"""Every benchmark workload writes its reference outputs at seed 1.

``benchmark/reference_hashes.json`` holds the SHA-256 of the table and
of the masked sidecar of every call of one seed-1 job of each workload.
The benchmark compares them only in a full run; here one job of each
runs in the test process, through the benchmark's own inputs, runner
and hashing, so an estimate, bootstrap curve or Monte Carlo table that
moves by one bit fails Tier-1.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from npmixcure import cli

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture(scope="module")
def run():
    """``benchmark/run.py`` as a module, leaving the process as it was:
    its import pins the thread pools in the environment and puts the
    benchmark directory on the path."""
    environ, path, modules = dict(os.environ), list(sys.path), set(sys.modules)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location(
            "_bench_run", BENCHMARK / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            del sys.modules[name]
        for name in set(os.environ) - set(environ):
            del os.environ[name]
        os.environ.update(environ)
    return module


def test_loading_the_runner_leaves_the_environment(run):
    assert str(BENCHMARK) not in sys.path
    assert "workloads" not in sys.modules
    assert run.DEFAULT_SEED == 1


@pytest.mark.parametrize("name", ["select", "mise-surface", "oracle-lattice"])
def test_seed_1_job_writes_the_reference_outputs(run, name, tmp_path,
                                                 monkeypatch):
    # the sidecars record their input paths, relative to the checkout
    # as the benchmark writes them
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NPMIXCURE_OUTDIR", raising=False)
    workload = run.WORKLOADS[name](False)
    workdir = Path("benchmark") / "out" / name
    workdir.mkdir(parents=True)
    workload.make_inputs(cli.main, workdir, run.DEFAULT_SEED)
    runner = run.Runner(workload)
    runner.reference = json.loads(
        (BENCHMARK / "reference_hashes.json").read_text())[name]
    _elapsed, ok = runner.run_job(cli.main)
    assert runner.problems == []
    assert ok and runner.hashes == runner.reference
