"""End-to-end benchmark of the npmixcure command line.

    python3 benchmark/run.py --workload select --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy.  Each job
calls ``npmixcure.cli.main(argv)`` in this process, from ingest to the
written table and ``.meta.json`` sidecar, and every output is checked:
its SHA-256 must repeat across the jobs of a run and, at the default
seed, match ``reference_hashes.json``.  Inputs are generated from
``--seed`` during set-up.  One thread; BLAS and OpenMP pools pinned to 1.

``--trace 0`` times untraced jobs and reports the end-to-end metrics.
The job time is reported as ``wall_rel``: each job's wall time divided
by the wall time of a fixed reference loop (Python arithmetic and small
numpy calls, the program's own mix) run just before and just after it,
and the median of that ratio over the run.  The 2-core machine this was
tuned on, a shared cloud host, switches for seconds to tens of seconds
at a time between speeds up to 1.8x apart, with CPU time slowing as
much as wall time, so a run's median job time in seconds depends on
when the run happened; the reference loop slows with the job and the
ratio does not (over five 40-s runs there, the quartile spread was 0.29
of the median in seconds and 0.045 in the ratio).  A change to the program moves the ratio as it moves
the job time.  Job times in seconds are kept in the run record and
reported by the traced run.
``--trace 1`` spends a third of the time on untraced jobs and the rest
on jobs traced at every layer boundary (see ``tracing.py``), and
reports the per-layer metrics, all per job.  Spans and a run record
(versions, CPU count, seed, shape, input hashes) go under
``benchmark/out/``.  The last line of standard output is the JSON
result.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPS = 15
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
HARD_LIMIT_S = 120.0  # stop starting jobs, whatever --seconds says
REFERENCE_REPS = 640  # about 0.4 s of reference loop between two jobs

sys.path.insert(0, str(HERE))
from tracing import FUNCTIONS, METHODS, ROOT_SPAN, Tracer, job_profiles, write_spans  # noqa: E402
from workloads import WORKLOADS, CallOutput  # noqa: E402

# which figures each traced stem reports, per job
CALLS = ["bootstrap.mise_star", "bootstrap.kit_build", "bootstrap.draw",
         "survival.beran", "kernels.nw_weights", "cure.latency_estimate",
         "models.generate", "experiments.true_mise_two_bw", "oracle.amse",
         "oracle.bias_variance_terms", "oracle.phi_y_derivatives",
         "oracle.phi1", "numerics.adaptive_simpson"]
INCLUSIVE = ["io_utils.ingest", "io_utils.write_table", "io_utils.write_meta",
             "bootstrap.mise_star", "bootstrap.kit_build", "bootstrap.draw",
             "bootstrap.grid_fits", "kernels.nw_weights", "models.generate",
             "experiments.true_mise_two_bw", "oracle.bias_variance_terms",
             "oracle.phi_y_derivatives", "oracle.phi1",
             "numerics.adaptive_simpson"]
SELF = ["survival.beran", "cure.latency_estimate"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _masked_meta_hash(meta: dict) -> str:
    """Sidecar hash with ``config.out`` masked, as acceptance criterion 9."""
    meta = json.loads(json.dumps(meta))
    meta["config"]["out"] = "<out>"
    return _sha256(json.dumps(meta, sort_keys=True).encode())


def _import_package():
    """Fresh import of the package from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "npmixcure" or n.startswith("npmixcure.")]:
        del sys.modules[name]
    import npmixcure
    import npmixcure.cli
    if not Path(npmixcure.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"npmixcure imported from {npmixcure.__file__}, not {SRC}")
    return npmixcure.cli.main


class Runner:
    """Runs one workload's jobs and checks what each job writes."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.hashes = None  # hashes of the first job, every later one must match
        self.first_outputs = None
        self.first_ok = False
        self.problems: list[str] = []

    def run_job(self, main) -> tuple[float, bool]:
        argvs = self.workload.job()
        outputs = []
        sink = io.StringIO()
        elapsed = 0.0
        for argv in argvs:
            table = Path(argv[argv.index("--out") + 1])
            meta_path = Path(str(table) + ".meta.json")
            table.unlink(missing_ok=True)
            meta_path.unlink(missing_ok=True)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = perf_counter()
                try:
                    code = main(argv)
                except Exception as exc:  # a crash is a failed job, not a dead run
                    code = repr(exc)
                elapsed += perf_counter() - start
            if code != 0:
                self.problems.append(f"{argv[0]} exited with {code}: {sink.getvalue()[-300:]}")
                return elapsed, False
            outputs.append(CallOutput(table, json.loads(meta_path.read_text())))
        hashes = [[_sha256(o.table.read_bytes()), _masked_meta_hash(o.meta)] for o in outputs]
        if self.hashes is None:
            self.hashes, self.first_outputs = hashes, outputs
            found = self.workload.check(outputs)
            if self.reference is not None and hashes != self.reference:
                found.append("output hashes differ from the reference")
            self.problems.extend(found)
            self.first_ok = not found
        elif hashes != self.hashes:
            self.problems.append("a repeated job wrote different outputs")
            return elapsed, False
        return elapsed, self.first_ok  # a repeat is as good as the first job


def _reference_s() -> float:
    """Wall time of a fixed loop that never changes with the program."""
    grid = np.linspace(0.0, 1.0, 200)
    total = 0.0
    start = perf_counter()
    for _ in range(REFERENCE_REPS):
        for i in range(2000):
            total += (i * 0.5) % 7.0
        for _ in range(40):
            total += float(np.cumprod(1.0 - grid * 0.001)[-1])
            total += float(np.searchsorted(grid, 0.5))
    return perf_counter() - start


@dataclass
class Timings:
    """Times of one loop of jobs."""

    walls: list[float] = field(default_factory=list)  # each good job, s
    rels: list[float] = field(default_factory=list)  # each good job over its reference
    refs: list[float] = field(default_factory=list)  # each reference loop, s


def _loop(runner, main, seconds, min_jobs, started, timings, tracer=None):
    """Run jobs for about ``seconds``; returns (attempted, failed).

    The reference loop runs before the first job and after every job; a
    good job's ratio is its wall time over the mean of the two reference
    times around it.  A job starts only if half of it would still fit,
    so on average a run ends on time rather than one job late.
    """
    attempted = failed = 0
    begin = perf_counter()
    wall = 0.0
    before = _reference_s()
    timings.refs.append(before)
    while (attempted < min_jobs or perf_counter() - begin + wall / 2 < seconds) \
            and perf_counter() - started < HARD_LIMIT_S:
        if tracer is not None:
            tracer.job += 1
            tracer.integrand_evals = 0
        wall, ok = runner.run_job(main)
        after = _reference_s()
        timings.refs.append(after)
        attempted += 1
        if ok:
            timings.walls.append(wall)
            timings.rels.append(wall / ((before + after) / 2.0))
            if tracer is not None:
                tracer.evals_per_job[tracer.job] = tracer.integrand_evals
        else:
            failed += 1
        before = after
    return attempted, failed


def _layer_metrics(tracer, untraced_wall, overhead, fit_counts):
    """Per-job layer metrics from the traced jobs, and count mismatches."""
    by_job = job_profiles(tracer.spans)
    profiles = [by_job[j] for j in tracer.evals_per_job]
    first = profiles[0]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    mismatched = sorted({
        name for p in profiles[1:] for name in set(p) | set(first)
        if p.get(name, zero)["calls"] != first.get(name, zero)["calls"]
    })
    evals = list(tracer.evals_per_job.values())
    if len(set(evals)) > 1:
        mismatched.append("numerics.integrand_evals")

    def mean(stem, key):
        return statistics.fmean(p.get(stem, zero)[key] for p in profiles)

    missing = set(tracer.missing)
    if missing & {"bootstrap.mise_star", "bootstrap.kit_build", "bootstrap.draw"}:
        missing.add("bootstrap.grid_fits")
    if "numerics.adaptive_simpson" in missing:
        missing.add("numerics.integrand_evals")
    metrics = {}

    def put(name, stem, value, unit):
        if stem not in missing:
            metrics[name] = {"value": value, "unit": unit}

    main_s = mean(ROOT_SPAN, "s")
    put("cli.main.s", ROOT_SPAN, main_s, "s")
    put("cli.self_s", ROOT_SPAN, mean(ROOT_SPAN, "self_s"), "s")
    for stem in CALLS:
        put(f"{stem}.calls", stem, first.get(stem, zero)["calls"], "count")
    for stem in INCLUSIVE:
        put(f"{stem}.s", stem, mean(stem, "s"), "s")
    for stem in SELF:
        put(f"{stem}.self_s", stem, mean(stem, "self_s"), "s")
    for stem in ("bootstrap.kit_build", "bootstrap.grid_fits"):
        put(f"{stem}.share", stem, mean(stem, "s") / main_s, "ratio")
    attempted, succeeded = fit_counts
    put("bootstrap.grid_fits.attempted", "bootstrap.grid_fits", attempted, "count")
    put("bootstrap.fit_success_ratio", "bootstrap.grid_fits",
        succeeded / attempted if attempted else 0.0, "ratio")
    put("numerics.integrand_evals", "numerics.integrand_evals",
        evals[0], "count")
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics, sorted(missing), mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    started = perf_counter()
    if not (SRC / "npmixcure" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    os.environ.pop("NPMIXCURE_OUTDIR", None)

    workload = WORKLOADS[args.workload](args.tiny)
    tag = f"{args.workload}{'-tiny' if args.tiny else ''}"
    workdir = (OUT / tag).relative_to(ROOT)
    workdir.mkdir(parents=True, exist_ok=True)

    setups = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        cli_main = _import_package()
        inputs = workload.make_inputs(cli_main, workdir, args.seed)
        setups.append(perf_counter() - start)

    runner = Runner(workload)
    if args.seed == DEFAULT_SEED and not args.tiny:
        runner.reference = json.loads((HERE / "reference_hashes.json").read_text())[args.workload]

    plain = Timings()
    if args.trace == 0:
        attempted, failed = _loop(runner, cli_main, args.seconds, MIN_JOBS,
                                  started, plain)
    else:
        attempted, failed = _loop(runner, cli_main, args.seconds / 3, 1,
                                  started, plain)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(), "shape": workload.shape(),
        "inputs": {str(p): _sha256(p.read_bytes()) for p in inputs},
        "jobs": workload.job(),
        "setup_s": setups, "untraced": vars(plain),
    }
    if args.trace == 0:
        metrics = {
            "wall_rel": {"value": statistics.median(plain.rels) if plain.rels else 0.0,
                         "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB"},
        }
    else:
        tracer = Tracer()
        tracer.install()
        traced_main = tracer.wrap(ROOT_SPAN, cli_main)
        traced = Timings()
        origin = perf_counter()
        try:
            more = _loop(runner, traced_main, args.seconds * 2 / 3, MIN_TRACED_JOBS,
                         started, traced, tracer)
        finally:
            tracer.uninstall()
        attempted, failed = attempted + more[0], failed + more[1]
        metrics, missing, mismatched = {}, sorted(tracer.missing), []
        if traced.walls and plain.walls:
            metrics, missing, mismatched = _layer_metrics(
                tracer, statistics.median(plain.walls),
                statistics.median(traced.rels) / statistics.median(plain.rels) - 1.0,
                workload.fit_counts(runner.first_outputs))
        if not traced.walls:
            runner.problems.append("no traced job completed")
        if mismatched:
            runner.problems.append(f"call counts differ between traced jobs: {mismatched}")
        spans_path = OUT / f"{tag}-spans.csv"  # latest traced run only
        write_spans(spans_path, tracer.spans, origin)
        record.update(traced=vars(traced), missing=missing,
                      wrapped=sorted(FUNCTIONS) + sorted(METHODS),
                      spans=str(spans_path.relative_to(ROOT)))
        if missing:
            print(f"missing stages (not wrapped, not zero): {', '.join(missing)}")

    correct = failed == 0 and not runner.problems and threading.active_count() == 1
    record.update(
        attempted=attempted, failed=failed, fail_frac=failed / max(attempted, 1),
        correct=correct, problems=runner.problems, output_hashes=runner.hashes,
        reference_checked=runner.reference is not None, metrics=metrics,
    )
    result_path = OUT / f"{tag}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    for problem in runner.problems:
        print(f"problem: {problem}")
    if runner.reference is None:
        print(f"output hashes (seed {args.seed}): {json.dumps(runner.hashes)}")
    print(f"fail_frac: {record['fail_frac']} ({failed} of {attempted} jobs)")
    print(f"run record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
