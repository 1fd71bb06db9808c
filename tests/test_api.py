"""The package's public surface, the README examples that use it, and
no definition that nothing uses.

Widening it is a deliberate edit of ``PUBLIC_NAMES``; the estimator has
one kernel and the oracle fixed time integrals, so no public callable
takes a kernel or an integration range.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import npmixcure
from npmixcure import cli

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.parent / "pyproject.toml"

PUBLIC_NAMES = [
    "AmseReport", "BandwidthGrid", "BiasVarianceTerms", "BootstrapConfig",
    "CensoredSample", "ConfigError", "CureFit", "DataError", "DatasetSchema",
    "DegenerateCureError", "EmptyNeighborhoodError", "EstimationError",
    "ExperimentConfig", "ExponentialCensoring", "IngestReport", "MiseCurve",
    "MiseSurface", "ModelSpec", "NoUncensoredError",
    "NpmixcureError", "PhiDerivatives", "SelectorStudy", "StepSurvivalCurve",
    "SupportGuardError", "UniformCovariate", "__version__", "amse", "beran",
    "bias_variance_terms", "bootstrap_vs_optimal", "generate",
    "h_amise", "incidence_estimate", "ingest", "kaplan_meier",
    "latency_estimate", "latency_estimate_two_bw", "log_grid", "mise_star",
    "model1", "model2", "nw_weights", "phi1",
    "phi_y_derivatives", "pilot_bandwidth", "true_mise", "true_mise_two_bw",
]

REMOVED_PARAMETERS = {"kernel", "t_range", "panels"}


def _public_callables():
    """``(qualified name, callable)`` for every public function, and
    every method and constructor of every public class."""
    for name in npmixcure.__all__:
        value = getattr(npmixcure, name)
        if isinstance(value, type):
            for attr in vars(value):
                member = getattr(value, attr)
                if callable(member) and (attr == "__init__"
                                         or not attr.startswith("_")):
                    yield f"{name}.{attr}", member
        elif callable(value):
            yield name, value


def test_public_names_are_pinned():
    assert sorted(npmixcure.__all__) == PUBLIC_NAMES


def test_no_public_callable_takes_a_removed_parameter():
    checked = 0
    for name, fn in _public_callables():
        params = set(inspect.signature(fn).parameters)
        assert not params & REMOVED_PARAMETERS, name
        checked += 1
    assert checked > len(PUBLIC_NAMES) // 2


def test_every_module_level_definition_is_used():
    # a def or class of the package that no public name, package name,
    # attribute or import refers to is dead code
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in Path(npmixcure.__file__).parent.glob("*.py")}
    named = set(npmixcure.__all__)
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = [f"{module}.{node.name}" for module, tree in modules.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in named]
    assert not unused


def test_no_help_text_restates_a_default():
    # the parser appends each option's default from its declaration
    assert [option.flag for option in cli._OPTIONS.values()
            if "(default" in option.help] == []


def test_a_flag_matches_only_in_full(capsys):
    # as a config key does: no strict prefix of a flag stands for it, so
    # oracle --m is not --model, simulate --se not --seed and selectbw
    # --h not --help
    for name, command in cli._COMMANDS.items():
        flags = {cli._OPTIONS[key].flag for key in (*command.keys, "config")}
        for flag in flags | {"--help"}:
            for prefix in {flag[:k] for k in range(3, len(flag))} - flags:
                with pytest.raises(SystemExit) as stop:
                    cli.main([name, prefix, "1"])
                assert stop.value.code == 2, (name, prefix)
                # _joined writes a prefix that is some other flag as --t=1
                assert re.search(
                    rf"unrecognized arguments: {prefix}[ =]1$",
                    capsys.readouterr().err, re.MULTILINE), (name, prefix)
        for flag in ("-h", "--help"):
            with pytest.raises(SystemExit) as stop:
                cli.main([name, flag])
            assert stop.value.code == 0
            assert capsys.readouterr().out.startswith(
                f"usage: npmixcure {name} ")
    with pytest.raises(SystemExit) as stop:
        cli.main(["--he"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --he" in capsys.readouterr().err


def test_console_script_is_cli_main():
    # read without tomllib, which Python 3.10 lacks
    scripts = re.search(
        r'^\[project\.scripts\]\nnpmixcure = "([\w.]+):(\w+)"$',
        PYPROJECT.read_text(encoding="utf-8"), re.MULTILINE)
    assert scripts
    module, name = scripts.groups()
    assert getattr(importlib.import_module(module), name) is cli.main


def test_readme_python_examples_run():
    # each ```python block in a fresh namespace, so the documented
    # examples cannot drift from the API
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert blocks
    for i, source in enumerate(blocks, 1):
        code = compile(source, f"README.md, python block {i}", "exec")
        exec(code, {"__name__": "readme_example"})


# the README's command lines in order, in one fresh interpreter: each
# exit code, then whether any of them imported numpy.ma
_README_CLI = """
import json, shlex, sys
from npmixcure import cli

codes = [cli.main(shlex.split(line)[1:]) for line in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_readme_cli_lines_run(tmp_path):
    # every `npmixcure ...` line of the ```sh blocks, continuation lines
    # joined; later lines read the files earlier ones write, so relative
    # paths must all resolve in the temporary directory
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    lines = [line for block in blocks
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("npmixcure ")]
    assert {line.split()[1] for line in lines} == set(cli._COMMANDS)
    src = str(Path(npmixcure.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "NPMIXCURE_OUTDIR"}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _README_CLI, json.dumps(lines)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    failed = [line for line, code in zip(lines, report["codes"]) if code != 0]
    assert len(report["codes"]) == len(lines) and not failed, proc.stderr
    # the oracle and the Monte Carlo surface avoid np.unique and
    # np.union1d, whose first call imports numpy.ma (0.7-1.6 MiB)
    assert not report["numpy.ma"]
