"""Self-test of the benchmark at tiny sizes.

    python3 benchmark/selftest.py

Runs every workload once untraced and twice traced, each in a fresh
process started from the checkout root, and checks that:

* every metric of ``BENCHMARK.json`` is printed with its unit (end to
  end untraced, per layer traced) and nothing else is;
* every job succeeded and its outputs checked out (``fail_frac`` 0);
* every ``calls`` count, and the integrand evaluation count, repeats
  exactly between the two traced runs;
* without the package source next to it, the benchmark exits non-zero
  and prints no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def _run(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric_problems(result: dict, spec: list[dict]) -> list[str]:
    wanted = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = [f"missing {n}" for n in sorted(set(wanted) - set(got))]
    problems += [f"unexpected {n}" for n in sorted(set(got) - set(wanted))]
    problems += [f"{n}: unit {got[n]!r}, expected {u!r}"
                 for n, u in wanted.items() if n in got and got[n] != u]
    problems += [f"{n}: value {m['value']!r} is not a number"
                 for n, m in result["metrics"].items()
                 if not isinstance(m["value"], (int, float))]
    return problems


def _job_problems(result: dict) -> list[str]:
    problems = []
    if not result["correct"]:
        problems.append("outputs not correct")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"fail_frac {result['failed']}/{result['attempted']}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counted = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        plain = _result(_run(ROOT, workload, 0))
        traced = [_result(_run(ROOT, workload, 1)) for _ in range(2)]
        problems = _metric_problems(plain, bench["end_to_end"]) + _job_problems(plain)
        for result in traced:
            problems += _metric_problems(result, bench["per_layer"]) + _job_problems(result)
        problems += [
            f"{name} differs between traced runs"
            for name in counted
            if traced[0]["metrics"].get(name) != traced[1]["metrics"].get(name)
        ]
        status = "ok" if not problems else "; ".join(problems)
        print(f"{workload}: {status}")
        failures += problems

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmark").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.*"):
        shutil.copy(path, bare / "benchmark")
    proc = _run(bare, bench["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("ran without the package source")
    print(f"without package source: exit {proc.returncode}, "
          f"{len(proc.stdout.strip())} bytes on stdout")
    shutil.rmtree(bare)

    print("self-test", "passed" if not failures else "FAILED")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
