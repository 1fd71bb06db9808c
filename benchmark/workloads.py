"""The three benchmark workloads: inputs, CLI jobs and output checks.

A workload turns a seed into input files (written through the CLI's own
``simulate`` subcommand or as ``--config`` files), then names the CLI
calls that make up one job.  Every call writes a table and a
``.meta.json`` sidecar; ``check`` validates what a job wrote, so a run
at a seed without reference hashes still catches wrong outputs.

Jobs are kept to about two seconds (few x values, a short lattice,
m=200 trials) so that a 40-s run holds many of them: each x value or
lattice point repeats the same work, so fewer of them keep each
layer's share of a job while the run's job-time statistic, taken over
more jobs, is less at the mercy of the machine's speed drift.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA_COLUMNS = ["--covariate-col", "x", "--time-col", "t", "--delta-col", "delta"]


@dataclass(frozen=True)
class CallOutput:
    """What one CLI call left behind."""

    table: Path
    meta: dict

    def rows(self) -> list[dict]:
        with open(self.table, newline="") as handle:
            return list(csv.DictReader(handle))


def _finite(rows, *columns) -> bool:
    return all(math.isfinite(float(r[c])) for r in rows for c in columns)


def _x_flags(xs) -> list[str]:
    return [arg for x in xs for arg in ("--x", repr(float(x)))]


def _simulate(main, model: int, n: int, seed: int, out: Path) -> None:
    code = main(["simulate", "--model", str(model), "--n", str(n),
                 "--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"simulate exited with {code}")


def _grid_size(grid: str) -> int:
    """Point count of a ``lo:hi:count`` bandwidth grid."""
    return int(grid.split(":")[2])


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


class SelectSmall:
    """``estimate --h auto`` on a 100-row model-1 file; first call of ``select``.

    Desk-scale bootstrap selection: the per-resample grid fits through
    ``latency_estimate`` and ``beran`` take most of the time.
    """

    name = "select-small"

    def __init__(self, tiny: bool):
        self.n, self.B, self.grid, self.xs = (
            (40, 4, "8:40:3", (2.0, 5.0)) if tiny
            else (100, 100, "3:30:20", (2.0, 5.0))
        )
        self.time_points = 200

    def shape(self) -> dict:
        return {"model": 1, "n": self.n, "B": self.B,
                "grid_size": _grid_size(self.grid),
                "x_count": len(self.xs), "time_points": self.time_points}

    def make_inputs(self, main, workdir: Path, seed: int) -> list[Path]:
        data = workdir / "data.csv"
        _simulate(main, 1, self.n, seed, data)
        self.argv = [
            "estimate", "--data", str(data), *DATA_COLUMNS, "--h", "auto",
            "--grid", self.grid, "--B", str(self.B), "--seed", str(seed),
            *_x_flags(self.xs), "--out", str(workdir / "estimate.csv"),
        ]
        return [data]

    def job(self) -> list[list[str]]:
        return [self.argv]

    def check(self, outputs: list[CallOutput]) -> list[str]:
        (out,) = outputs
        problems = []
        if out.meta["summary"]["failures"]:
            problems.append(f"covariate failures: {out.meta['summary']['failures']}")
        rows = out.rows()
        if len(rows) != len(self.xs) * self.time_points:
            problems.append(f"{len(rows)} rows")
        if not _finite(rows, "h", "incidence", "t", "latency"):
            problems.append("non-finite value")
            return problems
        for x in self.xs:
            lat = np.array([float(r["latency"]) for r in rows if float(r["x"]) == x])
            if lat.size and (lat[0] != 1.0 or np.any(np.diff(lat) > 0.0)
                             or abs(lat[-1]) > 1e-12):
                problems.append(f"latency at x={x} is not a proper survival curve")
        return problems

    def fit_counts(self, outputs: list[CallOutput]) -> tuple[int, int]:
        """(attempted, succeeded) per-resample grid fits."""
        selections = outputs[0].meta["summary"]["selections"]
        attempted = len(selections) * self.B * _grid_size(self.grid)
        failed = sum(s["resample_failures"] for s in selections)
        return attempted, attempted - failed


class SelectLarge:
    """``selectbw`` on a 1600-row model-1 file; second call of ``select``.

    The top of the sample-size ladder, where the pilot-kit build (one
    ``beran`` per observation) and the resample draw dominate.
    """

    name = "select-large"

    def __init__(self, tiny: bool):
        self.n, self.B, self.grid, self.xs = (
            (200, 3, "4:12:3", (4.0,)) if tiny
            else (1600, 50, "1:12:15", (4.0,))
        )

    def shape(self) -> dict:
        return {"model": 1, "n": self.n, "B": self.B,
                "grid_size": _grid_size(self.grid),
                "x_count": len(self.xs)}

    def make_inputs(self, main, workdir: Path, seed: int) -> list[Path]:
        data = workdir / "data.csv"
        _simulate(main, 1, self.n, seed, data)
        self.argv = [
            "selectbw", "--data", str(data), *DATA_COLUMNS,
            "--grid", self.grid, "--B", str(self.B), "--seed", str(seed),
            *_x_flags(self.xs), "--out", str(workdir / "selectbw.csv"),
        ]
        return [data]

    def job(self) -> list[list[str]]:
        return [self.argv]

    def check(self, outputs: list[CallOutput]) -> list[str]:
        (out,) = outputs
        problems = []
        if out.meta["summary"]["failures"]:
            problems.append(f"covariate failures: {out.meta['summary']['failures']}")
        rows = out.rows()
        if len(rows) != len(self.xs) * _grid_size(self.grid):
            problems.append(f"{len(rows)} rows")
        if not _finite(rows, "h", "mise_star"):
            problems.append("non-finite value")
        elif any(float(r["mise_star"]) < 0.0 or int(r["failures"]) >= self.B
                 for r in rows):
            problems.append("negative MISE* or a bandwidth with no fitted resample")
        return problems

    def fit_counts(self, outputs: list[CallOutput]) -> tuple[int, int]:
        rows = outputs[0].rows()
        attempted = len(rows) * self.B
        return attempted, attempted - sum(int(r["failures"]) for r in rows)


class Select:
    """Bootstrap bandwidth selection at both ends of the sample-size ladder.

    One job is the ``SelectSmall`` call followed by the ``SelectLarge``
    call, so a faster grid fit and a faster kit build or draw both show
    in one job time.  They are one workload rather than two because the
    machine's speed drifts over tens of seconds: the time budget of all
    runs allows three workloads of 40 s but not four, and shorter runs
    let the drift through.
    """

    name = "select"

    def __init__(self, tiny: bool):
        self.parts = (SelectSmall(tiny), SelectLarge(tiny))

    def shape(self) -> dict:
        return {part.name: part.shape() for part in self.parts}

    def make_inputs(self, main, workdir: Path, seed: int) -> list[Path]:
        paths = []
        for part in self.parts:
            partdir = workdir / part.name
            partdir.mkdir(exist_ok=True)
            paths += part.make_inputs(main, partdir, seed)
        return paths

    def job(self) -> list[list[str]]:
        return [argv for part in self.parts for argv in part.job()]

    def _split(self, outputs: list[CallOutput]):
        start = 0
        for part in self.parts:
            count = len(part.job())
            yield part, outputs[start:start + count]
            start += count

    def check(self, outputs: list[CallOutput]) -> list[str]:
        return [f"{part.name}: {problem}" for part, own in self._split(outputs)
                for problem in part.check(own)]

    def fit_counts(self, outputs: list[CallOutput]) -> tuple[int, int]:
        counts = [part.fit_counts(own) for part, own in self._split(outputs)]
        return sum(a for a, _ in counts), sum(s for _, s in counts)


class MiseSurface:
    """``mise --surface`` for model 2, driven by a generated config file.

    The product-limit layer used another way: a fresh sample per trial,
    many bandwidths per sample, and no bootstrap.
    """

    name = "mise-surface"

    def __init__(self, tiny: bool):
        self.n, self.m, self.grid, self.xs = (
            (60, 5, "8:20:3", (6.0,)) if tiny
            else (400, 200, "2:20:12", (-2.0, 6.0))
        )

    def shape(self) -> dict:
        size = _grid_size(self.grid)
        return {"model": 2, "n": self.n, "m": self.m,
                "grid_size": f"{size}x{size}", "x_count": len(self.xs)}

    def make_inputs(self, main, workdir: Path, seed: int) -> list[Path]:
        config = workdir / "mise.json"
        _write_config(config, {
            "model": 2, "n": self.n, "m": self.m, "x": list(self.xs),
            "grid": self.grid, "surface": True, "seed": seed,
        })
        self.argv = ["mise", "--config", str(config),
                     "--out", str(workdir / "mise.csv")]
        return [config]

    def job(self) -> list[list[str]]:
        return [self.argv]

    def check(self, outputs: list[CallOutput]) -> list[str]:
        (out,) = outputs
        rows = out.rows()
        size = _grid_size(self.grid)
        problems = []
        if len(rows) != len(self.xs) * size * size:
            problems.append(f"{len(rows)} rows")
        if not _finite(rows, "h1", "h2", "mise"):
            problems.append("non-finite value")
        elif any(float(r["mise"]) < 0.0 or not 1 <= int(r["trials_used"]) <= self.m
                 for r in rows):
            problems.append("negative MISE or trials_used out of range")
        return problems

    def fit_counts(self, outputs: list[CallOutput]) -> tuple[int, int]:
        return 0, 0


class OracleLattice:
    """The ``oracle`` subcommand for both models on a (t, x) lattice.

    Quadrature only, sharing no code with the other workloads: the
    control that should not move when an estimator changes.
    The seed jitters the lattice a little around fixed points.  Moving
    x far would change the adaptive quadrature's work several-fold,
    which would make the timing depend on the seed rather than on the
    code.
    """

    name = "oracle-lattice"

    T_BASE = {1: (0.5, 1.0, 2.0, 3.0), 2: (0.3, 0.5, 0.7, 0.9)}
    X_BASE = (-5.0, 5.0, 8.0)

    def __init__(self, tiny: bool):
        self.t_count, self.x_count = (1, 1) if tiny else (2, 3)
        self.h, self.n = 3.0, 400

    def shape(self) -> dict:
        return {"models": [1, 2], "lattice": f"{self.t_count}x{self.x_count}",
                "h": self.h, "n": self.n}

    def make_inputs(self, main, workdir: Path, seed: int) -> list[Path]:
        rng = np.random.default_rng(seed)
        xs = [round(x + rng.uniform(-0.25, 0.25), 4)
              for x in self.X_BASE[:self.x_count]]
        self.argvs, paths = [], []
        for model, t_base in self.T_BASE.items():
            ts = [round(t * rng.uniform(0.95, 1.05), 4)
                  for t in t_base[:self.t_count]]
            config = workdir / f"oracle_model{model}.json"
            _write_config(config, {"model": model, "t": ts, "x": xs,
                                   "h": self.h, "n": self.n})
            self.argvs.append(["oracle", "--config", str(config), "--out",
                               str(workdir / f"oracle_model{model}.csv")])
            paths.append(config)
        return paths

    def job(self) -> list[list[str]]:
        return self.argvs

    def check(self, outputs: list[CallOutput]) -> list[str]:
        problems = []
        for out in outputs:
            if out.meta["summary"]["failures"]:
                problems.append(f"lattice failures: {out.meta['summary']['failures']}")
            rows = out.rows()
            if len(rows) != self.t_count * self.x_count:
                problems.append(f"{len(rows)} rows")
            if not _finite(rows, "b1", "b2", "v1", "v2", "v3", "amse"):
                problems.append("non-finite value")
            elif any(float(r["v3"]) > 0.0 or float(r["amse"]) <= 0.0 for r in rows):
                problems.append("positive covariance piece or nonpositive AMSE")
        return problems

    def fit_counts(self, outputs: list[CallOutput]) -> tuple[int, int]:
        return 0, 0


WORKLOADS = {w.name: w for w in (Select, MiseSurface, OracleLattice)}
