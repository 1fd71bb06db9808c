"""Command line tools: estimation, simulation, bandwidth selection, oracle.

Every subcommand writes one table (CSV by default, JSON on request)
plus a ``<out>.meta.json`` sidecar holding the resolved configuration,
the package version, and a run summary.  The sidecar contains nothing
volatile, so rerunning a subcommand with the same configuration and
seed produces byte-identical files.

Each option is declared once, in ``_OPTIONS``.  Its flag, the key a
``--config`` file may give it, and the value the sidecar records all
come from that declaration: a flag string and a JSON config value go
through the same converter.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 estimation failure, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, log_grid, mise_star
from .cure import latency_estimate, latency_estimate_two_bw
from .exceptions import ConfigError, DataError, EstimationError
from .experiments import ExperimentConfig, true_mise, true_mise_two_bw
from .io_utils import DatasetSchema, ingest, write_meta, write_table
from .models import generate, model1, model2, trial_rng
from .oracle import (
    _guard,
    _infinity_pieces,
    amse,
    bias_variance_terms,
    population_from_model,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4

_OUTDIR_ENV = "NPMIXCURE_OUTDIR"
_MODELS = {1: model1, 2: model2}


# ---------------------------------------------------------------------------
# converters: ``(value, flag) -> resolved value``, for a flag string and a
# JSON config value alike

def _as_int(value, flag):
    if isinstance(value, bool):
        raise ConfigError(f"{flag} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{flag} must be an integer, got {value!r}") from None
    if isinstance(value, float) and value != out:
        raise ConfigError(f"{flag} must be an integer, got {value!r}")
    return out


def _as_float(value, flag):
    if isinstance(value, bool):
        raise ConfigError(f"{flag} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{flag} must be a number, got {value!r}") from None


def _at_least(low):
    """Converter to an integer no smaller than ``low``."""
    def convert(value, flag):
        out = _as_int(value, flag)
        if out < low:
            raise ConfigError(f"{flag} must be at least {low}, got {out}")
        return out
    return convert


def _positive(value, flag):
    out = _as_float(value, flag)
    if not 0.0 < out < math.inf:
        raise ConfigError(f"{flag} must be positive and finite, got {out}")
    return out


def _text(value, flag):
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{flag} must be a string, got {value!r}")
    return str(value)


def _switch(value, flag):
    """On/off option: a bare flag, or a JSON boolean in a config file."""
    if not isinstance(value, bool):
        raise ConfigError(f"{flag} must be true or false, got {value!r}")
    return value


def _model_id(value, flag):
    mid = _as_int(value, flag)
    if mid not in _MODELS:
        raise ConfigError(f"{flag} must be 1 or 2, got {value!r}")
    return mid


def _bandwidth(value, flag):
    """A positive bandwidth, or ``auto`` for the bootstrap selector."""
    if isinstance(value, str) and value.lower() == "auto":
        return "auto"
    return _positive(value, flag)


def _grid_spec(value, flag):
    """A log-spaced bandwidth grid ``lo:hi:count``, checked, as that string.

    A config file may also give the three parts as a JSON list.
    """
    parts = value.split(":") if isinstance(value, str) else value
    if not isinstance(parts, list) or len(parts) != 3:
        raise ConfigError(f"{flag} must look like lo:hi:count, got {value!r}")
    lo = _as_float(parts[0], flag)
    hi = _as_float(parts[1], flag)
    count = _as_int(parts[2], flag)
    try:
        log_grid(lo, hi, count)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    return value if isinstance(value, str) else f"{lo!r}:{hi!r}:{count}"


def _log_grid(spec):
    lo, hi, count = spec.split(":")
    return log_grid(float(lo), float(hi), int(count))


# ---------------------------------------------------------------------------
# options

class _Option(NamedTuple):
    """One option: its flag, converter, default and help text.

    The config-file key is the flag without its dashes, with ``_`` for
    ``-``.  A repeatable option resolves to a list; in a config file it
    takes a list or a single value.
    """

    flag: str
    convert: Callable[[Any, str], Any]
    default: Any = None
    help: str = ""
    repeat: bool = False
    choices: tuple | None = None

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")

    def resolve(self, value):
        if self.repeat:
            items = value if isinstance(value, list) else [value]
            return [self.convert(item, self.flag) for item in items]
        out = self.convert(value, self.flag)
        if self.choices is not None and out not in self.choices:
            raise ConfigError(
                f"{self.flag} must be one of {', '.join(self.choices)}, "
                f"got {out!r}"
            )
        return out


_OPTIONS = {option.key: option for option in (
    _Option("--data", _text, help="delimited data file to ingest"),
    _Option("--covariate-col", _text, "age",
            "covariate column (default: age)"),
    _Option("--time-col", _text, "time", "time column (default: time)"),
    _Option("--delta-col", _text, "delta",
            "event indicator column (default: delta)"),
    _Option("--group-col", _text, help="grouping column used by --group"),
    _Option("--delimiter", _text, ",", "field delimiter (default: comma)"),
    _Option("--no-header", _switch, False,
            "file has no header; address columns by index"),
    _Option("--group", _text, help="keep only rows with this group label "
            "(repeatable)", repeat=True),
    _Option("--model", _model_id, help="model 1 or 2 (estimate, selectbw: "
            "generate the sample from it instead of reading --data)"),
    _Option("--n", _at_least(1), help="sample size (mise: per trial; "
            "oracle: in the variance term)"),
    _Option("--m", _at_least(1), help="number of trials"),
    _Option("--x", _as_float, help="covariate value (repeatable)",
            repeat=True),
    _Option("--t", _as_float, help="time point (repeatable)", repeat=True),
    _Option("--h", _bandwidth, "auto", "bandwidth (estimate: or 'auto', "
            "the default, for the bootstrap selector)"),
    _Option("--h2", _positive,
            help="separate incidence bandwidth (fixed --h only)"),
    _Option("--clamp", _switch, False,
            "clip two-bandwidth latency into [0, 1], monotone"),
    _Option("--grid", _grid_spec,
            help="bandwidth grid lo:hi:count (log spaced)"),
    _Option("--grid2", _grid_spec, help="second grid for the two-bandwidth "
            "surface (defaults to --grid)"),
    _Option("--surface", _switch, False,
            "compute the two-bandwidth MISE surface"),
    _Option("--B", _at_least(1), 100, "bootstrap resamples (default 100)"),
    _Option("--pilot-c", _positive, 0.75,
            "pilot bandwidth constant (default 0.75)"),
    _Option("--time-points", _at_least(2), 200,
            "curve export grid size (default 200)"),
    _Option("--weight-upper", _positive,
            help="upper end of the MISE integration window"),
    _Option("--time-grid-size", _at_least(2), 100,
            "integration grid size (default 100)"),
    _Option("--seed", _as_int, 1, "master random seed (default 1)"),
    _Option("--out", _text, help="output file (relative paths resolve "
            f"against ${_OUTDIR_ENV} or the working directory)"),
    _Option("--format", _text, "csv", "table format (default csv)",
            choices=("csv", "json")),
    _Option("--config", _text, help="flat JSON file with defaults for any "
            "flag of this subcommand (explicit flags win)"),
)}

# how estimate and selectbw get their sample; recorded as "source"
_FILE_OPTIONS = (
    "covariate_col", "time_col", "delta_col", "group_col", "delimiter",
    "no_header", "group",
)
_SOURCE = ("data", *_FILE_OPTIONS, "model", "n")
_OUTPUT = ("out", "format")


def _load_config(path):
    """Flat JSON object whose keys mirror the long flag names."""
    if path is None:
        return {}
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    for key, value in raw.items():
        if isinstance(value, dict):
            raise ConfigError(f"config field {key!r}: nested objects not allowed")
    return raw


def _resolve(name, args):
    """Each option of subcommand ``name``: flag, else config file, else default.

    ``given`` holds the keys set by a flag or the config file.
    """
    keys = _COMMANDS[name].keys
    config = _load_config(args.config)
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise ConfigError(
            f"config field(s) not understood by {name}: {', '.join(unknown)}"
        )
    opts = {"given": set()}
    for key in keys:
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
        option = _OPTIONS[key]
        opts[key] = option.default if value is None else option.resolve(value)
        if value is not None:
            opts["given"].add(key)
    return opts


def _require(opts, key):
    value = opts[key]
    if value is None or value == []:
        raise ConfigError(f"missing required setting {_OPTIONS[key].flag}")
    return value


def _model(opts):
    return _MODELS[_require(opts, "model")]()


def _covariate_seed(seed: int, index: int) -> int:
    """Independent bootstrap seed per covariate value, reproducibly."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index, 2))
    return int(seq.generate_state(1)[0])


def _emit(command, opts, stem, columns, rows, summary, **recorded):
    """Write the table and its sidecar; return the table's path.

    The sidecar's ``config`` holds the command's resolved options,
    updated with ``recorded``.
    """
    out = Path(os.environ.get(_OUTDIR_ENV, ".")) / (
        opts["out"] or f"{stem}.{opts['format']}")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table(out, opts["format"], columns, rows)
    config = {key: opts[key] for key in _COMMANDS[command].options}
    config.update(recorded, out=str(out))
    meta = {
        "command": command,
        "config": config,
        "summary": summary,
        "version": __version__,
    }
    write_meta(Path(str(out) + ".meta.json"), meta)
    return out


# ---------------------------------------------------------------------------
# data sources

def _generate(opts):
    """``--n`` rows drawn from ``--model`` at ``--seed``, and their record."""
    spec = _model(opts)
    n = _require(opts, "n")
    sample = generate(spec, n, trial_rng(opts["seed"], 0))
    source = {
        "model": spec.model_id,
        "n": n,
        "seed": opts["seed"],
        "n_censored": int(np.sum(sample.delta == 0)),
    }
    return sample, source


def _resolve_sample(opts):
    """Sample from ``--data`` (ingested file) or ``--model`` (generated).

    Options of the other source would be ignored, so giving any is an
    error.
    """
    if opts["data"] is None and opts["model"] is None:
        raise ConfigError("need a data source: --data FILE or --model {1,2}")
    if opts["data"] is None:
        others, source = _FILE_OPTIONS, "--model, which generates the sample"
    else:
        others = ("model", "n")
        source = "--data, which reads the sample from a file"
    mixed = [_OPTIONS[key].flag for key in others if key in opts["given"]]
    if mixed:
        raise ConfigError(
            f"{' and '.join(mixed)} cannot be combined with {source}"
        )
    if opts["data"] is None:
        return _generate(opts)
    schema = DatasetSchema(
        covariate=opts["covariate_col"],
        time=opts["time_col"],
        delta=opts["delta_col"],
        group=opts["group_col"],
        delimiter=opts["delimiter"],
        header=not opts["no_header"],
    )
    report = ingest(opts["data"], schema, opts["group"])
    source = {
        "data": opts["data"],
        "group": opts["group"],
        "rows_read": report.rows_read,
        "rows_kept": report.rows_kept,
        "n_censored": report.n_censored,
        "censoring_fraction": report.censoring_fraction,
    }
    return report.sample, source


# ---------------------------------------------------------------------------
# subcommands

def _mise_star_at(sample, opts, index, xv):
    """Bootstrap MISE* curve at the ``index``-th ``--x``, on its own seed."""
    config = BootstrapConfig(
        B=opts["B"], grid=_log_grid(opts["grid"]),
        seed=_covariate_seed(opts["seed"], index), pilot_c=opts["pilot_c"],
    )
    return mise_star(sample, xv, config)


def _each_x(xs, rows_at, what):
    """Rows of ``rows_at(index, x)`` over every ``--x``, and the failures.

    An estimation failure at one covariate value is recorded and the
    rest go on; failing at all of them is fatal.
    """
    rows = []
    failures = []
    for i, xv in enumerate(xs):
        try:
            rows.extend(rows_at(i, xv))
        except EstimationError as exc:
            failures.append({"x": xv, "error": str(exc)})
    if not rows:
        raise EstimationError(
            f"{what} failed at every covariate value: "
            + "; ".join(f"x={f['x']}: {f['error']}" for f in failures)
        )
    return rows, failures


def _cmd_simulate(opts):
    sample, source = _generate(opts)
    n, n_censored = source["n"], source["n_censored"]
    summary = {
        "n": n,
        "n_censored": n_censored,
        "censoring_fraction": n_censored / n,
    }
    rows = zip(sample.x, sample.t, sample.delta)
    out = _emit("simulate", opts, f"simulate_model{opts['model']}",
                ("x", "t", "delta"), rows, summary)
    print(f"wrote {out}: {n} rows, {n_censored} censored")
    return EXIT_OK


def _cmd_estimate(opts):
    sample, source = _resolve_sample(opts)
    xs = _require(opts, "x")
    h, h2 = opts["h"], opts["h2"]
    auto = h == "auto"
    if auto:
        if h2 is not None:
            raise ConfigError("--h2 requires a fixed --h, not auto selection")
        if opts["grid"] is None:
            raise ConfigError("missing required setting --grid "
                              "(required with --h auto)")

    selections = []

    def rows_at(i, xv):
        h_used = h
        if auto:
            curve = _mise_star_at(sample, opts, i, xv)
            h_used = curve.selected
            selections.append({
                "x": xv,
                "h_star": h_used,
                "pilot_bandwidth": curve.pilot_bandwidth,
                "resample_failures": int(curve.failures.sum()),
            })
        if h2 is not None:
            fit = latency_estimate_two_bw(
                sample, xv, h_used, h2, clamp=opts["clamp"])
        else:
            fit = latency_estimate(sample, xv, h_used)
        tgrid = np.linspace(0.0, fit.t_max_uncensored, opts["time_points"])
        latency = fit.latency.evaluate(tgrid)
        h2_used = fit.h2 if fit.h2 is not None else h_used
        return [(xv, h_used, h2_used, fit.incidence, tv, lv)
                for tv, lv in zip(tgrid, latency)]

    rows, failures = _each_x(xs, rows_at, "estimation")
    # a fixed bandwidth runs no bootstrap: its settings are recorded as
    # null (a generated sample's seed is in source)
    unused = {} if auto else dict.fromkeys(("grid", "B", "pilot_c", "seed"))
    out = _emit(
        "estimate", opts, "estimate",
        ("x", "h", "h2", "incidence", "t", "latency"), rows,
        {"failures": failures, "selections": selections},
        source=source, **unused,
    )
    print(
        f"wrote {out}: {len(xs) - len(failures)} of {len(xs)} covariate values"
    )
    return EXIT_OK


def _cmd_selectbw(opts):
    sample, source = _resolve_sample(opts)
    xs = _require(opts, "x")
    _require(opts, "grid")
    selections = []

    def rows_at(i, xv):
        curve = _mise_star_at(sample, opts, i, xv)
        selections.append({
            "x": xv,
            "h_star": curve.selected,
            "pilot_bandwidth": curve.pilot_bandwidth,
            "weight_upper": curve.weight_upper,
        })
        return [(xv, h, v, int(f)) for h, v, f in
                zip(curve.grid.values, curve.values, curve.failures)]

    rows, failures = _each_x(xs, rows_at, "selection")
    out = _emit(
        "selectbw", opts, "selectbw", ("x", "h", "mise_star", "failures"),
        rows, {"failures": failures, "selections": selections}, source=source,
    )
    for sel in selections:
        print(f"x={sel['x']}: h_star={sel['h_star']}")
    return EXIT_OK


def _cmd_mise(opts):
    spec = _model(opts)
    n = _require(opts, "n")
    m = _require(opts, "m")
    xs = _require(opts, "x")
    grid = _log_grid(_require(opts, "grid"))
    surface = opts["surface"] or opts["grid2"] is not None
    grid2 = grid if opts["grid2"] is None else _log_grid(opts["grid2"])
    ecfg = ExperimentConfig(
        seed=opts["seed"], weight_upper=opts["weight_upper"],
        time_grid_size=opts["time_grid_size"],
    )

    rows = []
    minima = []
    if surface:
        for xv in xs:
            surf = true_mise_two_bw(spec, n, m, xv, grid, grid2, ecfg)
            i1, i2 = surf.argmin_pair()
            minima.append({
                "x": xv,
                "h1_star": float(grid.values[i1]),
                "h2_star": float(grid2.values[i2]),
            })
            for a, h1 in enumerate(grid.values):
                for b, h2 in enumerate(grid2.values):
                    rows.append(
                        (xv, h1, h2, surf.values[a, b], int(surf.trials_used[a, b]))
                    )
        columns = ("x", "h1", "h2", "mise", "trials_used")
    else:
        for xv in xs:
            curve = true_mise(spec, n, m, xv, grid, ecfg)
            minima.append({"x": xv, "h_star": curve.selected})
            rows.extend(
                (xv, h, v, int(m - f))
                for h, v, f in zip(grid.values, curve.values, curve.failures)
            )
        columns = ("x", "h", "mise", "trials_used")

    out = _emit("mise", opts, f"mise_model{opts['model']}", columns, rows,
                {"minima": minima}, surface=surface)
    print(f"wrote {out}: {len(rows)} rows")
    return EXIT_OK


def _cmd_oracle(opts):
    spec = _model(opts)
    ts = _require(opts, "t")
    xs = _require(opts, "x")
    h = opts["h"]
    if h == "auto":
        raise ConfigError("oracle needs a numeric --h")
    n = _require(opts, "n")

    pop = population_from_model(spec)
    rows = []
    failures = []
    for xv in xs:
        # the t-independent full-support transforms at xv, computed at
        # the first point past its support guard and reused for the rest
        pieces = None
        for tv in ts:
            try:
                if pieces is None:
                    _guard(pop, tv, xv)
                    pieces = _infinity_pieces(pop, xv)
                terms = bias_variance_terms(pop, tv, xv, _inf_pieces=pieces)
            except EstimationError as exc:
                failures.append({"t": tv, "x": xv, "error": str(exc)})
                continue
            report = amse(pop, tv, xv, h, n, terms=terms)
            rows.append((
                tv, xv, h, n,
                terms.b1, terms.b2, terms.v1, terms.v2, terms.v3,
                report.bias_term, report.variance_term, report.amse,
            ))
    if not rows:
        raise EstimationError(
            "oracle evaluation failed at every point: "
            + "; ".join(
                f"(t={f['t']}, x={f['x']}): {f['error']}" for f in failures
            )
        )

    columns = (
        "t", "x", "h", "n", "b1", "b2", "v1", "v2", "v3",
        "bias_term", "variance_term", "amse",
    )
    out = _emit("oracle", opts, f"oracle_model{opts['model']}", columns, rows,
                {"failures": failures})
    print(f"wrote {out}: {len(rows)} rows")
    return EXIT_OK


_SYNTH_STAGES = (1, 2, 3, 4)
_SYNTH_TOTALS = (62, 167, 133, 52)
_SYNTH_CENSORED = (44, 92, 53, 16)
_SYNTH_TIME_SCALE = {1: 60.0, 2: 45.0, 3: 25.0, 4: 12.0}


def _cmd_synth_data(opts):
    """A synthetic clinical-shaped file with fixed per-group marginals.

    Row counts and censored counts per group are fixed by construction
    (414 rows, 205 censored overall); ages and times vary with the
    seed.  Times are in months, later groups having worse prognosis.
    """
    rng = np.random.default_rng(opts["seed"])

    rows = []
    for stage, total, censored in zip(
        _SYNTH_STAGES, _SYNTH_TOTALS, _SYNTH_CENSORED
    ):
        ages = rng.integers(23, 104, size=total)
        scale = _SYNTH_TIME_SCALE[stage]
        n_event = total - censored
        times = np.concatenate([
            np.round(rng.exponential(scale, size=n_event) + 0.1, 2),
            np.round(rng.uniform(1.0, 120.0, size=censored), 2),
        ])
        deltas = np.concatenate([
            np.ones(n_event, dtype=int), np.zeros(censored, dtype=int),
        ])
        order = rng.permutation(total)
        rows.extend(
            (stage, int(ages[i]), float(times[i]), int(deltas[i]))
            for i in order
        )

    total_rows = sum(_SYNTH_TOTALS)
    total_censored = sum(_SYNTH_CENSORED)
    summary = {
        "rows": total_rows,
        "n_censored": total_censored,
        "censoring_fraction": total_censored / total_rows,
        "per_group": [
            {"stage": s, "patients": t, "censored": c}
            for s, t, c in zip(_SYNTH_STAGES, _SYNTH_TOTALS, _SYNTH_CENSORED)
        ],
    }
    out = _emit("synth-data", opts, "synthetic_cancer",
                ("stage", "age", "time", "delta"), rows, summary)
    print(
        f"wrote {out}: {total_rows} rows, {total_censored} censored "
        f"({100.0 * total_censored / total_rows:.2f}%)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand table and parser

class _Command(NamedTuple):
    """A subcommand: what it runs and the options it takes.

    The sidecar records ``options``; a command that reads a sample also
    takes the ``_SOURCE`` options and records them as ``source``.  Every
    command takes ``--config``, whose keys are the command's ``keys``.
    """

    run: Callable[[dict], int]
    help: str
    options: tuple
    reads_sample: bool = False

    @property
    def keys(self) -> tuple:
        return (_SOURCE if self.reads_sample else ()) + self.options


_COMMANDS = {
    "estimate": _Command(
        _cmd_estimate, "incidence and latency curves at covariate values",
        ("x", "h", "h2", "clamp", "grid", "B", "pilot_c", "time_points",
         "seed") + _OUTPUT,
        reads_sample=True,
    ),
    "simulate": _Command(
        _cmd_simulate, "draw one sample from a model",
        ("model", "n", "seed") + _OUTPUT,
    ),
    "selectbw": _Command(
        _cmd_selectbw, "bootstrap MISE curve and selected bandwidth",
        ("x", "grid", "B", "pilot_c", "seed") + _OUTPUT,
        reads_sample=True,
    ),
    "mise": _Command(
        _cmd_mise, "Monte Carlo MISE of the latency estimate over a grid",
        ("model", "n", "m", "x", "grid", "grid2", "surface", "weight_upper",
         "time_grid_size", "seed") + _OUTPUT,
    ),
    "oracle": _Command(
        _cmd_oracle, "asymptotic bias/variance components and AMSE",
        ("model", "t", "x", "h", "n") + _OUTPUT,
    ),
    "synth-data": _Command(
        _cmd_synth_data, "write a synthetic clinical-shaped data file with "
        "fixed group marginals",
        ("seed",) + _OUTPUT,
    ),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="npmixcure",
        description="Nonparametric mixture cure model estimation: "
        "kernel incidence and latency estimators, bootstrap bandwidth "
        "selection, Monte Carlo MISE experiments, and the asymptotic "
        "bias/variance oracle.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for key in (*command.keys, "config"):
            option = _OPTIONS[key]
            # every value stays a string until _resolve converts it;
            # None means the flag was not given
            if option.repeat:
                extra = {"action": "append"}
            elif option.convert is _switch:
                extra = {"action": "store_true", "default": None}
            else:
                extra = {"choices": option.choices}
            cmd.add_argument(option.flag, dest=key, help=option.help, **extra)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command].run(_resolve(args.command, args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except Exception as exc:  # anything else is a bug, not a user error
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
