"""Command line tools: estimation, simulation, bandwidth selection, oracle.

Every subcommand writes one table (CSV by default, JSON on request)
plus a ``<out>.meta.json`` sidecar holding the resolved configuration,
the package version, and a run summary.  The sidecar contains nothing
volatile, so rerunning a subcommand with the same configuration and
seed produces byte-identical files.

Each option is declared once, in ``_OPTIONS``.  Its flag, the default
``--help`` shows, the key a ``--config`` file may give it, and the value
the sidecar records all come from that declaration: a flag string and a
JSON config value go through the same converter.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 estimation failure, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, _raised, log_grid, mise_star
from .cure import _latency_fit
from .exceptions import ConfigError, DataError, EstimationError
from .experiments import ExperimentConfig, true_mise, true_mise_two_bw
from .io_utils import DatasetSchema, ingest, write_meta, write_table
from .models import generate, model1, model2, trial_rng
from .oracle import _refusals, amse

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
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{flag} must be an integer, got {value!r}") from None
    if isinstance(value, float) and value != out:
        raise ConfigError(f"{flag} must be an integer, got {value!r}")
    return out


def _as_float(value, flag):
    if isinstance(value, bool):
        raise ConfigError(f"{flag} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{flag} must be a number, got {value!r}") from None


def _checked(convert, ok, rule):
    """Converter: ``convert``, then a ConfigError unless ``ok`` holds."""
    def check(value, flag):
        out = convert(value, flag)
        if not ok(out):
            raise ConfigError(f"{flag} must be {rule}, got {out}")
        return out
    return check


_SIZE_MAX = int(np.iinfo(np.intp).max) // 8  # the longest float64 array


def _size(low):
    """Converter to an integer from ``low`` to ``_SIZE_MAX``."""
    return _checked(_as_int, lambda out: low <= out <= _SIZE_MAX,
                    f"from {low} to {_SIZE_MAX}")


_finite = _checked(_as_float, math.isfinite, "finite")
# a time point; inf means the full support
_time = _checked(_as_float, lambda out: out > -math.inf, "a number or inf")
_positive = _checked(_as_float, lambda out: 0.0 < out < math.inf,
                     "positive and finite")
_model_id = _checked(_as_int, _MODELS.__contains__, "1 or 2")
# SeedSequence takes any nonnegative integer, however large
_seed = _checked(_as_int, lambda out: out >= 0, "at least 0")


def _text(value, flag):
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{flag} must be a string, got {value!r}")
    return str(value)


def _switch(value, flag):
    """On/off option: a bare flag, or a JSON boolean in a config file."""
    if not isinstance(value, bool):
        raise ConfigError(f"{flag} must be true or false, got {value!r}")
    return value


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
    count = _size(1)(parts[2], f"{flag} count")
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

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")

    def resolve(self, value):
        if self.repeat:
            items = value if isinstance(value, list) else [value]
            return [self.convert(item, self.flag) for item in items]
        return self.convert(value, self.flag)


_OPTIONS = {option.key: option for option in (
    _Option("--data", _text, help="delimited data file to ingest"),
    _Option("--covariate-col", _text, DatasetSchema.covariate,
            "covariate column"),
    _Option("--time-col", _text, DatasetSchema.time, "time column"),
    _Option("--delta-col", _text, DatasetSchema.delta,
            "event indicator column"),
    _Option("--group-col", _text, help="grouping column used by --group"),
    _Option("--delimiter", _text, DatasetSchema.delimiter, "field delimiter"),
    _Option("--no-header", _switch, False,
            "file has no header; address columns by index"),
    _Option("--group", _text, help="keep only rows with this group label "
            "(repeatable)", repeat=True),
    _Option("--model", _model_id, help="model 1 or 2 (estimate, selectbw: "
            "generate the sample from it instead of reading --data)"),
    _Option("--n", _size(1), help="sample size (mise: per trial; "
            "oracle: in the variance term)"),
    _Option("--m", _size(1), help="number of trials"),
    _Option("--x", _finite, help="covariate value (repeatable)",
            repeat=True),
    _Option("--t", _time, help="time point (repeatable; inf means the "
            "full support)", repeat=True),
    _Option("--h", _bandwidth, "auto", "bandwidth; estimate also takes "
            "'auto' for the bootstrap selector"),
    _Option("--h2", _positive,
            help="separate incidence bandwidth (fixed --h only)"),
    _Option("--clamp", _switch, False,
            "clip the latency into [0, 1], monotone"),
    _Option("--grid", _grid_spec,
            help="bandwidth grid lo:hi:count (log spaced)"),
    _Option("--grid2", _grid_spec, help="second grid for the two-bandwidth "
            "surface, if not --grid"),
    _Option("--surface", _switch, False,
            "compute the two-bandwidth MISE surface"),
    _Option("--B", _size(1), 100, "bootstrap resamples"),
    _Option("--pilot-c", _positive, BootstrapConfig.pilot_c,
            "pilot bandwidth constant"),
    _Option("--time-points", _size(2), 200, "curve export grid size"),
    _Option("--weight-upper", _positive,
            help="upper end of the MISE integration window"),
    _Option("--time-grid-size", _size(2), ExperimentConfig.time_grid_size,
            "integration grid size"),
    _Option("--seed", _seed, 1, "master random seed"),
    _Option("--out", _text, help="output file (relative paths resolve "
            f"against ${_OUTDIR_ENV} or the working directory)"),
    _Option("--format", _checked(_text, ("csv", "json").__contains__,
                                 "csv or json"),
            "csv", "table format: csv or json"),
    _Option("--config", _text, help="flat JSON file with defaults for any "
            "flag of this subcommand (explicit flags win)"),
)}

# how estimate and selectbw get their sample, recorded as "source": a
# --data file read through these options, or --n rows from --model
_FILE_OPTIONS = (
    "covariate_col", "time_col", "delta_col", "group_col", "delimiter",
    "no_header", "group",
)
_BOOTSTRAP = ("grid", "B", "pilot_c", "seed")
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
    return raw


def _resolve(name, args):
    """Each option of subcommand ``name``: flag, else config file, else default.

    Every config value is converted, even one a flag overrides.
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
        opts[key] = _OPTIONS[key].default
        for value in (config.get(key), getattr(args, key)):
            if value is not None:
                opts[key] = _OPTIONS[key].resolve(value)
                opts["given"].add(key)
    return opts


def _require(opts, key):
    value = opts[key]
    if value is None or value == []:
        raise ConfigError(f"missing required setting {_OPTIONS[key].flag}")
    return value


def _model(opts):
    return _MODELS[_require(opts, "model")]()


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

def _mise_stars(sample, opts, xs):
    """Bootstrap MISE* curves at every ``--x``, each on its own seed, or
    the error each failed with."""
    config = BootstrapConfig(
        B=opts["B"], grid=_log_grid(opts["grid"]), seed=opts["seed"],
        pilot_c=opts["pilot_c"],
    )
    return mise_star(sample, xs, config)


def _selection(x, curve, **fields):
    """The sidecar record of the bandwidth ``curve`` selects at ``x``."""
    return {"x": x, "h_star": curve.selected,
            "pilot_bandwidth": curve.pilot_bandwidth, **fields}


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
    curves = _mise_stars(sample, opts, xs) if auto else None

    def rows_at(i, xv):
        h_used = h
        if auto:
            curve = _raised(curves[i])
            h_used = curve.selected
            selections.append(_selection(
                xv, curve, resample_failures=int(curve.failures.sum())))
        fit = _latency_fit(sample, xv, h_used, h2, opts["clamp"])
        tgrid = np.linspace(0.0, fit.t_max_uncensored, opts["time_points"])
        latency = fit.latency.evaluate(tgrid)
        return [(xv, h_used, h2 or h_used, fit.incidence, tv, lv)
                for tv, lv in zip(tgrid, latency)]

    rows, failures = _each_x(xs, rows_at, "estimation")
    # a fixed bandwidth runs no bootstrap: its settings are recorded as
    # null (a generated sample's seed is in source)
    unused = {} if auto else dict.fromkeys(_BOOTSTRAP)
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
    curves = _mise_stars(sample, opts, xs)

    def rows_at(i, xv):
        curve = _raised(curves[i])
        selections.append(
            _selection(xv, curve, weight_upper=curve.weight_upper))
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
        for xv, surf in zip(xs, true_mise_two_bw(spec, n, m, xs, grid, grid2,
                                                 ecfg)):
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
        for xv, curve in zip(xs, true_mise(spec, n, m, xs, grid, ecfg)):
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

    # the lattice, x outer and t inner; the accepted points share one
    # amse call, the refused ones are recorded in that order
    lattice = [(tv, xv) for xv in xs for tv in ts]
    refused = _refusals(spec, *np.array(lattice).T, density=True)
    kept = [point for i, point in enumerate(lattice) if i not in refused]
    failures = [{"t": lattice[i][0], "x": lattice[i][1], "error": refused[i]}
                for i in sorted(refused)]
    if not kept:
        raise EstimationError(
            "oracle evaluation failed at every point: "
            + "; ".join(
                f"(t={f['t']}, x={f['x']}): {f['error']}" for f in failures
            )
        )
    report = amse(spec, *np.array(kept).T, h, n)
    terms = report.terms
    values = zip(*(part.tolist() for part in (
        terms.b1, terms.b2, terms.v1, terms.v2, terms.v3,
        report.bias_term, report.variance_term, report.amse)))
    rows = [(tv, xv, h, n, *row) for (tv, xv), row in zip(kept, values)]

    columns = (
        "t", "x", "h", "n", "b1", "b2", "v1", "v2", "v3",
        "bias_term", "variance_term", "amse",
    )
    out = _emit("oracle", opts, f"oracle_model{opts['model']}", columns, rows,
                {"failures": failures})
    print(f"wrote {out}: {len(rows)} rows")
    return EXIT_OK


# stage, patients, censored, time scale (months)
_SYNTH_GROUPS = (
    (1, 62, 44, 60.0),
    (2, 167, 92, 45.0),
    (3, 133, 53, 25.0),
    (4, 52, 16, 12.0),
)


def _cmd_synth_data(opts):
    """A synthetic clinical-shaped file with fixed per-group marginals.

    Row counts and censored counts per group are fixed by construction
    (414 rows, 205 censored overall); ages and times vary with the
    seed.  Times are in months, later groups having worse prognosis.
    """
    rng = np.random.default_rng(opts["seed"])

    rows = []
    for stage, total, censored, scale in _SYNTH_GROUPS:
        ages = rng.integers(23, 104, size=total)
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

    total_rows = sum(group[1] for group in _SYNTH_GROUPS)
    total_censored = sum(group[2] for group in _SYNTH_GROUPS)
    summary = {
        "rows": total_rows,
        "n_censored": total_censored,
        "censoring_fraction": total_censored / total_rows,
        "per_group": [
            {"stage": s, "patients": t, "censored": c}
            for s, t, c, _ in _SYNTH_GROUPS
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
    takes the options of its source and records them as ``source``.
    Every command takes ``--config``, whose keys are the command's
    ``keys``.
    """

    run: Callable[[dict], int]
    help: str
    options: tuple
    reads_sample: bool = False

    @property
    def keys(self) -> tuple:
        source = ("data", *_FILE_OPTIONS, "model", "n")
        return (source if self.reads_sample else ()) + self.options


_COMMANDS = {
    "estimate": _Command(
        _cmd_estimate, "incidence and latency curves at covariate values",
        ("x", "h", "h2", "clamp", "time_points", *_BOOTSTRAP, *_OUTPUT),
        reads_sample=True,
    ),
    "simulate": _Command(
        _cmd_simulate, "draw one sample from a model",
        ("model", "n", "seed") + _OUTPUT,
    ),
    "selectbw": _Command(
        _cmd_selectbw, "bootstrap MISE curve and selected bandwidth",
        ("x", *_BOOTSTRAP, *_OUTPUT),
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


@functools.cache  # parse_args leaves the parser as it was
def _build_parser():
    # allow_abbrev=False: a flag matches only in full, as a config key does
    parser = argparse.ArgumentParser(
        prog="npmixcure", allow_abbrev=False,
        description="Nonparametric mixture cure model estimation: "
        "kernel incidence and latency estimators, bootstrap bandwidth "
        "selection, Monte Carlo MISE experiments, and the asymptotic "
        "bias/variance oracle.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for key in (*command.keys, "config"):
            option = _OPTIONS[key]
            # every value stays a string until _resolve converts it;
            # None means the flag was not given
            if option.repeat:
                extra = {"action": "append"}
            elif option.convert is _switch:
                extra = {"action": "store_true", "default": None}
            else:
                extra = {}
            show = option.default is not None and option.convert is not _switch
            cmd.add_argument(option.flag, dest=key, help=option.help + (
                f" (default: {option.default})" if show else ""), **extra)
    return parser


def _joined(argv):
    """Each ``--flag value`` of an option that takes a value as ``--flag=value``.

    argparse reads a separate value that starts with ``-`` as a flag
    unless it looks like ``-5`` or ``-.5``, so ``--x -1e3`` and
    ``--t -inf`` would stop with ``expected one argument``.
    """
    valued = {o.flag for o in _OPTIONS.values() if o.convert is not _switch}
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in valued else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv))
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
