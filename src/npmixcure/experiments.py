"""Monte Carlo MISE experiments for the latency estimators.

True (simulation) MISE curves and surfaces against known
data-generating processes, and the head-to-head comparison of the
bootstrap bandwidth selector with the grid-optimal bandwidth.  All
trials are seeded through spawned per-trial streams, so every quantity
here is reproducible bit-for-bit from (model, n, m, seed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import (
    BandwidthGrid,
    BootstrapConfig,
    MiseCurve,
    _check_scoring,
    _covariates,
    _mise_curve,
    _mise_mean,
    _time_grid,
    mise_star,
)
from .cure import _latency_ise
from .exceptions import EstimationError
from .kernels import _kernel_rows
from .models import ModelSpec, generate, trial_rng
from .survival import _beran_rows

__all__ = [
    "ExperimentConfig",
    "MiseSurface",
    "SelectorStudy",
    "true_mise",
    "true_mise_two_bw",
    "bootstrap_vs_optimal",
]

# trials drawn together, whose latency levels share one model-2 bisection;
# a chunk's (trials, n) arrays stay near this size.  Larger chunks outgrow
# the fits' own memory peak: on the n=400 model-2 surface the traced peak
# of a job was 612 KiB drawing one trial at a time, 706 KiB at this size
# and 1047 KiB at twice it
_TRIAL_CHUNK_BYTES = 1 << 15


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the Monte Carlo experiments.

    ``weight_upper`` bounds the MISE integration window; None uses each
    trial's largest uncensored time, mirroring the bootstrap selector's
    weight.  Integration is trapezoidal on ``time_grid_size`` points.
    """

    seed: int
    weight_upper: float | None = None
    time_grid_size: int = BootstrapConfig.time_grid_size

    def __post_init__(self):
        _check_scoring(self)


@dataclass
class MiseSurface:
    """True MISE over a two-bandwidth lattice at one covariate value.

    ``values[i, j]`` is the MISE of the estimate with survival-curve
    bandwidth ``h1.values[i]`` and incidence bandwidth ``h2.values[j]``;
    ``trials_used[i, j]`` counts the trials whose fit succeeded there.
    """

    model_id: str
    n: int
    m: int
    x: float
    h1: BandwidthGrid
    h2: BandwidthGrid
    values: np.ndarray
    trials_used: np.ndarray

    def argmin_pair(self) -> tuple[int, int]:
        """Lattice indices of the first minimal MISE entry."""
        flat = int(np.argmin(self.values))
        return flat // self.values.shape[1], flat % self.values.shape[1]


def _trials(spec, n, m, seed):
    """``(j, sample)`` for the trials ``j < m`` in order, drawn in chunks."""
    chunk = max(1, _TRIAL_CHUNK_BYTES // (8 * n))
    for lo in range(0, m, chunk):
        streams = [trial_rng(seed, j) for j in range(lo, min(lo + chunk, m))]
        yield from enumerate(generate(spec, n, streams), lo)


def _mise_sums(spec, n, m, xs, hs, rows1, rows2, config, visit=None):
    """Integrated squared errors of bandwidth pairs, summed over trials.

    Pair ``k`` combines the survival curve at ``hs[rows1[k]]`` with the
    incidence at ``hs[rows2[k]]``; the diagonal pairs are the
    one-bandwidth estimator.  Each trial draws one sample (stream
    spawned from the seed and the trial index; a chunk of trials is
    drawn in one :func:`generate` call), which ``visit(j, sample)`` sees
    first when given, and fits every (x, bandwidth) on it in one
    product-limit call, so all pairs and covariate values are compared
    on common samples.  Raw (unclamped) estimates enter the
    error; a pair whose fit fails on a trial skips that trial.

    Returns the sums and the counts of trials used, (len(xs), K) arrays.
    Raises ``ValueError`` before any draw if ``n`` or ``m`` is below one.
    """
    if n < 1 or m < 1:
        raise ValueError(
            f"need at least one trial of at least one row, got n={n}, m={m}")
    xs = np.asarray(xs, dtype=float)
    sums = np.zeros((xs.size, rows1.size))
    used = np.zeros((xs.size, rows1.size), dtype=np.int64)
    for j, sample in _trials(spec, n, m, config.seed):
        if visit is not None:
            visit(j, sample)
        if not np.any(sample.delta == 1):
            continue
        tgrid = _time_grid(sample, config)
        order = np.lexsort((-sample.delta, sample.t))
        # row i * L + l is xs[i] at hs[l]
        raw = _kernel_rows(xs[:, None], sample.x[order], hs)
        curves, plateaus, fitted = _beran_rows(
            sample.delta[order], raw.reshape(-1, n),
            np.searchsorted(sample.t[order], tgrid, side="right")[None] - 1)
        # pairs are combined one x at a time: stacked, the (len(x) * K, T)
        # temporaries outgrow malloc's 128 KiB mmap threshold and measured
        # slower
        for i, x in enumerate(xs):
            at_x = slice(i * hs.size, (i + 1) * hs.size)
            ise = _latency_ise(curves[at_x], plateaus[at_x], fitted[at_x],
                               spec.s0(tgrid, x), tgrid, rows1, rows2)
            ok = ~np.isnan(ise)
            sums[i, ok] += ise[ok]
            used[i, ok] += 1
    return sums, used


def true_mise(
    spec: ModelSpec,
    n: int,
    m: int,
    x,
    grid: BandwidthGrid,
    config: ExperimentConfig,
) -> MiseCurve | list[MiseCurve]:
    """Monte Carlo MISE of the one-bandwidth latency estimate.

    Each trial draws a fresh sample and evaluates every grid bandwidth
    at every covariate value on it, so the grid is compared on common
    samples.  Trials whose fit fails at a bandwidth are skipped there
    and counted in ``failures``.

    ``x`` is one covariate value, giving one :class:`MiseCurve`, or a
    nonempty sequence of them, giving a list of curves in the same order.
    """
    xs, single = _covariates(x)
    rows = np.arange(len(grid))
    sums, used = _mise_sums(spec, n, m, xs, grid.values, rows, rows, config)
    curves = [_mise_curve(grid, s, u, m, "trial",
                          weight_upper=config.weight_upper, trials=m)
              for s, u in zip(sums, used)]
    return curves[0] if single else curves


def true_mise_two_bw(
    spec: ModelSpec,
    n: int,
    m: int,
    x,
    grid1: BandwidthGrid,
    grid2: BandwidthGrid,
    config: ExperimentConfig,
) -> MiseSurface | list[MiseSurface]:
    """Monte Carlo MISE of the two-bandwidth latency estimate.

    Raw (unclamped) estimates enter the integrated squared error, so a
    bandwidth pair is penalized for leaving [0, 1].  With ``grid1 ==
    grid2`` and the same seed, the diagonal of the surface reproduces
    :func:`true_mise` exactly: trials see identical samples and the
    diagonal combination is the one-bandwidth estimator.

    ``x`` is one covariate value, giving one :class:`MiseSurface`, or a
    nonempty sequence of them, giving a list of surfaces in the same order.
    """
    xs, single = _covariates(x)
    # np.union1d would import numpy.ma, about 0.7 MiB, for two short grids
    hs = np.array(sorted(set(grid1.values).union(grid2.values)))
    rows1, rows2 = (rows.ravel() for rows in np.meshgrid(
        np.searchsorted(hs, grid1.values), np.searchsorted(hs, grid2.values),
        indexing="ij"))
    sums, used = _mise_sums(spec, n, m, xs, hs, rows1, rows2, config)
    shape = (len(grid1), len(grid2))
    surfaces = []
    for xv, s, u in zip(xs, sums, used):
        surfaces.append(MiseSurface(
            model_id=spec.model_id,
            n=n,
            m=m,
            x=xv,
            h1=grid1,
            h2=grid2,
            # an error names the (h1, h2) pairs that no trial fitted
            values=_mise_mean(s, u, np.column_stack((hs[rows1], hs[rows2])),
                              "trial").reshape(shape),
            trials_used=u.reshape(shape),
        ))
    return surfaces[0] if single else surfaces


@dataclass
class SelectorStudy:
    """Bootstrap-selected bandwidths against the grid-optimal MISE.

    ``selected_index[j]`` is the grid index the selector picked on
    trial ``j`` (-1 when selection failed), ``ratios`` the true MISE at
    the selection divided by the grid minimum for the successful
    trials, and ``histogram`` the selection counts per grid index.
    """

    model_id: str
    n: int
    m: int
    x: float
    grid: BandwidthGrid
    mise: MiseCurve
    selected_index: np.ndarray
    ratios: np.ndarray
    histogram: np.ndarray
    selector_failures: int

    def ratio_quantiles(self, qs=(0.25, 0.5, 0.75)) -> dict:
        return {f"q{int(100 * q)}": float(np.quantile(self.ratios, q))
                for q in qs}


def _bootstrap_seed(master_seed: int, trial: int) -> int:
    # child key 1 so bootstrap streams never collide with trial streams
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial, 1))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def bootstrap_vs_optimal(
    spec: ModelSpec,
    n: int,
    m: int,
    x: float,
    grid: BandwidthGrid,
    B: int,
    config: ExperimentConfig,
    pilot_c: float = BootstrapConfig.pilot_c,
) -> SelectorStudy:
    """Compare the bootstrap bandwidth selector with the grid optimum.

    Each trial's sample feeds both the true MISE curve over the grid
    and one run of the selector, and each selection is scored by the
    ratio of its true MISE to the grid minimum.
    """
    picks = []  # the selected grid index on each trial, in order; -1 failed

    def select(j, sample):
        bconfig = BootstrapConfig(
            B=B,
            grid=grid,
            seed=_bootstrap_seed(config.seed, j),
            pilot_c=pilot_c,
            weight_upper=config.weight_upper,
            time_grid_size=config.time_grid_size,
        )
        try:
            picks.append(mise_star(sample, x, bconfig).argmin_index)
        except EstimationError:
            picks.append(-1)

    rows = np.arange(len(grid))
    sums, used = _mise_sums(spec, n, m, [x], grid.values, rows, rows,
                            config, select)
    mise = _mise_curve(grid, sums[0], used[0], m, "trial",
                       weight_upper=config.weight_upper, trials=m)
    selected_index = np.array(picks, dtype=np.int64)
    ok = selected_index >= 0
    ratios = mise.values[selected_index[ok]] / mise.values.min()
    histogram = np.bincount(selected_index[ok], minlength=len(grid))
    return SelectorStudy(
        model_id=spec.model_id,
        n=n,
        m=m,
        x=x,
        grid=grid,
        mise=mise,
        selected_index=selected_index,
        ratios=ratios,
        histogram=histogram.astype(np.int64),
        selector_failures=int(m - ok.sum()),
    )
