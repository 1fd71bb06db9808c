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

from .bootstrap import BandwidthGrid, BootstrapConfig, MiseCurve, mise_star
from .exceptions import EstimationError
from .kernels import EPANECHNIKOV, Kernel
from .models import ModelSpec, generate, trial_rng
from .survival import CensoredSample, _beran_rows

__all__ = [
    "ExperimentConfig",
    "MiseSurface",
    "SelectorStudy",
    "true_mise",
    "true_mise_two_bw",
    "bootstrap_vs_optimal",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the Monte Carlo experiments.

    ``weight_upper`` bounds the MISE integration window; None uses each
    trial's largest uncensored time, mirroring the bootstrap selector's
    weight.  Integration is trapezoidal on ``time_grid_size`` points.
    """

    seed: int
    weight_upper: float | None = None
    time_grid_size: int = 100

    def __post_init__(self):
        if self.time_grid_size < 2:
            raise ValueError("time_grid_size must be at least 2")
        if self.weight_upper is not None and self.weight_upper <= 0.0:
            raise ValueError("weight_upper must be positive")


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


class _TrialFits:
    """Per-trial conditional survival fits at several bandwidths.

    Fitting the survival curve once per bandwidth lets a two-bandwidth
    lattice be assembled from ``L`` fits instead of ``L^2``.  Row ``l``
    of ``on_grid`` is the curve at ``bandwidths[l]`` on the time grid and
    ``cured[l]`` its final plateau; ``fitted[l]`` is False (and the row
    NaN) where the curve could not be fitted.  The combination
    reproduces the public estimators bit-for-bit (checked in the test
    suite).
    """

    def __init__(self, sample: CensoredSample, x: float, bandwidths,
                 tgrid: np.ndarray, kernel: Kernel):
        hs = np.asarray(bandwidths, dtype=float)
        self.fitted = np.zeros(hs.size, dtype=bool)
        self.on_grid = np.full((hs.size, tgrid.size), np.nan)
        self.cured = np.full(hs.size, np.nan)
        if not np.any(sample.delta == 1):
            return
        order = np.lexsort((-sample.delta, sample.t))
        raw = kernel.density((x - sample.x[order]) / hs[:, None])
        on_grid, cured, self.fitted = _beran_rows(
            sample.t[order], sample.delta[order], raw, tgrid
        )
        self.on_grid[self.fitted] = on_grid
        self.cured[self.fitted] = cured

    def latency_values(self, rows1, rows2):
        """Latency estimates on the time grid at pairs of bandwidths.

        Pair ``k`` combines the survival curve at ``bandwidths[rows1[k]]``
        with the incidence at ``bandwidths[rows2[k]]``.  Returns the
        estimates of the fittable pairs, one row each, and the boolean
        mask of those pairs.
        """
        cured = self.cured[rows2]
        p_hat = 1.0 - cured
        ok = self.fitted[rows1] & (p_hat > 0.0)
        values = self.on_grid[rows1[ok]]
        values -= cured[ok, None]
        values /= p_hat[ok, None]
        return values, ok


def _ise(values, truth, tgrid):
    """Integrated squared error of each row of ``values``, in place."""
    values -= truth
    values *= values
    return np.trapezoid(values, tgrid)


def _time_grid(sample: CensoredSample, config: ExperimentConfig):
    if config.weight_upper is not None:
        upper = config.weight_upper
    else:
        upper = sample.t_max_uncensored()
    return np.linspace(0.0, upper, config.time_grid_size)


def true_mise(
    spec: ModelSpec,
    n: int,
    m: int,
    x: float,
    grid: BandwidthGrid,
    config: ExperimentConfig,
    kernel: Kernel = EPANECHNIKOV,
    latency_override=None,
) -> MiseCurve:
    """Monte Carlo MISE of the one-bandwidth latency estimate.

    Each trial draws a fresh sample (stream spawned from the seed and
    the trial index) and evaluates every grid bandwidth on it, so the
    grid is compared on common samples.  Trials whose fit fails at a
    bandwidth are skipped there and counted in ``failures``.

    ``latency_override(sample, x, h, tgrid)`` replaces the estimator
    when given; it exists so the experiment harness itself can be
    validated against a known curve.
    """
    hs = grid.values
    rows = np.arange(hs.size)
    sums = np.zeros(hs.size)
    used = np.zeros(hs.size, dtype=np.int64)
    for j in range(m):
        sample = generate(spec, n, trial_rng(config.seed, j))
        try:
            tgrid = _time_grid(sample, config)
        except EstimationError:
            continue
        if latency_override is None:
            fits = _TrialFits(sample, x, hs, tgrid, kernel)
            values, ok = fits.latency_values(rows, rows)
        else:
            curves = [latency_override(sample, x, h, tgrid) for h in hs]
            ok = np.array([c is not None for c in curves])
            values = np.reshape([c for c in curves if c is not None],
                                (-1, tgrid.size))
        sums[ok] += _ise(values, spec.s0(tgrid, x), tgrid)
        used[ok] += 1
    if np.any(used == 0):
        bad = hs[used == 0]
        raise EstimationError(
            f"every trial failed at bandwidth(s) {bad.tolist()}"
        )
    values = sums / used
    return MiseCurve(
        grid=grid,
        values=values,
        argmin_index=int(np.argmin(values)),
        failures=(m - used).astype(np.int64),
        pilot_bandwidth=None,
        weight_upper=config.weight_upper,
        trials=m,
    )


def true_mise_two_bw(
    spec: ModelSpec,
    n: int,
    m: int,
    x: float,
    grid1: BandwidthGrid,
    grid2: BandwidthGrid,
    config: ExperimentConfig,
    kernel: Kernel = EPANECHNIKOV,
) -> MiseSurface:
    """Monte Carlo MISE of the two-bandwidth latency estimate.

    Raw (unclamped) estimates enter the integrated squared error, so a
    bandwidth pair is penalized for leaving [0, 1].  With ``grid1 ==
    grid2`` and the same seed, the diagonal of the surface reproduces
    :func:`true_mise` exactly: trials see identical samples and the
    diagonal combination is the one-bandwidth estimator.
    """
    # np.union1d would import numpy.ma, about 0.7 MiB, for two short grids
    hs = np.array(sorted(set(grid1.values).union(grid2.values)))
    rows1, rows2 = (rows.ravel() for rows in np.meshgrid(
        np.searchsorted(hs, grid1.values), np.searchsorted(hs, grid2.values),
        indexing="ij"))
    shape = (len(grid1), len(grid2))
    sums = np.zeros(rows1.size)
    used = np.zeros(rows1.size, dtype=np.int64)
    for j in range(m):
        sample = generate(spec, n, trial_rng(config.seed, j))
        try:
            tgrid = _time_grid(sample, config)
        except EstimationError:
            continue
        fits = _TrialFits(sample, x, hs, tgrid, kernel)
        values, ok = fits.latency_values(rows1, rows2)
        sums[ok] += _ise(values, spec.s0(tgrid, x), tgrid)
        used[ok] += 1
    sums = sums.reshape(shape)
    used = used.reshape(shape)
    if np.any(used == 0):
        raise EstimationError("every trial failed at some bandwidth pair")
    return MiseSurface(
        model_id=spec.model_id,
        n=n,
        m=m,
        x=x,
        h1=grid1,
        h2=grid2,
        values=sums / used,
        trials_used=used,
    )


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
    kernel: Kernel = EPANECHNIKOV,
    pilot_c: float = 0.75,
) -> SelectorStudy:
    """Compare the bootstrap bandwidth selector with the grid optimum.

    The true MISE curve is estimated once over the grid; the selector
    then runs on the very same trial samples, and each selection is
    scored by the ratio of its true MISE to the grid minimum.
    """
    mise = true_mise(spec, n, m, x, grid, config, kernel)
    selected_index = np.full(m, -1, dtype=np.int64)
    for j in range(m):
        sample = generate(spec, n, trial_rng(config.seed, j))
        bconfig = BootstrapConfig(
            B=B,
            grid=grid,
            seed=_bootstrap_seed(config.seed, j),
            pilot_c=pilot_c,
            weight_upper=config.weight_upper,
            time_grid_size=config.time_grid_size,
        )
        try:
            curve = mise_star(sample, x, bconfig, kernel)
        except EstimationError:
            continue
        selected_index[j] = curve.argmin_index
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
