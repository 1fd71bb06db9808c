"""Bootstrap bandwidth selection for the latency estimator.

The selector resamples the observed data from a smoothed cure model
fitted with a pilot bandwidth ``g``: censoring times come from the
Kaplan-Meier estimate of the censoring distribution (covariate free),
cure status at covariate ``x_i`` is Bernoulli with the pilot uncured
probability, and susceptible survival times are drawn from the jump
distribution of the pilot latency estimate at ``x_i``.  For every
bandwidth ``h`` on a grid the bootstrap MISE

    ``MISE*(h) = mean_j int (S0*_h^(j)(t|x) - S0_g(t|x))^2 w(t) dt``

is approximated over ``B`` resamples and the minimizer is selected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cure import _latency_ise, latency_estimate
from .exceptions import EstimationError
from .kernels import epanechnikov, nw_weights
from .survival import (
    CensoredSample,
    StepSurvivalCurve,
    _at_event_times,
    _beran_rows,
    _product_limit,
    kaplan_meier,
)

__all__ = [
    "BandwidthGrid",
    "BootstrapConfig",
    "MiseCurve",
    "log_grid",
    "pilot_bandwidth",
    "mise_star",
]


@dataclass(frozen=True)
class BandwidthGrid:
    """Strictly increasing positive bandwidth values."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=float)
        )
        v = self.values
        if v.ndim != 1 or v.size == 0:
            raise ValueError("grid must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)) or v[0] <= 0.0:
            raise ValueError("grid values must be positive and finite")
        if np.any(np.diff(v) <= 0.0):
            raise ValueError("grid values must be strictly increasing")

    def __len__(self) -> int:
        return self.values.size


def log_grid(lo: float, hi: float, count: int) -> BandwidthGrid:
    """Log-equispaced bandwidth grid from ``lo`` to ``hi`` inclusive."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if lo <= 0.0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    if count == 1:
        return BandwidthGrid(np.asarray([lo]))
    return BandwidthGrid(np.geomspace(lo, hi, count))


@dataclass(frozen=True)
class BootstrapConfig:
    """Configuration of the bootstrap bandwidth selector.

    ``weight_upper`` is the upper end of the MISE weight support; None
    means the largest uncensored time of the original sample.  The MISE
    integral uses the trapezoid rule on ``time_grid_size`` uniformly
    spaced points.
    """

    B: int
    grid: BandwidthGrid
    seed: int
    pilot_c: float = 0.75
    weight_upper: float | None = None
    time_grid_size: int = 100

    def __post_init__(self):
        if self.B < 1:
            raise ValueError("B must be at least 1")
        if not 0.0 < self.pilot_c < math.inf:
            raise ValueError("pilot_c must be positive and finite")
        if self.time_grid_size < 2:
            raise ValueError("time_grid_size must be at least 2")
        _check_weight_upper(self.weight_upper)


def _check_weight_upper(weight_upper):
    # a range test, since NaN passes ``<= 0``; a NaN or infinite window
    # would make every integrated error NaN, which marks a failed fit
    if weight_upper is not None and not 0.0 < weight_upper < math.inf:
        raise ValueError("weight_upper must be positive and finite")


def _time_grid(sample: CensoredSample, config) -> np.ndarray:
    """Trapezoid points of the MISE weight window for ``sample``.

    ``config`` (a :class:`BootstrapConfig` or an experiment config)
    gives ``time_grid_size`` points spread evenly over [0,
    ``weight_upper``], or up to the sample's largest uncensored time
    when ``weight_upper`` is None.
    """
    if config.weight_upper is not None:
        upper = config.weight_upper
    else:
        upper = sample.t_max_uncensored()
    return np.linspace(0.0, upper, config.time_grid_size)


@dataclass
class MiseCurve:
    """A MISE curve over a bandwidth grid, with diagnostics.

    Used both for the bootstrap criterion (``failures[l]`` counts
    resamples whose fit failed at ``grid[l]``) and for Monte Carlo MISE
    curves against a known truth (``failures`` then counts trials, and
    ``trials`` records how many were run).  Failed fits are excluded
    from the average at that bandwidth.  ``argmin_index`` is the first
    index attaining the minimum.
    """

    grid: BandwidthGrid
    values: np.ndarray
    argmin_index: int
    failures: np.ndarray
    pilot_bandwidth: float | None = None
    weight_upper: float | None = None
    trials: int | None = None

    @property
    def selected(self) -> float:
        return float(self.grid.values[self.argmin_index])


def _mise_curve(grid, sums, used, count, noun, **fields) -> MiseCurve:
    """The MISE curve of error ``sums`` over ``used`` of ``count`` samples.

    ``noun`` names a sample ("resample" or "trial") in the error raised
    when none was used at some bandwidth; ``fields`` fill in the rest.
    """
    if np.any(used == 0):
        bad = grid.values[used == 0]
        raise EstimationError(
            f"every {noun} failed at bandwidth(s) {bad.tolist()}"
        )
    values = sums / used
    return MiseCurve(
        grid=grid,
        values=values,
        argmin_index=int(np.argmin(values)),
        failures=(count - used).astype(np.int64),
        **fields,
    )


def pilot_bandwidth(xs: np.ndarray, c: float = 0.75) -> float:
    """Rule-of-thumb pilot bandwidth ``c (x_(n) - x_(1)) n^(-1/9)``.

    The ``n^(-1/9)`` rate decays slower than the estimation-optimal
    rate, so the pilot oversmooths: the reference fit stays stable
    while the selector explores much smaller bandwidths.

    Raises
    ------
    EstimationError
        If the sample has fewer than two covariate values, or they are
        all identical.
    """
    xs = np.asarray(xs, dtype=float)
    if not 0.0 < c < math.inf:
        raise ValueError("pilot constant must be positive and finite")
    if xs.size < 2:
        raise EstimationError("need at least two covariate values")
    span = float(xs.max() - xs.min())
    if span <= 0.0:
        raise EstimationError("all covariates are identical")
    return c * span * xs.size ** (-1.0 / 9.0)


class _JumpDistribution:
    """Discrete distribution given by atom times and cumulative masses."""

    def __init__(self, times: np.ndarray, cum: np.ndarray):
        self.times = times
        self.cum = cum

    @classmethod
    def from_curve(cls, curve: StepSurvivalCurve, residual_time: float):
        """Jump distribution of a survival curve.

        The cumulative mass at jump ``k`` is ``1 - values[k]``.  Mass
        not consumed by the jumps (a final plateau above zero) goes to
        an extra atom at ``residual_time``.
        """
        if curve.jump_times.size == 0:
            return cls(np.asarray([residual_time], dtype=float),
                       np.asarray([1.0]))
        times = curve.jump_times
        cum = 1.0 - curve.values
        if curve.values[-1] > 0.0:
            times = np.append(times, residual_time)
            cum = np.append(cum, 1.0)
        return cls(times, cum)

    def pick(self, u):
        """Inverse transform of uniforms in [0, 1)."""
        idx = np.searchsorted(self.cum, u, side="right")
        idx = np.minimum(idx, self.times.size - 1)
        return self.times[idx]


# rows of pilot fits computed together; a chunk's (rows, n) weight
# matrices stay near this size however large the sample
_KIT_CHUNK_BYTES = 1 << 19
# resamples fitted together; a chunk's (resamples * K, n) weight block
# stays near this size (twice it measured 0.7 MiB more peak RSS on a
# B=50, n=1600 selection)
_RESAMPLE_CHUNK_BYTES = 1 << 18


class _ResamplingKit:
    """Everything needed to draw bootstrap resamples, built once.

    Holds the censoring-time distribution and, per observation, the
    pilot uncured probability and latency jump distribution at its
    covariate.  Every pilot latency curve jumps at the sample's distinct
    event times ``times``; row ``i`` of ``cums`` holds the cumulative
    masses of observation ``i``'s curve there, a nondecreasing row.
    Observations whose pilot fit puts all mass on cure are never drawn
    uncured, so their bootstrap survival time is always infinite (their
    ``cums`` row is unused).  The draw searches each row in two levels,
    in blocks of ``step`` columns: the ceiling of the square root of
    the number of times, so never more than that number.
    """

    def __init__(self, xs, p_uncured, times, cums, censoring):
        self.xs = xs
        self.p_uncured = p_uncured
        self.times = times
        self.cums = cums
        self.censoring = censoring
        s = self.step = math.isqrt(times.size - 1) + 1
        # the last column of every whole block, contiguous (a strided
        # gather from the large matrix misses the cache on every entry),
        # and a view of every run of ``s`` consecutive masses
        self.block_ends = np.ascontiguousarray(cums[:, s - 1::s])
        self.runs = sliding_window_view(cums.reshape(-1), s)

    @classmethod
    def build(cls, sample: CensoredSample, g: float):
        sample.t_max_uncensored()  # raises: no events, no latency to draw
        censoring_km = kaplan_meier(sample, 1 - sample.delta)
        censoring = _JumpDistribution.from_curve(
            censoring_km, residual_time=float(sample.t.max())
        )
        ordered = sample.sort_by_time()
        n = sample.n
        rows = max(1, _KIT_CHUNK_BYTES // (8 * n))
        p_uncured = np.empty(n)
        cums = None
        for lo in range(0, n, rows):
            try:
                weights = nw_weights(sample.x[lo:lo + rows], ordered.x, g)
            except EstimationError as err:
                raise EstimationError(f"pilot fit failed: {err}") from err
            times, values = _at_event_times(
                ordered.t, ordered.delta,
                _product_limit(ordered.delta, weights))
            if cums is None:
                cums = np.ones((n, times.size))
            cured = values[:, -1]
            p = 1.0 - cured
            p_uncured[lo:lo + rows] = p
            live = p > 0.0
            cums[lo:lo + rows][live] = 1.0 - (
                (values[live] - cured[live, None]) / p[live, None]
            )
        return cls(sample.x.copy(), p_uncured, times, cums, censoring)

    def draw_latent(self, rng: np.random.Generator):
        """Latent bootstrap survival and censoring times, in draw order.

        An observation drawn uncured takes as survival time the first
        jump whose cumulative mass exceeds its uniform: the count of its
        ``cums`` row at or below the uniform (the inverse transform of
        :meth:`_JumpDistribution.pick`).  The row is nondecreasing, so
        the count is found in two steps: over the blocks' last columns,
        which counts the whole blocks at or below the uniform, then
        inside the one block that remains.
        """
        n = self.xs.size
        u_cure = rng.random(n)
        u_latency = rng.random(n)
        u_censor = rng.random(n)
        rows = np.flatnonzero(u_cure < self.p_uncured)
        u = u_latency[rows, None]
        s, size = self.step, self.times.size
        below = s * (self.block_ends[rows] <= u).sum(axis=1)
        # every column before ``below`` is at or below the uniform, and
        # the count is at most ``below + s`` (or the row's end), so the
        # run of s columns from ``start``, moved left to stay inside the
        # row, holds the rest of it
        start = np.minimum(below, size - s)
        picks = start + (self.runs[rows * size + start] <= u).sum(axis=1)
        y = np.full(n, np.inf)
        y[rows] = self.times[np.minimum(picks, size - 1)]
        c = self.censoring.pick(u_censor)
        return y, c

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One bootstrap resample from the pilot-smoothed cure model.

        Covariates are kept fixed at ``xs``.  Censoring times are drawn
        from the Kaplan-Meier estimate of the censoring distribution
        (with any leftover mass placed at the largest observed time, so
        draws are always finite); survival times are infinite with the
        pilot cure probability and otherwise drawn from the pilot
        latency jumps.  Returns the observed times and event flags, in
        the order of ``xs``.
        """
        y, c = self.draw_latent(rng)
        return np.minimum(y, c), (y <= c).astype(np.int64)


def mise_star(
    sample: CensoredSample,
    x: float,
    config: BootstrapConfig,
) -> MiseCurve:
    """Bootstrap MISE of the latency estimate over a bandwidth grid.

    Every resample is fitted at every grid bandwidth; the weighted
    integrated squared distance to the pilot latency curve is averaged
    over the resamples that could be fitted.  Results do not depend on
    the order resamples are processed in: resample ``j`` always uses
    the stream spawned as child ``j`` of the seed.  Resamples are fitted
    in chunks, each in one product-limit call.

    Raises
    ------
    EstimationError
        If the pilot bandwidth or fit fails, or every resample fails at
        some grid bandwidth.
    """
    grid = config.grid.values
    g = pilot_bandwidth(sample.x, config.pilot_c)
    pilot_fit = latency_estimate(sample, x, g)
    tgrid = _time_grid(sample, config)
    pilot_values = pilot_fit.latency.evaluate(tgrid)

    kit = _ResamplingKit.build(sample, g)
    # covariates stay fixed across resamples, so the kernel values at x
    # are computed once and only their columns follow each time order
    raw = epanechnikov((x - sample.x) / grid[:, None])
    ise = np.empty((config.B, grid.size))
    streams = np.random.SeedSequence(config.seed).spawn(config.B)
    chunk = max(1, _RESAMPLE_CHUNK_BYTES // (8 * raw.size))
    for lo in range(0, config.B, chunk):
        draws = [kit.draw(np.random.default_rng(child))
                 for child in streams[lo:lo + chunk]]
        t = np.array([d[0] for d in draws])
        delta = np.array([d[1] for d in draws])
        order = np.lexsort((-delta, t), axis=-1)
        curves, plateaus, fitted = _beran_rows(
            np.take_along_axis(t, order, axis=-1),
            np.take_along_axis(delta, order, axis=-1),
            np.take_along_axis(raw[None], order[:, None], axis=-1),
            tgrid,
        )
        rows = np.arange(fitted.size)
        ise[lo:lo + len(draws)] = _latency_ise(
            curves.reshape(rows.size, -1), plateaus.reshape(-1),
            fitted.reshape(-1), pilot_values, tgrid, rows, rows,
        ).reshape(fitted.shape)

    return _mise_curve(
        config.grid, np.nansum(ise, axis=0), np.sum(~np.isnan(ise), axis=0),
        config.B, "resample",
        pilot_bandwidth=g, weight_upper=float(tgrid[-1]),
    )
