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

from dataclasses import dataclass

import numpy as np

from .cure import latency_estimate
from .exceptions import EstimationError
from .kernels import EPANECHNIKOV, Kernel, nw_weights
from .survival import (
    CensoredSample,
    StepSurvivalCurve,
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
    "select_bandwidth",
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
        if self.pilot_c <= 0.0:
            raise ValueError("pilot_c must be positive")
        if self.time_grid_size < 2:
            raise ValueError("time_grid_size must be at least 2")
        if self.weight_upper is not None and self.weight_upper <= 0.0:
            raise ValueError("weight_upper must be positive")


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


def pilot_bandwidth(xs: np.ndarray, c: float = 0.75) -> float:
    """Rule-of-thumb pilot bandwidth ``c (x_(n) - x_(1)) n^(-1/9)``.

    The ``n^(-1/9)`` rate decays slower than the estimation-optimal
    rate, so the pilot oversmooths: the reference fit stays stable
    while the selector explores much smaller bandwidths.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two covariate values")
    span = float(xs.max() - xs.min())
    if span <= 0.0:
        raise ValueError("all covariates are identical")
    if c <= 0.0:
        raise ValueError("pilot constant must be positive")
    return c * span * xs.size ** (-1.0 / 9.0)


class _JumpDistribution:
    """Discrete distribution given by atom times and cumulative masses."""

    def __init__(self, times: np.ndarray, cum: np.ndarray):
        self.times = times
        self.cum = cum

    @classmethod
    def from_curve(cls, curve: StepSurvivalCurve, residual_time=None,
                   residual_tol: float = 1e-9):
        """Jump distribution of a survival curve.

        The cumulative mass at jump ``k`` is ``1 - values[k]``.  Mass
        not consumed by the jumps (a final plateau above zero) goes to
        an extra atom at ``residual_time`` when given; otherwise it must
        be below ``residual_tol`` and is folded into the last jump.
        """
        if curve.jump_times.size == 0:
            if residual_time is None:
                raise EstimationError("curve has no jumps and no residual atom")
            return cls(np.asarray([residual_time], dtype=float),
                       np.asarray([1.0]))
        times = curve.jump_times
        cum = 1.0 - curve.values
        residual = float(curve.values[-1])
        if residual > 0.0:
            if residual_time is not None:
                times = np.append(times, residual_time)
                cum = np.append(cum, 1.0)
            elif residual < residual_tol:
                cum = cum.copy()
                cum[-1] = 1.0
            else:
                raise EstimationError(
                    f"improper curve: residual mass {residual:g} "
                    "with nowhere to put it"
                )
        return cls(times, cum)

    def pick(self, u):
        """Inverse transform of uniforms in [0, 1)."""
        idx = np.searchsorted(self.cum, u, side="right")
        idx = np.minimum(idx, self.times.size - 1)
        return self.times[idx]


# rows of pilot fits computed together; a chunk's (rows, n) weight
# matrices stay near this size however large the sample
_KIT_CHUNK_BYTES = 1 << 19


class _ResamplingKit:
    """Everything needed to draw bootstrap resamples, built once.

    Holds the censoring-time distribution and, per observation, the
    pilot uncured probability and latency jump distribution at its
    covariate.  Every pilot latency curve jumps at the sample's distinct
    event times ``times``; row ``i`` of ``cums`` holds the cumulative
    masses of observation ``i``'s curve there.  Observations whose pilot
    fit puts all mass on cure are never drawn uncured, so their bootstrap
    survival time is always infinite (their ``cums`` row is unused).
    """

    def __init__(self, xs, p_uncured, times, cums, censoring):
        self.xs = xs
        self.p_uncured = p_uncured
        self.times = times
        self.cums = cums
        self.censoring = censoring

    @classmethod
    def build(cls, sample: CensoredSample, g: float, kernel: Kernel):
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
                weights = nw_weights(kernel, sample.x[lo:lo + rows],
                                     ordered.x, g)
            except EstimationError as err:
                raise EstimationError(f"pilot fit failed: {err}") from err
            times, values = _product_limit(ordered.t, ordered.delta, weights)
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

        Observation ``i``'s survival time is the first jump whose
        cumulative mass exceeds its uniform, found by counting the
        masses at or below it (the inverse transform of
        :meth:`_JumpDistribution.pick`).
        """
        n = self.xs.size
        u_cure = rng.random(n)
        u_latency = rng.random(n)
        u_censor = rng.random(n)
        picks = np.count_nonzero(self.cums <= u_latency[:, None], axis=1)
        picks = np.minimum(picks, self.times.size - 1)
        y = np.where(u_cure < self.p_uncured, self.times[picks], np.inf)
        c = self.censoring.pick(u_censor)
        return y, c

    def draw(self, rng: np.random.Generator) -> CensoredSample:
        """One bootstrap resample from the pilot-smoothed cure model.

        Covariates are kept fixed.  Censoring times are drawn from the
        Kaplan-Meier estimate of the censoring distribution (with any
        leftover mass placed at the largest observed time, so draws are
        always finite); survival times are infinite with the pilot cure
        probability and otherwise drawn from the pilot latency jumps.
        """
        y, c = self.draw_latent(rng)
        t = np.minimum(y, c)
        delta = (y <= c).astype(np.int64)
        return CensoredSample(self.xs, t, delta)


def _resample_streams(seed: int, count: int):
    return np.random.SeedSequence(seed).spawn(count)


def mise_star(
    sample: CensoredSample,
    x: float,
    config: BootstrapConfig,
    kernel: Kernel = EPANECHNIKOV,
) -> MiseCurve:
    """Bootstrap MISE of the latency estimate over a bandwidth grid.

    Every resample is fitted at every grid bandwidth; the weighted
    integrated squared distance to the pilot latency curve is averaged
    over the resamples that could be fitted.  Results do not depend on
    the order resamples are processed in: resample ``j`` always uses
    the stream spawned as child ``j`` of the seed.

    Raises
    ------
    EstimationError
        If the pilot fit fails, or every resample fails at some grid
        bandwidth.
    """
    grid = config.grid.values
    g = pilot_bandwidth(sample.x, config.pilot_c)
    pilot_fit = latency_estimate(sample, x, g, kernel)
    weight_upper = (
        config.weight_upper
        if config.weight_upper is not None
        else sample.t_max_uncensored()
    )
    tgrid = np.linspace(0.0, weight_upper, config.time_grid_size)
    pilot_values = pilot_fit.latency.evaluate(tgrid)

    kit = _ResamplingKit.build(sample, g, kernel)
    # covariates stay fixed across resamples, so the kernel values at x
    # are computed once and only their columns follow each time order
    raw = kernel.density((x - sample.x) / grid[:, None])
    ise = np.full((config.B, grid.size), np.nan)
    for j, child in enumerate(_resample_streams(config.seed, config.B)):
        star = kit.draw(np.random.default_rng(child))
        if not np.any(star.delta == 1):
            continue
        order = np.lexsort((-star.delta, star.t))
        on_grid, cured, fitted = _beran_rows(
            star.t[order], star.delta[order], raw.take(order, axis=1), tgrid
        )
        p_hat = 1.0 - cured
        proper = p_hat > 0.0
        diff = (on_grid[proper] - cured[proper, None]) / p_hat[proper, None]
        diff -= pilot_values
        ise[j, np.flatnonzero(fitted)[proper]] = np.trapezoid(
            diff * diff, tgrid)

    succeeded = np.sum(~np.isnan(ise), axis=0)
    if np.any(succeeded == 0):
        bad = grid[succeeded == 0]
        raise EstimationError(
            f"every resample failed at bandwidth(s) {bad.tolist()}"
        )
    values = np.nansum(ise, axis=0) / succeeded
    return MiseCurve(
        grid=config.grid,
        values=values,
        argmin_index=int(np.argmin(values)),
        failures=(config.B - succeeded).astype(np.int64),
        pilot_bandwidth=g,
        weight_upper=float(weight_upper),
    )


def select_bandwidth(
    sample: CensoredSample,
    x: float,
    config: BootstrapConfig,
    kernel: Kernel = EPANECHNIKOV,
) -> float:
    """Bandwidth minimizing the bootstrap MISE (smallest on ties)."""
    return mise_star(sample, x, config, kernel).selected
