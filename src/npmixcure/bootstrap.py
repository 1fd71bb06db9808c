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
import numbers
from dataclasses import dataclass

import numpy as np

from .cure import _latency_ise, _latency_values, latency_estimate
from .exceptions import EstimationError
from .kernels import _kernel_rows
from .survival import (
    CensoredSample,
    StepSurvivalCurve,
    _beran_rows,
    _event_columns,
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
        _check_scoring(self, "B")
        if self.B < 1:
            raise ValueError("B must be at least 1")
        if not 0.0 < self.pilot_c < math.inf:
            raise ValueError("pilot_c must be positive and finite")


def _check_scoring(config, *names):
    """Check the seed, the integer fields ``names`` and the MISE weight
    window (``time_grid_size``, ``weight_upper``) of ``config``."""
    # a float, a bool or a negative seed would fail only inside the fit
    for name in ("seed", "time_grid_size") + names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if config.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {config.seed}")
    if config.time_grid_size < 2:
        raise ValueError("time_grid_size must be at least 2")
    # a range test, since NaN passes ``<= 0``; a NaN or infinite window
    # would make every integrated error NaN, which marks a failed fit
    upper = config.weight_upper
    if upper is not None and not 0.0 < upper < math.inf:
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


def _mise_mean(sums, used, bandwidths, noun):
    """The mean error ``sums / used`` at each of ``bandwidths``.

    ``noun`` names a sample ("resample" or "trial") in the error raised
    when none was used at some bandwidths, which it lists.
    """
    if np.any(used == 0):
        raise EstimationError(f"every {noun} failed at bandwidth(s) "
                              f"{bandwidths[used == 0].tolist()}")
    return sums / used


def _mise_curve(grid, sums, used, count, noun, **fields) -> MiseCurve:
    """The MISE curve of error ``sums`` over ``used`` of ``count`` samples;
    ``fields`` fill in the rest."""
    values = _mise_mean(sums, used, grid.values, noun)
    return MiseCurve(
        grid=grid,
        values=values,
        argmin_index=int(np.argmin(values)),
        failures=(count - used).astype(np.int64),
        **fields,
    )


def pilot_bandwidth(xs: np.ndarray,
                    c: float = BootstrapConfig.pilot_c) -> float:
    """Rule-of-thumb pilot bandwidth ``c (x_(n) - x_(1)) n^(-1/9)``.

    The ``n^(-1/9)`` rate decays slower than the estimation-optimal
    rate, so the pilot oversmooths: the reference fit stays stable
    while the selector explores much smaller bandwidths.

    Raises
    ------
    ValueError
        If ``c`` is not positive and finite, or a covariate is not finite.
    EstimationError
        If the sample has fewer than two covariate values, or they are
        all identical.
    """
    xs = np.asarray(xs, dtype=float)
    if not 0.0 < c < math.inf:
        raise ValueError("pilot constant must be positive and finite")
    if not np.isfinite(xs).all():
        raise ValueError("covariates must be finite")
    if xs.size < 2:
        raise EstimationError("need at least two covariate values")
    span = float(xs.max() - xs.min())
    if span <= 0.0:
        raise EstimationError("all covariates are identical")
    return c * span * xs.size ** (-1.0 / 9.0)


# buckets of the censoring inverse transform, a power of two so that
# ``u * _BUCKETS`` and ``k / _BUCKETS`` are exact
_BUCKETS = 1 << 14


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
        times = curve.jump_times
        cum = 1.0 - curve.values
        if not curve.values.size or curve.values[-1] > 0.0:
            times = np.append(times, residual_time)
            cum = np.append(cum, 1.0)
        return cls(times, cum)

    def index(self, u):
        """Atom indices of the inverse transform of uniforms in [0, 1]: the
        first atom whose cumulative mass exceeds each uniform, else the
        last.

        ``count[k]`` counts the masses at most ``k / 2^14``.  A uniform in
        bucket ``k`` (floor of ``u 2^14``, u = 1.0 in the last bucket) has
        between ``count[k]`` and ``count[k + 1]`` masses at or below it,
        so only the uniforms of the buckets where those differ are
        searched.
        """
        count = np.searchsorted(
            self.cum, np.arange(_BUCKETS + 1) / _BUCKETS,
            side="right").astype(np.int32)
        bucket = np.minimum((u * _BUCKETS).astype(np.int32), _BUCKETS - 1)
        idx = count[bucket]
        split = (count[1:] != count[:-1])[bucket]
        idx[split] = np.searchsorted(self.cum, u[split], side="right")
        return np.minimum(idx, self.times.size - 1)


# rows of pilot fits computed together; a chunk's (rows, window) kernel
# and product-limit matrices stay near this size, but hold at least
# _KIT_MIN_ROWS rows: past n = 2048 the numpy calls of many small chunks
# cost more than the larger matrices.  The rows' kernel totals are summed
# over blocks of full (rows, n) rows of this size, or of _KIT_MIN_ROWS rows
_KIT_CHUNK_BYTES = 1 << 18
_KIT_MIN_ROWS = 16
# resamples fitted together; a chunk's (resamples * K, n) weight block
# stays near this size (twice it measured 0.7 MiB more peak RSS on a
# B=50, n=1600 selection)
_RESAMPLE_CHUNK_BYTES = 1 << 18
# covariate values drawn together; the draw's two (x values * B, n)
# arrays of uniforms stay within this size
_DRAW_BYTES = 1 << 25


def _count_at_or_below(cums, rows, u):
    """How many entries of the nondecreasing row ``cums[rows[k]]`` are at
    most ``u[k]``, for every k: one binary search of all the rows.

    The rows share their length, so the searches halve alike: each probe
    moves a row's position up or not, the span that holds its count
    shrinks the same either way, and no probe leaves the row.
    """
    size = cums.shape[1]
    flat, start = cums.reshape(-1), rows * size
    at, span = start.copy(), size
    while span > 1:
        half = span // 2
        at += half * (flat[at + half] <= u)
        span -= half
    return at - start + (flat[at] <= u)


class _ResamplingKit:
    """What every bootstrap resample of a sample is drawn from.

    Holds the censoring-time distribution, the pilot bandwidth ``g``, the
    covariates in their order (``x_order``, ``x_sorted``) and the
    sample's time order with its event columns and distinct event times
    ``times``, where every pilot latency curve jumps, and the column of
    the last event at each of them: nothing that depends on the
    covariate of the selection.  A resampled time is always one of
    ``times`` or a censoring atom, so it is held as its rank in
    ``atoms``, the sorted distinct union of both; ``event_ranks`` and
    ``censoring_ranks`` give the ranks of their atoms, and rank
    ``atoms.size`` stands for a cured (infinite) time.  The pilot fits
    at the observations' covariates are not stored but made by
    :meth:`draw`.
    """

    @classmethod
    def build(cls, sample: CensoredSample, g: float):
        sample.t_max_uncensored()  # raises: no events, no latency to draw
        kit = cls()
        kit.xs, kit.g, kit.ordered = sample.x.copy(), g, sample.sort_by_time()
        kit.x_order = np.argsort(kit.xs)
        kit.x_sorted = kit.xs[kit.x_order]
        events, last, kit.times = _event_columns(
            kit.ordered.t, kit.ordered.delta)
        kit.last_events = events[last]
        kit.censoring = _JumpDistribution.from_curve(
            kaplan_meier(sample, 1 - sample.delta),
            residual_time=float(sample.t.max()))
        atoms = np.sort(np.concatenate([kit.times, kit.censoring.times]))
        keep = np.ones(atoms.size, dtype=bool)
        keep[1:] = atoms[1:] > atoms[:-1]
        kit.atoms = atoms[keep]
        # narrow enough for the sort keys 2 rank + 1 of mise_star
        dtype = np.min_scalar_type(2 * kit.atoms.size + 1)
        kit.event_ranks, kit.censoring_ranks = (
            np.searchsorted(kit.atoms, times).astype(dtype)
            for times in (kit.times, kit.censoring.times))
        return kit

    def draw(self, rngs) -> tuple[np.ndarray, np.ndarray]:
        """Bootstrap resamples from the pilot-smoothed cure model.

        Resample ``j`` takes from ``rngs[j]`` n uniforms for cure status,
        n for latencies, then n for censoring.  Covariates stay at
        ``xs``; observation ``i`` is uncured with the pilot uncured
        probability at ``xs[i]``, and then its survival time is the first
        pilot latency jump whose cumulative mass exceeds its uniform (as
        :meth:`_JumpDistribution.index` inverts), else infinite.
        Censoring times come from the Kaplan-Meier estimate of the
        censoring distribution, leftover mass at the largest observed
        time.  One pass over the observations in covariate order makes
        their pilot fits, and each answers the searches of every resample
        that drew it uncured.
        Returns the ranks in ``atoms`` of the observed times and the
        boolean event flags, (B, n) arrays: ranks keep the order of the
        times, so the smaller rank is the observed time and a survival
        rank at most the censoring rank is an event.

        A chunk of rows is fitted on its window only: the columns whose
        covariate lies within ``g`` of the chunk's, which hold every
        column with weight.  Its kernel row totals are summed over the
        full rows, as :func:`nw_weights` sums them, and the remaining
        weight of a column adds only zeros from outside the window, so
        the fit equals the full one at the window's event columns and
        holds between them.  Event times before the window have mass
        exactly zero, and a count of window masses ends at the distinct
        event times before the next window event column.
        """
        n, size = self.xs.size, self.times.size
        u_cure = np.empty((len(rngs), n))
        u_latency = np.empty_like(u_cure)
        for j, rng in enumerate(rngs):
            u_cure[j] = rng.random(n)
            u_latency[j] = rng.random(n)
        ranks = np.full(u_cure.shape, self.atoms.size,
                        dtype=self.event_ranks.dtype)
        xs, x_time, delta = self.x_sorted, self.ordered.x, self.ordered.delta
        g = self.g
        # a block of full rows of kernel values, zero outside the last
        # window, that sums a chunk's rows a block at a time
        full = np.zeros(
            (min(n, max(_KIT_MIN_ROWS, _KIT_CHUNK_BYTES // (8 * n))), n))
        inside = np.zeros(n, dtype=bool)
        lo = 0
        while lo < n:
            # w columns of the first row, and about one more per further
            # row: rows (w + rows) eight-byte entries near _KIT_CHUNK_BYTES
            w = int(np.searchsorted(xs, xs[lo] + g, side="right")
                    - np.searchsorted(xs, xs[lo] - g))
            hi = lo + max(_KIT_MIN_ROWS,
                          (math.isqrt(w * w + _KIT_CHUNK_BYTES // 2) - w) // 2)
            points, rows = xs[lo:hi], self.x_order[lo:hi]
            lo = hi
            # past the rounded bound x + g, a column's rounded distance to
            # every row at or below x is at least g, as rounding is
            # monotone: its kernel value is exactly zero
            was_inside, inside = inside, ((x_time >= points[0] - g)
                                          & (x_time <= points[-1] + g))
            full[:, np.flatnonzero(was_inside > inside)] = 0.0
            window = np.flatnonzero(inside)
            at = np.flatnonzero(delta[window] == 1)
            if not at.size:
                continue  # no event with weight: every row is cured
            raw = _kernel_rows(points, x_time[window], np.asarray(g))
            total = np.empty((points.size, 1))
            for r in range(0, points.size, full.shape[0]):
                block = full[:min(full.shape[0], points.size - r)]
                block[:, window] = raw[r:r + block.shape[0]]
                block.sum(axis=-1, keepdims=True,
                          out=total[r:r + block.shape[0]])
            cums = _product_limit(delta[window],
                                  np.divide(raw, total, out=raw), at)
            cured = cums[:, -1].copy()  # cums is transformed in place
            p = 1.0 - cured
            # each row's cumulative latency masses, a nondecreasing row;
            # 0/0 on a row with p == 0, which is never drawn uncured
            with np.errstate(invalid="ignore"):
                _latency_values(cums, cured[:, None], out=cums)
            np.subtract(1.0, cums, out=cums)
            j, i = np.nonzero(u_cure[:, rows] < p)
            u = u_latency[j, rows[i]]
            ends = np.append(
                np.searchsorted(self.last_events, window[at]), size)
            count = np.where(u < 0.0, 0, ends[_count_at_or_below(cums, i, u)])
            ranks[j, rows[i]] = self.event_ranks[np.minimum(count, size - 1)]
        del u_latency
        u_censor = u_cure
        for j, rng in enumerate(rngs):
            u_censor[j] = rng.random(n)
        censored = self.censoring_ranks[self.censoring.index(u_censor)]
        del u_censor, u_cure
        events = ranks <= censored
        np.minimum(ranks, censored, out=ranks)
        return ranks, events


def _raised(result):
    """``result``, or raise it if it is an error."""
    if isinstance(result, EstimationError):
        raise result
    return result


def _covariate_seed(seed: int, index: int) -> int:
    """Independent bootstrap seed per covariate value, reproducibly."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index, 2))
    return int(seq.generate_state(1)[0])


def _covariates(x):
    """The covariate values of a call, and whether ``x`` was one value.

    Raises
    ------
    ValueError
        If ``x`` is an empty sequence or holds a non-finite value, before
        any work is done.
    """
    single = np.ndim(x) == 0
    xs = [x] if single else list(x)
    if not xs:
        raise ValueError("need at least one covariate value")
    if not np.isfinite(xs).all():
        raise ValueError(f"covariate values must be finite, got {x!r}")
    return xs, single


def mise_star(
    sample: CensoredSample,
    x,
    config: BootstrapConfig,
) -> MiseCurve | list:
    """Bootstrap MISE of the latency estimate over a bandwidth grid.

    Every resample is fitted at every grid bandwidth; the weighted
    integrated squared distance to the pilot latency curve is averaged
    over the resamples that could be fitted.  Results do not depend on
    the order resamples are processed in: resample ``j`` always uses
    the stream spawned as child ``j`` of the seed.  Resamples are drawn
    together and fitted in chunks, each in one product-limit call.

    ``x`` is one covariate value, whose seed is ``config.seed``, giving
    one :class:`MiseCurve`.  Or it is a nonempty sequence of them, value
    ``i`` with its own seed ``_covariate_seed(config.seed, i)``, giving a
    list in the same order: the curve at each value, or the
    :class:`EstimationError` it failed with.  All values share one kit
    and one draw of their resamples, and each gets what a call at it
    alone would.

    Raises
    ------
    EstimationError
        With one value: if the pilot bandwidth or fit fails, or every
        resample fails at some grid bandwidth.
    """
    xs, single = _covariates(x)
    seeds = ([config.seed] if single else
             [_covariate_seed(config.seed, i) for i in range(len(xs))])
    curves, pilots = [None] * len(xs), {}
    try:
        g = pilot_bandwidth(sample.x, config.pilot_c)
    except EstimationError as err:
        curves = [err] * len(xs)
    else:
        for i, xv in enumerate(xs):
            try:
                pilots[i] = latency_estimate(sample, xv, g).latency
            except EstimationError as err:
                curves[i] = err
    if pilots:  # a pilot fit needs an event, so neither of these fails
        tgrid = _time_grid(sample, config)
        kit = _ResamplingKit.build(sample, g)
    B, live = config.B, list(pilots)
    group = max(1, _DRAW_BYTES // (16 * B * sample.n))
    for start in range(0, len(live), group):
        drawn = live[start:start + group]
        ranks, events = kit.draw([
            np.random.default_rng(child) for i in drawn
            for child in np.random.SeedSequence(seeds[i]).spawn(B)])
        # time order, events first within ties: one stable (radix) sort of
        # small integer keys per resample, the order of ``lexsort``
        keys = 2 * ranks + 1 - events
        del ranks, events
        for k, i in enumerate(drawn):
            try:
                curves[i] = _resample_curve(
                    kit, keys[k * B:(k + 1) * B], xs[i],
                    pilots[i].evaluate(tgrid), tgrid, config)
            except EstimationError as err:
                curves[i] = err
    return _raised(curves[0]) if single else curves


def _resample_curve(kit, keys, x, pilot_values, tgrid, config):
    """The MISE* curve at ``x`` of the resamples with sort ``keys``."""
    grid = config.grid.values
    # covariates stay fixed across resamples, so the kernel values at x
    # are computed once and only their columns follow each time order
    raw = _kernel_rows(np.asarray(x, dtype=float), kit.xs, grid)
    # a sort key below twice the number of atoms at or before a grid
    # point is a time at or before the point
    bounds = 2 * np.searchsorted(kit.atoms, tgrid, side="right")
    ise = np.empty((config.B, grid.size))
    chunk = max(1, _RESAMPLE_CHUNK_BYTES // (8 * raw.size))
    for lo in range(0, config.B, chunk):
        order = np.argsort(keys[lo:lo + chunk], kind="stable")
        ordered = np.sort(keys[lo:lo + chunk], kind="stable")
        raw_ordered = np.empty(order.shape[:1] + raw.shape)
        for r, resample_order in enumerate(order):
            # the indices are valid: "clip" spares a buffered ``out``
            raw.take(resample_order, axis=1, out=raw_ordered[r], mode="clip")
        # each resample's last column at or before every grid point
        last = np.array([np.searchsorted(row, bounds) for row in ordered]) - 1
        curves, plateaus, fitted = _beran_rows(
            (ordered & 1) == 0, raw_ordered, last[:, None])
        rows = np.arange(fitted.size)
        ise[lo:lo + chunk] = _latency_ise(
            curves.reshape(rows.size, -1), plateaus.reshape(-1),
            fitted.reshape(-1), pilot_values, tgrid, rows, rows,
        ).reshape(fitted.shape)

    return _mise_curve(
        config.grid, np.nansum(ise, axis=0), np.sum(~np.isnan(ise), axis=0),
        config.B, "resample",
        pilot_bandwidth=kit.g, weight_upper=float(tgrid[-1]),
    )
