"""Product-limit survival estimators for right-censored samples.

Implements the classical Kaplan-Meier estimator and its covariate-local
generalization with Nadaraya-Watson weights (the conditional
product-limit estimator).  Both produce right-continuous step functions
represented by :class:`StepSurvivalCurve`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NoUncensoredError
from .kernels import nw_weights

__all__ = [
    "CensoredSample",
    "StepSurvivalCurve",
    "kaplan_meier",
    "beran",
]


@dataclass
class CensoredSample:
    """A right-censored sample ``(x_i, t_i, delta_i)``.

    ``t`` holds the observed times (minimum of survival and censoring
    time), ``delta`` is 1 for uncensored observations and 0 for censored
    ones, and ``x`` is the one-dimensional covariate.
    """

    x: np.ndarray
    t: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        delta = np.asarray(self.delta)
        if not (self.x.shape == self.t.shape == delta.shape):
            raise ValueError("x, t, delta must have identical shapes")
        if self.x.ndim != 1 or self.x.size == 0:
            raise ValueError("sample must be one-dimensional and nonempty")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("covariates must be finite")
        if not np.all(np.isfinite(self.t)) or np.any(self.t < 0.0):
            raise ValueError("observed times must be finite and nonnegative")
        if not np.all((delta == 0) | (delta == 1)):
            raise ValueError("delta must contain only 0 and 1")
        self.delta = delta.astype(np.int64, copy=False)

    @property
    def n(self) -> int:
        return self.x.size

    def t_max_uncensored(self) -> float:
        """Largest uncensored observed time.

        Raises
        ------
        NoUncensoredError
            If every observation is censored.
        """
        if not np.any(self.delta == 1):
            raise NoUncensoredError("sample has no uncensored observation")
        return float(self.t[self.delta == 1].max())

    def sort_by_time(self) -> "CensoredSample":
        """Return a copy ordered by time, uncensored first within ties."""
        order = np.lexsort((-self.delta, self.t))
        return CensoredSample(self.x[order], self.t[order], self.delta[order])


@dataclass
class StepSurvivalCurve:
    """Right-continuous step function dropping at its jump times.

    ``values[k]`` is the value on ``[jump_times[k], jump_times[k+1])``;
    before the first jump the value is 1.0.  Product-limit
    estimates keep values inside [0, 1]; the container itself does not
    enforce a range because the two-bandwidth latency estimate is allowed
    to leave it.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.jump_times = np.asarray(self.jump_times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.jump_times.shape != self.values.shape or self.jump_times.ndim != 1:
            raise ValueError("jump_times and values must be 1-d with equal length")
        if self.jump_times.size:
            if not np.all(np.isfinite(self.jump_times)):
                raise ValueError("jump times must be finite")
            if np.any(np.diff(self.jump_times) <= 0.0):
                raise ValueError("jump times must be strictly increasing")

    def evaluate(self, t):
        """Evaluate the step function at ``t`` (scalar or array)."""
        # the number of jumps at or before t indexes the values after 1.0
        out = np.concatenate(([1.0], self.values))[
            np.searchsorted(self.jump_times, t, side="right")]
        out = np.where(np.isnan(t), np.nan, out)  # NaN sorts after all jumps
        return float(out) if np.ndim(t) == 0 else out


def _product_limit(delta_sorted, weights, columns=slice(None)):
    """Product-limit curves of the rows of a weight array.

    ``weights`` is a (..., n) array whose last axis follows the time
    order of ``delta_sorted``, which broadcasts to its shape; each row
    sums to one (or is all zero, which yields the constant curve).  A
    zero remaining-weight denominator contributes a factor of exactly
    one, as does any censored observation.

    Returns each curve's value after every column of ``columns`` (by
    default all), which may leave out censored columns only: their
    factor is exactly one.  A column's value holds until the next event
    column, so the value after the last column with time at most ``t``
    is the curve at ``t`` and the last column holds its plateau.
    """
    remaining = np.cumsum(weights[..., ::-1], axis=-1)[..., ::-1]
    weights, remaining = weights[..., columns], remaining[..., columns]
    # the factors overwrite the remaining weights, an array of our own.
    # The remaining weight is a sequential sum of nonnegative weights that
    # includes the column's own, so it is positive where the weight is: a
    # zero weight gives 1 - 0, and only past a row's last weight is 0/0
    with np.errstate(invalid="ignore"):
        factors = np.divide(weights, remaining, out=remaining)
    np.subtract(1.0, factors, out=factors)
    np.fmin(factors, 1.0, out=factors)  # exact below one; NaN becomes one
    censored = delta_sorted[..., columns] != 1
    if censored.any():
        np.copyto(factors, 1.0, where=censored)
    return np.cumprod(factors, axis=-1, out=factors)


def _event_columns(t_sorted, delta_sorted):
    """The event columns of a time order, the positions among them of
    the last event at each distinct time, and those (E,) times."""
    events = np.flatnonzero(delta_sorted == 1)
    times = t_sorted[events]
    keep = np.ones(times.size, dtype=bool)
    keep[:-1] = times[1:] > times[:-1]
    last = np.flatnonzero(keep)
    return events, last, times[last]


def _at_event_times(t_sorted, delta_sorted, weights):
    """The distinct event times, shape (E,), and the product-limit curve
    of the (n,) ``weights`` there, computed over the event columns
    only."""
    events, last, times = _event_columns(t_sorted, delta_sorted)
    return times, _product_limit(delta_sorted, weights, events).take(
        last, axis=-1)


def _beran_rows(delta_sorted, raw, last):
    """Conditional product-limit curves on a time grid, one per kernel row.

    ``raw`` holds nonnegative kernel values, either a (K, n) matrix in
    the time order of the (n,) ``delta_sorted``, or a (b, K, n) stack
    whose sample ``r`` has its own order, given by row ``r`` of a (b, n)
    ``delta_sorted``.  Each kernel row is scaled to sum to one as in
    :func:`nw_weights`.  ``last`` gives the grid: the last column at or
    before each of its T points (-1 before the first column), a (1, T)
    array for one order or (b, 1, T) for a stack.

    Returns the curves on the grid, shape ``raw.shape[:-1] + (T,)``,
    their plateaus (the value after the last column, shape
    ``raw.shape[:-1]``), and the boolean mask of the rows with positive
    weight, of the same shape.  A row without weight, or of a sample
    without events, is the constant curve one with plateau one.
    """
    raw = np.ascontiguousarray(raw)
    total = raw.sum(axis=-1)
    fitted = total > 0.0
    weights = raw / np.where(fitted, total, 1.0)[..., None]
    survival = _product_limit(delta_sorted[..., None, :], weights)
    on_grid = np.where(
        last < 0, 1.0,
        np.take_along_axis(survival, np.maximum(last, 0), axis=-1))
    # a view of the plateaus would keep the whole (..., n) matrix alive
    return on_grid, survival[..., -1].copy(), fitted


def kaplan_meier(sample: CensoredSample, event_flags=None) -> StepSurvivalCurve:
    """Kaplan-Meier product-limit estimate.

    Parameters
    ----------
    sample : CensoredSample
    event_flags : array_like, optional
        Which records count as events.  Defaults to ``sample.delta``;
        pass ``1 - sample.delta`` to estimate the censoring distribution
        instead.

    Notes
    -----
    Ties between an event and a censoring time are resolved events
    first, so the censored record is still at risk when the tied event
    occurs.
    """
    if event_flags is None:
        event_flags = sample.delta
    ordered = CensoredSample(sample.x, sample.t, event_flags).sort_by_time()
    return StepSurvivalCurve(*_at_event_times(
        ordered.t, ordered.delta, np.full(sample.n, 1.0 / sample.n)))


def beran(
    sample: CensoredSample,
    x: float,
    h: float,
) -> StepSurvivalCurve:
    """Conditional survival estimate at covariate value ``x``.

    The product-limit estimator with Nadaraya-Watson weights

    ``S_h(t|x) = prod_{T_(i) <= t} (1 - delta_(i) B_i(x) / sum_{r>=i} B_r(x))``

    taken over observations ordered by time, events first within ties.
    Censored observations contribute a factor of one, as does any event
    whose remaining-weight denominator has been exhausted.

    Raises
    ------
    EmptyNeighborhoodError
        If every kernel weight vanishes at ``x``.
    """
    ordered = sample.sort_by_time()
    weights = nw_weights(x, ordered.x, h)
    return StepSurvivalCurve(*_at_event_times(ordered.t, ordered.delta,
                                              weights))
