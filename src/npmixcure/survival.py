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
from .kernels import EPANECHNIKOV, Kernel, nw_weights

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
        self.delta = np.asarray(self.delta, dtype=np.int64)
        if not (self.x.shape == self.t.shape == self.delta.shape):
            raise ValueError("x, t, delta must have identical shapes")
        if self.x.ndim != 1 or self.x.size == 0:
            raise ValueError("sample must be one-dimensional and nonempty")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("covariates must be finite")
        if not np.all(np.isfinite(self.t)) or np.any(self.t < 0.0):
            raise ValueError("observed times must be finite and nonnegative")
        if not np.all((self.delta == 0) | (self.delta == 1)):
            raise ValueError("delta must contain only 0 and 1")

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

    ``values[k]`` is the value on ``[jump_times[k], jump_times[k+1])``
    and ``initial_value`` the value before the first jump.  Product-limit
    estimates keep values inside [0, 1]; the container itself does not
    enforce a range because the two-bandwidth latency estimate is allowed
    to leave it.
    """

    jump_times: np.ndarray
    values: np.ndarray
    initial_value: float = 1.0

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
        t_arr = np.asarray(t, dtype=float)
        if self.jump_times.size == 0:
            out = np.full(t_arr.shape, self.initial_value)
        else:
            idx = np.searchsorted(self.jump_times, t_arr, side="right") - 1
            out = np.where(
                idx < 0, self.initial_value, self.values[np.maximum(idx, 0)]
            )
        if np.ndim(t) == 0:
            return float(out)
        return out

    def jump_masses(self) -> np.ndarray:
        """Mass dropped at each jump time (nonnegative for monotone curves)."""
        if self.jump_times.size == 0:
            return np.zeros(0)
        previous = np.concatenate(([self.initial_value], self.values[:-1]))
        return previous - self.values


def _product_limit(t_sorted, delta_sorted, weights):
    """Product-limit curves of the rows of a weight matrix.

    ``weights`` is a (K, n) matrix whose columns follow the shared time
    order of ``t_sorted`` and ``delta_sorted``; each row sums to one (or
    is all zero, which yields the constant curve).  A zero
    remaining-weight denominator contributes a factor of one, as does
    any censored observation.

    Returns the distinct event times, shape (E,), and the curves' values
    there, a C-contiguous (K, E) matrix.  Tied event times are
    collapsed, keeping the last (fully accumulated) value.
    """
    remaining = np.cumsum(weights[:, ::-1], axis=1)[:, ::-1]
    active = (delta_sorted == 1) & (weights > 0.0) & (remaining > 0.0)
    with np.errstate(invalid="ignore"):  # 0/0 past a row's last weight
        factors = np.where(active, 1.0 - weights / remaining, 1.0)
    survival = np.cumprod(factors, axis=1)

    events = np.flatnonzero(delta_sorted == 1)
    times = t_sorted[events]
    keep = np.ones(times.size, dtype=bool)
    keep[:-1] = times[1:] > times[:-1]
    return times[keep], survival.take(events[keep], axis=1)


def _beran_rows(t_sorted, delta_sorted, raw, tgrid):
    """Conditional product-limit curves on a time grid, one per kernel row.

    ``raw`` holds nonnegative kernel values, a (K, n) matrix in the time
    order of ``t_sorted``; each row is scaled to sum to one as in
    :func:`nw_weights`.  The sample must have an uncensored observation.

    Returns the curves of the rows with positive weight on ``tgrid``
    (a C-contiguous matrix), their values at the largest uncensored
    time, and the boolean mask of those rows.
    """
    raw = np.ascontiguousarray(raw)
    total = raw.sum(axis=1)
    fitted = total > 0.0
    times, values = _product_limit(
        t_sorted, delta_sorted, raw[fitted] / total[fitted, None]
    )
    idx = np.searchsorted(times, tgrid, side="right") - 1
    on_grid = np.where(idx < 0, 1.0, values.take(np.maximum(idx, 0), axis=1))
    return on_grid, values[:, -1], fitted


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
    event_flags = np.asarray(event_flags, dtype=np.int64)
    if event_flags.shape != sample.t.shape:
        raise ValueError("event_flags must match the sample length")
    if not np.all((event_flags == 0) | (event_flags == 1)):
        raise ValueError("event_flags must contain only 0 and 1")
    order = np.lexsort((-event_flags, sample.t))
    n = sample.n
    times, values = _product_limit(
        sample.t[order], event_flags[order], np.full((1, n), 1.0 / n)
    )
    return StepSurvivalCurve(times, values[0])


def beran(
    sample: CensoredSample,
    x: float,
    h: float,
    kernel: Kernel = EPANECHNIKOV,
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
    weights = nw_weights(kernel, x, ordered.x, h)
    times, values = _product_limit(ordered.t, ordered.delta, weights[None, :])
    return StepSurvivalCurve(times, values[0])
