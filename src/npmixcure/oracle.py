"""Asymptotic bias and variance oracle for the latency estimator.

Evaluates, by quadrature on a known population, the ingredients of the
asymptotic mean squared error of the one-bandwidth latency estimate.
The population is a :class:`~npmixcure.models.ModelSpec`: every function
takes one as its first argument, ``spec``, and the model supplies the
population identities (observable survival, ``1 - H`` and the density
of ``H1``) from its closed forms.  The ingredients are the integral
transforms

    ``Phi(y, t, x)  = int_0^t dH1(v|y)/(1-H(v|x))
                      - int_0^t (1-H(v|y)) dH1(v|x)/(1-H(v|x))^2``

    ``Phi1(x, t, x) = int_0^t dH1(v|x)/(1-H(v|x))^2``

their y-derivatives on the diagonal, and the bias/variance terms built
from them.  Here ``H`` is the conditional distribution of the observed
time and ``H1`` its uncensored part.

Time arguments of ``inf`` mean the full support: integrals then run to
the (effective) upper end of the latency support, where the uncensored
mass is exhausted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SupportGuardError
from .kernels import SECOND_MOMENT, SQUARE_INTEGRAL
from .models import ModelSpec
from .numerics import (adaptive_simpson, bisect_level, central_diff,
                       composite_simpson)

__all__ = [
    "PhiDerivatives",
    "BiasVarianceTerms",
    "AmseReport",
    "phi1",
    "phi_y_derivatives",
    "bias_variance_terms",
    "amse",
    "h_amise",
]

# evaluations are refused where 1 - H(t|x) falls below this floor
SUPPORT_FLOOR = 1e-3

# distinct x per quadrature call of bias_variance_terms: every integrand
# row is evaluated at every point of the call, so one call over X values
# does work and holds memory that grow as X^2
_XS_PER_CALL = 8

# quadrature tolerance
_TOL = 1e-8


def _pow2(v):
    """``v ** 2`` by C ``pow``, which ``**`` on Python floats calls.

    ``** 2`` on an array squares instead, which can round the last bit
    differently; the batched integrands keep the scalar code's bits.
    """
    return np.float_power(v, 2)


def _refusals(spec: ModelSpec, t, x, density: bool = False):
    """Why each refused point of broadcast ``(t, x)`` is refused.

    A dict from the flat (C order) index of each refused point to its
    message: where ``1 - H(t|x)`` is below the support floor (``t =
    inf`` is exempt) or ``t`` or ``x`` is NaN, and then, with
    ``density``, where the covariate density vanishes.  A scalar
    argument is shown as given.
    """
    times, xs = np.broadcast_arrays(np.asarray(t, dtype=float),
                                    np.asarray(x, dtype=float))
    floors = np.where(np.isnan(xs), np.nan, spec.one_minus_h(
        np.where(np.isinf(times), 0.0, times), xs))
    low = ~(floors >= SUPPORT_FLOOR)

    def shown(given, values, i):
        return given if np.ndim(given) == 0 else float(values.flat[i])

    out = {}
    for i in np.flatnonzero(low):
        out[int(i)] = (f"1 - H(t|x) = {float(floors.flat[i]):.3e} at "
                       f"t={shown(t, times, i)}, x={shown(x, xs, i)} is below "
                       f"the support floor {SUPPORT_FLOOR}")
    if density:
        density_xs = np.broadcast_to(spec.covariate.pdf(xs), xs.shape)
        vanishing = ~low & (density_xs <= 0.0)
        for i in np.flatnonzero(vanishing):
            out[int(i)] = f"covariate density vanishes at x={shown(x, xs, i)}"
    return out


def _guard(spec: ModelSpec, t, x, density: bool = False):
    """Raise the first refusal of :func:`_refusals` (floor ones first)."""
    refusals = _refusals(spec, t, x, density)
    if refusals:
        raise SupportGuardError(next(iter(refusals.values())))


def phi1(spec: ModelSpec, t, x: float):
    """Diagonal variance transform ``int_0^t dH1(v|x)/(1-H(v|x))^2``.

    ``t`` may be an array of times, integrated in one batched call.
    """
    _guard(spec, t, x)

    def integrand(v):
        r = spec.one_minus_h(v, x)
        return spec.h1_density(v, x) / (r * r)

    return adaptive_simpson(integrand, 0.0, np.minimum(t, spec.s0_upper(x)), _TOL)


@dataclass(frozen=True)
class PhiDerivatives:
    """Central-difference y-derivatives of ``Phi`` on the diagonal.

    ``first``/``second`` use the halved step and the ``_coarse`` fields
    the base step, so their relative agreement bounds the
    finite-difference error.
    """

    first: float
    second: float
    first_coarse: float
    second_coarse: float


def _fd_step(x: float) -> float:
    return max(1e-4, 1e-4 * abs(x))


def _diagonal_integrands(spec, x, step):
    """Integrand rows at the covariates ``x``, three per entry.

    For each entry: the order-1 and order-2 y-derivatives at ``y = x``
    of the ``Phi`` integrand, by central differences with the entry's
    ``step``, then the :func:`phi1` integrand.  Differentiation under
    the integral sign: the y-dependence sits in closed-form population
    functions, so the differences are taken on the integrand and a
    single quadrature follows, which keeps quadrature noise out of the
    difference quotients.  Each level evaluates ``h1`` and ``S`` once on
    the stencil ``x + step, x - step, x`` as columns against the points,
    whose ``x`` rows serve as ``h1(v|x)`` and ``S(v|x)``: C = 3 len(x) rows.
    """
    x = np.asarray(x, dtype=float)[:, None]
    step = np.asarray(step, dtype=float)[:, None]
    stencil = np.stack([x + step, x - step, x])

    def rows(v):
        # broadcast, as a covariate-free population gives one row
        h1, s = (np.broadcast_to(f(v, stencil), (3, x.shape[0], v.size))
                 for f in (spec.h1_density, spec.survival))
        d1_h1, d2_h1 = central_diff(h1, step)
        d1_s, d2_s = central_diff(s, step)
        g_sf = spec.censoring.sf(v)
        h1x, r = h1[2], s[2] * g_sf  # r: spec.one_minus_h(v, x)
        first = (d1_h1 + -g_sf * d1_s * h1x / r) / r
        second = (d2_h1 + -g_sf * d2_s * h1x / r) / r
        out = np.empty((x.shape[0], 3, v.size))
        out[:, 0], out[:, 1], out[:, 2] = first, second, h1x / (r * r)
        return out.reshape(-1, v.size)

    return rows


def _upper_limits(spec, t, x: float, step: float):
    """Upper limits of the three integrand rows of ``x`` at times ``t``.

    The derivative rows run to the support end of ``x - step``, ``x``
    or ``x + step``, whichever is last; the :func:`phi1` row to that
    of ``x``.
    """
    reach = max(spec.s0_upper(x - step), spec.s0_upper(x), spec.s0_upper(x + step))
    return np.minimum(t, [[reach], [reach], [spec.s0_upper(x)]])


def phi_y_derivatives(
    spec: ModelSpec,
    t: float,
    x: float,
) -> PhiDerivatives:
    """``d/dy Phi(y, t, x)`` and ``d^2/dy^2 Phi(y, t, x)`` at ``y = x``.

    The base step is ``max(1e-4, 1e-4 |x|)``; reported values use the
    halved step, and the base-step values are kept so callers can
    verify stability.  ``t`` may be an array of times, of any shape; the
    fields are then arrays of that shape.  Both steps share one
    quadrature call.
    """
    _guard(spec, t, x)
    steps = [0.5 * _fd_step(x), _fd_step(x)]
    # the phi1 row of each step stays empty
    upper = np.concatenate([_upper_limits(spec, np.ravel(t), x, step)
                            * [[1.0], [1.0], [0.0]] for step in steps])
    values = adaptive_simpson(_diagonal_integrands(spec, [x] * len(steps), steps),
                              0.0, upper, _TOL)
    fields = [float(row[0]) if np.ndim(t) == 0 else row.reshape(np.shape(t))
              for i, row in enumerate(values) if i % 3 != 2]
    return PhiDerivatives(*fields)


@dataclass(frozen=True)
class BiasVarianceTerms:
    """Pointwise asymptotic bias and variance components.

    The latency estimate is built from two smoothed quantities: the
    conditional survival curve at ``t`` and the cure fraction read off
    the curve's terminal level.  ``b1``/``v1`` come from the first,
    ``b2``/``v2`` from the second, and ``v3`` from their covariance.
    The two pieces enter the estimate with opposite signs, so ``b2``
    and ``v3`` are stored with that sign already applied (``v3 <= 0``
    always; the shared fluctuation cancels rather than compounds) and
    the totals are plain sums: ``b = b1 + b2`` is the dominant-bias
    coefficient and ``v = v1 + v2 + 2 v3`` the variance coefficient.
    """

    t: float
    x: float
    b1: float
    b2: float
    v1: float
    v2: float
    v3: float

    @property
    def b(self) -> float:
        return self.b1 + self.b2

    @property
    def v(self) -> float:
        return self.v1 + self.v2 + 2.0 * self.v3


def bias_variance_terms(
    spec: ModelSpec,
    t,
    x,
) -> BiasVarianceTerms:
    """The five bias/variance components at ``(t, x)``.

    ``b1``/``b2`` multiply the squared-bandwidth bias, ``v1``/``v2``
    and the covariance piece ``v3`` the ``1/(nh)`` variance.  ``b2``
    and ``v3`` carry the sign with which the cure-fraction piece
    enters the estimate (see :class:`BiasVarianceTerms`).  All the
    full-support transforms carry a ``1 - p(x)`` factor, so they are
    skipped entirely where ``x`` has no cured fraction (where the
    transforms themselves may diverge).

    ``t`` and ``x`` may be arrays that broadcast against each other;
    the components are then arrays equal to those of a loop over the
    points.  One quadrature call covers up to eight distinct ``x``:
    three integrand rows per ``x`` (:func:`_diagonal_integrands`), each
    with a slot per time of that ``x`` and, with cure mass, one for
    ``inf``.  The first point below the support floor raises
    ``SupportGuardError``, and then the first where the covariate
    density vanishes.
    """
    _guard(spec, t, x, density=True)
    times, xs = np.broadcast_arrays(np.asarray(t, dtype=float),
                                    np.asarray(x, dtype=float))
    # each point's x, by order of appearance, and its slot among that
    # x's times (plain Python: np.unique would import numpy.ma)
    index, which, slot, own = {}, [], [], []
    for tv, xv in zip(times.ravel().tolist(), xs.ravel().tolist()):
        if xv not in index:
            index[xv] = len(own)
            own.append([])
        u = index[xv]
        which.append(u)
        slot.append(len(own[u]))
        own[u].append(tv)
    unique = np.array(list(index), dtype=float)
    p, m, m_prime = (np.broadcast_to(f(unique), unique.shape)
                     for f in (spec.p, spec.covariate.pdf, spec.covariate.dpdf))
    cure = 1.0 - p > 1e-15
    own = [ts + [math.inf] * bool(c) for ts, c in zip(own, cure)]
    steps = 0.5 * np.array([_fd_step(xv) for xv in unique])
    upper = np.zeros((unique.size, 3, max(map(len, own), default=0)))
    for u, xv in enumerate(unique):
        upper[u, :, :len(own[u])] = _upper_limits(spec, own[u], xv, steps[u])
    values = np.empty(upper.shape)
    for start in range(0, unique.size, _XS_PER_CALL):
        g = slice(start, start + _XS_PER_CALL)
        values[g] = adaptive_simpson(
            _diagonal_integrands(spec, unique[g], steps[g]), 0.0,
            upper[g].reshape(-1, upper.shape[2]), _TOL).reshape(upper[g].shape)
    d1, d2, phi1_t = values[which, :, slot].T
    dinf1, dinf2, phi1_inf = values[which, :, [len(own[u]) - 1 for u in which]].T
    p, m, m_prime, cured = p[which], m[which], m_prime[which], 1.0 - p[which]
    s = spec.survival(times.ravel(), xs.ravel())
    b1 = s / (p * m) * (d2 * m + 2.0 * d1 * m_prime)
    v1 = _pow2(s / p) * phi1_t / m
    b2, v2, v3 = (np.where(cure[which], part, 0.0) for part in (
        -cured * (1.0 - s) / (p * p * m) * (dinf2 * m + 2.0 * dinf1 * m_prime),
        _pow2(cured * (1.0 - s) / (p * p)) * phi1_inf / m,
        # float_power: the C pow bits of the scalar p**3, as in _pow2
        -cured * s * (1.0 - s) / (np.float_power(p, 3) * m) * phi1_t,
    ))
    parts = (part.reshape(times.shape) for part in (b1, b2, v1, v2, v3))
    if times.ndim == 0:
        parts = (float(part) for part in parts)
    return BiasVarianceTerms(t, x, *parts)


@dataclass(frozen=True)
class AmseReport:
    """Asymptotic MSE of the latency estimate at ``(t, x, h, n)``.

    ``amse = bias_term + variance_term`` with

    ``bias_term     = (h^4 / 4) d_K^2 (b1 + b2)^2``
    ``variance_term = c_K / (n h) (v1 + v2 + 2 v3)``

    where ``d_K`` is the Epanechnikov second moment and ``c_K`` its
    square integral.  The three totals are arrays, of the broadcast shape of
    ``t`` and ``x``, when either is.
    """

    t: float
    x: float
    h: float
    n: int
    terms: BiasVarianceTerms
    bias_term: float
    variance_term: float
    amse: float


def amse(
    spec: ModelSpec,
    t: float,
    x: float,
    h: float,
    n: int,
) -> AmseReport:
    """Dominant asymptotic MSE of the one-bandwidth latency estimate.

    ``t`` and ``x`` may be arrays that broadcast against each other, as
    in :func:`bias_variance_terms`, whose one call supplies the terms;
    each entry then equals a call at that one point.
    """
    # range tests, since NaN passes ``<= 0``
    if not (0.0 < h < math.inf and 1 <= n < math.inf):
        raise ValueError("need finite h > 0 and finite n >= 1")
    terms = bias_variance_terms(spec, t, x)
    # _pow2: the C pow bits of the scalar b**2
    bias_term = 0.25 * h**4 * SECOND_MOMENT**2 * _pow2(terms.b)
    variance_term = SQUARE_INTEGRAL / (n * h) * terms.v
    totals = (bias_term, variance_term, bias_term + variance_term)
    if np.ndim(terms.b) == 0:
        totals = map(float, totals)
    return AmseReport(t, x, h, n, terms, *totals)


def _s0_quantile_time(spec, x: float, level: float) -> float:
    """Time where the latency survival crosses ``level``."""
    hi = spec.s0_upper(x)
    if float(spec.s0(hi, x)) > level:
        raise ValueError("latency survival never reaches the level")
    return float(bisect_level(spec.s0, [hi], level, x, 1e-12)[0])


def h_amise(spec: ModelSpec, x: float, n: int) -> float:
    """Bandwidth minimizing the asymptotic MISE at covariate ``x``:

    ``h = (c_K int V dt / (d_K^2 int B^2 dt))^(1/5) n^(-1/5)``

    The time integrals run from 1% to 100% of the time where the
    latency survival falls to 0.05, on a fixed Simpson grid of 64
    panels; a fixed grid is used because the integrand itself is a
    quadrature result, whose small evaluation noise would defeat
    adaptive refinement.  Deterministic in all its inputs, so the
    ``n^(-1/5)`` scaling is exact across calls.
    """
    if not 1 <= n < math.inf:  # a range test, since NaN passes ``< 1``
        raise ValueError("n must be finite and at least 1")
    hi = _s0_quantile_time(spec, x, 0.05)
    lo = 0.01 * hi

    def squared_bias_and_variance(ts):
        # one quadrature call for the whole grid; composite_simpson
        # calls this once, so the t-independent full-support transforms
        # are computed once too
        terms = bias_variance_terms(spec, ts, x)
        return np.stack([_pow2(terms.b), terms.v])

    int_b_sq, int_v = map(float, composite_simpson(
        squared_bias_and_variance, lo, hi))
    if int_b_sq <= 0.0:
        raise ValueError("bias integral vanished; no finite optimum")
    ratio = SQUARE_INTEGRAL * int_v / (SECOND_MOMENT**2 * int_b_sq)
    return ratio ** 0.2 * n ** (-0.2)
