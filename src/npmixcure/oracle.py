"""Asymptotic bias and variance oracle for the latency estimator.

Evaluates, by quadrature on a known population, the ingredients of the
asymptotic mean squared error of the one-bandwidth latency estimate:
the integral transforms

    ``Phi(y, t, x)  = int_0^t dH1(v|y)/(1-H(v|x))
                      - int_0^t (1-H(v|y)) dH1(v|x)/(1-H(v|x))^2``

    ``Phi1(x, t, x) = Phi2(x, t, x) = int_0^t dH1(v|x)/(1-H(v|x))^2``

their y-derivatives on the diagonal, and the bias/variance terms built
from them.  Here ``H`` is the conditional distribution of the observed
time and ``H1`` its uncensored part.  ``Phi`` vanishes on the diagonal
``y = x``, which the test suite uses as a quadrature sanity check, and
the two double-integral decompositions of ``Phi1``/``Phi2`` collapse to
the same single integral there.

Time arguments of ``inf`` mean the full support: integrals then run to
the (effective) upper end of the latency support, where the uncensored
mass is exhausted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import SupportGuardError
from .kernels import EPANECHNIKOV, Kernel
from .models import ModelSpec
from .numerics import adaptive_simpson, central_diff, composite_simpson

__all__ = [
    "PopulationFunctions",
    "PhiDerivatives",
    "BiasVarianceTerms",
    "AmseReport",
    "population_from_model",
    "phi",
    "phi1",
    "phi2_terms",
    "phi_y_derivatives",
    "bias_variance_terms",
    "amse",
    "h_amise",
]

# evaluations are refused where 1 - H(t|x) falls below this floor
SUPPORT_FLOOR = 1e-3

# quadrature tolerances: plain integrals, then outer/inner of nested ones
_TOL = 1e-8
_TOL_OUTER = 1e-8
_TOL_INNER = 1e-10


@dataclass(frozen=True)
class PopulationFunctions:
    """Closed-form population quantities of a mixture cure process.

    All callables are pointwise in ``(t, x)`` and take arrays of times
    (integrands call them on whole quadrature levels at once).
    ``latency_density`` is
    ``-d s0/dt``; ``s0_upper(x)`` an upper end of the latency support
    (beyond it the density is numerically zero); ``m``/``m_prime`` the
    covariate density and its derivative; censoring is covariate free.
    """

    p: Callable
    s0: Callable
    latency_density: Callable
    cens_sf: Callable
    cens_pdf: Callable
    m: Callable
    m_prime: Callable
    s0_upper: Callable[[float], float]

    def survival(self, t, x):
        """Observable survival ``S(t|x) = 1 - p(x) + p(x) s0(t|x)``."""
        px = self.p(x)
        return 1.0 - px + px * self.s0(t, x)

    def one_minus_h(self, t, x):
        """``1 - H(t|x) = S(t|x) (1 - G(t))``."""
        return self.survival(t, x) * self.cens_sf(t)

    def h_cdf(self, t, x):
        return 1.0 - self.one_minus_h(t, x)

    def h1_density(self, t, x):
        """Density of the uncensored subdistribution ``H1``."""
        return self.cens_sf(t) * self.p(x) * self.latency_density(t, x)

    def h1_cdf(self, t, x) -> float:
        """``H1(t|x)``, by quadrature of the density."""
        upper = min(float(t), self.s0_upper(x))
        return adaptive_simpson(
            lambda v: self.h1_density(v, x), 0.0, upper, _TOL
        )


def _fd_latency_density(s0):
    def density(t, x):
        step = 1e-6 * np.maximum(1.0, np.abs(t))
        return (s0(t - step, x) - s0(t + step, x)) / (2.0 * step)

    return density


def _numeric_s0_upper(s0):
    def upper(x: float) -> float:
        hi = 1.0
        while float(s0(hi, x)) > 1e-13:
            hi *= 2.0
            if hi > 1e9:
                raise ValueError("latency support appears unbounded")
        lo = hi / 2.0 if hi > 1.0 else 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(s0(mid, x)) > 1e-13:
                lo = mid
            else:
                hi = mid
        return hi

    return upper


def population_from_model(spec: ModelSpec) -> PopulationFunctions:
    """Population quantities of a simulation model.

    Uses the model's closed-form latency density and support bound when
    present, falling back to central differences and bracketed search.
    """
    density = spec.latency_density
    if density is None:
        density = _fd_latency_density(spec.s0)
    s0_upper = spec.s0_upper
    if s0_upper is None:
        s0_upper = _numeric_s0_upper(spec.s0)
    return PopulationFunctions(
        p=spec.p,
        s0=spec.s0,
        latency_density=density,
        cens_sf=spec.censoring.sf,
        cens_pdf=spec.censoring.pdf,
        m=spec.covariate.pdf,
        m_prime=spec.covariate.dpdf,
        s0_upper=s0_upper,
    )


def _pow2(v):
    """``v ** 2`` by C ``pow``, which ``**`` on Python floats calls.

    ``** 2`` on an array squares instead, which can round the last bit
    differently; the batched integrands keep the scalar code's bits.
    """
    return np.float_power(v, 2)


def _guard(pop: PopulationFunctions, t, x: float):
    """Refuse times where ``1 - H(t|x)`` is below the support floor.

    ``t = inf`` is exempt.  For an array of times the first refused
    one is reported, as a loop over the times would.
    """
    times = np.atleast_1d(t)
    finite = np.flatnonzero(~np.isinf(times))
    if not finite.size:
        return
    floors = pop.one_minus_h(times[finite], x)
    refused = np.flatnonzero(floors < SUPPORT_FLOOR)
    if refused.size:
        i = refused[0]
        shown = t if np.ndim(t) == 0 else float(times[finite[i]])
        raise SupportGuardError(
            f"1 - H(t|x) = {float(floors[i]):.3e} at t={shown}, x={x} is "
            f"below the support floor {SUPPORT_FLOOR}"
        )


def phi(pop: PopulationFunctions, y: float, t: float, x: float) -> float:
    """The influence transform ``Phi(y, t, x)``.

    Zero on the diagonal ``y = x``.  ``t = inf`` integrates over the
    full latency support.  The two integrals are evaluated separately,
    so the diagonal value measures real quadrature error rather than
    algebraic cancellation.
    """
    _guard(pop, t, x)
    up1 = min(t, pop.s0_upper(y))
    up2 = min(t, pop.s0_upper(x))

    def first(v):
        return pop.h1_density(v, y) / pop.one_minus_h(v, x)

    def second(v):
        r = pop.one_minus_h(v, x)
        return pop.one_minus_h(v, y) * pop.h1_density(v, x) / (r * r)

    return (
        adaptive_simpson(first, 0.0, up1, _TOL)
        - adaptive_simpson(second, 0.0, up2, _TOL)
    )


def phi1(pop: PopulationFunctions, t, x: float):
    """Diagonal variance transform ``int_0^t dH1(v|x)/(1-H(v|x))^2``.

    ``t`` may be an array of times, integrated in one batched call.
    """
    _guard(pop, t, x)
    upper = np.minimum(t, pop.s0_upper(x))

    def integrand(v):
        r = pop.one_minus_h(v, x)
        return pop.h1_density(v, x) / (r * r)

    return adaptive_simpson(integrand, 0.0, upper, _TOL)


def phi2_terms(pop: PopulationFunctions, t: float, x: float):
    """The four double-integral terms behind ``Phi2`` on the diagonal.

    Returns ``(A, B, C, D)`` with ``Phi2 = A - B - C + D``.  ``B``,
    ``C`` and ``D`` are genuine nested quadratures; on the diagonal
    ``D = B + C``, so the combination must reproduce :func:`phi1`.
    This is deliberately the expensive, independent route.  The inner
    integrals of all the outer points of a quadrature level are one
    batched call, one interval per outer point.
    """
    _guard(pop, t, x)
    upper = pop.s0_upper(x)
    t_eff = min(t, upper)

    def dh1(v):
        return pop.h1_density(v, x)

    def r_of(v):
        return pop.one_minus_h(v, x)

    def ratio(v):
        return dh1(v) / r_of(v)

    def weight(v):
        r = r_of(v)
        return dh1(v) / (r * r)

    term_a = adaptive_simpson(weight, 0.0, t_eff, _TOL)

    def b_outer(u):
        return weight(u) * adaptive_simpson(ratio, u, t_eff, _TOL_INNER)

    term_b = adaptive_simpson(b_outer, 0.0, t_eff, _TOL_OUTER, max_depth=14)

    def c_outer(v):
        return weight(v) * adaptive_simpson(ratio, v, upper, _TOL_INNER)

    term_c = adaptive_simpson(c_outer, 0.0, t_eff, _TOL_OUTER, max_depth=14)

    def low_integrand(u, rv):
        return rv * dh1(u) / _pow2(r_of(u))

    def d_outer(v):
        # split the inner integral at its kink u = v: max(u, v) switches
        low = adaptive_simpson(low_integrand, 0.0, v, _TOL_INNER,
                               args=(r_of(v),))
        high = adaptive_simpson(ratio, v, upper, _TOL_INNER)
        return weight(v) * (low + high)

    term_d = adaptive_simpson(d_outer, 0.0, t_eff, _TOL_OUTER, max_depth=14)

    return term_a, term_b, term_c, term_d


@dataclass(frozen=True)
class PhiDerivatives:
    """Central-difference y-derivatives of ``Phi`` on the diagonal.

    ``first``/``second`` use the halved step; the ``_coarse`` fields
    (present when the halving check ran) use the base step, so their
    relative agreement bounds the finite-difference error.
    """

    first: float
    second: float
    first_coarse: float | None = None
    second_coarse: float | None = None


def _fd_step(x: float) -> float:
    return max(1e-4, 1e-4 * abs(x))


def _phi_derivative_integrals(pop, t, x, step):
    """Quadrature of the y-differentiated ``Phi`` integrand at ``y=x``.

    Differentiation under the integral sign: the y-dependence sits in
    closed-form population functions, so central differences are taken
    on the integrand and a single quadrature follows.  This keeps
    quadrature noise out of the difference quotients.
    """
    upper_t = np.minimum(
        t,
        max(pop.s0_upper(x - step), pop.s0_upper(x), pop.s0_upper(x + step)),
    )

    def make_integrand(order):
        def integrand(v):
            d1_h1, d2_h1 = central_diff(
                lambda yy: pop.h1_density(v, yy), x, step
            )
            d1_s, d2_s = central_diff(lambda yy: pop.survival(v, yy), x, step)
            g_sf = pop.cens_sf(v)
            r = pop.one_minus_h(v, x)
            h1x = pop.h1_density(v, x)
            if order == 1:
                dh1, dh = d1_h1, -g_sf * d1_s
            else:
                dh1, dh = d2_h1, -g_sf * d2_s
            return (dh1 + dh * h1x / r) / r

        return integrand

    first = adaptive_simpson(make_integrand(1), 0.0, upper_t, _TOL)
    second = adaptive_simpson(make_integrand(2), 0.0, upper_t, _TOL)
    return first, second


def phi_y_derivatives(
    pop: PopulationFunctions,
    t: float,
    x: float,
    step: float | None = None,
    halving_check: bool = True,
) -> PhiDerivatives:
    """``d/dy Phi(y, t, x)`` and ``d^2/dy^2 Phi(y, t, x)`` at ``y = x``.

    The base step is ``max(1e-4, 1e-4 |x|)``; reported values always
    use the halved step, and ``halving_check=True`` additionally keeps
    the base-step values so callers can verify stability.  ``t`` may be
    an array of times; the fields are then arrays.
    """
    _guard(pop, t, x)
    base = _fd_step(x) if step is None else step
    fine1, fine2 = _phi_derivative_integrals(pop, t, x, 0.5 * base)
    if not halving_check:
        return PhiDerivatives(fine1, fine2)
    coarse1, coarse2 = _phi_derivative_integrals(pop, t, x, base)
    return PhiDerivatives(fine1, fine2, coarse1, coarse2)


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


def _infinity_pieces(pop, x):
    """The full-support transforms behind ``b2``/``v2`` at ``x``.

    ``(d/dy Phi, d^2/dy^2 Phi, Phi1)`` at ``t = inf``; None when ``x``
    has no cure mass, where :func:`bias_variance_terms` skips them.
    """
    if 1.0 - float(pop.p(x)) <= 1e-15:
        return None
    d_inf = phi_y_derivatives(pop, math.inf, x, halving_check=False)
    return d_inf.first, d_inf.second, phi1(pop, math.inf, x)


def bias_variance_terms(
    pop: PopulationFunctions,
    t,
    x: float,
    _inf_pieces=None,
) -> BiasVarianceTerms:
    """The five bias/variance components at ``(t, x)``.

    ``b1``/``b2`` multiply the squared-bandwidth bias, ``v1``/``v2``
    and the covariance piece ``v3`` the ``1/(nh)`` variance.  ``b2``
    and ``v3`` carry the sign with which the cure-fraction piece
    enters the estimate (see :class:`BiasVarianceTerms`).  All the
    full-support transforms carry a ``1 - p(x)`` factor, so they are
    skipped entirely for populations without a cured fraction (where
    the transforms themselves may diverge).

    ``_inf_pieces`` lets bulk callers reuse the t-independent
    full-support transforms; it is filled in automatically otherwise.

    ``t`` may be an array of times, whose quadratures are then batched;
    the components are arrays equal to those of a loop over the times.
    The first time below the support floor raises.
    """
    _guard(pop, t, x)
    p = float(pop.p(x))
    s = pop.survival(t, x)
    m = float(pop.m(x))
    m_prime = float(pop.m_prime(x))
    if m <= 0.0:
        raise ValueError(f"covariate density vanishes at x={x}")

    d_t = phi_y_derivatives(pop, t, x, halving_check=False)
    phi1_t = phi1(pop, t, x)
    b1 = s / (p * m) * (d_t.second * m + 2.0 * d_t.first * m_prime)
    v1 = _pow2(s / p) * phi1_t / m

    cured = 1.0 - p
    if cured <= 1e-15:
        b2 = v2 = v3 = 0.0
    else:
        if _inf_pieces is None:
            _inf_pieces = _infinity_pieces(pop, x)
        dinf1, dinf2, phi1_inf = _inf_pieces
        b2 = -cured * (1.0 - s) / (p * p * m) * (dinf2 * m + 2.0 * dinf1 * m_prime)
        v2 = _pow2(cured * (1.0 - s) / (p * p)) * phi1_inf / m
        v3 = -cured * s * (1.0 - s) / (p**3 * m) * phi1_t
    parts = (b1, b2, v1, v2, v3)
    if np.ndim(t) == 0:
        parts = tuple(float(part) for part in parts)
    return BiasVarianceTerms(t, x, *parts)


@dataclass(frozen=True)
class AmseReport:
    """Asymptotic MSE of the latency estimate at ``(t, x, h, n)``.

    ``amse = bias_term + variance_term`` with

    ``bias_term     = (h^4 / 4) d_K^2 (b1 + b2)^2``
    ``variance_term = c_K / (n h) (v1 + v2 + 2 v3)``

    where ``d_K`` is the kernel second moment and ``c_K`` its square
    integral.
    """

    t: float
    x: float
    h: float
    n: int
    d_k: float
    c_k: float
    terms: BiasVarianceTerms
    bias_term: float
    variance_term: float
    amse: float


def amse(
    pop: PopulationFunctions,
    t: float,
    x: float,
    h: float,
    n: int,
    kernel: Kernel = EPANECHNIKOV,
    terms: BiasVarianceTerms | None = None,
) -> AmseReport:
    """Dominant asymptotic MSE of the one-bandwidth latency estimate.

    ``terms`` lets bulk callers reuse components already computed for
    this ``(t, x)``; they are recomputed otherwise.
    """
    if h <= 0.0 or n < 1:
        raise ValueError("need h > 0 and n >= 1")
    if terms is None:
        terms = bias_variance_terms(pop, t, x)
    d_k = kernel.second_moment
    c_k = kernel.square_integral
    bias_term = 0.25 * h**4 * d_k**2 * terms.b**2
    variance_term = c_k / (n * h) * terms.v
    return AmseReport(
        t=t, x=x, h=h, n=n, d_k=d_k, c_k=c_k, terms=terms,
        bias_term=bias_term, variance_term=variance_term,
        amse=bias_term + variance_term,
    )


def _s0_quantile_time(pop, x: float, level: float) -> float:
    """Time where the latency survival crosses ``level``."""
    hi = pop.s0_upper(x)
    if float(pop.s0(hi, x)) > level:
        raise ValueError("latency survival never reaches the level")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(pop.s0(mid, x)) > level:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def h_amise(
    pop: PopulationFunctions,
    x: float,
    n: int,
    kernel: Kernel = EPANECHNIKOV,
    t_range: tuple[float, float] | None = None,
    panels: int = 64,
) -> float:
    """Bandwidth minimizing the asymptotic MISE at covariate ``x``:

    ``h = (c_K int V dt / (d_K^2 int B^2 dt))^(1/5) n^(-1/5)``

    The time integrals run over ``t_range`` (default: from 1% to 100%
    of the time where the latency survival falls to 0.05) on a fixed
    Simpson grid of ``panels`` panels; a fixed grid is used because the
    integrand itself is a quadrature result, whose small evaluation
    noise would defeat adaptive refinement.  Deterministic in all its
    inputs, so the ``n^(-1/5)`` scaling is exact across calls.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if t_range is None:
        q = _s0_quantile_time(pop, x, 0.05)
        t_range = (0.01 * q, q)
    lo, hi = t_range
    if not (0.0 <= lo < hi):
        raise ValueError("t_range must satisfy 0 <= lo < hi")
    inf_pieces = _infinity_pieces(pop, x)

    def squared_bias_and_variance(ts):
        # one batched quadrature per transform for the whole grid
        terms = bias_variance_terms(pop, ts, x, _inf_pieces=inf_pieces)
        return np.stack([_pow2(terms.b), terms.v])

    int_b_sq, int_v = map(float, composite_simpson(
        squared_bias_and_variance, lo, hi, panels))
    if int_b_sq <= 0.0:
        raise ValueError("bias integral vanished; no finite optimum")
    d_k = kernel.second_moment
    c_k = kernel.square_integral
    return (c_k * int_v / (d_k**2 * int_b_sq)) ** 0.2 * n ** (-0.2)
