"""Data-generating processes for the Monte Carlo experiments.

Two benchmark mixture cure populations are provided, both with a
uniform covariate on (-20, 20) and exponential censoring with mean
10/3.  Model 1 has a logistic uncured probability and an exponential
latency truncated at tau0 = 4.605; Model 2 has a cubic-logistic uncured
probability and a two-component Weibull-type latency in t^5.  The
window for estimation quality studies is x in [-10, 20].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import bisect_level
from .survival import CensoredSample

__all__ = [
    "UniformCovariate",
    "ExponentialCensoring",
    "ModelSpec",
    "model1",
    "model2",
    "generate",
]


@dataclass(frozen=True)
class UniformCovariate:
    """Uniform covariate distribution on (lo, hi)."""

    lo: float = -20.0
    hi: float = 20.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def dpdf(self, x) -> np.ndarray:
        """Derivative of the density (zero in the interior)."""
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ExponentialCensoring:
    """Exponential censoring time, parameterized by its mean."""

    mean: float = 10.0 / 3.0

    @property
    def rate(self) -> float:
        return 1.0 / self.mean

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.mean, size=n)

    def sf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 1.0, np.exp(-self.rate * t))


@dataclass(frozen=True)
class ModelSpec:
    """A fully specified mixture cure data-generating process.

    ``p(x)`` is the probability of being uncured, ``s0(t, x)`` the
    latency survival.  ``latency_quantile(u, x)`` must invert
    ``s0(., x)`` at level ``u`` so that plugging a standard uniform
    yields a draw of the susceptible survival time.  ``p`` and
    ``latency_quantile`` work element by element, each value equal bit
    for bit to that of a call on its element alone, so :func:`generate`
    can pass the rows of several samples in one call.

    The model also supplies the population identities of the asymptotic
    quadrature oracle.  ``latency_density`` is ``-d s0/dt`` and
    ``s0_upper(x)`` an effective upper end of the latency support (where
    ``s0`` is numerically zero); the covariate density and its
    derivative are ``covariate.pdf``/``covariate.dpdf``, the censoring
    survival ``censoring.sf``, which is covariate free.  The functions
    of time, and the methods below, work element by element and take
    arrays of times (integrands call them on whole quadrature levels at
    once).
    """

    model_id: str
    p: Callable[[np.ndarray], np.ndarray]
    s0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    latency_quantile: Callable[[np.ndarray, np.ndarray], np.ndarray]
    censoring: object
    covariate: object
    latency_density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    s0_upper: Callable[[float], float]

    def survival(self, t, x):
        """Observable survival ``S(t|x) = 1 - p(x) + p(x) s0(t|x)``."""
        px = self.p(x)
        return 1.0 - px + px * self.s0(t, x)

    def one_minus_h(self, t, x):
        """``1 - H(t|x) = S(t|x) (1 - G(t))``."""
        return self.survival(t, x) * self.censoring.sf(t)

    def h1_density(self, t, x):
        """Density of the uncensored subdistribution ``H1``."""
        return self.censoring.sf(t) * self.p(x) * self.latency_density(t, x)


def _logistic(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


MODEL1_TAU0 = 4.605


def _model1_rate(x):
    """Latency rate ``lam(x)`` and truncation mass ``exp(-lam(x) tau0)``."""
    lam = np.exp((np.asarray(x, dtype=float) + 20.0) / 40.0)
    return lam, np.exp(-lam * MODEL1_TAU0)


def model1() -> ModelSpec:
    """Logistic uncured probability, truncated exponential latency.

    ``p(x) = logistic(0.476 + 0.358 x)`` and, for ``t <= tau0 = 4.605``,

    ``s0(t|x) = (exp(-lam(x) t) - exp(-lam(x) tau0)) / (1 - exp(-lam(x) tau0))``

    with ``lam(x) = exp((x + 20) / 40)``.  Around 47% of the population
    is cured and 54% of observations are censored.
    """
    b0, b1 = 0.476, 0.358

    def p(x):
        return _logistic(b0 + b1 * np.asarray(x, dtype=float))

    def s0(t, x):
        t = np.asarray(t, dtype=float)
        lam, tail = _model1_rate(x)
        raw = (np.exp(-lam * np.minimum(t, MODEL1_TAU0)) - tail) / (1.0 - tail)
        return np.where(t >= MODEL1_TAU0, 0.0, np.where(t < 0.0, 1.0, raw))

    def latency_quantile(u, x):
        # s0(t) = u  <=>  t = -log(tail + u (1 - tail)) / lam
        u = np.asarray(u, dtype=float)
        lam, tail = _model1_rate(x)
        return -np.log(tail + u * (1.0 - tail)) / lam

    def latency_density(t, x):
        t = np.asarray(t, dtype=float)
        lam, tail = _model1_rate(x)
        dens = lam * np.exp(-lam * t) / (1.0 - tail)
        return np.where((t < 0.0) | (t > MODEL1_TAU0), 0.0, dens)

    return ModelSpec(
        model_id="model1",
        p=p,
        s0=s0,
        latency_quantile=latency_quantile,
        censoring=ExponentialCensoring(),
        covariate=UniformCovariate(),
        latency_density=latency_density,
        s0_upper=lambda x: MODEL1_TAU0,
    )


# smallest latency scale whose quantile bracket stays finite
_MODEL2_ALPHA_MIN = 37.0 / np.finfo(float).max


def _model2_alpha(x):
    return 0.2 * np.exp((np.asarray(x, dtype=float) + 20.0) / 40.0)


def _model2_s0_of_w(w, alpha):
    """Latency survival as a function of w = t^5."""
    return 0.5 * (np.exp(-alpha * w) + np.exp(-100.0 * w))


def model2() -> ModelSpec:
    """Cubic-logistic uncured probability, mixed-scale latency in t^5.

    ``p(x) = logistic(0.0476 - 0.2558 x - 0.0027 x^2 + 0.0020 x^3)`` and

    ``s0(t|x) = (exp(-alpha(x) t^5) + exp(-100 t^5)) / 2``

    with ``alpha(x) = exp((x + 20) / 40) / 5``.  Around 53% cured, 62%
    censored.  The latency quantile has no closed form; it is obtained
    by bisection in ``w = t^5`` followed by a fifth root.
    """
    b = (0.0476, -0.2558, -0.0027, 0.0020)

    def p(x):
        x = np.asarray(x, dtype=float)
        return _logistic(b[0] + b[1] * x + b[2] * x**2 + b[3] * x**3)

    def s0(t, x):
        t = np.asarray(t, dtype=float)
        w = np.where(t < 0.0, 0.0, t) ** 5
        return _model2_s0_of_w(w, _model2_alpha(x))

    def latency_quantile(u, x):
        u = np.clip(np.asarray(u, dtype=float), 2.0**-53, 1.0)
        shape = u.shape
        alpha = np.broadcast_to(_model2_alpha(x), shape).astype(float).ravel()
        # far below the covariate window the bracket log(2^52) / alpha
        # overflows (one reduction: a per-row mask slowed the surface)
        if not alpha.min(initial=math.inf) > _MODEL2_ALPHA_MIN:
            bad = np.argmin(alpha > _MODEL2_ALPHA_MIN)
            shown = float(np.broadcast_to(x, shape).ravel()[bad])
            raise ValueError(
                f"model 2 cannot invert its latency at covariate x={shown}: "
                f"alpha(x) = {alpha[bad]:.3g} is too small")
        u = u.ravel()
        # bracket: 0.5 exp(-alpha w) <= u  once  w >= log(1/(2u))/alpha
        hi = np.maximum(np.log(1.0 / (2.0 * u)) / alpha, 1.0)
        w = bisect_level(_model2_s0_of_w, hi, u, alpha, 1e-10)
        # [()] makes a 0-d result a numpy scalar, so a scalar level takes
        # the scalar power; it differs in the last bit from the array
        # loop on about one value in twenty
        return w.reshape(shape)[()] ** 0.2

    def latency_density(t, x):
        t = np.asarray(t, dtype=float)
        alpha = _model2_alpha(x)
        w = t**5
        dens = 2.5 * t**4 * (alpha * np.exp(-alpha * w) + 100.0 * np.exp(-100.0 * w))
        return np.where(t < 0.0, 0.0, dens)

    def s0_upper(x: float) -> float:
        # dominated by the slow component: 0.5 exp(-alpha t^5) ~ 1e-14
        alpha = float(_model2_alpha(x))
        return (math.log(0.5e14) / alpha) ** 0.2

    return ModelSpec(
        model_id="model2",
        p=p,
        s0=s0,
        latency_quantile=latency_quantile,
        censoring=ExponentialCensoring(),
        covariate=UniformCovariate(),
        latency_density=latency_density,
        s0_upper=s0_upper,
    )


def generate(
    spec: ModelSpec,
    n: int,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> CensoredSample | list[CensoredSample]:
    """Draw a right-censored sample of size ``n`` from the process.

    ``rng`` is one generator, giving one :class:`CensoredSample`, or a
    sequence of them, giving a list with one sample per stream, each
    equal bit for bit to the sample its stream gives alone.  Every
    stream draws covariates, cure uniforms, latency levels and censoring
    times, in that fixed order, so a given generator state always yields
    the same sample; the latency levels of all streams are then inverted
    in one ``latency_quantile`` call.  Cured subjects have an
    infinite survival time and are therefore always censored.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    single = isinstance(rng, np.random.Generator)
    streams = [rng] if single else list(rng)
    xs, cure, levels, c = (np.empty((len(streams), n)) for _ in range(4))
    for k, stream in enumerate(streams):
        xs[k] = spec.covariate.sample(stream, n)
        cure[k] = stream.random(n)
        levels[k] = stream.random(n)
        c[k] = spec.censoring.sample(stream, n)
    uncured = cure < spec.p(xs)
    y = np.full(xs.shape, np.inf)
    y[uncured] = spec.latency_quantile(levels[uncured], xs[uncured])
    t = np.minimum(y, c)
    delta = (y <= c).astype(np.int64)
    if not np.all(np.isfinite(t)):
        raise ValueError(
            "generated an infinite observed time; "
            "cure fraction requires a censoring distribution with finite draws"
        )
    samples = [CensoredSample(*row) for row in zip(xs, t, delta)]
    return samples[0] if single else samples


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for trial ``index`` of a batch."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    )
