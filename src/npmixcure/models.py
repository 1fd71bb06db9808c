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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .survival import CensoredSample

__all__ = [
    "UniformCovariate",
    "ExponentialCensoring",
    "NoCensoring",
    "ModelSpec",
    "model1",
    "model2",
    "generate",
    "COVARIATE_WINDOW",
]

# covariate range used by the bandwidth-quality studies
COVARIATE_WINDOW = (-10.0, 20.0)


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

    def cdf(self, t) -> np.ndarray:
        return 1.0 - self.sf(t)

    def pdf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 0.0, self.rate * np.exp(-self.rate * t))


@dataclass(frozen=True)
class NoCensoring:
    """Degenerate censoring at +infinity (nothing is ever censored)."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, np.inf)

    def sf(self, t) -> np.ndarray:
        return np.ones_like(np.asarray(t, dtype=float))

    def cdf(self, t) -> np.ndarray:
        return np.zeros_like(np.asarray(t, dtype=float))

    def pdf(self, t) -> np.ndarray:
        return np.zeros_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ModelSpec:
    """A fully specified mixture cure data-generating process.

    ``p(x)`` is the probability of being uncured, ``s0(t, x)`` the
    latency survival.  ``latency_quantile(u, x)`` must invert
    ``s0(., x)`` at level ``u`` so that plugging a standard uniform
    yields a draw of the susceptible survival time.  ``latency_density``
    and ``s0_upper`` feed the asymptotic quadrature oracle: the former
    is ``-d s0/dt`` and the latter an effective upper end of the latency
    support (where ``s0`` is numerically zero).
    """

    model_id: str
    p: Callable[[np.ndarray], np.ndarray]
    s0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    latency_quantile: Callable[[np.ndarray, np.ndarray], np.ndarray]
    censoring: object
    covariate: object
    latency_density: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    s0_upper: Callable[[float], float] | None = None
    params: dict = field(default_factory=dict)


def _logistic(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


MODEL1_TAU0 = 4.605


def _model1_lambda(x):
    return np.exp((np.asarray(x, dtype=float) + 20.0) / 40.0)


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
        lam = _model1_lambda(x)
        tail = np.exp(-lam * MODEL1_TAU0)
        raw = (np.exp(-lam * np.minimum(t, MODEL1_TAU0)) - tail) / (1.0 - tail)
        return np.where(t >= MODEL1_TAU0, 0.0, np.where(t < 0.0, 1.0, raw))

    def latency_quantile(u, x):
        # s0(t) = u  <=>  t = -log(tail + u (1 - tail)) / lam
        u = np.asarray(u, dtype=float)
        lam = _model1_lambda(x)
        tail = np.exp(-lam * MODEL1_TAU0)
        return -np.log(tail + u * (1.0 - tail)) / lam

    def latency_density(t, x):
        t = np.asarray(t, dtype=float)
        lam = _model1_lambda(x)
        tail = np.exp(-lam * MODEL1_TAU0)
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
        params={
            "incidence_logit": [b0, b1],
            "tau0": MODEL1_TAU0,
            "censoring_mean": 10.0 / 3.0,
            "covariate": [-20.0, 20.0],
        },
    )


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
        alpha = np.broadcast_to(_model2_alpha(x), u.shape).astype(float)
        # bracket: 0.5 exp(-alpha w) <= u  once  w >= log(1/(2u))/alpha
        hi = np.maximum(np.log(1.0 / (2.0 * u)) / alpha, 1.0)
        lo = np.zeros_like(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            too_high = _model2_s0_of_w(mid, alpha) > u
            lo = np.where(too_high, mid, lo)
            hi = np.where(too_high, hi, mid)
            if np.all(hi - lo <= 1e-10 * np.maximum(hi, 1.0)):
                break
        return (0.5 * (lo + hi)) ** 0.2

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
        params={
            "incidence_logit": list(b),
            "latency_alpha_scale": 0.2,
            "censoring_mean": 10.0 / 3.0,
            "covariate": [-20.0, 20.0],
        },
    )


def generate(spec: ModelSpec, n: int, rng: np.random.Generator) -> CensoredSample:
    """Draw a right-censored sample of size ``n`` from the process.

    Covariates, cure indicators, latency levels and censoring times are
    drawn in that fixed order so a given generator state always yields
    the same sample.  Cured subjects have an infinite survival time and
    are therefore always censored.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    xs = spec.covariate.sample(rng, n)
    uncured = rng.random(n) < spec.p(xs)
    levels = rng.random(n)
    c = spec.censoring.sample(rng, n)
    y = np.full(n, np.inf)
    if np.any(uncured):
        y[uncured] = spec.latency_quantile(levels[uncured], xs[uncured])
    t = np.minimum(y, c)
    delta = (y <= c).astype(np.int64)
    if not np.all(np.isfinite(t)):
        raise ValueError(
            "generated an infinite observed time; "
            "cure fraction requires a censoring distribution with finite draws"
        )
    return CensoredSample(xs, t, delta)


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for trial ``index`` of a batch."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    )
