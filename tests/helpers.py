"""Independent reference implementations used as test oracles.

These are deliberately written with different algorithms than the
package (grouped risk-set formulas, O(n^2) loops) so that agreement is
evidence of correctness rather than shared bugs.  The benchmark's
tracer is loaded here too, for the tests that run the package under it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np


def load_benchmark_tracing():
    """``benchmark/tracing.py`` as a module, writing no bytecode beside it."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def km_grouped(t, delta):
    """Kaplan-Meier by the grouped formula prod(1 - d_i / n_i).

    Returns (event_times, survival_values) over the distinct uncensored
    times.  Censored observations tied with an event time stay at risk
    for it (events-first convention).
    """
    t = np.asarray(t, dtype=float)
    delta = np.asarray(delta, dtype=int)
    event_times = np.unique(t[delta == 1])
    survival = []
    s = 1.0
    for et in event_times:
        n_risk = np.sum(t >= et)
        d = np.sum((t == et) & (delta == 1))
        s *= 1.0 - d / n_risk
        survival.append(s)
    return event_times, np.asarray(survival)


def beran_brute(xs, ts, deltas, x, h, kernel_density):
    """Conditional product-limit estimate by direct O(n^2) products.

    Returns (times, values) at the sorted observed times (every time,
    censored included; the value simply repeats across censoring-only
    times).  ``kernel_density`` is the kernel's density function.
    Weights are Nadaraya-Watson; a factor with zero denominator or a
    censored observation contributes 1.
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    deltas = np.asarray(deltas, dtype=int)
    raw = kernel_density((x - xs) / h)
    total = raw.sum()
    if total == 0.0:
        raise ValueError("empty neighborhood")
    w = raw / total

    order = np.lexsort((-deltas, ts))
    t_s, d_s, w_s = ts[order], deltas[order], w[order]
    n = t_s.size
    times, values = [], []
    for k in range(n):
        prod = 1.0
        for i in range(n):
            if t_s[i] > t_s[k]:
                continue
            if d_s[i] != 1 or w_s[i] == 0.0:
                continue
            denom = 0.0
            for j in range(n):
                if t_s[j] > t_s[i] or (t_s[j] == t_s[i] and j >= i):
                    denom += w_s[j]
            if denom <= 0.0:
                continue
            prod *= 1.0 - w_s[i] / denom
        times.append(t_s[k])
        values.append(prod)
    return np.asarray(times), np.asarray(values)


def random_censored_sample(rng, n, tie_prob=0.0):
    """A small random censored sample, optionally with tied times."""
    xs = rng.uniform(-2.0, 2.0, size=n)
    ts = rng.exponential(2.0, size=n)
    if tie_prob > 0.0:
        ts = np.round(ts, 1)
        ts = np.maximum(ts, 0.1)
    deltas = (rng.random(n) < 0.7).astype(int)
    if not deltas.any():
        deltas[rng.integers(n)] = 1
    return xs, ts, deltas


def draw_conditional(spec, x, n, rng):
    """Draw (T, delta) from a benchmark model at a fixed covariate value.

    Mirrors the model's sampling scheme with the covariate pinned, for
    Monte Carlo checks of conditional quantities.
    """
    uncured = rng.random(n) < spec.p(x)
    y = np.full(n, np.inf)
    idx = np.flatnonzero(uncured)
    if idx.size:
        y[idx] = spec.latency_quantile(rng.random(idx.size), x)
    c = spec.censoring.sample(rng, n)
    t = np.minimum(y, c)
    delta = (y <= c).astype(int)
    return t, delta
