"""Independent reference implementations used as test oracles.

These are deliberately written with different algorithms than the
package (grouped risk-set formulas, O(n^2) loops) so that agreement is
evidence of correctness rather than shared bugs.  The benchmark's
tracer is loaded here too, for the tests that run the package under it.

``ReferenceKit`` is the bootstrap's earlier resampling kit: every pilot
latency curve stored as a row of an (n, E) matrix of cumulative
masses, searched in two levels for one resample at a time, and its
censoring times picked by a plain ``searchsorted`` (:func:`pick`).  The
package's kit draws every resample of a selection in one pass over the
pilot fits, as ranks into a table of atoms, and the tests hold its
draws equal to this kit's bit for bit.  ``mise_star_loop`` fits this
kit's resamples one bandwidth at a time, the reference of the batched
grid fits, and ``mise_star_alone`` calls ``mise_star`` at one covariate
value at a time, the reference of a call at several.
``product_limit_reference`` is the product-limit formula with its
earlier, redundant positive-remaining-weight test and a fresh array
from every step, and ``beran_rows_reference`` reads the grid fits off
the times with one search per sample, where the package finds each
sample's grid columns from its integer sort keys.
``epanechnikov_reference`` and ``nw_weights_reference`` compute the
kernel with the same ufuncs in the same order, where the package
computes it in place in one buffer.  ``cell_reference`` is the CSV
writer's cell formatting as a chain of ``isinstance`` tests, where the
package writes the JSON writer's scalar as text.

The oracle's reference routes live here as well: ``phi`` and
``phi2_terms``.  ``Phi`` vanishes on the diagonal ``y = x``, which the
tests use as a quadrature sanity check, and the two double-integral
decompositions of ``Phi1``/``Phi2`` collapse to the same single
integral there.  Both call the quadrature as
``numerics.adaptive_simpson``, so the benchmark's tracer, which rebinds
names inside the package only, still counts their integrand calls.
``diagonal_integrands_reference`` builds the oracle's integrand rows
with eight population calls per level, each stencil covariate on its
own, where the package evaluates the stacked stencil once.

The two bisections the package's ``numerics.bisect_level`` replaced are
kept as references of it.  ``model2_quantile_grouped`` is model 2's
earlier latency quantile: consecutive groups of rows, one per sample,
bisect together and a group leaves only after the first halving at
which all its rows meet the stop test.  ``s0_quantile_time_scalar`` is
the oracle's earlier scalar loop for the time where a latency survival
falls to a level.
"""

import importlib.util
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from npmixcure import numerics
from npmixcure.bootstrap import (
    _KIT_CHUNK_BYTES,
    _JumpDistribution,
    _covariate_seed,
    mise_star,
    pilot_bandwidth,
)
from npmixcure.cure import latency_estimate
from npmixcure.exceptions import EmptyNeighborhoodError, EstimationError
from npmixcure.kernels import nw_weights
from npmixcure.models import ModelSpec, _model2_alpha, _model2_s0_of_w
from npmixcure.oracle import _TOL, _guard, _pow2
from npmixcure.survival import CensoredSample, _product_limit, kaplan_meier

# tolerances of the nested quadratures: outer, then inner
_TOL_OUTER = 1e-8
_TOL_INNER = 1e-10


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


def product_limit_reference(delta_sorted, weights, columns=slice(None)):
    """``survival._product_limit`` with its earlier activity test, which
    also required a positive remaining weight."""
    remaining = np.cumsum(weights[..., ::-1], axis=-1)[..., ::-1]
    weights, remaining = weights[..., columns], remaining[..., columns]
    active = ((delta_sorted[..., columns] == 1) & (weights > 0.0)
              & (remaining > 0.0))
    with np.errstate(invalid="ignore"):  # 0/0 past a row's last weight
        factors = np.where(active, 1.0 - weights / remaining, 1.0)
    return np.cumprod(factors, axis=-1)


def grid_columns(t_sorted, tgrid):
    """The last column of each time order at or before every grid point,
    as ``survival._beran_rows`` takes them: (1, T) for one (n,) order,
    and (b, 1, T) for a (b, n) stack of orders."""
    last = np.array([np.searchsorted(row, tgrid, side="right") - 1
                     for row in t_sorted.reshape(-1, t_sorted.shape[-1])])
    return last.reshape(t_sorted.shape[:-1] + (1, tgrid.size))


def beran_rows_reference(t_sorted, delta_sorted, raw, tgrid):
    """``survival._beran_rows`` as it read the grid off the times: one
    search of every sample's times, then a gather along each row."""
    raw = np.ascontiguousarray(raw)
    total = raw.sum(axis=-1)
    fitted = total > 0.0
    weights = raw / np.where(fitted, total, 1.0)[..., None]
    survival = _product_limit(delta_sorted[..., None, :], weights)
    last = np.array([np.searchsorted(row, tgrid, side="right")
                     for row in t_sorted.reshape(-1, t_sorted.shape[-1])])
    last = (last - 1).reshape(t_sorted.shape[:-1] + (1, tgrid.size))
    on_grid = np.where(
        last < 0, 1.0,
        np.take_along_axis(survival, np.maximum(last, 0), axis=-1))
    return on_grid, survival[..., -1].copy(), fitted


def epanechnikov_reference(u):
    """The kernel ``0.75 (1 - u^2)``, zero outside (-1, 1), with the
    ufuncs of ``kernels._kernel_rows`` and a fresh array from each."""
    u = np.asarray(u, dtype=float)
    return 0.75 * np.maximum(0.0, 1.0 - u * u)


def nw_weights_reference(x, xs, h):
    """``kernels.nw_weights`` with a fresh array from every ufunc."""
    hs = np.asarray(h, dtype=float)
    if not (np.isfinite(hs) & (hs > 0.0)).all():
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("xs must be nonempty")
    points = np.asarray(x, dtype=float)
    raw = epanechnikov_reference((points[..., None] - xs) / hs[..., None])
    total = raw.sum(axis=-1, keepdims=True)
    empty = total[..., 0] <= 0.0
    if empty.any():
        if raw.ndim > 1:
            k = int(np.argmax(empty))
            x = float(np.broadcast_to(points, empty.shape)[k])
            h = float(np.broadcast_to(hs, empty.shape)[k])
        raise EmptyNeighborhoodError(
            f"no observation within bandwidth {h} of x={x}"
        )
    return raw / total


def cell_reference(value) -> str:
    """``io_utils._cell`` as a chain of ``isinstance`` tests alone."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def pick(dist, u):
    """Inverse transform of uniforms by a plain search: the atom time of
    the first cumulative mass above each uniform, else the last atom."""
    idx = np.searchsorted(dist.cum, u, side="right")
    return dist.times[np.minimum(idx, dist.times.size - 1)]


def _at_event_times(t_sorted, delta_sorted, survival):
    """Distinct event times and the curves' values there.

    ``survival`` holds (K, n) curves after every column of a shared time
    order, as :func:`_product_limit` returns them.  Returns the times,
    shape (E,), and a C-contiguous (K, E) matrix; tied event times are
    collapsed, keeping the last (fully accumulated) value.
    """
    events = np.flatnonzero(delta_sorted == 1)
    times = t_sorted[events]
    keep = np.ones(times.size, dtype=bool)
    keep[:-1] = times[1:] > times[:-1]
    return times[keep], survival.take(events[keep], axis=1)


class ReferenceKit:
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
        :func:`pick`).  The row is nondecreasing, so the count is found
        in two steps: over the blocks' last columns, which counts the
        whole blocks at or below the uniform, then inside the one block
        that remains.
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
        c = pick(self.censoring, u_censor)
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


def mise_star_loop(sample, x, config):
    """Reference: one fit per (resample, bandwidth), each evaluated alone.

    Returns the curve's values and failures, or raises like mise_star.
    """
    grid = config.grid.values
    g = pilot_bandwidth(sample.x, config.pilot_c)
    tgrid = np.linspace(0.0, sample.t_max_uncensored(), config.time_grid_size)
    pilot_values = latency_estimate(sample, x, g).latency.evaluate(tgrid)
    kit = ReferenceKit.build(sample, g)
    ise = np.full((config.B, grid.size), np.nan)
    children = np.random.SeedSequence(config.seed).spawn(config.B)
    for j, child in enumerate(children):
        star = CensoredSample(kit.xs, *kit.draw(np.random.default_rng(child)))
        for l, h in enumerate(grid):
            try:
                fit = latency_estimate(star, x, float(h))
            except EstimationError:
                continue
            diff = fit.latency.evaluate(tgrid) - pilot_values
            ise[j, l] = np.trapezoid(diff * diff, tgrid)
    succeeded = np.sum(~np.isnan(ise), axis=0)
    if np.any(succeeded == 0):
        bad = grid[succeeded == 0]
        raise EstimationError(
            f"every resample failed at bandwidth(s) {bad.tolist()}"
        )
    return np.nansum(ise, axis=0) / succeeded, config.B - succeeded


def mise_star_alone(sample, xs, config):
    """``mise_star`` at each value of ``xs`` in a call of its own, on the
    seed a call at all of them gives it, or the error it fails with."""
    out = []
    for i, x in enumerate(xs):
        alone = replace(config, seed=_covariate_seed(config.seed, i))
        try:
            out.append(mise_star(sample, x, alone))
        except EstimationError as err:
            out.append(err)
    return out


def assert_same_outcomes(several, alone):
    """The curves (or errors) of a call at several values are those of
    the calls at each alone."""
    assert len(several) == len(alone)
    for got, want in zip(several, alone):
        if isinstance(want, EstimationError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.failures, want.failures)
            assert got.pilot_bandwidth == want.pilot_bandwidth
            assert got.weight_upper == want.weight_upper


@dataclass(frozen=True)
class NoCensoring:
    """Degenerate censoring at +infinity (nothing is ever censored)."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, np.inf)

    def sf(self, t) -> np.ndarray:
        return np.ones_like(np.asarray(t, dtype=float))


def phi(spec: ModelSpec, y: float, t: float, x: float) -> float:
    """The influence transform ``Phi(y, t, x)``.

    Zero on the diagonal ``y = x``.  ``t = inf`` integrates over the
    full latency support.  The two integrals are evaluated separately,
    so the diagonal value measures real quadrature error rather than
    algebraic cancellation.
    """
    _guard(spec, t, x)
    _guard(spec, math.inf, y)
    up1 = min(t, spec.s0_upper(y))
    up2 = min(t, spec.s0_upper(x))

    def first(v):
        return spec.h1_density(v, y) / spec.one_minus_h(v, x)

    def second(v):
        r = spec.one_minus_h(v, x)
        return spec.one_minus_h(v, y) * spec.h1_density(v, x) / (r * r)

    return (
        numerics.adaptive_simpson(first, 0.0, up1, _TOL)
        - numerics.adaptive_simpson(second, 0.0, up2, _TOL)
    )


def phi2_terms(spec: ModelSpec, t: float, x: float):
    """The four double-integral terms behind ``Phi2`` on the diagonal.

    Returns ``(A, B, C, D)`` with ``Phi2 = A - B - C + D``.  ``B``,
    ``C`` and ``D`` are genuine nested quadratures; on the diagonal
    ``D = B + C``, so the combination must reproduce :func:`phi1`.
    This is deliberately the expensive, independent route.  The inner
    integrals of all the outer points of a quadrature level are one
    batched call, one interval per outer point.
    """
    _guard(spec, t, x)
    upper = spec.s0_upper(x)
    t_eff = min(t, upper)

    def dh1(v):
        return spec.h1_density(v, x)

    def r_of(v):
        return spec.one_minus_h(v, x)

    def ratio(v):
        return dh1(v) / r_of(v)

    def weight(v):
        r = r_of(v)
        return dh1(v) / (r * r)

    term_a = numerics.adaptive_simpson(weight, 0.0, t_eff, _TOL)

    def b_outer(u):
        return weight(u) * numerics.adaptive_simpson(ratio, u, t_eff, _TOL_INNER)

    term_b = numerics.adaptive_simpson(b_outer, 0.0, t_eff, _TOL_OUTER, max_depth=14)

    def c_outer(v):
        return weight(v) * numerics.adaptive_simpson(ratio, v, upper, _TOL_INNER)

    term_c = numerics.adaptive_simpson(c_outer, 0.0, t_eff, _TOL_OUTER, max_depth=14)

    def d_outer(v):
        # split the inner integral at its kink u = v: max(u, v) switches;
        # below it, one integrand row per outer point v
        rv = r_of(v)[:, None]
        low = numerics.adaptive_simpson(
            lambda u: rv * dh1(u) / _pow2(r_of(u)), 0.0, v[:, None],
            _TOL_INNER)[:, 0]
        high = numerics.adaptive_simpson(ratio, v, upper, _TOL_INNER)
        return weight(v) * (low + high)

    term_d = numerics.adaptive_simpson(d_outer, 0.0, t_eff, _TOL_OUTER, max_depth=14)

    return term_a, term_b, term_c, term_d


def diagonal_integrands_reference(spec, x, step):
    """``oracle._diagonal_integrands`` by one population call per
    stencil covariate: ``h1`` and ``S`` at ``x + step``, ``x - step``
    and ``x``, then ``1 - H`` and ``h1`` again at ``x``."""
    x = np.asarray(x, dtype=float)[:, None]
    step = np.asarray(step, dtype=float)[:, None]

    def differences(f):
        f_plus, f_minus, f_mid = f(x + step), f(x - step), f(x)
        return ((f_plus - f_minus) / (2.0 * step),
                (f_plus - 2.0 * f_mid + f_minus) / (step * step))

    def rows(v):
        d1_h1, d2_h1 = differences(lambda y: spec.h1_density(v, y))
        d1_s, d2_s = differences(lambda y: spec.survival(v, y))
        g_sf = spec.censoring.sf(v)
        r = spec.one_minus_h(v, x)
        h1x = spec.h1_density(v, x)
        first = (d1_h1 + -g_sf * d1_s * h1x / r) / r
        second = (d2_h1 + -g_sf * d2_s * h1x / r) / r
        out = np.empty((x.shape[0], 3, v.size))
        out[:, 0], out[:, 1], out[:, 2] = first, second, h1x / (r * r)
        return out.reshape(-1, v.size)

    return rows


def model2_quantile_grouped(u, x, sizes=None):
    """Model 2's latency quantile, each group of ``sizes`` rows of the
    1-d ``u`` bisecting until all its rows meet the stop test."""
    u = np.clip(np.asarray(u, dtype=float), 2.0**-53, 1.0)
    shape = u.shape
    alpha = np.broadcast_to(_model2_alpha(x), shape).astype(float).ravel()
    u = u.ravel()
    hi = np.maximum(np.log(1.0 / (2.0 * u)) / alpha, 1.0)
    lo = np.zeros_like(hi)
    w = np.empty_like(hi)
    # an empty group is dropped: reduceat over it would read the next
    # group's first row
    rows = np.arange(u.size)
    sizes = np.array([u.size] if sizes is None else sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    for _ in range(200):
        if not sizes.size:
            break
        mid = 0.5 * (lo + hi)
        too_high = _model2_s0_of_w(mid, alpha) > u
        lo = np.where(too_high, mid, lo)
        hi = np.where(too_high, hi, mid)
        met = hi - lo <= 1e-10 * np.maximum(hi, 1.0)
        stop = np.logical_and.reduceat(met, starts)
        if stop.any():
            done = np.repeat(stop, sizes)
            w[rows[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            rows, u, alpha, lo, hi = (a[keep] for a in (rows, u, alpha, lo, hi))
            sizes = sizes[~stop]
            starts = np.cumsum(sizes) - sizes
    w[rows] = 0.5 * (lo + hi)
    return w.reshape(shape)[()] ** 0.2


def s0_quantile_time_scalar(spec: ModelSpec, x: float, level: float) -> float:
    """Time where the latency survival crosses ``level``, one Python
    float at a time."""
    lo, hi = 0.0, spec.s0_upper(x)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(spec.s0(mid, x)) > level:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)
