"""Quadrature and finite-difference building blocks."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmixcure.numerics import (
    adaptive_simpson,
    bisect_level,
    central_diff,
    composite_simpson,
)


def test_adaptive_simpson_polynomial_exact():
    # Simpson integrates cubics exactly
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-14
    )
    assert adaptive_simpson(lambda x: x**3 - x, -1.0, 2.0) == pytest.approx(
        2.25, abs=1e-12
    )


def test_adaptive_simpson_transcendental():
    assert_allclose(
        adaptive_simpson(np.sin, 0.0, math.pi, tol=1e-10), 2.0, atol=1e-9
    )
    assert_allclose(
        adaptive_simpson(np.exp, 0.0, 1.0, tol=1e-10),
        math.e - 1.0,
        atol=1e-9,
    )


def test_adaptive_simpson_empty_interval():
    assert adaptive_simpson(np.exp, 2.0, 2.0) == 0.0


def _simpson(fa, fm, fb, width):
    return width * (fa + 4.0 * fm + fb) / 6.0


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    # the depth-first scalar recursion the breadth-first engine replaced
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (
        _adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
        + _adaptive(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    )


def _recursive_simpson(f, a, b, tol=1e-8, max_depth=24):
    if b <= a:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _scalar(f):
    return lambda v: float(f(np.asarray(v)))


@pytest.mark.parametrize("f, a, b, tol, max_depth", [
    (lambda v: v**3 - v, -1.0, 2.0, 1e-8, 24),
    (np.sin, 0.0, math.pi, 1e-10, 24),
    (lambda v: np.abs(v - 0.3), 0.0, 1.0, 1e-12, 24),
    (lambda v: np.exp(-v) / (1.0 + v * v), 0.0, 7.0, 1e-11, 24),
    (lambda v: np.where(v < 0.37, 0.0, 1.0), 0.0, 1.0, 1e-12, 10),
    (np.exp, 2.0, 2.0, 1e-8, 24),
], ids=["cubic", "sin", "kink", "decay", "depth-cap", "empty"])
def test_adaptive_simpson_bit_identical_to_recursion(f, a, b, tol, max_depth):
    value = adaptive_simpson(f, a, b, tol, max_depth)
    assert type(value) is float
    assert value == _recursive_simpson(_scalar(f), a, b, tol, max_depth)


def test_adaptive_simpson_depth_cap_stops_refinement():
    # the node holding the jump never passes the test, so every level
    # down to the cap evaluates once: the ends and midpoint, then one
    # call per depth max_depth, ..., 0
    calls = []

    def step(v):
        calls.append(v.size)
        return np.where(v < 0.37, 0.0, 1.0)

    adaptive_simpson(step, 0.0, 1.0, tol=1e-12, max_depth=10)
    assert len(calls) == 1 + 11


def test_adaptive_simpson_batch_of_intervals():
    a = np.array([0.0, 0.5, 1.0, 2.0, -1.0])
    b = np.array([1.0, 0.5, 3.0, 1.0, 0.25])
    batch = adaptive_simpson(np.exp, a, b, tol=1e-10)
    assert batch.shape == (5,)
    expected = [_recursive_simpson(_scalar(np.exp), lo, hi, tol=1e-10)
                for lo, hi in zip(a, b)]
    assert list(batch) == expected
    assert batch[1] == 0.0 and batch[3] == 0.0


def test_adaptive_simpson_row_valued_integrand():
    # (C, K) limits with an f that returns C rows: each root reads its
    # own row, bit for bit as one 1-d call per row, and the empty
    # intervals that pad a row are never evaluated
    funcs = (np.sin, np.exp, lambda v: np.abs(v - 0.3))
    lower = np.array([[0.0, 0.5, 1.0], [2.0, -1.0, 0.0], [0.1, 0.7, 0.0]])
    upper = np.array([[1.0, 0.5, 3.0], [1.0, 0.25, 0.0], [0.9, 0.7, 0.0]])
    points = []

    def rows(v):
        points.append(v.size)
        return np.stack([f(v) for f in funcs])

    batch = adaptive_simpson(rows, lower, upper, tol=1e-10)
    assert batch.shape == (3, 3)
    alone = []
    for f, lo, hi, got in zip(funcs, lower, upper, batch):
        want = adaptive_simpson(lambda v: alone.append(v.size) or f(v), lo,
                                hi, tol=1e-10)
        assert list(got) == list(want)
    assert sum(points) == sum(alone)
    # a 1-d return still serves every row
    same = adaptive_simpson(np.exp, lower, upper, tol=1e-10)
    assert [list(r) for r in same] == [
        list(adaptive_simpson(np.exp, lo, hi, tol=1e-10))
        for lo, hi in zip(lower, upper)]


def test_adaptive_simpson_per_interval_arguments():
    # (C, 1) limits: one interval per row, each integrating its own
    # scale times a shared function, as the recursion does alone
    scale = np.array([1.0, 2.0, 3.0])
    upper = np.array([2.0, 3.0, 4.0])
    batch = adaptive_simpson(lambda v: scale[:, None] * np.sin(v) / (v * v),
                             1.0, upper[:, None], tol=1e-10)
    assert batch.shape == (3, 1)
    for c, hi, value in zip(scale, upper, batch[:, 0]):
        assert value == _recursive_simpson(
            _scalar(lambda v: c * np.sin(v) / (v * v)), 1.0, hi, tol=1e-10
        )


def test_adaptive_simpson_rejects_infinite_limits():
    with pytest.raises(ValueError):
        adaptive_simpson(np.exp, 0.0, math.inf)
    with pytest.raises(ValueError):
        adaptive_simpson(np.exp, np.array([0.0, 1.0]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        adaptive_simpson(np.exp, 0.0, np.ones((2, 2, 2)))


def test_composite_simpson_error_bound():
    # composite error for x^4 on [0,1] with 64 panels is below 1e-8
    value = composite_simpson(lambda x: x**4, 0.0, 1.0)
    assert abs(value - 0.2) < 1e-8


def test_composite_simpson_rows_integrate_like_single_calls():
    calls = []

    def rows(v):
        calls.append(v.size)
        return np.stack([v**4, np.cos(v)])

    both = composite_simpson(rows, 0.0, 1.0)
    assert calls == [65]
    assert both[0] == composite_simpson(lambda v: v**4, 0.0, 1.0)
    assert both[1] == composite_simpson(np.cos, 0.0, 1.0)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0)])
def test_composite_simpson_empty_interval_is_zero(a, b):
    calls = []

    def f(v):
        calls.append(v)
        return np.ones_like(v)

    value = composite_simpson(f, a, b)
    assert value == 0.0 and type(value) is float
    assert calls == []


def test_central_diff_exponential():
    d = 1e-5
    d1, d2 = central_diff([math.exp(d), math.exp(-d), math.exp(0.0)], d)
    assert d1 == pytest.approx(1.0, abs=1e-9)
    assert d2 == pytest.approx(1.0, abs=1e-5)


def test_central_diff_cubic():
    # for x^3 the three-point second difference is exact: 6x
    y, d = 2.0, 1e-4
    d1, d2 = central_diff([(y + d) ** 3, (y - d) ** 3, y**3], d)
    assert d1 == pytest.approx(12.0, rel=1e-8)
    assert d2 == pytest.approx(12.0, rel=1e-6)



def _falling(calls):
    """``f(t, slope) = 1 - t / slope``, appending each call's size to
    ``calls``."""
    def f(t, slope):
        calls.append(t.size)
        return 1.0 - t / slope
    return f


def test_bisect_level_finds_each_rows_level():
    slope = np.array([1.0, 4.0, 1e6])
    level = np.array([0.25, 0.5, 0.9])
    root = bisect_level(_falling([]), slope, level, slope, 1e-12)
    assert_allclose(root, slope * (1.0 - level), rtol=1e-11)
    # a scalar level and parameter serve every row
    assert_allclose(bisect_level(_falling([]), [2.0, 8.0], 0.5, 8.0, 1e-12),
                    [2.0, 4.0], rtol=1e-11)


def test_bisect_level_rows_stop_on_their_own():
    # below 1 the test is absolute, so a narrower bracket meets it after
    # fewer halvings; each row leaves after its own, with exactly the
    # bits of a call on it alone
    hi = np.array([1.0, 2.0**-30, 2.0**-10])
    alone, halvings = [], []
    for i in range(hi.size):
        calls = []
        alone.append(bisect_level(_falling(calls), hi[i:i + 1], 0.3,
                                  hi[i:i + 1], 1e-10)[0])
        halvings.append(len(calls))
    assert halvings == [34, 4, 24]
    calls = []
    together = bisect_level(_falling(calls), hi, 0.3, hi, 1e-10)
    assert np.all(together == alone)
    assert calls == [3] * 4 + [2] * 20 + [1] * 10


def test_bisect_level_stops_at_the_halving_cap():
    # a negative tolerance is never met: 200 halvings, then the midpoint
    calls = []
    root = bisect_level(_falling(calls), [3.0], 0.5, 3.0, -1.0)
    assert len(calls) == 200
    assert_allclose(root, [1.5], rtol=1e-15)


def test_bisect_level_moves_the_upper_end_on_the_level():
    # where f equals the level the midpoint becomes the upper end, so the
    # bracket closes on the left end of the level set
    def step(t, param):
        return np.where(t < param, 1.0, 0.5)

    root = bisect_level(step, [8.0], 0.5, 2.0, 1e-12)[0]
    assert abs(root - 2.0) <= 1e-11


def test_bisect_level_without_rows():
    calls = []
    root = bisect_level(_falling(calls), np.empty(0), 0.5, 1.0, 1e-10)
    assert root.shape == (0,) and calls == []
