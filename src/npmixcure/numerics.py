"""Small numerical routines: quadrature, finite differences and bisection.

Deterministic by construction; every routine visits points in a fixed
order so repeated calls give bit-identical results.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "adaptive_simpson",
    "composite_simpson",
    "central_diff",
    "bisect_level",
]


def _simpson(fa, fm, fb, width):
    return width * (fa + 4.0 * fm + fb) / 6.0


def _pairs(first, second):
    """``[first[0], second[0], first[1], second[1], ...]``."""
    out = np.empty(2 * first.size)
    out[0::2] = first
    out[1::2] = second
    return out


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    tol: float = 1e-8,
    max_depth: int = 24,
):
    """Adaptive Simpson quadrature on ``[a, b]``, breadth first.

    ``f`` maps an array of points to an array of values.  ``a`` and
    ``b`` may be 1-d or (C, K) arrays (broadcast against each other) of
    independent intervals, the roots; the result then holds one
    integral per root, in their shape.  Where ``f`` returns a (C, P)
    array, a root in limit row ``c`` reads row ``c``: C integrands
    evaluated together; a 1-d return serves every root.  Scalar limits
    give a float.  An empty interval (``b <= a``) integrates to 0.0 and
    is never evaluated.

    A node is subdivided until its Simpson discrepancy ``delta`` is
    within ``15 tol`` (``tol`` halving with each level) or the depth
    cap is hit, whichever comes first; the cap keeps the cost bounded
    when the integrand carries small evaluation noise.  Each level
    calls ``f`` once, on the quarter-points of every active node of
    every root.  A leaf returns ``left + right + delta / 15`` and a
    parent the sum of its left and right child, so every floating-point
    operation is the one a depth-first recursion would make, and the
    result is bit-identical to it.  Memory grows with the number of
    nodes of the widest level.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                               np.atleast_1d(np.asarray(b, dtype=float)))
    if a.ndim > 2:
        raise ValueError("integration limits must have at most 2 dimensions")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("integration limits must be finite")
    shape, a, b = a.shape, a.ravel(), b.ravel()

    def evaluate(points, root):
        values = np.asarray(f(points), dtype=float)
        if values.ndim == 2:
            values = values[row[root], np.arange(points.size)]
        return np.broadcast_to(values, points.shape)

    result = np.zeros(a.size)
    active = root = np.flatnonzero(b > a)
    if not active.size:
        return 0.0 if scalar else result.reshape(shape)
    row = np.repeat(np.arange(a.size // shape[-1]), shape[-1])  # of each root
    a, b = a[root], b[root]
    k = root.size
    ends = evaluate(np.concatenate([a, 0.5 * (a + b), b]), np.tile(root, 3))
    fa, fm, fb = ends[:k], ends[k:2 * k], ends[2 * k:]
    whole = _simpson(fa, fm, fb, b - a)

    levels = []  # per level: node values and leaf mask
    depth = max_depth
    while a.size:
        k = a.size
        m = 0.5 * (a + b)
        quarter = evaluate(np.concatenate([0.5 * (a + m), 0.5 * (m + b)]),
                           np.concatenate([root, root]))
        flm, frm = quarter[:k], quarter[k:]
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        leaf = (np.abs(delta) <= 15.0 * tol) | (depth <= 0)
        # Richardson: S2 + delta/15 has one order higher accuracy; the
        # split nodes' entries are replaced by their children's sum
        levels.append((left + right + delta / 15.0, leaf))
        split = ~leaf
        a, m, b = a[split], m[split], b[split]
        fa, flm, fm, frm, fb = (fa[split], flm[split], fm[split],
                                frm[split], fb[split])
        a, b = _pairs(a, m), _pairs(m, b)
        fa, fm, fb = _pairs(fa, fm), _pairs(flm, frm), _pairs(fm, fb)
        whole = _pairs(left[split], right[split])
        root = np.repeat(root[split], 2)
        tol = 0.5 * tol
        depth -= 1

    # sum bottom up: a split node is its left child plus its right child
    below = None
    for value, leaf in reversed(levels):
        if below is not None:
            value[~leaf] = below[0::2] + below[1::2]
        below = value
    result[active] = below
    return float(result[0]) if scalar else result.reshape(shape)


_PANELS = 64  # of the composite Simpson rule; even


def composite_simpson(f: Callable[[np.ndarray], np.ndarray], a: float,
                      b: float):
    """Composite Simpson rule on ``_PANELS`` equal panels.

    Suited to integrands that are themselves quadrature results, where
    adaptive refinement would chase evaluation noise.  ``f`` is called
    once, on the whole grid; when it returns several rows (grid along
    the last axis), each row is integrated and an array comes back.
    An empty interval (``b <= a``) integrates to 0.0 and is never
    evaluated.
    """
    if b <= a:
        return 0.0
    grid = np.linspace(a, b, _PANELS + 1)
    fx = np.asarray(f(grid), dtype=float)
    weights = np.ones(_PANELS + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    total = (b - a) / (3.0 * _PANELS) * (weights * fx).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def central_diff(values, step):
    """Central differences ``(d1, d2)`` of stencil values: ``values``
    stacks ``f(y+d)``, ``f(y-d)``, ``f(y)`` (each may be an array) along
    its first axis, ``d = step``, and ``d1 = (f(y+d) - f(y-d)) / (2d)``,
    ``d2 = (f(y+d) - 2 f(y) + f(y-d)) / d^2``."""
    f_plus, f_minus, f_mid = values
    d1 = (f_plus - f_minus) / (2.0 * step)
    d2 = (f_plus - 2.0 * f_mid + f_minus) / (step * step)
    return d1, d2


def bisect_level(f, hi, level, param, rtol):
    """Where each decreasing ``f(., param[i])`` falls to ``level[i]``.

    Row ``i`` of the 1-d ``hi`` bisects ``[0, hi[i]]``: the midpoint
    replaces the lower end where ``f(mid, param) > level`` and the upper
    end elsewhere.  ``level`` and ``param`` broadcast to ``hi``'s shape,
    and ``f`` maps arrays of points and parameters to values element by
    element.  A row leaves after the first halving at which ``hi - lo
    <= rtol * max(hi, 1)``, or after 200, and returns its bracket's
    midpoint, so each value equals that of a call on its row alone, bit
    for bit.
    """
    hi = np.asarray(hi, dtype=float)
    level, param = (np.broadcast_to(a, hi.shape) for a in (level, param))
    lo = np.zeros_like(hi)
    out = np.empty_like(hi)
    rows = np.arange(hi.size)
    for _ in range(200):
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        too_high = f(mid, param) > level
        lo = np.where(too_high, mid, lo)
        hi = np.where(too_high, hi, mid)
        done = hi - lo <= rtol * np.maximum(hi, 1.0)
        if done.any():
            out[rows[done]] = 0.5 * (lo[done] + hi[done])
            rows, level, param, lo, hi = (
                a[~done] for a in (rows, level, param, lo, hi))
    out[rows] = 0.5 * (lo + hi)
    return out
