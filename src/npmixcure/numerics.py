"""Small numerical routines: quadrature and finite differences.

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
    f: Callable[..., np.ndarray],
    a,
    b,
    tol: float = 1e-8,
    max_depth: int = 24,
    args: tuple = (),
):
    """Adaptive Simpson quadrature on ``[a, b]``, breadth first.

    ``f`` maps an array of points to an array of values.  ``a`` and
    ``b`` may be 1-d arrays (broadcast against each other) of
    independent intervals, the roots; the result then holds one
    integral per root, and ``f(v, *(arg[root] for arg in args))`` is
    called with each point's root's entry of every array in ``args``,
    for integrands that differ between roots.  Scalar limits give a
    float.  An empty interval (``b <= a``) integrates to 0.0.

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
    if a.ndim != 1:
        raise ValueError("integration limits must be scalars or 1-d arrays")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("integration limits must be finite")
    args = tuple(np.asarray(arg) for arg in args)

    def evaluate(points, root):
        values = f(points, *(arg[root] for arg in args))
        return np.broadcast_to(np.asarray(values, dtype=float), points.shape)

    result = np.zeros(a.shape)
    active = root = np.flatnonzero(b > a)
    if not active.size:
        return 0.0 if scalar else result
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
    return float(result[0]) if scalar else result


def composite_simpson(f: Callable[[np.ndarray], np.ndarray], a: float,
                      b: float, panels: int = 64):
    """Composite Simpson rule with a fixed even number of panels.

    Suited to integrands that are themselves quadrature results, where
    adaptive refinement would chase evaluation noise.  ``f`` is called
    once, on the whole grid; when it returns several rows (grid along
    the last axis), each row is integrated and an array comes back.
    """
    if b <= a:
        return 0.0
    if panels % 2:
        panels += 1
    grid = np.linspace(a, b, panels + 1)
    fx = np.asarray(f(grid), dtype=float)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    total = (b - a) / (3.0 * panels) * (weights * fx).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def central_diff(f: Callable[[float], float], y: float, step: float):
    """First and second central difference of ``f`` at ``y``.

    Returns ``(d1, d2)`` using the three-point stencils
    ``(f(y+d) - f(y-d)) / (2d)`` and
    ``(f(y+d) - 2 f(y) + f(y-d)) / d^2``.  ``f`` may return arrays.
    """
    f_plus = f(y + step)
    f_minus = f(y - step)
    f_mid = f(y)
    d1 = (f_plus - f_minus) / (2.0 * step)
    d2 = (f_plus - 2.0 * f_mid + f_minus) / (step * step)
    return d1, d2
