"""The Epanechnikov kernel and Nadaraya-Watson weights.

The kernel is the density ``0.75 (1 - u^2)`` on (-1, 1); its second
moment and square integral are the constants ``d_K`` and ``c_K`` of the
asymptotic bias and variance.
"""
from __future__ import annotations

import numpy as np

from .exceptions import EmptyNeighborhoodError

__all__ = [
    "SECOND_MOMENT",
    "SQUARE_INTEGRAL",
    "nw_weights",
]

# int v^2 * 0.75(1-v^2) dv = 0.2 ; int (0.75(1-v^2))^2 dv = 0.6 on (-1, 1)
SECOND_MOMENT = 0.2
SQUARE_INTEGRAL = 0.6


def _kernel_rows(points, xs, hs):
    """Kernel values ``0.75 (1 - u^2)``, zero outside (-1, 1), of
    ``u = (points - xs) / hs`` at ``xs``, one row per pair of a point and
    a bandwidth, each ufunc in place in one buffer of the full shape."""
    raw = np.empty(np.broadcast_shapes(points.shape + (1,), xs.shape,
                                       hs.shape + (1,)))
    np.subtract(points[..., None], xs, out=raw)
    np.divide(raw, hs[..., None], out=raw)
    np.multiply(raw, raw, out=raw)
    np.subtract(1.0, raw, out=raw)
    np.maximum(0.0, raw, out=raw)
    return np.multiply(0.75, raw, out=raw)


def nw_weights(x, xs: np.ndarray, h) -> np.ndarray:
    """Nadaraya-Watson weights of a sample of covariates at a point.

    Parameters
    ----------
    x : float or array_like
        Evaluation point, or K evaluation points; each must be finite.
    xs : array_like
        Observed covariates, nonempty and finite.
    h : float or array_like
        Bandwidth, or K bandwidths; each must be positive.

    Returns
    -------
    numpy.ndarray
        Weights summing to one.  With scalar ``x`` and ``h`` a 1-d array
        over ``xs``; otherwise ``x`` and ``h`` broadcast to K pairs and
        the result is a C-contiguous (K, n) matrix, one row per pair.

    Raises
    ------
    EmptyNeighborhoodError
        If no observation falls within bandwidth distance of an
        evaluation point; the message names the first such pair.
    """
    hs = np.asarray(h, dtype=float)
    if not (np.isfinite(hs) & (hs > 0.0)).all():
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("xs must be nonempty")
    points = np.asarray(x, dtype=float)
    if not (np.isfinite(points).all() and np.isfinite(xs).all()):
        raise ValueError("x and xs must be finite")
    raw = _kernel_rows(points, xs, hs)
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
    return np.divide(raw, total, out=raw)
