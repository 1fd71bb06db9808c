"""Kernel functions and Nadaraya-Watson weights.

Kernels are compactly supported probability densities on (-1, 1).  The
Epanechnikov kernel is the default everywhere in the package; other
symmetric densities can be plugged in through the :class:`Kernel`
container as long as they integrate to one on their support.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import EmptyNeighborhoodError

__all__ = [
    "Kernel",
    "EPANECHNIKOV",
    "nw_weights",
]


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return 0.75 * np.maximum(0.0, 1.0 - u * u)


@dataclass(frozen=True)
class Kernel:
    """A compactly supported kernel density.

    Parameters
    ----------
    name : str
        Identifier used in metadata files.
    density : callable
        Vectorized density, zero outside (-1, 1).
    second_moment : float
        ``int v^2 K(v) dv``, the kernel constant driving squared bias.
    square_integral : float
        ``int K(v)^2 dv``, the kernel constant driving variance.
    """

    name: str
    density: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    second_moment: float
    square_integral: float


# int v^2 * 0.75(1-v^2) dv = 0.2 ; int (0.75(1-v^2))^2 dv = 0.6 on (-1, 1)
EPANECHNIKOV = Kernel("epanechnikov", _epanechnikov, 0.2, 0.6)


def nw_weights(kernel: Kernel, x, xs: np.ndarray, h) -> np.ndarray:
    """Nadaraya-Watson weights of a sample of covariates at a point.

    Parameters
    ----------
    kernel : Kernel
    x : float or array_like
        Evaluation point, or K evaluation points.
    xs : array_like
        Observed covariates, nonempty.
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
    raw = kernel.density((points[..., None] - xs) / hs[..., None])
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
