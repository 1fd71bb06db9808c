"""Kernel functions and Nadaraya-Watson weights.

Kernels are compactly supported probability densities on (-1, 1).  The
Epanechnikov kernel is the default everywhere in the package; other
symmetric densities can be plugged in through the :class:`Kernel`
container as long as they integrate to one on their support.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Kernel",
    "EPANECHNIKOV",
    "WeightVector",
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


class WeightVector(NamedTuple):
    """Nadaraya-Watson weights at one evaluation point.

    ``empty`` is True when every kernel weight vanished, in which case
    ``weights`` is the all-zero vector.  Callers decide whether an empty
    neighborhood is fatal.
    """

    weights: np.ndarray
    empty: bool


def nw_weights(kernel: Kernel, x: float, xs: np.ndarray, h: float) -> WeightVector:
    """Nadaraya-Watson weights of a sample of covariates at a point.

    Parameters
    ----------
    kernel : Kernel
    x : float
        Evaluation point.
    xs : array_like
        Observed covariates, nonempty.
    h : float
        Bandwidth, must be positive.

    Returns
    -------
    WeightVector
        Weights summing to one, or the all-zero vector with the
        ``empty`` flag set when no observation falls within bandwidth
        distance of ``x``.
    """
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("xs must be nonempty")
    raw = kernel.density((x - xs) / h)
    total = raw.sum()
    if total <= 0.0:
        return WeightVector(np.zeros_like(raw), True)
    return WeightVector(raw / total, False)
