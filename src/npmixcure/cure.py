"""Mixture cure model estimators: incidence and latency.

The mixture cure model splits the population into a cured fraction that
never experiences the event and an uncured fraction with conditional
survival ``S0(t|x)``:

    ``S(t|x) = 1 - p(x) + p(x) * S0(t|x)``

with ``p(x)`` the conditional probability of being uncured.  Both pieces
are estimated here from the conditional product-limit curve alone, with
no parametric assumption on either.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateCureError
from .survival import CensoredSample, StepSurvivalCurve, beran

__all__ = [
    "CureFit",
    "incidence_estimate",
    "latency_estimate",
    "latency_estimate_two_bw",
]


@dataclass
class CureFit:
    """Incidence and latency estimates at one covariate value.

    ``incidence`` is the estimated probability of being cured,
    ``1 - p_hat(x)``.  ``latency`` is the estimated conditional survival
    of the uncured, a step curve starting at one.  ``h2`` is None for
    the one-bandwidth estimate and the incidence bandwidth otherwise.
    ``clamped`` records whether the latency values were clipped into
    [0, 1] and monotonized.
    """

    x: float
    h: float
    h2: float | None
    incidence: float
    latency: StepSurvivalCurve
    t_max_uncensored: float
    clamped: bool = False

    @property
    def p_uncured(self) -> float:
        return 1.0 - self.incidence


def incidence_estimate(
    sample: CensoredSample,
    x: float,
    h: float,
) -> float:
    """Estimated cure probability ``1 - p_hat(x)``.

    This is the conditional product-limit curve evaluated at the largest
    uncensored time, i.e. its final plateau.
    """
    t_top = sample.t_max_uncensored()
    return beran(sample, x, h).evaluate(t_top)


def _latency_values(values, cured, out=None):
    """The latency transform ``(S - cured) / (1 - cured)`` of survival
    ``values``, into ``out`` (a fresh array by default).

    ``cured`` is the incidence value ``1 - p_hat``, broadcast against
    ``values``; the transform sends the plateau at ``cured`` to zero and
    the origin to one.
    """
    out = np.subtract(values, cured, out=out)
    return np.divide(out, 1.0 - cured, out=out)


def _latency_from_curve(curve: StepSurvivalCurve, cured: float) -> StepSurvivalCurve:
    """Transform a conditional survival curve into a latency curve.

    ``cured`` is the incidence value ``1 - p_hat``; the values are those
    of :func:`_latency_values`.
    """
    if 1.0 - cured <= 0.0:
        raise DegenerateCureError(
            "degenerate fit: all estimated mass is cured (p_hat = 0)"
        )
    return StepSurvivalCurve(curve.jump_times.copy(),
                             _latency_values(curve.values, cured))


def _latency_ise(curves, plateaus, fitted, truth, tgrid, rows1, rows2):
    """Integrated squared errors of latency estimates built from rows.

    ``curves`` holds (K, T) conditional survival curves on ``tgrid``,
    ``plateaus`` their final levels and ``fitted`` whether each row had
    weight.  Estimate ``k`` transforms the curve of row ``rows1[k]``
    with the plateau of row ``rows2[k]`` by :func:`_latency_values`, in
    place, and its squared distance to ``truth`` is integrated over
    ``tgrid`` by the trapezoid rule.  An estimate whose curve row was
    not fitted, or whose ``1 - plateau`` is not positive, fails: its
    error is NaN.
    """
    cured = plateaus[rows2]
    ok = fitted[rows1] & (1.0 - cured > 0.0)
    values = curves[rows1[ok]]
    _latency_values(values, cured[ok, None], out=values)
    values -= truth
    values *= values
    ise = np.full(rows1.shape, np.nan)
    ise[ok] = np.trapezoid(values, tgrid)
    return ise


def _latency_fit(sample, x, h1, h2, clamp):
    """The latency estimate at ``x`` of both public estimators: the
    curve at ``h1``, the incidence read off it (``h2`` None) or off a
    second curve at ``h2``, and the result clamped on request."""
    t_top = sample.t_max_uncensored()
    curve = beran(sample, x, h1)
    cured = (curve if h2 is None else beran(sample, x, h2)).evaluate(t_top)
    latency = _latency_from_curve(curve, cured)
    if clamp:  # clip into [0, 1], then restore monotonicity by running minimum
        values = latency.values
        np.minimum.accumulate(np.clip(values, 0.0, 1.0, out=values), out=values)
    return CureFit(
        x=x, h=h1, h2=h2, incidence=cured, latency=latency,
        t_max_uncensored=t_top, clamped=clamp,
    )


def latency_estimate(
    sample: CensoredSample,
    x: float,
    h: float,
) -> CureFit:
    """One-bandwidth latency estimate at covariate value ``x``.

    The conditional survival curve and the incidence share the bandwidth
    ``h``, which makes the latency estimate a proper survival curve: it
    starts at one, is nonincreasing, and reaches exactly zero at the
    largest uncensored time.

    Raises
    ------
    NoUncensoredError
        If the sample has no uncensored observation.
    EmptyNeighborhoodError
        If every kernel weight vanishes at ``x``.
    DegenerateCureError
        If the estimated uncured probability is zero.
    """
    return _latency_fit(sample, x, h, None, False)


def latency_estimate_two_bw(
    sample: CensoredSample,
    x: float,
    h1: float,
    h2: float,
    clamp: bool = False,
) -> CureFit:
    """Two-bandwidth latency estimate at covariate value ``x``.

    ``h1`` drives the conditional survival curve in the numerator and
    ``h2`` the incidence.  With ``h1 == h2`` this reduces exactly to
    :func:`latency_estimate`.  With distinct bandwidths the raw estimate
    can leave [0, 1] (the numerator curve may drop below the ``h2``
    plateau), so no range guarantee is made; pass ``clamp=True`` to clip
    into [0, 1] and restore monotonicity by running minimum.
    """
    return _latency_fit(sample, x, h1, h2, clamp)
