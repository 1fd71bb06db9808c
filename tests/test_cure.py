"""Incidence and latency estimators for the mixture cure model."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmixcure import (
    CensoredSample,
    DegenerateCureError,
    EmptyNeighborhoodError,
    beran,
    incidence_estimate,
    latency_estimate,
    latency_estimate_two_bw,
)
from npmixcure.cure import _latency_from_curve, _latency_ise
from npmixcure.survival import _beran_rows

from helpers import (
    epanechnikov_reference,
    grid_columns,
    random_censored_sample,
)


def _three_point_sample():
    return CensoredSample(
        np.array([0.0, 0.0, 10.0]),
        np.array([1.0, 2.0, 5.0]),
        np.array([1, 1, 0]),
    )


class TestIncidence:
    def test_hand_computed_half(self):
        # x=0, h=1, both observations weighted 1/2; the event at t=1
        # drops the curve to 1/2 and the largest uncensored time is 1,
        # so the estimated cure probability is 1/2.
        s = CensoredSample(np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([1, 0]))
        assert incidence_estimate(s, 0.0, 1.0) == 0.5

    def test_matches_fit_field(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            xs, ts, deltas = random_censored_sample(rng, int(rng.integers(4, 30)))
            s = CensoredSample(xs, ts, deltas)
            x = float(rng.uniform(-1.5, 1.5))
            try:
                fit = latency_estimate(s, x, 2.0)
            except (EmptyNeighborhoodError, DegenerateCureError):
                continue
            assert incidence_estimate(s, x, 2.0) == fit.incidence


class TestLatencyOneBandwidth:
    def test_hand_computed_chain(self):
        # x=0, h=1: the far point gets zero weight, the two local
        # events give S(1)=1/2 and S(2)=0, so the cure estimate is 0
        # and the latency equals the survival curve itself.
        fit = latency_estimate(_three_point_sample(), 0.0, 1.0)
        assert fit.incidence == 0.0
        assert fit.p_uncured == 1.0
        assert fit.h2 is None
        assert fit.t_max_uncensored == 2.0
        assert fit.latency.evaluate(0.5) == 1.0
        assert fit.latency.evaluate(1.0) == 0.5
        assert fit.latency.evaluate(2.0) == 0.0

    def test_proper_survival_curve_on_random_samples(self):
        # shared bandwidth forces the latency into [0, 1], nonincreasing,
        # with exact zero at the largest uncensored time
        rng = np.random.default_rng(515)
        successes = 0
        while successes < 100:
            xs, ts, deltas = random_censored_sample(
                rng, int(rng.integers(5, 60)), tie_prob=0.3
            )
            x = float(rng.uniform(-1.5, 1.5))
            h = float(rng.uniform(0.5, 3.0))
            try:
                fit = latency_estimate(CensoredSample(xs, ts, deltas), x, h)
            except (EmptyNeighborhoodError, DegenerateCureError):
                continue
            values = fit.latency.values
            assert np.all(values >= -1e-12)
            assert np.all(values <= 1.0 + 1e-12)
            assert np.all(np.diff(values) <= 1e-12)
            assert fit.latency.evaluate(fit.t_max_uncensored) == 0.0
            assert fit.latency.evaluate(0.0) == 1.0
            successes += 1

    def test_degenerate_when_all_local_mass_censored(self):
        # at x=10 only the censored observation has weight, the curve
        # never leaves 1 and the uncured probability estimate is zero
        s = CensoredSample(
            np.array([0.0, 10.0]), np.array([1.0, 2.0]), np.array([1, 0])
        )
        with pytest.raises(DegenerateCureError):
            latency_estimate(s, 10.0, 1.0)


class TestLatencyTwoBandwidths:
    def test_hand_computed_raw_values_leave_unit_interval(self):
        # h1=1 gives the local curve S(1)=1/2, S(2)=0.  h2=100 spreads
        # weight onto the far censored point: weights are 100/299,
        # 100/299, 99/299 and the product-limit plateau is 99/299.
        # Latency = (S_h1 - 99/299) / (200/299):
        #   at t=1: (1/2 - 99/299) / (200/299) = 50.5/200 = 0.2525
        #   at t=2: (0 - 99/299) / (200/299) = -99/200 = -0.495
        fit = latency_estimate_two_bw(_three_point_sample(), 0.0, 1.0, 100.0)
        assert_allclose(fit.incidence, 99.0 / 299.0, rtol=0, atol=1e-15)
        assert_allclose(fit.latency.evaluate(1.0), 0.2525, rtol=0, atol=1e-15)
        assert_allclose(fit.latency.evaluate(2.0), -0.495, rtol=0, atol=1e-15)
        assert fit.h == 1.0
        assert fit.h2 == 100.0
        assert not fit.clamped

    def test_clamp_clips_and_monotonizes(self):
        fit = latency_estimate_two_bw(
            _three_point_sample(), 0.0, 1.0, 100.0, clamp=True
        )
        assert fit.clamped
        assert fit.latency.evaluate(2.0) == 0.0
        values = fit.latency.values
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)
        assert np.all(np.diff(values) <= 0.0)
        # the value already inside [0, 1] is untouched
        assert_allclose(fit.latency.evaluate(1.0), 0.2525, rtol=0, atol=1e-15)

    def test_equal_bandwidths_reduce_to_one_bandwidth_exactly(self):
        rng = np.random.default_rng(9090)
        checked = 0
        while checked < 50:
            xs, ts, deltas = random_censored_sample(
                rng, int(rng.integers(4, 40)), tie_prob=0.4
            )
            s = CensoredSample(xs, ts, deltas)
            x = float(rng.uniform(-1.5, 1.5))
            h = float(rng.uniform(0.5, 3.0))
            try:
                one = latency_estimate(s, x, h)
                two = latency_estimate_two_bw(s, x, h, h)
            except (EmptyNeighborhoodError, DegenerateCureError):
                continue
            assert two.incidence == one.incidence
            assert np.array_equal(two.latency.jump_times, one.latency.jump_times)
            assert np.array_equal(two.latency.values, one.latency.values)
            checked += 1

    def test_degenerate_when_wide_bandwidth_sees_no_cure_mass(self):
        # a sample whose product-limit curve reaches zero forces
        # p_hat = 1 regardless of h2; flipping it around, a curve stuck
        # at 1 forces p_hat = 0 and must raise
        s = CensoredSample(
            np.array([0.0, 10.0]), np.array([1.0, 2.0]), np.array([1, 0])
        )
        with pytest.raises(DegenerateCureError):
            latency_estimate_two_bw(s, 10.0, 1.0, 1.0)


class TestLatencyIse:
    """The one scoring step of the bootstrap and Monte Carlo MISE."""

    # (x, h) kernel rows: only censored subjects near x=9 (p_hat = 0), no
    # subject near x=6.5 (no weight), and two proper fits
    XS = np.array([9.0, 6.5, 5.0, 3.5])
    HS = np.array([0.6, 0.1, 10.0, 1.0])

    @staticmethod
    def _sample(delta):
        return CensoredSample(
            np.array([3.0, 3.5, 4.0, 3.2, 8.6, 9.0, 9.4]),
            np.array([1.0, 2.0, 3.0, 2.0, 1.5, 4.0, 6.0]),
            np.array(delta),
        )

    def _scores(self, sample, truth, tgrid):
        ordered = sample.sort_by_time()
        raw = epanechnikov_reference(
            (self.XS[:, None] - ordered.x) / self.HS[:, None])
        curves, plateaus, fitted = _beran_rows(
            ordered.delta, raw, grid_columns(ordered.t, tgrid))
        rows1, rows2 = (r.ravel() for r in np.meshgrid(
            np.arange(4), np.arange(4), indexing="ij"))
        ise = _latency_ise(curves, plateaus, fitted, truth, tgrid,
                           rows1, rows2)
        return ise.reshape(4, 4)

    def test_equals_latency_curve_then_trapezoid(self):
        sample = self._sample([1, 1, 1, 0, 0, 0, 0])
        tgrid = np.linspace(0.0, 6.0, 25)
        truth = np.exp(-tgrid)
        t_top = sample.t_max_uncensored()
        expected = np.full((4, 4), np.nan)
        for k1, k2 in np.ndindex(4, 4):
            try:
                curve = beran(sample, self.XS[k1], self.HS[k1])
                cured = beran(sample, self.XS[k2], self.HS[k2]).evaluate(t_top)
                latency = _latency_from_curve(curve, cured)
            except (EmptyNeighborhoodError, DegenerateCureError):
                continue
            diff = latency.evaluate(tgrid) - truth
            expected[k1, k2] = np.trapezoid(diff * diff, tgrid)
        ise = self._scores(sample, truth, tgrid)
        assert np.array_equal(ise, expected, equal_nan=True)
        # a curve row without weight fails against a proper incidence row,
        # and every p_hat = 0 incidence row fails
        assert np.isnan(ise[1, 2]) and np.isnan(ise[:, 0]).all()
        assert np.isfinite(ise[2:, 2:]).all()

    def test_eventless_sample_fails_everywhere(self):
        sample = self._sample([0] * 7)
        tgrid = np.linspace(0.0, 6.0, 25)
        assert np.isnan(self._scores(sample, np.exp(-tgrid), tgrid)).all()
