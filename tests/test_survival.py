"""Product-limit estimators: Kaplan-Meier and the conditional version."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmixcure import (
    CensoredSample,
    EPANECHNIKOV,
    EmptyNeighborhoodError,
    NoUncensoredError,
    StepSurvivalCurve,
    beran,
    kaplan_meier,
    nw_weights,
)
from npmixcure.survival import _beran_rows, _product_limit

from helpers import beran_brute, km_grouped, random_censored_sample


class TestCensoredSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            CensoredSample(np.array([0.0]), np.array([1.0, 2.0]), np.array([1, 1]))
        with pytest.raises(ValueError):
            CensoredSample(np.array([0.0]), np.array([-1.0]), np.array([1]))
        with pytest.raises(ValueError):
            CensoredSample(np.array([0.0]), np.array([1.0]), np.array([2]))
        with pytest.raises(ValueError):
            CensoredSample(np.array([]), np.array([]), np.array([]))

    def test_t_max_uncensored(self):
        s = CensoredSample(np.zeros(3), np.array([1.0, 5.0, 2.0]), np.array([1, 0, 1]))
        assert s.t_max_uncensored() == 2.0
        censored = CensoredSample(np.zeros(2), np.ones(2), np.zeros(2, dtype=int))
        with pytest.raises(NoUncensoredError):
            censored.t_max_uncensored()

    def test_sort_events_first_within_ties(self):
        s = CensoredSample(
            np.array([1.0, 2.0, 3.0, 4.0]),
            np.array([2.0, 1.0, 1.0, 1.0]),
            np.array([0, 0, 1, 0]),
        )
        out = s.sort_by_time()
        assert_allclose(out.t, [1.0, 1.0, 1.0, 2.0])
        # the tied uncensored observation (x=3) comes before censored ones
        assert out.delta[0] == 1
        assert out.x[0] == 3.0


class TestStepSurvivalCurve:
    def test_right_continuous_evaluation(self):
        c = StepSurvivalCurve(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        assert c.evaluate(0.999) == 1.0
        assert c.evaluate(1.0) == 0.5
        assert c.evaluate(1.5) == 0.5
        assert c.evaluate(2.0) == 0.25
        assert c.evaluate(99.0) == 0.25
        assert_allclose(
            c.evaluate(np.array([0.0, 1.0, 3.0])), [1.0, 0.5, 0.25]
        )
        assert_allclose(
            c.evaluate(np.array([0.0, 2.5])), [1.0, 0.25]
        )

    def test_empty_curve_is_constant(self):
        c = StepSurvivalCurve(np.array([]), np.array([]))
        assert c.evaluate(0.0) == 1.0
        assert c.evaluate(1e9) == 1.0

    def test_jump_masses(self):
        c = StepSurvivalCurve(np.array([1.0, 2.0]), np.array([0.6, 0.1]))
        assert_allclose(c.jump_masses(), [0.4, 0.5])

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError):
            StepSurvivalCurve(np.array([1.0, 1.0]), np.array([0.5, 0.25]))


class TestKaplanMeier:
    def test_classic_six_subject_chain(self):
        # t = 1, 2, 3, 4, 5, 6 with delta = 1, 0, 1, 0, 1, 1:
        # S(1) = 5/6
        # S(3) = 5/6 * 3/4 = 5/8
        # S(5) = 5/8 * 1/2 = 5/16
        # S(6) = 0
        s = CensoredSample(
            np.zeros(6),
            np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            np.array([1, 0, 1, 0, 1, 1]),
        )
        curve = kaplan_meier(s)
        assert_allclose(curve.jump_times, [1.0, 3.0, 5.0, 6.0])
        assert_allclose(
            curve.values, [5.0 / 6.0, 5.0 / 8.0, 5.0 / 16.0, 0.0], atol=1e-15
        )

    def test_tied_times_events_first(self):
        # t = 1, 1, 2, 2, 2, 3 with delta = 1, 0, 1, 1, 0, 1:
        # at t=1 the censored subject is still at risk: S(1) = 5/6;
        # at t=2 two events among four at risk: S(2) = 5/6 * 1/2 = 5/12;
        # at t=3: S(3) = 0.
        s = CensoredSample(
            np.zeros(6),
            np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0]),
            np.array([1, 0, 1, 1, 0, 1]),
        )
        curve = kaplan_meier(s)
        assert_allclose(curve.jump_times, [1.0, 2.0, 3.0])
        assert_allclose(curve.values, [5.0 / 6.0, 5.0 / 12.0, 0.0], atol=1e-15)

    def test_no_events_gives_flat_curve(self):
        s = CensoredSample(np.zeros(3), np.array([1.0, 2.0, 3.0]), np.zeros(3, int))
        curve = kaplan_meier(s)
        assert curve.jump_times.size == 0
        assert curve.evaluate(10.0) == 1.0

    def test_matches_grouped_formula_on_random_samples(self):
        rng = np.random.default_rng(404)
        for trial in range(300):
            xs, ts, deltas = random_censored_sample(
                rng, int(rng.integers(3, 50)), tie_prob=0.5 * (trial % 2)
            )
            curve = kaplan_meier(CensoredSample(xs, ts, deltas))
            ref_times, ref_values = km_grouped(ts, deltas)
            assert_allclose(curve.jump_times, ref_times)
            assert_allclose(curve.values, ref_values, atol=1e-12)

    def test_censoring_distribution_via_event_flags(self):
        # flipping the event indicator estimates the censoring survival
        xs = np.zeros(4)
        ts = np.array([1.0, 2.0, 3.0, 4.0])
        deltas = np.array([1, 0, 1, 0])
        curve = kaplan_meier(
            CensoredSample(xs, ts, deltas), event_flags=1 - deltas
        )
        ref_times, ref_values = km_grouped(ts, 1 - deltas)
        assert_allclose(curve.jump_times, ref_times)
        assert_allclose(curve.values, ref_values, atol=1e-15)


class TestBeran:
    def test_hand_computed_three_points(self):
        # x=0, h=1: only the two observations at x=0 get weight (1/2
        # each).  Events at t=1 and t=2:
        # S(1) = 1 - 0.5 = 0.5, S(2) = 0.5 * (1 - 0.5/0.5) = 0.
        s = CensoredSample(
            np.array([0.0, 0.0, 10.0]),
            np.array([1.0, 2.0, 5.0]),
            np.array([1, 1, 0]),
        )
        curve = beran(s, 0.0, 1.0)
        assert_allclose(curve.jump_times, [1.0, 2.0])
        assert_allclose(curve.values, [0.5, 0.0], atol=1e-15)

    def test_identical_covariates_reduce_to_kaplan_meier(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(3, 40))
            _, ts, deltas = random_censored_sample(rng, n)
            s = CensoredSample(np.full(n, 3.0), ts, deltas)
            conditional = beran(s, 3.0, 0.5)
            unconditional = kaplan_meier(s)
            assert_allclose(conditional.jump_times, unconditional.jump_times)
            assert_allclose(conditional.values, unconditional.values, atol=1e-12)

    def test_matches_brute_force_products_on_small_samples(self):
        kernel_density = EPANECHNIKOV.density
        rng = np.random.default_rng(2718)
        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 6))
            xs, ts, deltas = random_censored_sample(
                rng, n, tie_prob=0.5 * (checked % 2)
            )
            x = float(rng.uniform(-2.5, 2.5))
            h = float(rng.uniform(0.5, 4.0))
            try:
                curve = beran(CensoredSample(xs, ts, deltas), x, h)
            except EmptyNeighborhoodError:
                continue
            ref_times, ref_values = beran_brute(
                xs, ts, deltas, x, h, kernel_density
            )
            assert_allclose(
                curve.evaluate(ref_times), ref_values, atol=1e-12
            )
            checked += 1

    def test_empty_neighborhood_raises(self):
        s = CensoredSample(np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([1, 1]))
        with pytest.raises(EmptyNeighborhoodError):
            beran(s, 50.0, 1.0)

    def test_censored_beyond_neighborhood_keeps_curve_flat(self):
        # the far-away censored point carries zero weight, so the curve
        # at x=0 ends at the local events' level
        s = CensoredSample(
            np.array([0.0, 0.0, 30.0]),
            np.array([1.0, 2.0, 9.0]),
            np.array([1, 0, 0]),
        )
        curve = beran(s, 0.0, 1.0)
        assert_allclose(curve.jump_times, [1.0])
        assert_allclose(curve.values, [0.5])
        assert curve.evaluate(9.5) == 0.5


class TestBatchedProductLimit:
    """One (K, n) weight matrix gives K curves over a shared time order."""

    def _tied_sample(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        # four distinct times for 80 records: heavy ties, events and
        # censorings mixed within each, the last time included
        ts = rng.integers(1, 5, n).astype(float)
        deltas = (rng.random(n) < 0.6).astype(int)
        return CensoredSample(rng.uniform(-2.0, 2.0, n), ts, deltas)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_beran_with_ties_and_fortran_order(self, seed):
        sample = self._tied_sample(seed)
        ordered = sample.sort_by_time()
        x = float(sample.x[0])
        hs = np.array([0.05, 0.3, 1.0, 2.5, 40.0])
        weights = np.asfortranarray(nw_weights(EPANECHNIKOV, x, ordered.x, hs))
        assert not weights.flags.c_contiguous
        times, values = _product_limit(ordered.t, ordered.delta, weights)
        tgrid = np.linspace(0.0, 5.0, 23)
        raw = np.asfortranarray(EPANECHNIKOV.density((x - ordered.x) / hs[:, None]))
        on_grid, final, fitted = _beran_rows(
            ordered.t, ordered.delta, raw, tgrid)
        assert fitted.all()
        for k, h in enumerate(hs):
            curve = beran(sample, x, h)
            assert np.array_equal(times, curve.jump_times)
            assert np.array_equal(values[k], curve.values)
            assert np.array_equal(on_grid[k], curve.evaluate(tgrid))
            assert final[k] == curve.evaluate(sample.t_max_uncensored())

    def test_rows_without_weight_are_not_fitted(self):
        sample = self._tied_sample(3)
        ordered = sample.sort_by_time()
        hs = np.array([0.5, 1e-3, 3.0])
        raw = EPANECHNIKOV.density((10.0 - ordered.x) / hs[:, None])
        raw[0] = EPANECHNIKOV.density((0.0 - ordered.x) / hs[0])
        on_grid, final, fitted = _beran_rows(
            ordered.t, ordered.delta, raw, np.array([0.0, 2.0]))
        assert fitted.tolist() == [True, False, False]
        assert on_grid.shape == (1, 2) and final.shape == (1,)
        assert np.array_equal(on_grid[0], beran(sample, 0.0, 0.5).evaluate(
            np.array([0.0, 2.0])))

    def test_weight_rows_equal_single_point_weights(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-3.0, 3.0, 300)
        points = np.array([-1.0, 0.0, 2.5])
        hs = np.array([0.4, 1.0, 3.0])
        rows = nw_weights(EPANECHNIKOV, points, xs, hs)
        assert rows.flags.c_contiguous
        for row, x, h in zip(rows, points, hs):
            assert np.array_equal(row, nw_weights(EPANECHNIKOV, x, xs, h))

    def test_batch_names_first_empty_pair(self):
        xs = np.array([0.0, 1.0])
        with pytest.raises(EmptyNeighborhoodError,
                           match=r"bandwidth 0\.5 of x=9\.0$"):
            nw_weights(EPANECHNIKOV, np.array([0.0, 9.0, 20.0]), xs, 0.5)
