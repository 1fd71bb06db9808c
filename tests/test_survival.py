"""Product-limit estimators: Kaplan-Meier and the conditional version."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from npmixcure import (
    CensoredSample,
    EmptyNeighborhoodError,
    NoUncensoredError,
    StepSurvivalCurve,
    beran,
    kaplan_meier,
    nw_weights,
)
from npmixcure.survival import _at_event_times, _beran_rows, _product_limit

from helpers import (
    beran_brute,
    beran_rows_reference,
    epanechnikov_reference,
    grid_columns,
    km_grouped,
    product_limit_reference,
    random_censored_sample,
)


class TestCensoredSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            CensoredSample(np.array([0.0]), np.array([1.0, 2.0]), np.array([1, 1]))
        with pytest.raises(ValueError):
            CensoredSample(np.array([0.0]), np.array([-1.0]), np.array([1]))
        with pytest.raises(ValueError):
            CensoredSample(np.array([0.0]), np.array([1.0]), np.array([2]))
        # checked before the int64 cast, which would read 0.7 as 0
        with pytest.raises(ValueError, match="only 0 and 1"):
            CensoredSample(np.zeros(3), np.ones(3), np.array([0.7, 1.9, 1.0]))
        with pytest.raises(ValueError):
            CensoredSample(np.array([]), np.array([]), np.array([]))
        with pytest.raises(ValueError, match="covariates must be finite"):
            CensoredSample(np.array([0.0, np.nan]), np.ones(2), np.ones(2))

    def test_flags_stored_as_int64(self):
        for flags in ([0.0, 1.0, 1.0], [False, True, True]):
            s = CensoredSample(np.zeros(3), np.ones(3), np.array(flags))
            assert s.delta.dtype == np.int64 and s.delta.tolist() == [0, 1, 1]

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
        # NaN sorts after every jump, where the last value sits
        assert np.isnan(c.evaluate(np.nan))
        assert_allclose(c.evaluate(np.array([np.nan, np.inf])), [np.nan, 0.25])

    def test_empty_curve_is_constant(self):
        c = StepSurvivalCurve(np.array([]), np.array([]))
        assert c.evaluate(0.0) == 1.0
        assert c.evaluate(1e9) == 1.0

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            StepSurvivalCurve(np.array([1.0, 1.0]), np.array([0.5, 0.25]))

    def test_infinite_jump_time_rejected(self):
        with pytest.raises(ValueError, match="jump times must be finite"):
            StepSurvivalCurve(np.array([1.0, np.inf]), np.array([0.5, 0.25]))

    def test_unequal_shapes_rejected(self):
        for times, values in (([1.0, 2.0], [0.5]), ([[1.0]], [[0.5]])):
            with pytest.raises(ValueError, match="1-d with equal length"):
                StepSurvivalCurve(np.array(times), np.array(values))


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

    @pytest.mark.parametrize("flags, message", [
        ([1, 0, 1], "identical shapes"),
        ([1, 0, 2, 0], "only 0 and 1"),
        ([1.5, 0.2, 1.0, 0.0], "only 0 and 1"),
    ], ids=["wrong-length", "flag-of-2", "fractional-flags"])
    def test_bad_event_flags_rejected(self, flags, message):
        sample = CensoredSample(np.zeros(4), np.arange(1.0, 5.0),
                                np.array([1, 0, 1, 0]))
        with pytest.raises(ValueError, match=message):
            kaplan_meier(sample, event_flags=np.array(flags))


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
                xs, ts, deltas, x, h, epanechnikov_reference
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


@st.composite
def _weight_stacks(draw):
    """Per-sample event flags, shape (2, 1, n), and (2, K, n) weight rows
    that sum to one or are all zero, with zeros anywhere in a row."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 25))
    raw = draw(arrays(np.float64, (2, k, n),
                      elements=st.sampled_from([0.0, 1.0])
                      | st.floats(1e-3, 10.0)))
    total = raw.sum(axis=-1, keepdims=True)
    flags = draw(arrays(np.int64, (2, 1, n), elements=st.integers(0, 1)))
    return flags, raw / np.where(total > 0.0, total, 1.0)


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
        weights = np.asfortranarray(nw_weights(x, ordered.x, hs))
        assert not weights.flags.c_contiguous
        tgrid = np.linspace(0.0, 5.0, 23)
        raw = np.asfortranarray(
            epanechnikov_reference((x - ordered.x) / hs[:, None]))
        on_grid, final, fitted = _beran_rows(
            ordered.delta, raw, grid_columns(ordered.t, tgrid))
        assert fitted.all()
        for k, h in enumerate(hs):
            curve = beran(sample, x, h)
            # a row of a Fortran-order matrix is a strided 1-d array
            times, values = _at_event_times(ordered.t, ordered.delta,
                                            weights[k])
            assert np.array_equal(times, curve.jump_times)
            assert np.array_equal(values, curve.values)
            assert np.array_equal(on_grid[k], curve.evaluate(tgrid))
            assert final[k] == curve.evaluate(sample.t_max_uncensored())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_the_remaining_weight_test(self, seed):
        # a positive weight always has a positive remaining weight, so
        # the earlier test of both changes no bit: kernel rows with zeros
        # inside and past their last weight, an all-zero row, tied times,
        # every column or the event columns alone, one shared order or a
        # stack of samples each with its own flags
        sample = self._tied_sample(seed)
        ordered = sample.sort_by_time()
        hs = np.array([0.05, 0.3, 2.5, 40.0])
        raw = epanechnikov_reference(
            (float(sample.x[0]) - ordered.x) / hs[:, None])
        raw[:, -1] = 0.0
        raw = np.vstack([raw, np.zeros(sample.n)])
        total = raw.sum(axis=1)
        weights = raw / np.where(total > 0.0, total, 1.0)[:, None]
        assert np.all(np.any(weights[:-1] == 0.0, axis=1))
        events = np.flatnonzero(ordered.delta == 1)
        flags = np.stack([ordered.delta, 1 - ordered.delta])
        flags[1, -1] = 1
        for delta, w in ((ordered.delta, weights),
                         (flags[:, None, :], np.stack([weights, weights]))):
            for columns in (slice(None), events):
                new = _product_limit(delta, w, columns)
                old = product_limit_reference(delta, w, columns)
                assert new.dtype == old.dtype and new.shape == old.shape
                assert new.tobytes() == old.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(_weight_stacks())
    def test_bytes_equal_the_reference_on_random_weights(self, stack):
        # the event columns of the first sample hold censored columns of
        # the second, so the stacked pass takes both factor rules
        flags, weights = stack
        before = weights.copy()
        events = np.flatnonzero(flags[0, 0] == 1)
        for delta, w in ((flags[0, 0], weights[0]), (flags, weights)):
            for columns in (slice(None), events):
                new = _product_limit(delta, w, columns)
                old = product_limit_reference(delta, w, columns)
                assert new.dtype == old.dtype and new.shape == old.shape
                assert new.tobytes() == old.tobytes()
        assert weights.tobytes() == before.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_columns_equal_the_search_of_the_times(self, seed):
        # a stack of tied samples, each in its own order, and one of them
        # alone; grid points before, on and past the times
        samples = [self._tied_sample(seed * 3 + r) for r in range(3)]
        orders = [s.sort_by_time() for s in samples]
        t = np.stack([o.t for o in orders])
        delta = np.stack([o.delta for o in orders])
        hs = np.array([0.05, 0.3, 2.5])
        raw = np.stack([
            epanechnikov_reference((float(s.x[0]) - o.x) / hs[:, None])
            for s, o in zip(samples, orders)])
        tgrid = np.array([0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 9.0])
        for args in ((t, delta, raw), (t[0], delta[0], raw[0])):
            new = _beran_rows(args[1], args[2], grid_columns(args[0], tgrid))
            old = beran_rows_reference(*args, tgrid)
            for a, b in zip(new, old):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_rows_without_weight_are_not_fitted(self):
        sample = self._tied_sample(3)
        ordered = sample.sort_by_time()
        hs = np.array([0.5, 1e-3, 3.0])
        raw = epanechnikov_reference((10.0 - ordered.x) / hs[:, None])
        raw[0] = epanechnikov_reference((0.0 - ordered.x) / hs[0])
        on_grid, final, fitted = _beran_rows(
            ordered.delta, raw, grid_columns(ordered.t, np.array([0.0, 2.0])))
        assert fitted.tolist() == [True, False, False]
        assert on_grid.shape == (3, 2) and final.shape == (3,)
        assert on_grid[fitted].shape == (1, 2) and final[fitted].shape == (1,)
        assert np.array_equal(on_grid[fitted][0], beran(
            sample, 0.0, 0.5).evaluate(np.array([0.0, 2.0])))
        # a row without weight is the constant curve one
        assert np.all(on_grid[~fitted] == 1.0)
        assert np.all(final[~fitted] == 1.0)

    def test_weight_rows_equal_single_point_weights(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-3.0, 3.0, 300)
        points = np.array([-1.0, 0.0, 2.5])
        hs = np.array([0.4, 1.0, 3.0])
        rows = nw_weights(points, xs, hs)
        assert rows.flags.c_contiguous
        for row, x, h in zip(rows, points, hs):
            assert np.array_equal(row, nw_weights(x, xs, h))

    def test_batch_names_first_empty_pair(self):
        xs = np.array([0.0, 1.0])
        with pytest.raises(EmptyNeighborhoodError,
                           match=r"bandwidth 0\.5 of x=9\.0$"):
            nw_weights(np.array([0.0, 9.0, 20.0]), xs, 0.5)
