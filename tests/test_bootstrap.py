"""Bootstrap bandwidth selector."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmixcure import (
    BootstrapConfig,
    CensoredSample,
    EstimationError,
    beran,
    generate,
    kaplan_meier,
    latency_estimate,
    log_grid,
    mise_star,
    model1,
    pilot_bandwidth,
)
from npmixcure import bootstrap
from npmixcure.bootstrap import (
    BandwidthGrid,
    MiseCurve,
    _JumpDistribution,
    _ResamplingKit,
    _count_at_or_below,
    _covariate_seed,
    _resample_curve,
)
from npmixcure.cure import _latency_from_curve, _latency_ise
from npmixcure.models import trial_rng
from npmixcure.survival import StepSurvivalCurve, _beran_rows

from helpers import (
    ReferenceKit,
    assert_same_outcomes,
    epanechnikov_reference,
    grid_columns,
    mise_star_alone,
    mise_star_loop,
    pick,
)


def _sparse_event_sample():
    # the x=10 pair is censored with no event within the pilot bandwidth
    # 0.75 * 10 * 5^(-1/9) = 6.27, so its pilot uncured probability is 0;
    # the x=0 triple is uncured, and about one resample in six draws
    # censoring before every event
    return CensoredSample(
        np.array([0.0, 0.0, 0.0, 10.0, 10.0]),
        np.array([1.0, 3.0, 5.0, 2.0, 4.0]),
        np.array([0, 1, 1, 0, 0]),
    )


def _one_event_time_sample():
    # both events share one time, so every pilot latency has one jump
    return CensoredSample(
        np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
        np.array([1.0, 2.0, 2.0, 3.0, 4.0]),
        np.array([0, 1, 1, 0, 0]),
    )


def _rigged_two_group_sample():
    # two covariate clusters five apart; the pilot bandwidth
    # 0.75 * 5 * 12^(-1/9) = 2.845 keeps their pilot fits separate
    xs = np.array([0.0] * 6 + [5.0] * 6)
    ts = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0] * 2)
    deltas = np.array([1, 1, 1, 0, 0, 0] * 2)
    return CensoredSample(xs, ts, deltas)


class TestGrids:
    def test_log_grid_is_geometric(self):
        g = log_grid(5.0, 100.0, 15)
        assert len(g) == 15
        assert_allclose(g.values, np.geomspace(5.0, 100.0, 15), rtol=0, atol=0)
        assert g.values[0] == 5.0
        assert g.values[-1] == 100.0
        ratios = g.values[1:] / g.values[:-1]
        assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_log_grid_single_point(self):
        g = log_grid(2.0, 9.0, 1)
        assert_allclose(g.values, [2.0])

    def test_log_grid_validation(self):
        with pytest.raises(ValueError):
            log_grid(5.0, 100.0, 0)
        with pytest.raises(ValueError):
            log_grid(0.0, 100.0, 5)
        with pytest.raises(ValueError):
            log_grid(10.0, 5.0, 5)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            BandwidthGrid(np.array([]))
        with pytest.raises(ValueError):
            BandwidthGrid(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            BandwidthGrid(np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            BandwidthGrid(np.array([1.0, np.inf]))


class TestPilotBandwidth:
    def test_frozen_value(self):
        # 0.75 * 40 * 100^(-1/9) = 17.98452750956823
        xs = np.concatenate([np.full(50, -20.0), np.full(50, 20.0)])
        assert pilot_bandwidth(xs) == 17.98452750956823

    def test_scale_constant(self):
        xs = np.array([0.0, 10.0])
        assert_allclose(
            pilot_bandwidth(xs, c=1.5), 15.0 * 2.0 ** (-1.0 / 9.0), rtol=1e-15
        )

    def test_validation(self):
        # degenerate covariates are a property of the data; a bad
        # constant is a caller error
        with pytest.raises(EstimationError, match="at least two"):
            pilot_bandwidth(np.array([1.0]))
        with pytest.raises(EstimationError, match="identical"):
            pilot_bandwidth(np.array([2.0, 2.0, 2.0]))
        for c in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                pilot_bandwidth(np.array([0.0, 1.0]), c=c)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                pilot_bandwidth(np.array([0.0, bad, 1.0]))


class TestJumpDistribution:
    def test_inverse_transform_on_three_jumps(self):
        # values 0.6, 0.3, 0.0 give cumulative masses 0.4, 0.7, 1.0;
        # a uniform at an atom boundary belongs to the next atom, and a
        # curve ending at zero needs no residual atom
        curve = StepSurvivalCurve(
            np.array([1.0, 2.0, 3.0]), np.array([0.6, 0.3, 0.0])
        )
        dist = _JumpDistribution.from_curve(curve, residual_time=9.0)
        assert_allclose(dist.times, [1.0, 2.0, 3.0])
        assert_allclose(dist.cum, [0.4, 0.7, 1.0])
        u = np.array([0.0, 0.39, 0.4, 0.69, 0.7, 0.999])
        assert_allclose(dist.times[dist.index(u)],
                        [1.0, 1.0, 2.0, 2.0, 3.0, 3.0])

    def test_residual_mass_goes_to_given_atom(self):
        curve = StepSurvivalCurve(np.array([1.0]), np.array([0.5]))
        dist = _JumpDistribution.from_curve(curve, residual_time=9.0)
        assert_allclose(dist.times, [1.0, 9.0])
        assert_allclose(dist.cum, [0.5, 1.0])
        assert dist.times[dist.index(np.array([0.49]))][0] == 1.0
        assert dist.times[dist.index(np.array([0.5]))][0] == 9.0

    def test_empty_curve(self):
        empty = StepSurvivalCurve(np.array([]), np.array([]))
        dist = _JumpDistribution.from_curve(empty, residual_time=7.0)
        assert_allclose(dist.times[dist.index(np.array([0.0, 0.5, 0.99]))],
                        7.0)

    @staticmethod
    def _masses(case):
        edge = 1.0 / bootstrap._BUCKETS
        if case == "censoring":
            # the censoring distribution of a sample, atoms off the edges
            sample = generate(model1(), 1600, trial_rng(909, 4))
            return _ResamplingKit.build(sample, 6.0).censoring.cum
        if case == "on-edges":
            # atoms on bucket edges, the first and last among them, one
            # mass repeated and an atom just above an edge
            return np.array([0.0, edge, 3 * edge, 3 * edge,
                             np.nextafter(0.5, 1.0), 0.5 + edge, 1.0 - edge,
                             1.0, 1.0])
        if case == "one-atom":
            return np.array([1.0])
        if case == "one-atom-below-one":
            return np.array([0.3])
        # more atoms than buckets
        return np.sort(np.random.default_rng(7).random(40000))

    @pytest.mark.parametrize("case", ["censoring", "on-edges", "one-atom",
                                      "one-atom-below-one", "dense"])
    def test_bucketed_index_equals_plain_search(self, case):
        # uniforms at 0, on every bucket edge k / 2^14 and just below it,
        # at 1 - 2^-53 and 1.0, on every mass and just below it
        cum = self._masses(case)
        dist = _JumpDistribution(np.arange(cum.size, dtype=float), cum)
        edges = np.arange(bootstrap._BUCKETS + 1) / bootstrap._BUCKETS
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0), 1.0], edges,
            np.nextafter(edges[1:], 0.0), cum,
            np.nextafter(cum[cum > 0.0], 0.0),
            np.random.default_rng(cum.size).random(1001),
        ])
        u = u[:u.size // 2 * 2].reshape(2, -1)
        expect = np.minimum(np.searchsorted(cum, u, side="right"),
                            cum.size - 1)
        assert np.array_equal(dist.index(u), expect)


def _resample(sample, g, rng):
    # a fresh kit per resample, so kit building is checked too
    kit = _ResamplingKit.build(sample, g)
    ranks, delta = kit.draw([rng])
    return CensoredSample(kit.xs, kit.atoms[ranks[0]], delta[0])


class TestResample:
    def test_covariates_fixed_and_deterministic(self):
        sample = generate(model1(), 60, trial_rng(404, 0))
        a = _resample(sample, 5.0, np.random.default_rng(12))
        b = _resample(sample, 5.0, np.random.default_rng(12))
        assert np.array_equal(a.x, sample.x)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.delta, b.delta)
        c = _resample(sample, 5.0, np.random.default_rng(13))
        assert not np.array_equal(a.t, c.t)

    def test_times_live_on_observed_support(self):
        # latency jumps sit at original event times and censoring atoms
        # at original times, so resampled times are observed times
        sample = generate(model1(), 60, trial_rng(404, 1))
        star = _resample(sample, 5.0, np.random.default_rng(3))
        observed = np.unique(sample.t)
        assert np.all(np.isin(star.t, observed))
        assert np.all(np.isfinite(star.t))

    def test_cured_fraction_tracks_pilot_probabilities(self):
        sample = generate(model1(), 60, trial_rng(404, 2))
        kit = _ResamplingKit.build(sample, 5.0)
        rng = np.random.default_rng(44)
        reps = 400
        # censoring uniforms just below one censor at the largest time,
        # after every latency jump, so the censored draws are the cured
        top = np.full(sample.n, np.nextafter(1.0, 0.0))
        assert np.all(kit.censoring.times[kit.censoring.index(top)]
                      >= sample.t_max_uncensored())
        _ranks, delta = kit.draw([
            _Uniforms(*rng.random((2, sample.n)), top) for _ in range(reps)])
        cured = np.sum(delta == 0)
        p_uncured = ReferenceKit.build(sample, 5.0).p_uncured
        total = reps * sample.n
        expect = np.mean(1.0 - p_uncured)
        se = np.sqrt(np.mean(p_uncured * (1.0 - p_uncured)) / total)
        assert abs(cured / total - expect) < 4.0 * se

    @pytest.mark.parametrize("n", [1, 40, 1600])
    def test_draws_are_valid_observations(self, n):
        # draws skip the CensoredSample validation, so every draw must
        # already pass it
        if n == 1:
            sample = CensoredSample(np.array([3.0]), np.array([2.0]),
                                    np.array([1]))
        else:
            sample = generate(model1(), n, trial_rng(505, n))
        kit = _ResamplingKit.build(sample, 6.0)
        ranks, delta = kit.draw([np.random.default_rng(seed)
                                 for seed in range(6)])
        t = kit.atoms[ranks]
        assert t.shape == delta.shape == (6, n)
        assert delta.dtype == bool
        assert np.all(np.isfinite(t)) and np.all(t >= 0.0)
        assert np.all((delta == 0) | (delta == 1))


class TestMiseStar:
    def test_shape_diagnostics_and_determinism(self):
        sample = generate(model1(), 50, trial_rng(606, 0))
        cfg = BootstrapConfig(B=10, grid=log_grid(5.0, 60.0, 4), seed=77)
        curve = mise_star(sample, 5.0, cfg)
        assert curve.values.shape == (4,)
        assert np.all(np.isfinite(curve.values))
        assert np.all(curve.values >= 0.0)
        assert curve.argmin_index == int(np.argmin(curve.values))
        assert curve.selected == cfg.grid.values[curve.argmin_index]
        assert curve.pilot_bandwidth == pilot_bandwidth(sample.x)
        assert curve.weight_upper == sample.t_max_uncensored()
        again = mise_star(sample, 5.0, cfg)
        assert np.array_equal(curve.values, again.values)
        assert np.array_equal(curve.failures, again.failures)

    def test_weight_upper_override_recorded(self):
        sample = generate(model1(), 50, trial_rng(606, 1))
        cfg = BootstrapConfig(
            B=5, grid=log_grid(10.0, 40.0, 3), seed=1, weight_upper=2.0
        )
        curve = mise_star(sample, 5.0, cfg)
        assert curve.weight_upper == 2.0

    def test_partial_failures_are_counted_and_skipped(self):
        # at h=0.1 the x=0 neighborhood holds six subjects with pilot
        # uncured probability 1/2 each; a resample leaving them all
        # eventless cannot be fitted there and is skipped
        sample = _rigged_two_group_sample()
        cfg = BootstrapConfig(
            B=200, grid=BandwidthGrid(np.array([0.1, 20.0])), seed=321
        )
        curve = mise_star(sample, 0.0, cfg)
        assert curve.failures.tolist() == [3, 0]
        assert curve.pilot_bandwidth == 2.8452618474667677
        assert np.all(np.isfinite(curve.values))

    def test_unreachable_bandwidth_fails_every_resample(self):
        # x=2.5 sits 2.5 away from both clusters, so h=0.01 gives an
        # empty neighborhood in every resample while the pilot succeeds
        sample = _rigged_two_group_sample()
        cfg = BootstrapConfig(
            B=5, grid=BandwidthGrid(np.array([0.01, 20.0])), seed=5
        )
        with pytest.raises(EstimationError):
            mise_star(sample, 2.5, cfg)

    def test_pilot_failure_propagates(self):
        sample = _rigged_two_group_sample()
        cfg = BootstrapConfig(B=5, grid=log_grid(1.0, 10.0, 3), seed=5)
        with pytest.raises(EstimationError):
            mise_star(sample, 1e6, cfg)

    def test_config_validation(self):
        grid = log_grid(1.0, 10.0, 3)
        with pytest.raises(ValueError):
            BootstrapConfig(B=0, grid=grid, seed=1)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="pilot_c"):
                BootstrapConfig(B=5, grid=grid, seed=1, pilot_c=bad)
        with pytest.raises(ValueError):
            BootstrapConfig(B=5, grid=grid, seed=1, time_grid_size=1)
        # a NaN or infinite window would score every fit as failed
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="weight_upper"):
                BootstrapConfig(B=5, grid=grid, seed=1, weight_upper=bad)

    def test_integer_settings_are_validated(self):
        grid = log_grid(1.0, 10.0, 3)
        for field, bad in (("B", 2.5), ("B", True), ("B", "5"),
                           ("time_grid_size", 2.5), ("time_grid_size", True),
                           ("seed", 1.0), ("seed", False), ("seed", -1)):
            settings = {"B": 5, "seed": 1, field: bad}
            with pytest.raises(ValueError, match=field):
                BootstrapConfig(grid=grid, **settings)
        # numpy integers and the command line's per-covariate seeds pass
        cfg = BootstrapConfig(B=np.int64(5), grid=grid, seed=np.uint64(3),
                              time_grid_size=np.int32(50))
        assert cfg.B == 5
        BootstrapConfig(B=5, grid=grid, seed=_covariate_seed(2**32, 7))

    def test_mise_star_memory_stays_below_the_pilot_matrix(self):
        # the select-large benchmark selection (n=1600, B=50, grid
        # 1:12:15); its pilot fits as one (n, E) float matrix would take
        # 8 n E bytes, and the selection's traced peak must stay below
        sample = generate(model1(), 1600, trial_rng(1, 0))
        cfg = BootstrapConfig(B=50, grid=log_grid(1.0, 12.0, 15),
                              seed=_covariate_seed(1, 0))
        matrix = 8 * sample.n * np.unique(sample.t[sample.delta == 1]).size
        tracemalloc.start()
        try:
            mise_star(sample, 4.0, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix

    def test_first_minimum_wins_ties(self):
        grid = log_grid(1.0, 8.0, 4)
        values = np.array([3.0, 2.0, 2.0, 5.0])
        curve = MiseCurve(
            grid=grid,
            values=values,
            argmin_index=int(np.argmin(values)),
            failures=np.zeros(4, dtype=np.int64),
        )
        assert curve.argmin_index == 1
        assert curve.selected == grid.values[1]


class TestSeveralCovariates:
    """mise_star at several covariate values: one kit, one draw."""

    @staticmethod
    def _case():
        # at an observed covariate, between covariates (every resample
        # fails at h=0.05), far outside (the pilot fit fails), and again
        # between covariates
        sample = generate(model1(), 60, trial_rng(707, 0))
        cfg = BootstrapConfig(B=9, grid=log_grid(0.05, 30.0, 5), seed=11)
        return sample, [float(sample.x[0]), 2.0, 1e6, 8.0], cfg

    def test_equal_to_one_value_calls(self):
        sample, xs, cfg = self._case()
        several = mise_star(sample, xs, cfg)
        alone = mise_star_alone(sample, xs, cfg)
        assert_same_outcomes(several, alone)
        assert isinstance(several[0], MiseCurve)
        assert "every resample failed at bandwidth(s) [0.05]" in str(
            several[1])
        assert "no observation within bandwidth" in str(several[2])

    def test_one_kit_and_one_draw(self, monkeypatch):
        sample, xs, cfg = self._case()
        calls = []
        build, draw = _ResamplingKit.build.__func__, _ResamplingKit.draw

        def counted_build(cls, *args):
            calls.append("build")
            return build(cls, *args)

        def counted_draw(kit, rngs):
            calls.append(len(rngs))
            return draw(kit, rngs)

        monkeypatch.setattr(_ResamplingKit, "build",
                            classmethod(counted_build))
        monkeypatch.setattr(_ResamplingKit, "draw", counted_draw)
        mise_star(sample, xs, cfg)
        # the value whose pilot fit fails draws nothing
        assert calls == ["build", 3 * cfg.B]

    def test_values_drawn_in_groups(self, monkeypatch):
        # a draw budget of one value's uniforms draws one value at a time
        sample, xs, cfg = self._case()
        together = mise_star(sample, xs, cfg)
        monkeypatch.setattr(bootstrap, "_DRAW_BYTES", 16 * cfg.B * sample.n)
        assert_same_outcomes(mise_star(sample, xs, cfg), together)

    def test_pilot_bandwidth_failure_fails_every_value(self):
        sample = CensoredSample(np.full(3, 2.0), np.array([1.0, 2.0, 3.0]),
                                np.array([1, 0, 1]))
        cfg = BootstrapConfig(B=4, grid=log_grid(1.0, 4.0, 2), seed=3)
        several = mise_star(sample, [1.0, 2.0], cfg)
        assert all("all covariates are identical" in str(err)
                   for err in several)
        with pytest.raises(EstimationError, match="identical"):
            mise_star(sample, 2.0, cfg)

    def test_empty_sequence_is_rejected(self):
        sample, _, cfg = self._case()
        with pytest.raises(ValueError, match="at least one"):
            mise_star(sample, [], cfg)

    @pytest.mark.parametrize("x", [np.nan, [5.0, np.nan], [np.inf]])
    def test_nonfinite_value_is_rejected_before_any_fit(self, monkeypatch,
                                                        x):
        sample, _, cfg = self._case()
        calls = []
        monkeypatch.setattr(bootstrap, "pilot_bandwidth",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="must be finite"):
            mise_star(sample, x, cfg)
        assert calls == []

    def test_memory_stays_below_the_pilot_matrix_per_value(self):
        # the select-large selection at two covariate values: the pilot
        # fits as (n, E) float matrices would take 8 n E bytes per value
        sample = generate(model1(), 1600, trial_rng(1, 0))
        cfg = BootstrapConfig(B=50, grid=log_grid(1.0, 12.0, 15), seed=1)
        xs = [4.0, 8.0]
        matrix = 8 * sample.n * np.unique(sample.t[sample.delta == 1]).size
        tracemalloc.start()
        try:
            curves = mise_star(sample, xs, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(isinstance(c, MiseCurve) for c in curves)
        assert peak < len(xs) * matrix


class TestBatchedGridFits:
    """mise_star fits each resample at every bandwidth in one batch."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_per_bandwidth_loop(self, seed):
        sample = generate(model1(), 40, trial_rng(808, seed))
        # the second grid starts below the smallest covariate spacing, so
        # at an observed covariate its first neighborhoods hold one point
        assert np.diff(np.sort(sample.x)).min() > 0.01
        at_event = float(sample.x[np.argmax(sample.delta == 1)])
        cases = [(5.0, log_grid(3.0, 40.0, 6)),
                 (at_event, log_grid(0.01, 30.0, 8))]
        for x, grid in cases:
            cfg = BootstrapConfig(B=12, grid=grid, seed=seed)
            values, failures = mise_star_loop(sample, x, cfg)
            curve = mise_star(sample, x, cfg)
            assert np.array_equal(curve.values, values)
            assert np.array_equal(curve.failures, failures)
        assert failures[0] > 0

    @pytest.mark.parametrize("chunk", [1, 5, 7])
    def test_chunks_not_dividing_B(self, monkeypatch, chunk):
        sample = generate(model1(), 40, trial_rng(808, 3))
        at_event = float(sample.x[np.argmax(sample.delta == 1)])
        cfg = BootstrapConfig(B=12, grid=log_grid(0.01, 30.0, 6), seed=3)
        monkeypatch.setattr(bootstrap, "_RESAMPLE_CHUNK_BYTES",
                            chunk * 8 * 6 * sample.n)
        values, failures = mise_star_loop(sample, at_event, cfg)
        curve = mise_star(sample, at_event, cfg)
        assert np.array_equal(curve.values, values)
        assert np.array_equal(curve.failures, failures)
        assert failures[0] > 0

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_chunks_without_events_are_skipped(self, monkeypatch, chunk):
        # at seed 2, resamples 32 and 33 both draw no event, so with one
        # or two resamples per chunk some chunk has nothing to fit
        sample = _sparse_event_sample()
        cfg = BootstrapConfig(
            B=40, grid=BandwidthGrid(np.array([1.0, 20.0])), seed=2
        )
        monkeypatch.setattr(bootstrap, "_RESAMPLE_CHUNK_BYTES",
                            chunk * 8 * 2 * sample.n)
        kit = _ResamplingKit.build(sample, pilot_bandwidth(sample.x))
        _ranks, delta = kit.draw([
            np.random.default_rng(child)
            for child in np.random.SeedSequence(cfg.seed).spawn(cfg.B)])
        with_events = delta.any(axis=1)
        assert not with_events[32:34].any()
        values, failures = mise_star_loop(sample, 0.0, cfg)
        curve = mise_star(sample, 0.0, cfg)
        assert np.array_equal(curve.values, values)
        assert np.array_equal(curve.failures, failures)
        assert curve.failures.tolist() == [6, 6]

    def test_one_resample_per_chunk_at_n1600(self):
        sample = generate(model1(), 1600, trial_rng(808, 4))
        cfg = BootstrapConfig(B=3, grid=log_grid(1.0, 12.0, 12), seed=4)
        assert bootstrap._RESAMPLE_CHUNK_BYTES // (8 * 12 * 1600) <= 1
        values, failures = mise_star_loop(sample, 4.0, cfg)
        curve = mise_star(sample, 4.0, cfg)
        assert np.array_equal(curve.values, values)
        assert np.array_equal(curve.failures, failures)

    def test_empty_neighborhood_fails_like_the_loop(self):
        sample = generate(model1(), 40, trial_rng(808, 0))
        cfg = BootstrapConfig(B=6, grid=log_grid(1e-3, 30.0, 5), seed=4)
        with pytest.raises(EstimationError) as looped:
            mise_star_loop(sample, 5.0, cfg)
        with pytest.raises(EstimationError) as batched:
            mise_star(sample, 5.0, cfg)
        assert str(batched.value) == str(looped.value)
        assert "bandwidth(s) [0.001, " in str(batched.value)

    def test_resamples_without_events_fail_everywhere(self):
        sample = _sparse_event_sample()
        cfg = BootstrapConfig(
            B=40, grid=BandwidthGrid(np.array([1.0, 20.0])), seed=0
        )
        kit = _ResamplingKit.build(sample, pilot_bandwidth(sample.x))
        _ranks, delta = kit.draw([
            np.random.default_rng(child)
            for child in np.random.SeedSequence(cfg.seed).spawn(cfg.B)])
        eventless = np.sum(~delta.any(axis=1))
        assert eventless > 0
        values, failures = mise_star_loop(sample, 0.0, cfg)
        curve = mise_star(sample, 0.0, cfg)
        assert np.array_equal(curve.values, values)
        assert np.array_equal(curve.failures, failures)
        assert curve.failures.tolist() == [eventless, eventless]


class TestRankedLookups:
    """The pass's count and the grid fits' columns, against searches."""

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 33])
    def test_count_equals_a_search_of_each_row(self, size):
        # tied masses, zeros first, uniforms on and just below every
        # mass, below zero and at one
        rng = np.random.default_rng(size)
        cums = np.sort(np.round(rng.random((5, size)), 1), axis=1)
        cums[:, 0] = 0.0
        u = np.concatenate([cums.ravel(), np.nextafter(cums.ravel(), -1.0),
                            [-0.5, 0.0, 1.0], rng.random(20)])
        rows = rng.integers(0, 5, u.size)
        expect = [np.searchsorted(cums[r], v, side="right")
                  for r, v in zip(rows, u)]
        assert np.array_equal(_count_at_or_below(cums, rows, u), expect)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grid_columns_equal_a_search_of_the_times(self, seed):
        # grid points before every atom, on atoms, between and past them
        sample = generate(model1(), 40, trial_rng(919, seed))
        kit = _ResamplingKit.build(sample, 6.0)
        ranks, events = kit.draw([np.random.default_rng(seed + r)
                                  for r in range(5)])
        keys = 2 * ranks + 1 - events
        tgrid = np.sort(np.concatenate([
            [kit.atoms[0] / 2, kit.atoms[-1] + 1.0], kit.atoms[::3],
            np.linspace(0.0, kit.atoms[-1], 17)]))
        config = BootstrapConfig(B=5, grid=log_grid(3.0, 30.0, 4), seed=0)
        pilot = latency_estimate(sample, 5.0, 6.0).latency.evaluate(tgrid)
        got = _resample_curve(kit, keys, 5.0, pilot, tgrid, config)
        # each resample fitted in its time order, events first in ties, on
        # the columns of a search of its times
        order = np.argsort(keys, axis=1, kind="stable")
        ordered = np.take_along_axis(keys, order, axis=1)
        last = grid_columns(kit.atoms[ordered >> 1], tgrid)
        assert last.min() == -1 and last.max() == sample.n - 1
        raw = epanechnikov_reference(
            (5.0 - kit.xs[order][:, None]) / config.grid.values[:, None])
        curves, plateaus, fitted = _beran_rows(
            np.take_along_axis(events, order, axis=1), raw, last)
        rows = np.arange(len(config.grid))
        ise = np.array([_latency_ise(*fit, pilot, tgrid, rows, rows)
                        for fit in zip(curves, plateaus, fitted)])
        used = np.sum(~np.isnan(ise), axis=0)
        assert np.array_equal(got.values, np.nansum(ise, axis=0) / used)
        assert np.array_equal(got.failures, 5 - used)


class _Uniforms:
    """Stands in for a Generator, handing out preset uniforms in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, n):
        out = self.draws.pop(0)
        assert out.shape == (n,)
        return out


def _pick_loop_latent(sample, g, u_cure, u_latency, u_censor):
    """Reference draw: a pilot fit and a jump distribution per observation.

    Returns the latent times and the pilot uncured probabilities.
    """
    t_top = sample.t_max_uncensored()
    censoring = _JumpDistribution.from_curve(
        kaplan_meier(sample, 1 - sample.delta),
        residual_time=float(sample.t.max()),
    )
    p_uncured = np.empty(sample.n)
    y = np.full(sample.n, np.inf)
    for i in range(sample.n):
        curve = beran(sample, float(sample.x[i]), g)
        cured = curve.evaluate(t_top)
        p_uncured[i] = 1.0 - cured
        if u_cure[i] < p_uncured[i]:
            # the latency ends at zero, so no residual atom is added
            latency = _latency_from_curve(curve, cured)
            y[i] = pick(_JumpDistribution.from_curve(latency, t_top),
                        u_latency[i])
    return y, pick(censoring, u_censor), p_uncured


def _assert_draw_equals(kit, u_cure, u_latency, u_censor, y_ref, c_ref):
    # the observed draw, then the latent times alone: censoring every
    # draw at the largest time shows the survival times, and curing
    # every observation shows the censoring times
    n = u_cure.size
    top = np.full(n, np.nextafter(1.0, 0.0))
    ranks, delta = kit.draw([_Uniforms(u_cure, u_latency, u_censor),
                             _Uniforms(u_cure, u_latency, top),
                             _Uniforms(np.ones(n), u_latency, u_censor)])
    t = kit.atoms[ranks]
    assert np.array_equal(t[0], np.minimum(y_ref, c_ref))
    assert np.array_equal(delta[0], (y_ref <= c_ref).astype(np.int64))
    uncured = np.isfinite(y_ref)
    assert np.array_equal(delta[1], uncured.astype(np.int64))
    assert np.array_equal(t[1][uncured], y_ref[uncured])
    assert np.array_equal(t[2], c_ref) and not delta[2].any()


class TestVectorisedDraw:
    """draw counts cumulative masses instead of picking per row."""

    @pytest.mark.parametrize("make", [
        lambda: CensoredSample(np.array([3.0]), np.array([2.0]),
                               np.array([1])),
        lambda: generate(model1(), 40, trial_rng(909, 0)),
        lambda: generate(model1(), 1600, trial_rng(909, 1)),
        _sparse_event_sample,
    ], ids=["n1", "n40", "n1600", "uncured-zero"])
    def test_bitwise_equal_to_pick_loop(self, make):
        sample = make()
        g = 6.0
        kit = _ResamplingKit.build(sample, g)
        ref = ReferenceKit.build(sample, g)
        rng = np.random.default_rng(sample.n)
        u_cure, u_latency, u_censor = rng.random((3, sample.n))
        # every third uniform sits exactly on a cumulative mass, which
        # belongs to the next atom
        on_mass = np.arange(0, sample.n, 3)
        picks = rng.integers(0, ref.times.size, on_mass.size)
        u_latency[on_mass] = ref.cums[on_mass, picks]
        u_censor[on_mass] = kit.censoring.cum[
            rng.integers(0, kit.censoring.cum.size, on_mass.size)]
        y_ref, c_ref, p_ref = _pick_loop_latent(
            sample, g, u_cure, u_latency, u_censor)
        assert np.array_equal(ref.p_uncured, p_ref)
        assert np.array_equal(kit.times, ref.times)
        _assert_draw_equals(kit, u_cure, u_latency, u_censor, y_ref, c_ref)
        if make is _sparse_event_sample:
            assert np.any(p_ref == 0.0)

    @staticmethod
    def _on_and_below_masses(sample, g, kit, on_mass):
        # uniforms alternately on the given masses and just below them;
        # every row with positive uncured probability is drawn uncured
        n = sample.n
        u_latency = np.where(np.arange(n) % 2 == 0, on_mass,
                             np.nextafter(on_mass, -np.inf))
        u_cure = np.zeros(n)
        u_censor = np.random.default_rng(n).random(n)
        y_ref, c_ref, _ = _pick_loop_latent(
            sample, g, u_cure, u_latency, u_censor)
        _assert_draw_equals(kit, u_cure, u_latency, u_censor, y_ref, c_ref)

    @pytest.mark.parametrize("make", [
        lambda: generate(model1(), 40, trial_rng(909, 2)),
        lambda: generate(model1(), 1600, trial_rng(909, 3)),
        _one_event_time_sample,
    ], ids=["n40", "n1600", "E1"])
    def test_uniforms_on_block_boundaries(self, make):
        # the reference's coarse pass compares at columns s-1, 2s-1, ...,
        # and the last column ends the last block
        sample = make()
        kit = _ResamplingKit.build(sample, 6.0)
        ref = ReferenceKit.build(sample, 6.0)
        size, s = ref.times.size, ref.step
        columns = np.append(np.arange(s - 1, size, s), size - 1)
        rows = np.arange(sample.n)
        self._on_and_below_masses(
            sample, 6.0, kit, ref.cums[rows, columns[rows % columns.size]])
        if make is _one_event_time_sample:
            assert size == 1

    @pytest.mark.parametrize("size", range(1, 13))
    def test_every_number_of_jump_times(self, size):
        # searches of one to twelve columns: reference blocks of one to
        # four columns, the last one whole or not
        rng = np.random.default_rng(size)
        n = 3 * size + 4
        sample = CensoredSample(
            rng.uniform(0.0, 4.0, n),
            np.concatenate([np.arange(1.0, size + 1.0),
                            rng.uniform(0.5, size + 1.0, n - size)]),
            np.concatenate([np.ones(size, dtype=int),
                            np.zeros(n - size, dtype=int)]),
        )
        kit = _ResamplingKit.build(sample, 6.0)
        assert kit.times.size == size
        rows = np.arange(n)
        self._on_and_below_masses(
            sample, 6.0, kit,
            ReferenceKit.build(sample, 6.0).cums[rows, rows % size])
