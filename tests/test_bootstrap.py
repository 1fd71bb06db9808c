"""Bootstrap bandwidth selector."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmixcure import (
    EPANECHNIKOV,
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
    select_bandwidth,
)
from npmixcure.bootstrap import (
    BandwidthGrid,
    MiseCurve,
    _JumpDistribution,
    _ResamplingKit,
)
from npmixcure.cure import _latency_from_curve
from npmixcure.models import trial_rng
from npmixcure.survival import StepSurvivalCurve


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
        with pytest.raises(ValueError):
            pilot_bandwidth(np.array([1.0]))
        with pytest.raises(ValueError):
            pilot_bandwidth(np.array([2.0, 2.0, 2.0]))
        with pytest.raises(ValueError):
            pilot_bandwidth(np.array([0.0, 1.0]), c=0.0)


class TestJumpDistribution:
    def test_inverse_transform_on_three_jumps(self):
        # values 0.6, 0.3, 0.0 give cumulative masses 0.4, 0.7, 1.0;
        # a uniform at an atom boundary belongs to the next atom
        curve = StepSurvivalCurve(
            np.array([1.0, 2.0, 3.0]), np.array([0.6, 0.3, 0.0])
        )
        dist = _JumpDistribution.from_curve(curve)
        assert_allclose(dist.cum, [0.4, 0.7, 1.0])
        u = np.array([0.0, 0.39, 0.4, 0.69, 0.7, 0.999])
        assert_allclose(dist.pick(u), [1.0, 1.0, 2.0, 2.0, 3.0, 3.0])

    def test_residual_mass_goes_to_given_atom(self):
        curve = StepSurvivalCurve(np.array([1.0]), np.array([0.5]))
        dist = _JumpDistribution.from_curve(curve, residual_time=9.0)
        assert_allclose(dist.times, [1.0, 9.0])
        assert_allclose(dist.cum, [0.5, 1.0])
        assert dist.pick(np.array([0.49]))[0] == 1.0
        assert dist.pick(np.array([0.5]))[0] == 9.0

    def test_tiny_residual_folded_into_last_jump(self):
        curve = StepSurvivalCurve(np.array([1.0, 4.0]), np.array([0.5, 1e-12]))
        dist = _JumpDistribution.from_curve(curve)
        assert_allclose(dist.cum, [0.5, 1.0])
        assert dist.pick(np.array([0.9999]))[0] == 4.0

    def test_large_residual_without_atom_is_an_error(self):
        curve = StepSurvivalCurve(np.array([1.0]), np.array([0.5]))
        with pytest.raises(EstimationError):
            _JumpDistribution.from_curve(curve)

    def test_empty_curve(self):
        empty = StepSurvivalCurve(np.array([]), np.array([]))
        dist = _JumpDistribution.from_curve(empty, residual_time=7.0)
        assert_allclose(dist.pick(np.array([0.0, 0.5, 0.99])), 7.0)
        with pytest.raises(EstimationError):
            _JumpDistribution.from_curve(empty)


def _resample(sample, g, rng):
    # a fresh kit per resample, so kit building is checked too
    return _ResamplingKit.build(sample, g, EPANECHNIKOV).draw(rng)


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
        from npmixcure.bootstrap import _ResamplingKit
        from npmixcure.kernels import EPANECHNIKOV

        sample = generate(model1(), 60, trial_rng(404, 2))
        kit = _ResamplingKit.build(sample, 5.0, EPANECHNIKOV)
        rng = np.random.default_rng(44)
        reps = 400
        cured = 0
        for _ in range(reps):
            y, _c = kit.draw_latent(rng)
            cured += np.isinf(y).sum()
        total = reps * sample.n
        expect = np.mean(1.0 - kit.p_uncured)
        se = np.sqrt(np.mean(kit.p_uncured * (1.0 - kit.p_uncured)) / total)
        assert abs(cured / total - expect) < 4.0 * se


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

    def test_select_bandwidth_is_curve_minimum(self):
        sample = generate(model1(), 50, trial_rng(606, 2))
        cfg = BootstrapConfig(B=8, grid=log_grid(5.0, 60.0, 5), seed=9)
        assert select_bandwidth(sample, 5.0, cfg) == mise_star(sample, 5.0, cfg).selected

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
        with pytest.raises(ValueError):
            BootstrapConfig(B=5, grid=grid, seed=1, pilot_c=0.0)
        with pytest.raises(ValueError):
            BootstrapConfig(B=5, grid=grid, seed=1, time_grid_size=1)
        with pytest.raises(ValueError):
            BootstrapConfig(B=5, grid=grid, seed=1, weight_upper=-1.0)

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


def _mise_star_loop(sample, x, config):
    """Reference: one fit per (resample, bandwidth), each evaluated alone.

    Returns the curve's values and failures, or raises like mise_star.
    """
    grid = config.grid.values
    g = pilot_bandwidth(sample.x, config.pilot_c)
    tgrid = np.linspace(0.0, sample.t_max_uncensored(), config.time_grid_size)
    pilot_values = latency_estimate(sample, x, g).latency.evaluate(tgrid)
    kit = _ResamplingKit.build(sample, g, EPANECHNIKOV)
    ise = np.full((config.B, grid.size), np.nan)
    children = np.random.SeedSequence(config.seed).spawn(config.B)
    for j, child in enumerate(children):
        star = kit.draw(np.random.default_rng(child))
        for l, h in enumerate(grid):
            try:
                fit = latency_estimate(star, x, float(h))
            except EstimationError:
                continue
            diff = fit.latency.evaluate(tgrid) - pilot_values
            ise[j, l] = np.trapezoid(diff * diff, tgrid)
    succeeded = np.sum(~np.isnan(ise), axis=0)
    if np.any(succeeded == 0):
        bad = grid[succeeded == 0]
        raise EstimationError(
            f"every resample failed at bandwidth(s) {bad.tolist()}"
        )
    return np.nansum(ise, axis=0) / succeeded, config.B - succeeded


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
            values, failures = _mise_star_loop(sample, x, cfg)
            curve = mise_star(sample, x, cfg)
            assert np.array_equal(curve.values, values)
            assert np.array_equal(curve.failures, failures)
        assert failures[0] > 0

    def test_empty_neighborhood_fails_like_the_loop(self):
        sample = generate(model1(), 40, trial_rng(808, 0))
        cfg = BootstrapConfig(B=6, grid=log_grid(1e-3, 30.0, 5), seed=4)
        with pytest.raises(EstimationError) as looped:
            _mise_star_loop(sample, 5.0, cfg)
        with pytest.raises(EstimationError) as batched:
            mise_star(sample, 5.0, cfg)
        assert str(batched.value) == str(looped.value)
        assert "bandwidth(s) [0.001, " in str(batched.value)

    def test_resamples_without_events_fail_everywhere(self):
        sample = _sparse_event_sample()
        cfg = BootstrapConfig(
            B=40, grid=BandwidthGrid(np.array([1.0, 20.0])), seed=0
        )
        kit = _ResamplingKit.build(
            sample, pilot_bandwidth(sample.x), EPANECHNIKOV)
        eventless = sum(
            not kit.draw(np.random.default_rng(child)).delta.any()
            for child in np.random.SeedSequence(cfg.seed).spawn(cfg.B)
        )
        assert eventless > 0
        values, failures = _mise_star_loop(sample, 0.0, cfg)
        curve = mise_star(sample, 0.0, cfg)
        assert np.array_equal(curve.values, values)
        assert np.array_equal(curve.failures, failures)
        assert curve.failures.tolist() == [eventless, eventless]


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
            latency = _latency_from_curve(curve, cured)
            y[i] = _JumpDistribution.from_curve(latency).pick(u_latency[i])
    return y, censoring.pick(u_censor), p_uncured


class TestVectorisedDraw:
    """draw_latent counts cumulative masses instead of picking per row."""

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
        kit = _ResamplingKit.build(sample, g, EPANECHNIKOV)
        rng = np.random.default_rng(sample.n)
        u_cure, u_latency, u_censor = rng.random((3, sample.n))
        # every third uniform sits exactly on a cumulative mass, which
        # belongs to the next atom
        on_mass = np.arange(0, sample.n, 3)
        picks = rng.integers(0, kit.times.size, on_mass.size)
        u_latency[on_mass] = kit.cums[on_mass, picks]
        u_censor[on_mass] = kit.censoring.cum[
            rng.integers(0, kit.censoring.cum.size, on_mass.size)]
        y, c = kit.draw_latent(_Uniforms(u_cure, u_latency, u_censor))
        y_ref, c_ref, p_ref = _pick_loop_latent(
            sample, g, u_cure, u_latency, u_censor)
        assert np.array_equal(kit.p_uncured, p_ref)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(c, c_ref)
        if make is _sparse_event_sample:
            assert np.any(kit.p_uncured == 0.0)
