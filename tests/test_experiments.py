"""Monte Carlo MISE experiments."""

import numpy as np
import pytest

from npmixcure import (
    EstimationError,
    ExperimentConfig,
    bootstrap_vs_optimal,
    generate,
    latency_estimate,
    latency_estimate_two_bw,
    log_grid,
    model1,
    true_mise,
    true_mise_two_bw,
)
from npmixcure.experiments import _TrialFits
from npmixcure.kernels import EPANECHNIKOV
from npmixcure.models import trial_rng


class TestTrialFitsCache:
    def test_reproduces_public_estimators_bitwise(self):
        sample = generate(model1(), 60, trial_rng(2020, 0))
        tgrid = np.linspace(0.0, sample.t_max_uncensored(), 50)
        hs = [8.0, 15.0, 30.0]
        fits = _TrialFits(sample, 5.0, hs, tgrid, EPANECHNIKOV)
        rows1, rows2 = np.divmod(np.arange(9), 3)
        cached, ok = fits.latency_values(rows1, rows2)
        assert ok.all()
        for k, (i1, i2) in enumerate(zip(rows1, rows2)):
            h1, h2 = hs[i1], hs[i2]
            if h1 == h2:
                direct = latency_estimate(sample, 5.0, h1)
            else:
                direct = latency_estimate_two_bw(sample, 5.0, h1, h2)
            assert np.array_equal(cached[k], direct.latency.evaluate(tgrid))

    def test_unfittable_bandwidth_reports_none(self):
        sample = generate(model1(), 60, trial_rng(2020, 1))
        tgrid = np.linspace(0.0, 2.0, 10)
        fits = _TrialFits(sample, 1e6, [5.0], tgrid, EPANECHNIKOV)
        values, ok = fits.latency_values(np.array([0]), np.array([0]))
        assert not ok.any()
        assert values.shape == (0, 10)


class TestTrueMise:
    def test_reproducible_and_positive(self):
        curve = true_mise(
            model1(), 60, 3, 5.0, log_grid(8.0, 40.0, 4), ExperimentConfig(seed=31)
        )
        again = true_mise(
            model1(), 60, 3, 5.0, log_grid(8.0, 40.0, 4), ExperimentConfig(seed=31)
        )
        assert np.array_equal(curve.values, again.values)
        assert np.all(curve.values > 0.0)
        assert curve.trials == 3
        assert curve.failures.shape == (4,)
        assert curve.selected == curve.grid.values[curve.argmin_index]

    def test_oracle_override_scores_exactly_zero(self):
        # handing the harness the true latency makes every integrated
        # squared error vanish identically
        spec = model1()

        def oracle(sample, x, h, tgrid):
            return spec.s0(tgrid, x)

        curve = true_mise(
            spec, 40, 2, 5.0, log_grid(10.0, 30.0, 3),
            ExperimentConfig(seed=8), latency_override=oracle,
        )
        assert np.all(curve.values == 0.0)
        assert np.all(curve.failures == 0)

    def test_failing_override_is_counted(self):
        # the first trial fails at the smallest bandwidth only; the
        # other bandwidths keep all three trials
        spec = model1()
        first_trial = generate(spec, 40, trial_rng(8, 0))

        def flaky(sample, x, h, tgrid):
            if h < 15.0 and sample.t[0] == first_trial.t[0]:
                return None
            return spec.s0(tgrid, x)

        curve = true_mise(
            spec, 40, 3, 5.0, log_grid(10.0, 30.0, 3),
            ExperimentConfig(seed=8), latency_override=flaky,
        )
        assert curve.failures.tolist() == [1, 0, 0]
        assert curve.values[1] == 0.0

    def test_raises_when_no_trial_fits(self):

        def never(sample, x, h, tgrid):
            return None

        with pytest.raises(EstimationError):
            true_mise(
                model1(), 40, 2, 5.0, log_grid(10.0, 30.0, 2),
                ExperimentConfig(seed=8), latency_override=never,
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seed=1, time_grid_size=1)
        with pytest.raises(ValueError):
            ExperimentConfig(seed=1, weight_upper=0.0)


class TestTrueMiseSurface:
    def test_diagonal_reproduces_one_bandwidth_curve_bitwise(self):
        grid = log_grid(8.0, 40.0, 4)
        cfg = ExperimentConfig(seed=66)
        surface = true_mise_two_bw(model1(), 60, 3, 5.0, grid, grid, cfg)
        curve = true_mise(model1(), 60, 3, 5.0, grid, cfg)
        assert np.array_equal(np.diag(surface.values), curve.values)
        assert surface.values.shape == (4, 4)
        assert np.all(surface.trials_used <= 3)

    def test_argmin_pair_is_first_flat_minimum(self):
        grid = log_grid(8.0, 40.0, 3)
        surface = true_mise_two_bw(
            model1(), 60, 2, 5.0, grid, grid, ExperimentConfig(seed=66)
        )
        i, j = surface.argmin_pair()
        assert surface.values[i, j] == surface.values.min()
        flat = int(np.argmin(surface.values))
        assert (i, j) == (flat // 3, flat % 3)

    def test_rectangular_lattice(self):
        surface = true_mise_two_bw(
            model1(), 60, 2, 5.0,
            log_grid(8.0, 40.0, 3), log_grid(10.0, 80.0, 5),
            ExperimentConfig(seed=66),
        )
        assert surface.values.shape == (3, 5)


class TestSelectorStudy:
    def test_smoke_and_ratio_floor(self):
        # ratios compare the selection against the same grid's minimum,
        # so they can never drop below 1
        study = bootstrap_vs_optimal(
            model1(), 50, 6, 5.0, log_grid(8.0, 60.0, 5), B=12,
            config=ExperimentConfig(seed=1234),
        )
        assert study.ratios.size == 6 - study.selector_failures
        assert np.all(study.ratios >= 1.0)
        assert study.histogram.sum() == study.ratios.size
        assert study.selected_index.size == 6
        q = study.ratio_quantiles()
        assert set(q) == {"q25", "q50", "q75"}
        assert q["q25"] <= q["q50"] <= q["q75"]

    def test_reproducible(self):
        args = (model1(), 40, 4, 5.0, log_grid(10.0, 50.0, 4))
        a = bootstrap_vs_optimal(*args, B=8, config=ExperimentConfig(seed=55))
        b = bootstrap_vs_optimal(*args, B=8, config=ExperimentConfig(seed=55))
        assert np.array_equal(a.selected_index, b.selected_index)
        assert np.array_equal(a.ratios, b.ratios)
