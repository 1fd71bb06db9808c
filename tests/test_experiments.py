"""Monte Carlo MISE experiments."""

import json

import numpy as np
import pytest

from npmixcure import (
    BootstrapConfig,
    EstimationError,
    ExperimentConfig,
    bootstrap_vs_optimal,
    generate,
    latency_estimate,
    latency_estimate_two_bw,
    log_grid,
    mise_star,
    model1,
    true_mise,
    true_mise_two_bw,
)
from npmixcure import experiments
from npmixcure.cli import main
from npmixcure.experiments import _bootstrap_seed
from npmixcure.models import trial_rng


def _ise_means(spec, n, m, x, pairs, seed):
    """Mean ISE of the public estimators at each (h1, h2), and trial counts.

    Trials are summed in order with the same time grid as the
    experiments, so the means match theirs bit for bit.
    """
    sums = np.zeros(len(pairs))
    used = np.zeros(len(pairs), dtype=np.int64)
    for j in range(m):
        sample = generate(spec, n, trial_rng(seed, j))
        for k, (h1, h2) in enumerate(pairs):
            try:
                tgrid = np.linspace(0.0, sample.t_max_uncensored(), 100)
                if h1 == h2:
                    fit = latency_estimate(sample, x, h1)
                else:
                    fit = latency_estimate_two_bw(sample, x, h1, h2)
            except EstimationError:
                continue
            diff = fit.latency.evaluate(tgrid) - spec.s0(tgrid, x)
            sums[k] += np.trapezoid(diff * diff, tgrid)
            used[k] += 1
    return sums / used, used


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

    def test_equals_mean_of_latency_estimate_ises(self):
        grid = log_grid(10.0, 30.0, 3)
        curve = true_mise(model1(), 40, 4, 5.0, grid, ExperimentConfig(seed=8))
        means, used = _ise_means(model1(), 40, 4, 5.0,
                                 [(h, h) for h in grid.values], 8)
        assert np.array_equal(curve.values, means)
        assert np.array_equal(curve.failures, 4 - used)

    def test_failures_counted_below_covariate_spacing(self):
        # 40 covariates on (-20, 20) sit about 1 apart, so near the edge
        # a bandwidth of 0.3 often finds no neighbour, or none with an event
        spec, x, grid = model1(), 19.5, log_grid(0.3, 30.0, 3)
        curve = true_mise(spec, 40, 8, x, grid, ExperimentConfig(seed=8))
        failures = np.zeros(3, dtype=np.int64)
        for j in range(8):
            sample = generate(spec, 40, trial_rng(8, j))
            for k, h in enumerate(grid.values):
                try:
                    latency_estimate(sample, x, h)
                except EstimationError:
                    failures[k] += 1
        assert 0 < failures[0] < 8
        assert np.array_equal(curve.failures, failures)

    def test_raises_when_no_trial_fits(self):
        # no covariate lies within 0.02 of x = 100
        with pytest.raises(EstimationError,
                           match=r"every trial failed at bandwidth\(s\) "
                                 r"\[0.01, 0.02\]"):
            true_mise(model1(), 40, 2, 100.0, log_grid(0.01, 0.02, 2),
                      ExperimentConfig(seed=8))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seed=1, time_grid_size=1)
        # a NaN or infinite window would score every trial as failed
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="weight_upper"):
                ExperimentConfig(seed=1, weight_upper=bad)

    def test_integer_settings_are_validated(self):
        for settings in ({"seed": 2.0}, {"seed": True}, {"seed": -1},
                         {"seed": 1, "time_grid_size": 50.0},
                         {"seed": 1, "time_grid_size": False}):
            with pytest.raises(ValueError, match=next(reversed(settings))):
                ExperimentConfig(**settings)
        assert ExperimentConfig(seed=np.int64(0)).seed == 0


class TestTrueMiseSurface:
    def test_diagonal_reproduces_one_bandwidth_curve_bitwise(self):
        grid = log_grid(8.0, 40.0, 4)
        cfg = ExperimentConfig(seed=66)
        surface = true_mise_two_bw(model1(), 60, 3, 5.0, grid, grid, cfg)
        curve = true_mise(model1(), 60, 3, 5.0, grid, cfg)
        assert np.array_equal(np.diag(surface.values), curve.values)
        assert surface.values.shape == (4, 4)
        assert np.all(surface.trials_used <= 3)

    def test_reproduces_public_estimators_bitwise(self):
        grid1, grid2 = log_grid(8.0, 30.0, 3), log_grid(15.0, 30.0, 2)
        surface = true_mise_two_bw(model1(), 60, 3, 5.0, grid1, grid2,
                                   ExperimentConfig(seed=2020))
        pairs = [(h1, h2) for h1 in grid1.values for h2 in grid2.values]
        means, used = _ise_means(model1(), 60, 3, 5.0, pairs, 2020)
        assert np.array_equal(surface.values.ravel(), means)
        assert np.array_equal(surface.trials_used.ravel(), used)

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


class TestSeveralCovariates:
    """A sequence of x gives what one call per x gives, in its order."""

    # the smallest bandwidth fails on some trials at every x
    XS = (-3.0, 19.5, 5.0)

    def test_true_mise_equals_scalar_calls(self):
        grid, cfg = log_grid(0.5, 30.0, 4), ExperimentConfig(seed=8)
        curves = true_mise(model1(), 40, 8, list(self.XS), grid, cfg)
        assert len(curves) == len(self.XS)
        for x, curve in zip(self.XS, curves):
            alone = true_mise(model1(), 40, 8, x, grid, cfg)
            assert np.array_equal(curve.values, alone.values)
            assert np.array_equal(curve.failures, alone.failures)
            assert curve.argmin_index == alone.argmin_index
            assert curve.failures[0] > 0

    @pytest.mark.parametrize("grids", [
        ((0.5, 30.0, 4), (0.5, 30.0, 4)),
        ((0.5, 30.0, 3), (2.0, 40.0, 5)),
    ], ids=["square", "rectangular"])
    def test_surface_equals_scalar_calls(self, grids):
        grid1, grid2 = (log_grid(*g) for g in grids)
        cfg = ExperimentConfig(seed=8, weight_upper=1.5)
        surfaces = true_mise_two_bw(model1(), 40, 8, self.XS, grid1, grid2,
                                    cfg)
        assert [s.x for s in surfaces] == list(self.XS)
        for x, surface in zip(self.XS, surfaces):
            alone = true_mise_two_bw(model1(), 40, 8, x, grid1, grid2, cfg)
            assert np.array_equal(surface.values, alone.values)
            assert np.array_equal(surface.trials_used, alone.trials_used)
            assert surface.trials_used.min() < 8

    @pytest.mark.parametrize("xs,bad", [
        ((1000.0, 100.0), "[2.0, 500.0]"),
        ((100.0, 1000.0), "[2.0]"),
    ])
    def test_first_failing_x_raises_its_own_error(self, xs, bad):
        # x = 100 fails only at 2, x = 1000 at both bandwidths
        grid, cfg = log_grid(2.0, 500.0, 2), ExperimentConfig(seed=8)
        with pytest.raises(EstimationError) as alone:
            true_mise(model1(), 40, 2, xs[0], grid, cfg)
        with pytest.raises(EstimationError) as together:
            true_mise(model1(), 40, 2, [5.0, *xs], grid, cfg)
        assert str(alone.value).endswith(bad)
        assert str(together.value) == str(alone.value)
        # the surface names the (h1, h2) pairs of that x with either
        # bandwidth failing, in lattice order
        hs, failed = grid.values.tolist(), json.loads(bad)
        pairs = [[h1, h2] for h1 in hs for h2 in hs
                 if h1 in failed or h2 in failed]
        with pytest.raises(EstimationError) as surface:
            true_mise_two_bw(model1(), 40, 2, [5.0, *xs], grid, grid, cfg)
        assert str(surface.value) == (
            f"every trial failed at bandwidth(s) {pairs}")


def _two_pass_study(spec, n, m, x, grid, B, config):
    """The selector study with the MISE curve and the selections drawn
    from two separate passes over the trials."""
    mise = true_mise(spec, n, m, x, grid, config)
    selected_index = np.full(m, -1, dtype=np.int64)
    for j in range(m):
        sample = generate(spec, n, trial_rng(config.seed, j))
        bconfig = BootstrapConfig(B=B, grid=grid,
                                  seed=_bootstrap_seed(config.seed, j))
        try:
            selected_index[j] = mise_star(sample, x, bconfig).argmin_index
        except EstimationError:
            continue
    ok = selected_index >= 0
    return mise, selected_index, mise.values[selected_index[ok]] / mise.values.min()


class TestSelectorStudy:
    def test_every_selection_failing(self):
        # one row per trial: the pilot bandwidth needs two covariate
        # values, so every selection fails while the true MISE is scored
        study = bootstrap_vs_optimal(
            model1(), 1, 4, 5.0, log_grid(30.0, 60.0, 3), B=4,
            config=ExperimentConfig(seed=55),
        )
        assert study.selected_index.tolist() == [-1] * 4
        assert study.selected_index.dtype == np.int64
        assert study.selector_failures == 4
        assert study.ratios.size == 0
        assert study.histogram.tolist() == [0, 0, 0]
        assert np.all(np.isfinite(study.mise.values))

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

    @pytest.mark.parametrize("x,seed", [(5.0, 55), (18.0, 7)])
    def test_equals_two_pass_reference(self, x, seed):
        args = (model1(), 40, 6, x, log_grid(3.0, 50.0, 4), 8,
                ExperimentConfig(seed=seed))
        study = bootstrap_vs_optimal(*args)
        mise, selected_index, ratios = _two_pass_study(*args)
        assert np.array_equal(study.mise.values, mise.values)
        assert np.array_equal(study.mise.failures, mise.failures)
        assert np.array_equal(study.selected_index, selected_index)
        assert np.array_equal(study.ratios, ratios)


class TestTrialsGeneratedOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        # one entry per stream drawn: a chunk of trials is one call
        counted = []

        def counting(spec, n, rng):
            streams = list(rng)
            counted.extend([n] * len(streams))
            return generate(spec, n, streams)

        monkeypatch.setattr(experiments, "generate", counting)
        return counted

    @pytest.mark.parametrize("mode", [["--surface"], []],
                             ids=["surface", "curve"])
    def test_mise_with_two_x(self, calls, tmp_path, monkeypatch, capsys,
                             mode):
        monkeypatch.setenv("NPMIXCURE_OUTDIR", str(tmp_path))
        assert main(["mise", "--model", "1", "--n", "40", "--m", "3",
                     "--x", "-2", "--x", "6", "--grid", "8:30:3", *mode,
                     "--seed", "4", "--out", "mise.csv"]) == 0
        assert len(calls) == 3

    def test_selector_study(self, calls):
        bootstrap_vs_optimal(model1(), 40, 3, 5.0, log_grid(10.0, 50.0, 3),
                             B=4, config=ExperimentConfig(seed=55))
        assert len(calls) == 3

    @pytest.mark.parametrize("front", ["curve", "surface"])
    def test_no_covariate_draws_no_trial(self, calls, front):
        grid, cfg = log_grid(10.0, 50.0, 3), ExperimentConfig(seed=55)
        for x, match in [([], "at least one covariate"),
                         ((), "at least one covariate"),
                         ([5.0, np.nan], "must be finite"),
                         (np.nan, "must be finite")]:
            with pytest.raises(ValueError, match=match):
                if front == "curve":
                    true_mise(model1(), 40, 5, x, grid, cfg)
                else:
                    true_mise_two_bw(model1(), 40, 5, x, grid, grid, cfg)
        assert calls == []

    @pytest.mark.parametrize("front", ["curve", "surface", "study"])
    def test_no_trial_is_rejected_before_any_draw(self, calls, front):
        grid, cfg = log_grid(10.0, 50.0, 3), ExperimentConfig(seed=55)
        for n, m in [(40, 0), (40, -1), (0, 3), (-2, 3)]:
            with pytest.raises(ValueError, match=f"at least one trial of at "
                               f"least one row, got n={n}, m={m}"):
                if front == "curve":
                    true_mise(model1(), n, m, 5.0, grid, cfg)
                elif front == "surface":
                    true_mise_two_bw(model1(), n, m, 5.0, grid, grid, cfg)
                else:
                    bootstrap_vs_optimal(model1(), n, m, 5.0, grid, B=4,
                                         config=cfg)
        assert calls == []
