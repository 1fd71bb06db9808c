"""Benchmark data-generating processes."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmixcure import (
    COVARIATE_WINDOW,
    ExponentialCensoring,
    NoCensoring,
    UniformCovariate,
    generate,
    model1,
    model2,
)
from npmixcure.models import MODEL1_TAU0, trial_rng

from helpers import draw_conditional


class TestCensoringAndCovariate:
    def test_exponential_censoring_closed_forms(self):
        c = ExponentialCensoring()
        assert c.mean == 10.0 / 3.0
        assert c.rate == 0.3
        # sf(1) = exp(-0.3) = 0.7408182206817179
        assert_allclose(c.sf(1.0), math.exp(-0.3), rtol=0, atol=1e-15)
        assert c.sf(-2.0) == 1.0
        assert c.pdf(-2.0) == 0.0
        t = np.linspace(0.0, 8.0, 17)
        assert_allclose(c.cdf(t) + c.sf(t), 1.0, atol=1e-15)
        assert_allclose(c.pdf(t), c.rate * c.sf(t), atol=1e-15)

    def test_no_censoring_is_degenerate_at_infinity(self):
        c = NoCensoring()
        rng = np.random.default_rng(0)
        assert np.all(np.isinf(c.sample(rng, 5)))
        assert c.sf(1e12) == 1.0
        assert c.cdf(3.0) == 0.0

    def test_uniform_covariate_density(self):
        cov = UniformCovariate()
        assert cov.lo == -20.0 and cov.hi == 20.0
        assert_allclose(cov.pdf(0.0), 1.0 / 40.0)
        assert cov.pdf(25.0) == 0.0
        assert cov.dpdf(3.0) == 0.0
        rng = np.random.default_rng(5)
        draws = cov.sample(rng, 1000)
        assert draws.min() >= -20.0 and draws.max() <= 20.0

    def test_window_constant(self):
        assert COVARIATE_WINDOW == (-10.0, 20.0)


class TestModel1:
    def test_uncured_probability_values(self):
        spec = model1()
        # logistic(0.476) = 1 / (1 + exp(-0.476)) = 0.6168028891971089
        assert_allclose(spec.p(0.0), 0.6168028891971089, rtol=0, atol=1e-15)
        assert_allclose(
            spec.p(np.array([-20.0, 20.0])),
            [1.0 / (1.0 + math.exp(-(0.476 + 0.358 * -20.0))),
             1.0 / (1.0 + math.exp(-(0.476 + 0.358 * 20.0)))],
            rtol=1e-14,
        )
        grid = np.linspace(-20.0, 20.0, 101)
        p = spec.p(grid)
        assert np.all((p > 0.0) & (p < 1.0))
        assert np.all(np.diff(p) > 0.0)

    def test_latency_truncated_exponential(self):
        spec = model1()
        # lam(0) = exp(0.5); with tail = exp(-lam * 4.605),
        # s0(1|0) = (exp(-lam) - tail) / (1 - tail) = 0.19188812378512118
        assert_allclose(
            spec.s0(1.0, 0.0), 0.19188812378512118, rtol=0, atol=1e-15
        )
        assert spec.s0(0.0, 7.0) == 1.0
        assert spec.s0(-0.5, 7.0) == 1.0
        assert spec.s0(MODEL1_TAU0, 7.0) == 0.0
        assert spec.s0(9.9, 7.0) == 0.0
        assert spec.s0_upper(7.0) == MODEL1_TAU0
        assert spec.params["tau0"] == 4.605

    def test_quantile_inverts_survival(self):
        spec = model1()
        u = np.linspace(0.02, 0.98, 25)
        for x in (-15.0, 0.0, 5.0, 18.0):
            q = spec.latency_quantile(u, x)
            assert_allclose(spec.s0(q, x), u, atol=1e-12)
            assert np.all((q > 0.0) & (q < MODEL1_TAU0))

    def test_density_matches_numerical_slope(self):
        spec = model1()
        t = np.linspace(0.1, 4.0, 30)
        eps = 1e-6
        slope = (spec.s0(t + eps, 5.0) - spec.s0(t - eps, 5.0)) / (2.0 * eps)
        assert_allclose(spec.latency_density(t, 5.0), -slope, rtol=1e-6)
        assert spec.latency_density(5.0, 5.0) == 0.0


class TestModel2:
    def test_uncured_probability_values(self):
        spec = model2()
        # logistic(0.0476) = 0.5118977536303054
        assert_allclose(spec.p(0.0), 0.5118977536303054, rtol=0, atol=1e-15)
        z = 0.0476 - 0.2558 * 5.0 - 0.0027 * 25.0 + 0.0020 * 125.0
        assert_allclose(spec.p(5.0), 1.0 / (1.0 + math.exp(-z)), rtol=1e-14)

    def test_latency_mixture_form(self):
        spec = model2()
        # s0(t|x) = (exp(-alpha(x) t^5) + exp(-100 t^5)) / 2 with
        # alpha(x) = 0.2 exp((x + 20) / 40); alpha(0) = 0.2 e^0.5
        alpha0 = 0.2 * math.exp(0.5)
        assert_allclose(alpha0, 0.32974425414002567, rtol=0, atol=1e-15)
        for t in (0.2, 0.5, 1.0, 1.5):
            w = t**5
            expect = 0.5 * (math.exp(-alpha0 * w) + math.exp(-100.0 * w))
            assert_allclose(spec.s0(t, 0.0), expect, rtol=1e-13)
        assert spec.s0(0.0, 0.0) == 1.0
        assert spec.s0(-1.0, 0.0) == 1.0

    def test_quantile_inverts_survival(self):
        spec = model2()
        u = np.linspace(0.02, 0.98, 25)
        for x in (-15.0, 0.0, 5.0, 18.0):
            q = spec.latency_quantile(u, x)
            assert_allclose(spec.s0(q, x), u, atol=1e-10)
            assert np.all(np.diff(q) < 0.0)

    def test_support_upper_end_is_numerically_zero(self):
        spec = model2()
        for x in (-10.0, 0.0, 10.0, 20.0):
            upper = spec.s0_upper(x)
            assert spec.s0(upper, x) <= 1e-12

    def test_density_matches_numerical_slope(self):
        spec = model2()
        t = np.linspace(0.2, 1.2, 25)
        eps = 1e-7
        slope = (spec.s0(t + eps, 5.0) - spec.s0(t - eps, 5.0)) / (2.0 * eps)
        assert_allclose(spec.latency_density(t, 5.0), -slope, rtol=1e-5)


class TestGeneration:
    @pytest.mark.parametrize("factory", [model1, model2])
    def test_deterministic_given_stream(self, factory):
        spec = factory()
        a = generate(spec, 200, trial_rng(314, 0))
        b = generate(spec, 200, trial_rng(314, 0))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.delta, b.delta)
        c = generate(spec, 200, trial_rng(314, 1))
        assert not np.array_equal(a.t, c.t)

    def test_sample_shape_and_ranges(self):
        spec = model1()
        s = generate(spec, 500, trial_rng(7, 0))
        assert s.t.shape == (500,)
        assert np.all(s.t >= 0.0)
        assert np.all(np.isfinite(s.t))
        assert np.all((s.x > -20.0) & (s.x < 20.0))
        assert set(np.unique(s.delta)) <= {0, 1}
        frac = 1.0 - s.delta.mean()
        assert 0.3 < frac < 0.8

    def test_events_obey_latency_distribution(self):
        # conditional draws at a fixed covariate match s0 closely:
        # Kolmogorov distance under 0.01 at this size
        spec = model1()
        rng = np.random.default_rng(808)
        uncured = rng.random(100000) < spec.p(5.0)
        y = spec.latency_quantile(rng.random(int(uncured.sum())), 5.0)
        grid = np.linspace(0.1, 4.0, 40)
        emp = np.array([(y > g).mean() for g in grid])
        assert np.max(np.abs(emp - spec.s0(grid, 5.0))) < 0.01

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            generate(model1(), 0, trial_rng(1, 0))

    def test_no_censoring_with_cure_mass_is_rejected(self):
        from dataclasses import replace

        spec = replace(model1(), censoring=NoCensoring())
        with pytest.raises(ValueError):
            generate(spec, 400, trial_rng(2, 0))

    def test_conditional_draw_helper_tracks_population(self):
        # sanity for the test helper itself: at x=5 the uncured
        # probability is 0.906 and latency times are short relative to
        # the censoring mean, so roughly a fifth end up censored
        spec = model1()
        t, delta = draw_conditional(spec, 5.0, 50000, np.random.default_rng(21))
        assert 0.15 < 1.0 - delta.mean() < 0.35
        assert np.all(t >= 0.0)
