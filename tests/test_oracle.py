"""Asymptotic bias/variance oracle built on quadrature."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmixcure import model1, model2
from npmixcure.exceptions import SupportGuardError
from npmixcure.oracle import (
    PopulationFunctions,
    amse,
    bias_variance_terms,
    h_amise,
    phi,
    phi1,
    phi2_terms,
    phi_y_derivatives,
    population_from_model,
)

from helpers import draw_conditional


def _pop1():
    return population_from_model(model1())


def _pop2():
    return population_from_model(model2())


def _exponential_population(p_value=1.0, cens_rate=0.0):
    """Analytically solvable population: exp(1) latency, optional
    exponential censoring, uniform covariate on (-20, 20)."""

    def sf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 1.0, np.exp(-cens_rate * t))

    def pdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 0.0, cens_rate * np.exp(-cens_rate * t))

    return PopulationFunctions(
        p=lambda x: np.asarray(p_value, dtype=float),
        s0=lambda t, x: np.exp(-np.maximum(np.asarray(t, dtype=float), 0.0)),
        latency_density=lambda t, x: np.where(
            np.asarray(t, dtype=float) < 0.0, 0.0, np.exp(-np.asarray(t, dtype=float))
        ),
        cens_sf=sf,
        cens_pdf=pdf,
        m=lambda x: np.asarray(1.0 / 40.0),
        m_prime=lambda x: np.asarray(0.0),
        s0_upper=lambda x: 40.0,
    )


class TestPhiTransforms:
    def test_no_censoring_exponential_closed_form(self):
        # with s0 = exp(-t), no censoring and no cure, the variance
        # transform is int_0^t exp(v) dv = e^t - 1
        pop = _exponential_population()
        assert_allclose(phi1(pop, 1.0, 3.0), math.e - 1.0, rtol=1e-10)
        assert_allclose(phi1(pop, 2.0, 3.0), math.exp(2.0) - 1.0, rtol=1e-10)

    def test_frozen_regression_values(self):
        pop = _pop1()
        assert_allclose(
            phi(pop, 1.0, 1.0, 0.0), 0.14036966353450386, rtol=1e-12
        )
        assert_allclose(phi1(pop, 1.0, 5.0), 3.918992489441498, rtol=1e-12)
        assert_allclose(
            phi1(pop, math.inf, 5.0), 15.06873192217282, rtol=1e-12
        )

    def test_vanishes_on_the_diagonal(self):
        # the two integrals coincide at y = x, so only quadrature error
        # remains
        pop1, pop2 = _pop1(), _pop2()
        for pop, t, x in [
            (pop1, 1.0, 5.0),
            (pop1, 0.4, -8.0),
            (pop2, 0.5, 5.0),
            (pop2, 1.0, 12.0),
        ]:
            assert abs(phi(pop, x, t, x)) < 1e-6

    def test_sign_flips_across_the_diagonal(self):
        # survival rises with x in model 1, so the transform changes
        # sign as y crosses x
        pop = _pop1()
        left = phi(pop, 4.0, 1.0, 5.0)
        right = phi(pop, 6.0, 1.0, 5.0)
        assert left * right < 0.0

    def test_decomposition_recombines_to_phi1(self):
        # the deliberately independent nested-quadrature route must
        # agree with the single integral, and its cross terms satisfy
        # D = B + C on the diagonal
        for pop, t, x in [(_pop1(), 1.0, 5.0), (_pop2(), 0.5, 5.0)]:
            a, b, c, d = phi2_terms(pop, t, x)
            assert_allclose(a - b - c + d, phi1(pop, t, x), atol=1e-6)
            assert_allclose(d, b + c, atol=1e-6)

    def test_monte_carlo_agreement(self):
        # draws at covariate y scored with weights at x estimate the
        # transform: the indicator piece minus the compensating
        # integral has conditional mean Phi(y, t, x)
        spec = model1()
        pop = population_from_model(spec)
        y, x, t_pt = 6.0, 5.0, 1.0
        rng = np.random.default_rng(616)
        T, delta = draw_conditional(spec, y, 200000, rng)
        grid = np.linspace(0.0, t_pt, 4001)
        dens = pop.h1_density(grid, x)
        surv = pop.one_minus_h(grid, x)
        integrand = dens / surv**2
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(grid))]
        )
        compensator = np.interp(np.minimum(T, t_pt), grid, cum)
        t_clip = np.clip(T, 0.0, t_pt)
        at_risk = pop.one_minus_h(t_clip, x)
        indicator = np.where((T <= t_pt) & (delta == 1), 1.0 / at_risk, 0.0)
        xi = indicator - compensator
        target = phi(pop, y, t_pt, x)
        se = xi.std(ddof=1) / math.sqrt(xi.size)
        assert abs(xi.mean() - target) < 4.0 * se

    def test_support_guard(self):
        pop = _pop1()
        with pytest.raises(SupportGuardError):
            phi1(pop, 20.0, 5.0)
        with pytest.raises(SupportGuardError):
            bias_variance_terms(pop, 20.0, 5.0)
        # infinity is exempt: the full-support transforms stay finite
        assert np.isfinite(phi1(pop, math.inf, 5.0))


class TestPhiDerivatives:
    def test_frozen_values(self):
        d = phi_y_derivatives(_pop1(), 1.0, 5.0)
        assert_allclose(d.first, 0.1381350844188456, rtol=1e-12)
        assert_allclose(d.second, -0.030778944108842157, rtol=1e-12)

    def test_step_halving_stability(self):
        d = phi_y_derivatives(_pop1(), 1.0, 5.0, halving_check=True)
        assert abs(d.first - d.first_coarse) < 1e-3 * max(1.0, abs(d.first))
        assert abs(d.second - d.second_coarse) < 1e-3 * max(1.0, abs(d.second))

    def test_halving_fields_absent_when_skipped(self):
        d = phi_y_derivatives(_pop1(), 1.0, 5.0, halving_check=False)
        assert d.first_coarse is None and d.second_coarse is None


class TestBiasVarianceTerms:
    def test_frozen_values_model1(self):
        t = bias_variance_terms(_pop1(), 1.0, 5.0)
        assert_allclose(t.b1, -0.007939899371243269, rtol=1e-12)
        assert_allclose(t.b2, 0.008272190380351771, rtol=1e-12)
        assert_allclose(t.v1, 10.431745546058542, rtol=1e-12)
        assert_allclose(t.v2, 4.638839826911348, rtol=1e-12)
        assert_allclose(t.v3, -3.547578738150929, rtol=1e-12)
        assert_allclose(t.b, 0.00033229100910850233, rtol=1e-9)
        assert_allclose(t.v, 7.975427896668033, rtol=1e-12)

    def test_frozen_values_model2(self):
        t = bias_variance_terms(_pop2(), 0.5, 5.0)
        assert_allclose(t.b1, 0.02257928271140522, rtol=1e-12)
        assert_allclose(t.b2, -0.022604094796080814, rtol=1e-12)
        assert_allclose(t.v1, 72.79615266890896, rtol=1e-12)
        assert_allclose(t.v2, 34.408970967306566, rtol=1e-12)
        assert_allclose(t.v3, -29.827802260091364, rtol=1e-12)

    def test_totals_are_plain_sums(self):
        t = bias_variance_terms(_pop1(), 0.8, 5.0)
        assert t.b == t.b1 + t.b2
        assert t.v == t.v1 + t.v2 + 2.0 * t.v3

    def test_covariance_piece_never_positive(self):
        for pop, points in [
            (_pop1(), [(0.3, -5.0), (1.0, 5.0), (2.0, 12.0)]),
            (_pop2(), [(0.3, -5.0), (0.5, 5.0), (1.0, 12.0)]),
        ]:
            for t_pt, x in points:
                terms = bias_variance_terms(pop, t_pt, x)
                assert terms.v3 <= 0.0
                assert terms.v1 >= 0.0 and terms.v2 >= 0.0
                # the total variance stays positive despite the
                # cancellation
                assert terms.v > 0.0

    def test_time_zero_components_all_vanish(self):
        t = bias_variance_terms(_pop1(), 0.0, 5.0)
        assert (t.b1, t.b2, t.v1, t.v2, t.v3) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_array_of_times_matches_a_loop(self):
        # h_amise batches its grid this way; each component must carry
        # the bits of the scalar call
        for pop, ts in [(_pop1(), np.linspace(0.05, 3.0, 7)),
                        (_pop2(), np.linspace(0.05, 0.9, 7))]:
            batch = bias_variance_terms(pop, ts, 5.0)
            for i, t_pt in enumerate(ts):
                one = bias_variance_terms(pop, float(t_pt), 5.0)
                for name in ("b1", "b2", "v1", "v2", "v3"):
                    assert getattr(batch, name)[i] == getattr(one, name)

    def test_array_of_times_reports_first_refused_time(self):
        with pytest.raises(SupportGuardError, match="at t=20.0,"):
            bias_variance_terms(_pop1(), np.array([1.0, 20.0, 30.0]), 5.0)

    def test_batched_square_rounds_like_python_pow(self):
        # the scalar code squared Python floats with **, i.e. C pow,
        # which can differ from v * v in the last bit
        from npmixcure.oracle import _pow2

        values = np.random.default_rng(3).uniform(-1e3, 1e3, 20000)
        assert list(_pow2(values)) == [v**2 for v in values.tolist()]

    def test_no_cure_mass_drops_terminal_pieces(self):
        pop = _exponential_population(p_value=1.0, cens_rate=0.3)
        t = bias_variance_terms(pop, 1.0, 5.0)
        assert t.b2 == 0.0 and t.v2 == 0.0 and t.v3 == 0.0
        assert t.b == t.b1
        assert t.v == t.v1

    def test_reuses_precomputed_full_support_pieces(self):
        from npmixcure.oracle import _infinity_pieces

        pop = _pop1()
        pieces = _infinity_pieces(pop, 5.0)
        a = bias_variance_terms(pop, 1.0, 5.0)
        b = bias_variance_terms(pop, 1.0, 5.0, _inf_pieces=pieces)
        assert (a.b1, a.b2, a.v1, a.v2, a.v3) == (b.b1, b.b2, b.v1, b.v2, b.v3)


class TestAmse:
    def test_frozen_report_at_optimum(self):
        rep = amse(_pop1(), 1.0, 5.0, 20.239946689590216, 200)
        assert_allclose(rep.bias_term, 0.00018529966676693956, rtol=1e-9)
        assert_allclose(rep.variance_term, 0.0011821317544432977, rtol=1e-12)
        assert_allclose(rep.amse, 0.0013674314212102372, rtol=1e-12)
        assert rep.amse == rep.bias_term + rep.variance_term
        assert rep.d_k == 0.2 and rep.c_k == 0.6

    def test_recomposition_from_terms(self):
        pop = _pop1()
        terms = bias_variance_terms(pop, 1.0, 5.0)
        h, n = 12.0, 400
        rep = amse(pop, 1.0, 5.0, h, n, terms=terms)
        assert rep.bias_term == 0.25 * h**4 * 0.2**2 * terms.b**2
        assert rep.variance_term == 0.6 / (n * h) * terms.v
        assert rep.terms is terms

    def test_validation(self):
        pop = _pop1()
        with pytest.raises(ValueError):
            amse(pop, 1.0, 5.0, 0.0, 200)
        with pytest.raises(ValueError):
            amse(pop, 1.0, 5.0, 10.0, 0)


class TestHAmise:
    def test_frozen_values(self):
        assert h_amise(_pop1(), 5.0, 200) == 20.239946689590216
        assert h_amise(_pop2(), 5.0, 200) == 25.4278432889283

    def test_sample_size_scaling_is_exact(self):
        # the bandwidth carries n only through n^(-1/5), so multiplying
        # n by 32 must halve it to the last bit of the power function
        pop = _pop1()
        h_small = h_amise(pop, 5.0, 200)
        h_large = h_amise(pop, 5.0, 6400)
        assert abs(h_small / h_large - 2.0) <= 1e-10

    def test_default_time_range_tracks_latency_quantile(self):
        from npmixcure.oracle import _s0_quantile_time

        pop = _pop1()
        q = _s0_quantile_time(pop, 5.0, 0.05)
        assert_allclose(float(pop.s0(q, 5.0)), 0.05, atol=1e-9)

    def test_validation(self):
        pop = _pop1()
        with pytest.raises(ValueError):
            h_amise(pop, 5.0, 0)
        with pytest.raises(ValueError):
            h_amise(pop, 5.0, 200, t_range=(2.0, 1.0))


class TestPopulationWiring:
    def test_survival_mixture_identity(self):
        pop = _pop1()
        spec = model1()
        t = np.linspace(0.0, 4.0, 9)
        px = spec.p(5.0)
        assert_allclose(
            pop.survival(t, 5.0), 1.0 - px + px * spec.s0(t, 5.0), atol=1e-15
        )

    def test_observable_survival_against_monte_carlo(self):
        # 1 - H(t|x) = S(t|x)(1 - G(t)) must match the empirical
        # survival of observed times drawn at that covariate
        spec = model1()
        pop = population_from_model(spec)
        T, _delta = draw_conditional(
            spec, 8.0, 1000000, np.random.default_rng(5150)
        )
        for t_pt in (0.5, 1.5):
            emp = (T > t_pt).mean()
            theo = float(pop.one_minus_h(t_pt, 8.0))
            se = math.sqrt(theo * (1.0 - theo) / T.size)
            assert abs(emp - theo) < 4.0 * se

    def test_fallback_density_and_support(self):
        spec = replace(model1(), latency_density=None, s0_upper=None)
        pop = population_from_model(spec)
        closed = population_from_model(model1())
        for t_pt in (0.5, 1.0, 2.0):
            assert_allclose(
                float(pop.latency_density(t_pt, 5.0)),
                float(closed.latency_density(t_pt, 5.0)),
                rtol=1e-5,
            )
        upper = pop.s0_upper(5.0)
        assert abs(upper - 4.605) < 1e-6
