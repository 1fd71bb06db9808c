"""Asymptotic bias/variance oracle built on quadrature."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import npmixcure
from npmixcure import ModelSpec, model1, model2, oracle
from npmixcure.exceptions import SupportGuardError
from npmixcure.numerics import adaptive_simpson
from npmixcure.oracle import (
    amse,
    bias_variance_terms,
    h_amise,
    phi1,
    phi_y_derivatives,
)

from helpers import (
    diagonal_integrands_reference,
    draw_conditional,
    load_benchmark_tracing,
    phi,
    phi2_terms,
    s0_quantile_time_scalar,
)


def _exponential_population(p_value=1.0, cens_rate=0.0):
    """Analytically solvable population: exp(1) latency, optional
    exponential censoring, uniform covariate on (-20, 20).  Only the
    oracle reads it, so it draws nothing."""

    def sf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 1.0, np.exp(-cens_rate * t))

    return ModelSpec(
        model_id="exponential",
        p=lambda x: np.asarray(p_value, dtype=float),
        s0=lambda t, x: np.exp(-np.maximum(np.asarray(t, dtype=float), 0.0)),
        latency_quantile=None,
        censoring=SimpleNamespace(sf=sf),
        covariate=SimpleNamespace(pdf=lambda x: np.asarray(1.0 / 40.0),
                                  dpdf=lambda x: np.asarray(0.0)),
        latency_density=lambda t, x: np.where(
            np.asarray(t, dtype=float) < 0.0, 0.0, np.exp(-np.asarray(t, dtype=float))
        ),
        s0_upper=lambda x: 40.0,
    )


class TestPhiTransforms:
    def test_no_censoring_exponential_closed_form(self):
        # with s0 = exp(-t), no censoring and no cure, the variance
        # transform is int_0^t exp(v) dv = e^t - 1
        spec = _exponential_population()
        assert_allclose(phi1(spec, 1.0, 3.0), math.e - 1.0, rtol=1e-10)
        assert_allclose(phi1(spec, 2.0, 3.0), math.exp(2.0) - 1.0, rtol=1e-10)

    def test_frozen_regression_values(self):
        spec = model1()
        assert_allclose(
            phi(spec, 1.0, 1.0, 0.0), 0.14036966353450386, rtol=1e-12
        )
        assert_allclose(phi1(spec, 1.0, 5.0), 3.918992489441498, rtol=1e-12)
        assert_allclose(
            phi1(spec, math.inf, 5.0), 15.06873192217282, rtol=1e-12
        )

    def test_vanishes_on_the_diagonal(self):
        # the two integrals coincide at y = x, so only quadrature error
        # remains
        spec1, spec2 = model1(), model2()
        for spec, t, x in [
            (spec1, 1.0, 5.0),
            (spec1, 0.4, -8.0),
            (spec2, 0.5, 5.0),
            (spec2, 1.0, 12.0),
        ]:
            assert abs(phi(spec, x, t, x)) < 1e-6

    def test_sign_flips_across_the_diagonal(self):
        # survival rises with x in model 1, so the transform changes
        # sign as y crosses x
        spec = model1()
        left = phi(spec, 4.0, 1.0, 5.0)
        right = phi(spec, 6.0, 1.0, 5.0)
        assert left * right < 0.0

    def test_decomposition_recombines_to_phi1(self):
        # the deliberately independent nested-quadrature route must
        # agree with the single integral, and its cross terms satisfy
        # D = B + C on the diagonal
        for spec, t, x in [(model1(), 1.0, 5.0), (model2(), 0.5, 5.0)]:
            a, b, c, d = phi2_terms(spec, t, x)
            assert_allclose(a - b - c + d, phi1(spec, t, x), atol=1e-6)
            assert_allclose(d, b + c, atol=1e-6)

    @pytest.mark.parametrize("population, t, x, pins", [
        (model1, 1.0, 5.0, ("0x1.f5a18bbfb5debp+1", "0x1.06fcb69b1ac84p+1",
                            "0x1.6801077827904p+2", "0x1.eb7f62c5e2c77p+2")),
        (model2, 0.5, 5.0, ("0x1.480dc1edcde22p-3", "0x1.538fd64d506e0p-7",
                            "0x1.2eff43b1fe8ebp-5", "0x1.83e3393a8cc5ap-5")),
    ], ids=["model1", "model2"])
    def test_decomposition_terms_frozen_bitwise(self, population, t, x, pins):
        # (A, B, C, D) to the last bit: the nested quadratures may be
        # reorganised, but not re-rounded
        terms = phi2_terms(population(), t, x)
        assert tuple(float.hex(v) for v in terms) == pins

    def test_monte_carlo_agreement(self):
        # draws at covariate y scored with weights at x estimate the
        # transform: the indicator piece minus the compensating
        # integral has conditional mean Phi(y, t, x)
        spec = model1()
        y, x, t_pt = 6.0, 5.0, 1.0
        rng = np.random.default_rng(616)
        T, delta = draw_conditional(spec, y, 200000, rng)
        grid = np.linspace(0.0, t_pt, 4001)
        dens = spec.h1_density(grid, x)
        surv = spec.one_minus_h(grid, x)
        integrand = dens / surv**2
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(grid))]
        )
        compensator = np.interp(np.minimum(T, t_pt), grid, cum)
        t_clip = np.clip(T, 0.0, t_pt)
        at_risk = spec.one_minus_h(t_clip, x)
        indicator = np.where((T <= t_pt) & (delta == 1), 1.0 / at_risk, 0.0)
        xi = indicator - compensator
        target = phi(spec, y, t_pt, x)
        se = xi.std(ddof=1) / math.sqrt(xi.size)
        assert abs(xi.mean() - target) < 4.0 * se

    def test_support_guard(self):
        spec = model1()
        with pytest.raises(SupportGuardError):
            phi1(spec, 20.0, 5.0)
        with pytest.raises(SupportGuardError):
            bias_variance_terms(spec, 20.0, 5.0)
        # infinity is exempt: the full-support transforms stay finite
        assert np.isfinite(phi1(spec, math.inf, 5.0))


# each call, run in a child process whose address space is capped: a
# NaN that reached a quadrature would split every node down to the
# depth cap and ask for 2^24-point levels
_NAN_CALLS = """
import math, resource
from npmixcure import (SupportGuardError, bias_variance_terms, model1,
                       model2, phi1, phi_y_derivatives)
from npmixcure.oracle import _guard
from helpers import phi, phi2_terms

def vsize():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024

limit = vsize() + (512 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
nan = math.nan
for spec in (model1(), model2()):
    for call in ("_guard(spec, 1.0, nan)", "_guard(spec, nan, 5.0)",
                 "phi(spec, nan, 1.0, 5.0)", "phi(spec, 5.0, 1.0, nan)",
                 "phi(spec, 5.0, nan, 5.0)", "phi1(spec, 1.0, nan)",
                 "phi1(spec, math.inf, nan)", "phi1(spec, nan, 5.0)",
                 "phi_y_derivatives(spec, 1.0, nan)",
                 "phi_y_derivatives(spec, [0.5, nan], 5.0)",
                 "phi2_terms(spec, 1.0, nan)", "phi2_terms(spec, nan, 5.0)",
                 "bias_variance_terms(spec, [1.0, 2.0], [5.0, nan])"):
        try:
            eval(call)
        except SupportGuardError:
            print("refused", call)
        except Exception as exc:
            print("FAILED", call, repr(exc))
        else:
            print("FAILED", call, "returned")
"""


def test_nan_time_or_covariate_is_refused_before_any_quadrature():
    src = str(Path(npmixcure.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _NAN_CALLS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 26
    assert all(line.startswith("refused ") for line in lines), lines


@pytest.mark.parametrize("population, t", [(model1, 1.0), (model2, 0.5)],
                         ids=["model1", "model2"])
def test_values_unchanged_under_the_benchmark_tracer(population, t):
    # the tracer wraps each quadrature's integrand as a function of the
    # points alone and rebinds the oracle's public names; every
    # transform must run under it and give its untraced bits
    tracing = load_benchmark_tracing()
    spec = population()
    calls = {
        "phi": lambda: phi(spec, 4.0, t, 5.0),
        "phi1": lambda: oracle.phi1(spec, t, 5.0),
        "phi_y_derivatives": lambda: oracle.phi_y_derivatives(spec, t, 5.0),
        "phi2_terms": lambda: phi2_terms(spec, t, 5.0),
        "h_amise": lambda: oracle.h_amise(spec, 5.0, 200),
    }
    for name, call in calls.items():
        plain = call()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = call()
        finally:
            tracer.uninstall()
        assert not tracer.missing, name
        assert traced == plain, name
        assert tracer.integrand_evals > 0, name


class TestPhiDerivatives:
    def test_frozen_values(self):
        d = phi_y_derivatives(model1(), 1.0, 5.0)
        assert_allclose(d.first, 0.1381350844188456, rtol=1e-12)
        assert_allclose(d.second, -0.030778944108842157, rtol=1e-12)

    def test_step_halving_stability(self):
        d = phi_y_derivatives(model1(), 1.0, 5.0)
        assert abs(d.first - d.first_coarse) < 1e-3 * max(1.0, abs(d.first))
        assert abs(d.second - d.second_coarse) < 1e-3 * max(1.0, abs(d.second))


class TestBiasVarianceTerms:
    def test_frozen_values_model1(self):
        t = bias_variance_terms(model1(), 1.0, 5.0)
        assert_allclose(t.b1, -0.007939899371243269, rtol=1e-12)
        assert_allclose(t.b2, 0.008272190380351771, rtol=1e-12)
        assert_allclose(t.v1, 10.431745546058542, rtol=1e-12)
        assert_allclose(t.v2, 4.638839826911348, rtol=1e-12)
        assert_allclose(t.v3, -3.547578738150929, rtol=1e-12)
        assert_allclose(t.b, 0.00033229100910850233, rtol=1e-9)
        assert_allclose(t.v, 7.975427896668033, rtol=1e-12)

    def test_frozen_values_model2(self):
        t = bias_variance_terms(model2(), 0.5, 5.0)
        assert_allclose(t.b1, 0.02257928271140522, rtol=1e-12)
        assert_allclose(t.b2, -0.022604094796080814, rtol=1e-12)
        assert_allclose(t.v1, 72.79615266890896, rtol=1e-12)
        assert_allclose(t.v2, 34.408970967306566, rtol=1e-12)
        assert_allclose(t.v3, -29.827802260091364, rtol=1e-12)

    def test_totals_are_plain_sums(self):
        t = bias_variance_terms(model1(), 0.8, 5.0)
        assert t.b == t.b1 + t.b2
        assert t.v == t.v1 + t.v2 + 2.0 * t.v3

    def test_covariance_piece_never_positive(self):
        for spec, points in [
            (model1(), [(0.3, -5.0), (1.0, 5.0), (2.0, 12.0)]),
            (model2(), [(0.3, -5.0), (0.5, 5.0), (1.0, 12.0)]),
        ]:
            for t_pt, x in points:
                terms = bias_variance_terms(spec, t_pt, x)
                assert terms.v3 <= 0.0
                assert terms.v1 >= 0.0 and terms.v2 >= 0.0
                # the total variance stays positive despite the
                # cancellation
                assert terms.v > 0.0

    def test_time_zero_components_all_vanish(self):
        t = bias_variance_terms(model1(), 0.0, 5.0)
        assert (t.b1, t.b2, t.v1, t.v2, t.v3) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_array_of_times_matches_a_loop(self):
        # h_amise batches its grid this way; each component must carry
        # the bits of the scalar call
        for spec, ts in [(model1(), np.linspace(0.05, 3.0, 7)),
                         (model2(), np.linspace(0.05, 0.9, 7))]:
            batch = bias_variance_terms(spec, ts, 5.0)
            for i, t_pt in enumerate(ts):
                one = bias_variance_terms(spec, float(t_pt), 5.0)
                for name in ("b1", "b2", "v1", "v2", "v3"):
                    assert getattr(batch, name)[i] == getattr(one, name)

    def test_array_of_times_reports_first_refused_time(self):
        with pytest.raises(SupportGuardError, match="at t=20.0,"):
            bias_variance_terms(model1(), np.array([1.0, 20.0, 30.0]), 5.0)

    def test_batched_square_rounds_like_python_pow(self):
        # the scalar code squared Python floats with **, i.e. C pow,
        # which can differ from v * v in the last bit
        from npmixcure.oracle import _pow2

        values = np.random.default_rng(3).uniform(-1e3, 1e3, 20000)
        assert list(_pow2(values)) == [v**2 for v in values.tolist()]

    def test_no_cure_mass_drops_terminal_pieces(self):
        spec = _exponential_population(p_value=1.0, cens_rate=0.3)
        t = bias_variance_terms(spec, 1.0, 5.0)
        assert t.b2 == 0.0 and t.v2 == 0.0 and t.v3 == 0.0
        assert t.b == t.b1
        assert t.v == t.v1

    @staticmethod
    def _count_quadratures(monkeypatch):
        import npmixcure.oracle as oracle

        calls = []

        def counted(f, a, b, *rest, **kwargs):
            calls.append(np.size(b))
            return adaptive_simpson(f, a, b, *rest, **kwargs)

        monkeypatch.setattr(oracle, "adaptive_simpson", counted)
        return calls

    @pytest.mark.parametrize("population", [
        model1, lambda: _exponential_population(1.0, 0.3),
    ], ids=["cure-mass", "no-cure-mass"])
    @pytest.mark.parametrize("t", [1.0, np.array([0.5, 1.0, 1.5])],
                             ids=["scalar", "array"])
    def test_one_set_of_quadratures_per_call(self, monkeypatch, population,
                                             t):
        # the times and, with cure mass, the full support share one
        # quadrature call: three integrand rows of len(t) + cured slots
        calls = self._count_quadratures(monkeypatch)
        spec = population()
        cured = 1.0 - float(spec.p(5.0)) > 1e-15
        bias_variance_terms(spec, t, 5.0)
        assert calls == [3 * (np.size(t) + cured)]

    def test_many_covariates_share_calls_eight_at_a_time(self, monkeypatch):
        calls = self._count_quadratures(monkeypatch)
        spec = model1()
        x = np.linspace(-9.0, 9.0, 10)
        t = np.where(x < 0.0, 0.5, math.inf)
        batch = bias_variance_terms(spec, t, x)
        assert calls == [3 * 8 * 2, 3 * 2 * 2]
        for i in range(x.size):
            one = bias_variance_terms(spec, float(t[i]), float(x[i]))
            assert [getattr(batch, name)[i]
                    for name in ("b1", "b2", "v1", "v2", "v3")] == [
                one.b1, one.b2, one.v1, one.v2, one.v3]

    def test_vanishing_covariate_density_is_a_guard_error(self, monkeypatch):
        calls = self._count_quadratures(monkeypatch)
        with pytest.raises(SupportGuardError,
                           match="covariate density vanishes at x=25.0"):
            bias_variance_terms(model1(), 1.0, 25.0)
        assert calls == []
        # the support guard still refuses first
        with pytest.raises(SupportGuardError, match="support floor"):
            bias_variance_terms(model1(), 20.0, 25.0)


_TIMES = {1: (0.3, 1.0, 2.5, 20.0, math.inf), 2: (0.2, 0.5, 0.8, 5.0, math.inf)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_broadcast_points_equal_scalar_calls(data):
    # any (t, x) shapes that broadcast: one bias_variance_terms or amse
    # call equals a loop of scalar amse calls under ==, and a refused
    # point anywhere refuses the call with the loop's first refusal (a
    # time below the floor at 20 or 5, no covariate density at 25)
    model = data.draw(st.sampled_from([1, 2]))
    spec = (model1, model2)[model - 1]()
    t_shape, x_shape = data.draw(st.sampled_from([
        ((3,), ()), ((), (2,)), ((3,), (3,)), ((1, 2), (2, 1)),
        ((2, 1), (2,)), ((), ()), ((2, 1), ()), ((1, 2), ())]))
    t = np.array(data.draw(st.lists(st.sampled_from(_TIMES[model]),
                                    min_size=int(np.prod(t_shape)),
                                    max_size=int(np.prod(t_shape)))),
                 dtype=float).reshape(t_shape)
    x = np.array(data.draw(st.lists(st.sampled_from([-12.5, 0.0, 5.0, 25.0]),
                                    min_size=int(np.prod(x_shape)),
                                    max_size=int(np.prod(x_shape)))),
                 dtype=float).reshape(x_shape)
    points = np.broadcast_arrays(t, x)
    expected, first_floor, first_density = [], None, None
    for tv, xv in zip(*(p.ravel().tolist() for p in points)):
        try:
            rep = amse(spec, tv, xv, 3.0, 400)
        except SupportGuardError as exc:
            if "floor" in str(exc):
                first_floor = first_floor or str(exc)
            else:
                first_density = first_density or str(exc)
            continue
        one = rep.terms
        expected.append([one.b1, one.b2, one.v1, one.v2, one.v3,
                         rep.bias_term, rep.variance_term, rep.amse])
    refusal = first_floor or first_density
    if refusal:
        for call in (bias_variance_terms, lambda *a: amse(*a, 3.0, 400)):
            with pytest.raises(SupportGuardError) as caught:
                call(spec, t, x)
            assert str(caught.value) == refusal
        return
    batch = bias_variance_terms(spec, t, x)
    rep = amse(spec, t, x, 3.0, 400)
    assert np.shape(batch.b1) == np.shape(rep.amse) == points[0].shape
    names = ("b1", "b2", "v1", "v2", "v3")
    got = np.stack([np.ravel(getattr(batch, name)) for name in names]
                   + [np.ravel(part) for part in (
                       rep.bias_term, rep.variance_term, rep.amse)], axis=1)
    assert got.tolist() == expected
    assert all(np.array_equal(getattr(rep.terms, name), getattr(batch, name))
               for name in names)
    if x.ndim == 0:
        # phi_y_derivatives takes times of any shape at one x
        batch = phi_y_derivatives(spec, t, float(x))
        ones = [phi_y_derivatives(spec, tv, float(x))
                for tv in t.ravel().tolist()]
        for name in ("first", "second", "first_coarse", "second_coarse"):
            assert np.shape(getattr(batch, name)) == t.shape
            assert np.ravel(getattr(batch, name)).tolist() == [
                getattr(one, name) for one in ones]


# populations of the stencil property and times none of them refuses
# on x in [-10, 15]; the covariate-free exponential ones return one row
# for the whole stencil, and without cure mass they take no inf
_STENCIL_POPULATIONS = {
    "model1": (model1, (0.3, 1.0, 2.5, math.inf)),
    "model2": (model2, (0.2, 0.5, 0.8, math.inf)),
    "exponential": (lambda: _exponential_population(1.0, 0.3), (0.3, 1.0, 2.5)),
    "exponential-cured": (lambda: _exponential_population(0.6, 0.3),
                          (0.3, 1.0, 2.5, math.inf)),
}


@pytest.mark.parametrize("population", sorted(_STENCIL_POPULATIONS))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stacked_stencil_equals_one_call_per_covariate(population, data):
    # the integrand rows evaluate the population once on the stacked
    # stencil; swapping in the reference, which calls it at x + step,
    # x - step and x in turn, changes no bit.  Up to 12 distinct x
    # cross the 8 of one quadrature call
    factory, pool = _STENCIL_POPULATIONS[population]
    spec = factory()
    size = data.draw(st.integers(1, 12))
    xs = data.draw(st.lists(st.floats(-10.0, 15.0), min_size=size,
                            max_size=size, unique=True))
    points = [(tv, xv) for xv in xs for tv in data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=3))]
    t, x = np.array(points).T

    def outputs():
        terms = bias_variance_terms(spec, t, x)
        derivatives = phi_y_derivatives(spec, t[x == xs[0]], xs[0])
        return [np.asarray(getattr(out, field.name)).tolist()
                for out in (terms, derivatives)
                for field in dataclasses.fields(out)]

    got = outputs()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_diagonal_integrands",
                      diagonal_integrands_reference)
        assert outputs() == got


class TestAmse:
    def test_frozen_report_at_optimum(self):
        rep = amse(model1(), 1.0, 5.0, 20.239946689590216, 200)
        assert_allclose(rep.bias_term, 0.00018529966676693956, rtol=1e-9)
        assert_allclose(rep.variance_term, 0.0011821317544432977, rtol=1e-12)
        assert_allclose(rep.amse, 0.0013674314212102372, rtol=1e-12)
        assert rep.amse == rep.bias_term + rep.variance_term

    def test_recomposition_from_terms(self):
        # a scalar point gives Python floats, b squared with C pow
        spec = model1()
        h, n = 12.0, 400
        rep = amse(spec, 1.0, 5.0, h, n)
        terms = rep.terms
        assert terms == bias_variance_terms(spec, 1.0, 5.0)
        assert type(rep.bias_term) is float and type(rep.amse) is float
        assert rep.bias_term == 0.25 * h**4 * 0.2**2 * terms.b**2
        assert rep.variance_term == 0.6 / (n * h) * terms.v
        assert rep.amse == rep.bias_term + rep.variance_term

    def test_validation(self):
        spec = model1()
        for h in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                amse(spec, 1.0, 5.0, h, 200)
        for n in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite n >= 1"):
                amse(spec, 1.0, 5.0, 10.0, n)


class TestHAmise:
    def test_frozen_values(self):
        assert h_amise(model1(), 5.0, 200) == 20.239946689590216
        assert h_amise(model2(), 5.0, 200) == 25.4278432889283

    def test_sample_size_scaling_is_exact(self):
        # the bandwidth carries n only through n^(-1/5), so multiplying
        # n by 32 must halve it to the last bit of the power function
        spec = model1()
        h_small = h_amise(spec, 5.0, 200)
        h_large = h_amise(spec, 5.0, 6400)
        assert abs(h_small / h_large - 2.0) <= 1e-10

    def test_default_time_range_tracks_latency_quantile(self):
        from npmixcure.oracle import _s0_quantile_time

        spec = model1()
        q = _s0_quantile_time(spec, 5.0, 0.05)
        assert_allclose(float(spec.s0(q, 5.0)), 0.05, atol=1e-9)

    @pytest.mark.parametrize("factory", [
        model1, model2, lambda: _exponential_population(0.6, 0.3),
    ], ids=["model1", "model2", "exponential"])
    def test_quantile_time_equals_the_scalar_bisection(self, factory):
        spec = factory()
        for x in np.linspace(-20.0, 20.0, 9):
            for level in (1e-6, 0.05, 0.3, 0.5, 0.9, 1.0 - 1e-9):
                assert (oracle._s0_quantile_time(spec, x, level)
                        == s0_quantile_time_scalar(spec, x, level))

    def test_validation(self):
        spec = model1()
        for n in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="n must be finite"):
                h_amise(spec, 5.0, n)

    def test_vanishing_bias_integral(self):
        # nothing in this population depends on the covariate, so the
        # finite-difference y-derivatives, and with them the bias, are 0
        with pytest.raises(ValueError, match="bias integral vanished"):
            h_amise(_exponential_population(), 5.0, 200)

    def test_latency_never_reaching_the_level(self):
        # the bracket's upper end must take the latency survival to 0.05
        spec = dataclasses.replace(model1(), s0_upper=lambda x: 0.01)
        with pytest.raises(ValueError,
                           match="latency survival never reaches the level"):
            h_amise(spec, 5.0, 200)


class TestPopulationWiring:
    def test_survival_mixture_identity(self):
        spec = model1()
        t = np.linspace(0.0, 4.0, 9)
        px = spec.p(5.0)
        assert_allclose(
            spec.survival(t, 5.0), 1.0 - px + px * spec.s0(t, 5.0), atol=1e-15
        )

    def test_observable_survival_against_monte_carlo(self):
        # 1 - H(t|x) = S(t|x)(1 - G(t)) must match the empirical
        # survival of observed times drawn at that covariate
        spec = model1()
        T, _delta = draw_conditional(
            spec, 8.0, 1000000, np.random.default_rng(5150)
        )
        for t_pt in (0.5, 1.5):
            emp = (T > t_pt).mean()
            theo = float(spec.one_minus_h(t_pt, 8.0))
            se = math.sqrt(theo * (1.0 - theo) / T.size)
            assert abs(emp - theo) < 4.0 * se

    @pytest.mark.parametrize("factory", [model1, model2])
    def test_closed_forms_match_s0(self, factory):
        spec = factory()
        for x in (-10.0, 5.0, 18.0):
            # the density against a central difference of s0 where the
            # latency survival is 0.9, 0.5 and 0.1
            t = spec.latency_quantile(np.array([0.9, 0.5, 0.1]), x)
            step = 1e-6 * np.maximum(1.0, t)
            slope = (spec.s0(t - step, x) - spec.s0(t + step, x)) / (2.0 * step)
            assert_allclose(spec.latency_density(t, x), slope, rtol=1e-6)
            # the support end against where s0 falls to 1e-13, found by
            # doubling then bisection: at or beyond it, and close (model
            # 2 ends where its slow component is 1e-14, 1.5% further)
            hi = 1.0
            while spec.s0(hi, x) > 1e-13:
                hi *= 2.0
            lo = 0.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if spec.s0(mid, x) > 1e-13 else (lo, mid)
            upper = spec.s0_upper(x)
            assert hi <= upper <= 1.02 * hi
            assert spec.s0(upper, x) <= 1e-13
