"""Kernel density values, moments, and Nadaraya-Watson weights."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose

from npmixcure import EmptyNeighborhoodError, nw_weights
from npmixcure.kernels import SECOND_MOMENT, SQUARE_INTEGRAL, _kernel_rows

from helpers import epanechnikov_reference, nw_weights_reference

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
# quarters: the ends x - h and x + h of a window are exact, so u = -1 and
# u = 1 exactly
_POINTS = st.floats(-30.0, 30.0) | st.integers(-120, 120).map(lambda i: i / 4)
_BANDWIDTHS = (st.floats(0.01, 40.0)
               | st.integers(1, 160).map(lambda i: i / 4))


@st.composite
def _weight_problems(draw):
    """``x`` and ``h`` each a scalar or K values; covariates that include
    the ends of the first pair's window."""
    k = draw(st.integers(1, 4))

    def scalar_or_k(values):
        if draw(st.booleans()):
            return draw(values)
        return np.array(draw(st.lists(values, min_size=k, max_size=k)))

    x, h = scalar_or_k(_POINTS), scalar_or_k(_BANDWIDTHS)
    x0, h0 = float(np.ravel(x)[0]), float(np.ravel(h)[0])
    ends = draw(st.lists(st.sampled_from([x0 - h0, x0 + h0]), max_size=2))
    xs = draw(st.lists(_POINTS, min_size=1, max_size=30))
    return x, np.array(xs + ends), h


@st.composite
def _kernel_problems(draw):
    """Points of up to two dimensions, 1-d covariates, and one bandwidth
    or one per point; any float, NaN and inf included."""
    points = draw(arrays(np.float64, array_shapes(min_dims=0, max_dims=2),
                         elements=st.floats()))
    xs = draw(arrays(np.float64, array_shapes(max_dims=1),
                     elements=st.floats()))
    hs = draw(arrays(np.float64, draw(st.sampled_from([(), points.shape])),
                     elements=st.floats()))
    return points, xs, hs


def _kernel(u):
    """The kernel at ``u``, as ``_kernel_rows`` computes ``(u - 0) / 1``."""
    return _kernel_rows(np.asarray(u, dtype=float), np.zeros(1),
                        np.ones(()))[..., 0]


class TestEpanechnikov:
    def test_pointwise_values(self):
        # 0.75 (1 - u^2) on [-1, 1]: K(0) = 0.75, K(0.5) = 0.75 * 0.75
        assert _kernel(0.0) == 0.75
        assert _kernel(0.5) == 0.5625
        assert _kernel(1.0) == 0.0
        assert _kernel(-1.0) == 0.0
        assert _kernel(3.7) == 0.0

    def test_symmetry(self):
        u = np.linspace(0.0, 1.5, 40)
        assert_allclose(
            _kernel(u), _kernel(-u)
        )

    def test_moments_match_quadrature(self):
        # trapezoid on a fine grid: mass 1, second moment 0.2, square
        # integral 0.6
        u = np.linspace(-1.0, 1.0, 200001)
        k = _kernel(u)
        assert_allclose(np.trapezoid(k, u), 1.0, atol=1e-9)
        assert_allclose(
            np.trapezoid(u * u * k, u), SECOND_MOMENT, atol=1e-9
        )
        assert_allclose(
            np.trapezoid(k * k, u), SQUARE_INTEGRAL, atol=1e-9
        )

    def test_declared_constants(self):
        assert SECOND_MOMENT == 0.2
        assert SQUARE_INTEGRAL == 0.6

    @_SETTINGS
    @given(_kernel_problems())
    @example((np.array(1.0), np.array([0.0]), np.array(1.0)))
    @example((np.array([-1.0, 1.0, -0.0, np.inf]), np.array([0.0, np.nan]),
              np.array([1.0, 1.0, 2.0, 0.5])))
    def test_bit_for_bit_equal_to_the_reference(self, problem):
        points, xs, hs = problem
        before = [a.tobytes() for a in problem]
        with np.errstate(all="ignore"):  # inf, nan and zero bandwidths
            got = _kernel_rows(points, xs, hs)
            expected = epanechnikov_reference(
                (points[..., None] - xs) / hs[..., None])
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert [a.tobytes() for a in problem] == before


class TestNwWeights:
    def test_hand_computed_weights(self):
        # x=0, h=2, points [0, 1, 10]: raw kernel values
        # K(0)=0.75, K(0.5)=0.5625, K(5)=0 -> normalized 4/7, 3/7, 0
        weights = nw_weights(0.0, np.array([0.0, 1.0, 10.0]), 2.0)
        assert_allclose(weights, [4.0 / 7.0, 3.0 / 7.0, 0.0], atol=1e-15)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            xs = rng.uniform(-5.0, 5.0, size=rng.integers(2, 30))
            weights = nw_weights(0.0, xs, 6.0)
            assert_allclose(weights.sum(), 1.0, atol=1e-12)

    def test_empty_neighborhood_flag(self):
        with pytest.raises(EmptyNeighborhoodError,
                           match="bandwidth 2.0 of x=100.0"):
            nw_weights(100.0, np.array([0.0, 1.0]), 2.0)

    @_SETTINGS
    @given(_weight_problems())
    @example((0.5, np.array([-0.5, 1.5, 0.75]), 1.0))
    @example((np.array([0.0, 4.0]), np.array([-2.0, 2.0, 1.0]), 2.0))
    @example((3.0, np.array([2.5, 3.5, 9.0]), np.array([0.5, 8.0])))
    def test_bit_for_bit_equal_to_the_reference(self, problem):
        before = [np.array(a) for a in problem]
        try:
            expected = nw_weights_reference(*problem)
        except EmptyNeighborhoodError as err:
            with pytest.raises(EmptyNeighborhoodError) as raised:
                nw_weights(*problem)
            assert str(raised.value) == str(err)
        else:
            got = nw_weights(*problem)
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert got.flags.owndata and got.flags.c_contiguous
        for a, b in zip(problem, before):
            assert np.asarray(a).tobytes() == b.tobytes()

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            nw_weights(0.0, np.array([0.0]), 0.0)
        with pytest.raises(ValueError):
            nw_weights(0.0, np.array([0.0]), -1.0)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                nw_weights(0.0, np.array([0.0]),
                           np.array([1.0, bad]))

    def test_empty_covariates_rejected(self):
        with pytest.raises(ValueError, match="xs must be nonempty"):
            nw_weights(0.0, np.array([]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_covariate_rejected(self, bad):
        # a NaN point would give NaN weights, not an empty neighbourhood
        for x, xs in [(bad, [0.0, 1.0]), ([0.5, bad], [0.0, 1.0]),
                      (0.5, [0.0, bad])]:
            with pytest.raises(ValueError, match="must be finite"):
                nw_weights(x, np.array(xs), 1.0)
