"""Kernel density values, moments, and Nadaraya-Watson weights."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmixcure import EmptyNeighborhoodError, nw_weights
from npmixcure.kernels import SECOND_MOMENT, SQUARE_INTEGRAL, epanechnikov


class TestEpanechnikov:
    def test_pointwise_values(self):
        # 0.75 (1 - u^2) on [-1, 1]: K(0) = 0.75, K(0.5) = 0.75 * 0.75
        assert epanechnikov(0.0) == 0.75
        assert epanechnikov(0.5) == 0.5625
        assert epanechnikov(1.0) == 0.0
        assert epanechnikov(-1.0) == 0.0
        assert epanechnikov(3.7) == 0.0

    def test_symmetry(self):
        u = np.linspace(0.0, 1.5, 40)
        assert_allclose(
            epanechnikov(u), epanechnikov(-u)
        )

    def test_moments_match_quadrature(self):
        # trapezoid on a fine grid: mass 1, second moment 0.2, square
        # integral 0.6
        u = np.linspace(-1.0, 1.0, 200001)
        k = epanechnikov(u)
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

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            nw_weights(0.0, np.array([0.0]), 0.0)
        with pytest.raises(ValueError):
            nw_weights(0.0, np.array([0.0]), -1.0)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                nw_weights(0.0, np.array([0.0]),
                           np.array([1.0, bad]))
