"""Property-based checks of the conditional product-limit estimator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from npmixcure import (
    CensoredSample,
    EmptyNeighborhoodError,
    beran,
    kaplan_meier,
)

# derandomized and without an example database: every run checks the
# same examples and writes nothing
_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)


@st.composite
def _samples(draw):
    """Small samples on a coarse time lattice, so ties are common."""
    n = draw(st.integers(1, 25))
    xs = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    ts = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    deltas = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return CensoredSample(np.array(xs), np.array(ts, dtype=float),
                          np.array(deltas))


@_SETTINGS
@given(_samples(), st.floats(-5.0, 5.0), st.floats(0.1, 12.0),
       st.randoms(use_true_random=False))
def test_beran_does_not_depend_on_row_order(sample, x, h, random):
    order = list(range(sample.n))
    random.shuffle(order)
    shuffled = CensoredSample(sample.x[order], sample.t[order],
                              sample.delta[order])
    try:
        curve = beran(sample, x, h)
    except EmptyNeighborhoodError:
        try:
            beran(shuffled, x, h)
        except EmptyNeighborhoodError:
            return
        raise AssertionError("only the shuffled sample has a neighborhood")
    again = beran(shuffled, x, h)
    assert np.array_equal(again.jump_times, curve.jump_times)
    # within a group of tied events the factors telescope to the same
    # product in any order, up to rounding
    assert np.all(np.abs(again.values - curve.values) <= 1e-12)


@_SETTINGS
@given(_samples(), st.floats(-5.0, 5.0))
def test_beran_reduces_to_kaplan_meier_as_h_grows(sample, x):
    # at |x - x_i| / h <= 1e-9 every kernel value rounds to K(0), so the
    # weights are exactly 1/n and the curves agree bit for bit
    h = 1e9 * (np.max(np.abs(x - sample.x)) + 1.0)
    curve = beran(sample, x, h)
    km = kaplan_meier(sample)
    assert np.array_equal(curve.jump_times, km.jump_times)
    assert np.array_equal(curve.values, km.values)
