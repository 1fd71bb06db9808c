"""Property-based checks of the conditional product-limit estimator, of
the bootstrap's resample draw, of model 2's latency quantile and of the
command-line sample round trip."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npmixcure import (
    BootstrapConfig,
    CensoredSample,
    DatasetSchema,
    DegenerateCureError,
    EmptyNeighborhoodError,
    EstimationError,
    NoUncensoredError,
    beran,
    generate,
    ingest,
    kaplan_meier,
    latency_estimate,
    mise_star,
    model1,
    model2,
)
from npmixcure import bootstrap
from npmixcure.bootstrap import BandwidthGrid, _ResamplingKit
from npmixcure.cli import main
from npmixcure.cure import _latency_fit
from npmixcure.models import trial_rng
from npmixcure.survival import (
    StepSurvivalCurve,
    _at_event_times,
    _beran_rows,
)

from helpers import (
    ReferenceKit,
    assert_same_outcomes,
    epanechnikov_reference,
    grid_columns,
    mise_star_alone,
    mise_star_loop,
    model2_quantile_grouped,
)

# derandomized and without an example database: every run checks the
# same examples and writes nothing
_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)


@st.composite
def _samples(draw, covariates=st.floats(-5.0, 5.0)):
    """Small samples on a coarse time lattice, so ties are common."""
    n = draw(st.integers(1, 25))
    xs = draw(st.lists(covariates, min_size=n, max_size=n))
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


@_SETTINGS
@given(_samples(st.integers(-5, 5)), st.integers(-5, 5), st.floats(0.1, 12.0),
       st.integers(-3, 3), st.sampled_from([1.0, -1.0]), st.integers(-50, 50))
def test_beran_is_equivariant_under_affine_covariate_maps(sample, x, h, k,
                                                          sign, b):
    # x -> a x + b with h -> |a| h, a = +-2^k: on the integer lattice the
    # moved differences a (x - x_i) and the bandwidth |a| h are exact, so
    # every kernel argument keeps its magnitude and the curves their bits
    a = sign * 2.0**k
    moved = CensoredSample(a * sample.x + b, sample.t, sample.delta)
    try:
        curve = beran(sample, x, h)
    except EmptyNeighborhoodError:
        try:
            beran(moved, a * x + b, abs(a) * h)
        except EmptyNeighborhoodError:
            return
        raise AssertionError("only the moved sample has a neighborhood")
    again = beran(moved, a * x + b, abs(a) * h)
    assert np.array_equal(again.jump_times, curve.jump_times)
    assert np.array_equal(again.values, curve.values)


# strictly increasing time maps that keep the lattice's distinct times
# distinct: scalings by a power of two are exact, the others round
_TIME_MAPS = {
    "scale-down": lambda t: t * 2.0**-40,
    "scale-up": lambda t: t * 2.0**40,
    "sqrt": np.sqrt,
    "expm1": np.expm1,
    "cubic": lambda t: t**3 + 0.5 * t,
}


@_SETTINGS
@given(_samples(), st.floats(-5.0, 5.0), st.floats(0.1, 12.0),
       st.sampled_from(sorted(_TIME_MAPS)))
def test_increasing_time_map_moves_only_the_jump_times(sample, x, h, name):
    # the product-limit values depend on the times only through their
    # order and ties, so they stay equal bit for bit
    moved = _TIME_MAPS[name]
    assert np.all(np.diff(moved(np.arange(7.0))) > 0.0)
    mapped = CensoredSample(sample.x, moved(sample.t), sample.delta)
    for fit in (kaplan_meier, lambda s: beran(s, x, h)):
        try:
            curve = fit(sample)
        except EmptyNeighborhoodError:
            continue
        again = fit(mapped)
        assert np.array_equal(again.values, curve.values)
        assert np.array_equal(again.jump_times, moved(curve.jump_times))


@_SETTINGS
@given(_samples(), st.floats(-5.0, 5.0), st.floats(0.1, 12.0))
def test_one_bandwidth_latency_is_a_proper_survival_curve(sample, x, h):
    # exactly, with ties: every jump value S lies between the plateau c
    # and 1, rounding is monotone and fl(1 - c) is p_hat, so
    # (S - c) / p_hat stays in [0, 1], never rises, and is 0 at the end
    try:
        fit = latency_estimate(sample, x, h)
    except (NoUncensoredError, EmptyNeighborhoodError, DegenerateCureError):
        return
    values = fit.latency.values
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) <= 0.0)
    assert fit.latency.evaluate(fit.t_max_uncensored) == 0.0


@_SETTINGS
@given(_samples() | _samples(st.integers(-5, 5)), st.floats(-5.0, 5.0),
       st.floats(0.1, 12.0))
def test_clamping_a_one_bandwidth_latency_changes_no_bit(sample, x, h):
    # the curve is already in [0, 1] and nonincreasing (above), so the
    # clip and the running minimum of estimate --clamp leave it alone
    try:
        fit = latency_estimate(sample, x, h)
    except (NoUncensoredError, EmptyNeighborhoodError, DegenerateCureError):
        return
    clamped = _latency_fit(sample, x, h, None, True)
    assert clamped.clamped
    assert clamped.latency.values.tobytes() == fit.latency.values.tobytes()


@_SETTINGS
@given(_samples(), st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4),
       st.lists(st.floats(0.05, 12.0), min_size=1, max_size=5),
       st.integers(2, 30))
def test_stacked_covariate_rows_equal_separate_fits(sample, xs, hs, points):
    # the Monte Carlo experiments fit every (x, h) of a trial in one call
    if not np.any(sample.delta == 1):
        return
    order = np.lexsort((-sample.delta, sample.t))
    t, delta, x_sorted = sample.t[order], sample.delta[order], sample.x[order]
    hs = np.array(hs)
    tgrid = np.linspace(0.0, 7.0, points)

    def fit(points_x):
        raw = epanechnikov_reference(
            (np.array(points_x)[:, None, None] - x_sorted) / hs[:, None])
        return _beran_rows(delta, raw.reshape(-1, sample.n),
                           grid_columns(t, tgrid))

    on_grid, cured, fitted = fit(xs)
    separate = [fit([x]) for x in xs]
    assert np.array_equal(on_grid, np.concatenate([s[0] for s in separate]))
    assert np.array_equal(cured, np.concatenate([s[1] for s in separate]))
    assert np.array_equal(fitted, np.concatenate([s[2] for s in separate]))


@st.composite
def _resample_stacks(draw):
    """(b, n) samples on a coarse time lattice, each with an event, and
    a (b, K, n) stack of kernel values with some all-zero rows."""
    b, k, n = (draw(st.integers(lo, hi)) for lo, hi in ((1, 5), (1, 5),
                                                           (1, 20)))
    t = np.array(draw(st.lists(st.integers(0, 4), min_size=b * n,
                               max_size=b * n)), dtype=float).reshape(b, n)
    delta = np.array(draw(st.lists(st.integers(0, 1), min_size=b * n,
                                   max_size=b * n))).reshape(b, n)
    delta[np.arange(b), draw(st.lists(st.integers(0, n - 1), min_size=b,
                                      max_size=b))] = 1
    # kernel values come from a drawn seed: drawing up to 500 floats
    # one by one would take seconds
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((b, k, n)) * (rng.random((b, k, n)) < 0.7)
    empty = draw(st.lists(st.booleans(), min_size=b * k, max_size=b * k))
    raw[np.array(empty).reshape(b, k)] = 0.0
    return t, delta, raw


@_SETTINGS
@given(_resample_stacks(), st.integers(2, 30))
def test_resample_stack_equals_separate_fits(stack, points):
    # the bootstrap fits a chunk of resamples, each in its own time
    # order, in one call
    t, delta, raw = stack
    order = np.lexsort((-delta, t), axis=-1)
    t = np.take_along_axis(t, order, axis=-1)
    delta = np.take_along_axis(delta, order, axis=-1)
    raw = np.take_along_axis(raw, order[:, None], axis=-1)
    tgrid = np.linspace(0.0, 5.0, points)
    on_grid, cured, fitted = _beran_rows(delta, raw, grid_columns(t, tgrid))
    separate = [_beran_rows(delta[r], raw[r], grid_columns(t[r], tgrid))
                for r in range(t.shape[0])]
    assert np.array_equal(on_grid, np.stack([s[0] for s in separate]))
    assert np.array_equal(cured, np.stack([s[1] for s in separate]))
    assert np.array_equal(fitted, np.stack([s[2] for s in separate]))
    # rows without weight are the constant curve one
    assert np.all(on_grid[~fitted] == 1.0) and np.all(cured[~fitted] == 1.0)
    # reading the value after every column equals evaluating the curve
    # collapsed to its distinct event times
    rows = np.argwhere(fitted)
    for (r, k), curve, top in zip(rows, on_grid[fitted], cured[fitted]):
        weights = raw[r, k] / raw[r, k].sum()
        times, values = _at_event_times(t[r], delta[r], weights)
        step = StepSurvivalCurve(times, values)
        assert np.array_equal(curve, step.evaluate(tgrid))
        assert top == values[-1]


@st.composite
def _kit_samples(draw):
    """Samples of 1 to 60 rows on coarse covariate and time lattices.

    Times and covariates are heavily tied, and with a pilot bandwidth
    below the covariate spacing most kernel weights are zero and a
    covariate value without events has uncured probability zero.
    """
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta = (rng.random(n) < draw(st.floats(0.1, 0.9))).astype(int)
    delta[draw(st.integers(0, n - 1))] = 1
    return CensoredSample(rng.integers(0, 8, n).astype(float),
                          rng.integers(1, 5, n).astype(float), delta)


@_SETTINGS
@given(_kit_samples(), st.sampled_from([0.5, 1.5, 6.0]), st.integers(1, 7),
       st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_streamed_draw_equals_reference_draws(sample, g, b, rows, seed):
    # every resample of a selection drawn in one pass over the pilot
    # fits, in chunks sized from ``rows`` (one row, or counts not
    # dividing n), equals the reference kit's draws, one resample at a
    # time
    streams = np.random.SeedSequence(seed).spawn(b)
    ref = ReferenceKit.build(sample, g)
    draws = [ref.draw(np.random.default_rng(child)) for child in streams]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bootstrap, "_KIT_CHUNK_BYTES", 8 * sample.n * rows)
        patch.setattr(bootstrap, "_KIT_MIN_ROWS", 1)
        kit = _ResamplingKit.build(sample, g)
        ranks, delta = kit.draw(
            [np.random.default_rng(child) for child in streams])
    t = kit.atoms[ranks]
    assert np.array_equal(t, np.array([d[0] for d in draws]))
    assert np.array_equal(delta, np.array([d[1] for d in draws]))


# a censored pair at x=0 whose pilot fits hold no event, so it is always
# cured and censored, and an event at x=5 whose time 2 is also a
# censoring atom: it is censored at 1 with probability 1/3, and at seed
# 5 two of the seven resamples are censored throughout
_ALL_CENSORED_ROWS = CensoredSample(
    np.array([0.0, 0.0, 5.0]), np.array([1.0, 2.0, 2.0]), np.array([0, 0, 1]))


@_SETTINGS
@example(CensoredSample(np.array([3.0]), np.array([2.0]), np.array([1])),
         1.5, 3, 0)
@example(_ALL_CENSORED_ROWS, 0.5, 7, 5)
@given(_kit_samples(), st.sampled_from([0.5, 1.5, 6.0]), st.integers(1, 7),
       st.integers(0, 2**32 - 1))
def test_ranked_resamples_on_tied_samples(sample, g, b, seed):
    # the ranks and flags give the reference kit's draws, their sort keys
    # the time order of lexsort, and mise_star at two covariate values
    # of one sample the curves of one fit per resample and bandwidth
    streams = np.random.SeedSequence(seed).spawn(b)
    ref = ReferenceKit.build(sample, g)
    draws = [ref.draw(np.random.default_rng(child)) for child in streams]
    t, delta = (np.array([d[k] for d in draws]) for k in (0, 1))
    kit = _ResamplingKit.build(sample, g)
    ranks, events = kit.draw(
        [np.random.default_rng(child) for child in streams])
    assert np.array_equal(kit.atoms[ranks], t)
    assert np.array_equal(events, delta)
    assert np.array_equal(np.argsort(2 * ranks + 1 - events, kind="stable"),
                          np.lexsort((-delta, t), axis=-1))
    config = BootstrapConfig(B=b, grid=BandwidthGrid([1.0, 3.0, 9.0]),
                             seed=seed, time_grid_size=9)
    for x in (float(sample.x[0]), float(sample.x.max()) + 0.5):
        try:
            values, failures = mise_star_loop(sample, x, config)
        except EstimationError as err:
            with pytest.raises(type(err), match=re.escape(str(err))):
                mise_star(sample, x, config)
            continue
        curve = mise_star(sample, x, config)
        assert np.array_equal(curve.values, values)
        assert np.array_equal(curve.failures, failures)


@_SETTINGS
@example(_ALL_CENSORED_ROWS, 7, 5)
@given(_kit_samples(), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_several_values_equal_one_value_calls(sample, b, seed):
    # one kit and one draw for every value, each on its own seed: the
    # curves, or the errors, of one call per value; the last value fails
    # its pilot fit, or every value fails on a one-row sample
    config = BootstrapConfig(B=b, grid=BandwidthGrid([1.0, 3.0, 9.0]),
                             seed=seed, time_grid_size=9)
    xs = [float(sample.x[0]), float(sample.x.max()) + 0.5, 3.5, 1e6]
    several = mise_star(sample, xs, config)
    assert_same_outcomes(several, mise_star_alone(sample, xs, config))
    assert isinstance(several[-1], EstimationError)


@st.composite
def _lattice_samples(draw):
    """Samples whose covariates sit on a lattice, with a pilot bandwidth
    below its step or a multiple of it: covariates lie at exactly, or
    within rounding of, the bandwidth from a row's."""
    step = draw(st.sampled_from([0.1, 0.3, 1.0, 1000.1]))
    g = step * draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    offset = draw(st.sampled_from([0.0, -2.5, 1e6]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta = (rng.random(n) < draw(st.floats(0.1, 0.9))).astype(int)
    delta[draw(st.integers(0, n - 1))] = 1
    xs = offset + step * rng.integers(0, 8, n)
    return CensoredSample(xs, rng.integers(1, 5, n).astype(float), delta), g


@_SETTINGS
@given(_lattice_samples(), st.integers(1, 5), st.integers(1, 60),
       st.integers(0, 2**32 - 1))
def test_windowed_pass_on_lattice_covariates(case, b, rows, seed):
    # every chunk fitted on its window of columns equals the reference
    # kit's full rows, where a column at the window's edge has a zero
    # weight, or a weight that rounding leaves above zero
    sample, g = case
    streams = np.random.SeedSequence(seed).spawn(b)
    ref = ReferenceKit.build(sample, g)
    draws = [ref.draw(np.random.default_rng(child)) for child in streams]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bootstrap, "_KIT_CHUNK_BYTES", 8 * sample.n * rows)
        patch.setattr(bootstrap, "_KIT_MIN_ROWS", 1)
        kit = _ResamplingKit.build(sample, g)
        ranks, delta = kit.draw(
            [np.random.default_rng(child) for child in streams])
    assert np.array_equal(kit.atoms[ranks], np.array([d[0] for d in draws]))
    assert np.array_equal(delta, np.array([d[1] for d in draws]))


def test_lattice_examples_cover_their_cases():
    # at a bandwidth of one step, a covariate one step away has weight
    # zero on the lattice of ones, while on the lattice of 0.1 rounding
    # leaves some of those weights above zero
    steps_apart = np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
    for step, rounded in ((1.0, False), (0.1, True)):
        xs = step * np.arange(8)
        weights = epanechnikov_reference((xs[:, None] - xs) / step)
        assert np.any(weights[steps_apart == 1] > 0.0) == rounded


def test_tied_examples_cover_their_cases():
    # the explicit example above draws rows censored throughout, from a
    # time that is both an event and a censoring atom
    kit = _ResamplingKit.build(_ALL_CENSORED_ROWS, 0.5)
    ranks, events = kit.draw([np.random.default_rng(child) for child in
                              np.random.SeedSequence(5).spawn(7)])
    assert np.sum(~events.any(axis=1)) == 2
    assert np.isin(kit.event_ranks, kit.censoring_ranks).all()
    assert np.any(events & (kit.atoms[ranks] == 2.0))


# latency levels, with the clipped ends and the doubles next to 0.5, where
# log(1 / (2u)) changes sign
_LEVELS = st.sampled_from([2.0**-53, 1.0, 0.5 - 2.0**-54, 0.5,
                           0.5 + 2.0**-54]) | st.floats(0.0, 1.0)


def _rows(covariates, max_size):
    return st.lists(st.tuples(_LEVELS, covariates), max_size=max_size)


@_SETTINGS
@given(st.lists(_rows(st.floats(-20.0, 20.0), 8), min_size=1, max_size=6))
def test_model2_quantile_equals_the_grouped_bisection(groups):
    # inside the covariate window every row takes the same number of
    # halvings, so stopping row by row changes no bit of a group's values
    u, x = (np.array([row[k] for group in groups for row in group],
                     dtype=float) for k in (0, 1))
    expect = model2_quantile_grouped(u, x, [len(group) for group in groups])
    assert np.all(model2().latency_quantile(u, x) == expect)


@_SETTINGS
@given(_rows(st.sampled_from([-1500.0]) | st.floats(-28000.0, 20.0), 12))
@example([(0.5 - 2.0**-54, -1500.0), (0.3, -1500.0), (0.7, -1500.0)])
def test_model2_quantile_row_equals_its_own_call(rows):
    # far below the covariate window rows need different numbers of
    # halvings; each still stops where a call on it alone would
    u, x = (np.array([row[k] for row in rows], dtype=float) for k in (0, 1))
    together = model2().latency_quantile(u, x)
    for i in range(u.size):
        assert together[i] == model2().latency_quantile(u[i:i + 1],
                                                         x[i:i + 1])[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1, 2]), st.integers(1, 300),
       st.integers(0, 2**63 - 1))
def test_simulate_then_ingest_round_trips(model, n, seed):
    # the written table reads back as exactly the generated sample
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sample.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--model", str(model), "--n", str(n),
                         "--seed", str(seed), "--out", str(out)]) == 0
        read = ingest(out, DatasetSchema(covariate="x", time="t",
                                         delta="delta")).sample
    drawn = generate((model1, model2)[model - 1](), n, trial_rng(seed, 0))
    assert read.n == n
    assert np.all(read.x == drawn.x)
    assert np.all(read.t == drawn.t)
    assert np.all(read.delta == drawn.delta)
