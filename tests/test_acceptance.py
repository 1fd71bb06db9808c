"""End-to-end acceptance checks.

Each test is one gate criterion; the conftest prints a one-line
PASS/FAIL verdict per criterion after the run.  Tolerances are part of
the contract and are asserted literally.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import npmixcure
from npmixcure import (
    CensoredSample,
    DegenerateCureError,
    EPANECHNIKOV,
    EmptyNeighborhoodError,
    ExperimentConfig,
    beran,
    bootstrap_vs_optimal,
    generate,
    kaplan_meier,
    latency_estimate,
    latency_estimate_two_bw,
    log_grid,
    model1,
    model2,
    true_mise,
    true_mise_two_bw,
)
from npmixcure.exceptions import EstimationError
from npmixcure.models import trial_rng
from npmixcure.oracle import (
    amse,
    h_amise,
    phi,
    phi1,
    phi2_terms,
    population_from_model,
)

from helpers import beran_brute, random_censored_sample


def test_criterion_01_model_marginals():
    # cured fractions come from replaying the generator's stream up to
    # the latent cure indicators; censored fractions from the sample
    targets = {
        "model1": (model1(), 0.47, 0.54),
        "model2": (model2(), 0.53, 0.62),
    }
    n = 100000
    for spec, cured_target, censored_target in targets.values():
        rng = trial_rng(1, 0)
        xs = spec.covariate.sample(rng, n)
        uncured = rng.random(n) < spec.p(xs)
        cured_frac = 1.0 - uncured.mean()
        sample = generate(spec, n, trial_rng(1, 0))
        censored_frac = 1.0 - sample.delta.mean()
        assert abs(cured_frac - cured_target) <= 0.015
        assert abs(censored_frac - censored_target) <= 0.015


def test_criterion_02_product_limit_reductions():
    rng = np.random.default_rng(2024)
    # identical covariates make every kernel weight 1/n, so the
    # conditional curve must match the unconditional one at every jump
    for _ in range(100):
        n = int(rng.integers(2, 51))
        _, ts, deltas = random_censored_sample(rng, n, tie_prob=0.3)
        sample = CensoredSample(np.full(n, 1.0), ts, deltas)
        conditional = beran(sample, 1.0, 0.7)
        unconditional = kaplan_meier(sample)
        assert conditional.jump_times.shape == unconditional.jump_times.shape
        assert np.max(np.abs(conditional.values - unconditional.values)) <= 1e-12

    # tiny samples against the direct product over sorted observations
    kernel_density = EPANECHNIKOV.density
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 6))
        xs, ts, deltas = random_censored_sample(rng, n, tie_prob=0.4)
        x = float(rng.uniform(-2.0, 2.0))
        h = float(rng.uniform(0.5, 4.0))
        try:
            curve = beran(CensoredSample(xs, ts, deltas), x, h)
        except EmptyNeighborhoodError:
            continue
        ref_times, ref_values = beran_brute(xs, ts, deltas, x, h, kernel_density)
        assert np.max(np.abs(curve.evaluate(ref_times) - ref_values)) <= 1e-12
        checked += 1


def test_criterion_03_latency_properness():
    rng = np.random.default_rng(33)
    successes = 0
    while successes < 500:
        xs, ts, deltas = random_censored_sample(
            rng, int(rng.integers(5, 80)), tie_prob=0.25
        )
        x = float(rng.uniform(-1.8, 1.8))
        h = float(rng.uniform(0.4, 3.0))
        try:
            fit = latency_estimate(CensoredSample(xs, ts, deltas), x, h)
        except (EmptyNeighborhoodError, DegenerateCureError):
            continue
        assert fit.latency.evaluate(0.0) >= 1.0 - 1e-12
        assert np.all(np.diff(fit.latency.values) <= 1e-12)
        assert np.all(fit.latency.values >= -1e-12)
        assert np.all(fit.latency.values <= 1.0 + 1e-12)
        assert abs(fit.latency.evaluate(fit.t_max_uncensored)) <= 1e-12
        successes += 1


def test_criterion_04_two_bandwidth_reduction():
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 50:
        xs, ts, deltas = random_censored_sample(
            rng, int(rng.integers(5, 60)), tie_prob=0.3
        )
        sample = CensoredSample(xs, ts, deltas)
        x = float(rng.uniform(-1.5, 1.5))
        h = float(rng.uniform(0.5, 3.0))
        try:
            one = latency_estimate(sample, x, h)
            two = latency_estimate_two_bw(sample, x, h, h)
        except (EmptyNeighborhoodError, DegenerateCureError):
            continue
        assert abs(two.incidence - one.incidence) <= 1e-12
        assert np.max(np.abs(two.latency.values - one.latency.values)) <= 1e-12
        checked += 1

    # diagonal of the Monte Carlo MISE surface against the
    # one-bandwidth MISE curve under the same trial seeds: exact
    grid = log_grid(8.0, 60.0, 5)
    cfg = ExperimentConfig(seed=2718)
    surface = true_mise_two_bw(model1(), 80, 5, 5.0, grid, grid, cfg)
    curve = true_mise(model1(), 80, 5, 5.0, grid, cfg)
    assert np.array_equal(np.diag(surface.values), curve.values)


def test_criterion_05_influence_transform_identities():
    grids = {
        "model1": (population_from_model(model1()),
                   np.linspace(0.1, 1.8, 10)),
        "model2": (population_from_model(model2()),
                   np.linspace(0.05, 1.4, 10)),
    }
    xs = np.linspace(-10.0, 20.0, 10)
    for pop, ts in grids.values():
        worst = 0.0
        for t in ts:
            for x in xs:
                worst = max(worst, abs(phi(pop, float(x), float(t), float(x))))
        assert worst < 1e-6

    # independent nested-quadrature decomposition against the single
    # integral, one interior point per model
    for key, t_pt in (("model1", 1.0), ("model2", 0.5)):
        pop, _ = grids[key]
        a, b, c, d = phi2_terms(pop, t_pt, 5.0)
        assert abs((a - b - c + d) - phi1(pop, t_pt, 5.0)) < 1e-6


def test_criterion_06_asymptotic_mse_at_desk_scale():
    spec = model1()
    h = h_amise(population_from_model(spec), 5.0, 200)
    s0_true = float(spec.s0(1.0, 5.0))
    errors = []
    for j in range(500):
        sample = generate(spec, 200, trial_rng(777, j))
        try:
            fit = latency_estimate(sample, 5.0, h)
        except EstimationError:
            continue
        errors.append(fit.latency.evaluate(1.0) - s0_true)
    assert len(errors) >= 450
    mc_mse = float(np.mean(np.square(errors)))
    report = amse(population_from_model(spec), 1.0, 5.0, h, 200)
    ratio = mc_mse / report.amse
    assert 1.0 / 3.0 <= ratio <= 3.0


def test_criterion_07_bootstrap_selector_quality():
    study = bootstrap_vs_optimal(
        model1(), 100, 100, 5.0, log_grid(5.0, 100.0, 15), B=100,
        config=ExperimentConfig(seed=20240817),
    )
    assert study.selector_failures <= 10
    median_ratio = study.ratio_quantiles()["q50"]
    assert median_ratio <= 1.2


def test_criterion_08_mise_surface_diagonal_concentration():
    grid = log_grid(5.0, 100.0, 7)
    hits = 0
    for rep in range(20):
        surface = true_mise_two_bw(
            model1(), 100, 40, 5.0, grid, grid,
            ExperimentConfig(seed=9000 + rep),
        )
        i, j = surface.argmin_pair()
        if abs(i - j) <= 1:
            hits += 1
    assert hits >= 16


def test_criterion_09_byte_identical_reruns(tmp_path):
    runs = {
        "simulate": ["simulate", "--model", "1", "--n", "50", "--seed", "5",
                     "--out", "sim.csv"],
        "estimate": ["estimate", "--model", "1", "--n", "50", "--seed", "5",
                     "--x", "5", "--h", "15", "--time-points", "30",
                     "--out", "est.csv"],
        "selectbw": ["selectbw", "--model", "1", "--n", "40", "--seed", "5",
                     "--x", "5", "--grid", "8:60:3", "--B", "8",
                     "--out", "bw.csv"],
        "mise": ["mise", "--model", "1", "--n", "40", "--m", "2", "--x", "5",
                 "--grid", "10:40:3", "--seed", "5", "--out", "mise.csv"],
        "oracle": ["oracle", "--model", "1", "--t", "0.5", "--x", "5",
                   "--h", "12", "--n", "200", "--out", "oracle.csv"],
        "synth-data": ["synth-data", "--seed", "5", "--out", "synth.csv"],
    }
    # each rerun is a fresh interpreter started in tmp_path, where a
    # relative PYTHONPATH (such as the Tier-1 command's ``src``) points
    # nowhere; put the directory this process imported the package from
    # first, so the child runs the same copy of the code
    package_file = Path(npmixcure.__file__).resolve()
    child_path = str(package_file.parent.parent)
    if os.environ.get("PYTHONPATH"):
        child_path += os.pathsep + os.environ["PYTHONPATH"]
    child_env = dict(os.environ, PYTHONPATH=child_path)
    probe = subprocess.run(
        [sys.executable, "-c", "import npmixcure; print(npmixcure.__file__)"],
        capture_output=True, text=True, env=child_env, cwd=tmp_path,
    )
    assert probe.returncode == 0, probe.stderr
    assert Path(probe.stdout.strip()).resolve() == package_file
    for name, argv in runs.items():
        contents = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{name}-{attempt}"
            outdir.mkdir()
            env = dict(child_env, NPMIXCURE_OUTDIR=str(outdir))
            proc = subprocess.run(
                [sys.executable, "-m", "npmixcure"] + argv,
                capture_output=True, env=env, cwd=tmp_path,
            )
            assert proc.returncode == 0, (name, proc.stderr.decode())
            data_file = argv[argv.index("--out") + 1]
            table = (outdir / data_file).read_bytes()
            meta = json.loads((outdir / (data_file + ".meta.json")).read_text())
            # the sidecar echoes the resolved output path, which moves
            # with the rerun directory by construction; mask it before
            # comparing
            meta["config"]["out"] = "<out>"
            contents.append((table, json.dumps(meta, sort_keys=True)))
        assert contents[0] == contents[1], f"{name} rerun differed"


def test_criterion_10_bandwidth_scaling_law():
    for spec in (model1(), model2()):
        pop = population_from_model(spec)
        h_small = h_amise(pop, 5.0, 200)
        h_large = h_amise(pop, 5.0, 32 * 200)
        assert abs(h_small / h_large - 2.0) <= 1e-10
