"""Command line interface."""

import csv
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmixcure import (
    BootstrapConfig,
    DatasetSchema,
    ExperimentConfig,
    generate,
    ingest,
    latency_estimate,
    log_grid,
    mise_star,
    model1,
    model2,
    true_mise,
)
from npmixcure import cli
from npmixcure.bootstrap import _covariate_seed
from npmixcure.cli import main
from npmixcure.exceptions import ConfigError, SupportGuardError
from npmixcure.models import trial_rng
from npmixcure.oracle import amse

from helpers import load_benchmark_tracing


@pytest.fixture(autouse=True)
def _outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("NPMIXCURE_OUTDIR", str(tmp_path))
    return tmp_path


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _read_meta(path):
    with open(str(path) + ".meta.json") as handle:
        return json.load(handle)


def _sample_csv(tmp_path, n=60, seed=77):
    sample = generate(model1(), n, trial_rng(seed, 0))
    path = tmp_path / "sample.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["age", "time", "delta"])
        for x, t, d in zip(sample.x, sample.t, sample.delta):
            writer.writerow([repr(float(x)), repr(float(t)), int(d)])
    return path, sample


def _written(outdir, name):
    """Table bytes and sidecar text of one run, ``config.out`` masked."""
    meta = _read_meta(outdir / name)
    meta["config"]["out"] = "<out>"
    return (outdir / name).read_bytes(), json.dumps(meta, sort_keys=True)


# one run per subcommand, as flags and as a config file holding the same
# settings in their natural JSON types; "DATA" stands for a sample file
_EQUIVALENT_RUNS = {
    "simulate": (
        ["--model", "1", "--n", "20", "--seed", "6"],
        {"model": 1, "n": 20, "seed": 6},
    ),
    "estimate": (
        ["--model", "1", "--n", "50", "--seed", "5", "--x", "5", "--x", "8",
         "--h", "15", "--h2", "40", "--clamp", "--time-points", "30"],
        {"model": 1, "n": 50, "seed": 5, "x": [5, 8], "h": 15, "h2": 40,
         "clamp": True, "time_points": 30},
    ),
    "selectbw": (
        ["--data", "DATA", "--covariate-col", "age", "--x", "5",
         "--grid", "8:60:3", "--B", "8", "--seed", "3"],
        {"data": "DATA", "covariate_col": "age", "x": 5, "grid": "8:60:3",
         "B": 8, "seed": 3},
    ),
    "mise": (
        ["--model", "1", "--n", "40", "--m", "2", "--x", "5",
         "--grid", "10:40:3", "--grid2", "15:50:2", "--weight-upper", "3",
         "--time-grid-size", "50", "--seed", "21"],
        {"model": 1, "n": 40, "m": 2, "x": 5, "grid": "10:40:3",
         "grid2": "15:50:2", "weight_upper": 3, "time_grid_size": 50,
         "seed": 21},
    ),
    "oracle": (
        ["--model", "1", "--t", "0.5", "--x", "5", "--h", "12", "--n", "200"],
        {"model": 1, "t": 0.5, "x": 5, "h": 12, "n": 200},
    ),
    "synth-data": (
        ["--seed", "5", "--format", "json"],
        {"seed": 5, "format": "json"},
    ),
}


class TestSimulate:
    def test_matches_library_generation(self, _outdir, capsys):
        rc = main(["simulate", "--model", "1", "--n", "25", "--seed", "9",
                   "--out", "sim.csv"])
        assert rc == 0
        header, rows = _read_csv(_outdir / "sim.csv")
        assert header == ["x", "t", "delta"]
        assert len(rows) == 25
        direct = generate(model1(), 25, trial_rng(9, 0))
        assert_allclose([float(r[0]) for r in rows], direct.x, rtol=0, atol=0)
        assert_allclose([float(r[1]) for r in rows], direct.t, rtol=0, atol=0)
        meta = _read_meta(_outdir / "sim.csv")
        assert meta["command"] == "simulate"
        assert meta["config"]["seed"] == 9
        assert "censoring_fraction" in meta["summary"]

    def test_rerun_is_byte_identical(self, _outdir, capsys):
        argv = ["simulate", "--model", "2", "--n", "30", "--seed", "4",
                "--out", "rerun.csv"]
        assert main(argv) == 0
        first = (_outdir / "rerun.csv").read_bytes()
        first_meta = (_outdir / "rerun.csv.meta.json").read_bytes()
        assert main(argv) == 0
        assert (_outdir / "rerun.csv").read_bytes() == first
        assert (_outdir / "rerun.csv.meta.json").read_bytes() == first_meta

    def test_json_format(self, _outdir, capsys):
        rc = main(["simulate", "--model", "1", "--n", "5", "--seed", "2",
                   "--format", "json", "--out", "sim.json"])
        assert rc == 0
        payload = json.loads((_outdir / "sim.json").read_text())
        assert payload["columns"] == ["x", "t", "delta"]
        assert len(payload["rows"]) == 5


class TestEstimate:
    def test_fixed_bandwidth_matches_library(self, _outdir, capsys, tmp_path):
        path, sample = _sample_csv(tmp_path)
        rc = main(["estimate", "--data", str(path), "--covariate-col", "age",
                   "--x", "5", "--h", "15", "--time-points", "40",
                   "--out", "est.csv"])
        assert rc == 0
        header, rows = _read_csv(_outdir / "est.csv")
        assert header == ["x", "h", "h2", "incidence", "t", "latency"]
        assert len(rows) == 40
        fit = latency_estimate(sample, 5.0, 15.0)
        tgrid = np.linspace(0.0, fit.t_max_uncensored, 40)
        expect = fit.latency.evaluate(tgrid)
        got = np.array([float(r[5]) for r in rows])
        assert np.array_equal(got, expect)
        assert float(rows[0][3]) == fit.incidence
        assert all(float(r[1]) == 15.0 for r in rows)

    def test_failed_covariate_is_reported_not_fatal(self, _outdir, capsys,
                                                    tmp_path):
        path, _ = _sample_csv(tmp_path)
        rc = main(["estimate", "--data", str(path), "--x", "5",
                   "--x", "1000000", "--h", "15", "--time-points", "10",
                   "--out", "est.csv"])
        assert rc == 0
        _header, rows = _read_csv(_outdir / "est.csv")
        assert {float(r[0]) for r in rows} == {5.0}
        meta = _read_meta(_outdir / "est.csv")
        assert len(meta["summary"]["failures"]) == 1
        assert meta["summary"]["failures"][0]["x"] == 1000000.0

    def test_all_covariates_failing_is_exit_4(self, _outdir, capsys, tmp_path):
        path, _ = _sample_csv(tmp_path)
        rc = main(["estimate", "--data", str(path), "--x", "1000000",
                   "--h", "15", "--out", "est.csv"])
        assert rc == 4

    def test_auto_selection_uses_per_covariate_streams(self, _outdir, capsys,
                                                       tmp_path):
        path, sample = _sample_csv(tmp_path, n=40)
        rc = main(["estimate", "--data", str(path), "--x", "5",
                   "--h", "auto", "--grid", "8:60:3", "--B", "8",
                   "--seed", "12", "--time-points", "10", "--out", "est.csv"])
        assert rc == 0
        _header, rows = _read_csv(_outdir / "est.csv")
        curve = mise_star(
            sample, 5.0,
            BootstrapConfig(B=8, grid=log_grid(8.0, 60.0, 3),
                            seed=_covariate_seed(12, 0)),
        )
        assert all(float(r[1]) == curve.selected for r in rows)
        meta = _read_meta(_outdir / "est.csv")
        assert meta["summary"]["selections"][0]["h_star"] == curve.selected

    def test_auto_without_grid_is_config_error(self, _outdir, capsys,
                                               tmp_path):
        path, _ = _sample_csv(tmp_path)
        rc = main(["estimate", "--data", str(path), "--x", "5",
                   "--out", "est.csv"])
        assert rc == 2

    def test_two_bandwidths_with_clamp(self, _outdir, capsys, tmp_path):
        path, _ = _sample_csv(tmp_path)
        rc = main(["estimate", "--data", str(path), "--x", "5", "--h", "10",
                   "--h2", "40", "--clamp", "--time-points", "25",
                   "--out", "est.csv"])
        assert rc == 0
        _header, rows = _read_csv(_outdir / "est.csv")
        latency = np.array([float(r[5]) for r in rows])
        assert np.all((latency >= 0.0) & (latency <= 1.0))
        assert all(float(r[2]) == 40.0 for r in rows)

    @pytest.mark.parametrize("source", [
        ["--model", "1", "--n", "100", "--x", "2", "--x", "5"],
        ["--data", "SYNTH", "--x", "40", "--x", "70"],  # tied ages
    ], ids=["model-1", "tied-ages"])
    def test_clamp_leaves_a_one_bandwidth_table_unchanged(
            self, _outdir, capsys, source):
        # the one-bandwidth curve is already in [0, 1] and nonincreasing
        assert main(["synth-data", "--seed", "1", "--out", "synth.csv"]) == 0
        argv = ["estimate", *source, "--h", "8", "--time-points", "30"]
        argv = [str(_outdir / "synth.csv") if a == "SYNTH" else a
                for a in argv]
        assert main([*argv, "--out", "plain.csv"]) == 0
        assert main([*argv, "--clamp", "--out", "clamped.csv"]) == 0
        assert ((_outdir / "clamped.csv").read_bytes()
                == (_outdir / "plain.csv").read_bytes())
        assert _read_meta(_outdir / "plain.csv")["config"]["clamp"] is False
        assert _read_meta(_outdir / "clamped.csv")["config"]["clamp"] is True

    def test_h2_with_auto_is_config_error(self, _outdir, capsys, tmp_path):
        path, _ = _sample_csv(tmp_path)
        rc = main(["estimate", "--data", str(path), "--x", "5",
                   "--h", "auto", "--grid", "8:60:3", "--h2", "40",
                   "--out", "est.csv"])
        assert rc == 2

    # events at x = 0 and 1, censored rows only at x = 50 and 51
    _CENSORED_AT_50 = [(0, 1.0, 1), (1, 2.0, 1), (50, 3.0, 0), (51, 4.0, 0)]

    @pytest.mark.parametrize("rows, xs, code, expected, failed", [
        ([(5, 1.0, 1)], [5], 0, "no cure", []),
        ([(4, 1.0, 0), (5, 2.0, 0), (6, 3.0, 0)], [5], 4,
         "no uncensored observation", []),
        ([(4, 1.0, 1), (5, 2.0, 1), (6, 3.0, 1)], [5], 0, "no cure", []),
        ([(4, 1.0, 1), (5, 2.0, 1), (6, 2.0, 0)], [5], 0, "cure", []),
        (_CENSORED_AT_50, [50], 4, "p_hat = 0", []),
        (_CENSORED_AT_50, [0, 50], 0, "no cure", [50.0]),
    ], ids=["one-row-event", "all-censored", "all-events",
            "event-tied-with-censored-at-last-time", "censored-neighbourhood",
            "censored-neighbourhood-beside-a-good-x"])
    def test_degenerate_samples_at_a_fixed_bandwidth(
            self, _outdir, capsys, tmp_path, rows, xs, code, expected,
            failed):
        # a fitted latency runs from 1 to exactly 0 at the last event
        # time; a failed x is recorded and the run fails only if all do
        path = tmp_path / "tiny.csv"
        path.write_text("age,time,delta\n"
                        + "".join(f"{x},{t},{d}\n" for x, t, d in rows))
        argv = ["estimate", "--data", str(path), "--h", "10",
                "--time-points", "5", "--out", "est.csv"]
        for xv in xs:
            argv += ["--x", str(xv)]
        assert main(argv) == code
        if code == 4:
            assert expected in capsys.readouterr().err
            return
        _header, table = _read_csv(_outdir / "est.csv")
        incidence = {float(r[3]) for r in table}
        assert (incidence == {0.0}) == (expected == "no cure")
        assert all(0.0 < v < 1.0 for v in incidence - {0.0})
        latency = np.array([float(r[5]) for r in table])
        assert latency[0] == 1.0 and latency[-1] == 0.0
        summary = _read_meta(_outdir / "est.csv")["summary"]
        assert [f["x"] for f in summary["failures"]] == failed
        assert all("p_hat = 0" in f["error"] for f in summary["failures"])


class TestSelectbw:
    def test_curve_matches_library(self, _outdir, capsys, tmp_path):
        path, sample = _sample_csv(tmp_path, n=40)
        rc = main(["selectbw", "--data", str(path), "--x", "5",
                   "--grid", "8:60:4", "--B", "8", "--seed", "3",
                   "--out", "bw.csv"])
        assert rc == 0
        header, rows = _read_csv(_outdir / "bw.csv")
        assert header == ["x", "h", "mise_star", "failures"]
        assert len(rows) == 4
        curve = mise_star(
            sample, 5.0,
            BootstrapConfig(B=8, grid=log_grid(8.0, 60.0, 4),
                            seed=_covariate_seed(3, 0)),
        )
        got = np.array([float(r[2]) for r in rows])
        assert np.array_equal(got, curve.values)
        meta = _read_meta(_outdir / "bw.csv")
        sel = meta["summary"]["selections"][0]
        assert sel["h_star"] == curve.selected
        assert sel["pilot_bandwidth"] == curve.pilot_bandwidth
        out = capsys.readouterr().out
        assert f"h_star={curve.selected}" in out

    @staticmethod
    def _select_on(tmp_path, command, rows, xs=(5,)):
        path = tmp_path / "tiny.csv"
        path.write_text("age,time,delta\n"
                        + "".join(f"{x},{t},{d}\n" for x, t, d in rows))
        at = [flag for xv in xs for flag in ("--x", str(xv))]
        own = ["--h", "auto"] if command == "estimate" else []
        return main([command, "--data", str(path), *at, *own,
                     "--grid", "1:5:3", "--B", "5", "--out", "tiny_out.csv"])

    @pytest.mark.parametrize("command", ["selectbw", "estimate"])
    def test_one_row_sample_is_exit_4(self, _outdir, capsys, tmp_path,
                                      command):
        assert self._select_on(tmp_path, command, [(5, 1.0, 1)]) == 4
        assert "need at least two covariate values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["selectbw", "estimate"])
    def test_identical_covariates_are_exit_4(self, _outdir, capsys, tmp_path,
                                             command):
        rows = [(5, 1.0, 1), (5, 2.0, 0), (5, 3.0, 1)]
        assert self._select_on(tmp_path, command, rows) == 4
        assert "all covariates are identical" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["selectbw", "estimate"])
    @pytest.mark.parametrize("rows, xs, code, expected, failed", [
        ([(4, 1.0, 0), (5, 2.0, 0), (6, 3.0, 0)], [5], 4,
         "no uncensored observation", []),
        ([(4, 1.0, 1), (5, 2.0, 1), (6, 3.0, 1)], [5], 0, None, []),
        ([(4, 1.0, 1), (5, 2.0, 1), (6, 2.0, 0)], [5], 0, None, []),
        (TestEstimate._CENSORED_AT_50, [50], 4, "p_hat = 0", []),
        (TestEstimate._CENSORED_AT_50, [0, 50], 0, None, [50.0]),
    ], ids=["all-censored", "all-events",
            "event-tied-with-censored-at-last-time", "censored-neighbourhood",
            "censored-neighbourhood-beside-a-good-x"])
    def test_degenerate_samples_under_the_bootstrap(
            self, _outdir, capsys, tmp_path, command, rows, xs, code,
            expected, failed):
        # the samples of the fixed-bandwidth test, with the bandwidth
        # selected by bootstrap: a failed x is recorded beside the
        # selections of the others, and the run fails only if all do
        assert self._select_on(tmp_path, command, rows, xs) == code
        if code == 4:
            assert expected in capsys.readouterr().err
            return
        summary = _read_meta(_outdir / "tiny_out.csv")["summary"]
        assert [f["x"] for f in summary["failures"]] == failed
        assert all("p_hat = 0" in f["error"] for f in summary["failures"])
        selected = [float(xv) for xv in xs if float(xv) not in failed]
        assert [s["x"] for s in summary["selections"]] == selected
        _header, table = _read_csv(_outdir / "tiny_out.csv")
        assert {float(r[0]) for r in table} == set(selected)


class TestMise:
    def test_curve_matches_library(self, _outdir, capsys):
        rc = main(["mise", "--model", "1", "--n", "40", "--m", "2",
                   "--x", "5", "--grid", "10:40:3", "--seed", "21",
                   "--out", "mise.csv"])
        assert rc == 0
        header, rows = _read_csv(_outdir / "mise.csv")
        assert header == ["x", "h", "mise", "trials_used"]
        curve = true_mise(
            model1(), 40, 2, 5.0, log_grid(10.0, 40.0, 3),
            ExperimentConfig(seed=21),
        )
        got = np.array([float(r[2]) for r in rows])
        assert np.array_equal(got, curve.values)
        assert [int(r[3]) for r in rows] == (2 - curve.failures).tolist()

    def test_surface_lattice(self, _outdir, capsys):
        rc = main(["mise", "--model", "1", "--n", "40", "--m", "2",
                   "--x", "5", "--grid", "10:40:3", "--grid2", "15:50:2",
                   "--seed", "21", "--out", "surf.csv"])
        assert rc == 0
        header, rows = _read_csv(_outdir / "surf.csv")
        assert header == ["x", "h1", "h2", "mise", "trials_used"]
        assert len(rows) == 3 * 2


    @pytest.mark.parametrize("n, m", [(1, 3), (40, 1)], ids=["n1", "m1"])
    def test_one_row_or_one_trial(self, _outdir, capsys, n, m):
        # a one-row trial without an event is skipped, and one trial
        # scores every bandwidth it fits
        rc = main(["mise", "--model", "1", "--n", str(n), "--m", str(m),
                   "--x", "5", "--grid", "10:40:3", "--seed", "3",
                   "--out", "mise.csv"])
        assert rc == 0
        _header, rows = _read_csv(_outdir / "mise.csv")
        curve = true_mise(model1(), n, m, 5.0, log_grid(10.0, 40.0, 3),
                          ExperimentConfig(seed=3))
        assert np.array_equal([float(r[2]) for r in rows], curve.values)
        assert [int(r[3]) for r in rows] == (m - curve.failures).tolist()
        assert all(int(r[3]) >= 1 for r in rows)

    def test_grid_below_the_covariate_spacing_is_exit_4(self, _outdir,
                                                        capsys):
        # no covariate of a 40-row trial lies within 0.001 of x=5, so
        # every trial fails at every bandwidth
        rc = main(["mise", "--model", "1", "--n", "40", "--m", "3",
                   "--x", "5", "--grid", "0.0001:0.001:3", "--seed", "3",
                   "--out", "mise.csv"])
        assert rc == 4
        assert ("every trial failed at bandwidth(s) [0.0001, "
                in capsys.readouterr().err)
        assert not (_outdir / "mise.csv").exists()


class TestOracle:
    def test_rows_recompose_reports(self, _outdir, capsys):
        rc = main(["oracle", "--model", "1", "--t", "0.5", "--x", "5",
                   "--h", "12", "--n", "200", "--out", "oracle.csv"])
        assert rc == 0
        header, rows = _read_csv(_outdir / "oracle.csv")
        assert header == ["t", "x", "h", "n", "b1", "b2", "v1", "v2", "v3",
                          "bias_term", "variance_term", "amse"]
        assert len(rows) == 1
        row = {k: float(v) for k, v in zip(header, rows[0])}
        rep = amse(model1(), 0.5, 5.0, 12.0, 200)
        assert row["b1"] == rep.terms.b1
        assert row["b2"] == rep.terms.b2
        assert row["v3"] == rep.terms.v3
        assert row["amse"] == rep.amse
        assert row["bias_term"] + row["variance_term"] == row["amse"]

    @pytest.mark.parametrize("model, ts, xs", [
        (1, [0.5, 20.0, 1.0, 30.0, 2.0, math.inf, 0.0], [-5.0, 5.0, 12.0]),
        (2, [0.3, 5.0, 0.5, 0.9, math.inf], [-5.0, 8.0, 19.9]),
    ], ids=["model1", "model2"])
    def test_rows_equal_scalar_calls(self, _outdir, capsys, model, ts, xs):
        # one batched call per model must give each row the bits of a call
        # at that one point; refused times sit between accepted ones
        argv = ["oracle", "--model", str(model), "--h", "3", "--n", "400",
                "--out", "o.csv"]
        for tv in ts:
            argv += ["--t", repr(tv)]
        for xv in xs:
            argv += ["--x", repr(xv)]
        assert main(argv) == 0
        _header, rows = _read_csv(_outdir / "o.csv")
        spec = (model1, model2)[model - 1]()
        expected, refused = [], []
        for xv in xs:
            for tv in ts:
                try:
                    rep = amse(spec, tv, xv, 3.0, 400)
                except SupportGuardError as exc:
                    refused.append({"t": tv, "x": xv, "error": str(exc)})
                    continue
                terms = rep.terms
                expected.append([tv, xv, 3.0, 400, terms.b1, terms.b2,
                                 terms.v1, terms.v2, terms.v3, rep.bias_term,
                                 rep.variance_term, rep.amse])
        assert refused and len(refused) < len(ts) * len(xs)
        assert [[float(v) for v in row] for row in rows] == expected
        assert _read_meta(_outdir / "o.csv")["summary"]["failures"] == refused

    def test_outside_covariate_support_fails_each_time(self, _outdir, capsys):
        # the covariate density vanishes at x=25: every --t of that x
        # fails in order, the guard's refusal where it refuses first
        assert main(["oracle", "--model", "1", "--t", "1", "--t", "20",
                     "--t", "2", "--x", "25", "--x", "5", "--h", "3",
                     "--n", "400", "--out", "o.csv"]) == 0
        _header, rows = _read_csv(_outdir / "o.csv")
        assert [(float(r[0]), float(r[1])) for r in rows] == [(1.0, 5.0),
                                                             (2.0, 5.0)]
        failures = _read_meta(_outdir / "o.csv")["summary"]["failures"]
        assert [(f["t"], f["x"]) for f in failures] == [
            (1.0, 25.0), (20.0, 25.0), (2.0, 25.0), (20.0, 5.0)]
        vanishes = "covariate density vanishes at x=25.0"
        assert failures[0]["error"] == failures[2]["error"] == vanishes
        assert "support floor" in failures[1]["error"]
        assert "support floor" in failures[3]["error"]

    def test_outside_covariate_support_everywhere_is_exit_4(self, _outdir,
                                                            capsys):
        assert main(["oracle", "--model", "1", "--t", "1", "--x", "25",
                     "--h", "3", "--n", "400", "--out", "o.csv"]) == 4
        assert ("covariate density vanishes at x=25.0"
                in capsys.readouterr().err)
        assert not (_outdir / "o.csv").exists()

    def test_traced_run_equals_untraced(self, _outdir, capsys):
        # the benchmark's tracer wraps every quadrature's integrand as a
        # one-argument function; the oracle must run under it unchanged,
        # for both models, with a time refused at every x and an x
        # without covariate density
        tracing = load_benchmark_tracing()
        for model, ts in [(1, ["0.5", "40", "2"]), (2, ["0.3", "40", "0.7"])]:
            argv = ["oracle", "--model", str(model), "--x", "-5", "--x", "25",
                    "--x", "8", "--h", "3", "--n", "400"]
            for tv in ts:
                argv += ["--t", tv]
            assert main([*argv, "--out", "plain.csv"]) == 0
            tracer = tracing.Tracer()
            tracer.install()
            try:
                assert main([*argv, "--out", "traced.csv"]) == 0
            finally:
                tracer.uninstall()
            assert tracer.integrand_evals > 0
            assert ((_outdir / "traced.csv").read_bytes()
                    == (_outdir / "plain.csv").read_bytes())
            failures = _read_meta(_outdir / "plain.csv")["summary"]["failures"]
            assert len(failures) == 5
            assert (_read_meta(_outdir / "traced.csv")["summary"]["failures"]
                    == failures)


class TestSynthData:
    def test_fixed_group_marginals(self, _outdir, capsys):
        rc = main(["synth-data", "--seed", "31", "--out", "synth.csv"])
        assert rc == 0
        header, rows = _read_csv(_outdir / "synth.csv")
        assert header == ["stage", "age", "time", "delta"]
        assert len(rows) == 414
        censored = sum(1 for r in rows if r[3] == "0")
        assert censored == 205
        by_stage = {}
        for r in rows:
            stage = int(r[0])
            total, cens = by_stage.get(stage, (0, 0))
            by_stage[stage] = (total + 1, cens + (r[3] == "0"))
        assert by_stage == {
            1: (62, 44), 2: (167, 92), 3: (133, 53), 4: (52, 16)
        }
        ages = [int(r[1]) for r in rows]
        assert min(ages) >= 23 and max(ages) <= 103
        out = capsys.readouterr().out
        assert "49.52%" in out

    def test_round_trip_through_ingest(self, _outdir, capsys):
        assert main(["synth-data", "--seed", "31", "--out", "synth.csv"]) == 0
        report = ingest(
            _outdir / "synth.csv",
            DatasetSchema(group="stage"),
            group_filter=["1", "2"],
        )
        assert report.rows_read == 414
        assert report.rows_kept == 62 + 167
        assert report.n_censored == 44 + 92


class TestConfigAndErrors:
    @pytest.mark.parametrize("command", list(_EQUIVALENT_RUNS))
    def test_config_file_equivalent_to_flags(self, _outdir, capsys, tmp_path,
                                             command):
        flags, settings = _EQUIVALENT_RUNS[command]
        data, _ = _sample_csv(tmp_path, n=40)
        flags = [str(data) if a == "DATA" else a for a in flags]
        settings = {k: str(data) if v == "DATA" else v
                    for k, v in settings.items()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        assert main([command, *flags, "--out", "flags.out"]) == 0
        assert main([command, "--config", str(cfg), "--out", "config.out"]) == 0
        assert _written(_outdir, "flags.out") == _written(_outdir, "config.out")

    @pytest.mark.parametrize("value", ["12", "-5"])
    def test_scalar_string_for_repeatable_option(self, _outdir, capsys,
                                                 tmp_path, value):
        # a lone string converts like one --x flag, not character by
        # character
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": 1, "n": 50, "seed": 5, "x": value,
                                   "h": 15, "time_points": 5}))
        assert main(["estimate", "--config", str(cfg), "--out", "c.csv"]) == 0
        assert main(["estimate", "--model", "1", "--n", "50", "--seed", "5",
                     "--x", value, "--h", "15", "--time-points", "5",
                     "--out", "f.csv"]) == 0
        assert _written(_outdir, "c.csv") == _written(_outdir, "f.csv")
        assert _read_meta(_outdir / "c.csv")["config"]["x"] == [float(value)]

    @pytest.mark.parametrize("command, switch, settings", [
        ("mise", "surface", {"model": 1, "n": 40, "m": 2, "x": 5,
                             "grid": "10:40:3"}),
        ("estimate", "clamp", {"model": 1, "n": 50, "x": 5, "h": 10,
                               "h2": 40}),
        ("estimate", "no_header", {"data": "DATA", "x": 5, "h": 15}),
    ], ids=["surface", "clamp", "no_header"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_switch_takes_only_json_booleans(self, _outdir, capsys, tmp_path,
                                             command, switch, settings, value):
        data, _ = _sample_csv(tmp_path)
        settings = {k: str(data) if v == "DATA" else v
                    for k, v in settings.items()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**settings, switch: value}))
        expect = 0 if value is None else 2
        assert main([command, "--config", str(cfg), "--out", "s.csv"]) == expect

    def test_json_false_leaves_switch_off(self, _outdir, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": 1, "n": 40, "m": 2, "x": 5,
                                   "grid": "10:40:3", "surface": False}))
        assert main(["mise", "--config", str(cfg), "--out", "m.csv"]) == 0
        header, _rows = _read_csv(_outdir / "m.csv")
        assert header == ["x", "h", "mise", "trials_used"]
        assert _read_meta(_outdir / "m.csv")["config"]["surface"] is False

    def test_oracle_takes_no_seed(self, _outdir, capsys, tmp_path):
        argv = ["oracle", "--model", "1", "--t", "0.5", "--x", "5",
                "--h", "12", "--n", "200"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "3"])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        assert main([*argv, "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command, argv", [
        ("simulate", ["--model", "1", "--n", "20"]),
        ("mise", ["--model", "1", "--n", "20", "--m", "2", "--x", "5",
                  "--grid", "10:40:3"]),
        ("selectbw", ["--model", "1", "--n", "40", "--x", "5",
                      "--grid", "10:40:3", "--B", "2"]),
        ("estimate", ["--model", "1", "--n", "40", "--x", "5",
                      "--grid", "10:40:3", "--B", "2"]),
        ("synth-data", []),
    ], ids=["simulate", "mise", "selectbw", "estimate-auto", "synth-data"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_is_exit_2(self, _outdir, capsys, tmp_path,
                                     command, argv, where):
        if where == "flag":
            argv = [*argv, "--seed", "-1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}))
            argv = [*argv, "--config", str(cfg)]
        assert main([command, *argv, "--out", "neg.csv"]) == 2
        assert "--seed must be at least 0, got -1" in capsys.readouterr().err
        assert not (_outdir / "neg.csv").exists()

    def test_zero_seed_is_accepted(self, _outdir, capsys):
        assert main(["simulate", "--model", "1", "--n", "5", "--seed", "0",
                     "--out", "zero.csv"]) == 0
        assert _read_meta(_outdir / "zero.csv")["config"]["seed"] == 0

    def test_explicit_flag_beats_config(self, _outdir, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": 1, "n": 20, "seed": 6}))
        rc = main(["simulate", "--config", str(cfg), "--n", "33",
                   "--out", "c.csv"])
        assert rc == 0
        _header, rows = _read_csv(_outdir / "c.csv")
        assert len(rows) == 33

    def test_unknown_config_key(self, _outdir, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": 1, "n": 20, "bogus": 1}))
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_nested_config_value(self, _outdir, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"id": 1}}))
        assert main(["simulate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("value, message", [
        ("abc", "--n must be an integer, got 'abc'"),
        ({"a": 1}, "--n must be an integer, got {'a': 1}"),
    ], ids=["text", "object"])
    def test_config_value_a_flag_overrides_is_still_checked(
            self, _outdir, capsys, tmp_path, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": 1, "n": value}))
        assert main(["simulate", "--config", str(cfg), "--n", "5",
                     "--out", "o.csv"]) == 2
        assert message in capsys.readouterr().err
        assert not (_outdir / "o.csv").exists()

    def test_invalid_json_config(self, _outdir, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_missing_required_setting(self, _outdir, capsys):
        assert main(["simulate", "--model", "1"]) == 2

    def test_bad_model_number(self, _outdir, capsys, tmp_path):
        assert main(["simulate", "--model", "7", "--n", "10"]) == 2
        # a flag string and a config number report the converted value
        assert "--model must be 1 or 2, got 7\n" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": 3}))
        assert main(["simulate", "--config", str(cfg), "--n", "10"]) == 2
        assert "--model must be 1 or 2, got 3\n" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("n", math.inf, "--n must be an integer, got inf"),
        ("m", math.inf, "--m must be an integer, got inf"),
        ("seed", -math.inf, "--seed must be an integer, got -inf"),
        ("model", math.inf, "--model must be an integer, got inf"),
        ("grid", [10, 40, math.inf],
         "--grid count must be an integer, got inf"),
        ("weight_upper", 10**400, "--weight-upper must be a number, got 1"),
    ], ids=["n", "m", "seed", "model", "grid-count", "huge-float"])
    def test_overflowing_config_number_is_exit_2(self, _outdir, capsys,
                                                 tmp_path, key, value,
                                                 message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": 1, "n": 40, "m": 2, "x": 5,
                                   "grid": "10:40:3", key: value}))
        assert main(["mise", "--config", str(cfg), "--out", "o.csv"]) == 2
        assert message in capsys.readouterr().err
        assert not (_outdir / "o.csv").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("n", True, "--n must be an integer, got True"),
        ("n", 2.5, "--n must be an integer, got 2.5"),
        ("weight_upper", True, "--weight-upper must be a number, got True"),
        ("out", ["a"], "--out must be a string, got ['a']"),
    ], ids=["n-bool", "n-fraction", "weight-upper-bool", "out-list"])
    def test_config_value_of_the_wrong_type_is_exit_2(self, _outdir, capsys,
                                                      tmp_path, key, value,
                                                      message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": 1, "n": 40, "m": 2, "x": 5,
                                   "grid": "10:40:3", "out": "o.csv",
                                   key: value}))
        assert main(["mise", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in _outdir.iterdir()] == ["cfg.json"]

    def test_config_file_holding_a_list(self, _outdir, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"model": 1, "n": 20}]))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert ("config file must hold a flat JSON object"
                in capsys.readouterr().err)

    def test_unreadable_config_path(self, _outdir, capsys, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json")]) == 2
        assert (f"cannot read config file {tmp_path / 'none.json'}"
                in capsys.readouterr().err)
        assert main(["simulate", "--config", str(tmp_path)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_format_outside_its_choices(self, _outdir, capsys,
                                               tmp_path):
        # a config value goes through the flag's converter
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": 1, "n": 5, "format": "xml"}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert ("--format must be csv or json, got xml\n"
                in capsys.readouterr().err)
        assert not list(_outdir.glob("simulate*"))

    def test_oracle_rejects_automatic_bandwidth(self, _outdir, capsys):
        assert main(["oracle", "--model", "1", "--t", "1", "--x", "5",
                     "--h", "auto", "--n", "400", "--out", "o.csv"]) == 2
        assert "oracle needs a numeric --h" in capsys.readouterr().err
        assert not (_outdir / "o.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--x", "5", "--h", "10"],
        ["selectbw", "--x", "5", "--grid", "5:40:3"],
    ], ids=["estimate", "selectbw"])
    def test_no_data_source_is_exit_2(self, _outdir, capsys, argv):
        assert main(argv) == 2
        assert ("need a data source: --data FILE or --model {1,2}"
                in capsys.readouterr().err)

    def test_bad_grid_spec(self, _outdir, capsys):
        assert main(["mise", "--model", "1", "--n", "10", "--m", "1",
                     "--x", "5", "--grid", "10:40"]) == 2
        assert main(["mise", "--model", "1", "--n", "10", "--m", "1",
                     "--x", "5", "--grid", "40:10:3"]) == 2
        assert "--grid: need 0 < lo <= hi" in capsys.readouterr().err

    def test_nonpositive_bandwidth(self, _outdir, capsys, tmp_path):
        path, _ = _sample_csv(tmp_path)
        assert main(["estimate", "--data", str(path), "--x", "5",
                     "--h", "0"]) == 2

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_bandwidth(self, _outdir, capsys, value):
        assert main(["estimate", "--model", "1", "--n", "50", "--x", "5",
                     "--h", value]) == 2

    @pytest.mark.parametrize("command, argv", [
        ("oracle", ["--model", "1", "--t", "1", "--h", "3", "--n", "400"]),
        ("estimate", ["--model", "1", "--n", "50", "--h", "15"]),
        ("mise", ["--model", "1", "--n", "40", "--m", "2",
                  "--grid", "10:40:3"]),
    ], ids=["oracle", "estimate", "mise"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_nonfinite_covariate_is_exit_2(self, _outdir, capsys, tmp_path,
                                           command, argv, value, where):
        if where == "flag":
            argv = [*argv, f"--x={value}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"x": float(value)}))
            argv = [*argv, "--config", str(cfg)]
        assert main([command, *argv, "--out", "x.csv"]) == 2
        assert "--x must be finite" in capsys.readouterr().err
        assert not (_outdir / "x.csv").exists()

    @pytest.mark.parametrize("key", [
        key for key, option in cli._OPTIONS.items()
        if option.convert not in (cli._text, cli._switch)])
    def test_negative_value_as_separate_argument(self, key):
        # argparse reads a separate "-1e-3" as a flag; every numeric
        # option must hand it to its converter instead
        option = cli._OPTIONS[key]
        name = next(n for n, c in cli._COMMANDS.items() if key in c.keys)
        args = cli._build_parser().parse_args(
            cli._joined([name, option.flag, "-1e-3"]))
        assert getattr(args, key) == (["-1e-3"] if option.repeat else "-1e-3")
        try:
            value = cli._resolve(name, args)[key]
        except ConfigError as exc:
            assert str(exc).startswith(option.flag)
        else:
            assert value == ([-1e-3] if option.repeat else -1e-3)

    def test_negative_oracle_values_reach_their_checks(self, _outdir, capsys):
        base = ["oracle", "--model", "1", "--t", "1", "--h", "3", "--n", "400",
                "--out", "o.csv"]
        assert main([*base, "--x", "-1e3"]) == 4
        assert "covariate density vanishes at x=-1000.0" in capsys.readouterr().err
        assert main([*base, "--x", "-1e-3"]) == 0
        assert main([*base, "--x", "5", "--t", "-inf"]) == 2
        assert "--t must be a number or inf" in capsys.readouterr().err
        assert main([*base, "--x", "-nan"]) == 2
        assert "--x must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_nan_or_minus_infinite_time_is_exit_2(self, _outdir, capsys,
                                                  tmp_path, value, where):
        argv = ["oracle", "--model", "1", "--x", "5", "--h", "3",
                "--n", "400", "--out", "t.csv"]
        if where == "flag":
            argv.append(f"--t={value}")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"t": [1.0, float(value)]}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert "--t must be a number or inf" in capsys.readouterr().err
        assert not (_outdir / "t.csv").exists()

    @pytest.mark.parametrize("command", ["estimate", "selectbw"])
    @pytest.mark.parametrize("extra", [["--model", "2"], ["--n", "5"],
                                       ["--model", "2", "--n", "5"]],
                             ids=["model", "n", "model-and-n"])
    def test_data_excludes_model_and_n(self, _outdir, capsys, tmp_path,
                                       command, extra):
        # a generated-sample setting next to --data would be ignored
        path, _ = _sample_csv(tmp_path)
        own = ["--h", "15"] if command == "estimate" else ["--grid", "5:40:3"]
        assert main([command, "--data", str(path), "--x", "5", *own,
                     *extra]) == 2
        assert "cannot be combined with --data" in capsys.readouterr().err
        assert not list(_outdir.glob(f"{command}*"))

    @pytest.mark.parametrize("command,extra", [
        ("estimate", ["--h", "15", "--covariate-col", "nosuch",
                      "--group", "stage9"]),
        ("selectbw", ["--grid", "5:40:3", "--B", "2", "--delimiter", ";"]),
    ], ids=["estimate", "selectbw"])
    def test_model_excludes_file_options(self, _outdir, capsys, tmp_path,
                                         command, extra):
        # options that only shape how --data is read would be ignored
        assert main([command, "--model", "1", "--n", "50", "--x", "5",
                     *extra]) == 2
        assert "cannot be combined with --model" in capsys.readouterr().err
        assert not list(_outdir.glob(f"{command}*"))
        config = tmp_path / "file_options.json"
        config.write_text(json.dumps({"time_col": "time"}))
        assert main([command, "--model", "1", "--n", "50", "--x", "5",
                     *extra[:2], "--config", str(config)]) == 2
        assert "--time-col cannot be combined" in capsys.readouterr().err

    def test_missing_data_file_is_exit_3(self, _outdir, capsys):
        assert main(["estimate", "--data", "/definitely/not/here.csv",
                     "--x", "5", "--h", "10"]) == 3

    def test_undecodable_byte_is_exit_3(self, _outdir, capsys, tmp_path):
        # past the first chunk the file is decoded in, so the line must be
        # found from the byte, not from the rows read so far
        path, _ = _sample_csv(tmp_path, n=600)
        with open(path) as handle:
            encoding = handle.encoding
        try:
            b"\xe9".decode(encoding)
        except UnicodeDecodeError:
            pass
        else:
            pytest.skip(f"a lone \\xe9 byte decodes as {encoding}")
        lines = path.read_bytes().splitlines(keepends=True)
        assert sum(map(len, lines[:500])) > 8192
        lines[500] = lines[500].replace(b",", b"\xe9,", 1)
        path.write_bytes(b"".join(lines))
        assert main(["estimate", "--data", str(path), "--x", "5",
                     "--h", "10", "--out", "e.csv"]) == 3
        assert (f"error: {path} line 501: cannot decode as {encoding}: "
                in capsys.readouterr().err)
        assert not (_outdir / "e.csv").exists()

    def test_oversized_field_is_exit_3(self, _outdir, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("age,time,delta\n5,1.0,1\n6," + "7" * 140000
                        + ",0\n8,2.0,1\n")
        assert main(["estimate", "--data", str(path), "--x", "5",
                     "--h", "10", "--out", "e.csv"]) == 3
        assert (f"error: {path} line 3: field larger than field limit "
                in capsys.readouterr().err)
        assert not (_outdir / "e.csv").exists()

    def test_bad_column_is_exit_3(self, _outdir, capsys, tmp_path):
        path, _ = _sample_csv(tmp_path)
        assert main(["estimate", "--data", str(path),
                     "--covariate-col", "height", "--x", "5",
                     "--h", "10"]) == 3

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_invalid_delimiter_is_exit_2(self, _outdir, capsys, tmp_path,
                                         delimiter):
        path, _ = _sample_csv(tmp_path)
        assert main(["estimate", "--data", str(path), "--delimiter",
                     delimiter, "--x", "2", "--h", "5"]) == 2
        assert f"invalid delimiter {delimiter!r}" in capsys.readouterr().err

    def test_no_subcommand_is_exit_2(self, _outdir, capsys):
        assert main([]) == 2

    def test_argparse_rejects_unknown_choice(self, _outdir, capsys):
        # the flag fails as its config value does
        assert main(["simulate", "--model", "1", "--n", "5",
                     "--format", "xml"]) == 2
        assert ("--format must be csv or json, got xml\n"
                in capsys.readouterr().err)
        assert not list(_outdir.glob("simulate*"))

    @pytest.mark.parametrize("command, key, low", [
        ("mise", "n", 1), ("mise", "m", 1), ("mise", "time_grid_size", 2),
        ("estimate", "B", 1), ("estimate", "time_points", 2),
    ])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_size_no_array_can_hold_is_a_config_error(self, tmp_path, where,
                                                      command, key, low):
        # checked by the parse alone: a run would draw chunk after chunk
        flag, too_big = cli._OPTIONS[key].flag, cli._SIZE_MAX + 1
        if where == "flag":
            argv = [command, flag, str(too_big)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: too_big}))
            argv = [command, "--config", str(cfg)]
        args = cli._build_parser().parse_args(cli._joined(argv))
        with pytest.raises(ConfigError) as refused:
            cli._resolve(command, args)
        assert str(refused.value) == (f"{flag} must be from {low} to "
                                      f"{cli._SIZE_MAX}, got {too_big}")
        args = cli._build_parser().parse_args(
            cli._joined([command, flag, str(cli._SIZE_MAX)]))
        assert cli._resolve(command, args)[key] == cli._SIZE_MAX

    def test_config_size_1e20_exits_2(self, _outdir, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": 1, "n": 1e20}')
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert ("--n must be from 1 to 1152921504606846975, got "
                "100000000000000000000\n") in capsys.readouterr().err

    def test_size_no_float64_array_can_hold_exits_2(self, _outdir, capsys):
        # 2**62 is a valid numpy dimension, but 2**65 bytes of float64
        assert main(["simulate", "--model", "1", "--n", str(2**62)]) == 2
        assert (f"--n must be from 1 to {cli._SIZE_MAX}, got {2**62}\n"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key", ["grid", "grid2"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_grid_count_beyond_the_size_bound_exits_2(self, _outdir, capsys,
                                                      tmp_path, key, where):
        argv = ["mise", "--model", "1", "--n", "5", "--m", "1", "--x", "5",
                "--grid", "1:2:3", "--out", "o.csv"]
        count = 10**20
        if where == "flag":
            argv += [f"--{key}", f"1:2:{count}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: [1, 2, count]}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert (f"--{key} count must be from 1 to {cli._SIZE_MAX}, "
                f"got {count}\n") in capsys.readouterr().err
        assert not (_outdir / "o.csv").exists()

    def test_help_shows_each_default(self, capsys):
        with pytest.raises(SystemExit) as shown:
            main(["estimate", "--help"])
        assert shown.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for shown_default in ("covariate column (default: age)",
                              "field delimiter (default: ,)",
                              "bootstrap resamples (default: 100)",
                              "pilot bandwidth constant (default: 0.75)"):
            assert shown_default in text
        # a switch and an option with no default show none
        assert "monotone --time-points" in text
        assert "(log spaced) --B" in text

    def test_huge_seed_is_accepted(self, _outdir, capsys):
        assert main(["simulate", "--model", "1", "--n", "5", "--seed",
                     str(2**100), "--out", "big.csv"]) == 0
        assert _read_meta(_outdir / "big.csv")["config"]["seed"] == 2**100

    def test_unexpected_exception_is_exit_1(self, _outdir, capsys,
                                            monkeypatch):
        def broken(opts):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "simulate",
                            cli._COMMANDS["simulate"]._replace(run=broken))
        assert main(["simulate", "--model", "1", "--n", "5"]) == 1
        assert (capsys.readouterr().err
                == "unexpected error: RuntimeError('boom')\n")

    def test_outdir_env_resolves_relative_paths(self, _outdir, capsys,
                                                monkeypatch, tmp_path):
        nested = tmp_path / "elsewhere"
        monkeypatch.setenv("NPMIXCURE_OUTDIR", str(nested))
        rc = main(["simulate", "--model", "1", "--n", "5", "--seed", "1",
                   "--out", "deep.csv"])
        assert rc == 0
        assert (nested / "deep.csv").exists()
        assert (nested / "deep.csv.meta.json").exists()


class TestParserCache:
    def test_one_parser_carries_nothing_between_calls(self, _outdir, capsys,
                                                      tmp_path):
        path, _ = _sample_csv(tmp_path)
        data = ["--data", str(path)]
        calls = [
            ["estimate", *data, "--x", "2", "--x", "5", "--h", "10"],
            ["estimate", *data, "--x", "5", "--h", "10"],
            ["selectbw", *data, "--x", "5", "--grid", "8:60:3", "--B", "8"],
        ]
        first = []
        for k, argv in enumerate(calls):
            cli._build_parser.cache_clear()
            assert main([*argv, "--out", f"first{k}.csv"]) == 0
            first.append(_written(_outdir, f"first{k}.csv"))
        assert cli._build_parser() is cli._build_parser()
        assert main([*calls[0], "--out", "again0.csv"]) == 0
        # argparse stops this call after taking its --x values
        with pytest.raises(SystemExit) as rejected:
            main(["estimate", *data, "--x", "7", "--bogus"])
        assert rejected.value.code == 2
        for k in (1, 2):
            assert main([*calls[k], "--out", f"again{k}.csv"]) == 0
        for k in range(3):
            assert _written(_outdir, f"again{k}.csv") == first[k]
        assert _read_meta(_outdir / "again1.csv")["config"]["x"] == [5.0]
