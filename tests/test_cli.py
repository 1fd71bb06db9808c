"""Command line interface."""

import csv
import json

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
    true_mise,
)
from npmixcure.cli import _covariate_seed, main
from npmixcure.models import trial_rng
from npmixcure.oracle import amse, population_from_model


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

    def test_h2_with_auto_is_config_error(self, _outdir, capsys, tmp_path):
        path, _ = _sample_csv(tmp_path)
        rc = main(["estimate", "--data", str(path), "--x", "5",
                   "--h", "auto", "--grid", "8:60:3", "--h2", "40",
                   "--out", "est.csv"])
        assert rc == 2


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
        rep = amse(population_from_model(model1()), 0.5, 5.0, 12.0, 200)
        assert row["b1"] == rep.terms.b1
        assert row["b2"] == rep.terms.b2
        assert row["v3"] == rep.terms.v3
        assert row["amse"] == rep.amse
        assert row["bias_term"] + row["variance_term"] == row["amse"]


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

    def test_invalid_json_config(self, _outdir, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_missing_required_setting(self, _outdir, capsys):
        assert main(["simulate", "--model", "1"]) == 2

    def test_bad_model_number(self, _outdir, capsys):
        assert main(["simulate", "--model", "7", "--n", "10"]) == 2

    def test_bad_grid_spec(self, _outdir, capsys):
        assert main(["mise", "--model", "1", "--n", "10", "--m", "1",
                     "--x", "5", "--grid", "10:40"]) == 2

    def test_nonpositive_bandwidth(self, _outdir, capsys, tmp_path):
        path, _ = _sample_csv(tmp_path)
        assert main(["estimate", "--data", str(path), "--x", "5",
                     "--h", "0"]) == 2

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_bandwidth(self, _outdir, capsys, value):
        assert main(["estimate", "--model", "1", "--n", "50", "--x", "5",
                     "--h", value]) == 2

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

    def test_bad_column_is_exit_3(self, _outdir, capsys, tmp_path):
        path, _ = _sample_csv(tmp_path)
        assert main(["estimate", "--data", str(path),
                     "--covariate-col", "height", "--x", "5",
                     "--h", "10"]) == 3

    def test_no_subcommand_is_exit_2(self, _outdir, capsys):
        assert main([]) == 2

    def test_argparse_rejects_unknown_choice(self, _outdir, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--model", "1", "--n", "5", "--format", "xml"])

    def test_outdir_env_resolves_relative_paths(self, _outdir, capsys,
                                                monkeypatch, tmp_path):
        nested = tmp_path / "elsewhere"
        monkeypatch.setenv("NPMIXCURE_OUTDIR", str(nested))
        rc = main(["simulate", "--model", "1", "--n", "5", "--seed", "1",
                   "--out", "deep.csv"])
        assert rc == 0
        assert (nested / "deep.csv").exists()
        assert (nested / "deep.csv.meta.json").exists()
