"""Data file ingestion and deterministic serialization."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmixcure import DatasetSchema, ingest
from npmixcure.exceptions import ConfigError, DataError
from npmixcure.io_utils import (
    _cell,
    write_csv,
    write_json_table,
    write_meta,
    write_table,
)

from helpers import cell_reference


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestFormatFloat:
    def test_round_trips_exactly(self):
        # a float cell is the shortest string that parses back to it
        rng = np.random.default_rng(3)
        for v in rng.uniform(-1e6, 1e6, 200):
            assert float(_cell(v)) == v
        assert _cell(0.1) == "0.1"
        assert _cell(1.0) == "1.0"
        assert float(_cell(1.0 / 3.0)) == 1.0 / 3.0


class TestIngest:
    def test_three_row_file(self, tmp_path):
        path = _write(
            tmp_path, "tiny.csv",
            "age,time,delta\n50,1.5,1\n61,2.0,0\n70,0.5,1\n",
        )
        report = ingest(path, DatasetSchema())
        assert report.rows_read == 3
        assert report.rows_kept == 3
        assert report.n_censored == 1
        assert_allclose(report.censoring_fraction, 1.0 / 3.0)
        assert_allclose(report.sample.x, [50.0, 61.0, 70.0])
        assert_allclose(report.sample.t, [1.5, 2.0, 0.5])
        assert np.array_equal(report.sample.delta, [1, 0, 1])

    def test_no_header_positional_columns(self, tmp_path):
        path = _write(tmp_path, "raw.csv", "50,1.5,1\n61,2.0,0\n")
        schema = DatasetSchema(
            covariate="0", time="1", delta="2", header=False
        )
        report = ingest(path, schema)
        assert report.rows_kept == 2
        assert_allclose(report.sample.x, [50.0, 61.0])

    def test_nondigit_positional_column_is_config_error(self, tmp_path):
        path = _write(tmp_path, "raw.csv", "50,1.5,1\n")
        schema = DatasetSchema(covariate="age", header=False)
        with pytest.raises(ConfigError):
            ingest(path, schema)

    def test_custom_delimiter(self, tmp_path):
        path = _write(
            tmp_path, "semi.csv", "age;time;delta\n50;1.5;1\n61;2;0\n"
        )
        report = ingest(path, DatasetSchema(delimiter=";"))
        assert report.rows_kept == 2

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_invalid_delimiter_is_config_error(self, tmp_path, delimiter):
        path = _write(tmp_path, "t.csv", "age,time,delta\n50,1.5,1\n")
        with pytest.raises(ConfigError,
                           match=f"invalid delimiter {delimiter!r}"):
            ingest(path, DatasetSchema(delimiter=delimiter))

    def test_group_filter(self, tmp_path):
        path = _write(
            tmp_path, "grouped.csv",
            "stage,age,time,delta\n"
            "1,50,1.5,1\n2,61,2.0,0\n1,70,0.5,1\n3,45,3.0,1\n",
        )
        schema = DatasetSchema(group="stage")
        report = ingest(path, schema, group_filter=["1", "3"])
        assert report.rows_read == 4
        assert report.rows_kept == 3
        assert_allclose(report.sample.x, [50.0, 70.0, 45.0])

    def test_filter_without_group_column(self, tmp_path):
        path = _write(tmp_path, "t.csv", "age,time,delta\n50,1,1\n")
        with pytest.raises(ConfigError):
            ingest(path, DatasetSchema(), group_filter=["1"])

    def test_filter_keeping_nothing(self, tmp_path):
        path = _write(
            tmp_path, "t.csv", "stage,age,time,delta\n1,50,1,1\n"
        )
        with pytest.raises(DataError):
            ingest(path, DatasetSchema(group="stage"), group_filter=["9"])

    def test_missing_column_named_in_error(self, tmp_path):
        path = _write(tmp_path, "t.csv", "age,when,delta\n50,1,1\n")
        with pytest.raises(DataError, match="'time'"):
            ingest(path, DatasetSchema())

    def test_bad_time_reports_line_number(self, tmp_path):
        path = _write(
            tmp_path, "t.csv", "age,time,delta\n50,1.0,1\n61,soon,0\n"
        )
        with pytest.raises(DataError, match="line 3"):
            ingest(path, DatasetSchema())

    def test_negative_time_rejected(self, tmp_path):
        path = _write(tmp_path, "t.csv", "age,time,delta\n50,-1.0,1\n")
        with pytest.raises(DataError, match="nonnegative"):
            ingest(path, DatasetSchema())

    @pytest.mark.parametrize("time", ["nan", "inf", "-1"])
    def test_nonfinite_or_negative_time_message(self, tmp_path, time):
        path = _write(tmp_path, "t.csv",
                      f"age,time,delta\n50,1.0,1\n61,{time},0\n")
        with pytest.raises(DataError) as raised:
            ingest(path, DatasetSchema())
        assert str(raised.value) == (
            f"{path} line 3: time must be finite and nonnegative, "
            f"got {time!r}"
        )

    def test_infinite_covariate_message(self, tmp_path):
        path = _write(tmp_path, "t.csv", "age,time,delta\n50,1.0,1\ninf,2,0\n")
        with pytest.raises(DataError) as raised:
            ingest(path, DatasetSchema())
        assert str(raised.value) == (
            f"{path} line 3: covariate must be finite, got 'inf'")

    def test_nan_covariate_message_names_the_cell(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "age,time,delta\n50,1.0,1\n NaN,2,0\n")
        with pytest.raises(DataError) as raised:
            ingest(path, DatasetSchema())
        assert str(raised.value) == (
            f"{path} line 3: covariate must be finite, got ' NaN'")

    def test_bad_delta_rejected(self, tmp_path):
        path = _write(tmp_path, "t.csv", "age,time,delta\n50,1.0,2\n")
        with pytest.raises(DataError, match="delta must be 0 or 1"):
            ingest(path, DatasetSchema())

    def test_bad_covariate_rejected(self, tmp_path):
        path = _write(tmp_path, "t.csv", "age,time,delta\nold,1.0,1\n")
        with pytest.raises(DataError, match="covariate"):
            ingest(path, DatasetSchema())

    def test_short_row_rejected(self, tmp_path):
        path = _write(tmp_path, "t.csv", "age,time,delta\n50,1.0\n")
        with pytest.raises(DataError, match="columns"):
            ingest(path, DatasetSchema())

    def test_blank_rows_skipped(self, tmp_path):
        path = _write(
            tmp_path, "t.csv", "age,time,delta\n\n50,1.0,1\n  , ,\n61,2.0,0\n"
        )
        report = ingest(path, DatasetSchema())
        assert report.rows_read == 2
        assert report.rows_kept == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest(tmp_path / "absent.csv", DatasetSchema())

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "empty.csv", "")
        with pytest.raises(DataError):
            ingest(path, DatasetSchema())

    def test_header_only_file(self, tmp_path):
        path = _write(tmp_path, "t.csv", "age,time,delta\n")
        with pytest.raises(DataError, match="no data rows"):
            ingest(path, DatasetSchema())


class TestWriters:
    def test_csv_bytes_are_deterministic(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("a", "b", "c"), [(0.1, 2, True), (1.0 / 3.0, -5, False)])
        text = path.read_text()
        assert text == (
            "a,b,c\n"
            "0.1,2,1\n"
            f"{1.0 / 3.0!r},-5,0\n"
        )

    def test_csv_round_trips_numpy_scalars(self, tmp_path):
        path = tmp_path / "out.csv"
        value = np.float64(0.12345678901234567)
        write_csv(path, ("v",), [(value,)])
        line = path.read_text().splitlines()[1]
        assert float(line) == float(value)

    def test_cells_equal_the_isinstance_chain(self):
        values = [
            True, False, np.bool_(True), np.bool_(False),
            0, -5, 2**70, np.int64(-3), np.int32(7),
            0.1, -0.0, 1e300, float("nan"), float("-inf"),
            np.float64(1.0 / 3.0), np.float32(0.1), "text",
        ]
        for value in values:
            assert _cell(value) == cell_reference(value), value
        assert [_cell(v) for v in (True, np.bool_(False), np.int32(7),
                                   np.float32(0.5), -0.0)] == [
            "1", "0", "7", "0.5", "-0.0"]

    def test_json_table_structure(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_table(path, ("x", "k"), [(np.float64(0.5), np.int64(3))])
        payload = json.loads(path.read_text())
        assert payload == {"columns": ["x", "k"], "rows": [[0.5, 3]]}

    def test_json_table_bool_and_str_cells(self, tmp_path):
        # a bool stays a JSON boolean, not the integer it subclasses
        path = tmp_path / "out.json"
        write_json_table(path, ("ok", "bad", "name"),
                         [(True, np.bool_(False), "curve")])
        rows = json.loads(path.read_text())["rows"]
        assert rows == [[True, False, "curve"]]
        assert [type(v) for v in rows[0]] == [bool, bool, str]

    def test_dispatch_and_unknown_format(self, tmp_path):
        write_table(tmp_path / "a.csv", "csv", ("x",), [(1.0,)])
        write_table(tmp_path / "a.json", "json", ("x",), [(1.0,)])
        with pytest.raises(ConfigError):
            write_table(tmp_path / "a.xml", "xml", ("x",), [(1.0,)])

    def test_meta_sidecar_sorted_and_stable(self, tmp_path):
        path = tmp_path / "m.json"
        write_meta(path, {"zeta": 1, "alpha": {"b": np.int64(2)}})
        text = path.read_text()
        assert text.index("alpha") < text.index("zeta")
        assert json.loads(text) == {"zeta": 1, "alpha": {"b": 2}}
        write_meta(tmp_path / "m2.json", {"zeta": 1, "alpha": {"b": np.int64(2)}})
        assert text == (tmp_path / "m2.json").read_text()
