"""Delimited-file ingestion and deterministic result serialization."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError
from .survival import CensoredSample


@dataclass(frozen=True)
class DatasetSchema:
    """Column mapping for delimited survival data files.

    Columns are addressed by name when the file has a header row and by
    zero-based index (given as a digit string) otherwise.  ``group`` is
    optional and only needed when rows are to be filtered by a grouping
    label before estimation.
    """

    covariate: str = "age"
    time: str = "time"
    delta: str = "delta"
    group: str | None = None
    delimiter: str = ","
    header: bool = True


@dataclass(frozen=True)
class IngestReport:
    """One parsed sample plus the bookkeeping of its ingestion."""

    sample: CensoredSample
    rows_read: int
    rows_kept: int
    n_censored: int

    @property
    def censoring_fraction(self) -> float:
        return self.n_censored / self.rows_kept


def _column_index(name: str, fieldnames: list[str] | None, label: str) -> int:
    """Index of schema column ``name``: by name in the header row
    ``fieldnames``, or by zero-based position when there is none."""
    if fieldnames is None:
        if not name.isdigit():
            raise ConfigError(
                f"schema column {label}={name!r}: without a header row, "
                "columns are addressed by zero-based index"
            )
        return int(name)
    try:
        return fieldnames.index(name)
    except ValueError:
        raise DataError(
            f"column {name!r} ({label}) not found in header {fieldnames}"
        ) from None


def _number(text: str, what: str, path, line: int, ok, rule: str) -> float:
    """The float in cell ``text``, the ``what`` of line ``line``; a
    DataError unless it is a number for which ``ok`` holds."""
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"{path} line {line}: {what} {text!r} is not a number"
        ) from None
    if not ok(value):
        raise DataError(f"{path} line {line}: {what} must be {rule}, "
                        f"got {text!r}")
    return value


def _rows(reader, path, encoding: str):
    """The rows of ``reader``, reading ``path``; a row that cannot be read
    or decoded is a DataError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        # the file is decoded a chunk at a time, so the reader may not have
        # reached the line of the bad byte: find it in the raw bytes
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode(encoding)
        except UnicodeDecodeError as whole:
            exc = whole
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(
            f"{path} line {line}: cannot decode as {encoding}: {exc.reason}"
        ) from None


def ingest(
    path,
    schema: DatasetSchema,
    group_filter=None,
) -> IngestReport:
    """Parse a delimited survival data file into a censored sample.

    Parameters
    ----------
    path : str or pathlib.Path
        File to read.
    schema : DatasetSchema
        Column mapping, delimiter, and header flag.
    group_filter : iterable of str, optional
        Keep only rows whose group column matches one of these labels
        (string comparison after stripping whitespace).  Requires
        ``schema.group``.

    Returns
    -------
    IngestReport
        The sample along with row counts and the censored count.

    Raises
    ------
    ConfigError
        If the filter is given without a group column, or positional
        columns are malformed.
    DataError
        If the file is unreadable, a mapped column is missing, a row
        fails to parse (reported with its line number), or no rows
        survive filtering.
    """
    if group_filter is not None and schema.group is None:
        raise ConfigError("group filter given but the schema has no group column")
    wanted = None if group_filter is None else {str(g).strip() for g in group_filter}

    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    xs: list[float] = []
    ts: list[float] = []
    deltas: list[int] = []
    rows_read = 0
    with handle:
        try:
            reader = csv.reader(handle, delimiter=schema.delimiter)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"invalid delimiter {schema.delimiter!r}: {exc}"
            ) from None
        rows = _rows(reader, path, handle.encoding)
        fieldnames = None
        if schema.header:
            try:
                fieldnames = [name.strip() for name in next(rows)]
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
        i_x, i_t, i_d, i_g = (
            None if name is None else _column_index(name, fieldnames, label)
            for name, label in ((schema.covariate, "covariate"),
                                (schema.time, "time"), (schema.delta, "delta"),
                                (schema.group, "group")))

        needed = max(i for i in (i_x, i_t, i_d, i_g) if i is not None) + 1
        for row in rows:
            if not row or all(not cell.strip() for cell in row):
                continue
            rows_read += 1
            line = reader.line_num
            if len(row) < needed:
                raise DataError(
                    f"{path} line {line}: expected at least {needed} columns, "
                    f"got {len(row)}"
                )
            if wanted is not None and row[i_g].strip() not in wanted:
                continue
            t = _number(row[i_t], "time", path, line,
                        lambda t: 0.0 <= t < math.inf,
                        "finite and nonnegative")
            d_text = row[i_d].strip()
            if d_text not in ("0", "1"):
                raise DataError(
                    f"{path} line {line}: delta must be 0 or 1, got {d_text!r}"
                )
            xs.append(_number(row[i_x], "covariate", path, line,
                              math.isfinite, "finite"))
            ts.append(t)
            deltas.append(int(d_text))

    if not xs:
        if rows_read and wanted is not None:
            raise DataError(
                f"{path}: no rows left after filtering group to {sorted(wanted)}"
            )
        raise DataError(f"{path}: file has no data rows")

    sample = CensoredSample(
        x=np.asarray(xs, dtype=float),
        t=np.asarray(ts, dtype=float),
        delta=np.asarray(deltas, dtype=np.int64),
    )
    return IngestReport(
        sample=sample,
        rows_read=rows_read,
        rows_kept=len(xs),
        n_censored=int(np.sum(sample.delta == 0)),
    )


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _cell(value) -> str:
    """A CSV cell: the JSON scalar as text (a float's shortest repr), a
    bool as 0 or 1."""
    value = _jsonable(value)
    return str(int(value) if isinstance(value, bool) else value)


def write_csv(path, columns, rows) -> None:
    """Write a table as CSV with full-precision floats and LF endings."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_json_table(path, columns, rows) -> None:
    """Write a table as ``{"columns": [...], "rows": [[...], ...]}``."""
    payload = {
        "columns": list(columns),
        "rows": [[_jsonable(v) for v in row] for row in rows],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def write_table(path, fmt: str, columns, rows) -> None:
    """Dispatch on ``fmt`` in {"csv", "json"}."""
    if fmt == "csv":
        write_csv(path, columns, rows)
    elif fmt == "json":
        write_json_table(path, columns, rows)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


def write_meta(path, meta: dict) -> None:
    """Write the metadata sidecar (sorted keys, no volatile fields)."""
    with open(path, "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True, default=_jsonable)
        handle.write("\n")
