"""CSV and manifest I/O with strict schema validation.

Input data files need a header row; the outcome column (default ``y``)
must contain the literal strings 0 or 1.  Every other column except an
optional ``id`` column is treated as a numeric covariate, in file
order.  Outputs are UTF-8 CSV; manifests are JSON with sorted keys so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .model_core import Dataset

__all__ = [
    "Standardizer",
    "read_dataset_csv",
    "read_covariates_csv",
    "read_pi_u_csv",
    "read_scored_csv",
    "read_draws_csv",
    "write_rows",
    "write_draws_csv",
    "write_ess_table",
    "write_simulated_csv",
    "write_manifest",
    "read_manifest",
]

ID_COLUMN = "id"


@dataclass(frozen=True)
class Standardizer:
    """Column-wise z-scoring of the raw covariates (intercept excluded)."""

    means: np.ndarray
    sds: np.ndarray

    @classmethod
    def fit(cls, raw: np.ndarray) -> "Standardizer":
        means = raw.mean(axis=0)
        sds = raw.std(axis=0)
        if np.any(sds == 0.0):
            raise DataError("cannot standardize a constant covariate column")
        return cls(means=means, sds=sds)

    def transform(self, raw: np.ndarray) -> np.ndarray:
        return (raw - self.means) / self.sds

    def to_dict(self) -> dict:
        return {"means": self.means.tolist(), "sds": self.sds.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(means=np.asarray(d["means"]), sds=np.asarray(d["sds"]))


def _read_table(path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except OSError as exc:  # the message names the file
        raise DataError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file, header row required")
    names = [h.strip() for h in header]
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise DataError(f"{path}: column name {repeated!r} appears more than once in the header")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i + 2} has {len(row)} fields, expected {width}")
    return names, rows


def _parse_float_column(path, rows, col, name) -> np.ndarray:
    """One column of finite floats; anything else is a DataError naming its first bad row."""
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        try:
            out[i] = float(row[col])
        except ValueError:
            out[i] = np.nan
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"{path}: {rows[i][col]!r} in column {name!r}, row {i + 2} is not a finite number"
        )
    return out


def read_dataset_csv(path, outcome_col: str = "y"):
    """Load a labelled dataset.

    Returns (raw covariate matrix without intercept, outcomes,
    covariate names, row ids).  Ids come from an ``id`` column when
    present, else they are 1-based row numbers.
    """
    header, rows = _read_table(path)
    if outcome_col not in header:
        raise DataError(f"{path}: outcome column {outcome_col!r} not found in header")
    if not rows:
        raise DataError(f"{path}: no data rows")
    y_col = header.index(outcome_col)
    y = np.empty(len(rows))
    for i, row in enumerate(rows):
        v = row[y_col].strip()
        if v not in ("0", "1"):
            raise DataError(
                f"{path}: outcome must be the literal 0 or 1, got {v!r} in row {i + 2}"
            )
        y[i] = float(v)
    cov_cols = [
        (j, name)
        for j, name in enumerate(header)
        if j != y_col and name != ID_COLUMN
    ]
    if not cov_cols:
        raise DataError(f"{path}: no covariate columns")
    x = np.column_stack(
        [_parse_float_column(path, rows, j, name) for j, name in cov_cols]
    )
    names = [name for _, name in cov_cols]
    return x, y, names, _row_ids(header, rows)


def _row_ids(header: list[str], rows: list[list[str]]) -> list[str]:
    """The ``id`` column's values when present, else 1-based row numbers."""
    if ID_COLUMN in header:
        return [row[header.index(ID_COLUMN)] for row in rows]
    return [str(i + 1) for i in range(len(rows))]


def read_covariates_csv(path, covariate_names: list[str], outcome_col: str = "y"):
    """Load covariates for prediction, enforcing the fitted schema.

    The file's covariate columns must match ``covariate_names`` exactly
    and in order; permuted or renamed columns are a hard error.  The
    outcome column is optional and ignored if present.
    """
    header, rows = _read_table(path)
    if not rows:
        raise DataError(f"{path}: no data rows")
    found = [name for name in header if name != outcome_col and name != ID_COLUMN]
    if found != list(covariate_names):
        raise DataError(
            f"{path}: covariate columns {found} do not match the model schema "
            f"{list(covariate_names)} (same names, same order required)"
        )
    cols = [header.index(name) for name in covariate_names]
    x = np.column_stack(
        [_parse_float_column(path, rows, j, header[j]) for j in cols]
    )
    return x, _row_ids(header, rows)


def read_pi_u_csv(path, expected_rows: int | None = None) -> np.ndarray:
    """Read externally supplied first-stage probabilities (column ``pi_u``)."""
    header, rows = _read_table(path)
    if "pi_u" not in header:
        raise DataError(f"{path}: column 'pi_u' not found")
    vals = _parse_float_column(path, rows, header.index("pi_u"), "pi_u")
    if np.any((vals < 0.0) | (vals > 1.0)):
        raise DataError(f"{path}: pi_u values must lie in [0, 1]")
    if expected_rows is not None and vals.shape[0] != expected_rows:
        raise DataError(
            f"{path}: {vals.shape[0]} pi_u rows, expected {expected_rows}"
        )
    return vals


def read_scored_csv(path, prob_col: str = "prob", outcome_col: str = "y"):
    """Read a scored file: one probability and one 0/1 outcome per row."""
    header, rows = _read_table(path)
    for col in (prob_col, outcome_col):
        if col not in header:
            raise DataError(f"{path}: column {col!r} not found")
    probs = _parse_float_column(path, rows, header.index(prob_col), prob_col)
    y = _parse_float_column(path, rows, header.index(outcome_col), outcome_col)
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise DataError(f"{path}: probabilities must lie in [0, 1]")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError(f"{path}: outcomes must be 0 or 1")
    return probs, y


def write_rows(path, header: list[str], rows) -> None:
    """Write a CSV table (RFC 4180 quoting, CRLF line ends).

    ``csv`` writes a float (``np.float64`` included) as its shortest repr
    and a numpy integer as a plain integer, so every cell round-trips
    exactly; only booleans need converting first.  Python floats format
    about twice as fast as numpy scalars, so pass ``array.tolist()``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# The writers below that reuse write_rows call this private name, so a wrapper
# around each public ``write_*`` function counts every file once.
_write_rows = write_rows


def write_draws_csv(path, coefficient_names: list[str], draws: np.ndarray) -> None:
    """One column per coefficient, one row per retained draw, in the bytes :func:`write_rows` writes.

    A rejected MH proposal repeats the previous draw, so most rows repeat
    the row before; each run of repeats is formatted once.  A repeat is
    judged by bit pattern: 0.0 == -0.0, but the two are written differently.
    """
    if draws.shape[1] != len(coefficient_names):
        raise DataError("coefficient names do not match the draw matrix width")
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    bits = draws.view(np.uint64)
    repeats = [False, *np.all(bits[1:] == bits[:-1], axis=1).tolist()]
    lines, line = [], ""
    for row, repeat in zip(draws.tolist(), repeats):
        if not repeat:
            line = ",".join(map(repr, row)) + "\r\n"  # csv's excel dialect: a float is its repr, never quoted
        lines.append(line)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(coefficient_names)
        fh.write("".join(lines))


def read_draws_csv(path) -> tuple[list[str], np.ndarray]:
    header, rows = _read_table(path)
    if not rows:
        raise DataError(f"{path}: no draws")
    draws = np.column_stack(
        [_parse_float_column(path, rows, j, name) for j, name in enumerate(header)]
    )
    return header, draws


def write_ess_table(path, rows: list[dict]) -> None:
    """ESS per lam, with ``low_ess`` written as 0/1."""
    _write_rows(
        path,
        ["lambda", "ess", "ess_fraction", "low_ess"],
        [(r["lambda"], r["ess"], r["ess_fraction"], int(r["low_ess"])) for r in rows],
    )


def write_simulated_csv(path, data: Dataset, oracle=None, mask=None) -> None:
    """Simulated dataset as x1..xd plus y (plus oracle columns on request); y is written as 0/1."""
    d = data.d
    header = [f"x{j + 1}" for j in range(d)] + ["y"]
    cols = [data.covariates[:, 1:], data.outcomes[:, None]]
    if oracle is not None:
        header.append("true_probability")
        cols.append(np.asarray(oracle, dtype=np.float64)[:, None])
    if mask is not None:
        header.append("contaminated")
        cols.append(np.asarray(mask, dtype=np.float64)[:, None])
    rows = [row[:d] + [int(row[d])] + row[d + 1 :] for row in np.hstack(cols).tolist()]
    _write_rows(path, header, rows)


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_manifest(path, manifest: dict) -> None:
    text = json.dumps(_jsonable(manifest), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_manifest(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # the message names the file
        raise DataError(str(exc)) from None
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise DataError(f"{path}: unreadable manifest: {exc}") from None
