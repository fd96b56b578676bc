"""CSV and manifest I/O with strict schema validation.

Every input CSV is UTF-8 text, with or without a byte-order mark, and
needs a header row of distinct names, at least one data row and as many
fields in each row as in the header.  Readers pick their
columns by name, and each column obeys one rule: covariates, draws and
probabilities are finite numbers, probabilities (``prob``, ``pi_u``) lie
in [0, 1], and outcomes, in data and scored files alike (default column
``y``), are the literal strings 0 or 1.  A broken rule is a DataError
naming the file, the column and the first bad row.  Every column of a
data file except the outcome and an optional ``id`` column is a numeric
covariate, in file order.  Outputs are UTF-8 CSV; manifests are JSON
with sorted keys so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .model_core import Dataset

__all__ = [
    "Standardizer",
    "read_dataset_csv",
    "read_covariates_csv",
    "read_labelled_covariates_csv",
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
OUTCOME_COLUMN = "y"
PROB_COLUMN = "prob"
_OUTCOMES = {"0": 0.0, "1": 1.0}


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


def _read_table(path) -> _Table:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a byte-order mark is not part of a name
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
    if not rows:
        raise DataError(f"{path}: no data rows")
    return _Table(path, names, rows)


@dataclass(frozen=True)
class _Table:
    """A CSV file's header and data rows; each column method checks one rule on the named column."""

    path: object
    names: list[str]
    rows: list[list[str]]

    def cells(self, name: str) -> list[str]:
        if name not in self.names:
            raise DataError(f"{self.path}: column {name!r} not found")
        j = self.names.index(name)
        return [row[j] for row in self.rows]

    def _reject(self, name: str, bad: np.ndarray, rule: str) -> None:
        """DataError naming the first cell of the column flagged in ``bad``, if any."""
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"{self.path}: {self.cells(name)[i]!r} in column {name!r}, row {i + 2} {rule}")

    def floats(self, name: str) -> np.ndarray:
        values = np.fromiter(map(_float_or_nan, self.cells(name)), np.float64, len(self.rows))
        self._reject(name, ~np.isfinite(values), "is not a finite number")
        return values

    def probabilities(self, name: str) -> np.ndarray:
        values = self.floats(name)
        self._reject(name, (values < 0.0) | (values > 1.0), "is not in [0, 1]")
        return values

    def outcomes(self, name: str) -> np.ndarray:
        values = np.fromiter((_OUTCOMES.get(cell.strip(), math.nan) for cell in self.cells(name)), np.float64,
                             len(self.rows))
        self._reject(name, np.isnan(values), "is not the literal 0 or 1")
        return values

    def matrix(self, names: list[str]) -> np.ndarray:
        return np.column_stack([self.floats(name) for name in names])

    def covariates(self, outcome_col: str) -> list[str]:
        """Every column but the outcome and ``id`` columns, in file order."""
        return [name for name in self.names if name not in (outcome_col, ID_COLUMN)]

    def schema_matrix(self, covariate_names: list[str], outcome_col: str) -> np.ndarray:
        """The covariate columns, which must be ``covariate_names`` exactly and in order."""
        found = self.covariates(outcome_col)
        if found != list(covariate_names):
            raise DataError(f"{self.path}: covariate columns {found} do not match the model schema "
                            f"{list(covariate_names)} (same names, same order required)")
        return self.matrix(found)

    def ids(self) -> list[str]:
        """The ``id`` column's values when present, else 1-based row numbers."""
        return self.cells(ID_COLUMN) if ID_COLUMN in self.names else [str(i + 1) for i in range(len(self.rows))]


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def read_dataset_csv(path, outcome_col: str = OUTCOME_COLUMN):
    """Load a labelled dataset.

    Returns (raw covariate matrix without intercept, outcomes,
    covariate names, row ids).  Ids come from an ``id`` column when
    present, else they are 1-based row numbers.
    """
    table = _read_table(path)
    y = table.outcomes(outcome_col)
    names = table.covariates(outcome_col)
    if not names:
        raise DataError(f"{path}: no covariate columns")
    return table.matrix(names), y, names, table.ids()


def read_covariates_csv(path, covariate_names: list[str], outcome_col: str = OUTCOME_COLUMN):
    """Load covariates for prediction, enforcing the fitted schema.

    The file's covariate columns must match ``covariate_names`` exactly
    and in order; permuted or renamed columns are a hard error.  The
    outcome column is optional and ignored if present.
    """
    table = _read_table(path)
    return table.schema_matrix(covariate_names, outcome_col), table.ids()


def read_labelled_covariates_csv(path, covariate_names: list[str], outcome_col: str):
    """Load covariates in the fitted schema, as :func:`read_covariates_csv` does, and the outcomes."""
    table = _read_table(path)
    return table.schema_matrix(covariate_names, outcome_col), table.outcomes(outcome_col)


def read_pi_u_csv(path, expected_rows: int | None = None) -> np.ndarray:
    """Read externally supplied first-stage probabilities (column ``pi_u``)."""
    vals = _read_table(path).probabilities("pi_u")
    if expected_rows is not None and vals.shape[0] != expected_rows:
        raise DataError(f"{path}: {vals.shape[0]} pi_u rows, expected {expected_rows}")
    return vals


def read_scored_csv(path, prob_col: str = PROB_COLUMN, outcome_col: str = OUTCOME_COLUMN):
    """Read a scored file: one probability and one 0/1 outcome per row."""
    table = _read_table(path)
    return table.probabilities(prob_col), table.outcomes(outcome_col)


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
    table = _read_table(path)
    return table.names, table.matrix(table.names)


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


def write_manifest(path, manifest: dict) -> None:
    """Sorted keys, two-space indents; numpy scalars and arrays are written as their Python values."""
    text = json.dumps(manifest, indent=2, sort_keys=True, default=lambda value: value.tolist())
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_manifest(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # the message names the file
        raise DataError(str(exc)) from None
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise DataError(f"{path}: unreadable manifest: {exc}") from None
