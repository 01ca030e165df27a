"""Column-ordered microdata tables: typed columns, CSV input and output.

Categorical values are stored as integer codes into an explicit level table;
all downstream modeling operates on the codes.  Numeric columns are float64
arrays where missing cells are NaN; a missing categorical cell is only legal
as a dedicated level (the missing token itself), mirroring how census-style
data treats "not stated" as one more category.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Numeric:
    """Kind marker for real-valued columns (missing allowed, stored as NaN)."""


@dataclass(frozen=True)
class Categorical:
    """Kind marker for coded columns with an explicit, ordered level table."""

    levels: tuple[str, ...]

    def __post_init__(self):
        if len(self.levels) < 1:
            raise DataError("categorical kind needs at least one level")
        if len(set(self.levels)) != len(self.levels):
            raise DataError("categorical levels must be unique")


VariableKind = Union[Numeric, Categorical]

# Schema entries accept concrete kinds or the infer-from-data shorthands.
SchemaEntry = Union[VariableKind, str]

@dataclass(frozen=True)
class Column:
    """One named, typed column. Values are float64 (numeric) or int64 codes."""

    name: str
    kind: VariableKind
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.name:
            raise DataError("column name must be non-empty")
        if isinstance(self.kind, Numeric):
            vals = np.asarray(self.values, dtype=np.float64)
            infinite = np.flatnonzero(np.isinf(vals))
            if infinite.size:
                raise DataError(
                    f"column {self.name!r}: infinite value at index {int(infinite[0])}"
                )
        else:
            vals = np.asarray(self.values, dtype=np.int64)
            if vals.size and (vals.min() < 0 or vals.max() >= len(self.kind.levels)):
                raise DataError(
                    f"column {self.name!r}: categorical code out of range "
                    f"[0, {len(self.kind.levels)})"
                )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.kind, Numeric)

    @property
    def levels(self) -> tuple[str, ...]:
        if not isinstance(self.kind, Categorical):
            raise DataError(f"column {self.name!r} is numeric, has no levels")
        return self.kind.levels

    def missing_mask(self) -> np.ndarray:
        if self.is_numeric:
            return np.isnan(self.values)
        return np.zeros(self.n_rows, dtype=bool)

    def decoded(self) -> list[str]:
        """Values rendered as text (levels for categorical, repr for numeric)."""
        if self.is_numeric:
            return [_format_number(v) for v in self.values]
        lv = self.levels
        return [lv[c] for c in self.values]

    def take(self, index: np.ndarray) -> "Column":
        return Column(self.name, self.kind, self.values[index])

    def equals(self, other: "Column") -> bool:
        if self.name != other.name or self.kind != other.kind:
            return False
        if self.is_numeric:
            return bool(
                np.array_equal(self.values, other.values, equal_nan=True)
            )
        return bool(np.array_equal(self.values, other.values))


def categorical_column(
    name: str, values: Iterable[str], levels: Sequence[str] | None = None
) -> Column:
    """Build a categorical column from text values, inferring levels if absent.

    Inferred levels keep first-appearance order, which is deterministic for a
    fixed input sequence.
    """
    vals = list(values)
    if levels is None:
        seen: dict[str, int] = {}
        for v in vals:
            if v not in seen:
                seen[v] = len(seen)
        levels = tuple(seen)
    else:
        levels = tuple(levels)
    lookup = {lv: i for i, lv in enumerate(levels)}
    try:
        codes = np.array([lookup[v] for v in vals], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"column {name!r}: unknown categorical level {exc.args[0]!r}")
    return Column(name, Categorical(levels), codes)


def numeric_column(name: str, values) -> Column:
    return Column(name, Numeric(), np.asarray(values, dtype=np.float64))


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of equal-length columns plus an optional stamp.

    Immutable after construction; safe to share across concurrent readers.
    """

    columns: tuple[Column, ...]
    name: str = "data"
    label: str | None = None  # written as a leading '#' comment by write_csv

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate column names: {dup}")
        lengths = {c.n_rows for c in self.columns}
        if len(lengths) > 1:
            raise DataError(f"columns have unequal lengths: {sorted(lengths)}")

    @property
    def n_rows(self) -> int:
        return self.columns[0].n_rows if self.columns else 0

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise DataError(f"no column named {name!r}")

    def select(self, names: Sequence[str]) -> "Dataset":
        return Dataset(tuple(self.column(n) for n in names), self.name, self.label)

    def take(self, index: np.ndarray) -> "Dataset":
        return Dataset(
            tuple(c.take(index) for c in self.columns), self.name, self.label
        )

    def with_column(self, col: Column) -> "Dataset":
        """Replace an existing column of the same name, or append a new one."""
        cols = list(self.columns)
        for i, c in enumerate(cols):
            if c.name == col.name:
                cols[i] = col
                return Dataset(tuple(cols), self.name, self.label)
        cols.append(col)
        return Dataset(tuple(cols), self.name, self.label)

    def with_label(self, label: str | None) -> "Dataset":
        return replace(self, label=label)

    def equals(self, other: "Dataset") -> bool:
        """Value-for-value equality over names, kinds, and cells."""
        if self.names != other.names:
            return False
        return all(a.equals(b) for a, b in zip(self.columns, other.columns))

    def schema(self) -> dict[str, VariableKind]:
        return {c.name: c.kind for c in self.columns}


def _format_number(v: float) -> str:
    if math.isnan(v):
        return ""  # caller substitutes the missing token
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def _resolve_kind(entry: SchemaEntry, colname: str) -> tuple[VariableKind | None, bool]:
    """Return (kind or None-if-inferring, infer_levels flag)."""
    if isinstance(entry, (Numeric, Categorical)):
        return entry, False
    if entry == "numeric":
        return Numeric(), False
    if entry == "categorical":
        return None, True
    raise DataError(
        f"schema for {colname!r}: expected Numeric, Categorical, "
        f"'numeric' or 'categorical', got {entry!r}"
    )


def read_csv(
    path: str | Path,
    schema: Mapping[str, SchemaEntry],
    missing_token: str = "NA",
    name: str | None = None,
) -> Dataset:
    """Parse a headered CSV into a Dataset using an explicit per-column schema.

    Cells equal to ``missing_token`` become NaN in numeric columns; in
    categorical columns the token is kept as a dedicated level (appended when
    levels are inferred, required to be listed when they are explicit).
    Leading lines starting with '#' (the synthetic-data stamp) are skipped;
    after the header every line is data, so values may begin with '#'.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        raw = list(csv.reader(fh))
    rows: list[list[str]] = []
    in_preamble = True
    for r in raw:
        if not r:
            continue
        if in_preamble and r[0].startswith("#"):
            continue
        in_preamble = False
        rows.append(r)
    if not rows:
        raise DataError(f"{path}: no header row")
    header = rows[0]
    if len(set(header)) != len(header):
        dup = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"{path}: duplicated header name(s) {dup}")
    missing_cols = [c for c in header if c not in schema]
    if missing_cols:
        raise DataError(f"{path}: no schema entry for column(s) {missing_cols}")
    body = rows[1:]
    for i, r in enumerate(body):
        if len(r) != len(header):
            raise DataError(f"{path}: row {i + 2} has {len(r)} fields, expected {len(header)}")

    columns: list[Column] = []
    for j, colname in enumerate(header):
        kind, infer = _resolve_kind(schema[colname], colname)
        raw = [r[j] for r in body]
        if isinstance(kind, Numeric):
            vals = np.empty(len(raw), dtype=np.float64)
            for i, cell in enumerate(raw):
                if cell == missing_token:
                    vals[i] = np.nan
                    continue
                try:
                    vals[i] = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: unparseable numeric cell {cell!r} "
                        f"(row {i + 2}, column {colname!r})"
                    )
                if not math.isfinite(vals[i]):
                    raise DataError(
                        f"{path}: non-finite numeric cell {cell!r} (row {i + 2}, "
                        f"column {colname!r}); write a missing cell as {missing_token!r}"
                    )
            columns.append(Column(colname, Numeric(), vals))
        elif infer:
            columns.append(categorical_column(colname, raw))
        else:
            assert isinstance(kind, Categorical)
            lookup = {lv: i for i, lv in enumerate(kind.levels)}
            codes = np.empty(len(raw), dtype=np.int64)
            for i, cell in enumerate(raw):
                code = lookup.get(cell)
                if code is None:
                    raise DataError(
                        f"{path}: unknown categorical level {cell!r} "
                        f"(row {i + 2}, column {colname!r}); "
                        f"declare it in the schema or use infer-levels"
                    )
                codes[i] = code
            columns.append(Column(colname, kind, codes))
    return Dataset(tuple(columns), name=name or path.stem)


def write_csv(data: Dataset, path: str | Path, missing_token: str = "NA") -> None:
    """Write a Dataset as UTF-8 CSV; round-trips through read_csv exactly."""
    path = Path(path)
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            if data.label is not None:
                fh.write(f"# SYNTHETIC DATA: {data.label}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(data.names)
            decoded = [c.decoded() for c in data.columns]
            missing = [c.missing_mask() for c in data.columns]
            for i in range(data.n_rows):
                writer.writerow(
                    [
                        missing_token if missing[j][i] else decoded[j][i]
                        for j in range(len(data.columns))
                    ]
                )
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
