"""Column-ordered microdata tables: typed columns, CSV input and output.

Categorical values are stored as integer codes into an explicit level table;
all downstream modeling operates on the codes.  Numeric columns are float64
arrays where missing cells are NaN; a missing categorical cell is only legal
as a dedicated level (the missing token itself), mirroring how census-style
data treats "not stated" as one more category.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO, Union

import numpy as np

from .errors import DataError, MethodError, SynthweaveError


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
            vals = np.asarray(self.values)
            if vals.dtype.kind == "f":  # integer input needs no check
                bad = np.flatnonzero((vals != np.trunc(vals)) | np.isinf(vals))
                if bad.size:
                    raise DataError(
                        f"column {self.name!r}: categorical code {float(vals[bad[0]])!r} "
                        f"at index {int(bad[0])} is not a whole number"
                    )
            vals = vals.astype(np.int64, copy=False)
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
        return _rendered(self, "")

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
    levels = tuple(dict.fromkeys(vals) if levels is None else levels)
    lookup = {lv: i for i, lv in enumerate(levels)}
    try:
        codes = _indexed(lookup, vals, np.int64)
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


def stack_rows(parts: Sequence[Dataset], name: str = "data") -> Dataset:
    """The rows of ``parts``, one part after another, under the first part's
    columns; every part has columns of those names and kinds."""
    columns = parts[0].columns
    if len(parts) > 1:
        columns = tuple(
            Column(c.name, c.kind, np.concatenate([p.column(c.name).values for p in parts]))
            for c in columns
        )
    return Dataset(columns, name)


def distinct_cells(codes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(cell of each row, first row of each cell) for ``n`` rows grouped by
    agreement on every code column; cells are numbered in key order.

    ``codes`` yields (codes, number of codes) pairs.  The mixed-radix key is
    renumbered to 0..cells-1 (fewer than the rows) whenever the next column
    could push it past 2**62, so it stays inside int64 however many columns
    there are, as long as rows times one column's codes do.
    """
    key = np.zeros(n, dtype=np.int64)
    bound = 1
    for code, n_codes in codes:
        if bound * n_codes > 1 << 62:
            distinct, key = np.unique(key, return_inverse=True)
            bound = distinct.size
        key = key * n_codes + code
        bound *= n_codes
    distinct, cell = np.unique(key, return_inverse=True)
    # each cell's lowest row, without the stable sort ``return_index`` needs
    first = np.full(distinct.size, n, dtype=np.int64)
    np.minimum.at(first, cell, np.arange(n))
    return cell, first


def column_codes(column: Column) -> tuple[np.ndarray, int]:
    """(code of each row, number of codes) of one column: a categorical's
    level codes, or the index of a numeric's value among its distinct
    values, under which -0.0 and 0.0 share a code, with one code past them
    for every NaN (the codes of ``np.unique``; taking the NaNs out first
    makes its sort about three times faster on a column that has them)."""
    if column.is_numeric:
        missing = np.isnan(column.values)
        distinct, present = np.unique(column.values[~missing], return_inverse=True)
        code = np.full(column.n_rows, distinct.size)
        code[~missing] = present
        return code, distinct.size + 1
    return column.values, len(column.kind.levels)


def distinct_rows(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """``distinct_cells`` of the rows of ``data`` grouped by agreement on
    every column, by ``column_codes``; no columns make one cell."""
    return distinct_cells(map(column_codes, data.columns), data.n_rows)


def _pools(keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows keyed 0..k-1 as donor pools: (the rows pool by pool, each ascending
    by a stable radix sort; each pool's first position; each pool's size)."""
    sizes = np.bincount(keys, minlength=k)
    order = np.argsort(keys.astype(np.min_scalar_type(k)), kind="stable")
    return order, np.cumsum(sizes) - sizes, sizes


def _pool_draw(offsets, sizes, pool: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A uniform position in each row's pool of a ``_pools`` layout, one uniform per row."""
    return offsets[pool] + np.floor(rng.random(len(pool)) * sizes[pool]).astype(np.int64)


def _draw_rows(method: str, predictors: Dataset | None, n: int | None) -> int:
    """The ``n`` values a draw of ``method`` returns: predictors with columns
    must have ``n`` rows (``n=None`` takes theirs); without them ``n`` counts."""
    if predictors is not None and predictors.columns:
        if n not in (None, predictors.n_rows):
            raise MethodError(f"{method}: a draw of {n} values got {predictors.n_rows} predictor rows")
        return predictors.n_rows
    if n is None:
        raise MethodError(f"{method}: routing needs predictors or an explicit row count")
    return n


def _indexed(lookup: Mapping[str, float | int], cells: list[str], dtype) -> np.ndarray:
    """``lookup[cell]`` for every cell, as an array; a cell not in ``lookup``
    raises ``KeyError``."""
    return np.fromiter(map(lookup.__getitem__, cells), dtype=dtype, count=len(cells))


def _formatted(values: np.ndarray, missing_token: str) -> np.ndarray:
    """Numbers as CSV text: an integral value below 1e16 in magnitude as an
    integer, any other as the shortest repr that reads back to it, NaN as
    the missing token."""
    text = np.full(values.shape, missing_token, dtype=object)
    present = ~np.isnan(values)
    integral = present & (values == np.trunc(values)) & (np.abs(values) < 1e16)
    other = present & ~integral
    text[integral] = list(map(str, values[integral].astype(np.int64).tolist()))
    text[other] = list(map(repr, values[other].tolist()))
    return text


def _texts(col: Column, missing_token: str) -> tuple[np.ndarray, np.ndarray]:
    """(text of each distinct value, index of each cell into it): a numeric
    column formats each distinct value once, a categorical one uses its
    levels and codes."""
    if col.is_numeric:
        distinct, index = np.unique(col.values, return_inverse=True)
        return _formatted(distinct, missing_token), index
    return np.array(col.levels, dtype=object), col.values


def _rendered(col: Column, missing_token: str) -> list[str]:
    """Each cell as CSV text."""
    texts, index = _texts(col, missing_token)
    return texts[index].tolist()


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


# The reader converts, and the writer renders, whole rows of about this many
# cells at a time, so each block's cell strings are still in cache when they
# are hashed or joined.
_BLOCK_CELLS = 2**14


def _block_rows(width: int) -> int:
    return max(1, _BLOCK_CELLS // max(width, 1))


def read_csv(
    path: str | Path,
    schema: Mapping[str, SchemaEntry],
    missing_token: str = "NA",
    name: str | None = None,
) -> Dataset:
    """Parse a headered CSV into a Dataset using an explicit per-column schema.

    Blank lines are skipped anywhere.  Leading lines whose first field starts
    with '#' (the synthetic-data stamp) are skipped; the first other line is
    the header, and after it every line is data, so values may begin with
    '#'.  Cells equal to ``missing_token`` become NaN in numeric columns; in
    categorical columns the token is kept as a dedicated level (appended when
    levels are inferred, required to be listed when they are explicit).
    Other numeric cells are parsed with Python's ``float()`` and must be
    finite.

    The file is read in blocks of whole rows, about ``_BLOCK_CELLS`` cells
    each, and each block's cells are converted before the next is read;
    parsed numbers and inferred levels carry over from block to block, so
    each distinct numeric cell is parsed once and inferred levels keep
    first-appearance order.

    Problems are reported in this order: no header, a duplicated header
    name, a column missing from the schema; then a row of the wrong width,
    bytes that are not UTF-8 or a field above the ``csv`` module's size
    limit, anywhere in the file; then, column by column in header order, a
    bad schema entry or the column's first bad row.  Row numbers count the
    header as row 1 and skip blank and preamble lines.  Each is a
    ``DataError``, and each about the file's text names the file.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        try:
            header = next((r for r in rows if r and not r[0].startswith("#")), None)
            if header is None:
                raise DataError(f"{path}: no header row")
            if len(set(header)) != len(header):
                dup = sorted({h for h in header if header.count(h) > 1})
                raise DataError(f"{path}: duplicated header name(s) {dup}")
            missing_cols = [c for c in header if c not in schema]
            if missing_cols:
                raise DataError(f"{path}: no schema entry for column(s) {missing_cols}")
            width = len(header)
            columns = [_ColumnCells(path, c, schema[c], missing_token) for c in header]
            block_cells = _block_rows(width) * width
            row = 2  # the file row of the block's first row
            # the block's cells, row after row: no list per row stays alive
            flat: list[str] = []
            for r in rows:
                if len(r) == width:
                    flat += r
                    if len(flat) == block_cells:
                        for j, col in enumerate(columns):
                            col.add(flat[j::width], row)
                        row += len(flat) // width
                        flat = []
                elif r:
                    raise DataError(
                        f"{path}: row {row + len(flat) // width} has {len(r)} fields, "
                        f"expected {width}"
                    )
            for j, col in enumerate(columns):
                col.add(flat[j::width], row)
        except UnicodeDecodeError as exc:
            # text is decoded a block at a time, so the line is not known
            raise DataError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            ) from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {rows.line_num}: {exc}") from None
    return Dataset(tuple(col.column() for col in columns), name=name or path.stem)


def _read_json(path: str | Path, error: type[SynthweaveError]):
    """The JSON document in ``path``; text that is not UTF-8 JSON raises ``error``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise error(f"{path}: not a UTF-8 JSON document ({exc})") from None


class _ColumnCells:
    """One column of a CSV being read, converted a block of cells at a time.

    The lookup from cell text to value grows from block to block: each new
    numeric cell is parsed once, and each new inferred level is appended in
    first-appearance order.  The column's first problem, a bad schema entry
    or its first bad cell, is kept in ``error`` and raised by ``column()``;
    later cells are then skipped.
    """

    def __init__(self, path: Path, name: str, entry: SchemaEntry, missing_token: str):
        self.path, self.name, self.missing_token = path, name, missing_token
        self.parts: list[np.ndarray] = []
        self.error: DataError | None = None
        try:
            self.kind, self.infer = _resolve_kind(entry, name)
        except DataError as exc:
            self.error = exc
            return
        self.numeric = isinstance(self.kind, Numeric)
        self.dtype = np.float64 if self.numeric else np.int64
        if self.numeric:
            self.lookup = {missing_token: math.nan}
        elif self.infer:
            self.lookup = {}
        else:
            self.lookup = {lv: i for i, lv in enumerate(self.kind.levels)}

    def add(self, cells: list[str], row: int) -> None:
        """Convert one block's cells; ``row`` is the file row of the first."""
        if self.error is not None:
            return
        lookup = self.lookup
        try:
            self.parts.append(_indexed(lookup, cells, self.dtype))
            return
        except KeyError:
            pass
        fresh = [c for c in dict.fromkeys(cells) if c not in lookup]
        if self.numeric:
            try:
                parsed = np.fromiter(map(float, fresh), dtype=np.float64, count=len(fresh))
                good = bool(np.isfinite(parsed).all())
            except ValueError:
                good = False
            if not good:
                self._fail(self._bad_number(cells, row))
                return
            lookup.update(zip(fresh, parsed.tolist()))
        elif self.infer:
            lookup.update(zip(fresh, range(len(lookup), len(lookup) + len(fresh))))
        else:
            i, cell = next((i, c) for i, c in enumerate(cells) if c not in lookup)
            self._fail(
                f"unknown categorical level {cell!r} (row {row + i}, column "
                f"{self.name!r}); declare it in the schema or use infer-levels"
            )
            return
        self.parts.append(_indexed(lookup, cells, self.dtype))

    def _bad_number(self, cells: list[str], row: int) -> str:
        """The error text for the first cell of the block that is not a
        finite number."""
        for i, cell in enumerate(cells):
            if cell in self.lookup:
                continue
            try:
                value = float(cell)
            except ValueError:
                return f"unparseable numeric cell {cell!r} (row {row + i}, column {self.name!r})"
            if not math.isfinite(value):
                return (
                    f"non-finite numeric cell {cell!r} (row {row + i}, column "
                    f"{self.name!r}); write a missing cell as {self.missing_token!r}"
                )
        raise AssertionError("no bad numeric cell in a block that failed to parse")

    def _fail(self, message: str) -> None:
        self.error = DataError(f"{self.path}: {message}")
        self.parts = []

    def column(self) -> Column:
        if self.error is not None:
            raise self.error
        kind = Categorical(tuple(self.lookup)) if self.infer else self.kind
        return Column(self.name, kind, np.concatenate(self.parts))


@contextmanager
def _rewritten(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open ``path`` to write UTF-8 text over its old content in place.

    The file is opened with ``O_WRONLY | O_CREAT`` and no ``O_TRUNC``, so the
    same inode is written: its mode, owner and hard links are kept, a
    symlink is followed, and a new file gets ``0o666 & ~umask``.  When the
    block exits, normally or by an exception (``KeyboardInterrupt``
    included), a regular file is cut at the final offset, so it holds
    exactly what was written; a pipe or device is only written.

    Truncating on open would make ext4 (with its default ``auto_da_alloc``)
    start writeback at close, and the next truncation of the same file,
    such as the next run writing the same ``--out``, would wait in the
    kernel until that writeback ends.  Writing a temporary file and
    renaming it over the target sets off the same heuristic.

    Nothing is fsynced.  A hard kill or power loss before the cut can
    leave the old file's tail after the new bytes; truncating first would
    leave only the new prefix.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            yield fh
            fh.flush()
        finally:
            if regular:
                # what is still buffered after an exception is written at
                # this offset when the file closes, as it would have been
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _quoted(text: str, alone: bool) -> str:
    """``text`` as a CSV field, as ``csv.writer(lineterminator="\\n")`` writes
    it: in double quotes, with its own quotes doubled, when it holds a
    comma, a double quote or a line feed, or when it is empty and ``alone``
    in its row (an empty row would read back as a blank line)."""
    if "," in text or '"' in text or "\n" in text or (alone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(data: Dataset, path: str | Path, missing_token: str = "NA") -> None:
    """Write a Dataset as UTF-8 CSV; round-trips through read_csv exactly.

    Each distinct text is made once: a numeric column formats each of its
    distinct values, and the column names, the levels and the missing token
    are quoted by ``_quoted``, the rule ``csv.writer`` applies, so the bytes
    are the ones it would write (formatted numbers never need quotes).  The
    rows are then rendered by joining those texts, in the blocks
    ``read_csv`` reads, about ``_BLOCK_CELLS`` cells of whole rows each.

    An existing file is rewritten in place (see ``_rewritten``): its mode,
    hard links and symlinks are kept, and it ends up holding exactly the
    new bytes.

    Text the reader would take apart is refused with a ``DataError``: a
    carriage return in a column name, a level or the missing token (the
    writer does not quote it), a line break in the label, and a first column
    name starting with '#' (the reader would skip the header as a comment).
    """
    path = Path(path)
    levels = (lv for c in data.columns if not c.is_numeric for lv in c.levels)
    bad = next((t for t in (*data.names, missing_token, *levels) if "\r" in t), None)
    if bad is not None:
        raise DataError(f"cannot write {bad!r} to CSV: it contains a carriage return")
    if data.label is not None and ("\n" in data.label or "\r" in data.label):
        raise DataError(f"cannot write label {data.label!r}: it contains a line break")
    if data.names and data.names[0].startswith("#"):
        raise DataError(
            f"cannot write first column {data.names[0]!r}: a header starting "
            f"with '#' reads back as a comment"
        )
    alone = len(data.columns) == 1
    try:
        with _rewritten(path, newline="") as fh:
            if data.label is not None:
                fh.write(f"# SYNTHETIC DATA: {data.label}\n")
            fh.write(",".join(_quoted(name, alone) for name in data.names) + "\n")
            token = _quoted(missing_token, alone)
            texts = []
            for col in data.columns:
                text, index = _texts(col, token)
                if not col.is_numeric:
                    text = np.array([_quoted(level, alone) for level in col.levels], dtype=object)
                texts.append((text, index))
            step = _block_rows(len(texts))
            for lo in range(0, data.n_rows, step):
                rows = zip(*(t[i[lo : lo + step]].tolist() for t, i in texts))
                fh.write("\n".join(map(",".join, rows)) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
