import csv
import io
import math
import os
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synthweave import (
    Categorical,
    Cart,
    Column,
    DataError,
    Dataset,
    Numeric,
    categorical_column,
    Sample,
    SynthesisPlan,
    load_plan,
    numeric_column,
    read_csv,
    save_plan,
    write_csv,
)
from synthweave import tabular
from synthweave.tabular import _formatted, _rendered, _resolve_kind


def toy_dataset():
    return Dataset(
        (
            categorical_column("color", ["red", "blue", "red"]),
            numeric_column("x", [1.0, np.nan, 2.5]),
        ),
        name="toy",
    )


class TestColumn:
    def test_categorical_codes_validated(self):
        with pytest.raises(DataError):
            Column("c", Categorical(("a", "b")), np.array([0, 2]))

    @pytest.mark.parametrize(
        "codes, bad",
        [([0, 0.7, 1.9], "0.7 at index 1"), ([1.0, np.nan], "nan at index 1"), ([np.inf], "inf at index 0")],
    )
    def test_categorical_codes_must_be_whole(self, codes, bad):
        with pytest.raises(DataError) as exc:
            Column("c", Categorical(("a", "b")), codes)
        assert str(exc.value) == f"column 'c': categorical code {bad} is not a whole number"

    def test_whole_float_codes_read_as_codes(self):
        col = Column("c", Categorical(("a", "b")), np.array([1.0, 0.0, -0.0]))
        assert col.values.dtype == np.int64 and col.values.tolist() == [1, 0, 0]

    def test_levels_must_be_unique(self):
        with pytest.raises(DataError):
            Categorical(("a", "a"))

    def test_empty_level_list_rejected(self):
        with pytest.raises(DataError):
            Categorical(())

    def test_missing_mask(self):
        col = numeric_column("x", [1.0, np.nan])
        assert col.missing_mask().tolist() == [False, True]

    def test_unknown_level_rejected(self):
        with pytest.raises(DataError):
            categorical_column("c", ["a", "zzz"], levels=["a", "b"])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_numeric_rejected(self, bad):
        with pytest.raises(DataError, match="infinite value at index 1"):
            numeric_column("x", [1.0, bad])

    def test_values_are_read_only(self):
        col = numeric_column("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            col.values[0] = 9.0

    def test_empty_name_rejected(self):
        with pytest.raises(DataError) as exc:
            numeric_column("", [1.0])
        assert str(exc.value) == "column name must be non-empty"

    def test_numeric_column_has_no_levels(self):
        with pytest.raises(DataError) as exc:
            numeric_column("x", [1.0]).levels
        assert str(exc.value) == "column 'x' is numeric, has no levels"

    def test_equals_compares_name_and_kind_first(self):
        col = numeric_column("x", [0.0, 1.0])
        assert not col.equals(numeric_column("y", [0.0, 1.0]))
        assert not col.equals(categorical_column("x", ["a", "b"]))


class TestDataset:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            Dataset((numeric_column("x", [1]), numeric_column("x", [2])))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DataError):
            Dataset((numeric_column("x", [1]), numeric_column("y", [1, 2])))

    def test_select_and_take(self):
        d = toy_dataset()
        sub = d.select(["x"]).take(np.array([0, 2]))
        assert sub.names == ("x",)
        assert sub.n_rows == 2

    def test_equals_is_value_based(self):
        assert toy_dataset().equals(toy_dataset())
        assert not toy_dataset().equals(toy_dataset().select(["x"]))

    def test_unknown_column_named(self):
        with pytest.raises(DataError) as exc:
            toy_dataset().column("zz")
        assert str(exc.value) == "no column named 'zz'"

    def test_zero_row_dataset(self):
        d = Dataset((numeric_column("x", []),))
        assert d.n_rows == 0


class TestCsvRoundTrip:
    def test_round_trip_with_missing(self, tmp_path):
        d = toy_dataset()
        path = tmp_path / "toy.csv"
        write_csv(d, path)
        back = read_csv(path, {"color": Categorical(("red", "blue")), "x": Numeric()})
        assert back.equals(d)
        # missing token appears exactly at the missing cell
        text = path.read_text()
        assert text.splitlines()[2].endswith("NA")

    def test_missing_token_configurable(self, tmp_path):
        d = toy_dataset()
        path = tmp_path / "toy.csv"
        write_csv(d, path, missing_token=".")
        assert "." in path.read_text().splitlines()[2]
        back = read_csv(
            path, {"color": "categorical", "x": Numeric()}, missing_token="."
        )
        assert back.equals(d)

    def test_full_precision_floats(self, tmp_path):
        d = Dataset((numeric_column("v", [0.1 + 0.2, 1 / 3, -2.5e-17]),))
        path = tmp_path / "v.csv"
        write_csv(d, path)
        back = read_csv(path, {"v": Numeric()})
        assert back.equals(d)

    def test_zero_rows_header_only(self, tmp_path):
        d = Dataset((numeric_column("x", []),))
        path = tmp_path / "empty.csv"
        write_csv(d, path)
        assert path.read_text() == "x\n"
        back = read_csv(path, {"x": Numeric()})
        assert back.n_rows == 0

    def test_zero_rows_of_each_kind(self, tmp_path):
        d = Dataset(
            (categorical_column("c", [], ["a", "b,c"]), numeric_column("x", []))
        ).with_label("none")
        path = tmp_path / "empty.csv"
        write_csv(d, path)
        assert path.read_bytes() == b"# SYNTHETIC DATA: none\nc,x\n"
        back = read_csv(path, d.schema())
        assert back.names == ("c", "x") and back.n_rows == 0
        assert back.column("c").values.shape == back.column("x").values.shape == (0,)
        assert back.schema() == d.schema()

    def test_zero_columns_write_an_empty_header(self, tmp_path):
        """No columns make an empty header line, as csv.writer writes an
        empty row; the reader skips a blank line, so it finds no header."""
        d = Dataset(()).with_label("none")
        path = tmp_path / "empty.csv"
        write_csv(d, path)
        assert path.read_bytes() == b"# SYNTHETIC DATA: none\n\n" == _csv_module_bytes(d)
        with pytest.raises(DataError, match="no header row"):
            read_csv(path, {})

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# SYNTHETIC DATA: demo\nx\n1\n2\n")
        back = read_csv(path, {"x": Numeric()})
        assert back.n_rows == 2

    def test_label_written_as_comment(self, tmp_path):
        d = toy_dataset().with_label("demo run")
        path = tmp_path / "l.csv"
        write_csv(d, path)
        assert path.read_text().startswith("# SYNTHETIC DATA: demo run\n")


class TestRewriteInPlace:
    """Every writer rewrites an existing file in place and cuts it to the
    new length: the same inode, mode and links, no tail of the old file."""

    @staticmethod
    def fresh_bytes(data, tmp_path):
        path = tmp_path / "fresh.csv"
        write_csv(data, path)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "old", [b"x" * 10_000 + b"\n", b"a\n", b""], ids=["longer", "shorter", "empty"]
    )
    def test_old_content_longer_or_shorter(self, tmp_path, old):
        d = toy_dataset().with_label("demo")
        path = tmp_path / "out.csv"
        path.write_bytes(old)
        write_csv(d, path)
        assert path.read_bytes() == self.fresh_bytes(d, tmp_path)

    def test_inode_mode_and_hard_link_kept(self, tmp_path):
        d = toy_dataset()
        path, link = tmp_path / "out.csv", tmp_path / "link.csv"
        path.write_bytes(b"old,content\n" * 1000)
        path.chmod(0o600)
        os.link(path, link)
        inode = path.stat().st_ino
        write_csv(d, path)
        assert path.stat().st_ino == inode
        assert path.stat().st_mode & 0o777 == 0o600
        assert link.read_bytes() == path.read_bytes() == self.fresh_bytes(d, tmp_path)

    def test_symlink_kept_and_target_updated(self, tmp_path):
        d = toy_dataset()
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"old\n" * 1000)
        link.symlink_to(target)
        write_csv(d, link)
        assert link.is_symlink()
        assert target.read_bytes() == self.fresh_bytes(d, tmp_path)

    def test_new_file_mode_follows_umask(self, tmp_path):
        old_mask = os.umask(0o027)
        try:
            write_csv(toy_dataset(), tmp_path / "new.csv")
        finally:
            os.umask(old_mask)
        assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o640

    def test_character_device_written_not_cut(self):
        plan = SynthesisPlan(("color", "x"), {"color": Sample(), "x": Cart()})
        write_csv(toy_dataset(), os.devnull)
        save_plan(plan, os.devnull)

    def test_fifo_gets_exactly_the_bytes(self, tmp_path):
        d = toy_dataset()
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_csv(d, fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [self.fresh_bytes(d, tmp_path)]

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_error_mid_write_leaves_what_was_written(self, tmp_path, monkeypatch, error):
        # the columns' texts are formatted after the stamp and header are
        # written; failing on the second leaves exactly those, as truncating would
        d = toy_dataset().with_label("demo")
        path = tmp_path / "out.csv"
        path.write_bytes(b"old,content\n" * 1000)
        real = tabular._texts

        def texts(col, missing_token):
            if col.name == "x":
                raise error("stop")
            return real(col, missing_token)

        monkeypatch.setattr(tabular, "_texts", texts)
        with pytest.raises(error):
            write_csv(d, path)
        assert path.read_bytes() == b"# SYNTHETIC DATA: demo\ncolor,x\n"

    def test_plan_saved_over_a_longer_file(self, tmp_path):
        plan = SynthesisPlan(("color", "x"), {"color": Sample(), "x": Cart()}, seed=3)
        fresh, path = tmp_path / "fresh.json", tmp_path / "plan.json"
        save_plan(plan, fresh)
        path.write_bytes(b" " * 10_000)
        save_plan(plan, path)
        assert path.read_bytes() == fresh.read_bytes()
        assert load_plan(path) == plan


class TestReadCsvErrors:
    def test_duplicated_header(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(DataError, match="duplicated header"):
            read_csv(path, {"a": Numeric()})

    def test_unparseable_numeric_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1\nabc\n")
        with pytest.raises(DataError, match=r"row 3.*'x'"):
            read_csv(path, {"x": Numeric()})

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", "NaN"])
    def test_non_finite_numeric_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"x\n1\n{cell}\nNA\n")
        with pytest.raises(DataError, match=r"non-finite numeric cell .*row 3, column 'x'"):
            read_csv(path, {"x": Numeric()})

    @pytest.mark.parametrize("where", ["header", "body", "past_a_bad_cell"])
    def test_bytes_that_are_not_utf8(self, tmp_path, where):
        path = tmp_path / "latin.csv"
        text = {
            "header": b"\xffa,b\n1,x\n",
            "body": b"a,b\n" + b"1,x\n" * 5000 + b"2,\xff\n",
            # decoded after the first block, whose bad cell it still beats
            "past_a_bad_cell": b"a,b\nabc,x\n" + b"1,x\n" * 20_000 + b"2,\xff\n",
        }
        path.write_bytes(text[where])
        with pytest.raises(DataError, match=r"latin\.csv: not UTF-8 text \(byte 0xff"):
            read_csv(path, {"a": Numeric(), "b": "categorical"})

    def test_field_above_the_csv_size_limit(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("a,b\n1,x\n2," + "y" * 200_000 + "\n3,z\n")
        with pytest.raises(DataError, match=r"long\.csv: line 3: field larger than field limit"):
            read_csv(path, {"a": Numeric(), "b": "categorical"})

    def test_unknown_level_without_infer(self, tmp_path):
        path = tmp_path / "lvl.csv"
        path.write_text("c\na\nzzz\n")
        with pytest.raises(DataError, match="unknown categorical level"):
            read_csv(path, {"c": Categorical(("a", "b"))})

    def test_infer_levels_accepts_anything(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("c\na\nzzz\n")
        d = read_csv(path, {"c": "categorical"})
        assert d.column("c").levels == ("a", "zzz")

    def test_missing_schema_entry(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="no schema entry"):
            read_csv(path, {"a": Numeric()})

    def test_na_in_categorical_becomes_level_when_inferred(self, tmp_path):
        path = tmp_path / "nac.csv"
        path.write_text("c\na\nNA\n")
        d = read_csv(path, {"c": "categorical"})
        assert "NA" in d.column("c").levels

    def test_hash_prefixed_level_round_trips(self, tmp_path):
        # only the leading stamp lines are comments; data rows may start '#'
        d = Dataset((categorical_column("c", ["#code", "plain"]),))
        path = tmp_path / "h.csv"
        write_csv(d.with_label("demo"), path)
        back = read_csv(path, {"c": "categorical"})
        assert back.equals(d)

    def test_awkward_characters_round_trip(self, tmp_path):
        d = Dataset(
            (
                categorical_column("c", ['with,comma', 'with "quote"', "line\nbreak"]),
                numeric_column("x", [-1.5e-8, 2.0, 3.25]),
            )
        )
        path = tmp_path / "awk.csv"
        write_csv(d, path)
        back = read_csv(path, {"c": "categorical", "x": Numeric()})
        assert back.equals(d)


# ---------------------------------------------------------------------------
# Reference implementations: the per-cell reader and the per-value number
# formatter that the columnar code replaced.  The columnar code must give the
# same datasets, the same error texts and the same bytes.
# ---------------------------------------------------------------------------


def _format_number(v: float) -> str:
    if math.isnan(v):
        return ""  # caller substitutes the missing token
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def _csv_module_bytes(data, missing_token="NA"):
    """The bytes the csv module writes for ``data``: the stamp, then one
    csv.writer(lineterminator="\\n") row for the header and one per row of
    per-cell texts."""
    out = io.StringIO(newline="")
    if data.label is not None:
        out.write(f"# SYNTHETIC DATA: {data.label}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(data.names)
    columns = [
        c.decoded() if not c.is_numeric
        else [missing_token if math.isnan(v) else _format_number(v) for v in c.values.tolist()]
        for c in data.columns
    ]
    writer.writerows(zip(*columns))
    return out.getvalue().encode("utf-8")


def reference_read_csv(path, schema, missing_token="NA", name=None):
    """Per-cell CSV reader: every cell converted and checked in a Python loop."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        raw = list(csv.reader(fh))
    rows = []
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

    columns = []
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
            seen = {}
            for v in raw:
                if v not in seen:
                    seen[v] = len(seen)
            codes = np.array([seen[v] for v in raw], dtype=np.int64)
            columns.append(Column(colname, Categorical(tuple(seen)), codes))
        else:
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


def read_both(path, schema, missing_token):
    """Each reader's Dataset, or the text of its DataError."""
    out = []
    for reader in (read_csv, reference_read_csv):
        try:
            out.append(reader(path, schema, missing_token))
        except DataError as exc:
            out.append(str(exc))
    return out


def assert_same_result(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.name == want.name and got.names == want.names
    for a, b in zip(got.columns, want.columns):
        assert a.kind == b.kind
        assert a.values.dtype == b.values.dtype
        # bytes: NaN equals NaN and -0.0 differs from 0.0
        assert a.values.tobytes() == b.values.tobytes()


def write_rows(path, preamble, rows):
    """Lines of ``preamble`` verbatim, then ``rows``; None is a blank line."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in preamble)
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            if row is None:
                fh.write("\n")
            else:
                writer.writerow(row)


CELLS = (
    "1", "-0", "0.5", " 7 ", "1_000", "1e3", "-2.5e-8", "0x10", "inf", "-Infinity",
    "nan", "1e400", "abc", "", "NA", ".", "#x", "x", "y", "é", 'q"t', "a,b",
    "line\nbreak",
)
NUMBERS = ("1", "-0", "0.5", " 7 ", "1_000", "1e3", "-2.5e-8", "NA", ".", "")
LEVELS = ("x", "y", "#x", "é", 'q"t', "a,b", "line\nbreak", "NA", ".", "")
NAMES = ("a", "b", "c", "é")


def _rarely(draw, n=10):
    # a middle value: hypothesis draws the ends of a range more often
    return draw(st.integers(0, n - 1)) == n // 2


@st.composite
def _csv_files(draw):
    """A random small CSV file, a schema that mostly fits it, and a missing
    token.  Rare draws break one thing: a duplicated, empty or commented-out
    header name, a missing or bad schema entry, a ragged row, a bad or
    unknown cell."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    if _rarely(draw):
        names.append(names[0])
    if _rarely(draw):
        # an empty name, or a first name the reader skips as a comment line
        names.insert(0, draw(st.sampled_from(["", "#d"])))
    schema, pools = {}, {}
    for n in names:
        entry = draw(st.sampled_from(["numeric", Numeric(), "categorical", "explicit"]))
        pools[n] = NUMBERS if entry in ("numeric", Numeric()) else LEVELS
        if entry == "explicit":
            levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=6, unique=True))
            schema[n] = Categorical(tuple(levels))
            pools[n] = levels
        else:
            schema[n] = entry
        if _rarely(draw, 20):
            schema[n] = draw(st.sampled_from(["bogus", None]))
            if schema[n] is None:
                del schema[n]
    rows = [names]
    for _ in range(draw(st.integers(0, 8))):
        if _rarely(draw):
            rows.append(None)
            continue
        cols = names
        if _rarely(draw, 30):
            cols = (names * 2)[: draw(st.integers(0, len(names) + 1))]
        rows.append(
            [
                draw(st.sampled_from(CELLS if _rarely(draw, 40) else pools[n]))
                for n in cols
            ]
        )
    preamble = draw(st.lists(st.sampled_from(["", "# SYNTHETIC DATA: x", "#a,b"]), max_size=3))
    missing_token = draw(st.sampled_from(["NA", ".", "", "1"]))
    return {"schema": schema, "rows": rows, "preamble": preamble, "missing_token": missing_token}


# a few hand-written files the property below may miss, each checked against
# the reference and pinned by its first words
HAND_FILES = {
    "first_bad_row_wins": (
        "x,y\n1,a\n2,b\nabc,c\ninf,d\n", {"x": Numeric(), "y": "categorical"},
        "unparseable numeric cell 'abc' (row 4, column 'x')",
    ),
    "non_finite_before_unparseable": (
        "x\n1\n1e400\nabc\nnan\n", {"x": Numeric()},
        "non-finite numeric cell '1e400' (row 3, column 'x')",
    ),
    "nan_first": (
        "x\nNA\nnan\ninf\nabc\n", {"x": Numeric()},
        "non-finite numeric cell 'nan' (row 3, column 'x')",
    ),
    "columns_in_order": (
        "c,x\nzzz,abc\n", {"c": Categorical(("a",)), "x": Numeric()},
        "unknown categorical level 'zzz' (row 2, column 'c')",
    ),
    "later_column_after_good_one": (
        "c,x\na,1\na,abc\n", {"c": Categorical(("a",)), "x": Numeric()},
        "unparseable numeric cell 'abc' (row 3, column 'x')",
    ),
    "ragged_before_cells": (
        "x\nabc\n1,2\n", {"x": Numeric()}, "row 3 has 2 fields, expected 1",
    ),
    "blank_lines_not_counted": (
        "# stamp\n\nx,y\n\n1,2\n\n3\n", {"x": Numeric(), "y": Numeric()},
        "row 3 has 1 fields, expected 2",
    ),
    "header_only_inferred": (
        "c\n", {"c": "categorical"}, "categorical kind needs at least one level",
    ),
    "no_header": ("# only\n\n# comments\n", {}, "no header row"),
    "duplicate_before_schema": (
        "a,a,b\n1,2\n", {}, "duplicated header name(s) ['a']",
    ),
    "schema_before_ragged": (
        "a,b\n1\n", {"a": Numeric()}, "no schema entry for column(s) ['b']",
    ),
    "bad_schema_entry_after_earlier_column": (
        "a,b\nabc,1\n", {"a": "categorical", "b": "text"},
        "schema for 'b': expected Numeric",
    ),
    # past the first block of 2**14 cells: a ragged row anywhere wins over a
    # bad cell, and a bad cell in a block read after a later column's bad
    # schema entry still wins over it
    "ragged_in_later_block_after_bad_cell": (
        "x\n1\nabc\n" + "1\n" * 20_000 + "1,2\n", {"x": Numeric()},
        "row 20004 has 2 fields, expected 1",
    ),
    "bad_cell_in_later_block_before_bad_schema_entry": (
        "a,b\n" + "1,x\n" * 10_000 + "abc,x\n", {"a": Numeric(), "b": "text"},
        "unparseable numeric cell 'abc' (row 10002, column 'a')",
    ),
}


class TestReaderMatchesReference:
    @pytest.mark.parametrize("case", sorted(HAND_FILES))
    def test_hand_files(self, tmp_path, case):
        text, schema, message = HAND_FILES[case]
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        # blocks of the default size, then of a few cells, so that rows,
        # levels, parsed numbers and errors cross block boundaries
        for cells in (tabular._BLOCK_CELLS, 1, 3, 5):
            with mock.patch.object(tabular, "_BLOCK_CELLS", cells):
                got, want = read_both(path, schema, "NA")
            assert_same_result(got, want)
            assert isinstance(got, str) and message in got

    def test_hash_cells_after_header_are_data(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# stamp\nc,x\n#a,1\n\n# not a comment,2\n", encoding="utf-8")
        got, want = read_both(path, {"c": "categorical", "x": Numeric()}, "NA")
        assert_same_result(got, want)
        assert got.column("c").levels == ("#a", "# not a comment")

    def test_other_missing_token(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,c\n.,.\n1.5,NA\n", encoding="utf-8")
        got, want = read_both(path, {"x": Numeric(), "c": "categorical"}, ".")
        assert_same_result(got, want)
        assert np.isnan(got.column("x").values[0])
        assert got.column("c").levels == (".", "NA")

    @settings(max_examples=150, deadline=None)
    @given(spec=_csv_files(), cells=st.sampled_from([1, 2, 3, 5, 8, tabular._BLOCK_CELLS]))
    def test_random_files(self, tmp_path_factory, spec, cells):
        path = tmp_path_factory.getbasetemp() / "random_reader.csv"
        write_rows(path, spec["preamble"], spec["rows"])
        with mock.patch.object(tabular, "_BLOCK_CELLS", cells):
            got, want = read_both(path, spec["schema"], spec["missing_token"])
        assert_same_result(got, want)


EDGE_NUMBERS = (
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16,
    9999999999999998.0, -9999999999999998.0, 1e16 + 2, float(2**53 + 1), 0.1, 1 / 3,
    1e300, -1.5e-8, 123.0, math.nan,
)
LEVEL_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"), max_size=6
)


@st.composite
def _datasets(draw):
    """A random Dataset of numeric and categorical columns, with awkward
    numbers, level texts and names; a one-column dataset has its level ""
    often enough to be seen."""
    n = draw(st.integers(0, 6))
    names = draw(st.lists(st.sampled_from(["a", "b", "é", "x y", "q,\"", "l\nb", "#h"]),
                          min_size=1, max_size=4, unique=True).filter(lambda v: v[0] != "#h"))
    columns = []
    for name in names:
        if draw(st.booleans()):
            values = draw(
                st.lists(st.sampled_from(EDGE_NUMBERS) | st.floats(allow_infinity=False),
                         min_size=n, max_size=n)
            )
            columns.append(numeric_column(name, values))
        else:
            levels = draw(
                st.lists(LEVEL_TEXT | st.sampled_from(["NA", "#lead", "a,b", 'q"t', "l\nb", ""]),
                         min_size=1, max_size=5, unique=True)
            )
            codes = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n))
            columns.append(Column(name, Categorical(tuple(levels)), np.array(codes, dtype=np.int64)))
    return Dataset(tuple(columns))


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(data=_datasets(), label=st.sampled_from([None, "demo", "#x"]))
    def test_write_then_read_is_identity(self, tmp_path_factory, data, label):
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        write_csv(data.with_label(label), path)
        back = read_csv(path, data.schema())
        # equal values; -0.0 is written "0", as any integral value, and reads back as 0.0
        assert back.equals(data) and back.schema() == data.schema()
        # and the bytes are a fixed point
        first = path.read_bytes()
        write_csv(back.with_label(label), path)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("cells", [3, 2**14])
    def test_bytes_across_blocks(self, tmp_path, cells):
        # 3 columns x 20k rows is four blocks at the default size; the bytes
        # equal one csv.writer row per row of per-value texts, and read back
        rng = np.random.default_rng(9)
        n = 20_000
        x = np.round(rng.normal(size=n) * 100, 2)
        x[rng.random(n) < 0.05] = np.nan
        data = Dataset(
            (
                categorical_column("c", rng.choice(["a", "b,c", "NA", 'q"t'], size=n).tolist()),
                numeric_column("x", x),
                numeric_column("i", rng.integers(-5, 5, size=n)),
            )
        ).with_label("blocks")
        path, want = tmp_path / "blocks.csv", tmp_path / "want.csv"
        with want.open("w", newline="", encoding="utf-8") as fh:
            fh.write("# SYNTHETIC DATA: blocks\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(data.names)
            columns = [
                c.decoded() if not c.is_numeric
                else ["NA" if math.isnan(v) else _format_number(v) for v in c.values.tolist()]
                for c in data.columns
            ]
            writer.writerows(zip(*columns))
        with mock.patch.object(tabular, "_BLOCK_CELLS", cells):
            write_csv(data, path)
            assert path.read_bytes() == want.read_bytes()
            back = read_csv(path, data.schema())
        assert back.equals(data)

    @settings(max_examples=100, deadline=None)
    @given(
        data=_datasets(),
        label=st.sampled_from([None, "demo"]),
        missing_token=st.sampled_from(["NA", "", "n,a", '"']),
    )
    @example(
        data=Dataset((categorical_column("c", ["", "x", ""]),)), label=None, missing_token="NA"
    )
    @example(
        data=Dataset((numeric_column("x", [1.5, math.nan]),)), label=None, missing_token=""
    )
    def test_bytes_equal_the_csv_module(self, tmp_path_factory, data, label, missing_token):
        """The bytes are those of csv.writer(lineterminator="\\n") on the
        per-cell texts, and they read back to the same dataset."""
        path = tmp_path_factory.getbasetemp() / "csv_module.csv"
        write_csv(data.with_label(label), path, missing_token)
        assert path.read_bytes() == _csv_module_bytes(data.with_label(label), missing_token)
        back = read_csv(path, data.schema(), missing_token)
        assert back.equals(data) and back.schema() == data.schema()

    def test_level_spelled_like_missing_token_stays_a_level(self, tmp_path):
        d = Dataset(
            (
                categorical_column("c", ["NA", "x", "NA"], ["x", "NA"]),
                numeric_column("v", [np.nan, 1.0, 2.0]),
            )
        )
        path = tmp_path / "na.csv"
        write_csv(d, path)
        assert path.read_text().splitlines()[1:] == ["NA,NA", "x,1", "NA,2"]
        back = read_csv(path, d.schema())
        assert back.equals(d)
        assert back.column("c").values.tolist() == [1, 0, 1]
        assert np.isnan(back.column("v").values[0])

    @pytest.mark.parametrize(
        "data, message",
        [
            (Dataset((categorical_column("c", ["a\rb"]),)), "carriage return"),
            (Dataset((numeric_column("x\r", [1.0]),)), "carriage return"),
            (Dataset((numeric_column("#x", [1.0]),)), "reads back as a comment"),
            (Dataset((numeric_column("x", [1.0]),), label="a\nb"), "line break"),
        ],
    )
    def test_text_that_cannot_round_trip_is_refused(self, tmp_path, data, message):
        path = tmp_path / "no.csv"
        with pytest.raises(DataError, match=message):
            write_csv(data, path)
        assert not path.exists()

    def test_carriage_return_level_refused_even_when_unused(self, tmp_path):
        d = Dataset((categorical_column("c", ["a"], ["a", "b\r"]),))
        with pytest.raises(DataError, match="carriage return"):
            write_csv(d, tmp_path / "cr.csv")

    def test_carriage_return_missing_token_refused(self, tmp_path):
        # unquoted, as csv.writer leaves it, it would end the row early
        d = Dataset((numeric_column("x", [1.0, math.nan]), numeric_column("y", [2.0, 3.0])))
        path = tmp_path / "cr.csv"
        with pytest.raises(DataError, match="carriage return"):
            write_csv(d, path, missing_token="N\rA")
        assert not path.exists()


class TestBulkFormatter:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=500))
    def test_matches_per_value_formatter_on_random_bits(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        text = _formatted(values, "NA").tolist()
        assert text == [_format_number(v) for v in values.tolist()]

    def test_edge_values(self):
        values = np.array(EDGE_NUMBERS)
        want = ["NA" if math.isnan(v) else _format_number(v) for v in values.tolist()]
        assert _formatted(values, "NA").tolist() == want
        assert want[:2] == ["0", "0"] and "9007199254740992" in want and "1e+16" in want

    def test_rendered_column_matches(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(size=50), np.round(rng.normal(size=50) * 9), [np.nan] * 5])
        rng.shuffle(values)
        col = numeric_column("v", values)
        assert _rendered(col, ".") == [
            "." if math.isnan(v) else _format_number(v) for v in values.tolist()
        ]
        assert col.decoded() == [_format_number(v) for v in values.tolist()]


class TestDistinctCells:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 400),
        st.lists(st.integers(1, 9), min_size=1, max_size=4),
    )
    def test_matches_the_stable_sort_reference(self, seed, n, sizes):
        """The cells, their numbering and each cell's first row are those of
        ``np.unique(key, return_index=True)``, on code columns with many ties."""
        rng = np.random.default_rng(seed)
        codes = [(rng.integers(0, k, n), k) for k in sizes]
        cell, first = tabular.distinct_cells(codes, n)
        key = np.zeros(n, dtype=np.int64)
        for code, k in codes:
            key = key * k + code
        _, ref_first, ref_cell = np.unique(key, return_index=True, return_inverse=True)
        np.testing.assert_array_equal(cell, ref_cell)
        np.testing.assert_array_equal(first, ref_first)

    def test_numeric_codes_merge_signed_zeros_and_missing_cells(self):
        col = numeric_column("v", [0.0, np.nan, -0.0, 1.5, np.nan, 0.0])
        code, n_codes = tabular.column_codes(col)
        assert n_codes == 3 and code.tolist() == [0, 2, 0, 1, 2, 0]

    def test_rows_group_on_every_column(self):
        data = Dataset((
            categorical_column("c", ["a", "b", "a", "a", "b"]),
            numeric_column("v", [1.0, 1.0, 2.0, 1.0, 1.0]),
        ))
        cell, first = tabular.distinct_rows(data)
        assert cell.tolist() == [0, 2, 1, 0, 2] and first.tolist() == [0, 2, 1]
