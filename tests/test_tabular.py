import numpy as np
import pytest

from synthweave import (
    Categorical,
    Column,
    DataError,
    Dataset,
    Numeric,
    categorical_column,
    numeric_column,
    read_csv,
    write_csv,
)


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
