import math
from collections import Counter

import numpy as np
import pytest

from synthweave import (
    DataError,
    Dataset,
    Numeric,
    PlanError,
    Sample,
    SynthesisPlan,
    add_noise,
    categorical_column,
    numeric_column,
    read_csv,
    remove_replicated_uniques,
    stamp_synthetic,
    write_csv,
)
from synthweave.sdc import SdcConfig, apply_sdc, check_sdc_columns, sdc_from_json
from synthweave.tabular import Categorical, Column


def keyed(rows, name="d"):
    a = categorical_column("a", [r[0] for r in rows])
    b = numeric_column("b", [r[1] for r in rows])
    return Dataset((a, b), name=name)


class TestRemoveReplicatedUniques:
    def test_unique_in_both_removed(self):
        orig = keyed([("x", 1.0), ("y", 2.0), ("y", 2.0)])
        syn = keyed([("x", 1.0), ("y", 2.0), ("z", 9.0)])
        out, removed = remove_replicated_uniques(orig, syn, ["a", "b"])
        assert removed == 1
        assert out.n_rows == 2
        # ("x", 1.0) was unique in both and is gone
        assert ("x" not in [out.column("a").levels[c] for c in out.column("a").values])

    def test_duplicated_in_synthetic_kept(self):
        orig = keyed([("x", 1.0), ("y", 2.0)])
        syn = keyed([("x", 1.0), ("x", 1.0)])
        out, removed = remove_replicated_uniques(orig, syn, ["a", "b"])
        assert removed == 0
        assert out.n_rows == 2

    def test_non_unique_in_original_never_removed(self):
        orig = keyed([("x", 1.0), ("x", 1.0), ("y", 2.0)])
        syn = keyed([("x", 1.0)])
        out, removed = remove_replicated_uniques(orig, syn, ["a", "b"])
        assert removed == 0

    def test_bare_string_of_keys_refused(self):
        # "ab" would otherwise be read as the keys 'a' and 'b'
        orig = keyed([("x", 1.0), ("y", 2.0)])
        with pytest.raises(DataError) as got:
            remove_replicated_uniques(orig, orig, "ab")
        assert str(got.value) == "keys must be a list of column names, got 'ab'"

    def test_disjoint_supports_zero_removals(self):
        orig = keyed([("x", 1.0)])
        syn = keyed([("z", 3.0)])
        _, removed = remove_replicated_uniques(orig, syn, ["a", "b"])
        assert removed == 0

    def test_missing_values_match_as_keys(self):
        orig = keyed([("x", math.nan), ("y", 2.0), ("y", 2.0)])
        syn = keyed([("x", math.nan)])
        out, removed = remove_replicated_uniques(orig, syn, ["a", "b"])
        assert removed == 1

    def test_missing_key_column_rejected(self):
        orig = keyed([("x", 1.0)])
        with pytest.raises(DataError):
            remove_replicated_uniques(orig, orig, ["nope"])

    def test_empty_key_set_rejected(self):
        orig = keyed([("x", 1.0)])
        with pytest.raises(DataError):
            remove_replicated_uniques(orig, orig, [])


def _text_key_drops(original, synthetic, keys):
    """Reference: rows dropped when each row's key is a tuple of cell texts
    (the level, repr of the number, "NA" for a missing number)."""
    def tuples(data):
        cols = []
        for k in keys:
            col = data.column(k)
            if col.is_numeric:
                cols.append(["NA" if np.isnan(v) else repr(float(v)) for v in col.values])
            else:
                cols.append(col.decoded())
        return list(zip(*cols))

    orig = Counter(tuples(original))
    syn_rows = tuples(synthetic)
    syn = Counter(syn_rows)
    return np.array([orig.get(t) == 1 and syn[t] == 1 for t in syn_rows], dtype=bool)


class TestReplicatedUniquesMatchTextKeys:
    def test_signed_zero_is_its_own_key(self):
        orig = keyed([("x", -0.0), ("y", 2.0)])
        syn = keyed([("x", 0.0), ("y", 2.0)])
        out, removed = remove_replicated_uniques(orig, syn, ["a", "b"])
        assert removed == 1
        assert out.column("b").values.tolist() == [0.0]

    def test_many_keys_of_distinct_numbers(self):
        # six keys of ~3500 distinct values each: more key-tuples than an
        # int64 can number without renumbering on the way
        rng = np.random.default_rng(4)
        orig = Dataset(tuple(numeric_column(f"k{i}", rng.normal(size=3000)) for i in range(6)))
        picked = rng.choice(3000, 1000, replace=False)
        fresh = Dataset(tuple(numeric_column(f"k{i}", rng.normal(size=500)) for i in range(6)))
        syn = Dataset(tuple(
            numeric_column(f"k{i}", np.concatenate([orig.column(f"k{i}").values[picked],
                                                   fresh.column(f"k{i}").values]))
            for i in range(6)
        ))
        keys = [f"k{i}" for i in range(6)]
        out, removed = remove_replicated_uniques(orig, syn, keys)
        assert removed == 1000 == int(_text_key_drops(orig, syn, keys).sum())
        assert out.n_rows == 500

    def test_random_tables_drop_the_same_rows(self):
        rng = np.random.default_rng(3)
        numbers = [0.0, -0.0, 1.0, 1.5, math.nan, 2.0, 1e-300]
        for trial in range(60):
            tables = []
            for side, levels in enumerate([("a", "b", "NA", "1.0"), ("1.0", "NA", "a", "z")]):
                n = int(rng.integers(0, 50))
                cols = [
                    numeric_column("x", rng.choice(numbers, n)),
                    Column("c", Categorical(levels), rng.integers(0, 4, n)),
                ]
                if side and trial % 3 == 0:  # a numeric key that is text on one side
                    m_kind = Categorical(("1.0", "NA", "2.0"))
                    cols.append(Column("m", m_kind, rng.integers(0, 3, n)))
                else:
                    cols.append(numeric_column("m", rng.choice([1.0, math.nan, 2.0], n)))
                tables.append(Dataset(tuple(cols)))
            orig, syn = tables
            for keys in (["x"], ["c"], ["x", "c"], ["c", "m", "x"]):
                out, removed = remove_replicated_uniques(orig, syn, keys)
                drop = _text_key_drops(orig, syn, keys)
                assert removed == int(drop.sum())
                assert out.equals(syn.take(np.flatnonzero(~drop)))


class TestAddNoise:
    def test_zero_scale_is_identity(self):
        d = keyed([("x", 1.0), ("y", 2.0)])
        out = add_noise(d, ["b"], 0.0, np.random.default_rng(0))
        assert out.equals(d)

    def test_half_normal_mean_perturbation(self):
        # |N(0, (0.1*sd)^2)| has mean 0.1*sd*sqrt(2/pi); with sd 10 that is
        # 0.7979, checked to within 5% at n = 1e5
        rng = np.random.default_rng(1)
        values = rng.normal(0.0, 10.0, 100_000)
        d = Dataset((numeric_column("v", values),))
        out = add_noise(d, ["v"], 0.1, np.random.default_rng(2))
        sd = float(np.std(values, ddof=1))
        expected = 0.1 * sd * math.sqrt(2 / math.pi)
        mean_abs = float(np.abs(out.column("v").values - values).mean())
        assert abs(mean_abs - expected) / expected < 0.05

    def test_missing_untouched_and_pattern_preserved(self):
        d = Dataset((numeric_column("v", [1.0, np.nan, 3.0, np.nan]),))
        out = add_noise(d, ["v"], 0.5, np.random.default_rng(3))
        assert np.array_equal(
            np.isnan(out.column("v").values), np.isnan(d.column("v").values)
        )

    def test_all_missing_column_unchanged(self):
        d = Dataset((numeric_column("v", [np.nan, np.nan]),))
        out = add_noise(d, ["v"], 0.5, np.random.default_rng(4))
        assert out.equals(d)

    def test_non_numeric_target_rejected(self):
        d = keyed([("x", 1.0)])
        with pytest.raises(DataError, match="not numeric"):
            add_noise(d, ["a"], 0.1, np.random.default_rng(5))

    def test_shape_and_counts_preserved(self):
        rng = np.random.default_rng(6)
        d = Dataset((numeric_column("v", rng.normal(size=50)),))
        out = add_noise(d, ["v"], 0.3, rng)
        assert out.n_rows == d.n_rows and out.names == d.names


class TestStamp:
    def test_default_label_comment_first_line(self, tmp_path):
        d = keyed([("x", 1.0)])
        out = stamp_synthetic(d)
        path = tmp_path / "s.csv"
        write_csv(out, path)
        assert path.read_text().startswith("# SYNTHETIC DATA: synthetic\n")

    def test_read_csv_skips_stamp(self, tmp_path):
        d = keyed([("x", 1.0), ("y", 2.0)])
        path = tmp_path / "s.csv"
        write_csv(stamp_synthetic(d, "demo"), path)
        back = read_csv(path, {"a": "categorical", "b": Numeric()})
        assert back.n_rows == 2

    def test_empty_label_stamps_with_timestamp(self):
        d = keyed([("x", 1.0)])
        out = stamp_synthetic(d, "")
        assert out.label.startswith("generated ")
        assert "T" in out.label  # ISO timestamp present


class TestApplySdc:
    def test_pipeline_and_report(self):
        orig = keyed([("x", 1.0), ("y", 2.0), ("y", 2.0)])
        syn = keyed([("x", 1.0), ("y", 2.0), ("y", 2.0)])
        cfg = SdcConfig(
            key_variables=("a", "b"),
            noise_targets=("b",),
            noise_scale=0.1,
            label="pilot",
        )
        out, report = apply_sdc(orig, syn, cfg, np.random.default_rng(7))
        assert report["removed_replicated_uniques"] == 1
        assert report["noise"] == {"b": 0.1}
        assert out.label == "pilot"

    def test_columns_checked_against_the_plan(self):
        data = Dataset((*keyed([("x", 1.0), ("y", 2.0)]).columns, numeric_column("c", [3.0, 4.0])))
        plan = SynthesisPlan(("b",), {"b": Sample()}, stratifier="a")
        # the stratifier is copied into the output, so it may be a key
        check_sdc_columns(SdcConfig(key_variables=("a", "b"), noise_targets=("b",)), plan, data)
        for cfg, message in [
            (SdcConfig(key_variables=("a", "c")), "sdc.key_variables: column 'c' is not synthesized"),
            (SdcConfig(noise_targets=("c",)), "sdc.noise_targets: column 'c' is not synthesized"),
            (SdcConfig(noise_targets=("a",)), "sdc.noise_targets: column 'a' is not numeric"),
        ]:
            with pytest.raises(PlanError) as exc:
                check_sdc_columns(cfg, plan, data)
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "scale, message",
        [(-0.1, "noise_scale must be >= 0"), (math.nan, "noise_scale must be >= 0"),
         (math.inf, "noise_scale must be finite, got inf")],
    )
    def test_config_rejects_a_negative_nan_or_infinite_noise_scale(self, scale, message):
        with pytest.raises(DataError) as got:
            SdcConfig(noise_scale=scale)
        assert str(got.value) == message
        with pytest.raises(DataError) as got:
            add_noise(keyed([("x", 1.0)]), ["b"], scale, np.random.default_rng(0))
        assert str(got.value) == message

    @pytest.mark.parametrize("scale", ["x", True, None])
    def test_config_rejects_a_noise_scale_that_is_no_number(self, scale):
        # a bool is not read as 0 or 1, and a string is not compared with 0
        message = f"noise_scale must be a number >= 0, got {scale!r}"
        with pytest.raises(DataError) as got:
            SdcConfig(noise_scale=scale)
        assert str(got.value) == message
        with pytest.raises(DataError) as got:
            add_noise(keyed([("x", 1.0)]), ["b"], scale, np.random.default_rng(0))
        assert str(got.value) == message
        with pytest.raises(PlanError) as got:
            sdc_from_json({"noise_scale": scale})
        assert str(got.value) == "sdc." + message

    def test_numpy_noise_scale_is_a_number(self):
        assert SdcConfig(noise_scale=np.float64(0.5)).noise_scale == 0.5
        assert sdc_from_json({"noise_scale": np.int64(2)}).noise_scale == 2.0

    def test_config_from_json(self):
        cfg = sdc_from_json(
            {"key_variables": ["a"], "noise_targets": ["b"], "noise_scale": 0.2}
        )
        assert cfg == SdcConfig(("a",), ("b",), 0.2, "synthetic")
        assert sdc_from_json(None) is None
        assert sdc_from_json({}) is None

    @pytest.mark.parametrize(
        "doc, field",
        [
            (["a"], "sdc must map"),
            ({"noise_scale": "x"}, "sdc.noise_scale"),
            ({"noise_scale": True}, "sdc.noise_scale"),
            ({"noise_scale": -0.1}, "sdc.noise_scale"),
            ({"noise_scale": math.nan}, "sdc.noise_scale"),
            ({"noise_scale": math.inf}, "sdc.noise_scale must be finite, got inf"),
            ({"key_variables": "region"}, "sdc.key_variables"),
            ({"noise_targets": [1]}, "sdc.noise_targets"),
            ({"label": 3}, "sdc.label"),
        ],
    )
    def test_malformed_section_is_a_plan_error(self, doc, field):
        with pytest.raises(PlanError, match=field):
            sdc_from_json(doc)
