import numpy as np
import pytest

from synthweave import DataError, ToyCensusSpec, generate_toy_census, true_model


@pytest.fixture(scope="module")
def census():
    return generate_toy_census(ToyCensusSpec(n_rows=12_000, seed=3))


class TestConstruction:
    def test_children_always_single(self, census):
        age = census.column("age").values
        mar = census.column("mar").values
        assert int(((age < 16) & (mar != 0)).sum()) == 0

    def test_occ3_nested_in_occ1(self, census):
        occ1 = census.column("occ1").values
        occ3 = census.column("occ3").values
        assert np.array_equal(occ3 // 40, occ1)
        assert len(census.column("occ3").levels) == 200

    def test_missing_rate_within_half_point(self, census):
        rate = float(np.isnan(census.column("pperroom").values).mean())
        assert abs(rate - 0.072) < 0.005

    def test_marriage_curve_rises_then_falls(self, census):
        age = census.column("age").values
        married = census.column("mar").values == 1
        def band(lo, hi):
            m = (age >= lo) & (age < hi)
            return married[m].mean()
        young, peak, old = band(16, 25), band(45, 55), band(75, 96)
        assert young < 0.10
        assert peak > 0.55
        assert old < peak - 0.15  # declines past 70

    def test_not_working_share_is_u_shaped(self, census):
        age = census.column("age").values
        notwork = census.column("occ1").values == 0
        child = notwork[age < 16].mean()
        mid = notwork[(age >= 30) & (age < 50)].mean()
        old = notwork[age >= 70].mean()
        assert child > mid + 0.3
        assert old > mid + 0.3

    def test_ages_integer_valued_in_range(self, census):
        age = census.column("age").values
        assert np.all(age == np.floor(age))
        assert age.min() >= 0 and age.max() <= 95

    def test_pperroom_positive(self, census):
        v = census.column("pperroom").values
        assert np.nanmin(v) > 0


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        from synthweave import write_csv

        a = generate_toy_census(ToyCensusSpec(n_rows=500, seed=9))
        b = generate_toy_census(ToyCensusSpec(n_rows=500, seed=9))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, pa)
        write_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a = generate_toy_census(ToyCensusSpec(n_rows=500, seed=1))
        b = generate_toy_census(ToyCensusSpec(n_rows=500, seed=2))
        assert not a.equals(b)


class TestTrueModel:
    def test_cell_probs_sum_to_one(self):
        doc = true_model(ToyCensusSpec())
        assert sum(doc["sex_region_cell_probs"].values()) == pytest.approx(1.0)
        assert len(doc["sex_region_cell_probs"]) == 12

    def test_schema_covers_all_columns(self, census):
        doc = true_model(ToyCensusSpec(n_rows=12_000, seed=3))
        assert set(doc["schema"]["columns"]) == set(census.names)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
    def test_seed_that_is_no_count_rejected(self, seed):
        with pytest.raises(DataError) as exc:
            ToyCensusSpec(seed=seed)
        assert str(exc.value) == f"toy census seed must be an integer >= 0, got {seed!r}"

    def test_bad_spec_rejected(self):
        with pytest.raises(DataError):
            ToyCensusSpec(region_probs=(0.5, 0.2))
