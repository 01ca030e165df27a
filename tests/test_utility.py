import itertools
import json
import math
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from synthweave import (
    Cart,
    Categorical,
    Column,
    Dataset,
    Sample,
    SynthesisPlan,
    ToyCensusSpec,
    UtilityError,
    categorical_column,
    chisq_upper_tail,
    compare_bivariate,
    compare_univariate,
    cross_tabulate,
    diagnose,
    equivalence_check,
    fit_propensity,
    generate_toy_census,
    numeric_column,
    synthesize,
    u_gen,
    u_tab,
    utility_report,
    worst_cells,
)
from synthweave import utility
from synthweave.models import COEF_CAP
from synthweave.utility import CellTable, _cell_codes


def two_col_pair(y_vals, s_vals, levels=("a", "b")):
    o = Dataset((categorical_column("v", y_vals, levels),))
    s = Dataset((categorical_column("v", s_vals, levels),))
    return o, s


@pytest.fixture(scope="module")
def census_pair():
    orig = generate_toy_census(ToyCensusSpec(n_rows=4000, seed=44))
    cols = ["region", "sex", "age", "mar", "occ1", "pperroom"]
    orig = orig.select(cols)
    plan = SynthesisPlan(
        tuple(cols),
        {c: (Sample() if c == "region" else Cart()) for c in cols},
        seed=7,
    )
    syn = synthesize(orig, plan).synthetic
    return orig, syn


@st.composite
def _chisq_points(draw, max_df):
    """(x, df): x some standard deviations from the mean df, or df times a
    power of ten, which reaches the far tails of small df."""
    df = draw(st.integers(1, max_df))
    if draw(st.booleans()):
        x = df + draw(st.floats(-10.0, 40.0)) * math.sqrt(2.0 * df)
    else:
        x = df * 10.0 ** draw(st.floats(-8.0, 3.0))
    return max(x, 0.0), df


class TestChisqUpperTail:
    def test_zero_statistic(self):
        for df in (1, 2, 3, 401, 40_000):
            assert chisq_upper_tail(0.0, df) == 1.0

    def test_infinite_statistic(self):
        for df in (1, 2, 3, 401, 40_000):
            assert chisq_upper_tail(math.inf, df) == 0.0

    @pytest.mark.parametrize(
        "x, df, q",
        # Q(df/2, x/2) from a 50-digit series and continued fraction (mpmath)
        [
            (30.0, 1, 4.3204630578274975e-08),
            (7.0, 3, 0.07189777249646513),
            (450.0, 400, 0.04249935069792306),
            (20500.0, 20_000, 0.006517863488342559),
            (35500.0, 36_001, 0.9694889597994796),
            (40000.0, 40_000, 0.49905968376625065),
            (41000.0, 40_000, 0.0002250280356423413),
        ],
    )
    def test_within_1e_13_of_a_50_digit_reference(self, x, df, q):
        # at df = 40,000, a log y - y - lgamma(a) taken directly errs by 1e-11
        assert chisq_upper_tail(x, df) == pytest.approx(q, rel=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(_chisq_points(400))
    # statistics so far below df that (y - a)/a rounds to -1 and, at 5e-324,
    # y = x/2 rounds to 0
    @example((1e-300, 1))
    @example((5e-324, 1))
    @example((1e-17, 1))
    @example((1e-17, 400))
    def test_within_1e_12_of_scipy_up_to_df_400(self, point):
        x, df = point
        reference = scipy.special.gammaincc(df / 2.0, x / 2.0)
        assert chisq_upper_tail(x, df) == pytest.approx(reference, rel=1e-12, abs=1e-300)

    @settings(max_examples=100, deadline=None)
    @given(_chisq_points(40_000))
    def test_within_1e_10_of_scipy_up_to_df_40000(self, point):
        x, df = point
        reference = scipy.special.gammaincc(df / 2.0, x / 2.0)
        assert chisq_upper_tail(x, df) == pytest.approx(reference, rel=1e-10, abs=1e-300)

    def test_classic_five_percent_point(self):
        # oracle: P(chi2_1 > 3.841) = P(|Z| > 1.95984...) = 0.0500
        assert chisq_upper_tail(3.841, 1) == pytest.approx(0.0500, abs=2e-4)

    def test_large_df_median(self):
        # Wilson-Hilferty oracle: median of chi2(df) ~ df(1-2/(9df))^3 < df,
        # so the upper tail at x=df sits slightly below one half
        assert chisq_upper_tail(200.0, 200) == pytest.approx(0.49, abs=0.02)

    def test_matches_normal_relation(self):
        for z in [0.5, 1.0, 2.5]:
            assert chisq_upper_tail(z * z, 1) == pytest.approx(
                2 * (1 - scipy.special.ndtr(z)), abs=1e-12
            )

    def test_domain_errors(self):
        for x, df, message in [
            (-1.0, 2, "chi-square statistic must be >= 0"),
            (math.nan, 3, "chi-square statistic must be >= 0"),
            (1.0, 0, "df must be >= 1, got 0"),
            (1.0, 2.5, "df must be a whole number, got 2.5"),
            (1.0, True, "df must be a whole number, got True"),
            (1.0, math.nan, "df must be a whole number, got nan"),
        ]:
            with pytest.raises(UtilityError) as got:
                chisq_upper_tail(x, df)
            assert str(got.value) == message


class TestCrossTabulate:
    def test_two_binary_variables_four_cells(self):
        rng = np.random.default_rng(0)
        def make(seed):
            r = np.random.default_rng(seed)
            return Dataset(
                (
                    categorical_column("a", list(r.choice(["x", "y"], 100)), ["x", "y"]),
                    categorical_column("b", list(r.choice(["u", "v"], 100)), ["u", "v"]),
                )
            )
        o, s = make(1), make(2)
        table = cross_tabulate(o, s, ["a", "b"])
        assert table.k == 4
        y, sv = table.counts()
        assert y.sum() == 100 and sv.sum() == 100

    def test_quintile_bins_balanced(self):
        o = Dataset((numeric_column("x", np.arange(1000, dtype=float)),))
        s = Dataset((numeric_column("x", np.arange(1000, dtype=float)),))
        table = cross_tabulate(o, s, ["x"])
        assert table.k == 5
        y, _ = table.counts()
        assert np.all(np.abs(y - 200) <= 1)

    def test_synthetic_only_combination_retained(self):
        o, s = two_col_pair(["a", "a"], ["a", "b"])
        table = cross_tabulate(o, s, ["v"])
        b = table.labels[0].index("b")
        assert table.y[b] == 0 and table.s[b] == 1

    def test_missing_gets_own_cell(self):
        o = Dataset((numeric_column("x", [1.0, 2.0, np.nan]),))
        s = Dataset((numeric_column("x", [1.5, np.nan, np.nan]),))
        table = cross_tabulate(o, s, ["x"], numeric_breaks={"x": [1.5]})
        na = table.labels[0].index("NA")
        assert table.y[na] == 1 and table.s[na] == 2

    def test_out_of_range_synthetic_falls_in_extreme_bins(self):
        o = Dataset((numeric_column("x", np.linspace(0, 10, 100)),))
        s = Dataset((numeric_column("x", np.array([-5.0, 15.0])),))
        table = cross_tabulate(o, s, ["x"])
        assert table.s[0] == 1 and table.s[-1] == 1

    def test_unknown_variable_rejected(self):
        o, s = two_col_pair(["a"], ["a"])
        with pytest.raises(UtilityError, match="absent"):
            cross_tabulate(o, s, ["nope"])
        with pytest.raises(UtilityError, match="at least one variable"):
            cross_tabulate(o, s, [])

    def test_numeric_without_an_observed_original_value_rejected(self):
        o = Dataset((numeric_column("x", [np.nan, np.nan, np.nan]),))
        s_ = Dataset((numeric_column("x", [1.0, 2.0, np.nan]),))
        with pytest.raises(UtilityError) as got:
            cross_tabulate(o, s_, ["x"])
        assert str(got.value) == "column 'x' has no observed numeric values"

    def test_table_over_the_cell_cap_rejected(self):
        # three 50-level variables, every level present: 125,000 cells
        levels = [f"l{i}" for i in range(50)]
        data = Dataset(tuple(
            categorical_column(name, levels[shift:] + levels[:shift], levels)
            for name, shift in (("a", 0), ("b", 1), ("c", 2))
        ))
        with pytest.raises(UtilityError) as got:
            cross_tabulate(data, data, ["a", "b", "c"])
        assert str(got.value) == "table would have 125000 cells (cap 100000)"
        assert cross_tabulate(data, data, ["a", "b"]).k == 2500

    @pytest.mark.parametrize("n_bins", [1, 0, -3])
    def test_fewer_than_two_bins_rejected(self, n_bins):
        o = Dataset((numeric_column("x", np.arange(10.0)),))
        with pytest.raises(UtilityError, match=f"'x': n_bins must be >= 2, got {n_bins}"):
            cross_tabulate(o, o, ["x"], n_bins=n_bins)
        pair = Dataset((numeric_column("x", np.arange(10.0)), categorical_column("v", "ab" * 5)))
        with pytest.raises(UtilityError, match="n_bins must be >= 2"):
            compare_bivariate(pair, pair, "v", "x", n_bins=n_bins)

    @pytest.mark.parametrize("n_bins", [2.5, "5", None])
    def test_bins_that_are_no_whole_number_rejected(self, n_bins):
        o = Dataset((numeric_column("x", np.arange(10.0)),))
        with pytest.raises(UtilityError, match=f"'x': n_bins must be a whole number, got {n_bins!r}"):
            cross_tabulate(o, o, ["x"], n_bins=n_bins)

    @pytest.mark.parametrize("breaks", [["a"], [[1.0, 2.0], [3.0]], "x"])
    def test_breaks_that_are_no_numbers_rejected(self, breaks):
        o = Dataset((numeric_column("x", np.arange(10.0)),))
        with pytest.raises(UtilityError, match="'x': breaks must be numbers, got "):
            cross_tabulate(o, o, ["x"], numeric_breaks={"x": breaks})

    @pytest.mark.parametrize("breaks", [[], [np.nan, 2.0], [1.0, np.inf]])
    def test_empty_or_non_finite_breaks_rejected(self, breaks):
        o = Dataset((numeric_column("x", np.arange(10.0)),))
        with pytest.raises(UtilityError, match="'x': breaks must be non-empty and finite"):
            cross_tabulate(o, o, ["x"], numeric_breaks={"x": breaks})


class TestUTab:
    def test_identical_counts_zero(self):
        o, s = two_col_pair(["a", "a", "b"], ["a", "a", "b"])
        stat = u_tab(cross_tabulate(o, s, ["v"]))
        assert stat.statistic == 0.0
        assert stat.p_value == 1.0

    def test_hand_computed_direct_formula(self):
        # y=(2,0), s=(0,2): (0-2)^2/1 + (2-0)^2/1 = 8, df = 1
        o, s = two_col_pair(["a", "a"], ["b", "b"])
        stat = u_tab(cross_tabulate(o, s, ["v"]))
        assert stat.statistic == pytest.approx(8.0)
        assert stat.df == 1
        assert stat.ratio == pytest.approx(8.0)

    def test_empty_cells_excluded_from_df(self):
        o, s = two_col_pair(
            ["a"] * 5 + ["c"] * 5, ["a"] * 5 + ["c"] * 5, levels=("a", "b", "c")
        )
        stat = u_tab(cross_tabulate(o, s, ["v"]))
        assert stat.df == 1
        assert stat.statistic == 0.0

    def test_symmetric_under_swap_of_label_roles(self, census_pair):
        # swapping which count plays y and which plays s inside a given
        # table leaves the statistic unchanged (the binning itself always
        # follows the original data, so the table is built once)
        orig, syn = census_pair
        table = cross_tabulate(orig, syn, ["mar", "age"])
        swapped = CellTable(table.variables, table.labels, table.s, table.y)
        a, b = u_tab(table), u_tab(swapped)
        assert a.statistic == pytest.approx(b.statistic)
        assert a.df == b.df

    def test_invariant_to_cell_ordering(self):
        t1 = CellTable(("v",), [("a", "b", "c")], [5, 2, 3], [3, 4, 3])
        t2 = CellTable(("v",), [("c", "b", "a")], [3, 2, 5], [3, 4, 3])
        assert u_tab(t1).statistic == pytest.approx(u_tab(t2).statistic)

    def test_hand_built_cells_fill_the_product(self):
        # the counts run over the row-major product of the labels, the last
        # variable fastest, and the cells they leave at zero are empty cells
        y, s = [1, 0, 0, 0], np.array([0, 0, 0, 2])
        t = CellTable(["a", "b"], [["x", "y"], ("u", "v")], y, s)
        assert t.variables == ("a", "b") and t.labels == (("x", "y"), ("u", "v"))
        assert t.shape == (2, 2) and t.k == 4 and t.n_combined == 3
        assert t.y.dtype == t.s.dtype == np.int64
        assert t.y.tolist() == [1, 0, 0, 0] and t.s.tolist() == [0, 0, 0, 2]
        assert [c["levels"] for c in worst_cells(t)] == [["y", "v"], ["x", "u"]]
        # the table holds read-only copies, so the caller's array stays writable
        with pytest.raises(ValueError):
            t.s[0] = 1
        s[0] = 5
        assert t.s[0] == 0

    def test_malformed_hand_built_cells_rejected(self):
        with pytest.raises(UtilityError, match="1 label tuples for 2 variables"):
            CellTable(("v", "w"), [("a", "b")], [1, 0], [0, 1])
        with pytest.raises(UtilityError, match=r"y has shape \(3,\), not \(4,\)"):
            CellTable(("v", "w"), [("a", "b"), ("u", "v")], [1, 0, 0], [0, 1, 0, 0])
        with pytest.raises(UtilityError, match=r"s has shape \(2, 2\), not \(4,\)"):
            CellTable(("v", "w"), [("a", "b"), ("u", "v")], [1, 0, 0, 0], [[0, 1], [0, 0]])
        with pytest.raises(UtilityError, match="at least one variable"):
            CellTable((), (), [], [])

    def test_fractional_counts_rejected(self):
        # int64 would truncate 1.7 to 1 and give a U_tab on a table of no data
        with pytest.raises(UtilityError, match="y holds values that are not counts"):
            CellTable(("v",), [("a", "b", "c")], [1.7, 2, 3], [0, 0, 4])
        with pytest.raises(UtilityError, match="s holds values that are not counts"):
            CellTable(("v",), [("a", "b")], [1, 2], [np.nan, 3.0])
        # whole floats are counts
        t = CellTable(("v",), [("a", "b")], [1.0, 2.0], [3.0, 0.0])
        assert t.y.tolist() == [1, 2] and t.s.dtype == np.int64

    @pytest.mark.parametrize(
        "y, message",
        [(["1", "2"], "y holds <U1 values, not counts"),
         (np.array([1, 2], dtype=object), "y holds object values, not counts")],
    )
    def test_counts_that_are_no_numbers_rejected(self, y, message):
        with pytest.raises(UtilityError) as got:
            CellTable(("v",), [("a", "b")], y, [0, 1])
        assert str(got.value) == message

    def test_negative_counts_rejected(self):
        with pytest.raises(UtilityError, match="y holds values that are not counts"):
            CellTable(("v",), [("a", "b", "c")], [1.7, -2, 3], [0, 0, 4])
        with pytest.raises(UtilityError, match="s holds values that are not counts"):
            CellTable(("v",), [("a", "b", "c")], [1, 2, 3], np.array([0, -1, 4]))

    def test_single_populated_cell_rejected(self):
        t = CellTable(("v",), [("a", "b")], [3, 0], [3, 0])
        with pytest.raises(UtilityError, match="2 populated"):
            u_tab(t)

    def test_worst_cells_sorted_by_contribution(self, census_pair):
        orig, syn = census_pair
        table = cross_tabulate(orig, syn, ["mar", "age"])
        cells = worst_cells(table, top=5)
        contribs = [c["contribution"] for c in cells]
        assert contribs == sorted(contribs, reverse=True)
        assert len(cells) <= 5


class TestFitPropensity:
    def test_exact_copy_gives_zero_pmse(self, census_pair):
        orig, _ = census_pair
        fit = fit_propensity(orig, orig, "main_effects")
        assert fit.pmse == pytest.approx(0.0, abs=1e-12)
        assert u_gen(fit).statistic == pytest.approx(0.0, abs=1e-6)

    def test_saturated_closed_form_scores(self):
        # y=(2,0), s=(0,2): fitted scores are 0 for original rows, 1 for
        # synthetic rows, so pMSE = 0.25 and U_gen = 8*4*0.25 = 8 = u_tab
        o, s = two_col_pair(["a", "a"], ["b", "b"])
        fit = fit_propensity(o, s, "table_saturated", variables=["v"])
        assert fit.pmse == pytest.approx(0.25)
        assert fit.n_params == 2
        ug = u_gen(fit)
        assert ug.statistic == pytest.approx(8.0)
        assert ug.df == 1

    @pytest.mark.parametrize("variable", ["region", "mar"])
    def test_main_effects_on_one_categorical_is_the_saturated_fit(self, census_pair, variable):
        # every level on both sides: one dummy per level but the first plus
        # the intercept is one parameter per cell, so the IRLS route and the
        # closed form fill the same record with the same numbers
        orig, syn = census_pair
        for data in census_pair:
            assert np.unique(data.column(variable).values).size == len(
                data.column(variable).kind.levels
            )
        irls = fit_propensity(orig, syn, "main_effects", variables=[variable])
        closed = fit_propensity(orig, syn, "table_saturated", variables=[variable])
        assert irls.n_params == closed.n_params == len(orig.column(variable).kind.levels)
        assert irls.pmse == pytest.approx(closed.pmse, rel=1e-9)
        assert u_gen(irls).statistic == pytest.approx(u_gen(closed).statistic, rel=1e-9)
        assert u_gen(irls).df == u_gen(closed).df
        for fit in (irls, closed):
            assert fit.converged and np.isfinite(fit.z).all()
        assert irls.iterations > 0 and closed.iterations == 0

    def test_pmse_attains_upper_bound_iff_separable(self):
        o, s = two_col_pair(["a", "a", "a"], ["b", "b", "b"])
        fit = fit_propensity(o, s, "table_saturated", variables=["v"])
        assert fit.pmse == pytest.approx(0.25)

    @pytest.mark.parametrize("model", ["main_effects", "table_saturated"])
    @pytest.mark.parametrize("n_o, n_s", [(1, 4), (4, 1), (2, 7), (12, 5)])
    def test_pmse_never_passes_its_maximum_under_separation(self, model, n_o, n_s):
        """With no cell on both sides the propensity separates them, and pMSE
        reaches its maximum c(1 - c), c the synthetic share, at any size
        ratio: exactly in closed form, and to within 1e-5 by IRLS, which
        stops on a score below tol (1e-6) with its fitted scores short of 0
        and 1.  Rounding never takes it past the maximum (unclipped, the
        closed form reads 2.8e-17 above it at 1 original and 4 synthetic rows)."""
        o, s = two_col_pair(["a"] * n_o, ["b"] * n_s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # separation
            fit = fit_propensity(o, s, model, variables=["v"])
        c = n_s / (n_o + n_s)
        assert fit.c == c
        assert fit.pmse <= c * (1 - c)
        assert fit.pmse == pytest.approx(c * (1 - c), rel=1e-9 if model == "table_saturated" else 1e-5)

    def test_saturated_standard_errors_are_the_cell_logit_ones(self):
        """A cell's log-odds of n rows at share p has information n p (1 - p),
        so its standard error is 1/sqrt(n p (1 - p)); a cell seen on one side
        only has none (NaN, and so has its z)."""
        o, s = two_col_pair(list("aaabb"), list("abbcccc"), levels=("a", "b", "c"))
        fit = fit_propensity(o, s, "table_saturated", variables=["v"])
        assert fit.labels == ("v=a", "v=b", "v=c")
        expected = [1 / math.sqrt(4 * 0.25 * 0.75), 1 / math.sqrt(4 * 0.5 * 0.5), math.nan]
        np.testing.assert_allclose(fit.standard_errors, expected, rtol=1e-15)
        np.testing.assert_allclose(fit.coefficients, [math.log(1 / 3), 0.0, COEF_CAP], atol=1e-15)
        assert np.isnan(fit.z[2]) and fit.z[1] == 0.0

    def test_pmse_within_bounds(self, census_pair):
        orig, syn = census_pair
        fit = fit_propensity(orig, syn, "main_effects")
        assert 0.0 <= fit.pmse <= 0.25

    @pytest.mark.parametrize("model", ["main_effects", "interactions"])
    def test_variables_select_the_propensity_columns(self, census_pair, model):
        orig, syn = census_pair
        fit = fit_propensity(orig, syn, model, variables=["mar", "age"])
        ref = fit_propensity(orig.select(["mar", "age"]), syn.select(["mar", "age"]), model)
        assert fit.labels == ref.labels
        np.testing.assert_array_equal(fit.coefficients, ref.coefficients)
        assert fit.pmse == ref.pmse
        with pytest.raises(UtilityError, match="'income'"):
            fit_propensity(orig, syn, model, variables=["mar", "income"])

    def test_schema_mismatch_rejected(self):
        o = Dataset((categorical_column("v", ["a"], ["a", "b"]),))
        s = Dataset((categorical_column("v", ["a"], ["a", "c"]),))
        with pytest.raises(UtilityError, match="different kinds"):
            fit_propensity(o, s)

    def test_different_column_sets_rejected(self):
        o = Dataset((categorical_column("v", list("ab")), categorical_column("w", list("ab"))))
        s_ = Dataset((categorical_column("v", list("ab")),))
        with pytest.raises(UtilityError) as got:
            fit_propensity(o, s_)
        assert str(got.value) == "datasets have different column sets"

    @pytest.mark.parametrize("variables", [None, []])
    def test_table_saturated_needs_the_table_variables(self, census_pair, variables):
        with pytest.raises(UtilityError) as got:
            fit_propensity(*census_pair, "table_saturated", variables=variables)
        assert str(got.value) == "table_saturated model needs the table variables"

    def test_bootstrap_census_flags_many_terms(self, census_pair):
        # per-variable bootstrap keeps every marginal but breaks the
        # dependence, which the two-way interaction terms see
        orig, _ = census_pair
        plan = SynthesisPlan(
            tuple(orig.names), {c: Sample() for c in orig.names}, seed=3
        )
        boot = synthesize(orig, plan).synthetic
        fit = fit_propensity(orig, boot, "interactions")
        diag = diagnose(fit, threshold=1.7)
        assert len(diag.flagged) >= len(fit.labels) // 3

    def test_interactions_exact_copy_gives_zero_pmse(self, census_pair):
        orig, _ = census_pair
        fit = fit_propensity(orig, orig, "interactions")
        assert fit.model == "interactions"
        assert fit.pmse == pytest.approx(0.0, abs=1e-12)
        assert u_gen(fit).statistic == pytest.approx(0.0, abs=1e-6)

    def test_interactions_extend_main_effects(self, census_pair):
        orig, syn = census_pair
        main = fit_propensity(orig, syn, "main_effects")
        inter = fit_propensity(orig, syn, "interactions")
        assert inter.labels[: len(main.labels)] == main.labels
        products = set(inter.term_variables[len(main.labels):])
        assert "sex*age" in products and "mar*occ1" in products
        assert all("*" in v for v in products)

    def test_high_cardinality_categorical_not_crossed(self):
        # more than HIGH_CARDINALITY_THRESHOLD (40) levels: main effects only
        rng = np.random.default_rng(5)
        wide = tuple(f"w{i:02d}" for i in range(41))
        edge = tuple(f"e{i:02d}" for i in range(40))

        def draw(n):
            return Dataset(
                (
                    categorical_column("wide", [wide[i] for i in rng.integers(0, 41, n)], wide),
                    categorical_column("edge", [edge[i] for i in rng.integers(0, 40, n)], edge),
                    numeric_column("x", rng.normal(size=n)),
                )
            )

        fit = fit_propensity(draw(2000), draw(2000), "interactions")
        assert "wide" in fit.term_variables
        assert {v for v in fit.term_variables if "*" in v} == {"edge*x"}

    def test_income_scale_column_converges(self):
        # a score entry of a column on the scale 1e7 carries a summation
        # error far above the absolute tolerance 1e-6; the stopping rule
        # must not wait for it, and the fitted probabilities, hence the
        # pMSE, cannot depend on the column's units
        def census_with_income(seed, scale):
            census = generate_toy_census(ToyCensusSpec(n_rows=20_000, seed=seed))
            income = np.random.default_rng(seed + 100).lognormal(0.0, 0.5, 20_000)
            return Dataset(
                census.select([c for c in census.names if c != "occ3"]).columns
                + (numeric_column("income", income * scale),)
            )

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_propensity(census_with_income(1, 1e7), census_with_income(2, 1e7))
        assert fit.converged and fit.iterations <= 8
        scaled = fit_propensity(census_with_income(1, 1e5), census_with_income(2, 1e5))
        assert fit.pmse == pytest.approx(scaled.pmse, rel=1e-9)

    @pytest.mark.parametrize("model", ["main_effects", "interactions"])
    def test_terms_seen_on_one_side_are_named(self, model):
        # two 2,000-row censuses: 45 occ3 levels occur in one of them only,
        # so their coefficients run off (about 20, standard errors in the
        # thousands) while the solver converges on a small score
        a = generate_toy_census(ToyCensusSpec(n_rows=2000, seed=1))
        b = generate_toy_census(ToyCensusSpec(n_rows=2000, seed=2))
        fit = fit_propensity(a, b, model)
        notes = [w for w in fit.notes if w.startswith("quasi-separation")]
        assert len(notes) == 1
        in_a, in_b = set(a.column("occ3").decoded()), set(b.column("occ3").decoded())
        kept = set(fit.labels)
        only_a = {f"occ3={lv}" for lv in in_a - in_b} & kept
        only_b = {f"occ3={lv}" for lv in in_b - in_a} & kept
        assert len(only_a | only_b) == 45
        original, synthetic = notes[0].rstrip(")").split("(original only: ")[1].split("; synthetic only: ")
        assert set(original.split(", ")) == only_a
        assert set(synthetic.split(", ")) == only_b
        assert notes[0].startswith("quasi-separation: 45 propensity terms ")
        if model == "main_effects":
            ug = u_gen(fit)
            assert (fit.iterations, ug.df) == (20, 197)
            assert ug.statistic == pytest.approx(447.2602557254583, rel=1e-9)

    def test_no_one_sided_terms_no_note(self, census_pair):
        orig, syn = census_pair
        for model in ("main_effects", "interactions"):
            fit = fit_propensity(orig, syn, model)
            assert not any(w.startswith("quasi-separation") for w in fit.notes)


class TestUGen:
    def test_null_replicates_ratio_centers_on_one(self):
        # the chi-square null holds for plug-in synthesis: the original is
        # drawn from the true multinomial and the synthetic is a bootstrap
        # of it (sampling from the correctly-specified fitted model)
        rng = np.random.default_rng(123)
        levels = tuple("abcdef")
        probs = np.array([0.3, 0.25, 0.15, 0.12, 0.10, 0.08])
        ratios = []
        for _ in range(200):
            draw_o = rng.choice(6, 500, p=probs)
            draw_s = draw_o[rng.integers(0, 500, 500)]
            o = Dataset(
                (categorical_column("v", [levels[i] for i in draw_o], levels),)
            )
            s = Dataset(
                (categorical_column("v", [levels[i] for i in draw_s], levels),)
            )
            fit = fit_propensity(o, s, "table_saturated", variables=["v"])
            ratios.append(u_gen(fit).ratio)
        assert 0.8 <= float(np.mean(ratios)) <= 1.2

    def test_p_value_needs_exactly_equal_sizes(self):
        """The chi-square p-value holds at c = 1/2 only: one synthetic row
        more than the original's withholds it."""
        for n_s, withheld in ((100, False), (101, True)):
            o, s = two_col_pair(["a", "b"] * 50, (["a", "b"] * 51)[:n_s])
            fit = fit_propensity(o, s, "table_saturated", variables=["v"])
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                stat = u_gen(fit)
            assert (stat.p_value is None) == withheld == bool(seen), n_s

    def test_one_parameter_fit_has_one_degree_of_freedom(self):
        """df is the parameters less one, but at least 1: a fit with one
        populated cell, its only parameter, reads 0 on 1 df with p = 1."""
        o, s = two_col_pair(["a"] * 3, ["a"] * 3)
        fit = fit_propensity(o, s, "table_saturated", variables=["v"])
        assert fit.n_params == 1
        assert (u_gen(fit).statistic, u_gen(fit).df, u_gen(fit).p_value) == (0.0, 1, 1.0)

    def test_unequal_sizes_withhold_p_value(self):
        o = Dataset((categorical_column("v", ["a", "b"] * 50, ["a", "b"]),))
        s = Dataset((categorical_column("v", ["a", "b"] * 30, ["a", "b"]),))
        fit = fit_propensity(o, s, "table_saturated", variables=["v"])
        with pytest.warns(UserWarning, match="withheld"):
            stat = u_gen(fit)
        assert stat.p_value is None
        assert stat.statistic >= 0.0


class TestEquivalence:
    def test_identity_on_seeded_tables(self, census_pair):
        orig, syn = census_pair
        for variables in [["mar"], ["mar", "age"], ["sex", "occ1"]]:
            rep = equivalence_check(orig, syn, variables)
            assert rep.relative_gap <= 1e-8
            assert rep.u_tab.df == rep.u_gen.df

    def test_identical_datasets_both_zero(self, census_pair):
        orig, _ = census_pair
        rep = equivalence_check(orig, orig, ["mar", "occ1"])
        assert rep.u_tab.statistic == 0.0
        assert rep.u_gen.statistic == 0.0

    def test_three_variable_table(self, census_pair):
        orig, syn = census_pair
        rep = equivalence_check(orig, syn, ["mar", "sex", "region"])
        table = cross_tabulate(orig, syn, ["mar", "sex", "region"])
        assert table.k <= 60
        assert rep.relative_gap <= 1e-8

    def test_disagreement_rejected(self, census_pair, monkeypatch):
        # u_tab moved by one unit: the identity check must notice
        orig, syn = census_pair
        real = utility.u_tab
        monkeypatch.setattr(utility, "u_tab", lambda t: replace(real(t), statistic=real(t).statistic + 1.0))
        table = cross_tabulate(orig, syn, ["mar", "age"])
        ut = real(table).statistic
        ug = u_gen(fit_propensity(orig, syn, "table_saturated", variables=["mar", "age"])).statistic
        gap = abs(ut + 1.0 - ug) / max(ut + 1.0, 1.0)
        with pytest.raises(UtilityError) as got:
            equivalence_check(orig, syn, ["mar", "age"])
        assert str(got.value) == (
            f"u_tab and 8N*pMSE disagree: {ut + 1.0} vs {ug} (relative gap {gap:.3e})"
        )
        assert gap > 1e-8

    def test_unequal_sizes_rejected(self, census_pair):
        orig, syn = census_pair
        with pytest.raises(UtilityError, match="equal"):
            equivalence_check(orig, syn.take(np.arange(100)), ["mar"])


class TestCompare:
    def test_copy_has_zero_differences(self, census_pair):
        orig, _ = census_pair
        rep = compare_univariate(orig, orig)
        for comp in rep.comparisons.values():
            if hasattr(comp, "max_abs_diff"):
                assert comp.max_abs_diff == 0.0
        assert rep.flags == ()

    def test_sqrt_age_overshoot_flagged(self, census_pair):
        # synthesis keeps every draw in range, so the overshoot is made by
        # hand: the original ages moved up by 0.5 on the square-root scale
        orig, _ = census_pair
        age = orig.column("age")
        shifted = numeric_column("age", (np.sqrt(age.values) + 0.5) ** 2)
        syn = Dataset(tuple(shifted if c.name == "age" else c for c in orig.columns))
        rep = compare_univariate(orig, syn)
        assert any("age" in f and "exceeds" in f for f in rep.flags)
        assert rep.comparisons["age"].range_exceeded

    def test_synthetic_column_all_missing_has_no_stats(self):
        o = Dataset((numeric_column("x", [1.0, 2.0, 3.0]),))
        s = Dataset((numeric_column("x", [np.nan] * 3),))
        comp = compare_univariate(o, s).comparisons["x"]
        assert comp.stats_synthetic == {} and comp.missing_rate_synthetic == 1.0
        assert comp.stats_original["median"] == 2.0 and not comp.range_exceeded

    def test_single_level_categorical(self):
        o = Dataset((categorical_column("v", ["only"] * 10),))
        rep = compare_univariate(o, o)
        comp = rep.comparisons["v"]
        assert comp.levels == ("only",)
        assert comp.max_abs_diff == 0.0

    def test_bivariate_percentages_sum_to_100(self, census_pair):
        orig, syn = census_pair
        bc = compare_bivariate(orig, syn, "mar", "age")
        assert np.allclose(bc.pct_original.sum(axis=1), 100.0)
        assert np.allclose(bc.pct_synthetic.sum(axis=1), 100.0)

    def test_bivariate_identical_zero_diff(self, census_pair):
        orig, _ = census_pair
        bc = compare_bivariate(orig, orig, "mar", "age")
        assert bc.max_abs_diff == 0.0

    def test_bivariate_header_only_datasets_rejected(self, census_pair):
        orig, _ = census_pair
        empty = orig.take(np.arange(0))
        with pytest.raises(UtilityError, match="has no rows"):
            compare_bivariate(empty, empty, "mar", "age")

    def test_bivariate_empty_synthetic_rejected(self, census_pair):
        # used to return max_abs_diff 100.0 against a table of no rows
        orig, _ = census_pair
        with pytest.raises(UtilityError, match="synthetic dataset .* has no rows"):
            compare_bivariate(orig, orig.take(np.arange(0)), "mar", "age")


class TestDiagnose:
    def test_exact_copy_no_flags(self, census_pair):
        orig, _ = census_pair
        fit = fit_propensity(orig, orig, "main_effects")
        assert diagnose(fit, threshold=1e-9).flagged == ()

    def test_null_flag_rate_below_five_percent(self, census_pair):
        # plug-in replicate = joint row bootstrap; z's are then null-sized
        orig, _ = census_pair
        n_terms, n_flagged = 0, 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            rows = rng.integers(0, orig.n_rows, orig.n_rows)
            boot = orig.take(rows)
            fit = fit_propensity(orig, boot, "main_effects")
            diag = diagnose(fit, threshold=1.96)
            n_terms += len(fit.labels) - 1
            n_flagged += len(diag.flagged)
        assert n_flagged / n_terms <= 0.05

    def test_threshold_zero_returns_all_terms(self, census_pair):
        orig, syn = census_pair
        fit = fit_propensity(orig, syn, "main_effects")
        diag = diagnose(fit, threshold=0.0)
        finite = np.isfinite(fit.z) & (np.array(fit.labels) != "(intercept)")
        assert len(diag.flagged) == int(finite.sum())

    def test_sorted_by_abs_z_and_grouped(self, census_pair):
        orig, syn = census_pair
        fit = fit_propensity(orig, syn, "main_effects")
        diag = diagnose(fit, threshold=0.5)
        zs = [abs(z) for _, z in diag.flagged]
        assert zs == sorted(zs, reverse=True)
        for var, terms in diag.by_variable:
            assert len(terms) >= 1


class TestArgumentsThatWouldMisleadAreRefused:
    """An argument that would give a silently wrong answer (a negative slice
    length, a NaN bound that no value fails, a bound every value passes, an
    empty histogram) is a UtilityError that names it."""

    @pytest.mark.parametrize(
        "top, message", [(-1, "top must be >= 0, got -1"), (1.5, "top must be a whole number, got 1.5"),
                         (True, "top must be a whole number, got True")],
    )
    def test_worst_cells_top(self, census_pair, top, message):
        table = cross_tabulate(*census_pair, ["mar", "sex"])
        with pytest.raises(UtilityError) as got:
            worst_cells(table, top=top)
        assert str(got.value) == message
        assert len(worst_cells(table, top=0)) == 0

    @pytest.mark.parametrize(
        "threshold, message",
        [(math.nan, "threshold must be a finite number, got nan"),
         (math.inf, "threshold must be a finite number, got inf"),
         (-1, "threshold must be >= 0, got -1")],
    )
    def test_diagnose_threshold(self, census_pair, threshold, message):
        fit = fit_propensity(*census_pair, "main_effects")
        with pytest.raises(UtilityError) as got:
            diagnose(fit, threshold=threshold)
        assert str(got.value) == message

    @pytest.mark.parametrize(
        "tol, message",
        [(math.nan, "tol must be a finite number, got nan"), (-1.0, "tol must be >= 0, got -1.0"),
         ("1e-8", "tol must be a finite number, got '1e-8'")],
    )
    def test_equivalence_check_tol(self, census_pair, tol, message):
        with pytest.raises(UtilityError) as got:
            equivalence_check(*census_pair, ["mar"], tol=tol)
        assert str(got.value) == message

    @pytest.mark.parametrize(
        "n_bins, message",
        [(0, "n_bins must be >= 1, got 0"), (1.5, "n_bins must be a whole number, got 1.5")],
    )
    def test_compare_univariate_n_bins(self, census_pair, n_bins, message):
        with pytest.raises(UtilityError) as got:
            compare_univariate(*census_pair, n_bins=n_bins)
        assert str(got.value) == message
        assert compare_univariate(*census_pair, n_bins=np.int64(1)).comparisons["age"].edges.size == 2

    @pytest.mark.parametrize("model", ["main_effects", "interactions"])
    def test_fit_propensity_empty_variables(self, census_pair, model):
        # the intercept alone would read U_gen 0, p 1: perfect utility
        # measured on nothing
        with pytest.raises(UtilityError) as got:
            fit_propensity(*census_pair, model, variables=[])
        assert str(got.value) == f"{model} model needs at least one variable; variables is empty"


def _without_widowed(pair):
    """The pair with every 'Widowed' original recoded 'Single': a level
    only the synthetic side has."""
    orig, syn = pair
    mar = orig.column("mar")
    widowed = mar.kind.levels.index("Widowed")
    assert np.any(syn.column("mar").values == widowed)
    values = np.where(mar.values == widowed, mar.kind.levels.index("Single"), mar.values)
    return orig.with_column(Column("mar", mar.kind, values)), syn


class TestUtilityReport:
    def test_report_structure(self, census_pair):
        orig, syn = census_pair
        doc = utility_report(orig, syn, tables=[("mar", "age")])
        assert {"u_gen", "tables", "flags"} <= set(doc)
        assert doc["u_gen"]["df"] >= 1
        t = doc["tables"][0]
        assert t["variables"] == ["mar", "age"]
        assert len(t["worst_cells"]) <= 10

    def test_saturated_report_equals_utab_of_union(self, census_pair):
        # saturated U_gen over one table's variables is exactly its U_tab
        orig, syn = census_pair
        doc = utility_report(orig, syn, tables=[("mar", "age")], model="table_saturated")
        assert doc["u_gen"]["model"] == "table_saturated"
        assert doc["u_gen"]["statistic"] == pytest.approx(
            doc["tables"][0]["u_tab"], rel=1e-9
        )

    @pytest.mark.parametrize("model", ["main_effects", "interactions", "table_saturated"])
    def test_synthetic_level_the_original_lacks(self, census_pair, model):
        orig, syn = _without_widowed(census_pair)
        with warnings.catch_warnings():
            # the level is synthetic-only, so it separates the two sets
            warnings.simplefilter("ignore")
            doc = utility_report(orig, syn, tables=[("mar", "age")], model=model)
        assert doc["u_gen"]["df"] >= 1 and np.isfinite(doc["u_gen"]["statistic"])
        assert 0.0 <= doc["u_gen"]["pmse"] <= 0.25
        worst = doc["tables"][0]["worst_cells"]
        assert any(c["levels"][0] == "Widowed" and c["y"] == 0 < c["s"] for c in worst)

    def test_compare_with_a_synthetic_level_the_original_lacks(self, census_pair):
        orig, syn = _without_widowed(census_pair)
        mar = compare_univariate(orig, syn).comparisons["mar"]
        widowed = mar.levels.index("Widowed")
        assert mar.prop_original[widowed] == 0 < mar.prop_synthetic[widowed]
        bi = compare_bivariate(orig, syn, "mar", "sex")
        assert np.all(bi.pct_original[:, widowed] == 0)
        assert np.all(bi.pct_synthetic[:, widowed] > 0)
        eq = equivalence_check(orig, syn, ("mar", "sex"))
        assert eq.relative_gap <= 1e-8

    def test_unknown_model_rejected(self, census_pair):
        orig, syn = census_pair
        with pytest.raises(UtilityError, match="unknown propensity model"):
            utility_report(orig, syn, model="saturated")

    @pytest.mark.parametrize("out_of_range", [["a", "b"], []], ids=["two", "none"])
    def test_report_flags_are_compare_univariates(self, out_of_range):
        """The report's range flags are ``compare_univariate``'s, in column
        order; ``a`` leaves its range above and ``b`` below, ``d`` never."""
        rng = np.random.default_rng(8)

        def table(a, b, d):
            sex = categorical_column("c", rng.choice(["u", "v"], 200), ["u", "v"])
            return Dataset((numeric_column("a", a), sex, numeric_column("b", b), numeric_column("d", d)))

        holed = np.where(np.arange(200) % 10 == 0, np.nan, 0.0)  # missing cells never flag
        a, b, d = rng.uniform(0.0, 1.0, (3, 200))
        orig = table(a + holed, b, d)
        a, b, d = rng.uniform(0.25, 0.75, (3, 200))
        shift = 0.5 if out_of_range else 0.0
        syn = table(a + holed + shift, b - shift, d)
        flags = compare_univariate(orig, syn).flags
        assert [f.split(":")[0] for f in flags] == out_of_range
        assert all("exceeds original" in f for f in flags)
        assert utility_report(orig, syn)["flags"] == list(flags)


# ---------------------------------------------------------------------------
# Reference: the per-cell table that CellTable's count arrays replaced.  It
# builds one (levels, y, s) cell per combination of labels, and reads the worst
# cells and the saturated terms back from those cells.
# ---------------------------------------------------------------------------

class _RefCell(NamedTuple):
    levels: tuple[str, ...]
    y: int
    s: int


def _cells_of(table):
    """The table's cells as reference cells, in its row-major order."""
    return tuple(
        _RefCell(levels, y, s)
        for levels, y, s in zip(
            itertools.product(*table.labels), table.y.tolist(), table.s.tolist()
        )
    )


def _reference_cells(original, synthetic, variables, numeric_breaks=None, n_bins=5):
    per_var = []
    sizes = []
    for v in variables:
        brk = numeric_breaks.get(v) if numeric_breaks else None
        co, cs, labels = _cell_codes(original.column(v), synthetic.column(v), brk, n_bins)
        per_var.append((co, cs, labels))
        sizes.append(len(labels))
    k_total = int(np.prod(sizes))
    flat_o = np.zeros(original.n_rows, dtype=np.int64)
    flat_s = np.zeros(synthetic.n_rows, dtype=np.int64)
    for (co, cs, labels), size in zip(per_var, sizes):
        flat_o = flat_o * size + co
        flat_s = flat_s * size + cs
    y = np.bincount(flat_o, minlength=k_total)
    s = np.bincount(flat_s, minlength=k_total)
    label_lists = [labels for _, _, labels in per_var]
    cells = []
    for flat in range(k_total):
        idx = np.unravel_index(flat, sizes)
        cells.append(
            _RefCell(
                tuple(label_lists[d][i] for d, i in enumerate(idx)), int(y[flat]), int(s[flat])
            )
        )
    return tuple(cells)


def _reference_counts(cells):
    y = np.array([c.y for c in cells], dtype=np.float64)
    s = np.array([c.s for c in cells], dtype=np.float64)
    return y, s


def _reference_worst_cells(cells, top=10):
    y, s = _reference_counts(cells)
    tot = y + s
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(tot > 0, (s - y) ** 2 / (tot / 2.0), 0.0)
    order = np.argsort(-contrib, kind="stable")[:top]
    return [
        {
            "levels": list(cells[i].levels),
            "y": cells[i].y,
            "s": cells[i].s,
            "contribution": float(contrib[i]),
        }
        for i in order
        if contrib[i] > 0
    ]


def _reference_saturated(variables, cells, n_synthetic):
    """(terms, coefficients, pmse) of the closed-form saturated fit."""
    y, s = _reference_counts(cells)
    tot = y + s
    N = int(tot.sum())
    c = n_synthetic / N
    populated = tot > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p_cell = np.where(populated, s / np.where(populated, tot, 1.0), 0.0)
    pmse = float(np.clip((tot[populated] * (p_cell[populated] - c) ** 2).sum() / N, 0.0, c * (1 - c)))
    pp = p_cell[populated]
    with np.errstate(divide="ignore", invalid="ignore"):
        coefs = np.clip(np.log(pp / (1 - pp)), -COEF_CAP, COEF_CAP)
    terms = tuple(
        "|".join(f"{v}={lv}" for v, lv in zip(variables, cell.levels))
        for cell, pop in zip(cells, populated)
        if pop
    )
    return terms, coefs, pmse


def _reference_bivariate(original, synthetic, inner, by, numeric_breaks=None, n_bins=5):
    """(bands, levels, % original, % synthetic) from each variable's own
    cell codes, banding variable first."""
    brk = numeric_breaks or {}
    ci_o, ci_s, inner_labels = _cell_codes(
        original.column(inner), synthetic.column(inner), brk.get(inner), n_bins
    )
    cb_o, cb_s, band_labels = _cell_codes(
        original.column(by), synthetic.column(by), brk.get(by), n_bins
    )
    nb, nl = len(band_labels), len(inner_labels)

    def pct(cb, ci):
        counts = np.bincount(cb * nl + ci, minlength=nb * nl).reshape(nb, nl).astype(float)
        totals = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            return np.where(totals > 0, 100.0 * counts / totals, 0.0)

    return tuple(band_labels), tuple(inner_labels), pct(cb_o, ci_o), pct(cb_s, ci_s)


def _census_five_way():
    names = ["occ3", "region", "sex", "mar", "age"]
    orig = generate_toy_census(ToyCensusSpec(n_rows=3000, seed=44)).select(names)
    syn = generate_toy_census(ToyCensusSpec(n_rows=3000, seed=45)).select(names)
    return orig, syn, names, None


def _numeric_with_missing_cells():
    rng = np.random.default_rng(3)
    x_o, x_s = rng.normal(1.0, 1.0, 200), rng.normal(1.2, 1.0, 200)
    x_o[rng.random(200) < 0.1] = np.nan
    x_s[rng.random(200) < 0.2] = np.nan
    sex_o = rng.choice(["f", "m"], 200)
    sex_s = rng.choice(["f", "m"], 200)
    orig = Dataset((numeric_column("x", x_o), categorical_column("sex", sex_o, ["f", "m"])))
    syn = Dataset((numeric_column("x", x_s), categorical_column("sex", sex_s, ["f", "m"])))
    return orig, syn, ["sex", "x"], {"x": [0.0, 0.5, 2.0]}


def _synthetic_out_of_range():
    rng = np.random.default_rng(4)
    orig = Dataset((numeric_column("x", rng.uniform(0, 10, 300)),))
    syn = Dataset((numeric_column("x", rng.uniform(-5, 15, 300)),))
    return orig, syn, ["x"], None


def _synthetic_only_level():
    rng = np.random.default_rng(5)
    levels = ["a", "b", "c", "d"]
    orig = Dataset((
        categorical_column("v", rng.choice(levels[:3], 150), levels),
        categorical_column("w", rng.choice(["u", "v"], 150), ["u", "v"]),
    ))
    syn = Dataset((
        categorical_column("v", rng.choice(levels, 150), levels),
        categorical_column("w", rng.choice(["u", "v"], 150), ["u", "v"]),
    ))
    return orig, syn, ["w", "v"], None


class TestMatchesPerCellReference:
    @pytest.mark.parametrize(
        "case",
        [_census_five_way, _numeric_with_missing_cells, _synthetic_out_of_range,
         _synthetic_only_level],
    )
    def test_table_worst_cells_and_saturated_fit(self, case):
        orig, syn, variables, breaks = case()
        ref = _reference_cells(orig, syn, variables, breaks)
        table = cross_tabulate(orig, syn, variables, numeric_breaks=breaks)

        assert _cells_of(table) == ref
        assert table.k == len(ref)
        for got, want in zip(table.counts(), _reference_counts(ref)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert table.n_combined == orig.n_rows + syn.n_rows
        for top in (10, len(ref)):
            assert worst_cells(table, top) == _reference_worst_cells(ref, top)

        terms, coefs, pmse = _reference_saturated(variables, ref, syn.n_rows)
        fit = fit_propensity(
            orig, syn, "table_saturated", variables=variables, numeric_breaks=breaks
        )
        assert fit.labels == terms
        assert np.array_equal(fit.coefficients, coefs)
        assert fit.pmse == pmse
        assert fit.n_params == len(terms)

        # a table rebuilt from its counts holds the same arrays
        rebuilt = CellTable(table.variables, table.labels, table.y, table.s)
        assert rebuilt.labels == table.labels
        assert np.array_equal(rebuilt.y, table.y) and np.array_equal(rebuilt.s, table.s)


    @pytest.mark.parametrize("n_bins", [3, 5])
    @pytest.mark.parametrize(
        "case",
        [_census_five_way, _numeric_with_missing_cells, _synthetic_out_of_range,
         _synthetic_only_level],
    )
    def test_bivariate_percentages(self, case, n_bins):
        orig, syn, variables, breaks = case()
        for inner, by in itertools.product(variables[-2:], repeat=2):
            bands, levels, po, ps = _reference_bivariate(orig, syn, inner, by, breaks, n_bins)
            got = compare_bivariate(orig, syn, inner, by, breaks, n_bins)
            assert (got.bands, got.levels) == (bands, levels)
            assert np.array_equal(got.pct_original, po) and np.array_equal(got.pct_synthetic, ps)
            assert got.max_abs_diff == float(np.abs(po - ps).max())


@st.composite
def _categorical_pair(draw):
    """Equal-size datasets of 1-3 categorical variables; empty cells allowed."""
    n = draw(st.integers(1, 25))
    original, synthetic = [], []
    for j in range(draw(st.integers(1, 3))):
        kind = Categorical(tuple(f"l{i}" for i in range(draw(st.integers(1, 4)))))
        codes = st.lists(st.integers(0, len(kind.levels) - 1), min_size=n, max_size=n)
        original.append(Column(f"v{j}", kind, np.array(draw(codes), dtype=np.int64)))
        synthetic.append(Column(f"v{j}", kind, np.array(draw(codes), dtype=np.int64)))
    return Dataset(tuple(original)), Dataset(tuple(synthetic))


class TestEquivalenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(_categorical_pair())
    def test_u_tab_equals_8n_pmse_of_saturated_fit(self, pair):
        orig, syn = pair
        variables = orig.names
        table = cross_tabulate(orig, syn, variables)
        if int((table.y + table.s > 0).sum()) < 2:
            with pytest.raises(UtilityError, match="2 populated"):
                equivalence_check(orig, syn, variables)
            return
        rep = equivalence_check(orig, syn, variables)
        assert rep.relative_gap <= 1e-8
        fit = fit_propensity(orig, syn, "table_saturated", variables=variables)
        assert u_tab(table).statistic == pytest.approx(
            8 * fit.n_combined * fit.pmse, rel=1e-8, abs=1e-9
        )


def test_propensity_without_an_information_inverse_has_nan_errors(monkeypatch):
    """When the information matrix cannot be inverted the estimate stands,
    its standard errors and z are NaN, no term is flagged on them, and the
    report is still strict JSON."""
    orig = generate_toy_census(ToyCensusSpec(n_rows=1000, seed=61))
    syn = generate_toy_census(ToyCensusSpec(n_rows=1000, seed=62))
    reference = fit_propensity(orig, syn)
    assert diagnose(reference).flagged  # the patched fit below has terms to lose

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("patched")

    monkeypatch.setattr(np.linalg, "inv", failing)
    fit = fit_propensity(orig, syn)
    assert np.array_equal(fit.coefficients, reference.coefficients)
    assert np.isnan(fit.standard_errors).all() and np.isnan(fit.z).all()
    assert fit.standard_errors.shape == reference.standard_errors.shape
    assert diagnose(fit).flagged == () and diagnose(fit).variables == ()
    doc = json.loads(json.dumps(utility_report(orig, syn, tables=[("mar", "age")]), allow_nan=False))
    assert doc["u_gen"]["flagged_terms"] == [] and doc["u_gen"]["flagged_variables"] == []
    assert doc["u_gen"]["statistic"] == u_gen(reference).statistic
