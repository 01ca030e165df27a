import operator
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from synthweave import (
    Cart,
    DataError,
    Dataset,
    Logit,
    MethodError,
    Multinomial,
    Nested,
    NormRank,
    PlanError,
    Rule,
    Sample,
    SynthesisPlan,
    SynthweaveError,
    ToyCensusSpec,
    TransformNormal,
    categorical_column,
    cross_tabulate,
    generate_toy_census,
    numeric_column,
    plan_errors,
    run_report,
    synthesize,
    u_tab,
    validate_plan,
    write_csv,
)
from synthweave import cart, engine, models
from synthweave.cart import MISSING_INDICATOR, cart_sample, fit_cart
from synthweave.engine import _eval_atoms, _fit_pass, _sample_pass
from synthweave.models import fit_logit, fit_multinomial
from synthweave.tabular import Categorical, Column, Numeric


@pytest.fixture(scope="module")
def census():
    return generate_toy_census(ToyCensusSpec(n_rows=8000, seed=5))


def cart_plan(cols, seed=1, rules=()):
    methods = {c: Cart() for c in cols}
    methods[cols[0]] = Sample()
    return SynthesisPlan(tuple(cols), methods, rules=tuple(rules), seed=seed)


class TestSynthesize:
    @pytest.mark.parametrize("n_rows", [-3, 2.5, True, "10"])
    def test_n_rows_that_is_no_count_rejected(self, census, n_rows):
        plan = cart_plan(["region", "sex"])
        with pytest.raises(PlanError, match=f"n_rows must be a whole number >= 0, got {n_rows!r}"):
            synthesize(census.select(["region", "sex"]), plan, n_rows=n_rows)

    def test_zero_rows_allowed(self, census):
        plan = cart_plan(["region", "sex"])
        run = synthesize(census.select(["region", "sex"]), plan, n_rows=0)
        assert run.synthetic.n_rows == 0

    def test_numeric_literal_forces_its_level(self):
        rng = np.random.default_rng(8)
        g = rng.choice(["15", "16", "17"], 600)
        t = np.where(g == "16", "x", rng.choice(["a", "b"], 600))
        data = Dataset((categorical_column("g", list(g)), categorical_column("t", list(t))))
        plan = SynthesisPlan(
            ("g", "t"), {"g": Sample(), "t": Cart()}, rules=(Rule("t", "g == 16", "x"),), seed=5
        )
        run = synthesize(data, plan)
        syn = run.synthetic
        hit = np.array(syn.column("g").decoded()) == "16"
        forced = np.array(syn.column("t").decoded()) == "x"
        assert hit.any() and np.array_equal(forced, hit)
        assert run.summaries[-1].rule_forced == int(hit.sum())
        assert run.summaries[-1].n_fit == int((g != "16").sum())

    def test_rule_holds_exactly(self, census):
        cols = ["region", "sex", "age", "mar"]
        plan = cart_plan(cols, rules=[Rule("mar", "age < 16", "Single")])
        run = synthesize(census.select(cols), plan)
        age = run.synthetic.column("age").values
        mar = run.synthetic.column("mar").values
        assert int(((age < 16) & (mar != 0)).sum()) == 0
        forced = [s.rule_forced for s in run.summaries if s.name == "mar"][0]
        assert forced > 0

    def test_first_matching_rule_wins(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, 500)
        x[1::25] = 9.0
        x[::25] = np.nan  # a missing cell satisfies no condition, "!=" included
        data = Dataset(
            (
                numeric_column("x", x),
                categorical_column("t", list(rng.choice(["a", "b", "c"], 500))),
            )
        )
        plan = SynthesisPlan(
            ("x", "t"),
            {"x": Sample(), "t": Cart()},
            rules=(
                Rule("t", "x < 5", "a"), Rule("t", "x < 8", "b"),
                # the other four operators cover every number from 8 up
                Rule("t", "x == 9", "c"), Rule("t", "x >= 9.5", "a"),
                Rule("t", "x > 8 and x <= 8.5", "b"), Rule("t", "x != 9", "c"),
            ),
            seed=3,
        )
        run = synthesize(data, plan)
        syn = run.synthetic
        x, t = syn.column("x").values, syn.column("t").values
        lv = syn.column("t").levels
        assert np.all(t[x < 5] == lv.index("a"))          # first rule
        assert np.all(t[(x >= 5) & (x < 8)] == lv.index("b"))  # second rule
        assert np.any(x == 9) and np.all(t[x == 9] == lv.index("c"))
        assert np.all(t[x >= 9.5] == lv.index("a"))
        assert np.all(t[(x > 8) & (x <= 8.5)] == lv.index("b"))
        assert np.all(t[(x > 8.5) & (x < 9.5) & (x != 9)] == lv.index("c"))
        # every number is forced, no missing cell is, and only the original
        # rows with a missing x are left to fit t
        assert np.isnan(x).any()
        assert run.summaries[-1].rule_forced == int((~np.isnan(x)).sum())
        assert run.summaries[-1].n_fit == int(np.isnan(data.column("x").values).sum())

    def test_sample_only_plan_marginals_match_but_dependence_breaks(self, census):
        cols = ["region", "sex", "age", "mar"]
        orig = census.select(cols)
        plan = SynthesisPlan(tuple(cols), {c: Sample() for c in cols}, seed=9)
        run = synthesize(orig, plan, n_rows=100_000)
        syn = run.synthetic
        assert syn.n_rows == 100_000
        ks = scipy.stats.ks_2samp(
            orig.column("age").values, syn.column("age").values
        ).statistic
        assert ks < 0.03
        for name in ["region", "sex", "mar"]:
            po = np.bincount(orig.column(name).values, minlength=6) / orig.n_rows
            ps = np.bincount(syn.column(name).values, minlength=6) / syn.n_rows
            assert np.abs(po - ps).max() < 0.03
        # the dependent pair falls apart: tabulate with an oracle-by-hand sum
        table = cross_tabulate(orig, syn.take(np.arange(8000)), ["mar", "age"])
        y, s = table.counts()
        tot = y + s
        oracle = float((((s - y) ** 2)[tot > 0] / (tot[tot > 0] / 2)).sum())
        stat = u_tab(table)
        assert stat.statistic == pytest.approx(oracle)
        assert stat.ratio > 5

    def test_zero_row_original_rejected(self):
        data = Dataset((numeric_column("x", []),))
        with pytest.raises(DataError, match="empty"):
            synthesize(data, SynthesisPlan(("x",), {"x": Sample()}))

    def test_every_row_excluded_by_rules(self):
        data = Dataset(
            (
                categorical_column("a", ["x", "y"] * 10),
                numeric_column("b", np.arange(20.0)),
            )
        )
        plan = SynthesisPlan(("b", "a"), {"b": Sample()}, rules=(Rule("a", "b >= 0", "x"),))
        with pytest.raises(MethodError) as exc:
            synthesize(data, plan)
        assert str(exc.value) == "a: every original row is excluded by rules"

    def test_method_kind_mismatch_fails_before_fitting(self, census):
        cols = ["region", "sex", "occ1"]
        plan = SynthesisPlan(
            tuple(cols),
            {"region": Sample(), "sex": Logit(), "occ1": Logit()},
            seed=1,
        )
        with pytest.raises(PlanError, match="binary"):
            synthesize(census.select(cols), plan)

    def test_determinism_byte_for_byte(self, census, tmp_path):
        cols = ["region", "sex", "age", "mar", "pperroom"]
        plan = cart_plan(cols, seed=77)
        a = synthesize(census.select(cols), plan).synthetic
        b = synthesize(census.select(cols), plan).synthetic
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, pa)
        write_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_leakage_bound_successors_do_not_matter(self, census):
        # permuting a successor column of the original leaves every earlier
        # variable's synthetic output unchanged
        cols = ["region", "sex", "age", "mar"]
        orig = census.select(cols)
        plan = cart_plan(cols, seed=13)
        run1 = synthesize(orig, plan)
        rng = np.random.default_rng(99)
        perm = rng.permutation(orig.n_rows)
        mar = orig.column("mar")
        shuffled = orig.with_column(
            categorical_column(
                "mar", [mar.levels[c] for c in mar.values[perm]], mar.levels
            )
        )
        run2 = synthesize(shuffled, plan)
        for name in ["region", "sex", "age"]:
            assert np.array_equal(
                run1.synthetic.column(name).values,
                run2.synthetic.column(name).values,
            )

    def test_nested_method_in_engine(self, census):
        cols = ["region", "occ1", "occ3"]
        plan = SynthesisPlan(
            tuple(cols),
            {"region": Sample(), "occ1": Cart(), "occ3": Nested("occ1")},
            seed=21,
        )
        run = synthesize(census.select(cols), plan)
        occ1 = run.synthetic.column("occ1").values
        occ3 = run.synthetic.column("occ3").values
        assert np.array_equal(occ3 // 40, occ1)  # nesting preserved exactly


class TestRunReport:
    def test_stage_times_and_tree_sizes(self, census):
        cols = ["region", "sex", "age", "mar", "pperroom"]
        methods = {
            "region": Sample(), "sex": Logit(), "age": Cart(), "mar": Cart(), "pperroom": Cart()
        }
        plan = SynthesisPlan(
            tuple(cols), methods, rules=(Rule("mar", "age < 16", "Single"),), seed=3
        )
        doc = run_report(synthesize(census.select(cols), plan))
        by_name = {v["name"]: v for v in doc["variables"]}
        for v in doc["variables"]:
            stages = (v["fit_s"], v["sample_s"], v["rules_s"])
            assert min(stages) >= 0
            assert sum(stages) <= v["elapsed_s"] + 1e-5
        assert by_name["mar"]["rule_forced"] > 0 and by_name["mar"]["rules_s"] > 0
        assert by_name["region"]["tree"] is None
        assert by_name["sex"]["tree"] is None
        # read from the fitted tree: age is fit on every row, from region and sex
        age = fit_cart(census.column("age"), census.select(["region", "sex"]))
        assert by_name["age"]["tree"] == {
            "nodes": len(age.nodes), "leaves": age.n_leaves, "depth": age.depth
        }
        assert by_name["age"]["tree"]["depth"] >= 1
        # binary trees: one tree has 2L - 1 nodes; pperroom adds its
        # missingness-indicator tree, so two trees have 2L - 2
        mar, pperroom = by_name["mar"]["tree"], by_name["pperroom"]["tree"]
        assert mar["nodes"] == 2 * mar["leaves"] - 1
        assert by_name["pperroom"]["missing_indicator"] is True
        assert pperroom["nodes"] == 2 * pperroom["leaves"] - 2

    def test_solver_stats(self, census):
        cols = ["region", "sex", "age", "mar", "pperroom"]
        methods = {
            "region": Sample(), "sex": Logit(), "age": Cart(), "mar": Multinomial(),
            "pperroom": NormRank(),
        }
        plan = SynthesisPlan(tuple(cols), methods, seed=3)
        doc = run_report(synthesize(census.select(cols), plan))
        by_name = {v["name"]: v for v in doc["variables"]}
        assert by_name["region"]["solver"] is None and by_name["age"]["solver"] is None
        # read from the fitted models: each variable is fit on every row
        sex = fit_logit(census.column("sex"), census.select(["region"]))
        mar = fit_multinomial(census.column("mar"), census.select(["region", "sex", "age"]))
        for name, fit in (("sex", sex), ("mar", mar)):
            assert by_name[name]["solver"] == {
                "iterations": fit.iterations,
                "converged": fit.converged,
                "gradient_norm": fit.final_gradient_norm,
                "cells": fit.cells,
            }
        # one design row per distinct predictor row: per region for sex
        assert sex.cells == len(np.unique(census.column("region").values))
        # pperroom is fit by least squares; its missingness indicator by a logit
        pperroom = by_name["pperroom"]
        assert pperroom["missing_indicator"] is True
        assert set(pperroom["solver"]) == {"iterations", "converged", "gradient_norm", "cells"}
        assert pperroom["solver"]["converged"] is True
        assert pperroom["solver"]["iterations"] >= 2


class TestFitNotes:
    """Each design column a fit drops is one note in the variable's warnings,
    and none of them goes through ``warnings.warn``."""

    @pytest.mark.parametrize(
        "target,spec",
        [("age", NormRank()), ("age", TransformNormal()), ("sex", Logit()), ("mar", Multinomial())],
        ids=["normrank", "transform_normal", "logit", "multinomial"],
    )
    def test_constant_design_column_noted(self, target, spec):
        data = _hostile_data()
        plan = SynthesisPlan(
            ("region", "const", target), {"region": Sample(), "const": Sample(), target: spec}, seed=3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = synthesize(data.select(["region", "const", target]), plan)
        note = "dropped constant design column 'const'"
        assert run.summaries[-1].warnings == (note,)
        assert f"{target}: {note}" in run.warnings

    def test_constant_columns_noted_once_per_fit(self, census):
        # within an occ1 stratum, the occ3 dummies of the other groups are
        # constant: pperroom's fits name them all in one note
        plan = SynthesisPlan(
            ("region", "occ1", "occ3", "pperroom"),
            {"region": Sample(), "occ3": Nested("occ1"), "pperroom": NormRank()},
            stratifier="occ1",
            seed=4,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = synthesize(census.select(["region", "occ1", "occ3", "pperroom"]), plan)
        occ1, occ3 = census.column("occ1"), census.column("occ3")
        summaries = [s for s in run.summaries if s.name == "pperroom"]
        assert [s.stratum for s in summaries] == list(occ1.levels)
        for group, summary in enumerate(summaries):
            # occ3 code // 40 is its occ1 group; level 0 is the reference
            dropped = [
                repr(f"occ3={level}")
                for code, level in enumerate(occ3.levels)
                if code and code // 40 != group
            ]
            note = f"dropped {len(dropped)} constant design columns: {', '.join(dropped)}"
            assert [w for w in summary.warnings if "constant design column" in w] == [note]
        assert sum("constant design column" in w for w in run.warnings) == len(summaries)

    def test_aliased_notes_kept_once_per_variable(self, census):
        # sex2 copies sex, so the missingness logit and the normrank fit of
        # pperroom both drop the same aliased dummy
        sex = census.column("sex")
        data = census.select(["region", "sex", "pperroom"]).with_column(
            Column("sex2", sex.kind, sex.values)
        )
        plan = SynthesisPlan(
            ("region", "sex", "sex2", "pperroom"),
            {"region": Sample(), "sex": Cart(), "sex2": Cart(), "pperroom": NormRank()},
            seed=4,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = synthesize(data, plan)
        summary = run.summaries[-1]
        assert summary.missing_indicator
        assert summary.warnings == ("dropped aliased design column 'sex2=M'",)
        assert [w for w in run.warnings if w.startswith("pperroom:")] == [
            "pperroom: dropped aliased design column 'sex2=M'"
        ]


class TestMissingData:
    def test_missing_rate_reproduced(self, census):
        cols = ["region", "sex", "age", "pperroom"]
        plan = cart_plan(cols, seed=31)
        run = synthesize(census.select(cols), plan, n_rows=20_000)
        rate = float(np.isnan(run.synthetic.column("pperroom").values).mean())
        assert abs(rate - 0.072) < 0.01
        assert [s.missing_indicator for s in run.summaries if s.name == "pperroom"] == [True]

    def test_sample_method_reports_no_indicator(self):
        # the sample method bootstraps missing cells with the rest: no
        # missingness model is fitted, so the report must not claim one
        rng = np.random.default_rng(43)
        y = rng.normal(size=300)
        y[rng.random(300) < 0.2] = np.nan
        data = Dataset(
            (numeric_column("y", y), categorical_column("g", list(rng.choice(["a", "b"], 300))))
        )
        run = synthesize(data, SynthesisPlan(("y", "g"), {"y": Sample(), "g": Cart()}, seed=2))
        assert np.isnan(run.synthetic.column("y").values).any()
        doc = run_report(run)
        assert [v["missing_indicator"] for v in doc["variables"]] == [False, False]

    def test_no_missing_skips_indicator_and_matches_plain_path(self):
        rng = np.random.default_rng(41)
        data = Dataset(
            (
                categorical_column("g", list(rng.choice(["a", "b"], 400))),
                numeric_column("y", rng.normal(size=400)),
            )
        )
        plan = SynthesisPlan(("g", "y"), {"g": Sample(), "y": Cart()}, seed=8)
        run = synthesize(data, plan)
        assert [s.missing_indicator for s in run.summaries if s.name == "y"] == [False]
        # reproduce by hand with the same substream: (entropy, stratum 0, pos 1)
        stream = np.random.default_rng(np.random.SeedSequence([8, 0, 1]))
        model = fit_cart(data.column("y"), data.select(["g"]))
        expected = model.sample(run.synthetic.select(["g"]), stream, 400)
        assert np.array_equal(run.synthetic.column("y").values, expected)

    def test_missingness_driven_by_predictor(self):
        rng = np.random.default_rng(51)
        n = 4000
        flag = rng.random(n) < 0.3
        y = rng.normal(10, 2, n)
        y[flag] = np.nan
        data = Dataset(
            (
                categorical_column("f", ["yes" if v else "no" for v in flag]),
                numeric_column("y", y),
            )
        )
        plan = SynthesisPlan(("f", "y"), {"f": Sample(), "y": Cart()}, seed=6)
        run = synthesize(data, plan)
        syn_flag = run.synthetic.column("f").values == data.column("f").levels.index("yes")
        syn_missing = np.isnan(run.synthetic.column("y").values)
        agreement = float((syn_flag == syn_missing).mean())
        assert agreement >= 0.99

    def test_all_missing_rejected(self):
        data = Dataset(
            (
                categorical_column("g", ["a", "b"] * 10),
                numeric_column("y", [np.nan] * 20),
            )
        )
        plan = SynthesisPlan(("g", "y"), {"g": Sample(), "y": Cart()}, seed=1)
        with pytest.raises(Exception, match="all values missing"):
            synthesize(data, plan)

    def test_numeric_predictor_with_missing_feeds_cart(self):
        # a missing-bearing numeric predecessor becomes an indicator plus
        # zero-filled values, so later CART fits can use it
        rng = np.random.default_rng(81)
        n = 1500
        y = rng.normal(size=n)
        y[rng.permutation(n)[:150]] = np.nan
        t = np.where(np.isnan(y), "gap", np.where(y > 0, "hi", "lo"))
        data = Dataset(
            (numeric_column("y", y), categorical_column("t", list(t)))
        )
        plan = SynthesisPlan(("y", "t"), {"y": Sample(), "t": Cart()}, seed=13)
        run = synthesize(data, plan)
        syn_y = run.synthetic.column("y").values
        syn_t = run.synthetic.column("t").values
        gap_code = data.column("t").levels.index("gap")
        # CART conditions on the synthesized missingness pattern
        agreement = float((np.isnan(syn_y) == (syn_t == gap_code)).mean())
        assert agreement > 0.99

    def test_sample_method_with_missing_keeps_rate(self):
        rng = np.random.default_rng(61)
        y = rng.normal(size=2000)
        y[rng.permutation(2000)[:144]] = np.nan  # 7.2%
        data = Dataset((numeric_column("y", y),))
        plan = SynthesisPlan(("y",), {"y": Sample()}, seed=2)
        run = synthesize(data, plan, n_rows=100_000)
        rate = float(np.isnan(run.synthetic.column("y").values).mean())
        assert abs(rate - 0.072) < 0.01


class TestRandomPlans:
    def test_seeded_random_plans_run_clean(self):
        # deterministic mini-fuzz: random visit orders, methods and sizes
        # must synthesize and audit without errors
        import warnings as _w

        from synthweave import (
            Logit,
            Multinomial,
            NormRank,
            ToyCensusSpec,
            TransformNormal,
            equivalence_check,
            fit_propensity,
            generate_toy_census,
            plan_errors,
            u_gen,
            validate_plan,
        )

        rng = np.random.default_rng(424242)
        ran = 0
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            for _ in range(20):
                n = int(rng.integers(150, 600))
                census = generate_toy_census(
                    ToyCensusSpec(n_rows=n, seed=int(rng.integers(1, 1 << 30)))
                )
                cols = [c for c in census.names if c != "occ3"]
                rng.shuffle(cols)
                seq = cols[: int(rng.integers(2, len(cols) + 1))]
                methods = {}
                for i, c in enumerate(seq):
                    col = census.column(c)
                    if i == 0:
                        methods[c] = Sample()
                    elif col.is_numeric:
                        methods[c] = [Cart(), NormRank(), TransformNormal("identity")][
                            rng.integers(0, 3)
                        ]
                    else:
                        opts = [Cart(), Multinomial()]
                        if len(col.kind.levels) == 2:
                            opts.append(Logit())
                        methods[c] = opts[rng.integers(0, len(opts))]
                plan = SynthesisPlan(
                    tuple(seq), methods, seed=int(rng.integers(0, 1 << 30))
                )
                if plan_errors(validate_plan(plan, census)):
                    continue
                run = synthesize(census, plan)
                o = census.select(run.synthetic.names)
                u_gen(fit_propensity(o, run.synthetic, "main_effects"))
                pick = list(rng.choice(seq, size=min(2, len(seq)), replace=False))
                equivalence_check(o, run.synthetic, pick)
                ran += 1
        assert ran >= 15


_PLAN_DATA = generate_toy_census(ToyCensusSpec(n_rows=240, seed=17)).select(
    ["region", "sex", "age", "mar", "occ1", "pperroom"]
)
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@st.composite
def _valid_plans(draw):
    """A plan over ``_PLAN_DATA``: a random visit order, a method per later
    column drawn from those its kind allows, a random subset of the preceding columns
    as predictors, and 0-2 rules on distinct targets.  A rule's condition is
    one or two atoms over earlier columns, each holding on at most about half
    the rows, so every fit keeps rows of its own."""
    data = _PLAN_DATA
    names = draw(st.permutations(data.names))
    seq = tuple(names[: draw(st.integers(2, len(names)))])
    methods, predictors = {}, {}
    for i, name in enumerate(seq):
        col = data.column(name)
        if i == 0:
            options = [Sample()]  # the first variable has nothing to condition on
        elif col.is_numeric:
            transform = draw(st.sampled_from(["identity", "sqrt", "cuberoot"]))
            options = [Sample(), Cart(), NormRank(), TransformNormal(transform)]
        else:
            options = [Sample(), Cart(), Multinomial()]
            options += [Logit()] if len(col.levels) == 2 else []
        methods[name] = draw(st.sampled_from(options))
        predictors[name] = tuple(p for p in seq[:i] if draw(st.booleans()))
    rules = []
    for target in draw(st.lists(st.sampled_from(seq[1:]), max_size=2, unique=True)):
        before = seq[: seq.index(target)]
        atoms = []
        for var in draw(st.lists(st.sampled_from(before), min_size=1, max_size=2, unique=True)):
            col = data.column(var)
            if col.is_numeric:
                op = draw(st.sampled_from(sorted(_COMPARE)))
                low = op.startswith("<")
                q = draw(st.sampled_from([0.2, 0.35, 0.5] if low else [0.5, 0.65, 0.8]))
                atoms.append(f"{var} {op} {np.nanquantile(col.values, q):g}")
            else:
                atoms.append(f"{var} == {draw(st.sampled_from(col.levels))}")
        col = data.column(target)
        value = draw(st.sampled_from([0.5, 2.0] if col.is_numeric else col.levels))
        rules.append(Rule(target, " and ".join(atoms), value))
    return SynthesisPlan(seq, methods, predictors, tuple(rules), seed=draw(st.integers(0, 2**31)))


def _holds(atom, data):
    """Rows of ``data`` where one parsed condition atom holds, evaluated on
    the decoded cells; a missing number satisfies no comparison."""
    col = data.column(atom.var)
    if col.is_numeric:
        return _COMPARE[atom.op](col.values, float(atom.value))
    return np.array(col.decoded()) == atom.value


class TestPlanProperty:
    # 60 examples of two 240-row syntheses each: under 1 s
    @settings(max_examples=60, deadline=None)
    @given(plan=_valid_plans())
    def test_seeded_plans_give_one_output_and_keep_every_rule(self, plan, tmp_path_factory):
        assert not plan_errors(validate_plan(plan, _PLAN_DATA))
        out = tmp_path_factory.getbasetemp() / "plan_property"
        out.mkdir(exist_ok=True)
        written = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for run in range(2):
                synthetic = synthesize(_PLAN_DATA, plan).synthetic
                write_csv(synthetic, out / f"run{run}.csv")
                written.append((out / f"run{run}.csv").read_bytes())
        assert written[0] == written[1]
        for rule in plan.rules:
            cond = np.ones(synthetic.n_rows, dtype=bool)
            for atom in rule.atoms():
                cond &= _holds(atom, synthetic)
            target = synthetic.column(rule.target)
            if target.is_numeric:
                assert np.all(target.values[cond] == rule.value), rule
            else:
                assert np.all(np.array(target.decoded())[cond] == rule.value), rule


class TestStratified:
    def strat_plan(self, seed=17):
        cols = ["region", "sex", "age", "mar"]
        methods = {"region": Sample(), "sex": Cart(), "age": Cart(), "mar": Cart()}
        return SynthesisPlan(
            tuple(cols), methods, stratifier="occ1", seed=seed
        )

    def test_stratum_sizes_exact(self, census):
        plan = self.strat_plan()
        run = synthesize(census, plan)
        orig_counts = np.bincount(census.column("occ1").values, minlength=5)
        syn_counts = np.bincount(run.synthetic.column("occ1").values, minlength=5)
        assert np.array_equal(orig_counts, syn_counts)
        assert run.synthetic.n_rows == census.n_rows

    def test_n_rows_rejected(self, census):
        with pytest.raises(PlanError) as exc:
            synthesize(census, self.strat_plan(), n_rows=100)
        assert str(exc.value) == (
            "stratified synthesis fixes the output to the stratum sizes; "
            "n_rows cannot be overridden"
        )

    def test_small_strata_pooled_with_warning(self):
        rng = np.random.default_rng(71)
        n = 600
        g = ["big"] * 520 + ["tiny1"] * 50 + ["tiny2"] * 30
        data = Dataset(
            (
                categorical_column("g", g),
                numeric_column("x", rng.normal(size=n)),
                categorical_column("t", list(rng.choice(["u", "v"], n))),
            )
        )
        plan = SynthesisPlan(
            ("x", "t"), {"x": Sample(), "t": Cart()}, stratifier="g", seed=4
        )
        run = synthesize(data, plan)
        assert any("pooled" in w and "tiny1" in w for w in run.warnings)
        assert run.strata is not None
        assert dict(run.strata)["(other)"] == 80
        syn_counts = np.bincount(run.synthetic.column("g").values, minlength=3)
        assert syn_counts.tolist() == [520, 50, 30]

    def test_stratum_equals_subset_run_on_same_substream(self, census):
        plan = self.strat_plan(seed=23)
        run = synthesize(census, plan)
        # stratum index 1 is the second occ1 level with enough rows
        occ1 = census.column("occ1").values
        idx = np.flatnonzero(occ1 == 1)
        sub = census.take(idx)
        from dataclasses import replace

        sub_plan = replace(plan, stratifier=None)
        records = _fit_pass(sub, sub_plan)
        solo = Dataset(_sample_pass(records, sub_plan, 1, sub.n_rows, ())[0])
        joint = run.synthetic
        rows = np.flatnonzero(joint.column("occ1").values == 1)
        for name in ["region", "sex", "age", "mar"]:
            assert np.array_equal(
                joint.column(name).values[rows], solo.column(name).values
            )

    def test_stratifier_by_dependent_variable_ratio_near_one(self):
        # frozen seeds; the stratifier-age table is well-fit by construction
        failures = 0
        for seed in range(20):
            census = generate_toy_census(ToyCensusSpec(n_rows=6000, seed=500))
            plan = self.strat_plan(seed=seed)
            run = synthesize(census, plan)
            orig = census.select(run.synthetic.names)
            ratio = u_tab(
                cross_tabulate(orig, run.synthetic, ["occ1", "age"], n_bins=10)
            ).ratio
            if not 0.5 <= ratio <= 1.5:
                failures += 1
        assert failures == 0

    def test_numeric_stratifier_rejected(self, census):
        plan = SynthesisPlan(
            ("region",), {"region": Sample()}, stratifier="age", seed=1
        )
        with pytest.raises(PlanError, match="categorical"):
            synthesize(census, plan)


def expand_missing_predictors(fit_preds, sample_preds):
    """Reference: the engine's former predictor expansion.  Numeric
    predictors with missing cells on either side become a present/missing
    indicator plus their zero-filled values."""
    if fit_preds is None:
        return None, None
    fit_cols, sample_cols = [], []
    for col in fit_preds.columns:
        s_col = sample_preds.column(col.name)
        if isinstance(col.kind, Numeric):
            f_missing = np.isnan(col.values)
            s_missing = np.isnan(s_col.values)
            if f_missing.any() or s_missing.any():
                ind_kind = Categorical(("present", "missing"))
                fit_cols.append(
                    Column(f"{col.name}:missing", ind_kind, f_missing.astype(np.int64))
                )
                sample_cols.append(
                    Column(f"{col.name}:missing", ind_kind, s_missing.astype(np.int64))
                )
                fv = col.values.copy()
                fv[f_missing] = 0.0
                sv = s_col.values.copy()
                sv[s_missing] = 0.0
                fit_cols.append(Column(col.name, col.kind, fv))
                sample_cols.append(Column(col.name, col.kind, sv))
                continue
        fit_cols.append(col)
        sample_cols.append(s_col)
    return Dataset(tuple(fit_cols)), Dataset(tuple(sample_cols))


def assert_matches_reference(original, plan, run):
    """Refit every variable on reference-expanded predictors, sample it on the
    run's own synthetic predecessors and substream, and compare the draws on
    the rows no rule forced.  A numeric target with missing cells is fit in
    two steps, the missingness indicator by the method's ``missing_model`` on
    every fit row and the values on the complete ones, and drawn indicator
    first on the same stream; the sample method bootstraps all its cells."""
    n_out = run.synthetic.n_rows
    orig_cols = {c.name: c for c in original.columns}
    syn_cols = {c.name: c for c in run.synthetic.columns}
    for pos, name in enumerate(plan.visit_sequence):
        spec = plan.methods[name]
        rules = plan.rules_for(name)
        excl = np.zeros(original.n_rows, dtype=bool)
        forced = np.zeros(n_out, dtype=bool)
        for rule in rules:
            excl |= _eval_atoms(rule.atoms(), orig_cols, original.n_rows)
            forced |= _eval_atoms(rule.atoms(), syn_cols, n_out)
        fit_idx = np.flatnonzero(~excl)
        target = original.column(name).take(fit_idx)
        preds = plan.predictors_of(name)
        fit_preds, syn_preds = expand_missing_predictors(
            original.select(preds).take(fit_idx) if preds else None,
            run.synthetic.select(preds) if preds else None,
        )
        rng = np.random.default_rng(np.random.SeedSequence([plan.seed, 0, pos]))
        missing = target.missing_mask() if target.is_numeric else np.zeros(target.n_rows, bool)
        if not missing.any():
            expected = spec.fit(target, fit_preds).sample(syn_preds, rng, n_out)
        elif spec.missing_model is None:
            expected = target.values[rng.integers(0, target.n_rows, size=n_out)]
        else:
            flags = Column(f"{name}:missing", MISSING_INDICATOR, missing.astype(np.int64))
            indicator = spec.missing_model.fit(flags, fit_preds)
            keep = np.flatnonzero(~missing)
            values = spec.fit(target.take(keep), fit_preds.take(keep) if preds else None)
            drawn_missing = indicator.sample(syn_preds, rng, n_out) == 1
            expected = np.array(values.sample(syn_preds, rng, n_out), dtype=np.float64)
            expected[drawn_missing] = np.nan
        got = run.synthetic.column(name).values
        assert np.array_equal(got[~forced], expected[~forced], equal_nan=True), name


class TestMissingPredictors:
    """Numeric predictors with missing cells: the design layer (regressions)
    and ``fit_cart`` apply the rule the engine used to apply itself."""

    # pperroom moved before mar and occ1, so later fits condition on it
    VISIT = ("region", "sex", "age", "pperroom", "mar", "occ1", "occ3")
    PARAMETRIC = {
        "region": Sample(), "sex": Logit(), "age": TransformNormal("sqrt"),
        "pperroom": NormRank(), "mar": Multinomial(), "occ1": Multinomial(),
        "occ3": Nested("occ1"),
    }

    @pytest.fixture(scope="class")
    def small_census(self):
        return generate_toy_census(ToyCensusSpec(n_rows=3000, seed=17))

    def census_plan(self, methods, seed):
        return SynthesisPlan(
            self.VISIT, methods, rules=(Rule("mar", "age < 16", "Single"),), seed=seed,
        )

    def test_cart_plan_same_columns(self, small_census):
        methods = {"region": Sample(), "occ3": Nested("occ1")}
        plan = self.census_plan(methods, seed=5)
        run = synthesize(small_census, plan)
        assert np.isnan(run.synthetic.column("pperroom").values).any()
        assert_matches_reference(small_census, plan, run)

    def test_parametric_plan_same_draws(self, small_census):
        plan = self.census_plan(self.PARAMETRIC, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = synthesize(small_census, plan)
            assert_matches_reference(small_census, plan, run)

    @pytest.mark.parametrize(
        "methods",
        [
            {"t": Cart(), "y": Cart()},
            {"t": Multinomial(), "y": NormRank()},
            {"t": Logit(), "y": TransformNormal()},
        ],
        ids=["cart", "multinomial-normrank", "logit-transform_normal"],
    )
    def test_missing_only_at_sampling(self, methods):
        # rules exclude every fit row where x is missing, but the synthetic
        # x (bootstrapped independently of g) has missing cells anywhere
        rng = np.random.default_rng(91)
        n = 1200
        g = rng.choice(["a", "b"], n)
        x = rng.normal(size=n)
        x[(g == "b") & (rng.random(n) < 0.5)] = np.nan
        t = np.where(x > 0, "hi", "lo")
        data = Dataset(
            (
                categorical_column("g", list(g)),
                numeric_column("x", x),
                categorical_column("t", list(t)),
                numeric_column("y", np.where(np.isnan(x), 0.0, x) + rng.normal(size=n)),
            )
        )
        plan = SynthesisPlan(
            ("g", "x", "t", "y"),
            {"g": Sample(), "x": Sample(), **methods},
            rules=(Rule("t", "g == b", "lo"), Rule("y", "g == b", 0.0)),
            seed=12,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # t is a step function of x: separation
            run = synthesize(data, plan)
            assert_matches_reference(data, plan, run)
        syn_x = run.synthetic.column("x").values
        syn_g = run.synthetic.column("g").values
        assert np.isnan(syn_x[syn_g == data.column("g").levels.index("a")]).any()

    def test_fit_cart_takes_missing_numeric_predictor(self, small_census):
        # a propensity-style tree on two stacked census draws, pperroom included
        other = generate_toy_census(ToyCensusSpec(n_rows=3000, seed=18))
        stacked = Dataset(
            tuple(
                Column(c.name, c.kind, np.concatenate([c.values, other.column(c.name).values]))
                for c in small_census.columns
            )
        )
        label = categorical_column("synthetic", ["no"] * 3000 + ["yes"] * 3000)
        fit = fit_cart(label, stacked)
        assert fit.expanded == ("pperroom",)
        fresh = generate_toy_census(ToyCensusSpec(n_rows=500, seed=19))
        draws = fit.sample(fresh, np.random.default_rng(3), fresh.n_rows)
        assert draws.shape == (500,) and set(np.unique(draws)) <= {0, 1}
        # the same tree and draws as on reference-expanded predictors
        fit_preds, sample_preds = expand_missing_predictors(stacked, stacked)
        reference = fit_cart(label, fit_preds)
        assert reference.expanded == ()
        assert fit.nodes == reference.nodes
        for field in ("donor_rows", "leaf_offsets", "leaf_sizes"):
            assert np.array_equal(getattr(fit, field), getattr(reference, field)), field
        _, fresh_preds = expand_missing_predictors(fresh, fresh)
        expected = cart_sample(reference, fresh_preds, np.random.default_rng(3), 500)
        assert np.array_equal(draws, expected.values)


class TestStratifiedPlumbing:
    def test_validated_once(self, census, monkeypatch):
        calls = []
        real = engine.validate_plan

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "validate_plan", counting)
        plan = SynthesisPlan(
            ("region", "sex"), {"region": Sample(), "sex": Cart()}, stratifier="occ1", seed=2
        )
        synthesize(census, plan)
        assert len(calls) == 1

    def test_nested_target_grouped_by_the_stratifier(self, census):
        # the stratum's copied stratifier is what the nested draw groups by
        plan = SynthesisPlan(
            ("region", "sex", "age", "occ1", "occ3"),
            {
                "region": Sample(),
                "sex": Cart(),
                "age": Cart(),
                "occ1": Cart(),
                "occ3": Nested("occ1"),
            },
            stratifier="occ1",
            seed=3,
        )
        run = synthesize(census, plan)
        syn = run.synthetic
        assert syn.names == ("occ1", "region", "sex", "age", "occ3")
        orig_occ1 = census.column("occ1").values
        syn_occ1 = syn.column("occ1").values
        assert np.bincount(syn_occ1).tolist() == np.bincount(orig_occ1).tolist()
        group_of = dict(zip(census.column("occ3").values.tolist(), orig_occ1.tolist()))
        assert all(
            group_of[o3] == o1 for o3, o1 in zip(syn.column("occ3").values.tolist(), syn_occ1.tolist())
        )

    def test_pooled_label_never_equals_a_level(self):
        rng = np.random.default_rng(73)
        g = ["(other)"] * 300 + ["tiny1"] * 40 + ["tiny2"] * 30
        n = len(g)
        data = Dataset(
            (
                categorical_column("g", g),
                numeric_column("x", rng.normal(size=n)),
                categorical_column("t", list(rng.choice(["u", "v"], n))),
            )
        )
        plan = SynthesisPlan(
            ("x", "t"), {"x": Sample(), "t": Cart()}, stratifier="g", seed=4
        )
        run = synthesize(data, plan)
        labels = [label for label, _ in run.strata]
        assert len(set(labels)) == len(labels) == 2
        assert dict(run.strata)["(other)"] == 300
        pooled = labels[1]
        assert pooled.startswith("(other)") and pooled not in data.column("g").levels
        assert dict(run.strata)[pooled] == 70
        assert [s["level"] for s in run_report(run)["strata"]] == labels
        assert {s.stratum for s in run.summaries} == set(labels)


# every fit function a plan method reaches, by the module plan.py calls it on
_FIT_FUNCTIONS = {
    models: ("fit_sample", "fit_logit", "fit_multinomial", "fit_normrank",
             "fit_transform_normal", "fit_nested"),
    cart: ("fit_cart",),
}


class TestFitAndSamplePasses:
    """The fit pass reads only the original rows, so one set of fitted
    records serves every sample pass; the sample pass reads only the
    records, the synthetic predecessors and the fixed columns."""

    VISIT = ("region", "sex", "age", "mar", "pperroom")
    PLANS = {
        "cart": {"region": Sample()},
        "parametric": {
            "region": Sample(), "sex": Logit(), "age": TransformNormal("sqrt"),
            "mar": Multinomial(), "pperroom": NormRank(),
        },
    }

    def plan(self, methods, stratifier=None, seed=8):
        return SynthesisPlan(
            self.VISIT, methods, rules=(Rule("mar", "age < 16", "Single"),),
            stratifier=stratifier, seed=seed,
        )

    @pytest.fixture
    def fit_calls(self, monkeypatch):
        """Calls of the fit functions, by target name with any ``:missing``
        suffix dropped."""
        calls = []

        def counted(fit):
            def spy(target, *args, **kwargs):
                calls.append(target.name.split(":")[0])
                return fit(target, *args, **kwargs)
            return spy

        for module, names in _FIT_FUNCTIONS.items():
            for name in names:
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
        return calls

    @pytest.mark.parametrize("methods", sorted(PLANS))
    def test_two_sample_passes_give_the_run_bytes(self, census, methods):
        plan = self.plan(self.PLANS[methods])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = synthesize(census, plan)
            records = _fit_pass(census, plan)
        for _ in range(2):
            columns, drawn = _sample_pass(records, plan, 0, census.n_rows, ())
            assert [c.name for c in columns] == list(self.VISIT)
            for col in columns:
                expected = run.synthetic.column(col.name).values
                assert col.values.dtype == expected.dtype, col.name
                assert col.values.tobytes() == expected.tobytes(), col.name
            assert [forced for _, _, forced in drawn] == [s.rule_forced for s in run.summaries]

    @pytest.mark.parametrize("n_rows", [None, 0, 37, 20_000])
    def test_one_fit_per_variable_whatever_n_rows(self, census, fit_calls, n_rows):
        # pperroom has missing cells: its indicator and its values are two fits
        plan = self.plan({"region": Sample()})
        run = synthesize(census, plan, n_rows=n_rows)
        assert run.synthetic.n_rows == (census.n_rows if n_rows is None else n_rows)
        expected = ["region", "sex", "age", "mar", "pperroom", "pperroom"]
        assert fit_calls == expected
        assert [s.missing_indicator for s in run.summaries] == [False] * 4 + [True]

    def test_sample_passes_at_other_sizes_reuse_the_records(self, census, fit_calls):
        plan = self.plan({"region": Sample()})
        records = _fit_pass(census, plan)
        assert len(fit_calls) == 6
        full = _sample_pass(records, plan, 0, census.n_rows, ())[0]
        for n_out in (0, 37, 20_000):
            columns, _ = _sample_pass(records, plan, 0, n_out, ())
            assert [c.n_rows for c in columns] == [n_out] * len(self.VISIT)
        assert len(fit_calls) == 6
        again = _sample_pass(records, plan, 0, census.n_rows, ())[0]
        for a, b in zip(full, again):
            assert a.values.tobytes() == b.values.tobytes(), a.name

    def test_one_fit_per_variable_per_stratum(self, census, fit_calls):
        plan = self.plan({"region": Sample()}, stratifier="occ1")
        run = synthesize(census, plan)
        strata = len(run.strata)
        assert strata == len(census.column("occ1").levels)
        with_missing = sum(s.missing_indicator for s in run.summaries)
        assert with_missing >= 1
        assert len(fit_calls) == len(self.VISIT) * strata + with_missing
        for name in self.VISIT[:-1]:
            assert fit_calls.count(name) == strata, name


class TestStratumNamedInErrors:
    """A stratified run's fit or sample error names the stratum it happened
    in, with the prefix run warnings use; an unstratified one is unchanged."""

    @staticmethod
    def data():
        rng = np.random.default_rng(29)
        g = ["A"] * 300 + ["B"] * 300
        x = rng.normal(size=600)
        x[:300] = np.nan
        return Dataset(
            (
                categorical_column("g", g),
                categorical_column("t", list(rng.choice(["u", "v"], 600))),
                numeric_column("x", x),
            )
        )

    def test_fit_error_names_the_stratum(self):
        plan = SynthesisPlan(("t", "x"), {"t": Sample(), "x": Cart()}, stratifier="g", seed=2)
        with pytest.raises(MethodError) as exc:
            synthesize(self.data(), plan)
        assert str(exc.value) == "[A] x: all values missing"

    def test_unstratified_message_unchanged(self):
        data = self.data().take(np.arange(300))
        plan = SynthesisPlan(("t", "x"), {"t": Sample(), "x": Cart()}, seed=2)
        with pytest.raises(MethodError) as exc:
            synthesize(data, plan)
        assert str(exc.value) == "x: all values missing"

    def test_sample_error_names_the_stratum(self, monkeypatch):
        def failing(self, predictors, rng, n):
            raise MethodError("nested: no donors")

        monkeypatch.setattr(models.NestedFit, "sample", failing)
        plan = SynthesisPlan(
            ("t", "u"), {"t": Sample(), "u": Nested("t")}, stratifier="g", seed=2
        )
        data = self.data()
        u = [f"{t}1" for t in data.column("t").decoded()]
        data = data.with_column(categorical_column("u", u))
        with pytest.raises(MethodError) as exc:
            synthesize(data, plan)
        assert str(exc.value) == "[A] nested: no donors"


def _hostile_data():
    census = generate_toy_census(ToyCensusSpec(n_rows=300, seed=11))
    return census.with_column(numeric_column("const", np.full(300, 3.0))).with_column(
        categorical_column("one", ["z"] * 300)
    )


_NUMERIC_METHODS = {
    "sample": Sample(), "cart": Cart(), "normrank": NormRank(),
    "transform_normal": TransformNormal(),
}
_CATEGORICAL_METHODS = {
    "sample": Sample(), "cart": Cart(), "logit": Logit(), "multinomial": Multinomial(),
}
# (visit sequence, methods, outcome): None runs, else the error type
_HOSTILE = {
    **{
        f"constant-target-{m}": (("region", "const"), {"const": s}, None)
        for m, s in _NUMERIC_METHODS.items()
    },
    **{
        f"constant-predictor-{m}": (("const", "age"), {"age": s}, None)
        for m, s in _NUMERIC_METHODS.items()
    },
    **{
        f"constant-predictor-of-binary-{m}": (("const", "sex"), {"sex": s}, None)
        for m, s in _CATEGORICAL_METHODS.items()
    },
    **{
        f"single-level-predictor-{m}": (("one", "age"), {"age": s}, None)
        for m, s in _NUMERIC_METHODS.items()
    },
    **{
        f"single-level-predictor-of-binary-{m}": (("one", "sex"), {"sex": s}, None)
        for m, s in _CATEGORICAL_METHODS.items()
    },
    "single-level-target-sample": (("region", "one"), {"one": Sample()}, None),
    "single-level-target-cart": (("region", "one"), {"one": Cart()}, None),
    "single-level-target-logit": (("region", "one"), {"one": Logit()}, PlanError),
    "single-level-target-multinomial": (
        ("region", "one"), {"one": Multinomial()}, MethodError
    ),
    "single-level-target-nested": (
        ("region", "one"), {"one": Nested("region")}, None
    ),
    "single-level-group-nested": (
        ("one", "mar"), {"mar": Nested("one")}, None
    ),
}


class TestHostileInput:
    """Constant and single-level columns under every method that accepts
    them, as target and as predictor, and strata of a few rows under each
    method: each runs or ends in a typed error."""

    @pytest.fixture(scope="class")
    def hostile(self):
        return _hostile_data()

    @pytest.mark.parametrize("case", sorted(_HOSTILE))
    def test_constant_and_single_level_columns(self, hostile, case):
        seq, methods, outcome = _HOSTILE[case]
        plan = SynthesisPlan(seq, {seq[0]: Sample(), **methods}, seed=3)
        data = hostile.select(list(seq))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if outcome is None:
                run = synthesize(data, plan)
                assert run.synthetic.n_rows == data.n_rows
            else:
                assert issubclass(outcome, SynthweaveError)
                with pytest.raises(outcome):
                    synthesize(data, plan)

    @pytest.mark.parametrize(
        "methods",
        [
            {},
            {"sex": Logit(), "age": NormRank(), "pperroom": TransformNormal()},
        ],
        ids=["cart", "parametric"],
    )
    def test_zero_rows_requested(self, hostile, methods):
        cols = ("region", "sex", "age", "pperroom")
        plan = SynthesisPlan(cols, {"region": Sample(), **methods}, seed=3)
        run = synthesize(hostile.select(list(cols)), plan, n_rows=0)
        assert run.synthetic.n_rows == 0
        assert run.synthetic.names == cols

    # (target, method): each is fit within a stratum of 1, 2 and 5 rows
    _TINY_STRATUM_METHODS = {
        **{("age", m): s for m, s in _NUMERIC_METHODS.items()},
        **{("pperroom", m): _NUMERIC_METHODS[m] for m in ("normrank", "cart")},
        **{("sex", m): _CATEGORICAL_METHODS[m] for m in ("sample", "cart", "logit")},
        **{("mar", m): _CATEGORICAL_METHODS[m] for m in ("sample", "cart", "multinomial")},
        ("occ3", "nested"): Nested("occ1"),
    }

    @pytest.mark.parametrize(
        "target,method", sorted(_TINY_STRATUM_METHODS), ids="-".join
    )
    def test_tiny_strata(self, hostile, target, method):
        # census rows 7.. form the small stratum: rows 7-8 are both 'Single'
        # and of either sex, rows 7-11 hold two marital states
        before = {"occ3": "occ1", "sex": "age"}.get(target, "sex")
        methods = {
            "region": Sample(), before: Cart(), target: self._TINY_STRATUM_METHODS[target, method]
        }
        plan = SynthesisPlan(
            ("region", before, target), methods, stratifier="g", seed=3
        )
        fails = {("logit", 1), ("multinomial", 1), ("multinomial", 2)}
        for k in (1, 2, 5):
            g = ["big"] * 7 + ["tiny"] * k + ["big"] * (hostile.n_rows - 7 - k)
            data = hostile.with_column(categorical_column("g", g))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if (method, k) in fails:
                    with pytest.raises(MethodError, match="levels present"):
                        synthesize(data, plan)
                    continue
                run = synthesize(data, plan)
            assert dict(run.strata) == {"big": hostile.n_rows - k, "(other)": k}
            assert run.synthetic.n_rows == hostile.n_rows
