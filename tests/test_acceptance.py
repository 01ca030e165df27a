"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 orders the methods by U_gen: bootstrap more than ten times
parametric, parametric at least CART, and CART's ratio below 3.  The
bootstrap inequality is asserted on the two-way-interaction propensity, the
default model of synthpop's ``utility.gen`` from which the paper takes U_gen,
and not on a main-effects propensity, which cannot see the damage: the
logistic score equations of a main-effects design involve only per-variable
level proportions and numeric means, and per-variable bootstrap reproduces
every one of those with exactly null-sized multinomial noise, so by
concavity the refitted MLE stays at the null and E[U_gen] = 2*tr((S+B)^-1 B)
<= 2*df, where S is the stacked covariance and B its per-variable block
diagonal (usually below df under strong dependence; observed here at
0.3-1.4x df over five seeds, versus 1.8-5.7x for the misfit parametric
model).  That bound is checked too: bootstrap's main-effects ratio, averaged
over the five seeds, stays at or below 2.  Dependence-only damage is real
but invisible to any additive propensity design; the interaction terms and
the tabular statistics in the other criteria expose it enormously.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.stats

import synthweave as sw
from conftest import ACCEPTANCE_LINES
from synthweave.utility import CellTable

warnings.filterwarnings("ignore", message=".*did not converge.*")
warnings.filterwarnings("ignore", message=".*separation.*")
warnings.filterwarnings("ignore", message=".*withheld.*")

COLS = ("region", "sex", "age", "mar", "occ1", "pperroom")
SEEDS = (1, 2, 3, 4, 5)


def _line(num: int, ok: bool, detail: str) -> None:
    text = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(text)
    print(text)


def parametric_plan(seed, rules=()):
    return sw.SynthesisPlan(
        COLS,
        {
            "region": sw.Sample(),
            "sex": sw.Logit(),
            "age": sw.TransformNormal("sqrt"),
            "mar": sw.Multinomial(),
            "occ1": sw.Multinomial(),
            "pperroom": sw.TransformNormal("cuberoot"),
        },
        rules=tuple(rules),
        seed=seed,
    )


def cart_plan(seed, rules=()):
    methods = {c: sw.Cart() for c in COLS}
    methods["region"] = sw.Sample()
    return sw.SynthesisPlan(COLS, methods, rules=tuple(rules), seed=seed)


def bootstrap_plan(seed):
    return sw.SynthesisPlan(COLS, {c: sw.Sample() for c in COLS}, seed=seed)


@pytest.fixture(scope="module")
def census20k():
    return sw.generate_toy_census(sw.ToyCensusSpec(n_rows=20_000, seed=20250808)).select(COLS)


@pytest.fixture(scope="module")
def runs(census20k):
    """Synthetic datasets for each method and seed, shared across criteria."""
    out = {}
    for seed in SEEDS:
        out[("boot", seed)] = sw.synthesize(census20k, bootstrap_plan(seed)).synthetic
        out[("par", seed)] = sw.synthesize(census20k, parametric_plan(seed)).synthetic
        out[("cart", seed)] = sw.synthesize(census20k, cart_plan(seed)).synthetic
    return out


class TestCriterion1Equivalence:
    def test_identity_on_100_random_pairs(self):
        started = time.perf_counter()
        rng = np.random.default_rng(20250808)
        worst = 0.0
        for rep in range(100):
            n = int(rng.integers(300, 600))
            orig = sw.generate_toy_census(
                sw.ToyCensusSpec(n_rows=n, seed=int(rng.integers(1, 1 << 31)))
            )
            plan = sw.SynthesisPlan(
                tuple(orig.names),
                {c: sw.Sample() for c in orig.names},
                seed=int(rng.integers(1, 1 << 31)),
            )
            syn = sw.synthesize(orig, plan).synthetic
            k = int(rng.integers(1, 4))
            variables = list(rng.choice(orig.names, size=k, replace=False))
            rep_eq = sw.equivalence_check(orig, syn, variables)
            worst = max(worst, rep_eq.relative_gap)
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-8 and elapsed < 60
        _line(1, ok, f"equivalence worst relative gap {worst:.2e}, {elapsed:.1f}s")
        assert worst <= 1e-8
        assert elapsed < 60


class TestCriterion2NullCalibration:
    def test_utab_null_distribution(self):
        started = time.perf_counter()
        rng = np.random.default_rng(99)
        probs = np.array(
            [0.14, 0.12, 0.11, 0.10, 0.09, 0.09, 0.08, 0.08, 0.07, 0.05, 0.04, 0.03]
        )
        n = 2_000
        stats, dfs = [], []
        for _ in range(500):
            y = rng.multinomial(n, probs)
            s = rng.multinomial(n, y / n)  # plug-in: bootstrap of the original
            table = CellTable(("v",), [tuple(str(i) for i in range(12))], y, s)
            stat = sw.u_tab(table)
            stats.append(stat.statistic)
            dfs.append(stat.df)
        assert set(dfs) == {11}
        ks = scipy.stats.kstest(stats, lambda x: scipy.stats.chi2.cdf(x, 11))
        mean_ratio = float(np.mean(stats)) / 11
        elapsed = time.perf_counter() - started
        ok = ks.pvalue > 0.01 and 0.9 <= mean_ratio <= 1.1 and elapsed < 120
        _line(
            2,
            ok,
            f"null calibration KS p={ks.pvalue:.3f}, mean ratio {mean_ratio:.3f}, "
            f"{elapsed:.1f}s",
        )
        assert ks.pvalue > 0.01
        assert 0.9 <= mean_ratio <= 1.1
        assert elapsed < 120


class TestCriterion3MethodOrdering:
    @staticmethod
    def ordering(ratios):
        return (
            all(b > 10 * p for b, p in zip(ratios["boot"], ratios["par"])),
            all(p >= c for p, c in zip(ratios["par"], ratios["cart"])),
            all(c < 3 for c in ratios["cart"]),
        )

    def test_main_effects_ugen_ordering(self, census20k, runs):
        ratios = {}
        for model in ("main_effects", "interactions"):
            ratios[model] = {m: [] for m in ("boot", "par", "cart")}
            for seed in SEEDS:
                for method in ratios[model]:
                    fit = sw.fit_propensity(census20k, runs[(method, seed)], model)
                    ratios[model][method].append(sw.u_gen(fit).ratio)
        main, inter = ratios["main_effects"], ratios["interactions"]
        _, par_ge_cart, cart_lt_3 = self.ordering(main)
        boot_mean = float(np.mean(main["boot"]))
        boot_within_limit = boot_mean <= 2
        i_boot_gt_10par, i_par_ge_cart, i_cart_lt_3 = self.ordering(inter)
        ok = (
            par_ge_cart and cart_lt_3 and boot_within_limit
            and i_boot_gt_10par and i_par_ge_cart and i_cart_lt_3
        )

        def listed(r):
            return ", ".join(
                f"{m}={[round(x, 2) for x in r[m]]}" for m in ("boot", "par", "cart")
            )

        detail = (
            f"main effects: {listed(main)}; "
            f"par>=cart: {par_ge_cart}, cart<3: {cart_lt_3}, "
            f"mean boot {boot_mean:.2f}<=2: {boot_within_limit} | "
            f"interactions: {listed(inter)}; "
            f"boot>10*par: {i_boot_gt_10par}, par>=cart: {i_par_ge_cart}, "
            f"cart<3: {i_cart_lt_3}"
        )
        _line(3, ok, detail)
        assert par_ge_cart, detail
        assert cart_lt_3, detail
        # (a) the proven limit: dependence-only damage stays invisible to a
        # refitted main-effects propensity (see the module docstring)
        assert boot_within_limit, detail
        # (b) the ordering itself, on a propensity model that can see it
        assert i_boot_gt_10par, detail
        assert i_par_ge_cart, detail
        assert i_cart_lt_3, detail


class TestCriterion4RuleEnforcement:
    @staticmethod
    def violations(ds):
        age = ds.column("age").values
        mar = ds.column("mar").values
        return int(((age < 16) & (mar != 0)).sum())

    def test_rule_enforcement(self, census20k, runs):
        rule = sw.Rule("mar", "age < 16", "Single")
        no_rule_violations = self.violations(runs[("par", 1)])
        with_rule = sw.synthesize(census20k, parametric_plan(1, rules=[rule])).synthetic
        with_rule_violations = self.violations(with_rule)
        cart_zero_seeds = sum(
            1 for seed in SEEDS if self.violations(runs[("cart", seed)]) == 0
        )
        ok = (
            no_rule_violations > 0
            and with_rule_violations == 0
            and cart_zero_seeds >= 4
        )
        _line(
            4,
            ok,
            f"parametric violations without rule {no_rule_violations}, with rule "
            f"{with_rule_violations}; CART clean in {cart_zero_seeds}/5 seeds",
        )
        assert no_rule_violations > 0
        assert with_rule_violations == 0
        assert cart_zero_seeds >= 4


class TestCriterion5MaritalByAge:
    # ages are integers, so right-closed breaks at 15, 24, ... make the
    # youngest adult band exactly {16..24}; n=35k keeps the smallest band's
    # sampling noise well inside the 2pp tolerance
    BANDS = [15.0, 24.0, 34.0, 44.0, 54.0, 64.0, 74.0]

    def pct_married_by_band(self, orig, syn):
        bc = sw.compare_bivariate(
            orig, syn, "mar", "age", numeric_breaks={"age": self.BANDS}
        )
        married = bc.levels.index("Married")
        return bc.bands, bc.pct_original[:, married], bc.pct_synthetic[:, married]

    def test_parametric_overshoots_cart_stays_close(self):
        census = sw.generate_toy_census(
            sw.ToyCensusSpec(n_rows=35_000, seed=20250808)
        ).select(COLS)
        par = sw.synthesize(census, parametric_plan(2)).synthetic
        cart = sw.synthesize(census, cart_plan(2)).synthetic
        bands, orig_pct, par_pct = self.pct_married_by_band(census, par)
        young = bands.index("(15,24]")
        _, _, cart_pct = self.pct_married_by_band(census, cart)
        overshoot = par_pct[young] > 5 * orig_pct[young]
        cart_within_2pp = bool(np.max(np.abs(cart_pct - orig_pct)) < 2.0)
        ok = overshoot and cart_within_2pp
        _line(
            5,
            ok,
            f"%married 16-24: original {orig_pct[young]:.2f}, parametric "
            f"{par_pct[young]:.2f} (>5x: {overshoot}); CART max band error "
            f"{np.max(np.abs(cart_pct - orig_pct)):.2f}pp",
        )
        assert overshoot
        assert cart_within_2pp


class TestCriterion6Stratification:
    def test_stratifying_on_occupation(self, census20k):
        methods = {
            "region": sw.Sample(),
            "sex": sw.Logit(),
            "age": sw.NormRank(),
            "mar": sw.Multinomial(),
            "occ1": sw.Multinomial(),
            "pperroom": sw.NormRank(),
        }
        unstrat = sw.SynthesisPlan(
            ("region", "sex", "age", "mar", "pperroom", "occ1"), methods, seed=1
        )
        run_u = sw.synthesize(census20k, unstrat)
        strat = sw.SynthesisPlan(
            ("region", "sex", "age", "mar", "pperroom"),
            {k: v for k, v in methods.items() if k != "occ1"},
            stratifier="occ1",
            seed=1,
        )
        run_s = sw.synthesize(census20k, strat)
        others = ["region", "sex", "age", "mar", "pperroom"]
        o_u = census20k.select(run_u.synthetic.names)
        o_s = census20k.select(run_s.synthetic.names)
        unstrat_ratios = [
            sw.u_tab(sw.cross_tabulate(o_u, run_u.synthetic, ["occ1", v], n_bins=10)).ratio
            for v in others
        ]
        strat_ratios = [
            sw.u_tab(sw.cross_tabulate(o_s, run_s.synthetic, ["occ1", v], n_bins=10)).ratio
            for v in others
        ]
        strat_in_band = all(0.5 <= r <= 1.5 for r in strat_ratios)
        unstrat_bad = any(r > 3 for r in unstrat_ratios)
        ok = strat_in_band and unstrat_bad
        _line(
            6,
            ok,
            f"stratified ratios {[round(r, 2) for r in strat_ratios]} all in [0.5,1.5]: "
            f"{strat_in_band}; unstratified max {max(unstrat_ratios):.1f} > 3: {unstrat_bad}",
        )
        assert strat_in_band
        assert unstrat_bad


class TestCriterion7NestedHighCardinality:
    def test_nested_fast_and_faithful_direct_rejected(self):
        census = sw.generate_toy_census(sw.ToyCensusSpec(n_rows=100_000, seed=77))
        occ1, occ3 = census.column("occ1"), census.column("occ3")
        assert len(occ3.levels) == 200 and len(occ1.levels) == 5

        plan = sw.SynthesisPlan(
            ("occ1", "occ3"),
            {"occ1": sw.Sample(), "occ3": sw.Nested("occ1")},
            seed=9,
        )
        started = time.perf_counter()
        run = sw.synthesize(census.select(["occ1", "occ3"]), plan)
        elapsed = time.perf_counter() - started
        syn = run.synthetic

        worst = 0.0
        for g in range(5):
            orig_in = occ3.values[occ1.values == g]
            syn_in = syn.column("occ3").values[syn.column("occ1").values == g]
            po = np.bincount(orig_in, minlength=200) / max(len(orig_in), 1)
            ps = np.bincount(syn_in, minlength=200) / max(len(syn_in), 1)
            worst = max(worst, float(np.abs(po - ps).max()))

        with pytest.raises(sw.MethodError, match="nested"):
            sw.fit_multinomial(occ3, sw.Dataset((occ1,)))
        ok = elapsed < 5 and worst <= 0.02
        _line(
            7,
            ok,
            f"nested 200-level synthesis {elapsed:.2f}s at 100k rows, worst "
            f"within-group frequency error {worst:.4f}; direct multinomial rejected",
        )
        assert elapsed < 5
        assert worst <= 0.02


class TestCriterion8MissingData:
    def test_missing_rate_and_marginal_at_100k(self):
        census = sw.generate_toy_census(sw.ToyCensusSpec(n_rows=100_000, seed=31))
        cols = ["region", "sex", "age", "pperroom"]
        plan = sw.SynthesisPlan(
            tuple(cols),
            {
                "region": sw.Sample(),
                "sex": sw.Cart(),
                "age": sw.Cart(min_bucket=25),
                "pperroom": sw.Cart(min_bucket=25),
            },
            seed=8,
        )
        run = sw.synthesize(census.select(cols), plan)
        v_o = census.column("pperroom").values
        v_s = run.synthetic.column("pperroom").values
        rate = float(np.isnan(v_s).mean())
        ks = scipy.stats.ks_2samp(v_o[~np.isnan(v_o)], v_s[~np.isnan(v_s)]).statistic
        ok = abs(rate - 0.072) <= 0.01 and ks < 0.05
        _line(
            8,
            ok,
            f"synthetic missing rate {rate:.4f} (target 0.072 ± 0.01), "
            f"non-missing KS {ks:.4f} (< 0.05)",
        )
        assert abs(rate - 0.072) <= 0.01
        assert ks < 0.05


class TestCriterion9DeterminismAndSdc:
    def test_fixed_seed_byte_identical(self, census20k, tmp_path):
        plan = cart_plan(3)
        a = sw.synthesize(census20k, plan).synthetic
        b = sw.synthesize(census20k, plan).synthetic
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        sw.write_csv(sw.stamp_synthetic(a), pa)
        sw.write_csv(sw.stamp_synthetic(b), pb)
        identical = pa.read_bytes() == pb.read_bytes()

        # fixture with known replicated uniques: rows u1, u2 are unique in
        # both datasets; d1 is unique in the original but duplicated in the
        # synthetic; c1 is duplicated in the original
        orig = sw.Dataset(
            (
                sw.categorical_column("k", ["u1", "u2", "d1", "c1", "c1"]),
                sw.numeric_column("x", [1.0, 2.0, 3.0, 4.0, 4.0]),
            )
        )
        syn = sw.Dataset(
            (
                sw.categorical_column("k", ["u1", "u2", "d1", "d1", "c1"], orig.column("k").levels),
                sw.numeric_column("x", [1.0, 2.0, 3.0, 3.0, 4.0]),
            )
        )
        filtered, removed = sw.remove_replicated_uniques(orig, syn, ["k", "x"])
        ok = identical and removed == 2 and filtered.n_rows == 3
        _line(
            9,
            ok,
            f"byte-identical outputs: {identical}; replicated-unique removals "
            f"{removed} of expected 2",
        )
        assert identical
        assert removed == 2


class TestCriterion10ClosedForms:
    def test_closed_form_fits(self):
        logit_fit = sw.fit_logit(
            sw.categorical_column("t", ["b"] * 60 + ["a"] * 40, ["a", "b"]), None
        )
        logit_err = abs(logit_fit.coefficients[0] - math.log(0.6 / 0.4))

        mn_fit = sw.fit_multinomial(
            sw.categorical_column("t", ["a"] * 50 + ["b"] * 30 + ["c"] * 20), None
        )
        mn_err = float(
            np.max(np.abs(mn_fit.probabilities(None, 1)[0] - np.array([0.5, 0.3, 0.2])))
        )
        chi_err = abs(sw.chisq_upper_tail(3.841, 1) - 0.0500)
        ok = logit_err <= 1e-6 and mn_err <= 1e-4 and chi_err <= 2e-4
        _line(
            10,
            ok,
            f"logit intercept error {logit_err:.2e} (<=1e-6), multinomial "
            f"proportion error {mn_err:.2e} (<=1e-4), chisq(3.841,1) error "
            f"{chi_err:.2e} (<=2e-4)",
        )
        assert logit_err <= 1e-6
        assert mn_err <= 1e-4
        assert chi_err <= 2e-4
