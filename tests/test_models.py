import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings, strategies as st

import synthweave
from synthweave import models
from synthweave import (
    Dataset,
    MethodError,
    PlanError,
    categorical_column,
    fit_cart,
    fit_logit,
    fit_multinomial,
    fit_nested,
    fit_normrank,
    fit_propensity,
    fit_sample,
    fit_transform_normal,
    numeric_column,
)
from synthweave.cart import cart_sample
from synthweave.plan import METHODS


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance (oracle helper)."""
    return float(scipy.stats.ks_2samp(a, b).statistic)


class TestFitSample:
    def test_law_of_large_numbers(self):
        col = categorical_column("v", ["A", "A", "B"])
        fit = fit_sample(col)
        draws = fit.sample(None, np.random.default_rng(0), 100_000)
        assert set(np.unique(draws)) <= {0, 1}
        assert abs((draws == 0).mean() - 2 / 3) < 0.01

    def test_single_distinct_value(self):
        fit = fit_sample(numeric_column("v", [4.2, 4.2]))
        draws = fit.sample(None, np.random.default_rng(1), 50)
        assert np.all(draws == 4.2)

    def test_zero_draws(self):
        fit = fit_sample(numeric_column("v", [1.0]))
        assert fit.sample(None, np.random.default_rng(2), 0).shape == (0,)

    def test_missing_excluded_from_pool(self):
        fit = fit_sample(numeric_column("v", [1.0, np.nan, 2.0]))
        draws = fit.sample(None, np.random.default_rng(3), 1000)
        assert not np.isnan(draws).any()

    def test_empty_column_rejected(self):
        with pytest.raises(MethodError):
            fit_sample(numeric_column("v", [np.nan]))


class TestNormRank:
    def test_constant_predictors_reproduce_marginal(self):
        rng = np.random.default_rng(10)
        y = rng.gamma(2.0, 3.0, 2000)
        fit = fit_normrank(numeric_column("y", y), None)
        draws = fit.sample(None, np.random.default_rng(11), 10_000)
        assert ks_distance(y, draws) < 0.03

    def test_slope_recovery(self):
        # y standard normal given x with known slope; the normal-scores fit
        # of a normal target recovers the generating slope
        rng = np.random.default_rng(12)
        n = 10_000
        x = rng.normal(size=n)
        slope = 0.6
        y = slope * x + rng.normal(size=n) * math.sqrt(1 - slope**2)
        fit = fit_normrank(
            numeric_column("y", y), Dataset((numeric_column("x", x),))
        )
        labels = fit.labels
        beta = fit.coefficients[labels.index("x")]
        assert abs(beta - slope) < 0.05

    def test_range_preserving(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=500)
        x = rng.normal(size=500)
        fit = fit_normrank(numeric_column("y", y), Dataset((numeric_column("x", x),)))
        new = Dataset((numeric_column("x", rng.normal(size=5000) * 3),))
        draws = fit.sample(new, np.random.default_rng(14), 5000)
        assert draws.min() >= y.min() and draws.max() <= y.max()

    def test_scaled_draw_is_the_quantile_function_at_phi_of_the_scaled_normal_draw(self):
        # a draw is sorted(y) interpolated on the grid i / (m - 1) at
        # Phi(X beta + z sd 0.5), z the seed's standard normals
        rng = np.random.default_rng(16)
        x = rng.normal(size=300)
        y = np.round(np.exp(0.5 * x + rng.normal(size=300)), 2)
        fit = fit_normrank(
            numeric_column("y", y), Dataset((numeric_column("x", x),)), residual_scale=0.5
        )
        assert fit.residual_scale == 0.5
        assert np.array_equal(fit.sorted_values, np.sort(y))
        new = Dataset((numeric_column("x", rng.normal(size=2000) * 2),))
        draws = fit.sample(new, np.random.default_rng(17), 2000)
        X = fit.design.matrix(new).toarray()[:, fit.kept]
        z = np.random.default_rng(17).standard_normal(2000)
        p = scipy.special.ndtr(X @ fit.coefficients + z * fit.residual_sd * 0.5)
        expected = np.interp(p, np.arange(300) / 299, np.sort(y))
        np.testing.assert_allclose(draws, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("y", [[4.0], [3.0, 1.0], [2.0, 7.0, 2.5]], ids=["m=1", "m=2", "m=3"])
    def test_draw_interpolates_the_sorted_values_on_the_grid_of_their_ranks(self, y):
        # of m observed values the i-th smallest sits at Phi = i / (m - 1);
        # a single observed value is every draw
        fit = fit_normrank(numeric_column("y", y), None)
        draws = fit.sample(None, np.random.default_rng(18), 500)
        z = np.random.default_rng(18).standard_normal(500)
        p = scipy.special.ndtr(fit.coefficients[0] + z * fit.residual_sd)
        grid = np.arange(len(y)) / (len(y) - 1) if len(y) > 1 else np.zeros(1)
        np.testing.assert_allclose(draws, np.interp(p, grid, np.sort(y)), rtol=1e-12)

    def test_average_ranks_for_ties(self):
        # hand oracle for y=[1,1,2,3]: average ranks (1.5,1.5,3,4), Blom
        # scores z_i = ndtri((r-0.375)/4.25); intercept-only fit has
        # mean(z) and sd(z, dof=3); a draw maps to exactly 1.0 iff its
        # Phi(z*) lands in the tied plateau [0, 1/3]
        from scipy.special import ndtr, ndtri

        y = np.array([1.0, 1.0, 2.0, 3.0])
        z = ndtri((np.array([1.5, 1.5, 3.0, 4.0]) - 0.375) / 4.25)
        mu, sd = z.mean(), np.sqrt(((z - z.mean()) ** 2).sum() / 3)
        expected_p1 = ndtr((ndtri(1 / 3) - mu) / sd)
        fit = fit_normrank(numeric_column("y", y), None)
        draws = fit.sample(None, np.random.default_rng(15), 20_000)
        assert abs((draws == 1.0).mean() - expected_p1) < 0.02


@st.composite
def _normrank_cases(draw):
    """A NormRank target of 1-200 rows: small integers (many ties), one
    constant, heavy-tailed Cauchy draws or arbitrary floats; with or without
    a numeric predictor."""
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["ties", "constant", "cauchy", "floats"]))
    if shape == "ties":
        y = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    elif shape == "constant":
        y = [draw(st.floats(-1e9, 1e9))] * n
    elif shape == "cauchy":
        y = rng.standard_cauchy(n) * 10.0 ** draw(st.integers(-3, 12))
    else:
        y = draw(st.lists(st.floats(-1e15, 1e15), min_size=n, max_size=n))
    x = rng.normal(size=n) if draw(st.booleans()) else None
    return np.asarray(y, dtype=np.float64), x, rng


class TestNormRankRange:
    @settings(max_examples=60, deadline=None)
    @given(_normrank_cases())
    def test_draws_stay_in_observed_range(self, case):
        y, x, rng = case
        predictors = None if x is None else Dataset((numeric_column("x", x),))
        fit = fit_normrank(numeric_column("y", y), predictors)
        m = 300
        # new predictor values well outside the fitted ones push z to the tails
        new = None if x is None else Dataset((numeric_column("x", rng.normal(size=m) * 10),))
        draws = fit.sample(new, rng, m)
        assert draws.shape == (m,)
        assert np.all((draws >= y.min()) & (draws <= y.max()))


@st.composite
def _rank_arrays(draw):
    """1-120 values: small integers (heavy ties), one constant, a mix of
    -0.0 and 0.0, or arbitrary floats with infinities."""
    n = draw(st.integers(1, 120))
    shape = draw(st.sampled_from(["ties", "constant", "signed-zeros", "floats"]))
    if shape == "ties":
        y = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    elif shape == "constant":
        y = [draw(st.floats(allow_nan=False))] * n
    elif shape == "signed-zeros":
        y = draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0]), min_size=n, max_size=n))
    else:
        y = draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n))
    return np.asarray(y, dtype=np.float64)


class TestAverageRanks:
    @settings(max_examples=80, deadline=None)
    @given(_rank_arrays())
    @example(np.array([2.5]))
    @example(np.full(7, 3.0))
    @example(np.array([0.0, -0.0, 1.0, -0.0, 0.0]))
    def test_equals_scipy_rankdata(self, y):
        ours = models._average_ranks(y)
        reference = scipy.stats.rankdata(y, method="average")
        assert ours.dtype == reference.dtype
        assert np.array_equal(ours, reference)

    def test_fit_normrank_matches_rankdata_reference(self, monkeypatch):
        # an integer-valued target with heavy ties, fitted with the helper and
        # again with scipy's ranks in its place: the same fit, the same draws
        rng = np.random.default_rng(31)
        y = numeric_column("y", rng.integers(0, 6, 400).astype(float))
        predictors = Dataset((numeric_column("x", rng.normal(size=400)),))
        fit = fit_normrank(y, predictors)
        monkeypatch.setattr(
            models, "_average_ranks", lambda v: scipy.stats.rankdata(v, method="average")
        )
        reference = fit_normrank(y, predictors)
        assert np.array_equal(fit.coefficients, reference.coefficients)
        assert fit.residual_sd == reference.residual_sd
        assert np.array_equal(fit.sorted_values, reference.sorted_values)
        draws = fit.sample(predictors, np.random.default_rng(32), 400)
        assert np.array_equal(draws, reference.sample(predictors, np.random.default_rng(32), 400))


# Phi(x) from mpmath.ncdf at 60 digits, rounded to float64.  Below about
# x = -5, SciPy's ndtr takes exp(-x^2/2) at a rounded x^2 and is off by up to
# about 1.5 x^2 ulp (1508 ulp at x = -35.8), and it returns 0 below -37.5.
NDTR_REFERENCE = [
    (-38.0, 2.88542835e-316),
    (-37.77, 1.76640355165e-312),
    (-37.5, 4.605353009581955e-308),
    (-29.3, 5.185649315724583e-189),
    (-19.87, 3.7001435461465256e-88),
    (-9.61, 3.6274493134073126e-22),
    (-4.9, 4.79183276590319e-07),
    (-2.37, 0.008894042630336775),
    (-1.13, 0.12923811224001786),
    (-0.3, 0.3820885778110474),
    (0.77, 0.7793500536573504),
    (1.9, 0.9712834401839981),
    (6.3, 0.9999999998511772),
]


class TestNormalDistributionFunctions:
    """``models.ndtr`` and ``models.ndtri`` against SciPy's, the reference."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(1e-300, 1.0, exclude_max=True), min_size=1, max_size=40),
        st.lists(st.floats(-300.0, 0.0, exclude_max=True), min_size=1, max_size=40),
    )
    def test_ndtri_within_eight_ulp_of_scipy(self, uniform, exponents):
        tail = 10.0 ** np.array(exponents)
        p = np.concatenate([uniform, tail, 1.0 - tail])
        p = p[(p > 0.0) & (p < 1.0)]
        reference = scipy.special.ndtri(p)
        assert np.all(np.abs(models.ndtri(p) - reference) <= 8 * np.spacing(np.abs(reference)))

    def test_ndtri_ends_of_the_domain(self):
        p = np.array([0.0, 1.0, -0.5, 1.5, np.nan, 0.5])
        np.testing.assert_array_equal(models.ndtri(p), [-np.inf, np.inf, np.nan, np.nan, np.nan, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-37.0, 38.0), min_size=1, max_size=40))
    def test_ndtr_within_scipys_own_error_of_scipy(self, xs):
        x = np.array(xs)
        reference = scipy.special.ndtr(x)
        # SciPy's own error (see NDTR_REFERENCE) plus a few ulp
        allowed = (10 + 2 * x * x) * np.spacing(reference)
        assert np.all(np.abs(models.ndtr(x) - reference) <= allowed)

    @pytest.mark.parametrize("x, phi", NDTR_REFERENCE)
    def test_ndtr_within_four_ulp_of_a_60_digit_reference(self, x, phi):
        assert abs(models.ndtr(np.array([x]))[0] - phi) <= 4 * np.spacing(phi)

    def test_ndtr_at_the_extremes(self):
        x = np.array([-np.inf, -40.0, 0.0, 40.0, np.inf, np.nan])
        np.testing.assert_array_equal(models.ndtr(x), [0.0, 0.0, 0.5, 1.0, 1.0, np.nan])


def test_normrank_synthesis_leaves_scipy_stats_unloaded():
    # importing scipy.stats is about half of the CLI start-up; other tests
    # load it into this process, so the check runs in a fresh interpreter
    code = textwrap.dedent(
        """
        import sys
        from synthweave import ToyCensusSpec, generate_toy_census, plan_from_json, synthesize
        census = generate_toy_census(ToyCensusSpec(n_rows=300, seed=4))
        plan = plan_from_json({
            "visit_sequence": ["region", "sex", "age", "pperroom"],
            "methods": {"region": "sample", "pperroom": "normrank"},
            "seed": 9,
        })
        assert synthesize(census, plan).synthetic.n_rows == 300
        assert "scipy.stats" not in sys.modules
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(synthweave.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr


class TestTransformNormal:
    def test_identity_intercept_only_mean(self):
        rng = np.random.default_rng(20)
        y = rng.normal(3.0, 1.0, 10_000)
        fit = fit_transform_normal(numeric_column("y", y), None, "identity")
        draws = fit.sample(None, np.random.default_rng(21), 10_000)
        assert abs(draws.mean() - 3.0) < 0.05

    def test_sqrt_overshoots_skewed_age(self):
        # right-skewed age-like mixture: the sqrt-Normal model invents values
        # beyond the observed maximum in at least one of 20 seeded runs
        rng = np.random.default_rng(22)
        n = 3000
        age = np.concatenate(
            [rng.uniform(0, 16, int(n * 0.4)), rng.uniform(16, 95, n - int(n * 0.4))]
        )
        fit = fit_transform_normal(numeric_column("age", age), None, "sqrt")
        overshoots = 0
        for seed in range(20):
            draws = fit.sample(None, np.random.default_rng(seed), n)
            if draws.max() > age.max():
                overshoots += 1
        assert overshoots >= 1

    def test_cuberoot_preserves_sign(self):
        # explicit round trip: -8 -> -2 on the transform scale -> -8 back
        from synthweave.models import _forward_transform, _inverse_transform

        t = _forward_transform(np.array([-8.0]), "cuberoot", "y")
        assert t[0] == -2.0
        assert _inverse_transform(t, "cuberoot")[0] == -8.0
        y = np.array([-8.0, -8.0, -8.0, 8.0])
        fit = fit_transform_normal(numeric_column("y", y), None, "cuberoot")
        draws = fit.sample(None, np.random.default_rng(23), 100)
        assert (draws < 0).any()

    def test_negative_under_sqrt_names_row(self):
        y = numeric_column("y", [4.0, -1.0, 9.0])
        with pytest.raises(MethodError, match="row 1"):
            fit_transform_normal(y, None, "sqrt")


class TestLogit:
    def test_intercept_only_closed_form(self):
        col = categorical_column("t", ["b"] * 60 + ["a"] * 40, levels=["a", "b"])
        fit = fit_logit(col, None)
        assert abs(fit.coefficients[0] - math.log(0.6 / 0.4)) < 1e-6

    def test_independent_predictor_small_slope(self):
        rng = np.random.default_rng(30)
        n = 10_000
        x = rng.normal(size=n)
        t = categorical_column(
            "t", list(np.where(rng.random(n) < 0.5, "a", "b")), levels=["a", "b"]
        )
        fit = fit_logit(t, Dataset((numeric_column("x", x),)))
        slope = fit.coefficients[list(fit.labels).index("x")]
        assert abs(slope) < 0.1

    def test_large_sample_converges_without_stalling(self):
        # at 100k rows one unit in the last place of the log-likelihood is
        # about 7e-12, more than a whole step gains near the optimum; a step
        # rule that reads that rounding as a decrease halves good steps and
        # stalls some of these fits for several iterations
        rng = np.random.default_rng(2)
        n = 100_000
        iterations = []
        for _ in range(12):
            x = rng.integers(0, 2, n)
            y = (rng.random(n) < 0.2 + 0.3 * x).astype(int)
            pred = categorical_column("x", np.array(["a", "b"])[x].tolist(), levels=["a", "b"])
            t = categorical_column("t", np.array(["n", "y"])[y].tolist(), levels=["n", "y"])
            fit = fit_logit(t, Dataset((pred,)))
            assert fit.converged
            iterations.append(fit.iterations)
        assert max(iterations) <= 7, iterations

    def test_separation_warns_and_caps(self):
        pred = categorical_column("p", ["a"] * 50 + ["b"] * 50)
        t = categorical_column("t", ["x"] * 50 + ["y"] * 50)
        with pytest.warns(UserWarning, match="separation"):
            fit = fit_logit(t, Dataset((pred,)), max_iter=25)
        assert np.max(np.abs(fit.coefficients)) <= 30.0

    @pytest.mark.parametrize("fit, name", [(fit_logit, "logit"), (fit_multinomial, "multinomial")])
    def test_not_converged_note(self, fit, name):
        rng = np.random.default_rng(8)
        x = rng.normal(size=400)
        t = categorical_column(
            "t", list(np.where(rng.random(400) < models._expit(2 * x), "b", "a")), levels=["a", "b"]
        )
        note = f"{name}: did not converge in 1 iterations; coefficients capped at 30"
        with pytest.warns(UserWarning) as caught:
            result = fit(t, Dataset((numeric_column("x", x),)), max_iter=1)
        assert [str(w.message) for w in caught] == [note]
        assert result.notes == (note,)

    def test_single_level_rejected(self):
        col = categorical_column("t", ["a"] * 10, levels=["a", "b"])
        with pytest.raises(MethodError, match="both levels"):
            fit_logit(col, None)

    def test_sampling_follows_probabilities(self):
        col = categorical_column("t", ["b"] * 70 + ["a"] * 30, levels=["a", "b"])
        fit = fit_logit(col, None)
        draws = fit.sample(None, np.random.default_rng(31), 100_000)
        assert abs(draws.mean() - 0.7) < 0.01


class TestMultinomial:
    def test_intercept_only_recovers_proportions(self):
        vals = ["a"] * 500 + ["b"] * 300 + ["c"] * 200
        col = categorical_column("t", vals)
        fit = fit_multinomial(col, None)
        probs = fit.probabilities(None, 1)[0]
        assert np.allclose(probs, [0.5, 0.3, 0.2], atol=1e-4)

    def test_binary_target_matches_logit(self):
        rng = np.random.default_rng(40)
        n = 2000
        x = rng.normal(size=n)
        p = 1 / (1 + np.exp(-(0.3 + 0.8 * x)))
        t = categorical_column(
            "t", ["b" if u < q else "a" for u, q in zip(rng.random(n), p)],
            levels=["a", "b"],
        )
        preds = Dataset((numeric_column("x", x),))
        lg = fit_logit(t, preds, tol=1e-10)
        mn = fit_multinomial(t, preds, tol=1e-10)
        # one solver: the binary logit is the multinomial with K = 1
        np.testing.assert_array_equal(lg.coefficients, mn.coefficients[0])
        assert (lg.iterations, lg.converged) == (mn.iterations, mn.converged)

    def test_absent_levels_never_drawn(self):
        col = categorical_column("t", ["a", "b"] * 50, levels=["a", "b", "ghost"])
        fit = fit_multinomial(col, None)
        draws = fit.sample(None, np.random.default_rng(41), 5000)
        assert set(np.unique(draws)) == {0, 1}

    def test_too_many_levels_rejected(self):
        levels = [f"L{i}" for i in range(80)]
        rng = np.random.default_rng(42)
        col = categorical_column(
            "t", [levels[i] for i in rng.integers(0, 80, 2000)], levels
        )
        with pytest.raises(MethodError, match="nested"):
            fit_multinomial(col, None)

    def test_sampling_matches_fitted_probabilities(self):
        vals = ["a"] * 500 + ["b"] * 300 + ["c"] * 200
        fit = fit_multinomial(categorical_column("t", vals), None)
        draws = fit.sample(None, np.random.default_rng(43), 100_000)
        freqs = np.bincount(draws, minlength=3) / 100_000
        assert np.allclose(freqs, [0.5, 0.3, 0.2], atol=0.01)


def _inverse_cdf_reference(P, u):
    """Row by row: the first category whose cumulative probability exceeds
    the uniform, the last category taking whatever rounding leaves over."""
    out = []
    for p, ui in zip(P, u):
        total, k = 0.0, len(p) - 1
        for j, pj in enumerate(p[:-1]):
            total += pj
            if ui < total:
                k = j
                break
        out.append(k)
    return np.array(out)


class TestCategoricalDraw:
    def test_matches_per_row_inverse_cdf(self):
        rng = np.random.default_rng(44)
        P = rng.dirichlet(np.ones(5), size=3000)
        P[:5] = np.eye(5)          # all mass on one category
        P[5] = [0.5, 0.0, 0.0, 0.5, 0.0]
        P[6] = [0.1, 0.2, 0.3, 0.4, 0.0]
        drawn = models._draw_categorical(np.random.default_rng(45), P)
        u = np.random.default_rng(45).random(len(P))
        np.testing.assert_array_equal(drawn, _inverse_cdf_reference(P, u))
        assert drawn.dtype == np.int64
        assert list(drawn[:5]) == [0, 1, 2, 3, 4]

    def test_multinomial_sample_draws_its_probabilities_in_present_codes(self):
        col = categorical_column("t", ["a", "c"] * 40 + ["c"], levels=["a", "b", "c"])
        fit = fit_multinomial(col, None)
        draws = fit.sample(None, np.random.default_rng(46), 500)
        P = fit.probabilities(None, 500)
        u = np.random.default_rng(46).random(500)
        np.testing.assert_array_equal(draws, fit.present_codes[_inverse_cdf_reference(P, u)])


@pytest.mark.parametrize("fit, method", [(fit_normrank, "normrank"), (fit_transform_normal, "transform_normal")])
def test_numeric_target_must_be_complete_and_non_empty(fit, method):
    with pytest.raises(MethodError, match=f"^{method}: target 'y' has missing values$"):
        fit(numeric_column("y", [1.0, np.nan, 3.0]), None)
    with pytest.raises(MethodError, match=f"^{method}: target 'y' is empty$"):
        fit(numeric_column("y", np.array([])), None)


def _option_case(method):
    """(target, predictors) that ``method`` fits without complaint."""
    rng = np.random.default_rng(3)
    x = numeric_column("x", rng.normal(size=60))
    if method in ("logit", "multinomial"):
        levels = ["a", "b"] if method == "logit" else ["a", "b", "c"]
        return categorical_column("y", list(rng.choice(levels, 60))), Dataset((x,))
    return numeric_column("y", rng.gamma(2.0, size=60)), Dataset((x,))


FIT_FUNCTIONS = {
    "cart": fit_cart, "normrank": fit_normrank, "transform_normal": fit_transform_normal,
    "logit": fit_logit, "multinomial": fit_multinomial,
}


@pytest.mark.parametrize(
    "method, options, message",
    [
        ("cart", {"min_bucket": 0}, "cart: min_bucket must be >= 1"),
        ("cart", {"min_bucket": -3}, "cart: min_bucket must be >= 1"),
        ("cart", {"complexity": -1.0}, "cart: complexity must be >= 0"),
        ("normrank", {"residual_scale": -2.0}, "normrank: residual_scale must be >= 0"),
        ("transform_normal", {"transform": "log"}, "unknown transform 'log'"),
        ("logit", {"max_iter": 0}, "logit: max_iter must be >= 1"),
        ("logit", {"tol": -1.0}, "logit: tol must be > 0"),
        ("multinomial", {"max_iter": 0}, "multinomial: max_iter must be >= 1"),
        ("multinomial", {"tol": 0.0}, "multinomial: tol must be > 0"),
        # the count options take whole numbers only, the others finite numbers
        ("cart", {"min_bucket": math.nan}, "cart: min_bucket must be a whole number, got nan"),
        ("cart", {"min_bucket": 2.5}, "cart: min_bucket must be a whole number, got 2.5"),
        ("cart", {"min_bucket": math.inf}, "cart: min_bucket must be a whole number, got inf"),
        ("cart", {"min_bucket": True}, "cart: min_bucket must be a whole number, got True"),
        ("cart", {"min_bucket": "5"}, "cart: min_bucket must be a whole number, got '5'"),
        ("cart", {"complexity": math.nan}, "cart: complexity must be a finite number, got nan"),
        ("cart", {"complexity": "0.1"}, "cart: complexity must be a finite number, got '0.1'"),
        ("normrank", {"residual_scale": math.nan},
         "normrank: residual_scale must be a finite number, got nan"),
        ("logit", {"max_iter": math.inf}, "logit: max_iter must be a whole number, got inf"),
        ("logit", {"max_iter": 2.5}, "logit: max_iter must be a whole number, got 2.5"),
        ("logit", {"max_iter": math.nan}, "logit: max_iter must be a whole number, got nan"),
        ("logit", {"max_iter": True}, "logit: max_iter must be a whole number, got True"),
        ("logit", {"tol": math.nan}, "logit: tol must be a finite number, got nan"),
        ("logit", {"tol": True}, "logit: tol must be a finite number, got True"),
        ("multinomial", {"max_iter": 2.5}, "multinomial: max_iter must be a whole number, got 2.5"),
        ("multinomial", {"tol": math.nan}, "multinomial: tol must be a finite number, got nan"),
        ("cart", {"complexity": math.inf}, "cart: complexity must be a finite number, got inf"),
        ("normrank", {"residual_scale": math.inf},
         "normrank: residual_scale must be a finite number, got inf"),
        ("logit", {"tol": math.inf}, "logit: tol must be a finite number, got inf"),
    ],
)
def test_fit_functions_reject_the_options_their_plan_methods_reject(method, options, message):
    target, predictors = _option_case(method)
    with pytest.raises(MethodError) as got:
        FIT_FUNCTIONS[method](target, predictors, **options)
    assert str(got.value) == message
    with pytest.raises(PlanError) as planned:
        METHODS[method](**options)
    assert str(planned.value) == message


@pytest.mark.parametrize(
    "method, options",
    [("cart", {"min_bucket": np.int64(7), "complexity": np.float32(0.01)}),
     ("logit", {"max_iter": np.int32(50), "tol": np.float64(1e-8)})],
)
def test_numpy_scalars_are_numbers(method, options):
    target, predictors = _option_case(method)
    FIT_FUNCTIONS[method](target, predictors, **options)
    METHODS[method](**options)


@pytest.mark.parametrize(
    "options, message",
    [({"max_iter": 0}, "logit: max_iter must be >= 1"), ({"tol": -1.0}, "logit: tol must be > 0")],
)
def test_propensity_solver_options_checked(options, message):
    data = Dataset((categorical_column("g", ["a", "b"] * 25),))
    other = Dataset((categorical_column("g", ["a", "b", "b"] * 20),))
    with pytest.raises(MethodError) as got:
        fit_propensity(data, other, **options)
    assert str(got.value) == message


class TestNested:
    def test_group_with_single_donor_value(self):
        group = categorical_column("g", ["G1"] * 3 + ["G2"])
        target = categorical_column("t", ["a", "a", "b", "c"])
        fit = fit_nested(target, group)
        preds = Dataset((categorical_column("g", ["G2"] * 20, group.levels),))
        draws = fit.sample(preds, np.random.default_rng(50), 20)
        assert np.all(draws == 2)  # always 'c'

    def test_within_group_frequencies(self):
        rng = np.random.default_rng(51)
        g = rng.choice(["G1", "G2"], 4000)
        t = np.where(
            g == "G1",
            np.where(rng.random(4000) < 0.7, "a", "b"),
            np.where(rng.random(4000) < 0.4, "c", "d"),
        )
        group = categorical_column("g", list(g))
        target = categorical_column("t", list(t))
        fit = fit_nested(target, group)
        new_g = categorical_column("g", ["G1"] * 50_000 + ["G2"] * 50_000, group.levels)
        draws = fit.sample(Dataset((new_g,)), np.random.default_rng(52), 100_000)
        p_a_g1 = (draws[:50_000] == target.levels.index("a")).mean()
        true_a_g1 = (t[g == "G1"] == "a").mean()
        assert abs(p_a_g1 - true_a_g1) < 0.02

    def test_non_nested_pair_warns_but_samples(self):
        group = categorical_column("g", ["G1", "G1", "G2", "G2"])
        target = categorical_column("t", ["a", "b", "a", "c"])
        with pytest.warns(UserWarning, match="multiple groups"):
            fit = fit_nested(target, group)
        draws = fit.sample(
            Dataset((categorical_column("g", ["G2"] * 100, group.levels),)),
            np.random.default_rng(53),
            100,
        )
        # still group-conditional: only G2's donors {a, c}
        assert set(np.unique(draws)) <= {0, 2}

    def test_non_nested_warning_names_each_level_and_its_group_count(self):
        # "m" spans 3 groups, "k" and "z" span 2, "b" is nested in G2; the
        # level table is out of name order, so the text's order is by name
        levels = ("z", "m", "b", "k")
        pairs = [
            ("G1", "m"), ("G2", "m"), ("G3", "m"), ("G1", "m"),
            ("G1", "z"), ("G3", "z"), ("G3", "z"),
            ("G2", "k"), ("G3", "k"),
            ("G2", "b"), ("G2", "b"),
        ]
        group = categorical_column("g", [g for g, _ in pairs], ["G1", "G2", "G3"])
        target = categorical_column("t", [t for _, t in pairs], levels)
        with pytest.warns(UserWarning) as caught:
            fit = fit_nested(target, group)
        expected = (
            "nesting does not hold: level(s) observed in multiple groups: "
            "k (2 groups), m (3 groups), z (2 groups)"
        )
        assert [str(w.message) for w in caught] == [expected]
        assert fit.notes == (expected,)

    def test_empty_donor_group_rejected(self):
        group = categorical_column("g", ["G1", "G1"], levels=["G1", "G2"])
        target = categorical_column("t", ["a", "b"])
        fit = fit_nested(target, group)
        with pytest.raises(MethodError, match="G2"):
            fit.sample(
                Dataset((categorical_column("g", ["G2"], group.levels),)),
                np.random.default_rng(54),
                1,
            )


@pytest.mark.parametrize(
    "fit, target, message",
    [
        (fit_logit, categorical_column("y", list("abcab")),
         "logit: target 'y' must be binary categorical"),
        (fit_logit, numeric_column("y", [0.0, 1.0, 0.0, 1.0, 1.0]),
         "logit: target 'y' must be binary categorical"),
        (fit_multinomial, numeric_column("y", [0.0, 1.0, 2.0, 1.0, 1.0]),
         "multinomial: target 'y' must be categorical"),
        (lambda target, _: fit_nested(target, categorical_column("g", list("GGHHH"))),
         numeric_column("y", [0.0, 1.0, 2.0, 1.0, 1.0]),
         "nested: target and group must both be categorical"),
    ],
    ids=["logit-three-levels", "logit-numeric", "multinomial-numeric", "nested-numeric"],
)
def test_fit_functions_reject_a_target_kind_they_cannot_fit(fit, target, message):
    with pytest.raises(MethodError) as got:
        fit(target, None)
    assert str(got.value) == message


def test_nested_rejects_a_numeric_group():
    with pytest.raises(MethodError) as got:
        fit_nested(categorical_column("y", list("abcab")), numeric_column("g", [1.0] * 5))
    assert str(got.value) == "nested: target and group must both be categorical"


@pytest.mark.parametrize(
    "method, message",
    [("logit", "this fit needs predictor columns for sampling"),
     ("cart", "cart: this tree needs predictor columns for sampling")],
)
def test_fit_on_predictors_cannot_sample_without_them(method, message):
    target, predictors = _option_case(method)
    fit = FIT_FUNCTIONS[method](target, predictors)
    with pytest.raises(MethodError) as got:
        fit.sample(None, np.random.default_rng(4), 10)
    assert str(got.value) == message


def test_cart_sample_needs_predictors_or_a_row_count():
    target, predictors = _option_case("cart")
    tree = fit_cart(target, predictors)
    with pytest.raises(MethodError) as got:
        cart_sample(tree, None, np.random.default_rng(4))
    assert str(got.value) == "cart: routing needs predictors or an explicit row count"
    stump = fit_cart(target, None)
    assert cart_sample(stump, None, np.random.default_rng(4), 10).n_rows == 10


SAMPLERS = ("sample", "cart", "normrank", "transform_normal", "logit", "multinomial", "nested")


def _five_row_draw_case(method):
    """A fit of ``method`` and 5 rows of predictors it can draw from."""
    if method == "nested":
        group = categorical_column("g", list("GGHH"))
        fit = fit_nested(categorical_column("y", list("abcd")), group)
        return fit, Dataset((categorical_column("g", list("GHHGH"), group.levels),))
    target, predictors = _option_case(method)
    fit = fit_sample(target) if method == "sample" else FIT_FUNCTIONS[method](target, predictors)
    return fit, predictors.take(np.arange(5))


@pytest.mark.parametrize("method", SAMPLERS)
def test_every_sampler_draws_n_values_for_n_predictor_rows(method):
    """A draw returns ``n`` values, and predictors with columns must have
    ``n`` rows: every sampler states the mismatch in one typed error."""
    fit, five = _five_row_draw_case(method)
    with pytest.raises(MethodError) as got:
        fit.sample(five, np.random.default_rng(6), 10)
    assert str(got.value) == f"{method}: a draw of 10 values got 5 predictor rows"
    assert fit.sample(five, np.random.default_rng(6), 5).shape == (5,)


def _fail_first(monkeypatch, name, calls=1):
    """Patch ``np.linalg.<name>`` to raise ``LinAlgError`` on its first ``calls`` calls."""
    real, seen = getattr(np.linalg, name), []

    def failing(*args, **kwargs):
        seen.append(1)
        if len(seen) <= calls:
            raise np.linalg.LinAlgError("patched")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, failing)
    return seen


class TestNumericFallbacks:
    def test_ols_reports_a_failed_cholesky_as_rank_deficient(self, monkeypatch):
        _fail_first(monkeypatch, "cholesky")
        y = np.arange(5.0)
        with pytest.raises(MethodError) as got:
            models.ols(models.intercept_matrix(1), y, (models.INTERCEPT,), np.zeros(5, dtype=np.int64))
        assert str(got.value) == "least squares: design is numerically rank deficient"

    def test_ridge_step_on_a_singular_hessian_still_reaches_the_optimum(self, monkeypatch):
        """One Newton step taken on H + 1e-4 I instead of H changes the path,
        not the estimate: the fit converges, every score entry below tol
        (1e-6), to the coefficients of the unpatched fit within 1e-6."""
        target, predictors = _option_case("logit")
        reference = fit_logit(target, predictors)
        seen = _fail_first(monkeypatch, "solve")
        fit = fit_logit(target, predictors)
        assert len(seen) > 2  # the ridge step and later whole Newton steps
        assert fit.notes == ("ridge fallback on ill-conditioned Hessian",)
        assert reference.converged and fit.converged
        assert np.allclose(fit.coefficients, reference.coefficients, rtol=0, atol=1e-6)
