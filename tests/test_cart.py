import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthweave import (
    Cart, DataError, Dataset, MethodError, Sample, SynthesisPlan, ToyCensusSpec,
    categorical_column, generate_toy_census, numeric_column, run_report, synthesize,
)
from synthweave import cart
from synthweave.cart import CartNode, cart_sample, fit_cart, route_rows
from synthweave.tabular import Categorical, Column, Numeric
from test_engine import expand_missing_predictors


def exhaustive_best_numeric_split(x, y):
    """Hand oracle: try every midpoint threshold, return the best by SS gain."""
    def ss(v):
        return float(((v - v.mean()) ** 2).sum()) if len(v) else 0.0

    xs = np.unique(x)
    best_gain, best_thr = -np.inf, None
    for i in range(1, len(xs)):
        thr = (xs[i - 1] + xs[i]) / 2
        left, right = y[x <= thr], y[x > thr]
        gain = ss(y) - ss(left) - ss(right)
        if gain > best_gain:
            best_gain, best_thr = gain, thr
    return best_thr


class TestFitCart:
    def test_separable_binary_predictor_two_pure_leaves(self):
        pred = categorical_column("p", ["a", "b"] * 30)
        tgt = categorical_column("t", ["X", "Y"] * 30)
        tree = fit_cart(tgt, Dataset((pred,)), min_bucket=1, complexity=0.0)
        assert tree.n_leaves == 2
        assert tree.training_impurity() == 0.0

    def test_threshold_matches_hand_oracle(self):
        x = np.arange(1, 11, dtype=float)
        y = (x > 5).astype(float)
        oracle_thr = exhaustive_best_numeric_split(x, y)
        assert 5 < oracle_thr <= 6
        tree = fit_cart(
            numeric_column("y", y),
            Dataset((numeric_column("x", x),)),
            min_bucket=1,
            complexity=0.0,
        )
        assert tree.nodes[0].split[0] == "num"
        assert tree.nodes[0].split[2] == oracle_thr

    def test_independent_target_stays_near_root(self):
        # noise gains are logarithmic in n while the complexity floor is
        # linear in n, so at n=2000 a cp of 0.01 blocks everything
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pred = numeric_column("x", rng.normal(size=2000))
            tgt = categorical_column(
                "t", list(np.where(rng.random(2000) < 0.5, "A", "B"))
            )
            tree = fit_cart(tgt, Dataset((pred,)), min_bucket=5, complexity=0.01)
            assert tree.n_leaves <= 2

    def test_min_bucket_respected(self):
        rng = np.random.default_rng(1)
        pred = numeric_column("x", rng.normal(size=200))
        tgt = numeric_column("y", pred.values + rng.normal(size=200) * 0.1)
        tree = fit_cart(tgt, Dataset((pred,)), min_bucket=7, complexity=0.0)
        assert int(tree.leaf_sizes.min()) >= 7

    def test_every_row_in_exactly_one_leaf(self):
        rng = np.random.default_rng(2)
        pred = numeric_column("x", rng.normal(size=300))
        tgt = numeric_column("y", rng.normal(size=300))
        tree = fit_cart(tgt, Dataset((pred,)), min_bucket=5)
        assert sorted(tree.donor_rows.tolist()) == list(range(300))

    def test_constant_predictors_single_leaf(self):
        pred = categorical_column("p", ["a"] * 40, levels=["a"])
        tgt = numeric_column("y", np.arange(40, dtype=float))
        tree = fit_cart(tgt, Dataset((pred,)), min_bucket=1, complexity=0.0)
        assert tree.n_leaves == 1

    def test_deterministic_target_zero_impurity(self):
        rng = np.random.default_rng(3)
        x = rng.choice(["a", "b", "c"], 120)
        y = np.where(x == "a", 1.0, np.where(x == "b", 2.0, 3.0))
        tree = fit_cart(
            numeric_column("y", y),
            Dataset((categorical_column("x", list(x)),)),
            min_bucket=1,
            complexity=0.0,
        )
        assert tree.training_impurity() == 0.0

    def test_missing_in_target_rejected(self):
        tgt = numeric_column("y", [1.0, np.nan])
        with pytest.raises(MethodError, match="missing"):
            fit_cart(tgt, None)

    def test_indicator_name_taken_by_another_predictor_rejected(self):
        x = numeric_column("x", [1.0, np.nan, 3.0, 4.0] * 5)
        taken = categorical_column("x:missing", ["a", "b"] * 10)
        with pytest.raises(DataError, match=r"duplicate column names: \['x:missing'\]"):
            fit_cart(numeric_column("y", np.arange(20.0)), Dataset((x, taken)))

    @pytest.mark.parametrize("threshold", [np.inf, -np.inf], ids=["all-left", "all-right"])
    def test_split_that_leaves_a_child_empty_is_an_error(self, monkeypatch, threshold):
        # a finite gain at a threshold past every value sends all of a node's
        # rows to one side; the node would be split again at every depth
        def one_sided(x, order, t, w, categorical, n_tgt, depth, min_bucket):
            return depth.imp.copy(), np.full(depth.sizes.size, threshold)

        monkeypatch.setattr(cart, "_numeric_gains", one_sided)
        x = numeric_column("x", np.arange(40.0))
        with pytest.raises(MethodError) as got:
            fit_cart(numeric_column("y", np.arange(40.0)), Dataset((x,)))
        assert str(got.value) == "cart: a split of 'y' on 'x' leaves a child empty"

    def test_many_level_predictor_contiguous_search(self):
        # 20 levels forces the ordered-contiguous path; deterministic target
        rng = np.random.default_rng(4)
        levels = [f"L{i:02d}" for i in range(20)]
        codes = rng.integers(0, 20, 600)
        pred = categorical_column("p", [levels[c] for c in codes], levels)
        tgt = numeric_column("y", (codes >= 10).astype(float))
        tree = fit_cart(tgt, Dataset((pred,)), min_bucket=1, complexity=0.0)
        assert tree.training_impurity() == 0.0


class TestCartSample:
    def test_pure_leaves_reproduce_mapping(self):
        pred = categorical_column("p", ["a", "b"] * 30)
        tgt = categorical_column("t", ["X", "Y"] * 30)
        tree = fit_cart(tgt, Dataset((pred,)), min_bucket=1, complexity=0.0)
        out = cart_sample(tree, Dataset((pred,)), np.random.default_rng(0))
        assert np.array_equal(out.values, tgt.values)

    def test_single_leaf_equals_bootstrap_frequencies(self):
        tgt = numeric_column("d", [10.0, 10.0, 20.0])
        tree = fit_cart(tgt, None, min_bucket=5)
        assert tree.n_leaves == 1
        draws = cart_sample(tree, None, np.random.default_rng(1), n_rows=100_000)
        freq10 = float((draws.values == 10.0).mean())
        assert set(np.unique(draws.values)) == {10.0, 20.0}
        assert abs(freq10 - 2 / 3) < 0.02

    def test_donor_property_only_training_values(self):
        rng = np.random.default_rng(5)
        pred = numeric_column("x", rng.normal(size=100))
        tgt = numeric_column("y", rng.normal(size=100))
        tree = fit_cart(tgt, Dataset((pred,)), min_bucket=5)
        new = Dataset((numeric_column("x", rng.normal(size=500)),))
        draws = cart_sample(tree, new, rng)
        assert np.isin(draws.values, tgt.values).all()

    def test_unseen_level_routes_to_majority_child(self):
        levels = ["a", "b", "unused"]
        pred = categorical_column("p", ["a"] * 40 + ["b"] * 10, levels)
        tgt = numeric_column("y", [1.0] * 40 + [2.0] * 10)
        tree = fit_cart(tgt, Dataset((pred,)), min_bucket=1, complexity=0.0)
        assert tree.n_leaves == 2
        new = categorical_column("p", ["unused"] * 20, levels)
        draws = cart_sample(tree, Dataset((new,)), np.random.default_rng(0))
        # majority side at fit time held the 'a' donors (value 1.0)
        assert np.all(draws.values == 1.0)

    def test_sampler_is_deterministic(self):
        rng = np.random.default_rng(6)
        pred = numeric_column("x", rng.normal(size=200))
        tgt = numeric_column("y", rng.normal(size=200))
        tree = fit_cart(tgt, Dataset((pred,)), min_bucket=5)
        a = cart_sample(tree, Dataset((pred,)), np.random.default_rng(9)).values
        b = cart_sample(tree, Dataset((pred,)), np.random.default_rng(9)).values
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Reference: the depth-first, one-node-at-a-time search the level-wise fitter
# replaced.  The level-wise trees must equal its trees field by field, and
# routing must give the same leaves and the same errors.
# ---------------------------------------------------------------------------

def _ref_impurity(values, categorical):
    m = len(values)
    if m == 0:
        return 0.0
    if categorical:
        counts = np.bincount(values)
        return float(m - (counts.astype(np.float64) ** 2).sum() / m)
    s = float(values.sum())
    return float((values**2).sum() - s * s / m)


def _ref_numeric_split(x, t, categorical, min_bucket, node_imp, n_levels):
    m = len(x)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    pos = np.arange(min_bucket, m - min_bucket + 1)
    if pos.size == 0:
        return None
    valid = xs[pos - 1] < xs[pos]
    if not valid.any():
        return None
    if categorical:
        oh = np.zeros((m, n_levels), dtype=np.float64)
        oh[np.arange(m), t[order]] = 1.0
        cum = oh.cumsum(axis=0)
        left_counts = cum[pos - 1]
        total = cum[-1]
        left_n = pos.astype(np.float64)
        right_n = m - left_n
        left_imp = left_n - (left_counts**2).sum(axis=1) / left_n
        right_counts = total - left_counts
        right_imp = right_n - (right_counts**2).sum(axis=1) / right_n
    else:
        ys = t[order]
        cy = ys.cumsum()
        cy2 = (ys**2).cumsum()
        left_n = pos.astype(np.float64)
        right_n = m - left_n
        left_imp = cy2[pos - 1] - cy[pos - 1] ** 2 / left_n
        right_imp = (cy2[-1] - cy2[pos - 1]) - (cy[-1] - cy[pos - 1]) ** 2 / right_n
    gain = np.where(valid, node_imp - left_imp - right_imp, -np.inf)
    best = int(np.argmax(gain))
    if not np.isfinite(gain[best]):
        return None
    threshold = float((xs[pos[best] - 1] + xs[pos[best]]) / 2.0)
    return float(gain[best]), threshold


def _ref_level_stats(codes, t, categorical, n_pred_levels, n_tgt_levels):
    if categorical:
        flat = np.bincount(
            codes * n_tgt_levels + t, minlength=n_pred_levels * n_tgt_levels
        ).astype(np.float64)
        C = flat.reshape(n_pred_levels, n_tgt_levels)
        return C.sum(axis=1), C
    n_l = np.bincount(codes, minlength=n_pred_levels).astype(np.float64)
    s_l = np.bincount(codes, weights=t, minlength=n_pred_levels)
    s2_l = np.bincount(codes, weights=t**2, minlength=n_pred_levels)
    return n_l, np.column_stack([s_l, s2_l])


def _ref_subset_gains(left_n, left_stat, tot_n, tot_stat, categorical, min_bucket, node_imp):
    right_n = tot_n - left_n
    ok = (left_n >= min_bucket) & (right_n >= min_bucket)
    with np.errstate(divide="ignore", invalid="ignore"):
        if categorical:
            li = left_n - (left_stat**2).sum(axis=1) / left_n
            rs = tot_stat - left_stat
            ri = right_n - (rs**2).sum(axis=1) / right_n
        else:
            li = left_stat[:, 1] - left_stat[:, 0] ** 2 / left_n
            ri = (tot_stat[1] - left_stat[:, 1]) - (tot_stat[0] - left_stat[:, 0]) ** 2 / right_n
    return np.where(ok, node_imp - li - ri, -np.inf)


def _ref_categorical_split(codes, t, categorical, min_bucket, node_imp, n_pred_levels, n_tgt_levels):
    n_l, stat = _ref_level_stats(codes, t, categorical, n_pred_levels, n_tgt_levels)
    obs = np.flatnonzero(n_l > 0)
    k = len(obs)
    if k < 2:
        return None
    m = float(len(codes))
    tot_stat = stat[obs].sum(axis=0)
    if k <= 12:
        n_masks = (1 << (k - 1)) - 1
        masks = (
            (np.arange(1, n_masks + 1)[:, None] >> np.arange(k - 1)) & 1
        ).astype(np.float64)
        rest = obs[1:]
        left_n = masks @ n_l[rest]
        left_stat = masks @ stat[rest]
        gains = _ref_subset_gains(
            left_n, left_stat, m, tot_stat, categorical, min_bucket, node_imp
        )
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]):
            return None
        chosen = rest[masks[best].astype(bool)]
        gain = float(gains[best])
    else:
        score = stat[obs, 0] / n_l[obs]
        order = obs[np.argsort(score, kind="stable")]
        cn = n_l[order].cumsum()
        cstat = stat[order].cumsum(axis=0)
        left_n = cn[:-1]
        gains = _ref_subset_gains(
            left_n, cstat[:-1], m, tot_stat, categorical, min_bucket, node_imp
        )
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]):
            return None
        chosen = order[: best + 1]
        gain = float(gains[best])
    left_codes = frozenset(int(c) for c in chosen)
    known_codes = frozenset(int(c) for c in obs)
    left_size = float(n_l[list(left_codes)].sum())
    majority_left = left_size >= (m - left_size)
    return gain, left_codes, known_codes, majority_left


def _ref_fit_cart(target, predictors, min_bucket=5, complexity=1e-8):
    """Returns (nodes, donor_rows, leaf_offsets, leaf_sizes)."""
    categorical = isinstance(target.kind, Categorical)
    t = target.values
    n_tgt_levels = len(target.kind.levels) if categorical else 0
    n = target.n_rows
    pred_cols = []
    if predictors is not None:
        for col in predictors.columns:
            if isinstance(col.kind, Numeric):
                pred_cols.append((col.name, False, col.values, 0))
            else:
                pred_cols.append((col.name, True, col.values, len(col.kind.levels)))
    root_imp = _ref_impurity(t, categorical)
    gain_floor = complexity * root_imp + 1e-12 * (abs(root_imp) + 1.0)
    nodes, leaf_rows = [], []
    stack = []

    def new_node():
        nodes.append([None, -1, -1, -1])
        return len(nodes) - 1

    stack.append((new_node(), np.arange(n)))
    while stack:
        nid, rows = stack.pop()
        m = len(rows)
        node_imp = _ref_impurity(t[rows], categorical)
        best = None
        if m >= 2 * min_bucket and node_imp > gain_floor:
            t_node = t[rows]
            for name, is_cat, values, n_pred_levels in pred_cols:
                v = values[rows]
                if is_cat:
                    res = _ref_categorical_split(
                        v, t_node, categorical, min_bucket, node_imp,
                        n_pred_levels, n_tgt_levels,
                    )
                    if res is not None and res[0] > gain_floor and (
                        best is None or res[0] > best[0]
                    ):
                        gain, left_codes, known, maj = res
                        mask = np.isin(v, np.fromiter(left_codes, dtype=np.int64))
                        best = (gain, ("cat", name, left_codes, known, maj), mask)
                else:
                    res = _ref_numeric_split(
                        v, t_node, categorical, min_bucket, node_imp, n_tgt_levels
                    )
                    if res is not None and res[0] > gain_floor and (
                        best is None or res[0] > best[0]
                    ):
                        gain, thr = res
                        best = (gain, ("num", name, thr), v <= thr)
        if best is None:
            nodes[nid][3] = len(leaf_rows)
            leaf_rows.append(rows)
            continue
        _, split, mask = best
        lid, rid = new_node(), new_node()
        nodes[nid][0] = split
        nodes[nid][1] = lid
        nodes[nid][2] = rid
        stack.append((rid, rows[~mask]))
        stack.append((lid, rows[mask]))
    sizes = np.array([len(r) for r in leaf_rows], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return (
        tuple(CartNode(s, l, r, lf) for s, l, r, lf in nodes),
        np.concatenate(leaf_rows),
        offsets,
        sizes,
    )


def _ref_route_rows(tree, new_predictors, n_rows=None):
    if new_predictors is not None and len(new_predictors.columns):
        n = new_predictors.n_rows
    else:
        n = n_rows
    leaf_of = np.empty(n, dtype=np.int64)
    stack = [(0, np.arange(n))]
    while stack:
        nid, rows = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            leaf_of[rows] = node.leaf_id
            continue
        colname = node.split[1]
        v = new_predictors.column(colname).values[rows]
        if node.split[0] == "num":
            if np.isnan(v).any():
                raise MethodError(
                    f"cart: predictor {colname!r} has missing values at sampling"
                )
            mask = v <= node.split[2]
        else:
            _, _, left_codes, known, majority_left = node.split
            in_left = np.isin(v, np.fromiter(left_codes, dtype=np.int64))
            unknown = ~np.isin(v, np.fromiter(known, dtype=np.int64))
            mask = in_left | (unknown & majority_left)
        stack.append((node.right, rows[~mask]))
        stack.append((node.left, rows[mask]))
    return leaf_of


def _coded(name, codes, n_levels):
    return Column(name, Categorical(tuple(f"{name}{i}" for i in range(n_levels))), codes)


def _reference_case(case, seed, n):
    """(target, predictors) of one generated case."""
    rng = np.random.default_rng(seed)
    age = rng.integers(0, 96, n).astype(float)
    region = rng.integers(0, 6, n)
    if case == "tied_ratio":
        # persons per room: small rationals, so many rows and sums tie
        persons, rooms = rng.integers(1, 9, n), rng.integers(1, 7, n)
        occ = rng.integers(0, 40, n)
        target = numeric_column("pperroom", persons / rooms + (region == 2) * 0.25)
        preds = [
            numeric_column("age", age), _coded("region", region, 6),
            _coded("occ", occ, 40), _coded("sex", rng.integers(0, 2, n), 2),
        ]
    elif case == "categorical":
        mar = np.where(age < 20, 0, rng.integers(0, 4, n))
        target = _coded("mar", mar, 4)
        preds = [
            numeric_column("age", age), _coded("region", region, 6),
            numeric_column("income", np.round(rng.lognormal(3, 1, n), 1)),
        ]
    elif case in ("nested_numeric", "nested_categorical", "nested_wide"):
        # occ3 nested in occ1; the target depends on occ1 only, so the occ1
        # split and the matching union of occ3 levels tie in exact arithmetic
        per = 5 if case == "nested_wide" else 3
        occ1 = rng.integers(0, 4, n)
        occ3 = occ1 * per + rng.integers(0, per, n)
        if case == "nested_categorical":
            target = _coded("y", np.where(rng.random(n) < 0.2, rng.integers(0, 3, n), occ1 % 3), 3)
        else:
            target = numeric_column("y", np.round(occ1 * 0.7 + rng.normal(0, 0.5, n), 2))
        preds = [
            _coded("occ1", occ1, 4), _coded("occ3", occ3, 4 * per),
            numeric_column("age", age),
        ]
        if seed % 2:
            preds = preds[::-1]
    elif case == "many_levels":
        codes = rng.integers(0, 17, n)
        target = numeric_column("y", np.round(np.sin(codes) + rng.normal(0, 0.3, n), 1))
        preds = [_coded("code", codes, 17), numeric_column("age", age)]
    elif case == "constant":
        target = numeric_column("y", np.round(age / 10 + rng.normal(0, 1, n), 1))
        preds = [
            numeric_column("flat", np.full(n, 3.5)), _coded("one", np.zeros(n, np.int64), 1),
            numeric_column("age", age),
        ]
    else:
        raise ValueError(case)
    return target, Dataset(tuple(preds))


REFERENCE_CASES = (
    "tied_ratio", "categorical", "nested_numeric", "nested_categorical",
    "nested_wide", "many_levels", "constant",
)


def _sampling_predictors(preds, seed, n):
    """New predictors whose categoricals carry 3 levels the training data
    never had (codes above its level range) and whose numerics leave it."""
    rng = np.random.default_rng(seed + 1000)
    cols = []
    for col in preds.columns:
        if col.is_numeric:
            lo, hi = col.values.min(), col.values.max()
            cols.append(numeric_column(col.name, rng.uniform(lo - 1, hi + 1, n)))
        else:
            k = len(col.levels)
            cols.append(_coded(col.name, rng.integers(0, k + 3, n), k + 3))
    return Dataset(tuple(cols))


class TestMatchesDepthFirstReference:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    @pytest.mark.parametrize("min_bucket", [1, 5, 20])
    @pytest.mark.parametrize("complexity", [1e-8, 0.0])
    def test_same_tree_and_routing(self, case, min_bucket, complexity):
        for seed in (11, 12):
            target, preds = _reference_case(case, seed, 700)
            tree = fit_cart(target, preds, min_bucket=min_bucket, complexity=complexity)
            nodes, donor_rows, offsets, sizes = _ref_fit_cart(target, preds, min_bucket, complexity)
            assert tree.nodes == nodes
            assert np.array_equal(tree.donor_rows, donor_rows)
            assert np.array_equal(tree.leaf_offsets, offsets)
            assert np.array_equal(tree.leaf_sizes, sizes)
            new = _sampling_predictors(preds, seed, 500)
            assert np.array_equal(route_rows(tree, new), _ref_route_rows(tree, new))
            assert np.array_equal(route_rows(tree, preds), _training_leaf_of(tree))

    def test_deep_tree_on_census_columns(self):
        from synthweave.toycensus import ToyCensusSpec, generate_toy_census

        census = generate_toy_census(ToyCensusSpec(n_rows=3000, seed=5))
        keep = np.flatnonzero(~census.column("pperroom").missing_mask())
        data = census.take(keep)
        preds = data.select(["region", "sex", "age", "mar", "occ1", "occ3"])
        tree = fit_cart(data.column("pperroom"), preds)
        nodes, donor_rows, offsets, sizes = _ref_fit_cart(data.column("pperroom"), preds)
        assert tree.depth >= 10
        assert tree.nodes == nodes
        assert np.array_equal(tree.donor_rows, donor_rows)
        assert np.array_equal(tree.leaf_offsets, offsets)
        assert np.array_equal(tree.leaf_sizes, sizes)

    @pytest.mark.parametrize(
        "target_name, predictor_names",
        [
            ("pperroom:missing", ("region", "sex", "age", "mar", "occ1", "occ3")),
            ("occ1", ("region", "sex", "age", "mar")),
        ],
    )
    def test_categorical_census_targets_on_repeated_cells(self, target_name, predictor_names):
        # census rows repeat their predictor values, so many rows share a unit
        from synthweave.toycensus import ToyCensusSpec, generate_toy_census

        census = generate_toy_census(ToyCensusSpec(n_rows=5000, seed=8))
        if target_name == "pperroom:missing":
            missing = census.column("pperroom").missing_mask().astype(np.int64)
            target = _coded(target_name, missing, 2)
        else:
            target = census.column(target_name)
        preds = census.select(list(predictor_names))
        cells = np.column_stack([target.values, *(c.values for c in preds.columns)])
        assert len(np.unique(cells, axis=0)) < 0.95 * census.n_rows
        for min_bucket, complexity in ((5, 1e-8), (1, 0.0)):
            tree = fit_cart(target, preds, min_bucket=min_bucket, complexity=complexity)
            _assert_same_as_reference(tree, target, preds, min_bucket, complexity)
            assert np.array_equal(route_rows(tree, preds), _training_leaf_of(tree))

    def test_signed_zeros_in_a_numeric_predictor(self):
        rng = np.random.default_rng(21)
        n = 400
        x = rng.choice(np.array([-1.5, -0.0, 0.0, 0.5, 2.0]), n)
        c = rng.integers(0, 3, n)
        level = np.where(rng.random(n) < 0.7, (x > 0) + (c == 1), rng.integers(0, 3, n)) % 3
        for target in (
            _coded("t", level, 3),
            numeric_column("y", np.round(x + c + rng.normal(0, 0.5, n), 1)),
        ):
            preds = Dataset((numeric_column("x", x), _coded("c", c, 3)))
            for min_bucket in (1, 5):
                tree = fit_cart(target, preds, min_bucket=min_bucket, complexity=0.0)
                _assert_same_as_reference(tree, target, preds, min_bucket, 0.0)
                assert repr(tree.nodes) == repr(_ref_fit_cart(target, preds, min_bucket, 0.0)[0])
                new = Dataset((
                    numeric_column("x", rng.choice(x, 300)),
                    _coded("c", rng.integers(0, 3, 300), 3),
                ))
                assert np.array_equal(route_rows(tree, new), _ref_route_rows(tree, new))

    def test_repeated_cells_unseen_levels_and_missing_values_when_routing(self):
        target, preds = _reference_case("categorical", 4, 700)
        tree = fit_cart(target, preds, min_bucket=5)
        rng = np.random.default_rng(4)
        pick = rng.integers(0, 40, 2000)  # 2,000 rows drawn from 40 training rows
        cols = []
        for col in preds.columns:
            values = col.values[pick]
            if col.is_numeric:
                cols.append(numeric_column(col.name, values))
            else:
                values = np.where(rng.random(2000) < 0.1, len(col.levels) + 1, values)
                cols.append(_coded(col.name, values, len(col.levels) + 2))
        new = Dataset(tuple(cols))
        assert np.array_equal(route_rows(tree, new), _ref_route_rows(tree, new))
        for name in ("age", "income"):
            holes = [
                Column(c.name, c.kind, np.where(np.arange(2000) % 9 == 4, np.nan, c.values))
                if c.name == name else c
                for c in new.columns
            ]
            broken = Dataset(tuple(holes))
            _, filled = expand_missing_predictors(preds, broken)
            assert np.array_equal(route_rows(tree, broken), _ref_route_rows(tree, filled))
        # a missing cell is never routed as another row's cell: two copies of
        # one row, above every threshold of the root's column and then
        # missing, which counts as zero and goes left of the root's cut
        kind, name, cut = tree.nodes[0].split
        assert kind == "num" and cut > 0
        pair = Dataset(tuple(
            numeric_column(c.name, [1e9, np.nan]) if c.name == name else c.take([0, 0])
            for c in preds.columns
        ))
        _, filled = expand_missing_predictors(preds, pair)
        leaves = route_rows(tree, pair)
        assert leaves[0] != leaves[1]
        assert np.array_equal(leaves, _ref_route_rows(tree, filled))

    def test_unit_key_of_many_wide_predictors(self):
        # four predictors of 2**16 declared levels and a two-level target:
        # their mixed-radix key needs 65 bits, and a wrapped one would merge
        # rows that differ only in the target level
        rng = np.random.default_rng(16)
        kind = Categorical(tuple(f"L{i}" for i in range(1 << 16)))
        n = 200
        cols = [Column(f"p{j}", kind, rng.choice([7, 40000, 65535], n)) for j in range(4)]
        target = _coded("t", (cols[0].values == 7) ^ (rng.random(n) < 0.2), 2)
        preds = Dataset(tuple(cols))
        tree = fit_cart(target, preds, min_bucket=2, complexity=0.0)
        _assert_same_as_reference(tree, target, preds, 2, 0.0)
        assert np.array_equal(route_rows(tree, preds), _training_leaf_of(tree))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_few_distinct_cells_give_the_reference_tree(self, data):
        # few predictor and target values, so units stand for many rows
        n = data.draw(st.integers(10, 300))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        k = data.draw(st.integers(1, 14))
        codes = rng.integers(0, k, n)
        x = rng.choice(np.array([-1.0, -0.0, 0.0, 0.25, 3.0])[: data.draw(st.integers(1, 5))], n)
        n_tgt = data.draw(st.integers(1, 4))
        signal = (codes + (x > 0)) % n_tgt
        noisy = np.where(rng.random(n) < 0.8, signal, rng.integers(0, n_tgt, n))
        target = _coded("t", noisy, n_tgt)
        preds = Dataset((_coded("c", codes, k), numeric_column("x", x)))
        min_bucket = data.draw(st.integers(1, 8))
        complexity = data.draw(st.sampled_from([0.0, 1e-8, 1e-2]))
        tree = fit_cart(target, preds, min_bucket=min_bucket, complexity=complexity)
        _assert_same_as_reference(tree, target, preds, min_bucket, complexity)
        new = Dataset((
            _coded("c", rng.integers(0, k + 2, 3 * n), k + 2),
            numeric_column("x", rng.choice(np.array([-2.0, -0.0, 0.0, 0.25, 1.0, 3.0]), 3 * n)),
        ))
        assert np.array_equal(route_rows(tree, new), _ref_route_rows(tree, new))

    def test_missing_values_at_sampling_count_as_zero(self):
        target, preds = _reference_case("categorical", 3, 700)
        tree = fit_cart(target, preds, min_bucket=5)
        new = _sampling_predictors(preds, 3, 400)
        for holes in (("age",), ("income",), ("age", "income")):
            cols = []
            for col in new.columns:
                values = col.values.copy()
                if col.name in holes:
                    values[::7] = np.nan
                cols.append(Column(col.name, col.kind, values))
            broken = Dataset(tuple(cols))
            _, filled = expand_missing_predictors(preds, broken)
            assert np.array_equal(route_rows(tree, broken), _ref_route_rows(tree, filled))

    @pytest.mark.parametrize("case", ["categorical", "tied_ratio"])
    @pytest.mark.parametrize("min_bucket", [1, 5])
    def test_missing_predictor_cells_are_an_indicator_and_zeros(self, case, min_bucket):
        # age is missing mostly where the target is in its lower half, so
        # the indicator carries signal; every numeric predictor has holes
        for seed in (5, 6):
            target, preds = _reference_case(case, seed, 700)
            rng = np.random.default_rng(seed)
            low = target.values <= np.median(target.values)
            cols = []
            for col in preds.columns:
                if col.is_numeric:
                    rate = np.where(low, 0.4, 0.05) if col.name == "age" else 0.1
                    col = Column(col.name, col.kind, np.where(rng.random(700) < rate, np.nan, col.values))
                cols.append(col)
            holed = Dataset(tuple(cols))
            new = _sampling_predictors(preds, seed, 500)
            new = Dataset(tuple(
                Column(c.name, c.kind, np.where(rng.random(500) < 0.2, np.nan, c.values))
                if c.is_numeric else c
                for c in new.columns
            ))
            tree = fit_cart(target, holed, min_bucket=min_bucket)
            fit_preds, sample_preds = expand_missing_predictors(holed, new)
            assert tree.expanded == tuple(c.name for c in holed.columns if c.is_numeric)
            assert tree.columns == fit_preds.names
            assert any(node.split[1] == "age:missing" for node in tree.nodes if node.split)
            _assert_same_as_reference(tree, target, fit_preds, min_bucket, 1e-8)
            assert np.array_equal(route_rows(tree, new), _ref_route_rows(tree, sample_preds))
            assert np.array_equal(route_rows(tree, holed), _training_leaf_of(tree))

    def test_midpoint_rounding_up_still_splits_the_candidate(self):
        # (b + c) / 2 rounds to c for these adjacent floats; cutting at the
        # midpoint would leave the right child empty and never terminate
        b = 1.0000000000000002
        c = np.nextafter(b, 2.0)
        assert (b + c) / 2 == c
        x = np.array([b] * 6 + [c] * 6)
        tree = fit_cart(numeric_column("y", [0.0] * 6 + [1.0] * 6),
                        Dataset((numeric_column("x", x),)), min_bucket=1, complexity=0.0)
        assert tree.nodes[0].split == ("num", "x", b)
        assert tree.leaf_sizes.tolist() == [6, 6]

    def test_midpoint_rounding_up_is_kept_when_a_larger_value_follows(self):
        # the threshold is the midpoint of the cut's two values, as the
        # reference's, unless that would leave the right child empty: here a
        # larger value follows, so the root cuts at the midpoint, which rounds
        # to c and sends c's rows left; their node then cuts at b
        b = 1.0000000000000002
        c = np.nextafter(b, 2.0)
        x = np.array([b] * 6 + [c] * 6 + [2.0])
        tree = fit_cart(numeric_column("y", [0.0] * 6 + [1.0] * 7),
                        Dataset((numeric_column("x", x),)), min_bucket=1, complexity=0.0)
        assert tree.nodes[0].split == ("num", "x", c)
        assert tree.nodes[tree.nodes[0].left].split == ("num", "x", b)
        assert tree.leaf_sizes.tolist() == [6, 6, 1]

    def test_depth_counts_splits_on_longest_path(self):
        x = np.arange(1, 11, dtype=float)
        tree = fit_cart(numeric_column("y", x), Dataset((numeric_column("x", x),)),
                        min_bucket=1, complexity=0.0)
        assert tree.n_leaves == 10
        assert tree.depth == max(_path_lengths(tree))
        assert fit_cart(numeric_column("y", x), None).depth == 0


def _assert_same_as_reference(tree, target, preds, min_bucket, complexity):
    nodes, donor_rows, offsets, sizes = _ref_fit_cart(target, preds, min_bucket, complexity)
    assert tree.nodes == nodes
    assert np.array_equal(tree.donor_rows, donor_rows)
    assert np.array_equal(tree.leaf_offsets, offsets)
    assert np.array_equal(tree.leaf_sizes, sizes)


def _path_lengths(tree):
    out, stack = [], [(0, 0)]
    while stack:
        nid, d = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            out.append(d)
        else:
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return out


def _training_leaf_of(tree):
    leaf_of = np.empty(len(tree.donor_rows), dtype=np.int64)
    leaf_of[tree.donor_rows] = np.repeat(np.arange(tree.n_leaves), tree.leaf_sizes)
    return leaf_of


@st.composite
def _cart_problem(draw):
    n = draw(st.integers(12, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    k = draw(st.integers(1, 15))
    codes = rng.integers(0, k, n)
    x = np.round(rng.normal(size=n), draw(st.integers(0, 2)))
    if draw(st.booleans()):
        target = _coded("t", rng.integers(0, 3, n), 3)
    else:
        target = numeric_column("t", np.round(x + codes + rng.normal(size=n), 1))
    preds = Dataset((_coded("c", codes, k), numeric_column("x", x)))
    new = Dataset((
        _coded("c", rng.integers(0, k + 2, 3 * n), k + 2),
        numeric_column("x", rng.normal(size=3 * n)),
    ))
    return target, preds, new, draw(st.integers(1, 6)), seed


class TestDonorProperty:
    @settings(max_examples=40, deadline=None)
    @given(_cart_problem())
    def test_every_draw_comes_from_its_leafs_donors(self, problem):
        target, preds, new, min_bucket, seed = problem
        tree = fit_cart(target, preds, min_bucket=min_bucket, complexity=0.0)
        draws = cart_sample(tree, new, np.random.default_rng(seed)).values
        leaf_of = route_rows(tree, new)
        for leaf in np.unique(leaf_of):
            lo = tree.leaf_offsets[leaf]
            donors = target.values[tree.donor_rows[lo : lo + tree.leaf_sizes[leaf]]]
            assert np.isin(draws[leaf_of == leaf], donors).all()


def test_fit_sample_and_report_build_no_node_objects(monkeypatch):
    # the tree is its arrays: fitting, routing and the run report's tree
    # sizes never build a CartNode, and the sizes are those of the nodes view
    census = generate_toy_census(ToyCensusSpec(n_rows=3000, seed=6))
    cols = ["region", "sex", "age", "mar", "pperroom"]
    methods = {"region": Sample(), "sex": Cart(), "age": Cart(), "mar": Cart(), "pperroom": Cart()}
    trees = {}

    def recorded_fit(target, predictors, *args, **kwargs):
        tree = fit(target, predictors, *args, **kwargs)
        trees.setdefault(target.name.split(":")[0], []).append(tree)
        return tree

    def no_node(*args, **kwargs):
        raise AssertionError("a CartNode was built")

    fit = cart.fit_cart
    plan = SynthesisPlan(tuple(cols), methods, seed=2)
    with monkeypatch.context() as patch:
        patch.setattr(cart, "fit_cart", recorded_fit)
        patch.setattr(cart, "CartNode", no_node)
        doc = run_report(synthesize(census.select(cols), plan))
    by_name = {v["name"]: v for v in doc["variables"]}
    assert by_name["pperroom"]["missing_indicator"] and len(trees["pperroom"]) == 2
    for name, fitted in trees.items():
        assert by_name[name]["tree"] == {
            "nodes": sum(len(t.nodes) for t in fitted),
            "leaves": sum(sum(node.is_leaf for node in t.nodes) for t in fitted),
            "depth": max(max(_path_lengths(t)) for t in fitted),
        }
