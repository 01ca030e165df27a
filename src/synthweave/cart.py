"""Greedy binary CART, grown level by level, with leaf-donor sampling.

Candidate splits are all change points of a numeric predictor and all level
subsets of a categorical one (exhaustive up to 12 observed levels, ordered
contiguous splits above that).  Impurity is Gini mass for categorical
targets and within-node sum of squared deviations for numeric targets.  A
node splits on the first predictor, in column order, whose best gain is
strictly the largest and beats ``complexity`` times the root impurity (plus
a tiny absolute floor); within a predictor the first best candidate wins.
Synthetic values are drawn uniformly from the donor rows of the leaf each
synthetic row routes to, so over-fitting only adds noise to the draws rather
than invented values.

A numeric predictor with missing cells in the fit rows is split on as a
present/missing indicator (``name:missing``) and its zero-filled values, as
the regressions' design does; ``route_rows`` expands new predictors the
same way, and a missing cell met only there counts as zero.

Level-wise search
-----------------
The tree is the one a depth-first search would grow, but it is grown one
depth at a time and every open node of a depth is scored in the same numpy
passes.  The search runs on units:

- A categorical target's training rows that share every predictor value and
  the target level are one unit weighted by their row count.  Its gains
  depend only on counts of rows, which a unit adds all at once, so the tree
  is the same while the search touches fewer elements (rows repeat a lot
  when the predictors are categoricals and integer ages).
- A numeric target's units are its rows, each of weight 1: its gains are
  float sums, which must run over the rows one at a time (see below).
- Open units are kept node-major: once in unit order, and once per numeric
  predictor in value order.  Splitting a depth is a stable partition of each
  of these arrays, so no node is ever sorted again.
- For each predictor, a few passes over the open units, keyed by (node, code
  or rank, target level) and weighted by row counts, give every candidate
  gain of every node; the first maximum per node is kept.  ``min_bucket``
  and the majority side count rows, not units.
- Nodes too small to split, or already pure, become leaves before scoring.
- At the end, nodes and leaves are renumbered into depth-first order (node
  ids handed out as the depth-first search would, left child first) from
  subtree sizes, a depth at a time, into the flat per-node arrays of
  ``CartTree``; the donor rows of each leaf, its units' rows, are listed in
  ascending order.  No per-node Python object is made unless ``nodes`` is read.

``route_rows`` also goes depth by depth through those arrays, and visits
each distinct cell once: rows that agree on every categorical split column
and fall between the same thresholds of every numeric one reach the same
leaf.

Exactness
---------
Mathematically tied gains are decided by rounding, so every gain must be
computed with the same floating-point operations, in the same order, as a
search over one node at a time:

- Categorical target: counts are exact integers, so any summation order and
  any grouping of rows into units works; units with equal values of a
  numeric predictor sit next to each other, and a cut is only scored after
  the last of them.  The sum of squared left counts at each cut of a
  numeric predictor is a running sum of ``2 c w + w²``, where ``w`` is the
  unit's row count and ``c`` the rows of the node with the same target
  level in earlier units.  A unit key mixes the predictors' codes in int64
  and is renumbered before it could overflow.
- Numeric target, numeric predictor: sums of y and y² run sequentially
  within each node in (value, row) order.  A padded 2-D ``cumsum`` per
  node-size class does this; a global ``cumsum`` minus offsets rounds
  differently.
- Numeric target node impurity is numpy's pairwise ``sum`` of each node's
  rows in ascending order, as ``_impurity`` computes it.  Nodes of equal
  size are summed together as the rows of one 2-D array (``sum(axis=1)``
  runs the same pairwise sum on each row); ``np.add.reduceat`` and zero
  padding do not round the same way.
- Numeric target, categorical predictor: a weighted ``bincount`` over
  (node, code) with rows ascending inside each node gives the per-node level
  sums; totals over levels are sequential in code order; subset sums are one
  ``masks @ S`` per node, batched as ``masks[None] @ S``, which runs the same
  matrix product per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MethodError, check_option
from .tabular import (
    Categorical, Column, Dataset, Numeric, VariableKind, _draw_rows, _pool_draw, _pools,
    column_codes, distinct_cells,
)

MAX_EXHAUSTIVE_LEVELS = 12
MISSING_INDICATOR = Categorical(("present", "missing"))
# elements per block of batched candidate sums, to bound memory on many-node depths
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class CartNode:
    # split = ("num", column, threshold) | ("cat", column, left_codes, known_codes, majority_left)
    split: tuple | None
    left: int = -1
    right: int = -1
    leaf_id: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass(frozen=True)
class CartTree:
    """A fitted tree as flat per-node arrays, indexed by node id; ``nodes``
    builds it as ``CartNode`` objects only when read.

    Ids are those a depth-first grower hands out: the root is 0, and a
    node's children get the next two free ids when it splits, left first.
    ``left`` is a split's left child (the right one is the next id), -1 at a
    leaf; ``leaf_id`` numbers the leaves in depth-first order, -1 at a split.
    A split tests predictor ``columns[column]``: a numeric one sends
    ``x <= threshold`` left; a categorical one has a ``level_row`` (-1 on
    other nodes) in two boolean tables of one column per level code, the
    levels its training rows had (``seen``) and those it sends left
    (``goes_left``).  The last column is a level no split saw, so it holds
    the majority side, where unseen levels go.  ``expanded`` names the
    numeric predictors with missing cells at fit, each split on as
    ``name:missing`` and ``name``.
    """

    target_name: str
    target_kind: VariableKind
    target_values: np.ndarray = field(repr=False)
    columns: tuple[str, ...]
    left: np.ndarray = field(repr=False)
    leaf_id: np.ndarray = field(repr=False)
    column: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    level_row: np.ndarray = field(repr=False)
    goes_left: np.ndarray = field(repr=False)
    seen: np.ndarray = field(repr=False)
    depth: int  # splits on the longest root-to-leaf path (0 for a single leaf)
    donor_rows: np.ndarray = field(repr=False)   # training row indices, leaf-major
    leaf_offsets: np.ndarray = field(repr=False)
    leaf_sizes: np.ndarray = field(repr=False)
    expanded: tuple[str, ...] = ()
    notes = ()  # not a field: a tree fit gives no notes

    @property
    def n_nodes(self) -> int:
        return len(self.left)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_sizes)

    @cached_property
    def nodes(self) -> tuple[CartNode, ...]:
        """The tree as one ``CartNode`` per node id, built when first read."""
        arrays = (self.column, self.threshold, self.level_row, self.left, self.leaf_id)
        out = []
        for col, cut, row, left, leaf in zip(*(a.tolist() for a in arrays)):
            split = None if col < 0 else ("num", self.columns[col], cut)
            if row >= 0:
                goes, seen = self.goes_left[row], self.seen[row]
                codes = [frozenset(np.flatnonzero(m).tolist()) for m in (goes & seen, seen)]
                split = ("cat", split[1], *codes, bool(goes[-1]))
            out.append(CartNode(split, left, -1 if left < 0 else left + 1, leaf))
        return tuple(out)

    def sample(self, predictors, rng: np.random.Generator, n: int | None) -> np.ndarray:
        """Route each synthetic row down the tree, draw uniformly from its leaf."""
        pick = _pool_draw(self.leaf_offsets, self.leaf_sizes, route_rows(self, predictors, n), rng)
        return self.target_values[self.donor_rows[pick]]


def _missing_rule(columns: tuple[Column, ...], expanded: tuple[str, ...]) -> Dataset:
    """The predictors a tree splits on: each numeric named in ``expanded``
    becomes a present/missing indicator followed by its values, and every
    missing numeric cell counts as zero."""
    out: list[Column] = []
    for col in columns:
        if isinstance(col.kind, Numeric):
            missing = np.isnan(col.values)
            if col.name in expanded:
                out.append(Column(f"{col.name}:missing", MISSING_INDICATOR, missing.astype(np.int64)))
            if missing.any():
                col = Column(col.name, col.kind, np.where(missing, 0.0, col.values))
        out.append(col)
    return Dataset(tuple(out))


def _impurity(values: np.ndarray, categorical: bool) -> float:
    m = len(values)
    if categorical:
        counts = np.bincount(values)
        return float(m - (counts.astype(np.float64) ** 2).sum() / m)
    s = float(values.sum())
    return float((values**2).sum() - s * s / m)


def _running_count(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Cumulative sum of integer ``values`` restarted at every node segment.

    Integers are exact, so one global ``cumsum`` minus each segment's offset
    gives the same numbers as a ``cumsum`` per segment.
    """
    total = np.concatenate([[0], np.cumsum(values)])
    return total[1:] - np.repeat(total[starts], sizes)


def _running_sums(columns, starts: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """Cumulative sums of float ``columns`` restarted at every node segment.

    Each segment is summed left to right from its own start, exactly as a
    ``cumsum`` of that segment alone: segments of similar length are padded
    into the rows of one 2-D block, which is summed along its rows.
    """
    out = [np.empty_like(c) for c in columns]
    size_class = np.ceil(np.log2(np.maximum(sizes, 1))).astype(np.int64)
    for c in np.unique(size_class):
        segs = np.flatnonzero(size_class == c)
        width = 1 << int(c)
        length = sizes[segs]
        before = np.cumsum(length) - length
        ramp = np.arange(int(length.sum()))
        at = np.repeat(starts[segs] - before, length) + ramp
        slot = np.repeat(np.arange(segs.size) * width - before, length) + ramp
        for values, result in zip(columns, out):
            block = np.zeros(segs.size * width)
            block[slot] = values[at]
            result[at] = np.cumsum(block.reshape(segs.size, width), axis=1).ravel()[slot]
    return out


def _squared_deviations(y, units, sizes, nodes) -> np.ndarray:
    """Within-node sum of squared deviations of ``y`` for each of ``nodes``.

    ``units`` holds every node's units (here rows) as node-major segments of
    ``sizes``.  Each node's rows are summed in ascending order, as
    ``_impurity`` sums them: a row-wise ``sum`` over a 2-D batch of
    equal-size nodes runs the same pairwise sum as on each node alone, while
    ``np.add.reduceat`` and zero padding round differently.
    """
    by_size = np.argsort(sizes[nodes], kind="stable")
    m = sizes[nodes[by_size]]
    at = np.cumsum(m) - m
    first = (np.cumsum(sizes) - sizes)[nodes[by_size]]
    v = y[units[np.repeat(first - at, m) + np.arange(m.sum())]]
    s, sq = np.empty(m.size), np.empty(m.size)
    bounds = np.flatnonzero(np.diff(m, prepend=-1, append=-1)).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        batch = v[at[a] : at[a] + (b - a) * m[a]].reshape(b - a, m[a])
        s[a:b] = batch.sum(axis=1)
        sq[a:b] = (batch**2).sum(axis=1)
    out = np.empty(m.size)
    out[by_size] = sq - s * s / m
    return out


class _Depth:
    """The open nodes of one depth.

    Every unit array of the search (unit order, and value order per numeric
    predictor) holds these nodes' units as node-major segments of the same
    sizes, so positions share one layout.  ``sizes`` counts units and
    ``rows`` the training rows they stand for; ``weights`` is the row count
    of each unit in unit order, and ``counts`` each node's rows per target
    level (categorical target).
    """

    def __init__(self, sizes, rows, imp, weights, counts):
        self.sizes = sizes
        self.rows = rows
        self.imp = imp
        self.weights = weights
        self.counts = counts
        self.starts = np.cumsum(sizes) - sizes
        self.seg = np.repeat(np.arange(sizes.size), sizes)
        self.local = np.arange(self.seg.size) - self.starts[self.seg]

    def first_max(self, values: np.ndarray):
        """Per node: (first position of its maximum, that maximum).

        A node whose maximum is not finite gets position -1, as ``np.argmax``
        on that node alone followed by a finiteness check would give.
        """
        top = np.maximum.reduceat(values, self.starts)
        hit = np.flatnonzero((values == top[self.seg]) & np.isfinite(top[self.seg]))
        first = np.ones(hit.size, dtype=bool)
        first[1:] = self.seg[hit[1:]] != self.seg[hit[:-1]]
        pos = np.full(self.sizes.size, -1)
        pos[self.seg[hit[first]]] = hit[first]
        return pos, top

    def partition(self, arrays, go_left, splitting: np.ndarray, n_left: np.ndarray):
        """Stable partition of each array into the next depth's segments.

        Each splitting node's rows become its left child's rows followed by
        its right child's, each in their current order; other rows go.
        ``go_left`` holds one mask per array.
        """
        seg = self.seg
        keep = splitting[seg]
        kept = np.where(splitting, self.sizes, 0)
        base = (np.cumsum(kept) - kept)[seg]
        left_offset = (np.cumsum(n_left) - n_left)[seg]
        right_base = base + n_left[seg] + self.local
        out = []
        for arr, go in zip(arrays, go_left):
            left_before = np.cumsum(go) - go - left_offset
            dest = np.where(go, base + left_before, right_base - left_before)
            new = np.empty(int(kept.sum()), dtype=arr.dtype)
            new[dest[keep]] = arr[keep]
            out.append(new)
        return out


def _gain(imp, left_n, right_n, left, right, categorical: bool, ok):
    """Impurity decrease of candidate splits, -inf where not ``ok``.

    ``left``/``right`` are the sums of squared level counts of each side
    (categorical target) or each side's (Σy, Σy²) (numeric target).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if categorical:
            li = left_n - left / left_n
            ri = right_n - right / right_n
        else:
            li = left[1] - left[0] ** 2 / left_n
            ri = right[1] - right[0] ** 2 / right_n
        return np.where(ok, imp - li - ri, -np.inf)


def _numeric_gains(x, order, t, w, categorical, n_tgt, depth: _Depth, min_bucket):
    """Best ``x <= threshold`` split of every node: (gain, threshold) per node.

    ``x``, ``t`` and the row counts ``w`` are indexed by unit, ``order`` holds
    the open units in value order.
    """
    seg, starts, sizes = depth.seg, depth.starts, depth.sizes
    xs = x[order]
    ws = w[order]
    # a cut after a position: rows on each side, and whether both are big enough
    left_n = _running_count(ws, starts, sizes).astype(np.float64)
    right_n = depth.rows[seg] - left_n
    ok = (left_n >= min_bucket) & (right_n >= min_bucket)
    ok[:-1] &= xs[:-1] < xs[1:]
    ts = t[order]
    if categorical:
        key = seg * n_tgt + ts
        totals = depth.counts
        # rows of the same node and level in earlier units: the rows of the
        # level's earlier units (a stable sort by level, a radix sort for
        # small codes) minus that level's rows in earlier nodes
        by_level = np.argsort(ts.astype(np.min_scalar_type(n_tgt)), kind="stable")
        level = ts[by_level]
        level_n = totals.sum(axis=0)
        in_earlier_nodes = np.cumsum(totals, axis=0) - totals
        before = np.cumsum(ws[by_level]) - ws[by_level]
        earlier = np.empty(order.size, dtype=np.int64)
        earlier[by_level] = (
            before - (np.cumsum(level_n) - level_n)[level]
            - in_earlier_nodes[seg[by_level], level]
        )
        # a unit of w rows moves its level's left count from c to c + w
        left = _running_count(ws * (2 * earlier + ws), starts, sizes)
        cross = _running_count(totals.ravel()[key] * ws, starts, sizes)
        sq_total = (totals**2).sum(axis=1)
        right = sq_total[seg] - 2 * cross + left
    else:
        # a numeric target's units are its rows (weight 1)
        left = _running_sums((ts, ts**2), starts, sizes)
        last = (starts + sizes - 1)[seg]
        right = tuple(run[last] - run for run in left)
    gain = _gain(depth.imp[seg], left_n, right_n, left, right, categorical, ok)
    pos, top = depth.first_max(gain)
    split = pos >= 0
    below, above = xs[pos[split]], xs[pos[split] + 1]
    mid = (below + above) / 2.0
    # between adjacent floats the midpoint can round up to the value above,
    # moving its rows left; if nothing larger follows, the right child would
    # be empty and the node would split the same way forever
    empty_right = (mid == above) & (xs[(starts + sizes - 1)[split]] == above)
    threshold = np.zeros(sizes.size)
    threshold[split] = np.where(empty_right, below, mid)
    return np.where(split, top, -np.inf), threshold


def _subset_masks(k: int) -> np.ndarray:
    # first observed level pinned to the right side halves the search
    n_masks = (1 << (k - 1)) - 1
    return ((np.arange(1, n_masks + 1)[:, None] >> np.arange(k - 1)) & 1).astype(np.float64)


def _best_of(gains):
    """Per row of ``gains``: (first best candidate, its gain, whether finite)."""
    best = gains.argmax(axis=1)
    top = gains[np.arange(len(gains)), best]
    return best, top, np.isfinite(top)


def _categorical_gains(codes, n_levels, units, t, categorical, n_tgt, depth: _Depth, min_bucket):
    """Best level-subset split of every node: (gain, left-level table, seen-level table)."""
    nn, K = depth.sizes.size, n_levels
    key = depth.seg * K + codes[units]
    count = np.bincount(key, weights=depth.weights, minlength=nn * K).reshape(nn, K)
    if categorical:
        stat = np.bincount(key * n_tgt + t[units], weights=depth.weights, minlength=nn * K * n_tgt)
        stat = stat.reshape(nn, K, n_tgt)
    else:
        y = t[units]
        stat = np.stack(
            [np.bincount(key, weights=y, minlength=nn * K),
             np.bincount(key, weights=y**2, minlength=nn * K)],
            axis=1,
        ).reshape(nn, K, 2)
    seen = count > 0
    k = seen.sum(axis=1)
    m = depth.rows.astype(np.float64)
    gain = np.full(nn, -np.inf)
    left = np.zeros((nn, K), dtype=bool)

    def gains(nodes, left_n, left_stat, total):
        right_n = m[nodes, None] - left_n
        if categorical:
            sides = (left_stat**2).sum(axis=-1), ((total - left_stat) ** 2).sum(axis=-1)
        else:
            right = total - left_stat
            sides = (left_stat[..., 0], left_stat[..., 1]), (right[..., 0], right[..., 1])
        ok = (left_n >= min_bucket) & (right_n >= min_bucket)
        return _gain(depth.imp[nodes, None], left_n, right_n, *sides, categorical, ok)

    # up to MAX_EXHAUSTIVE_LEVELS observed levels: every subset, one batched
    # product per group of nodes with the same number of observed levels
    for kk in np.unique(k[(k >= 2) & (k <= MAX_EXHAUSTIVE_LEVELS)]):
        masks = _subset_masks(int(kk))
        group = np.flatnonzero(k == kk)
        block = max(1, _BLOCK_ELEMENTS // (len(masks) * stat.shape[2]))
        for lo in range(0, group.size, block):
            idx = group[lo : lo + block]
            obs = np.nonzero(seen[idx])[1].reshape(idx.size, kk)
            rest = obs[:, 1:]
            total = stat[idx[:, None], obs].cumsum(axis=1)[:, -1]
            best, top, ok = _best_of(gains(
                idx, count[idx[:, None], rest] @ masks.T,
                masks @ stat[idx[:, None], rest], total[:, None],
            ))
            gain[idx[ok]] = top[ok]
            left[idx[ok, None], rest[ok]] = masks[best[ok]] > 0

    # above that: order levels by target mean (numeric) / first-level share
    # (categorical), then scan contiguous splits only; the observed levels
    # sort first, so a cut past the last of them leaves the right side no
    # rows, which min_bucket >= 1 rejects
    many = np.flatnonzero(k > MAX_EXHAUSTIVE_LEVELS)
    block = max(1, _BLOCK_ELEMENTS // (K * stat.shape[2]))
    for lo in range(0, many.size, block):
        idx = many[lo : lo + block]
        n_l, st = count[idx], stat[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            score = st[:, :, 0] / n_l
        order = np.lexsort((score, ~seen[idx]), axis=-1)
        g = gains(
            idx,
            np.take_along_axis(n_l, order, axis=1).cumsum(axis=1)[:, :-1],
            np.take_along_axis(st, order[:, :, None], axis=1).cumsum(axis=1)[:, :-1],
            st.cumsum(axis=1)[:, -1][:, None],
        )
        best, top, ok = _best_of(g)
        gain[idx[ok]] = top[ok]
        chosen = np.zeros((idx.size, K), dtype=bool)
        np.put_along_axis(chosen, order, np.arange(K) <= best[:, None], axis=1)
        left[idx[ok]] = chosen[ok]
    return gain, left, seen


def _depth_first_ids(split_ids: list[np.ndarray], kid: np.ndarray):
    """Renumber a breadth-first grown tree as a depth-first grower numbers it.

    ``split_ids`` holds, per depth, the breadth-first ids of the nodes that
    split, and ``kid`` each node's left child (the right one is next), or -1.
    A depth-first grower gives a node's children the next two ids when it
    pops the node, left child first, and numbers leaves in the order it
    reaches them.  So a child's id follows from the splits, and a leaf's id
    from the leaves, that come before its parent in depth-first order.
    Returns (depth-first id, leaf id or -1) of each breadth-first node.
    """
    # nodes in each subtree, bottom-up: a subtree of m nodes has m // 2 splits
    size = np.ones(kid.size, dtype=np.int64)
    for s in reversed(split_ids):
        size[s] += size[kid[s]] + size[kid[s] + 1]
    # splits and leaves before each node in depth-first order, top-down
    splits_before, leaves_before, new_id = np.zeros((3, kid.size), dtype=np.int64)
    for s in split_ids:
        lo, left_size = kid[s], size[kid[s]]
        new_id[lo] = 2 * splits_before[s] + 1
        new_id[lo + 1] = new_id[lo] + 1
        splits_before[lo] = splits_before[s] + 1
        splits_before[lo + 1] = splits_before[s] + 1 + left_size // 2
        leaves_before[lo] = leaves_before[s]
        leaves_before[lo + 1] = leaves_before[s] + left_size // 2 + 1
    return new_id, np.where(kid < 0, leaves_before, -1)


def check_cart_options(min_bucket, complexity) -> None:
    """The option values ``fit_cart`` and the plan's ``Cart`` accept."""
    check_option(MethodError, "cart: min_bucket", min_bucket, 1, whole=True)
    check_option(MethodError, "cart: complexity", complexity, 0)


def _complete_target(target: Column, method: str) -> np.ndarray:
    """The values of a target, which must be non-empty and complete."""
    if target.n_rows == 0:
        raise MethodError(f"{method}: target {target.name!r} is empty")
    if target.missing_mask().any():
        raise MethodError(f"{method}: target {target.name!r} has missing values")
    return target.values


def fit_cart(
    target: Column,
    predictors: Dataset | None,
    min_bucket: int = 5,
    complexity: float = 1e-8,
) -> CartTree:
    """Grow a tree by greedy recursive partitioning of the training rows,
    scoring all open nodes of a depth together.  A numeric predictor with
    missing cells is split on as a present/missing indicator and its
    zero-filled values; the tree's ``expanded`` names those predictors."""
    check_cart_options(min_bucket, complexity)
    t = _complete_target(target, "cart")
    categorical = isinstance(target.kind, Categorical)
    n_tgt_levels = len(target.kind.levels) if categorical else 0
    n = target.n_rows

    columns = predictors.columns if predictors is not None else ()
    expanded = tuple(
        col.name for col in columns if isinstance(col.kind, Numeric) and np.isnan(col.values).any()
    )
    columns = _missing_rule(columns, expanded).columns
    pred_cols = [
        (col.name, False, col.values, 0) if isinstance(col.kind, Numeric)
        else (col.name, True, col.values, len(col.kind.levels))
        for col in columns
    ]

    root_imp = _impurity(t, categorical)
    gain_floor = complexity * root_imp + 1e-12 * (abs(root_imp) + 1.0)

    # the search runs on units: a categorical target's rows that agree on
    # every predictor and the target level are one unit weighted by their
    # count, since its gains depend only on counts; a numeric target's float
    # sums must run over rows in row order, so its units are its rows
    if categorical:
        unit_of, first = distinct_cells([(t, n_tgt_levels), *map(column_codes, columns)], n)
        tu = t[first]
        unit_cols = [(name, is_cat, values[first], k) for name, is_cat, values, k in pred_cols]
    else:
        unit_of, tu, unit_cols = np.arange(n), t, pred_cols
    w = np.bincount(unit_of)
    w_float = w.astype(np.float64)  # as ``bincount`` takes weights; exact below 2**53

    # nodes are numbered in creation (breadth-first) order; per depth, each
    # node's left child and split predictor (-1 at a leaf) and its threshold
    # or level-table row, and the nodes that split; each unit's leaf
    by_depth, split_ids, level_tables = [], [], []
    unit_node = np.empty(w.size, dtype=np.int64)
    n_nodes, n_level_rows = 1, 0

    # the open nodes of the current depth, their unit and row counts, and
    # their units in unit order and in value order per numeric predictor
    ids = np.array([0])
    sizes = np.array([w.size])
    node_rows = np.array([n])
    units = np.arange(w.size)
    orders = [np.argsort(v, kind="stable") for _, is_cat, v, _ in unit_cols if not is_cat]
    go_unit = np.zeros(w.size, dtype=bool)
    while ids.size:
        kid, split_col, level_row = np.full((3, ids.size), -1)
        threshold = np.zeros(ids.size)
        by_depth.append((kid, split_col, level_row, threshold))
        first_id = ids[0]
        # nodes too small to split, or pure, are leaves
        seg = np.repeat(np.arange(ids.size), sizes)
        big = np.flatnonzero(node_rows >= 2 * min_bucket)
        imp = np.zeros(ids.size)
        counts = None
        if categorical:
            counts = np.bincount(
                seg * n_tgt_levels + tu[units], w_float[units], ids.size * n_tgt_levels
            )
            counts = counts.astype(np.int64).reshape(ids.size, n_tgt_levels)
            imp[big] = node_rows[big] - (counts[big] ** 2).sum(axis=1) / node_rows[big]
        else:
            imp[big] = _squared_deviations(tu, units, sizes, big)
        live = (node_rows >= 2 * min_bucket) & (imp > gain_floor)
        keep = live[seg]
        unit_node[units[~keep]] = ids[seg[~keep]]
        if not live.any():
            break
        units = units[keep]
        orders = [o[keep] for o in orders]
        ids = ids[live]
        level_counts = None if counts is None else counts[live]
        depth = _Depth(sizes[live], node_rows[live], imp[live], w_float[units], level_counts)

        # score every predictor; a later one must be strictly better
        best = np.full(ids.size, gain_floor)
        best_pred = np.full(ids.size, -1)
        found = []
        numeric_orders = iter(orders)
        for j, (_, is_cat, values, n_levels) in enumerate(unit_cols):
            if is_cat:
                gain, *tables = _categorical_gains(
                    values, n_levels, units, tu, categorical, n_tgt_levels, depth, min_bucket
                )
                found.append(tables)
            else:
                gain, cut = _numeric_gains(
                    values, next(numeric_orders), tu, w, categorical, n_tgt_levels, depth,
                    min_bucket,
                )
                found.append(cut)
            better = gain > best
            best[better] = gain[better]
            best_pred[better] = j

        splitting = best_pred >= 0
        seg = depth.seg
        go_left = np.zeros(units.size, dtype=bool)
        for j in np.unique(best_pred[splitting]):
            _, is_cat, values, _ = unit_cols[j]
            at = np.flatnonzero(best_pred[seg] == j)
            v = values[units[at]]
            go_left[at] = found[j][0][seg[at], v] if is_cat else v <= found[j][seg[at]]
        seg_left = seg[go_left]
        n_left = np.bincount(seg_left, minlength=ids.size)
        # a split that leaves a child empty would reopen the same node forever
        empty = splitting & ((n_left == 0) | (n_left == depth.sizes))
        if empty.any():
            name = unit_cols[best_pred[np.argmax(empty)]][0]
            raise MethodError(f"cart: a split of {target.name!r} on {name!r} leaves a child empty")
        rows_left = np.bincount(seg_left, depth.weights[go_left], ids.size).astype(np.int64)

        winners = np.flatnonzero(splitting)
        at = ids - first_id  # each open node's place among its depth's nodes
        for j in np.unique(best_pred[winners]):
            p = winners[best_pred[winners] == j]
            if unit_cols[j][1]:
                left_tab, known = found[j]
                majority = rows_left[p] >= depth.rows[p] - rows_left[p]
                level_tables.append((n_level_rows, left_tab[p], known[p], majority))
                level_row[at[p]] = n_level_rows + np.arange(p.size)
                n_level_rows += p.size
            else:
                threshold[at[p]] = found[j][p]
        split_ids.append(ids[winners])
        split_col[at[winners]] = best_pred[winners]
        kid[at[winners]] = n_nodes + 2 * np.arange(winners.size)

        closed = ~splitting[seg]
        unit_node[units[closed]] = ids[seg[closed]]

        go_unit[units] = go_left
        units, *orders = depth.partition(
            [units, *orders], [go_left, *(go_unit[o] for o in orders)], splitting, n_left
        )
        ids = n_nodes + np.arange(2 * winners.size)
        n_nodes += 2 * winners.size
        sizes = np.column_stack([n_left, depth.sizes - n_left])[splitting].ravel()
        node_rows = np.column_stack([rows_left, depth.rows - rows_left])[splitting].ravel()

    kid, split_col, level_row, threshold = (np.concatenate(a) for a in zip(*by_depth))
    new_id, leaf_id = _depth_first_ids(split_ids, kid)
    bfs = np.argsort(new_id)  # the breadth-first id of each node id
    # level tables: one row per categorical split, one column per level code
    # of its predictor, and one past them all for the majority side
    width = 1 + max((known.shape[1] for _, _, known, _ in level_tables), default=0)
    goes_left = np.zeros((n_level_rows, width), dtype=bool)
    seen = np.zeros_like(goes_left)
    for start, left_tab, known, majority in level_tables:
        rows, k = slice(start, start + len(known)), known.shape[1]
        seen[rows, :k] = known
        goes_left[rows] = majority[:, None]
        goes_left[rows, :k] = np.where(known, left_tab, majority[:, None])

    # donor rows leaf by leaf in leaf-id order, each leaf's rows ascending
    donor_rows, leaf_offsets, leaf_sizes = _pools(leaf_id[unit_node][unit_of], (n_nodes + 1) // 2)
    return CartTree(
        target_name=target.name,
        target_kind=target.kind,
        target_values=t,
        columns=tuple(name for name, _, _, _ in pred_cols),
        left=np.where(kid[bfs] < 0, -1, new_id[kid[bfs]]),
        leaf_id=leaf_id[bfs],
        column=split_col[bfs],
        threshold=threshold[bfs],
        level_row=level_row[bfs],
        goes_left=goes_left,
        seen=seen,
        depth=sum(1 for ids in split_ids if ids.size),
        donor_rows=donor_rows,
        leaf_offsets=leaf_offsets,
        leaf_sizes=leaf_sizes,
        expanded=expanded,
    )


def route_rows(tree: CartTree, new_predictors: Dataset | None, n_rows: int | None = None) -> np.ndarray:
    """Leaf id per row of ``new_predictors``, expanded as ``fit_cart``
    expanded the training ones; unseen levels go majority-side.

    A row's leaf depends only on its split columns: on the code of a
    categorical one, and on where a numeric one falls among that column's
    thresholds.  Rows that agree on all of these form one cell, and each
    cell is routed once.  Cells move down one depth at a time; each node's
    test is read from the tree's arrays (threshold, or a row of the level
    table for categorical splits).
    """
    n = _draw_rows("cart", new_predictors, n_rows)
    used = np.unique(tree.column[tree.column >= 0]).tolist()
    if used and new_predictors is None:
        raise MethodError("cart: this tree needs predictor columns for sampling")
    split_on = _missing_rule(new_predictors.columns, tree.expanded) if used else None
    columns = {c: split_on.column(tree.columns[c]) for c in used}

    # each row's cell: its code per categorical split column, and per numeric
    # one the number of the column's thresholds below it (``v <= cut`` holds
    # exactly for the cuts from that index on)
    cell_codes = []
    for c, column in columns.items():
        if column.is_numeric:
            cuts = np.unique(tree.threshold[tree.column == c])
            cell_codes.append((np.searchsorted(cuts, column.values), cuts.size + 1))
        else:
            cell_codes.append((column.values, len(column.levels)))
    cell_of, first = distinct_cells(cell_codes, n)
    # each cell's value of every predictor it is split on (codes are exact as floats)
    values = np.zeros((first.size, len(tree.columns)))
    for c, column in columns.items():
        values[:, c] = column.values[first]

    leaf_of = np.empty(first.size, dtype=np.int64)
    cells = np.arange(first.size)
    at = np.zeros(first.size, dtype=np.int64)
    while cells.size:
        done = tree.leaf_id[at] >= 0
        leaf_of[cells[done]] = tree.leaf_id[at[done]]
        cells, at = cells[~done], at[~done]
        v = values[cells, tree.column[at]]
        go = v <= tree.threshold[at]
        row = tree.level_row[at]
        cat = np.flatnonzero(row >= 0)
        # codes past the level table were never seen: they read its last column
        code = np.minimum(v[cat], tree.goes_left.shape[1] - 1).astype(np.int64)
        go[cat] = tree.goes_left[row[cat], code]
        at = tree.left[at] + ~go  # right child: left + 1
    return leaf_of[cell_of]

