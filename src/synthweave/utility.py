"""Utility statistics for synthetic data: U_tab, pMSE/U_gen, diagnostics.

U_tab is the Neyman-denominator chi-square over an original/synthetic
cross-tabulation: sum of (s_i - y_i)^2 / ((y_i + s_i)/2) over cells with
y_i + s_i > 0, with df one less than the number of such cells.  U_gen is
8*N*pMSE from a propensity score fit on the stacked data; with the
table-saturated design the two are algebraically identical, and
``equivalence_check`` enforces that identity to 1e-8 relative.

A ``CellTable`` is built from counts only: the per-variable cell labels and
the two count vectors over the row-major product of those labels.
``cross_tabulate`` is the one place rows become cells; ``compare_bivariate``
reshapes its two-way table, and the statistics, the saturated fit and
``worst_cells`` read the arrays and build label strings only for the cells
they report.  ``equivalence_check`` cross-tabulates once and fits the
saturated model on that same table.
"""

from __future__ import annotations

import math
import sys
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .design import INTERCEPT, build_design, nonzero_pattern
from .errors import UtilityError, check_option
from .models import COEF_CAP, IrlsResult, irls_logit, solver_stats
from .plan import HIGH_CARDINALITY_THRESHOLD
from .tabular import Categorical, Column, Dataset, distinct_rows, stack_rows


_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _log_gamma_scaled(a: float) -> float:
    """log(a^a e^-a / Gamma(a)).  From a = 50 on by Stirling's series, whose
    first omitted term is below 1e-15 there; the direct difference would
    lose about log10(a log a) digits to cancellation."""
    if a < 50:
        return a * math.log(a) - a - math.lgamma(a)
    a2 = a * a
    return 0.5 * math.log(a / (2.0 * math.pi)) - (1 / 12 - (1 / 360 - 1 / (1260 * a2)) / a2) / a


def chisq_upper_tail(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution, Q(df/2, x/2).

    Q(a, y), the regularised upper incomplete gamma function, is 1 - P(a, y)
    from P's power series below y = a + 1, and its continued fraction
    (modified Lentz) above.  Both carry the factor y^a e^-y / Gamma(a),
    taken as exp(a log(y/a) - (y - a)) times a^a e^-a / Gamma(a): near
    y = a the exponent is small, where a log y - y would lose its digits to
    cancellation at U_tab's df of tens of thousands.  Relative error below
    1e-12 down to the smallest normal float64, most of it the rounding of the
    exponent far in the tail; exactly 1.0 at x = 0 and 0.0 at x = inf.
    """
    if not x >= 0:  # NaN fails too; infinity passes
        raise UtilityError("chi-square statistic must be >= 0")
    check_option(UtilityError, "df", df, 1, whole=True)
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    a, y = df / 2.0, x / 2.0
    # log(y/a) by log1p near y = a; far below it (y - a)/a can round to -1
    # and y itself to 0, so the logarithms of x and df are taken apart
    log_ratio = math.log1p((y - a) / a) if 2.0 * y > a else math.log(x) - math.log(df)
    front = math.exp(a * log_ratio - (y - a) + _log_gamma_scaled(a))
    # both expansions need O(sqrt(a)) terms near y = a
    max_terms = 100 + int(20 * math.sqrt(a))
    if y < a + 1:
        term = total = 1.0 / a
        for n in range(1, max_terms):
            term *= y / (a + n)
            total += term
            if term < total * _EPS:
                break
        return 1.0 - front * total
    b = y + 1.0 - a
    c = 1.0 / _TINY
    d = h = 1.0 / b
    for n in range(1, max_terms):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    return front * h


@dataclass(frozen=True)
class UtilityStat:
    statistic: float
    df: int
    ratio: float
    p_value: float | None

    @classmethod
    def from_statistic(cls, statistic: float, df: int, with_p: bool = True) -> "UtilityStat":
        p = chisq_upper_tail(statistic, df) if with_p else None
        return cls(float(statistic), int(df), float(statistic) / df, p)


# ---------------------------------------------------------------------------
# Cross-tabulation
# ---------------------------------------------------------------------------

class CellTable:
    """Original and synthetic counts over every combination of cell labels.

    ``labels[d]`` holds the cell labels of ``variables[d]``.  ``y`` and ``s``
    are read-only int64 count vectors over the row-major product of those
    labels (the last variable varies fastest), empty cells included, so
    ``k`` is the size of the full product and ``shape`` the number of labels
    of each variable.  A cell's labels are read back with
    ``np.unravel_index(i, table.shape)``.
    """

    def __init__(self, variables, labels, y, s):
        variables = _table_variables(variables)
        labels = tuple(tuple(lv) for lv in labels)
        if len(labels) != len(variables):
            raise UtilityError(
                f"{len(labels)} label tuples for {len(variables)} variables {variables!r}"
            )
        self.variables: tuple[str, ...] = variables
        self.labels: tuple[tuple[str, ...], ...] = labels
        self.shape = tuple(len(lv) for lv in labels)
        k = math.prod(self.shape)
        self.y: np.ndarray = _counts("y", y, k, self.shape)
        self.s: np.ndarray = _counts("s", s, k, self.shape)

    @property
    def k(self) -> int:
        return int(self.y.size)

    @property
    def n_combined(self) -> int:
        return int(self.y.sum() + self.s.sum())

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        return self.y.astype(np.float64), self.s.astype(np.float64)


def _table_variables(variables) -> tuple[str, ...]:
    variables = tuple(variables)
    if not variables:
        raise UtilityError("a cell table needs at least one variable")
    return variables


def _counts(name: str, values, k: int, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only int64 copy of ``values``, which must be k whole counts >= 0."""
    raw = np.asarray(values)
    if raw.shape != (k,):
        raise UtilityError(f"{name} has shape {raw.shape}, not ({k},) for labels of sizes {shape}")
    if raw.dtype.kind not in "biuf":
        raise UtilityError(f"{name} holds {raw.dtype} values, not counts")
    with np.errstate(invalid="ignore"):
        counts = raw.astype(np.int64)
    if not np.array_equal(counts, raw) or (counts < 0).any():
        raise UtilityError(f"{name} holds values that are not counts (whole numbers >= 0)")
    counts.setflags(write=False)
    return counts


MAX_TABLE_CELLS = 100_000
NA_LABEL = "NA"


def _bin_labels(breaks: np.ndarray) -> list[str]:
    labels = [f"(-inf,{breaks[0]:g}]"]
    labels += [f"({breaks[i - 1]:g},{breaks[i]:g}]" for i in range(1, len(breaks))]
    labels.append(f"({breaks[-1]:g},inf)")
    return labels


def _cell_codes(
    orig: Column,
    syn: Column,
    breaks=None,
    n_bins: int = 5,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Dense cell index per row in each dataset, plus the cell labels.

    Numeric columns are binned on quantile breaks computed from the original
    data only (quintiles by default); values outside the original range fall
    in the open extreme bins, and NaN forms its own cell when present.
    """
    if isinstance(orig.kind, Categorical):
        union = np.union1d(np.unique(orig.values), np.unique(syn.values))
        remap = np.full(len(orig.kind.levels), -1, dtype=np.int64)
        remap[union] = np.arange(len(union))
        labels = [orig.kind.levels[int(c)] for c in union]
        return remap[orig.values], remap[syn.values], labels

    obs = orig.values[~np.isnan(orig.values)]
    if obs.size == 0:
        raise UtilityError(f"column {orig.name!r} has no observed numeric values")
    if breaks is None:
        check_option(UtilityError, f"column {orig.name!r}: n_bins", n_bins, 2, whole=True)
        qs = np.quantile(obs, [i / n_bins for i in range(1, n_bins)])
    else:
        try:
            qs = np.asarray(breaks, dtype=np.float64)
        except (TypeError, ValueError):
            raise UtilityError(f"column {orig.name!r}: breaks must be numbers, got {breaks!r}") from None
        if qs.size == 0 or not np.isfinite(qs).all():
            raise UtilityError(
                f"column {orig.name!r}: breaks must be non-empty and finite, got {qs.tolist()!r}"
            )
    qs = np.unique(qs)
    labels = _bin_labels(qs)
    has_na = bool(np.isnan(orig.values).any() or np.isnan(syn.values).any())
    if has_na:
        labels = labels + [NA_LABEL]

    def assign(v: np.ndarray) -> np.ndarray:
        nan = np.isnan(v)
        codes = np.digitize(np.where(nan, qs[0], v), qs, right=True)
        if has_na:
            codes[nan] = len(qs) + 1
        return codes.astype(np.int64)

    return assign(orig.values), assign(syn.values), labels


def cross_tabulate(
    original: Dataset,
    synthetic: Dataset,
    variables,
    numeric_breaks: dict | None = None,
    n_bins: int = 5,
) -> CellTable:
    """Aligned original/synthetic counts over the cross product of cells."""
    variables = _table_variables(variables)
    for v in variables:
        if v not in original or v not in synthetic:
            raise UtilityError(f"variable {v!r} absent from one of the datasets")
    _check_kinds(original, synthetic, variables)
    per_var = [
        _cell_codes(
            original.column(v), synthetic.column(v),
            numeric_breaks.get(v) if numeric_breaks else None, n_bins,
        )
        for v in variables
    ]
    shape = tuple(len(lv) for _, _, lv in per_var)
    k_total = math.prod(shape)
    if k_total > MAX_TABLE_CELLS:
        raise UtilityError(f"table would have {k_total} cells (cap {MAX_TABLE_CELLS})")
    # row-major cell index over the full product, the layout of CellTable
    flat_o = np.ravel_multi_index([co for co, _, _ in per_var], shape)
    flat_s = np.ravel_multi_index([cs for _, cs, _ in per_var], shape)
    return CellTable(
        variables,
        [lv for _, _, lv in per_var],
        np.bincount(flat_o, minlength=k_total),
        np.bincount(flat_s, minlength=k_total),
    )


def _contributions(table: CellTable) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's term (s - y)^2 / ((y + s)/2) of u_tab, 0 in an empty cell,
    and the mask of populated cells."""
    y, s = table.counts()
    tot = y + s
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tot > 0, (s - y) ** 2 / (tot / 2.0), 0.0), tot > 0


def u_tab(table: CellTable) -> UtilityStat:
    """Neyman-denominator lack-of-fit statistic over populated cells."""
    contrib, populated = _contributions(table)
    k_pop = int(populated.sum())
    if k_pop < 2:
        raise UtilityError("u_tab needs at least 2 populated cells")
    return UtilityStat.from_statistic(float(contrib[populated].sum()), k_pop - 1)


def worst_cells(table: CellTable, top: int = 10) -> list[dict]:
    """Largest per-cell contributions to u_tab, for misfit diagnosis."""
    check_option(UtilityError, "top", top, 0, whole=True)
    contrib, _ = _contributions(table)
    order = np.argsort(-contrib, kind="stable")[:top]
    order = order[contrib[order] > 0]
    codes = zip(*np.unravel_index(order, table.shape))
    return [
        {
            "levels": [labels[c] for labels, c in zip(table.labels, cell_codes)],
            "y": int(table.y[i]),
            "s": int(table.s[i]),
            "contribution": float(contrib[i]),
        }
        for i, cell_codes in zip(order.tolist(), codes)
    ]


# ---------------------------------------------------------------------------
# Propensity score
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropensityFit(IrlsResult):
    """A propensity logit's result and what U_gen reads from it.  Its
    ``labels`` are the kept terms and ``cells`` the distinct stacked rows of
    the variables; the closed-form saturated fit has one term per populated
    cell, 0 iterations and a zero gradient norm."""
    model: str                      # "main_effects" | "interactions" | "table_saturated"
    term_variables: tuple[str, ...]  # the variable of each term
    pmse: float
    c: float                        # the synthetic share of the stacked rows
    n_combined: int

    @property
    def n_params(self) -> int:
        """Effective parameters, intercept included."""
        return len(self.kept)

    @property
    def z(self) -> np.ndarray:
        """Each coefficient over its standard error; NaN where that is not > 0."""
        se = self.standard_errors
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(se > 0, self.coefficients / se, np.nan)


def _check_schemas(original: Dataset, synthetic: Dataset) -> None:
    for role, data in (("original", original), ("synthetic", synthetic)):
        if data.n_rows == 0:
            raise UtilityError(f"the {role} dataset {data.name!r} has no rows")
    if set(original.names) != set(synthetic.names):
        raise UtilityError("datasets have different column sets")
    _check_kinds(original, synthetic, original.names)


def _check_kinds(original: Dataset, synthetic: Dataset, names) -> None:
    for name in names:
        if original.column(name).kind != synthetic.column(name).kind:
            raise UtilityError(f"column {name!r} has different kinds in the two datasets")


def _stacked_cells(original: Dataset, synthetic: Dataset, names) -> tuple:
    """The distinct rows of ``original`` and ``synthetic`` stacked, on the
    columns ``names``, with each one's count of rows and of synthetic rows.
    The row-level stack is freed on return, before any design is built."""
    stacked = stack_rows([original.select(names), synthetic.select(names)])
    cell_of, first = distinct_rows(stacked)
    trials = np.bincount(cell_of).astype(np.float64)
    successes = np.bincount(cell_of[original.n_rows:], minlength=first.size).astype(np.float64)
    return stacked.take(first), trials, successes


def fit_propensity(
    original: Dataset,
    synthetic: Dataset,
    model: str = "main_effects",
    variables=None,
    numeric_breaks: dict | None = None,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> PropensityFit:
    """Logistic discrimination of synthetic rows from original rows, on the
    columns ``variables`` (all columns when None).

    main_effects: dummy-coded categoricals and linear numerics, fit by IRLS.
    interactions: the main effects plus all two-way interactions between
    different variables (the default model of synthpop's ``utility.gen``),
    fit by the same IRLS; categoricals with more than
    HIGH_CARDINALITY_THRESHOLD levels enter as main effects only.  Its terms
    for the product of ``a`` and ``b`` carry the variable label ``"a*b"``.
    Unlike main effects, it sees damage to the dependence between pairs of
    variables, such as the damage per-variable bootstrap does.
    table_saturated: one parameter per populated cell of the cross-tabulation
    of ``variables``; the fitted score in cell i is exactly s_i/(s_i+y_i), so
    this route is computed in closed form rather than by iteration.
    """
    _check_schemas(original, synthetic)
    n_o, n_s = original.n_rows, synthetic.n_rows
    N = n_o + n_s
    c = n_s / N

    if model in ("main_effects", "interactions"):
        names = original.names if variables is None else tuple(variables)
        if not names:
            raise UtilityError(f"{model} model needs at least one variable; variables is empty")
        for v in names:
            if v not in original:
                raise UtilityError(f"propensity variable {v!r} absent from the datasets")
        # the fit runs on the distinct stacked rows, each with its counts
        cells, trials, successes = _stacked_cells(original, synthetic, names)
        crossed = ()
        if model == "interactions":
            crossed = tuple(
                col.name for col in cells.columns
                if not isinstance(col.kind, Categorical)
                or len(col.kind.levels) <= HIGH_CARDINALITY_THRESHOLD
            )
        design, X = build_design(cells, interactions=crossed)
        res = irls_logit(X, successes, trials, max_iter, tol, design.labels)
        if res.kept.size == 0:
            raise UtilityError(
                f"{model} propensity fit kept no design column, not even the intercept: "
                "every column looked aliased, as when numeric values are too large for "
                "their squares to be finite"
            )
        notes = design.notes + res.notes + _one_sided_terms(
            X, successes, trials, res.kept, design.labels
        )
        return PropensityFit(
            **(vars(res) | {"notes": notes}),
            model=model,
            term_variables=tuple(design.variables[j] for j in res.kept),
            # the mean over the N rows, each row at its cell's probability
            pmse=float(np.clip(trials @ (res.fitted - c) ** 2 / N, 0.0, c * (1 - c))),
            c=c,
            n_combined=N,
        )

    if model == "table_saturated":
        if not variables:
            raise UtilityError("table_saturated model needs the table variables")
        return _saturated_fit(cross_tabulate(original, synthetic, variables, numeric_breaks))

    raise UtilityError(f"unknown propensity model {model!r}")


def _one_sided_terms(
    X: scipy.sparse.csr_array, successes: np.ndarray, trials: np.ndarray, kept: np.ndarray, labels
) -> tuple[str, ...]:
    """One warning naming the kept terms whose nonzero rows all come from
    one side (quasi-separation), or none; row i of ``X`` stands for
    ``trials[i]`` rows, ``successes[i]`` of them synthetic.  The solver
    stops on a small score while such a coefficient is still running off,
    so it converges without a warning, but the coefficient and its standard
    error mean nothing."""
    rows = (nonzero_pattern(X).T @ np.column_stack([trials - successes, successes]))[kept]
    sides = [
        f"{side} only: " + ", ".join(labels[j] for j in kept[rows[:, other] == 0])
        for side, other in (("original", 1), ("synthetic", 0))
        if (rows[:, other] == 0).any()
    ]
    if not sides:
        return ()
    return (
        f"quasi-separation: {int((rows == 0).any(axis=1).sum())} propensity terms have "
        f"rows on one side only, so their coefficients and standard errors are "
        f"not meaningful ({'; '.join(sides)})",
    )


def _saturated_fit(table: CellTable) -> PropensityFit:
    """The table-saturated propensity fit, in closed form from the counts.

    One parameter per populated cell; its term is labelled
    ``"v1=level|v2=level|..."``, and only populated cells get a label.
    """
    y, s = table.counts()
    tot = y + s
    N = table.n_combined
    c = int(table.s.sum()) / N
    populated = tot > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p_cell = np.where(populated, s / np.where(populated, tot, 1.0), 0.0)
    pmse = float(np.clip((tot[populated] * (p_cell[populated] - c) ** 2).sum() / N, 0.0, c * (1 - c)))
    pp = p_cell[populated]
    with np.errstate(divide="ignore", invalid="ignore"):
        coefs = np.clip(np.log(pp / (1 - pp)), -COEF_CAP, COEF_CAP)
        w = tot[populated] * pp * (1 - pp)
        se = np.where(w > 0, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), np.nan)
    prefixes = [
        np.array([f"{v}={lv}" for lv in labels], dtype=object)
        for v, labels in zip(table.variables, table.labels)
    ]
    codes = np.unravel_index(np.flatnonzero(populated), table.shape)
    terms = tuple(map("|".join, zip(*(p[cd] for p, cd in zip(prefixes, codes)))))
    k = len(terms)
    return PropensityFit(
        coefficients=coefs, kept=np.arange(k), labels=terms, iterations=0, converged=True,
        final_gradient_norm=0.0, cells=k, notes=(), standard_errors=se, fitted=pp,
        model="table_saturated", term_variables=("*".join(table.variables),) * k,
        pmse=pmse, c=c, n_combined=N,
    )


def u_gen(fit: PropensityFit) -> UtilityStat:
    """8*N*pMSE with df = effective propensity parameters - 1.

    The chi-square p-value applies only when the two datasets have equal
    sizes (c = 1/2); otherwise the statistic is reported with p withheld.
    """
    stat = 8.0 * fit.n_combined * fit.pmse
    df = max(fit.n_params - 1, 1)
    if abs(fit.c - 0.5) < 1e-9:
        return UtilityStat.from_statistic(stat, df)
    _warnings.warn("unequal original/synthetic sizes: chi-square p-value withheld")
    return UtilityStat.from_statistic(stat, df, with_p=False)


@dataclass(frozen=True)
class EquivalenceReport:
    variables: tuple[str, ...]
    u_tab: UtilityStat
    u_gen: UtilityStat
    relative_gap: float


def equivalence_check(
    original: Dataset,
    synthetic: Dataset,
    variables,
    numeric_breaks: dict | None = None,
    tol: float = 1e-8,
) -> EquivalenceReport:
    """Assert the tabular/propensity identity: u_tab == 8*N*pMSE(saturated)."""
    check_option(UtilityError, "tol", tol, 0)
    _check_schemas(original, synthetic)
    if original.n_rows != synthetic.n_rows:
        raise UtilityError("equivalence identity requires equal dataset sizes")
    table = cross_tabulate(original, synthetic, variables, numeric_breaks)
    ut = u_tab(table)
    ug = u_gen(_saturated_fit(table))
    gap = abs(ut.statistic - ug.statistic) / max(ut.statistic, 1.0)
    if gap > tol:
        raise UtilityError(
            f"u_tab and 8N*pMSE disagree: {ut.statistic} vs {ug.statistic} "
            f"(relative gap {gap:.3e})"
        )
    return EquivalenceReport(tuple(variables), ut, ug, gap)


# ---------------------------------------------------------------------------
# Comparison tables (the numbers behind the usual plots)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoricalComparison:
    name: str
    levels: tuple[str, ...]
    prop_original: np.ndarray = field(repr=False)
    prop_synthetic: np.ndarray = field(repr=False)
    max_abs_diff: float = 0.0


@dataclass(frozen=True)
class NumericComparison:
    name: str
    edges: np.ndarray = field(repr=False)
    prop_original: np.ndarray = field(repr=False)
    prop_synthetic: np.ndarray = field(repr=False)
    stats_original: dict = field(default_factory=dict)
    stats_synthetic: dict = field(default_factory=dict)
    missing_rate_original: float = 0.0
    missing_rate_synthetic: float = 0.0
    range_exceeded: bool = False


@dataclass(frozen=True)
class UnivariateReport:
    comparisons: dict
    flags: tuple[str, ...]


def _numeric_stats(obs: np.ndarray) -> dict:
    if obs.size == 0:
        return {}
    q1, med, q3 = np.quantile(obs, [0.25, 0.5, 0.75])
    return {
        "min": float(obs.min()),
        "q1": float(q1),
        "median": float(med),
        "mean": float(obs.mean()),
        "q3": float(q3),
        "max": float(obs.max()),
    }


def _range_flags(original: Dataset, synthetic: Dataset) -> dict[str, str]:
    """The range rule: a flag for each numeric column whose observed
    synthetic values leave the original's observed [min, max], by name in
    column order.  A numeric column the original never observes raises."""
    flags = {}
    for o in original.columns:
        if isinstance(o.kind, Categorical):
            continue
        obs_o, obs_s = (c.values[~np.isnan(c.values)] for c in (o, synthetic.column(o.name)))
        if obs_o.size == 0:
            raise UtilityError(
                f"column {o.name!r} has no observed values in the original "
                f"dataset {original.name!r}"
            )
        lo, hi = obs_o.min(), obs_o.max()
        if obs_s.size and (obs_s.min() < lo or obs_s.max() > hi):
            flags[o.name] = (
                f"{o.name}: synthetic range [{obs_s.min():g}, {obs_s.max():g}] exceeds "
                f"original [{lo:g}, {hi:g}]"
            )
    return flags


def compare_univariate(original: Dataset, synthetic: Dataset, n_bins: int = 20) -> UnivariateReport:
    """Marginal comparison of every shared column; numeric histograms use
    original-data breaks so a synthetic tail outside the observed range is
    visible (and flagged)."""
    check_option(UtilityError, "n_bins", n_bins, 1, whole=True)
    _check_schemas(original, synthetic.select(original.names))
    out: dict = {}
    flags = _range_flags(original, synthetic)
    for name in original.names:
        o, s = original.column(name), synthetic.column(name)
        if isinstance(o.kind, Categorical):
            ko = np.bincount(o.values, minlength=len(o.kind.levels)) / max(o.n_rows, 1)
            ks = np.bincount(s.values, minlength=len(o.kind.levels)) / max(s.n_rows, 1)
            diff = float(np.abs(ko - ks).max()) if len(ko) else 0.0
            out[name] = CategoricalComparison(name, o.kind.levels, ko, ks, diff)
        else:
            vo, vs = o.values, s.values
            obs_o, obs_s = vo[~np.isnan(vo)], vs[~np.isnan(vs)]
            lo, hi = float(obs_o.min()), float(obs_o.max())
            edges = np.linspace(lo, hi, n_bins + 1)
            co = np.histogram(np.clip(obs_o, lo, hi), bins=edges)[0] / max(len(obs_o), 1)
            cs = np.histogram(np.clip(obs_s, lo, hi), bins=edges)[0] / max(len(obs_s), 1)
            out[name] = NumericComparison(
                name,
                edges,
                co,
                cs,
                _numeric_stats(obs_o),
                _numeric_stats(obs_s),
                float(np.isnan(vo).mean()),
                float(np.isnan(vs).mean()),
                name in flags,
            )
    return UnivariateReport(out, tuple(flags.values()))


@dataclass(frozen=True)
class BivariateComparison:
    """Percent distribution of one variable within bands of another."""

    variables: tuple[str, str]   # (inner variable, banding variable)
    bands: tuple[str, ...]
    levels: tuple[str, ...]
    pct_original: np.ndarray = field(repr=False)   # (bands, levels), row %
    pct_synthetic: np.ndarray = field(repr=False)
    max_abs_diff: float = 0.0


def compare_bivariate(
    original: Dataset,
    synthetic: Dataset,
    inner: str,
    by: str,
    numeric_breaks=None,
    n_bins: int = 5,
) -> BivariateComparison:
    """Tables like percent-married by age band, original next to synthetic."""
    _check_schemas(original, synthetic)
    table = cross_tabulate(original, synthetic, (by, inner), numeric_breaks, n_bins)

    def pct(counts):
        counts = counts.reshape(table.shape).astype(float)
        totals = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            return np.where(totals > 0, 100.0 * counts / totals, 0.0)

    po, ps = pct(table.y), pct(table.s)
    bands, levels = table.labels
    return BivariateComparison(
        (inner, by),
        bands,
        levels,
        po,
        ps,
        float(np.abs(po - ps).max()),
    )


# ---------------------------------------------------------------------------
# Coefficient diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnosis:
    flagged: tuple[tuple[str, float], ...]          # (term, z), |z| descending
    variables: tuple[str, ...]                      # source variables, worst first
    by_variable: tuple[tuple[str, tuple[tuple[str, float], ...]], ...]


def diagnose(fit: PropensityFit, threshold: float = 1.7) -> Diagnosis:
    """Propensity terms with |z| at or above threshold, grouped by variable."""
    check_option(UtilityError, "threshold", threshold, 0)
    entries = []
    for term, var, z in zip(fit.labels, fit.term_variables, fit.z):
        if term == INTERCEPT or not np.isfinite(z):
            continue
        if abs(z) >= threshold:
            entries.append((term, var, float(z)))
    entries.sort(key=lambda e: -abs(e[2]))
    grouped: dict[str, list[tuple[str, float]]] = {}  # in order of first flag
    for term, var, z in entries:
        grouped.setdefault(var, []).append((term, z))
    return Diagnosis(
        flagged=tuple((t, z) for t, _, z in entries),
        variables=tuple(grouped),
        by_variable=tuple((v, tuple(terms)) for v, terms in grouped.items()),
    )


def utility_report(
    original: Dataset,
    synthetic: Dataset,
    tables: list[tuple[str, ...]] | None = None,
    model: str = "main_effects",
) -> dict:
    """JSON-ready utility report: U_gen, per-table U_tab with worst cells.

    ``model`` is a ``fit_propensity`` model.  With the saturated model, U_gen
    is computed over the union of the requested tables' variables (all
    columns when no tables are given).
    """
    variables = None
    if model == "table_saturated":
        in_tables = {v for tbl in tables or [] for v in tbl}
        variables = [c for c in original.names if not in_tables or c in in_tables]
    fit = fit_propensity(original, synthetic, model=model, variables=variables)
    ug = u_gen(fit)
    diag = diagnose(fit)
    doc: dict = {
        "u_gen": {
            "model": fit.model,
            "statistic": ug.statistic,
            "df": ug.df,
            "ratio": ug.ratio,
            "p_value": ug.p_value,
            "pmse": fit.pmse,
            "flagged_terms": [{"term": t, "z": z} for t, z in diag.flagged],
            "flagged_variables": list(diag.variables),
            "warnings": list(fit.notes),
            **solver_stats(fit),
        },
        "tables": [],
        "flags": list(_range_flags(original, synthetic).values()),
    }
    for variables in tables or []:
        table = cross_tabulate(original, synthetic, variables)
        ut = u_tab(table)
        doc["tables"].append(
            {
                "variables": list(variables),
                "u_tab": ut.statistic,
                "df": ut.df,
                "ratio": ut.ratio,
                "p_value": ut.p_value,
                "worst_cells": worst_cells(table),
            }
        )
    return doc
