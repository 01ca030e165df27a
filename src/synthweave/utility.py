"""Utility statistics for synthetic data: U_tab, pMSE/U_gen, diagnostics.

U_tab is the Neyman-denominator chi-square over an original/synthetic
cross-tabulation: sum of (s_i - y_i)^2 / ((y_i + s_i)/2) over cells with
y_i + s_i > 0, with df one less than the number of such cells.  U_gen is
8*N*pMSE from a propensity score fit on the stacked data; with the
table-saturated design the two are algebraically identical, and
``equivalence_check`` enforces that identity to 1e-8 relative.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc

from .design import INTERCEPT, build_design
from .errors import UtilityError
from .models import COEF_CAP, _expit, _predict, irls_logit
from .plan import HIGH_CARDINALITY_THRESHOLD
from .tabular import Categorical, Column, Dataset, Numeric


def chisq_upper_tail(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution, Q(df/2, x/2)."""
    if x < 0:
        raise UtilityError("chi-square statistic must be >= 0")
    if df < 1:
        raise UtilityError("df must be >= 1")
    return float(gammaincc(df / 2.0, x / 2.0))


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

@dataclass(frozen=True)
class Cell:
    levels: tuple[str, ...]
    y: int
    s: int


@dataclass(frozen=True)
class CellTable:
    variables: tuple[str, ...]
    cells: tuple[Cell, ...]

    @property
    def k(self) -> int:
        return len(self.cells)

    @property
    def n_combined(self) -> int:
        return sum(c.y + c.s for c in self.cells)

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        y = np.array([c.y for c in self.cells], dtype=np.float64)
        s = np.array([c.s for c in self.cells], dtype=np.float64)
        return y, s


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
    if orig.kind != syn.kind:
        raise UtilityError(f"column {orig.name!r} has different kinds in the two datasets")
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
        qs = np.quantile(obs, [i / n_bins for i in range(1, n_bins)])
    else:
        qs = np.asarray(breaks, dtype=np.float64)
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
    variables = tuple(variables)
    for v in variables:
        if v not in original or v not in synthetic:
            raise UtilityError(f"variable {v!r} absent from one of the datasets")
    per_var = []
    sizes = []
    for v in variables:
        brk = numeric_breaks.get(v) if numeric_breaks else None
        co, cs, labels = _cell_codes(
            original.column(v), synthetic.column(v), brk, n_bins
        )
        per_var.append((co, cs, labels))
        sizes.append(len(labels))
    k_total = int(np.prod(sizes))
    if k_total > MAX_TABLE_CELLS:
        raise UtilityError(f"table would have {k_total} cells (cap {MAX_TABLE_CELLS})")

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
            Cell(
                tuple(label_lists[d][i] for d, i in enumerate(idx)),
                int(y[flat]),
                int(s[flat]),
            )
        )
    return CellTable(variables, tuple(cells))


def u_tab(table: CellTable) -> UtilityStat:
    """Neyman-denominator lack-of-fit statistic over populated cells."""
    y, s = table.counts()
    tot = y + s
    populated = tot > 0
    k_pop = int(populated.sum())
    if k_pop < 2:
        raise UtilityError("u_tab needs at least 2 populated cells")
    stat = float((((s - y) ** 2)[populated] / (tot[populated] / 2.0)).sum())
    return UtilityStat.from_statistic(stat, k_pop - 1)


def worst_cells(table: CellTable, top: int = 10) -> list[dict]:
    """Largest per-cell contributions to u_tab, for misfit diagnosis."""
    y, s = table.counts()
    tot = y + s
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(tot > 0, (s - y) ** 2 / (tot / 2.0), 0.0)
    order = np.argsort(-contrib, kind="stable")[:top]
    return [
        {
            "levels": list(table.cells[i].levels),
            "y": table.cells[i].y,
            "s": table.cells[i].s,
            "contribution": float(contrib[i]),
        }
        for i in order
        if contrib[i] > 0
    ]


# ---------------------------------------------------------------------------
# Propensity score
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropensityFit:
    model: str                      # "main_effects" | "interactions" | "table_saturated"
    terms: tuple[str, ...]
    term_variables: tuple[str, ...]
    coefficients: np.ndarray = field(repr=False)
    standard_errors: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    pmse: float = 0.0
    c: float = 0.5
    n_combined: int = 0
    n_params: int = 0               # effective parameters, intercept included
    warnings: tuple[str, ...] = ()
    iterations: int = 0             # solver iterations; 0 for the closed form
    converged: bool = True
    gradient_norm: float = 0.0      # max |score| when the solver stopped


def _check_schemas(original: Dataset, synthetic: Dataset) -> None:
    if set(original.names) != set(synthetic.names):
        raise UtilityError("datasets have different column sets")
    for name in original.names:
        if original.column(name).kind != synthetic.column(name).kind:
            raise UtilityError(f"column {name!r} has different kinds in the two datasets")


def _stack(original: Dataset, synthetic: Dataset) -> Dataset:
    cols = []
    for name in original.names:
        o, s = original.column(name), synthetic.column(name)
        cols.append(Column(name, o.kind, np.concatenate([o.values, s.values])))
    return Dataset(tuple(cols), name="stacked")


def fit_propensity(
    original: Dataset,
    synthetic: Dataset,
    model: str = "main_effects",
    variables=None,
    numeric_breaks: dict | None = None,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> PropensityFit:
    """Logistic discrimination of synthetic rows from original rows.

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
        stacked = _stack(original, synthetic.select(original.names))
        crossed = ()
        if model == "interactions":
            crossed = tuple(
                col.name for col in stacked.columns
                if not isinstance(col.kind, Categorical)
                or len(col.kind.levels) <= HIGH_CARDINALITY_THRESHOLD
            )
        design = build_design(stacked, interactions=crossed)
        X = design.matrix(stacked)
        y = np.concatenate([np.zeros(n_o), np.ones(n_s)])
        res = irls_logit(X, y, max_iter, tol, design.labels)
        p_hat = _expit(_predict(X, res.kept, res.coefficients))
        pmse = float(np.clip(np.mean((p_hat - c) ** 2), 0.0, c * (1 - c)))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(res.standard_errors > 0, res.coefficients / res.standard_errors, np.nan)
        variables_kept = tuple(design.variables[j] for j in res.kept)
        return PropensityFit(
            model=model,
            terms=res.labels,
            term_variables=variables_kept,
            coefficients=res.coefficients,
            standard_errors=res.standard_errors,
            z=z,
            pmse=pmse,
            c=c,
            n_combined=N,
            n_params=len(res.kept),
            warnings=tuple(design.notes) + tuple(res.notes),
            iterations=res.iterations,
            converged=res.converged,
            gradient_norm=res.final_gradient_norm,
        )

    if model == "table_saturated":
        if not variables:
            raise UtilityError("table_saturated model needs the table variables")
        table = cross_tabulate(original, synthetic, variables, numeric_breaks)
        y, s = table.counts()
        tot = y + s
        populated = tot > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            p_cell = np.where(populated, s / np.where(populated, tot, 1.0), 0.0)
        pmse = float(np.clip((tot[populated] * (p_cell[populated] - c) ** 2).sum() / N, 0.0, c * (1 - c)))
        pp = p_cell[populated]
        with np.errstate(divide="ignore", invalid="ignore"):
            coefs = np.clip(np.log(pp / (1 - pp)), -COEF_CAP, COEF_CAP)
            w = tot[populated] * pp * (1 - pp)
            se = np.where(w > 0, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), np.nan)
            z = np.where(np.isfinite(se) & (se > 0), coefs / se, np.nan)
        labels = tuple(
            "|".join(f"{v}={lv}" for v, lv in zip(table.variables, cell.levels))
            for cell, pop in zip(table.cells, populated)
            if pop
        )
        var_label = "*".join(table.variables)
        return PropensityFit(
            model="table_saturated",
            terms=labels,
            term_variables=tuple(var_label for _ in labels),
            coefficients=coefs,
            standard_errors=se,
            z=z,
            pmse=pmse,
            c=c,
            n_combined=N,
            n_params=int(populated.sum()),
            warnings=(),
        )

    raise UtilityError(f"unknown propensity model {model!r}")


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
    if original.n_rows != synthetic.n_rows:
        raise UtilityError("equivalence identity requires equal dataset sizes")
    table = cross_tabulate(original, synthetic, variables, numeric_breaks)
    ut = u_tab(table)
    fit = fit_propensity(
        original, synthetic, model="table_saturated", variables=variables,
        numeric_breaks=numeric_breaks,
    )
    ug = u_gen(fit)
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


def _numeric_stats(v: np.ndarray) -> dict:
    obs = v[~np.isnan(v)]
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


def compare_univariate(original: Dataset, synthetic: Dataset, n_bins: int = 20) -> UnivariateReport:
    """Marginal comparison of every shared column; numeric histograms use
    original-data breaks so a synthetic tail outside the observed range is
    visible (and flagged)."""
    _check_schemas(original, synthetic.select(original.names))
    out: dict = {}
    flags: list[str] = []
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
            exceeded = bool(
                obs_s.size and (obs_s.min() < lo or obs_s.max() > hi)
            )
            if exceeded:
                flags.append(
                    f"{name}: synthetic range [{obs_s.min():g}, {obs_s.max():g}] exceeds "
                    f"original [{lo:g}, {hi:g}]"
                )
            out[name] = NumericComparison(
                name,
                edges,
                co,
                cs,
                _numeric_stats(vo),
                _numeric_stats(vs),
                float(np.isnan(vo).mean()),
                float(np.isnan(vs).mean()),
                exceeded,
            )
    return UnivariateReport(out, tuple(flags))


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
    ci_o, ci_s, inner_labels = _cell_codes(
        original.column(inner), synthetic.column(inner),
        numeric_breaks.get(inner) if numeric_breaks else None, n_bins,
    )
    cb_o, cb_s, band_labels = _cell_codes(
        original.column(by), synthetic.column(by),
        numeric_breaks.get(by) if numeric_breaks else None, n_bins,
    )
    nb, nl = len(band_labels), len(inner_labels)

    def pct(cb, ci):
        counts = np.bincount(cb * nl + ci, minlength=nb * nl).reshape(nb, nl).astype(float)
        totals = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            return np.where(totals > 0, 100.0 * counts / totals, 0.0)

    po, ps = pct(cb_o, ci_o), pct(cb_s, ci_s)
    return BivariateComparison(
        (inner, by),
        tuple(band_labels),
        tuple(inner_labels),
        po,
        ps,
        float(np.abs(po - ps).max()),
    )


# ---------------------------------------------------------------------------
# Coefficient diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnosis:
    threshold: float
    flagged: tuple[tuple[str, float], ...]          # (term, z), |z| descending
    variables: tuple[str, ...]                      # source variables, worst first
    by_variable: tuple[tuple[str, tuple[tuple[str, float], ...]], ...]


def diagnose(fit: PropensityFit, threshold: float = 1.7) -> Diagnosis:
    """Propensity terms with |z| at or above threshold, grouped by variable."""
    entries = []
    for term, var, z in zip(fit.terms, fit.term_variables, fit.z):
        if term == INTERCEPT or not np.isfinite(z):
            continue
        if abs(z) >= threshold:
            entries.append((term, var, float(z)))
    entries.sort(key=lambda e: -abs(e[2]))
    grouped: dict[str, list[tuple[str, float]]] = {}
    order: list[str] = []
    for term, var, z in entries:
        if var not in grouped:
            grouped[var] = []
            order.append(var)
        grouped[var].append((term, z))
    return Diagnosis(
        threshold=threshold,
        flagged=tuple((t, z) for t, _, z in entries),
        variables=tuple(order),
        by_variable=tuple((v, tuple(grouped[v])) for v in order),
    )


def utility_report(
    original: Dataset,
    synthetic: Dataset,
    tables: list[tuple[str, ...]] | None = None,
    model: str = "main_effects",
    z_threshold: float = 1.7,
) -> dict:
    """JSON-ready utility report: U_gen, per-table U_tab with worst cells.

    ``model`` is a ``fit_propensity`` model.  With the saturated model, U_gen
    is computed over the union of the requested tables' variables (all
    columns when no tables are given).
    """
    if model in ("main_effects", "interactions"):
        fit = fit_propensity(original, synthetic, model=model)
    elif model == "table_saturated":
        in_tables = {v for tbl in tables or [] for v in tbl}
        variables = [c for c in original.names if not in_tables or c in in_tables]
        fit = fit_propensity(
            original, synthetic, model="table_saturated", variables=variables
        )
    else:
        raise UtilityError(f"unknown propensity model {model!r}")
    ug = u_gen(fit)
    diag = diagnose(fit, z_threshold)
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
            "warnings": list(fit.warnings),
            "iterations": fit.iterations,
            "converged": fit.converged,
            "gradient_norm": fit.gradient_norm,
        },
        "tables": [],
        "flags": list(compare_univariate(original, synthetic).flags),
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
