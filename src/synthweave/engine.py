"""One-variable-at-a-time synthesis driver.

Fits every conditional on the original data and samples with the synthetic
values of the predecessors (plug-in sequential scheme).  Rows matching a
rule's condition are excluded from that variable's fit and receive the forced
value in the output, so rules hold exactly.  Numeric targets with missing
cells get a synthesized missingness indicator; stratified runs synthesize
each stratum independently on its own RNG substream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MethodError, PlanError
from .models import MISSING_INDICATOR, CartFit, LogitFit, MultinomialFit, SampleFit
# fit_logit is unused here, but perfbench/test_perfbench.py checks that the
# tracer patches it through this module
from .models import fit_logit  # noqa: F401
from .plan import Atom, MethodSpec, SynthesisPlan, plan_errors, validate_plan
from .tabular import Categorical, Column, Dataset, Numeric


@dataclass(frozen=True)
class VariableSummary:
    name: str
    method: str
    n_fit: int
    elapsed: float
    rule_forced: int
    missing_indicator: bool
    warnings: tuple[str, ...]
    stratum: str | None = None
    fit_s: float = 0.0        # preparing the fit rows and fitting
    sample_s: float = 0.0
    rules_s: float = 0.0
    tree: dict | None = None  # CART only: nodes, leaves, depth
    solver: dict | None = None  # Newton fits only: iterations, converged, gradient_norm


@dataclass(frozen=True)
class SynthesisRun:
    plan: SynthesisPlan
    original: Dataset
    synthetic: Dataset
    summaries: tuple[VariableSummary, ...]
    warnings: tuple[str, ...]
    strata: tuple[tuple[str, int], ...] | None = None


def _level_code(kind: Categorical, value) -> int:
    """Map a rule literal onto a level code, tolerating 16.0 vs "16"."""
    candidates = [str(value)]
    if isinstance(value, float) and value.is_integer():
        candidates.append(str(int(value)))
    for cand in candidates:
        if cand in kind.levels:
            return kind.levels.index(cand)
    raise PlanError(f"{value!r} is not a level of the target")


def _eval_atoms(atoms: tuple[Atom, ...], columns: dict[str, Column], n: int) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    for atom in atoms:
        col = columns[atom.var]
        if isinstance(col.kind, Categorical):
            code = _level_code(col.kind, atom.value)
            hit = col.values == code
            mask &= hit if atom.op == "==" else ~hit
        else:
            v = col.values
            x = float(atom.value)
            if atom.op == "==":
                hit = v == x
            elif atom.op == "!=":
                hit = v != x
            elif atom.op == "<":
                hit = v < x
            elif atom.op == "<=":
                hit = v <= x
            elif atom.op == ">":
                hit = v > x
            else:
                hit = v >= x
            # NaN compares false: a missing cell never satisfies a condition
            mask &= np.where(np.isnan(v), False, hit)
    return mask


@dataclass(frozen=True)
class _MissingAwareFit:
    """A missingness-indicator model plus a model of the observed values."""

    indicator: object
    observed: object
    warnings: tuple[str, ...] = ()

    def sample(self, predictors: Dataset | None, rng: np.random.Generator, n: int) -> np.ndarray:
        missing = self.indicator.sample(predictors, rng, n) == 1
        values = self.observed.sample(predictors, rng, n).astype(np.float64)
        values[missing] = np.nan
        return values


def _fit_with_missing(spec: MethodSpec, target: Column, orig_preds: Dataset | None):
    """Two-step fit of a numeric column with missing cells: the method's
    ``missing_model`` fits a missingness indicator, the method itself the
    complete rows.  Without a missing model (the sample method) all cells
    are bootstrapped together, so the joint draw carries the rate."""
    missing = target.missing_mask()
    if missing.all():
        raise MethodError(f"{target.name}: all values missing")
    indicator_spec = spec.missing_model
    if indicator_spec is None:
        return SampleFit(target.name, target.kind, target.values)
    ind = Column(f"{target.name}:missing", MISSING_INDICATOR, missing.astype(np.int64))
    ind_fit = indicator_spec.fit(ind, orig_preds)
    keep = np.flatnonzero(~missing)
    model = spec.fit(
        target.take(keep), orig_preds.take(keep) if orig_preds is not None else None
    )
    return _MissingAwareFit(ind_fit, model, tuple(ind_fit.warnings) + tuple(model.warnings))


def _tree_stats(model) -> dict | None:
    """Size of a variable's CART trees, the missingness-indicator tree
    included: nodes and leaves summed, depth of the deepest."""
    parts = [model.indicator, model.observed] if isinstance(model, _MissingAwareFit) else [model]
    trees = [p.tree for p in parts if isinstance(p, CartFit)]
    if not trees:
        return None
    return {
        "nodes": sum(len(t.nodes) for t in trees),
        "leaves": sum(t.n_leaves for t in trees),
        "depth": max(t.depth for t in trees),
    }


def _solver_stats(model) -> dict | None:
    """How a variable's Newton fit ended: a Logit or Multinomial target's,
    or a numeric target's missingness-indicator logit."""
    fit = model.indicator if isinstance(model, _MissingAwareFit) else model
    if isinstance(fit, LogitFit):
        fit = fit.result
    elif not isinstance(fit, MultinomialFit):
        return None
    return {
        "iterations": fit.iterations,
        "converged": fit.converged,
        "gradient_norm": fit.final_gradient_norm,
    }


def _synthesize_stratum(
    original: Dataset,
    plan: SynthesisPlan,
    stratum_index: int = 0,
    n_rows: int | None = None,
    stratum_label: str | None = None,
    fixed: tuple[Column, ...] = (),
) -> SynthesisRun:
    """Synthesize one stratum; RNG substreams keyed by (stratum, position).

    ``fixed`` columns (a stratum's copied stratifier) are synthetic from the
    start: nested targets may group by them and rules may test them, but
    they are not part of the returned table."""
    n_out = n_rows if n_rows is not None else original.n_rows
    entropy = plan.seed % (2**63)
    synth: dict[str, Column] = {c.name: c for c in fixed}
    orig_cols = {c.name: c for c in original.columns}
    summaries: list[VariableSummary] = []
    run_warnings: list[str] = []

    for pos, name in enumerate(plan.visit_sequence):
        started = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence([entropy, stratum_index, pos]))
        target = original.column(name)
        spec = plan.methods[name]
        pred_names = plan.predictors_of(name)
        rules = plan.rules_for(name)

        excl = np.zeros(original.n_rows, dtype=bool)
        for rule in rules:
            excl |= _eval_atoms(rule.atoms(), orig_cols, original.n_rows)
        fit_idx = np.flatnonzero(~excl)
        if fit_idx.size == 0:
            raise MethodError(f"{name}: every original row is excluded by rules")

        t_fit = target.take(fit_idx)
        orig_preds = (
            original.select(pred_names).take(fit_idx) if pred_names else None
        )
        syn_preds = (
            Dataset(tuple(synth[p] for p in pred_names)) if pred_names else None
        )
        used_indicator = isinstance(target.kind, Numeric) and bool(t_fit.missing_mask().any())
        if used_indicator:
            model = _fit_with_missing(spec, t_fit, orig_preds)
        else:
            model = spec.fit(t_fit, orig_preds)
        fit_warnings = tuple(model.warnings)
        fitted = time.perf_counter()

        values = model.sample(syn_preds, rng, n_out)
        dtype = np.int64 if isinstance(target.kind, Categorical) else np.float64
        values = np.array(values, dtype=dtype)  # fresh writable copy for rules
        sampled = time.perf_counter()

        forced = 0
        if rules:
            assigned = np.zeros(n_out, dtype=bool)
            for rule in rules:
                cond = _eval_atoms(rule.atoms(), synth, n_out)
                apply = cond & ~assigned
                if isinstance(target.kind, Categorical):
                    values[apply] = _level_code(target.kind, rule.value)
                else:
                    values[apply] = float(rule.value)
                assigned |= cond
                forced += int(apply.sum())
        ruled = time.perf_counter()

        synth[name] = Column(name, target.kind, values)
        for w in fit_warnings:
            run_warnings.append(f"{name}: {w}")
        summaries.append(
            VariableSummary(
                name=name,
                method=spec.name,
                n_fit=int(fit_idx.size),
                elapsed=time.perf_counter() - started,
                rule_forced=forced,
                missing_indicator=used_indicator,
                warnings=fit_warnings,
                stratum=stratum_label,
                fit_s=fitted - started,
                sample_s=sampled - fitted,
                rules_s=ruled - sampled,
                tree=_tree_stats(model),
                solver=_solver_stats(model),
            )
        )

    synthetic = Dataset(
        tuple(synth[c] for c in plan.visit_sequence), name=f"{original.name}_synth"
    )
    return SynthesisRun(
        plan=plan,
        original=original,
        synthetic=synthetic,
        summaries=tuple(summaries),
        warnings=tuple(run_warnings),
    )


def _validated(plan: SynthesisPlan, original: Dataset) -> list[str]:
    if original.n_rows == 0:
        raise DataError("empty dataset")
    diags = validate_plan(plan, original)
    errs = plan_errors(diags)
    if errs:
        raise PlanError("plan invalid: " + "; ".join(d.message for d in errs))
    return [d.message for d in diags if not d.is_error]


def synthesize(original: Dataset, plan: SynthesisPlan, n_rows: int | None = None) -> SynthesisRun:
    """Full synthesis of ``original`` under ``plan`` (stratified if it says so)."""
    warnings0 = _validated(plan, original)
    if plan.stratifier is not None:
        if n_rows is not None:
            raise PlanError(
                "stratified synthesis fixes the output to the stratum sizes; "
                "n_rows cannot be overridden"
            )
        return _synthesize_strata(original, plan, warnings0)
    run = _synthesize_stratum(original, plan, stratum_index=0, n_rows=n_rows)
    return SynthesisRun(
        plan=run.plan,
        original=run.original,
        synthetic=run.synthetic,
        summaries=run.summaries,
        warnings=tuple(warnings0) + run.warnings,
    )


def synthesize_stratified(
    original: Dataset, plan: SynthesisPlan, min_stratum_rows: int = 100
) -> SynthesisRun:
    """Independent synthesis within each stratum of ``plan.stratifier``.

    The stratifier column is copied verbatim within each stratum, so any
    table of stratifier by other variables is well fitted by construction,
    and a nested target may group by it.
    Strata below ``min_stratum_rows`` are pooled into one remainder stratum,
    labelled ``(other)``, suffixed until no level of the stratifier has it.
    """
    warnings0 = _validated(plan, original)
    if plan.stratifier is None:
        raise PlanError("plan has no stratifier")
    return _synthesize_strata(original, plan, warnings0, min_stratum_rows)


def _synthesize_strata(
    original: Dataset, plan: SynthesisPlan, warnings0: list[str], min_stratum_rows: int = 100
) -> SynthesisRun:
    """The stratified run of an already validated plan."""
    strat_col = original.column(plan.stratifier)
    levels = strat_col.kind.levels

    sub_plan = SynthesisPlan(
        visit_sequence=tuple(c for c in plan.visit_sequence if c != plan.stratifier),
        methods={c: m for c, m in plan.methods.items() if c != plan.stratifier},
        predictor_matrix=None
        if plan.predictor_matrix is None
        else {
            t: tuple(p for p in preds if p != plan.stratifier)
            for t, preds in plan.predictor_matrix.items()
            if t != plan.stratifier
        },
        rules=plan.rules,
        stratifier=None,
        nesting=plan.nesting,
        seed=plan.seed,
    )

    groups: list[tuple[str, np.ndarray]] = []
    pooled: list[np.ndarray] = []
    pooled_levels: list[str] = []
    for code, level in enumerate(levels):
        idx = np.flatnonzero(strat_col.values == code)
        if idx.size == 0:
            continue
        if idx.size < min_stratum_rows:
            pooled.append(idx)
            pooled_levels.append(level)
        else:
            groups.append((level, idx))
    if pooled:
        label = "(other)"
        while label in levels:
            label += "+"
        groups.append((label, np.concatenate(pooled)))
        warnings0.append(
            f"strata below {min_stratum_rows} rows pooled into one: "
            + ", ".join(pooled_levels)
        )

    parts: list[Dataset] = []
    summaries: list[VariableSummary] = []
    run_warnings: list[str] = list(warnings0)
    strata_sizes: list[tuple[str, int]] = []
    for s_index, (label, idx) in enumerate(groups):
        sub = original.take(idx)
        strat_copy = Column(plan.stratifier, strat_col.kind, strat_col.values[idx])
        run = _synthesize_stratum(
            sub, sub_plan, stratum_index=s_index, stratum_label=label, fixed=(strat_copy,)
        )
        parts.append(
            Dataset((strat_copy,) + run.synthetic.columns, name=run.synthetic.name)
        )
        summaries.extend(run.summaries)
        run_warnings.extend(f"[{label}] {w}" for w in run.warnings)
        strata_sizes.append((label, int(idx.size)))

    names = parts[0].names
    cols = []
    for name in names:
        kind = parts[0].column(name).kind
        values = np.concatenate([p.column(name).values for p in parts])
        cols.append(Column(name, kind, values))
    synthetic = Dataset(tuple(cols), name=f"{original.name}_synth")
    return SynthesisRun(
        plan=plan,
        original=original,
        synthetic=synthetic,
        summaries=tuple(summaries),
        warnings=tuple(run_warnings),
        strata=tuple(strata_sizes),
    )


def run_report(run: SynthesisRun) -> dict:
    """JSON-ready report of what a synthesis run did."""
    doc: dict = {
        "rows": run.synthetic.n_rows,
        "columns": list(run.synthetic.names),
        "seed": run.plan.seed,
        "stratified": run.strata is not None,
        "variables": [
            {
                "name": s.name,
                "method": s.method,
                "stratum": s.stratum,
                "n_fit": s.n_fit,
                "elapsed_s": round(s.elapsed, 6),
                "fit_s": round(s.fit_s, 6),
                "sample_s": round(s.sample_s, 6),
                "rules_s": round(s.rules_s, 6),
                "tree": s.tree,
                "solver": s.solver,
                "rule_forced": s.rule_forced,
                "missing_indicator": s.missing_indicator,
                "warnings": list(s.warnings),
            }
            for s in run.summaries
        ],
        "warnings": list(run.warnings),
    }
    if run.strata is not None:
        doc["strata"] = [{"level": lv, "rows": n} for lv, n in run.strata]
    return doc
