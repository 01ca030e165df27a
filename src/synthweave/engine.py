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
from dataclasses import dataclass, replace

import numpy as np

from .cart import MISSING_INDICATOR, CartTree
from .errors import DataError, MethodError, PlanError
from .models import NewtonResult, SampleFit, solver_stats
# fit_logit is unused here, but perfbench/test_perfbench.py checks that the
# tracer patches it through this module
from .models import fit_logit  # noqa: F401
from .plan import (
    COMPARISONS, Atom, MethodSpec, SynthesisPlan, level_code, plan_errors, validate_plan,
)
from .tabular import Categorical, Column, Dataset, Numeric, stack_rows


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
    synthetic: Dataset
    summaries: tuple[VariableSummary, ...]
    warnings: tuple[str, ...]
    strata: tuple[tuple[str, int], ...] | None = None


# levels of a stratifier with fewer rows are pooled into one stratum
MIN_STRATUM_ROWS = 100


def _substream(seed: int, *key: int) -> np.random.Generator:
    """The random stream ``key`` of a run seeded with ``seed``: the seed's
    value modulo 2**63, then the key, seed one ``SeedSequence``."""
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, *key]))


def _eval_atoms(atoms: tuple[Atom, ...], columns: dict[str, Column], n: int) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    for atom in atoms:
        col = columns[atom.var]
        compare = COMPARISONS[atom.op]
        if isinstance(col.kind, Categorical):
            mask &= compare(col.values, level_code(atom.var, col.kind, atom.value))
        else:
            # a missing cell never satisfies a condition, "!=" included
            mask &= compare(col.values, float(atom.value)) & ~np.isnan(col.values)
    return mask


@dataclass(frozen=True)
class _MissingAwareFit:
    """A missingness-indicator model plus a model of the observed values."""

    indicator: object
    observed: object
    notes: tuple[str, ...] = ()

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
        return SampleFit(target.values)
    ind = Column(f"{target.name}:missing", MISSING_INDICATOR, missing.astype(np.int64))
    ind_fit = indicator_spec.fit(ind, orig_preds)
    keep = np.flatnonzero(~missing)
    model = spec.fit(
        target.take(keep), orig_preds.take(keep) if orig_preds is not None else None
    )
    return _MissingAwareFit(ind_fit, model, ind_fit.notes + model.notes)


def _tree_stats(model) -> dict | None:
    """Size of a variable's CART trees, the missingness-indicator tree
    included: nodes and leaves summed, depth of the deepest."""
    parts = [model.indicator, model.observed] if isinstance(model, _MissingAwareFit) else [model]
    trees = [p for p in parts if isinstance(p, CartTree)]
    if not trees:
        return None
    return {
        "nodes": sum(t.n_nodes for t in trees),
        "leaves": sum(t.n_leaves for t in trees),
        "depth": max(t.depth for t in trees),
    }


def _solver_stats(model) -> dict | None:
    """How a variable's Newton fit ended, and the distinct predictor rows
    it ran on: a Logit or Multinomial target's, or a numeric target's
    missingness-indicator logit."""
    fit = model.indicator if isinstance(model, _MissingAwareFit) else model
    return solver_stats(fit) if isinstance(fit, NewtonResult) else None


def _synthesize_stratum(
    original: Dataset,
    plan: SynthesisPlan,
    stratum_index: int = 0,
    n_rows: int | None = None,
    stratum_label: str | None = None,
    fixed: tuple[Column, ...] = (),
) -> tuple[tuple[Column, ...], list[VariableSummary]]:
    """Synthesize one stratum; RNG substreams keyed by (stratum, position).

    ``fixed`` columns (a stratum's copied stratifier) are synthetic from the
    start: nested targets may group by them and rules may test them.
    Returns the synthetic columns (``fixed`` first, then the visit
    sequence) and one summary per variable."""
    n_out = n_rows if n_rows is not None else original.n_rows
    synth: dict[str, Column] = {c.name: c for c in fixed}
    orig_cols = {c.name: c for c in original.columns}
    summaries: list[VariableSummary] = []

    for pos, name in enumerate(plan.visit_sequence):
        started = time.perf_counter()
        rng = _substream(plan.seed, stratum_index, pos)
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
        if isinstance(target.kind, Numeric) and t_fit.missing_mask().any():
            model = _fit_with_missing(spec, t_fit, orig_preds)
        else:
            model = spec.fit(t_fit, orig_preds)
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
                    values[apply] = level_code(name, target.kind, rule.value)
                else:
                    values[apply] = float(rule.value)
                assigned |= cond
                forced += int(apply.sum())
        ruled = time.perf_counter()

        synth[name] = Column(name, target.kind, values)
        summaries.append(
            VariableSummary(
                name=name,
                method=spec.name,
                n_fit=int(fit_idx.size),
                elapsed=time.perf_counter() - started,
                rule_forced=forced,
                # the sample method bootstraps missing cells with the rest
                missing_indicator=isinstance(model, _MissingAwareFit),
                # a note shared by the indicator and the value fit is kept once
                warnings=tuple(dict.fromkeys(model.notes)),
                stratum=stratum_label,
                fit_s=fitted - started,
                sample_s=sampled - fitted,
                rules_s=ruled - sampled,
                tree=_tree_stats(model),
                solver=_solver_stats(model),
            )
        )

    return tuple(synth.values()), summaries


def synthesize(original: Dataset, plan: SynthesisPlan, n_rows: int | None = None) -> SynthesisRun:
    """Full synthesis of ``original`` under ``plan``.

    A plan without a stratifier is one stratum of all rows.  A stratified
    plan synthesizes each level of ``plan.stratifier`` independently, on its
    own RNG substream, with the stratifier copied verbatim: any table of
    stratifier by other variables is well fitted by construction, and a
    nested target may group by it.  Levels below ``MIN_STRATUM_ROWS`` rows
    are pooled into one stratum labelled ``(other)``, suffixed until no
    level of the stratifier has that label.
    """
    if original.n_rows == 0:
        raise DataError("empty dataset")
    whole = isinstance(n_rows, (int, np.integer)) and not isinstance(n_rows, bool)
    if n_rows is not None and (not whole or n_rows < 0):
        raise PlanError(f"n_rows must be a whole number >= 0, got {n_rows!r}")
    diags = validate_plan(plan, original)
    errs = plan_errors(diags)
    if errs:
        raise PlanError("plan invalid: " + "; ".join(d.message for d in errs))
    run_warnings = [d.message for d in diags if not d.is_error]

    stratifier = plan.stratifier
    if stratifier is None:
        sub_plan = plan
        strata: list[tuple[str | None, np.ndarray | None]] = [(None, None)]
    else:
        if n_rows is not None:
            raise PlanError(
                "stratified synthesis fixes the output to the stratum sizes; "
                "n_rows cannot be overridden"
            )
        # off the visit sequence the stratifier is neither a target nor, as
        # predictors_of keeps only preceding columns, a predictor; a nested
        # target still groups by the stratum's copy
        sub_plan = replace(
            plan,
            visit_sequence=tuple(c for c in plan.visit_sequence if c != stratifier),
            stratifier=None,
        )
        strat_col = original.column(stratifier)
        strata, pooled = [], []
        for code, level in enumerate(strat_col.kind.levels):
            idx = np.flatnonzero(strat_col.values == code)
            if idx.size >= MIN_STRATUM_ROWS:
                strata.append((level, idx))
            elif idx.size:
                pooled.append((level, idx))
        if pooled:
            label = "(other)"
            while label in strat_col.kind.levels:
                label += "+"
            strata.append((label, np.concatenate([idx for _, idx in pooled])))
            run_warnings.append(
                f"strata below {MIN_STRATUM_ROWS} rows pooled into one: "
                + ", ".join(level for level, _ in pooled)
            )

    parts: list[Dataset] = []
    summaries: list[VariableSummary] = []
    for index, (label, idx) in enumerate(strata):
        if idx is None:
            rows, fixed = original, ()
        else:
            rows = original.take(idx)
            fixed = (Column(stratifier, strat_col.kind, strat_col.values[idx]),)
        columns, stratum_summaries = _synthesize_stratum(
            rows, sub_plan, index, n_rows, label, fixed
        )
        parts.append(Dataset(columns))
        summaries.extend(stratum_summaries)
    for s in summaries:
        prefix = "" if s.stratum is None else f"[{s.stratum}] "
        run_warnings.extend(f"{prefix}{s.name}: {w}" for w in s.warnings)

    return SynthesisRun(
        plan=plan,
        synthetic=stack_rows(parts, f"{original.name}_synth"),
        summaries=tuple(summaries),
        warnings=tuple(run_warnings),
        strata=None if stratifier is None else tuple((label, int(idx.size)) for label, idx in strata),
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
