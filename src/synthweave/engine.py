"""One-variable-at-a-time synthesis driver.

Each stratum is synthesized in two passes (plug-in sequential scheme).  The
fit pass reads only the original rows: it fits every conditional of the
visit sequence with the original predecessors as predictors.  The sample
pass reads only the synthetic predecessors and the ``fixed`` columns: it
draws each variable from its fitted model on its own RNG substream.  Rows
matching a rule's condition are excluded from that variable's fit and
receive the forced value in the output, so rules hold exactly.  Numeric
targets with missing cells get a synthesized missingness indicator;
stratified runs synthesize each stratum independently.
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
    COMPARISONS, Atom, SynthesisPlan, level_code, plan_errors, validate_plan,
)
from .tabular import Categorical, Column, Dataset, Numeric, VariableKind, stack_rows


@dataclass(frozen=True)
class VariableSummary:
    name: str
    method: str
    n_fit: int
    rule_forced: int
    missing_indicator: bool
    warnings: tuple[str, ...]
    stratum: str | None = None
    fit_s: float = 0.0        # preparing the fit rows and fitting
    sample_s: float = 0.0
    rules_s: float = 0.0
    tree: dict | None = None  # CART only: nodes, leaves, depth
    solver: dict | None = None  # Newton fits only: iterations, converged, gradient_norm

    @property
    def elapsed(self) -> float:
        return self.fit_s + self.sample_s + self.rules_s


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
class _FitRecord:
    """One variable's fitted conditional: the value model and, for a numeric
    target with missing cells, the missingness indicator's model."""

    kind: VariableKind
    model: object
    indicator: object | None
    n_fit: int
    fit_s: float  # preparing the fit rows and fitting


def _tree_stats(record: _FitRecord) -> dict | None:
    """Size of a variable's CART trees, the missingness-indicator tree
    included: nodes and leaves summed, depth of the deepest."""
    trees = [m for m in (record.indicator, record.model) if isinstance(m, CartTree)]
    if not trees:
        return None
    return {
        "nodes": sum(t.n_nodes for t in trees),
        "leaves": sum(t.n_leaves for t in trees),
        "depth": max(t.depth for t in trees),
    }


def _solver_stats(record: _FitRecord) -> dict | None:
    """How a variable's Newton fit ended, and the distinct predictor rows
    it ran on: a Logit or Multinomial target's, or a numeric target's
    missingness-indicator logit."""
    fit = record.model if record.indicator is None else record.indicator
    return solver_stats(fit) if isinstance(fit, NewtonResult) else None


def _fit_pass(original: Dataset, plan: SynthesisPlan) -> list[_FitRecord]:
    """Fit every variable of the visit sequence on the original rows that
    no rule of it excludes, with its original predecessors as predictors.

    A numeric target with missing cells is fit in two steps: the method's
    ``missing_model`` fits a missingness indicator, the method itself the
    complete rows.  Without a missing model (the sample method) all cells
    are bootstrapped together, so the joint draw carries the rate."""
    orig_cols = {c.name: c for c in original.columns}
    records = []
    for name in plan.visit_sequence:
        started = time.perf_counter()
        spec = plan.methods[name]
        excl = np.zeros(original.n_rows, dtype=bool)
        for rule in plan.rules_for(name):
            excl |= _eval_atoms(rule.atoms(), orig_cols, original.n_rows)
        fit_idx = np.flatnonzero(~excl)
        if fit_idx.size == 0:
            raise MethodError(f"{name}: every original row is excluded by rules")
        target = original.column(name).take(fit_idx)
        pred_names = plan.predictors_of(name)
        preds = original.select(pred_names).take(fit_idx) if pred_names else None
        missing = target.missing_mask() if isinstance(target.kind, Numeric) else None
        indicator = None
        if missing is None or not missing.any():
            model = spec.fit(target, preds)
        elif missing.all():
            raise MethodError(f"{name}: all values missing")
        elif spec.missing_model is None:
            model = SampleFit(target.values)
        else:
            flags = Column(f"{name}:missing", MISSING_INDICATOR, missing.astype(np.int64))
            indicator = spec.missing_model.fit(flags, preds)
            keep = np.flatnonzero(~missing)
            model = spec.fit(target.take(keep), preds.take(keep) if preds is not None else None)
        fit_s = time.perf_counter() - started
        records.append(_FitRecord(target.kind, model, indicator, int(fit_idx.size), fit_s))
    return records


def _sample_pass(
    records: list[_FitRecord], plan: SynthesisPlan, stratum_index: int, n_out: int,
    fixed: tuple[Column, ...],
) -> tuple[tuple[Column, ...], list[tuple[float, float, int]]]:
    """Draw ``n_out`` rows from the fitted ``records`` of ``plan``'s visit
    sequence, each variable on the substream (stratum, position) and with
    its synthetic predecessors as predictors, then apply its rules.

    ``fixed`` columns (a stratum's copied stratifier) are synthetic from the
    start: nested targets may group by them and rules may test them.
    Returns the synthetic columns (``fixed`` first, then the visit
    sequence) and, per variable, its sample and rule seconds and the
    number of rows its rules forced."""
    synth: dict[str, Column] = {c.name: c for c in fixed}
    drawn = []
    for pos, (name, record) in enumerate(zip(plan.visit_sequence, records, strict=True)):
        started = time.perf_counter()
        rng = _substream(plan.seed, stratum_index, pos)
        pred_names = plan.predictors_of(name)
        preds = Dataset(tuple(synth[p] for p in pred_names)) if pred_names else None
        if record.indicator is None:
            dtype = np.int64 if isinstance(record.kind, Categorical) else np.float64
            values = np.array(record.model.sample(preds, rng, n_out), dtype=dtype)  # writable copy
        else:
            missing = record.indicator.sample(preds, rng, n_out) == 1
            values = record.model.sample(preds, rng, n_out).astype(np.float64)
            values[missing] = np.nan
        sampled = time.perf_counter()

        forced = 0
        assigned = np.zeros(n_out, dtype=bool)
        for rule in plan.rules_for(name):
            cond = _eval_atoms(rule.atoms(), synth, n_out)
            apply = cond & ~assigned
            if isinstance(record.kind, Categorical):
                values[apply] = level_code(name, record.kind, rule.value)
            else:
                values[apply] = float(rule.value)
            assigned |= cond
            forced += int(apply.sum())
        synth[name] = Column(name, record.kind, values)
        drawn.append((sampled - started, time.perf_counter() - sampled, forced))
    return tuple(synth.values()), drawn


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
        try:
            records = _fit_pass(rows, sub_plan)
            columns, drawn = _sample_pass(
                records, sub_plan, index, rows.n_rows if n_rows is None else n_rows, fixed
            )
        except MethodError as exc:
            if label is None:
                raise
            raise MethodError(f"[{label}] {exc}") from exc
        parts.append(Dataset(columns))
        for name, record, (sample_s, rules_s, forced) in zip(sub_plan.visit_sequence, records, drawn):
            ind_notes = record.indicator.notes if record.indicator is not None else ()
            summaries.append(VariableSummary(
                name, sub_plan.methods[name].name, record.n_fit, forced,
                # the sample method bootstraps missing cells with the rest
                missing_indicator=record.indicator is not None,
                # a note shared by the indicator and the value fit is kept once
                warnings=tuple(dict.fromkeys(ind_notes + record.model.notes)),
                stratum=label, fit_s=record.fit_s, sample_s=sample_s, rules_s=rules_s,
                tree=_tree_stats(record), solver=_solver_stats(record),
            ))
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
