"""Declarative synthesis plans: methods, visit order, predictors, rules.

A method is one class here (its name, the target kind it accepts, the model
of a numeric target's missing cells, and ``fit``) plus its entry in
``METHODS``.  The engine, the plan JSON and the kind checks read only those,
so a new method needs no other edit.  Numeric predictors with missing cells
are the fitted models' business: the design layer and ``fit_cart`` both
turn them into a missing indicator plus zero-filled values.

A plan is validated against a concrete Dataset before any fitting happens;
`validate_plan` returns diagnostics rather than raising so a caller can show
every problem at once.  Guideline checks (too many categories, high-cardinality
variables early in the sequence) surface as warnings, never errors.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Mapping, Sequence, Union

from . import cart, models
from .errors import MethodError, PlanError, check_option
from .tabular import Categorical, Column, Dataset, Numeric, VariableKind, _read_json, _rewritten

# Categorical variables above this many levels trigger grouping / ordering
# warnings.  Chosen between the level counts that were workable (<= 29) and
# the ones that were not (76+) in large census extracts.
HIGH_CARDINALITY_THRESHOLD = 40


# ---------------------------------------------------------------------------
# Methods
# ---------------------------------------------------------------------------

class MethodSpec:
    """A conditional model for one column: a frozen dataclass whose fields
    are its plan-file options, plus its entry in ``METHODS``.  It names its
    plan-file kind (``name``) and the target kind it accepts (``target_kind``,
    None for any); ``missing_model`` synthesizes the missingness indicator
    of a numeric target (None: missing cells are bootstrapped with the rest);
    ``fit(target, predictors)`` returns a model with ``sample(predictors,
    rng, n)`` and ``notes``, the messages of its fit.  A draw returns ``n``
    values: predictors that have columns must have ``n`` rows, or it raises a
    ``MethodError`` naming the method and both counts; without predictor
    columns ``n`` is the count.  ``check_options`` raises the fit
    function's ``MethodError`` for an option value it rejects, which a plan
    reports as a ``PlanError``.
    """

    name: ClassVar[str]
    target_kind: ClassVar[type | None] = None

    def __post_init__(self):
        try:
            self.check_options()
        except MethodError as exc:
            raise PlanError(str(exc)) from None

    def check_options(self) -> None:
        pass

    @property
    def missing_model(self) -> MethodSpec | None:
        return Logit()

    def target_error(self, column: str, kind: VariableKind) -> str | None:
        """Why this method cannot synthesize ``column`` of ``kind``, or None."""
        if self.target_kind is None or isinstance(kind, self.target_kind):
            return None
        kind_name = self.target_kind.__name__.lower()
        return f"{self.name} method requires {kind_name} target, got {column!r}"

    def fit(self, target: Column, predictors: Dataset | None):
        raise NotImplementedError


@dataclass(frozen=True)
class Sample(MethodSpec):
    """Bootstrap: draw i.i.d. from the observed values."""

    name = "sample"

    @property
    def missing_model(self) -> None:
        return None

    def fit(self, target, predictors):
        return models.fit_sample(target)


@dataclass(frozen=True)
class Cart(MethodSpec):
    min_bucket: int = 5
    complexity: float = 1e-8

    name = "cart"

    def check_options(self):
        cart.check_cart_options(self.min_bucket, self.complexity)

    @property
    def missing_model(self) -> Cart:
        return self

    def fit(self, target, predictors):
        return cart.fit_cart(target, predictors, self.min_bucket, self.complexity)


@dataclass(frozen=True)
class NormRank(MethodSpec):
    """Normal-scores regression with empirical-quantile back-transform."""

    residual_scale: float = 1.0

    name = "normrank"
    target_kind = Numeric

    def check_options(self):
        models.check_residual_scale(self.residual_scale)

    def fit(self, target, predictors):
        return models.fit_normrank(target, predictors, self.residual_scale)


@dataclass(frozen=True)
class TransformNormal(MethodSpec):
    transform: str = "identity"  # sqrt | cuberoot | identity

    name = "transform_normal"
    target_kind = Numeric

    def check_options(self):
        models.check_transform(self.transform)

    def fit(self, target, predictors):
        return models.fit_transform_normal(target, predictors, self.transform)


@dataclass(frozen=True)
class _Newton(MethodSpec):
    """The options of a categorical method fit by the Newton solver."""

    max_iter: int = 100
    tol: float = 1e-6

    target_kind = Categorical

    def check_options(self):
        models.check_newton_options(self.name, self.max_iter, self.tol)


@dataclass(frozen=True)
class Logit(_Newton):
    name = "logit"

    def target_error(self, column, kind):
        if isinstance(kind, Categorical) and len(kind.levels) != 2:
            n_levels = len(kind.levels)
            return f"logit method requires a binary target, {column!r} has {n_levels} levels"
        return super().target_error(column, kind)

    def fit(self, target, predictors):
        return models.fit_logit(target, predictors, self.max_iter, self.tol)


@dataclass(frozen=True)
class Multinomial(_Newton):
    name = "multinomial"

    def fit(self, target, predictors):
        return models.fit_multinomial(target, predictors, self.max_iter, self.tol)


@dataclass(frozen=True)
class Nested(MethodSpec):
    """Bootstrap within an already-synthesized grouping column, which is the
    target's only predictor (``SynthesisPlan.predictors_of``).  This method
    is a plan's only declaration that a target nests in a group; the plan
    file's ``"nesting"`` map is shorthand for it."""

    group_column: str

    name = "nested"
    target_kind = Categorical

    def __post_init__(self):
        if not isinstance(self.group_column, str):
            raise PlanError(
                f"nested: group_column must be a column name, got {self.group_column!r}"
            )

    def fit(self, target, predictors):
        return models.fit_nested(target, predictors.column(self.group_column))


METHODS: dict[str, type[MethodSpec]] = {
    cls.name: cls
    for cls in (Sample, Cart, NormRank, TransformNormal, Logit, Multinomial, Nested)
}


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

_OP_ALIASES = {"=": "==", "≠": "!=", "≤": "<=", "≥": ">="}
# what each condition operator computes, elementwise on a column's values
COMPARISONS = {
    "==": operator.eq, "!=": operator.ne, "<=": operator.le,
    ">=": operator.ge, "<": operator.lt, ">": operator.gt,
}

_ATOM_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_.-]*)\s*(==|!=|<=|>=|<|>|=|≠|≤|≥)\s*(.+?)\s*$"
)


@dataclass(frozen=True)
class Atom:
    var: str
    op: str  # a key of COMPARISONS
    value: Union[str, float]


def level_code(column: str, kind: Categorical, value: Union[str, float]) -> int:
    """The code of the level of ``column`` that a rule literal names.  A
    number names the level spelled like it, or like its integer when it is
    whole: ``g == 16`` parses 16 as 16.0 and names level "16"."""
    texts = [str(value)]
    if isinstance(value, float) and value.is_integer():
        texts.append(str(int(value)))
    for text in texts:
        if text in kind.levels:
            return kind.levels.index(text)
    raise PlanError(f"{value!r} is not a level of {column!r}")


def _parse_literal(text: str) -> Union[str, float]:
    text = text.strip()
    if (text.startswith("'") and text.endswith("'") and len(text) >= 2) or (
        text.startswith('"') and text.endswith('"') and len(text) >= 2
    ):
        return text[1:-1]
    try:
        return float(text)
    except ValueError:
        return text  # bare word: a categorical level


def parse_condition(text: str) -> tuple[Atom, ...]:
    """Parse a conjunction like ``age < 16 and sex == 'F'`` into atoms.

    Only AND is supported; a disjunction is written as several rules with
    the same target.
    """
    if not isinstance(text, str):
        raise PlanError(f"condition must be a string, got {text!r}")
    parts = re.split(r"\s+(?:and|AND|&&?)\s+", text.strip())
    atoms = []
    for part in parts:
        m = _ATOM_RE.match(part)
        if not m:
            raise PlanError(f"malformed condition atom: {part!r}")
        var, op, lit = m.groups()
        atoms.append(Atom(var, _OP_ALIASES.get(op, op), _parse_literal(lit)))
    return tuple(atoms)


@dataclass(frozen=True)
class Rule:
    """condition over earlier columns  =>  forced value for target."""

    target: str
    condition: str
    value: Union[str, float]

    @cached_property
    def _atoms(self) -> tuple[Atom, ...]:
        # cached in the instance dict, so a valid condition is parsed once;
        # a malformed one raises here (and ``validate_plan`` reports it)
        return parse_condition(self.condition)

    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthesisPlan:
    visit_sequence: tuple[str, ...]
    methods: Mapping[str, MethodSpec] = field(default_factory=dict)
    predictor_matrix: Mapping[str, tuple[str, ...]] | None = None
    rules: tuple[Rule, ...] = ()
    stratifier: str | None = None
    seed: int = 0

    def __post_init__(self):
        check_option(PlanError, "seed", self.seed, whole=True)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "visit_sequence", tuple(self.visit_sequence))
        object.__setattr__(self, "rules", tuple(self.rules))
        methods = dict(self.methods)
        for i, col in enumerate(self.visit_sequence):
            if col not in methods:
                methods[col] = Sample() if i == 0 else Cart()
        object.__setattr__(self, "methods", methods)
        if self.predictor_matrix is not None:
            object.__setattr__(
                self,
                "predictor_matrix",
                {t: tuple(ps) for t, ps in self.predictor_matrix.items()},
            )

    def predictors_of(self, target: str) -> tuple[str, ...]:
        """Selected predictors: the group column of a ``Nested`` target
        alone, else the explicit row if given, else all preceding."""
        spec = self.methods.get(target)
        if isinstance(spec, Nested):
            return (spec.group_column,)
        pos = self.visit_sequence.index(target)
        preceding = self.visit_sequence[:pos]
        if self.predictor_matrix is None or target not in self.predictor_matrix:
            return preceding
        chosen = self.predictor_matrix[target]
        return tuple(p for p in preceding if p in chosen)

    def rules_for(self, target: str) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.target == target)


@dataclass(frozen=True)
class PlanDiagnostic:
    severity: str  # "error" | "warning"
    message: str

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


def _err(msg: str) -> PlanDiagnostic:
    return PlanDiagnostic("error", msg)


def _warn(msg: str) -> PlanDiagnostic:
    return PlanDiagnostic("warning", msg)


def validate_plan(plan: SynthesisPlan, data: Dataset) -> list[PlanDiagnostic]:
    """Check every plan invariant against the data; pure, returns diagnostics.

    An empty error set means the plan is runnable; guideline warnings may
    still be present.
    """
    out: list[PlanDiagnostic] = []
    seq = plan.visit_sequence
    if not seq:
        out.append(_err("visit_sequence is empty"))
        return out
    if len(set(seq)) != len(seq):
        out.append(_err("visit_sequence contains duplicates"))
    for col in seq:
        if col not in data:
            out.append(_err(f"visit_sequence names unknown column {col!r}"))
    known = [c for c in seq if c in data]
    position = {c: i for i, c in enumerate(seq)}

    def precedes(col: str, target: str, absent: str, late: str) -> None:
        """Report ``absent`` if a column ``target`` reads is not visited, or
        ``late`` if it is visited at or after a visited ``target``."""
        if col not in position:
            out.append(_err(absent))
        elif target in position and position[col] >= position[target]:
            out.append(_err(late))

    # Predictor precedence.
    if plan.predictor_matrix is not None:
        for target, preds in plan.predictor_matrix.items():
            if target not in position:
                out.append(_err(f"predictor_matrix row for non-synthesized {target!r}"))
                continue
            for p in preds:
                precedes(
                    p, target, f"predictor_matrix[{target!r}] names unknown column {p!r}",
                    f"predictor {p!r} does not precede target {target!r} in visit_sequence",
                )

    # Methods: one for a column that is not visited, a nesting entry's too,
    # would be ignored.
    for col in plan.methods:
        if col not in position:
            out.append(_err(f"methods names non-synthesized column {col!r}"))

    # First variable: bootstrap method.  A predictor of it cannot precede
    # it, which the precedence check above reports.
    first = seq[0]
    if not isinstance(plan.methods.get(first), Sample):
        out.append(_err(f"first variable {first!r} must use the sample method"))

    # Method / column-kind compatibility.
    for col in known:
        error = plan.methods[col].target_error(col, data.column(col).kind)
        if error is not None:
            out.append(_err(error))

    # Nested groups.
    for target, spec in plan.methods.items():
        if not isinstance(spec, Nested):
            continue
        group = spec.group_column
        precedes(
            group, target, f"grouping column {group!r} is not in visit_sequence",
            f"grouping column {group!r} must precede nested target {target!r}",
        )

    # Rules.
    for i, rule in enumerate(plan.rules):
        if rule.target not in position:
            out.append(_err(f"rule {i}: target {rule.target!r} not in visit_sequence"))
            continue
        try:
            atoms = rule.atoms()
        except PlanError as exc:
            out.append(_err(f"rule {i}: {exc}"))
            continue
        for atom in atoms:
            precedes(
                atom.var, rule.target,
                f"rule {i}: condition column {atom.var!r} not in visit_sequence",
                f"rule {i}: condition column {atom.var!r} does not precede "
                f"target {rule.target!r}",
            )
            if atom.var in data:
                ckind = data.column(atom.var).kind
                if isinstance(ckind, Categorical):
                    if atom.op not in ("==", "!="):
                        out.append(
                            _err(
                                f"rule {i}: ordering comparison {atom.op!r} on "
                                f"categorical column {atom.var!r}"
                            )
                        )
                    else:
                        try:
                            level_code(atom.var, ckind, atom.value)
                        except PlanError as exc:
                            out.append(_err(f"rule {i}: {exc}"))
                elif not isinstance(atom.value, float):
                    out.append(
                        _err(f"rule {i}: numeric column {atom.var!r} compared to text")
                    )
        if rule.target in data:
            tkind = data.column(rule.target).kind
            if isinstance(tkind, Categorical):
                try:
                    level_code(rule.target, tkind, rule.value)
                except PlanError as exc:
                    out.append(_err(f"rule {i}: forced value {exc}"))
            elif isinstance(rule.value, str):
                out.append(
                    _err(f"rule {i}: numeric target {rule.target!r} forced to text value")
                )

    # Stratifier.
    if plan.stratifier is not None:
        if plan.stratifier not in data:
            out.append(_err(f"stratifier {plan.stratifier!r} is not a data column"))
        elif not isinstance(data.column(plan.stratifier).kind, Categorical):
            out.append(_err(f"stratifier {plan.stratifier!r} must be categorical"))
        if plan.stratifier in position:
            out.append(
                _warn(
                    f"stratifier {plan.stratifier!r} also appears in visit_sequence; "
                    "it is copied verbatim within each stratum, not synthesized"
                )
            )

    # Guideline warnings (non-fatal).
    high = [
        (col, len(kind.levels))
        for col, kind in ((c, data.column(c).kind) for c in known)
        if isinstance(kind, Categorical) and len(kind.levels) > HIGH_CARDINALITY_THRESHOLD
    ]
    for col, n_levels in high:
        if not isinstance(plan.methods[col], Nested):
            out.append(
                _warn(
                    f"guideline 3: {col!r} has {n_levels} levels; consider "
                    "grouping it and synthesizing with the nested method"
                )
            )
    tail = set(seq[len(seq) - len(high):])
    for col, n_levels in high:
        if col not in tail:
            out.append(
                _warn(
                    f"guideline 6: move variables with many categories to the end "
                    f"of the synthesis ({col!r} has {n_levels} levels at "
                    f"position {position[col] + 1} of {len(seq)})"
                )
            )
    return out


def plan_errors(diags: Sequence[PlanDiagnostic]) -> list[PlanDiagnostic]:
    return [d for d in diags if d.is_error]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _method_to_json(spec: MethodSpec):
    options = asdict(spec)
    return {"kind": spec.name, **options} if options else spec.name


def _method_from_json(obj, colname: str) -> MethodSpec:
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict):
        raise PlanError(f"methods[{colname!r}]: expected string or object")
    options = dict(obj)
    kind = options.pop("kind", None)
    cls = METHODS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise PlanError(f"methods[{colname!r}]: unknown method {kind!r}")
    try:
        return cls(**options)
    except TypeError as exc:
        raise PlanError(f"methods[{colname!r}]: {exc}")


def plan_to_json(plan: SynthesisPlan) -> dict:
    doc: dict = {
        "visit_sequence": list(plan.visit_sequence),
        "methods": {c: _method_to_json(m) for c, m in plan.methods.items()},
        "seed": plan.seed,
    }
    if plan.predictor_matrix is not None:
        doc["predictor_matrix"] = {t: list(p) for t, p in plan.predictor_matrix.items()}
    if plan.rules:
        doc["rules"] = [
            {"target": r.target, "condition": r.condition, "value": r.value}
            for r in plan.rules
        ]
    if plan.stratifier is not None:
        doc["stratifier"] = plan.stratifier
    # written for readers of the older format, which wanted each nested
    # method in this map as well
    nesting = {c: m.group_column for c, m in plan.methods.items() if isinstance(m, Nested)}
    if nesting:
        doc["nesting"] = nesting
    return doc


def _names(value, field_name: str) -> tuple[str, ...]:
    """A JSON list of column names; a bare string is refused, not read as
    a sequence of one-letter names."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise PlanError(f"{field_name} must be a list of column names, got {value!r}")
    return tuple(value)


def _mapping(value, field_name: str, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise PlanError(f"{field_name} must map {what}, got {value!r}")
    return value


def _known_keys(doc: Mapping, known: tuple[str, ...], where: str) -> None:
    """A ``PlanError`` naming the first key of ``doc`` not in ``known``, so a
    misspelled setting is not dropped without a word."""
    for key in doc:
        if key not in known:
            raise PlanError(f"{where}: unknown key {key!r} (known keys: {', '.join(known)})")


def _rule_from_json(obj, i: int) -> Rule:
    if not isinstance(obj, Mapping):
        raise PlanError(f"rules[{i}] must be an object with target, condition and value, got {obj!r}")
    missing = [key for key in ("target", "condition", "value") if key not in obj]
    if missing:
        raise PlanError(f"rules[{i}] lacks {', '.join(missing)}")
    if not isinstance(obj["target"], str):
        raise PlanError(f"rules[{i}]: target must be a column name, got {obj['target']!r}")
    return Rule(obj["target"], obj["condition"], obj["value"])


_PLAN_KEYS = (
    "visit_sequence", "methods", "predictor_matrix", "rules", "stratifier", "nesting", "seed", "sdc",
)


def plan_from_json(doc: Mapping) -> SynthesisPlan:
    """The plan a parsed plan file describes; a field of the wrong shape or
    an unknown key is a ``PlanError`` that names it."""
    if not isinstance(doc, Mapping):
        raise PlanError(f"plan document must be a JSON object, got {doc!r}")
    _known_keys(doc, _PLAN_KEYS, "plan document")
    if "visit_sequence" not in doc:
        raise PlanError("plan document lacks visit_sequence")
    seq = _names(doc["visit_sequence"], "visit_sequence")
    methods = {
        c: _method_from_json(m, c)
        for c, m in _mapping(doc.get("methods", {}), "methods", "columns to methods").items()
    }
    matrix = doc.get("predictor_matrix")
    if matrix is not None:
        matrix = {
            t: _names(p, f"predictor_matrix[{t!r}]")
            for t, p in _mapping(matrix, "predictor_matrix", "targets to predictor lists").items()
        }
    rules = doc.get("rules", ())
    if not isinstance(rules, (list, tuple)):
        raise PlanError(f"rules must be a list of rule objects, got {rules!r}")
    stratifier = doc.get("stratifier")
    if stratifier is not None and not isinstance(stratifier, str):
        raise PlanError(f"stratifier must be a column name or null, got {stratifier!r}")
    # "nesting": {target: group} is shorthand for a nested method
    nesting = _mapping(doc.get("nesting", {}), "nesting", "nested targets to group columns")
    for target, group in nesting.items():
        spec = methods.setdefault(target, Nested(group))
        if spec != Nested(group):
            raise PlanError(
                f"nesting[{target!r}] = {group!r} conflicts with methods[{target!r}] = {spec}"
            )
    return SynthesisPlan(
        visit_sequence=seq,
        methods=methods,
        predictor_matrix=matrix,
        rules=tuple(_rule_from_json(r, i) for i, r in enumerate(rules)),
        stratifier=stratifier,
        seed=doc.get("seed", 0),
    )


def load_plan(path: str | Path) -> SynthesisPlan:
    """The plan in the JSON file ``path``; text that is not UTF-8 JSON is a
    ``PlanError``, as is a document ``plan_from_json`` rejects."""
    return plan_from_json(_read_json(path, PlanError))


def save_plan(plan: SynthesisPlan, path: str | Path) -> None:
    with _rewritten(path) as fh:
        json.dump(plan_to_json(plan), fh, indent=2)
        fh.write("\n")


def reorder_visit(plan: SynthesisPlan, column: str, position) -> SynthesisPlan:
    """Move one column within the visit sequence, repairing what that breaks.

    ``position`` is "start", "end", or a whole-number target index.  The
    predictor matrix keeps only selections that still respect precedence; a
    column moved to the front is coerced to the sample method, with a Python
    warning that says so (``validate_plan`` reports nothing once the first
    method is sample).
    """
    import warnings as _warnings

    if column not in plan.visit_sequence:
        raise PlanError(f"{column!r} is not in the visit sequence")
    seq = [c for c in plan.visit_sequence if c != column]
    if position == "start":
        idx = 0
    elif position == "end":
        idx = len(seq)
    else:
        check_option(PlanError, "position", position, whole=True)
        if not 0 <= position <= len(seq):
            raise PlanError(f"position {position} out of range")
        idx = position
    seq.insert(idx, column)
    new_seq = tuple(seq)
    if new_seq == plan.visit_sequence:
        return plan

    pos = {c: i for i, c in enumerate(new_seq)}
    matrix = plan.predictor_matrix
    if matrix is not None:
        matrix = {
            t: tuple(p for p in preds if pos[p] < pos[t])
            for t, preds in matrix.items()
        }
        matrix.pop(new_seq[0], None)
    methods = dict(plan.methods)
    if not isinstance(methods.get(new_seq[0]), Sample):
        _warnings.warn(
            f"{new_seq[0]!r} moved to the front of the visit sequence; "
            "method coerced to sample"
        )
        methods[new_seq[0]] = Sample()
    return replace(plan, visit_sequence=new_seq, methods=methods, predictor_matrix=matrix)
