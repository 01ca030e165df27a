"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

Every workload runs on the toy census (7 columns; ``occ3`` has 200 levels
nested in ``occ1``; ``pperroom`` has about 7% missing cells) and drives the
package only through ``synthweave.cli.main`` and, for the audit,
``synthweave.utility.equivalence_check``.  Both are looked up on their
module at call time, so a tracer's wrappers are seen.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from synthweave import cli, utility
from synthweave.toycensus import ToyCensusSpec, generate_toy_census, true_model
from synthweave.tabular import write_csv

ROWS = 50_000
VISIT = ("region", "sex", "age", "mar", "occ1", "occ3", "pperroom")
RULES = [{"target": "mar", "condition": "age < 16", "value": "Single"}]
# a fixed label: an empty one would stamp a timestamp and change the hash
SDC = {"key_variables": ["region", "sex", "age", "occ1"], "label": "perfbench toy census"}
AUDIT_TABLES = "mar*age,occ3*region*sex*mar*age"
EQUIVALENCE_TABLE = ("occ3", "region", "sex", "mar", "age")
EQUIVALENCE_TOL = 1e-8

METHODS = {
    "synth_cart": {
        "region": "sample",
        "sex": "cart",
        "age": "cart",
        "mar": "cart",
        "occ1": "cart",
        "occ3": {"kind": "nested", "group_column": "occ1"},
        "pperroom": "cart",
    },
    "synth_parametric": {
        "region": "sample",
        "sex": "logit",
        "age": {"kind": "transform_normal", "transform": "sqrt"},
        "mar": "multinomial",
        "occ1": "multinomial",
        "occ3": {"kind": "nested", "group_column": "occ1"},
        "pperroom": "normrank",
    },
}


@dataclass
class Inputs:
    """Files and in-memory tables one workload's operations use."""

    workload: str
    n_rows: int
    argv: list[str]
    schema: dict
    report: Path
    out: Path | None = None
    tables: tuple = field(default=(), repr=False)


@dataclass
class Outcome:
    """One operation: its wall time, whether it passed, what it produced."""

    op_s: float
    ok: bool
    problems: list[str]
    sha256: str | None = None
    report: dict | None = None
    facts: dict = field(default_factory=dict)


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def setup(workload: str, seed: int, work: Path, n_rows: int = ROWS) -> Inputs:
    """Generate the workload's inputs from ``seed`` and write them to ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    spec = ToyCensusSpec(n_rows=n_rows, seed=seed)
    original = generate_toy_census(spec)
    schema = true_model(spec)["schema"]
    _write_json(schema, work / "schema.json")
    report = work / "report.json"
    if workload == "audit":
        # an independent draw from the same generator plays the synthetic side
        other = generate_toy_census(ToyCensusSpec(n_rows=n_rows, seed=seed + 1))
        write_csv(original, work / "original.csv")
        write_csv(other, work / "other.csv")
        argv = [
            "utility", "--original", str(work / "original.csv"),
            "--synthetic", str(work / "other.csv"), "--schema", str(work / "schema.json"),
            "--model", "main", "--tables", AUDIT_TABLES, "--report", str(report),
        ]
        return Inputs(workload, n_rows, argv, schema, report, tables=(original, other))
    plan = {
        "visit_sequence": list(VISIT),
        "methods": METHODS[workload],
        "nesting": {"occ3": "occ1"},
        "rules": RULES,
        "sdc": SDC,
        "seed": seed,
    }
    write_csv(original, work / "data.csv")
    _write_json(plan, work / "plan.json")
    out = work / "synthetic.csv"
    argv = [
        "synth", "--data", str(work / "data.csv"), "--schema", str(work / "schema.json"),
        "--plan", str(work / "plan.json"), "--out", str(out), "--report", str(report),
    ]
    return Inputs(workload, n_rows, argv, schema, report, out=out)


def operate(inputs: Inputs) -> tuple[float, int, object]:
    """Run one operation; returns (wall seconds, CLI exit code, extra result)."""
    t0 = time.perf_counter()
    code = cli.main(inputs.argv)
    extra = None
    if inputs.workload == "audit" and code == 0:
        extra = utility.equivalence_check(*inputs.tables, EQUIVALENCE_TABLE)
    return time.perf_counter() - t0, code, extra


def check(inputs: Inputs, op_s: float, code: int, extra) -> Outcome:
    """Check one operation's outputs; a problem makes the operation fail."""
    if code != 0:
        return Outcome(op_s, False, [f"exit code {code}"])
    report = json.loads(inputs.report.read_text(encoding="utf-8"))
    if inputs.workload == "audit":
        problems, facts = _check_audit(inputs, report, extra)
        return Outcome(op_s, not problems, problems, None, report, facts)
    raw = inputs.out.read_bytes()
    problems = _check_synthetic(inputs, report, raw.decode("utf-8"))
    return Outcome(op_s, not problems, problems, hashlib.sha256(raw).hexdigest(), report)


def _check_synthetic(inputs: Inputs, report: dict, text: str) -> list[str]:
    """Re-read the synthetic CSV against the schema, independently of the package."""
    problems = []
    lines = text.splitlines()
    stamp = f"# SYNTHETIC DATA: {SDC['label']}"
    if not lines or lines[0] != stamp:
        problems.append(f"first line is not the stamp {stamp!r}")
    rows = list(csv.reader(lines[1:]))
    header, body = rows[0], rows[1:]
    if header != list(VISIT):
        return problems + [f"header {header} is not {list(VISIT)}"]
    expected = inputs.n_rows - report["sdc"]["removed_replicated_uniques"]
    if len(body) != expected:
        problems.append(f"{len(body)} rows, expected {expected}")
    columns = inputs.schema["columns"]
    levels = {c: set(v["levels"]) for c, v in columns.items() if isinstance(v, dict)}
    i_age, i_mar, i_occ1, i_occ3 = (header.index(c) for c in ("age", "mar", "occ1", "occ3"))
    bad_cells = bad_rule = bad_nest = 0
    for row in body:
        for j, name in enumerate(header):
            value = row[j]
            if name in levels:
                bad_cells += value not in levels[name]
            elif value != "NA":
                try:
                    bad_cells += not math.isfinite(float(value))
                except ValueError:
                    bad_cells += 1
        if row[i_age] != "NA" and float(row[i_age]) < 16 and row[i_mar] != "Single":
            bad_rule += 1
        # occ3 levels are the occ1 level followed by a two-digit index
        if row[i_occ3][:-2] != row[i_occ1]:
            bad_nest += 1
    if bad_cells:
        problems.append(f"{bad_cells} cells do not parse under the schema")
    if bad_rule:
        problems.append(f"{bad_rule} rows break the rule age < 16 -> Single")
    if bad_nest:
        problems.append(f"{bad_nest} rows have occ3 outside its occ1 group")
    return problems


def _design_terms(tables) -> int:
    """Main-effects design columns before any is dropped: the intercept, L-1
    dummies per categorical, one column per numeric plus a missing-state
    column when either table has a missing cell."""
    terms = 1
    for name in tables[0].names:
        cols = [t.column(name) for t in tables]
        if cols[0].is_numeric:
            terms += 1 + any(bool(c.missing_mask().any()) for c in cols)
        else:
            terms += len(cols[0].levels) - 1
    return terms


def _check_audit(inputs: Inputs, report: dict, eq) -> tuple[list[str], dict]:
    problems = []
    ug = report["u_gen"]
    stats = {"u_gen." + k: ug[k] for k in ("statistic", "ratio", "p_value", "pmse")}
    for t in report["tables"]:
        label = "*".join(t["variables"])
        stats.update({f"u_tab[{label}].{k}": t[k] for k in ("u_tab", "ratio", "p_value")})
    stats.update(
        {
            "equivalence.u_tab": eq.u_tab.statistic,
            "equivalence.u_gen": eq.u_gen.statistic,
            "equivalence.gap": eq.relative_gap,
        }
    )
    for name, value in stats.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not finite: {value!r}")
    if not eq.relative_gap <= EQUIVALENCE_TOL:
        problems.append(f"equivalence gap {eq.relative_gap:.3e} > {EQUIVALENCE_TOL:g}")
    wanted = [part.split("*") for part in AUDIT_TABLES.split(",")]
    if [t["variables"] for t in report["tables"]] != wanted:
        problems.append("report tables differ from the requested ones")
    dropped = sum(
        w.startswith(("dropped constant design column", "dropped aliased design column"))
        for w in ug["warnings"]
    )
    kept = _design_terms(inputs.tables) - dropped
    if ug["df"] != max(kept - 1, 1):
        problems.append(f"U_gen df {ug['df']} does not match {kept} kept parameters")
    return problems, {k: v for k, v in stats.items() if isinstance(v, float)}
