"""Command-line surface: synth, utility, compare, gentoy.

Exit codes: 0 success, 1 runtime error, 2 usage or plan-validation error.
The SYNTHWEAVE_SEED environment variable is the seed fallback when neither
--seed nor the plan file provides one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .engine import _substream, run_report, synthesize
from .errors import DataError, MethodError, PlanError, SynthweaveError, UtilityError
from .plan import SynthesisPlan, plan_errors, plan_from_json, validate_plan
from .sdc import apply_sdc, check_sdc_columns, sdc_from_json, stamp_synthetic
from .tabular import Categorical, Dataset, _read_json, _rewritten, read_csv, write_csv
from .toycensus import ToyCensusSpec, generate_toy_census, true_model
from .utility import compare_bivariate, compare_univariate, utility_report

ENV_SEED = "SYNTHWEAVE_SEED"


def load_schema(path: str | Path) -> dict:
    doc = _read_json(path, DataError)
    cols = doc.get("columns", doc) if isinstance(doc, dict) else doc
    if not isinstance(cols, dict):
        raise DataError(f"{path}: schema columns must be an object of column kinds, got {cols!r}")
    schema: dict = {}
    for name, v in cols.items():
        if not name:
            raise DataError(f"{path}: schema column names must be non-empty, got {name!r}: {v!r}")
        levels = v.get("levels") if isinstance(v, dict) else None
        if v in ("numeric", "categorical"):
            schema[name] = v  # read_csv resolves the shorthands
        elif isinstance(levels, list) and all(isinstance(lv, str) for lv in levels):
            try:
                schema[name] = Categorical(tuple(levels))
            except DataError as exc:
                raise DataError(f"schema for {name!r}: {exc}, got {v!r}") from None
        else:
            raise DataError(
                f"schema for {name!r}: expected 'numeric', 'categorical' or a list of "
                f"string levels, got {v!r}"
            )
    return schema


def _non_finite(doc, where: str) -> str | None:
    """Where in the JSON-ready ``doc`` its first non-finite number is, or None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else where
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return None
    for key, value in items:
        found = _non_finite(value, f"{where}[{key!r}]")
        if found:
            return found
    return None


def _write_json(doc: dict, path: str | None) -> None:
    """Write ``doc`` to ``path``, or to stdout without one, as strict JSON: a
    non-finite number is an error that names its key, and nothing is written."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise SynthweaveError(
            f"{_non_finite(doc, 'report')} is not a finite number, "
            f"so {path or 'the report'} is not written"
        ) from None
    if path:
        with _rewritten(path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_tables(text: str | None) -> list[tuple[str, ...]]:
    if not text:
        return []
    return [tuple(part.split("*")) for part in text.split(",") if part]


def _resolve_seed(flag_seed, plan: SynthesisPlan, plan_doc: dict) -> SynthesisPlan:
    """``plan`` with its seed from --seed, else the plan file, else
    SYNTHWEAVE_SEED, else 0."""
    if flag_seed is None and "seed" in plan_doc:
        return plan
    seed = flag_seed if flag_seed is not None else os.environ.get(ENV_SEED, "0")
    try:
        return replace(plan, seed=int(seed))
    except ValueError:  # only a SYNTHWEAVE_SEED can fail: --seed is parsed as an int
        raise PlanError(f"{ENV_SEED} must be an integer, got {seed!r}") from None


def _unknown_variable(variables, data: Dataset, flag: str) -> bool:
    """Print an error for the first of ``variables`` not in ``data``, if any."""
    for v in variables:
        if v not in data:
            print(f"error: unknown variable {v!r} in {flag}", file=sys.stderr)
            return True
    return False


def _timed_read(path, schema) -> tuple[Dataset, float]:
    started = time.perf_counter()
    data = read_csv(path, schema)
    return data, time.perf_counter() - started


def cmd_synth(args) -> int:
    schema = load_schema(args.schema)
    data, read_s = _timed_read(args.data, schema)
    plan_doc = _read_json(args.plan, PlanError)
    plan = _resolve_seed(args.seed, plan_from_json(plan_doc), plan_doc)

    sdc_cfg = sdc_from_json(plan_doc.get("sdc"))

    diags = validate_plan(plan, data)
    errs = plan_errors(diags)
    for d in diags:
        # an error in the plan is reported as a plan file's errors are
        print(f"{'plan error' if d.is_error else d.severity}: {d.message}", file=sys.stderr)
    if errs:
        return 2
    if sdc_cfg is not None:
        check_sdc_columns(sdc_cfg, plan, data)

    run = synthesize(data, plan)
    sdc_fragment = None
    synthetic = run.synthetic
    if sdc_cfg is not None:
        rng = _substream(plan.seed, 10**9 + 7, 0)
        synthetic, sdc_fragment = apply_sdc(data, synthetic, sdc_cfg, rng)
    else:
        synthetic = stamp_synthetic(synthetic)
    started = time.perf_counter()
    write_csv(synthetic, args.out)
    write_s = time.perf_counter() - started

    report = run_report(run)
    report["input"] = str(args.data)
    report["output"] = str(args.out)
    report["rows"] = synthetic.n_rows
    report["read_s"] = round(read_s, 6)
    report["write_s"] = round(write_s, 6)
    if sdc_fragment is not None:
        report["sdc"] = sdc_fragment
    if args.report:
        _write_json(report, args.report)
    if args.pretty:
        for v in report["variables"]:
            stratum = f" [{v['stratum']}]" if v["stratum"] else ""
            print(
                f"{v['name']}{stratum}: {v['method']}  fit n={v['n_fit']}  "
                f"{v['elapsed_s']:.3f}s  forced={v['rule_forced']}"
            )
        for w in report["warnings"]:
            print(f"warning: {w}")
    return 0


def _load_pair(args) -> tuple[Dataset, Dataset, float]:
    """Both tables on their shared columns, and the seconds spent reading."""
    schema = load_schema(args.schema)
    original, read_original = _timed_read(args.original, schema)
    synthetic, read_synthetic = _timed_read(args.synthetic, schema)
    common = [c for c in synthetic.names if c in original.names]
    if not common:
        raise UtilityError("datasets share no columns")
    return original.select(common), synthetic.select(common), read_original + read_synthetic


UTILITY_MODELS = {
    "main": "main_effects",
    "interactions": "interactions",
    "saturated": "table_saturated",
}


def cmd_utility(args) -> int:
    original, synthetic, read_s = _load_pair(args)
    tables = _parse_tables(args.tables)
    if any(_unknown_variable(variables, original, "--tables") for variables in tables):
        return 2
    doc = utility_report(original, synthetic, tables, model=UTILITY_MODELS[args.model])
    doc["read_s"] = round(read_s, 6)
    _write_json(doc, args.report)
    if args.pretty:
        ug = doc["u_gen"]
        p = "NA" if ug["p_value"] is None else f"{ug['p_value']:.4g}"
        print(
            f"U_gen[{ug['model']}] = {ug['statistic']:.2f}  df={ug['df']}  "
            f"ratio={ug['ratio']:.2f}  p={p}"
        )
        if ug["flagged_variables"]:
            print("flagged variables: " + ", ".join(ug["flagged_variables"]))
        for t in doc["tables"]:
            print(
                f"U_tab[{'*'.join(t['variables'])}] = {t['u_tab']:.2f}  "
                f"df={t['df']}  ratio={t['ratio']:.2f}"
            )
    return 0


def cmd_compare(args) -> int:
    if args.bins < 2:
        print(f"error: --bins must be >= 2, got {args.bins}", file=sys.stderr)
        return 2
    original, synthetic, read_s = _load_pair(args)
    pairs = _parse_tables(args.pairs)
    for pair in pairs:
        if len(pair) != 2:
            print(f"error: --pairs entries must be a*b, got {'*'.join(pair)}", file=sys.stderr)
            return 2
        if _unknown_variable(pair, original, "--pairs"):
            return 2
    uni = compare_univariate(original, synthetic)
    doc: dict = {
        "univariate": {},
        "bivariate": [],
        "flags": list(uni.flags),
        "read_s": round(read_s, 6),
    }
    for name, comp in uni.comparisons.items():
        if hasattr(comp, "levels"):
            doc["univariate"][name] = {
                "levels": list(comp.levels),
                "prop_original": [round(float(x), 6) for x in comp.prop_original],
                "prop_synthetic": [round(float(x), 6) for x in comp.prop_synthetic],
                "max_abs_diff": comp.max_abs_diff,
            }
        else:
            doc["univariate"][name] = {
                "edges": [float(x) for x in comp.edges],
                "prop_original": [round(float(x), 6) for x in comp.prop_original],
                "prop_synthetic": [round(float(x), 6) for x in comp.prop_synthetic],
                "stats_original": comp.stats_original,
                "stats_synthetic": comp.stats_synthetic,
                "missing_rate_original": comp.missing_rate_original,
                "missing_rate_synthetic": comp.missing_rate_synthetic,
            }
    for inner, by in pairs:
        bc = compare_bivariate(original, synthetic, inner, by, n_bins=args.bins)
        doc["bivariate"].append(
            {
                "variables": [inner, by],
                "bands": list(bc.bands),
                "levels": list(bc.levels),
                "pct_original": [[round(float(x), 3) for x in row] for row in bc.pct_original],
                "pct_synthetic": [[round(float(x), 3) for x in row] for row in bc.pct_synthetic],
                "max_abs_diff_pct": bc.max_abs_diff,
            }
        )
    _write_json(doc, args.report)
    if args.pretty:
        for name, comp in uni.comparisons.items():
            if hasattr(comp, "max_abs_diff"):
                print(f"{name}: max |prop diff| = {comp.max_abs_diff:.4f}")
        for b in doc["bivariate"]:
            print(
                f"%{b['variables'][0]} by {b['variables'][1]}: "
                f"max |pct diff| = {b['max_abs_diff_pct']:.2f}"
            )
        for f in doc["flags"]:
            print(f"flag: {f}")
    return 0


def cmd_gentoy(args) -> int:
    for flag, value, least in (("--rows", args.rows, 100), ("--seed", args.seed, 0)):
        if value < least:
            print(f"error: {flag} must be >= {least}", file=sys.stderr)
            return 2
    spec = ToyCensusSpec(n_rows=args.rows, seed=args.seed)
    data = generate_toy_census(spec)
    model_out = args.model_out or str(Path(args.out).with_suffix("")) + ".model.json"
    # both files or neither: the model first, and removed if the CSV fails
    _write_json(true_model(spec), model_out)
    try:
        write_csv(data, args.out)
    except BaseException:
        Path(model_out).unlink(missing_ok=True)
        raise
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="synthweave",
        description="Synthesize tabular microdata and audit its utility.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="synthesize a dataset under a plan")
    sp.add_argument("--data", required=True)
    sp.add_argument("--schema", required=True)
    sp.add_argument("--plan", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_synth)

    up = sub.add_parser("utility", help="U_gen / U_tab utility report")
    up.add_argument("--original", required=True)
    up.add_argument("--synthetic", required=True)
    up.add_argument("--schema", required=True)
    up.add_argument("--tables", help='comma list like "mar*age,occ1*age"')
    up.add_argument(
        "--model",
        choices=tuple(UTILITY_MODELS),
        default="main",
        help="U_gen propensity model: main effects, main effects plus two-way "
        "interactions, or saturated over the --tables variables (all "
        "columns without --tables)",
    )
    up.add_argument("--report")
    up.add_argument("--pretty", action="store_true")
    up.set_defaults(func=cmd_utility)

    cp = sub.add_parser("compare", help="univariate and bivariate comparison tables")
    cp.add_argument("--original", required=True)
    cp.add_argument("--synthetic", required=True)
    cp.add_argument("--schema", required=True)
    cp.add_argument("--pairs", help='comma list like "mar*age" (%% of a by bands of b)')
    cp.add_argument("--bins", type=int, default=5)
    cp.add_argument("--report")
    cp.add_argument("--pretty", action="store_true")
    cp.set_defaults(func=cmd_compare)

    gp = sub.add_parser("gentoy", help="generate the deterministic toy census")
    gp.add_argument("--rows", type=int, default=10_000)
    gp.add_argument("--seed", type=int, default=20250808)
    gp.add_argument("--out", required=True)
    gp.add_argument("--model-out", dest="model_out")
    gp.set_defaults(func=cmd_gentoy)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PlanError as exc:
        print(f"plan error: {exc}", file=sys.stderr)
        return 2
    except (DataError, MethodError, UtilityError, SynthweaveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
