"""Which package functions the traced run wraps, and the per-layer metrics.

The layers are the modules of ``src/synthweave``.  Each ``.s`` metric is the
self seconds of one wrapped function summed over its calls in an operation,
except ``cli.main.s``, which is the whole traced CLI call.  Counts come from
span counts or from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import os
import statistics

from tracer import Tracer, Usage, span_name
from workloads import VISIT

MIB = 2**20
MODULES = ("cli", "tabular", "plan", "engine", "cart", "models", "design", "sdc", "utility")


def _csv_size(args, result):
    return {"tabular.csv_mib": os.path.getsize(args["path"]) / MIB}


def _tree(args, tree):
    return {"cart.nodes": len(tree.nodes), "cart.leaves": tree.n_leaves}


def _irls(args, res):
    return {"models.irls_logit.iters": res.iterations, "models.nonconverged": not res.converged}


def _multinomial(args, fit):
    return {"models.fit_multinomial.iters": fit.iterations, "models.nonconverged": not fit.converged}


def _aliased(args, result):
    n, p = args["X"].shape
    # computed from the matrix shape, not measured
    return {
        "design.matrix_mib": 8 * n * p / MIB,
        "design.columns_in": p,
        "design.columns_kept": len(result[1]),
    }


def _removed(args, result):
    return {"sdc.rows_removed": result[1]}


def _cells(args, table):
    return {"utility.cross_tabulate.cells": table.k}


TARGETS = {
    "cli.main": None,
    "tabular.read_csv": _csv_size,
    "tabular.write_csv": _csv_size,
    "plan.validate_plan": None,
    "engine.synthesize": None,
    "cart.fit_cart": _tree,
    "cart.route_rows": None,
    "models.fit_logit": None,
    "models.fit_multinomial": _multinomial,
    "models.fit_normrank": None,
    "models.fit_transform_normal": None,
    "models.fit_nested": None,
    "models.irls_logit": _irls,
    "design.build_design": None,
    "design.Design.matrix": None,
    "design.drop_aliased": _aliased,
    "sdc.apply_sdc": None,
    "sdc.remove_replicated_uniques": _removed,
    "utility.utility_report": None,
    "utility.fit_propensity": None,
    "utility.cross_tabulate": _cells,
    "utility.compare_univariate": None,
    "utility.worst_cells": None,
    "utility.equivalence_check": None,
}
CALLS = (
    "tabular.read_csv", "plan.validate_plan", "cart.fit_cart", "models.irls_logit",
    "design.drop_aliased", "utility.cross_tabulate",
)
COUNTS = (
    ("tabular.csv_mib", "MiB"),
    ("cart.nodes", "count"),
    ("cart.leaves", "count"),
    ("models.irls_logit.iters", "count"),
    ("models.fit_multinomial.iters", "count"),
    ("models.nonconverged", "count"),
    ("design.matrix_mib", "MiB"),
    ("design.columns_in", "count"),
    ("design.columns_kept", "count"),
    ("sdc.rows_removed", "count"),
    ("utility.cross_tabulate.cells", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.main.s": "s", "cli.self_s": "s"}
    for target in TARGETS:
        units.setdefault(span_name(target) + ".s", "s")
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update(dict(COUNTS))
    units.update({f"engine.var.{v}.s": "s" for v in VISIT})
    units.update({f"{m}.rss_growth_mib": "MiB" for m in MODULES})
    units["trace_overhead_frac"] = "ratio"
    return units


def _per_op(tracer: Tracer, op: int, report: dict | None) -> dict[str, float]:
    usage = tracer.usage(op)
    counts = tracer.counts.get(op, {})
    main = usage.get("cli.main", Usage())
    values = {"cli.main.s": main.total_s, "cli.self_s": main.self_s}
    for target in TARGETS:
        name = span_name(target)
        values.setdefault(name + ".s", usage.get(name, Usage()).self_s)
    for name in CALLS:
        values[f"{name}.calls"] = usage.get(name, Usage()).calls
    for name, _ in COUNTS:
        values[name] = float(counts.get(name, 0.0))
    elapsed = {v: 0.0 for v in VISIT}
    for var in (report or {}).get("variables", ()):
        elapsed[var["name"]] = elapsed.get(var["name"], 0.0) + var["elapsed_s"]
    values.update({f"engine.var.{v}.s": elapsed[v] for v in VISIT})
    return values


def _rss_growth(tracer: Tracer, ops) -> dict[str, float]:
    """High-water-mark rise during each module's self time, over all traced ops.

    Only an operation that raises the process's peak shows growth, which in
    practice is the first one in the process.
    """
    growth = {m: 0 for m in MODULES}
    for op in ops:
        for name, u in tracer.usage(op).items():
            module = name.split(".")[0]
            growth[module] = growth.get(module, 0) + u.rss_growth_kib
    return {f"{m}.rss_growth_mib": kib / 1024 for m, kib in growth.items()}


def layer_metrics(tracer: Tracer, traced: list, untraced: list) -> dict[str, float]:
    """Median over traced operations of each per-layer metric.

    ``traced[i]`` and ``untraced[i]`` are the outcomes of the same dataset,
    the traced one recorded under operation id ``i``.
    """
    ops = range(len(traced))
    per_op = [_per_op(tracer, op, traced[op].report) for op in ops]
    values = {name: statistics.median(v[name] for v in per_op) for name in per_op[0]}
    values.update(_rss_growth(tracer, ops))
    values["trace_overhead_frac"] = statistics.median(
        t.op_s / u.op_s for t, u in zip(traced, untraced)
    ) - 1.0
    return values
