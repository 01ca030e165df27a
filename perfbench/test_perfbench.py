"""Tests of the benchmark itself, at a small smoke size.

    python3 -m pytest perfbench -q

The layer-map tests check that each workload's trace shows the layers the
benchmark claims it exercises, and only those.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SMOKE_ROWS = 3000
run.import_package()

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    return {w: run.bench(w, 5, 0.1, True, SMOKE_ROWS, out) for w in run.WORKLOADS}


def _span_names(record) -> set[str]:
    return {s["name"] for s in record["trace"]["spans"]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_is_correct_and_complete(traced, workload):
    record = traced[workload]
    result = record["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2  # one dataset, traced then untraced
    assert record["trace"]["absent"] == []
    assert set(result["metrics"]) == set(layers.metric_units())


def test_layer_map(traced):
    cart = _span_names(traced["synth_cart"])
    parametric = _span_names(traced["synth_parametric"])
    audit = _span_names(traced["audit"])

    assert {"cart.fit_cart", "cart.route_rows", "sdc.apply_sdc", "tabular.write_csv"} <= cart
    assert not {n for n in cart if n.startswith(("design.", "utility."))}
    assert "models.irls_logit" not in cart

    assert {"design.drop_aliased", "models.irls_logit", "models.fit_normrank",
            "sdc.apply_sdc", "tabular.write_csv"} <= parametric
    assert not {n for n in parametric if n.startswith(("cart.", "utility."))}

    assert {"utility.cross_tabulate", "utility.equivalence_check", "design.drop_aliased",
            "models.irls_logit"} <= audit
    assert not {n for n in audit if n.startswith(("cart.", "engine.", "sdc."))}
    assert "tabular.write_csv" not in audit


def test_layer_counts(traced):
    cart = traced["synth_cart"]["result"]["metrics"]
    assert cart["cart.fit_cart.calls"]["value"] > 0
    assert cart["cart.leaves"]["value"] > 0
    assert cart["plan.validate_plan.calls"]["value"] == 2
    assert cart["design.drop_aliased.calls"]["value"] == 0
    audit = traced["audit"]["result"]["metrics"]
    assert audit["utility.cross_tabulate.calls"]["value"] > 0
    assert audit["design.columns_kept"]["value"] < audit["design.columns_in"]["value"]
    assert audit["cart.fit_cart.calls"]["value"] == 0


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    record = run.bench("synth_cart", 3, 0.1, False, SMOKE_ROWS, tmp_path)
    result = record["result"]
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert record["operations"][0]["sha256"]


def test_same_seed_same_output(tmp_path):
    first = run.bench("synth_cart", 9, 0.1, False, SMOKE_ROWS, tmp_path)
    second = run.bench("synth_cart", 9, 0.1, False, SMOKE_ROWS, tmp_path)
    assert first["operations"][0]["sha256"] == second["operations"][0]["sha256"]


def test_broken_output_fails_the_check(tmp_path):
    inputs = workloads.setup("synth_cart", 4, tmp_path, SMOKE_ROWS)
    op_s, code, extra = workloads.operate(inputs)
    assert workloads.check(inputs, op_s, code, extra).ok
    lines = inputs.out.read_text(encoding="utf-8").splitlines()
    lines.pop()
    inputs.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outcome = workloads.check(inputs, op_s, code, extra)
    assert not outcome.ok and "rows, expected" in outcome.problems[0]


def test_missing_target_is_recorded_absent():
    tracer = Tracer({"cart.no_such_function": None, "no_such_module.f": None,
                     "design.Design.no_such_method": None})
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["cart.no_such_function", "no_such_module.f",
                             "design.Design.no_such_method"]


def test_counter_that_no_longer_fits_is_recorded_absent():
    from synthweave import cli

    tracer = Tracer({"cli.main": lambda args, result: {"x": result.no_such_attribute}})
    tracer.install()
    try:
        code = cli.main(["synth", "--data", "missing.csv", "--schema", "missing.json",
                         "--plan", "missing.json", "--out", "out.csv"])
    finally:
        tracer.uninstall()
    assert code == 1
    assert tracer.absent == ["cli.main counts"]


def test_wrappers_are_removed_again():
    from synthweave import engine, models

    original = models.fit_logit
    tracer = Tracer({"models.fit_logit": None})
    tracer.install()
    assert engine.fit_logit is models.fit_logit is not original
    tracer.uninstall()
    assert engine.fit_logit is models.fit_logit is original


def test_self_time_subtracts_children():
    tracer = Tracer({})
    tracer.spans = [
        Span(0, "cli.main", 0, None, 0.0, 10.0, 100, 400),
        Span(1, "tabular.read_csv", 0, 0, 1.0, 3.0, 100, 150),
        Span(2, "engine.synthesize", 0, 0, 3.0, 9.0, 150, 400),
        Span(3, "cart.fit_cart", 0, 2, 4.0, 8.0, 150, 350),
    ]
    usage = tracer.usage(0)
    assert usage["cli.main"].self_s == pytest.approx(2.0)
    assert usage["engine.synthesize"].self_s == pytest.approx(2.0)
    assert usage["cart.fit_cart"].self_s == pytest.approx(4.0)
    assert usage["cli.main"].rss_growth_kib == 0
    assert usage["engine.synthesize"].rss_growth_kib == 50
    assert usage["cart.fit_cart"].rss_growth_kib == 200


def test_benchmark_json_names_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.metric_units()


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
