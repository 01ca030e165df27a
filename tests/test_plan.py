import dataclasses
import json

import numpy as np
import pytest

from synthweave import (
    Cart,
    Dataset,
    Multinomial,
    Nested,
    NormRank,
    PlanError,
    Rule,
    Sample,
    SynthesisPlan,
    ToyCensusSpec,
    categorical_column,
    generate_toy_census,
    load_plan,
    numeric_column,
    plan_errors,
    plan_from_json,
    plan_to_json,
    reorder_visit,
    save_plan,
    synthesize,
    validate_plan,
    write_csv,
)
from synthweave.plan import METHODS, Logit, TransformNormal, parse_condition


def small_data(n=50, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        (
            categorical_column("a", list(rng.choice(["x", "y", "z"], n))),
            numeric_column("b", rng.normal(size=n)),
            categorical_column("c", list(rng.choice(["u", "v"], n))),
        )
    )


def ok_plan(**kw):
    base = dict(
        visit_sequence=("a", "b", "c"),
        methods={"a": Sample(), "b": Cart(), "c": Cart()},
    )
    base.update(kw)
    return SynthesisPlan(**base)


class TestValidatePlan:
    def test_valid_plan_has_no_errors(self):
        diags = validate_plan(ok_plan(), small_data())
        assert plan_errors(diags) == []

    def test_predictor_must_precede_target(self):
        plan = ok_plan(predictor_matrix={"b": ("c",)})
        diags = validate_plan(plan, small_data())
        msgs = [d.message for d in plan_errors(diags)]
        assert any("'c'" in m and "'b'" in m for m in msgs)

    def test_first_variable_must_sample(self):
        plan = ok_plan(methods={"a": Cart(), "b": Cart(), "c": Cart()})
        diags = validate_plan(plan, small_data())
        assert any("first variable" in d.message for d in plan_errors(diags))

    def test_unknown_column(self):
        plan = ok_plan(visit_sequence=("a", "nope"))
        assert plan_errors(validate_plan(plan, small_data()))

    def test_method_kind_mismatch(self):
        plan = ok_plan(methods={"a": Sample(), "b": Multinomial(), "c": Cart()})
        diags = validate_plan(plan, small_data())
        assert any("categorical target" in d.message for d in plan_errors(diags))

    def test_normrank_on_categorical_rejected(self):
        plan = ok_plan(methods={"a": Sample(), "b": Cart(), "c": NormRank()})
        diags = validate_plan(plan, small_data())
        assert any("numeric target" in d.message for d in plan_errors(diags))

    def test_nesting_group_must_precede(self):
        plan = SynthesisPlan(
            visit_sequence=("c", "a"),
            methods={"c": Sample(), "a": Nested("b")},
        )
        diags = validate_plan(plan, small_data())
        assert any("grouping column" in d.message for d in plan_errors(diags))

    def test_precedence_messages_in_order(self):
        """Each check of a column a target reads gives its own two messages:
        the column is not visited, or it is visited too late; predictor rows
        first, then nested groups, then rule conditions."""
        plan = SynthesisPlan(
            visit_sequence=("a", "b", "c"),
            methods={"a": Sample(), "b": Nested("zz"), "c": Nested("c")},
            predictor_matrix={"a": ("b", "q")},
            rules=(Rule("a", "c == 'u'", "x"), Rule("b", "w > 1", "y")),
        )
        precedence = [
            d.message for d in plan_errors(validate_plan(plan, small_data()))
            if "precede" in d.message or "unknown" in d.message or "not in visit" in d.message
        ]
        assert precedence == [
            "predictor 'b' does not precede target 'a' in visit_sequence",
            "predictor_matrix['a'] names unknown column 'q'",
            "grouping column 'zz' is not in visit_sequence",
            "grouping column 'c' must precede nested target 'c'",
            "rule 0: condition column 'c' does not precede target 'a'",
            "rule 1: condition column 'w' not in visit_sequence",
        ]

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"visit_sequence": ()}, "visit_sequence is empty"),
            ({"visit_sequence": ("a", "b", "c", "a")}, "visit_sequence contains duplicates"),
            ({"predictor_matrix": {"zz": ("a",)}}, "predictor_matrix row for non-synthesized 'zz'"),
            ({"rules": (Rule("zz", "a == 'x'", "u"),)}, "rule 0: target 'zz' not in visit_sequence"),
            ({"rules": (Rule("c", "b == 'x'", "u"),)}, "rule 0: numeric column 'b' compared to text"),
            ({"stratifier": "zz"}, "stratifier 'zz' is not a data column"),
            (
                {"methods": {"a": Sample(), "b": Cart(), "c": Cart(), "zz": Cart()}},
                "methods names non-synthesized column 'zz'",
            ),
        ],
    )
    def test_error_texts(self, kw, message):
        diags = validate_plan(ok_plan(**kw), small_data())
        assert [d.message for d in plan_errors(diags)] == [message]

    def test_nested_method_alone_declares_nesting(self):
        census = generate_toy_census(ToyCensusSpec(n_rows=300, seed=2))
        plan = SynthesisPlan(
            ("region", "occ1", "occ3"), {"region": Sample(), "occ3": Nested("occ1")}
        )
        assert plan_errors(validate_plan(plan, census)) == []
        assert plan.predictors_of("occ3") == ("occ1",)

    def test_high_cardinality_warnings(self):
        n = 40
        levels = [f"L{i}" for i in range(50)]
        data = Dataset(
            (
                categorical_column("big", [levels[i % 50] for i in range(n)], levels),
                numeric_column("b", np.arange(n, dtype=float)),
            )
        )
        plan = SynthesisPlan(
            visit_sequence=("big", "b"), methods={"big": Sample(), "b": Cart()}
        )
        diags = validate_plan(plan, data)
        assert plan_errors(diags) == []
        warnings = [d.message for d in diags if not d.is_error]
        assert any("guideline 3" in w for w in warnings)
        assert any(
            "guideline 6" in w and "many categories to the end" in w for w in warnings
        )

    def test_validation_is_pure(self):
        plan, data = ok_plan(), small_data()
        assert validate_plan(plan, data) == validate_plan(plan, data)


class TestRules:
    def test_condition_parsing(self):
        atoms = parse_condition("b < 16 and a == 'x'")
        assert [(a.var, a.op) for a in atoms] == [("b", "<"), ("a", "==")]
        assert atoms[0].value == 16.0
        assert atoms[1].value == "x"

    def test_unicode_ops(self):
        atoms = parse_condition("b ≤ 2 and a ≠ y")
        assert [a.op for a in atoms] == ["<=", "!="]

    def test_malformed_condition_is_a_diagnostic(self):
        plan = ok_plan(rules=(Rule("c", "b <", "u"),))
        diags = validate_plan(plan, small_data())
        assert any("rule 0" in d.message for d in plan_errors(diags))
        with pytest.raises(PlanError, match=r"malformed condition atom: 'b <'"):
            plan.rules[0].atoms()

    def test_non_string_condition_is_a_diagnostic(self):
        plan = ok_plan(rules=(Rule("c", 16, "u"),))
        diags = validate_plan(plan, small_data())
        assert [d.message for d in plan_errors(diags)] == [
            "rule 0: condition must be a string, got 16"
        ]
        assert [f.name for f in dataclasses.fields(Rule)] == ["target", "condition", "value"]

    def test_condition_parsed_once_per_rule(self, monkeypatch):
        from synthweave import plan as plan_module, synthesize

        calls = []

        def counting(text):
            calls.append(text)
            return parse_condition(text)

        monkeypatch.setattr(plan_module, "parse_condition", counting)
        rules = (Rule("c", "b < 0", "u"), Rule("c", "a == 'x' and b >= 1", "v"))
        plan = ok_plan(rules=rules)
        assert plan_errors(validate_plan(plan, small_data())) == []
        run = synthesize(small_data(), plan)
        assert len(calls) == 2
        assert run.synthetic.n_rows == 50
        same = Rule("c", "b < 0", "u")
        assert rules[0] == same and hash(rules[0]) == hash(same)
        assert repr(rules[0]) == "Rule(target='c', condition='b < 0', value='u')"

    def test_rule_column_must_precede_target(self):
        plan = ok_plan(rules=(Rule("a", "b < 0", "x"),))
        diags = validate_plan(plan, small_data())
        assert any("does not precede" in d.message for d in plan_errors(diags))

    def test_rule_value_must_be_level(self):
        plan = ok_plan(rules=(Rule("c", "b < 0", "nope"),))
        diags = validate_plan(plan, small_data())
        assert any("not a level" in d.message for d in plan_errors(diags))

    def test_numeric_literal_names_a_categorical_level(self):
        data = Dataset(
            (
                categorical_column("g", ["15", "16", "17"] * 4),
                categorical_column("t", ["u", "v", "16"] * 4),
            )
        )
        plan = SynthesisPlan(("g", "t"), {"g": Sample(), "t": Cart()})
        # 16 parses as 16.0, and names level "16" as a condition and as a value
        for rule in (Rule("t", "g == 16", "v"), Rule("t", "g != 15", "v"), Rule("t", "g == '16'", 16.0)):
            assert plan_errors(validate_plan(dataclasses.replace(plan, rules=(rule,)), data)) == []
        for rule, bad in ((Rule("t", "g == 18", "v"), "18.0"), (Rule("t", "g == 16", 16.5), "16.5")):
            messages = [d.message for d in plan_errors(validate_plan(dataclasses.replace(plan, rules=(rule,)), data))]
            assert messages and all(f"{bad} is not a level" in m for m in messages), messages

    def test_ordering_comparison_on_categorical_rejected(self):
        plan = ok_plan(rules=(Rule("c", "a < 'x'", "u"),))
        diags = validate_plan(plan, small_data())
        assert any("ordering comparison" in d.message for d in plan_errors(diags))


class TestPlanJson:
    def test_round_trip(self):
        plan = SynthesisPlan(
            visit_sequence=("a", "b", "c"),
            methods={"a": Sample(), "b": Cart(min_bucket=9), "c": Nested("a")},
            predictor_matrix={"b": ("a",)},
            rules=(Rule("c", "b < 0", "u"),),
            stratifier=None,
            seed=7,
        )
        doc = plan_to_json(plan)
        assert set(doc) <= {
            "visit_sequence", "methods", "predictor_matrix", "rules",
            "stratifier", "nesting", "seed",
        }
        back = plan_from_json(doc)
        assert back == plan

    def test_document_without_visit_sequence(self):
        with pytest.raises(PlanError) as exc:
            plan_from_json({"methods": {"a": "sample"}})
        assert str(exc.value) == "plan document lacks visit_sequence"

    def test_stratified_plan_round_trip_through_a_file(self, tmp_path):
        plan = ok_plan(visit_sequence=("b", "c"), methods={"b": Sample()}, stratifier="a", seed=3)
        save_plan(plan, tmp_path / "plan.json")
        assert json.loads((tmp_path / "plan.json").read_text())["stratifier"] == "a"
        assert load_plan(tmp_path / "plan.json") == plan

    @pytest.mark.parametrize("text", [b"visit_sequence: [a, b]\n", b'{"visit_sequence": ["\xff"]}'])
    def test_load_plan_text_that_is_not_json(self, tmp_path, text):
        path = tmp_path / "plan.json"
        path.write_bytes(text)
        with pytest.raises(PlanError) as exc:
            load_plan(path)
        assert str(exc.value).startswith(f"{path}: not a UTF-8 JSON document (")

    def test_method_shorthand_strings(self):
        plan = plan_from_json(
            {"visit_sequence": ["a", "b"], "methods": {"a": "sample", "b": "cart"}}
        )
        assert plan.methods["b"] == Cart()

    def test_omitted_methods_get_defaults(self):
        plan = plan_from_json({"visit_sequence": ["a", "b"]})
        assert plan.methods["a"] == Sample()
        assert plan.methods["b"] == Cart()

    def test_omitted_matrix_means_all_preceding(self):
        plan = plan_from_json({"visit_sequence": ["a", "b", "c"]})
        assert plan.predictors_of("c") == ("a", "b")

    def test_nesting_fills_method(self):
        plan = plan_from_json(
            {"visit_sequence": ["a", "c"], "nesting": {"c": "a"}}
        )
        assert plan.methods["c"] == Nested("a")

    @pytest.mark.parametrize(
        "method", [{"kind": "nested", "group_column": "b"}, "cart"], ids=["other-group", "cart"]
    )
    def test_nesting_map_conflicting_with_method_rejected(self, method):
        doc = {"visit_sequence": ["a", "b", "c"], "methods": {"c": method}, "nesting": {"c": "a"}}
        with pytest.raises(PlanError, match=r"nesting\['c'\] = 'a' conflicts with methods\['c'\]"):
            plan_from_json(doc)

    @pytest.mark.parametrize("nesting", [["c"], {"c": ["a"]}], ids=["list", "list-group"])
    def test_malformed_nesting_map_is_a_plan_error(self, nesting):
        with pytest.raises(PlanError, match="nesting|group_column"):
            plan_from_json({"visit_sequence": ["a", "b", "c"], "nesting": nesting})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rules", [{"target": "c", "value": "u"}], r"rules\[0\] lacks condition"),
            ("methods", ["a"], "methods must map columns to methods"),
            ("predictor_matrix", ["a"], "predictor_matrix must map targets"),
            ("seed", "x", "seed must be a whole number, got 'x'"),
            ("seed", True, "seed must be a whole number, got True"),
            ("seed", 1.5, "seed must be a whole number, got 1.5"),
            ("visit_sequence", "abc", "visit_sequence must be a list of column names"),
            ("predictor_matrix", {"c": "a"}, r"predictor_matrix\['c'\] must be a list of column names"),
            ("rules", {"c": "u"}, "rules must be a list"),
            ("rules", ["a == 1"], r"rules\[0\] must be an object"),
            ("rules", [{"target": ["c"], "condition": "a == 'x'", "value": "u"}], r"rules\[0\]: target"),
            ("stratifier", ["a"], "stratifier must be a column name"),
        ],
        ids=[
            "rule-without-condition", "methods-list", "matrix-list", "seed-text", "seed-bool",
            "seed-float", "sequence-text", "matrix-row-text", "rules-object", "rule-text",
            "rule-target-list", "stratifier-list",
        ],
    )
    def test_malformed_field_is_a_plan_error(self, field, value, message):
        doc = {"visit_sequence": ["a", "b", "c"], field: value}
        with pytest.raises(PlanError, match=message):
            plan_from_json(doc)

    @pytest.mark.parametrize("doc", [["a"], 5, "visit_sequence"], ids=["list", "number", "text"])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(PlanError, match="plan document must be a JSON object"):
            plan_from_json(doc)

    def test_negative_and_large_seeds_still_read(self):
        for seed in (-1, 0, 2**70):
            assert plan_from_json({"visit_sequence": ["a"], "seed": seed}).seed == seed

    @pytest.mark.parametrize("seed", [1.5, "a", True, None, np.float64(2.0)])
    def test_constructor_refuses_a_seed_that_is_no_integer(self, seed):
        with pytest.raises(PlanError) as got:
            SynthesisPlan(("a",), seed=seed)
        assert str(got.value) == f"seed must be a whole number, got {seed!r}"

    def test_numpy_integer_seed_is_a_python_int(self):
        plan = SynthesisPlan(("a",), seed=np.int64(-3))
        assert plan.seed == -3 and type(plan.seed) is int
        assert plan_from_json(json.loads(json.dumps(plan_to_json(plan)))).seed == -3

    def test_nesting_map_method_or_both_synthesize_alike(self, tmp_path):
        census = generate_toy_census(ToyCensusSpec(n_rows=600, seed=3))
        base = {"visit_sequence": ["region", "sex", "age", "occ1", "occ3"], "seed": 8}
        nested = {"occ3": {"kind": "nested", "group_column": "occ1"}}
        docs = {
            "map": {**base, "nesting": {"occ3": "occ1"}},
            "method": {**base, "methods": nested},
            "both": {**base, "methods": nested, "nesting": {"occ3": "occ1"}},
        }
        plans = {name: plan_from_json(doc) for name, doc in docs.items()}
        assert plans["map"] == plans["method"] == plans["both"]
        written = set()
        for name, plan in plans.items():
            write_csv(synthesize(census, plan).synthetic, tmp_path / f"{name}.csv")
            written.add((tmp_path / f"{name}.csv").read_bytes())
        assert len(written) == 1

    def test_bad_method_name(self):
        with pytest.raises(PlanError):
            plan_from_json({"visit_sequence": ["a"], "methods": {"a": "magic"}})


class TestReorderVisit:
    def test_move_last_to_first_coerces_sample(self):
        plan = ok_plan()
        with pytest.warns(UserWarning, match="coerced to sample"):
            moved = reorder_visit(plan, "c", "start")
        assert moved.visit_sequence == ("c", "a", "b")
        assert moved.methods["c"] == Sample()
        assert plan_errors(validate_plan(moved, small_data())) == []

    def test_idempotent_move(self):
        plan = ok_plan()
        assert reorder_visit(plan, "a", "start") == plan
        assert reorder_visit(plan, "c", "end") == plan

    def test_matrix_rederived(self):
        plan = ok_plan(predictor_matrix={"c": ("a", "b")})
        moved = reorder_visit(plan, "b", "end")
        assert moved.visit_sequence == ("a", "c", "b")
        assert moved.predictor_matrix["c"] == ("a",)
        assert plan_errors(validate_plan(moved, small_data())) == []

    def test_unknown_column_rejected(self):
        with pytest.raises(PlanError):
            reorder_visit(ok_plan(), "zzz", "start")

    @pytest.mark.parametrize("position", [-1, 3])
    def test_position_out_of_range(self, position):
        with pytest.raises(PlanError) as exc:
            reorder_visit(ok_plan(), "b", position)
        assert str(exc.value) == f"position {position} out of range"

    @pytest.mark.parametrize("position", ["middle", None, [1], "1", 1.5, 2.9, True])
    def test_position_that_is_no_index_rejected(self, position):
        with pytest.raises(PlanError) as got:
            reorder_visit(ok_plan(), "b", position)
        assert str(got.value) == f"position must be a whole number, got {position!r}"


def _example(cls):
    """An instance of a registered method, its required fields filled in."""
    required = {
        f.name: "a"
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    return cls(**required)


class TestMethodRegistry:
    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_round_trip_through_plan_json(self, name):
        spec = _example(METHODS[name])
        assert spec.name == name
        plan = SynthesisPlan(("a", "b"), {"a": Sample(), "b": spec})
        doc = json.loads(json.dumps(plan_to_json(plan)))
        if dataclasses.fields(spec):
            assert doc["methods"]["b"] == {"kind": name, **dataclasses.asdict(spec)}
        else:
            assert doc["methods"]["b"] == name
        assert plan_from_json(doc).methods["b"] == spec

    @pytest.mark.parametrize(
        "method",
        [
            "magic",
            {"kind": "magic"},
            {"min_bucket": 3},
            {"kind": ["cart"]},
            42,
            "nested",
            {"kind": "cart", "depth": 3},
            {"kind": "cart", "min_bucket": 0},
            {"kind": "logit", "tol": "small"},
            {"kind": "transform_normal", "transform": "log"},
            {"kind": "nested", "group_column": ["a"]},
        ],
    )
    def test_unknown_kinds_and_bad_fields_are_plan_errors(self, method):
        with pytest.raises(PlanError):
            plan_from_json({"visit_sequence": ["a", "b"], "methods": {"b": method}})

    # the kind-check texts the per-method checks in validate_plan gave
    KIND_ERRORS = {
        ("b", "logit"): "logit method requires categorical target, got 'b'",
        ("b", "multinomial"): "multinomial method requires categorical target, got 'b'",
        ("b", "nested"): "nested method requires categorical target, got 'b'",
        ("a", "normrank"): "normrank method requires numeric target, got 'a'",
        ("a", "transform_normal"): "transform_normal method requires numeric target, got 'a'",
        ("a", "logit"): "logit method requires a binary target, 'a' has 3 levels",
        ("c", "normrank"): "normrank method requires numeric target, got 'c'",
        ("c", "transform_normal"): "transform_normal method requires numeric target, got 'c'",
    }

    @pytest.mark.parametrize("name", sorted(METHODS))
    @pytest.mark.parametrize("column", ["a", "b", "c"])
    def test_kind_check_texts(self, name, column):
        spec = METHODS[name](group_column="a") if name == "nested" else METHODS[name]()
        order = ("a", "b", "c") if column != "a" else ("b", "c", "a")
        plan = SynthesisPlan(
            order,
            {order[0]: Sample(), column: spec},
        )
        errors = [
            d.message for d in plan_errors(validate_plan(plan, small_data()))
            if "method requires" in d.message
        ]
        expected = self.KIND_ERRORS.get((column, name))
        assert errors == ([expected] if expected else [])

    @pytest.mark.parametrize(
        "spec, options, message",
        [
            (Cart, {"min_bucket": 0}, "cart: min_bucket must be >= 1, got 0"),
            (Cart, {"complexity": -1e-3}, "cart: complexity must be >= 0, got -0.001"),
            (NormRank, {"residual_scale": -0.5}, "normrank: residual_scale must be >= 0, got -0.5"),
            (TransformNormal, {"transform": "log"}, "unknown transform 'log'"),
            (Logit, {"max_iter": 0}, "logit: max_iter must be >= 1, got 0"),
            (Logit, {"tol": 0.0}, "logit: tol must be > 0, got 0.0"),
            (Multinomial, {"max_iter": -2}, "multinomial: max_iter must be >= 1, got -2"),
            (Multinomial, {"tol": -1e-6}, "multinomial: tol must be > 0, got -1e-06"),
        ],
    )
    def test_option_error_texts(self, spec, options, message):
        with pytest.raises(PlanError) as exc:
            spec(**options)
        assert str(exc.value) == message

    def test_missing_models(self):
        assert Sample().missing_model is None
        assert Cart(min_bucket=9).missing_model == Cart(min_bucket=9)
        for name in ("normrank", "transform_normal", "logit", "multinomial", "nested"):
            assert _example(METHODS[name]).missing_model == Logit()


_CART = {"kind": "cart", "min_bucket": 5, "complexity": 1e-08}
_MULTINOMIAL = {"kind": "multinomial", "max_iter": 100, "tol": 1e-06}
_NESTED = {"kind": "nested", "group_column": "occ1"}
_RULES = [{"target": "mar", "condition": "age < 16", "value": "Single"}]
_CENSUS = ["region", "sex", "age", "mar", "occ1", "occ3", "pperroom"]


class TestPlanJsonPinned:
    """Plan JSON of the benchmark plans and the README example, key order
    included, as the isinstance-dispatched serializer wrote it."""

    BENCH_CART = {
        "visit_sequence": _CENSUS,
        "methods": {
            "region": "sample", "sex": "cart", "age": "cart", "mar": "cart",
            "occ1": "cart", "occ3": _NESTED, "pperroom": "cart",
        },
        "nesting": {"occ3": "occ1"},
        "rules": _RULES,
        "seed": 601,
    }
    BENCH_PARAMETRIC = {
        "visit_sequence": _CENSUS,
        "methods": {
            "region": "sample", "sex": "logit",
            "age": {"kind": "transform_normal", "transform": "sqrt"},
            "mar": "multinomial", "occ1": "multinomial", "occ3": _NESTED,
            "pperroom": "normrank",
        },
        "nesting": {"occ3": "occ1"},
        "rules": _RULES,
        "seed": 601,
    }
    README = {
        "visit_sequence": ["region", "sex", "age", "mar", "occ1", "pperroom", "occ3"],
        "methods": {
            "region": "sample",
            "age": {"kind": "cart", "min_bucket": 5, "complexity": 1e-8},
            "mar": "multinomial",
            "pperroom": {"kind": "normrank"},
        },
        "predictor_matrix": {"mar": ["sex", "age"]},
        "rules": _RULES,
        "stratifier": None,
        "nesting": {"occ3": "occ1"},
        "seed": 42,
    }

    def pinned(self, doc):
        return json.dumps(plan_to_json(plan_from_json(doc)))

    def test_bench_cart_plan(self):
        assert self.pinned(self.BENCH_CART) == json.dumps({
            "visit_sequence": _CENSUS,
            "methods": {
                "region": "sample", "sex": _CART, "age": _CART, "mar": _CART,
                "occ1": _CART, "occ3": _NESTED, "pperroom": _CART,
            },
            "seed": 601,
            "rules": _RULES,
            "nesting": {"occ3": "occ1"},
        })

    def test_bench_parametric_plan(self):
        assert self.pinned(self.BENCH_PARAMETRIC) == json.dumps({
            "visit_sequence": _CENSUS,
            "methods": {
                "region": "sample",
                "sex": {"kind": "logit", "max_iter": 100, "tol": 1e-06},
                "age": {"kind": "transform_normal", "transform": "sqrt"},
                "mar": _MULTINOMIAL,
                "occ1": _MULTINOMIAL,
                "occ3": _NESTED,
                "pperroom": {"kind": "normrank", "residual_scale": 1.0},
            },
            "seed": 601,
            "rules": _RULES,
            "nesting": {"occ3": "occ1"},
        })

    def test_readme_plan(self):
        assert self.pinned(self.README) == json.dumps({
            "visit_sequence": ["region", "sex", "age", "mar", "occ1", "pperroom", "occ3"],
            "methods": {
                "region": "sample",
                "age": _CART,
                "mar": _MULTINOMIAL,
                "pperroom": {"kind": "normrank", "residual_scale": 1.0},
                "occ3": _NESTED,
                "sex": _CART,
                "occ1": _CART,
            },
            "seed": 42,
            "predictor_matrix": {"mar": ["sex", "age"]},
            "rules": _RULES,
            "nesting": {"occ3": "occ1"},
        })
