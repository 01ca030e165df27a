import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import synthweave
from synthweave.cli import main


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    """Toy census CSV + schema file + a valid CART plan."""
    root = tmp_path_factory.mktemp("toy")
    data = root / "census.csv"
    assert main(["gentoy", "--rows", "3000", "--seed", "11", "--out", str(data)]) == 0
    model = json.loads((root / "census.model.json").read_text())
    schema = root / "schema.json"
    schema.write_text(json.dumps(model["schema"]))
    plan = root / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "visit_sequence": ["region", "sex", "age", "mar", "occ1", "pperroom", "occ3"],
                "methods": {
                    "region": "sample",
                    "sex": "cart",
                    "age": "cart",
                    "mar": "cart",
                    "occ1": "cart",
                    "pperroom": "cart",
                },
                "rules": [{"target": "mar", "condition": "age < 16", "value": "Single"}],
                "nesting": {"occ3": "occ1"},
                "seed": 5,
            }
        )
    )
    return root, data, schema, plan


class TestGentoy:
    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gentoy", "--rows", "400", "--seed", "2", "--out", str(a)]) == 0
        assert main(["gentoy", "--rows", "400", "--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_few_rows_exit_2(self, tmp_path, capsys):
        rc = main(["gentoy", "--rows", "50", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["gentoy", "--rows", "200", "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"
        assert not out.exists()

    def test_model_json_written(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["gentoy", "--rows", "200", "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "t.model.json").read_text())
        assert "schema" in doc and "sex_region_cell_probs" in doc


class TestSynth:
    def test_valid_plan_exit_0_same_rows(self, toy_files, tmp_path):
        root, data, schema, plan = toy_files
        out = tmp_path / "syn.csv"
        report = tmp_path / "report.json"
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(plan), "--out", str(out), "--report", str(report),
            ]
        )
        assert rc == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("# SYNTHETIC DATA:")
        assert len(text) == 3000 + 2  # stamp + header + rows
        doc = json.loads(report.read_text())
        assert doc["rows"] == 3000
        assert set(doc) == {
            "rows", "columns", "seed", "stratified", "variables", "warnings",
            "input", "output", "read_s", "write_s",
        }
        assert doc["read_s"] > 0 and doc["write_s"] > 0
        assert {v["name"] for v in doc["variables"]} >= {"mar", "occ3"}
        by_name = {v["name"]: v for v in doc["variables"]}
        for v in doc["variables"]:
            assert {"elapsed_s", "fit_s", "sample_s", "rules_s", "tree", "solver"} <= set(v)
            assert v["solver"] is None  # no Logit or Multinomial in this plan
            assert v["fit_s"] + v["sample_s"] + v["rules_s"] <= v["elapsed_s"] + 1e-5
        assert by_name["region"]["tree"] is None  # sample
        assert by_name["occ3"]["tree"] is None  # nested
        for name in ("sex", "age", "mar", "occ1", "pperroom"):
            tree = by_name[name]["tree"]
            assert set(tree) == {"nodes", "leaves", "depth"}
            assert tree["leaves"] >= 1 and tree["depth"] >= 0
        # pperroom has missing cells: its value tree plus its indicator tree
        assert by_name["pperroom"]["tree"]["nodes"] == 2 * by_name["pperroom"]["tree"]["leaves"] - 2

    def test_precedence_violation_exit_2_names_both(self, toy_files, tmp_path, capsys):
        root, data, schema, _ = toy_files
        bad = tmp_path / "bad_plan.json"
        bad.write_text(
            json.dumps(
                {
                    "visit_sequence": ["region", "sex"],
                    "methods": {"region": "sample", "sex": "cart"},
                    "predictor_matrix": {"region": ["sex"]},
                }
            )
        )
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(bad), "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "sex" in err and "region" in err

    def test_non_string_rule_condition_exits_2(self, toy_files, tmp_path, capsys):
        root, data, schema, plan = toy_files
        doc = json.loads(plan.read_text())
        doc["rules"] = [{"target": "mar", "condition": 16, "value": "Single"}]
        bad = tmp_path / "bad_rule.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(bad), "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 2
        assert "condition must be a string, got 16" in capsys.readouterr().err

    def test_nesting_map_conflicting_with_method_exits_2(self, toy_files, tmp_path, capsys):
        root, data, schema, plan = toy_files
        doc = json.loads(plan.read_text())
        doc["methods"]["occ3"] = "cart"
        bad = tmp_path / "bad_nesting.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(bad), "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 2
        assert "nesting['occ3'] = 'occ1' conflicts with methods['occ3']" in capsys.readouterr().err

    def test_method_for_a_column_not_visited_exits_2(self, toy_files, tmp_path, capsys):
        # a misspelled column used to pass, and "age" fell back to CART
        root, data, schema, plan = toy_files
        doc = json.loads(plan.read_text())
        doc["methods"]["agee"] = doc["methods"].pop("age")
        bad = tmp_path / "misspelled_method.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(bad), "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "plan error: methods names non-synthesized column 'agee'\n"
        assert not out.exists()

    def test_plan_errors_share_a_prefix_that_data_errors_lack(self, toy_files, tmp_path, capsys):
        """A plan file that does not parse and a plan that validation rejects
        both print ``plan error:`` and exit 2; a data file with a ragged row
        prints ``error:`` and exits 1."""
        root, data, schema, plan = toy_files
        unparsed = tmp_path / "unparsed.json"
        unparsed.write_text('{"visit_sequence": ')
        doc = json.loads(plan.read_text())
        doc["nesting"]["agee"] = "occ1"
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps(doc))
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(data.read_text() + "R1,F\n")
        got = []
        for data_file, plan_file in ((data, unparsed), (data, invalid), (ragged, plan)):
            rc = main(
                [
                    "synth", "--data", str(data_file), "--schema", str(schema),
                    "--plan", str(plan_file), "--out", str(tmp_path / "o.csv"),
                ]
            )
            err = capsys.readouterr().err
            got.append((rc, err.split(": ", 1)[0], err.count("\n")))
        assert got == [(2, "plan error", 1), (2, "plan error", 1), (1, "error", 1)]
        assert not (tmp_path / "o.csv").exists()

    def test_malformed_plan_file_exits_2_without_traceback(self, toy_files, tmp_path):
        # through a real interpreter, so an escaping exception would show as
        # a traceback on stderr and exit code 1
        root, data, schema, plan = toy_files
        doc = json.loads(plan.read_text())
        del doc["rules"][0]["condition"]
        bad = tmp_path / "no_condition.json"
        bad.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=str(Path(synthweave.__file__).parents[1]))
        result = subprocess.run(
            [
                sys.executable, "-m", "synthweave", "synth", "--data", str(data),
                "--schema", str(schema), "--plan", str(bad), "--out", str(tmp_path / "o.csv"),
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert "plan error: rules[0] lacks condition" in result.stderr

    @pytest.mark.parametrize(
        "option, value, text, message",
        [("max_iter", math.inf, "Infinity", "max_iter must be a whole number, got inf"),
         ("tol", math.nan, "NaN", "tol must be a finite number, got nan")],
    )
    def test_infinite_or_nan_solver_option_exits_2_without_traceback(
        self, toy_files, tmp_path, option, value, text, message
    ):
        # an infinite max_iter used to pass validation and end in a TypeError
        # from the solver; a NaN tol passed every check
        root, data, schema, plan = toy_files
        doc = json.loads(plan.read_text())
        doc["methods"]["sex"] = {"kind": "logit", option: value}
        bad = tmp_path / "bad_option.json"
        bad.write_text(json.dumps(doc))
        assert f'"{option}": {text}' in bad.read_text()
        env = dict(os.environ, PYTHONPATH=str(Path(synthweave.__file__).parents[1]))
        result = subprocess.run(
            [
                sys.executable, "-m", "synthweave", "synth", "--data", str(data),
                "--schema", str(schema), "--plan", str(bad), "--out", str(tmp_path / "o.csv"),
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr == f"plan error: logit: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_seed_override_deterministic(self, toy_files, tmp_path):
        root, data, schema, plan = toy_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = main(
                [
                    "synth", "--data", str(data), "--schema", str(schema),
                    "--plan", str(plan), "--out", str(out), "--seed", "99",
                ]
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_to_one_out_gives_the_fresh_bytes(self, toy_files, tmp_path):
        # seed 6 writes a longer file than seed 2; rewriting it in place
        # must leave no tail of it, and a report over a longer file must
        # still read back
        root, data, schema, plan = toy_files
        out, fresh, report = tmp_path / "syn.csv", tmp_path / "fresh.csv", tmp_path / "r.json"
        report.write_text("{}" + " " * 100_000 + "x")

        def synth(seed, path):
            return main(
                [
                    "synth", "--data", str(data), "--schema", str(schema), "--plan", str(plan),
                    "--out", str(path), "--seed", seed, "--report", str(report),
                ]
            )

        assert synth("6", out) == 0
        longer = out.stat().st_size
        assert synth("2", out) == 0 and synth("2", fresh) == 0
        assert longer > fresh.stat().st_size
        assert out.read_bytes() == fresh.read_bytes()
        assert json.loads(report.read_text())["output"] == str(fresh)

    def test_directory_as_out_exit_1(self, toy_files, tmp_path, capsys):
        root, data, schema, plan = toy_files
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(plan), "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert len(err.splitlines()) == 1

    def test_stratum_fit_error_exit_1_names_the_stratum(self, tmp_path, capsys):
        # stratum A has every x missing; stratum B synthesizes
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"g": {"levels": ["A", "B"]}, "t": {"levels": ["u", "v"]},
                                      "x": "numeric"}))
        rows = [("A", "uv"[i % 2], "NA") for i in range(300)]
        rows += [("B", "uv"[i % 3 % 2], str(i / 7)) for i in range(300)]
        data = tmp_path / "data.csv"
        data.write_text("g,t,x\n" + "".join(f"{g},{t},{x}\n" for g, t, x in rows))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"visit_sequence": ["t", "x"], "methods": {"t": "sample"},
                                    "stratifier": "g", "seed": 2}))
        out = tmp_path / "out.csv"
        argv = ["synth", "--data", str(data), "--schema", str(schema), "--plan", str(plan),
                "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: [A] x: all values missing\n"
        assert not out.exists()

    def test_env_seed_fallback(self, toy_files, tmp_path, monkeypatch):
        root, data, schema, _ = toy_files
        plan_doc = {
            "visit_sequence": ["region", "sex"],
            "methods": {"region": "sample", "sex": "cart"},
        }
        plan = tmp_path / "noseed.json"
        plan.write_text(json.dumps(plan_doc))
        outs = []
        for env_seed, name in [("7", "a.csv"), ("7", "b.csv"), ("8", "c.csv")]:
            monkeypatch.setenv("SYNTHWEAVE_SEED", env_seed)
            out = tmp_path / name
            assert main(
                [
                    "synth", "--data", str(data), "--schema", str(schema),
                    "--plan", str(plan), "--out", str(out),
                ]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_sdc_section_applied(self, toy_files, tmp_path):
        root, data, schema, _ = toy_files
        plan = tmp_path / "sdc_plan.json"
        plan.write_text(
            json.dumps(
                {
                    "visit_sequence": ["region", "sex", "age"],
                    "methods": {"region": "sample", "sex": "cart", "age": "cart"},
                    "seed": 3,
                    "sdc": {
                        "key_variables": ["region", "sex", "age"],
                        "noise_targets": ["age"],
                        "noise_scale": 0.05,
                        "label": "pilot extract",
                    },
                }
            )
        )
        out = tmp_path / "syn.csv"
        report = tmp_path / "rep.json"
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(plan), "--out", str(out), "--report", str(report),
            ]
        )
        assert rc == 0
        assert out.read_text().startswith("# SYNTHETIC DATA: pilot extract\n")
        doc = json.loads(report.read_text())
        assert "sdc" in doc and doc["sdc"]["noise"] == {"age": 0.05}


    @pytest.mark.parametrize(
        "sdc, message",
        [
            (["a"], "sdc must map settings to values, got ['a']"),
            ({"noise_scale": "x"}, "sdc.noise_scale must be a number >= 0, got 'x'"),
            (
                {"key_variables": "region"},
                "sdc.key_variables must be a list of column names, got 'region'",
            ),
        ],
    )
    def test_malformed_sdc_section_exits_2_before_synthesis(
        self, toy_files, tmp_path, capsys, monkeypatch, sdc, message
    ):
        root, data, schema, plan = toy_files
        doc = dict(json.loads(plan.read_text()), sdc=sdc)
        bad = tmp_path / "bad_sdc.json"
        bad.write_text(json.dumps(doc))

        def synthesize(*args, **kwargs):
            raise AssertionError("synthesis ran before the sdc section was read")

        monkeypatch.setattr("synthweave.cli.synthesize", synthesize)
        out = tmp_path / "o.csv"
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(bad), "--out", str(out),
            ]
        )
        assert rc == 2
        assert f"plan error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sdc, message",
        [
            (
                {"key_variables": ["region", "nope"]},
                "sdc.key_variables: column 'nope' is not synthesized",
            ),
            (
                {"noise_targets": ["sex"], "noise_scale": 0.1},
                "sdc.noise_targets: column 'sex' is not numeric",
            ),
            (
                {"noise_targets": ["age", "nope"], "noise_scale": 0.1},
                "sdc.noise_targets: column 'nope' is not synthesized",
            ),
        ],
    )
    def test_sdc_columns_checked_before_synthesis(
        self, toy_files, tmp_path, capsys, monkeypatch, sdc, message
    ):
        root, data, schema, plan = toy_files
        doc = dict(json.loads(plan.read_text()), sdc=sdc)
        bad = tmp_path / "bad_sdc.json"
        bad.write_text(json.dumps(doc))

        def synthesize(*args, **kwargs):
            raise AssertionError("synthesis ran before the sdc columns were checked")

        monkeypatch.setattr("synthweave.cli.synthesize", synthesize)
        out, report = tmp_path / "o.csv", tmp_path / "r.json"
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(bad), "--out", str(out), "--report", str(report),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"plan error: {message}\n"
        assert not out.exists() and not report.exists()

    def test_schema_columns_not_an_object_names_the_file(self, toy_files, tmp_path, capsys):
        root, data, _, plan = toy_files
        schema = tmp_path / "list_schema.json"
        schema.write_text(json.dumps({"columns": ["region", "sex"]}))
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(plan), "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {schema}: schema columns must be an object")
        assert len(err.splitlines()) == 1

    def test_schema_file_not_json_exits_1_naming_the_file(self, toy_files, tmp_path, capsys):
        root, data, _, plan = toy_files
        schema = tmp_path / "schema.json"
        schema.write_text('{"columns": {"region": "categorical",')
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(plan), "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {schema}: not a UTF-8 JSON document")
        assert len(err.splitlines()) == 1

    def test_plan_file_not_json_exits_2_naming_the_file(self, toy_files, tmp_path, capsys):
        root, data, schema, _ = toy_files
        plan = tmp_path / "plan.json"
        plan.write_text("visit_sequence: [region, sex]\n")
        out = tmp_path / "o.csv"
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(plan), "--out", str(out),
            ]
        )
        assert rc == 2
        assert f"plan error: {plan}: not a UTF-8 JSON document" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels", [5, ["R1", 1]], ids=["not-a-list", "non-string-level"])
    def test_bad_schema_levels_exit_1_naming_the_column(
        self, toy_files, tmp_path, capsys, levels
    ):
        root, data, schema, plan = toy_files
        doc = json.loads(schema.read_text())
        doc["columns"]["region"] = {"levels": levels}
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(bad),
                "--plan", str(plan), "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: schema for 'region': expected 'numeric', 'categorical' or a list of "
            f"string levels, got {doc['columns']['region']!r}"
        )
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "levels, problem",
        [
            ([], "categorical kind needs at least one level"),
            (["R1", "R1"], "categorical levels must be unique"),
        ],
        ids=["no-levels", "repeated-level"],
    )
    def test_invalid_schema_levels_exit_1_naming_the_column(
        self, toy_files, tmp_path, capsys, levels, problem
    ):
        root, data, schema, plan = toy_files
        doc = json.loads(schema.read_text())
        doc["columns"]["region"] = {"levels": levels}
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(bad),
                "--plan", str(plan), "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: schema for 'region': {problem}, got {{'levels': {levels!r}}}\n"

    @pytest.mark.parametrize(
        "flag, plan_seed, env, expected",
        [
            ("99", 5, "7", 99),   # --seed first
            (None, 5, "7", 5),    # then the plan's seed
            (None, 0, "7", 0),    # a plan seed of 0 is still the plan's
            (None, None, "7", 7),  # then SYNTHWEAVE_SEED
            (None, None, None, 0),  # then 0
        ],
    )
    def test_seed_order(self, toy_files, tmp_path, monkeypatch, flag, plan_seed, env, expected):
        root, data, schema, _ = toy_files
        plan_doc = {"visit_sequence": ["region", "sex"]}
        if plan_seed is not None:
            plan_doc["seed"] = plan_seed
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_doc))
        if env is None:
            monkeypatch.delenv("SYNTHWEAVE_SEED", raising=False)
        else:
            monkeypatch.setenv("SYNTHWEAVE_SEED", env)
        report = tmp_path / "r.json"
        argv = [
            "synth", "--data", str(data), "--schema", str(schema), "--plan", str(plan),
            "--out", str(tmp_path / "o.csv"), "--report", str(report),
        ]
        assert main(argv + (["--seed", flag] if flag else [])) == 0
        assert json.loads(report.read_text())["seed"] == expected

    def test_non_integer_env_seed_exits_2(self, toy_files, tmp_path, capsys, monkeypatch):
        root, data, schema, _ = toy_files
        plan = tmp_path / "noseed.json"
        plan.write_text(json.dumps({"visit_sequence": ["region", "sex"]}))
        monkeypatch.setenv("SYNTHWEAVE_SEED", "x")
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(plan), "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 2
        assert "plan error: SYNTHWEAVE_SEED must be an integer, got 'x'" in capsys.readouterr().err


class TestUtilityCommand:
    def test_identical_files_all_zero(self, toy_files, tmp_path):
        root, data, schema, _ = toy_files
        report = tmp_path / "u.json"
        rc = main(
            [
                "utility", "--original", str(data), "--synthetic", str(data),
                "--schema", str(schema), "--tables", "mar*age,occ1*sex",
                "--report", str(report),
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert set(doc) == {"u_gen", "tables", "flags", "read_s"}
        assert doc["read_s"] > 0
        assert doc["u_gen"]["statistic"] == pytest.approx(0.0, abs=1e-6)
        for t in doc["tables"]:
            assert t["u_tab"] == 0.0

    def test_interactions_model_in_report(self, toy_files, tmp_path):
        root, data, schema, _ = toy_files
        docs = {}
        for model in ("main", "interactions"):
            report = tmp_path / f"{model}.json"
            rc = main(
                [
                    "utility", "--original", str(data), "--synthetic", str(data),
                    "--schema", str(schema), "--model", model,
                    "--report", str(report),
                ]
            )
            assert rc == 0
            docs[model] = json.loads(report.read_text())["u_gen"]
        assert docs["interactions"]["model"] == "interactions"
        assert docs["interactions"]["statistic"] == pytest.approx(0.0, abs=1e-6)
        # the 200-level occ3 enters as main effects only, so the interactions
        # add just the products of the other six variables' 15 columns:
        # C(15, 2) less the 18 pairs within region, mar, occ1 and pperroom
        assert docs["interactions"]["df"] - docs["main"]["df"] == 87

    def test_unknown_table_variable_exit_2(self, toy_files, tmp_path, capsys):
        root, data, schema, _ = toy_files
        rc = main(
            [
                "utility", "--original", str(data), "--synthetic", str(data),
                "--schema", str(schema), "--tables", "mar*nope",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: unknown variable 'nope' in --tables\n"

    def test_parametric_mar_age_table_ratio_huge(self, toy_files, tmp_path):
        # linear-in-age multinomial leaves a glaring mar-by-age misfit
        root, data, schema, _ = toy_files
        plan = tmp_path / "par_plan.json"
        plan.write_text(
            json.dumps(
                {
                    "visit_sequence": ["region", "sex", "age", "mar"],
                    "methods": {
                        "region": "sample",
                        "sex": "logit",
                        "age": {"kind": "transform_normal", "transform": "sqrt"},
                        "mar": "multinomial",
                    },
                    "seed": 2,
                }
            )
        )
        out = tmp_path / "par.csv"
        synth_report = tmp_path / "par.json"
        assert main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(plan), "--out", str(out), "--report", str(synth_report),
            ]
        ) == 0
        variables = json.loads(synth_report.read_text())["variables"]
        solvers = {v["name"]: v["solver"] for v in variables}
        assert solvers["region"] is None and solvers["age"] is None
        for name in ("sex", "mar"):
            assert set(solvers[name]) == {"iterations", "converged", "gradient_norm", "cells"}
            assert solvers[name]["converged"] is True and solvers[name]["iterations"] >= 2
            assert solvers[name]["gradient_norm"] < 1e-6
        # sex is fit on region alone: one design row per region, and 3000
        # rows hold every region
        regions = json.loads(schema.read_text())["columns"]["region"]["levels"]
        assert solvers["sex"]["cells"] == len(regions)
        assert len(regions) < solvers["mar"]["cells"] <= 3000
        report = tmp_path / "u.json"
        rc = main(
            [
                "utility", "--original", str(data), "--synthetic", str(out),
                "--schema", str(schema), "--tables", "mar*age",
                "--report", str(report),
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["tables"][0]["ratio"] > 10

    def test_bootstrap_vs_cart_ugen_ordering(self, toy_files, tmp_path):
        root, data, schema, plan = toy_files
        boot_plan = tmp_path / "boot.json"
        boot_plan.write_text(
            json.dumps(
                {
                    "visit_sequence": ["region", "sex", "age", "mar", "occ1", "pperroom"],
                    "methods": {
                        c: "sample"
                        for c in ["region", "sex", "age", "mar", "occ1", "pperroom"]
                    },
                    "seed": 4,
                }
            )
        )
        ratios = {}
        for name, p in [("boot", boot_plan), ("cart", plan)]:
            out = tmp_path / f"{name}.csv"
            assert main(
                [
                    "synth", "--data", str(data), "--schema", str(schema),
                    "--plan", str(p), "--out", str(out),
                ]
            ) == 0
            report = tmp_path / f"{name}_u.json"
            assert main(
                [
                    "utility", "--original", str(data), "--synthetic", str(out),
                    "--schema", str(schema), "--report", str(report),
                    "--model", "interactions",
                ]
            ) == 0
            ratios[name] = json.loads(report.read_text())["u_gen"]["ratio"]
        assert ratios["boot"] > 10 * ratios["cart"]

    def test_pipeline_closure_synth_then_utility(self, toy_files, tmp_path):
        root, data, schema, plan = toy_files
        out = tmp_path / "syn.csv"
        assert main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(plan), "--out", str(out),
            ]
        ) == 0
        report = tmp_path / "u.json"
        rc = main(
            [
                "utility", "--original", str(data), "--synthetic", str(out),
                "--schema", str(schema), "--tables", "mar*age",
                "--report", str(report),
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["u_gen"]["ratio"] < 3.0  # CART synthesis scores well
        # the solver's own account of the propensity fit
        assert doc["u_gen"]["iterations"] >= 2
        assert doc["u_gen"]["converged"] is True
        assert 0.0 <= doc["u_gen"]["gradient_norm"] < 1e-6
        # the fit's design rows: the distinct rows of the stacked data
        assert 1 <= doc["u_gen"]["cells"] <= 6000


class TestPrettyOutput:
    """The human-readable lines ``--pretty`` prints, each from the report
    the same run writes."""

    def test_synth(self, toy_files, tmp_path, capsys):
        root, data, schema, _ = toy_files
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "visit_sequence": ["region", "sex", "age", "mar"],
                    "rules": [{"target": "mar", "condition": "age < 16", "value": "Single"}],
                    "stratifier": "sex",
                    "seed": 4,
                }
            )
        )
        report = tmp_path / "r.json"
        rc = main(
            [
                "synth", "--data", str(data), "--schema", str(schema), "--plan", str(plan),
                "--out", str(tmp_path / "o.csv"), "--report", str(report), "--pretty",
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"{v['name']} [{v['stratum']}]: {v['method']}  fit n={v['n_fit']}  "
            f"{v['elapsed_s']:.3f}s  forced={v['rule_forced']}"
            for v in doc["variables"]
        ] + [
            "warning: stratifier 'sex' also appears in visit_sequence; it is copied "
            "verbatim within each stratum, not synthesized"
        ]
        assert [line.split(": ")[0] for line in lines[:3]] == ["region [F]", "age [F]", "mar [F]"]
        assert doc["variables"][2]["rule_forced"] > 0

    def test_utility(self, toy_files, tmp_path, capsys):
        root, data, schema, _ = toy_files
        # every column bootstrapped on its own: the audit flags the damage
        columns = ["region", "sex", "age", "mar", "occ1", "pperroom", "occ3"]
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "visit_sequence": columns,
                    "methods": {c: "sample" for c in columns},
                    "seed": 2,
                }
            )
        )
        synthetic = tmp_path / "syn.csv"
        assert main(
            [
                "synth", "--data", str(data), "--schema", str(schema), "--plan", str(plan),
                "--out", str(synthetic),
            ]
        ) == 0
        report = tmp_path / "u.json"
        rc = main(
            [
                "utility", "--original", str(data), "--synthetic", str(synthetic),
                "--schema", str(schema), "--tables", "mar*age,occ1*sex",
                "--report", str(report), "--pretty",
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        ug = doc["u_gen"]
        assert ug["flagged_variables"] and ug["p_value"] is not None
        assert capsys.readouterr().out.splitlines() == [
            f"U_gen[main_effects] = {ug['statistic']:.2f}  df={ug['df']}  "
            f"ratio={ug['ratio']:.2f}  p={ug['p_value']:.4g}",
            "flagged variables: " + ", ".join(ug["flagged_variables"]),
        ] + [
            f"U_tab[{name}] = {t['u_tab']:.2f}  df={t['df']}  ratio={t['ratio']:.2f}"
            for name, t in zip(("mar*age", "occ1*sex"), doc["tables"])
        ]

    def test_compare(self, toy_files, tmp_path, capsys):
        root, data, schema, plan = toy_files
        synthetic = tmp_path / "syn.csv"
        assert main(
            [
                "synth", "--data", str(data), "--schema", str(schema), "--plan", str(plan),
                "--out", str(synthetic),
            ]
        ) == 0
        report = tmp_path / "c.json"
        rc = main(
            [
                "compare", "--original", str(data), "--synthetic", str(synthetic),
                "--schema", str(schema), "--pairs", "mar*age,occ1*age",
                "--report", str(report), "--pretty",
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        categorical = ("region", "sex", "mar", "occ1", "occ3")
        assert capsys.readouterr().out.splitlines() == [
            f"{name}: max |prop diff| = {doc['univariate'][name]['max_abs_diff']:.4f}"
            for name in categorical
        ] + [
            f"%{a} by age: max |pct diff| = {b['max_abs_diff_pct']:.2f}"
            for a, b in zip(("mar", "occ1"), doc["bivariate"])
        ] + [f"flag: {f}" for f in doc["flags"]]


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["utility", "synth"])
    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_cell_exit_1_names_row_and_column(
        self, toy_files, tmp_path, capsys, command, cell
    ):
        root, data, schema, plan = toy_files
        lines = data.read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("pperroom")
        fields = lines[4].split(",")
        fields[col] = cell
        lines[4] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        if command == "utility":
            argv = ["utility", "--original", str(data), "--synthetic", str(bad),
                    "--schema", str(schema)]
        else:
            argv = ["synth", "--data", str(bad), "--schema", str(schema),
                    "--plan", str(plan), "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "row 5, column 'pperroom'" in err


class TestUndecodableInput:
    @pytest.mark.parametrize("command", ["utility", "synth"])
    @pytest.mark.parametrize("damage", ["byte", "long_field"])
    def test_exit_1_names_the_file(self, toy_files, tmp_path, capsys, command, damage):
        root, data, schema, plan = toy_files
        lines = data.read_bytes().split(b"\n")
        if damage == "byte":
            lines[7] = lines[7].replace(b",", b",\xff", 1)
        else:
            lines[7] = lines[7] + b"x" * 200_000
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        if command == "utility":
            argv = ["utility", "--original", str(data), "--synthetic", str(bad),
                    "--schema", str(schema)]
        else:
            argv = ["synth", "--data", str(bad), "--schema", str(schema),
                    "--plan", str(plan), "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert len(err.splitlines()) == 1
        assert ("not UTF-8" if damage == "byte" else "field larger than field limit") in err


class TestHostileAuditInput:
    """Degenerate inputs to the audit end in ``error: ...`` and exit 1."""

    @pytest.fixture
    def write_pair(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"a": {"levels": ["x", "y"]}, "b": "numeric"}))

        def write(original_rows, synthetic_rows):
            paths = []
            for name, rows in (("orig", original_rows), ("syn", synthetic_rows)):
                path = tmp_path / f"{name}.csv"
                path.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in rows))
                paths.append(path)
            return paths, schema

        return write

    @staticmethod
    def _run(command, original, synthetic, schema, report):
        return main(
            [command, "--original", str(original), "--synthetic", str(synthetic),
             "--schema", str(schema), "--report", str(report)]
        )

    @pytest.mark.parametrize("command", ["utility", "compare"])
    def test_all_missing_original_numeric_column(self, write_pair, tmp_path, capsys, command):
        (orig, syn), schema = write_pair(
            [("x", "NA"), ("y", "NA"), ("x", "NA")], [("x", "1.5"), ("y", "2"), ("x", "3")]
        )
        report = tmp_path / "r.json"
        assert self._run(command, orig, syn, schema, report) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'b'" in err and "original" in err
        assert not report.exists()

    @pytest.mark.parametrize("command", ["utility", "compare"])
    def test_no_shared_column_exit_1(self, tmp_path, capsys, command):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"a": {"levels": ["x", "y"]}, "b": "numeric"}))
        orig, syn = tmp_path / "orig.csv", tmp_path / "syn.csv"
        orig.write_text("a\nx\ny\nx\n")
        syn.write_text("b\n1\n2\n3\n")
        report = tmp_path / "r.json"
        assert self._run(command, orig, syn, schema, report) == 1
        assert capsys.readouterr().err == "error: datasets share no columns\n"
        assert not report.exists()

    @pytest.mark.parametrize(
        "command, empty", [("utility", "both"), ("utility", "syn"), ("compare", "syn")]
    )
    def test_header_only_dataset(self, write_pair, tmp_path, capsys, command, empty):
        rows = [("x", "1"), ("y", "2"), ("x", "3")]
        (orig, syn), schema = write_pair([] if empty == "both" else rows, [])
        report = tmp_path / "r.json"
        assert self._run(command, orig, syn, schema, report) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no rows" in err
        assert ("'orig'" if empty == "both" else "'syn'") in err
        assert not report.exists()


class TestCompareCommand:
    def test_identical_files_zero_differences(self, toy_files, tmp_path):
        root, data, schema, _ = toy_files
        report = tmp_path / "c.json"
        rc = main(
            [
                "compare", "--original", str(data), "--synthetic", str(data),
                "--schema", str(schema), "--pairs", "mar*age",
                "--report", str(report),
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert set(doc) == {"univariate", "bivariate", "flags", "read_s"}
        assert doc["read_s"] > 0
        assert doc["bivariate"][0]["max_abs_diff_pct"] == 0.0
        for comp in doc["univariate"].values():
            if "max_abs_diff" in comp:
                assert comp["max_abs_diff"] == 0.0

    def test_cart_married_bands_close(self, toy_files, tmp_path):
        root, data, schema, plan = toy_files
        out = tmp_path / "syn.csv"
        assert main(
            [
                "synth", "--data", str(data), "--schema", str(schema),
                "--plan", str(plan), "--out", str(out),
            ]
        ) == 0
        report = tmp_path / "c.json"
        rc = main(
            [
                "compare", "--original", str(data), "--synthetic", str(out),
                "--schema", str(schema), "--pairs", "mar*age", "--bins", "8",
                "--report", str(report),
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["bivariate"][0]["max_abs_diff_pct"] < 5.0

    def test_report_to_stdout_without_report_flag(self, toy_files, capsys):
        root, data, schema, _ = toy_files
        argv = ["compare", "--original", str(data), "--synthetic", str(data),
                "--schema", str(schema), "--pairs", "mar*age"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"univariate", "bivariate", "flags", "read_s"}
        assert doc["bivariate"][0]["max_abs_diff_pct"] == 0.0

    def test_pretty_prints_flags(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"b": "numeric"}))
        orig, syn = tmp_path / "orig.csv", tmp_path / "syn.csv"
        orig.write_text("b\n1\n2\n3\n")
        syn.write_text("b\n1\n2\n10\n")
        report = tmp_path / "c.json"
        argv = ["compare", "--original", str(orig), "--synthetic", str(syn),
                "--schema", str(schema), "--report", str(report), "--pretty"]
        assert main(argv) == 0
        flags = json.loads(report.read_text())["flags"]
        assert flags == ["b: synthetic range [1, 10] exceeds original [1, 3]"]
        assert capsys.readouterr().out.splitlines() == [f"flag: {flags[0]}"]

    def test_malformed_pair_exit_2(self, toy_files, tmp_path):
        root, data, schema, _ = toy_files
        rc = main(
            [
                "compare", "--original", str(data), "--synthetic", str(data),
                "--schema", str(schema), "--pairs", "mar*age*sex",
            ]
        )
        assert rc == 2

    def test_unknown_pair_variable_exit_2(self, toy_files, tmp_path, capsys):
        root, data, schema, _ = toy_files
        rc = main(
            [
                "compare", "--original", str(data), "--synthetic", str(data),
                "--schema", str(schema), "--pairs", "mar*age,sex*nope",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: unknown variable 'nope' in --pairs\n"

    @pytest.mark.parametrize("bins", ["1", "0", "-3"])
    def test_fewer_than_two_bins_exit_2(self, toy_files, tmp_path, capsys, bins):
        root, data, schema, _ = toy_files
        report = tmp_path / "c.json"
        rc = main(
            [
                "compare", "--original", str(data), "--synthetic", str(data),
                "--schema", str(schema), "--pairs", "mar*age", "--bins", bins,
                "--report", str(report),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: --bins must be >= 2, got {bins}\n"
        assert not report.exists()


def test_synth_and_utility_leave_scipy_linalg_special_and_stats_unloaded(tmp_path):
    # the CLI's start-up and memory grow by about a third with any of these
    # modules; other tests load them into this process, so the check runs the
    # commands in a fresh interpreter, on a plan with every regression method
    code = textwrap.dedent(
        """
        import json, sys
        from pathlib import Path
        from synthweave.cli import main
        work = Path(sys.argv[1])
        assert main(["gentoy", "--rows", "2000", "--seed", "3", "--out", str(work / "d.csv")]) == 0
        model = json.loads((work / "d.model.json").read_text())
        (work / "schema.json").write_text(json.dumps(model["schema"]))
        (work / "plan.json").write_text(json.dumps({
            "visit_sequence": ["region", "sex", "age", "mar", "occ1", "occ3", "pperroom"],
            "methods": {
                "region": "sample",
                "sex": "logit",
                "age": {"kind": "transform_normal", "transform": "sqrt"},
                "mar": "multinomial",
                "occ1": "multinomial",
                "occ3": {"kind": "nested", "group_column": "occ1"},
                "pperroom": "normrank",
            },
            "nesting": {"occ3": "occ1"},
            "seed": 8,
        }))
        files = {name: str(work / name) for name in ("d.csv", "schema.json", "plan.json", "s.csv", "u.json")}
        assert main([
            "synth", "--data", files["d.csv"], "--schema", files["schema.json"],
            "--plan", files["plan.json"], "--out", files["s.csv"],
        ]) == 0
        assert main([
            "utility", "--original", files["d.csv"], "--synthetic", files["s.csv"],
            "--schema", files["schema.json"], "--tables", "mar*age", "--report", files["u.json"],
        ]) == 0
        report = json.loads(Path(files["u.json"]).read_text())
        assert 0.0 < report["u_gen"]["p_value"] <= 1.0
        assert 0.0 <= report["tables"][0]["p_value"] <= 1.0
        loaded = [m for m in ("scipy.linalg", "scipy.special", "scipy.stats") if m in sys.modules]
        assert not loaded, loaded
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(synthweave.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_plans_without_a_regression_and_compare_leave_scipy_unloaded(tmp_path):
    # every sparse matrix is built in synthweave.design, which imports
    # scipy.sparse on first use: synth with a sample, CART and nested plan
    # (pperroom has missing cells, so its missingness tree is fitted too),
    # compare and gentoy load no SciPy module; a regression fit and utility
    # in the same interpreter load it then and still work
    code = textwrap.dedent(
        """
        import json, sys
        from pathlib import Path
        from synthweave.cli import main
        work = Path(sys.argv[1])
        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert main(["gentoy", "--rows", "2000", "--seed", "3", "--out", str(work / "d.csv")]) == 0
        model = json.loads((work / "d.model.json").read_text())
        (work / "schema.json").write_text(json.dumps(model["schema"]))
        methods = {
            "cart": {
                "region": "sample", "sex": "cart", "age": "cart", "mar": "cart",
                "occ1": "cart", "occ3": {"kind": "nested", "group_column": "occ1"},
                "pperroom": "cart",
            },
            "parametric": {"region": "sample", "sex": "logit", "pperroom": "normrank"},
        }
        files = {name: str(work / name) for name in ("d.csv", "schema.json", "u.json")}
        def synth(kind):
            plan = work / f"{kind}_plan.json"
            plan.write_text(json.dumps({
                "visit_sequence": ["region", "sex", "age", "mar", "occ1", "occ3", "pperroom"],
                "methods": methods[kind], "nesting": {"occ3": "occ1"}, "seed": 8,
            }))
            out, report = work / f"{kind}.csv", work / f"{kind}.json"
            assert main([
                "synth", "--data", files["d.csv"], "--schema", files["schema.json"],
                "--plan", str(plan), "--out", str(out), "--report", str(report),
            ]) == 0
            return str(out), json.loads(report.read_text())
        cart_csv, report = synth("cart")
        pperroom = next(v for v in report["variables"] if v["name"] == "pperroom")
        assert pperroom["tree"]["nodes"] == 2 * pperroom["tree"]["leaves"] - 2, pperroom
        assert main([
            "compare", "--original", files["d.csv"], "--synthetic", cart_csv,
            "--schema", files["schema.json"], "--pairs", "mar*age",
        ]) == 0
        assert not scipy_modules(), scipy_modules()
        synth("parametric")
        assert "scipy.sparse" in sys.modules
        assert main([
            "utility", "--original", files["d.csv"], "--synthetic", cart_csv,
            "--schema", files["schema.json"], "--tables", "mar*age", "--report", files["u.json"],
        ]) == 0
        assert 0.0 < json.loads(Path(files["u.json"]).read_text())["u_gen"]["p_value"] <= 1.0
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(synthweave.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
