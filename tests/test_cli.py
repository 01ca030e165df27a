import json

import pytest

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
        assert {v["name"] for v in doc["variables"]} >= {"mar", "occ3"}

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
        assert "nope" in capsys.readouterr().err

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

    def test_malformed_pair_exit_2(self, toy_files, tmp_path):
        root, data, schema, _ = toy_files
        rc = main(
            [
                "compare", "--original", str(data), "--synthetic", str(data),
                "--schema", str(schema), "--pairs", "mar*age*sex",
            ]
        )
        assert rc == 2
