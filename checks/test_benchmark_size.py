"""Checks at the benchmark's size (50k rows), too slow for the tier-1 suite.

    python -m pytest checks -q -s

Run from the repository root; the module puts ``src``, ``tests`` and the
root on ``sys.path`` itself.  Each check writes its files under pytest's
temporary directory.  The CART and SDC references read one recorded run of
the benchmark's ``synth_cart`` operation (50k rows, seed 7), and the
regression, design and CSV-writer references one of its ``synth_parametric``
operation and one of its ``audit`` inputs.  The
benchmark's CART plan visits ``pperroom`` last, so a CART plan that visits
it before ``mar`` and ``occ1`` checks trees on its missing cells.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from synthweave import (  # noqa: E402
    cart, cli, design, engine, load_plan, models, read_csv, sdc, synthesize, utility, write_csv,
)
from synthweave.tabular import distinct_rows  # noqa: E402
from test_cart import _ref_fit_cart, _ref_route_rows  # noqa: E402
from test_design import (  # noqa: E402
    _assert_same_csr, _assert_same_solve, _ref_build_design, _ref_matrix,
)
from test_engine import assert_matches_reference, expand_missing_predictors  # noqa: E402
from test_sdc import _text_key_drops  # noqa: E402
from test_tabular import _csv_module_bytes  # noqa: E402

ROWS = 50_000


def _gentoy(work: Path, name: str, rows: int, *seed: str) -> tuple[Path, Path]:
    """A census CSV written by the ``gentoy`` command, and its schema file."""
    data = work / f"{name}.csv"
    assert cli.main(["gentoy", "--rows", str(rows), *seed, "--out", str(data)]) == 0
    model = json.loads((work / f"{name}.model.json").read_text(encoding="utf-8"))
    schema = work / f"{name}_schema.json"
    schema.write_text(json.dumps(model["schema"]), encoding="utf-8")
    return data, schema


def test_csv_round_trip(tmp_path):
    """Read a 50k-row census back with its schema, write it again over a file
    twice its size, compare bytes: no tail of the old file may survive.  The
    read converts the file a block of rows at a time, so its peak allocation
    stays below 3x the arrays it returns; a list of every cell string of the
    file would take it to about 8x."""
    src, schema = _gentoy(tmp_path, "census", ROWS)
    again = tmp_path / "again.csv"
    again.write_bytes(src.read_bytes() * 2)
    schema = cli.load_schema(schema)
    tracemalloc.start()
    data = read_csv(src, schema)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    arrays = sum(c.values.nbytes for c in data.columns)
    print(f"read_csv peak {peak / 2**20:.2f} MiB, {peak / arrays:.2f}x its arrays' {arrays / 2**20:.2f} MiB")
    assert peak < 3 * arrays, (peak, arrays)
    write_csv(data, again)
    assert again.read_bytes() == src.read_bytes()


@pytest.fixture(scope="module")
def synth_cart_run(tmp_path_factory):
    """The trees, the nested fits, every draw of those models and the
    replicated-unique removal of one run of the benchmark's synth_cart
    operation (50k rows, seed 7), with their inputs; a draw is recorded with
    a copy of its stream as the draw found it."""
    inputs = workloads.setup("synth_cart", 7, tmp_path_factory.mktemp("cart"), ROWS)
    fits, removals, nested, draws = [], [], [], []
    fit_cart, fit_nested, remove = cart.fit_cart, models.fit_nested, sdc.remove_replicated_uniques

    def recorded_fit(target, predictors, *args, **kwargs):
        tree = fit_cart(target, predictors, *args, **kwargs)
        fits.append((tree, target, predictors, args, kwargs))
        return tree

    def recorded_nested(target, group):
        fit = fit_nested(target, group)
        nested.append((fit, target, group))
        return fit

    def recorded_draw(sample):
        def draw(model, predictors, rng, n=None):
            stream = copy.deepcopy(rng)
            values = sample(model, predictors, rng, n)
            draws.append((model, predictors, stream, values))
            return values
        return draw

    def recorded_removal(original, synthetic, keys):
        out, removed = remove(original, synthetic, keys)
        removals.append((original, synthetic, tuple(keys), out, removed))
        return out, removed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cart, "fit_cart", recorded_fit)
        mp.setattr(models, "fit_nested", recorded_nested)
        for model in (cart.CartTree, models.NestedFit):
            mp.setattr(model, "sample", recorded_draw(model.sample))
        mp.setattr(sdc, "remove_replicated_uniques", recorded_removal)
        assert cli.main(inputs.argv) == 0
    return fits, removals, nested, draws


def test_cart_equals_its_depth_first_reference(synth_cart_run):
    """The six trees of the run, against tests/test_cart.py's depth-first reference."""
    fits, *_ = synth_cart_run
    assert len(fits) == 6, len(fits)
    for tree, target, predictors, args, kwargs in fits:
        nodes, donor_rows, offsets, sizes = _ref_fit_cart(target, predictors, *args, **kwargs)
        assert tree.nodes == nodes, target.name
        assert np.array_equal(tree.donor_rows, donor_rows), target.name
        assert np.array_equal(tree.leaf_offsets, offsets), target.name
        assert np.array_equal(tree.leaf_sizes, sizes), target.name
        print(f"{target.name}: {len(nodes)} nodes, {target.n_rows} rows, same as reference")


def test_route_rows_equals_its_node_by_node_reference(synth_cart_run):
    """The six trees of the run route their own fit predictors to the leaves
    that tests/test_cart.py's node-by-node router gives, and each training
    row to the leaf that holds it as a donor."""
    fits, *_ = synth_cart_run
    assert len(fits) == 6, len(fits)
    for tree, target, predictors, _, _ in fits:
        leaf_of = cart.route_rows(tree, predictors, target.n_rows)
        reference = _ref_route_rows(tree, predictors, target.n_rows)
        assert np.array_equal(leaf_of, reference), target.name
        donors = np.repeat(np.arange(tree.n_leaves), tree.leaf_sizes)
        assert np.array_equal(leaf_of[tree.donor_rows], donors), target.name
        print(f"{target.name}: {target.n_rows} rows to {tree.n_leaves} leaves, same as reference")


def test_pool_draws_equal_their_per_row_reference(synth_cart_run):
    """Every draw of the run's six trees and its nested occ3 fit, against a
    per-row reference of the one pool draw they share: a synthetic row's
    donors are the training rows of its leaf (both routed node by node) or
    of its group, in ascending order, and it takes the one at position
    floor(u * size), u from a copy of the draw's stream."""
    fits, _, nested, draws = synth_cart_run
    assert len(nested) == 1 and len(draws) == len(fits) + 1, (len(nested), len(draws))
    training = {id(tree): (target, predictors) for tree, target, predictors, _, _ in fits}
    for model, predictors, stream, values in draws:
        if isinstance(model, cart.CartTree):
            target, fit_predictors = training[id(model)]
            donor_key = _ref_route_rows(model, fit_predictors, target.n_rows)
            key = _ref_route_rows(model, predictors, len(values))
            donors, name = model.target_values, model.target_name
        else:
            fit, target, group = nested[0]
            assert model is fit
            donor_key, key = group.values, predictors.column(model.group_name).values
            donors, name = target.values, model.name
        pools: dict[int, list[int]] = {}
        for row, k in enumerate(donor_key.tolist()):
            pools.setdefault(k, []).append(row)
        donors = donors.tolist()
        reference = [
            donors[pool[int(u * len(pool))]]
            for u, pool in zip(stream.random(len(key)).tolist(), map(pools.__getitem__, key.tolist()))
        ]
        assert values.tolist() == reference, name
        print(f"{name}: {len(values)} draws from {len(pools)} pools, same as reference")


@pytest.fixture(scope="module")
def pperroom_first_run(tmp_path_factory):
    """The CART fits and routings of a 50k-row census (seed 7) synthesized
    by a CART plan that visits pperroom before mar and occ1, so their trees
    see its missing cells at fit and the synthetic ones when routing."""
    work = tmp_path_factory.mktemp("pperroom_first")
    data, schema = _gentoy(work, "census", ROWS, "--seed", "7")
    plan = {
        "visit_sequence": ["region", "sex", "age", "pperroom", "mar", "occ1", "occ3"],
        "methods": {"region": "sample", "occ3": {"kind": "nested", "group_column": "occ1"}},
        "rules": [{"target": "mar", "condition": "age < 16", "value": "Single"}],
        "seed": 7,
    }
    (work / "plan.json").write_text(json.dumps(plan))
    argv = [
        "synth", "--data", str(data), "--schema", str(schema),
        "--plan", str(work / "plan.json"), "--out", str(work / "syn.csv"),
    ]
    fits, routings = [], []
    fit_cart, route_rows = cart.fit_cart, cart.route_rows

    def recorded_fit(target, predictors, *args, **kwargs):
        tree = fit_cart(target, predictors, *args, **kwargs)
        fits.append((tree, target, predictors, args, kwargs))
        return tree

    def recorded_route(tree, new_predictors, n_rows=None):
        leaf_of = route_rows(tree, new_predictors, n_rows)
        routings.append((tree, new_predictors, n_rows, leaf_of))
        return leaf_of

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cart, "fit_cart", recorded_fit)
        mp.setattr(cart, "route_rows", recorded_route)
        assert cli.main(argv) == 0
    return fits, routings


def test_cart_on_missing_predictor_cells_equals_its_references(pperroom_first_run):
    """The six trees of the run (sex, age, pperroom's indicator and values,
    mar, occ1) against tests/test_cart.py's depth-first reference on the
    predictors that tests/test_engine.py's ``expand_missing_predictors``
    expands, and their routing of the synthetic predictors against the
    node-by-node reference on the expanded synthetic predictors."""
    fits, routings = pperroom_first_run
    assert [target.name for _, target, *_ in fits] == [
        "sex", "age", "pperroom:missing", "pperroom", "mar", "occ1"
    ]
    expanded = {target.name: tree.expanded for tree, target, *_ in fits}
    assert expanded["mar"] == expanded["occ1"] == ("pperroom",), expanded
    fit_predictors = {}
    for tree, target, predictors, args, kwargs in fits:
        fit_predictors[id(tree)] = predictors
        expanded_predictors, _ = expand_missing_predictors(predictors, predictors)
        nodes, donor_rows, offsets, sizes = _ref_fit_cart(
            target, expanded_predictors, *args, **kwargs
        )
        assert tree.nodes == nodes, target.name
        assert np.array_equal(tree.donor_rows, donor_rows), target.name
        assert np.array_equal(tree.leaf_offsets, offsets), target.name
        assert np.array_equal(tree.leaf_sizes, sizes), target.name
        on_pperroom = sum(
            node.split[1].startswith("pperroom") for node in tree.nodes if node.split
        )
        print(f"{target.name}: {len(nodes)} nodes, {on_pperroom} splits on pperroom, same as reference")
    assert len(routings) == len(fits), len(routings)
    for tree, synthetic, n_rows, leaf_of in routings:
        _, expanded_synthetic = expand_missing_predictors(fit_predictors[id(tree)], synthetic)
        reference = _ref_route_rows(tree, expanded_synthetic, n_rows)
        assert np.array_equal(leaf_of, reference), tree.target_name
        missing = sum(
            int(np.isnan(c.values).sum()) for c in synthetic.columns if c.is_numeric
        ) if synthetic is not None else 0
        print(f"{tree.target_name}: {len(leaf_of)} synthetic rows ({missing} missing cells) routed as the reference")


def test_sdc_removals_equal_their_text_reference(synth_cart_run):
    """The run's replicated-unique removal (four keys with the numeric age
    among them), against tests/test_sdc.py's reference over tuples of cell texts."""
    _, removals, *_ = synth_cart_run
    assert len(removals) == 1, len(removals)
    original, synthetic, keys, out, removed = removals[0]
    assert len(keys) == 4 and "age" in keys, keys
    assert synthetic.column("age").is_numeric
    drop = _text_key_drops(original, synthetic, keys)
    assert removed == int(drop.sum()), (removed, int(drop.sum()))
    assert out.equals(synthetic.take(np.flatnonzero(~drop)))
    print(f"{removed} of {synthetic.n_rows} rows removed on keys {keys}, same as reference")


@pytest.fixture(scope="module")
def synth_parametric_run(tmp_path_factory):
    """The regression fits of one run of the benchmark's synth_parametric
    operation (50k rows, seed 7), each with its target, predictors and
    solver arguments, and the run's inputs."""
    inputs = workloads.setup("synth_parametric", 7, tmp_path_factory.mktemp("parametric"), ROWS)
    fits = []

    def recorded(fit_method):
        def fit(target, predictors, *args):
            model = fit_method(target, predictors, *args)
            fits.append((model, target, predictors, args))
            return model
        return fit

    with pytest.MonkeyPatch.context() as mp:
        for name in ("fit_logit", "fit_multinomial", "fit_normrank", "fit_transform_normal"):
            mp.setattr(models, name, recorded(getattr(models, name)))
        assert cli.main(inputs.argv) == 0
    return inputs, fits


def test_grouped_fits_equal_their_row_design_solves(synth_parametric_run):
    """Each regression of the run is fit on its distinct predictor rows.
    Against the same solver on the design of every row, each with a count
    of 1 (tests/test_design.py's reference): coefficients within 1e-9
    relative, and the same kept columns, iterations, convergence and
    warnings."""
    _, fits = synth_parametric_run
    assert len(fits) == 6, [target.name for _, target, _, _ in fits]
    for model, target, predictors, args in fits:
        newton = isinstance(model, models.NewtonResult)
        solver = dict(zip(("max_iter", "tol"), args)) if newton else {}
        _assert_same_solve(model, target, predictors, **solver)
        cells = distinct_rows(predictors)[1].size
        kind = type(model).__name__
        print(f"{target.name}: {kind} on {cells} cells of {target.n_rows} rows, as on the rows")


def test_parametric_solvers_converge(synth_parametric_run):
    """The benchmark's synth_parametric operation (50k rows, seed 7): every
    Logit and Multinomial fit, the pperroom missingness logit included,
    reports a converged Newton solve in the run report.  occ3 nests in occ1,
    so each occ1 dummy of the pperroom fit is the sum of its occ3 dummies:
    the aliasing check must drop exactly the four occ1 dummies and keep
    every occ3 level, as README says."""
    inputs, _ = synth_parametric_run
    report = json.loads(inputs.report.read_text(encoding="utf-8"))
    solvers = {v["name"]: v["solver"] for v in report["variables"] if v["solver"]}
    assert set(solvers) == {"sex", "mar", "occ1", "pperroom"}, solvers
    for name, solver in solvers.items():
        assert solver["converged"] is True, (name, solver)
        print(f"{name}: {solver['iterations']} iterations, max |score| {solver['gradient_norm']:.2e}")
    occ1 = inputs.schema["columns"]["occ1"]["levels"]
    expected = [f"dropped aliased design column 'occ1={level}'" for level in occ1[1:]]
    assert len(expected) == 4, occ1
    warnings = {v["name"]: v["warnings"] for v in report["variables"]}
    assert warnings["pperroom"] == expected, warnings["pperroom"]
    print(f"pperroom warnings: {expected}")


@pytest.fixture(scope="module")
def design_runs(tmp_path_factory):
    """Every design built, by build_design or Design.matrix, in one run of
    the benchmark's synth_parametric operation and in the utility calls of
    its audit inputs with ``--model main`` and ``--model interactions``
    (50k rows, seed 7), by workload; and the dataset the synth run writes,
    with the file it wrote."""
    built = {"synth_parametric": [], "audit": []}
    written = []
    build, matrix = design.build_design, design.Design.matrix

    def recorded_build(data, interactions=()):
        layout, X = build(data, interactions)
        built[workload].append(("build_design", data, interactions, layout, X))
        return layout, X

    def recorded_matrix(layout, data):
        X = matrix(layout, data)
        built[workload].append(("matrix", data, (), layout, X))
        return X

    def recorded_write(data, path, *args):
        written.append((data, Path(path)))
        write_csv(data, path, *args)

    for workload in built:
        inputs = workloads.setup(workload, 7, tmp_path_factory.mktemp(workload), ROWS)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "build_design", recorded_build)
            mp.setattr(utility, "build_design", recorded_build)
            mp.setattr(design.Design, "matrix", recorded_matrix)
            mp.setattr(cli, "write_csv", recorded_write)
            assert cli.main(inputs.argv) == 0
            if workload == "audit":
                argv = list(inputs.argv)
                argv[argv.index("--model") + 1] = "interactions"
                assert cli.main(argv) == 0
    return built, written


def test_designs_equal_their_per_term_reference(design_runs):
    """Each design matrix of the synth_parametric run and of the audit's
    main-effects and interaction propensity fits equals, index for index and
    value for value, tests/test_design.py's per-term COO build, and is in
    canonical CSR format; build_design keeps the reference's terms and
    drops its constant columns."""
    built, _ = design_runs
    counts = {w: [kind for kind, *_ in calls] for w, calls in built.items()}
    # sex, age, mar, occ1, and pperroom's values and its missingness logit
    assert counts["synth_parametric"].count("build_design") == 6, counts
    assert counts["audit"] == ["build_design", "build_design"], counts
    for workload, calls in built.items():
        for kind, data, interactions, layout, X in calls:
            if kind == "build_design":
                terms, constant, ref = _ref_build_design(data, interactions)
                assert (layout.terms, layout.constant) == (terms, constant)
            else:
                ref = _ref_matrix(layout.terms, data)
            _assert_same_csr(X, ref)
            crossed = f", {len(interactions)} crossed" if interactions else ""
            print(f"{workload} {kind}: {X.shape[0]} x {X.shape[1]}{crossed}, {X.nnz} nonzeros")


def test_synthetic_csv_equals_the_csv_module_rendering(design_runs):
    """The synth_parametric run's synthetic CSV is byte for byte what
    csv.writer writes for the same dataset (tests/test_tabular.py's
    reference)."""
    _, written = design_runs
    assert len(written) == 1, written
    data, path = written[0]
    raw = path.read_bytes()
    assert raw == _csv_module_bytes(data)
    print(f"{path.name}: {data.n_rows} rows, {len(raw)} bytes, same as csv.writer")


@pytest.mark.parametrize("workload", ["synth_cart", "synth_parametric"])
def test_fit_and_sample_passes_equal_their_reference(tmp_path, workload):
    """The benchmark's synth operation (50k rows, seed 7), in process and
    before SDC: every variable's draw equals tests/test_engine.py's
    independent two-step reference (``assert_matches_reference``), and two
    more sample passes over the run's one set of fitted records reproduce
    its columns byte for byte."""
    workloads.setup(workload, 7, tmp_path, ROWS)
    original = read_csv(tmp_path / "data.csv", cli.load_schema(tmp_path / "schema.json"))
    plan = load_plan(tmp_path / "plan.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # guideline 6 on occ3's position
        run = synthesize(original, plan)
    assert_matches_reference(original, plan, run)
    records = engine._fit_pass(original, plan)
    for _ in range(2):
        columns, _ = engine._sample_pass(records, plan, 0, original.n_rows, ())
        for col in columns:
            assert col.values.tobytes() == run.synthetic.column(col.name).values.tobytes(), col.name
    print(f"{workload}: {len(columns)} columns of {run.synthetic.n_rows} rows, "
          "same as reference and on each sample pass")


def test_stratified_synthesis_through_the_cli(tmp_path):
    """A 50k-row census (seed 7) synthesized within each occ1 level, with
    occ3 nested in occ1 and the rule age < 16 => Single."""
    data, schema = _gentoy(tmp_path, "strat", ROWS, "--seed", "7")
    plan = {
        "visit_sequence": ["region", "sex", "age", "mar", "occ1", "pperroom", "occ3"],
        "methods": {"region": "sample", "occ3": {"kind": "nested", "group_column": "occ1"}},
        "nesting": {"occ3": "occ1"},
        "rules": [{"target": "mar", "condition": "age < 16", "value": "Single"}],
        "stratifier": "occ1",
        "seed": 7,
    }
    (tmp_path / "strat_plan.json").write_text(json.dumps(plan))
    argv = [
        "synth", "--data", str(data), "--schema", str(schema),
        "--plan", str(tmp_path / "strat_plan.json"), "--out", str(tmp_path / "strat_syn.csv"),
        "--report", str(tmp_path / "strat_report.json"),
    ]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "strat_report.json").read_text())
    assert report["stratified"] is True, report["stratified"]
    schema_doc = cli.load_schema(schema)
    original = read_csv(data, schema_doc)
    synthetic = read_csv(tmp_path / "strat_syn.csv", schema_doc)
    occ1 = original.column("occ1")
    counts = dict(zip(occ1.levels, np.bincount(occ1.values, minlength=len(occ1.levels)).tolist()))
    assert {s["level"]: s["rows"] for s in report["strata"]} == counts, report["strata"]
    syn_occ1 = synthetic.column("occ1")
    assert np.bincount(syn_occ1.values, minlength=len(occ1.levels)).tolist() == list(counts.values())
    group_of = dict(zip(original.column("occ3").decoded(), occ1.decoded()))
    outside = sum(
        group_of[o3] != o1
        for o3, o1 in zip(synthetic.column("occ3").decoded(), syn_occ1.decoded())
    )
    assert outside == 0, outside
    age = synthetic.column("age").values
    broken = (age < 16) & (np.array(synthetic.column("mar").decoded()) != "Single")
    assert not broken.any(), int(broken.sum())
    print(f"{synthetic.n_rows} rows in strata {counts}: occ1 counts kept, occ3 nested, rule holds")


def test_readme_plan_file_through_the_cli(tmp_path):
    """The plan JSON under the README's "### Plan file" heading, run as
    written on a 2000-row census: the documented format must parse and
    synthesize."""
    data, schema = _gentoy(tmp_path, "readme", 2000)
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("### Plan file", 1)[1]
    plan = section.split("```json", 1)[1].split("```", 1)[0]
    (tmp_path / "readme_plan.json").write_text(plan)
    argv = [
        "synth", "--data", str(data), "--schema", str(schema),
        "--plan", str(tmp_path / "readme_plan.json"), "--out", str(tmp_path / "readme_syn.csv"),
        "--report", str(tmp_path / "readme_report.json"),
    ]
    assert cli.main(argv) == 0
    schema_doc = cli.load_schema(schema)
    original = read_csv(data, schema_doc)
    synthetic = read_csv(tmp_path / "readme_syn.csv", schema_doc)
    group_of = dict(zip(original.column("occ3").decoded(), original.column("occ1").decoded()))
    pairs = list(zip(synthetic.column("occ3").decoded(), synthetic.column("occ1").decoded()))
    outside = sum(group_of[o3] != o1 for o3, o1 in pairs)
    assert outside == 0, outside
    print(f"README plan: {synthetic.n_rows} rows, every occ3 inside its occ1 group")


def test_readme_command_line_block(tmp_path, monkeypatch, capsys):
    """The bash block under the README's "## Command line" heading, run as
    written in an empty directory: gentoy, synth, then utility and compare
    with --pretty.  Before synth, the schema in gentoy's model file and the
    plan under "### Plan file" are written to the names the block reads.
    Each command exits 0, and the two --pretty commands print their
    summaries."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines() if line.strip()
    ]
    assert [argv[:2] for argv in commands] == [
        ["synthweave", command] for command in ("gentoy", "synth", "utility", "compare")
    ]
    plan = readme.split("### Plan file", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    printed = {}
    for argv in commands:
        if argv[1] == "synth":
            model = json.loads(Path("census.model.json").read_text(encoding="utf-8"))
            Path("schema.json").write_text(json.dumps(model["schema"]), encoding="utf-8")
            Path("plan.json").write_text(plan, encoding="utf-8")
        assert cli.main(argv[1:]) == 0, argv
        printed[argv[1]] = capsys.readouterr().out.splitlines()
    utility, compare = printed["utility"], printed["compare"]
    assert utility[0].startswith("U_gen[main_effects] = "), utility
    assert [line.split(" = ")[0] for line in utility if line.startswith("U_tab")] == [
        "U_tab[mar*age]", "U_tab[occ1*sex]"
    ], utility
    assert any(line.startswith("%mar by age: max |pct diff| = ") for line in compare), compare
    assert any(line.startswith("occ3: max |prop diff| = ") for line in compare), compare
    with capsys.disabled():
        print("\n".join(["utility --pretty:", *utility, "compare --pretty:", *compare]))


def test_cli_start_up_stays_lean(tmp_path):
    """The real entry point, ``python -m synthweave synth`` and then
    ``utility``, on a 2000-row census with a normrank plan: scipy.stats,
    scipy.linalg and scipy.special, which cost about a third of the start-up
    and memory when they were loaded, must not appear in either import log.
    ``synth`` on the benchmark's ``synth_cart`` inputs (50k rows, seed 7)
    fits no regression, so its import log must show no SciPy module at all:
    the package imports ``scipy.sparse`` only when it builds a sparse matrix."""
    data, schema = _gentoy(tmp_path, "lean", 2000)
    plan = {
        "visit_sequence": ["region", "sex", "age", "mar", "occ1", "pperroom"],
        "methods": {"region": "sample", "pperroom": "normrank"},
        "seed": 7,
    }
    (tmp_path / "lean_plan.json").write_text(json.dumps(plan))
    synthetic = tmp_path / "lean_syn.csv"
    commands = {
        "synth": [
            "synth", "--data", str(data), "--schema", str(schema),
            "--plan", str(tmp_path / "lean_plan.json"), "--out", str(synthetic),
        ],
        "utility": [
            "utility", "--original", str(data), "--synthetic", str(synthetic),
            "--schema", str(schema), "--tables", "mar*age",
        ],
    }
    commands["synth_cart"] = workloads.setup("synth_cart", 7, tmp_path / "cart", ROWS).argv
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    logs = {}
    for command, argv in commands.items():
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "synthweave", *argv],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        logs[command] = run.stderr
        loaded = re.findall(r"\|\s+(scipy\.(?:stats|linalg|special))$", run.stderr, re.MULTILINE)
        assert not loaded, f"the {command} command imported {loaded}"
    loaded = re.findall(r"\|\s+(scipy(?:\.\S+)?)$", logs["synth_cart"], re.MULTILINE)
    assert not loaded, f"the synth_cart command imported {loaded}"
    for command in ("synth", "synth_cart"):
        for line in logs[command].splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2] == " synthweave":
                print(f"{command}: synthweave import: {int(fields[1]) / 1e6:.3f} s cumulative")
