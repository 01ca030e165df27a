"""The package's public names.  Adding or removing a name of
``synthweave.__all__`` changes the pinned list below; a removed name is
listed in CHANGES.md as a deprecation."""

import synthweave

PUBLIC_NAMES = (
    "Cart", "Categorical", "CartTree", "CellTable", "Column", "DataError", "Dataset",
    "Diagnosis", "EquivalenceReport", "Logit", "MethodError", "MethodSpec", "Multinomial",
    "Nested", "NormRank", "Numeric", "PlanDiagnostic", "PlanError", "PropensityFit", "Rule",
    "Sample", "SdcConfig", "SynthesisPlan", "SynthesisRun", "SynthweaveError", "ToyCensusSpec",
    "TransformNormal", "UtilityError", "UtilityStat", "VariableSummary", "add_noise",
    "apply_sdc", "categorical_column", "chisq_upper_tail", "compare_bivariate",
    "compare_univariate", "cross_tabulate", "diagnose", "equivalence_check", "fit_cart",
    "fit_logit", "fit_multinomial", "fit_nested", "fit_normrank", "fit_propensity",
    "fit_sample", "fit_transform_normal", "generate_toy_census", "load_plan", "numeric_column",
    "plan_errors", "plan_from_json", "plan_to_json", "read_csv", "remove_replicated_uniques",
    "reorder_visit", "run_report", "save_plan", "stamp_synthetic", "synthesize", "true_model",
    "u_gen", "u_tab", "utility_report", "validate_plan", "worst_cells", "write_csv",
)


def test_public_names_are_pinned():
    assert len(synthweave.__all__) == len(set(synthweave.__all__)) == 67
    assert tuple(synthweave.__all__) == PUBLIC_NAMES


def test_every_public_name_is_bound():
    missing = [name for name in synthweave.__all__ if not hasattr(synthweave, name)]
    assert missing == []
