"""Fully synthetic tabular microdata with built-in utility audits.

Synthesis is one variable at a time: each column gets a conditional model
(bootstrap, CART with leaf-donor sampling, normal-scores or transform-Normal
regression, logistic or multinomial regression, nested bootstrap) fit on the
original data and sampled with the synthetic values of its predecessors.
Utility is judged by the propensity-score statistic U_gen = 8N*pMSE and the
Neyman-denominator tabular statistic U_tab, whose chi-square nulls and exact
equivalence (for saturated tables) are implemented and tested.
"""

from .cart import CartTree, cart_sample, fit_cart
from .engine import SynthesisRun, VariableSummary, run_report, synthesize
from .errors import (
    DataError,
    MethodError,
    PlanError,
    SynthweaveError,
    UtilityError,
)
from .models import (
    fit_logit,
    fit_multinomial,
    fit_nested,
    fit_normrank,
    fit_sample,
    fit_transform_normal,
)
from .plan import (
    Cart,
    Logit,
    MethodSpec,
    Multinomial,
    Nested,
    NormRank,
    PlanDiagnostic,
    Rule,
    Sample,
    SynthesisPlan,
    TransformNormal,
    load_plan,
    plan_errors,
    plan_from_json,
    plan_to_json,
    reorder_visit,
    save_plan,
    validate_plan,
)
from .sdc import (
    SdcConfig,
    add_noise,
    apply_sdc,
    remove_replicated_uniques,
    stamp_synthetic,
)
from .tabular import (
    Categorical,
    Column,
    Dataset,
    Numeric,
    categorical_column,
    numeric_column,
    read_csv,
    write_csv,
)
from .toycensus import ToyCensusSpec, generate_toy_census, true_model
from .utility import (
    CellTable,
    Diagnosis,
    EquivalenceReport,
    PropensityFit,
    UtilityStat,
    chisq_upper_tail,
    compare_bivariate,
    compare_univariate,
    cross_tabulate,
    diagnose,
    equivalence_check,
    fit_propensity,
    u_gen,
    u_tab,
    utility_report,
    worst_cells,
)

__version__ = "0.1.0"

__all__ = [
    "Cart",
    "Categorical",
    "CartTree",
    "CellTable",
    "Column",
    "DataError",
    "Dataset",
    "Diagnosis",
    "EquivalenceReport",
    "Logit",
    "MethodError",
    "MethodSpec",
    "Multinomial",
    "Nested",
    "NormRank",
    "Numeric",
    "PlanDiagnostic",
    "PlanError",
    "PropensityFit",
    "Rule",
    "Sample",
    "SdcConfig",
    "SynthesisPlan",
    "SynthesisRun",
    "SynthweaveError",
    "ToyCensusSpec",
    "TransformNormal",
    "UtilityError",
    "UtilityStat",
    "VariableSummary",
    "add_noise",
    "apply_sdc",
    "cart_sample",
    "categorical_column",
    "chisq_upper_tail",
    "compare_bivariate",
    "compare_univariate",
    "cross_tabulate",
    "diagnose",
    "equivalence_check",
    "fit_cart",
    "fit_logit",
    "fit_multinomial",
    "fit_nested",
    "fit_normrank",
    "fit_propensity",
    "fit_sample",
    "fit_transform_normal",
    "generate_toy_census",
    "load_plan",
    "numeric_column",
    "plan_errors",
    "plan_from_json",
    "plan_to_json",
    "read_csv",
    "remove_replicated_uniques",
    "reorder_visit",
    "run_report",
    "save_plan",
    "stamp_synthetic",
    "synthesize",
    "true_model",
    "u_gen",
    "u_tab",
    "utility_report",
    "validate_plan",
    "worst_cells",
    "write_csv",
]
