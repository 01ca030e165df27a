"""Every scalar option of the public API follows one rule: a finite number,
a whole one where it counts, never a bool, and at least its minimum.  Each
failure is the entry point's own typed error, in one of four texts that name
the option."""

import functools
import math

import numpy as np
import pytest

from synthweave import (
    Cart,
    DataError,
    Dataset,
    Logit,
    MethodError,
    Multinomial,
    NormRank,
    PlanError,
    SynthesisPlan,
    ToyCensusSpec,
    UtilityError,
    add_noise,
    categorical_column,
    chisq_upper_tail,
    compare_univariate,
    cross_tabulate,
    diagnose,
    equivalence_check,
    fit_cart,
    fit_logit,
    fit_multinomial,
    fit_normrank,
    fit_propensity,
    numeric_column,
    reorder_visit,
    synthesize,
    worst_cells,
)
from synthweave.sdc import SdcConfig, sdc_from_json

X = numeric_column("x", np.arange(20.0))
Y = numeric_column("y", np.arange(20.0) % 7)
BINARY = categorical_column("b", list("ab") * 10)
FOUR = categorical_column("m", list("abcd") * 5)
DATA = Dataset((BINARY, X))
PLAN = SynthesisPlan(("b", "x"))


@functools.cache
def propensity_fit():
    return fit_propensity(DATA, DATA.take(np.arange(1, 20)))


# (entry point, its error, the option as the error names it, minimum, whole,
# above: the minimum itself is refused, call with the option set to a value)
OPTIONS = [
    ("Cart.min_bucket", PlanError, "cart: min_bucket", 1, True, False,
     lambda v: Cart(min_bucket=v)),
    ("Cart.complexity", PlanError, "cart: complexity", 0, False, False,
     lambda v: Cart(complexity=v)),
    ("NormRank.residual_scale", PlanError, "normrank: residual_scale", 0, False, False,
     lambda v: NormRank(residual_scale=v)),
    ("Logit.max_iter", PlanError, "logit: max_iter", 1, True, False,
     lambda v: Logit(max_iter=v)),
    ("Logit.tol", PlanError, "logit: tol", 0, False, True, lambda v: Logit(tol=v)),
    ("Multinomial.max_iter", PlanError, "multinomial: max_iter", 1, True, False,
     lambda v: Multinomial(max_iter=v)),
    ("Multinomial.tol", PlanError, "multinomial: tol", 0, False, True,
     lambda v: Multinomial(tol=v)),
    ("fit_cart.min_bucket", MethodError, "cart: min_bucket", 1, True, False,
     lambda v: fit_cart(Y, DATA, min_bucket=v)),
    ("fit_cart.complexity", MethodError, "cart: complexity", 0, False, False,
     lambda v: fit_cart(Y, DATA, complexity=v)),
    ("fit_normrank.residual_scale", MethodError, "normrank: residual_scale", 0, False, False,
     lambda v: fit_normrank(Y, DATA, residual_scale=v)),
    ("fit_logit.max_iter", MethodError, "logit: max_iter", 1, True, False,
     lambda v: fit_logit(BINARY, Dataset((X,)), max_iter=v)),
    ("fit_logit.tol", MethodError, "logit: tol", 0, False, True,
     lambda v: fit_logit(BINARY, Dataset((X,)), tol=v)),
    ("fit_multinomial.max_iter", MethodError, "multinomial: max_iter", 1, True, False,
     lambda v: fit_multinomial(FOUR, DATA, max_iter=v)),
    ("fit_multinomial.tol", MethodError, "multinomial: tol", 0, False, True,
     lambda v: fit_multinomial(FOUR, DATA, tol=v)),
    ("fit_propensity.max_iter", MethodError, "logit: max_iter", 1, True, False,
     lambda v: fit_propensity(DATA, DATA, max_iter=v)),
    ("fit_propensity.tol", MethodError, "logit: tol", 0, False, True,
     lambda v: fit_propensity(DATA, DATA, tol=v)),
    ("cross_tabulate.n_bins", UtilityError, "column 'x': n_bins", 2, True, False,
     lambda v: cross_tabulate(DATA, DATA, ["b", "x"], n_bins=v)),
    ("compare_univariate.n_bins", UtilityError, "n_bins", 1, True, False,
     lambda v: compare_univariate(DATA, DATA, n_bins=v)),
    ("worst_cells.top", UtilityError, "top", 0, True, False,
     lambda v: worst_cells(cross_tabulate(DATA, DATA, ["b"]), top=v)),
    ("diagnose.threshold", UtilityError, "threshold", 0, False, False,
     lambda v: diagnose(propensity_fit(), threshold=v)),
    ("equivalence_check.tol", UtilityError, "tol", 0, False, False,
     lambda v: equivalence_check(DATA, DATA, ["b"], tol=v)),
    ("chisq_upper_tail.df", UtilityError, "df", 1, True, False,
     lambda v: chisq_upper_tail(1.0, v)),
    ("SdcConfig.noise_scale", DataError, "noise_scale", 0, False, False,
     lambda v: SdcConfig(noise_scale=v)),
    ("add_noise.noise_scale", DataError, "noise_scale", 0, False, False,
     lambda v: add_noise(DATA, ["x"], v, np.random.default_rng(0))),
    ("sdc_from_json.noise_scale", PlanError, "sdc.noise_scale", 0, False, False,
     lambda v: sdc_from_json({"noise_scale": v})),
    ("synthesize.n_rows", PlanError, "n_rows", 0, True, False,
     lambda v: synthesize(DATA, PLAN, n_rows=v)),
    ("SynthesisPlan.seed", PlanError, "seed", None, True, False,
     lambda v: SynthesisPlan(("b", "x"), seed=v)),
    ("reorder_visit.position", PlanError, "position", None, True, False,
     lambda v: reorder_visit(PLAN, "x", v)),
    ("ToyCensusSpec.n_rows", DataError, "toy census n_rows", 1, True, False,
     lambda v: ToyCensusSpec(n_rows=v)),
    ("ToyCensusSpec.seed", DataError, "toy census seed", 0, True, False,
     lambda v: ToyCensusSpec(seed=v)),
]


def _cases():
    for entry, error, name, minimum, whole, above, call in OPTIONS:
        kind = "a whole number" if whole else "a finite number"
        for value in [math.nan, math.inf, -math.inf, True, "5"] + [2.5] * whole:
            message = f"{name} must be {kind}, got {value!r}"
            yield pytest.param(call, error, value, message, id=f"{entry}={value!r}")
        if minimum is None:
            continue
        if whole:
            below = minimum - 1
        elif above:
            below = float(minimum)
        else:
            below = minimum - 0.5
        message = f"{name} must be {'>' if above else '>='} {minimum}, got {below!r}"
        yield pytest.param(call, error, below, message, id=f"{entry}={below!r}")


@pytest.mark.parametrize("call, error, value, message", list(_cases()))
def test_option_rule(call, error, value, message):
    with pytest.raises(error) as got:
        call(value)
    assert str(got.value) == message


@pytest.mark.filterwarnings("ignore:.*(did not converge|coerced to sample)")
@pytest.mark.parametrize("entry, error, name, minimum, whole, above, call", OPTIONS,
                         ids=[o[0] for o in OPTIONS])
def test_the_least_value_and_numpy_scalars_pass(entry, error, name, minimum, whole, above, call):
    """What the rule refuses is all it refuses: the minimum (or a value just
    above it) and numpy scalars of the right kind get through."""
    least = 0 if minimum is None else minimum + above
    call(np.int64(least) if whole else np.float64(least))
