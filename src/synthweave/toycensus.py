"""Deterministic desk-scale census generator used by tests and demos.

The generated table carries the structural features that make real census
extracts hard to synthesize: a deterministic under-16/marital-status rule, a
marriage curve that rises and then falls with age, a U-shaped not-working
share over age, a 200-level fine occupation code nested inside the coarse
one, and a numeric persons-per-room column with missing cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_option
from .models import _draw_categorical
from .tabular import Categorical, Column, Dataset, Numeric

OCC1_LEVELS = ("NotWork", "Farm", "Trade", "Craft", "Prof")
MAR_LEVELS = ("Single", "Married", "Widowed")
SEX_LEVELS = ("F", "M")

# P(occ1 | age band, sex): bands <16, 16-29, 30-49, 50-69, 70+; sex F, M.
_OCC_TABLE = np.array(
    [
        [[0.96, 0.016, 0.012, 0.008, 0.004], [0.96, 0.016, 0.012, 0.008, 0.004]],
        [[0.38, 0.14, 0.26, 0.14, 0.08], [0.16, 0.26, 0.22, 0.28, 0.08]],
        [[0.46, 0.10, 0.22, 0.12, 0.10], [0.10, 0.24, 0.24, 0.30, 0.12]],
        [[0.60, 0.10, 0.14, 0.10, 0.06], [0.30, 0.22, 0.20, 0.20, 0.08]],
        [[0.88, 0.04, 0.04, 0.02, 0.02], [0.78, 0.08, 0.06, 0.05, 0.03]],
    ]
)

# the rest of the generating model, which ``true_model`` reports as ``params``
REGION_PROBS = (0.28, 0.22, 0.16, 0.14, 0.12, 0.08)
FEMALE_SHARE = 0.51
AGE_BAND_EDGES = (0, 16, 30, 45, 65, 96)
AGE_BAND_PROBS = (0.26, 0.22, 0.21, 0.20, 0.11)
# marriage probability by age; zero before 23, peak near 50, decline after
MARRIAGE_KNOTS = (
    (0, 0.0), (22, 0.0), (23, 0.04), (30, 0.52), (47, 0.72),
    (60, 0.70), (70, 0.55), (80, 0.30), (95, 0.12),
)
WIDOW_KNOTS = ((0, 0.0), (30, 0.0), (45, 0.02), (60, 0.09), (75, 0.28), (95, 0.60))
WIDOW_FEMALE_FACTOR = 1.35
WIDOW_MALE_FACTOR = 0.65
OCC3_PER_GROUP = 40
OCC3_ZIPF = 1.15
PPERROOM_BASE = 1.05
PPERROOM_SIGMA = 0.42
PPERROOM_REGION_EFFECT = (0.18, 0.10, 0.03, -0.03, -0.10, -0.18)
PPERROOM_OCC_EFFECT = (0.15, 0.05, 0.0, -0.02, -0.25)
PPERROOM_MISSING_RATE = 0.072
REGION_LEVELS = tuple(f"R{i + 1}" for i in range(len(REGION_PROBS)))
OCC3_LEVELS = tuple(f"{g}{i + 1:02d}" for g in OCC1_LEVELS for i in range(OCC3_PER_GROUP))


@dataclass(frozen=True)
class ToyCensusSpec:
    n_rows: int = 10_000
    seed: int = 20250808

    def __post_init__(self):
        check_option(DataError, "toy census n_rows", self.n_rows, 1, whole=True)
        check_option(DataError, "toy census seed", self.seed, 0, whole=True)


def generate_toy_census(spec: ToyCensusSpec = ToyCensusSpec()) -> Dataset:
    n = spec.n_rows
    rng = np.random.default_rng(spec.seed)

    region = rng.choice(len(REGION_PROBS), size=n, p=REGION_PROBS)
    sex = np.where(rng.random(n) < FEMALE_SHARE, 0, 1).astype(np.int64)

    band = rng.choice(len(AGE_BAND_PROBS), size=n, p=AGE_BAND_PROBS)
    lo = np.asarray(AGE_BAND_EDGES[:-1], dtype=np.float64)
    hi = np.asarray(AGE_BAND_EDGES[1:], dtype=np.float64)
    age = np.floor(lo[band] + rng.random(n) * (hi[band] - lo[band]))

    mk = np.asarray(MARRIAGE_KNOTS, dtype=np.float64)
    wk = np.asarray(WIDOW_KNOTS, dtype=np.float64)
    p_mar = np.interp(age, mk[:, 0], mk[:, 1])
    p_wid = np.interp(age, wk[:, 0], wk[:, 1]) * np.where(
        sex == 0, WIDOW_FEMALE_FACTOR, WIDOW_MALE_FACTOR
    )
    p_wid = np.clip(p_wid, 0.0, np.maximum(0.0, 0.98 - p_mar))
    u = rng.random(n)
    mar = np.where(u < p_mar, 1, np.where(u < p_mar + p_wid, 2, 0)).astype(np.int64)
    mar[age < 16] = 0  # deterministic: children are Single

    band5 = np.digitize(age, [16, 30, 50, 70])
    occ1 = _draw_categorical(rng, _OCC_TABLE[band5, sex])

    w = 1.0 / np.arange(1, OCC3_PER_GROUP + 1) ** OCC3_ZIPF
    w = w / w.sum()
    within = _draw_categorical(rng, np.broadcast_to(w, (n, OCC3_PER_GROUP)))
    occ3 = occ1 * OCC3_PER_GROUP + within

    reg_eff = np.asarray(PPERROOM_REGION_EFFECT)
    occ_eff = np.asarray(PPERROOM_OCC_EFFECT)
    pperroom = np.round(
        np.exp(
            np.log(PPERROOM_BASE)
            + reg_eff[region]
            + occ_eff[occ1]
            + rng.normal(0.0, PPERROOM_SIGMA, n)
        ),
        2,
    )
    n_missing = int(round(PPERROOM_MISSING_RATE * n))
    if n_missing:
        pperroom[rng.permutation(n)[:n_missing]] = np.nan

    return Dataset(
        (
            Column("region", Categorical(REGION_LEVELS), region),
            Column("sex", Categorical(SEX_LEVELS), sex),
            Column("age", Numeric(), age),
            Column("mar", Categorical(MAR_LEVELS), mar),
            Column("occ1", Categorical(OCC1_LEVELS), occ1),
            Column("occ3", Categorical(OCC3_LEVELS), occ3),
            Column("pperroom", Numeric(), pperroom),
        ),
        name="toycensus",
    )


def true_model(spec: ToyCensusSpec = ToyCensusSpec()) -> dict:
    """JSON-ready description of the generating model, including the exact
    sex-by-region cell probabilities useful for null-calibration studies."""
    cell_probs = {
        f"{s}|{r}": sp * rp
        for s, sp in zip(SEX_LEVELS, (FEMALE_SHARE, 1 - FEMALE_SHARE))
        for r, rp in zip(REGION_LEVELS, REGION_PROBS)
    }
    return {
        "n_rows": spec.n_rows,
        "seed": spec.seed,
        "schema": {
            "columns": {
                "region": {"levels": list(REGION_LEVELS)},
                "sex": {"levels": list(SEX_LEVELS)},
                "age": "numeric",
                "mar": {"levels": list(MAR_LEVELS)},
                "occ1": {"levels": list(OCC1_LEVELS)},
                "occ3": {"levels": list(OCC3_LEVELS)},
                "pperroom": "numeric",
            }
        },
        "params": {
            "region_probs": list(REGION_PROBS),
            "female_share": FEMALE_SHARE,
            "age_band_edges": list(AGE_BAND_EDGES),
            "age_band_probs": list(AGE_BAND_PROBS),
            "marriage_knots": [list(k) for k in MARRIAGE_KNOTS],
            "widow_knots": [list(k) for k in WIDOW_KNOTS],
            "widow_female_factor": WIDOW_FEMALE_FACTOR,
            "widow_male_factor": WIDOW_MALE_FACTOR,
            "occupation_by_band_sex": _OCC_TABLE.tolist(),
            "occ3_per_group": OCC3_PER_GROUP,
            "occ3_zipf": OCC3_ZIPF,
            "pperroom": {
                "base": PPERROOM_BASE,
                "sigma": PPERROOM_SIGMA,
                "region_effect": list(PPERROOM_REGION_EFFECT),
                "occ_effect": list(PPERROOM_OCC_EFFECT),
                "missing_rate": PPERROOM_MISSING_RATE,
            },
        },
        "sex_region_cell_probs": cell_probs,
    }
