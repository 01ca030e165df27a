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

from .errors import DataError
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


@dataclass(frozen=True)
class ToyCensusSpec:
    n_rows: int = 10_000
    seed: int = 20250808
    region_probs: tuple[float, ...] = (0.28, 0.22, 0.16, 0.14, 0.12, 0.08)
    female_share: float = 0.51
    age_band_edges: tuple[int, ...] = (0, 16, 30, 45, 65, 96)
    age_band_probs: tuple[float, ...] = (0.26, 0.22, 0.21, 0.20, 0.11)
    # marriage probability by age; zero before 23, peak near 50, decline after
    marriage_knots: tuple[tuple[float, float], ...] = (
        (0, 0.0), (22, 0.0), (23, 0.04), (30, 0.52), (47, 0.72),
        (60, 0.70), (70, 0.55), (80, 0.30), (95, 0.12),
    )
    widow_knots: tuple[tuple[float, float], ...] = (
        (0, 0.0), (30, 0.0), (45, 0.02), (60, 0.09), (75, 0.28), (95, 0.60),
    )
    widow_female_factor: float = 1.35
    widow_male_factor: float = 0.65
    occ3_per_group: int = 40
    occ3_zipf: float = 1.15
    pperroom_base: float = 1.05
    pperroom_sigma: float = 0.42
    pperroom_region_effect: tuple[float, ...] = (0.18, 0.10, 0.03, -0.03, -0.10, -0.18)
    pperroom_occ_effect: tuple[float, ...] = (0.15, 0.05, 0.0, -0.02, -0.25)
    pperroom_missing_rate: float = 0.072

    def __post_init__(self):
        if self.n_rows < 1:
            raise DataError("toy census needs at least 1 row")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DataError(f"toy census seed must be an integer >= 0, got {self.seed!r}")
        if abs(sum(self.region_probs) - 1.0) > 1e-9:
            raise DataError("region_probs must sum to 1")
        if abs(sum(self.age_band_probs) - 1.0) > 1e-9:
            raise DataError("age_band_probs must sum to 1")


def _level_names(spec: ToyCensusSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ``region`` and ``occ3`` level names under ``spec``."""
    region = tuple(f"R{i + 1}" for i in range(len(spec.region_probs)))
    occ3 = tuple(f"{g}{i + 1:02d}" for g in OCC1_LEVELS for i in range(spec.occ3_per_group))
    return region, occ3


def generate_toy_census(spec: ToyCensusSpec = ToyCensusSpec()) -> Dataset:
    n = spec.n_rows
    rng = np.random.default_rng(spec.seed)

    region = rng.choice(len(spec.region_probs), size=n, p=spec.region_probs)
    sex = np.where(rng.random(n) < spec.female_share, 0, 1).astype(np.int64)

    band = rng.choice(len(spec.age_band_probs), size=n, p=spec.age_band_probs)
    lo = np.asarray(spec.age_band_edges[:-1], dtype=np.float64)
    hi = np.asarray(spec.age_band_edges[1:], dtype=np.float64)
    age = np.floor(lo[band] + rng.random(n) * (hi[band] - lo[band]))

    mk = np.asarray(spec.marriage_knots, dtype=np.float64)
    wk = np.asarray(spec.widow_knots, dtype=np.float64)
    p_mar = np.interp(age, mk[:, 0], mk[:, 1])
    p_wid = np.interp(age, wk[:, 0], wk[:, 1]) * np.where(
        sex == 0, spec.widow_female_factor, spec.widow_male_factor
    )
    p_wid = np.clip(p_wid, 0.0, np.maximum(0.0, 0.98 - p_mar))
    u = rng.random(n)
    mar = np.where(u < p_mar, 1, np.where(u < p_mar + p_wid, 2, 0)).astype(np.int64)
    mar[age < 16] = 0  # deterministic: children are Single

    band5 = np.digitize(age, [16, 30, 50, 70])
    occ1 = _draw_categorical(rng, _OCC_TABLE[band5, sex])

    w = 1.0 / np.arange(1, spec.occ3_per_group + 1) ** spec.occ3_zipf
    w = w / w.sum()
    within = _draw_categorical(rng, np.broadcast_to(w, (n, spec.occ3_per_group)))
    occ3 = occ1 * spec.occ3_per_group + within

    reg_eff = np.asarray(spec.pperroom_region_effect)
    occ_eff = np.asarray(spec.pperroom_occ_effect)
    pperroom = np.round(
        np.exp(
            np.log(spec.pperroom_base)
            + reg_eff[region]
            + occ_eff[occ1]
            + rng.normal(0.0, spec.pperroom_sigma, n)
        ),
        2,
    )
    n_missing = int(round(spec.pperroom_missing_rate * n))
    if n_missing:
        pperroom[rng.permutation(n)[:n_missing]] = np.nan

    region_levels, occ3_levels = _level_names(spec)
    return Dataset(
        (
            Column("region", Categorical(region_levels), region),
            Column("sex", Categorical(SEX_LEVELS), sex),
            Column("age", Numeric(), age),
            Column("mar", Categorical(MAR_LEVELS), mar),
            Column("occ1", Categorical(OCC1_LEVELS), occ1),
            Column("occ3", Categorical(occ3_levels), occ3),
            Column("pperroom", Numeric(), pperroom),
        ),
        name="toycensus",
    )


def true_model(spec: ToyCensusSpec = ToyCensusSpec()) -> dict:
    """JSON-ready description of the generating model, including the exact
    sex-by-region cell probabilities useful for null-calibration studies."""
    region_levels, occ3_levels = _level_names(spec)
    cell_probs = {
        f"{s}|{r}": sp * rp
        for s, sp in zip(SEX_LEVELS, (spec.female_share, 1 - spec.female_share))
        for r, rp in zip(region_levels, spec.region_probs)
    }
    return {
        "n_rows": spec.n_rows,
        "seed": spec.seed,
        "schema": {
            "columns": {
                "region": {"levels": list(region_levels)},
                "sex": {"levels": list(SEX_LEVELS)},
                "age": "numeric",
                "mar": {"levels": list(MAR_LEVELS)},
                "occ1": {"levels": list(OCC1_LEVELS)},
                "occ3": {"levels": list(occ3_levels)},
                "pperroom": "numeric",
            }
        },
        "params": {
            "region_probs": list(spec.region_probs),
            "female_share": spec.female_share,
            "age_band_edges": list(spec.age_band_edges),
            "age_band_probs": list(spec.age_band_probs),
            "marriage_knots": [list(k) for k in spec.marriage_knots],
            "widow_knots": [list(k) for k in spec.widow_knots],
            "widow_female_factor": spec.widow_female_factor,
            "widow_male_factor": spec.widow_male_factor,
            "occupation_by_band_sex": _OCC_TABLE.tolist(),
            "occ3_per_group": spec.occ3_per_group,
            "occ3_zipf": spec.occ3_zipf,
            "pperroom": {
                "base": spec.pperroom_base,
                "sigma": spec.pperroom_sigma,
                "region_effect": list(spec.pperroom_region_effect),
                "occ_effect": list(spec.pperroom_occ_effect),
                "missing_rate": spec.pperroom_missing_rate,
            },
        },
        "sex_region_cell_probs": cell_probs,
    }
