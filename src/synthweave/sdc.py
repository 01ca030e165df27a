"""Post-synthesis disclosure control: replicated-unique removal, noise, stamping."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import DataError, PlanError
from .plan import SynthesisPlan, _mapping, _names
from .tabular import Categorical, Column, Dataset, Numeric, distinct_cells


# the one bit pattern every missing number is matched as
_NAN_BITS = np.float64(np.nan).view(np.int64)


@dataclass(frozen=True)
class SdcConfig:
    key_variables: tuple[str, ...] = ()     # empty = no unique-removal
    noise_targets: tuple[str, ...] = ()
    noise_scale: float = 0.0                # fraction of column sd; 0 = off
    label: str = "synthetic"

    def __post_init__(self):
        _check_noise_scale(self.noise_scale)


def _check_noise_scale(noise_scale: float) -> None:
    """A ``DataError`` unless ``noise_scale`` is a finite number >= 0
    (numpy's too, never a bool)."""
    if isinstance(noise_scale, bool) or not isinstance(noise_scale, numbers.Real):
        raise DataError(f"noise_scale must be a number >= 0, got {noise_scale!r}")
    if not noise_scale >= 0:  # NaN fails too
        raise DataError("noise_scale must be >= 0")
    if noise_scale == math.inf:
        raise DataError(f"noise_scale must be finite, got {noise_scale!r}")


def sdc_from_json(doc: dict | None) -> SdcConfig | None:
    """The settings of a plan file's ``sdc`` section, None when it is absent
    or empty; a field of the wrong shape is a ``PlanError`` that names it."""
    if doc is None:
        return None
    doc = _mapping(doc, "sdc", "settings to values")
    if not doc:
        return None
    scale = doc.get("noise_scale", 0.0)
    try:
        _check_noise_scale(scale)
    except DataError as exc:
        raise PlanError(f"sdc.{exc}") from None
    label = doc.get("label", "synthetic")
    if not isinstance(label, str):
        raise PlanError(f"sdc.label must be a string, got {label!r}")
    return SdcConfig(
        key_variables=_names(doc.get("key_variables", ()), "sdc.key_variables"),
        noise_targets=_names(doc.get("noise_targets", ()), "sdc.noise_targets"),
        noise_scale=float(scale),
        label=label,
    )


def check_sdc_columns(config: SdcConfig, plan: SynthesisPlan, data: Dataset) -> None:
    """A ``PlanError`` naming the field and the column for a key variable or
    noise target that ``plan``, valid for ``data``, does not synthesize (its
    visit sequence and stratifier), or for a noise target that is not numeric."""
    synthesized = set(plan.visit_sequence) | {plan.stratifier}
    for field_name in ("key_variables", "noise_targets"):
        for name in getattr(config, field_name):
            if name not in synthesized:
                raise PlanError(f"sdc.{field_name}: column {name!r} is not synthesized")
            if field_name == "noise_targets" and not isinstance(data.column(name).kind, Numeric):
                raise PlanError(f"sdc.noise_targets: column {name!r} is not numeric")


def _joint_codes(a: Column, b: Column) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer codes of one key column in two datasets, equal exactly where
    the cells' text is equal: the level for categoricals, ``repr`` of the
    number for numerics, and one token for every missing number (NaN != NaN
    would break matching).  Returns (codes of a, codes of b, number of codes).
    """
    if a.is_numeric and b.is_numeric:
        # repr equality is bit equality for numbers, so compare bit patterns
        values = np.concatenate([a.values, b.values])
        bits = np.where(np.isnan(values), _NAN_BITS, values.view(np.int64))
        distinct, joint = np.unique(bits, return_inverse=True)
        return joint[: a.n_rows], joint[a.n_rows :], len(distinct)
    tokens: list[str] = []
    codes = []
    for col in (a, b):
        if isinstance(col.kind, Categorical):
            cell_token, token = col.values, list(col.kind.levels)
        else:
            # distinct bit patterns first, so each number is rendered once
            bits, cell_token = np.unique(col.values.view(np.int64), return_inverse=True)
            token = ["NA" if np.isnan(v) else repr(float(v)) for v in bits.view(np.float64)]
        codes.append(cell_token + len(tokens))
        tokens.extend(token)
    distinct, joint = np.unique(np.array(tokens, dtype=str), return_inverse=True)
    return joint[codes[0]], joint[codes[1]], len(distinct)


def remove_replicated_uniques(
    original: Dataset, synthetic: Dataset, keys
) -> tuple[Dataset, int]:
    """Drop synthetic rows whose key-tuple is unique in BOTH datasets.

    A tuple unique in the original but appearing twice in the synthetic is
    kept; so is anything non-unique in the original.
    """
    if isinstance(keys, str):
        raise DataError(f"keys must be a list of column names, got {keys!r}")
    keys = tuple(keys)
    if not keys:
        raise DataError("replicated-unique removal needs a non-empty key set")
    for k in keys:
        if k not in original or k not in synthetic:
            raise DataError(f"key column {k!r} missing from a dataset")
    # one cell per key-tuple over the rows of both datasets
    n_orig = original.n_rows
    codes = []
    for k in keys:
        a, b, n_codes = _joint_codes(original.column(k), synthetic.column(k))
        codes.append((np.concatenate([a, b]), n_codes))
    row_key, first = distinct_cells(codes, n_orig + synthetic.n_rows)
    orig_counts = np.bincount(row_key[:n_orig], minlength=first.size)
    syn_key = row_key[n_orig:]
    syn_counts = np.bincount(syn_key, minlength=first.size)
    drop = (orig_counts[syn_key] == 1) & (syn_counts[syn_key] == 1)
    removed = int(drop.sum())
    if removed == 0:
        return synthetic, 0
    return synthetic.take(np.flatnonzero(~drop)), removed


def add_noise(
    synthetic: Dataset, targets, noise_scale: float, rng: np.random.Generator
) -> Dataset:
    """Add N(0, (noise_scale * column sd)^2) to non-missing numeric cells."""
    _check_noise_scale(noise_scale)
    out = synthetic
    for name in targets:
        col = synthetic.column(name)
        if not isinstance(col.kind, Numeric):
            raise DataError(f"noise target {name!r} is not numeric")
        if noise_scale == 0:
            continue
        v = col.values.copy()
        obs = ~np.isnan(v)
        if obs.sum() >= 2:
            sd = float(np.std(v[obs], ddof=1))
            if sd > 0:
                v[obs] = v[obs] + rng.normal(0.0, noise_scale * sd, int(obs.sum()))
        out = out.with_column(Column(name, col.kind, v))
    return out


def stamp_synthetic(dataset: Dataset, label: str = "synthetic") -> Dataset:
    """Mark a dataset as synthetic; write_csv renders the stamp as a leading
    '# SYNTHETIC DATA: ...' comment line.  An empty label still stamps, with
    a generation timestamp."""
    if not label:
        label = "generated " + datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return dataset.with_label(label)


def apply_sdc(
    original: Dataset,
    synthetic: Dataset,
    config: SdcConfig,
    rng: np.random.Generator,
) -> tuple[Dataset, dict]:
    """Run the configured SDC steps; returns (dataset, report fragment)."""
    report: dict = {"removed_replicated_uniques": 0, "noise": {}, "label": None}
    out = synthetic
    if config.key_variables:
        out, removed = remove_replicated_uniques(original, out, config.key_variables)
        report["removed_replicated_uniques"] = removed
    if config.noise_targets and config.noise_scale > 0:
        out = add_noise(out, config.noise_targets, config.noise_scale, rng)
        report["noise"] = {t: config.noise_scale for t in config.noise_targets}
    out = stamp_synthetic(out, config.label)
    report["label"] = out.label
    return out, report
