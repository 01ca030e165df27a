"""Per-variable conditional estimators and their samplers.

Every fit here follows the plug-in contract: parameters are estimated once
from the original data, and sampling draws synthetic values with those
parameters fixed, using the already-synthesized predecessors as predictors.
Samplers are deterministic given (fit, predictors, rng state).
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.stats
from scipy.special import ndtr, ndtri

from . import cart as _cart
from .design import Design, Gram, build_design, drop_aliased
from .errors import MethodError
from .tabular import Categorical, Column, Dataset

COEF_CAP = 30.0  # linear-scale magnitude cap under separation


def _design_for(predictors: Dataset | None) -> Design | None:
    if predictors is None or not predictors.columns:
        return None
    return build_design(predictors)


def _matrix(design: Design | None, predictors: Dataset | None, n: int) -> scipy.sparse.csr_array:
    if design is None:
        return scipy.sparse.csr_array(np.ones((n, 1)))
    if predictors is None:
        raise MethodError("this fit needs predictor columns for sampling")
    return design.matrix(predictors)


def _predict(X: scipy.sparse.csr_array, kept: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``X[:, kept] @ coefficients`` as one sparse mat-vec on ``X``: the
    dropped columns get zero coefficients instead of being sliced away."""
    full = np.zeros((X.shape[1],) + coefficients.shape[1:])
    full[kept] = coefficients
    return X @ full


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleFit:
    name: str
    kind: object
    pool: np.ndarray = field(repr=False)
    warnings: tuple[str, ...] = ()

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(0, len(self.pool), size=n)
        return self.pool[idx]


def fit_sample(values: Column) -> SampleFit:
    """i.i.d. resampling with replacement from the observed non-missing values."""
    pool = values.values[~values.missing_mask()]
    if len(pool) == 0:
        raise MethodError(f"sample: column {values.name!r} has no observed values")
    return SampleFit(values.name, values.kind, pool)


# ---------------------------------------------------------------------------
# CART adapter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartFit:
    tree: _cart.CartTree
    warnings: tuple[str, ...] = ()

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        return _cart.cart_sample(self.tree, predictors, rng, n_rows=n).values


def fit_cart_model(target: Column, predictors: Dataset | None, min_bucket=5, complexity=1e-8) -> CartFit:
    return CartFit(_cart.fit_cart(target, predictors, min_bucket, complexity))


# ---------------------------------------------------------------------------
# Least squares (shared by the two numeric regression methods)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    kept: np.ndarray
    labels: tuple[str, ...]
    residual_sd: float
    notes: tuple[str, ...]

    def predict(self, X: scipy.sparse.csr_array) -> np.ndarray:
        return _predict(X, self.kept, self.coefficients)


def ols(X: scipy.sparse.csr_array, y: np.ndarray, labels) -> OlsFit:
    """Least squares from the normal equations: a Cholesky factor of the
    column-equilibrated Gram, then one step of iterative refinement on the
    residual, which brings the coefficients to the accuracy of a QR solve."""
    X2, kept, notes = drop_aliased(X, labels)
    if notes:
        _warnings.warn("; ".join(notes))
    G = Gram(X2)(np.ones(len(y)))
    d = 1.0 / np.sqrt(np.diag(G))
    try:
        factor = scipy.linalg.cho_factor(G * d[:, None] * d[None, :])
    except np.linalg.LinAlgError:
        raise MethodError("least squares: design is numerically rank deficient")
    beta = d * scipy.linalg.cho_solve(factor, d * (X2.T @ y))
    resid = y - X2 @ beta
    beta = beta + d * scipy.linalg.cho_solve(factor, d * (X2.T @ resid))
    resid = y - X2 @ beta
    dof = max(len(y) - X2.shape[1], 1)
    sd = float(np.sqrt(resid @ resid / dof))
    return OlsFit(beta, kept, tuple(labels[j] for j in kept), sd, tuple(notes))


# ---------------------------------------------------------------------------
# Normal-scores regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormRankFit:
    name: str
    design: Design | None
    fit: OlsFit
    sorted_values: np.ndarray = field(repr=False)
    residual_scale: float = 1.0
    warnings: tuple[str, ...] = ()

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        X = _matrix(self.design, predictors, n)
        z = self.fit.predict(X) + rng.standard_normal(n) * self.fit.residual_sd * self.residual_scale
        p = ndtr(z)
        m = len(self.sorted_values)
        if m == 1:
            return np.full(n, self.sorted_values[0])
        grid = np.arange(m) / (m - 1)
        return np.interp(p, grid, self.sorted_values)


def fit_normrank(target: Column, predictors: Dataset | None, residual_scale: float = 1.0) -> NormRankFit:
    """Regress Blom normal scores of the target, back-transform through the
    empirical quantile function (linear interpolation), so draws never leave
    the observed range."""
    y = target.values
    if np.isnan(y).any():
        raise MethodError(f"normrank: target {target.name!r} has missing values")
    n = len(y)
    if n == 0:
        raise MethodError(f"normrank: target {target.name!r} is empty")
    ranks = scipy.stats.rankdata(y, method="average")
    z = ndtri((ranks - 0.375) / (n + 0.25))
    design = _design_for(predictors)
    X = _matrix(design, predictors, n)
    fit = ols(X, z, design.labels if design else ("(intercept)",))
    return NormRankFit(
        target.name, design, fit, np.sort(y), residual_scale, warnings=fit.notes
    )


# ---------------------------------------------------------------------------
# Transform + Normal regression
# ---------------------------------------------------------------------------

def _forward_transform(y: np.ndarray, transform: str, name: str) -> np.ndarray:
    if transform == "identity":
        return y.copy()
    if transform == "sqrt":
        neg = np.flatnonzero(y < 0)
        if neg.size:
            raise MethodError(
                f"sqrt transform: {name!r} is negative at row {int(neg[0])}"
            )
        return np.sqrt(y)
    if transform == "cuberoot":
        return np.cbrt(y)
    raise MethodError(f"unknown transform {transform!r}")


def _inverse_transform(t: np.ndarray, transform: str) -> np.ndarray:
    if transform == "identity":
        return t
    if transform == "sqrt":
        return t * t
    return t**3  # cuberoot: cubing preserves sign


@dataclass(frozen=True)
class TransformNormalFit:
    name: str
    transform: str
    design: Design | None
    fit: OlsFit
    warnings: tuple[str, ...] = ()

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        X = _matrix(self.design, predictors, n)
        t = self.fit.predict(X) + rng.standard_normal(n) * self.fit.residual_sd
        return _inverse_transform(t, self.transform)


def fit_transform_normal(
    target: Column, predictors: Dataset | None, transform: str = "identity"
) -> TransformNormalFit:
    """OLS on the transformed scale; draws are back-transformed, so unlike
    the rank method this one can extrapolate past the observed range."""
    y = target.values
    if np.isnan(y).any():
        raise MethodError(f"transform_normal: target {target.name!r} has missing values")
    if len(y) == 0:
        raise MethodError(f"transform_normal: target {target.name!r} is empty")
    t = _forward_transform(y, transform, target.name)
    design = _design_for(predictors)
    X = _matrix(design, predictors, len(y))
    fit = ols(X, t, design.labels if design else ("(intercept)",))
    return TransformNormalFit(target.name, transform, design, fit, warnings=fit.notes)


# ---------------------------------------------------------------------------
# Logistic regression (IRLS)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrlsResult:
    coefficients: np.ndarray
    standard_errors: np.ndarray
    kept: np.ndarray
    labels: tuple[str, ...]
    iterations: int
    converged: bool
    final_gradient_norm: float
    notes: tuple[str, ...]


def _expit(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -COEF_CAP, COEF_CAP)))


def irls_logit(
    X: scipy.sparse.csr_array, y: np.ndarray, max_iter: int, tol: float, labels
) -> IrlsResult:
    X2, kept, notes = drop_aliased(X, labels)
    notes = list(notes)
    n, p = X2.shape
    gram = Gram(X2)
    beta = np.zeros(p)
    converged = False
    gnorm = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        prob = _expit(X2 @ beta)
        score = X2.T @ (y - prob)
        gnorm = float(np.max(np.abs(score))) if p else 0.0
        if gnorm < tol:
            converged = True
            break
        H = gram(np.maximum(prob * (1.0 - prob), 1e-12))
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            H = H + 1e-4 * np.eye(p)
            step = np.linalg.solve(H, score)
            notes.append("ridge fallback on ill-conditioned weight matrix")
        beta = beta + step
    # under complete separation the saturated probabilities zero the score,
    # so "converged" can hide runaway coefficients; cap on magnitude too
    separated = bool(p and np.max(np.abs(beta)) > COEF_CAP - 5)
    if not converged or separated:
        reason = (
            "possible separation" if separated
            else f"did not converge in {max_iter} iterations"
        )
        msg = f"logit: {reason}; coefficients capped at {COEF_CAP:g}"
        notes.append(msg)
        _warnings.warn(msg)
        beta = np.clip(beta, -COEF_CAP, COEF_CAP)
    prob = _expit(X2 @ beta)
    H = gram(np.maximum(prob * (1.0 - prob), 1e-12))
    try:
        cov = np.linalg.inv(H)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        se = np.full(p, np.nan)
    return IrlsResult(
        beta, se, kept, tuple(labels[j] for j in kept), it, converged, gnorm, tuple(notes)
    )


@dataclass(frozen=True)
class LogitFit:
    name: str
    kind: Categorical
    design: Design | None
    result: IrlsResult
    warnings: tuple[str, ...] = ()

    @property
    def coefficients(self) -> np.ndarray:
        return self.result.coefficients

    def probabilities(self, predictors, n: int) -> np.ndarray:
        X = _matrix(self.design, predictors, n)
        return _expit(_predict(X, self.result.kept, self.result.coefficients))

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        p = self.probabilities(predictors, n)
        return (rng.random(n) < p).astype(np.int64)


def fit_logit(
    target: Column, predictors: Dataset | None, max_iter: int = 100, tol: float = 1e-6
) -> LogitFit:
    if not isinstance(target.kind, Categorical) or len(target.kind.levels) != 2:
        raise MethodError(f"logit: target {target.name!r} must be binary categorical")
    y = target.values.astype(np.float64)
    if len(np.unique(target.values)) < 2:
        raise MethodError(f"logit: target {target.name!r} must have both levels present")
    design = _design_for(predictors)
    X = _matrix(design, predictors, len(y))
    res = irls_logit(X, y, max_iter, tol, design.labels if design else ("(intercept)",))
    return LogitFit(target.name, target.kind, design, res, warnings=res.notes)


# ---------------------------------------------------------------------------
# Multinomial (baseline-category) regression
# ---------------------------------------------------------------------------

MAX_MULTINOMIAL_LEVELS = 64


@dataclass(frozen=True)
class MultinomialFit:
    name: str
    kind: Categorical
    design: Design | None
    present_codes: np.ndarray        # original level codes, ascending; [0] = reference
    coefficients: np.ndarray          # (L-1, p_kept)
    kept: np.ndarray
    labels: tuple[str, ...]
    iterations: int
    converged: bool
    final_gradient_norm: float
    warnings: tuple[str, ...] = ()

    def probabilities(self, predictors, n: int) -> np.ndarray:
        """(n, L_present) softmax probabilities; absent levels have none."""
        X = _matrix(self.design, predictors, n)
        eta = np.clip(_predict(X, self.kept, self.coefficients.T), -COEF_CAP, COEF_CAP)
        e = np.exp(eta)
        denom = 1.0 + e.sum(axis=1)
        P = np.empty((n, len(self.present_codes)))
        P[:, 0] = 1.0 / denom
        P[:, 1:] = e / denom[:, None]
        return P

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        P = self.probabilities(predictors, n)
        cum = np.cumsum(P, axis=1)
        cum[:, -1] = 1.0
        u = rng.random(n)
        choice = (u[:, None] >= cum).sum(axis=1)
        return self.present_codes[choice]


def _multinomial_loglik(Eta: np.ndarray, y: np.ndarray) -> float:
    denom = np.log1p(np.exp(Eta).sum(axis=1))
    lin = np.where(y > 0, Eta[np.arange(len(y)), np.maximum(y - 1, 0)], 0.0)
    return float(lin.sum() - denom.sum())


def fit_multinomial(
    target: Column,
    predictors: Dataset | None,
    max_iter: int = 100,
    tol: float = 1e-6,
    max_levels: int = MAX_MULTINOMIAL_LEVELS,
) -> MultinomialFit:
    """Baseline-category logit fit by Newton steps with step halving and a
    ridge fallback on ill-conditioned Hessians."""
    if not isinstance(target.kind, Categorical):
        raise MethodError(f"multinomial: target {target.name!r} must be categorical")
    present = np.unique(target.values)
    L = len(present)
    if L < 2:
        raise MethodError(f"multinomial: target {target.name!r} needs >= 2 levels present")
    if L > max_levels:
        raise MethodError(
            f"multinomial: target {target.name!r} has {L} levels (cap {max_levels}); "
            "use nested synthesis within a grouped variable instead"
        )
    y = np.searchsorted(present, target.values)
    design = _design_for(predictors)
    X_full = _matrix(design, predictors, len(y))
    labels = design.labels if design else ("(intercept)",)
    X, kept, alias_notes = drop_aliased(X_full, labels)
    notes = list(alias_notes)
    n, p = X.shape
    K = L - 1
    gram = Gram(X)
    block_a, block_b = np.triu_indices(K)
    Y = np.zeros((n, K))
    pos = y > 0
    Y[np.flatnonzero(pos), y[pos] - 1] = 1.0

    B = np.zeros((K, p))
    converged = False
    gnorm = np.inf
    it = 0
    ll = _multinomial_loglik(np.zeros((n, K)), y)
    for it in range(1, max_iter + 1):
        Eta = np.clip(X @ B.T, -COEF_CAP, COEF_CAP)
        e = np.exp(Eta)
        denom = 1.0 + e.sum(axis=1)
        P = e / denom[:, None]
        G = X.T @ (Y - P)  # (p, K)
        gnorm = float(np.max(np.abs(G)))
        if gnorm < tol:
            converged = True
            break
        # all K(K+1)/2 blocks X' diag(P_a (1[a=b] - P_b)) X from one product
        blocks = gram(P[:, block_a] * ((block_a == block_b) - P[:, block_b]))
        H = np.empty((K * p, K * p))
        for a, b, block in zip(block_a, block_b, blocks):
            H[a * p : (a + 1) * p, b * p : (b + 1) * p] = -block
            H[b * p : (b + 1) * p, a * p : (a + 1) * p] = -block
        g = G.T.reshape(-1)  # class-major flat gradient
        try:
            step = np.linalg.solve(-H, g)
        except np.linalg.LinAlgError:
            ridge = 1e-4 * np.eye(K * p)
            step = np.linalg.solve(-H + ridge, g)
            notes.append("ridge fallback on ill-conditioned Hessian")
        # step halving keeps the log-likelihood non-decreasing
        scale = 1.0
        for _ in range(12):
            Bn = B + scale * step.reshape(K, p)
            lln = _multinomial_loglik(np.clip(X @ Bn.T, -COEF_CAP, COEF_CAP), y)
            if lln >= ll - 1e-12:
                break
            scale *= 0.5
        B = B + scale * step.reshape(K, p)
        ll = _multinomial_loglik(np.clip(X @ B.T, -COEF_CAP, COEF_CAP), y)
    separated = bool(B.size and np.max(np.abs(B)) > COEF_CAP - 5)
    if not converged or separated:
        reason = (
            "possible separation" if separated
            else f"did not converge in {max_iter} iterations"
        )
        msg = f"multinomial: {reason}; coefficients capped at {COEF_CAP:g}"
        notes.append(msg)
        _warnings.warn(msg)
        B = np.clip(B, -COEF_CAP, COEF_CAP)
    return MultinomialFit(
        target.name,
        target.kind,
        design,
        present,
        B,
        kept,
        tuple(labels[j] for j in kept),
        it,
        converged,
        gnorm,
        warnings=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Nested bootstrap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NestedFit:
    name: str
    kind: Categorical
    group_name: str
    group_kind: Categorical
    donor_flat: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    warnings: tuple[str, ...] = ()

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        g = predictors.column(self.group_name).values
        empty = self.counts[g] == 0
        if empty.any():
            lvl = self.group_kind.levels[int(g[np.argmax(empty)])]
            raise MethodError(
                f"nested: synthetic group level {lvl!r} has no observed donors "
                f"for {self.name!r}"
            )
        u = rng.random(n)
        pick = self.offsets[g] + np.floor(u * self.counts[g]).astype(np.int64)
        return self.donor_flat[pick]


def fit_nested(target: Column, group: Column) -> NestedFit:
    """Bootstrap pools of target values within each observed group level."""
    if not isinstance(target.kind, Categorical) or not isinstance(group.kind, Categorical):
        raise MethodError("nested: target and group must both be categorical")
    g = group.values
    t = target.values
    n_groups = len(group.kind.levels)
    order = np.argsort(g, kind="stable")
    donor_flat = t[order]
    counts = np.bincount(g, minlength=n_groups)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    notes = []
    spans = {}
    for lvl_code in np.unique(t):
        groups_of = np.unique(g[t == lvl_code])
        if len(groups_of) > 1:
            spans[target.kind.levels[int(lvl_code)]] = len(groups_of)
    if spans:
        msg = (
            "nesting does not hold: level(s) observed in multiple groups: "
            + ", ".join(f"{lv} ({k} groups)" for lv, k in sorted(spans.items()))
        )
        notes.append(msg)
        _warnings.warn(msg)
    return NestedFit(
        target.name,
        target.kind,
        group.name,
        group.kind,
        donor_flat,
        offsets,
        counts,
        warnings=tuple(notes),
    )
