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

from . import cart as _cart
from .design import INTERCEPT, Design, build_design, drop_aliased, intercept_matrix
from .errors import MethodError
from .tabular import Categorical, Column, Dataset, distinct_cells, distinct_rows
from .tabular import _draw_rows, _pool_draw, _pools

COEF_CAP = 30.0  # linear-scale magnitude cap under separation


def _fit_design(predictors: Dataset | None, n: int) -> tuple:
    """The ``n`` fit rows grouped into cells that agree on every predictor:
    (design, matrix with one row per cell, column labels, notes of the
    constant columns dropped, the cell of each row, the rows of each cell).
    Rows of one cell have one design row, so a fit on the cells, each
    weighted by its count, is the fit on the rows.  Without predictors,
    intercept only: one cell of all the rows.  Several constant columns
    make one note that names them all."""
    if predictors is None or not predictors.columns:
        cell_of = np.zeros(n, dtype=np.int64)
        return None, intercept_matrix(1), (INTERCEPT,), (), cell_of, np.array([float(n)])
    cell_of, first = distinct_rows(predictors)
    design, X = build_design(predictors.take(first))
    notes = design.notes
    if len(design.constant) > 1:
        names = ", ".join(map(repr, design.constant))
        notes = (f"dropped {len(design.constant)} constant design columns: {names}",)
    return design, X, design.labels, notes, cell_of, np.bincount(cell_of).astype(np.float64)


def _matrix(method: str, design: Design | None, predictors, n: int) -> scipy.sparse.csr_array:
    """The design rows of a draw of ``n`` values by ``method`` (``_draw_rows``)."""
    n = _draw_rows(method, predictors, n)
    if design is None:
        return intercept_matrix(n)
    if predictors is None:
        raise MethodError("this fit needs predictor columns for sampling")
    return design.matrix(predictors)


def _draw_categorical(rng: np.random.Generator, P: np.ndarray) -> np.ndarray:
    """One inverse-CDF draw per row of the (n, K) probabilities ``P``; the last
    cumulative probability is taken as 1, so rounding never draws past the end."""
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(P.shape[0])
    return (u[:, None] >= cum).sum(axis=1).astype(np.int64)


def _predict(X: scipy.sparse.csr_array, kept: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``X``'s ``kept`` columns times ``coefficients``, as one sparse mat-vec on
    ``X``: the dropped columns get zero coefficients instead of being sliced away."""
    full = np.zeros((X.shape[1],) + coefficients.shape[1:])
    full[kept] = coefficients
    return X @ full


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleFit:
    pool: np.ndarray = field(repr=False)
    notes: tuple[str, ...] = ()

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(0, len(self.pool), size=_draw_rows("sample", predictors, n))
        return self.pool[idx]


def fit_sample(values: Column) -> SampleFit:
    """i.i.d. resampling with replacement from the observed non-missing values."""
    pool = values.values[~values.missing_mask()]
    if len(pool) == 0:
        raise MethodError(f"sample: column {values.name!r} has no observed values")
    return SampleFit(pool)


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


def ols(X: scipy.sparse.csr_array, y: np.ndarray, labels, cell_of: np.ndarray) -> OlsFit:
    """Least squares of the rows' ``y`` on the design rows ``X[cell_of]``,
    from the normal equations: a Cholesky factor C of the column-equilibrated
    Gram D G D, then one step of iterative refinement on the residual, which
    brings the coefficients to the accuracy of a QR solve.

    ``X`` holds each distinct design row once and ``cell_of`` gives each
    row's: G is X'X weighted by the rows of each cell, X'y is taken from
    each cell's sum of y in row order, and the residuals, their SD and its
    degrees of freedom count rows."""
    cells = X.shape[0]
    counts = np.bincount(cell_of, minlength=cells).astype(np.float64)
    _, kept, notes, G = drop_aliased(X, labels, counts)
    G = G[np.ix_(kept, kept)]
    d = 1.0 / np.sqrt(np.diag(G))
    try:
        C = np.linalg.cholesky(G * d[:, None] * d[None, :])
    except np.linalg.LinAlgError:
        raise MethodError("least squares: design is numerically rank deficient")
    # G^-1 = D (C C')^-1 D = B'B with B = C^-1 D
    B = np.linalg.inv(C) * d

    def solve(v: np.ndarray) -> np.ndarray:
        """G^-1 X'v of the rows' ``v``."""
        return B.T @ (B @ (X.T @ np.bincount(cell_of, weights=v, minlength=cells))[kept])

    beta = solve(y)
    resid = y - _predict(X, kept, beta)[cell_of]
    beta = beta + solve(resid)
    resid = y - _predict(X, kept, beta)[cell_of]
    dof = max(len(y) - len(kept), 1)
    sd = float(np.sqrt(resid @ resid / dof))
    return OlsFit(beta, kept, tuple(labels[j] for j in kept), sd, tuple(notes))


# ---------------------------------------------------------------------------
# Normal distribution functions and ranks, for NormRank's normal scores
# ---------------------------------------------------------------------------

# ndtri: Wichura (1988), Algorithm AS 241 (PPND16), coefficients highest
# degree first.  Central region |p - 1/2| <= 0.425 in r = 0.180625 - q^2;
# tails in r = sqrt(-log(min(p, 1 - p))) - 1.6 up to 5, then r - 5.
_AS241 = (
    (
        (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
         4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
         1.3314166789178437745e2, 3.3871328727963666080e0),
        (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
         2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
         4.2313330701600911252e1, 1.0),
    ),
    (
        (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
         1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
         4.63033784615654529590e0, 1.42343711074968357734e0),
        (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
         1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
         2.05319162663775882187e0, 1.0),
    ),
    (
        (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
         2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
         5.46378491116411436990e0, 6.65790464350110377720e0),
        (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
         7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
         5.99832206555887937690e-1, 1.0),
    ),
)

# ndtr: Cody (1969) rational approximations, coefficients highest degree
# first: erf(y) = y P(y^2)/Q(y^2) for y <= 0.46875; erfc(y) = exp(-y^2) R(y)
# up to y = 4, with R(y) = (1/sqrt(pi) - z P(z)/Q(z)) / y in z = 1/y^2 beyond.
_CODY_ERF = (
    (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
     3.77485237685302021e2, 3.20937758913846947e3),
    (1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
     2.84423683343917062e3),
)
_CODY_ERFC_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
     6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
     1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
    (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
     1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
     3.43936767414372164e3, 1.23033935480374942e3),
)
_CODY_ERFC_TAIL = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)
_SQRT1_2 = 0.70710678118654752440
_INV_SQRT_PI = 0.56418958354775628695


def _rational(coefficients, t: np.ndarray) -> np.ndarray:
    num, den = coefficients
    return np.polyval(num, t) / np.polyval(den, t)


def ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile function, the inverse of ``ndtr``, elementwise
    (AS 241): relative error about 1e-16 for p in (0, 1); -inf at 0, inf at
    1, NaN outside [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * _rational(_AS241[0], 0.180625 - qc * qc)
    tail = ~central
    # p of 0 or 1 makes r infinite and is set below; outside [0, 1] r is NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
        z = np.where(r <= 5.0, _rational(_AS241[1], r - 1.6), _rational(_AS241[2], r - 5.0))
    out[tail] = np.where(q[tail] < 0, -z, z)
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    return out


def ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal distribution function Phi(x), elementwise, from Cody's
    erf and erfc (within a few ulp).  In the tails the Gaussian factor
    exp(-x^2/2) is taken in two parts, exp(-h^2/2) exp(-(x - h)(x + h)/2) with
    h = x rounded down to 1/16, so the rounding of x^2 does not reach it."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    central = np.abs(x) * _SQRT1_2 <= 0.46875
    y = x[central] * _SQRT1_2
    out[central] = 0.5 + 0.5 * y * _rational(_CODY_ERF, y * y)
    tail = ~central
    # past 40 the result is 0 or 1 in float64; the clip also keeps infinities
    # out of the exponent
    a = np.minimum(np.abs(x[tail]), 40.0)
    y = a * _SQRT1_2
    z = 1.0 / (y * y)
    R = np.where(
        y <= 4.0, _rational(_CODY_ERFC_MID, y), (_INV_SQRT_PI - z * _rational(_CODY_ERFC_TAIL, z)) / y
    )
    h = np.trunc(a * 16.0) / 16.0
    half_erfc = 0.5 * np.exp(-0.5 * h * h) * np.exp(-0.5 * (a - h) * (a + h)) * R
    out[tail] = np.where(x[tail] < 0, half_erfc, 1.0 - half_erfc)
    return out


def _average_ranks(y: np.ndarray) -> np.ndarray:
    """1-based ranks of ``y`` in float64, ties sharing the mean of their
    positions, as SciPy's ``rankdata(y, method="average")``; each rank is an
    exact half-integer."""
    order = np.argsort(y, kind="stable")
    ordered = y[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(starts, append=len(y))
    ranks = np.empty(len(y))
    ranks[order] = np.repeat(starts + (sizes + 1) / 2, sizes)
    return ranks


def check_residual_scale(residual_scale) -> None:
    """The ``residual_scale`` values ``fit_normrank`` and the plan's ``NormRank`` accept."""
    _cart.check_number("normrank", "residual_scale", residual_scale)
    if not residual_scale >= 0:
        raise MethodError("normrank: residual_scale must be >= 0")


# ---------------------------------------------------------------------------
# Transform + Normal regression; NormRank is its case on normal scores
# ---------------------------------------------------------------------------

def check_transform(transform) -> None:
    """The transforms ``fit_transform_normal`` and the plan's ``TransformNormal`` accept."""
    if transform not in ("identity", "sqrt", "cuberoot"):
        raise MethodError(f"unknown transform {transform!r}")


_NORMAL_SCORES = "normal_scores"  # NormRank's: Blom scores of the ranks, never a plan option


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
    if transform == _NORMAL_SCORES:
        return ndtri((_average_ranks(y) - 0.375) / (len(y) + 0.25))
    return np.cbrt(y)  # cuberoot


def _inverse_transform(t: np.ndarray, transform: str, sorted_values=None) -> np.ndarray:
    """``t`` on the target's scale.  Normal scores go to the observed
    ``sorted_values`` interpolated linearly at Phi(t), never out of range."""
    if transform == "identity":
        return t
    if transform == "sqrt":
        return t * t
    if transform == _NORMAL_SCORES:
        m = len(sorted_values)
        return np.interp(ndtr(t), np.arange(m) / max(m - 1, 1), sorted_values)
    return t**3  # cuberoot: cubing preserves sign


@dataclass(frozen=True)
class TransformNormalFit(OlsFit):
    """Least squares on the transformed scale and what its draw needs: a
    normal residual scaled by ``residual_scale``, then back-transformed."""
    design: Design | None
    transform: str
    residual_scale: float = 1.0
    sorted_values: np.ndarray | None = field(default=None, repr=False)  # normal scores only

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        method = "normrank" if self.transform == _NORMAL_SCORES else "transform_normal"
        X = _matrix(method, self.design, predictors, n)
        t = self.predict(X) + rng.standard_normal(X.shape[0]) * self.residual_sd * self.residual_scale
        return _inverse_transform(t, self.transform, self.sorted_values)


def _fit_normal(
    target: Column, predictors: Dataset | None, transform: str, residual_scale: float, name: str
) -> TransformNormalFit:
    y = _cart._complete_target(target, name)
    t = _forward_transform(y, transform, target.name)
    design, X, labels, notes, cell_of, _ = _fit_design(predictors, len(y))
    res = ols(X, t, labels, cell_of)
    sorted_values = np.sort(y) if transform == _NORMAL_SCORES else None
    return TransformNormalFit(
        **(vars(res) | {"notes": notes + res.notes}), design=design, transform=transform,
        residual_scale=residual_scale, sorted_values=sorted_values,
    )


def fit_transform_normal(
    target: Column, predictors: Dataset | None, transform: str = "identity"
) -> TransformNormalFit:
    """OLS on the transformed scale; draws are back-transformed, so unlike
    the rank method this one can extrapolate past the observed range."""
    check_transform(transform)
    return _fit_normal(target, predictors, transform, 1.0, "transform_normal")


def fit_normrank(
    target: Column, predictors: Dataset | None, residual_scale: float = 1.0
) -> TransformNormalFit:
    """The transform-Normal regression on Blom normal scores of the target,
    back-transformed through the empirical quantile function (linear
    interpolation), so draws never leave the observed range."""
    check_residual_scale(residual_scale)
    return _fit_normal(target, predictors, _NORMAL_SCORES, residual_scale, "normrank")


# ---------------------------------------------------------------------------
# Logistic and baseline-category logistic regression: one Newton solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonResult:
    """How a Newton solve of the baseline-category logit ended."""
    coefficients: np.ndarray          # (K, p_kept); (p_kept,) for the binary logit
    kept: np.ndarray
    labels: tuple[str, ...]
    iterations: int
    converged: bool
    final_gradient_norm: float
    cells: int                        # design rows fit, one per distinct predictor row
    notes: tuple[str, ...]


def solver_stats(result: NewtonResult) -> dict:
    """How ``result``'s solve ended and the design rows it ran on, as the run
    and utility reports give it."""
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "gradient_norm": result.final_gradient_norm,
        "cells": result.cells,
    }


@dataclass(frozen=True)
class IrlsResult(NewtonResult):
    standard_errors: np.ndarray
    fitted: np.ndarray = field(repr=False)  # fitted P(y = 1) of each design row


def _expit(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -COEF_CAP, COEF_CAP)))


def check_newton_options(name: str, max_iter, tol) -> None:
    """The solver options the Newton fits and the plan's ``Logit`` and
    ``Multinomial`` accept; ``name`` is the method's."""
    _cart.check_whole(name, "max_iter", max_iter)
    if max_iter < 1:
        raise MethodError(f"{name}: max_iter must be >= 1")
    _cart.check_number(name, "tol", tol)
    if not tol > 0:
        raise MethodError(f"{name}: tol must be > 0")


def _newton_logit(
    X: scipy.sparse.csr_array, Y: np.ndarray, trials: np.ndarray, max_iter: int, tol: float,
    labels, name: str,
) -> tuple:
    """Baseline-category logit on the non-aliased columns of ``X``, whose
    row i stands for ``trials[i]`` data rows with one design row: (cells, K)
    ``Y`` counts those rows in each non-reference class, and the rest are
    the reference class; K = 1 is the binary logit.  The log-likelihood is
    <Y, eta> - sum_i trials_i log(1 + sum_k e^eta_ik), the score X'(Y - trials P)
    and the Hessian blocks X' diag(trials P_a (1[a=b] - P_b)) X: the sums
    over the rows, taken once per cell.  Newton steps, halved until the
    log-likelihood does not decrease beyond its rounding level, with a small
    ridge on a singular Hessian and coefficients capped under separation.
    Returns the ``NewtonResult``, whose final gradient norm is max |score|
    at the last evaluation, and the ``Gram`` of all columns from
    ``drop_aliased``, whose kept entries are the Hessian's.

    Below, n is the number of data rows, the sum of ``trials``, so a fit
    steps and stops as it would with one design row per data row.

    Stopping rule: every score entry below ``tol`` or below its own rounding
    level.  An entry sum_i x_ij r_i carries a summation error of about
    sqrt(n) eps sum_i |x_ij r_i| <= n eps sqrt(sum_i x_ij^2 r_i^2), and r_i^2
    averages the Hessian weight, so the level is n eps sqrt(H_jj).  Only a
    column on a large scale (an income in units) has a level above ``tol``.

    Step rule: a step is taken whole unless it lowers the log-likelihood by
    more than n eps |ll|, the bound on the error of its sum of n terms, none
    of them positive.  Near the optimum a whole step gains less than one
    unit in the last place of ll, so a threshold below that unit would halve
    such steps on rounding alone and stall the score just above ``tol``.
    """
    check_newton_options(name, max_iter, tol)
    gram, kept, notes, _ = drop_aliased(X, labels, trials)
    p = len(kept)
    K = Y.shape[1]
    block_a, block_b = np.triu_indices(K)
    diagonal = block_a == block_b
    block_of = np.empty((K, K), dtype=np.int64)
    block_of[block_a, block_b] = block_of[block_b, block_a] = np.arange(len(block_a))
    rounding = trials.sum() * np.finfo(np.float64).eps

    def evaluate(B: np.ndarray) -> tuple[np.ndarray, float]:
        """Class probabilities and log-likelihood at ``B``."""
        Eta = np.clip(_predict(X, kept, B.T), -COEF_CAP, COEF_CAP)
        e = np.exp(Eta)
        total = e.sum(axis=1)
        return e / (1.0 + total)[:, None], float(np.vdot(Y, Eta) - trials @ np.log1p(total))

    B = np.zeros((K, p))
    P, ll = evaluate(B)
    converged = False
    gnorm = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        score = (X.T @ (Y - trials[:, None] * P))[kept].T  # (K, p)
        gnorm = float(np.max(np.abs(score), initial=0.0))
        if gnorm < tol:
            converged = True
            break
        # all K(K+1)/2 blocks X' diag(trials P_a (1[a=b] - P_b)) X from one product
        blocks = gram(trials[:, None] * P[:, block_a] * (diagonal - P[:, block_b]))
        blocks = blocks[:, kept[:, None], kept]
        level = rounding * np.sqrt(np.diagonal(blocks[diagonal], axis1=1, axis2=2))
        if np.all((np.abs(score) < tol) | (np.abs(score) <= level)):
            converged = True
            break
        # each block is symmetric, so block (b, a) is block (a, b)
        H = blocks[block_of].transpose(0, 2, 1, 3).reshape(K * p, K * p)
        try:
            step = np.linalg.solve(H, score.reshape(-1))
        except np.linalg.LinAlgError:
            step = np.linalg.solve(H + 1e-4 * np.eye(K * p), score.reshape(-1))
            notes.append("ridge fallback on ill-conditioned Hessian")
        scale = 1.0
        floor = ll - rounding * abs(ll)
        for _ in range(12):
            trial = B + scale * step.reshape(K, p)
            P_trial, ll_trial = evaluate(trial)
            if ll_trial >= floor:
                break
            scale *= 0.5
        B, P, ll = trial, P_trial, ll_trial
    # under complete separation the saturated probabilities zero the score,
    # so "converged" can hide runaway coefficients; cap on magnitude too
    separated = bool(np.max(np.abs(B), initial=0.0) > COEF_CAP - 5)
    if not converged or separated:
        reason = (
            "possible separation" if separated
            else f"did not converge in {max_iter} iterations"
        )
        msg = f"{name}: {reason}; coefficients capped at {COEF_CAP:g}"
        notes.append(msg)
        _warnings.warn(msg)
        B = np.clip(B, -COEF_CAP, COEF_CAP)
    res = NewtonResult(
        B, kept, tuple(labels[j] for j in kept), it, converged, gnorm, X.shape[0], tuple(notes)
    )
    return res, gram


def irls_logit(
    X: scipy.sparse.csr_array, successes: np.ndarray, trials: np.ndarray, max_iter: int,
    tol: float, labels,
) -> IrlsResult:
    """Binary logit by the Newton solver: row i of ``X`` stands for
    ``trials[i]`` data rows, ``successes[i]`` of them with response 1.  With
    standard errors from the information at the (capped) estimate and the
    fitted probabilities of the design rows that information is formed from."""
    res, gram = _newton_logit(X, successes[:, None], trials, max_iter, tol, labels, "logit")
    beta = res.coefficients[0]
    prob = _expit(_predict(X, res.kept, beta))
    H = gram(trials * np.maximum(prob * (1.0 - prob), 1e-12))[np.ix_(res.kept, res.kept)]
    try:
        cov = np.linalg.inv(H)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        se = np.full(len(beta), np.nan)
    return IrlsResult(**(vars(res) | {"coefficients": beta}), standard_errors=se, fitted=prob)


@dataclass(frozen=True)
class LogitFit(IrlsResult):
    design: Design | None

    def probabilities(self, predictors, n: int) -> np.ndarray:
        X = _matrix("logit", self.design, predictors, n)
        return _expit(_predict(X, self.kept, self.coefficients))

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        p = self.probabilities(predictors, n)
        return (rng.random(len(p)) < p).astype(np.int64)


def fit_logit(
    target: Column, predictors: Dataset | None, max_iter: int = 100, tol: float = 1e-6
) -> LogitFit:
    if not isinstance(target.kind, Categorical) or len(target.kind.levels) != 2:
        raise MethodError(f"logit: target {target.name!r} must be binary categorical")
    y = target.values.astype(np.float64)
    if len(np.unique(target.values)) < 2:
        raise MethodError(f"logit: target {target.name!r} must have both levels present")
    design, X, labels, notes, cell_of, counts = _fit_design(predictors, len(y))
    successes = np.bincount(cell_of, weights=y, minlength=len(counts))
    res = irls_logit(X, successes, counts, max_iter, tol, labels)
    return LogitFit(**(vars(res) | {"notes": notes + res.notes}), design=design)


# ---------------------------------------------------------------------------
# Multinomial (baseline-category) regression
# ---------------------------------------------------------------------------

MAX_MULTINOMIAL_LEVELS = 64


@dataclass(frozen=True)
class MultinomialFit(NewtonResult):
    design: Design | None
    present_codes: np.ndarray        # original level codes, ascending; [0] = reference

    def probabilities(self, predictors, n: int) -> np.ndarray:
        """(n, L_present) softmax probabilities; absent levels have none."""
        X = _matrix("multinomial", self.design, predictors, n)
        eta = np.clip(_predict(X, self.kept, self.coefficients.T), -COEF_CAP, COEF_CAP)
        e = np.exp(eta)
        denom = 1.0 + e.sum(axis=1)
        P = np.empty((X.shape[0], len(self.present_codes)))
        P[:, 0] = 1.0 / denom
        P[:, 1:] = e / denom[:, None]
        return P

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.present_codes[_draw_categorical(rng, self.probabilities(predictors, n))]


def fit_multinomial(
    target: Column, predictors: Dataset | None, max_iter: int = 100, tol: float = 1e-6
) -> MultinomialFit:
    """Baseline-category logit on the present levels, the first as
    reference, fit by the Newton solver ``fit_logit`` also uses."""
    if not isinstance(target.kind, Categorical):
        raise MethodError(f"multinomial: target {target.name!r} must be categorical")
    present = np.unique(target.values)
    L = len(present)
    if L < 2:
        raise MethodError(f"multinomial: target {target.name!r} needs >= 2 levels present")
    if L > MAX_MULTINOMIAL_LEVELS:
        raise MethodError(
            f"multinomial: target {target.name!r} has {L} levels "
            f"(cap {MAX_MULTINOMIAL_LEVELS}); "
            "use nested synthesis within a grouped variable instead"
        )
    y = np.searchsorted(present, target.values)
    design, X, labels, notes, cell_of, counts = _fit_design(predictors, len(y))
    cells = len(counts)
    # the rows of each cell in each level, the reference level dropped
    Y = np.bincount(cell_of * L + y, minlength=cells * L).reshape(cells, L)[:, 1:]
    res, _ = _newton_logit(X, Y.astype(np.float64), counts, max_iter, tol, labels, "multinomial")
    return MultinomialFit(
        **(vars(res) | {"notes": notes + res.notes}), design=design, present_codes=present
    )


# ---------------------------------------------------------------------------
# Nested bootstrap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NestedFit:
    name: str
    group_name: str
    group_kind: Categorical
    donor_flat: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    notes: tuple[str, ...] = ()

    def sample(self, predictors, rng: np.random.Generator, n: int) -> np.ndarray:
        _draw_rows("nested", predictors, n)
        g = predictors.column(self.group_name).values
        empty = self.counts[g] == 0
        if empty.any():
            lvl = self.group_kind.levels[int(g[np.argmax(empty)])]
            raise MethodError(
                f"nested: synthetic group level {lvl!r} has no observed donors "
                f"for {self.name!r}"
            )
        return self.donor_flat[_pool_draw(self.offsets, self.counts, g, rng)]


def fit_nested(target: Column, group: Column) -> NestedFit:
    """Bootstrap pools of target values within each observed group level."""
    if not isinstance(target.kind, Categorical) or not isinstance(group.kind, Categorical):
        raise MethodError("nested: target and group must both be categorical")
    g = group.values
    t = target.values
    n_groups = len(group.kind.levels)
    order, offsets, counts = _pools(g, n_groups)
    notes = []
    # the number of groups each target level is seen in: one per distinct
    # (level, group) cell of the rows
    levels = target.kind.levels
    _, first = distinct_cells([(t, len(levels)), (g, n_groups)], len(t))
    n_groups_of = np.bincount(t[first], minlength=len(levels))
    spans = sorted(
        (levels[i], int(n_groups_of[i])) for i in np.flatnonzero(n_groups_of > 1)
    )
    if spans:
        msg = (
            "nesting does not hold: level(s) observed in multiple groups: "
            + ", ".join(f"{lv} ({k} groups)" for lv, k in spans)
        )
        notes.append(msg)
        _warnings.warn(msg)
    return NestedFit(
        target.name, group.name, group.kind, t[order], offsets, counts, notes=tuple(notes)
    )
