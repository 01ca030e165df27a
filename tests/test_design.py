"""Sparse design matrices and Gram-based fits against a dense reference.

The reference here is the dense path: each design column built on its own,
aliased columns found by pivoted QR of X, least squares by ``lstsq`` and
logistic regression by Newton steps on the dense Hessian.
"""

import numpy as np
import pytest
import scipy.linalg

from synthweave.design import Gram, build_design, drop_aliased
from synthweave.models import _expit, irls_logit, ols
from synthweave.tabular import Categorical, Column, Dataset, numeric_column
from synthweave.utility import _stack, fit_propensity

RTOL = 1e-9
pytestmark = pytest.mark.filterwarnings("ignore:dropped aliased design column")


def _dense_column(term, data):
    tag = term[0]
    n = data.n_rows
    if tag == "intercept":
        return np.ones(n)
    if tag == "product":
        return _dense_column(term[1], data) * _dense_column(term[2], data)
    values = data.column(term[1]).values
    if tag == "numeric":
        return np.where(np.isnan(values), 0.0, values)
    if tag == "missing":
        return np.isnan(values).astype(np.float64)
    return (values == term[2]).astype(np.float64)


def _dense_matrix(design, data):
    return np.column_stack([_dense_column(t, data) for t in design.terms])


def _qr_kept(X):
    """Columns kept by pivoted QR of X, in original order."""
    _, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag[0] * max(X.shape) * np.finfo(np.float64).eps
    return np.sort(piv[: int((diag > tol).sum())])


def _effects(D, scale):
    """Coefficients from -scale to scale, shrunk on columns whose root mean
    square exceeds 1, so that no column dominates the linear predictor."""
    rms = np.sqrt((D**2).mean(axis=0))
    return np.linspace(-scale, scale, D.shape[1]) / np.maximum(rms, 1.0)


def _dense_irls(X, y, iterations=50):
    beta = np.zeros(X.shape[1])
    for _ in range(iterations):
        prob = _expit(X @ beta)
        score = X.T @ (y - prob)
        if np.max(np.abs(score)) < 1e-12:
            break
        w = prob * (1.0 - prob)
        beta = beta + np.linalg.solve((X * w[:, None]).T @ X, score)
    return beta


def _base(n=1500, seed=3):
    rng = np.random.default_rng(seed)
    occ1 = rng.integers(0, 4, n)
    g = rng.integers(0, 3, n)
    x = rng.normal(size=n)
    return rng, {
        "occ1": Column("occ1", Categorical(tuple("ABCD")), occ1),
        "occ3": Column(
            "occ3",
            Categorical(tuple(f"{a}{i}" for a in "ABCD" for i in range(3))),
            occ1 * 3 + rng.integers(0, 3, n),
        ),
        "g": Column("g", Categorical(("u", "v", "w")), g),
        "x": numeric_column("x", x),
    }


def _case(name):
    """(dataset, interactions, dropped aliased columns expected) per case."""
    rng, c = _base()
    n = c["x"].n_rows
    x = c["x"].values
    g = c["g"].values
    if name == "nested dummies":
        cols, inter, aliased = [c["occ1"], c["occ3"], c["x"]], (), 3
    elif name == "duplicated numeric":
        cols, inter, aliased = [c["g"], c["x"], numeric_column("x2", x)], (), 1
    elif name == "numeric equals dummy":
        z = numeric_column("z", (g == 1).astype(float))
        cols, inter, aliased = [c["g"], z, c["x"]], (), 1
    elif name == "constant column":
        cols, inter, aliased = [c["g"], c["x"], numeric_column("c", np.full(n, 5.0))], (), 0
    elif name == "product term":
        xg = numeric_column("xg", x * (g == 1))
        cols, inter, aliased = [c["g"], c["x"], xg], ("g", "x"), 1
    elif name == "large-scale numeric":
        rare = np.zeros(n, dtype=np.int64)
        rare[:20], rare[20:23] = 1, 2
        income = numeric_column("income", rng.lognormal(0.0, 0.5, n) * 1e7)
        cols = [Column("rare", Categorical(("a", "b", "c")), rare), income]
        inter, aliased = (), 0
    elif name == "missing numeric":
        xm = np.where(rng.random(n) < 0.1, np.nan, x)
        cols, inter, aliased = [c["g"], numeric_column("xm", xm)], ("g", "xm"), 0
    else:
        raise AssertionError(name)
    return Dataset(tuple(cols)), inter, aliased


CASES = [
    "nested dummies", "duplicated numeric", "numeric equals dummy",
    "constant column", "product term", "large-scale numeric", "missing numeric",
]


@pytest.mark.parametrize("name", CASES)
def test_sparse_matrix_equals_dense_build(name):
    data, inter, _ = _case(name)
    design = build_design(data, interactions=inter)
    X = design.matrix(data)
    assert X.format == "csr"
    np.testing.assert_array_equal(X.toarray(), _dense_matrix(design, data))


def test_constant_column_dropped_with_note():
    data, _, _ = _case("constant column")
    design = build_design(data)
    assert "c" not in design.labels
    assert design.notes == ("dropped constant design column 'c'",)


@pytest.mark.parametrize("name", CASES)
def test_kept_columns_match_pivoted_qr(name):
    data, inter, aliased = _case(name)
    design = build_design(data, interactions=inter)
    X = design.matrix(data)
    X2, kept, notes = drop_aliased(X, design.labels)
    assert len(kept) == len(_qr_kept(_dense_matrix(design, data))) == design.n_columns - aliased
    assert X2.shape == (data.n_rows, len(kept))
    assert len(notes) == aliased
    assert all(note.startswith("dropped aliased design column ") for note in notes)


def test_gram_matches_dense_products():
    data, inter, _ = _case("missing numeric")
    design = build_design(data, interactions=inter)
    X = design.matrix(data)
    D = X.toarray()
    W = np.random.default_rng(0).random((data.n_rows, 3))
    gram = Gram(X)
    np.testing.assert_allclose(gram(W[:, 0]), (D * W[:, :1]).T @ D, rtol=1e-12)
    blocks = gram(W)
    for m in range(3):
        np.testing.assert_allclose(blocks[m], (D * W[:, m:m + 1]).T @ D, rtol=1e-12)


@pytest.mark.parametrize("name", CASES)
def test_ols_matches_lstsq(name):
    data, inter, _ = _case(name)
    design = build_design(data, interactions=inter)
    X = design.matrix(data)
    D = _dense_matrix(design, data)
    y = D @ _effects(D, 1.0) + np.random.default_rng(1).normal(size=len(D))
    fit = ols(X, y, design.labels)
    ref, *_ = np.linalg.lstsq(D[:, fit.kept], y, rcond=None)
    np.testing.assert_allclose(fit.coefficients, ref, rtol=RTOL, atol=0)
    # the QR path's kept columns span the same space: same fitted values
    qr_kept = _qr_kept(D)
    qr_coef, *_ = np.linalg.lstsq(D[:, qr_kept], y, rcond=None)
    np.testing.assert_allclose(
        fit.predict(X), D[:, qr_kept] @ qr_coef, rtol=RTOL, atol=RTOL * np.abs(y).max()
    )


# the score of a column on the scale 1e7 carries rounding far above the
# absolute tolerance 1e-10 asked for here, so that case cannot converge
@pytest.mark.parametrize("name", [c for c in CASES if c != "large-scale numeric"])
def test_irls_matches_dense_newton(name):
    data, inter, _ = _case(name)
    design = build_design(data, interactions=inter)
    X = design.matrix(data)
    D = _dense_matrix(design, data)
    y = (np.random.default_rng(2).random(len(D)) < _expit(D @ _effects(D, 0.25))).astype(float)
    res = irls_logit(X, y, 100, 1e-10, design.labels)
    assert res.converged
    ref = _dense_irls(D[:, res.kept], y)
    np.testing.assert_allclose(res.coefficients, ref, rtol=RTOL, atol=1e-12)


@pytest.mark.parametrize("model", ["main_effects", "interactions"])
def test_pmse_matches_dense_reference(model):
    _, c = _base(n=1200, seed=5)
    _, d = _base(n=1200, seed=6)
    names = ("occ1", "occ3", "g", "x")
    original = Dataset(tuple(c[k] for k in names))
    synthetic = Dataset(tuple(d[k] for k in names))
    fit = fit_propensity(original, synthetic, model=model, tol=1e-10)
    stacked = _stack(original, synthetic)
    crossed = names if model == "interactions" else ()
    design = build_design(stacked, interactions=crossed)
    D = _dense_matrix(design, stacked)
    kept = _qr_kept(D)
    y = np.concatenate([np.zeros(original.n_rows), np.ones(synthetic.n_rows)])
    p_hat = _expit(D[:, kept] @ _dense_irls(D[:, kept], y))
    assert fit.n_params == len(kept)
    assert fit.pmse == pytest.approx(np.mean((p_hat - 0.5) ** 2), rel=RTOL)
