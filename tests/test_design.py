"""Sparse design matrices and Gram-based fits against a dense reference.

The reference here is the dense path: each design column built on its own,
aliased columns found by pivoted QR of X, least squares by ``lstsq`` and
logistic regression by Newton steps on the dense Hessian.  The sparse
matrices are checked against a per-term build: each term's nonzero rows
found on their own and assembled through a COO matrix.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dpstrf

from synthweave import design as design_module, models
from synthweave.design import (
    INTERCEPT, Gram, _all_terms, _pivoted_cholesky, build_design, drop_aliased,
)
from synthweave.models import (
    _expit, _predict, fit_logit, fit_multinomial, fit_normrank, fit_transform_normal, irls_logit,
    ols,
)
from synthweave.tabular import Categorical, Column, Dataset, numeric_column, stack_rows
from synthweave.utility import _one_sided_terms, fit_propensity

RTOL = 1e-9


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


def _equilibrated(G):
    d = 1.0 / np.sqrt(np.maximum(np.diag(G), np.finfo(np.float64).tiny))
    return G * d[:, None] * d[None, :]


def _lapack_kept(A):
    """(kept columns in original order, rank) of LAPACK's pivoted Cholesky,
    dpstrf, at drop_aliased's tolerance."""
    _, piv, rank, info = dpstrf(A, tol=len(A) * np.finfo(np.float64).eps)
    assert info >= 0
    return np.sort(piv[:rank] - 1), rank


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


def _dense_multinomial(X, Y, iterations=50):
    """Baseline-category logit of the (n, K) class indicators ``Y`` by Newton
    steps on the dense (K p x K p) Hessian; returns (K, p) coefficients."""
    K, p = Y.shape[1], X.shape[1]
    B = np.zeros((K, p))
    for _ in range(iterations):
        e = np.exp(X @ B.T)
        P = e / (1.0 + e.sum(axis=1))[:, None]
        score = (X.T @ (Y - P)).T
        if np.max(np.abs(score)) < 1e-12:
            break
        H = np.empty((K, p, K, p))
        for a in range(K):
            for b in range(K):
                w = P[:, a] * ((a == b) - P[:, b])
                H[a, :, b, :] = (X * w[:, None]).T @ X
        B = B + np.linalg.solve(H.reshape(K * p, K * p), score.ravel()).reshape(K, p)
    return B


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


class _RefNonzeros:
    """(ascending row indices, values) of each design term's nonzero cells
    on one dataset, each term evaluated on its own; a product term reuses
    its factors' cells."""

    def __init__(self, data):
        self.data = data
        self.n = data.n_rows
        self.cache = {}

    def __call__(self, term):
        if term not in self.cache:
            self.cache[term] = self._compute(term)
        return self.cache[term]

    def _compute(self, term):
        tag = term[0]
        if tag == "intercept":
            return np.arange(self.n), np.ones(self.n)
        if tag == "product":
            ra, va = self(term[1])
            rb, vb = self(term[2])
            full = np.zeros(self.n)
            full[ra] = va
            prod = full[rb] * vb
            nz = prod != 0
            return rb[nz], prod[nz]
        values = self.data.column(term[1]).values
        if tag == "numeric":
            rows = np.flatnonzero(~np.isnan(values) & (values != 0))
            return rows, values[rows]
        if tag == "missing":
            rows = np.flatnonzero(np.isnan(values))
        else:
            assert tag == "dummy", term
            rows = np.flatnonzero(values == term[2])
        return rows, np.ones(len(rows))


def _ref_assemble(parts, n):
    """The n-row CSR matrix whose column j holds the (rows, values) ``parts[j]``."""
    rows = np.concatenate([r for r, _ in parts])
    vals = np.concatenate([v for _, v in parts])
    cols = np.repeat(np.arange(len(parts)), [len(r) for r, _ in parts])
    return scipy.sparse.coo_array((vals, (rows, cols)), shape=(n, len(parts))).tocsr()


def _ref_matrix(terms, data):
    """The design matrix of ``terms`` on ``data``, one term at a time."""
    nonzeros = _RefNonzeros(data)
    return _ref_assemble([nonzeros(term) for term in terms], data.n_rows)


def _ref_build_design(data, interactions=()):
    """(kept terms, labels of the constant columns dropped, matrix) of
    ``data``, one term at a time: a non-intercept column is constant when it
    is all zero or nonzero on every row with one value."""
    terms, labels, _ = _all_terms(data, interactions)
    n = data.n_rows
    nonzeros = _RefNonzeros(data)
    parts = [nonzeros(term) for term in terms]
    constant = [
        j > 0 and n > 0 and (len(rows) == 0 or (len(rows) == n and vals.max() == vals.min()))
        for j, (rows, vals) in enumerate(parts)
    ]
    keep = [j for j, c in enumerate(constant) if not c]
    return (
        tuple(terms[j] for j in keep),
        tuple(label for label, c in zip(labels, constant) if c),
        _ref_assemble([parts[j] for j in keep], n),
    )


def _assert_same_csr(X, ref):
    """``X`` is a canonical CSR matrix with ``ref``'s shape, row pointers,
    column indices and values."""
    assert X.format == "csr" and X.shape == ref.shape
    assert X.has_canonical_format
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(X, name), getattr(ref, name), err_msg=name)


def _assert_design_equals_reference(data, interactions, new=()):
    """build_design on ``data`` against the per-term reference, and
    Design.matrix on ``data`` and on each of ``new`` against the reference
    matrix of its terms."""
    design, X = build_design(data, interactions=interactions)
    terms, constant, ref = _ref_build_design(data, interactions)
    assert design.terms == terms and design.constant == constant
    _assert_same_csr(X, ref)
    for other in (data, *new):
        _assert_same_csr(design.matrix(other), _ref_matrix(design.terms, other))


@pytest.mark.parametrize("name", CASES)
def test_matrix_equals_the_per_term_reference(name):
    data, inter, _ = _case(name)
    again, _, _ = _case(name)
    shuffled = data.take(np.random.default_rng(4).permutation(data.n_rows)[:500])
    _assert_design_equals_reference(data, inter, new=(shuffled, again.take(np.arange(0))))


# numbers that make zeros, missing cells and products that underflow
DESIGN_NUMBERS = (0.0, -0.0, math.nan, 1.0, -2.5, 3.0, 1e-200, 1e150)


@st.composite
def _design_datasets(draw):
    """(fit data, new data of the same columns, interactions): 0-3
    categoricals whose rows need not show every level, 0-2 numerics with
    zeros, missing cells and tiny values, 0-12 rows, any crossed subset."""
    kinds = draw(st.lists(st.sampled_from(["c", "x"]), max_size=5))
    kinds = [k for i, k in enumerate(kinds) if k == "c" or kinds[:i].count("x") < 2]
    kinds = [k for i, k in enumerate(kinds) if k == "x" or kinds[:i].count("c") < 3]
    levels = [draw(st.integers(1, 4)) for _ in kinds]

    def rows(n):
        cols = []
        for j, (kind, k) in enumerate(zip(kinds, levels)):
            name = f"{kind}{j}"
            if kind == "x":
                values = draw(st.lists(st.sampled_from(DESIGN_NUMBERS), min_size=n, max_size=n))
                cols.append(numeric_column(name, values))
            else:
                codes = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
                kind = Categorical(tuple("abcd"[:k]))
                cols.append(Column(name, kind, np.array(codes, dtype=np.int64)))
        return Dataset(tuple(cols))

    data, new = rows(draw(st.integers(0, 12))), rows(draw(st.integers(0, 12)))
    crossed = tuple(name for name in data.names if draw(st.booleans()))
    return data, new, crossed


@settings(max_examples=150, deadline=None)
@given(_design_datasets())
def test_matrix_equals_the_per_term_reference_on_generated_data(case):
    data, new, crossed = case
    # Design.matrix finds the columns by name, in any order
    _assert_design_equals_reference(data, crossed, new=(new, new.select(new.names[::-1])))


def test_products_keep_their_order_when_a_first_product_drops():
    """Of the products of a = a1 with b and c, only the one with b is all
    zero and drops, so the first kept product of (a, b) comes after the
    first of (a, c).  Rows with a = a2 still hold (a, b) before (a, c), and
    Design.matrix, which sees only the kept terms, must order them so."""
    a = Column("a", Categorical(("a0", "a1", "a2")), np.array([1, 2, 0, 2, 1]))
    b = Column("b", Categorical(("b0", "b1")), np.array([0, 1, 1, 0, 0]))
    c = Column("c", Categorical(("c0", "c1")), np.array([1, 1, 0, 0, 0]))
    data = Dataset((a, b, c))
    design, _ = build_design(data, interactions=data.names)
    assert "a=a1*b=b1" in design.constant
    assert design.labels.index("a=a2*b=b1") < design.labels.index("a=a2*c=c1")
    _assert_design_equals_reference(data, data.names)


def test_matrix_has_int32_indices():
    data, inter, _ = _case("missing numeric")
    design, X = build_design(data, interactions=inter)
    assert X.indices.dtype == X.indptr.dtype == np.int32
    assert design.matrix(data).indices.dtype == np.int32


@pytest.mark.parametrize(
    "data, p",
    [
        (Dataset(()), 1),
        (Dataset((numeric_column("x", []), Column("g", Categorical(("u", "v", "w")), []))), 4),
    ],
    ids=["no predictor columns", "no rows"],
)
def test_empty_design_keeps_every_column(data, p):
    """A design of no rows drops no column as constant, and its aliasing
    check keeps every column with a zero X'X."""
    design, X = build_design(data)
    assert X.shape == (0, p) and design.n_columns == p and design.constant == ()
    assert design.labels[0] == INTERCEPT
    gram, kept, notes, G = drop_aliased(X, design.labels, np.ones(0))
    assert gram.p == p
    np.testing.assert_array_equal(kept, np.arange(p))
    assert notes == [] and G.shape == (p, p) and not G.any()


@pytest.mark.parametrize("name", CASES)
def test_sparse_matrix_equals_dense_build(name):
    """The fit rows' matrix that build_design returns, and Design.matrix
    rebuilt on the same rows, both equal the dense column-by-column build."""
    data, inter, _ = _case(name)
    design, X = build_design(data, interactions=inter)
    dense = _dense_matrix(design, data)
    for M in (X, design.matrix(data)):
        assert M.format == "csr"
        np.testing.assert_array_equal(M.toarray(), dense)


def _spy(monkeypatch, cls, name):
    """The list of argument tuples ``cls.name`` is called with from now on."""
    calls, method = [], getattr(cls, name)

    def spy(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(cls, name, spy)
    return calls


def test_normrank_forms_one_gram_product(monkeypatch):
    """Least squares reuses the X'X the aliasing check factored."""
    data, _, _ = _case("missing numeric")
    y = numeric_column("y", np.random.default_rng(7).normal(size=data.n_rows))
    calls = _spy(monkeypatch, Gram, "__call__")
    fit_normrank(y, data)
    assert len(calls) == 1


@pytest.mark.parametrize("fit", ["logit", "main_effects", "interactions"])
def test_fits_evaluate_each_source_column_once(monkeypatch, fit):
    """Each predictor column of the fit rows is evaluated once per fit: the
    constant-column check and the matrix share the evaluation, and the
    products of a crossed pair reuse their columns'."""
    _, c = _base(n=1200, seed=5)
    _, d = _base(n=1200, seed=6)
    names = ("occ1", "g", "x")
    original = Dataset(tuple(c[k] for k in names))
    evaluated, real = [], design_module._evaluated

    def spy(data, name):
        evaluated.append(name)
        return real(data, name)

    monkeypatch.setattr(design_module, "_evaluated", spy)
    if fit == "logit":
        noisy = c["x"].values + np.random.default_rng(8).normal(size=original.n_rows)
        target = Column("t", Categorical(("a", "b")), (noisy > 0).astype(np.int64))
        fit_logit(target, original)
    else:
        fit_propensity(original, Dataset(tuple(d[k] for k in names)), model=fit)
    assert sorted(evaluated) == sorted(names)


def test_constant_column_dropped_with_note():
    data, _, _ = _case("constant column")
    design, _ = build_design(data)
    assert "c" not in design.labels
    assert design.notes == ("dropped constant design column 'c'",)


@pytest.mark.parametrize("name", CASES)
def test_kept_columns_match_pivoted_qr(name):
    data, inter, aliased = _case(name)
    design, X = build_design(data, interactions=inter)
    gram, kept, notes, _ = drop_aliased(X, design.labels, np.ones(data.n_rows))
    assert len(kept) == len(_qr_kept(_dense_matrix(design, data))) == design.n_columns - aliased
    lapack_kept, _ = _lapack_kept(_equilibrated(gram(np.ones(data.n_rows))))
    np.testing.assert_array_equal(kept, lapack_kept)
    assert isinstance(gram, Gram) and gram.p == design.n_columns
    assert len(notes) == aliased
    assert all(note.startswith("dropped aliased design column ") for note in notes)


@st.composite
def _aliased_grams(draw):
    """Equilibrated Grams of an intercept and 15-40 random columns, with
    planted aliasing: random combinations of two or three of the columns
    before them.  The columns are shuffled and put on scales from 1e-3 to
    1e3.  No copies: a copy ties with its original in exact arithmetic, and
    which of the two a factorisation keeps is then decided by rounding.  With
    fewer columns the tolerance p * eps comes within rounding of an aliased
    column's share, and rounding decides again."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(60, 150))
    cols = [np.ones(n), *rng.normal(size=(draw(st.integers(15, 40)), n))]
    for m in draw(st.lists(st.integers(2, 3), max_size=5)):
        parts = np.array([cols[j] for j in rng.choice(len(cols), m, replace=False)])
        cols.append(rng.normal(size=m) @ (parts / np.sqrt((parts**2).mean(axis=1, keepdims=True))))
    X = np.column_stack([cols[j] for j in rng.permutation(len(cols))])
    X = X * 10.0 ** rng.integers(-3, 4, X.shape[1])
    return _equilibrated(X.T @ X)


@settings(max_examples=100, deadline=None)
@given(_aliased_grams())
def test_pivoted_cholesky_keeps_lapacks_columns(A):
    piv, rank = _pivoted_cholesky(A, len(A) * np.finfo(np.float64).eps)
    lapack_kept, lapack_rank = _lapack_kept(A)
    assert rank == lapack_rank
    np.testing.assert_array_equal(np.sort(piv[:rank]), lapack_kept)
    assert sorted(piv) == list(range(len(A)))


def test_gram_matches_dense_products():
    data, inter, _ = _case("missing numeric")
    design, X = build_design(data, interactions=inter)
    D = X.toarray()
    W = np.random.default_rng(0).random((data.n_rows, 3))
    gram = Gram(X)
    np.testing.assert_allclose(gram(W[:, 0]), (D * W[:, :1]).T @ D, rtol=1e-12)
    blocks = gram(W)
    for m in range(3):
        np.testing.assert_allclose(blocks[m], (D * W[:, m:m + 1]).T @ D, rtol=1e-12)


@pytest.mark.parametrize("name", CASES)
def test_ols_notes_aliased_columns_without_warning(name):
    data, inter, aliased = _case(name)
    design, X = build_design(data, interactions=inter)
    y = np.random.default_rng(2).normal(size=X.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = ols(X, y, design.labels, np.arange(len(y)))
    assert fit.notes == tuple(drop_aliased(X, design.labels, np.ones(len(y)))[2])
    assert len(fit.notes) == aliased


@pytest.mark.parametrize("name", CASES)
def test_ols_matches_lstsq(name):
    data, inter, _ = _case(name)
    design, X = build_design(data, interactions=inter)
    D = _dense_matrix(design, data)
    y = D @ _effects(D, 1.0) + np.random.default_rng(1).normal(size=len(D))
    fit = ols(X, y, design.labels, np.arange(len(y)))
    ref, *_ = np.linalg.lstsq(D[:, fit.kept], y, rcond=None)
    np.testing.assert_allclose(fit.coefficients, ref, rtol=RTOL, atol=0)
    # the QR path's kept columns span the same space: same fitted values
    qr_kept = _qr_kept(D)
    qr_coef, *_ = np.linalg.lstsq(D[:, qr_kept], y, rcond=None)
    np.testing.assert_allclose(
        fit.predict(X), D[:, qr_kept] @ qr_coef, rtol=RTOL, atol=RTOL * np.abs(y).max()
    )


def test_ols_refinement_reaches_the_qr_solve_on_an_ill_conditioned_design():
    """On [1, x, x + 1e-3 e] (condition number about 2e3) the normal
    equations alone are off the QR solve by about 1e-9 relative; the one
    refinement step brings them within 1e-10 on every seed."""
    n = 2000
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x, e = rng.normal(size=n), rng.normal(size=n)
        D = np.column_stack([np.ones(n), x, x + 1e-3 * e])
        y = D @ np.array([0.5, 1.0, -2.0]) + 0.01 * rng.normal(size=n)
        fit = ols(scipy.sparse.csr_array(D), y, ("(Intercept)", "x", "z"), np.arange(n))
        ref, *_ = np.linalg.lstsq(D, y, rcond=None)
        np.testing.assert_allclose(fit.coefficients, ref, rtol=1e-10, atol=0)


@pytest.mark.parametrize("factor", [1.0, 10.0])
def test_swapped_copies_give_the_same_fit(factor):
    """A column and its copy (times ``factor``) tie in exact arithmetic, so
    rounding decides which one the aliasing check keeps.  Swapping their
    order may change that choice, but not how many columns are kept, the
    least-squares fitted values or the logit probabilities."""
    rng, c = _base()
    x, g = c["x"].values, c["g"].values
    copy = numeric_column("copy", x * factor)
    y = x + (g == 1) + rng.normal(size=len(x))
    outcome = (rng.random(len(x)) < _expit(0.5 * x - 0.25 * (g == 2))).astype(float)
    fits = []
    for cols in ([c["g"], c["x"], copy], [c["g"], copy, c["x"]]):
        design, X = build_design(Dataset(tuple(cols)))
        fit = ols(X, y, design.labels, np.arange(len(y)))
        res = irls_logit(X, outcome, np.ones(len(y)), 100, 1e-10, design.labels)
        prob = _expit(_predict(X, res.kept, res.coefficients))
        fits.append((len(fit.kept), len(res.kept), fit.predict(X), prob))
    (ols_a, logit_a, fitted_a, prob_a), (ols_b, logit_b, fitted_b, prob_b) = fits
    # intercept, two dummies of g and one of the copies
    assert ols_a == ols_b == logit_a == logit_b == 4
    np.testing.assert_allclose(fitted_a, fitted_b, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(prob_a, prob_b, rtol=1e-10, atol=1e-10)


def test_halved_steps_end_at_the_dense_newton_estimate(monkeypatch):
    """On a heavy-tailed predictor some whole Newton steps lower the
    log-likelihood, so the solver halves them (each halving evaluates one
    more trial, beyond one per iteration and the final probabilities); it
    still ends where the dense, whole-step Newton reference does."""
    rng = np.random.default_rng(317)
    x = rng.standard_t(1.5, size=30)
    z = rng.normal(size=30)
    y = (rng.random(30) < _expit(3 * x - z)).astype(float)
    design, X = build_design(Dataset((numeric_column("x", x), numeric_column("z", z))))
    calls = []
    monkeypatch.setattr(models, "_predict", lambda *a: calls.append(1) or _predict(*a))
    res = irls_logit(X, y, np.ones(len(y)), 100, 1e-10, design.labels)
    assert res.converged
    assert len(calls) > res.iterations + 1
    ref = _dense_irls(X.toarray(), y)
    np.testing.assert_allclose(res.coefficients, ref, rtol=RTOL, atol=1e-12)
    # the fitted probabilities come back with the fit, as a separate predict gives them
    np.testing.assert_array_equal(res.fitted, _expit(_predict(X, res.kept, res.coefficients)))


@pytest.mark.parametrize("name", CASES)
def test_irls_matches_dense_newton(name):
    data, inter, _ = _case(name)
    design, X = build_design(data, interactions=inter)
    D = _dense_matrix(design, data)
    y = (np.random.default_rng(2).random(len(D)) < _expit(D @ _effects(D, 0.25))).astype(float)
    res = irls_logit(X, y, np.ones(len(y)), 100, 1e-10, design.labels)
    assert res.converged
    D_k = D[:, res.kept]
    ref = _dense_irls(D_k, y)
    np.testing.assert_allclose(res.coefficients, ref, rtol=RTOL, atol=1e-12)
    prob = _expit(D_k @ res.coefficients)
    info = (D_k * (prob * (1.0 - prob))[:, None]).T @ D_k
    np.testing.assert_allclose(
        res.standard_errors, np.sqrt(np.diag(np.linalg.inv(info))), rtol=RTOL
    )


def test_standard_errors_of_a_rare_cell_match_the_dense_information():
    """Two cells of 1e8 rows each, the second with a fitted p of 3e-7: its
    weight p(1 - p) is far below any floor but 1e-12's, so the standard
    errors are the dense inverse information's (a floor of 1e-6 would read
    0.100 for the second instead of 0.183)."""
    D = np.array([[1.0, 0.0], [1.0, 1.0]])
    trials = np.array([1e8, 1e8])
    res = irls_logit(
        scipy.sparse.csr_array(D), np.array([5e7, 30.0]), trials, 100, 1e-6, ("(Intercept)", "b")
    )
    assert res.converged
    p = res.fitted
    np.testing.assert_allclose(p, [0.5, 3e-7], rtol=1e-9)
    info = D.T @ (D * (trials * p * (1.0 - p))[:, None])
    np.testing.assert_allclose(
        res.standard_errors, np.sqrt(np.diag(np.linalg.inv(info))), rtol=1e-12
    )


@pytest.mark.parametrize("name", CASES)
def test_multinomial_matches_dense_newton(name):
    data, _, _ = _case(name)
    # the design fit_multinomial builds: main effects, no interactions
    D = _dense_matrix(build_design(data)[0], data)
    effects = _effects(D, 0.25)
    eta = np.column_stack([np.zeros(len(D)), D @ effects, -(D @ effects)])
    P = np.exp(eta) / np.exp(eta).sum(axis=1)[:, None]
    u = np.random.default_rng(4).random(len(D))
    y = (u[:, None] >= np.cumsum(P, axis=1)[:, :-1]).sum(axis=1)
    # a level seen in a few rows can miss a class, and its coefficients then
    # have no finite estimate: give those rows each class in turn
    for j in np.flatnonzero(np.isin(D, (0.0, 1.0)).all(axis=0) & (D.sum(axis=0) < 30)):
        rows = np.flatnonzero(D[:, j])
        y[rows] = np.arange(len(rows)) % 3
    target = Column("t", Categorical(("a", "b", "c")), y)
    fit = fit_multinomial(target, data, tol=1e-10)
    assert fit.converged
    Y = (y[:, None] == np.arange(1, 3)).astype(float)
    ref = _dense_multinomial(D[:, fit.kept], Y)
    np.testing.assert_allclose(fit.coefficients, ref, rtol=RTOL, atol=1e-12)


@pytest.mark.parametrize("model", ["main_effects", "interactions"])
def test_pmse_matches_dense_reference(model):
    _, c = _base(n=1200, seed=5)
    _, d = _base(n=1200, seed=6)
    names = ("occ1", "occ3", "g", "x")
    original = Dataset(tuple(c[k] for k in names))
    synthetic = Dataset(tuple(d[k] for k in names))
    fit = fit_propensity(original, synthetic, model=model, tol=1e-10)
    stacked = stack_rows([original, synthetic])
    crossed = names if model == "interactions" else ()
    design, _ = build_design(stacked, interactions=crossed)
    D = _dense_matrix(design, stacked)
    kept = _qr_kept(D)
    y = np.concatenate([np.zeros(original.n_rows), np.ones(synthetic.n_rows)])
    p_hat = _expit(D[:, kept] @ _dense_irls(D[:, kept], y))
    assert fit.n_params == len(kept)
    assert fit.pmse == pytest.approx(np.mean((p_hat - 0.5) ** 2), rel=RTOL)


# ---------------------------------------------------------------------------
# Fits on the distinct predictor rows against the same solvers on every row
# ---------------------------------------------------------------------------

def _grouping_case(name, n=1500, seed=11):
    """Predictors of one grouping case: heavily duplicated rows, all rows
    distinct, a numeric with missing cells and both signed zeros, or none
    (intercept only)."""
    rng, c = _base(n=n, seed=seed)
    if name == "duplicated":
        few = numeric_column("few", rng.choice([-1.0, 0.5, 2.0], n))
        return Dataset((c["occ1"], c["g"], few))
    if name == "distinct":
        return Dataset((c["g"], c["x"]))
    if name == "missing and signed zeros":
        values = rng.choice([-0.0, 0.0, np.nan, 1.5, -2.5], n)
        return Dataset((c["g"], numeric_column("z", values)))
    return None


GROUPINGS = ["duplicated", "distinct", "missing and signed zeros", "intercept only"]


def _row_design(predictors, n):
    """(matrix, labels, notes) of the design of every row."""
    if predictors is None:
        return models.intercept_matrix(n), (models.INTERCEPT,), ()
    design, X = build_design(predictors)
    return X, design.labels, design.notes


def _row_solve(fit, target, predictors, max_iter=100, tol=1e-6):
    """The solver of ``fit`` run again on the design of every row, each with
    a count of 1, beside the fit's own results: two (coefficients, kept
    columns, iterations, converged, notes) tuples.  Least squares has no
    iterations, and its residual SD stands in for convergence.  The row
    design notes one constant column at a time, as a fit does while there
    is at most one."""
    n = target.n_rows
    X, labels, notes = _row_design(predictors, n)
    if isinstance(fit, models.NewtonResult):
        # one indicator column per present level but the first; the binary
        # logit is the case of two levels
        y = np.searchsorted(np.unique(target.values), target.values)
        Y = (y[:, None] == np.arange(1, y.max() + 1)).astype(np.float64)
        name = "logit" if isinstance(fit, models.LogitFit) else "multinomial"
        ref, _ = models._newton_logit(X, Y, np.ones(n), max_iter, tol, labels, name)
        return (
            (fit.coefficients.reshape(ref.coefficients.shape), fit.kept, fit.iterations,
             fit.converged, fit.notes),
            (ref.coefficients, ref.kept, ref.iterations, ref.converged, notes + ref.notes),
        )
    y = models._forward_transform(target.values, fit.transform, target.name)
    ref = ols(X, y, labels, np.arange(n))
    return (
        (fit.coefficients, fit.kept, None, fit.residual_sd, fit.notes),
        (ref.coefficients, ref.kept, None, ref.residual_sd, notes + ref.notes),
    )


def _assert_same_solve(fit, target, predictors, **solver):
    """``fit`` within 1e-9 relative of its solver on the design of every row,
    with the same kept columns, iterations, convergence and notes."""
    (coef, kept, it, end, notes), (ref_coef, ref_kept, ref_it, ref_end, ref_notes) = _row_solve(
        fit, target, predictors, **solver
    )
    np.testing.assert_allclose(coef, ref_coef, rtol=1e-9)
    np.testing.assert_array_equal(kept, ref_kept)
    assert (it, notes) == (ref_it, ref_notes)
    assert end == pytest.approx(ref_end, rel=1e-9)


def _linear_score(predictors, n, rng):
    X, _, _ = _row_design(predictors, n)
    return X @ np.linspace(-0.6, 0.6, X.shape[1]) + rng.normal(size=n)


@pytest.mark.parametrize("name", GROUPINGS)
def test_grouped_cells_count_the_distinct_predictor_rows(name):
    predictors = _grouping_case(name)
    _, X, _, _, cell_of, counts = models._fit_design(predictors, 1500)
    expected = {"duplicated": 4 * 3 * 3, "distinct": 1500, "intercept only": 1}
    # -0.0 and 0.0 are one value and every NaN another: four per g level
    assert X.shape[0] == len(counts) == expected.get(name, 3 * 4)
    assert counts.sum() == 1500 and np.array_equal(np.bincount(cell_of), counts)


@pytest.mark.parametrize("name", GROUPINGS)
def test_grouped_logit_equals_the_row_fit(name):
    predictors = _grouping_case(name)
    rng = np.random.default_rng(21)
    y = (rng.random(1500) < _expit(_linear_score(predictors, 1500, rng))).astype(np.int64)
    target = Column("t", Categorical(("a", "b")), y)
    fit = fit_logit(target, predictors, tol=1e-10)
    _assert_same_solve(fit, target, predictors, tol=1e-10)
    X, labels, _ = _row_design(predictors, 1500)
    ref = irls_logit(X, y.astype(np.float64), np.ones(1500), 100, 1e-10, labels)
    np.testing.assert_allclose(fit.standard_errors, ref.standard_errors, rtol=1e-9)


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_grouped_logit_rounding_level_counts_rows_not_cells(seed):
    # 1500 rows in 12 cells, with an income on a scale of 1e7: its score
    # stops at its rounding level, which grows with the data rows (n eps)
    # the cells stand for; a level from the cell count stops later
    rng, c = _base(seed=seed)
    income = numeric_column("income", rng.choice([1.5, 2.5, 4.0, 7.0], 1500) * 1e7)
    predictors = Dataset((c["g"], income))
    eta = -1.0 + 0.4 * (c["g"].values == 1) + 3e-8 * income.values
    y = (rng.random(1500) < _expit(eta)).astype(np.int64)
    target = Column("t", Categorical(("a", "b")), y)
    fit = fit_logit(target, predictors)
    assert fit.cells == 12
    _assert_same_solve(fit, target, predictors)


@pytest.mark.parametrize("name", GROUPINGS)
def test_grouped_multinomial_equals_the_row_fit(name):
    predictors = _grouping_case(name)
    rng = np.random.default_rng(22)
    score = _linear_score(predictors, 1500, rng)
    eta = np.column_stack([np.zeros(1500), score, -score])
    u = rng.random(1500)[:, None]
    y = (u >= np.cumsum(np.exp(eta) / np.exp(eta).sum(axis=1)[:, None], axis=1)[:, :-1]).sum(axis=1)
    target = Column("t", Categorical(("a", "b", "c")), y)
    fit = fit_multinomial(target, predictors, tol=1e-10)
    _assert_same_solve(fit, target, predictors, tol=1e-10)


@pytest.mark.parametrize("fit_method", [fit_transform_normal, fit_normrank])
@pytest.mark.parametrize("name", GROUPINGS)
def test_grouped_least_squares_equals_the_row_fit(name, fit_method):
    predictors = _grouping_case(name)
    target = numeric_column("t", _linear_score(predictors, 1500, np.random.default_rng(23)))
    _assert_same_solve(fit_method(target, predictors), target, predictors)


@pytest.mark.parametrize("model", ["main_effects", "interactions"])
@pytest.mark.parametrize("name", ["duplicated", "distinct", "missing and signed zeros"])
def test_grouped_propensity_equals_the_row_fit(name, model):
    original = _grouping_case(name, n=1200, seed=5)
    synthetic = _grouping_case(name, n=1000, seed=6)
    fit = fit_propensity(original, synthetic, model=model, tol=1e-10)
    stacked = stack_rows([original, synthetic])
    crossed = stacked.names if model == "interactions" else ()
    design, X = build_design(stacked, interactions=crossed)
    y = np.concatenate([np.zeros(1200), np.ones(1000)])
    ref = irls_logit(X, y, np.ones(2200), 100, 1e-10, design.labels)
    c = 1000 / 2200
    assert fit.pmse == pytest.approx(np.mean((ref.fitted - c) ** 2), rel=1e-12)
    np.testing.assert_allclose(fit.coefficients, ref.coefficients, rtol=1e-9)
    assert (fit.labels, fit.iterations, fit.converged) == (ref.labels, ref.iterations, ref.converged)
    assert fit.notes == design.notes + ref.notes + _one_sided_terms(
        X, y, np.ones(2200), ref.kept, design.labels
    )
    assert fit.cells == len(np.unique(X.toarray(), axis=0))
