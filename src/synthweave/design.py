"""Sparse dummy-coded design matrices for the regression-style conditional models.

Layout: intercept, then per predictor either its dummy columns (reference =
first level, dropped) or, for numerics, a linear column - preceded by a
missing-state dummy and zero-filled values whenever the fit data contains
missing cells.  Optional two-way interactions follow the main effects: the
product of every pair of those columns that come from different source
variables.  Constant columns are dropped at fit time with a recorded note;
rank-deficient designs get aliased columns dropped at solve time.

Every sparse matrix of the package is built here: the design matrix, the
intercept-only matrix of a fit without predictors, a design's nonzero
pattern and the ``Gram`` pair index.  ``scipy.sparse`` is imported the first
time one is built, so the commands that fit no regression (a sample, CART or
nested plan, ``compare``, ``gentoy``) never load SciPy.

``Design.matrix`` returns a ``scipy.sparse`` CSR matrix that stores only each
term's nonzero rows: a main-effects row has at most one nonzero per source
variable (two for a numeric with missing cells), however many levels the
categoricals have.  No fit needs the n x p matrix as such.  Each builds one
``Gram`` of its p x p cross-products X'WX (the sufficient statistics of least
squares; Miller 1992, AS 274) in ``drop_aliased``, which finds aliased columns
by a pivoted Cholesky of its X'X; the solver reads the kept rows and columns,
and least squares reuses that X'X.  ``build_design`` evaluates each term once
and returns the fit rows' matrix with the layout.  The fits pass it their
distinct predictor rows only, and weight each by its count of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MethodError
from .tabular import Categorical, Dataset, Numeric

INTERCEPT = "(intercept)"
GRAM_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class Design:
    """A fitted design layout, reusable on new data with the same columns."""

    terms: tuple[tuple, ...]          # ("intercept",) | ("numeric", col) |
                                      # ("missing", col) | ("dummy", col, level_code) |
                                      # ("product", term, term)
    labels: tuple[str, ...]           # per kept design column
    variables: tuple[str, ...]        # source variable per kept design column
    constant: tuple[str, ...]         # labels of the constant columns dropped

    @property
    def notes(self) -> tuple[str, ...]:
        return tuple(f"dropped constant design column {label!r}" for label in self.constant)

    @property
    def n_columns(self) -> int:
        return len(self.terms)

    def matrix(self, data: Dataset) -> scipy.sparse.csr_array:
        """The n x n_columns design of ``data``, holding only nonzero cells."""
        nonzeros = _Nonzeros(data)
        return _assemble([nonzeros(term) for term in self.terms], data.n_rows)


def _sparse():
    """``scipy.sparse``, imported on the first call: the one import of SciPy."""
    import scipy.sparse

    return scipy.sparse


def _assemble(parts, n: int) -> scipy.sparse.csr_array:
    """The n-row CSR matrix whose column j holds the (rows, values) ``parts[j]``."""
    rows = np.concatenate([r for r, _ in parts])
    vals = np.concatenate([v for _, v in parts])
    cols = np.repeat(np.arange(len(parts)), [len(r) for r, _ in parts])
    return _sparse().coo_array((vals, (rows, cols)), shape=(n, len(parts))).tocsr()


def intercept_matrix(n: int) -> scipy.sparse.csr_array:
    """The n x 1 matrix of ones: the design of a fit without predictors."""
    return _assemble([(np.arange(n), np.ones(n))], n)


def nonzero_pattern(X: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
    """The CSR matrix of ``X``'s shape that is True at its nonzero entries."""
    return _sparse().csr_array((X.data != 0, X.indices, X.indptr), shape=X.shape)


class _Nonzeros:
    """(ascending row indices, values) of each design term's nonzero cells
    on one dataset; a product term reuses its factors' cells."""

    def __init__(self, data: Dataset):
        self.data = data
        self.n = data.n_rows
        self.cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, term: tuple) -> tuple[np.ndarray, np.ndarray]:
        if term not in self.cache:
            self.cache[term] = self._compute(term)
        return self.cache[term]

    def _compute(self, term: tuple) -> tuple[np.ndarray, np.ndarray]:
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
        elif tag == "dummy":
            rows = np.flatnonzero(values == term[2])
        else:
            raise MethodError(f"unknown design term {term!r}")
        return rows, np.ones(len(rows))


def _all_terms(data: Dataset, interactions=()) -> tuple[list[tuple], list[str], list[str]]:
    terms: list[tuple] = [("intercept",)]
    labels = [INTERCEPT]
    variables = [INTERCEPT]
    for col in data.columns:
        name = col.name
        if isinstance(col.kind, Numeric):
            if np.isnan(col.values).any():
                terms.append(("missing", name))
                labels.append(f"{name}:missing")
                variables.append(name)
            terms.append(("numeric", name))
            labels.append(name)
            variables.append(name)
        else:
            assert isinstance(col.kind, Categorical)
            for code in range(1, len(col.kind.levels)):
                terms.append(("dummy", name, code))
                labels.append(f"{name}={col.kind.levels[code]}")
                variables.append(name)
    crossed = [j for j, v in enumerate(variables) if v in interactions]
    for a, j in enumerate(crossed):
        for k in crossed[a + 1:]:
            if variables[j] != variables[k]:
                terms.append(("product", terms[j], terms[k]))
                labels.append(f"{labels[j]}*{labels[k]}")
                variables.append(f"{variables[j]}*{variables[k]}")
    return terms, labels, variables


def build_design(data: Dataset, interactions=()) -> tuple[Design, scipy.sparse.csr_array]:
    """Fit a design layout on ``data`` and return it with its matrix of
    ``data``, from one evaluation of each term; constant non-intercept
    columns drop.

    ``interactions`` names the columns whose design columns are crossed
    pairwise (two-way interactions between different variables); the main
    effects keep their layout and come first.  ``Design.matrix`` builds the
    same matrix of new data.
    """
    terms, labels, variables = _all_terms(data, interactions)
    n = data.n_rows
    nonzeros = _Nonzeros(data)
    parts = [nonzeros(term) for term in terms]
    # all zero, or nonzero everywhere with one value; never the intercept
    constant = [
        j > 0 and n > 0 and (len(rows) == 0 or (len(rows) == n and vals.max() == vals.min()))
        for j, (rows, vals) in enumerate(parts)
    ]
    keep = [j for j, c in enumerate(constant) if not c]
    design = Design(
        terms=tuple(terms[j] for j in keep),
        labels=tuple(labels[j] for j in keep),
        variables=tuple(variables[j] for j in keep),
        constant=tuple(label for label, c in zip(labels, constant) if c),
    )
    return design, _assemble([parts[j] for j in keep], n)


class Gram:
    """Weighted cross-products X' diag(w) X of one sparse design, dense p x p.

    Built once per fit.  The cross-product index S (p^2 x n) holds
    X[i, j] * X[i, k] at row j*p + k and column i, for each pair of entries
    of row i (an entry paired with itself included), so a weighted Gram is
    the sparse product S @ w: one pass over the pairs, with nothing of size
    n x p.  A 2-D ``w`` gives one Gram per column from a single product,
    which is how the K(K+1)/2 Hessian blocks of a multinomial Newton step
    are built.  ``X`` must not repeat a column within a row, which
    ``Design.matrix`` never does.
    """

    def __init__(self, X: scipy.sparse.csr_array):
        n, p = X.shape
        counts = np.diff(X.indptr)
        # S's columns take the rows in order of their nonzero count, so the
        # rows that share one pair layout fill one contiguous block of S
        self.order = np.argsort(counts, kind="stable")
        sorted_counts = counts[self.order]
        pairs = sorted_counts * (sorted_counts + 1) // 2
        # int32 indices while they fit: 12 bytes per pair in S instead of 16
        index = np.int32 if max(int(pairs.sum()), p * p) < 2**31 else np.int64
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(pairs, out=indptr[1:])
        pair_cols = np.empty(indptr[-1], dtype=index)
        products = np.empty(indptr[-1])
        max_count = int(sorted_counts[-1]) if n else 0
        # the rows with m nonzeros are self.order[first[m]:first[m + 1]]
        first = np.searchsorted(sorted_counts, np.arange(max_count + 2))
        for m in range(1, max_count + 1):
            a, b = np.triu_indices(m)
            # in chunks of rows, which bounds the temporaries' size
            for lo in range(first[m], first[m + 1], GRAM_CHUNK_ROWS):
                hi = min(lo + GRAM_CHUNK_ROWS, first[m + 1])
                pos = X.indptr[self.order[lo:hi]][:, None] + np.arange(m)
                cols, vals = X.indices[pos], X.data[pos]
                block = slice(indptr[lo], indptr[hi])
                # np.take keeps the pairs row-major, so ravel copies nothing;
                # cols[:, a] comes back column-major
                pair_cols[block] = (
                    np.take(cols, a, axis=1) * p + np.take(cols, b, axis=1)
                ).ravel()
                products[block] = (np.take(vals, a, axis=1) * np.take(vals, b, axis=1)).ravel()
        self.p = p
        self.S = _sparse().csr_array((products, pair_cols, indptr), shape=(n, p * p)).T

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """X' diag(w) X for a 1-D ``w``; shape (m, p, p) for an (n, m) ``w``."""
        p = self.p
        W = (w[:, None] if w.ndim == 1 else w)[self.order]
        # each off-diagonal pair sits in one triangle: add the transpose
        half = (self.S @ W).T.reshape(-1, p, p)
        G = half + half.transpose(0, 2, 1)
        diag = np.arange(p)
        G[:, diag, diag] = half[:, diag, diag]
        return G if w.ndim == 2 else G[0]


def _pivoted_cholesky(A: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """(pivot order, rank) of the pivoted Cholesky factorisation of the
    symmetric positive semi-definite ``A``, by LAPACK's dpstf2 rule.

    Step j takes the column with the largest remaining diagonal, the first
    one on ties, and stops when that diagonal is at most ``tol`` or NaN.  The
    remaining diagonals are updated left-looking, as in LAPACK: each is ``A``'s
    own diagonal less a running sum of its squared factor entries.
    """
    p = len(A)
    piv = np.arange(p)
    diag = np.diag(A).copy()
    squares = np.zeros(p)
    L = np.zeros((p, p))  # the factor, rows in pivot order, one column per step
    for j in range(p):
        if j:
            squares[j:] += L[j:, j - 1] ** 2
        left = diag[j:] - squares[j:]
        k = j + int(np.argmax(left))  # NaN counts as the largest
        ajj = left[k - j]
        if not ajj > tol:
            return piv, j
        if k != j:
            piv[j], piv[k] = piv[k], piv[j]
            diag[j], diag[k] = diag[k], diag[j]
            squares[j], squares[k] = squares[k], squares[j]
            L[[j, k], :j] = L[[k, j], :j]
        L[j + 1:, j] = (A[piv[j + 1:], piv[j]] - L[j + 1:, :j] @ L[j, :j]) * (1.0 / np.sqrt(ajj))
    return piv, p


def drop_aliased(X, labels, weights) -> tuple[Gram, np.ndarray, list[str], np.ndarray]:
    """Find aliased columns by a pivoted Cholesky of X' diag(weights) X, from
    the fit's one ``Gram``.  A fit's ``X`` has one row per distinct predictor
    row and ``weights`` holds each one's count of data rows, so the matrix
    factored is the X'X of the design of every row, and the same columns drop.

    The Gram is equilibrated to a unit diagonal first, so each pivot is the
    share of a column's sum of squares left after projection on the columns
    already kept (1 - R^2), and the factorisation always takes the column
    with the largest share next (``_pivoted_cholesky``, LAPACK's dpstf2 rule
    in numpy).  Rank tolerance: a column is aliased when its share is at
    most p * eps, LAPACK's default for a unit diagonal.  Being relative to
    each column's own scale, it holds for numerics on any scale; on the raw
    Gram, an income-sized column raised the tolerance above the counts of
    rare dummy levels and had them dropped.  Exact ties (a copied column, or
    a copy times 10) are decided by rounding, so the copy kept can differ
    between BLAS or numpy builds.

    Returns (the ``Gram`` of all columns, which the solvers read at the kept
    rows and columns, kept column indices in original order, notes, and the
    X' diag(weights) X of all columns that was factored).
    """
    gram = Gram(X)
    n, p = X.shape
    if p == 0 or n == 0:
        return gram, np.arange(p), [], np.zeros((p, p))
    G = gram(weights)
    d = 1.0 / np.sqrt(np.maximum(np.diag(G), np.finfo(np.float64).tiny))
    piv, rank = _pivoted_cholesky(G * d[:, None] * d[None, :], p * np.finfo(np.float64).eps)
    kept = np.sort(piv[:rank])
    dropped = np.sort(piv[rank:])
    notes = [f"dropped aliased design column {labels[j]!r}" for j in dropped]
    return gram, kept, notes, G
