"""Sparse dummy-coded design matrices for the regression-style conditional models.

Layout: intercept, then per predictor either its dummy columns (reference =
first level, dropped) or, for numerics, a linear column - preceded by a
missing-state dummy and zero-filled values whenever the fit data contains
missing cells.  Optional two-way interactions follow the main effects: the
product of every pair of those columns that come from different source
variables.  Constant columns are dropped at fit time with a recorded note;
rank-deficient designs get aliased columns dropped at solve time.

``Design.matrix`` returns a ``scipy.sparse`` CSR matrix that stores only each
term's nonzero rows: a main-effects row has at most one nonzero per source
variable (two for a numeric with missing cells), however many levels the
categoricals have.  No fit needs the n x p matrix as such.  They all work
from p x p cross-products X'WX (the sufficient statistics of least squares;
Miller 1992, AS 274): ``Gram`` builds them, and ``drop_aliased`` finds
aliased columns by a pivoted Cholesky factorisation of X'X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpstrf

from .errors import MethodError
from .tabular import Categorical, Dataset, Numeric

INTERCEPT = "(intercept)"
GRAM_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class Design:
    """A fitted design layout, reusable on new data with the same columns."""

    source_columns: tuple[str, ...]
    terms: tuple[tuple, ...]          # ("intercept",) | ("numeric", col) |
                                      # ("missing", col) | ("dummy", col, level_code) |
                                      # ("product", term, term)
    labels: tuple[str, ...]           # per kept design column
    variables: tuple[str, ...]        # source variable per kept design column
    notes: tuple[str, ...]

    @property
    def n_columns(self) -> int:
        return len(self.terms)

    def matrix(self, data: Dataset) -> scipy.sparse.csr_array:
        """The n x n_columns design of ``data``, holding only nonzero cells."""
        nonzeros = _Nonzeros(data)
        parts = [nonzeros(term) for term in self.terms]
        rows = np.concatenate([r for r, _ in parts])
        vals = np.concatenate([v for _, v in parts])
        cols = np.repeat(np.arange(len(parts)), [len(r) for r, _ in parts])
        X = scipy.sparse.coo_array((vals, (rows, cols)), shape=(data.n_rows, len(parts)))
        return X.tocsr()


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


def _all_terms(
    data: Dataset, columns, interactions=()
) -> tuple[list[tuple], list[str], list[str]]:
    terms: list[tuple] = [("intercept",)]
    labels = [INTERCEPT]
    variables = [INTERCEPT]
    for name in columns:
        col = data.column(name)
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


def build_design(data: Dataset, columns=None, interactions=()) -> Design:
    """Fit a design layout on ``data``; constant non-intercept columns drop.

    ``interactions`` names the columns whose design columns are crossed
    pairwise (two-way interactions between different variables); the main
    effects keep their layout and come first.
    """
    columns = tuple(columns) if columns is not None else data.names
    terms, labels, variables = _all_terms(data, columns, interactions)
    keep: list[int] = []
    notes: list[str] = []
    n = data.n_rows
    nonzeros = _Nonzeros(data)
    for j, term in enumerate(terms):
        if term[0] == "intercept":
            keep.append(j)
            continue
        rows, vals = nonzeros(term)
        # all zero, or nonzero everywhere with one value
        constant = len(rows) == 0 or (len(rows) == n and vals.max() == vals.min())
        if n and constant:
            notes.append(f"dropped constant design column {labels[j]!r}")
        else:
            keep.append(j)
    return Design(
        source_columns=columns,
        terms=tuple(terms[j] for j in keep),
        labels=tuple(labels[j] for j in keep),
        variables=tuple(variables[j] for j in keep),
        notes=tuple(notes),
    )


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
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sorted_counts * (sorted_counts + 1) // 2, out=indptr[1:])
        pair_cols = np.empty(indptr[-1], dtype=np.int64)
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
                pair_cols[block] = (cols[:, a] * p + cols[:, b]).ravel()
                products[block] = (vals[:, a] * vals[:, b]).ravel()
        self.p = p
        self.S = scipy.sparse.csr_array((products, pair_cols, indptr), shape=(n, p * p)).T

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


def drop_aliased(X, labels) -> tuple[scipy.sparse.csr_array, np.ndarray, list[str]]:
    """Remove linearly dependent columns via a pivoted Cholesky of X'X.

    The Gram is equilibrated to a unit diagonal first, so each pivot is the
    share of a column's sum of squares left after projection on the columns
    already kept (1 - R^2), and the factorisation always takes the column
    with the largest share next.  Rank tolerance: a column is aliased when
    its share is at most p * eps, LAPACK's default for a unit diagonal.
    Being relative to each column's own scale, it holds for numerics on any
    scale; on the raw Gram, an income-sized column raised the tolerance
    above the counts of rare dummy levels and had them dropped.

    Returns (matrix of the kept columns, kept column indices in original
    order, notes).
    """
    n, p = X.shape
    if p == 0 or n == 0:
        return X, np.arange(p), []
    G = (X.T @ X).toarray()
    d = 1.0 / np.sqrt(np.maximum(np.diag(G), np.finfo(np.float64).tiny))
    _, piv, rank, info = dpstrf(G * d[:, None] * d[None, :], tol=p * np.finfo(np.float64).eps)
    if info < 0:
        raise MethodError(f"pivoted Cholesky failed (LAPACK info {info})")
    if rank == p:
        return X, np.arange(p), []
    piv = piv - 1
    kept = np.sort(piv[:rank])
    dropped = np.sort(piv[rank:])
    notes = [f"dropped aliased design column {labels[j]!r}" for j in dropped]
    return X[:, kept], kept, notes
