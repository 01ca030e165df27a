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

``build_design`` and ``Design.matrix`` return a ``scipy.sparse`` CSR matrix
that stores only nonzero cells.  Each source variable is evaluated once,
into a slot per row (a categorical's level code; a numeric's zero, missing
or nonzero value).  The terms then fall into groups that put at most one
nonzero in a row: the intercept, the main effects of one variable, and the
products of one crossed pair.  A lookup table over its slots gives each
group a design column (or none) and a value per row.  Taken in layout
order, the groups give each row's columns in ascending order, so the CSR
arrays are filled from them directly, with int32 indices while they fit.
``build_design`` finds the constant columns from the same evaluation and
returns the fit rows' matrix with the layout.  The fits pass it their
distinct predictor rows only, and weight each by its count of rows.

No fit needs the n x p matrix as such.  Each builds one ``Gram`` of its
p x p cross-products X'WX (the sufficient statistics of least squares;
Miller 1992, AS 274) in ``drop_aliased``, which finds aliased columns by a
pivoted Cholesky of its X'X; the solver reads the kept rows and columns,
and least squares reuses that X'X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    sources: tuple[str, ...]          # the fit data's column names, in order

    @property
    def notes(self) -> tuple[str, ...]:
        return tuple(f"dropped constant design column {label!r}" for label in self.constant)

    @property
    def n_columns(self) -> int:
        return len(self.terms)

    def matrix(self, data: Dataset) -> scipy.sparse.csr_array:
        """The n x n_columns design of ``data``, holding only nonzero cells."""
        return _csr(*_entries(self.terms, self.sources, data), self.n_columns)


def _sparse():
    """``scipy.sparse``, imported on the first call: the one import of SciPy."""
    import scipy.sparse

    return scipy.sparse


def _index_dtype(bound: int) -> type:
    """int32 for sparse indices up to ``bound``, as SciPy picks, else int64."""
    return np.int32 if bound < 2**31 else np.int64


def _csr(cols: np.ndarray, values: np.ndarray, p: int) -> scipy.sparse.csr_array:
    """The n x p CSR matrix whose row i holds ``values[k, i]`` in column
    ``cols[k, i]`` for each k where that is not -1.  Taken in order of k,
    the columns of each row ascend, so the matrix is in canonical format
    as built."""
    n = cols.shape[1]
    # a boolean index reads these (n, entries) views one matrix row at a time
    nonzero = (cols >= 0).T
    indptr = np.zeros(n + 1, dtype=cols.dtype)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    return _sparse().csr_array((values.T[nonzero], cols.T[nonzero], indptr), shape=(n, p))


def intercept_matrix(n: int) -> scipy.sparse.csr_array:
    """The n x 1 matrix of ones: the design of a fit without predictors."""
    return _csr(np.zeros((1, n), dtype=_index_dtype(n)), np.ones((1, n)), 1)


def nonzero_pattern(X: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
    """The CSR matrix of ``X``'s shape that is True at its nonzero entries."""
    return _sparse().csr_array((X.data != 0, X.indices, X.indptr), shape=X.shape)


def _slots(term: tuple) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """(source variables, slot in each) of a design term.  A row's slot in
    a variable is its level code for a categorical; for a numeric, 0 where
    it is zero, 1 where it is missing and 2 elsewhere.  A main effect is
    nonzero on the rows in its slot, a product on the rows in both."""
    tag = term[0]
    if tag == "intercept":
        return (), ()
    if tag == "product":
        (a,), (i,) = _slots(term[1])
        (b,), (j,) = _slots(term[2])
        return (a, b), (i, j)
    if tag == "dummy":
        return (term[1],), (term[2],)
    return (term[1],), (1 if tag == "missing" else 2,)


def _evaluated(data: Dataset, name: str) -> tuple[np.ndarray, np.ndarray | None, int]:
    """(slot of each row, value of each row or None for all ones, number of
    slots) of one source variable of ``data``: a missing cell has value 1."""
    col = data.column(name)
    if not isinstance(col.kind, Numeric):
        return col.values, None, len(col.kind.levels)
    missing = np.isnan(col.values)
    return np.where(missing, 1, 2 * (col.values != 0)), np.where(missing, 1.0, col.values), 3


def _entries(terms, sources: tuple[str, ...], data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The ``_csr`` arrays of ``terms`` on ``data``: (design column, -1 for
    none, and value) of each row in each entry, columns numbered by position
    in ``terms``.  Each entry puts at most one nonzero in a row: the
    intercept, the main effects of one source variable, or the products of
    one crossed pair.  Each source variable is evaluated once.  The entries
    follow the design's layout: main effects in ``sources`` order, then
    pairs in order of their first and then their second variable."""
    groups: dict[tuple[str, ...], list[tuple[tuple[int, ...], int]]] = {}
    for j, term in enumerate(terms):
        names, slots = _slots(term)
        groups.setdefault(names, []).append((slots, j))
    variables = dict.fromkeys(name for names in groups for name in names)
    evaluated = {name: _evaluated(data, name) for name in variables}
    position = {name: k for k, name in enumerate(sources)}
    order = sorted(groups, key=lambda names: (len(names), [position[v] for v in names]))
    n = data.n_rows
    cols = np.empty((len(order), n), dtype=_index_dtype(max(len(order) * n, len(terms))))
    values = np.ones((len(order), n))
    for k, names in enumerate(order):
        members = groups[names]
        lookup = np.full([evaluated[v][2] for v in names], -1, dtype=cols.dtype)
        for slots, j in members:
            lookup[slots] = j
        cols[k] = lookup[tuple(evaluated[v][0] for v in names)]
        factors = [evaluated[v][1] for v in names if evaluated[v][1] is not None]
        if factors:
            np.prod(factors, axis=0, out=values[k])
        if len(factors) == 2:
            cols[k][values[k] == 0] = -1  # a product of two numerics can underflow to zero
    return cols, values


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
    ``data``, from one evaluation of each source variable; constant
    non-intercept columns drop.

    ``interactions`` names the columns whose design columns are crossed
    pairwise (two-way interactions between different variables); the main
    effects keep their layout and come first.  ``Design.matrix`` builds the
    same matrix of new data.
    """
    terms, labels, variables = _all_terms(data, interactions)
    n, p = data.n_rows, len(terms)
    cols, values = _entries(terms, data.names, data)
    # all zero, or nonzero everywhere with one value; never the intercept
    constant = np.zeros(p, dtype=bool)
    if n:
        counts = np.bincount(cols[cols >= 0], minlength=p)
        constant = counts == 0
        for j in np.flatnonzero(counts == n):
            # a column nonzero on every row is all of its entry
            v = values[cols[:, 0] == j]
            constant[j] = v.max() == v.min()
        constant[0] = False
    keep = np.flatnonzero(~constant)
    if keep.size < p:
        # renumber the kept columns; a -1 reads the last slot, which stays -1
        renumbered = np.full(p + 1, -1, dtype=cols.dtype)
        renumbered[keep] = np.arange(keep.size)
        cols = renumbered[cols]
    design = Design(
        terms=tuple(terms[j] for j in keep),
        labels=tuple(labels[j] for j in keep),
        variables=tuple(variables[j] for j in keep),
        constant=tuple(labels[j] for j in np.flatnonzero(constant)),
        sources=data.names,
    )
    return design, _csr(cols, values, keep.size)


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
                # in S's index type: int32 design columns times p can pass 2**31
                cols, vals = X.indices[pos].astype(index, copy=False), X.data[pos]
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
