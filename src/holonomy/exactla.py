"""Exact rational matrices in one format, and the one elimination on them.

Every algebraic computation in this package is exact; nothing here ever
rounds.  Floating point enters only in the numerical probe package.

Every exact matrix, or stack of matrices, is an integer ndarray plus one
positive Python int denominator: ``(num, den)`` stands for ``num / den``.
Objects that are integral by construction (the metric g, the block tensor
T, the so(g) wedge stack, the formal curvature values) are plain integer
arrays.  Scalars (an eigenvalue, a Bianchi violation) are
``fractions.Fraction`` values of Python ints.

An integer array is int64 when an a-priori bound shows that no entry and
no partial sum of the contraction that makes it can reach 2**62, and an
object array of Python ints (which never overflow) otherwise: ``narrowed``
makes that choice, from a bound its caller computes with ``max_abs`` of
the actual inputs before any arithmetic, so int64 never wraps around.
Arrays keep the dtype their bound proved; a scalar leaves an array for a
``Fraction``, a denominator or a report only as a Python int.

Rank, pivot columns and inverse all come from one fraction-free
Gauss-Jordan elimination on rows of Python ints (Bareiss 1968).
"""

from __future__ import annotations

import math
import operator

import numpy as np


# Below 2**62 a bound leaves a factor of two to the int64 range.
INT64_LIMIT = 2 ** 62


def max_abs(a: np.ndarray) -> int:
    """The largest absolute entry of an integer array as a Python int, and
    at least 1, so that a product of these also bounds each factor's entries."""
    return max(1, -int(a.min()), int(a.max())) if a.size else 1


def narrowed(bound: int, *arrays) -> tuple:
    """``arrays`` in int64 when ``bound < INT64_LIMIT``, else as object arrays
    of Python ints; the same contraction then runs on either dtype.

    ``bound`` is the caller's a-priori bound on every entry of ``arrays`` and
    on every partial sum of its contraction: the product of ``max_abs`` of the
    factors, times the length of the summed index, times the number of terms
    added together.
    """
    dtype = np.int64 if bound < INT64_LIMIT else object
    return tuple(a.astype(dtype, copy=False) for a in arrays)


def lowest_terms(num: np.ndarray, den: int) -> tuple:
    """``(num, den)`` divided by the gcd of all its entries, with ``den > 0``."""
    common = int(np.gcd.reduce(num, axis=None))
    g = math.gcd(den, common)
    if den < 0:
        g = -g
    # an all-zero num (common == 0) is left as it is: g = |den| may not fit int64
    return (num if g == 1 or not common else num // g), den // g


def _echelon(a) -> tuple:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns ``(rows, pivots, d)``: ``rows[k]`` is ``d`` times row k of the
    reduced row echelon form of ``a``, whose pivot columns are ``pivots``.
    After each step every entry is a minor of the input (each row divided by
    its content), so each update ``(p * x - f * y) / d_prev`` divides
    exactly (Sylvester's identity).  Pivots are made positive and chosen
    smallest in absolute value, so on the sparse systems of this package a
    pivot mostly equals the previous one; such a step leaves the rows
    without an entry in the pivot column untouched.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        # operator.index rejects a Fraction or float entry instead of truncating it
        a = np.vectorize(operator.index, otypes=[object])(a.astype(object))
    ncols = a.shape[1]
    # zero rows go; the rest are read as lists of Python ints
    m = a[a.any(axis=1)].tolist()
    # dividing a row by its content changes no row space and keeps d small
    m = [row if (g := math.gcd(*row)) == 1 else [x // g for x in row] for row in m]
    pivots: list = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        cand = [(abs(m[i][c]), i) for i in range(r, len(m)) if m[i][c]]
        if not cand:
            continue
        best = min(cand)[1]
        m[r], m[best] = m[best], m[r]
        if m[r][c] < 0:  # negating a row of a keeps every entry a minor
            m[r] = [-x for x in m[r]]
        prow = m[r]
        piv = prow[c]
        nz = [j for j in range(c, ncols) if prow[j]]
        for i, row in enumerate(m):
            f = row[c]
            if i == r or (not f and piv == d):
                continue
            if piv == d:
                for j in nz:
                    row[j] -= f * prow[j] // d
            else:
                m[i] = [(piv * x - f * y) // d for x, y in zip(row, prow)]
        pivots.append(c)
        d = piv
    return m[:len(pivots)], pivots, d


def rank(a) -> int:
    """Exact rank of an integer matrix."""
    return len(_echelon(a)[1])


def pivot_columns(a) -> list:
    """Indices of the columns of an integer matrix that are not in the span
    of the columns before them."""
    return _echelon(a)[1]


def inverse(a) -> tuple:
    """Exact inverse of a square integer matrix as ``(num, den)``.

    Raises ValueError when the matrix is singular.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("inverse of a non-square matrix")
    red, pivots, d = _echelon(np.hstack([a, np.eye(n, dtype=a.dtype)]))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return lowest_terms(np.array([row[n:] for row in red], dtype=object).reshape(n, n), d)
