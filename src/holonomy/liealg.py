"""The wedge basis of so(g) and the commutator system whose kernel is g_L.

The identification between bivectors and g-skew operators used throughout
is  wedge(u, v) = u (g v)^T - v (g u)^T,  fixed once and used consistently
by the curvature and realization modules.  In matrix form
wedge(e_i, e_j) = E_ij g with E_ij = e_i e_j^T - e_j e_i^T.
"""

from __future__ import annotations

import functools

import numpy as np

from .exactla import capped, first_mismatch, times_L, times_g


@functools.cache
def wedge_index(n: int) -> tuple:
    """The pairs (i, j), i < j, in lexicographic order, as (rows, cols)
    index arrays, read-only and shared.  This is the one order of the wedge
    basis, of a curvature map's values and of the Berger witnesses."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def curvature_values(values, n: int | None = None) -> np.ndarray:
    """A curvature map's values, ``exactla.capped``, refused unless of shape
    (n(n-1)/2, n, n), one per ``wedge_index`` pair; n defaults to the last axis."""
    vals, = capped(values)
    n = (vals.shape[-1] if vals.ndim else 0) if n is None else n
    if vals.shape != (n * (n - 1) // 2, n, n):
        raise ValueError(f"curvature map needs shape {(n * (n - 1) // 2, n, n)}, got {vals.shape}")
    return vals


def wedge_mismatch(a: np.ndarray, b) -> tuple | None:
    """``exactla.first_mismatch`` of a stack ``a`` in ``wedge_index`` order
    (axis 0, for n = a.shape[1]) and ``b``, with the stack index replaced by
    its pair: None, or (i, j, ...), lexicographically first."""
    at = first_mismatch(a, b)
    rows, cols = wedge_index(a.shape[1])
    return at and (int(rows[at[0]]), int(cols[at[0]])) + at[1:]


def wedge_rows(a: np.ndarray) -> np.ndarray:
    """The stack {E_ij a}_{i<j} in ``wedge_index`` order, as (m, n, n).

    E_ij a has row i equal to a[j], row j equal to -a[i] and zeros elsewhere;
    the stack has the dtype of ``a``; ``wedge_rows(g)`` is the wedge basis
    {wedge(e_i, e_j)}_{i<j} of so(g).
    """
    n = a.shape[0]
    rows, cols = wedge_index(n)
    k = np.arange(len(rows))
    w = np.zeros((len(rows), n, n), dtype=a.dtype)
    w[k, rows] = a[cols]
    w[k, cols] = -a[rows]
    return w


def commutator_system(pair) -> np.ndarray:
    """The (n^2, m) matrix whose column k is [W_k, L] = W_k L - L W_k, where
    W_k = wedge(e_i, e_j) = E_k g for the k-th pair (i, j) of ``wedge_index``
    and (g, L) is the canonical ``pair``.

    Its kernel holds the wedge coordinates of the elements of so(g) that
    commute with L, so dim g_L = m - rank.  The wedge stack is
    ``wedge_rows`` of g, the gather ``times_g`` of the identity, and both
    products with L are ``times_L``, so every entry is a sum of at most four
    signed entries of L.
    """
    w = wedge_rows(times_g(np.eye(pair.n, dtype=np.int64), pair.involution, 0))
    s = times_L(w, pair, 2, transpose=True) - times_L(w, pair, 1)
    return s.reshape(len(s), pair.n ** 2).T
