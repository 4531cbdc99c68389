"""The wedge basis of so(g) and the commutator system whose kernel is g_L.

The identification between bivectors and g-skew operators used throughout
is  wedge(u, v) = u (g v)^T - v (g u)^T,  fixed once and used consistently
by the curvature and realization modules.  In matrix form
wedge(e_i, e_j) = E_ij g with E_ij = e_i e_j^T - e_j e_i^T.
"""

from __future__ import annotations

import functools

import numpy as np

from .exactla import capped, times_g


@functools.cache
def wedge_index(n: int) -> tuple:
    """The pairs (i, j), i < j, in lexicographic order, as (rows, cols)
    index arrays, read-only and shared.  This is the one order of the wedge
    basis, of a curvature map's values and of the Berger witnesses."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


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


def commutator_system(involution: tuple, l: np.ndarray) -> np.ndarray:
    """The (n^2, m) matrix whose column k is W_k l - l W_k, where
    W_k = wedge(e_i, e_j) = E_k g for the k-th pair (i, j) of ``wedge_index``.

    Its kernel holds the wedge coordinates of the elements of so(g) that
    commute with l, so dim g_L = m - rank.  Built without the basis: with
    W_k = E_k g, W_k l = E_k (g l) and l E_k g = -(E_k l^T)^T g, where both
    products with g are ``times_g`` gathers along its ``involution``; so
    every entry is a sum of at most two entries of l.
    """
    l, = capped(l)
    s = (wedge_rows(times_g(l, involution, 0))
         + times_g(wedge_rows(l.T).transpose(0, 2, 1), involution, 2))
    return s.reshape(len(s), l.size).T
