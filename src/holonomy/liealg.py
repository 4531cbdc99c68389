"""Bases of so(g) and of the centralizer algebra g_L.

The identification between bivectors and g-skew operators used throughout
is  wedge(u, v) = u (g v)^T - v (g u)^T,  fixed once and used consistently
by the curvature and realization modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalPair
from .exactla import kernel_basis, rank


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Independent n x n matrices ``num[k] / den`` spanning a subspace of gl.

    ``num`` is a (k, n, n) int array and ``den`` a positive int.
    """

    num: np.ndarray
    den: int = 1

    def __post_init__(self) -> None:
        k, n, m = self.num.shape
        if n != m or self.den < 1:
            raise ValueError("basis needs a (k, n, n) stack and a positive denominator")
        if k and rank(self.num.reshape(k, n * n)) != k:
            raise ValueError("basis elements are linearly dependent")

    @property
    def n(self) -> int:
        return self.num.shape[1]

    def __len__(self) -> int:
        return self.num.shape[0]


def wedge_tags(n: int) -> list:
    """Index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def so_basis(g: np.ndarray) -> np.ndarray:
    """The wedge basis {wedge(e_i, e_j)}_{i<j} of so(g) as an (m, n, n) int stack.

    wedge(e_i, e_j) has row i equal to g[j], row j equal to -g[i] (g is
    symmetric) and zeros elsewhere; the stack follows ``wedge_tags``.  For
    an invertible g these n(n-1)/2 elements are independent.
    """
    n = g.shape[0]
    if g.shape != (n, n) or not (g == g.T).all():
        raise ValueError("g must be square and symmetric")
    if rank(g) != n:
        raise ValueError("degenerate g")
    rows, cols = np.triu_indices(n, 1)  # the wedge tags, in their order
    k = np.arange(len(rows))
    w = np.zeros((len(rows), n, n), dtype=object)
    w[k, rows] = g[cols]
    w[k, cols] = -g[rows]
    return w


def centralizer_dim(pair: CanonicalPair) -> int:
    """Expected dimension: per eigenvalue with k blocks sized n_1 <= ... <= n_k
    (1-indexed), sum over i of (k - i) * n_i."""
    total = 0
    for eig in pair.layout:
        k = len(eig.blocks)
        total += sum((k - i - 1) * b.size for i, b in enumerate(eig.blocks))
    return total


def centralizer_basis(pair: CanonicalPair) -> SubspaceBasis:
    """Basis of {X : gX + X^T g = 0 and XL = LX}, solved as one kernel.

    Unknowns are the n^2 entries of X (row-major).  The stacked system has
    one row per entry (i, j), i <= j, of the symmetric gX + X^T g and one
    per entry of the commutator XL - LX; both are linear in L, so L's
    numerator stands in for L.
    """
    g, l = pair.g, pair.L[0]
    n = pair.n
    eye = np.eye(n, dtype=object)
    # coefficient of X[a, b] in entry (i, j), as system[i, j, a, b]
    sym = np.einsum("ia,bj->ijab", g, eye) + np.einsum("aj,bi->ijab", g, eye)
    comm = np.einsum("ai,bj->ijab", eye, l) - np.einsum("ia,bj->ijab", l, eye)
    upper = np.triu_indices(n)
    system = np.concatenate([sym[upper].reshape(-1, n * n), comm.reshape(-1, n * n)])
    num, den = kernel_basis(system)
    return SubspaceBasis(num.reshape(-1, n, n), den)
