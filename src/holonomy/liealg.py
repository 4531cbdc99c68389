"""Bases of so(g) and of the centralizer algebra g_L.

The identification between bivectors and g-skew operators used throughout
is  wedge(u, v) = u (g v)^T - v (g u)^T,  fixed once and used consistently
by the curvature and realization modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .canonical import CanonicalPair
from .exactla import RatMat, _rref, kernel_basis, rank

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SubspaceBasis:
    """Ordered list of independent n x n matrices spanning a subspace of gl."""

    n: int
    elements: tuple  # of RatMat

    def __post_init__(self) -> None:
        for m in self.elements:
            if m.shape != (self.n, self.n):
                raise ValueError("basis element has wrong shape")
        if self.elements:
            rows = [m.vec() for m in self.elements]
            _, pivots = _rref(rows, self.n * self.n)
            if len(pivots) != len(self.elements):
                raise ValueError("basis elements are linearly dependent")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> RatMat:
        return self.elements[i]


def wedge(u: Sequence, v: Sequence, g: RatMat) -> RatMat:
    """The g-skew operator of the bivector spanned by u and v."""
    n = g.rows
    if len(u) != n or len(v) != n:
        raise ValueError("vector length must match g")
    uf = [x if isinstance(x, Fraction) else Fraction(x) for x in u]
    vf = [x if isinstance(x, Fraction) else Fraction(x) for x in v]
    gu = g.mul_vec(uf)
    gv = g.mul_vec(vf)
    e = [uf[i] * gv[j] - vf[i] * gu[j] for i in range(n) for j in range(n)]
    return RatMat._raw(n, n, e)


def wedge_tags(n: int) -> list:
    """Index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def so_basis(g: RatMat) -> SubspaceBasis:
    """Basis {wedge(e_i, e_j)}_{i<j} of so(g); dimension n(n-1)/2."""
    n = g.rows
    if g.rows != g.cols or not g.is_symmetric():
        raise ValueError("g must be square and symmetric")
    if rank(g) != n:
        raise ValueError("degenerate g")
    elems = []
    for i, j in wedge_tags(n):
        u = [_ONE if k == i else _ZERO for k in range(n)]
        v = [_ONE if k == j else _ZERO for k in range(n)]
        elems.append(wedge(u, v, g))
    try:
        return SubspaceBasis(n, tuple(elems))
    except ValueError as exc:
        raise ValueError("degenerate g: wedge images are dependent") from exc


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
    one row per entry of the symmetric part of gX and one per entry of the
    commutator XL - LX.
    """
    g, L = pair.g, pair.L
    n = pair.n
    rows = []
    # (gX + X^T g)[i][j] = 0 for i <= j
    for i in range(n):
        for j in range(i, n):
            row = [_ZERO] * (n * n)
            for k in range(n):
                a = g[i, k]
                if a:
                    row[k * n + j] += a
                b = g[k, j]
                if b:
                    row[k * n + i] += b
            rows.append(row)
    # (XL - LX)[i][j] = 0
    for i in range(n):
        for j in range(n):
            row = [_ZERO] * (n * n)
            for k in range(n):
                a = L[k, j]
                if a:
                    row[i * n + k] += a
                b = L[i, k]
                if b:
                    row[k * n + j] -= b
            if any(row):
                rows.append(row)
    mat = RatMat._raw(len(rows), n * n, [x for r in rows for x in r])
    elems = tuple(RatMat._raw(n, n, list(v)) for v in kernel_basis(mat))
    return SubspaceBasis(n, elems)
