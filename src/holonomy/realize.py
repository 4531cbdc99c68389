"""Quadratic metrics realizing the blockwise curvature map at the origin.

The metric realizes one ``CanonicalPair`` and holds it: g0 is the pair's
g, and the coefficient tensor is B = -1/2 T, where T = ``pair.block_tensor``
is the 0/1 mask over the pairs of Jordan blocks of one eigenvalue that the
formal curvature map is read off too, so the metric is a product across
eigenvalues.

The lowered tensor is one (n, n, n, n) int64 array over one common
denominator (the ``exactla`` format), and its Christoffel combination C is
formed once, raised, as ``QuadraticMetric.raised``: the second Riemann
route reads it, and the float probe casts it.  Every exact check on them
(symmetry, covariant constancy, g(x)-symmetry, both Riemann routes) is an
int64 numpy contraction with no index loop, which ``exactla.capped`` keeps
from wrapping around.  Nothing is inverted: g0 is the pair's signed
involution ``(perm, sign)``, checked when the pair was made, so every
product with it is the gather ``exactla.times_g``, and L is the pair's
relabeled L, so every product with it is ``exactla.times_L``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .canonical import CanonicalPair, StageDocument
from .exactla import (capped, curvature_values, first_mismatch, times_L, times_g, wedge_index,
                      wedge_mismatch)

DOCUMENT = StageDocument("realize", (), ("nablaL_witness", "gsym_witness", "routes_witness",
                                         "formal_witness"))


class RealizationError(RuntimeError):
    """A lowered tensor that is not symmetric, refused by ``lower_B``."""


@dataclass(frozen=True, eq=False)
class QuadraticMetric:
    """g(x) = g0 + B(x, x) with a constant symmetric rank-4 coefficient tensor.

    ``pair`` is the ``CanonicalPair`` the metric realizes: g0 is its g,
    ``pair.involution`` = (perm, sign) with g0[i, perm[i]] = sign[i], a
    signed involution checked when the pair was made, and the realization
    checks read its L.  B = num / den: ``num`` is an (n, n, n, n) integer
    array, kept as int64, and ``den`` one positive int, both
    ``exactla.capped``.  B[i, j, p, q] is symmetric in (i, j) and in
    (p, q); the metric value at x adds B[i, j, p, q] x^p x^q to g0[i, j].
    """

    pair: CanonicalPair
    num: np.ndarray
    den: int

    def __post_init__(self) -> None:
        if not isinstance(self.pair, CanonicalPair):
            raise TypeError(f"pair must be a CanonicalPair, got {type(self.pair).__name__}")
        num, den = capped(self.num, self.den)
        if num.shape != (self.n,) * 4:
            raise ValueError(f"num needs shape {(self.n,) * 4}, got {num.shape}")
        if den <= 0:
            raise ValueError(f"den must be positive, got {den}")
        object.__setattr__(self, "num", num)  # frozen: the checked int64 copy
        object.__setattr__(self, "den", int(den))

    @property
    def n(self) -> int:
        return self.pair.n

    @cached_property
    def raised(self) -> np.ndarray:
        """g0 B and g0 C over ``den``, (2, n, n, n, n), for the Christoffel
        combination C[k,c,b,q] = B[k,c,b,q] + B[k,b,c,q] - B[b,c,k,q]:
        route two of ``riemann_at_origin`` and ``FloatMetric`` read it."""
        b = self.num
        return times_g(np.stack([b, b + b.transpose(0, 2, 1, 3) - b.transpose(2, 1, 0, 3)]),
                       self.pair.involution, 1)


def lower_B(pair: CanonicalPair) -> QuadraticMetric:
    """The metric realizing ``pair``: B = -T / 2 for T = ``pair.block_tensor``
    with both upper indices lowered, num = -(g0 (x) g0) T over den 2 for g0
    = ``pair.involution``, one ``times_g`` per index.

    g0 J^a is symmetric for a canonical g0, so the result is symmetric in
    (i, j) and in (p, q): checked exactly.
    """
    g0 = pair.involution
    num = -times_g(times_g(pair.block_tensor, g0, 0), g0, 2)
    qm = QuadraticMetric(pair, num, 2)
    for axes, where in (((0, 1, 3, 2), "(p, q)"), ((1, 0, 2, 3), "(i, j)")):
        at = first_mismatch(num, num.transpose(axes))
        if at is not None:
            raise RealizationError(f"lowered tensor not symmetric in {where} at {at}")
    return qm


def invertibility_bound(qm: QuadraticMetric) -> Fraction:
    """Exact c = |g0^{-1}|_inf * max_i sum_jpq |B_ijpq|, where |g0^{-1}|_inf = 1.

    |g(x) - g0|_inf <= |x|_inf^2 * max_i sum_jpq |B_ijpq|, so g(x) is
    invertible wherever |x|_inf^2 * c < 1.
    """
    return Fraction(int(np.abs(qm.num).sum(axis=(1, 2, 3)).max()), qm.den)


# The checks below are linear in B, so they run on num; each product with L is
# ``times_L``.  Each returns None, or its first failing index tuple (witness).

def check_nablaL(qm: QuadraticMetric) -> tuple | None:
    """Coefficient-level covariant-constancy condition, all index tuples.

    (B_{ip,bq} - B_{ib,pq}) L^b_k == (B_{bi,kq} - B_{ik,bq}) L^b_p
    summed over b, for every (i, p, q, k): each side a ``times_L`` by the
    pair's L, as [i, p, k, q].
    """
    b = qm.num
    lhs = times_L(b - b.transpose(0, 2, 1, 3), qm.pair, 2, transpose=True)
    rhs = times_L(b - b.transpose(2, 0, 1, 3), qm.pair, 0, transpose=True)
    return first_mismatch(lhs, rhs.transpose(1, 0, 2, 3))


def check_gsym(qm: QuadraticMetric) -> tuple | None:
    """The pair's L stays g(x)-symmetric for all x:
    B_{ij,pq} L^i_l == B_{il,pq} L^i_j, that is, (L^T B_pq)[l, j] =
    sum_i L^i_l B_{ij,pq} is symmetric in (l, j)."""
    lb = times_L(qm.num, qm.pair, 0, transpose=True)
    return first_mismatch(lb, lb.transpose(1, 0, 2, 3))


def riemann_at_origin(qm: QuadraticMetric) -> tuple:
    """Curvature operator of the metric at x = 0, via two exact routes, as
    ``(num, den, routes_witness)``: route one's num[k] / den (``exactla``
    format) is the image of wedge(e_a, e_b), (a, b) the k-th ``wedge_index`` pair.

    Route one contracts the lowered tensor directly:
        R^i_{k ab} = g^{is} (B_{bs,ak} + B_{ak,bs} - B_{bk,as} - B_{as,bk}).
    Route two assembles first derivatives of the Christoffel symbols at 0
    (the symbols vanish there, so the quadratic terms drop):
        R^i_{k ab} = d_a Gamma^i_{bk} - d_b Gamma^i_{ak},
    with d_a Gamma^i_{bk} = (g0 C)[i, k, b, a] read off ``qm.raised``, which
    the float probe transports with.  Both read g^{-1} as g0, so each sum over
    s is a ``times_g``; both run on the wedge pairs only, and ``routes_witness``
    is the first (a, b, i, k) where they differ, or None when they agree.
    """
    rows, cols = wedge_index(qm.n)
    # d[w, s, k] = B_{bs,ak} - B_{as,bk} at the w-th (a, b); route one adds -d^T
    d = qm.num[cols, :, rows, :] - qm.num[rows, :, cols, :]
    direct = times_g(d - d.transpose(0, 2, 1), qm.pair.involution, 1)
    c = qm.raised[1].transpose(3, 2, 0, 1)  # c[a, b, i, k] = d_a Gamma^i_{bk}
    return direct, qm.den, wedge_mismatch(direct, c[rows, cols] - c[cols, rows])


def verify_realization(qm: QuadraticMetric, formal: np.ndarray) -> dict:
    """The realize stage's report document: every exact realization check
    on the metric ``qm``.

    ``qm`` is ``lower_B(pair)`` and ``formal`` the certified map
    ``r_formal(pair)``, both built once by the caller for one pair,
    ``qm.pair``; the metric's curvature ``(num, den)`` at the origin, route
    one, is computed independently and matches when num == den * formal,
    value for value, whether or not route two agrees.  Each check's
    ``<check>_witness`` is its first failing index as a list, or None: nablaL
    (i, p, k, q), gsym (l, j, p, q), routes and formal (a, b, i, k).
    """
    num, den, routes = riemann_at_origin(qm)
    found = (check_nablaL(qm), check_gsym(qm), routes,
             wedge_mismatch(num, den * curvature_values(formal, qm.n)))
    doc = {key: at and list(at) for key, at in zip(DOCUMENT.witnesses, found)}
    return {**doc, "passed": DOCUMENT.first_failure(doc) is None}
