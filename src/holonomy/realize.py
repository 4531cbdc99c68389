"""Quadratic metrics realizing the blockwise curvature map at the origin.

The coefficient tensor is B = -1/2 T, where T = ``pair.block_tensor`` is
the 0/1 sum over ``berger.block_terms`` that the formal curvature map is
read off too, so the metric is a product across eigenvalues.

The lowered tensor is one (n, n, n, n) integer array over one common
denominator (the ``exactla`` format).  Every exact check on it (symmetry,
covariant constancy, g(x)-symmetry, both Riemann routes) is a numpy
contraction with no index loop, in int64 where ``exactla.narrowed``
proves it safe and on Python ints otherwise.  Nothing is inverted: a
canonical g0 is its own inverse, which ``_own_inverse`` checks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .berger import RealizationError
from .canonical import CanonicalPair
from .exactla import max_abs, narrowed
from .liealg import wedge_index


@dataclass(frozen=True, eq=False)
class QuadraticMetric:
    """g(x) = g0 + B(x, x) with a constant symmetric rank-4 coefficient tensor.

    ``g0`` is an n x n int array.  B = num / den: ``num`` is an (n, n, n, n)
    integer array (see ``exactla``) and ``den`` one positive int.  B[i, j, p, q]
    is symmetric in (i, j) and in (p, q); the metric value at x adds
    B[i, j, p, q] x^p x^q to g0[i, j].  The curvature and the invertibility
    bound read g0 as its own inverse, which a canonical g0 is.
    """

    g0: np.ndarray
    num: np.ndarray
    den: int

    @property
    def n(self) -> int:
        return self.g0.shape[0]


def _first_mismatch(a: np.ndarray, b: np.ndarray):
    """Lexicographically first index where two arrays differ, or None."""
    bad = np.argwhere(a != b)
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def _own_inverse(g0: np.ndarray) -> np.ndarray:
    """g0, which must be its own inverse: raises ValueError naming the first
    entry where g0 @ g0 differs from I.  A canonical g0, a signed
    antidiagonal of ones on each Jordan block, passes."""
    n = g0.shape[0]
    # an entry of g0 @ g0 sums n products of two g0 entries
    g, = narrowed(max_abs(g0) ** 2 * n, g0)
    at = _first_mismatch(g @ g, np.eye(n, dtype=np.int64))
    if at is not None:
        raise ValueError(f"g0 is not its own inverse: g0 @ g0 differs from I at {at}")
    return g0


def lower_B(t: np.ndarray, g0: np.ndarray) -> QuadraticMetric:
    """The metric of B = -t / 2 (t is ``pair.block_tensor`` in the pipeline)
    with both upper indices lowered: num = -(g0 (x) g0) t over den 2.

    g0 J^a is symmetric for a canonical g0, so the result is symmetric in
    (i, j) and in (p, q).  Both symmetries are checked exactly.
    """
    n = g0.shape[0]
    if g0.shape != (n, n) or t.shape != (n,) * 4:
        raise ValueError("shape mismatch")
    # an entry sums n^2 products of two g0 entries and one t entry
    g, t = narrowed(max_abs(g0) ** 2 * max_abs(t) * n * n, g0, t)
    num = -(g @ (g @ t.reshape(n, n ** 3)).reshape((n,) * 4))
    for axes, where in (((0, 1, 3, 2), "(p, q)"), ((1, 0, 2, 3), "(i, j)")):
        at = _first_mismatch(num, num.transpose(axes))
        if at is not None:
            raise RealizationError(f"lowered tensor not symmetric in {where} at {at}")
    return QuadraticMetric(g0, num, 2)


def invertibility_bound(qm: QuadraticMetric) -> Fraction:
    """Exact c = |g0^{-1}|_inf * max_i sum_jpq |B_ijpq|, where g0^{-1} = g0.

    |g(x) - g0|_inf <= |x|_inf^2 * max_i sum_jpq |B_ijpq|, so g(x) is
    invertible wherever |x|_inf^2 * c < 1.
    """
    g0_norm = int(np.abs(_own_inverse(qm.g0)).sum(axis=1).max())
    num, = narrowed(max_abs(qm.num) * qm.n ** 3, qm.num)
    return g0_norm * Fraction(int(np.abs(num).sum(axis=(1, 2, 3)).max()), qm.den)


def validity_radius(bound: Fraction) -> float:
    """Sup-norm radius 1 / sqrt(c) inside which g(x) is invertible, for c
    from ``invertibility_bound``; infinite for a constant metric."""
    return float("inf") if bound == 0 else float(1 / bound) ** 0.5


# The checks below are linear in B and in L, so scaling both by their
# denominators changes no equality: they run on num and on L's numerator.

def check_nablaL(qm: QuadraticMetric, L: tuple) -> bool:
    """Coefficient-level covariant-constancy condition, all index tuples.

    (B_{ip,bq} - B_{ib,pq}) L^b_k == (B_{bi,kq} - B_{ik,bq}) L^b_p
    summed over b, for every (i, p, q, k).
    """
    b, l = narrowed(max_abs(qm.num) * max_abs(L[0]) * qm.n * 2, qm.num, L[0])
    lhs = np.einsum("ipbq,bk->ipqk", b - b.transpose(0, 2, 1, 3), l)
    rhs = np.einsum("bikq,bp->ipqk", b - b.transpose(2, 0, 1, 3), l)
    return bool((lhs == rhs).all())


def check_gsym(qm: QuadraticMetric, L: tuple) -> bool:
    """L stays g(x)-symmetric for all x:  B_{ij,pq} L^i_l == B_{il,pq} L^i_j."""
    b, l = narrowed(max_abs(qm.num) * max_abs(L[0]) * qm.n, qm.num, L[0])
    return bool((np.einsum("ijpq,il->jlpq", b, l) == np.einsum("ilpq,ij->jlpq", b, l)).all())


def riemann_at_origin(qm: QuadraticMetric) -> tuple:
    """Curvature operator of the metric at x = 0, via two exact routes, as
    ``(num, den)`` in the ``exactla`` format: num[k] / den is the image of
    wedge(e_i, e_j) for the k-th pair of ``wedge_index``.

    Route one contracts the lowered tensor directly:
        R^i_{k ab} = g^{is} (B_{bs,ak} + B_{ak,bs} - B_{bk,as} - B_{as,bk}).
    Route two assembles first derivatives of the Christoffel symbols at 0
    (the symbols vanish there, so the quadratic terms drop):
        R^i_{k ab} = d_a Gamma^i_{bk} - d_b Gamma^i_{ak}.
    Both routes read g^{-1} as g0 (see ``_own_inverse``) and must agree
    entry for entry; a mismatch raises.
    """
    n = qm.n
    ginv = _own_inverse(qm.g0)
    # a route adds at most 4 (direct) or 2 * 3 (via Gamma) sums over s
    ginv, b = narrowed(max_abs(ginv) * max_abs(qm.num) * n * 6, ginv, qm.num)
    # direct[a, b, i, k] and dgamma[a, i, b, k] = d_a Gamma^i_{bk}, both
    # scaled by qm.den
    direct = np.einsum("is,absk->abik", ginv,
                       np.einsum("bsak->absk", b) + np.einsum("akbs->absk", b)
                       - np.einsum("bkas->absk", b) - np.einsum("asbk->absk", b))
    dgamma = np.einsum("is,asbk->aibk", ginv,
                       np.einsum("skba->asbk", b) + np.einsum("sbka->asbk", b)
                       - np.einsum("bksa->asbk", b))
    via_gamma = np.einsum("aibk->abik", dgamma) - np.einsum("biak->abik", dgamma)

    rows, cols = wedge_index(n)
    at = _first_mismatch(direct[rows, cols], via_gamma[rows, cols])
    if at is not None:
        raise RealizationError(f"curvature routes disagree on wedge ({rows[at[0]]}, {cols[at[0]]})")
    return direct[rows, cols], qm.den


@dataclass(frozen=True)
class RealizationReport:
    nablaL_ok: bool
    gsym_ok: bool
    routes_agree: bool
    matches_formal: bool

    @property
    def ok(self) -> bool:
        return self.nablaL_ok and self.gsym_ok and self.routes_agree and self.matches_formal

    def to_json(self) -> dict:
        return {
            "nablaL_ok": self.nablaL_ok,
            "gsym_ok": self.gsym_ok,
            "routes_agree": self.routes_agree,
            "matches_formal": self.matches_formal,
            "passed": self.ok,
        }


def verify_realization(pair: CanonicalPair, qm: QuadraticMetric,
                       formal: np.ndarray) -> RealizationReport:
    """Run every exact realization check on the metric ``qm``.

    ``qm`` is ``lower_B(pair.block_tensor, pair.g)`` and ``formal`` the
    certified map ``r_formal(pair)``, both built once by the caller; the
    metric's curvature ``(num, den)`` at the origin is computed
    independently and matches when num == den * formal, value for value.
    """
    try:
        num, den = riemann_at_origin(qm)
    except RealizationError:
        num = None
    matches = num is not None and np.array_equal(
        num, den * narrowed(max_abs(formal) * den, formal)[0])
    return RealizationReport(check_nablaL(qm, pair.L), check_gsym(qm, pair.L),
                             num is not None, matches)
