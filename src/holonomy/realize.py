"""Quadratic metrics realizing the blockwise curvature map at the origin.

The coefficient tensor B = -1/2 sum J_i^a (x) J_j^s is read off the same
term list as the formal curvature map (``berger.block_terms``, which
states the formula), so the metric is a product across eigenvalues.

The block-power factors are int64 matrices, and the lowered tensor is one
(n, n, n, n) integer array over one common denominator (the ``exactla``
format).  Every exact check on it (symmetry, covariant constancy,
g(x)-symmetry, both Riemann routes) is a numpy contraction of integer
arrays and needs no index loop.  Each contraction runs in int64 when an
a-priori bound on its partial sums is below 2**62 and on Python ints
otherwise (``exactla.narrowed``), so it is exact on either dtype.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .berger import CurvatureMap, block_terms
from .canonical import CanonicalPair
from .exactla import inverse, max_abs, narrowed
from .liealg import wedge_index, wedge_tags


class RealizationError(RuntimeError):
    """Internal consistency failure while building or checking a metric."""


@dataclass(frozen=True, eq=False)
class BTensor:
    """Curvature coefficient tensor as a sum of factor pairs over one denominator.

    ``left`` and ``right`` are (t, n, n) int stacks of factors C_t and D_t;
    the rank-4 components are B[a][b][j][q] = sum_t C_t[a, j] * D_t[b, q] / den
    and the associated linear map is B(X) = sum_t C_t X D_t / den.
    """

    left: np.ndarray
    right: np.ndarray
    den: int

    @property
    def n(self) -> int:
        return self.left.shape[1]


def _block_power(n: int, offset: int, size: int, a: int) -> np.ndarray:
    """The a-th power of a block's nilpotent part as a full-size int matrix.

    Power 0 is the projector onto the block's index range.
    """
    out = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(offset, offset + size - a)
    out[idx, idx + a] = 1
    return out


def build_B(pair: CanonicalPair) -> BTensor:
    """The coefficient tensor: each term of ``block_terms`` as (-J_i^a, J_j^s)."""
    n = pair.n
    terms = block_terms(pair)
    left = [-_block_power(n, bi.offset, bi.size, a) for bi, _, a, _ in terms]
    right = [_block_power(n, bj.offset, bj.size, s) for _, bj, _, s in terms]
    return BTensor(np.array(left, dtype=np.int64).reshape(-1, n, n),
                   np.array(right, dtype=np.int64).reshape(-1, n, n), 2)


@dataclass(frozen=True, eq=False)
class QuadraticMetric:
    """g(x) = g0 + B(x, x) with a constant symmetric rank-4 coefficient tensor.

    ``g0`` is an n x n int array.  B = num / den: ``num`` is an (n, n, n, n)
    integer array (see ``exactla``) and ``den`` one positive int.  B[i, j, p, q]
    is symmetric in (i, j) and in (p, q); the metric value at x adds
    B[i, j, p, q] x^p x^q to g0[i, j].
    """

    g0: np.ndarray
    num: np.ndarray
    den: int

    @property
    def n(self) -> int:
        return self.g0.shape[0]

    @functools.cached_property
    def ginv(self) -> tuple:
        """g0's exact inverse as ``(num, den)``, computed once per metric."""
        return inverse(self.g0)


def _first_mismatch(a: np.ndarray, b: np.ndarray):
    """Lexicographically first index where two arrays differ, or None."""
    bad = np.argwhere(a != b)
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def lower_B(b: BTensor, g0: np.ndarray) -> QuadraticMetric:
    """Lower both upper indices with g0.

    Each term becomes (g0 C) (x) (g0 D); for tensors built from block
    powers both factors are symmetric matrices, so the result is symmetric
    in (i, j) and in (p, q).  Both symmetries are checked exactly.
    """
    n = b.n
    if g0.shape != (n, n):
        raise ValueError("shape mismatch")
    # an entry of g0 C sums n products, an entry of num t products of two such
    t = max(1, len(b.left))  # at least 1, so the bound covers g0's entries too
    bound = max_abs(g0) ** 2 * max_abs(b.left) * max_abs(b.right) * n * n * t
    g, left, right = narrowed(bound, g0, b.left, b.right)
    num = np.einsum("tij,tpq->ijpq", g @ left, g @ right)
    at = _first_mismatch(num, num.transpose(0, 1, 3, 2))
    if at is not None:
        raise RealizationError(f"lowered tensor not symmetric in (p, q) at {at}")
    at = _first_mismatch(num, num.transpose(1, 0, 2, 3))
    if at is not None:
        raise RealizationError(f"lowered tensor not symmetric in (i, j) at {at}")
    return QuadraticMetric(g0, num, b.den)


def invertibility_bound(qm: QuadraticMetric) -> Fraction:
    """Exact c = |g0^{-1}|_inf * max_i sum_jpq |B_ijpq|.

    |g(x) - g0|_inf <= |x|_inf^2 * max_i sum_jpq |B_ijpq|, so g(x) is
    invertible wherever |x|_inf^2 * c < 1.
    """
    ginv, gden = qm.ginv
    ginv_norm = Fraction(int(np.abs(ginv).sum(axis=1).max()), gden)
    num, = narrowed(max_abs(qm.num) * qm.n ** 3, qm.num)
    return ginv_norm * Fraction(int(np.abs(num).sum(axis=(1, 2, 3)).max()), qm.den)


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
    lhs = np.einsum("ipbq,bk->ipqk", b, l) - np.einsum("ibpq,bk->ipqk", b, l)
    rhs = np.einsum("bikq,bp->ipqk", b, l) - np.einsum("ikbq,bp->ipqk", b, l)
    return bool((lhs == rhs).all())


def check_gsym(qm: QuadraticMetric, L: tuple) -> bool:
    """L stays g(x)-symmetric for all x:  B_{ij,pq} L^i_l == B_{il,pq} L^i_j."""
    b, l = narrowed(max_abs(qm.num) * max_abs(L[0]) * qm.n, qm.num, L[0])
    return bool((np.einsum("ijpq,il->jlpq", b, l) == np.einsum("ilpq,ij->jlpq", b, l)).all())


def riemann_at_origin(qm: QuadraticMetric) -> CurvatureMap:
    """Curvature operator of the metric at x = 0, via two exact routes.

    Route one contracts the lowered tensor directly:
        R^i_{k ab} = g^{is} (B_{bs,ak} + B_{ak,bs} - B_{bk,as} - B_{as,bk}).
    Route two assembles first derivatives of the Christoffel symbols at 0
    (the symbols vanish there, so the quadratic terms drop):
        R^i_{k ab} = d_a Gamma^i_{bk} - d_b Gamma^i_{ak}.
    Both routes must agree entry for entry; a mismatch raises.
    """
    n = qm.n
    ginv, gden = qm.ginv
    # a route adds at most 4 (direct) or 2 * 3 (via Gamma) sums over s
    ginv, b = narrowed(max_abs(ginv) * max_abs(qm.num) * n * 6, ginv, qm.num)
    # direct[a, b, i, k] and dgamma[a, i, b, k] = d_a Gamma^i_{bk}, both
    # scaled by gden * qm.den
    direct = np.einsum("is,absk->abik", ginv,
                       np.einsum("bsak->absk", b) + np.einsum("akbs->absk", b)
                       - np.einsum("bkas->absk", b) - np.einsum("asbk->absk", b))
    dgamma = np.einsum("is,asbk->aibk", ginv,
                       np.einsum("skba->asbk", b) + np.einsum("sbka->asbk", b)
                       - np.einsum("bksa->asbk", b))
    via_gamma = np.einsum("aibk->abik", dgamma) - np.einsum("biak->abik", dgamma)

    tags = tuple(wedge_tags(n))
    rows, cols = wedge_index(n)
    at = _first_mismatch(direct[rows, cols], via_gamma[rows, cols])
    if at is not None:
        raise RealizationError(
            f"curvature routes disagree on wedge {tags[at[0]]}")
    return CurvatureMap(qm.g0, tags, direct[rows, cols], gden * qm.den)


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
                       formal: CurvatureMap) -> RealizationReport:
    """Run every exact realization check on the metric ``qm``.

    ``qm`` is ``lower_B(build_B(pair), pair.g)`` and ``formal`` the
    certified map ``r_formal(pair)``, both built once by the caller; the
    metric's curvature at the origin is computed independently and
    compared against ``formal`` value for value.
    """
    try:
        rmap = riemann_at_origin(qm)
    except RealizationError:
        rmap = None
    matches = (rmap is not None and rmap.den == formal.den
               and np.array_equal(rmap.num, formal.num))
    return RealizationReport(check_nablaL(qm, pair.L), check_gsym(qm, pair.L),
                             rmap is not None, matches)
