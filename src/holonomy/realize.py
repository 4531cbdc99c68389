"""Quadratic metrics realizing the blockwise curvature map at the origin.

The coefficient tensor is assembled per eigenvalue from all ordered block
pairs (including a block with itself): each pair contributes
-1/2 * sum_s J_i^{nij-1-s} (x) J_j^s with nij = max(n_i, n_j), where J_i is
the pair's nilpotent part embedded on block i's index range (exponent 0
giving the block projector).  Diagonal pairs contribute nothing to the
curvature on so(g) but make the equal-size case agree with the plain
minimal-polynomial tensor.  Cross-eigenvalue coefficients are zero, so the
metric is a product across eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .berger import CurvatureMap
from .canonical import CanonicalPair
from .exactla import RatMat, inverse
from .liealg import wedge_tags

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class RealizationError(RuntimeError):
    """Internal consistency failure while building or checking a metric."""


@dataclass(frozen=True)
class BTensor:
    """Curvature coefficient tensor as a sum of factor pairs.

    ``terms`` is a list of (C, D) matrices; the rank-4 components are
    B[a][b][j][q] = sum_t C_t[a, j] * D_t[b, q] and the associated linear
    map is B(X) = sum_t C_t X D_t.
    """

    n: int
    terms: tuple  # of (RatMat, RatMat)


def _embedded_block_powers(pair: CanonicalPair, offset: int, size: int, top: int) -> list:
    """Powers of the block's nilpotent part as full-size matrices.

    Power 0 is the projector onto the block's index range.
    """
    n = pair.n
    out = []
    for a in range(top + 1):
        e = [_ZERO] * (n * n)
        if a < size:
            for r in range(size - a):
                e[(offset + r) * n + (offset + r + a)] = _ONE
        out.append(RatMat._raw(n, n, e))
    return out


def build_B(pair: CanonicalPair) -> BTensor:
    """Assemble the coefficient tensor from all ordered block pairs."""
    blocks = pair.all_blocks()
    terms = []
    for ei, bi in blocks:
        for ej, bj in blocks:
            if ei != ej:
                continue
            nij = max(bi.size, bj.size)
            pi = _embedded_block_powers(pair, bi.offset, bi.size, nij - 1)
            pj = _embedded_block_powers(pair, bj.offset, bj.size, nij - 1)
            for s in range(nij):
                a = nij - 1 - s
                if a >= bi.size or s >= bj.size:
                    continue
                terms.append((-_HALF * pi[a], pj[s]))
    return BTensor(pair.n, tuple(terms))


@dataclass(frozen=True)
class QuadraticMetric:
    """g(x) = g0 + B(x, x) with a constant symmetric rank-4 coefficient tensor.

    ``lowered[i][j][p][q]`` is symmetric in (i, j) and in (p, q); the
    metric value at x adds lowered[i][j][p][q] x^p x^q to g0[i][j].
    """

    g0: RatMat
    lowered: tuple  # nested tuples, n^4 rationals

    @property
    def n(self) -> int:
        return self.g0.rows


def lower_B(b: BTensor, g0: RatMat) -> QuadraticMetric:
    """Lower both upper indices with g0.

    Each term becomes (g0 C) (x) (g0 D); for tensors built from block
    powers both factors are symmetric matrices, so the result is symmetric
    in (i, j) and in (p, q).  Both symmetries are checked exactly.
    """
    n = b.n
    if g0.shape != (n, n):
        raise ValueError("shape mismatch")
    low = [[[[_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for c, d in b.terms:
        gc = g0 @ c
        gd = g0 @ d
        cnz = [(i, j, gc[i, j]) for i in range(n) for j in range(n) if gc[i, j]]
        dnz = [(p, q, gd[p, q]) for p in range(n) for q in range(n) if gd[p, q]]
        for i, j, cv in cnz:
            li = low[i]
            for p, q, dv in dnz:
                li[j][p][q] += cv * dv
    for i in range(n):
        for j in range(n):
            lij = low[i][j]
            for p in range(n):
                for q in range(p + 1, n):
                    if lij[p][q] != lij[q][p]:
                        raise RealizationError(
                            f"lowered tensor not symmetric in (p, q) at {(i, j, p, q)}")
    for i in range(n):
        for j in range(i + 1, n):
            if low[i][j] != low[j][i]:
                raise RealizationError("lowered tensor not symmetric in (i, j)")
    frozen = tuple(tuple(tuple(tuple(r) for r in pj) for pj in li) for li in low)
    return QuadraticMetric(g0, frozen)


def validity_radius(qm: QuadraticMetric) -> float:
    """Crude sup-norm radius inside which g(x) is guaranteed invertible.

    Uses |g(x) - g0|_inf <= r^2 * max_i sum_jpq |B_ijpq| and the bound
    |g0^{-1}|_inf * |delta|_inf < 1.
    """
    n = qm.n
    ginv = inverse(qm.g0)
    ginv_norm = max(sum(abs(ginv[i, j]) for j in range(n)) for i in range(n))
    bnorm = max(
        sum(abs(qm.lowered[i][j][p][q]) for j in range(n) for p in range(n) for q in range(n))
        for i in range(n)
    )
    if bnorm == 0:
        return float("inf")
    return float(1 / (ginv_norm * bnorm)) ** 0.5


def check_nablaL(qm: QuadraticMetric, L: RatMat) -> bool:
    """Coefficient-level covariant-constancy condition, all index tuples.

    (B_{ip,bq} - B_{ib,pq}) L^b_k == (B_{bi,kq} - B_{ik,bq}) L^b_p
    summed over b, for every (i, p, q, k).
    """
    n = qm.n
    low = qm.lowered
    lnz = [[(b, L[b, c]) for b in range(n) if L[b, c]] for c in range(n)]
    for i in range(n):
        for p in range(n):
            for q in range(n):
                for k in range(n):
                    lhs = _ZERO
                    for b, lv in lnz[k]:
                        t = low[i][p][b][q] - low[i][b][p][q]
                        if t:
                            lhs += t * lv
                    rhs = _ZERO
                    for b, lv in lnz[p]:
                        t = low[b][i][k][q] - low[i][k][b][q]
                        if t:
                            rhs += t * lv
                    if lhs != rhs:
                        return False
    return True


def check_gsym(qm: QuadraticMetric, L: RatMat) -> bool:
    """L stays g(x)-symmetric for all x:  B_{ij,pq} L^i_l == B_{il,pq} L^i_j."""
    n = qm.n
    low = qm.lowered
    lnz = [[(i, L[i, c]) for i in range(n) if L[i, c]] for c in range(n)]
    for j in range(n):
        for l in range(n):
            for p in range(n):
                for q in range(n):
                    lhs = _ZERO
                    for i, lv in lnz[l]:
                        t = low[i][j][p][q]
                        if t:
                            lhs += t * lv
                    rhs = _ZERO
                    for i, lv in lnz[j]:
                        t = low[i][l][p][q]
                        if t:
                            rhs += t * lv
                    if lhs != rhs:
                        return False
    return True


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
    low = qm.lowered
    ginv = inverse(qm.g0)
    ginv_nz = [[(s, ginv[i, s]) for s in range(n) if ginv[i, s]] for i in range(n)]

    def route_direct(a: int, b: int) -> RatMat:
        e = []
        for i in range(n):
            row = []
            for k in range(n):
                acc = _ZERO
                for s, gv in ginv_nz[i]:
                    t = low[b][s][a][k] + low[a][k][b][s] - low[b][k][a][s] - low[a][s][b][k]
                    if t:
                        acc += gv * t
                row.append(acc)
            e.extend(row)
        return RatMat._raw(n, n, e)

    # dGamma[a][i][b][k] = d_a Gamma^i_{bk} at 0
    def dgamma(a: int, i: int, b: int, k: int) -> Fraction:
        acc = _ZERO
        for s, gv in ginv_nz[i]:
            t = low[s][k][b][a] + low[s][b][k][a] - low[b][k][s][a]
            if t:
                acc += gv * t
        return acc

    def route_christoffel(a: int, b: int) -> RatMat:
        e = []
        for i in range(n):
            for k in range(n):
                e.append(dgamma(a, i, b, k) - dgamma(b, i, a, k))
        return RatMat._raw(n, n, e)

    tags = tuple(wedge_tags(n))
    values = []
    for a, b in tags:
        direct = route_direct(a, b)
        via_gamma = route_christoffel(a, b)
        if direct != via_gamma:
            raise RealizationError(
                f"curvature routes disagree on wedge ({a}, {b})")
        values.append(direct)
    return CurvatureMap(qm.g0, tags, tuple(values))


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


def verify_realization(pair: CanonicalPair, formal: CurvatureMap):
    """Build the metric and run every exact realization check.

    ``formal`` is the certified map ``r_formal(pair)``, built once by the
    caller; the metric's curvature at the origin is computed independently
    and compared against it value for value.  Returns ``(report, qm, rmap)``
    with ``rmap`` the metric's curvature map (None when the two Riemann
    routes disagree), so callers can reuse the metric.
    """
    b = build_B(pair)
    qm = lower_B(b, pair.g)
    nabla_ok = check_nablaL(qm, pair.L)
    gsym_ok = check_gsym(qm, pair.L)
    try:
        rmap = riemann_at_origin(qm)
    except RealizationError:
        rmap = None
    matches = rmap is not None and rmap.values == formal.values
    report = RealizationReport(nabla_ok, gsym_ok, rmap is not None, matches)
    return report, qm, rmap
