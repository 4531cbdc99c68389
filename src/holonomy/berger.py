"""The blockwise formal curvature map and the Berger test.

``r_formal`` builds the curvature map pair by pair: for each pair of
Jordan blocks inside one eigenvalue it differentiates the minimal
polynomial along the argument with the pair's own nilpotency degree,
which makes the image fill the whole centralizer.  The certificate checks
the Bianchi identity, containment in g_L and the exact rank equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .canonical import CanonicalPair
from .exactla import RatMat, _int_stack, int_form
from .liealg import SubspaceBasis, so_basis, wedge_tags

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CurvatureMap:
    """Linear map so(g) -> gl(V) stored by its values on the wedge basis.

    ``values[k]`` is the image of wedge(e_i, e_j) for ``tags[k] == (i, j)``.
    """

    g: RatMat
    tags: tuple  # of (i, j), i < j, aligned with values
    values: tuple  # of RatMat

    @property
    def n(self) -> int:
        return self.g.rows

    def is_zero_map(self) -> bool:
        return all(v.is_zero() for v in self.values)


def _nilpotent_block_powers(size: int, top: int) -> list:
    """Powers J^0..J^top of the upper-shift block as small matrices."""
    e = [_ZERO] * (size * size)
    for i in range(size - 1):
        e[i * size + i + 1] = _ONE
    j = RatMat._raw(size, size, e)
    out = [RatMat.identity(size)]
    for _ in range(top):
        out.append(out[-1] @ j)
    return out


def _pair_block_map(ni: int, nj: int, xij: RatMat) -> RatMat:
    """sum_s J_i^{nij-1-s} X J_j^s with nij = max(ni, nj)."""
    nij = max(ni, nj)
    pi = _nilpotent_block_powers(ni, nij - 1)
    pj = _nilpotent_block_powers(nj, nij - 1)
    out = RatMat.zeros(ni, nj)
    for s in range(nij):
        a = nij - 1 - s
        if a >= ni or s >= nj:
            continue  # the block power is zero
        out = out + pi[a] @ xij @ pj[s]
    return out


def r_hat(pair: CanonicalPair, i: int, j: int, x: RatMat) -> RatMat:
    """Curvature contribution of the block pair (i, j), i < j.

    Blocks must belong to one eigenvalue; the eigenvalue is shifted to
    nilpotent internally.  Only the (i, j) and (j, i) blocks of the output
    are nonzero, the latter forced by -g_j R_ij^T g_i.
    """
    blocks = pair.all_blocks()
    if not (0 <= i < j < len(blocks)):
        raise ValueError("need block indices i < j in range")
    ei, bi = blocks[i]
    ej, bj = blocks[j]
    if ei != ej:
        raise ValueError("blocks belong to different eigenvalues")
    n = pair.n
    if x.shape != (n, n):
        raise ValueError("shape mismatch")
    xij = RatMat._raw(bi.size, bj.size,
                      [x[bi.offset + r, bj.offset + c]
                       for r in range(bi.size) for c in range(bj.size)])
    rij = _pair_block_map(bi.size, bj.size, xij)
    gi = _sub(pair.g, bi.offset, bi.size)
    gj = _sub(pair.g, bj.offset, bj.size)
    rji = -(gj @ rij.transpose() @ gi)
    out = [[_ZERO] * n for _ in range(n)]
    for r in range(bi.size):
        for c in range(bj.size):
            out[bi.offset + r][bj.offset + c] = rij[r, c]
    for r in range(bj.size):
        for c in range(bi.size):
            out[bj.offset + r][bi.offset + c] = rji[r, c]
    return RatMat.from_rows(out)


def _sub(m: RatMat, off: int, size: int) -> RatMat:
    return RatMat._raw(size, size, [m[off + r, off + c]
                                    for r in range(size) for c in range(size)])


def r_formal(pair: CanonicalPair) -> CurvatureMap:
    """Blockwise curvature map on the wedge basis of so(g).

    Sums the pairwise contributions over all block pairs within each
    eigenvalue; cross-eigenvalue blocks of the argument are ignored, so
    the map assembles block-diagonally.
    """
    base = so_basis(pair.g)
    tags = tuple(wedge_tags(pair.n))
    blocks = pair.all_blocks()
    pairs_within = [(i, j)
                    for i in range(len(blocks))
                    for j in range(i + 1, len(blocks))
                    if blocks[i][0] == blocks[j][0]]
    values = []
    for x in base.elements:
        acc = RatMat.zeros(pair.n, pair.n)
        for i, j in pairs_within:
            acc = acc + r_hat(pair, i, j, x)
        values.append(acc)
    return CurvatureMap(pair.g, tags, tuple(values))


@dataclass(frozen=True)
class BianchiReport:
    ok: bool
    witness: Optional[tuple]  # (i, j, k) with the largest violation
    max_violation: Fraction


def check_bianchi(rmap: CurvatureMap) -> BianchiReport:
    """Exhaustive first-Bianchi check over standard basis vector triples.

    Multilinearity makes basis triples sufficient; triples with repeated
    indices are included (they cost nothing and must vanish identically).
    The witness is the first (i, j, k), i < j, in lexicographic order that
    attains the largest violation max_r |R(e_i, e_j) e_k + cyclic|_r.
    """
    n = rmap.n
    vals, den = _int_stack(rmap.values, n)
    # full[a, b, r, k]: entry (r, k) of R(wedge(e_a, e_b)), antisymmetric in (a, b)
    full = np.zeros((n, n, n, n), dtype=object)
    a, b = np.array(rmap.tags, dtype=np.intp).reshape(-1, 2).T
    full[a, b] = vals
    full[b, a] = -vals
    cyclic = (np.einsum("ijrk->ijkr", full) + np.einsum("jkri->ijkr", full)
              + np.einsum("kirj->ijkr", full))
    rows, cols = np.triu_indices(n, 1)  # (i, j), i < j, in lexicographic order
    bad = list(np.abs(cyclic).max(axis=3)[rows, cols].flat)
    worst = max(bad, default=0)
    if not worst:
        return BianchiReport(True, None, _ZERO)
    w, k = divmod(bad.index(worst), n)
    return BianchiReport(False, (int(rows[w]), int(cols[w]), k), Fraction(worst, den))


def check_sectional(rmap: CurvatureMap, L: RatMat) -> bool:
    """[R(X), L] = 0 and g-skewness of R(X) on every basis element."""
    vals, _ = _int_stack(rmap.values, rmap.n)
    l, g = int_form(L.to_rows())[0], int_form(rmap.g.to_rows())[0]
    return bool((vals @ l == l @ vals).all()
                and (g @ vals == -(vals.transpose(0, 2, 1) @ g)).all())


@dataclass(frozen=True)
class BergerCertificate:
    dim_gL: int
    image_rank: int
    bianchi_ok: bool
    containment_ok: bool
    witnesses: tuple  # of (i, j) wedge tags whose images span the image

    @property
    def passed(self) -> bool:
        return self.bianchi_ok and self.containment_ok and self.image_rank == self.dim_gL

    def to_json(self) -> dict:
        return {
            "dim_gL": self.dim_gL,
            "image_rank": self.image_rank,
            "bianchi_ok": self.bianchi_ok,
            "containment_ok": self.containment_ok,
            "witnesses": [list(t) for t in self.witnesses],
            "passed": self.passed,
        }


def berger_certificate(pair: CanonicalPair, rmap: CurvatureMap,
                       gl_basis: SubspaceBasis) -> BergerCertificate:
    """Certify image_rank(rmap) == dim g_L, exactly.

    ``rmap`` is ``r_formal(pair)`` and ``gl_basis`` is
    ``centralizer_basis(pair)``, both built once by the caller.  Witnesses
    are collected greedily in lexicographic wedge order: a tag is kept
    whenever its image enlarges the span collected so far.
    """
    dim_gl = len(gl_basis)
    bianchi = check_bianchi(rmap)
    containment = check_sectional(rmap, pair.L)

    witnesses = []
    stored = []  # reduced row vectors with pivot bookkeeping
    for tag, v in zip(rmap.tags, rmap.values):
        vec = v.vec()
        for pivcol, bvec in stored:
            f = vec[pivcol]
            if f:
                for idx, x in enumerate(bvec):
                    if x:
                        vec[idx] -= f * x
        piv = next((idx for idx, x in enumerate(vec) if x), None)
        if piv is None:
            continue
        inv = _ONE / vec[piv]
        if inv != 1:
            vec = [x * inv if x else x for x in vec]
        stored.append((piv, vec))
        witnesses.append(tag)
    return BergerCertificate(dim_gl, len(stored), bianchi.ok, containment, tuple(witnesses))
