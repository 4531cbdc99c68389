"""The blockwise formal curvature map and the Berger test.

``r_formal`` builds the curvature map pair by pair: for each pair of
Jordan blocks inside one eigenvalue it differentiates the minimal
polynomial along the argument with the pair's own nilpotency degree,
which makes the image fill the whole centralizer.  The certificate checks
the Bianchi identity, containment in g_L and the exact rank equality, with
dim g_L counted by rank-nullity on the commutator system; once it passes,
the witness values are an exact basis of g_L.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .canonical import CanonicalPair
from .exactla import lowest_terms, max_abs, narrowed, pivot_columns, rank
from .liealg import commutator_system, so_basis, wedge_tags


@dataclass(frozen=True, eq=False)
class CurvatureMap:
    """Linear map so(g) -> gl(V) stored by its values on the wedge basis.

    ``num[k] / den`` is the image of wedge(e_i, e_j) for ``tags[k] == (i, j)``;
    ``num`` is an (m, n, n) int array and the pair is kept in lowest terms,
    so two maps on the same tags are equal exactly when their ``num`` and
    ``den`` are.
    """

    g: np.ndarray
    tags: tuple  # of (i, j), i < j, aligned with num
    num: np.ndarray
    den: int = 1

    def __post_init__(self) -> None:
        num, den = lowest_terms(self.num, self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def n(self) -> int:
        return self.g.shape[0]


def r_formal(pair: CanonicalPair) -> CurvatureMap:
    """Blockwise curvature map on the wedge basis of so(g).

    For every block pair i < j within one eigenvalue, with X_ij the (i, j)
    block of the argument and J the upper shift, the (i, j) block of the
    value is R_ij = sum_s J_i^{nij-1-s} X_ij J_j^s, nij = max(n_i, n_j), and
    the (j, i) block is -g_j R_ij^T g_i.  Cross-eigenvalue blocks of the
    argument are ignored, so the map assembles block-diagonally.  The
    argument runs over the whole wedge stack at once, and J^a Y J^s is Y
    shifted up by a rows and right by s columns.
    """
    g = pair.g
    w = so_basis(g)
    values = np.zeros_like(w)
    blocks = pair.all_blocks()
    for i, (ei, bi) in enumerate(blocks):
        si = slice(bi.offset, bi.offset + bi.size)
        for ej, bj in blocks[i + 1:]:
            if ei != ej:
                continue
            sj = slice(bj.offset, bj.offset + bj.size)
            x = w[:, si, sj]
            r = np.zeros_like(x)
            nij = max(bi.size, bj.size)
            for s in range(max(0, nij - bi.size), min(nij, bj.size)):
                a = nij - 1 - s
                r[:, :bi.size - a, s:] += x[:, a:, :bj.size - s]
            values[:, si, sj] = r
            values[:, sj, si] = -(g[sj, sj] @ r.transpose(0, 2, 1) @ g[si, si])
    return CurvatureMap(g, tuple(wedge_tags(pair.n)), values)


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
    vals, = narrowed(max_abs(rmap.num) * 3, rmap.num)  # a cyclic sum adds 3 entries
    # full[a, b, r, k]: entry (r, k) of R(wedge(e_a, e_b)), antisymmetric in (a, b)
    full = np.zeros((n, n, n, n), dtype=vals.dtype)
    a, b = np.array(rmap.tags, dtype=np.intp).reshape(-1, 2).T
    full[a, b] = vals
    full[b, a] = -vals
    cyclic = (np.einsum("ijrk->ijkr", full) + np.einsum("jkri->ijkr", full)
              + np.einsum("kirj->ijkr", full))
    rows, cols = np.triu_indices(n, 1)  # (i, j), i < j, in lexicographic order
    bad = list(np.abs(cyclic).max(axis=3)[rows, cols].flat)
    worst = max(bad, default=0)
    if not worst:
        return BianchiReport(True, None, Fraction(0))
    w, k = divmod(bad.index(worst), n)
    return BianchiReport(False, (int(rows[w]), int(cols[w]), k), Fraction(int(worst), rmap.den))


def check_sectional(rmap: CurvatureMap, L: tuple) -> bool:
    """[R(X), L] = 0 and g-skewness of R(X) on every basis element.

    Both conditions are linear in R and in L, so the numerators decide them.
    """
    bound = max_abs(rmap.num) * max(max_abs(L[0]), max_abs(rmap.g)) * rmap.n
    vals, l, g = narrowed(bound, rmap.num, L[0], rmap.g)
    return bool((vals @ l == l @ vals).all()
                and (g @ vals == -(vals.transpose(0, 2, 1) @ g)).all())


@dataclass(frozen=True)
class BergerCertificate:
    dim_gL: int
    image_rank: int
    bianchi_ok: bool
    containment_ok: bool
    witnesses: tuple  # of (i, j) wedge tags whose images span the image
    # the witnesses' values as (num, den): num[k] / den is the image of
    # witnesses[k]; a basis of g_L when the certificate passes
    basis: tuple = field(compare=False, repr=False)

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


def berger_certificate(pair: CanonicalPair, rmap: CurvatureMap) -> BergerCertificate:
    """Certify image_rank(rmap) == dim g_L, exactly.

    ``rmap`` is ``r_formal(pair)``, built once by the caller.  dim g_L is
    m - rank of ``commutator_system``, m = n(n-1)/2.  The witnesses are the
    pivot columns of the matrix whose columns are the values in tag order:
    a tag is kept when its value is not in the span of the values before
    it.  The witness values are independent; with containment and equal
    ranks they span g_L.
    """
    system = commutator_system(pair.g, pair.L[0])  # linear in L: its numerator decides
    dim_gL = system.shape[1] - rank(system)
    pivots = pivot_columns(rmap.num.reshape(len(rmap.tags), rmap.n ** 2).T)
    return BergerCertificate(dim_gL, len(pivots), check_bianchi(rmap).ok,
                             check_sectional(rmap, pair.L),
                             tuple(rmap.tags[k] for k in pivots),
                             (rmap.num[pivots], rmap.den))
