"""The blockwise formal curvature map and the Berger test.

The map is read off the pair's block tensor (``CanonicalPair.block_tensor``):
for each pair of Jordan blocks inside one eigenvalue it differentiates the
minimal polynomial along the argument with the pair's own nilpotency
degree, which makes the image fill the whole centralizer.  The realizing
metric is read off the same 0/1 tensor.  The certificate checks the
Bianchi identity, containment in g_L and the exact rank equality, with
dim g_L counted by rank-nullity on ``commutator_system``, which builds
so(g)'s wedge stack here, and is the berger stage's report document: once
it passes, the values of ``r_formal`` at its witnesses are an exact basis
of g_L.
"""

from __future__ import annotations

import numpy as np

from .canonical import CanonicalPair, StageDocument
from .exactla import (curvature_values, pivot_columns, rank, times_L, times_g, wedge_index,
                      wedge_mismatch)

DOCUMENT = StageDocument("berger", ("dim_gL", "image_rank", "witnesses"),
                         ("bianchi_witness", "containment_witness"), (("image_rank", "dim_gL"),))


def r_formal(pair: CanonicalPair) -> np.ndarray:
    """The formal curvature map, read off T, as an (m, n, n) int array: row k
    is the image of wedge(e_i, e_j) for the k-th pair (i, j) of ``wedge_index``.

    R(X)[a, q] = sum_cb T[a, c, b, q] X[c, b] and wedge(e_i, e_j) = E_ij g,
    so with Tg[i, d, a, q] = sum_b T[a, i, b, q] g[d, b] the value on
    (i, j) is Tg[i, j] - Tg[j, i], where the sum over b is one ``times_g``.
    """
    tg = times_g(pair.block_tensor.transpose(1, 2, 0, 3), pair.involution, 1)
    rows, cols = wedge_index(pair.n)
    return tg[rows, cols] - tg[cols, rows]


def commutator_system(pair: CanonicalPair) -> np.ndarray:
    """The (n^2, m) matrix whose column k is [W_k, L] = W_k L - L W_k, where
    W_k = wedge(e_i, e_j) = E_k g for the k-th pair (i, j) of ``wedge_index``
    and (g, L) is the canonical ``pair``.

    Its kernel holds the wedge coordinates of the elements of so(g) that
    commute with L, so dim g_L = m - rank.  E_k g has row i equal to g[j],
    row j equal to -g[i] and zeros elsewhere, read off the dense g, the
    gather ``times_g`` of the identity; both products with L are
    ``times_L``, so every entry is a sum of at most four signed entries of L.
    """
    rows, cols = wedge_index(pair.n)
    g = times_g(np.eye(pair.n, dtype=np.int64), pair.involution, 0)
    k = np.arange(len(rows))
    w = np.zeros((len(rows), pair.n, pair.n), dtype=np.int64)  # the stack of W_k
    w[k, rows], w[k, cols] = g[cols], -g[rows]
    s = times_L(w, pair, 2, transpose=True) - times_L(w, pair, 1)
    return s.reshape(len(s), pair.n ** 2).T


def check_bianchi(values: np.ndarray) -> tuple | None:
    """Exhaustive first-Bianchi check over standard basis vector triples.

    Multilinearity makes basis triples sufficient; triples with repeated
    indices are included (they cost nothing and must vanish identically).
    Returns None when R(e_i, e_j) e_k + cyclic vanishes on every triple,
    else the witness: the first (i, j, k), i < j, in lexicographic order
    where it does not.
    """
    vals = curvature_values(values)
    n = vals.shape[1]
    # full[a, b, r, k]: entry (r, k) of R(wedge(e_a, e_b)), antisymmetric in (a, b)
    full = np.zeros((n, n, n, n), dtype=np.int64)
    rows, cols = wedge_index(n)  # (i, j), i < j, in lexicographic order
    full[rows, cols] = vals
    full[cols, rows] = -vals
    # cyclic[w, k, r]: entry r of R(e_i, e_j) e_k + cyclic at the w-th (i, j)
    cyclic = vals.transpose(0, 2, 1) + full[cols, :, :, rows] + full[:, rows, :, cols]
    at = wedge_mismatch(cyclic, 0)  # (i, j, k, r)
    return None if at is None else at[:3]


def check_sectional(values: np.ndarray, pair: CanonicalPair) -> tuple | None:
    """[R(X), L] = 0 and g-skewness of R(X) on every basis element, for the
    pair's g and L: R(X) L = L R(X), each side a ``times_L``, and
    g R(X) = -(R(X)^T g) = -(g R(X))^T, with g R(X) a ``times_g``.

    Both conditions are linear in R, so the numerators decide them.  Returns
    None when both hold, else the witness (i, j, r, c): the wedge (i, j) and
    the entry (r, c) of R L - L R, or, when R commutes with L on every
    wedge, of g R + (g R)^T, the first in lexicographic order.
    """
    vals = curvature_values(values, pair.n)
    gv = times_g(vals, pair.involution, 1)
    at = wedge_mismatch(times_L(vals, pair, 2, transpose=True), times_L(vals, pair, 1))
    return at if at is not None else wedge_mismatch(gv, -gv.transpose(0, 2, 1))


def berger_certificate(pair: CanonicalPair, rmap: np.ndarray) -> dict:
    """Certify image_rank(rmap) == dim g_L, exactly, as the berger stage's
    report document.

    ``rmap`` is ``r_formal(pair)``, built once by the caller.  dim g_L is
    m - rank of ``commutator_system``, m = n(n-1)/2.  The witnesses are the
    pivot columns of the matrix whose columns are the values in
    ``wedge_index`` order: a pair (i, j) is kept when its value is not in
    the span of the values before it.  The witness values are independent;
    with containment and equal ranks they span g_L, and the document passes.
    Each check's witness is None when it holds, else a list.
    """
    system = commutator_system(pair)
    dim_gL = system.shape[1] - rank(system)
    pivots = pivot_columns(rmap.reshape(len(rmap), pair.n ** 2).T)
    b, c = check_bianchi(rmap), check_sectional(rmap, pair)
    doc = {"dim_gL": dim_gL, "image_rank": len(pivots),
           "bianchi_witness": b and list(b), "containment_witness": c and list(c),
           "witnesses": np.stack(wedge_index(pair.n), axis=1)[pivots].tolist()}
    return {**doc, "passed": DOCUMENT.first_failure(doc) is None}
