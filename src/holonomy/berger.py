"""The block tensor, the blockwise formal curvature map and the Berger test.

``block_tensor`` states the formula: for each pair of Jordan blocks inside
one eigenvalue it differentiates the minimal polynomial along the argument
with the pair's own nilpotency degree, which makes the image fill the whole
centralizer.  It is one mask over ``pair.block`` and ``pair.label``, and
``r_formal`` and the realizing metric are both read off that one 0/1
tensor.  The certificate checks the Bianchi identity, containment in g_L
and the exact rank equality, with dim g_L counted by rank-nullity on the
commutator system, and is the berger stage's report document: once it
passes, the values of ``r_formal`` at its witnesses are an exact basis of
g_L.
"""

from __future__ import annotations

import numpy as np

from .canonical import CanonicalPair
from .exactla import pivot_columns, rank, times_L, times_g
from .liealg import commutator_system, curvature_values, wedge_index, wedge_mismatch


def block_tensor(pair: CanonicalPair) -> np.ndarray:
    """T = sum J_i^a (x) J_j^s as one (n, n, n, n) 0/1 int64 array.

    With J_i the upper shift on block i's index range (J_i^0 its
    projector), the formal curvature map and the realizing metric's
    coefficient tensor are the same sum:

        R(X) = sum J_i^a X J_j^s,    B = -1/2 sum J_i^a (x) J_j^s,

    over every ordered pair of blocks i, j of one eigenvalue (a block with
    itself included) and every a, s >= 0 with a + s = max(n_i, n_j) - 1:
    T[r, c, p, q] = 1 exactly when c - r = a inside one block, q - p = s
    inside one block and r, p share a label.  So R and B are block-diagonal
    across eigenvalues, and the metric is a product.  The diagonal pairs
    add nothing to R on so(g), but they make B agree with the plain
    minimal-polynomial tensor when all blocks have one size.  A mask sets
    each entry once, so T is the exact sum.  ``pair.block_tensor`` calls
    this once and keeps the result.
    """
    block, label = pair.block, pair.label
    idx = np.arange(pair.n)
    size = np.bincount(block)[block]
    # shift[r, c] = c - r for r and c in one block, and -1 elsewhere.  A
    # shift is below its block's size, so two add up to the larger size
    # minus one only when both are >= 0: a >= 0 and s >= 0 need no test
    shift = np.where(block[:, None] == block, idx - idx[:, None], -1)
    reach = np.maximum(size[:, None], size) - 1  # [r, p]
    t = ((label[:, None, None, None] == label[:, None])
         & (shift[:, :, None, None] + shift == reach[:, None, :, None]))
    return t.astype(np.int64)


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
    return {"dim_gL": dim_gL, "image_rank": len(pivots),
            "bianchi_witness": b and list(b), "containment_witness": c and list(c),
            "witnesses": np.stack(wedge_index(pair.n), axis=1)[pivots].tolist(),
            "passed": b is None and c is None and len(pivots) == dim_gL}
