"""Exact rational matrices in one format, and the one elimination on them.

Every algebraic computation in this package is exact; nothing here ever
rounds.  Floating point enters only in the numerical probe package.

Every exact matrix, or stack of matrices, is an int64 ndarray, over one
positive Python int denominator where it is rational: ``(num, den)`` stands
for ``num / den``.  Rational scalars (an eigenvalue, the invertibility
bound) are ``fractions.Fraction`` values of Python ints.  ``capped`` is the
one entry check: every integer array or denominator entering the exact
core must lie within C = ``ENTRY_CAP`` in absolute value, else ValueError.
numpy holds fewer than 2**60 int64 entries in one array, so n < 2**15 for
the metric's (n, n, n, n) numerator, and no partial sum reaches 2**63: the
largest are n^3 C < 2**61 (the invertibility bound), 3C (a raised
Christoffel entry) and 6C (a Riemann route), and a product with L adds at
most two terms (``times_L``), so 2C(C + 1) < 2**35 (covariant constancy)
and C(C + 1) ([R(X), L]).  Legal specs are far below the cap: the relabeled L
has entries at most 23, the metric's numerator at most 1 over 2.

Rank and pivot columns come from one elimination: each column, read once
as a sparse vector of Python ints, is inserted into an echelon basis keyed
by each vector's first nonzero row, and every vector is kept primitive.
No inverse is ever computed, and neither g nor L is held as a matrix: a
canonical g = g^T = g^{-1} is its signed involution ``(perm, sign)``, which
``check_involution`` checks, and every product with it is ``times_g``; L is
a pair's ``label`` and ``block``, and every product with it ``times_L``.
Where a dense matrix is needed it is such a product with the identity: g
in ``berger.commutator_system``'s wedge stack and in the probe's metric
drift, gL in ``canonical.validate_pair``.

A curvature map is an (m, n, n) stack, m = n(n-1)/2, of its values on the
wedge basis of so(g): wedge(u, v) = u (g v)^T - v (g u)^T, so
wedge(e_i, e_j) = E_ij g with E_ij = e_i e_j^T - e_j e_i^T, one value per
pair i < j in ``wedge_index`` order, which is lexicographic.  The same order
lays out the Berger witnesses and the probe's planes.  ``curvature_values``
is the map's entry and shape check, and ``wedge_mismatch`` names a
mismatch in such a stack by its pair.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# The largest absolute value of an entry entering the exact core.
ENTRY_CAP = 2 ** 16


def capped(*arrays) -> tuple:
    """The integer arrays (or ints) as int64 arrays, once every entry is
    checked to lie within ``ENTRY_CAP`` in absolute value; any other dtype
    (floats, bools, objects such as Fractions or Python ints past int64) or
    an entry past the cap raises ValueError."""
    arrays = [np.asarray(a) for a in arrays]
    for a in arrays:
        if a.dtype.kind not in "iu" or (a.size and max(-int(a.min()), int(a.max())) > ENTRY_CAP):
            raise ValueError(f"exact input must be integers of absolute value at most {ENTRY_CAP}")
    return tuple(a.astype(np.int64, copy=False) for a in arrays)


def times_g(x: np.ndarray, involution: tuple, axis: int) -> np.ndarray:
    """g @ x along ``axis`` of ``x``, for g the signed involution
    ``involution`` = (perm, sign): sign[i] * x[.., perm[i], ..].  g is
    symmetric, so this is also x @ g contracted on that axis.  The result
    keeps x's dtype (a sign is +-1), and on floats it is exact.
    """
    perm, sign = involution
    return np.take(x, perm, axis) * np.reshape(sign, (-1,) + (1,) * (x.ndim - 1 - axis % x.ndim))


def times_L(x: np.ndarray, pair, axis: int, transpose: bool = False) -> np.ndarray:
    """L @ x along ``axis`` of ``x``, or x @ L there when ``transpose`` is
    set, for the relabeled L = diag(label) + N of ``pair``: entry i is
    label[i] * x[i] plus x[i + 1] (x[i - 1] for x @ L) where ``pair.block``
    repeats, that is, where N links i to its neighbour in one Jordan block.
    """
    axis %= x.ndim
    along = (slice(None),) + (None,) * (x.ndim - 1 - axis)  # a vector along axis
    head, tail = ((slice(None),) * axis + (s,) for s in (slice(None, -1), slice(1, None)))
    to, src = (tail, head) if transpose else (head, tail)
    out = x * pair.label[along]
    out[to] += x[src] * (pair.block[1:] == pair.block[:-1])[along]
    return out


def first_mismatch(a: np.ndarray, b: np.ndarray):
    """Lexicographically first index where two arrays differ, or None."""
    bad = a != b
    return tuple(int(v) for v in np.argwhere(bad)[0]) if bad.any() else None


@functools.cache
def wedge_index(n: int) -> tuple:
    """The pairs (i, j), i < j, in lexicographic order, as (rows, cols)
    index arrays, read-only and shared.  This is the one order of the wedge
    basis, of a curvature map's values and of the Berger witnesses."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def curvature_values(values, n: int | None = None) -> np.ndarray:
    """A curvature map's values, ``capped``, refused unless of shape
    (n(n-1)/2, n, n), one per ``wedge_index`` pair; n defaults to the last axis."""
    vals, = capped(values)
    n = (vals.shape[-1] if vals.ndim else 0) if n is None else n
    if vals.shape != (n * (n - 1) // 2, n, n):
        raise ValueError(f"curvature map needs shape {(n * (n - 1) // 2, n, n)}, got {vals.shape}")
    return vals


def wedge_mismatch(a: np.ndarray, b) -> tuple | None:
    """``first_mismatch`` of a stack ``a`` in ``wedge_index`` order (axis 0,
    for n = a.shape[1]) and ``b``, with the stack index replaced by its
    pair: None, or (i, j, ...), lexicographically first."""
    at = first_mismatch(a, b)
    rows, cols = wedge_index(a.shape[1])
    return at and (int(rows[at[0]]), int(cols[at[0]])) + at[1:]


def check_involution(perm: np.ndarray, sign: np.ndarray) -> None:
    """Refuse ``(perm, sign)`` unless it is a signed involution: the symmetric
    g with g[i, perm[i]] = sign[i] = +-1 and no other nonzero, so g = g^{-1}
    (``times_g`` multiplies by it).  That needs perm in range and its own
    inverse, and sign[perm] == sign; any other pair raises ValueError naming
    the first bad index.
    """
    n = len(perm)
    if not all(isinstance(a, np.ndarray) and a.dtype.kind == "i" and a.shape == (n,)
               for a in (perm, sign)):
        raise ValueError("perm and sign must be integer vectors of one length")
    rows = np.arange(n)
    inside = (perm >= 0) & (perm < n)
    p = np.where(inside, perm, rows)
    ok = inside & (p[p] == rows) & (np.abs(sign) == 1) & (sign[p] == sign)
    if not ok.all():
        raise ValueError(f"g is not a signed involution: bad index {int(np.argmin(ok))}")


def pivot_columns(a) -> list:
    """Indices of the columns of an integer matrix that are not in the span
    of the columns before them; any other dtype raises TypeError.

    Each column is inserted into an echelon basis held as sparse columns of
    Python ints, keyed by lead, a vector's smallest row with a nonzero.  A
    column v is reduced while it has entries: if the basis holds b at v's
    lead, v becomes the primitive part (divided by the gcd of its entries)
    of b[lead] * v - v[lead] * b, which must vanish at that lead (else
    ArithmeticError); otherwise v is stored there and its column is a pivot.

    The division keeps the entries small.  Once v leads at row l, it lies in
    the span of its column and of the pivot columns whose vectors lead at
    rows before l, and it vanishes on those rows.  That fixes v up to scale,
    and Cramer's rule gives such a vector whose entries are minors of the
    input; v is its primitive part up to sign, so its entries are
    Hadamard-bounded as in a fraction-free elimination (Bareiss 1968): a
    minor is at most the product of its columns' norms, so it has at most
    the sum over the nonzero columns of isqrt(|col|^2).bit_length() + 1
    bits.  That bound is checked after every division, and an entry past it
    raises ArithmeticError.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        raise TypeError(f"pivot_columns takes an integer array, not dtype {a.dtype}")
    columns = [{} for _ in range(a.shape[1])]
    cols, rows = np.nonzero(a.T)
    for c, r, x in zip(cols.tolist(), rows.tolist(), a.T[cols, rows].tolist()):
        columns[c][r] = x
    bits = sum(math.isqrt(sum(x * x for x in v.values())).bit_length() + 1 for v in columns if v)
    basis: dict = {}
    pivots: list = []
    for c, v in enumerate(columns):
        while v:
            g = math.gcd(*v.values())
            v = {i: x // g for i, x in v.items()}
            if max(map(abs, v.values())).bit_length() > bits:
                raise ArithmeticError(f"column {c} has an entry past the Hadamard bound")
            lead = min(v)
            b = basis.get(lead)
            if b is None:
                basis[lead] = v
                pivots.append(c)
                break
            p, f = b[lead], v[lead]
            v = {i: y for i in v.keys() | b.keys() if (y := p * v.get(i, 0) - f * b.get(i, 0))}
            if v.pop(lead, 0):
                raise ArithmeticError(f"column {c} kept an entry at its lead {lead}")
    return pivots


def rank(a) -> int:
    """Exact rank of an integer matrix."""
    return len(pivot_columns(a))
