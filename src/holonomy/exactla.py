"""Exact rational scalars, dense matrices, rank, kernel and inverse.

Every algebraic computation in this package runs over arbitrary-precision
rationals; nothing here ever rounds.  Floating point enters only in the
numerical probe package.  Scalars are ``fractions.Fraction`` values, which
are always stored in lowest terms with a positive denominator.

Tensors that are contracted as a whole (the metric coefficients, stacked
curvature values) use one integer form instead: an object-dtype ndarray of
Python ints over one positive common denominator, made by ``int_form``.
Python ints never overflow, so numpy contractions on it stay exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat_from_str(text: str) -> Fraction:
    """Parse a rational written as "p" or "p/q" (base 10, '-' or U+2212 minus)."""
    s = text.strip().replace("−", "-")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def rat_to_str(q: Fraction) -> str:
    """Serialize a rational; the denominator is omitted when it equals 1."""
    return str(q)


def int_form(entries) -> tuple:
    """Exact rationals as ``(num, den)`` with ``entries == num / den``.

    ``entries`` is anything ``np.asarray`` turns into an array of ints or
    Fractions; ``num`` keeps its shape as an object array of Python ints and
    ``den`` is the least common denominator (1 for an empty array).
    """
    a = np.asarray(entries, dtype=object)
    den = math.lcm(1, *(x.denominator for x in a.flat))
    num = np.array([x.numerator * (den // x.denominator) for x in a.flat],
                   dtype=object).reshape(a.shape)
    return num, den


class RatMat:
    """Dense matrix of rationals with row-major storage.

    Instances are treated as immutable values: all operations return new
    matrices, so they are safe to share across threads.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        data = [e if isinstance(e, Fraction) else Fraction(e) for e in entries]
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ValueError(f"need {rows}x{cols} = {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._e = data

    @classmethod
    def _raw(cls, rows: int, cols: int, entries: list) -> "RatMat":
        # Internal constructor: entries must already be Fractions.
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._e = entries
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMat":
        return cls._raw(rows, cols, [_ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        e = [_ZERO] * (n * n)
        for i in range(n):
            e[i * n + i] = _ONE
        return cls._raw(n, n, e)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMat":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    # -- accessors ---------------------------------------------------------

    def __getitem__(self, ij: tuple) -> Fraction:
        i, j = ij
        return self._e[i * self.cols + j]

    def row(self, i: int) -> list:
        c = self.cols
        return self._e[i * c:(i + 1) * c]

    def to_rows(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def vec(self) -> list:
        """Entries as a flat row-major list (a copy)."""
        return list(self._e)

    def to_float_rows(self) -> list:
        c = self.cols
        return [[float(x) for x in self._e[i * c:(i + 1) * c]] for i in range(self.rows)]

    # -- algebra -----------------------------------------------------------

    def _same_shape(self, other: "RatMat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "RatMat") -> "RatMat":
        self._same_shape(other)
        return RatMat._raw(self.rows, self.cols,
                           [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "RatMat") -> "RatMat":
        self._same_shape(other)
        return RatMat._raw(self.rows, self.cols,
                           [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "RatMat":
        return RatMat._raw(self.rows, self.cols, [-a for a in self._e])

    def __mul__(self, scalar) -> "RatMat":
        s = scalar if isinstance(scalar, Fraction) else Fraction(scalar)
        return RatMat._raw(self.rows, self.cols, [s * a for a in self._e])

    __rmul__ = __mul__

    def __matmul__(self, other: "RatMat") -> "RatMat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        n, m, p = self.rows, self.cols, other.cols
        a, b = self._e, other._e
        out = [_ZERO] * (n * p)
        for i in range(n):
            ia = i * m
            io = i * p
            for k in range(m):
                f = a[ia + k]
                if f:
                    kb = k * p
                    for j in range(p):
                        g = b[kb + j]
                        if g:
                            out[io + j] += f * g
        return RatMat._raw(n, p, out)

    def mul_vec(self, v: Sequence[Fraction]) -> list:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        e = self._e
        c = self.cols
        out = []
        for i in range(self.rows):
            s = _ZERO
            base = i * c
            for j, vj in enumerate(v):
                if vj:
                    a = e[base + j]
                    if a:
                        s += a * vj
            out.append(s)
        return out

    def transpose(self) -> "RatMat":
        r, c, e = self.rows, self.cols, self._e
        return RatMat._raw(c, r, [e[i * c + j] for j in range(c) for i in range(r)])

    # -- predicates --------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._e)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        e, n = self._e, self.rows
        return all(e[i * n + j] == e[j * n + i] for i in range(n) for j in range(i + 1, n))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMat) and self.rows == other.rows
                and self.cols == other.cols and self._e == other._e)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMat({self.rows}x{self.cols}: {body})"


def _int_stack(mats: Sequence[RatMat], n: int) -> tuple:
    """``int_form`` of n x n matrices as one (len(mats), n, n) array."""
    num, den = int_form([m.to_rows() for m in mats])
    return num.reshape(-1, n, n), den


# -- elimination -----------------------------------------------------------
#
# Reduced row echelon form over the rationals.  The pivot in each column is
# the candidate with the smallest combined numerator/denominator bit length,
# which keeps intermediate fractions small on the sparse integer systems
# this package produces.

def _rref(rows: list, ncols: int) -> tuple:
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list = []
    r = 0
    for c in range(ncols):
        best = -1
        best_bits = 0
        for i in range(r, nrows):
            e = m[i][c]
            if e:
                bits = e.numerator.bit_length() + e.denominator.bit_length()
                if best < 0 or bits < best_bits:
                    best, best_bits = i, bits
        if best < 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        if piv != _ONE:
            inv = _ONE / piv
            m[r] = [x * inv if x else x for x in m[r]]
        rowr = m[r]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if f:
                mi = m[i]
                for j in range(c, ncols):
                    x = rowr[j]
                    if x:
                        mi[j] -= f * x
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(m: RatMat) -> int:
    """Exact rank via rational Gaussian elimination."""
    _, pivots = _rref(m.to_rows(), m.cols)
    return len(pivots)


def kernel_basis(m: RatMat) -> list:
    """Basis of the right kernel of ``m`` as a list of column vectors.

    The vectors are the canonical free-variable solutions of the reduced
    echelon form, so the result is deterministic and the count equals
    ``cols - rank``.
    """
    red, pivots = _rref(m.to_rows(), m.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[free] = _ONE
        for k, pc in enumerate(pivots):
            v[pc] = -red[k][free]
        basis.append(v)
    return basis


def inverse(m: RatMat) -> RatMat:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [m.row(i) + [(_ONE if j == i else _ZERO) for j in range(n)] for i in range(n)]
    red, pivots = _rref(aug, 2 * n)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return RatMat._raw(n, n, [red[i][n + j] for i in range(n) for j in range(n)])
