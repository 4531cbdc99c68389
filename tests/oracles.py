"""Reference code the tests use and the pipeline does not.

None of this runs in ``holonomy verify``.  The exact oracles reach their
results by routes other than the pipeline's: the curvature from the
minimal polynomial, the centralizer from explicit Toeplitz generators and
its closed-form dimension, membership by exact span solving and the metric
by direct evaluation.
Matrices here are object arrays of Fractions.  The package's int64 arrays
are read as Python ints on entry, since a Fraction built from an np.int64
keeps it and can wrap around.  The package holds L relabeled (each
eigenvalue's 0-based label in place of its value) and never as a matrix;
``relabeled_L`` builds that matrix by index loops over the blocks, and
``true_L`` the operator with the eigenvalues themselves, read from the spec
the pair was built from; the oracles that stand for "the pair's L" take
one of them.  The
``*_ref`` functions are earlier index-loop versions of the exact stages,
for differential tests against the package: the Fraction elimination
(``_rref`` and the rank, kernel and inverse on it), the so(g) wedge
basis, the centralizer system, the greedy Berger witness loop and the
block tensor summed term by term over ``block_terms`` from block-power
matrices run on Fractions;
the g-symmetry of L, the realization checks, the Riemann routes and the
Bianchi and containment checks are linear in their inputs and run on
Python-int numerators, the Riemann routes dividing once at the end.  Each check
oracle returns None when its check passes, else its witness, the first
failing index tuple in the package's index order.  Every product
with g here is a dense product, never the package's gather.  Curvature
maps are passed as their values, with a denominator where an oracle
divides and g where it multiplies; ``wedge_tags`` is the reference order of
those values, and no oracle reads the package's ``wedge_index``, so the
references do not depend on the code they check.  The float helpers
evaluate the metric and its Christoffel symbols at a point, or at a stack
of points by one dense batched solve; ``contraction_matrices_ref`` is the
kernel's earlier float contraction of B, and ``transport_polyline_ref`` is
the earlier sequential RK4 transport (one polyline, the Christoffel
symbols at each step's start, midpoint and end, all nodes of a segment in
one stack).  ``standard_loops_ref`` is the earlier per-loop construction of the
standard loop family, and ``lasso_vertices`` the earlier polyline of a
loop: out along the tail, around the square and back, as one path.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from holonomy.canonical import CanonicalPair, PencilSpec
from holonomy.probe import transport
from holonomy.probe.transport import SingularMetricError
from holonomy.realize import QuadraticMetric

from helpers import all_blocks, dense_g, fractions, int_form

_ZERO = Fraction(0)
_ONE = Fraction(1)


def wedge_tags(n: int) -> list:
    """The reference order of the wedge basis and of a curvature map's
    values: index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


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


def _rows(m) -> list:
    return [[Fraction(x) for x in row] for row in np.asarray(m, dtype=object)]


def rank_ref(m) -> int:
    """Exact rank via rational Gaussian elimination."""
    _, pivots = _rref(_rows(m), m.shape[1])
    return len(pivots)


def kernel_basis_ref(m) -> list:
    """Basis of the right kernel of ``m`` as a list of column vectors.

    The vectors are the canonical free-variable solutions of the reduced
    echelon form, so the result is deterministic and the count equals
    ``cols - rank``.
    """
    cols = m.shape[1]
    red, pivots = _rref(_rows(m), cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * cols
        v[free] = _ONE
        for k, pc in enumerate(pivots):
            v[pc] = -red[k][free]
        basis.append(v)
    return basis


def inverse_ref(m) -> np.ndarray:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    if m.shape[0] != m.shape[1]:
        raise ValueError("inverse of a non-square matrix")
    n = m.shape[0]
    aug = [row + [(_ONE if j == i else _ZERO) for j in range(n)]
           for i, row in enumerate(_rows(m))]
    red, pivots = _rref(aug, 2 * n)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return np.array([[red[i][n + j] for j in range(n)] for i in range(n)],
                    dtype=object).reshape(n, n)


def independent_rows_ref(m) -> tuple:
    """Indices of the rows of m collected greedily in order: a row is kept
    whenever it enlarges the span of the rows kept before it."""
    kept = []
    stored = []  # reduced row vectors with pivot bookkeeping
    for k, v in enumerate(np.asarray(m, dtype=object)):
        vec = [Fraction(x) for x in v.flat]
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
        kept.append(k)
    return tuple(kept)


def witnesses_ref(values, den) -> tuple:
    """Berger witnesses of the map with values num / den in ``wedge_tags``
    order: the pairs whose images enlarge the span collected before them."""
    tags = wedge_tags(values.shape[1])
    return tuple(tags[k] for k in independent_rows_ref(fractions(values, den)))


def relabeled_L(pair: CanonicalPair) -> np.ndarray:
    """The pair's relabeled L' = diag(label) + N as a dense int64 matrix,
    written block by block: each index's label on the diagonal and a 1 above
    it wherever the next index is in its block.  Each block of ``pair.block``
    is one run of indices, as ``build_canonical`` makes it."""
    L = np.zeros((pair.n, pair.n), dtype=np.int64)
    for _, offset, size in all_blocks(pair):
        for i in range(offset, offset + size):
            L[i, i] = pair.label[i]
            if i + 1 < offset + size:
                L[i, i + 1] = 1
    return L


def true_L(pair: CanonicalPair, spec: PencilSpec) -> np.ndarray:
    """The pair's operator sum_k lambda_k P_k + N as Fractions: the
    ``relabeled_L`` with each index's diagonal entry set to its eigenvalue,
    read from ``spec``, the spec the pair was built from."""
    L = fractions(relabeled_L(pair))
    for i, k in enumerate(pair.label):
        L[i, i] = spec.lams[k]
    return L


def g_symmetry_ref(pair: CanonicalPair) -> Optional[tuple]:
    """None when gL is symmetric, for g (``dense_g``) and the
    ``relabeled_L`` as dense matrices multiplied out, else the first (r, c)
    in row-major order where (gL)[r, c] != (gL)[c, r]."""
    gl = dense_g(pair.involution) @ relabeled_L(pair)
    for r in range(pair.n):
        for c in range(pair.n):
            if gl[r, c] != gl[c, r]:
                return (r, c)
    return None


def centralizer_basis_ref(pair: CanonicalPair, L) -> list:
    """Kernel vectors of {X : gX + X^T g = 0 and XL = LX}, X row-major, for
    L the matrix given (ints or Fractions), such as ``true_L``.

    One row per entry of the symmetric part of gX and one per nonzero row
    of the commutator XL - LX, solved by ``kernel_basis_ref``.
    """
    g = dense_g(pair.involution).astype(object)
    L = fractions(L)
    n = pair.n
    rows = []
    # (gX + X^T g)[i][j] = 0 for i <= j
    for i in range(n):
        for j in range(i, n):
            row = [_ZERO] * (n * n)
            for k in range(n):
                a = g[i, k]
                if a:
                    row[k * n + j] += a
                b = g[k, j]
                if b:
                    row[k * n + i] += b
            rows.append(row)
    # (XL - LX)[i][j] = 0
    for i in range(n):
        for j in range(n):
            row = [_ZERO] * (n * n)
            for k in range(n):
                a = L[k, j]
                if a:
                    row[i * n + k] += a
                b = L[i, k]
                if b:
                    row[k * n + j] -= b
            if any(row):
                rows.append(row)
    return kernel_basis_ref(np.array(rows, dtype=object).reshape(-1, n * n))


def wedge(u: Sequence, v: Sequence, g) -> np.ndarray:
    """The g-skew operator u (g v)^T - v (g u)^T of the bivector u ^ v."""
    n = g.shape[0]
    if len(u) != n or len(v) != n:
        raise ValueError("vector length must match g")
    g = np.asarray(g, dtype=object)
    uf = [Fraction(x) for x in u]
    vf = [Fraction(x) for x in v]
    gu = [sum(g[i, k] * uf[k] for k in range(n)) for i in range(n)]
    gv = [sum(g[i, k] * vf[k] for k in range(n)) for i in range(n)]
    return np.array([[uf[i] * gv[j] - vf[i] * gu[j] for j in range(n)]
                     for i in range(n)], dtype=object).reshape(n, n)


def so_basis_ref(g) -> np.ndarray:
    """The wedge basis {wedge(e_i, e_j)}_{i<j} of so(g), i < j in
    lexicographic order, as an (m, n, n) object stack built entry by entry:
    wedge(e_i, e_j) = e_i (g e_j)^T - e_j (g e_i)^T has [r, c] entry
    [r == i] g[c, j] - [r == j] g[c, i]."""
    g = np.asarray(g, dtype=object)
    n = g.shape[0]
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            w = np.zeros((n, n), dtype=object)
            for r in range(n):
                for c in range(n):
                    w[r, c] = (r == i) * g[c, j] - (r == j) * g[c, i]
            basis.append(w)
    return np.array(basis, dtype=object).reshape(-1, n, n)


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


def solve_in_span(vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> Optional[list]:
    """Coordinates of ``target`` in the span of ``vectors``, or None.

    Vectors are treated as columns; an exact solution is returned whenever
    one exists (unique when the vectors are independent).
    """
    k = len(vectors)
    if k == 0:
        return [] if not any(target) else None
    dim = len(target)
    aug = [[vectors[j][i] for j in range(k)] + [target[i]] for i in range(dim)]
    red, pivots = _rref(aug, k + 1)
    if k in pivots:
        return None
    coords = [_ZERO] * k
    for row, pc in enumerate(pivots):
        coords[pc] = red[row][k]
    return coords


@dataclass(frozen=True)
class Poly:
    """Polynomial with rational coefficients, lowest degree first.

    The zero polynomial is the empty tuple; a monic polynomial has trailing
    coefficient 1.
    """

    coeffs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(
            c if isinstance(c, Fraction) else Fraction(c) for c in self.coeffs))
        if self.coeffs and not self.coeffs[-1]:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x: Fraction) -> Fraction:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def at_matrix(self, m) -> np.ndarray:
        """Evaluate at a square matrix by Horner's scheme."""
        if m.shape[0] != m.shape[1]:
            raise ValueError("polynomial of a non-square matrix")
        n = m.shape[0]
        acc = np.zeros((n, n), dtype=object)
        ident = np.eye(n, dtype=object)
        for c in reversed(self.coeffs):
            acc = acc @ m
            if c:
                acc = acc + c * ident
        return acc


def matrix_powers(m, d: int) -> list:
    """[m^0, m^1, ..., m^d]."""
    if m.shape[0] != m.shape[1]:
        raise ValueError("powers of a non-square matrix")
    if d < 0:
        raise ValueError("negative power count")
    out = [np.eye(m.shape[0], dtype=object)]
    for _ in range(d):
        out.append(out[-1] @ m)
    return out


def minimal_polynomial(m) -> Poly:
    """Monic polynomial of least degree annihilating ``m``.

    Found by an incremental linear-dependence search over I, m, m^2, ...;
    the bookkeeping rows carry the combination coefficients so the first
    dependency directly yields the polynomial.
    """
    if m.shape[0] != m.shape[1]:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.shape[0]
    if n == 0:
        return Poly((_ONE,))
    stored: list = []  # (pivot index, reduced vector, combination coeffs)
    power = np.eye(n, dtype=object)
    d = 0
    while True:
        vec = list(power.flat)
        coeffs = [_ZERO] * d + [_ONE]
        for pivcol, bvec, bco in stored:
            f = vec[pivcol]
            if f:
                for j, x in enumerate(bvec):
                    if x:
                        vec[j] -= f * x
                for j, x in enumerate(bco):
                    if x:
                        coeffs[j] -= f * x
        piv = next((j for j, x in enumerate(vec) if x), None)
        if piv is None:
            return Poly(tuple(coeffs))
        inv = _ONE / vec[piv]
        if inv != 1:
            vec = [x * inv if x else x for x in vec]
            coeffs = [x * inv if x else x for x in coeffs]
        stored.append((piv, vec, coeffs))
        power = power @ m
        d += 1


def r_minpoly(L, x) -> np.ndarray:
    """Derivative of the minimal polynomial of L at L along direction x, for
    L a matrix of Fractions such as ``true_L``.

    R(X) = sum_m a_m sum_{j<m} L^{m-1-j} X L^j for p_min = sum a_m t^m.
    For X in so(g) the result is g-skew and commutes with L.
    """
    n = len(L)
    if x.shape != (n, n):
        raise ValueError("shape mismatch")
    p = minimal_polynomial(L)
    d = p.degree
    powers = [np.eye(n, dtype=object)]
    for _ in range(d):
        powers.append(powers[-1] @ L)
    out = np.zeros((n, n), dtype=object)
    for m in range(1, d + 1):
        a = p.coeffs[m]
        if not a:
            continue
        term = np.zeros((n, n), dtype=object)
        for j in range(m):
            term = term + powers[m - 1 - j] @ x @ powers[j]
        out = out + a * term
    return out


def is_g_skew(g, x) -> bool:
    return not (g @ x + x.T @ g).any()


def _toeplitz_block(rows: int, cols: int, mu_index: int) -> np.ndarray:
    # rows <= cols; entry (r, c) is 1 when c - r - (cols - rows) + 1 == mu_index.
    z = cols - rows
    e = [_ZERO] * (rows * cols)
    for r in range(rows):
        c = r + z + mu_index - 1
        if 0 <= c < cols:
            e[r * cols + c] = _ONE
    return np.array(e, dtype=object).reshape(rows, cols)


def centralizer_dim(pair: CanonicalPair) -> int:
    """Closed-form dim g_L: per eigenvalue with k blocks sized n_1 <= ... <= n_k
    (1-indexed), sum over i of (k - i) * n_i."""
    sizes = {}
    for label, _, size in all_blocks(pair):
        sizes.setdefault(label, []).append(size)
    return sum((len(s) - i - 1) * size for s in sizes.values() for i, size in enumerate(sorted(s)))


def m_ij_basis(pair: CanonicalPair, i: int, j: int) -> np.ndarray:
    """Generators of the abelian piece supported on blocks i and j (i < j).

    Block indices are ``pair.block``'s; both must belong to the same
    eigenvalue.  Each generator has the shifted upper-Toeplitz (i, j) block
    with a single parameter set to 1 and the (j, i) block forced by
    M_ji = -g_j M_ij^T g_i.  Returned as a (k, n, n) stack of Fractions.
    """
    blocks = all_blocks(pair)
    if not (0 <= i < j < len(blocks)):
        raise IndexError("block indices out of range")
    ei, oi, ni = blocks[i]
    ej, oj, nj = blocks[j]
    if ei != ej:
        raise ValueError("blocks belong to different eigenvalues")
    n = pair.n
    g = dense_g(pair.involution).astype(object)
    gi = g[oi:oi + ni, oi:oi + ni]
    gj = g[oj:oj + nj, oj:oj + nj]
    elems = []
    for s in range(1, ni + 1):
        m = _toeplitz_block(ni, nj, s)
        mji = -(gj @ m.T @ gi)
        x = [[_ZERO] * n for _ in range(n)]
        for r in range(ni):
            for c in range(nj):
                x[oi + r][oj + c] = m[r, c]
        for r in range(nj):
            for c in range(ni):
                x[oj + r][oi + c] = mji[r, c]
        elems.append(x)
    return np.array(elems, dtype=object).reshape(-1, n, n)


def member_coords(x, basis) -> Optional[list]:
    """Exact coordinates of x in span(basis), or None when not a member.

    ``basis`` is a (k, n, n) stack of matrices.
    """
    x, basis = np.asarray(x, dtype=object), np.asarray(basis, dtype=object)
    if x.shape != basis.shape[1:]:
        raise ValueError("shape mismatch")
    return solve_in_span([list(b.flat) for b in basis], list(x.flat))


def lowered(qm: QuadraticMetric) -> list:
    """The coefficient tensor as nested lists of Fractions, low[i][j][p][q]."""
    n = qm.n
    num = qm.num.tolist()
    return [[[[Fraction(num[i][j][p][q], qm.den) for q in range(n)] for p in range(n)]
             for j in range(n)] for i in range(n)]


def metric_at(qm: QuadraticMetric, x: Sequence) -> np.ndarray:
    """Exact metric value at a rational point."""
    n = qm.n
    xf = [v if isinstance(v, Fraction) else Fraction(v) for v in x]
    if len(xf) != n:
        raise ValueError("point has wrong dimension")
    low = lowered(qm)
    g0 = dense_g(qm.pair.involution).tolist()
    nz = [(p, v) for p, v in enumerate(xf) if v]
    e = []
    for i in range(n):
        for j in range(n):
            acc = g0[i][j]
            lij = low[i][j]
            for p, xp in nz:
                row = lij[p]
                for q, xq in nz:
                    c = row[q]
                    if c:
                        acc += c * xp * xq
            e.append(acc)
    return np.array(e, dtype=object).reshape(n, n)


def check_nablaL_ref(qm: QuadraticMetric, L) -> Optional[tuple]:
    """Coefficient-level covariant-constancy condition, all index tuples.

    (B_{ip,bq} - B_{ib,pq}) L^b_k == (B_{bi,kq} - B_{ik,bq}) L^b_p
    summed over b, for every (i, p, q, k).  Both sides are linear in B and
    in L (a matrix of ints or Fractions), so they run on the Python-int
    numerators of both.  Returns None, or the first (i, p, k, q) in that
    loop order where the sides differ.
    """
    n = qm.n
    low = qm.num.tolist()
    L = int_form(L)[0].tolist()
    lnz = [[(b, L[b][c]) for b in range(n) if L[b][c]] for c in range(n)]
    for i in range(n):
        for p in range(n):
            for k in range(n):
                for q in range(n):
                    lhs = 0
                    for b, lv in lnz[k]:
                        t = low[i][p][b][q] - low[i][b][p][q]
                        if t:
                            lhs += t * lv
                    rhs = 0
                    for b, lv in lnz[p]:
                        t = low[b][i][k][q] - low[i][k][b][q]
                        if t:
                            rhs += t * lv
                    if lhs != rhs:
                        return (i, p, k, q)
    return None


def check_gsym_ref(qm: QuadraticMetric, L) -> Optional[tuple]:
    """L stays g(x)-symmetric for all x:  B_{ij,pq} L^i_l == B_{il,pq} L^i_j,
    on the Python-int numerators of B and L (both sides are linear in each).
    Returns None, or the first (l, j, p, q) in that loop order where the
    sides differ."""
    n = qm.n
    low = qm.num.tolist()
    L = int_form(L)[0].tolist()
    lnz = [[(i, L[i][c]) for i in range(n) if L[i][c]] for c in range(n)]
    for l in range(n):
        for j in range(n):
            for p in range(n):
                for q in range(n):
                    lhs = 0
                    for i, lv in lnz[l]:
                        t = low[i][j][p][q]
                        if t:
                            lhs += t * lv
                    rhs = 0
                    for i, lv in lnz[j]:
                        t = low[i][l][p][q]
                        if t:
                            rhs += t * lv
                    if lhs != rhs:
                        return (l, j, p, q)
    return None


def riemann_at_origin_ref(qm: QuadraticMetric) -> tuple:
    """Curvature operator of the metric at x = 0, via two exact routes, as
    ``(values, witness)``: route one's values, an (m, n, n) array of
    Fractions in ``wedge_tags`` order, and None when the routes agree, else
    the first (a, b, i, k) in that order where they differ.

    Route one contracts the lowered tensor directly:
        R^i_{k ab} = g^{is} (B_{bs,ak} + B_{ak,bs} - B_{bk,as} - B_{as,bk}).
    Route two assembles first derivatives of the Christoffel symbols at 0
    (the symbols vanish there, so the quadratic terms drop):
        R^i_{k ab} = d_a Gamma^i_{bk} - d_b Gamma^i_{ak}.
    g^{-1} is the Fraction inverse of g0; both routes run on the Python-int
    numerators of B and of g^{-1}, and the values are divided by the two
    denominators once at the end.
    """
    n = qm.n
    low = qm.num.tolist()
    ginv, gden = int_form(inverse_ref(dense_g(qm.pair.involution)))
    ginv_nz = [[(s, ginv[i, s]) for s in range(n) if ginv[i, s]] for i in range(n)]

    def route_direct(a: int, b: int) -> list:
        e = []
        for i in range(n):
            row = []
            for k in range(n):
                acc = 0
                for s, gv in ginv_nz[i]:
                    t = low[b][s][a][k] + low[a][k][b][s] - low[b][k][a][s] - low[a][s][b][k]
                    if t:
                        acc += gv * t
                row.append(acc)
            e.append(row)
        return e

    # dGamma[a][i][b][k] = d_a Gamma^i_{bk} at 0
    def dgamma(a: int, i: int, b: int, k: int) -> int:
        acc = 0
        for s, gv in ginv_nz[i]:
            t = low[s][k][b][a] + low[s][b][k][a] - low[b][k][s][a]
            if t:
                acc += gv * t
        return acc

    def route_christoffel(a: int, b: int) -> list:
        return [[dgamma(a, i, b, k) - dgamma(b, i, a, k) for k in range(n)] for i in range(n)]

    tags = tuple(wedge_tags(n))
    values = []
    witness = None
    for a, b in tags:
        direct = route_direct(a, b)
        via_gamma = route_christoffel(a, b)
        for i in range(n):
            for k in range(n):
                if witness is None and direct[i][k] != via_gamma[i][k]:
                    witness = (a, b, i, k)
        values.append(direct)
    values = np.array(values, dtype=object).reshape(len(tags), n, n)
    return fractions(values, qm.den * gden), witness


def check_bianchi_ref(values) -> Optional[tuple]:
    """Exhaustive first-Bianchi check over standard basis vector triples, on
    the map with integer values in ``wedge_tags`` order.

    Multilinearity makes basis triples sufficient; triples with repeated
    indices are included (they cost nothing and must vanish identically).
    The check is linear in the values, so it runs on them as Python ints.
    Returns None, or the first (i, j, k), i < j, in lexicographic order
    whose cyclic sum is nonzero.
    """
    n = values.shape[1]
    cols = {}
    for (i, j), v in zip(wedge_tags(n), np.asarray(values, dtype=object).tolist(), strict=True):
        for k in range(n):
            cols[(i, j, k)] = [v[r][k] for r in range(n)]

    def col(a: int, b: int, k: int) -> list:
        if a == b:
            return [0] * n
        if a < b:
            return cols[(a, b, k)]
        return [-x for x in cols[(b, a, k)]]

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if any(a + b + c for a, b, c in zip(col(i, j, k), col(j, k, i), col(k, i, j))):
                    return (i, j, k)
    return None


def check_sectional_ref(values, g, L) -> Optional[tuple]:
    """[R(X), L] = 0 and g-skewness of R(X) on every basis element, as
    dense products with g.  Both conditions are linear in the values and in
    L (a matrix of ints or Fractions), so they run on the Python-int
    numerators of both.  Returns None, or (i, j, r, c): the first wedge
    (i, j) in ``wedge_tags`` order and entry (r, c) where R L - L R is
    nonzero, or, when there is none, where g R + R^T g is."""
    g, L = np.asarray(g, dtype=object), int_form(L)[0]
    tags = wedge_tags(values.shape[1])
    vals = np.asarray(values, dtype=object)
    for defect in (lambda v: v @ L - L @ v, lambda v: g @ v + v.T @ g):
        for (i, j), v in zip(tags, vals, strict=True):
            bad = np.argwhere(defect(v) != 0)
            if len(bad):
                return (i, j, int(bad[0][0]), int(bad[0][1]))
    return None


def _block_power(n: int, offset: int, size: int, a: int) -> np.ndarray:
    """The a-th power of a block's nilpotent part as a full-size int matrix;
    power 0 is the projector onto the block's index range."""
    out = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(offset, offset + size - a)
    out[idx, idx + a] = 1
    return out


def block_terms(pair: CanonicalPair) -> list:
    """The terms (block i, block j, a, s) of the formal curvature map, each
    block as ``helpers.all_blocks`` gives it.

    With J_i the upper shift on block i's index range (J_i^0 its
    projector), the map and the realizing metric's coefficient tensor are
    the same sum over these terms:

        R(X) = sum J_i^a X J_j^s,    B = -1/2 sum J_i^a (x) J_j^s.

    Every ordered pair of blocks with one label (a block with itself
    included) contributes, with nij = max(n_i, n_j), the terms s in
    range(nij - n_i, n_j) and a = nij - 1 - s.
    """
    blocks = all_blocks(pair)
    terms = []
    for bi in blocks:
        for bj in blocks:
            if bi[0] == bj[0]:
                nij = max(bi[2], bj[2])
                terms.extend((bi, bj, nij - 1 - s, s) for s in range(nij - bi[2], bj[2]))
    return terms


def block_factors(pair: CanonicalPair) -> list:
    """Each term of ``block_terms`` as its pair (J_i^a, J_j^s) of full matrices."""
    n = pair.n
    return [(_block_power(n, oi, ni, a), _block_power(n, oj, nj, s))
            for (_, oi, ni), (_, oj, nj), a, s in block_terms(pair)]


def block_tensor_ref(pair: CanonicalPair) -> np.ndarray:
    """T[a, j, b, q] = sum_t C_t[a, j] D_t[b, q] over the factor pairs, summed
    term by term, so a repeated entry adds up instead of being overwritten."""
    t = np.zeros((pair.n,) * 4, dtype=np.int64)
    for c, d in block_factors(pair):
        t += np.einsum("aj,bq->ajbq", c, d)
    return t


def b_components(t) -> list:
    """Materialized rank-4 array B[a][b][j][q] = -t[a, j, b, q] / 2 (n^4 rationals)."""
    n = len(t)
    half = Fraction(-1, 2)
    return [[[[half * int(t[a, j, b, q]) for q in range(n)] for j in range(n)]
             for b in range(n)] for a in range(n)]


def b_apply(t, x) -> np.ndarray:
    """B(X) = -1/2 sum_jb t[a, j, b, q] X[j, b], entry by entry."""
    n = len(t)
    out = np.zeros((n, n), dtype=object)
    for a, j, b, q in zip(*np.nonzero(t)):
        v = x[j, b]
        out[a, q] += int(t[a, j, b, q]) * (v if isinstance(v, Fraction) else Fraction(int(v)))
    return out * Fraction(-1, 2)


def _metric_value(g0, B, x):
    """g(x) = g0 + B(x, x) at the points x[..., :]."""
    return g0 + np.einsum("ijpq,...p,...q->...ij", B, x, x)


def _christoffel(g0, B, x):
    """gamma[..., k, i, j] = 1/2 g^kl (d_i g_lj + d_j g_li - d_l g_ij) at the
    points x[..., :], d_p g_ij = 2 B_ijpq x^q, from one dense solve per point."""
    n = g0.shape[0]
    dg = 2.0 * np.einsum("ijpq,...q->...pij", B, x)
    t = np.einsum("...isj->...sij", dg) + np.einsum("...jsi->...sij", dg) - dg
    sol = np.linalg.solve(_metric_value(g0, B, x), t.reshape(x.shape[:-1] + (n, n * n)))
    return 0.5 * sol.reshape(x.shape[:-1] + (n, n, n))


def transport_polyline_ref(g0, B, verts, steps):
    """Parallel transport along straight segments between consecutive vertices.

    ``steps[e]`` fixed RK4 steps are taken on segment e: Gamma(x)[v] at all
    its nodes (each step's start, midpoint and end) comes from one batched
    solve, and the steps then run in order.  Returns the n x n transport
    matrix mapping fibers at the first vertex to the last.
    """
    verts = np.ascontiguousarray(verts, dtype=np.float64)
    steps = np.ascontiguousarray(steps, dtype=np.int64)
    if verts.shape[0] < 2 or steps.shape[0] != verts.shape[0] - 1:
        raise ValueError("need one step count per segment")
    if np.any(steps <= 0):
        raise ValueError("step counts must be positive")
    n = g0.shape[0]
    p = np.eye(n)
    for e in range(verts.shape[0] - 1):
        a = verts[e]
        v = verts[e + 1] - a
        ns = int(steps[e])
        h = 1.0 / ns
        nodes = a + np.arange(2 * ns + 1)[:, None] * (0.5 * h) * v
        # dP/ds = f P with f = -Gamma(x)[v] at each node
        f = -np.einsum("kabc,b->kac", _christoffel(g0, B, nodes), v)
        for f0, fm, f1 in zip(f[0:-1:2], f[1::2], f[2::2]):
            k1 = f0 @ p
            k2 = fm @ (p + (0.5 * h) * k1)
            k3 = fm @ (p + (0.5 * h) * k2)
            k4 = f1 @ (p + h * k3)
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


def standard_loops_ref(n: int, seed: int = 0) -> list:
    """The standard loop family as ``(basepoint, plane, side)`` triples, one
    per loop: planes in lexicographic order, the origin and then each seeded
    corner in every plane, each corner coordinate ``BASEPOINT_NORM * (2u - 1)``
    from one ``random.Random(seed).random()`` draw u, in order."""
    rng = random.Random(seed)
    norm = transport.BASEPOINT_NORM
    basepoints = [tuple(0.0 for _ in range(n))]
    for _ in range(transport.EXTRA_BASEPOINTS):
        basepoints.append(tuple(norm * (2 * rng.random() - 1) for _ in range(n)))
    return [(bp, (a, b), transport.SIDE)
            for a in range(n) for b in range(a + 1, n) for bp in basepoints]


def lasso_vertices(loops: tuple, n: int) -> np.ndarray:
    """The (L, 7, n) vertices 0, c, c + e_a, c + e_a + e_b, c + e_b, c, 0 of
    the origin-based lassos of a loop family ``(planes, basepoints, sides)``,
    one row per loop, e_a and e_b the plane's coordinate vectors times the
    side and c the corner zero-padded to n coordinates."""
    planes, basepoints, sides = loops
    bp = np.zeros((len(planes), n))
    bp[:, :basepoints.shape[1]] = basepoints
    rows = np.arange(len(planes))
    ea, eb, origin = np.zeros((3,) + bp.shape)
    ea[rows, planes[:, 0]] = sides
    eb[rows, planes[:, 1]] = sides
    return np.stack([origin, bp, bp + ea, bp + ea + eb, bp + eb, bp, origin], axis=1)


def float_parts(qm: QuadraticMetric) -> tuple:
    """The dense float64 g0 and B = num / den of a quadratic metric."""
    return dense_g(qm.pair.involution).astype(np.float64), qm.num.astype(np.float64) / qm.den


def contraction_matrices_ref(qm: QuadraticMetric) -> np.ndarray:
    """The probe kernel's matrices g0 B and g0 C as the kernel once formed
    them, in float64: C[k,c,b,q] = B[k,c,b,q] + B[k,b,c,q] - B[b,c,k,q] for
    B = num / den, raised by the dense g0, each an (n^2, n^2) matrix with
    rows (k, c)."""
    g0, B = float_parts(qm)
    C = B + B.transpose(0, 2, 1, 3) - B.transpose(2, 1, 0, 3)
    return np.einsum("ks,xs...->xk...", g0, np.stack([B, C])).reshape(2, qm.n ** 2, qm.n ** 2)


def metric_value(qm: QuadraticMetric, x) -> np.ndarray:
    return _metric_value(*float_parts(qm), np.asarray(x, dtype=np.float64))


def christoffel(qm: QuadraticMetric, x) -> np.ndarray:
    """Levi-Civita symbols gamma[k, i, j] at a float point; gamma(0) = 0."""
    g0, B = float_parts(qm)
    xv = np.asarray(x, dtype=np.float64)
    gx = _metric_value(g0, B, xv)
    if abs(np.linalg.det(gx)) < 1e-12 * abs(np.linalg.det(g0)):
        raise SingularMetricError(f"metric is singular near {xv.tolist()}")
    return _christoffel(g0, B, xv)


def nablaL_residual(qm, L, x) -> float:
    """Max-norm of the covariant derivative of the constant operator L (ints
    or Fractions) at x."""
    lf = np.asarray(L, float)
    m = christoffel(qm, x).transpose(1, 0, 2)  # m[k] = gamma[:, k, :]
    return float(np.max(np.abs(m @ lf - lf @ m)))  # NaN propagates


def block_element(pair: CanonicalPair, i: int, j: int, xij) -> np.ndarray:
    """The element of so(g) whose only nonzero blocks are X_ij = xij and the
    forced X_ji = -g_j xij^T g_i (blocks i and j as in ``pair.block``)."""
    blocks = all_blocks(pair)
    (_, oi, ni), (_, oj, nj) = blocks[i], blocks[j]
    si = slice(oi, oi + ni)
    sj = slice(oj, oj + nj)
    x = np.zeros((pair.n, pair.n), dtype=object)
    x[si, sj] = xij
    g = dense_g(pair.involution).astype(object)
    x[sj, si] = -(g[sj, sj] @ np.asarray(xij, dtype=object).T @ g[si, si])
    return x


def apply_map(values, den, g, x) -> np.ndarray:
    """R(x) for x in so(g), from the map's values num / den on the wedge
    basis in ``wedge_tags`` order.

    wedge(e_a, e_b) g^-1 = E_ab - E_ba, so the coordinate of x on that
    basis element is (x g^-1)[a, b].
    """
    n = g.shape[0]
    y = x @ inverse_ref(g)
    if (y + y.T).any():
        raise ValueError("argument is not in so(g)")
    out = np.zeros((n, n), dtype=object)
    for (a, b), v in zip(wedge_tags(n), fractions(values, den), strict=True):
        out = out + y[a, b] * v
    return out
