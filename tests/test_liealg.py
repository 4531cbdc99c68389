"""so(g) bases, the commutator system, the certified g_L basis, and the
block decomposition."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy import build_canonical, lower_B, make_pencil
from holonomy.berger import check_sectional, commutator_system
from holonomy.canonical import CanonicalPair
from holonomy.exactla import rank, wedge_index
from holonomy.realize import RealizationError

from helpers import certified_gl, dense_g, int_form, mat, pair_of, spec_of, unit
from oracles import (
    centralizer_basis_ref,
    centralizer_dim,
    check_sectional_ref,
    commutator,
    is_g_skew,
    m_ij_basis,
    member_coords,
    relabeled_L,
    so_basis_ref,
    true_L,
    wedge,
    wedge_rows,
    wedge_tags,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def test_wedge_antisymmetry_and_example():
    g = mat([[0, 1], [1, 0]])
    e0, e1 = unit(2, 0), unit(2, 1)
    assert not wedge(e0, e0, g).any()
    assert np.array_equal(wedge(e0, e1, g), mat([[1, 0], [0, -1]]))
    assert np.array_equal(wedge(e1, e0, g), mat([[-1, 0], [0, 1]]))
    # wedge_rows(g) stacks wedge(e_i, e_j) in the reference pair order
    pair = pair_of([(1, 1), (2, -1)])
    g = dense_g(pair.involution)
    for (i, j), x in zip(wedge_tags(3), wedge_rows(g), strict=True):
        assert np.array_equal(x, wedge(unit(3, i), unit(3, j), g))


def test_wedge_index_is_the_reference_order():
    # the one order of the wedge basis, the curvature values and the witnesses
    for n in range(25):
        rows, cols = wedge_index(n)
        assert list(zip(rows.tolist(), cols.tolist())) == wedge_tags(n), n


@given(rationals, rationals, rationals, rationals, rationals)
@settings(max_examples=40)
def test_wedge_bilinear(a, b, u0, u1, v0):
    g = mat([[1, 0], [0, -1]])
    u = [u0, u1]
    v = [v0, Fraction(2)]
    w = [a * x for x in u]
    lhs = wedge(w, v, g)
    rhs = a * wedge(u, v, g)
    assert np.array_equal(lhs, rhs)
    s = wedge([u0 + b * v0, u1 + b * Fraction(2)], v, g)
    assert np.array_equal(s, wedge(u, v, g) + b * wedge(v, v, g))


def test_wedge_output_is_g_skew():
    pair = pair_of([(1, 1), (2, -1)])
    g = dense_g(pair.involution)
    for x in wedge_rows(g):
        assert is_g_skew(g, x)


def test_so_basis_dimensions():
    g = np.array([[0, 1], [1, 0]], dtype=object)
    assert len(wedge_rows(g)) == 1
    assert np.array_equal(wedge_rows(g), so_basis_ref(g))
    pair = pair_of([(2, 1), (2, -1)])
    g = dense_g(pair.involution)
    basis = wedge_rows(g)
    assert np.array_equal(basis, so_basis_ref(g))
    assert len(basis) == 6
    for x in basis:
        assert is_g_skew(g, x)


def test_so_basis_euclidean_spans_antisymmetric():
    basis = wedge_rows(np.eye(3, dtype=object))
    assert np.array_equal(basis, so_basis_ref(np.eye(3, dtype=object)))
    assert len(basis) == 3
    for x in basis:
        assert np.array_equal(x.T, -x)
    # the three elementary antisymmetric matrices are members
    for i, j in wedge_tags(3):
        e = np.zeros((3, 3), dtype=object)
        e[i, j] = 1
        e[j, i] = -1
        assert member_coords(e, basis) is not None


def _signed_involution(data, n: int) -> tuple:
    """A random signed involution ``(perm, sign)``: disjoint transpositions,
    with one sign on each orbit."""
    order = data.draw(st.permutations(range(n)))
    perm = np.arange(n)
    for k in range(data.draw(st.integers(0, n // 2))):
        a, b = order[2 * k], order[2 * k + 1]
        perm[a], perm[b] = b, a
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return perm, np.array([signs[min(i, perm[i])] for i in range(n)])


def _rogue_pair(data, n: int, involution: tuple) -> CanonicalPair:
    """A pair with the given g and any L of the canonical shape, g-symmetric
    or not: random labels, and N linking i to i + 1 wherever a drawn
    boolean says they share a block."""
    links = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    labels = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    block = np.cumsum([0] + [not link for link in links])
    return CanonicalPair(involution, block, np.array(labels))


def _lowered_ref(g, t):
    """-(g (x) g) t as one dense contraction."""
    return -np.einsum("ia,pc,ajcq->ijpq", g, g, t)


@given(st.integers(1, 8), st.data())
@settings(max_examples=30, deadline=None)
def test_commutator_system_matches_basis_commutators(n, data):
    # every product with g is a gather along its (perm, sign), and every
    # product with L a times_L; each is checked against dense products on a
    # random signed involution and a random pair of the canonical shape.
    # Column k of the system is W_k L - L W_k for any such L, g-symmetric or not
    involution = _signed_involution(data, n)
    g = dense_g(involution)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pair = _rogue_pair(data, n, involution)
    l = relabeled_L(pair)
    w = so_basis_ref(g).astype(np.int64)
    want = (w @ l - l @ w).reshape(len(w), n * n).T
    assert np.array_equal(commutator_system(pair), want)

    # lower_B is -(g (x) g) T for the pair's block tensor T, refused when
    # that is not symmetric in both index pairs: a random g and random blocks
    # make it symmetric for some pairs and not for most
    want = _lowered_ref(g, pair.block_tensor)
    if (want == want.transpose(1, 0, 2, 3)).all() and (want == want.transpose(0, 1, 3, 2)).all():
        assert np.array_equal(lower_B(pair).num, want)
    else:
        with pytest.raises(RealizationError, match="not symmetric"):
            lower_B(pair)

    # check_sectional against the loop oracle with dense g: the so(g) basis
    # passes with a scalar L (one label, no link), and the oracle's basis of
    # the elements of so(g) that commute with l, padded with zero rows to the
    # m values of a curvature map, passes with l; with l the so(g) basis
    # passes only if it commutes, and random values fail
    scalar = dataclasses.replace(pair, block=np.arange(n), label=np.full(n, rng.integers(-3, 4)))
    kernel = np.array(centralizer_basis_ref(pair, l), dtype=object).reshape(-1, n, n)
    padding = np.zeros((len(w) - len(kernel), n, n), dtype=np.int64)
    commuting = np.concatenate([int_form(kernel)[0], padding])
    noise = rng.integers(-3, 4, w.shape)
    for values, p in ((w, scalar), (w, pair), (commuting, pair), (noise, pair)):
        assert check_sectional(values, p) == check_sectional_ref(values, g, relabeled_L(p))
    assert check_sectional(w, scalar) is None and check_sectional(commuting, pair) is None


def test_centralizer_single_block_trivial():
    for size in (2, 3, 4):
        pair = pair_of([(size, 1)])
        assert len(certified_gl(pair)) == 0
        assert centralizer_dim(pair) == 0


def test_centralizer_blocks_1_2():
    pair = pair_of([(1, 1), (2, 1)])
    basis = certified_gl(pair)
    assert len(basis) == 1 == centralizer_dim(pair)
    z = mat([[0, 0, 1], [-1, 0, 0], [0, 0, 0]])
    coords = member_coords(z, basis)
    assert coords is not None and any(coords)


def test_centralizer_blocks_1_2_3():
    pair = pair_of([(1, 1), (2, 1), (3, 1)])
    assert centralizer_dim(pair) == 4
    assert len(certified_gl(pair)) == 4


def test_centralizer_defining_equations_and_cross_blocks():
    spec = make_pencil([(0, [(1, 1), (2, -1)]), (2, [(1, 1), (1, -1)])])
    pair = build_canonical(spec)
    basis = certified_gl(pair)
    assert len(basis) == centralizer_dim(pair) == 1 + 1
    lo = 3  # first index of the second eigenvalue
    for x in basis:
        assert is_g_skew(dense_g(pair.involution), x)
        assert not commutator(x, true_L(pair, spec)).any()
        # cross-eigenvalue blocks vanish exactly
        for i in range(lo):
            for j in range(lo, pair.n):
                assert x[i, j] == 0 and x[j, i] == 0


def test_m_ij_generator_matches_kernel():
    pair = pair_of([(1, 1), (2, 1)])
    (gen,) = m_ij_basis(pair, 0, 1)
    assert np.array_equal(gen, mat([[0, 0, 1], [-1, 0, 0], [0, 0, 0]]))


def test_m_ij_dimensions_and_commutativity():
    spec = spec_of([(2, 1), (2, -1)])
    pair = build_canonical(spec)
    basis = m_ij_basis(pair, 0, 1)
    assert len(basis) == 2
    a, b = basis
    assert not commutator(a, b).any()
    for x in basis:
        assert is_g_skew(dense_g(pair.involution), x)
        assert not commutator(x, true_L(pair, spec)).any()


def test_m_ij_direct_sum_fills_centralizer():
    pair = pair_of([(1, 1), (1, -1), (2, 1)])
    gl = certified_gl(pair)
    gens = []
    for i in range(3):
        for j in range(i + 1, 3):
            gens.extend(m_ij_basis(pair, i, j))
    assert len(gens) == len(gl) == centralizer_dim(pair) == 3
    stack = int_form([g.ravel() for g in gens])[0]
    assert rank(stack) == len(gl)
    for g in gens:
        assert member_coords(g, gl) is not None


def test_m_ij_index_errors():
    pair = build_canonical(make_pencil([(0, [(1, 1)]), (1, [(1, 1)])]))
    with pytest.raises(IndexError):
        m_ij_basis(pair, 0, 5)
    with pytest.raises(ValueError):
        m_ij_basis(pair, 0, 1)  # blocks in different eigenvalues


def test_centralizer_closed_under_bracket():
    pair = pair_of([(1, 1), (1, 1), (2, 1)])
    basis = certified_gl(pair)
    for a in basis:
        for b in basis:
            assert member_coords(commutator(a, b), basis) is not None


def test_member_coords_examples():
    spec = spec_of([(1, 1), (2, 1)])
    pair = build_canonical(spec)
    basis = wedge_rows(dense_g(pair.involution))
    first = basis[0]
    coords = member_coords(first, basis)
    assert coords[0] == 1 and not any(coords[1:])
    assert member_coords(np.zeros((3, 3), dtype=object), basis) == [0, 0, 0]
    # L is g-symmetric and nonzero, so it cannot lie in the skew algebra
    assert member_coords(true_L(pair, spec), certified_gl(pair)) is None
