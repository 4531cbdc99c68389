"""Curvature maps from the minimal polynomial and the Berger certificate."""

from fractions import Fraction

import numpy as np
import pytest

from holonomy import berger_certificate, build_canonical, r_formal
from holonomy.berger import check_bianchi, check_sectional

from helpers import certificate, certified_gl, dense_g, fractions, mat, pair_of, spec_of
from oracles import (
    apply_map,
    block_element,
    commutator,
    is_g_skew,
    r_minpoly,
    relabeled_L,
    true_L,
    wedge_rows,
    wedge_tags,
)

Z = mat([[0, 0, 1], [-1, 0, 0], [0, 0, 0]])  # generator for blocks (1, 2)


def with_true_L(blocks, lam=0):
    """The canonical pair of one eigenvalue and its true L."""
    spec = spec_of(blocks, lam)
    pair = build_canonical(spec)
    return pair, true_L(pair, spec)


def zero_map(n):
    """The zero curvature map on R^n: one zero value per wedge pair."""
    return np.zeros((len(wedge_tags(n)), n, n), dtype=np.int64)


# -- r_minpoly ---------------------------------------------------------------

def test_r_minpoly_regular_block_vanishes():
    pair, L = with_true_L([(3, 1)])
    for x in wedge_rows(dense_g(pair.involution)):
        assert not r_minpoly(L, x).any()


def test_r_minpoly_blocks_1_2():
    pair, L = with_true_L([(1, 1), (2, 1)])
    base = wedge_rows(dense_g(pair.involution))
    # base order is (0,1), (0,2), (1,2); p_min = t^2 so R(X) = LX + XL
    assert np.array_equal(r_minpoly(L, base[1]), Z)
    assert not r_minpoly(L, base[2]).any()


def test_r_minpoly_lands_in_centralizer():
    pair, L = with_true_L([(2, 1), (3, -1)], lam=Fraction(1, 2))
    g = dense_g(pair.involution)
    for x in wedge_rows(g):
        v = r_minpoly(L, x)
        assert is_g_skew(g, v) and not commutator(v, L).any()


# -- two-block patterns ----------------------------------------------------------
#
# r_formal applied to the element of so(g) whose (0, 1) block is given: the
# value's (0, 1) block is sum_s J_0^{nij-1-s} X_01 J_1^s.

def test_r_formal_square_blocks():
    pair = pair_of([(2, 1), (2, 1)])
    xij = mat([[1, 2], [3, 4]])
    out = apply_map(r_formal(pair), 1, dense_g(pair.involution), block_element(pair, 0, 1, xij))
    # upper-right block: [[3, 5], [0, 3]]
    assert out[:2, 2:].tolist() == [[3, 5], [0, 3]]
    # lower-left block forced by -g2 R12^T g1 (antidiagonal conjugation)
    assert out[2:, :2].tolist() == [[-3, -5], [0, -3]]


def test_r_formal_rectangular_blocks():
    pair = pair_of([(2, 1), (3, 1)])
    xij = mat([[0, 0, 0], [1, 0, 0]])  # x_21 = 1 in the 2x3 block
    out = apply_map(r_formal(pair), 1, dense_g(pair.involution), block_element(pair, 0, 1, xij))
    assert out[:2, 2:].tolist() == [[0, 1, 0], [0, 0, 1]]  # mu_1 = 1, mu_2 = 0


def test_r_formal_zero_and_linearity():
    pair, L = with_true_L([(2, 1), (2, -1)])
    rm = r_formal(pair)
    g = dense_g(pair.involution)
    assert not apply_map(rm, 1, g, np.zeros((4, 4), dtype=object)).any()
    base = wedge_rows(g)
    a, b = Fraction(2, 3), Fraction(-5)
    lhs = r_minpoly(L, a * base[0] + b * base[3])
    rhs = a * fractions(rm)[0] + b * fractions(rm)[3]
    assert np.array_equal(lhs, rhs)


# -- r_formal -----------------------------------------------------------------

def test_r_formal_single_block_is_zero_map():
    pair = pair_of([(4, 1)])
    assert not r_formal(pair).any()


@pytest.mark.parametrize("blocks,lam", [
    ([(1, 1), (2, 1)], 0),
    ([(2, 1), (3, -1)], 0),
    ([(2, -1), (2, -1)], Fraction(1, 2)),
    ([(1, 1), (4, 1)], -2),
])
def test_r_formal_two_blocks_agrees_with_minpoly(blocks, lam):
    pair, L = with_true_L(blocks, lam)
    rm = r_formal(pair)
    assert rm.dtype.kind == "i"  # the formal values are integral
    for x, v in zip(wedge_rows(dense_g(pair.involution)), fractions(rm), strict=True):
        assert np.array_equal(r_minpoly(L, x), v)


def test_r_formal_three_blocks_image_rank():
    pair = pair_of([(1, 1), (1, 1), (2, 1)])
    cert = certificate(pair)
    assert cert["dim_gL"] == 3 and cert["image_rank"] == 3


def test_r_formal_linearity_via_apply():
    # two equal blocks: the minimal-polynomial oracle applies the map to any
    # element of so(g), so a combination must map to the same combination
    pair, L = with_true_L([(2, 1), (2, 1)])
    rm = r_formal(pair)
    base = wedge_rows(dense_g(pair.involution))
    a, b = Fraction(3, 7), Fraction(-2)
    x = a * base[1] + b * base[4]
    assert np.array_equal(r_minpoly(L, x), a * fractions(rm)[1] + b * fractions(rm)[4])


def test_curvature_map_wedge_lookup():
    pair = pair_of([(1, 1), (2, 1)])
    rm = r_formal(pair)
    tags = wedge_tags(pair.n)
    assert tags == [(0, 1), (0, 2), (1, 2)] and rm.shape == (3, 3, 3)
    assert np.array_equal(rm[tags.index((0, 2))], Z)
    assert not rm[tags.index((0, 1))].any()


# -- Bianchi ------------------------------------------------------------------

def test_bianchi_zero_map_passes():
    pair = pair_of([(2, 1), (2, -1)])
    assert check_bianchi(zero_map(pair.n)) is None


@pytest.mark.parametrize("blocks", [
    [(1, 1), (2, 1)], [(2, 1), (2, -1)], [(1, 1), (1, 1), (2, 1)],
    [(2, 1), (3, 1)], [(1, 1), (1, -1)],
])
def test_bianchi_r_formal_passes(blocks):
    assert check_bianchi(r_formal(pair_of(blocks))) is None


@pytest.mark.parametrize("blocks", [
    [(1, 1), (2, 1)], [(2, 1), (2, 1)], [(2, 1), (3, 1)], [(1, 1), (1, 1), (2, 1)],
])
def test_bianchi_commutator_map_consistency(blocks):
    # the commutator map may or may not be a formal curvature tensor; the
    # check must either pass or name a triple (i, j, k), i < j, of indices
    pair = pair_of(blocks)
    base = wedge_rows(dense_g(pair.involution))
    L = relabeled_L(pair)
    vals = L @ base - base @ L
    assert vals.any()
    at = check_bianchi(vals)
    assert at is None or (len(at) == 3 and 0 <= at[0] < at[1] < pair.n and 0 <= at[2] < pair.n)


def test_bianchi_detects_violation():
    # map e0^e1 to wedge(e0, e2), everything else to zero: the cyclic sum
    # on (e0, e1, e2) is wedge(e0, e2) e2 = e0, which is nonzero
    g = np.eye(3, dtype=np.int64)
    base = wedge_rows(g)
    vals = np.zeros((3, 3, 3), dtype=np.int64)
    vals[0] = base[1]
    at = check_bianchi(vals)
    assert at == (0, 1, 2)
    # Python ints, not the int64 the check ran in
    assert all(type(v) is int for v in at)


# -- sectional check ------------------------------------------------------------

def test_sectional_r_formal_and_zero_pass():
    pair = pair_of([(2, 1), (3, -1)])
    assert check_sectional(r_formal(pair), pair) is None
    zm = zero_map(pair.n)
    assert check_sectional(zm, pair) is None


def test_sectional_identity_map_fails():
    pair = pair_of([(1, 1), (2, 1)])
    base = wedge_rows(dense_g(pair.involution))
    # L links 1 to 2: wedge(e_0, e_1) = E_01 g spans g_L, and wedge(e_0, e_2)
    # is the first wedge off it, R L - L R first nonzero at (0, 2)
    assert check_sectional(base, pair) == (0, 2, 0, 2)


# -- certificate ----------------------------------------------------------------

def test_certificate_single_block():
    cert = certificate(pair_of([(3, 1)]))
    assert cert["dim_gL"] == 0 and cert["image_rank"] == 0
    assert cert["passed"] and cert["witnesses"] == []


def test_certificate_blocks_1_2():
    pair = pair_of([(1, 1), (2, 1)])
    cert = certificate(pair)
    assert cert["dim_gL"] == 1 and cert["image_rank"] == 1 and cert["passed"]
    assert cert["witnesses"] == [[0, 2]]
    (value,) = certified_gl(pair)  # the witness value, the basis of g_L
    assert np.array_equal(value, Z)


def test_certificate_blocks_2_3_mixed_signs():
    cert = certificate(pair_of([(2, 1), (3, -1)]))
    assert cert["dim_gL"] == 2 and cert["image_rank"] == 2 and cert["passed"]


def test_certificate_json():
    doc = certificate(pair_of([(1, 1), (2, 1)]))
    assert doc == {
        "dim_gL": 1,
        "image_rank": 1,
        "bianchi_witness": None,
        "containment_witness": None,
        "witnesses": [[0, 2]],
        "passed": True,
    }


def test_certificate_rejects_a_dropped_block_pair():
    # negative control: a map silent on one block pair has a short image
    pair = pair_of([(1, 1), (1, 1), (2, 1)])
    rm = r_formal(pair)
    vals = rm.copy()
    vals[:, 0, 1] = vals[:, 1, 0] = 0  # the pair of the two 1-blocks
    cert = berger_certificate(pair, vals)
    assert cert["containment_witness"] is None and cert["dim_gL"] == 3
    assert cert["image_rank"] == 2 and not cert["passed"]


def test_certificate_rejects_a_value_outside_gl():
    # negative control: one value pushed off g_L fails containment
    pair = pair_of([(1, 1), (1, 1), (2, 1)])
    rm = r_formal(pair)
    vals = rm.copy()
    vals[0] += wedge_rows(dense_g(pair.involution))[-1]  # wedge(e_2, e_3) does not commute with L
    cert = berger_certificate(pair, vals)
    assert cert["containment_witness"] is not None and cert["dim_gL"] == 3
    assert not cert["passed"]
