"""Curvature maps from the minimal polynomial and the Berger certificate."""

from fractions import Fraction

import pytest

from holonomy import berger_certificate, build_canonical, centralizer_basis, make_pencil, r_formal
from holonomy.berger import CurvatureMap, check_bianchi, check_sectional, r_hat
from holonomy.exactla import RatMat
from holonomy.liealg import SubspaceBasis, so_basis, wedge_tags

from helpers import mat, pair_of
from oracles import member_coords, r_minpoly

Z = mat([[0, 0, 1], [-1, 0, 0], [0, 0, 0]])  # generator for blocks (1, 2)


def zero_map(g):
    n = g.rows
    tags = tuple(wedge_tags(n))
    return CurvatureMap(g, tags, tuple(RatMat.zeros(n, n) for _ in tags))


def certificate(pair):
    return berger_certificate(pair, r_formal(pair), centralizer_basis(pair))


# -- r_minpoly ---------------------------------------------------------------

def test_r_minpoly_regular_block_vanishes():
    pair = pair_of([(3, 1)])
    for x in so_basis(pair.g):
        assert r_minpoly(pair, x).is_zero()


def test_r_minpoly_blocks_1_2():
    pair = pair_of([(1, 1), (2, 1)])
    base = so_basis(pair.g)
    # base order is (0,1), (0,2), (1,2); p_min = t^2 so R(X) = LX + XL
    assert r_minpoly(pair, base[1]) == Z
    assert r_minpoly(pair, base[2]).is_zero()


def test_r_minpoly_lands_in_centralizer():
    pair = pair_of([(2, 1), (3, -1)], lam=Fraction(1, 2))
    gl = centralizer_basis(pair)
    for x in so_basis(pair.g):
        v = r_minpoly(pair, x)
        assert member_coords(v, gl) is not None


# -- r_hat --------------------------------------------------------------------

def test_r_hat_square_blocks():
    pair = pair_of([(2, 1), (2, 1)])
    x = mat([
        [0, 0, 1, 2],
        [0, 0, 3, 4],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    out = r_hat(pair, 0, 1, x)
    # upper-right block: [[3, 5], [0, 3]]
    assert [[out[0, 2], out[0, 3]], [out[1, 2], out[1, 3]]] == [[3, 5], [0, 3]]
    # lower-left block forced by -g2 R12^T g1 (antidiagonal conjugation)
    assert [[out[2, 0], out[2, 1]], [out[3, 0], out[3, 1]]] == [[-3, -5], [0, -3]]


def test_r_hat_rectangular_blocks():
    pair = pair_of([(2, 1), (3, 1)])
    rows = [[0] * 5 for _ in range(5)]
    rows[1][2] = 1  # x_21 = 1 in the 2x3 block
    out = r_hat(pair, 0, 1, mat(rows))
    block = [[out[i, j + 2] for j in range(3)] for i in range(2)]
    assert block == [[0, 1, 0], [0, 0, 1]]  # mu_1 = 1, mu_2 = 0


def test_r_hat_zero_and_linearity():
    pair = pair_of([(2, 1), (2, -1)])
    assert r_hat(pair, 0, 1, RatMat.zeros(4, 4)).is_zero()
    base = so_basis(pair.g)
    a, b = Fraction(2, 3), Fraction(-5)
    lhs = r_hat(pair, 0, 1, a * base[0] + b * base[3])
    rhs = a * r_hat(pair, 0, 1, base[0]) + b * r_hat(pair, 0, 1, base[3])
    assert lhs == rhs


def test_r_hat_index_errors():
    pair = build_canonical(make_pencil([(0, [(1, 1)]), (1, [(1, 1)])]))
    with pytest.raises(ValueError):
        r_hat(pair, 1, 0, RatMat.zeros(2, 2))
    with pytest.raises(ValueError):
        r_hat(pair, 0, 1, RatMat.zeros(2, 2))  # different eigenvalues


# -- r_formal -----------------------------------------------------------------

def test_r_formal_single_block_is_zero_map():
    pair = pair_of([(4, 1)])
    assert r_formal(pair).is_zero_map()


@pytest.mark.parametrize("blocks,lam", [
    ([(1, 1), (2, 1)], 0),
    ([(2, 1), (3, -1)], 0),
    ([(2, -1), (2, -1)], Fraction(1, 2)),
    ([(1, 1), (4, 1)], -2),
])
def test_r_formal_two_blocks_agrees_with_minpoly(blocks, lam):
    pair = pair_of(blocks, lam)
    rm = r_formal(pair)
    for x, v in zip(so_basis(pair.g), rm.values):
        assert r_minpoly(pair, x) == v


def test_r_formal_three_blocks_image_rank():
    pair = pair_of([(1, 1), (1, 1), (2, 1)])
    cert = certificate(pair)
    assert cert.dim_gL == 3 and cert.image_rank == 3


def test_r_formal_linearity_via_apply():
    # two equal blocks: the minimal-polynomial oracle applies the map to any
    # element of so(g), so a combination must map to the same combination
    pair = pair_of([(2, 1), (2, 1)])
    rm = r_formal(pair)
    base = so_basis(pair.g)
    a, b = Fraction(3, 7), Fraction(-2)
    x = a * base[1] + b * base[4]
    assert r_minpoly(pair, x) == a * rm.values[1] + b * rm.values[4]


def test_curvature_map_wedge_lookup():
    pair = pair_of([(1, 1), (2, 1)])
    rm = r_formal(pair)
    assert rm.tags == ((0, 1), (0, 2), (1, 2))
    assert rm.values[rm.tags.index((0, 2))] == Z
    assert rm.values[rm.tags.index((0, 1))].is_zero()


# -- Bianchi ------------------------------------------------------------------

def test_bianchi_zero_map_passes():
    pair = pair_of([(2, 1), (2, -1)])
    assert check_bianchi(zero_map(pair.g)).ok


@pytest.mark.parametrize("blocks", [
    [(1, 1), (2, 1)], [(2, 1), (2, -1)], [(1, 1), (1, 1), (2, 1)],
    [(2, 1), (3, 1)], [(1, 1), (1, -1)],
])
def test_bianchi_r_formal_passes(blocks):
    rep = check_bianchi(r_formal(pair_of(blocks)))
    assert rep.ok and rep.witness is None


@pytest.mark.parametrize("blocks", [
    [(1, 1), (2, 1)], [(2, 1), (2, 1)], [(2, 1), (3, 1)], [(1, 1), (1, 1), (2, 1)],
])
def test_bianchi_commutator_map_consistency(blocks):
    # the commutator map may or may not be a formal curvature tensor; the
    # report must either carry a witness or claim a clean pass
    pair = pair_of(blocks)
    base = so_basis(pair.g)
    vals = tuple(pair.L @ x - x @ pair.L for x in base)
    assert any(not v.is_zero() for v in vals)
    rep = check_bianchi(CurvatureMap(pair.g, tuple(wedge_tags(pair.n)), vals))
    assert rep.ok == (rep.witness is None)


def test_bianchi_detects_violation():
    # map e0^e1 to wedge(e0, e2), everything else to zero: the cyclic sum
    # on (e0, e1, e2) is wedge(e0, e2) e2 = e0, which is nonzero
    g = RatMat.identity(3)
    base = so_basis(g)
    vals = [RatMat.zeros(3, 3)] * 3
    vals[0] = base[1]
    rep = check_bianchi(CurvatureMap(g, tuple(wedge_tags(3)), tuple(vals)))
    assert not rep.ok
    assert rep.witness == (0, 1, 2)
    assert rep.max_violation == 1


# -- sectional check ------------------------------------------------------------

def test_sectional_r_formal_and_zero_pass():
    pair = pair_of([(2, 1), (3, -1)])
    assert check_sectional(r_formal(pair), pair.L)
    zm = zero_map(pair.g)
    assert check_sectional(zm, pair.L)


def test_sectional_identity_map_fails():
    pair = pair_of([(1, 1), (2, 1)])
    base = so_basis(pair.g)
    ident = CurvatureMap(pair.g, tuple(wedge_tags(pair.n)), tuple(base.elements))
    assert not check_sectional(ident, pair.L)


# -- certificate ----------------------------------------------------------------

def test_certificate_single_block():
    cert = certificate(pair_of([(3, 1)]))
    assert cert.dim_gL == 0 and cert.image_rank == 0
    assert cert.passed and cert.witnesses == ()


def test_certificate_blocks_1_2():
    cert = certificate(pair_of([(1, 1), (2, 1)]))
    assert cert.dim_gL == 1 and cert.image_rank == 1 and cert.passed
    assert cert.witnesses == ((0, 2),)


def test_certificate_blocks_2_3_mixed_signs():
    cert = certificate(pair_of([(2, 1), (3, -1)]))
    assert cert.dim_gL == 2 and cert.image_rank == 2 and cert.passed


def test_certificate_json():
    doc = certificate(pair_of([(1, 1), (2, 1)])).to_json()
    assert doc == {
        "dim_gL": 1,
        "image_rank": 1,
        "bianchi_ok": True,
        "containment_ok": True,
        "witnesses": [[0, 2]],
        "passed": True,
    }


def test_certificate_rejects_short_gl_basis():
    # negative control: the rank is compared against the basis it is handed
    pair = pair_of([(1, 1), (1, 1), (2, 1)])
    gl = centralizer_basis(pair)
    short = SubspaceBasis(gl.n, gl.elements[:-1])
    cert = berger_certificate(pair, r_formal(pair), short)
    assert cert.dim_gL == 2 and cert.image_rank == 3
    assert not cert.passed
