"""Exact scalar and matrix arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy.exactla import RatMat, inverse, kernel_basis, rank, rat_from_str, rat_to_str

from helpers import mat
from oracles import Poly, matrix_powers, minimal_polynomial, solve_in_span

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def jordan(n):
    return RatMat.from_rows(
        [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])


# -- serialization -----------------------------------------------------------

def test_rational_strings():
    assert rat_from_str("3/4") == Fraction(3, 4)
    assert rat_from_str("-2") == Fraction(-2)
    assert rat_from_str("−5/7") == Fraction(-5, 7)
    assert rat_to_str(Fraction(3, 4)) == "3/4"
    assert rat_to_str(Fraction(-2)) == "-2"
    assert rat_to_str(Fraction(6, 3)) == "2"


@pytest.mark.parametrize("bad", ["", "1/0", "a", "1.5.2", "2+3i"])
def test_rational_strings_reject(bad):
    with pytest.raises(ValueError):
        rat_from_str(bad)


@given(rationals)
def test_rational_round_trip(q):
    assert rat_from_str(rat_to_str(q)) == q


@given(rationals.filter(lambda q: q != 0))
def test_reciprocal_product(q):
    assert q * (1 / q) == 1


# -- rank and kernel ---------------------------------------------------------

def test_rank_examples():
    assert rank(RatMat.identity(3)) == 3
    assert rank(RatMat.zeros(2, 5)) == 0
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(RatMat.identity(3)) == []
    assert len(kernel_basis(RatMat.zeros(2, 2))) == 2
    (v,) = kernel_basis(mat([[1, 1]]))
    # one vector proportional to (1, -1)
    assert v[0] * Fraction(-1) == v[1] and any(v)


@given(st.lists(rationals, min_size=12, max_size=12))
@settings(max_examples=60)
def test_rank_plus_nullity(entries):
    m = RatMat(3, 4, entries)
    ker = kernel_basis(m)
    assert rank(m) + len(ker) == 4
    for v in ker:
        assert not any(m.mul_vec(v))


# -- minimal polynomials -----------------------------------------------------

def test_minpoly_single_nilpotent_block():
    for n in (1, 2, 4):
        p = minimal_polynomial(jordan(n))
        assert p.coeffs == tuple([Fraction(0)] * n + [Fraction(1)])


def test_minpoly_two_nilpotent_blocks():
    m = RatMat.zeros(5, 5)
    rows = [[0] * 5 for _ in range(5)]
    rows[0][1] = 1          # block of size 2
    rows[2][3] = rows[3][4] = 1  # block of size 3
    p = minimal_polynomial(mat(rows))
    assert p.coeffs == (0, 0, 0, 1)


def test_minpoly_scalar_matrix():
    lam = Fraction(-3, 2)
    m = lam * RatMat.identity(4)
    p = minimal_polynomial(m)
    assert p.coeffs == (-lam, 1)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=9, max_size=9))
@settings(max_examples=40)
def test_minpoly_annihilates_and_is_minimal(entries):
    m = RatMat(3, 3, entries)
    p = minimal_polynomial(m)
    assert p.is_monic()
    assert p.at_matrix(m).is_zero()
    # no lower-degree monic polynomial annihilates: the lower powers of m
    # must be linearly independent
    vecs = [pw.vec() for pw in matrix_powers(m, p.degree - 1)]
    stack = RatMat(len(vecs), 9, [x for v in vecs for x in v])
    assert rank(stack) == p.degree


# -- powers, inverse, solving ------------------------------------------------

def test_matrix_powers_examples():
    m = mat([[2, 1], [0, 1]])
    assert matrix_powers(m, 0) == [RatMat.identity(2)]

    j2 = jordan(2)
    assert matrix_powers(j2, 2) == [RatMat.identity(2), j2, RatMat.zeros(2, 2)]

    d = mat([[2]])
    assert [p[0, 0] for p in matrix_powers(d, 3)] == [1, 2, 4, 8]


def test_inverse_round_trip():
    m = mat([[1, 2], [3, Fraction(1, 2)]])
    assert m @ inverse(m) == RatMat.identity(2)
    with pytest.raises(ValueError):
        inverse(mat([[1, 2], [2, 4]]))


def test_solve_in_span():
    cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert solve_in_span(cols, [Fraction(3), Fraction(2)]) == [1, 2]
    assert solve_in_span([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)]) is None
    assert solve_in_span([], [Fraction(0)]) == []
    assert solve_in_span([], [Fraction(1)]) is None


def test_poly_basic():
    p = Poly((Fraction(-1), Fraction(0), Fraction(1)))  # t^2 - 1
    assert p.degree == 2
    assert p(Fraction(3)) == 8
    assert p.at_matrix(RatMat.identity(2)).is_zero()
    assert Poly(()).coeffs == ()
    with pytest.raises(ValueError):
        Poly((Fraction(1), Fraction(0)))
