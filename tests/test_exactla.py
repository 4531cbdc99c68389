"""Exact scalar and matrix arithmetic."""

import dataclasses
import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy import exactla
from holonomy.canonical import rat_from_str
from holonomy.exactla import ENTRY_CAP, capped, pivot_columns, rank, times_L, times_g

from helpers import dense_g, int_form, mat, pair_of
from oracles import (
    Poly,
    independent_rows_ref,
    kernel_basis_ref,
    matrix_powers,
    minimal_polynomial,
    rank_ref,
    relabeled_L,
    solve_in_span,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def jordan(n):
    return mat([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])


def eye(n):
    return np.eye(n, dtype=object)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=object)


# -- serialization -----------------------------------------------------------

def test_rational_strings():
    assert rat_from_str("3/4") == Fraction(3, 4)
    assert rat_from_str("-2") == Fraction(-2)
    assert rat_from_str("−5/7") == Fraction(-5, 7)
    assert str(Fraction(3, 4)) == "3/4"
    assert str(Fraction(-2)) == "-2"
    assert str(Fraction(6, 3)) == "2"


@pytest.mark.parametrize("bad", ["", "1/0", "a", "1.5.2", "2+3i",
                                 "1e5000", "1e999999999",
                                 pytest.param("9" * 5000, id="5000-digits")])
def test_rational_strings_reject(bad):
    with pytest.raises(ValueError):
        rat_from_str(bad)


@given(rationals)
def test_rational_round_trip(q):
    assert rat_from_str(str(q)) == q


@given(rationals.filter(lambda q: q != 0))
def test_reciprocal_product(q):
    assert q * (1 / q) == 1


# -- the entry cap ---------------------------------------------------------------

def test_capped_takes_ints_up_to_the_cap_as_int64():
    # the cap is inclusive, on both signs, and an int64, int32 or Python-int
    # array within it comes back as int64 with the same entries
    edge = [[ENTRY_CAP, -ENTRY_CAP], [0, 1]]
    for a in (np.array(edge), np.array(edge, dtype=np.int32), edge,
              np.zeros((0, 3), dtype=np.int64), np.array([ENTRY_CAP], dtype=np.uint64)):
        (out,) = capped(a)
        assert out.dtype == np.int64 and np.array_equal(out, np.asarray(a))
    (den,) = capped(2)
    assert den.dtype == np.int64 and den == 2


@pytest.mark.parametrize("bad", [
    np.array([ENTRY_CAP + 1]), np.array([-ENTRY_CAP - 1]),
    # past int64 itself: neither cast to it nor wrapped around
    2 ** 64 + 1, np.array([-(2 ** 63)], dtype=np.int64),
    # not an integer array: a Fraction or float is never truncated, a bool is
    # no int, and an object array is refused even when it holds small ints
    np.array([Fraction(1, 2)], dtype=object), np.array([Fraction(2)], dtype=object),
    np.array([1.0]), np.array([True]), np.array([ENTRY_CAP + 1], dtype=np.uint32), Fraction(2),
    np.array([1], dtype=object)],
    ids=["cap+1", "-cap-1", "2**64+1", "int64-min", "half", "Fraction-2", "float", "bool",
         "uint32", "Fraction-den", "object"])
def test_capped_refuses_entries_past_the_cap(bad):
    ok = np.zeros(2, dtype=np.int64)
    with pytest.raises(ValueError, match=f"at most {ENTRY_CAP}"):
        capped(ok, bad)


# -- products with g and L -----------------------------------------------------

@pytest.mark.parametrize("blocks", [[(1, 1), (2, -1), (3, 1)], [(4, -1), (1, -1)]])
@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
def test_times_g_is_the_dense_product_on_every_axis(blocks, ndim):
    # g is symmetric: the gather is g @ x and x @ g on the chosen axis, for
    # int64, for Python ints beyond int64 and, bit for bit, for floats.
    # times_L is L @ x there, and x @ L with transpose, for the oracle's
    # dense L: on the built pair (labels 0, so L = N) and with labels up to
    # +-ENTRY_CAP, on int64 entries up to +-ENTRY_CAP
    pair = pair_of(blocks)
    involution = pair.involution
    g = dense_g(involution)
    n = len(g)
    rng = np.random.default_rng(ndim)
    labels = rng.integers(-ENTRY_CAP, ENTRY_CAP + 1, n)
    labels[[0, -1]] = ENTRY_CAP, -ENTRY_CAP
    pairs = [pair, dataclasses.replace(pair, label=labels)]
    for axis in range(-ndim, ndim):
        shape = [n if i == axis % ndim else i + 2 for i in range(ndim)]
        edge = rng.integers(-ENTRY_CAP, ENTRY_CAP + 1, size=shape)
        edge.flat[[0, -1]] = ENTRY_CAP, -ENTRY_CAP
        for p in pairs:
            L = relabeled_L(p)
            left = np.moveaxis(np.tensordot(L, edge, axes=(1, axis)), 0, axis)
            right = np.moveaxis(np.tensordot(edge, L, axes=(axis, 0)), -1, axis)
            for transpose, dense in ((False, left), (True, right)):
                out = times_L(edge, p, axis, transpose)
                assert out.dtype == np.int64 and out.shape == edge.shape
                assert np.array_equal(out, dense), (p.label, axis, transpose)
        small = rng.integers(-9, 10, size=shape)
        # no float zeros: 0 * -1 is -0.0 where a dense sum gives +0.0
        floats = rng.standard_normal(shape)
        for x, dense in ((small, g), (small.astype(object) * 2 ** 70, g.astype(object)),
                         (floats, g)):
            out = times_g(x, involution, axis)
            left = np.moveaxis(np.tensordot(dense, x, axes=(1, axis)), 0, axis)
            right = np.moveaxis(np.tensordot(x, dense, axes=(axis, 0)), -1, axis)
            assert out.dtype == x.dtype and out.shape == x.shape
            if x.dtype == np.float64:
                assert out.tobytes() == left.tobytes() == right.tobytes()
            else:
                assert np.array_equal(out, left) and np.array_equal(out, right)
            if x.dtype == object:
                assert all(type(v) is int for v in out.flat)
                assert max(abs(v) for v in out.flat) > 2 ** 63


# -- rank and kernel ---------------------------------------------------------

def test_rank_examples():
    assert rank(np.eye(3, dtype=np.int64)) == 3
    assert rank(np.zeros((2, 5), dtype=np.int64)) == 0
    assert rank(np.array([[1, 2], [2, 4]], dtype=np.int64)) == 1
    # Fractions go through int_form first; an object array of ints is refused too
    for bad in (mat([[Fraction(1, 2)]]), np.array([[1, 2], [2, 4]], dtype=object)):
        with pytest.raises(TypeError, match="dtype object"):
            rank(bad)


def test_elimination_refuses_entries_past_the_hadamard_bound(monkeypatch):
    # the negative control of the growth check: an elimination that never
    # divides out the content (every gcd read as 1) doubles its entries'
    # length at each step.  On a dense 12 x 12 matrix of 20-bit entries it
    # would finish in milliseconds with entries of thousands of bits, far
    # past its Hadamard bound of 256 bits, and the check stops it there
    rng = random.Random(24)
    a = np.array([[rng.randint(-2 ** 19, 2 ** 19) for _ in range(12)] for _ in range(12)])
    assert rank(a) == 12
    monkeypatch.setattr(exactla, "math", types.SimpleNamespace(gcd=lambda *v: 1, isqrt=math.isqrt))
    with pytest.raises(ArithmeticError, match="past the Hadamard bound"):
        pivot_columns(a)


@given(st.lists(rationals, min_size=12, max_size=12))
@settings(max_examples=60)
def test_rank_plus_nullity(entries):
    m = np.array(entries, dtype=object).reshape(3, 4)
    num, _ = int_form(m)
    ker = np.array(kernel_basis_ref(m), dtype=object).reshape(-1, 4)
    assert rank(num) + len(ker) == 4 == rank_ref(m) + len(ker)
    assert not (m @ ker.T).any()


# -- minimal polynomials -----------------------------------------------------

def test_minpoly_single_nilpotent_block():
    for n in (1, 2, 4):
        p = minimal_polynomial(jordan(n))
        assert p.coeffs == tuple([Fraction(0)] * n + [Fraction(1)])


def test_minpoly_two_nilpotent_blocks():
    rows = [[0] * 5 for _ in range(5)]
    rows[0][1] = 1          # block of size 2
    rows[2][3] = rows[3][4] = 1  # block of size 3
    p = minimal_polynomial(mat(rows))
    assert p.coeffs == (0, 0, 0, 1)


def test_minpoly_scalar_matrix():
    lam = Fraction(-3, 2)
    m = lam * eye(4)
    p = minimal_polynomial(m)
    assert p.coeffs == (-lam, 1)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=9, max_size=9))
@settings(max_examples=40)
def test_minpoly_annihilates_and_is_minimal(entries):
    m = mat(np.array(entries).reshape(3, 3))
    p = minimal_polynomial(m)
    assert p.is_monic()
    assert not p.at_matrix(m).any()
    # no lower-degree monic polynomial annihilates: the lower powers of m
    # must be linearly independent
    stack = np.array([pw.ravel() for pw in matrix_powers(m, p.degree - 1)])
    assert rank(int_form(stack)[0]) == p.degree


# -- powers, solving ---------------------------------------------------------

def test_matrix_powers_examples():
    m = mat([[2, 1], [0, 1]])
    (p0,) = matrix_powers(m, 0)
    assert np.array_equal(p0, eye(2))

    j2 = jordan(2)
    for got, want in zip(matrix_powers(j2, 2), [eye(2), j2, zeros(2, 2)], strict=True):
        assert np.array_equal(got, want)

    d = mat([[2]])
    assert [p[0, 0] for p in matrix_powers(d, 3)] == [1, 2, 4, 8]


near_edge = st.one_of(st.integers(-3, 3), st.integers(2 ** 62 - 4, 2 ** 63 - 1),
                      st.integers(-(2 ** 63), -(2 ** 62) + 4))


@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_elimination_reads_int64_and_refuses_other_dtypes(rows, cols, data):
    entries = data.draw(st.lists(near_edge, min_size=rows * cols, max_size=rows * cols))
    narrow = np.array(entries, dtype=np.int64).reshape(rows, cols)
    wide = narrow.astype(object)
    assert rank(narrow) == rank_ref(wide)
    assert tuple(pivot_columns(narrow)) == independent_rows_ref(wide.T)
    # a Fraction or a float is refused wherever it sits, a zero row included
    bad = wide.copy()
    bad[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))] = (
        data.draw(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(0), 0.0, 2.0])))
    for call in (rank, pivot_columns):
        for arg in (bad, narrow.astype(np.float64)):
            with pytest.raises(TypeError):
                call(arg)


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
    assert not p.at_matrix(eye(2)).any()
    assert Poly(()).coeffs == ()
    with pytest.raises(ValueError):
        Poly((Fraction(1), Fraction(0)))
