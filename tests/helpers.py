"""Shared construction shorthands for the test suite."""

import itertools
import math
from fractions import Fraction

import numpy as np

from holonomy import berger_certificate, build_canonical, make_pencil, r_formal
from holonomy.probe import parallel_transport

# The acceptance suite's probe specs (criteria 5 and 7), n = 3..5.
PROBE_SPECS = [
    ("1-2 ++", [(1, 1), (2, 1)]),
    ("1-2 +-", [(1, 1), (2, -1)]),
    ("2-2 ++", [(2, 1), (2, 1)]),
    ("2-2 +-", [(2, 1), (2, -1)]),
    ("1-1-2 +++", [(1, 1), (1, 1), (2, 1)]),
    ("1-1-2 ++-", [(1, 1), (1, 1), (2, -1)]),
    ("2-3 ++", [(2, 1), (3, 1)]),
    ("2-3 +-", [(2, 1), (3, -1)]),
]

# Hand-written specs with two eigenvalues, as make_pencil arguments.
TWO_EIGENVALUE_SPECS = [
    [("0", [(1, 1), (2, 1)]), ("1/2", [(1, -1), (2, 1)])],
    [("-1", [(2, 1), (2, -1)]), ("3", [(1, 1), (3, 1)])],
    [("-2/3", [(1, 1), (1, -1), (2, 1)]), ("5/7", [(2, -1), (3, 1)])],
]


# The n = 24 spec of CI's smoke tests, one eigenvalue (-1/3 there).
N24_BLOCKS = [(1, 1), (2, -1), (2, 1), (3, 1), (4, -1), (5, 1), (7, 1)]
# ones24 of CI's smoke tests: 24 blocks of size 1, so g_L = so(12, 12).
ONES24_BLOCKS = [(1, 1)] * 12 + [(1, -1)] * 12


def eigenvalue_entry(lam, *blocks):
    """One entry of a JSON spec's eigenvalue list, blocks as (size, sign)."""
    return {"lambda": lam, "blocks": [{"size": size, "sign": sign} for size, sign in blocks]}


# Refused specs as (id, spec, message): a dict is a JSON spec, a list
# make_pencil's input; blocks are checked per eigenvalue in input order, then
# the sorted spec for eigenvalues, duplicates and dimension, so of two faults
# the first one met is reported.
SPEC_REFUSALS = [
    ("no-eigenvalue", {"eigenvalues": []}, "spec needs at least one eigenvalue"),
    ("no-block", {"eigenvalues": [eigenvalue_entry("0")]},
     "eigenvalue needs at least one block"),
    ("duplicate",
     {"eigenvalues": [eigenvalue_entry("0", (1, 1)), eigenvalue_entry("0/5", (2, 1))]},
     "duplicate eigenvalues"),
    ("duplicate-make_pencil", [(0, [(1, 1)]), (0, [(2, 1)])], "duplicate eigenvalues"),
    ("dimension-25",
     {"eigenvalues": [eigenvalue_entry("0", (24, 1)), eigenvalue_entry("1", (1, -1))]},
     "dimension 25 exceeds the maximum 24"),
    ("bad-size", {"eigenvalues": [eigenvalue_entry("0", (1, 1), (0, 1))]},
     "block size must be an integer >= 1, got 0"),
    ("bad-sign", {"eigenvalues": [eigenvalue_entry("0", (2, 1), (1, 2))]},
     "block sign must be the integer 1 or -1, got 2"),
    ("bad-size-then-no-block",
     {"eigenvalues": [eigenvalue_entry("1", (0, 1)), eigenvalue_entry("0")]},
     "block size must be an integer >= 1, got 0"),
    ("no-block-then-bad-size",
     {"eigenvalues": [eigenvalue_entry("1"), eigenvalue_entry("0", (0, 1))]},
     "eigenvalue needs at least one block"),
]


def spec_of(blocks, lam=0):
    """The spec of a single eigenvalue with the given (size, sign) blocks."""
    return make_pencil([(Fraction(lam), blocks)])


def pair_of(blocks, lam=0):
    """Canonical pair for a single eigenvalue with the given (size, sign) blocks."""
    return build_canonical(spec_of(blocks, lam))


def dense_g(involution):
    """The int matrix of g = ``(perm, sign)``: g[i, perm[i]] = sign[i] and
    zeros elsewhere.  The package never builds it; dense oracles do."""
    perm, sign = involution
    g = np.zeros((len(perm),) * 2, dtype=np.int64)
    g[np.arange(len(perm)), perm] = sign
    return g


def all_blocks(pair):
    """``(label, offset, size)`` of each Jordan block, read off ``pair.block``
    and ``pair.label``, in block order."""
    _, first, size = np.unique(pair.block, return_index=True, return_counts=True)
    return [(int(pair.label[f]), int(f), int(n)) for f, n in zip(first, size)]


def certificate(pair):
    """The Berger certificate of ``pair``'s formal curvature map."""
    return berger_certificate(pair, r_formal(pair))


def transports(fm, loops):
    """The loops' transport matrices A = I + D, formed as the probe forms them."""
    return parallel_transport(fm, loops)[0] + np.eye(fm.n)


def loops_of(*loops):
    """The loop family ``(planes, basepoints, sides)`` of ``(basepoint,
    plane, side)`` triples, as the probe takes it."""
    basepoints, planes, sides = zip(*loops)
    return np.array(planes), np.array(basepoints, dtype=float), np.array(sides, dtype=float)


def loop_rows(loops, rows):
    """The loops ``rows`` (an index, a slice or a mask) of a loop family, as a family."""
    rows = slice(rows, rows + 1) if isinstance(rows, int) else rows
    return tuple(a[rows] for a in loops)


def joined(*families):
    """The loop families one after the other, as one family."""
    return tuple(np.concatenate(parts) for parts in zip(*families))


def logarithms(d):
    """The probe's second-order logarithms D - D^2 / 2 of the transports I + D."""
    return d - 0.5 * (d @ d)


def metric_drift(fm, a):
    """|g0 - A^T g0 A|_F of each transport matrix in the stack ``a``, with
    g0 the dense float matrix of ``fm.involution``."""
    g0 = dense_g(fm.involution).astype(np.float64)
    return np.linalg.norm(g0 - a.transpose(0, 2, 1) @ g0 @ a, axis=(1, 2))


def witness_values(cert, rmap):
    """The values of the curvature map ``rmap`` at the certificate's
    witnesses, in their order: the g_L basis of a passing certificate."""
    wedges = list(itertools.combinations(range(rmap.shape[1]), 2))
    return rmap[[wedges.index(tuple(w)) for w in cert["witnesses"]]]


def certified_gl(pair):
    """The certificate's g_L basis (its witness values) as a stack of Fractions."""
    rmap = r_formal(pair)
    return fractions(witness_values(berger_certificate(pair, rmap), rmap))


def mat(rows):
    """A matrix of Fractions as an object array."""
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)


def int_form(entries) -> tuple:
    """Exact rationals as ``(num, den)`` with ``entries == num / den``.

    ``entries`` is anything ``np.asarray`` turns into an array of ints or
    Fractions; ``num`` keeps its shape as an int64 array (a numerator past
    int64 raises OverflowError) and ``den`` is the least common denominator
    (1 for an empty array), so the pair is in lowest terms.
    """
    a = np.asarray(entries, dtype=object)
    den = math.lcm(1, *(x.denominator for x in a.flat))
    num = np.array([x.numerator * (den // x.denominator) for x in a.flat],
                   dtype=np.int64).reshape(a.shape)
    return num, den


def fractions(num, den=1):
    """The exact format ``num / den`` as an object array of Fractions."""
    num = np.asarray(num, dtype=object)
    return np.array([Fraction(x, den) for x in num.flat], dtype=object).reshape(num.shape)


def unit(n, i):
    return [Fraction(1) if k == i else Fraction(0) for k in range(n)]

