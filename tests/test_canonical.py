"""Canonical pair construction and pencil spec handling."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from holonomy import (
    ComplexBlockError,
    InvalidSpecError,
    build_canonical,
    make_pencil,
    pencil_from_json,
    pencil_to_json,
    validate_pair,
)
from holonomy.canonical import MAX_RATIONAL_LEN, CanonicalPair, canonical_report
from holonomy.exactla import rank, times_L

from helpers import SPEC_REFUSALS, all_blocks, dense_g, mat, pair_of
from oracles import g_symmetry_ref, relabeled_L, true_L


def involution(perm, sign):
    return np.array(perm), np.array(sign)


def assert_L(pair, want):
    """The pair's L, as ``times_L`` applies it to the identity and as the
    oracle writes it, is the int64 matrix ``want``."""
    got = times_L(np.eye(pair.n, dtype=np.int64), pair, 0)
    assert got.dtype == np.int64 and got.tolist() == want
    assert relabeled_L(pair).tolist() == want


def test_build_trivial_block():
    pair = pair_of([(1, 1)])
    assert np.array_equal(dense_g(pair.involution), [[1]])
    assert_L(pair, [[0]])


def test_build_blocks_1_2():
    pair = pair_of([(1, 1), (2, 1)])
    assert np.array_equal(dense_g(pair.involution), [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    # single 1 in row 2, column 3 (1-based)
    assert_L(pair, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])


def test_build_two_eigenvalues():
    pair = build_canonical(make_pencil([(0, [(2, 1)]), (1, [(1, -1)])]))
    assert_L(pair, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    assert np.array_equal(dense_g(pair.involution), [[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert [v.tolist() for v in pair.involution] == [[1, 0, 2], [1, 1, -1]]
    assert validate_pair(pair) is None
    # L is held relabeled: each eigenvalue's 0-based label on its blocks'
    # diagonal, int64 vectors with no denominator; the eigenvalues
    # themselves stay in the spec, from which the oracle rebuilds L
    spec = make_pencil([(Fraction(-1, 2), [(2, 1)]), (Fraction(2, 3), [(1, 1)])])
    pair = build_canonical(spec)
    assert pair.label.dtype == np.int64 and pair.label.tolist() == [0, 0, 1]
    assert_L(pair, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    assert np.array_equal(true_L(pair, spec), mat([[Fraction(-1, 2), 1, 0],
                                                   [0, Fraction(-1, 2), 0],
                                                   [0, 0, Fraction(2, 3)]]))
    # the true L is g-symmetric too, as a dense product over Fractions
    gl = dense_g(pair.involution) @ true_L(pair, spec)
    assert (gl == gl.T).all()


def test_layout_metadata():
    spec = make_pencil([(Fraction(5, 7), [(2, -1), (2, 1)]), (-1, [(2, 1), (1, -1)])])
    pair = build_canonical(spec)
    # blocks are numbered in spec order: eigenvalues ascending, then sizes
    # ascending, + before - on ties
    assert pair.block.tolist() == [0, 1, 1, 2, 2, 3, 3]
    assert pair.label.tolist() == [0, 0, 0, 1, 1, 1, 1]
    assert_L(pair, [[0, 0, 0, 0, 0, 0, 0],
                    [0, 0, 1, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0, 0, 0],
                    [0, 0, 0, 1, 1, 0, 0],
                    [0, 0, 0, 0, 1, 0, 0],
                    [0, 0, 0, 0, 0, 1, 1],
                    [0, 0, 0, 0, 0, 0, 1]])
    assert [v.tolist() for v in pair.involution] == [[0, 2, 1, 4, 3, 6, 5],
                                                      [-1, 1, 1, 1, 1, -1, -1]]


def rogue(g, block, label):
    """A pair with any g, block vector and labels: L = diag(label) plus a 1
    above the diagonal wherever the block repeats."""
    return CanonicalPair(involution(*g), np.array(block), np.array(label))


def assert_witness(pair, want):
    """validate_pair's witness is ``want`` and the dense oracle's: the first
    (r, c) where gL, multiplied out, is not symmetric; None when it is."""
    at = validate_pair(pair)
    assert at == g_symmetry_ref(pair) == want
    assert at is None or all(type(v) is int for v in at)


def test_validate_pair_reports():
    pair = pair_of([(1, 1), (2, 1)])
    assert_witness(pair, None)

    # L = [[0, 1], [0, 0]] is g-symmetric for g = [[0, 1], [1, 0]], not for
    # g = I, where gL = L is first asymmetric at (0, 1)
    assert_witness(rogue(([0, 1], [1, 1]), [0, 0], [0, 0]), (0, 1))
    assert_witness(rogue(([1, 0], [1, 1]), [0, 0], [0, 0]), None)

    # for g = [[0, 1], [1, 0]] and no link, gL is symmetric exactly when
    # the label agrees on i and its partner perm[i]: gL = [[0, 1], [0, 0]]
    # for labels 0 and 1
    assert_witness(rogue(([1, 0], [1, 1]), [0, 1], [2, 2]), None)
    assert_witness(rogue(([1, 0], [1, 1]), [0, 1], [0, 1]), (0, 1))

    # the signs of g count: one block of size 3 with its antidiagonal g is
    # g-symmetric when sign[1] = sign[2], and not otherwise
    assert_witness(rogue(([2, 1, 0], [1, 1, 1]), [0, 0, 0], [0, 0, 0]), None)
    assert_witness(rogue(([2, 1, 0], [1, -1, 1]), [0, 0, 0], [0, 0, 0]), (1, 2))
    # a built pair stays g-symmetric with every sign of g flipped, and with
    # labels that agree on each block, but not with labels that split one
    flipped = dataclasses.replace(pair, involution=(pair.involution[0], -pair.involution[1]))
    assert_witness(flipped, None)
    assert_witness(dataclasses.replace(pair, label=np.array([0, 1, 1])), None)
    # (gL)[1, 2] = L[2, 2] = 1 but (gL)[2, 1] = L[1, 1] = 0
    assert_witness(dataclasses.replace(pair, label=np.array([0, 0, 1])), (1, 2))


def test_canonical_report_carries_the_witness():
    pair = build_canonical(make_pencil([(0, [(2, 1)])]))
    assert canonical_report(pair) == {"n": 2, "gL_witness": None, "passed": True}
    # labels that split the block: gL = [[0, 1], [0, 1]] is first asymmetric at (0, 1)
    split = dataclasses.replace(pair, label=np.array([0, 1]))
    assert canonical_report(split) == {"n": 2, "gL_witness": [0, 1], "passed": False}


def test_degenerate_g_reported():
    # g = diag(1, 0): making the pair refuses it, naming the bad index
    with pytest.raises(ValueError) as info:
        rogue(([0, 1], [1, 0]), [0, 1], [0, 0])
    assert str(info.value) == "g is not a signed involution: bad index 1"


@pytest.mark.parametrize("spec, message", [pytest.param(spec, message, id=name)
                                            for name, spec, message in SPEC_REFUSALS])
def test_spec_refusal_message(spec, message):
    parse = pencil_from_json if isinstance(spec, dict) else make_pencil
    with pytest.raises(InvalidSpecError) as info:
        parse(spec)
    assert str(info.value) == message


def test_complex_block_rejected():
    doc = {"eigenvalues": [{"lambda": "1+2i", "blocks": [{"size": 1, "sign": 1}]}]}
    with pytest.raises(ComplexBlockError, match="unsupported: complex block"):
        pencil_from_json(doc)


# digit-group underscores (accepted by Fraction on Python 3.11 only) and
# non-ASCII digits (accepted by Fraction on every version) are outside the grammar
@pytest.mark.parametrize("raw", ["inf", "nan", "-Infinity", "1+0i", "1_000", "1_0/3",
                                 "1.5_0", "\u0661", "\uff11/\uff12"])
def test_non_rational_real_eigenvalue_is_not_complex(raw):
    doc = {"eigenvalues": [{"lambda": raw, "blocks": [{"size": 1, "sign": 1}]}]}
    with pytest.raises(InvalidSpecError, match="bad eigenvalue") as info:
        pencil_from_json(doc)
    assert not isinstance(info.value, ComplexBlockError)


def test_json_round_trip():
    doc = {"eigenvalues": [
        {"lambda": "-1/2", "blocks": [{"size": 2, "sign": -1}, {"size": 1, "sign": 1}]},
        {"lambda": "0", "blocks": [{"size": 3, "sign": 1}]},
    ]}
    spec = pencil_from_json(json.dumps(doc))
    # normalization: eigenvalues ascending, blocks ascending by size
    assert spec.lams == (Fraction(-1, 2), Fraction(0))
    assert spec.blocks[0] == ((1, 1), (2, -1))
    again = pencil_from_json(pencil_to_json(spec))
    assert again == spec


def test_json_errors():
    with pytest.raises(InvalidSpecError):
        pencil_from_json("not json")
    with pytest.raises(InvalidSpecError):
        pencil_from_json({"eigenvalues": [{"lambda": "x", "blocks": [{"size": 1, "sign": 1}]}]})
    with pytest.raises(InvalidSpecError):
        pencil_from_json({"eigenvalues": [{"lambda": "0", "blocks": []}]})
    # a non-string lambda is refused as such, not read through str()
    for lam, shown in [(None, "None"), (True, "True"), (0.5, "0.5"), (0, "0")]:
        with pytest.raises(InvalidSpecError,
                           match=f"^lambda must be a rational string, got {shown}$"):
            pencil_from_json({"eigenvalues": [{"lambda": lam, "blocks": [{"size": 1, "sign": 1}]}]})
    with pytest.raises(InvalidSpecError, match="^lambda must be a rational string, got None$"):
        pencil_from_json({"eigenvalues": [{"blocks": [{"size": 1, "sign": 1}]}]})
    # a long malformed entry, size or sign is echoed in MAX_RATIONAL_LEN characters
    long = [0] * 200_000
    for doc, value in [
        ({"eigenvalues": [long]}, long),
        ({"eigenvalues": [{"lambda": "0", "blocks": [{"size": long, "sign": 1}]}]}, long),
        ({"eigenvalues": [{"lambda": "0", "blocks": [{"size": 1, "sign": long}]}]}, long),
        ({"eigenvalues": [{"lambda": "0", "blocks": [{"size": -10 ** 4000, "sign": 1}]}]},
         -10 ** 4000),
    ]:
        with pytest.raises(InvalidSpecError) as info:
            pencil_from_json(doc)
        message = str(info.value)
        assert message.endswith(", got " + repr(value)[:MAX_RATIONAL_LEN])
        assert len(message) < 2 * MAX_RATIONAL_LEN
    # an int past Python's int-to-str digit limit has no repr: its bit length is shown
    for make in (lambda sign: make_pencil([(0, [(1, sign)])]),
                 lambda sign: pencil_from_json(
                     {"eigenvalues": [{"lambda": "0", "blocks": [{"size": 1, "sign": sign}]}]})):
        with pytest.raises(InvalidSpecError, match="^block sign must be the integer 1 or -1, "
                                                   "got an int of 16610 bits$"):
            make(10 ** 5000)
    with pytest.raises(InvalidSpecError, match="got an unprintable value$"):
        make_pencil([(0, [(1, [10 ** 5000])])])


def test_nilpotency_and_block_determinants():
    lam = Fraction(1, 3)
    spec = make_pencil([(lam, [(1, 1), (3, -1)])])
    pair = build_canonical(spec)
    # L - lambda and the relabeled L - 0 are the same nilpotent part
    nmax = np.bincount(pair.block).max()
    for shifted in (true_L(pair, spec) - lam * np.eye(pair.n, dtype=object), relabeled_L(pair)):
        power = np.eye(pair.n, dtype=object)
        for _ in range(nmax - 1):
            power = power @ shifted
        assert power.any() and not (power @ shifted).any()
    g = dense_g(pair.involution)
    assert rank(g) == pair.n
    # every g block is a signed antidiagonal, so its determinant is +-1
    for _, offset, size in all_blocks(pair):
        block = [[float(g[offset + i, offset + j]) for j in range(size)] for i in range(size)]
        assert abs(abs(np.linalg.det(np.array(block))) - 1.0) < 1e-12


def test_validate_pair_passes_on_corpus():
    from holonomy.canonical import pencil_from_json
    from holonomy.cli import iter_corpus_specs
    for name, doc in iter_corpus_specs(5):
        pair = build_canonical(pencil_from_json(doc))
        assert validate_pair(pair) is None, name
