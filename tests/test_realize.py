"""Quadratic metric construction and the exact curvature match."""

import dataclasses
import json
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from holonomy import (
    berger_certificate,
    build_canonical,
    lower_B,
    make_pencil,
    r_formal,
    verify_realization,
)
from holonomy.cli import RunConfig, cmd_verify
from holonomy.berger import check_bianchi, check_sectional
from holonomy.canonical import CanonicalPair
from holonomy.exactla import ENTRY_CAP, check_involution, rank, times_g
from holonomy.liealg import wedge_rows
from holonomy.probe.transport import FloatMetric, validity_radius
from holonomy.realize import (
    QuadraticMetric,
    RealizationError,
    check_gsym,
    check_nablaL,
    invertibility_bound,
    riemann_at_origin,
)

from helpers import (
    N24_BLOCKS,
    TWO_EIGENVALUE_SPECS,
    dense_g,
    fractions,
    int_form,
    mat,
    pair_of,
    spec_of,
    witness_values,
)
from oracles import (
    b_apply,
    b_components,
    block_factors,
    check_bianchi_ref,
    check_gsym_ref,
    check_nablaL_ref,
    check_sectional_ref,
    inverse_ref,
    lowered,
    metric_at,
    relabeled_L,
    true_L,
    wedge_tags,
)

HALF = Fraction(1, 2)


def g_adjoint(g, m):
    return inverse_ref(g) @ m.T @ g


def eye(n):
    return np.eye(n, dtype=object)


def test_build_B_two_point_blocks():
    # L = 0 on two size-1 blocks: the tensor collapses to -1/2 I (x) I
    pair = pair_of([(1, 1), (1, 1)])
    b = pair.block_tensor
    comps = b_components(b)
    for a in range(2):
        for bb in range(2):
            for j in range(2):
                for q in range(2):
                    want = -HALF if (a == j and bb == q) else 0
                    assert comps[a][bb][j][q] == want
    x = mat([[0, 1], [-1, 0]])
    assert np.array_equal(b_apply(b, x), -HALF * x)


def test_build_B_single_block_curvature_vanishes_on_so():
    pair = pair_of([(2, 1)])
    b = pair.block_tensor
    assert b.any()  # the tensor itself is nonzero
    for x in wedge_rows(dense_g(pair.involution)):
        bx = b_apply(b, x)
        assert not (-bx + g_adjoint(dense_g(pair.involution), bx)).any()


def test_build_B_reproduces_formal_curvature():
    pair = pair_of([(1, 1), (2, 1)])
    b = pair.block_tensor
    rm = r_formal(pair)
    for x, v in zip(wedge_rows(dense_g(pair.involution)), fractions(rm), strict=True):
        bx = b_apply(b, x)
        assert np.array_equal(-bx + g_adjoint(dense_g(pair.involution), bx), v)


def test_build_B_provenance_and_commutation():
    spec = spec_of([(1, 1), (2, -1)])
    pair = build_canonical(spec)
    b = pair.block_tensor
    # every left factor commutes with L, and [B(X), L] + [B(X), L]^* = 0 for
    # the full elementary basis of gl(V); here the bracket itself vanishes
    L = true_L(pair, spec)
    for c, _ in block_factors(pair):
        assert not (c @ L - L @ c).any()
    n = pair.n
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=object)
            e[i, j] = 1
            bx = b_apply(b, e)
            bracket = bx @ L - L @ bx
            assert not bracket.any()
            assert not (bracket + g_adjoint(dense_g(pair.involution), bracket)).any()


def test_B_skew_on_so_and_doubling():
    # B(X) is g-skew for skew X, so the curvature is exactly -2 B(X): the
    # map and the tensor are read off one term list, and this ties them
    pairs = [pair_of([(2, 1), (2, -1)]),
             pair_of([(1, 1), (2, -1), (4, 1)]),  # unequal sizes
             pair_of([(3, 1)])]
    pairs += [build_canonical(make_pencil(spec)) for spec in TWO_EIGENVALUE_SPECS[1:]]
    for pair in pairs:
        b = pair.block_tensor
        rm = r_formal(pair)
        g = dense_g(pair.involution)
        for x, v in zip(wedge_rows(g), fractions(rm), strict=True):
            bx = b_apply(b, x)
            assert not (g @ bx + bx.T @ g).any()
            assert np.array_equal(v, Fraction(-2) * bx)


def test_lower_B_two_point_blocks():
    pair = pair_of([(1, 1), (1, 1)])
    qm = lower_B(pair)
    low = lowered(qm)
    g = dense_g(pair.involution)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    want = -HALF * g[i, j] * g[p, q]
                    assert low[i][j][p][q] == want


def test_lowered_symmetries():
    pair = pair_of([(2, 1), (3, -1)])
    qm = lower_B(pair)
    n = qm.n
    low = lowered(qm)
    for i in range(n):
        for j in range(n):
            for p in range(n):
                for q in range(n):
                    v = low[i][j][p][q]
                    assert v == low[j][i][p][q] == low[i][j][q][p]


def test_metric_at():
    pair = pair_of([(1, 1), (1, 1)])
    qm = lower_B(pair)
    g = dense_g(pair.involution)
    assert np.array_equal(metric_at(qm, [0, 0]), g)
    x = [Fraction(1, 2), Fraction(-1, 3)]
    r2 = Fraction(1, 4) + Fraction(1, 9)
    expect = (1 - r2 * HALF) * eye(2)
    assert np.array_equal(metric_at(qm, x), expect)
    # quadratic part scales by t^2
    t = Fraction(3)
    gx = metric_at(qm, x)
    gtx = metric_at(qm, [t * v for v in x])
    assert np.array_equal(gtx - g, t * t * (gx - g))


def test_check_nablaL_and_gsym():
    for blocks in ([(1, 1), (2, 1)], [(2, 1), (2, -1)], [(1, 1), (1, 1), (2, 1)]):
        pair = pair_of(blocks)
        qm = lower_B(pair)
        assert check_nablaL(qm) is None
        assert check_gsym(qm) is None


def test_checks_trivial_for_zero_L():
    pair = pair_of([(1, 1), (1, -1)])
    qm = lower_B(pair)
    assert not relabeled_L(pair).any()
    assert check_nablaL(qm) is None
    assert check_gsym(qm) is None


def test_check_nablaL_detects_corruption():
    pair = pair_of([(1, 1), (2, 1)])
    qm = lower_B(pair)
    low = np.array(lowered(qm), dtype=object)
    low[0, 0, 1, 1] += Fraction(1, 7)
    bad = QuadraticMetric(qm.pair, *int_form(low))
    assert check_nablaL(bad) is not None


def test_check_gsym_detects_wrong_operator():
    pair = pair_of([(1, 1), (2, 1)])
    qm = lower_B(pair)
    # indices 0 and 1 in one block: L links 0 to 1, which does not commute
    # with the factors, where the built pair links 1 to 2
    rogue = dataclasses.replace(pair, block=np.array([0, 0, 1]))
    assert relabeled_L(rogue).tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert check_gsym(qm) is None
    assert check_gsym(QuadraticMetric(rogue, qm.num, qm.den)) is not None


def test_riemann_flat_metric():
    pair = pair_of([(2, 1)])
    qm = QuadraticMetric(pair, *int_form(np.zeros((2, 2, 2, 2), dtype=object)))
    assert not riemann_at_origin(qm)[0].any()


def test_riemann_round_sphere_like():
    # g(x) = (1 - |x|^2/2) I has curvature operator equal to the identity
    # on so(2) at the origin
    pair = pair_of([(1, 1), (1, 1)])
    qm = lower_B(pair)
    rm = riemann_at_origin(qm)
    assert rm[2] is None  # the two routes agree
    assert np.array_equal(fractions(*rm[:2])[0], mat([[0, 1], [-1, 0]]))
    assert np.array_equal(fractions(*rm[:2])[0], wedge_rows(dense_g(pair.involution))[0])


def test_riemann_matches_formal_blocks_1_2():
    pair = pair_of([(1, 1), (2, 1)])
    qm = lower_B(pair)
    num, den, routes = riemann_at_origin(qm)
    formal = r_formal(pair)
    assert routes is None and np.array_equal(fractions(num, den), fractions(formal))
    z = mat([[0, 0, 1], [-1, 0, 0], [0, 0, 0]])
    assert np.array_equal(fractions(num, den)[wedge_tags(pair.n).index((0, 2))], z)


def test_riemann_linear_in_coefficients():
    pair = pair_of([(1, 1), (2, 1)])
    qm = lower_B(pair)
    doubled = QuadraticMetric(qm.pair, *int_form(2 * np.array(lowered(qm), dtype=object)))
    r1 = riemann_at_origin(qm)
    r2 = riemann_at_origin(doubled)
    assert np.array_equal(fractions(*r2[:2]), 2 * fractions(*r1[:2]))


# C[k,c,b,q] = B[k,c,b,q] + B[k,b,c,q] - B[b,c,k,q] and four slips in it;
# B is symmetric in its first and in its last two indices, so each wrong
# axis order below changes C
CHRISTOFFEL = {
    "control": lambda b: b + b.transpose(0, 2, 1, 3) - b.transpose(2, 1, 0, 3),
    "third-term-dropped": lambda b: b + b.transpose(0, 2, 1, 3),
    "third-term-sign": lambda b: b + b.transpose(0, 2, 1, 3) + b.transpose(2, 1, 0, 3),
    "second-term-axes": lambda b: b + b.transpose(0, 3, 2, 1) - b.transpose(2, 1, 0, 3),
    "third-term-axes": lambda b: b + b.transpose(0, 2, 1, 3) - b.transpose(2, 3, 0, 1),
}


@pytest.mark.parametrize("formula", CHRISTOFFEL)
def test_a_wrong_christoffel_combination_splits_the_routes(formula, monkeypatch):
    # negative control: the second Riemann route and the float probe read
    # the one raised C, so the exact routes check refuses a wrong C before
    # the probe could transport with it
    c = CHRISTOFFEL[formula]
    monkeypatch.setattr(QuadraticMetric, "raised", property(
        lambda qm: times_g(np.stack([qm.num, c(qm.num)]), qm.pair.involution, 1)))
    for blocks in ([(1, 1), (2, 1)], [(2, 1), (3, -1)], N24_BLOCKS, [(1, 1)] * 3 + [(1, -1)] * 2):
        pair = pair_of(blocks)
        report = verify_realization(lower_B(pair), r_formal(pair))
        assert (report["routes_witness"] is None) is (formula == "control"), blocks


def test_verify_realization():
    for blocks in ([(3, 1)], [(1, 1), (2, 1)], [(2, 1), (2, -1)]):
        pair = pair_of(blocks)
        qm = lower_B(pair)
        report = verify_realization(qm, r_formal(pair))
        assert report["passed"], (blocks, report)
        if blocks == [(3, 1)]:
            assert not riemann_at_origin(qm)[0].any()
    pair = build_canonical(make_pencil([(0, [(1, 1), (2, 1)]), (1, [(2, -1), (2, -1)])]))
    assert verify_realization(lower_B(pair), r_formal(pair))["passed"]


def test_verify_realization_rejects_perturbed_formal_map():
    # negative control: the metric's curvature is compared against the map
    # handed in, so one wrong value must break the match
    pair = pair_of([(1, 1), (2, 1)])
    formal = r_formal(pair)
    perturbed = formal.copy()
    perturbed[1] = perturbed[1] + eye(pair.n)
    qm = lower_B(pair)
    report = verify_realization(qm, perturbed)
    assert report["routes_witness"] is None and not report["passed"]
    # the first wrong value is on wedge(e_0, e_2), at its entry (0, 0)
    assert report["formal_witness"] == [0, 2, 0, 0]
    assert verify_realization(qm, formal)["formal_witness"] is None


def test_verify_realization_compares_the_denominator():
    # negative control for den: the metric's numerator over 1 realizes
    # 2 * formal, and so does the true metric against 2 * formal handed in;
    # the routes agree on both, but neither may match
    pair = pair_of([(1, 1), (2, 1)])
    formal = r_formal(pair)
    qm = lower_B(pair)
    assert formal.any() and qm.den == 2
    for metric, rmap in ((QuadraticMetric(qm.pair, qm.num, 1), formal), (qm, 2 * formal)):
        report = verify_realization(metric, rmap)
        assert report["routes_witness"] is None and report["formal_witness"] is not None, report


def test_a_curvature_map_of_the_wrong_shape_is_refused():
    # a curvature map on n = 3 has its m = 3 values in wedge_index order: a
    # shorter stack would get witnesses naming wedges it does not hold, and
    # one value would broadcast against every wedge, so the Bianchi,
    # containment and formal-match checks refuse any other shape in one line
    pair = pair_of([(1, 1), (2, 1)])
    qm = lower_B(pair)
    rmap = r_formal(pair)
    for values in (rmap[:1], rmap[:2], np.concatenate([rmap, rmap[:1]]), rmap[:, :2],
                   rmap[0], rmap[0, 0, 0]):
        for call in (lambda: check_bianchi(values), lambda: check_sectional(values, pair),
                     lambda: verify_realization(qm, values)):
            with pytest.raises(ValueError, match=re.escape(f", got {values.shape}")) as info:
                call()
            assert "\n" not in str(info.value)
    assert check_bianchi(rmap) is None and check_sectional(rmap, pair) is None
    assert verify_realization(qm, rmap)["passed"]


def test_lower_B_rejects_asymmetric_point_indices():
    # a pair built by hand with g0 = I and one block of size 2 has
    # T = E_01 (x) I + I (x) E_01, which gives -E_01 in (p, q), not
    # symmetric there; a canonical g0 is antidiagonal on that block
    pair = CanonicalPair((np.arange(2), np.ones(2, dtype=np.int64)), np.array([0, 0]),
                         np.zeros(2, dtype=np.int64))
    with pytest.raises(RealizationError, match=re.escape("(p, q) at (0, 0, 0, 1)")):
        lower_B(pair)


@pytest.mark.parametrize("g0, at", [
    (([1, 2, 0], [1, 1, 1]), 0),  # a 3-cycle: perm is not its own inverse
    (([1, 0], [1, -1]), 0),  # asymmetric: g[0, 1] = 1 but g[1, 0] = -1
    (([0, 1], [1, 0]), 1),  # degenerate: a zero row
    (([0, 1], [2, 1]), 0),  # an entry of 2
    (([0, 2], [1, 1]), 1),  # perm out of range
], ids=[f"g0{k}-at{k}" for k in range(5)])
def test_g0_that_is_not_its_own_inverse_is_refused(g0, at):
    # every product with g0 is a gather along its (perm, sign), which a
    # canonical g0, a signed involution, has; the check and a pair built by
    # hand refuse any other (perm, sign) by its first bad index, and a
    # metric takes its g0 from a pair
    perm, sign = g0 = tuple(np.array(v) for v in g0)
    n = len(perm)
    message = f"g is not a signed involution: bad index {at}"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_involution(perm, sign)
    with pytest.raises(ValueError, match=re.escape(message)):
        CanonicalPair(g0, np.arange(n), np.zeros(n, dtype=np.int64))


def test_involution_must_be_two_int_vectors_of_one_length():
    for perm, sign in (([0, 1], [1, 1]),  # lists, not arrays
                       (np.arange(2), np.ones(2)),  # a float sign
                       (np.arange(2), np.ones(3, dtype=int)),  # lengths differ
                       (np.zeros((1, 1), dtype=int), np.ones((1, 1), dtype=int))):  # matrices
        with pytest.raises(ValueError, match="integer vectors of one length"):
            check_involution(perm, sign)


@pytest.mark.parametrize("bare, shape, error, message", [
    (False, (3, 3, 3, 4), ValueError, "num needs shape (3, 3, 3, 3), got (3, 3, 3, 4)"),
    (False, (2, 2, 2, 2), ValueError, "num needs shape (3, 3, 3, 3), got (2, 2, 2, 2)"),
    (False, (3, 3, 3), ValueError, "num needs shape (3, 3, 3, 3), got (3, 3, 3)"),
    (True, (3, 3, 3, 3), TypeError, "pair must be a CanonicalPair, got tuple"),
], ids=["num3334", "num2222", "num333", "bare-involution"])
def test_a_metric_refuses_a_malformed_pair_or_num(bare, shape, error, message):
    # a metric holds the pair it realizes, and its num has that pair's
    # shape (n, n, n, n): unchecked, a (3, 3, 3, 4) num passed both exact
    # checks, and the other two failed deep inside numpy
    pair = pair_of([(1, 1), (2, 1)])
    with pytest.raises(error, match=re.escape(message)) as info:
        QuadraticMetric(pair.involution if bare else pair, np.zeros(shape, dtype=np.int64), 2)
    assert str(info.value) == message


def test_involution_is_checked_once_per_object(monkeypatch, tmp_path):
    # a full verify checks g once: the pair's on construction, in
    # build_canonical; the metric holds the pair, and lower_B, validate_pair,
    # the curvature, the bound and the probe's float metric check nothing
    calls = []

    def counted(perm, sign):
        calls.append(len(perm))
        return check_involution(perm, sign)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("holonomy") and \
                getattr(module, "check_involution", None) is check_involution:
            monkeypatch.setattr(module, "check_involution", counted)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"eigenvalues": [{"lambda": "0", "blocks": [
        {"size": 1, "sign": 1}, {"size": 2, "sign": -1}]}]}))
    report, code = cmd_verify(RunConfig(input=str(spec), stages=(
        "canonical", "berger", "realize", "probe"), seed=0))
    assert code == 0 and report["verdict"] == "pass"
    assert calls == [3]
    pair = pair_of([(1, 1), (2, -1)])
    qm = lower_B(pair)
    assert calls[1:] == [3] and qm.pair is pair
    calls.clear()
    for call in (riemann_at_origin, invertibility_bound, FloatMetric):
        call(qm)
    assert calls == []


def test_validity_radius_positive():
    pair = pair_of([(1, 1), (2, 1)])
    qm = lower_B(pair)
    rho = validity_radius(invertibility_bound(qm))
    assert rho > 0.1
    assert rank(int_form(metric_at(qm, [Fraction(1, 20)] * 3))[0]) == qm.n


@pytest.mark.parametrize("lam", [0, 3 * 10 ** 18, 10 ** 20], ids=["0", "3e18", "1e20"])
def test_exact_arrays_keep_a_proved_dtype_and_scalars_leave_as_python_ints(lam, tmp_path):
    # every exact array is int64 within the entry cap that proves its
    # contractions safe, whatever the eigenvalue, and every scalar that
    # leaves one is a Python int: an np.int64 inside a Fraction, a
    # denominator or the report can wrap around
    blocks = [(1, 1), (2, -1), (2, 1)]
    pair = pair_of(blocks, lam)
    rmap = r_formal(pair)
    cert = berger_certificate(pair, rmap)
    qm = lower_B(pair)
    rm = riemann_at_origin(qm)
    stored = {"perm": pair.involution[0], "sign": pair.involution[1],
              "block": pair.block, "label": pair.label, "T": pair.block_tensor,
              "metric": qm.num, "formal": rmap, "riemann": rm[0],
              "basis": witness_values(cert, rmap)}
    for name, a in stored.items():
        assert a.dtype == np.int64 and np.abs(a).max() <= ENTRY_CAP, name
    # one eigenvalue: L is its nilpotent part, whatever lambda is
    assert np.array_equal(relabeled_L(pair), relabeled_L(pair_of(blocks)))
    bound = invertibility_bound(qm)
    assert bound > 0
    assert type(bound.numerator) is int and type(bound.denominator) is int
    dens = [qm.den, rm[1]]
    assert all(type(d) is int for d in dens), dens

    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"eigenvalues": [{
        "lambda": str(lam), "blocks": [{"size": s, "sign": g} for s, g in blocks]}]}))
    report, code = cmd_verify(RunConfig(input=str(path)))
    assert code == 0, report
    json.dumps(report)  # raises TypeError on an np.int64 anywhere in the report


def test_exact_inputs_past_the_entry_cap_are_refused():
    # negative controls for the one entry check: a hand-built metric's
    # numerator or denominator, a pair's label and curvature values past the
    # cap are refused before any arithmetic, never wrapped around in int64
    pair = pair_of([(1, 1), (2, -1), (2, 1)])
    qm = lower_B(pair)
    rmap = r_formal(pair)
    message = f"at most {ENTRY_CAP}"
    for big in (ENTRY_CAP + 1, -ENTRY_CAP - 1, 2 ** 62, 2 ** 64 + 1):
        def past(a, at, big=big):
            # int64 holds all but the last, which stays a Python int
            out = a.astype(object if abs(big) >= 2 ** 63 else np.int64)
            out[at] = big
            return out

        num, label = past(qm.num, (0, 0, 1, 1)), past(pair.label, 0)
        values = past(rmap, (-1, 0, 0))
        for call in (lambda: QuadraticMetric(qm.pair, num, qm.den),
                     lambda: QuadraticMetric(qm.pair, qm.num, abs(big)),
                     lambda: dataclasses.replace(pair, label=label),
                     lambda: CanonicalPair(pair.involution, pair.block, label),
                     lambda: check_sectional(values, pair),
                     lambda: check_bianchi(values),
                     lambda: verify_realization(qm, values)):
            with pytest.raises(ValueError, match=message):
                call()
    for den in (0, -2):
        with pytest.raises(ValueError, match="den must be positive"):
            QuadraticMetric(qm.pair, qm.num, den)
    # at the cap every check runs in int64 and decides as the Python-int
    # oracles do, on the metric and on a perturbation of it, with labels
    # +-ENTRY_CAP: one label on every index (L = C + N commutes as N does),
    # and labels of both signs
    values = rmap * ENTRY_CAP
    values[-1, 0, 0] -= 1
    n = pair.n
    for labels in ([ENTRY_CAP] * n, [-ENTRY_CAP] * n, [(-1) ** i * ENTRY_CAP for i in range(n)]):
        edge_pair = dataclasses.replace(pair, label=np.array(labels))
        assert edge_pair.label.dtype == np.int64
        L = relabeled_L(edge_pair)
        for bump in (0, 1):
            num = qm.num * ENTRY_CAP
            num[0, 0, 1, 1] -= bump
            edge = QuadraticMetric(edge_pair, num, ENTRY_CAP)
            assert edge.num.dtype == np.int64 and type(edge.den) is int
            assert check_nablaL(edge) == check_nablaL_ref(edge, L)
            assert check_gsym(edge) == check_gsym_ref(edge, L)
            if len(set(labels)) == 1:
                assert (check_nablaL(edge) is None) == (not bump)
        for vals in (rmap * ENTRY_CAP, values):
            assert check_sectional(vals, edge_pair) == check_sectional_ref(
                vals, dense_g(pair.involution), L)
    at = check_bianchi(values)
    assert at is not None and at == check_bianchi_ref(values)
