"""Numerical probe: Christoffel symbols, loop transport, holonomy span."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from holonomy import berger_certificate, build_canonical, lower_B, make_pencil, r_formal
from holonomy.canonical import pencil_from_json
from holonomy.cli import iter_corpus_specs
from holonomy.probe import transport
from holonomy.probe import (
    FloatMetric,
    SingularMetricError,
    holonomy_span,
    parallel_transport,
    standard_loops,
)
from holonomy.probe import kernels
from holonomy.probe.transport import validity_radius

from holonomy.realize import QuadraticMetric, check_nablaL, invertibility_bound

from helpers import (
    N24_BLOCKS,
    ONES24_BLOCKS,
    PROBE_SPECS,
    TWO_EIGENVALUE_SPECS,
    certificate,
    dense_g,
    joined,
    logarithms,
    loop_rows,
    loops_of,
    metric_drift,
    pair_of,
    spec_of,
    transports,
    witness_values,
)
from oracles import (
    christoffel,
    contraction_matrices_ref,
    float_parts,
    lasso_vertices,
    metric_at,
    metric_value,
    nablaL_residual,
    standard_loops_ref,
    transport_polyline_ref,
    true_L,
    wedge_tags,
)


def realized(blocks, lam=0):
    pair = pair_of(blocks, lam)
    qm = lower_B(pair)
    return pair, qm


def with_true_L(spec):
    """The canonical pair of ``spec`` and its true L."""
    pair = build_canonical(spec)
    return pair, true_L(pair, spec)


def span(qm, pair, loops):
    return holonomy_span(FloatMetric(qm), certificate(pair), r_formal(pair), loops)


def column(rep, key):
    """One field of every sample of a probe report, as an array."""
    return np.array([sample[key] for sample in rep["samples"]])


def flat_metric(pair):
    """The constant metric g0 of ``pair``: B = 0 as an all-zero num over den 1."""
    return QuadraticMetric(pair, np.zeros((pair.n,) * 4, dtype=np.int64), 1)


def fd_christoffel(qm, x, h=1e-5):
    """Independent oracle: central differences of the metric values."""
    n = qm.n
    x = np.asarray(x, float)
    dg = np.empty((n, n, n))
    for p in range(n):
        e = np.zeros(n)
        e[p] = h
        dg[p] = (metric_value(qm, x + e) - metric_value(qm, x - e)) / (2 * h)
    gx = metric_value(qm, x)
    t = np.einsum("isj->sij", dg) + np.einsum("jsi->sij", dg) - dg
    return 0.5 * np.linalg.solve(gx, t.reshape(n, n * n)).reshape(n, n, n)


def fd_curvature_op(qm, a, b, h=1e-5):
    """R(e_a ^ e_b) at 0 by differencing Christoffel symbols (zero at 0)."""
    n = qm.n
    ea = np.zeros(n)
    eb = np.zeros(n)
    ea[a] = h
    eb[b] = h
    dga = (fd_christoffel(qm, ea) - fd_christoffel(qm, -ea)) / (2 * h)
    dgb = (fd_christoffel(qm, eb) - fd_christoffel(qm, -eb)) / (2 * h)
    # R^i_{k ab} = d_a Gamma^i_{bk} - d_b Gamma^i_{ak}
    return dga[:, b, :] - dgb[:, a, :]


# -- christoffel ---------------------------------------------------------------

def test_christoffel_zero_at_origin():
    _, qm = realized([(1, 1), (2, 1)])
    gamma = christoffel(qm, [0.0, 0.0, 0.0])
    assert np.max(np.abs(gamma)) < 1e-15


def test_christoffel_flat_metric():
    flat = flat_metric(pair_of([(2, 1)]))
    gamma = christoffel(flat, [0.3, -0.2])
    assert np.max(np.abs(gamma)) < 1e-15


def test_christoffel_against_finite_differences():
    _, qm = realized([(1, 1), (1, 1)])
    gamma = christoffel(qm, [0.1, 0.0])
    assert np.max(np.abs(gamma - fd_christoffel(qm, [0.1, 0.0]))) < 1e-7


def test_christoffel_symmetric_lower_indices():
    _, qm = realized([(2, 1), (3, -1)])
    gamma = christoffel(qm, [0.05, -0.02, 0.01, 0.03, -0.04])
    assert np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2))) < 1e-15


# -- transport -------------------------------------------------------------------

def test_flat_transport_is_identity():
    flat = FloatMetric(flat_metric(pair_of([(2, 1)])))
    assert flat.bound == 0
    (a,) = transports(flat, loops_of(((0.0, 0.0), (0, 1), 1e-2)))
    assert np.max(np.abs(a - np.eye(2))) < 1e-12


def test_rotation_angle_matches_curvature_oracle():
    # definite 2d case: transport around a small square is a rotation whose
    # angle per unit area equals the sectional curvature at the origin
    _, qm = realized([(1, 1), (1, 1)])
    fm = FloatMetric(qm)
    side = 1e-2
    (a,) = transports(fm, loops_of(((0.0, 0.0), (0, 1), side)))
    theta = math.atan2(a[1, 0], a[0, 0])
    k_oracle = fd_curvature_op(qm, 0, 1)[0, 1]
    assert abs(abs(theta) / side ** 2 - abs(k_oracle)) < 0.01 * abs(k_oracle)


def test_loop_shrinking_consistency():
    pair, qm = realized([(1, 1), (2, 1)])
    fm = FloatMetric(qm)
    norms = {}
    psis = {}
    for side in (1e-2, 5e-3):
        d, *_ = parallel_transport(fm, loops_of(((0.0, 0.0, 0.0), (0, 2), side)))
        (psis[side],) = logarithms(d)
        norms[side] = np.linalg.norm(psis[side]) / side ** 2
    assert abs(norms[1e-2] / norms[5e-3] - 1.0) < 0.05
    # direction matches the certified curvature value up to sign
    rm = r_formal(pair)
    z = rm[wedge_tags(pair.n).index((0, 2))].astype(float)
    psi = psis[5e-3]
    unit_psi = psi / np.linalg.norm(psi)
    unit_z = z / np.linalg.norm(z)
    assert min(np.linalg.norm(unit_psi - unit_z),
               np.linalg.norm(unit_psi + unit_z)) < 1e-3


@pytest.mark.parametrize("n", range(2, 25))
def test_standard_loops_match_reference(n):
    # the arrays hold the loops of the per-loop reference, bit for bit, in
    # its order: planes in lexicographic order, the origin first in each
    for seed in (0, 1, 2):
        got = standard_loops(n, seed=seed)
        want = loops_of(*standard_loops_ref(n, seed=seed))
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_standard_loops_stream_is_pinned():
    # literal corners, so that the code and its reference cannot change
    # generator together; Python keeps random.Random(int).random() fixed
    corners = standard_loops(2, seed=0)[1][1:]
    assert corners.tolist() == [[0.034442185152504814, 0.025795440294030247],
                                [-0.0079428419169155, -0.024108324970703667]]


def test_standard_loops_seed_contract():
    # the seed is a nonnegative integer and never coerced: random.Random
    # would take abs(-1) and hash 1.5 or "3"
    with pytest.raises(ValueError, match="seed"):
        standard_loops(3, seed=-1)
    for bad in (1.5, "3"):
        with pytest.raises(TypeError):
            standard_loops(3, seed=bad)
    for a, b in zip(standard_loops(3, seed=np.int64(3)), standard_loops(3, seed=3), strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    big = 2 ** 200 - 1
    got = standard_loops(3, seed=big)
    want = loops_of(*standard_loops_ref(3, seed=big))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))
    assert (np.abs(got[1]) <= transport.BASEPOINT_NORM).all()
    assert not np.array_equal(got[1], standard_loops(3, seed=3)[1])


@pytest.mark.parametrize("blocks", [[(1, 1), (2, 1)], [(2, 1), (3, -1)], [(1, 1), (1, 1), (2, -1)]],
                         ids=["1+2+", "2+3-", "1+1+2-"])
def test_origin_squares_carry_minus_the_curvature(blocks):
    # Ambrose-Singer at the origin, where Gamma and the curvature's gradient
    # vanish: the square of side h in the plane (a, b), run corner -> +e_a ->
    # +e_b, has log A = -h^2 R0(e_a ^ e_b) + O(h^4), R0 the formal value.
    # The defect is about 7e-5 at h = 1e-2; a square run the other way
    # round flips the sign of every logarithm and gives 2.
    pair, qm = realized(blocks)
    fm = FloatMetric(qm)
    h = 1e-2
    rmap = r_formal(pair).astype(float)
    tags = [tag for tag, value in zip(wedge_tags(pair.n), rmap, strict=True) if value.any()]
    assert tags
    d, *_ = parallel_transport(fm, loops_of(*(((0.0,) * pair.n, tag, h) for tag in tags)))
    values = rmap[[wedge_tags(pair.n).index(tag) for tag in tags]]
    defect = np.max(np.abs(logarithms(d) / h ** 2 + values), axis=(1, 2))
    assert np.max(defect / np.max(np.abs(values), axis=(1, 2))) < 1e-3


def test_transport_membership_and_drift():
    # the report's drift, gathered along g0's involution, is the dense
    # oracle's on the same transports, bit for bit, and the oracle's is
    # rounding, not zero: a zeroed drift would pass the bound.  On the probe
    # specs, the two-eigenvalue specs and n = 24 (its curved planes, as the
    # CLI keeps them)
    cases = [(pair_of([(1, 1), (2, 1)]), 3)]
    cases += [(pair_of(blocks), 0) for _, blocks in PROBE_SPECS]
    cases += [(build_canonical(make_pencil(spec)), 0) for spec in TWO_EIGENVALUE_SPECS]
    cases.append((pair_of(N24_BLOCKS, Fraction(-1, 3)), 0))
    for pair, seed in cases:
        fm = FloatMetric(lower_B(pair))
        loops = standard_loops(pair.n, seed=seed)
        if pair.n == 24:
            curved = {tag for tag, value in zip(wedge_tags(pair.n), r_formal(pair), strict=True)
                      if value.any()}
            loops = loop_rows(loops, in_planes(loops, curved))
        rep = holonomy_span(fm, certificate(pair), r_formal(pair), loops)
        kept = [column(rep, key) for key in ("plane", "basepoint", "side")]
        assert all(np.array_equal(k, given) for k, given in zip(kept, loops, strict=True))
        residuals, drifts = column(rep, "residual"), column(rep, "metric_drift")
        assert len(residuals) == len(drifts) == len(loops[0])
        stack = transports(fm, loops)
        assert np.array_equal(drifts, metric_drift(fm, stack)), pair.block
        assert metric_drift(fm, stack).any(), pair.block
        for a, residual, drift in zip(stack, residuals, drifts):
            assert residual < 1e-6
            assert drift < 1e-8
            assert abs(abs(np.linalg.det(a)) - 1.0) < 1e-9


def _commutation_defect(pair, L, qm, seed=0):
    """The largest |D L - L D|_max / (|D|_max |L|_max) over the standard
    loops' transports I + D that moved (D != 0), for L the pair's true L."""
    l = L.astype(np.float64)
    d = parallel_transport(FloatMetric(qm), standard_loops(pair.n, seed=seed))[0]
    d = d[np.abs(d).max(axis=(1, 2)) > 0]
    defect = np.abs(d @ l - l @ d).max(axis=(1, 2))
    return float((defect / (np.abs(d).max(axis=(1, 2)) * np.abs(l).max())).max())


def test_holonomy_commutes_with_L():
    # L is parallel, so every holonomy matrix commutes with it: on the
    # probe specs and the two-eigenvalue specs the defect is rounding
    specs = [spec_of(blocks, Fraction(-1, 3)) for _, blocks in PROBE_SPECS]
    specs += [make_pencil(spec) for spec in TWO_EIGENVALUE_SPECS]
    for spec in specs:
        pair, L = with_true_L(spec)
        qm = lower_B(pair)
        assert _commutation_defect(pair, L, qm) < 1e-12, spec
    # negative control: one coefficient of B and its symmetric partner
    # raised by 1 breaks nabla L = 0 yet leaves g0 g(x) upper triangular,
    # so the probe accepts the metric; its holonomy does not commute with L
    pair, L = with_true_L(spec_of([(2, 1), (3, 1)]))
    qm = lower_B(pair)
    num = qm.num.copy()
    num[0, 1, 0, 0] += 1
    num[1, 0, 0, 0] += 1
    bad = QuadraticMetric(qm.pair, num, qm.den)
    assert check_nablaL(bad) is not None
    assert _commutation_defect(pair, L, bad) > 0.5


def test_span_checks_the_loop_family_once(monkeypatch):
    calls = []
    checked = transport._checked

    def spy(loops, n):
        calls.append(n)
        return checked(loops, n)

    monkeypatch.setattr(transport, "_checked", spy)
    pair, qm = realized([(1, 1), (2, 1)])
    rep = holonomy_span(FloatMetric(qm), certificate(pair), r_formal(pair),
                        standard_loops(3, seed=1))
    assert calls == [3] and rep["passed"]


def test_transport_hands_back_the_checked_family():
    # the transport returns the family it checked, int basepoints as
    # float64, and the span reports those arrays without converting again
    pair, qm = realized([(1, 1), (2, 1)])
    fm = FloatMetric(qm)
    loops = (np.array([[0, 1], [1, 2]]), np.zeros((2, 3), dtype=np.int64), np.full(2, 1e-2))
    *_, checked = parallel_transport(fm, loops)
    assert [a.dtype for a in checked] == [np.int64, np.float64, np.float64]
    assert all(np.array_equal(a, b) for a, b in zip(checked, loops))
    rep = holonomy_span(fm, certificate(pair), r_formal(pair), loops)
    assert all(type(v) is float for v in rep["samples"][0]["basepoint"])
    assert rep["samples"][0]["basepoint"] == [0.0, 0.0, 0.0]


def test_loopspec_validation():
    # a loop family is three aligned arrays, refused (never coerced) unless
    # each is an ndarray of the right kind: np.asarray([(True, 2)]) would
    # silently be the plane (1, 2)
    _, qm = realized([(1, 1), (2, 1)])
    fm = FloatMetric(qm)
    one = np.array([[0, 1]])
    origin = np.zeros((1, 1))
    side = np.array([1e-2])
    # a plane is two distinct nonnegative ints: a float is no index, a bool
    # is not an int, nor is a str
    for planes in [np.array([[1, 1]]), np.array([[0.5, 1]]), np.array([[0, 1.0]]),
                   np.array([[True, False]]), np.array([["0", "1"]]), [(True, 2)],
                   np.array([[-1, 1]]), np.array([[0, 1, 2]])]:
        with pytest.raises(ValueError, match="plane must be two distinct nonnegative indices"):
            parallel_transport(fm, (planes, origin, side))
    with pytest.raises(ValueError, match="plane indices exceed the dimension"):
        parallel_transport(fm, (np.array([[0, 3]]), origin, side))
    for sides in (np.array([-1.0]), np.array([0.0]), np.array([math.inf]), np.array([math.nan])):
        with pytest.raises(ValueError, match="side must be positive and finite"):
            parallel_transport(fm, (one, origin, sides))
    with pytest.raises(ValueError, match="basepoint coordinates must be finite"):
        parallel_transport(fm, (one, np.array([[0.0, math.nan]]), side))
    # a side or a coordinate is a real number that a float holds: a bool is
    # not a number, a str is not one, and 10**400 (an object array) overflows
    # a float
    for sides in (np.array([True]), np.array(["1"]), np.array([10 ** 400]), [1e-2]):
        with pytest.raises(ValueError, match="side must be positive and finite"):
            parallel_transport(fm, (one, origin, sides))
    for basepoints in [np.array([[True, False]]), np.array([["1", "0"]]),
                       np.array([[0.0, 10 ** 400]]), [(0.0, 0.0)]]:
        with pytest.raises(ValueError, match="basepoint coordinates must be finite"):
            parallel_transport(fm, (one, basepoints, side))
    with pytest.raises(ValueError, match="side must be positive and finite"):
        parallel_transport(fm, (one, np.array([[True, False]]), np.array([True])))
    # the arrays hold one row per loop
    for loops in [(one, np.zeros((2, 3)), side), (one, origin, np.full(2, 1e-2)),
                  (one, np.zeros(3), side)]:
        with pytest.raises(ValueError, match=r"are not \(L, 2\), \(L, k\) and \(L,\)"):
            parallel_transport(fm, loops)
    # ints are numbers, taken as floats (a side of 1 needs the flat metric's
    # infinite radius)
    ints = (one, np.zeros((1, 2), dtype=int), np.ones(1, dtype=int))
    flat = FloatMetric(flat_metric(qm.pair))
    rep = holonomy_span(flat, certificate(qm.pair), r_formal(qm.pair), ints)
    sample = rep["samples"][0]
    assert type(sample["side"]) is float and all(type(v) is float for v in sample["basepoint"])
    with pytest.raises(ValueError, match="4 coordinates, more than the dimension 3"):
        parallel_transport(fm, (np.array([[0, 1], [0, 1]]), np.zeros((2, 4)), np.full(2, 1e-2)))
    # finite input whose corner overflows is refused by the bound, with its message
    with np.errstate(over="ignore"), pytest.raises(SingularMetricError, match="extent"):
        parallel_transport(fm, loops_of(((1e308, 0.0), (0, 1), 1e308)))


def test_singular_metric_detected():
    # the definite 2d metric (1 - |x|^2/2) I degenerates at |x|^2 = 2; park a
    # loop corner right on the degeneracy
    _, qm = realized([(1, 1), (1, 1)])
    fm = FloatMetric(qm)
    bad = loops_of(((math.sqrt(2.0), 0.0), (0, 1), 1e-2))
    with pytest.raises(SingularMetricError):
        parallel_transport(fm, bad)



def test_a_diverged_transport_is_refused(monkeypatch):
    # negative control for the divergence check: the kernel's square run of
    # one loop comes back non-finite, as from a metric that degenerates
    # inside a certified loop; transport and span both refuse it
    pair, qm = realized([(1, 1), (2, 1)])
    loops = standard_loops(pair.n, seed=0)
    real = kernels.transport_polyline

    def diverged(*args):
        runs = real(*args)
        runs[0, 1, 0, 0] = np.nan
        return runs

    monkeypatch.setattr(kernels, "transport_polyline", diverged)
    with pytest.raises(SingularMetricError, match="transport diverged"):
        parallel_transport(FloatMetric(qm), loops)
    with pytest.raises(SingularMetricError, match="transport diverged"):
        span(qm, pair, loops)

# -- span reports -----------------------------------------------------------------

def test_span_flat_single_block():
    pair, qm = realized([(3, 1)])
    rep = span(qm, pair, standard_loops(3, seed=0))
    assert rep["span_rank"] == 0 and rep["dim_gL"] == 0 and rep["passed"]
    assert rep["singular_values"] == []
    # strict JSON has no Infinity; a constant metric has an infinite radius
    doc = span(flat_metric(pair), pair, standard_loops(3, seed=0))
    assert "sv_gap" not in doc and doc["singular_values"] == [] and doc["validity_radius"] is None


def test_span_blocks_1_2():
    pair, qm = realized([(1, 1), (2, 1)])
    rep = span(qm, pair, standard_loops(3, seed=0))
    assert rep["span_rank"] == 1 == rep["dim_gL"]
    assert rep["max_membership_residual"] < 1e-6
    assert rep["passed"]


def test_span_blocks_1_1_2():
    pair, qm = realized([(1, 1), (1, 1), (2, 1)])
    rep = span(qm, pair, standard_loops(4, seed=0))
    assert rep["span_rank"] == 3 == rep["dim_gL"]
    assert rep["passed"]


def test_span_fails_with_a_failing_certificate():
    # negative control: the basis is g_L only when the certificate passed.
    # Here only Bianchi fails: the image is still g_L, so the samples match it.
    pair, qm = realized([(1, 1), (2, 1)])
    rm = r_formal(pair)
    tags = wedge_tags(pair.n)
    vals = rm.copy()
    vals[tags.index((0, 1))] = vals[tags.index((0, 2))]
    bad = berger_certificate(pair, vals)
    assert bad["bianchi_witness"] is not None and bad["containment_witness"] is None
    assert bad["image_rank"] == bad["dim_gL"]
    rep = holonomy_span(FloatMetric(qm), bad, vals, standard_loops(3, seed=0))
    assert rep["span_rank"] == 1 == rep["dim_gL"] and rep["max_membership_residual"] < 1e-6
    assert not rep["passed"]


def test_span_fails_when_the_samples_outrank_dim_gL():
    # negative control for the rank verdict: a certificate that passes its
    # own checks but claims one dimension fewer, with its full basis kept.
    # The samples stay in the span and have rank dim + 1, so the report fails.
    pair, qm = realized([(2, 1), (3, -1)])
    cert = certificate(pair)
    low = {**cert, "dim_gL": cert["dim_gL"] - 1, "image_rank": cert["image_rank"] - 1}
    assert low["passed"] and len(low["witnesses"]) == cert["dim_gL"] == 2
    rep = span(qm, pair, standard_loops(5, seed=0))
    assert rep["span_rank"] == 2 and rep["passed"]
    rep = holonomy_span(FloatMetric(qm), low, r_formal(pair), standard_loops(5, seed=0))
    assert rep["span_rank"] == 2 == rep["dim_gL"] + 1 and rep["max_membership_residual"] < 1e-6
    assert not rep["passed"]
    # down to dim 0: the one curved direction is more than it allows
    pair, qm = realized([(1, 1), (2, 1)])
    cert = certificate(pair)
    none = {**cert, "dim_gL": 0, "image_rank": 0}
    rep = holonomy_span(FloatMetric(qm), none, r_formal(pair), standard_loops(3, seed=0))
    assert rep["span_rank"] == 1 and not rep["passed"]


@pytest.mark.parametrize("spec", [[(0, [(3, 1)])], [(1, [(1, 1)]), (2, [(2, -1)])]],
                         ids=["3+", "1+;2-"])
def test_span_with_dim_gL_0_reads_an_empty_basis_and_passes(spec, monkeypatch):
    # no witness: the g_L basis has no row, and every sample is flat.  The
    # membership test is a projection: no least-squares solve runs
    pair = build_canonical(make_pencil(spec))
    rmap = r_formal(pair)
    cert = berger_certificate(pair, rmap)
    assert cert["dim_gL"] == 0 and cert["witnesses"] == [] and cert["passed"]
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: pytest.fail("lstsq ran"))
    rep = holonomy_span(FloatMetric(lower_B(pair)), cert, rmap, standard_loops(pair.n, seed=0))
    assert rep["span_rank"] == rep["dim_gL"] == 0 and rep["passed"]
    assert len(rep["samples"]) == 9 and rep["max_membership_residual"] == 0.0
    # the basis is empty: under a curved metric of the same dimension, the
    # three loops in its one curved plane keep their whole norm, residual 1,
    # and the six in its flat planes are zero samples
    _, qm = realized([(1, 1), (2, 1)])
    rep = holonomy_span(FloatMetric(qm), cert, rmap, standard_loops(pair.n, seed=0))
    assert sorted(column(rep, "residual")) == [0.0] * 6 + [1.0] * 3
    assert rep["span_rank"] == 1 and not rep["passed"]


def test_span_refuses_witness_rows_that_share_an_entry(monkeypatch):
    # negative control for the support check: one witness row replaced by
    # the sum of the other two, so the rows are not orthogonal.  The probe
    # refuses them before any transport, naming the first entry two share
    pair, qm = realized([(1, 1), (1, 1), (2, 1)])
    rmap = r_formal(pair)
    cert = berger_certificate(pair, rmap)
    assert cert["passed"] and len(cert["witnesses"]) == 3
    _, b1, b2 = witness_values(cert, rmap)
    bad = rmap.copy()
    bad[wedge_tags(pair.n).index(tuple(cert["witnesses"][0]))] = b1 + b2
    first = next((r, c) for r in range(pair.n) for c in range(pair.n) if b1[r, c] or b2[r, c])
    monkeypatch.setattr(kernels, "transport_polyline", lambda *args: pytest.fail("transported"))
    with pytest.raises(ValueError, match=re.escape(f"witness rows share the entry {first}")):
        holonomy_span(FloatMetric(qm), cert, bad, standard_loops(pair.n, seed=0))


def test_membership_detects_a_dropped_basis_element():
    # negative control: with one of the three g_L basis elements dropped, the
    # samples along it leave the span; the projection gives each sample the
    # residual of its own least-squares solve, the oracle here
    pair, qm = realized([(1, 1), (1, 1), (2, 1)])
    rmap = r_formal(pair)
    cert = berger_certificate(pair, rmap)
    short = {**cert, "witnesses": cert["witnesses"][1:]}
    assert short["passed"] and short["dim_gL"] == 3
    fm = FloatMetric(qm)
    loops = standard_loops(4, seed=0)
    rep = holonomy_span(fm, short, rmap, loops)
    assert rep["span_rank"] == 3 and not rep["passed"]
    assert rep["max_membership_residual"] > 0.1 and min(column(rep, "residual")) < 1e-6
    gl = witness_values(short, rmap).astype(float).reshape(2, -1).T
    d, *_ = parallel_transport(fm, loops)
    for psi, residual in zip(logarithms(d).reshape(len(d), -1), column(rep, "residual")):
        norm = np.linalg.norm(psi)
        if norm < transport._NEGLIGIBLE:  # a flat plane: a zero sample
            assert residual == 0.0
            continue
        want = np.linalg.norm(psi - gl @ np.linalg.lstsq(gl, psi, rcond=None)[0]) / norm
        assert abs(residual - want) < 1e-12


def test_span_report_json():
    pair, qm = realized([(1, 1), (2, -1)])
    doc = span(qm, pair, standard_loops(3, seed=0))
    assert doc["span_rank"] == doc["dim_gL"] == 1
    assert doc["passed"] is True
    assert len(doc["samples"]) == 9
    assert {"plane", "side", "basepoint", "residual", "metric_drift",
            "step_error"} <= set(doc["samples"][0])
    assert doc["max_step_error"] == max(d["step_error"] for d in doc["samples"]) <= 1e-13
    assert all(type(v) is float for v in doc["singular_values"]) and len(doc["singular_values"]) >= 1
    assert doc["validity_radius"] == validity_radius(invertibility_bound(qm))
    assert doc["max_loop_extent"] == max(parallel_transport(FloatMetric(qm), standard_loops(3, seed=0))[2])
    assert 0.0 < doc["max_loop_extent"] < doc["validity_radius"]
    assert all(0.0 <= d["metric_drift"] < 1e-8 for d in doc["samples"])


# -- covariant constancy -------------------------------------------------------------

def test_nablaL_residual_origin_and_nearby():
    pair, L = with_true_L(spec_of([(2, 1), (2, -1)]))
    qm = lower_B(pair)
    assert nablaL_residual(qm, L, [0.0] * 4) < 1e-15
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(-0.05, 0.05, 4)
        assert nablaL_residual(qm, L, x) < 1e-9


def test_nablaL_residual_detects_corruption():
    pair, L = with_true_L(spec_of([(1, 1), (2, 1)]))
    qm = lower_B(pair)
    bad_num = 4 * qm.num
    bad_num[0, 0, 1, 1] += qm.den  # B[0, 0, 1, 1] += 1/4
    bad = QuadraticMetric(qm.pair, bad_num, 4 * qm.den)
    assert nablaL_residual(bad, L, [0.05, 0.02, -0.03]) > 1e-3


def test_metric_value_matches_exact():
    _, qm = realized([(1, 1), (2, 1)])
    x = [Fraction(1, 20), Fraction(-1, 50), Fraction(1, 100)]
    exact = metric_at(qm, x)
    approx = metric_value(qm, [float(v) for v in x])
    assert np.max(np.abs(approx - exact.astype(float))) < 1e-15


# -- batched kernel against the sequential reference -----------------------------------

def ref_transport(qm, loop, steps=None):
    """The one loop of the family ``loop`` through the sequential reference
    kernel at ``steps`` per segment (default: the probe's), along the full
    lasso out, around and back; segments of length 0 (an origin square's
    tails) are dropped, which leaves the path unchanged."""
    verts = lasso_vertices(loop, qm.n)[0]
    keep = np.any(verts[1:] != verts[:-1], axis=1)
    return transport_polyline_ref(*float_parts(qm), verts[np.concatenate([[True], keep])],
                                  [steps or transport.STEPS] * int(keep.sum()))


@pytest.mark.parametrize("blocks", [b for _, b in PROBE_SPECS], ids=[n for n, _ in PROBE_SPECS])
def test_batched_kernel_matches_reference(blocks):
    pair, qm = realized(blocks)
    fm = FloatMetric(qm)
    seen = set()
    for seed in (0, 1):
        loops = standard_loops(pair.n, seed=seed)
        planes, basepoints, _ = loops
        for i, a in enumerate(transports(fm, loops)):
            key = (tuple(basepoints[i].tolist()), tuple(planes[i].tolist()))
            if key in seen:  # origin squares repeat across seeds
                continue
            seen.add(key)
            assert np.max(np.abs(a - ref_transport(qm, loop_rows(loops, i)))) <= 1e-12


def count_segments(monkeypatch) -> list:
    """Spy on ``kernels.segment_gamma``: the returned list gets the number of
    segment rows of each call."""
    rows = []
    segment_gamma = kernels.segment_gamma

    def spy(G, R, s):
        rows.append(G.shape[-1])
        return segment_gamma(G, R, s)

    monkeypatch.setattr(kernels, "segment_gamma", spy)
    return rows


@pytest.mark.parametrize("n, blocks, distinct", [
    (3, [(1, 1), (2, 1)], 39),
    (4, [(1, 1), (1, 1), (2, 1)], 63),
    (5, [(2, 1), (3, -1)], 93),
])
def test_each_distinct_segment_is_integrated_once(n, blocks, distinct, monkeypatch):
    # 3 C(n, 2) squares of 4 segments and as many tails of 4 pieces; per
    # basepoint the n - 1 first edges (planes (a, .)) and the n - 1 last
    # edges (planes (., b)) are shared, each off-origin corner's 4 tail
    # pieces are shared, and the origin's tail pieces are one segment of
    # length 0: 3 (n - 1)(n + 2) + 2 * 4 + 1 distinct
    fm = FloatMetric(realized(blocks)[1])
    rows = count_segments(monkeypatch)
    parallel_transport(fm, standard_loops(n))
    assert sum(rows) == distinct == 3 * (n - 1) * (n + 2) + 9


def test_mixed_batch_equals_solo_calls(monkeypatch):
    # origin squares and lassos of two sides in one call at one step count,
    # which the kernel integrates in several segment batches of unequal
    # sizes, the last one smaller (100 steps per segment make the node
    # arrays large); the first two pieces of the tail to (0.04, 0, 0, 0) are
    # the first edges of two squares in other positions: the origin square
    # in plane (0, 1) and the square at (0.01, 0, 0, 0) in plane (0, 2)
    monkeypatch.setattr(transport, "STEPS", 100)
    _, qm = realized([(1, 1), (1, 1), (2, 1)])
    fm = FloatMetric(qm)
    loops = joined(loops_of(((0.0,) * 4, (0, 1), 1e-2),
                            ((0.02, 0.0, 0.0, 0.0), (1, 3), 1e-2),
                            ((0.0,) * 4, (2, 3), 1e-2),
                            ((0.05, -0.05, 0.0, 0.0), (0, 2), 1e-2),
                            ((0.0, 0.11, 0.0, 0.0), (1, 2), 5e-3),
                            ((0.0,) * 4, (1, 3), 5e-3),
                            ((1e-2, 0.0, 0.0, 0.0), (0, 2), 1e-2),
                            ((0.04, 0.0, 0.0, 0.0), (1, 3), 1e-2),
                            ((0.0, 0.0, -0.03, 0.0), (0, 1), 1e-2)),
                   standard_loops(4, seed=2))
    count = len(loops[0])
    rows = count_segments(monkeypatch)
    d, step_error, extent, _ = parallel_transport(fm, loops)
    per_batch = kernels.NODE_BUDGET // ((2 * 100 + 1) * 4 ** 2)  # nodes, n^2
    assert d.shape == (count, 4, 4) and step_error.shape == extent.shape == (count,)
    assert len(rows) > 1 and max(rows) <= per_batch
    assert sum(rows) % len(rows)  # the last batch is smaller
    # the distinct segments of the squares and of the tails, the origin's
    # tails of length 0 among them
    segments = {(tuple(p), tuple(q - p)) for polyline in transport._polylines(loops, 4)
                for p, q in zip(polyline[:-1], polyline[1:])}
    assert sum(rows) == len(segments)
    for i in range(count):
        d_solo, step_error_solo, extent_solo, _ = parallel_transport(fm, loop_rows(loops, i))
        assert np.array_equal(d[i:i + 1], d_solo)
        assert np.array_equal(step_error[i:i + 1], step_error_solo)
        assert np.array_equal(extent[i:i + 1], extent_solo)


@pytest.mark.parametrize("blocks", [[(2, 1), (3, -1)], [(1, 1), (1, 1), (2, 1), (2, 1), (2, -1)]],
                         ids=["n5", "n8"])
def test_polyline_order_leaves_every_bit(blocks):
    # the polylines of a probe call permuted, some of them twice: each
    # polyline's two increments are the unpermuted call's to the bit.  At
    # n = 8 a segment's bits depend on its column in the batch GEMMs, so
    # this holds only because the distinct segments are numbered by their
    # keys, not by where the polylines first show them
    fm = FloatMetric(realized(blocks)[1])
    verts = transport._polylines(standard_loops(fm.n, seed=1), fm.n)
    d = kernels.transport_polyline(fm.mats, verts, transport.STEPS)
    order = np.random.default_rng(3).permutation(len(verts))
    order = np.concatenate([order, order[:len(order) // 4]])
    permuted = kernels.transport_polyline(fm.mats, verts[order], transport.STEPS)
    assert permuted.shape == (2, len(order), fm.n, fm.n)
    assert np.array_equal(permuted, d[:, order])


def test_segment_gamma_matches_christoffel():
    rng = np.random.default_rng(5)
    for _, blocks in PROBE_SPECS:
        _, qm = realized(blocks)
        fm = FloatMetric(qm)
        n = fm.n
        a = rng.uniform(-0.2, 0.2, (3, n))
        v = rng.uniform(-0.2, 0.2, (3, n))
        s = rng.uniform(0.0, 1.0, 4)
        G, R = kernels.segment_terms(fm.mats, a, v)
        m = kernels.segment_gamma(G, R, s)
        assert m.shape == (n, n, 3, 4)
        for i, k in np.ndindex(3, 4):
            want = np.einsum("abc,b->ac", christoffel(qm, a[i] + s[k] * v[i]), v[i])
            assert np.max(np.abs(m[:, :, i, k] - want)) <= 1e-12


def test_raised_metric_is_upper_triangular():
    # g0 B(x, x) = -1/2 sum ((g0 x)^T J_j^s x) J_i^a is a sum of powers of
    # upper shifts, so the raised tensor g0 B vanishes at every i > j; the
    # oracle raises by a matrix product, not by the involution's gather
    pairs = [build_canonical(pencil_from_json(doc)) for _, doc in iter_corpus_specs(7)]
    pairs += [build_canonical(make_pencil(spec)) for spec in TWO_EIGENVALUE_SPECS]
    pairs.append(pair_of(N24_BLOCKS, Fraction(-1, 3)))
    assert len(pairs) == 126 + len(TWO_EIGENVALUE_SPECS) + 1
    for pair in pairs:
        qm = lower_B(pair)
        raised = np.einsum("is,sjpq->ijpq", dense_g(pair.involution), qm.num)
        rows, cols = np.tril_indices(pair.n, -1)
        assert not raised[rows, cols].any(), pair.block
        fm = FloatMetric(qm)
        assert np.array_equal(fm.mats[0].reshape((pair.n,) * 4), raised / qm.den)


def test_kernel_matrices_are_the_cast_of_the_exact_raised_pair():
    # the probe forms no Christoffel combination of its own: its matrices
    # are the exact pair cast once, bit for bit the float64 formula
    pairs = [build_canonical(pencil_from_json(doc)) for _, doc in iter_corpus_specs(7)]
    pairs += [build_canonical(make_pencil(spec)) for spec in TWO_EIGENVALUE_SPECS]
    pairs += [pair_of(N24_BLOCKS, Fraction(-1, 3)), pair_of(ONES24_BLOCKS)]
    assert len(pairs) == 126 + len(TWO_EIGENVALUE_SPECS) + 2
    for pair in pairs:
        qm = lower_B(pair)
        assert qm.raised.dtype == np.int64
        mats, ref = FloatMetric(qm).mats, contraction_matrices_ref(qm)
        assert mats.shape == ref.shape and mats.tobytes() == ref.tobytes(), pair.block


def test_metric_that_is_not_upper_triangular_is_refused():
    # negative control: one entry of g0 B below the diagonal, (i, j) = (2, 1),
    # is refused by name; the same value above the diagonal is accepted
    # (B shifted by 1/4 exactly: 2 num, plus or minus 1 there, over 4)
    _, qm = realized([(1, 1), (2, 1)])
    perm, sign = qm.pair.involution
    upper = 2 * qm.num
    upper[perm[1], 2, 0, 1] += 1
    FloatMetric(QuadraticMetric(qm.pair, upper, 2 * qm.den))
    lower = 2 * qm.num
    lower[perm[2], 1, 0, 1] += sign[2]
    lower[perm[2], 1, 1, 0] += sign[2]
    with pytest.raises(ValueError, match=re.escape("below the diagonal at (2, 1, 0, 1)")):
        FloatMetric(QuadraticMetric(qm.pair, lower, 2 * qm.den))


def test_kernel_rejects_bad_step_counts():
    _, qm = realized([(1, 1), (2, 1)])
    fm = FloatMetric(qm)
    verts = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [0.01, 0.01, 0.0]]])
    for bad in (17, 1,           # odd: no N/2-step run
                0, -2, -16,
                [16, 16, 16]):   # one count per call, not per segment
        with pytest.raises(ValueError, match="even int of at least 2"):
            kernels.transport_polyline(fm.mats, verts, bad)
    with pytest.raises(ValueError, match="loops >= 1"):
        kernels.transport_polyline(fm.mats, verts[:0], 16)
    # the N-step and N/2-step runs; a segment of length 0 is the identity,
    # with no special case: v = 0 makes its increment exactly 0
    runs = kernels.transport_polyline(fm.mats, verts, 16)
    assert runs.shape == (2, 1, 3, 3)
    assert np.array_equal(runs, kernels.transport_polyline(fm.mats, verts[:, 1:], 16))
    assert not kernels.transport_polyline(fm.mats, verts[:, :2], 16).any()
    assert 0.0 < np.max(np.abs(runs[0] - runs[1])) / 15.0 < 1e-15


# -- flat planes --------------------------------------------------------------------

def in_planes(loops, tags) -> np.ndarray:
    """The mask of the loops whose plane (a, b) is one of ``tags``."""
    return np.array([tuple(plane) in tags for plane in loops[0].tolist()], dtype=bool)


# The probe specs plus two with two eigenvalues (n = 8 and n = 7), each a
# list of (eigenvalue, [(size, sign), ...]).
FLATNESS_SPECS = [(name, [(0, blocks)]) for name, blocks in PROBE_SPECS] + [
    ("-1: 1-3 +-; 2: 2-2 ++", [(-1, [(1, 1), (3, -1)]), (2, [(2, 1), (2, 1)])]),
    ("1/2: 2-2 +-; -3: 1-2 ++", [(Fraction(1, 2), [(2, 1), (2, -1)]), (-3, [(1, 1), (2, 1)])]),
]


@pytest.mark.parametrize("eigenvalues", [e for _, e in FLATNESS_SPECS],
                         ids=[name for name, _ in FLATNESS_SPECS])
def test_loops_in_flat_planes_transport_to_the_identity(eigenvalues):
    """The CLI probe skips the coordinate planes whose formal value
    R0(e_a ^ e_b) is exactly zero.  This is the evidence that nothing is
    lost: every standard loop in such a plane, at the origin and at the
    seeded corners, transports to the identity to rounding, while every
    loop in a curved plane moves by about side^2.  Zero curvature at the
    origin alone would not imply this (the off-origin squares sit where
    the curvature differs from R0), so it is checked by transport."""
    pair = build_canonical(make_pencil([(Fraction(lam), blocks) for lam, blocks in eigenvalues]))
    rmap = r_formal(pair)
    flat = {tag for tag, value in zip(wedge_tags(pair.n), rmap, strict=True) if not value.any()}
    assert 0 < len(flat) < len(rmap)
    fm = FloatMetric(lower_B(pair))
    loops = standard_loops(pair.n, seed=0)
    moved = np.max(np.abs(transports(fm, loops) - np.eye(pair.n)), axis=(1, 2))
    in_flat = in_planes(loops, flat)
    assert moved[in_flat].max() <= 1e-15
    assert moved[~in_flat].min() >= 1e-5


def test_far_flat_plane_loops_come_back_along_the_exact_inverse_of_the_tail():
    """The way back along a lasso's tail is the exact inverse of the way
    out, so a flat-plane square at corner 0.2 in every coordinate, four
    times the seeded corners' reach, still transports to the identity to
    rounding (at most 5.2e-16 here).  A tail integrated back by RK4 as its
    own polyline leaves its truncation error there: 2.1e-11 on 2-2 ++."""
    for _, eigenvalues in FLATNESS_SPECS:
        pair = build_canonical(make_pencil([(Fraction(lam), bl) for lam, bl in eigenvalues]))
        flat = [tag for tag, value in zip(wedge_tags(pair.n), r_formal(pair), strict=True)
                if not value.any()]
        loops = loops_of(*[((0.2,) * pair.n, plane, transport.SIDE) for plane in flat])
        moved = transports(FloatMetric(lower_B(pair)), loops) - np.eye(pair.n)
        assert np.abs(moved).max() <= 1e-15, eigenvalues


# -- the exact path bound ---------------------------------------------------------------

def test_exact_bound_certifies_standard_loops():
    for _, blocks in PROBE_SPECS:
        pair, qm = realized(blocks)
        fm = FloatMetric(qm)
        radius = validity_radius(fm.bound)
        for seed in (0, 1):
            loops = standard_loops(pair.n, seed=seed)
            verts = lasso_vertices(loops, pair.n)
            for extent in np.max(np.abs(verts), axis=(1, 2)).tolist():
                assert extent < radius and fm.certifies(extent)
            d, _, extents, _ = parallel_transport(fm, loops)
            assert len(d) == len(loops[0]) and extents.max() < radius


def test_singular_lasso_fails_bound_and_is_refused():
    _, qm = realized([(1, 1), (1, 1)])
    fm = FloatMetric(qm)
    assert fm.bound == 1  # g(x) = (1 - |x|^2 / 2) I: radius 1, singular at |x|^2 = 2
    bad = loops_of(((math.sqrt(2.0), 0.0), (0, 1), 1e-2))
    assert not fm.certifies(math.sqrt(2.0) + 1e-2)
    with pytest.raises(SingularMetricError, match="not certified regular"):
        parallel_transport(fm, bad)


def test_regular_loop_beyond_radius_is_refused(monkeypatch):
    # the metric is regular on both loops (|x|^2 < 2), but only the first
    # lies inside the certified radius 1; the second is refused, naming the
    # loop, its extent and the radius.  Near the radius the 1e-8 drift
    # bound needs more steps per segment than the probe's STEPS.
    monkeypatch.setattr(transport, "STEPS", 100)
    _, qm = realized([(1, 1), (1, 1)])
    fm = FloatMetric(qm)
    inside = loops_of(((0.98, 0.0), (0, 1), 1e-2))    # extent 0.99
    beyond = loops_of(((0.995, 0.0), (0, 1), 1e-2))   # extent 1.005
    a = transports(fm, inside)
    assert np.isfinite(a).all()
    assert metric_drift(fm, a)[0] < 1e-8
    assert abs(abs(np.linalg.det(a[0])) - 1.0) < 1e-9
    with pytest.raises(SingularMetricError) as info:
        parallel_transport(fm, beyond)
    message = str(info.value)
    assert "plane (0, 1)" in message and "[0.995, 0.0]" in message
    assert "1.005" in message and "radius 1.0" in message


def test_batch_with_one_singular_loop_raises_before_transport(monkeypatch):
    pair, qm = realized([(1, 1), (1, 1)])
    fm = FloatMetric(qm)
    kernel_calls = []
    monkeypatch.setattr(kernels, "transport_polyline",
                        lambda *args: kernel_calls.append(args))
    loops = joined(standard_loops(2, seed=0), loops_of(((math.sqrt(2.0), 0.0), (0, 1), 1e-2)))
    with pytest.raises(SingularMetricError):
        parallel_transport(fm, loops)
    with pytest.raises(SingularMetricError):
        holonomy_span(fm, certificate(pair), r_formal(pair), loops)
    assert kernel_calls == []


# -- the step-doubling error estimate --------------------------------------------------------

def test_step_error_estimate_tracks_true_error(monkeypatch):
    # negative control: per spec, one deliberately coarse origin square
    # (side 0.3, 16 steps, pinned here whatever the probe's step count) and
    # two coarse off-origin lassos at the probe's own STEPS, with corner
    # 0.05 in every coordinate and side 0.3, and with corner 0.35 and side
    # 0.05, where the tail's share of the error is the larger (an estimate
    # from the square alone fails 5 of the 8 specs there); each estimate
    # must see its error, within 2x of the error against a 400-step run of
    # the reference kernel along the full lasso
    for corner, side, steps in ((0.0, 0.3, 16), (0.05, 0.3, transport.STEPS),
                                (0.35, 0.05, transport.STEPS)):
        monkeypatch.setattr(transport, "STEPS", steps)
        for _, blocks in PROBE_SPECS:
            pair, qm = realized(blocks)
            n = pair.n
            coarse = loops_of(((corner,) * n, (0, n - 1), side))
            (d,), (step_error,), *_ = parallel_transport(FloatMetric(qm), coarse)
            true = float(np.max(np.abs(d + np.eye(n) - ref_transport(qm, coarse, 400))))
            assert step_error > 1e-12
            assert 0.5 < step_error / true < 2.0, (corner, side, blocks, step_error / true)


def test_step_count_is_the_fewest_that_keeps_the_bounds(monkeypatch):
    # STEPS is measured, not guessed: at STEPS every flat-plane loop of
    # FLATNESS_SPECS stays within 1e-15 of the identity and the step-error
    # estimate of every curved-plane loop of the probe specs within CI's
    # 1e-13, both at seeds 0-2, and the kernel takes no fewer steps
    flat_runs, curved_runs = [], []
    for _, eigenvalues in FLATNESS_SPECS:
        pair = build_canonical(make_pencil([(Fraction(lam), bl) for lam, bl in eigenvalues]))
        rmap = r_formal(pair)
        curved = {tag for tag, value in zip(wedge_tags(pair.n), rmap, strict=True) if value.any()}
        fm = FloatMetric(lower_B(pair))
        for loops in (standard_loops(pair.n, seed=seed) for seed in (0, 1, 2)):
            flat_runs.append((fm, loop_rows(loops, ~in_planes(loops, curved))))
            if len(eigenvalues) == 1:  # a probe spec
                curved_runs.append((fm, loop_rows(loops, in_planes(loops, curved))))

    moved = max(float(np.max(np.abs(a - np.eye(fm.n))))
                for fm, loops in flat_runs for a in transports(fm, loops))
    step_error = max(float(e) for fm, loops in curved_runs for e in parallel_transport(fm, loops)[1])
    assert moved <= 1e-15 and step_error <= 1e-13, (moved, step_error)
    fm, loops = flat_runs[0]
    with pytest.raises(ValueError, match="even int of at least 2"):
        kernels.transport_polyline(fm.mats, lasso_vertices(loops, fm.n), transport.STEPS - 2)
    # negative control: the same flat-plane loops as single lassos, each tail
    # integrated out and back as two RK4 runs that do not cancel, through the
    # same kernel at STEPS, break the flat-plane bound
    moved = max(float(np.max(np.abs(kernels.transport_polyline(
        fm.mats, lasso_vertices(loops, fm.n), transport.STEPS)[0]))) for fm, loops in flat_runs)
    assert moved > 1e-15, moved
