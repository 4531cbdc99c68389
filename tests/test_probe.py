"""Numerical probe: Christoffel symbols, loop transport, holonomy span."""

import math
from fractions import Fraction

import numpy as np
import pytest

from holonomy import build_B, centralizer_basis, lower_B, r_formal
from holonomy.probe import (
    FloatMetric,
    LoopSpec,
    SingularMetricError,
    holonomy_span,
    parallel_transport,
    standard_loops,
)
from holonomy.probe import kernels

from helpers import pair_of
from oracles import christoffel, metric_at, metric_value, nablaL_residual


def realized(blocks, lam=0):
    pair = pair_of(blocks, lam)
    qm = lower_B(build_B(pair), pair.g)
    return pair, qm


def span(qm, pair, loops):
    return holonomy_span(FloatMetric.from_exact(qm), centralizer_basis(pair), loops)


def fd_christoffel(fm, x, h=1e-5):
    """Independent oracle: central differences of the metric values."""
    n = fm.n
    x = np.asarray(x, float)
    dg = np.empty((n, n, n))
    for p in range(n):
        e = np.zeros(n)
        e[p] = h
        dg[p] = (kernels.metric_value(fm.g0, fm.B, x + e)
                 - kernels.metric_value(fm.g0, fm.B, x - e)) / (2 * h)
    gx = kernels.metric_value(fm.g0, fm.B, x)
    t = np.einsum("isj->sij", dg) + np.einsum("jsi->sij", dg) - dg
    return 0.5 * np.linalg.solve(gx, t.reshape(n, n * n)).reshape(n, n, n)


def fd_curvature_op(fm, a, b, h=1e-5):
    """R(e_a ^ e_b) at 0 by differencing Christoffel symbols (zero at 0)."""
    n = fm.n
    ea = np.zeros(n)
    eb = np.zeros(n)
    ea[a] = h
    eb[b] = h
    dga = (fd_christoffel(fm, ea) - fd_christoffel(fm, -ea)) / (2 * h)
    dgb = (fd_christoffel(fm, eb) - fd_christoffel(fm, -eb)) / (2 * h)
    # R^i_{k ab} = d_a Gamma^i_{bk} - d_b Gamma^i_{ak}
    return dga[:, b, :] - dgb[:, a, :]


# -- christoffel ---------------------------------------------------------------

def test_christoffel_zero_at_origin():
    _, qm = realized([(1, 1), (2, 1)])
    gamma = christoffel(qm, [0.0, 0.0, 0.0])
    assert np.max(np.abs(gamma)) < 1e-15


def test_christoffel_flat_metric():
    pair = pair_of([(2, 1)])
    flat = FloatMetric(pair.g.astype(float), np.zeros((2, 2, 2, 2)))
    gamma = christoffel(flat, [0.3, -0.2])
    assert np.max(np.abs(gamma)) < 1e-15


def test_christoffel_against_finite_differences():
    _, qm = realized([(1, 1), (1, 1)])
    fm = FloatMetric.from_exact(qm)
    gamma = christoffel(fm, [0.1, 0.0])
    assert np.max(np.abs(gamma - fd_christoffel(fm, [0.1, 0.0]))) < 1e-7


def test_christoffel_symmetric_lower_indices():
    _, qm = realized([(2, 1), (3, -1)])
    gamma = christoffel(qm, [0.05, -0.02, 0.01, 0.03, -0.04])
    assert np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2))) < 1e-15


# -- transport -------------------------------------------------------------------

def test_flat_transport_is_identity():
    pair = pair_of([(2, 1)])
    flat = FloatMetric(pair.g.astype(float), np.zeros((2, 2, 2, 2)))
    s = parallel_transport(flat, LoopSpec((0.0, 0.0), (0, 1), 1e-2, 100))
    assert np.max(np.abs(s.transport - np.eye(2))) < 1e-12


def test_rotation_angle_matches_curvature_oracle():
    # definite 2d case: transport around a small square is a rotation whose
    # angle per unit area equals the sectional curvature at the origin
    _, qm = realized([(1, 1), (1, 1)])
    fm = FloatMetric.from_exact(qm)
    side = 1e-2
    s = parallel_transport(fm, LoopSpec((0.0, 0.0), (0, 1), side, 100))
    theta = math.atan2(s.transport[1, 0], s.transport[0, 0])
    k_oracle = fd_curvature_op(fm, 0, 1)[0, 1]
    assert abs(abs(theta) / side ** 2 - abs(k_oracle)) < 0.01 * abs(k_oracle)


def test_loop_shrinking_consistency():
    pair, qm = realized([(1, 1), (2, 1)])
    fm = FloatMetric.from_exact(qm)
    norms = {}
    psis = {}
    for side in (1e-2, 5e-3):
        s = parallel_transport(fm, LoopSpec((0.0, 0.0, 0.0), (0, 2), side, 100))
        norms[side] = np.linalg.norm(s.log_approx) / side ** 2
        psis[side] = s.log_approx
    assert abs(norms[1e-2] / norms[5e-3] - 1.0) < 0.05
    # direction matches the certified curvature value up to sign
    rm = r_formal(pair)
    z = rm.num[rm.tags.index((0, 2))].astype(float) / rm.den
    psi = psis[5e-3]
    unit_psi = psi / np.linalg.norm(psi)
    unit_z = z / np.linalg.norm(z)
    assert min(np.linalg.norm(unit_psi - unit_z),
               np.linalg.norm(unit_psi + unit_z)) < 1e-3


def test_transport_membership_and_drift():
    pair, qm = realized([(1, 1), (2, 1)])
    basis = centralizer_basis(pair)
    gl = list(basis.num.astype(float) / basis.den)
    fm = FloatMetric.from_exact(qm)
    for loop in standard_loops(3, seed=3):
        s = parallel_transport(fm, loop, gl)
        assert s.membership_residual < 1e-6
        assert s.metric_drift < 1e-8
        assert abs(abs(np.linalg.det(s.transport)) - 1.0) < 1e-9


def test_loopspec_validation():
    with pytest.raises(ValueError):
        LoopSpec((0.0,), (1, 1), 1e-2, 100)
    with pytest.raises(ValueError):
        LoopSpec((0.0,), (0, 1), -1.0, 100)
    with pytest.raises(ValueError):
        LoopSpec((0.0,), (0, 1), 1e-2, 8)


def test_singular_metric_detected():
    # the definite 2d metric (1 - |x|^2/2) I degenerates at |x|^2 = 2; park a
    # loop corner right on the degeneracy
    _, qm = realized([(1, 1), (1, 1)])
    fm = FloatMetric.from_exact(qm)
    bad = LoopSpec((math.sqrt(2.0), 0.0), (0, 1), 1e-2, 100)
    with pytest.raises(SingularMetricError):
        parallel_transport(fm, bad)


# -- span reports -----------------------------------------------------------------

def test_span_flat_single_block():
    pair, qm = realized([(3, 1)])
    rep = span(qm, pair, standard_loops(3, seed=0))
    assert rep.span_rank == 0 and rep.dim_gL == 0 and rep.passed
    assert rep.sv_gap == float("inf")


def test_span_blocks_1_2():
    pair, qm = realized([(1, 1), (2, 1)])
    rep = span(qm, pair, standard_loops(3, seed=0))
    assert rep.span_rank == 1 == rep.dim_gL
    assert rep.max_membership_residual < 1e-6
    assert rep.passed


def test_span_blocks_1_1_2():
    pair, qm = realized([(1, 1), (1, 1), (2, 1)])
    rep = span(qm, pair, standard_loops(4, seed=0))
    assert rep.span_rank == 3 == rep.dim_gL
    assert rep.passed


def test_span_report_json():
    pair, qm = realized([(1, 1), (2, -1)])
    rep = span(qm, pair, standard_loops(3, seed=0))
    doc = rep.to_json()
    assert doc["span_rank"] == doc["dim_gL"] == 1
    assert doc["passed"] is True
    assert len(doc["samples"]) == 9
    assert {"plane", "side", "basepoint", "residual"} <= set(doc["samples"][0])


# -- covariant constancy -------------------------------------------------------------

def test_nablaL_residual_origin_and_nearby():
    pair, qm = realized([(2, 1), (2, -1)])
    assert nablaL_residual(qm, pair.L, [0.0] * 4) < 1e-15
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(-0.05, 0.05, 4)
        assert nablaL_residual(qm, pair.L, x) < 1e-9


def test_nablaL_residual_detects_corruption():
    pair, qm = realized([(1, 1), (2, 1)])
    fm = FloatMetric.from_exact(qm)
    bad_b = fm.B.copy()
    bad_b[0, 0, 1, 1] += 0.25
    bad = FloatMetric(fm.g0, bad_b)
    assert nablaL_residual(bad, pair.L, [0.05, 0.02, -0.03]) > 1e-3


def test_metric_value_matches_exact():
    _, qm = realized([(1, 1), (2, 1)])
    x = [Fraction(1, 20), Fraction(-1, 50), Fraction(1, 100)]
    exact = metric_at(qm, x)
    approx = metric_value(qm, [float(v) for v in x])
    assert np.max(np.abs(approx - exact.astype(float))) < 1e-15
