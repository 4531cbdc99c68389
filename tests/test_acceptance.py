"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Exact criteria tolerate nothing; numerical criteria pin
the stated tolerances.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from holonomy import (
    berger_certificate,
    build_canonical,
    lower_B,
    make_pencil,
    pencil_from_json,
    r_formal,
    verify_realization,
)
from holonomy.berger import check_bianchi, check_sectional
from holonomy.cli import iter_corpus_specs
from holonomy.exactla import rank
from holonomy.probe import (
    FloatMetric,
    holonomy_span,
    standard_loops,
)
from holonomy.probe import kernels
from holonomy.realize import riemann_at_origin

from helpers import PROBE_SPECS, all_blocks, dense_g, int_form, metric_drift, transports
from oracles import (
    apply_map,
    block_element,
    centralizer_basis_ref,
    centralizer_dim,
    m_ij_basis,
    metric_value,
    true_L,
)

CORPUS_MAX_N = 7


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def corpus_pairs():
    """(name, spec, pair) of each corpus spec."""
    specs = [(name, pencil_from_json(doc)) for name, doc in iter_corpus_specs(CORPUS_MAX_N)]
    return [(name, spec, build_canonical(spec)) for name, spec in specs]


def _realized(blocks):
    pair = build_canonical(make_pencil([(Fraction(0), blocks)]))
    return pair, lower_B(pair)


def test_criterion_1_berger_suite(corpus_pairs):
    """Bianchi, containment and exact rank equality over the whole corpus."""
    started = time.perf_counter()
    failures = []
    for name, _, pair in corpus_pairs:
        rmap = r_formal(pair)
        if check_bianchi(rmap) is not None:
            failures.append(f"{name}: bianchi")
        if check_sectional(rmap, pair) is not None:
            failures.append(f"{name}: containment")
        cert = berger_certificate(pair, rmap)
        if not (cert["passed"] and cert["image_rank"] == cert["dim_gL"]):
            failures.append(f"{name}: rank {cert['image_rank']} != dim {cert['dim_gL']}")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _announce("criterion 1 Berger suite",
              ok, f"{len(corpus_pairs)} specs, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_criterion_2_dimension_formula(corpus_pairs):
    """Certified dim g_L == closed-form dimension == kernel rank, exactly."""
    failures = []
    for name, spec, pair in corpus_pairs:
        basis = centralizer_basis_ref(pair, true_L(pair, spec))
        expected = centralizer_dim(pair)
        if len(basis) != expected:
            failures.append(f"{name}: kernel {len(basis)} != formula {expected}")
            continue
        if len(basis):
            if rank(int_form(basis)[0]) != expected:
                failures.append(f"{name}: dependent kernel output")
        dim_gL = berger_certificate(pair, r_formal(pair))["dim_gL"]
        if dim_gL != expected:
            failures.append(f"{name}: certificate {dim_gL} != formula {expected}")
        # cross-check against the explicit blockwise generators
        total = 0
        blocks = all_blocks(pair)
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i][0] == blocks[j][0]:
                    total += len(m_ij_basis(pair, i, j))
        if total != expected:
            failures.append(f"{name}: blockwise count {total} != {expected}")
    ok = not failures
    _announce("criterion 2 dimension formula", ok, f"{len(corpus_pairs)} specs")
    assert not failures, failures[:5]


def test_criterion_3_two_block_mu_formulas():
    """r_formal reproduces the shifted-Toeplitz pattern for random blocks."""
    started = time.perf_counter()
    rng = random.Random(20240817)
    checked = 0
    for m in range(1, 6):
        for n in range(m, 6):
            pair = build_canonical(make_pencil([(Fraction(0), [(m, 1), (n, 1)])]))
            xij = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(n)] for _ in range(m)]
            # the value at the so(g) element whose (0, 1) block is xij
            out = apply_map(r_formal(pair), 1, dense_g(pair.involution), block_element(pair, 0, 1, xij))
            # mu_s = sum_d x[m-s+d, d] (1-based), laid on the shifted diagonals
            mu = [sum(xij[m - s + d - 1][d - 1] for d in range(1, s + 1))
                  for s in range(1, m + 1)]
            for r in range(m):
                for c in range(n):
                    s = c - r - (n - m) + 1
                    want = mu[s - 1] if 1 <= s <= m else Fraction(0)
                    assert out[r, m + c] == want, (m, n, r, c)
            checked += 1
    elapsed = time.perf_counter() - started
    _announce("criterion 3 two-block mu formulas", True,
              f"{checked} size pairs, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_4_realization_match(corpus_pairs):
    """Exact realization checks and curvature match over the whole corpus."""
    started = time.perf_counter()
    failures = []
    for name, _, pair in corpus_pairs:
        qm = lower_B(pair)
        report = verify_realization(qm, r_formal(pair))
        if not report["passed"]:
            failures.append(f"{name}: {report}")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    _announce("criterion 4 realization match",
              ok, f"{len(corpus_pairs)} specs, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 120.0


def test_criterion_5_holonomy_probe():
    """Loop family spans the full algebra with tiny residuals and a clean gap,
    and the step-doubling estimate puts every transport at the float floor."""
    started = time.perf_counter()
    failures = []
    for name, blocks in PROBE_SPECS:
        pair, qm = _realized(blocks)
        fm = FloatMetric(qm)
        rmap = r_formal(pair)
        cert = berger_certificate(pair, rmap)
        for seed in (0, 1):
            rep = holonomy_span(fm, cert, rmap, standard_loops(pair.n, seed=seed))
            tag = f"{name} seed {seed}"
            if rep["span_rank"] != rep["dim_gL"]:
                failures.append(f"{tag}: rank {rep['span_rank']} != dim {rep['dim_gL']}")
            if not rep["max_membership_residual"] < 1e-6:
                failures.append(f"{tag}: residual {rep['max_membership_residual']:.2e}")
            # the smallest retained singular value over the largest discarded one
            sv, dim = rep["singular_values"], rep["dim_gL"]
            gap = sv[dim - 1] / sv[dim] if len(sv) > dim else math.inf
            if not gap >= 1e3:
                failures.append(f"{tag}: gap {gap:.2e}")
            step_error = rep["max_step_error"]
            if not step_error <= 1e-13:
                failures.append(f"{tag}: step error {step_error:.2e}")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _announce("criterion 5 holonomy probe",
              ok, f"{len(PROBE_SPECS)} specs, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_6_regular_case():
    """Single blocks: zero curvature map, flat realization, identity transport."""
    failures = []
    for size in range(2, 7):
        pair, qm = _realized([(size, 1)])
        formal = r_formal(pair)
        if formal.any():
            failures.append(f"size {size}: formal map not zero")
        report = verify_realization(qm, formal)
        if not (report["passed"] and not riemann_at_origin(qm)[0].any()):
            failures.append(f"size {size}: realized curvature not zero")
        fm = FloatMetric(qm)
        for a in transports(fm, standard_loops(pair.n, seed=0)):
            drift = float(np.max(np.abs(a - np.eye(pair.n))))
            if not drift < 1e-10:
                failures.append(f"size {size}: |A - I| = {drift:.2e}")
                break
    ok = not failures
    _announce("criterion 6 regular-case degeneracy", ok, "sizes 2-6")
    assert not failures, failures


def test_criterion_7_numerical_cross_checks():
    """The transport kernel's Christoffel symbols vs finite differences of the
    metric; transport preserves the metric."""

    def fd_gamma(qm, x, h=1e-5):
        n = qm.n
        dg = np.empty((n, n, n))
        for p in range(n):
            e = np.zeros(n)
            e[p] = h
            dg[p] = (metric_value(qm, x + e) - metric_value(qm, x - e)) / (2 * h)
        t = np.einsum("isj->sij", dg) + np.einsum("jsi->sij", dg) - dg
        return 0.5 * np.linalg.solve(metric_value(qm, x), t.reshape(n, n * n)).reshape(n, n, n)

    def kernel_gamma(fm, x):
        # M(0) = Gamma(x)[e_b] on the segments x + s e_b, b = 0..n-1
        G, R = kernels.segment_terms(fm.mats, np.tile(x, (fm.n, 1)), np.eye(fm.n))
        return kernels.segment_gamma(G, R, np.zeros(1))[..., 0].transpose(0, 2, 1)

    rng = np.random.default_rng(11)
    fd, drifts = [], []
    for name, blocks in PROBE_SPECS:
        pair, qm = _realized(blocks)
        fm = FloatMetric(qm)
        for _ in range(10):
            x = rng.uniform(-0.1, 0.1, pair.n)
            fd.append(np.max(np.abs(kernel_gamma(fm, x) - fd_gamma(qm, x))))
        drifts.append(metric_drift(fm, transports(fm, standard_loops(pair.n, seed=1))))
    # np.max, unlike max(), propagates NaN, which then fails both bounds
    worst_fd = float(np.max(fd))
    worst_drift = float(np.max(np.concatenate(drifts)))
    ok = worst_fd < 1e-6 and worst_drift < 1e-8
    _announce("criterion 7 numerical cross-checks", ok,
              f"fd {worst_fd:.2e}, drift {worst_drift:.2e}")
    assert worst_fd < 1e-6
    assert worst_drift < 1e-8
