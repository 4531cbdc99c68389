"""Differential negative controls: integer contractions against index loops.

Each exact check runs on every single-entry perturbation of a correct
input, once as the package's integer contraction and once as the earlier
Fraction index loop kept in ``oracles``.  The two must return the same
verdicts, the same curvature (or both raise), and the same Bianchi witness;
and each check must reject some of the perturbations.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from holonomy import build_B, build_canonical, lower_B, make_pencil, r_formal
from holonomy.berger import CurvatureMap, check_bianchi, check_sectional
from holonomy.exactla import RatMat
from holonomy.realize import (
    QuadraticMetric,
    RealizationError,
    check_gsym,
    check_nablaL,
    riemann_at_origin,
)

from oracles import (
    check_bianchi_ref,
    check_gsym_ref,
    check_nablaL_ref,
    check_sectional_ref,
    riemann_at_origin_ref,
)

CASES = [
    (Fraction(0), [(1, 1), (2, 1)]),
    (Fraction(2, 3), [(1, 1), (2, -1), (2, 1)]),
]


def _pair(case):
    return build_canonical(make_pencil([case]))


def _riemann_outcome(fn, qm):
    try:
        return fn(qm).values
    except RealizationError:
        return RealizationError


@pytest.mark.parametrize("case", CASES, ids=["1+2+", "1+2-2+"])
def test_metric_checks_agree_with_loops_under_perturbation(case):
    pair = _pair(case)
    formal = r_formal(pair)
    qm = lower_B(build_B(pair), pair.g)
    rejected = Counter()
    for idx in np.ndindex(qm.num.shape):
        num = qm.num.copy()
        num[idx] += 1
        bad = QuadraticMetric(qm.g0, num, qm.den)
        nabla = check_nablaL(bad, pair.L)
        gsym = check_gsym(bad, pair.L)
        curvature = _riemann_outcome(riemann_at_origin, bad)
        assert nabla == check_nablaL_ref(bad, pair.L), idx
        assert gsym == check_gsym_ref(bad, pair.L), idx
        assert curvature == _riemann_outcome(riemann_at_origin_ref, bad), idx
        rejected["nablaL"] += not nabla
        rejected["gsym"] += not gsym
        rejected["routes"] += curvature is RealizationError
        rejected["match"] += curvature not in (RealizationError, formal.values)
    assert all(rejected[c] for c in ("nablaL", "gsym", "routes", "match")), rejected


@pytest.mark.parametrize("case", CASES, ids=["1+2+", "1+2-2+"])
def test_curvature_checks_agree_with_loops_under_perturbation(case):
    pair = _pair(case)
    formal = r_formal(pair)
    n = pair.n
    rejected = Counter()
    for w, value in enumerate(formal.values):
        for r in range(n):
            for k in range(n):
                entries = value.vec()
                entries[r * n + k] += 1
                values = list(formal.values)
                values[w] = RatMat._raw(n, n, entries)
                bad = CurvatureMap(formal.g, formal.tags, tuple(values))
                got, want = check_bianchi(bad), check_bianchi_ref(bad)
                assert (got.ok, got.witness, got.max_violation) == \
                    (want.ok, want.witness, want.max_violation), (w, r, k)
                sectional = check_sectional(bad, pair.L)
                assert sectional == check_sectional_ref(bad, pair.L), (w, r, k)
                rejected["bianchi"] += not got.ok
                rejected["sectional"] += not sectional
    assert rejected["bianchi"] and rejected["sectional"], rejected
