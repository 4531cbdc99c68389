"""Differential tests: the integer core against the earlier Fraction code.

The fraction-free elimination must give the Fraction elimination's rank
and Berger witnesses, on random matrices and on the corpus; every
canonical g must be the Fraction inverse of itself, since the realization
reads it as its own inverse; and the certificate's g_L (its dimension by
rank-nullity, its basis the witness values) must match the Fraction
kernel of the defining equations.  Each exact check runs on every
single-entry perturbation of a correct input, once as the package's
integer contraction (a gather wherever it multiplies by g) and once as the
earlier index loop kept in ``oracles``, with dense g and the Fraction
inverse of g0, on Python-int numerators.  The two must return the same
curvature and the same witness, the first failing index tuple or None;
each check must reject some of the perturbations, and on some of them its
witness names the perturbed index or wedge.

The package holds L relabeled, each eigenvalue's 0-based label in place of
its value.  The oracles' verdicts on the true L and on the relabeled one
must agree on symmetric perturbations of the metric and on perturbed
curvature values, with the same centralizer dimension; reports must not
change when the eigenvalues are relabeled 0, 1, ...; and eigenvalues of
any size pass in int64.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holonomy import (
    berger_certificate,
    build_canonical,
    lower_B,
    make_pencil,
    pencil_from_json,
    r_formal,
    verify_realization,
)
from holonomy.berger import check_bianchi, check_sectional, commutator_system
from holonomy.cli import RunConfig, cmd_verify, iter_corpus_specs, main
from holonomy.exactla import pivot_columns, rank
from holonomy.realize import (
    QuadraticMetric,
    check_gsym,
    check_nablaL,
    riemann_at_origin,
)

from helpers import (
    N24_BLOCKS,
    ONES24_BLOCKS,
    TWO_EIGENVALUE_SPECS,
    dense_g,
    fractions,
    int_form,
    pair_of,
    witness_values,
)
from oracles import (
    block_tensor_ref,
    centralizer_basis_ref,
    centralizer_dim,
    check_bianchi_ref,
    check_gsym_ref,
    check_nablaL_ref,
    check_sectional_ref,
    independent_rows_ref,
    inverse_ref,
    rank_ref,
    riemann_at_origin_ref,
    relabeled_L,
    so_basis_ref,
    true_L,
    wedge_tags,
    witnesses_ref,
)

CASES = [
    (Fraction(0), [(1, 1), (2, 1)]),
    (Fraction(2, 3), [(1, 1), (2, -1), (2, 1)]),
]


def _pair(case):
    return build_canonical(make_pencil([case]))


def _formal_witness_ref(values, formal, n):
    """The first (a, b, i, k) in ``wedge_tags`` order where the curvature
    values differ from the formal ones (both Fractions), or None."""
    return next(((a, b, i, k) for (a, b), v, f in zip(wedge_tags(n), values, formal, strict=True)
                 for i in range(n) for k in range(n) if v[i, k] != f[i, k]), None)


def _same_elimination(m):
    """The integer elimination of the Fraction matrix m agrees with the
    Fraction one: rank, and pivot columns as the rows the greedy span loop
    keeps."""
    num, _ = int_form(m)
    assert rank(num) == rank_ref(m)
    assert tuple(pivot_columns(num.T)) == independent_rows_ref(m)


small_ints = st.integers(min_value=-3, max_value=3)
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_fraction_rref(rows, cols, data):
    entries = data.draw(st.lists(st.one_of(small_ints, small_rationals),
                                 min_size=rows * cols, max_size=rows * cols))
    m = np.array([Fraction(x) for x in entries], dtype=object).reshape(rows, cols)
    _same_elimination(m)
    # a dependent last row exercises the rank-deficient path
    _same_elimination(np.vstack([m, [m[0] - 2 * m[-1]]]))


def test_elimination_matches_fraction_rref_on_a_dense_matrix():
    # the growth control: dense 20-bit entries and one dependent column, on
    # which an elimination that never divides out the content takes minutes
    rng = random.Random(24)
    m = np.array([[Fraction(rng.randint(-2 ** 19, 2 ** 19)) for _ in range(24)]
                  for _ in range(24)], dtype=object)
    m[:, 17] = 3 * m[:, 2] - 5 * m[:, 20]
    _same_elimination(m)
    assert rank(int_form(m)[0]) == 23


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(-2, 3)])
def test_elimination_matches_fraction_rref_on_corpus(lam):
    cases = []
    for name, doc in iter_corpus_specs(5):
        doc["eigenvalues"][0]["lambda"] = str(lam)
        cases.append((name, build_canonical(pencil_from_json(doc))))
    # and specs with two eigenvalues, which the corpus lacks
    cases += [(str(spec), build_canonical(make_pencil(spec))) for spec in TWO_EIGENVALUE_SPECS]
    for name, pair in cases:
        rmap = r_formal(pair)
        cert = berger_certificate(pair, rmap)
        assert cert["witnesses"] == [list(t) for t in witnesses_ref(rmap, 1)], name
        assert cert["image_rank"] == rank_ref(rmap.reshape(len(rmap), pair.n ** 2)), name
        assert cert["dim_gL"] == centralizer_dim(pair), name
    # both Riemann routes and the invertibility bound read g as its own inverse
    pairs = [build_canonical(pencil_from_json(doc)) for _, doc in iter_corpus_specs(7)]
    pairs += [build_canonical(make_pencil(spec)) for spec in TWO_EIGENVALUE_SPECS]
    pairs.append(pair_of(N24_BLOCKS, lam))
    for pair in pairs:
        g = dense_g(pair.involution)
        assert np.array_equal(g @ g, np.eye(pair.n, dtype=int)), pair.n
        assert np.array_equal(inverse_ref(g), g), pair.n


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(-2, 3)])
def test_certified_gl_matches_fraction_kernel_on_corpus(lam):
    for name, doc in iter_corpus_specs(7):
        doc["eigenvalues"][0]["lambda"] = str(lam)
        spec = pencil_from_json(doc)
        pair = build_canonical(spec)
        n, l = pair.n, relabeled_L(pair)
        w = so_basis_ref(dense_g(pair.involution))
        assert np.array_equal(commutator_system(pair),
                              (w @ l - l @ w).reshape(len(w), n * n).T), name
        rmap = r_formal(pair)
        cert = berger_certificate(pair, rmap)
        kernel = centralizer_basis_ref(pair, true_L(pair, spec))
        assert cert["dim_gL"] == len(kernel) == centralizer_dim(pair), name
        # the witness values lie in the oracle's kernel and span it
        values = fractions(witness_values(cert, rmap)).reshape(-1, n * n)
        stacked = np.array(kernel + values.tolist(), dtype=object).reshape(-1, n * n)
        assert len(values) == rank_ref(values) == rank_ref(stacked) == cert["dim_gL"], name


def test_block_tensor_matches_per_term_factors():
    # the package's one mask against the sum, term by term, of the oracle's
    # block-pair terms as full block-power factor products; ones24 has the
    # most blocks, all of size 1
    pairs = [build_canonical(pencil_from_json(doc)) for _, doc in iter_corpus_specs(7)]
    pairs += [build_canonical(make_pencil(spec)) for spec in TWO_EIGENVALUE_SPECS]
    pairs.append(pair_of(N24_BLOCKS, Fraction(-1, 3)))
    pairs.append(pair_of(ONES24_BLOCKS))
    assert len(pairs) == 126 + len(TWO_EIGENVALUE_SPECS) + 2
    for pair in pairs:
        t = pair.block_tensor
        assert t.dtype == np.int64 and np.array_equal(t, block_tensor_ref(pair)), pair.block
        assert pair.block_tensor is t  # built once per pair


@pytest.mark.parametrize("case", CASES, ids=["1+2+", "1+2-2+"])
def test_metric_checks_agree_with_loops_under_perturbation(case):
    # a witness names the perturbed entry (x0, x1, x2, x3) of B: nablaL's
    # (i, p, k, q) by i = x0 and q = x3, gsym's (l, j, p, q) by (p, q) =
    # (x2, x3), and the two routes' (a, b, i, k) by the wedge {a, b} =
    # {x0, x2}; route one moves on that wedge alone, and L never moves p, q
    pair = _pair(case)
    formal = r_formal(pair)
    qm = lower_B(pair)
    L = relabeled_L(pair)
    names = {"nablaL": lambda at, idx: (at[0], at[3]) == idx[::3],
             "gsym": lambda at, idx: at[2:] == idx[2:],
             "routes": lambda at, idx: at[:2] == tuple(sorted(idx[::2]))}
    names["formal"] = names["routes"]
    rejected, named = Counter(), Counter()
    for idx in np.ndindex(qm.num.shape):
        num = qm.num.copy()
        num[idx] += 1
        bad = QuadraticMetric(qm.pair, num, qm.den)
        values, routes = riemann_at_origin_ref(bad)
        got_num, got_den, got_routes = riemann_at_origin(bad)
        assert fractions(got_num, got_den).tolist() == values.tolist(), idx
        want = {"nablaL": check_nablaL_ref(bad, L), "gsym": check_gsym_ref(bad, L),
                "routes": routes, "formal": _formal_witness_ref(values, fractions(formal), pair.n)}
        report = verify_realization(bad, formal)
        assert [at and list(at) for at in (check_nablaL(bad), check_gsym(bad), got_routes)] == \
            [report["nablaL_witness"], report["gsym_witness"], report["routes_witness"]], idx
        assert {c: at and list(at) for c, at in want.items()} == \
            {c: report[f"{c}_witness"] for c in want}, idx
        for check, at in want.items():
            if at is not None:
                rejected[check] += 1
                named[check] += names[check](at, idx)
    assert all(rejected[c] for c in ("nablaL", "gsym", "routes", "formal")), rejected
    assert all(named[c] for c in rejected), named
    assert named["gsym"] == rejected["gsym"] and named["formal"] == rejected["formal"], named


@pytest.mark.parametrize("case", CASES, ids=["1+2+", "1+2-2+"])
def test_curvature_checks_agree_with_loops_under_perturbation(case):
    # a witness names the perturbed entry (r, c) of the value on the wedge
    # (i, j): Bianchi's (i, j, k) by (i, j, c), and the containment's
    # (i, j, r, c) by the wedge, which alone moved, and some by the entry
    pair = _pair(case)
    formal = r_formal(pair)
    g, L = dense_g(pair.involution), relabeled_L(pair)
    tags = wedge_tags(pair.n)
    rejected, named = Counter(), Counter()
    for idx in np.ndindex(formal.shape):
        bad = formal.copy()
        bad[idx] += 1
        bianchi, sectional = check_bianchi(bad), check_sectional(bad, pair)
        assert bianchi == check_bianchi_ref(bad), idx
        assert sectional == check_sectional_ref(bad, g, L), idx
        (i, j), (r, c) = tags[idx[0]], idx[1:]
        if bianchi is not None:
            rejected["bianchi"] += 1
            named["bianchi"] += bianchi == (i, j, c)
        if sectional is not None:
            rejected["sectional"] += 1
            assert sectional[:2] == (i, j), idx
            named["sectional"] += sectional == (i, j, r, c)
    assert rejected["bianchi"] and rejected["sectional"], rejected
    assert named["bianchi"] and named["sectional"], named


def _doc(spec) -> dict:
    """The JSON spec document of ``make_pencil`` arguments."""
    return {"eigenvalues": [{"lambda": str(lam),
                             "blocks": [{"size": s, "sign": g} for s, g in blocks]}
                            for lam, blocks in spec]}


def _exact_reports(doc, tmp_path, capsys) -> dict:
    """``holonomy verify --stages canonical,berger,realize`` of a spec, passing."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--input", str(path), "--stages", "canonical,berger,realize"]) == 0, doc
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", ["0", "-2/3", "two-eigenvalue"])
def test_reports_identical_under_relabeling(case, tmp_path, capsys):
    # the exact stages read the eigenvalues only through their order: each
    # spec's canonical, berger and realize reports are those of its twin
    # with the eigenvalues relabeled 0, 1, ...
    if case == "two-eigenvalue":
        specs = [_doc(spec) for spec in TWO_EIGENVALUE_SPECS]
    else:
        specs = [doc for _, doc in iter_corpus_specs(7)]
        for doc in specs:
            doc["eigenvalues"][0]["lambda"] = case
    for doc in specs:
        twin = json.loads(json.dumps(doc))
        eigens = sorted(twin["eigenvalues"], key=lambda e: Fraction(e["lambda"]))
        for label, eig in enumerate(eigens):
            eig["lambda"] = str(label)
        got, want = _exact_reports(doc, tmp_path, capsys), _exact_reports(twin, tmp_path, capsys)
        for stage in ("canonical", "berger", "realize"):
            assert got["stages"][stage] == want["stages"][stage], (doc, stage)


# 3e18 fits in int64 (below 2**63), 1e20 and 99 digits do not, and 1/1e20
# has a denominator past it: none of them reaches the exact arithmetic
@pytest.mark.parametrize("lam", [10 ** 20, int("9" * 99), Fraction(1, 10 ** 20), 3 * 10 ** 18],
                         ids=["1e20", "99-digits", "1/1e20", "3e18"])
def test_large_eigenvalue_passes_end_to_end(lam, tmp_path):
    blocks = [(1, 1), (2, -1), (2, 1), (3, 1)]
    pair = pair_of(blocks, lam)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_doc([(lam, blocks)])))
    report, code = cmd_verify(RunConfig(input=str(path),
                                        stages=("canonical", "berger", "realize")))
    assert code == 0 and report["verdict"] == "pass"
    assert report["spec"]["eigenvalues"][0]["lambda"] == str(lam)
    assert report["stages"]["berger"]["dim_gL"] == centralizer_dim(pair) == 9
    assert report["stages"]["berger"]["image_rank"] == 9
    realize = report["stages"]["realize"]
    assert all(v is None if k.endswith("_witness") else v is True for k, v in realize.items())


# multi in CI's smoke tests: two eigenvalues, three blocks and two
MULTI = [("0", [(1, 1), (2, -1), (3, 1)]), ("5/7", [(2, 1), (2, -1)])]
# perturbations per sweep of the relabeling test
SAMPLE = 150


def _symmetric_orbit(idx) -> set:
    """The entries (i, j, p, q) that B's symmetries in (i, j) and in (p, q) tie to ``idx``."""
    i, j, p, q = idx
    return {(a, b, c, d) for a, b in ((i, j), (j, i)) for c, d in ((p, q), (q, p))}


@pytest.mark.parametrize("spec", TWO_EIGENVALUE_SPECS + [MULTI],
                         ids=["two0", "two1", "two2", "multi"])
def test_verdicts_agree_on_true_and_relabeled_L(spec):
    # the relabeled L and the true one are polynomials in each other, and
    # each check reads L through X L = L X or X L = L^T X, so the oracles'
    # verdicts on the two agree, and the package's on the relabeled L with
    # them: covariant constancy and g(x)-symmetry on symmetric-orbit
    # perturbations of B (the precondition both forms need), the sectional
    # check on perturbations of the curvature values, and the dimension of
    # the commutator kernel.  The loop oracles take about a millisecond a
    # call at n = 10, so each sweep is a seeded sample of SAMPLE
    # perturbations; each check rejects some of them.
    spec = make_pencil(spec)
    pair = build_canonical(spec)
    true, relabeled = true_L(pair, spec), relabeled_L(pair)
    assert not np.array_equal(int_form(true)[0], relabeled)  # the two differ
    n, g = pair.n, dense_g(pair.involution)
    assert (len(centralizer_basis_ref(pair, true)) == len(centralizer_basis_ref(pair, relabeled))
            == centralizer_dim(pair))
    rng = random.Random(n)
    qm = lower_B(pair)
    orbits = sorted({min(_symmetric_orbit(idx)) for idx in np.ndindex((n,) * 4)})
    rejected = Counter()
    for idx in rng.sample(orbits, min(SAMPLE, len(orbits))):
        num = qm.num.copy()
        for at in _symmetric_orbit(idx):
            num[at] += 1
        bad = QuadraticMetric(qm.pair, num, qm.den)
        nabla, gsym = check_nablaL_ref(bad, relabeled), check_gsym_ref(bad, relabeled)
        assert (nabla, gsym) == (check_nablaL(bad), check_gsym(bad)), idx
        assert (nabla is None, gsym is None) == (check_nablaL_ref(bad, true) is None,
                                                 check_gsym_ref(bad, true) is None), idx
        rejected["nablaL"] += nabla is not None
        rejected["gsym"] += gsym is not None
    # a single entry is never g-skew, so the skewness half rejects all of
    # those; a wedge basis element is, and the commutator with L decides
    formal = r_formal(pair)
    steps = np.concatenate([np.eye(n * n, dtype=np.int64).reshape(-1, n, n),
                            so_basis_ref(g).astype(np.int64)])
    moves = [(k, s) for k in range(len(formal)) for s in range(len(steps))]
    for k, s in rng.sample(moves, SAMPLE):
        bad = formal.copy()
        bad[k] += steps[s]
        sectional = check_sectional_ref(bad, g, relabeled)
        assert sectional == check_sectional(bad, pair), (k, s)
        assert (sectional is None) == (check_sectional_ref(bad, g, true) is None), (k, s)
        rejected["sectional"] += sectional is not None
        rejected["sectional kept"] += sectional is None
    assert all(rejected[c] for c in ("nablaL", "gsym", "sectional", "sectional kept")), rejected


# A rational eigenvalue: negative values and large denominators included.
sweep_rationals = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12))


@st.composite
def multi_eigenvalue_specs(draw):
    """1-3 distinct eigenvalues with blocks of random size and sign, n <= 8,
    as make_pencil arguments: the spec, the spec with every eigenvalue
    shifted by one rational, and the spec with its eigenvalues and the
    blocks of each in a drawn order."""
    k = draw(st.integers(1, 3))
    lams = draw(st.lists(sweep_rationals, min_size=k, max_size=k, unique=True))
    blocks = st.lists(st.tuples(st.integers(1, 4), st.sampled_from((1, -1))), min_size=1, max_size=3)
    spec = [(lam, draw(blocks)) for lam in lams]
    assume(sum(size for _, bl in spec for size, _ in bl) <= 8)
    shift = draw(sweep_rationals)
    shifted = [(lam + shift, bl) for lam, bl in spec]
    permuted = [(lam, draw(st.permutations(bl))) for lam, bl in draw(st.permutations(spec))]
    return spec, shifted, permuted


def _exact_stages(spec):
    """The pair, the berger and realize reports' JSON text and the flat
    planes (the zero rows of ``r_formal``, as wedge indices) of a spec."""
    pair = build_canonical(make_pencil(spec))
    rmap = r_formal(pair)
    cert = berger_certificate(pair, rmap)
    realization = verify_realization(lower_B(pair), rmap)
    flat = np.flatnonzero(~rmap.any(axis=(1, 2))).tolist()
    return pair, json.dumps({"berger": cert, "realize": realization},
                            sort_keys=True), flat


@given(multi_eigenvalue_specs())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def _sweep(specs):
    # the certificate passes with the closed-form dim g_L, the metric
    # realizes the map, and both reports are the same bytes when every
    # eigenvalue moves by one shift, in any input order of the blocks and
    # when every block's sign flips, which keeps the flat planes too
    spec, shifted, permuted = specs
    pair, text, flat = _exact_stages(spec)
    assert np.array_equal(pair.block_tensor, block_tensor_ref(pair)), spec
    doc = json.loads(text)
    assert doc["berger"]["passed"] and doc["berger"]["dim_gL"] == centralizer_dim(pair), doc
    assert doc["realize"]["passed"], doc
    assert _exact_stages(shifted)[1] == text
    assert _exact_stages(permuted)[1] == text
    flipped = [(lam, [(size, -sign) for size, sign in bl]) for lam, bl in spec]
    assert _exact_stages(flipped)[1:] == (text, flat)


def test_multi_eigenvalue_sweep():
    # 100 derandomized examples within the sweep's budget of 5 s
    start = time.perf_counter()
    _sweep()
    assert time.perf_counter() - start < 5.0
