"""A catalogue of mutations of ``src/`` that named tests must kill.

Each entry replaces one exact piece of text in one file under ``src/`` and
names the tests that must then fail.  The runner copies ``src/`` and
``tests/`` to a temporary directory, so the checkout is never edited.  It
first runs every named test on the unmutated copy, which must pass.  Then,
for each entry, it applies the edit to a fresh copy, runs the entry's tests
there with ``-x`` against the mutated package, and requires pytest to report
a failure (exit status 1): a collection error, an unknown test id or a
crash of pytest itself is not a kill.  Old text that does not occur exactly
once in its file is an error, never a pass.  Stdlib only; pytest does not
collect this file.

Every pytest run, the unmutated one included, has ``TIMEOUT`` seconds.  A
mutant that makes its tests run past it is reported as ``killed (timeout)``
(a hang is a kill: the tests did not pass), and its whole process group is
killed, so no child of a test is left running.  An unmutated run past it is
an error.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries

An equivalent mutant, one that no test can kill because it computes the
same values, is recorded here and not catalogued:

- ``kernels.segment_terms`` with G's middle term as twice the outer
  product (a, v) in place of (a, v) + (v, a): B is symmetric in (p, q), so
  g0 B(a, v) = g0 B(v, a), and every Tier-1 test passes.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Seconds for one pytest run.  On a 2-CPU machine the unmutated run of
# every named test takes about 4 s and each failing entry under 2 s, so a
# slower machine has a margin of 15x.  Each mutant that times out adds this
# much to the catalogue's wall time.
TIMEOUT = 60


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root, under src/
    old: str   # must occur exactly once in the file
    new: str
    tests: tuple  # pytest ids relative to the repository root


CATALOGUE = (
    Mutant("dedup-key-start-only", "src/holonomy/probe/kernels.py",
           "keys = np.concatenate([a, verts[:, 1:] - a], axis=-1)",
           "keys = np.concatenate([a, 0 * a], axis=-1)",
           ("tests/test_probe.py::test_each_distinct_segment_is_integrated_once",)),
    Mutant("segment-R-from-outer-a-v", "src/holonomy/probe/kernels.py",
           "R = mats[1] @ xx[2:]",
           "R = mats[1] @ xx[[1, 3]]",
           ("tests/test_probe.py::test_segment_gamma_matches_christoffel",)),
    Mutant("pivot-update-wrong-sign", "src/holonomy/exactla.py",
           "p * v.get(i, 0) - f * b.get(i, 0)",
           "p * v.get(i, 0) + f * b.get(i, 0)",
           ("tests/test_exactla.py::test_rank_examples",)),
    Mutant("pivot-every-column", "src/holonomy/exactla.py",
           "b = basis.get(lead)",
           "b = None",
           ("tests/test_exactla.py::test_rank_examples",)),
    Mutant("block-tensor-reach-minimum", "src/holonomy/canonical.py",
           "reach = np.maximum(size[:, None], size) - 1",
           "reach = np.minimum(size[:, None], size) - 1",
           ("tests/test_differential.py::test_block_tensor_matches_per_term_factors",)),
    Mutant("block-tensor-reach-one-short", "src/holonomy/canonical.py",
           "reach = np.maximum(size[:, None], size) - 1",
           "reach = np.maximum(size[:, None], size) - 2",
           ("tests/test_differential.py::test_block_tensor_matches_per_term_factors",)),
    Mutant("block-tensor-reach-one-long", "src/holonomy/canonical.py",
           "reach = np.maximum(size[:, None], size) - 1",
           "reach = np.maximum(size[:, None], size)",
           ("tests/test_differential.py::test_block_tensor_matches_per_term_factors",)),
    Mutant("block-tensor-without-label", "src/holonomy/canonical.py",
           "(label[:, None, None, None] == label[:, None])",
           "True",
           ("tests/test_differential.py::test_block_tensor_matches_per_term_factors",)),
    Mutant("involution-without-own-inverse", "src/holonomy/exactla.py",
           " & (p[p] == rows)",
           "",
           ("tests/test_realize.py::test_g0_that_is_not_its_own_inverse_is_refused",)),
    Mutant("involution-without-sign-symmetry", "src/holonomy/exactla.py",
           " & (sign[p] == sign)",
           "",
           ("tests/test_realize.py::test_g0_that_is_not_its_own_inverse_is_refused",)),
    Mutant("times-L-transpose-ignored", "src/holonomy/exactla.py",
           "to, src = (tail, head) if transpose else (head, tail)",
           "to, src = (head, tail)",
           ("tests/test_berger.py::test_certificate_blocks_1_2",)),
    Mutant("capped-never-refuses", "src/holonomy/exactla.py",
           'if a.dtype.kind not in "iu" or (a.size and max(-int(a.min()), int(a.max())) > ENTRY_CAP):',
           "if False:",
           ("tests/test_exactla.py::test_capped_refuses_entries_past_the_cap",)),
    Mutant("back-substitution-without-divide", "src/holonomy/probe/kernels.py",
           "x[k] /= h[k, k]",
           "x[k] /= 1.0",
           ("tests/test_probe.py::test_segment_gamma_matches_christoffel",)),
    Mutant("metric-drift-zero", "src/holonomy/probe/transport.py",
           "drift = np.linalg.norm(m, axis=(1, 2))",
           "drift = 0 * np.linalg.norm(m, axis=(1, 2))",
           ("tests/test_probe.py::test_transport_membership_and_drift",)),
    Mutant("curvature-values-without-shape-check", "src/holonomy/exactla.py",
           "if vals.shape != (n * (n - 1) // 2, n, n):",
           "if False:",
           ("tests/test_realize.py::test_a_curvature_map_of_the_wrong_shape_is_refused",)),
    Mutant("metric-without-num-shape-check", "src/holonomy/realize.py",
           "if num.shape != (self.n,) * 4:",
           "if False:",
           ("tests/test_realize.py::test_a_metric_refuses_a_malformed_pair_or_num",)),
    Mutant("pair-without-involution-check", "src/holonomy/canonical.py",
           "check_involution(*self.involution)",
           "None",
           ("tests/test_canonical.py::test_degenerate_g_reported",)),
    Mutant("first-mismatch-takes-the-last", "src/holonomy/exactla.py",
           "np.argwhere(bad)[0]",
           "np.argwhere(bad)[-1]",
           ("tests/test_realize.py::test_verify_realization_rejects_perturbed_formal_map",)),
    Mutant("passed-ignores-the-last-witness", "src/holonomy/canonical.py",
           "for key in self.witnesses:",
           "for key in self.witnesses[:-1]:",
           ("tests/test_realize.py::test_verify_realization_rejects_perturbed_formal_map",)),
    Mutant("probe-passed-without-certificate", "src/holonomy/probe/transport.py",
           "DOCUMENT.first_failure(doc, cert)",
           'DOCUMENT.first_failure(doc, {**cert, "passed": True})',
           ("tests/test_probe.py::test_span_fails_with_a_failing_certificate",)),
    Mutant("probe-passed-without-residual-bound", "src/holonomy/probe/transport.py",
           'below=(("max_membership_residual", MEMBERSHIP_TOL),),',
           "",
           ("tests/test_probe.py::test_membership_detects_a_dropped_basis_element",)),
    Mutant("probe-basis-from-leading-rows", "src/holonomy/probe/transport.py",
           'rmap[chosen[wedge_index(fm.n)]]',
           'rmap[:cert["dim_gL"]]',
           ("tests/test_cli.py::test_verify_full_pipeline",
            "tests/test_probe.py::test_span_blocks_1_2")),
    Mutant("probe-basis-support-unchecked", "src/holonomy/probe/transport.py",
           'if at is not None:\n        raise ValueError(f"witness rows share',
           'if False:\n        raise ValueError(f"witness rows share',
           ("tests/test_probe.py::test_span_refuses_witness_rows_that_share_an_entry",)),
    Mutant("probe-negligible-raised", "src/holonomy/probe/transport.py",
           "_NEGLIGIBLE = 1e-9",
           "_NEGLIGIBLE = 1e-3",
           ("tests/test_probe.py::test_span_blocks_1_2",
            "tests/test_probe.py::test_span_report_json")),
    Mutant("transport-divergence-unchecked", "src/holonomy/probe/transport.py",
           "if not np.isfinite(d).all():",
           "if False:",
           ("tests/test_probe.py::test_a_diverged_transport_is_refused",)),
    Mutant("loops-without-plane-index-bound", "src/holonomy/probe/transport.py",
           "if (planes >= n).any():",
           "if False:",
           ("tests/test_probe.py::test_loopspec_validation",)),
    Mutant("berger-passed-ignores-image-rank", "src/holonomy/berger.py",
           '("bianchi_witness", "containment_witness"), (("image_rank", "dim_gL"),))',
           '("bianchi_witness", "containment_witness"))',
           ("tests/test_berger.py::test_certificate_rejects_a_dropped_block_pair",)),
    Mutant("sectional-without-commutation", "src/holonomy/berger.py",
           "at = wedge_mismatch(times_L(vals, pair, 2, transpose=True), times_L(vals, pair, 1))",
           "at = None",
           ("tests/test_berger.py::test_sectional_identity_map_fails",
            "tests/test_berger.py::test_certificate_rejects_a_value_outside_gl")),
    Mutant("sectional-without-g-skew", "src/holonomy/berger.py",
           "return at if at is not None else wedge_mismatch(gv, -gv.transpose(0, 2, 1))",
           "return at",
           ("tests/test_differential.py::"
            "test_curvature_checks_agree_with_loops_under_perturbation[1+2+]",)),
    Mutant("bianchi-first-wedge-only", "src/holonomy/berger.py",
           "at = wedge_mismatch(cyclic, 0)",
           "at = wedge_mismatch(cyclic[:1], 0)",
           ("tests/test_differential.py::"
            "test_curvature_checks_agree_with_loops_under_perturbation[1+2-2+]",
            "tests/test_realize.py::test_exact_inputs_past_the_entry_cap_are_refused")),
    Mutant("probe-keeps-flat-planes", "src/holonomy/probe/transport.py",
           "keep = np.repeat(curved, 1 + EXTRA_BASEPOINTS)",
           "keep = np.repeat(curved | True, 1 + EXTRA_BASEPOINTS)",
           ("tests/test_cli.py::test_probe_transports_exactly_the_curved_planes",)),
    Mutant("canonical-passed-ignores-witness", "src/holonomy/canonical.py",
           'StageDocument("canonical", ("n",), ("gL_witness",))',
           'StageDocument("canonical", ("n", "gL_witness"))',
           ("tests/test_canonical.py::test_canonical_report_carries_the_witness",)),
    Mutant("validate-pair-against-itself", "src/holonomy/canonical.py",
           "return first_mismatch(gl, gl.T)",
           "return first_mismatch(gl, gl)",
           ("tests/test_canonical.py::test_validate_pair_reports",)),
    Mutant("canonical-perm-off-by-one", "src/holonomy/canonical.py",
           "perm = 2 * first + sizes[block] - 1 - np.arange(spec.dim)",
           "perm = 2 * first + sizes[block] - np.arange(spec.dim)",
           ("tests/test_canonical.py::test_build_blocks_1_2",)),
    Mutant("canonical-perm-off-by-one-down", "src/holonomy/canonical.py",
           "perm = 2 * first + sizes[block] - 1 - np.arange(spec.dim)",
           "perm = 2 * first + sizes[block] - 2 - np.arange(spec.dim)",
           ("tests/test_canonical.py::test_build_blocks_1_2",)),
    Mutant("metric-takes-den-zero", "src/holonomy/realize.py",
           "if den <= 0:",
           "if den < 0:",
           ("tests/test_realize.py::test_exact_inputs_past_the_entry_cap_are_refused",)),
    Mutant("times-g-on-axis-0", "src/holonomy/exactla.py",
           "np.take(x, perm, axis) * np.reshape(sign, (-1,) + (1,) * (x.ndim - 1 - axis % x.ndim))",
           "np.take(x, perm, 0) * np.reshape(sign, (-1,) + (1,) * (x.ndim - 1))",
           ("tests/test_exactla.py::test_times_g_is_the_dense_product_on_every_axis",)),
    Mutant("report-missing-spec-as-empty", "src/holonomy/cli.py",
           'pencil_from_json(doc["spec"] if',
           '__import__("holonomy.canonical").canonical.PencilSpec((), ()) if "spec" not in doc'
           ' else pencil_from_json(doc["spec"] if',
           ("tests/test_cli.py::test_report_without_a_spec_echo_is_an_error_row",)),
    Mutant("canonical-label-zero", "src/holonomy/canonical.py",
           "block, labels[block])",
           "block, 0 * labels[block])",
           ("tests/test_canonical.py::test_build_two_eigenvalues",)),
    Mutant("invertibility-bound-quartered", "src/holonomy/realize.py",
           "max()), qm.den)",
           "max()), 4 * qm.den)",
           ("tests/test_probe.py::test_singular_lasso_fails_bound_and_is_refused",)),
    Mutant("report-trusts-stored-verdict", "src/holonomy/cli.py",
           "verdict = _verdict(stages)",
           'verdict = doc["verdict"]',
           ("tests/test_cli.py::test_report_derives_its_verdict_from_the_stage_documents",)),
    Mutant("verdict-first-stage-only", "src/holonomy/cli.py",
           "for doc in stages.values())",
           "for doc in list(stages.values())[:1])",
           ("tests/test_cli.py::test_report_names_the_first_witness_of_a_failing_report",)),
    Mutant("report-trusts-stage-passed", "src/holonomy/cli.py",
           "facts = [_first_failure(stages, name) for name in names]",
           "facts = []",
           ("tests/test_cli.py::test_report_checks_each_stage_document_by_its_declaration",)),
    # the reader's config check skipped but for the stage order, which other
    # tests hold: the seed and the key set go unread
    Mutant("report-config-unchecked", "src/holonomy/cli.py",
           '        config = RunConfig(path, doc["config"]["stages"], doc["config"]["seed"])\n'
           '        if doc["config"] != config.echo():\n'
           '            raise ValueError("config is not one that verify writes")\n'
           '        names, stages = config.stages, doc["stages"]\n',
           '        names, stages = doc["config"]["stages"], doc["stages"]\n'
           '        if not names or names != [s for s in ALL_STAGES if s in names]:\n'
           '            raise ValueError("config.stages not in pipeline order")\n',
           ("tests/test_cli.py::test_report_reads_its_config_by_the_run_config_rule",)),
    Mutant("report-probe-dim-unchecked", "src/holonomy/probe/transport.py",
           'needs="berger", shared=("dim_gL",))',
           'needs="berger")',
           ("tests/test_cli.py::"
            "test_report_reads_the_probe_document_with_and_without_its_certificate",)),
    Mutant("capped-reads-only-the-largest", "src/holonomy/exactla.py",
           "max(-int(a.min()), int(a.max())) > ENTRY_CAP",
           "int(a.max()) > ENTRY_CAP",
           ("tests/test_exactla.py::test_capped_refuses_entries_past_the_cap[-cap-1]",)),
    Mutant("capped-takes-objects", "src/holonomy/exactla.py",
           'if a.dtype.kind not in "iu" or (',
           'if a.dtype.kind not in "iuO" or (',
           ("tests/test_exactla.py::test_capped_refuses_entries_past_the_cap[object]",)),
    Mutant("times-L-links-across-blocks", "src/holonomy/exactla.py",
           "(pair.block[1:] == pair.block[:-1])",
           "(pair.block[1:] != pair.block[:-1])",
           ("tests/test_canonical.py::test_build_blocks_1_2",)),
    Mutant("times-L-without-label", "src/holonomy/exactla.py",
           "out = x * pair.label[along]",
           "out = x * 0",
           ("tests/test_canonical.py::test_build_two_eigenvalues",)),
    Mutant("times-L-shift-zero", "src/holonomy/exactla.py",
           "(slice(None, -1), slice(1, None))",
           "(slice(None, -1), slice(None, -1))",
           ("tests/test_canonical.py::test_build_blocks_1_2",)),
    # the four wrong combinations of test_realize.py::CHRISTOFFEL, written
    # into the one raised C that route two and the probe read
    *(Mutant(f"raised-christoffel-{name}", "src/holonomy/realize.py",
             "b + b.transpose(0, 2, 1, 3) - b.transpose(2, 1, 0, 3)", new,
             ("tests/test_realize.py::test_verify_realization",))
      for name, new in (("third-term-dropped", "b + b.transpose(0, 2, 1, 3)"),
                        ("third-term-sign", "b + b.transpose(0, 2, 1, 3) + b.transpose(2, 1, 0, 3)"),
                        ("second-term-axes", "b + b.transpose(0, 3, 2, 1) - b.transpose(2, 1, 0, 3)"),
                        ("third-term-axes", "b + b.transpose(0, 2, 1, 3) - b.transpose(2, 3, 0, 1)"))),
    # the lasso's way back along its tail integrated by RK4 as its own
    # polyline, whose error does not cancel the way out's, in place of the
    # exact inverse of the tail's transport
    Mutant("return-tail-integrated", "src/holonomy/probe/transport.py",
           "    runs = kernels.transport_polyline(fm.mats, verts, STEPS)\n"
           "    square, tail = runs[:, :len(planes)], runs[:, len(planes):]\n"
           "    tail += np.eye(fm.n)\n"
           "    d = np.linalg.solve(tail, square @ tail)\n",
           "    k, eye = len(planes), np.eye(fm.n)\n"
           "    runs = kernels.transport_polyline(\n"
           "        fm.mats, np.concatenate([verts, verts[k:, ::-1]]), STEPS)\n"
           "    square, tail, back = runs[:, :k], runs[:, k:2 * k] + eye, runs[:, 2 * k:] + eye\n"
           "    d = back @ (square + eye) @ tail - eye\n",
           ("tests/test_probe.py::"
            "test_far_flat_plane_loops_come_back_along_the_exact_inverse_of_the_tail",)),
    # the entries grow until the Hadamard check refuses them
    Mutant("pivot-without-content-division", "src/holonomy/exactla.py",
           "g = math.gcd(*v.values())",
           "g = 1",
           ("tests/test_differential.py::"
            "test_elimination_matches_fraction_rref_on_a_dense_matrix",)),
    Mutant("pivot-without-growth-check", "src/holonomy/exactla.py",
           "if max(map(abs, v.values())).bit_length() > bits:",
           "if False:",
           ("tests/test_exactla.py::test_elimination_refuses_entries_past_the_hadamard_bound",)),
    # the one-BLAS-thread default: never set, set over the user's count, or
    # set after numpy has read its count
    Mutant("blas-default-dropped", "src/holonomy/__init__.py",
           'os.environ["OPENBLAS_NUM_THREADS"] = "1"',
           "pass",
           ("tests/test_cli.py::test_import_sets_one_blas_thread_only_by_default",
            "tests/test_cli.py::test_plain_verify_runs_blas_on_one_thread")),
    Mutant("blas-default-over-user-setting", "src/holonomy/__init__.py",
           ' and not (\n        "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ)',
           "",
           ("tests/test_cli.py::test_import_sets_one_blas_thread_only_by_default",)),
    Mutant("blas-default-after-numpy", "src/holonomy/__init__.py",
           'if "numpy" not in sys.modules and not (',
           "if not (",
           ("tests/test_cli.py::test_import_sets_one_blas_thread_only_by_default",)),
)


class CatalogueError(Exception):
    """An entry that cannot be applied or run as written."""


def copy_tree(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def apply(mutant: Mutant, dest: Path) -> None:
    path = dest / mutant.file
    if not mutant.file.startswith("src/") or not path.is_file():
        raise CatalogueError(f"{mutant.name}: {mutant.file} is not a file under src/")
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise CatalogueError(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def pytest(dest: Path, tests) -> int | None:
    """Exit status of pytest -x on ``tests`` in the copy at ``dest``, with
    the copy's package first on the path, or None when it ran past
    ``TIMEOUT``: then its process group is killed."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import holonomy; print(holonomy.__file__)"],
                           cwd=dest, env=env, capture_output=True, text=True)
    if not Path(where.stdout.strip()).is_relative_to(dest / "src"):
        raise CatalogueError(f"holonomy imports from {where.stdout.strip() or where.stderr!r}, "
                             f"not from the copy {dest / 'src'}")
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *tests], cwd=dest, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session's group: pytest and its children
        proc.wait()
        return None


def main(names) -> int:
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in CATALOGUE if not names or m.name in names]
    bad = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = sorted({t for m in chosen for t in m.tests})
        status = pytest(base, tests)
        if status != 0:
            why = f"time out after {TIMEOUT} s" if status is None else f"exit {status}"
            print(f"the named tests do not pass unmutated (pytest: {why})")
            return 1
        for mutant in chosen:
            dest = Path(tmp) / mutant.name
            shutil.copytree(base, dest)
            started = time.perf_counter()
            try:
                apply(mutant, dest)
                status = pytest(dest, mutant.tests)
            except CatalogueError as exc:
                print(f"ERROR    {exc}")
                bad.append(mutant.name)
                continue
            killed = status in (1, None)
            how = "killed (timeout)" if status is None else "killed" if killed else "SURVIVED"
            print(f"{how:8} {mutant.name} "
                  f"(pytest exit {status}, {time.perf_counter() - started:.1f} s)")
            if not killed:
                bad.append(mutant.name)
    print(f"{len(chosen) - len(bad)} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
