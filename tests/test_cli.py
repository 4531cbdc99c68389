"""CLI pipeline, corpus enumeration, and report summarization."""

import csv
import functools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import holonomy
from holonomy.berger import berger_certificate, r_formal
from holonomy import canonical
from holonomy.canonical import MAX_DIM, MAX_SPEC_BYTES, build_canonical, pencil_from_json, pencil_to_json
from holonomy.cli import ALL_STAGES, MAX_REPORT_BYTES, RunConfig, cmd_verify, iter_corpus_specs, main
from holonomy.probe.transport import EXTRA_BASEPOINTS

import exact_digest
from helpers import N24_BLOCKS, SPEC_REFUSALS, eigenvalue_entry
from oracles import wedge_tags


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


SPEC_1_2 = {"eigenvalues": [{"lambda": "0", "blocks": [
    {"size": 1, "sign": 1}, {"size": 2, "sign": 1}]}]}
SPEC_SINGLE = {"eigenvalues": [{"lambda": "0", "blocks": [{"size": 3, "sign": 1}]}]}


def test_verify_full_pipeline(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    out = tmp_path / "report.json"
    code = main(["verify", "--input", str(spec), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["stages"]["berger"]["dim_gL"] == 1
    assert report["stages"]["probe"]["span_rank"] == 1
    assert report["stages"]["realize"]["passed"] is True
    # timings go to stderr, never into the report
    captured = capsys.readouterr()
    assert "[timing]" in captured.err
    assert "timing" not in out.read_text()


def test_full_verify_never_imports_numpy_random(tmp_path):
    # the probe's corners come from the standard library's random; checked
    # in a fresh interpreter, because this test session loads numpy.random
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    out = tmp_path / "report.json"
    code = ("import sys\n"
            "from holonomy.cli import main\n"
            f"assert main(['verify', '--input', {str(spec)!r}, '--out', {str(out)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']))\n")
    path = [str(Path(holonomy.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    # the report goes to stdout too; the module list is the last line
    assert run.stdout.splitlines()[-1] == "[]", run.stdout[-500:]
    report = json.loads(out.read_text())
    assert set(report["stages"]) == set(ALL_STAGES) and report["verdict"] == "pass"


def test_verify_regular_spec_trivial_algebra(tmp_path):
    spec = write_spec(tmp_path, "single.json", SPEC_SINGLE)
    report, code = cmd_verify(RunConfig(input=str(spec)))
    assert code == 0
    assert report["stages"]["berger"]["dim_gL"] == 0
    assert report["stages"]["probe"]["span_rank"] == 0


def _blocks(*blocks):
    return {"eigenvalues": [{"lambda": "0", "blocks": list(blocks)}]}


MALFORMED_SPECS = [
    {"eigenvalues": [5]},
    {"eigenvalues": {"lambda": "0", "blocks": [{"size": 1, "sign": 1}]}},
    {"eigenvalues": [{"lambda": "0", "blocks": {"size": 1, "sign": 1}}]},
    {"eigenvalues": [{"lambda": "0", "blocks": [1]}]},
    {"eigenvalues": [{"lambda": "0"}]},
    [],
    _blocks({"size": 2.7, "sign": 1.9}),
    _blocks({"size": 2, "sign": 1.0}),
    _blocks({"size": 2.0, "sign": 1}),
    _blocks({"size": 1, "sign": True}),
    _blocks({"size": True, "sign": 1}),
    _blocks({"size": "2", "sign": 1}),
    _blocks({"size": 0, "sign": 1}),
    _blocks({"size": 1, "sign": 2}),
    _blocks({"size": 1}),
    {"eigenvalues": [{"lambda": "inf", "blocks": [{"size": 1, "sign": 1}]}]},
    {"eigenvalues": [{"lambda": "nan", "blocks": [{"size": 1, "sign": 1}]}]},
    {"eigenvalues": [{"lambda": "-Infinity", "blocks": [{"size": 1, "sign": 1}]}]},
    {"eigenvalues": [{"lambda": "1+2i", "blocks": [{"size": 1, "sign": 1}]}]},
    {"eigenvalues": [{"lambda": "1e5000", "blocks": [{"size": 1, "sign": 1}]}]},
    {"eigenvalues": [{"lambda": "1e999999999", "blocks": [{"size": 1, "sign": 1}]}]},
    {"eigenvalues": [{"lambda": "9" * 5000, "blocks": [{"size": 1, "sign": 1}]}]},
    {"eigenvalues": [{"lambda": None, "blocks": [{"size": 1, "sign": 1}]}]},
    {"eigenvalues": [{"lambda": True, "blocks": [{"size": 1, "sign": 1}]}]},
    {"eigenvalues": [{"lambda": 0.5, "blocks": [{"size": 1, "sign": 1}]}]},
    {"eigenvalues": [{"blocks": [{"size": 1, "sign": 1}]}]},
    # a long malformed entry, size or sign: the report echoes only its start
    {"eigenvalues": [[0] * 200_000]},
    _blocks({"size": [0] * 200_000, "sign": 1}),
    _blocks({"size": 1, "sign": [0] * 200_000}),
]


def test_verify_invalid_inputs(tmp_path, capsys):
    dup = {"eigenvalues": [
        {"lambda": "0", "blocks": [{"size": 1, "sign": 1}]},
        {"lambda": "0", "blocks": [{"size": 2, "sign": 1}]},
    ]}
    spec = write_spec(tmp_path, "dup.json", dup)
    assert main(["verify", "--input", str(spec)]) == 2
    assert main(["verify", "--input", str(tmp_path / "missing.json")]) == 2
    good = write_spec(tmp_path, "ok.json", SPEC_SINGLE)
    assert main(["verify", "--input", str(good), "--stages", "bogus"]) == 2
    # a repeated stage would be echoed twice in the report's config
    capsys.readouterr()
    assert main(["verify", "--input", str(good), "--stages", "probe,probe"]) == 2
    assert main(["verify", "--input", str(good), "--stages", "canonical,berger,canonical"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("repeated stage") == 2
    for k, doc in enumerate(MALFORMED_SPECS):
        spec = write_spec(tmp_path, f"bad{k}.json", doc)
        capsys.readouterr()
        assert main(["verify", "--input", str(spec)]) == 2, doc
        out = capsys.readouterr().out
        assert "error" in json.loads(out), doc
        assert len(out) < 1024, out[:200]
    for k, raw in enumerate([b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000]):
        spec = tmp_path / f"raw{k}.json"
        spec.write_bytes(raw)
        assert main(["verify", "--input", str(spec)]) == 2


def test_verify_dimension_cap(tmp_path, capsys):
    at_cap = write_spec(tmp_path, "n24.json", _blocks({"size": MAX_DIM, "sign": 1}))
    assert main(["verify", "--input", str(at_cap), "--stages", "canonical"]) == 0
    assert json.loads(capsys.readouterr().out)["stages"]["canonical"]["n"] == MAX_DIM
    over = write_spec(tmp_path, "n25.json",
                      _blocks({"size": 1, "sign": 1}, {"size": MAX_DIM, "sign": 1}))
    assert main(["verify", "--input", str(over)]) == 2
    captured = capsys.readouterr()
    message = json.loads(captured.out)["error"]
    assert "exceeds the maximum" in message and "\n" not in message
    assert "[timing]" not in captured.err  # rejected before any stage ran


def _refused(path, capsys) -> str:
    """The one-line error of a verify call that must exit 2 in well under a second."""
    started = time.perf_counter()
    assert main(["verify", "--input", str(path)]) == 2
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    message = json.loads(out)["error"]
    assert "\n" not in message and len(out) < 1024, out[:200]
    assert elapsed < 0.5, elapsed
    return message


def test_verify_spec_size_caps(tmp_path, capsys, monkeypatch):
    # a file past MAX_SPEC_BYTES is refused unparsed, however large it is
    valid = json.dumps(SPEC_SINGLE).encode()
    for name, size in (("over.json", MAX_SPEC_BYTES + 1), ("huge.json", 30 * 2 ** 20)):
        path = tmp_path / name
        path.write_bytes(valid + b" " * (size - len(valid)))
        assert "larger than" in _refused(path, capsys)
    at_cap = tmp_path / "at_cap.json"
    at_cap.write_bytes(valid + b" " * (MAX_SPEC_BYTES - len(valid)))
    assert main(["verify", "--input", str(at_cap), "--stages", "canonical"]) == 0
    capsys.readouterr()
    # deep nesting inside the cap is still refused by the parser
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 30_000 + b"]" * 30_000)
    assert "invalid JSON" in _refused(deep, capsys)

    # longer eigenvalue or block lists are refused before any block is built
    def no_block(*args, **kwargs):
        raise AssertionError("a block was checked")

    monkeypatch.setattr(canonical, "_block", no_block)
    block = {"size": 1, "sign": 1}
    eigens = {"eigenvalues": [{"lambda": str(k), "blocks": [block]} for k in range(MAX_DIM + 1)]}
    assert "eigenvalues exceed" in _refused(write_spec(tmp_path, "eigens.json", eigens), capsys)
    blocks = _blocks(*[block] * 2000)
    assert "blocks exceed" in _refused(write_spec(tmp_path, "blocks.json", blocks), capsys)
    # the list caps hold for a parsed document of any length
    for doc in ({"eigenvalues": eigens["eigenvalues"] * 40_000},
                _blocks(*[block] * 1_000_000)):
        started = time.perf_counter()
        with pytest.raises(canonical.InvalidSpecError, match="exceed the maximum dimension"):
            pencil_from_json(doc)
        assert time.perf_counter() - started < 0.5


def exit_status(argv) -> int:
    """``main``'s exit status, also when argparse refuses the arguments."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("option", [
    ["--seed", "-1"],
    ["--seed", "x"],
    ["--seed", "1.5"],
    ["--seed"],
    ["--stages", ""],
    ["--stages", "canonical probe"],  # a comma list, not a space list
    ["--input"],
    ["--out"],
    # the probe's step count and tolerances are constants, not options
    ["--membership-tol", "1e-3"],
    ["--rank-threshold", "1e-3"],
    ["--steps", "4"],
    ["extra"],
])
def test_verify_rejects_bad_options(tmp_path, capsys, option):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    capsys.readouterr()
    assert exit_status(["verify", "--input", str(spec)] + option) == 2
    captured = capsys.readouterr()
    # rejected before any stage ran: no stage timings, one message line
    # (after argparse's usage lines, for arguments it cannot parse)
    assert captured.out == ""
    *usage, message = captured.err.strip().splitlines()
    assert all(ln.startswith(("usage:", " ")) for ln in usage), usage
    assert "[timing]" not in captured.err


def test_report_config_holds_stages_and_seed(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    assert main(["verify", "--input", str(spec), "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"] == {"stages": ["canonical", "berger", "realize", "probe"], "seed": 5}
    assert "seed" not in report["stages"]["probe"]


def test_report_is_strict_json_when_nothing_is_discarded(tmp_path, capsys):
    # dim g_L = 0: the spectrum is empty, and no field holds an infinity
    spec = write_spec(tmp_path, "single.json", SPEC_SINGLE)
    assert main(["verify", "--input", str(spec)]) == 0

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    probe = json.loads(capsys.readouterr().out, parse_constant=refuse)["stages"]["probe"]
    assert probe["dim_gL"] == 0 and probe["passed"] is True
    assert "sv_gap" not in probe and probe["singular_values"] == []
    assert probe["validity_radius"] > 0


def _count_calls(monkeypatch, targets) -> dict:
    """Count the calls of each (module, name) target through every
    ``holonomy`` module that bound it; returns the counts, filled as they happen."""
    import holonomy.probe  # noqa: F401  (so its bindings are counted too)

    counts = {name: 0 for _, name in targets}
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("holonomy") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


# the exact objects each stage builds first when it runs alone, and a full run
EVERY_OBJECT = {"block_tensor": 1, "r_formal": 1, "berger_certificate": 1, "lower_B": 1,
                "raised": 1}
BUILT = {
    ("canonical",): {},
    ("berger",): {"block_tensor": 1, "r_formal": 1, "berger_certificate": 1},
    ("realize",): {"block_tensor": 1, "r_formal": 1, "lower_B": 1, "raised": 1},
    ("probe",): EVERY_OBJECT,
    ALL_STAGES: EVERY_OBJECT,
}


@pytest.mark.parametrize("stages", list(BUILT), ids=["canonical", "berger", "realize", "probe", "all"])
def test_verify_builds_each_exact_object_once(stages, tmp_path, monkeypatch):
    import holonomy.berger
    import holonomy.canonical
    import holonomy.realize

    counts = _count_calls(monkeypatch, ((holonomy.berger, "r_formal"),
                                        (holonomy.berger, "berger_certificate"),
                                        (holonomy.realize, "lower_B")))
    # the pair's block tensor is built once and both exact objects are read
    # off it; the raised Christoffel pair is formed once, for the realize
    # and probe stages
    for cls, name in ((holonomy.canonical.CanonicalPair, "block_tensor"),
                      (holonomy.realize.QuadraticMetric, "raised")):
        def counted(obj, build=getattr(cls, name).func, name=name):
            counts[name] += 1
            return build(obj)

        prop = functools.cached_property(counted)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
        counts[name] = 0
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    report, code = cmd_verify(RunConfig(input=str(spec), stages=stages))
    assert code == 0 and tuple(report["stages"]) == stages
    assert {name: count for name, count in counts.items() if count} == BUILT[stages]


@pytest.mark.parametrize("stages", [("probe",), ("realize", "canonical"), ("berger", "probe"),
                                    ALL_STAGES], ids=["probe", "realize-canonical",
                                                      "berger-probe", "all"])
def test_each_stage_prints_one_timing_line_in_pipeline_order(stages, tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    assert main(["verify", "--input", str(spec), "--stages", ",".join(stages)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        f"[timing] {s}" for s in ALL_STAGES if s in stages], lines
    assert all(re.fullmatch(r"\[timing\] \w+: \d+\.\d{3}s", ln) for ln in lines), lines


@pytest.mark.parametrize("stages, checks", [(("berger",), 1), (ALL_STAGES, 1)], ids=["berger", "all"])
def test_verify_checks_g_once_per_object(stages, checks, tmp_path, monkeypatch):
    # the pair checks its g once, when build_canonical makes it, and
    # validate_pair, r_formal, the commutator system and the containment
    # check read it; the metric holds the pair and reads its g as g0
    import holonomy.exactla

    counts = _count_calls(monkeypatch, ((holonomy.exactla, "check_involution"),))
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    report, code = cmd_verify(RunConfig(input=str(spec), stages=stages))
    assert code == 0 and report["stages"]["berger"]["passed"]
    assert counts["check_involution"] == checks


def test_verify_stage_subset(tmp_path):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    report, code = cmd_verify(RunConfig(input=str(spec), stages=("canonical", "berger")))
    assert code == 0
    assert set(report["stages"]) == {"canonical", "berger"}


SPECS_BERGER = {
    "1+2+": SPEC_1_2,
    "3+": SPEC_SINGLE,
    "n24": {"eigenvalues": [eigenvalue_entry("-1/3", *N24_BLOCKS)]},
    "multi": {"eigenvalues": [eigenvalue_entry("0", (1, 1), (2, -1), (3, 1)),
                              eigenvalue_entry("5/7", (2, 1), (2, -1))]},
}


@pytest.mark.parametrize("name", SPECS_BERGER)
def test_berger_certificate_is_the_berger_stage_document(tmp_path, name):
    # the library call returns the very document the CLI reports, strict JSON
    doc = SPECS_BERGER[name]
    spec = write_spec(tmp_path, "spec.json", doc)
    report, code = cmd_verify(RunConfig(input=str(spec), stages=("berger",)))
    pair = build_canonical(pencil_from_json(json.dumps(doc)))
    cert = berger_certificate(pair, r_formal(pair))
    assert code == 0 and cert == report["stages"]["berger"]
    assert json.loads(json.dumps(cert, allow_nan=False)) == cert


def test_verify_stage_order_does_not_change_the_report(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    outputs = []
    for stages in ("canonical,berger", "berger,canonical"):
        assert main(["verify", "--input", str(spec), "--stages", stages]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["config"]["stages"] == ["canonical", "berger"]


def test_verify_probe_only_builds_metric(tmp_path):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    report, code = cmd_verify(RunConfig(input=str(spec), stages=("probe",)))
    assert code == 0
    assert report["stages"]["probe"]["passed"] is True


SPECS_ALL_FLAT = {
    "2: 3+": {"eigenvalues": [{"lambda": "2", "blocks": [{"size": 3, "sign": 1}]}]},
    "1: 1+; 2: 2-": {"eigenvalues": [{"lambda": "1", "blocks": [{"size": 1, "sign": 1}]},
                                     {"lambda": "2", "blocks": [{"size": 2, "sign": -1}]}]},
}


@pytest.mark.parametrize("name", SPECS_ALL_FLAT)
def test_probe_with_every_plane_flat_transports_nothing(tmp_path, name):
    spec = write_spec(tmp_path, "spec.json", SPECS_ALL_FLAT[name])
    report, code = cmd_verify(RunConfig(input=str(spec)))
    probe = report["stages"]["probe"]
    assert code == 0 and probe["passed"] is True
    assert probe["samples"] == [] and probe["flat_planes"] == 3  # every plane at n = 3
    assert probe["span_rank"] == probe["dim_gL"] == report["stages"]["berger"]["dim_gL"] == 0
    assert probe["max_loop_extent"] == 0.0 and probe["max_step_error"] == 0.0


def test_probe_transports_exactly_the_curved_planes(tmp_path):
    doc = {"eigenvalues": [{"lambda": "-1/3", "blocks": [
        {"size": 1, "sign": 1}, {"size": 2, "sign": -1}, {"size": 3, "sign": 1}]}]}
    spec = write_spec(tmp_path, "spec.json", doc)
    report, code = cmd_verify(RunConfig(input=str(spec), seed=5))
    probe = report["stages"]["probe"]
    assert code == 0 and probe["passed"] is True
    rmap = r_formal(build_canonical(pencil_from_json(json.dumps(doc))))
    curved = {tag for tag, value in zip(wedge_tags(6), rmap, strict=True) if value.any()}
    assert {tuple(s["plane"]) for s in probe["samples"]} == curved
    n = 6
    assert 0 < probe["flat_planes"] == n * (n - 1) // 2 - len(curved)
    assert len(probe["samples"]) == (1 + EXTRA_BASEPOINTS) * (n * (n - 1) // 2 - probe["flat_planes"])


def test_all_plus_ones21_passes_at_seed_1(tmp_path):
    # regression: 21 blocks of size 1, all +, so g_L = so(21) and the signs
    # cancel nothing.  With each off-origin lasso's tail integrated out and
    # back, the two RK4 runs missed I by their truncation error, and the
    # samples reached rank 211 with a step error above 1e-13
    doc = {"eigenvalues": [{"lambda": "0", "blocks": [{"size": 1, "sign": 1}] * 21}]}
    report, code = cmd_verify(RunConfig(input=str(write_spec(tmp_path, "spec.json", doc)), seed=1))
    probe = report["stages"]["probe"]
    assert code == 0 and report["verdict"] == "pass"
    assert probe["span_rank"] == probe["dim_gL"] == 210
    assert probe["max_step_error"] <= 1e-13


def test_verify_stdout_and_out_file_are_the_same_bytes(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    out = tmp_path / "report.json"
    assert main(["verify", "--input", str(spec), "--out", str(out)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_reports_deterministic(tmp_path):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--input", str(spec), "--out", str(out1), "--seed", "3"]) == 0
    assert main(["verify", "--input", str(spec), "--out", str(out2), "--seed", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reports_across_blas_thread_counts(tmp_path):
    # the stated contract: a report's bytes are fixed for one config, seed and
    # BLAS thread count.  Across thread counts the exact documents and every
    # probe field are equal but the residuals and drifts, which move by
    # rounding, and the singular values, which move by a few ulps of s0.
    # At seed 0 this spec's reports differ between 1 and 2 threads
    name = "n12_p1-1-1-1-2-2-2-2_s++++++++"
    spec = write_spec(tmp_path, "spec.json", dict(iter_corpus_specs(12))[name])
    path = [str(Path(holonomy.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-m", "holonomy.cli", "verify", "--input",
                              str(spec), "--seed", "0", "--out", str(out)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        reports.append(json.loads(out.read_text()))
    one, two = reports
    assert one["verdict"] == two["verdict"] == "pass"
    for stage in ("canonical", "berger", "realize"):
        assert one["stages"][stage] == two["stages"][stage], stage
    p, q = one["stages"]["probe"], two["stages"]["probe"]
    for key in ("span_rank", "dim_gL", "flat_planes", "max_step_error", "max_loop_extent",
                "validity_radius"):
        assert p[key] == q[key], key
    assert len(p["samples"]) == len(q["samples"]) == 120
    for a, b in zip(p["samples"], q["samples"]):
        for key in ("plane", "side", "basepoint", "step_error"):
            assert a[key] == b[key], key
        for key in ("residual", "metric_drift"):
            assert abs(a[key] - b[key]) < 1e-15, (key, a[key], b[key])
    s0 = p["singular_values"][0]
    assert len(p["singular_values"]) == len(q["singular_values"])
    assert all(abs(a - b) < 1e-14 * s0 for a, b in zip(p["singular_values"], q["singular_values"]))


def test_verify_unwritable_out_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    out = tmp_path / "missing" / "r.json"
    code = main(["verify", "--input", str(spec), "--stages", "canonical", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (message,) = [ln for ln in captured.err.splitlines() if not ln.startswith("[timing]")]
    assert "cannot write the report" in message and str(out) in message
    assert not out.parent.exists()
    # an existing directory: the temp file is written, the rename fails
    taken = tmp_path / "taken"
    taken.mkdir()
    code = main(["verify", "--input", str(spec), "--stages", "canonical", "--out", str(taken)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "cannot write the report" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", "taken"]
    assert not any(taken.iterdir())


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    target = tmp_path / "target.json"
    target.write_text("old", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["verify", "--input", str(spec), "--stages", "canonical", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text(encoding="utf-8") == capsys.readouterr().out
    # a corpus spec that is a link
    out = tmp_path / "corpus"
    out.mkdir()
    (out / "n2_p2_s+.json").symlink_to(target)
    assert main(["corpus", "--max-n", "2", "--out", str(out)]) == 0
    assert (out / "n2_p2_s+.json").is_symlink()
    assert json.loads(target.read_text(encoding="utf-8")) == dict(iter_corpus_specs(2))["n2_p2_s+"]
    assert not list(tmp_path.glob("**/*.tmp"))


def test_a_stale_tmp_symlink_is_never_written_through(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    victim = tmp_path / "victim"
    victim.write_text("untouched", encoding="utf-8")
    out = tmp_path / "r.json"
    (tmp_path / "r.json.tmp").symlink_to(victim)
    assert main(["verify", "--input", str(spec), "--stages", "canonical", "--out", str(out)]) == 0
    assert victim.read_text(encoding="utf-8") == "untouched"
    assert not out.is_symlink() and out.read_text(encoding="utf-8") == capsys.readouterr().out
    # a link at this process's own temp name is refused, not followed, and kept
    own = tmp_path / f"r2.json.{os.getpid()}.tmp"
    own.symlink_to(victim)
    out = tmp_path / "r2.json"
    assert main(["verify", "--input", str(spec), "--stages", "canonical", "--out", str(out)]) == 2
    assert "cannot write the report" in capsys.readouterr().err
    assert victim.read_text(encoding="utf-8") == "untouched"
    assert own.is_symlink() and not out.exists()


def test_a_stale_tmp_directory_does_not_block_the_report(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    (tmp_path / "r.json.tmp").mkdir()
    out = tmp_path / "r.json"
    for _ in range(2):
        assert main(["verify", "--input", str(spec), "--stages", "canonical",
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "r.json.tmp", "spec.json"]


def test_corpus_out_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep", encoding="utf-8")
    code = main(["corpus", "--max-n", "3", "--out", str(taken)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "cannot write the corpus" in captured.err
    assert taken.read_text(encoding="utf-8") == "keep"
    # a directory where a spec goes: the rename fails and leaves no temp file
    out = tmp_path / "corpus"
    (out / "n2_p1-1_s+-.json").mkdir(parents=True)
    assert main(["corpus", "--max-n", "2", "--out", str(out)]) == 2
    assert "cannot write the corpus" in capsys.readouterr().err
    assert not list(out.glob("*.tmp"))


def test_corpus_max_n_2(tmp_path):
    names = [name for name, _ in iter_corpus_specs(2)]
    assert names == ["n2_p1-1_s++", "n2_p1-1_s+-", "n2_p2_s+"]
    code = main(["corpus", "--max-n", "2", "--out", str(tmp_path / "corpus")])
    assert code == 0
    files = sorted((tmp_path / "corpus").glob("*.json"))
    assert [f.stem for f in files] == names
    for f in files:
        pencil_from_json(f.read_text())  # every emitted spec parses and validates


def test_corpus_partitions_max_n_3():
    names = [name for name, _ in iter_corpus_specs(3) if name.startswith("n3")]
    partitions = {n.split("_")[1] for n in names}
    assert partitions == {"p1-1-1", "p1-2", "p3"}


def test_corpus_sign_dedup_equal_sizes():
    # three equal blocks: +++, ++-, +--, --- collapse to two classes
    names = [n for n, _ in iter_corpus_specs(3) if n.startswith("n3_p1-1-1")]
    assert names == ["n3_p1-1-1_s+++", "n3_p1-1-1_s++-"]


def test_corpus_rejects_bad_max_n(tmp_path):
    assert main(["corpus", "--max-n", "1", "--out", str(tmp_path)]) == 2
    assert main(["corpus", "--max-n", "13", "--out", str(tmp_path)]) == 2


def test_corpus_documents_round_trip_through_the_spec_codec():
    for name, doc in iter_corpus_specs(12):
        spec = pencil_from_json(doc)
        assert pencil_to_json(spec) == doc, name
        # the name encodes the one eigenvalue 0 with its partition and signs
        n, sizes, signs = re.fullmatch(r"n(\d+)_p([\d-]+)_s([+-]+)", name).groups()
        (blocks,) = spec.blocks
        assert spec.lams == (0,) and spec.dim == int(n), name
        assert sizes.split("-") == [str(size) for size, _ in blocks], name
        assert [1 if c == "+" else -1 for c in signs] == [sign for _, sign in blocks], name


def test_corpus_count_max_n_12():
    assert len(iter_corpus_specs(7)) == 126
    assert len(iter_corpus_specs(12)) == 1579


def test_exact_stage_reports_match_the_committed_digest(tmp_path):
    # the exact-stage stdout of all 1579 corpus specs and of CI's six specs,
    # byte for byte; a change that alters it on purpose regenerates the
    # digest (tests/exact_digest.py --write) and says so
    found = exact_digest.digest(tmp_path)
    assert found == exact_digest.DIGEST_FILE.read_text(encoding="ascii").strip()


def test_report_summary(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    out = tmp_path / "report.json"
    main(["verify", "--input", str(spec), "--out", str(out)])
    csv_out = tmp_path / "summary.csv"
    code = main(["report", str(out), "--csv", str(csv_out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "pass" in table and "1-2" in table
    lines = csv_out.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("file,")


def test_report_unwritable_csv_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    out = tmp_path / "report.json"
    assert main(["verify", "--input", str(spec), "--stages", "canonical", "--out", str(out)]) == 0
    capsys.readouterr()
    csv_out = tmp_path / "missing" / "summary.csv"
    code = main(["report", str(out), "--csv", str(csv_out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "cannot write the CSV" in captured.err and str(csv_out) in captured.err
    assert not csv_out.parent.exists()


def test_report_empty_and_errors(tmp_path, capsys):
    assert main(["report"]) == 0
    bogus = tmp_path / "broken.json"
    bogus.write_text("{not json")
    assert main(["report", str(bogus)]) == 1
    assert "error" in capsys.readouterr().out
    for k, raw in enumerate([b"[]", b"5", b'"report"', b"null",
                             b'{"spec": [], "verdict": "pass"}', b'{"stages": 5}',
                             b'{"spec": {"eigenvalues": [{"blocks": [{"size": 1}]}]}}',
                             b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000]):
        listing = tmp_path / f"unusable{k}.json"
        listing.write_bytes(raw)
        summary = tmp_path / f"unusable{k}.csv"
        assert main(["report", str(listing), "--csv", str(summary)]) == 1
        header, line = capsys.readouterr().out.strip().splitlines()
        header = header.split("\t")
        row = dict(zip(header, line.split("\t")))
        assert len(row) == len(header) == len(line.split("\t"))
        assert row["file"] == f"unusable{k}.json" and row["verdict"] == "error"
        # the reason is shown, on one line in one cell
        assert row["error"] and row["error"] == " ".join(row["error"].split())
        with open(summary, newline="", encoding="utf-8") as fh:
            (csv_row,) = list(csv.DictReader(fh))
        assert csv_row["error"] == row["error"]
        if k < 7:  # parsed as JSON, but not shaped like a report
            assert "not a verify report" in row["error"]


def test_report_without_a_spec_echo_is_an_error_row(tmp_path, capsys):
    # the spec echo is read by the spec codec: a JSON object without a valid
    # one, an object and not JSON text, is no verify report, however it
    # states its verdict (the first three were once passing rows with n 0),
    # and also with the config, stages and verdict of a passing report
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    good = tmp_path / "good.json"
    assert main(["verify", "--input", str(spec), "--stages", "canonical", "--out", str(good)]) == 0
    rest = {k: v for k, v in json.loads(good.read_text()).items() if k != "spec"}
    bare = [{"verdict": "pass"}, {"verdict": "pass", "stages": {}},
            {"spec": {"eigenvalues": []}, "verdict": "pass"},
            {"spec": json.dumps(SPEC_1_2), "verdict": "pass"}]
    capsys.readouterr()
    for k, doc in enumerate(bare + [{**rest, **doc} for doc in bare]):
        path = tmp_path / f"bare{k}.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 1
        header, line = capsys.readouterr().out.strip("\n").splitlines()
        row = dict(zip(header.split("\t"), line.split("\t"), strict=True))
        assert row["verdict"] == "error" and row["n"] == ""
        assert "not a verify report" in row["error"]


def test_report_derives_its_verdict_from_the_stage_documents(tmp_path, capsys):
    # a verify report holds the documents of exactly its config.stages,
    # named in pipeline order, and states the verdict they give: a file
    # that breaks any of this is no verify report, whatever it claims
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    good = tmp_path / "good.json"
    assert main(["verify", "--input", str(spec), "--stages", "canonical,berger",
                 "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    canonical = doc["stages"]["canonical"]
    cases = {
        "no-stages": {"spec": SPEC_1_2, "verdict": "pass"},
        "canonical-failed": {**doc, "config": {"stages": ["canonical"], "seed": 0},
                             "stages": {"canonical": {**canonical, "gL_witness": [0, 1],
                                                      "passed": False}}},
        "missing-stage": {**doc, "stages": {"canonical": canonical}},
        "unnamed-stage": {**doc, "config": {"stages": ["canonical"], "seed": 0}},
        "out-of-order": {**doc, "config": {"stages": ["berger", "canonical"], "seed": 0}},
    }
    for name, bad in cases.items():
        assert bad["verdict"] == "pass", name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["report", str(path)]) == 1, name
        header, line = capsys.readouterr().out.strip("\n").splitlines()
        row = dict(zip(header.split("\t"), line.split("\t"), strict=True))
        assert row["verdict"] == "error" and "not a verify report" in row["error"], (name, row)


def test_report_shows_a_refused_spec_as_its_message(tmp_path, capsys):
    # verify writes a refused spec's report as {"error": message}; its
    # report row is an error row carrying that message, as for an unreadable file
    refusals = {}
    for name, spec, message in SPEC_REFUSALS:
        if isinstance(spec, dict):
            path = write_spec(tmp_path, f"{name}.json", spec)
            assert main(["verify", "--input", str(path)]) == 2
            (tmp_path / f"{name}.out.json").write_text(capsys.readouterr().out)
            refusals[f"{name}.out.json"] = message
    assert len(refusals) == len(SPEC_REFUSALS) - 1
    assert main(["report", *(str(tmp_path / name) for name in refusals)]) == 1
    header, *rows = capsys.readouterr().out.strip().splitlines()
    rows = [dict(zip(header.split("\t"), r.split("\t"))) for r in rows]
    assert {r["file"]: r["error"] for r in rows} == refusals
    assert all(r["verdict"] == "error" and r["n"] == "" for r in rows)


def test_report_refuses_a_file_past_the_size_cap(tmp_path, capsys):
    # the largest spec's full report is far below the cap and reads normally
    spec = write_spec(tmp_path, "n24.json", _blocks(
        *({"size": s, "sign": g} for s, g in [(1, 1), (2, -1), (2, 1), (3, 1),
                                              (4, -1), (5, 1), (7, 1)])))
    real = tmp_path / "n24.report.json"
    assert main(["verify", "--input", str(spec), "--out", str(real)]) == 0
    text = real.read_text()
    assert 100_000 < len(text) < MAX_REPORT_BYTES
    at_cap = tmp_path / "at_cap.json"
    at_cap.write_text(text + " " * (MAX_REPORT_BYTES - len(text)))
    capsys.readouterr()
    assert main(["report", str(real), str(at_cap)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 and all(r.split("\t")[-2:] == ["pass", ""] for r in rows)
    # the same report padded to tens of MB is one error row, read only to the cap
    padded = tmp_path / "padded.json"
    padded.write_text(text + " " * (30 * 2 ** 20))
    start = time.perf_counter()
    assert main(["report", str(padded)]) == 1
    assert time.perf_counter() - start < 1.0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    (row,) = [dict(zip(header.split("\t"), r.split("\t"))) for r in rows]
    assert row["file"] == "padded.json" and row["verdict"] == "error"
    assert row["error"] == f"report file larger than {MAX_REPORT_BYTES} bytes"


def test_report_failing_rows_first(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    good = tmp_path / "good.json"
    main(["verify", "--input", str(spec), "--out", str(good)])
    doc = json.loads(good.read_text())
    doc["stages"]["canonical"].update(gL_witness=[0, 1], passed=False)
    doc["verdict"] = "fail"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()  # drain the verify output
    assert main(["report", str(good), str(bad)]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert "bad.json" in lines[1] and "good.json" in lines[2]
    assert lines[1].split("\t")[-2:] == ["fail", "canonical.gL_witness [0, 1]"]


def test_report_names_the_first_witness_of_a_failing_report(tmp_path, capsys):
    # a failing report's error column is its first failing fact, in pipeline
    # order: a non-null witness (canonical's gL check, berger's Bianchi and
    # containment checks, then realize's nablaL, gsym, routes and formal), as
    # <stage>.<key> [..], or an unequal pair; a passing row keeps it empty
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    good = tmp_path / "good.json"
    assert main(["verify", "--input", str(spec), "--stages", "canonical,berger,realize",
                 "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    witnesses = [k for stage in ("canonical", "berger", "realize")
                 for k, v in doc["stages"][stage].items() if k.endswith("_witness") and v is None]
    assert len(witnesses) == 7, witnesses
    edits = {
        "canonical": {"canonical": {"gL_witness": [1, 2]}},
        "both": {"canonical": {"gL_witness": [0, 1]}, "berger": {"bianchi_witness": [0, 1, 2]}},
        "berger": {"berger": {"bianchi_witness": [0, 1, 2], "containment_witness": [0, 2, 0, 2]},
                   "realize": {"nablaL_witness": [0, 0, 1, 1]}},
        "realize": {"realize": {"formal_witness": [0, 1, 0, 0], "routes_witness": [0, 2, 1, 0]}},
        # a failing berger document without a witness: the image rank is short
        "bare": {"berger": {"image_rank": 0}},
    }
    paths = []
    for name, stages in edits.items():
        bad = json.loads(good.read_text())
        bad["verdict"] = "fail"
        for stage, witnesses in stages.items():
            bad["stages"][stage].update(witnesses, passed=False)
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(bad))
    capsys.readouterr()
    assert main(["report", str(good), *map(str, paths)]) == 1
    header, *rows = capsys.readouterr().out.splitlines()  # an empty last cell is kept
    rows = {r["file"]: r for r in (dict(zip(header.split("\t"), r.split("\t"))) for r in rows)}
    assert {name: row["error"] for name, row in rows.items()} == {
        "good.json": "", "bare.json": "berger.image_rank 0 != dim_gL 1",
        "canonical.json": "canonical.gL_witness [1, 2]",
        "both.json": "canonical.gL_witness [0, 1]",
        "berger.json": "berger.bianchi_witness [0, 1, 2]",
        "realize.json": "realize.routes_witness [0, 2, 1, 0]"}
    assert rows["berger.json"]["berger"] == rows["realize.json"]["realize"] == "FAIL"
    assert [rows[n]["verdict"] for n in ("good.json", "berger.json", "bare.json")] == [
        "pass", "fail", "fail"]
    assert rows["bare.json"]["berger"] == "FAIL"


def _report_rows(paths, capsys) -> tuple:
    """(exit status, {file: row}) of ``holonomy report`` on ``paths``."""
    capsys.readouterr()
    code = main(["report", *map(str, paths)])
    header, *rows = capsys.readouterr().out.splitlines()
    rows = (dict(zip(header.split("\t"), r.split("\t"), strict=True)) for r in rows)
    return code, {r["file"]: r for r in rows}


SPEC_1_2M_2P = _blocks({"size": 1, "sign": 1}, {"size": 2, "sign": -1}, {"size": 2, "sign": 1})


def test_report_checks_each_stage_document_by_its_declaration(tmp_path, capsys):
    # each stage document is read by its module's declaration: a key set
    # other than the declared one, or a stored passed that the document's
    # own keys contradict, is no verify report, whatever the verdict says.
    # The first three were passing rows when the reader trusted passed
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2M_2P)
    good = tmp_path / "good.json"
    assert main(["verify", "--input", str(spec), "--stages", "canonical,berger,realize",
                 "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    assert doc["stages"]["berger"]["dim_gL"] == 4

    def edited(verdict="pass", **stages):
        return {**doc, "verdict": verdict, "stages": {**doc["stages"], **{
            name: {k: v for k, v in {**doc["stages"][name], **edit}.items() if v != "drop"}
            for name, edit in stages.items()}}}

    cases = {
        "realize-passed-only": {**doc, "stages": {**doc["stages"], "realize": {"passed": True}}},
        "berger-without-keys": edited(berger={"dim_gL": "drop", "bianchi_witness": "drop"}),
        "image-rank-99": edited(berger={"image_rank": 99}),
        "extra-key": edited(canonical={"layout": []}),
        "without-passed": edited(realize={"passed": "drop"}),
        "witness-but-passed": edited(realize={"formal_witness": [0, 1, 0, 0]}),
        "failed-but-every-check-holds": edited("fail", canonical={"passed": False}),
        "passed-not-a-bool": edited(berger={"passed": 1}),
    }
    paths = []
    for name, bad in cases.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(bad))
    code, rows = _report_rows([good, *paths], capsys)
    assert code == 1 and rows.pop("good.json")["verdict"] == "pass"
    for name in cases:
        row = rows[f"{name}.json"]
        assert row["verdict"] == "error" and "not a verify report" in row["error"], (name, row)


def test_report_reads_the_probe_document_with_and_without_its_certificate(tmp_path, capsys):
    # the probe passes when its rank is dim g_L, its residual is under
    # MEMBERSHIP_TOL and, when the report holds it, the certificate passed;
    # a probe-only report holds no certificate, so its passed stands for it
    spec = write_spec(tmp_path, "spec.json", SPEC_1_2)
    full, alone = tmp_path / "full.json", tmp_path / "alone.json"
    assert main(["verify", "--input", str(spec), "--out", str(full)]) == 0
    assert main(["verify", "--input", str(spec), "--stages", "probe", "--out", str(alone)]) == 0

    def edited(path, verdict, **stages):
        doc = json.loads(path.read_text())
        for name, edit in stages.items():
            doc["stages"][name].update(edit)
        return {**doc, "verdict": verdict}

    cases = {
        "full-rank": (full, "fail", {"probe": {"span_rank": 2, "passed": False}}),
        "full-residual": (full, "fail", {"probe": {"max_membership_residual": 2e-06,
                                                   "passed": False}}),
        "full-certificate": (full, "fail", {"berger": {"image_rank": 0, "passed": False},
                                            "probe": {"passed": False}}),
        "alone-rank": (alone, "fail", {"probe": {"span_rank": 2, "passed": False}}),
        "alone-certificate": (alone, "fail", {"probe": {"passed": False}}),
        "full-rank-passed": (full, "pass", {"probe": {"span_rank": 2}}),
        "full-certificate-passed": (full, "fail", {"berger": {"image_rank": 0, "passed": False}}),
        "alone-residual-passed": (alone, "pass", {"probe": {"max_membership_residual": 1.0}}),
        "alone-residual-null": (alone, "pass", {"probe": {"max_membership_residual": None}}),
    }
    paths = []
    for name, (path, verdict, stages) in cases.items():
        paths.append(tmp_path / f"{name}.edited.json")
        paths[-1].write_text(json.dumps(edited(path, verdict, **stages)))
    code, rows = _report_rows([full, alone, *paths], capsys)
    assert code == 1
    assert {name: (row["verdict"], row["error"]) for name, row in rows.items()
            if row["verdict"] != "error"} == {
        "full.json": ("pass", ""), "alone.json": ("pass", ""),
        "full-rank.edited.json": ("fail", "probe.span_rank 2 != dim_gL 1"),
        "full-residual.edited.json": ("fail", "probe.max_membership_residual 2e-06 >= 1e-06"),
        "full-certificate.edited.json": ("fail", "berger.image_rank 0 != dim_gL 1"),
        "alone-rank.edited.json": ("fail", "probe.span_rank 2 != dim_gL 1"),
        "alone-certificate.edited.json": ("fail", "probe: berger.passed False")}
    errors = {name for name, row in rows.items() if row["verdict"] == "error"}
    assert errors == {f"{name}.edited.json" for name in (
        "full-rank-passed", "full-certificate-passed", "alone-residual-passed",
        "alone-residual-null")}
    assert all("not a verify report" in rows[name]["error"] for name in errors)


def test_report_sorts_n_as_a_number(tmp_path, capsys):
    small = write_spec(tmp_path, "small.json", SPEC_1_2)
    large = write_spec(tmp_path, "large.json", _blocks({"size": 12, "sign": 1}))
    paths = []
    for spec in (large, small):
        out = tmp_path / f"r_{spec.stem}.json"
        main(["verify", "--input", str(spec), "--stages", "canonical", "--out", str(out)])
        paths.append(str(out))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    capsys.readouterr()
    assert main(["report"] + paths + [str(broken)]) == 1
    rows = [ln.split("\t") for ln in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("broken.json", ""), ("r_small.json", "3"), ("r_large.json", "12")]


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(input="x", stages=())
    with pytest.raises(TypeError):  # the probe's tolerances are constants, not fields
        RunConfig(input="x", membership_tol=1e-6)
    with pytest.raises(ValueError):
        RunConfig(input="x", seed=-1)
