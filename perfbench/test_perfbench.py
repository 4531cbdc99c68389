"""Tests for the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import statistics
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, expected_dim_gL, gate  # noqa: E402


# -- inputs --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_writes_byte_identical_specs(tmp_path, name):
    w = WORKLOADS[name]
    first = workloads.write_specs(w.specs(7), tmp_path / "a")
    second = workloads.write_specs(w.specs(7), tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]


def test_another_seed_changes_the_specs():
    w = WORKLOADS["corpus_exact"]
    assert [s.doc for s in w.specs(1)] != [s.doc for s in w.specs(2)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_specs_stay_inside_the_stable_wire_format(name):
    specs = WORKLOADS[name].specs(3)
    assert len({s.name for s in specs}) == len(specs)
    for s in specs:
        assert workloads.spec_n(s.doc) <= workloads.MAX_N
        for eig in s.doc["eigenvalues"]:
            assert isinstance(eig["lambda"], str)
            for b in eig["blocks"]:
                assert type(b["size"]) is int and b["size"] >= 1
                assert b["sign"] in (1, -1) and type(b["sign"]) is int
            Fraction(eig["lambda"])
        assert json.loads(workloads.spec_bytes(s)) == s.doc


def test_workload_sizes_match_their_definitions():
    corpus = WORKLOADS["corpus_exact"].specs(0)
    assert len(corpus) == 126
    assert max(workloads.spec_n(s.doc) for s in corpus) == 7
    assert all(Fraction(s.doc["eigenvalues"][0]["lambda"]) != 0 for s in corpus)
    assert len(WORKLOADS["probe_family"].specs(0)) == 8
    assert all(w.reference and set(w.reference) <= set(pace.PARTS) for w in WORKLOADS.values())


def _program_function(module: str, name: str):
    """A program function a test compares against; the test skips once it is gone,
    so that the program can reshape its internals without editing the benchmark."""
    fn = getattr(pytest.importorskip(module), name, None)
    if fn is None:
        pytest.skip(f"{module}.{name} no longer exists")
    return fn


def test_corpus_shapes_match_the_program_corpus():
    iter_corpus_specs = _program_function("holonomy.cli", "iter_corpus_specs")
    program = [tuple((b["size"], b["sign"]) for b in doc["eigenvalues"][0]["blocks"])
               for _, doc in iter_corpus_specs(7)]
    assert workloads.corpus_shapes(7) == program


def test_closed_form_dimension_matches_the_program():
    pencil_from_json = _program_function("holonomy.canonical", "pencil_from_json")
    build_canonical = _program_function("holonomy.canonical", "build_canonical")
    centralizer_dim = _program_function("holonomy.liealg", "centralizer_dim")
    for s in WORKLOADS["corpus_exact"].specs(5):
        pair = build_canonical(pencil_from_json(s.doc))
        assert expected_dim_gL(s.doc) == centralizer_dim(pair), s.name


def test_pass_count_depends_on_run_length_only():
    probe = WORKLOADS["probe_family"]
    assert probe.timed_passes(50) == round(50 / probe.pass_s)
    assert probe.timed_passes(1) == 1
    assert [w.timed_passes(50) for w in WORKLOADS.values()] == [4, 4]


def test_probe_passes_get_their_own_program_seeds():
    probe, corpus = WORKLOADS["probe_family"], WORKLOADS["corpus_exact"]
    seeds = [probe.cli_seed(s, k) for s in (0, 1, 2) for k in range(4)]
    assert len(set(seeds)) == len(seeds)
    assert probe.cli_seed(3, 0) == probe.cli_seed(3)
    assert {corpus.cli_seed(s, k) for s in (0, 1) for k in range(4)} == {0}
    with pytest.raises(ValueError):
        probe.cli_seed(1, workloads.PASS_SEEDS)


def test_closed_form_dimension_examples():
    one = {"eigenvalues": [{"lambda": "0", "blocks": [
        {"size": 1, "sign": 1}, {"size": 2, "sign": 1}, {"size": 3, "sign": -1}]}]}
    assert expected_dim_gL(one) == 2 * 1 + 1 * 2
    two = {"eigenvalues": [
        {"lambda": "-1", "blocks": [{"size": 2, "sign": 1}, {"size": 2, "sign": -1}]},
        {"lambda": "3/2", "blocks": [{"size": 5, "sign": 1}]}]}
    assert expected_dim_gL(two) == 2


# -- the correctness gate ------------------------------------------------------

SPEC = {"eigenvalues": [{"lambda": "0", "blocks": [
    {"size": 2, "sign": 1}, {"size": 3, "sign": 1}]}]}


def _good(probe: bool) -> dict:
    out = {"exit": 0, "verdict": "pass", "dim_gL": 2}
    if probe:
        out.update(span_rank=2, max_membership_residual=3e-9)
    return out


def test_gate_accepts_a_correct_report():
    assert gate(WORKLOADS["corpus_exact"], SPEC, _good(False)) == []
    assert gate(WORKLOADS["probe_family"], SPEC, _good(True)) == []


@pytest.mark.parametrize("field, value", [
    ("dim_gL", 3),
    ("dim_gL", None),
    ("dim_gL", 2.0),
    ("dim_gL", True),
    ("verdict", "fail"),
    ("exit", 1),
    ("exit", None),
    ("span_rank", 1),
    ("max_membership_residual", 2e-6),
    ("max_membership_residual", float("nan")),
    ("max_membership_residual", None),
])
def test_gate_rejects_a_doctored_report(field, value):
    outcome = _good(True)
    outcome[field] = value
    assert gate(WORKLOADS["probe_family"], SPEC, outcome)


def test_gate_reads_a_real_report_through_the_worker(tmp_path):
    import contextlib
    import io

    import holonomy.cli as cli

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "--input", str(path), "--stages", workloads.EXACT_STAGES])
    outcome = worker._outcome(code, out.getvalue(), per_stage=False)
    assert set(outcome) == {"exit", "verdict", "dim_gL", "span_rank", "max_membership_residual"}
    assert gate(WORKLOADS["corpus_exact"], SPEC, outcome) == []
    doctored = json.loads(out.getvalue())
    doctored["stages"]["berger"]["dim_gL"] += 1
    bad = worker._outcome(code, json.dumps(doctored), per_stage=False)
    assert gate(WORKLOADS["corpus_exact"], SPEC, bad)


# -- arithmetic ----------------------------------------------------------------

def test_percentile_matches_inclusive_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    assert run.percentile(values, 50) == statistics.median(values)
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert math.isclose(run.percentile(values, 90), deciles[8])
    assert run.percentile([4.0], 90) == 4.0
    assert run.percentile(range(101), 90) == 90


def test_beyond_counts_samples_above_the_percentile():
    values = list(range(1, 101))
    assert run.beyond(values, 90) == 10
    assert run.beyond(values, 50) == 50


def _span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "spec": 0, "start": start, "end": end}


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span(0, None, "cli", 0.0, 10.0),
        _span(1, 0, "berger.certificate", 1.0, 7.0),
        _span(2, 1, "berger.r_formal", 1.5, 4.5),
        _span(3, 2, "liealg.so_basis", 2.0, 3.0),
        _span(4, 1, "liealg.centralizer_basis", 5.0, 6.0),
        _span(5, 0, "realize.verify", 7.5, 9.5),
        _span(6, 5, "berger.r_formal", 8.0, 9.0),
    ]
    own = spans.self_times(recorded)
    assert own == {0: 2.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 1.0}
    self_sum, calls = spans.totals(recorded)
    assert self_sum["berger.r_formal"] == 3.0
    assert calls["berger.r_formal"] == 2
    assert math.isclose(sum(self_sum.values()), 10.0)


EXACT = ("exact",)


def _sample(t, wall, speed, float_speed=None):
    """A sample whose parts ran at ``speed`` (and ``float_speed``) times the
    reference speed."""
    return (t, wall, pace.REFERENCE_S["exact"] / speed,
            pace.REFERENCE_S["float"] / (float_speed or speed))


def _samples(speed, start, stop, wall=0.001):
    """Evenly spaced samples at ``speed`` times the reference speed."""
    n = round((stop - start) / pace.INTERVAL_S)
    return [_sample(start + k * pace.INTERVAL_S, wall, speed) for k in range(n)]


def test_speed_is_the_mean_relative_speed_of_the_chosen_parts():
    samples = [_sample(0.0, 1.0, 1.0), _sample(0.05, 1.0, 0.5)]
    assert math.isclose(pace.speed(samples, EXACT), 0.75)
    # the float part at full speed throughout: each sample's parts are summed
    mixed = [_sample(0.0, 1.0, 1.0), _sample(0.05, 1.0, 0.5, float_speed=1.0)]
    ref = sum(pace.REFERENCE_S.values())
    slow = ref / (2 * pace.REFERENCE_S["exact"] + pace.REFERENCE_S["float"])
    assert math.isclose(pace.speed(mixed, pace.PARTS), (1.0 + slow) / 2)
    assert math.isclose(pace.speed(mixed, ("float",)), 1.0)
    with pytest.raises(ValueError):
        pace.speed([], EXACT)


def test_scaled_call_removes_samples_and_reads_the_speed_near_the_call():
    # half speed before t = 1 s, full speed after
    samples = _samples(0.5, 0.0, 1.0) + _samples(1.0, 1.0, 3.0)
    starts = [s[0] for s in samples]
    # a call over [1.5, 2.5): 20 samples of 1 ms inside, all at full speed
    assert math.isclose(pace.scaled_call(samples, starts, 1.5, 2.5, EXACT), 1.0 - 0.020)
    # a call over [0.2, 0.6): 8 samples inside, half speed
    assert math.isclose(pace.scaled_call(samples, starts, 0.2, 0.6, EXACT),
                        0.5 * (0.4 - 0.008))
    # a call over [0.998, 1.0): no sample inside, half speed before it and full after
    slow, fast = samples[19], samples[20]
    near = pace.scaled_call([slow, fast], [slow[0], fast[0]], 0.998, 1.0, EXACT)
    assert math.isclose(near, 0.002 * 0.75)


def test_sampler_samples_while_entered_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with pace.Sampler() as sampler:
        end = time.perf_counter() + 6 * pace.INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.samples) >= 3
    assert all(len(s) == 2 + len(pace.PARTS) and min(s[1:]) > 0 for s in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_end_to_end_metrics_scale_each_call_to_the_reference_speed():
    def call(t0, seconds):
        return {"t0": t0, "t1": t0 + seconds, "ms": 1e3 * seconds}

    # the machine runs at half speed for t < 10 s and at full speed after
    samples = _samples(0.5, 0.0, 10.0, wall=0.0) + _samples(1.0, 10.0, 30.0, wall=0.0)
    timed = {"ru_maxrss_kb": 2048, "passes_planned": 3, "pace": samples, "passes": [
        {"wall_s": 1.2, "records": [call(1.0, 0.2), call(2.0, 1.0)]},         # half speed
        {"wall_s": 0.6, "records": [call(11.0, 0.1), call(12.0, 0.5)]},
        {"wall_s": 0.7, "records": [call(21.0, 0.1), call(22.0, 0.6)]},
    ]}
    setups = [(0.4, [_sample(0.0, 0.0, 0.5)]), (0.1, [_sample(0.0, 0.0, 1.0)]),
              (0.3, [_sample(0.0, 0.0, 1.0)])]
    values, notes = run.end_to_end_metrics(setups, timed, EXACT)
    # scaled per spec: median of (100, 100, 100) ms and of (500, 500, 600) ms
    assert math.isclose(values["setup_s"], 0.2)
    assert math.isclose(values["specs_per_s"], 2e3 / 600)
    assert math.isclose(values["spec_p50_ms"], 300.0)
    assert math.isclose(values["spec_p90_ms"], 460.0)
    assert values["peak_rss_mb"] == 2.0
    # unscaled, each spec at its fastest call: 100 ms and 500 ms
    assert math.isclose(notes["wall_clock"]["spec_p50_ms"], 300.0)
    assert notes["wall_clock"]["setup_s"] == 0.3
    assert notes["spec_samples"] == 6 and notes["per_spec_values"] == 2
    assert notes["passes"] == 3 and notes["speed_samples"] == len(samples)


def test_per_layer_metrics_from_alternating_passes():
    docs = [SPEC, SPEC]
    ok = {"exit": 0, "verdict": "pass", "dim_gL": 2,
          "stage_passed": {"canonical": True, "berger": True, "realize": True}}
    traced = {"absent": [], "passes": [
        {"wall_s": 1.0, "records": [{**ok, "ms": 100.0}, {**ok, "ms": 300.0}]},
        {"wall_s": 1.0, "traced": True, "records": [{**ok, "ms": 150.0}, {**ok, "ms": 320.0}]},
        {"wall_s": 1.0, "records": [{**ok, "ms": 120.0}, {**ok, "ms": 280.0}]},
        {"wall_s": 1.0, "traced": True,
         "records": [{**ok, "ms": 130.0}, {**ok, "ms": 290.0, "verdict": "fail"}]},
    ]}
    records = [  # four traced calls; one so_basis call under each of two cli spans
        _span(0, None, "cli", 0.0, 0.4),
        _span(1, 0, "liealg.so_basis", 0.1, 0.2),
        _span(2, None, "cli", 1.0, 1.2),
        _span(3, 2, "liealg.so_basis", 1.0, 1.1),
    ]
    values = run.per_layer_metrics(WORKLOADS["corpus_exact"], docs, traced, records)
    assert math.isclose(values["liealg.so_basis_ms"], 1e3 * 0.2 / 4)
    assert math.isclose(values["cli.self_ms"], 1e3 * 0.4 / 4)
    assert values["liealg.so_basis_calls"] == 0.5
    # fastest traced (130 + 290) minus fastest untraced (100 + 280), in seconds
    assert math.isclose(values["trace.overhead_s"], 0.040)
    assert math.isclose(values["failed_frac"], 1 / 8)
    assert values["failures.probe"] == 0 and values["failures.berger"] == 0
    assert values["size.n"] == 5 and values["size.dim_gL"] == 2
    assert values["probe.rk4_steps"] == 0 and values["probe.us_per_rk4_step"] == 0.0


# -- tracing -------------------------------------------------------------------

def _stub_program(monkeypatch):
    """Two stub ``holonomy`` modules: a layer, and a caller that imported its names."""
    layer = types.ModuleType("holonomy._stub_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return layer.inner(x) * 2

    def kernel(g0, B, verts, steps):
        return len(steps)

    class Metric:
        @classmethod
        def build(cls, x):
            return x

    layer.inner, layer.outer, layer.kernel, layer.Metric = inner, outer, kernel, Metric
    caller = types.ModuleType("holonomy._stub_caller")
    caller.outer, caller.kernel = outer, kernel
    monkeypatch.setitem(sys.modules, layer.__name__, layer)
    monkeypatch.setitem(sys.modules, caller.__name__, caller)
    monkeypatch.setattr(spans, "SPAN_TARGETS", (
        (layer.__name__, "inner", "stub.inner"),
        (layer.__name__, "outer", "stub.outer"),
        (layer.__name__, "Metric.build", "stub.build"),
        (layer.__name__, "gone", "stub.gone"),
        ("holonomy._no_such_module", "f", "stub.nothing"),
    ))
    monkeypatch.setattr(spans, "STEP_COUNTER", (layer.__name__, "kernel", "stub.steps"))
    return layer, caller


def test_spans_nest_and_the_program_is_restored(monkeypatch):
    layer, caller = _stub_program(monkeypatch)
    before = (layer.inner, layer.outer, caller.outer, caller.kernel,
              layer.Metric.__dict__["build"])
    tracer = spans.Tracer()
    for spec in (0, 1):  # instrumented twice, as in a traced run
        tracer.spec = spec
        with spans.instrumented(tracer):
            assert caller.outer(1) == 4  # the caller's own binding is wrapped too
            assert layer.Metric.build(5) == 5
            assert caller.kernel(None, None, None, [3, 4]) == 2
    assert (layer.inner, layer.outer, caller.outer, caller.kernel,
            layer.Metric.__dict__["build"]) == before
    assert tracer.absent == ["holonomy._stub_layer.gone", "holonomy._no_such_module.f"]
    assert [(s["name"], s["spec"]) for s in tracer.spans] == [
        ("stub.outer", 0), ("stub.inner", 0), ("stub.build", 0),
        ("stub.outer", 1), ("stub.inner", 1), ("stub.build", 1)]
    by_id = {s["id"]: s for s in tracer.spans}
    assert [by_id[s["parent"]]["name"] if s["parent"] is not None else None
            for s in tracer.spans[:3]] == [None, "stub.outer", None]
    assert tracer.counters == [{"name": "stub.steps", "spec": 0, "value": 7},
                               {"name": "stub.steps", "spec": 1, "value": 7}]


def test_unreadable_step_argument_is_counted_absent(monkeypatch):
    layer, caller = _stub_program(monkeypatch)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert caller.kernel(None, None, None, steps=["x"]) == 1
    assert tracer.counters[0]["value"] is None


def _module_bindings() -> dict:
    """Every attribute of every loaded holonomy module and of its classes."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "holonomy" or modname.startswith("holonomy.")):
            continue
        for attr, value in vars(module).items():
            out[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for k, v in vars(value).items():
                    out[(modname, attr, k)] = v
    return out


def test_traced_pass_over_the_program(tmp_path):
    """Against the program as it is: the traced pass restores every binding and
    passes the gate; while every span target exists, each layer gets spans."""
    import holonomy.cli as cli

    spec = WORKLOADS["probe_family"].specs(0)[0]
    paths = workloads.write_specs([spec], tmp_path)
    argv = [["verify", "--input", str(paths[0]), "--stages", workloads.ALL_STAGES, "--seed", "0"]]
    worker._one_pass(cli, argv)  # imports every module a verify call needs
    before = _module_bindings()
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        records, _ = worker._one_pass(cli, argv, tracer)
    after = _module_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert gate(WORKLOADS["probe_family"], spec.doc, records[0]) == []
    if tracer.absent:
        pytest.skip(f"span targets gone from the program: {tracer.absent}")
    names = {s["name"] for s in tracer.spans}
    wanted = {span for _, span in run.PER_LAYER.values() if span} | {"cli"}
    assert wanted <= names
    steps = [c["value"] for c in tracer.counters]
    assert steps and all(isinstance(v, int) and v > 0 for v in steps)
    assert len(steps) == sum(1 for s in tracer.spans if s["name"] == "probe.transport")


# -- the declaration -----------------------------------------------------------

def test_benchmark_json_declares_what_run_reports():
    decl = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in decl["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in decl["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in decl["per_layer"]} == {
        k: unit for k, (unit, _) in run.PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
