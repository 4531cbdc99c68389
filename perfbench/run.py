#!/usr/bin/env python3
"""Pipeline benchmark for ``holonomy verify``: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus_exact --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: eight set-up-only processes
and one timed process, which sends the workload's specs through
``holonomy.cli.main`` one after another (closed loop, one client) in whole
passes.  The number of passes is fixed by ``--seconds`` and the workload's
reference pass length, never by the speed of the code, so every commit
gets the same number of calls per spec.  Every time is scaled to the
reference speed of the machine with the speed samples of ``pace.py``.
``--trace 1`` makes four passes in a fresh process, untraced and traced in
the order U T T U, and reports the per-layer metrics.
Every outcome goes through the correctness gate in ``workloads.gate``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with sample counts, failure
reasons and the environment, is written to ``.perfbench/results/``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata, util
from pathlib import Path

import pace
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_ONLY_PROCESSES = 8
# A run must exit within 180 s; leave headroom for start-up and output.
RUN_BUDGET_S = 170.0
# Time kept back from the timed worker for the set-up processes after it.
DEADLINE_MARGIN_S = 15.0

END_TO_END = {
    "setup_s": "s",
    "specs_per_s": "1/s",
    "spec_p50_ms": "ms",
    "spec_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, span name or None).  *_ms values are self time
# (span minus the child spans inside it) per traced verify call.
PER_LAYER = {
    "cli.self_ms": ("ms", "cli"),
    "canonical.build_ms": ("ms", "canonical.build"),
    "liealg.so_basis_ms": ("ms", "liealg.so_basis"),
    "liealg.centralizer_basis_ms": ("ms", "liealg.centralizer_basis"),
    "berger.r_formal_ms": ("ms", "berger.r_formal"),
    "berger.certificate_self_ms": ("ms", "berger.certificate"),
    "berger.bianchi_ms": ("ms", "berger.bianchi"),
    "berger.containment_ms": ("ms", "berger.containment"),
    "realize.build_B_ms": ("ms", "realize.build_B"),
    "realize.lower_B_ms": ("ms", "realize.lower_B"),
    "realize.nablaL_ms": ("ms", "realize.nablaL"),
    "realize.gsym_ms": ("ms", "realize.gsym"),
    "realize.riemann_ms": ("ms", "realize.riemann"),
    "realize.verify_self_ms": ("ms", "realize.verify"),
    "probe.float_metric_ms": ("ms", "probe.float_metric"),
    "probe.transport_ms": ("ms", "probe.transport"),
    "probe.span_self_ms": ("ms", "probe.span"),
    "probe.us_per_rk4_step": ("us", None),
    "liealg.so_basis_calls": ("count", "liealg.so_basis"),
    "liealg.centralizer_basis_calls": ("count", "liealg.centralizer_basis"),
    "berger.r_formal_calls": ("count", "berger.r_formal"),
    "probe.loops": ("count", "probe.transport"),
    "probe.rk4_steps": ("count", None),
    "size.n": ("count", None),
    "size.dim_gL": ("count", None),
    "failures.canonical": ("count", None),
    "failures.berger": ("count", None),
    "failures.realize": ("count", None),
    "failures.probe": ("count", None),
    "failed_frac": ("ratio", None),
    "trace.absent": ("count", None),
    "trace.overhead_s": ("s", None),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# -- arithmetic ----------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default, ``quantiles`` inclusive)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, q: float) -> int:
    """Samples strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def gate_passes(workload, docs: list, passes: list) -> tuple:
    """(attempted, failure reasons) over every record of every pass."""
    attempted = 0
    failures = []
    for p, one in enumerate(passes):
        for i, record in enumerate(one["records"]):
            attempted += 1
            reasons = workloads.gate(workload, docs[i], record)
            if record.get("error"):
                reasons.append(record["error"])
            if reasons:
                failures.append({"pass": p, "spec": i, "reasons": reasons})
    return attempted, failures


def fastest_per_spec(passes: list) -> list:
    """Each spec's fastest call (ms) over the given passes, in spec order."""
    return [min(p["records"][i]["ms"] for p in passes)
            for i in range(len(passes[0]["records"]))]


def scaled_per_spec(passes: list, samples: list, parts) -> list:
    """Each spec's median call (ms at the reference speed) over the passes."""
    samples = sorted(samples)
    starts = [s[0] for s in samples]
    return [statistics.median(1e3 * pace.scaled_call(samples, starts, r["t0"], r["t1"], parts)
                              for r in (p["records"][i] for p in passes))
            for i in range(len(passes[0]["records"]))]


def latency_metrics(per_spec: list) -> dict:
    return {
        "specs_per_s": 1e3 * len(per_spec) / sum(per_spec),
        "spec_p50_ms": percentile(per_spec, 50),
        "spec_p90_ms": percentile(per_spec, 90),
    }


def end_to_end_metrics(setups: list, timed: dict, parts) -> tuple:
    """(metric values, sample notes) from set-up samples and the timed passes.

    ``setups`` holds (seconds, speed samples) per set-up process.  Every time
    is scaled to the reference speed, as the reference ``parts`` of the
    workload see it (see pace.py): a set-up by the speed
    sampled right after it, a verify call by the speed sampled during it.
    Each spec's latency is the median of its scaled calls.  The number of
    passes is fixed per workload and run length, so the median is always
    taken over the same number of calls.  The wall-clock figures, unscaled
    and with each spec at its fastest call, go into the notes.
    """
    passes = timed["passes"]
    per_spec = scaled_per_spec(passes, timed["pace"], parts)
    scaled_setups = [seconds * pace.speed(samples, parts) for seconds, samples in setups]
    values = {"setup_s": statistics.median(scaled_setups), **latency_metrics(per_spec),
              "peak_rss_mb": timed["ru_maxrss_kb"] / 1024.0}
    wall = {"setup_s": statistics.median(seconds for seconds, _ in setups),
            **latency_metrics(fastest_per_spec(passes))}
    notes = {
        "setup_samples_s": scaled_setups,
        "passes": len(passes),
        "passes_planned": timed["passes_planned"],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "speed_samples": len(timed["pace"]),
        "speed": pace.speed(timed["pace"], parts),
        "wall_clock": wall,
        "spec_samples": len(per_spec) * len(passes),
        "per_spec_values": len(per_spec),
        "beyond_p50": beyond(per_spec, 50),
        "beyond_p90": beyond(per_spec, 90),
    }
    return values, notes


def per_layer_metrics(workload, docs: list, traced: dict, records: list) -> dict:
    """Per-layer values from the traced passes' spans and counters.

    Times and counts are per verify call: summed over the traced passes and
    divided by the number of traced calls.
    """
    span_list = [r for r in records if "counter" not in r]
    counters = [r for r in records if "counter" in r]
    self_sum, calls = spans.totals(span_list)
    traced_passes = [p for p in traced["passes"] if p.get("traced")]
    untraced_passes = [p for p in traced["passes"] if not p.get("traced")]
    ncalls = len(docs) * len(traced_passes)
    steps = [c["value"] for c in counters if c["counter"] == "probe.rk4_steps"]
    absent = len(traced.get("absent", [])) + sum(1 for s in steps if s is None)
    total_steps = sum(s for s in steps if s is not None)

    values = {}
    for name, (unit, span_name) in PER_LAYER.items():
        if span_name is None:
            continue
        if unit == "ms":
            values[name] = 1e3 * self_sum.get(span_name, 0.0) / ncalls
        else:
            values[name] = calls.get(span_name, 0) / ncalls
    transport_s = self_sum.get("probe.transport", 0.0)
    values["probe.us_per_rk4_step"] = 1e6 * transport_s / total_steps if total_steps else 0.0
    values["probe.rk4_steps"] = total_steps / ncalls
    values["size.n"] = statistics.fmean(workloads.spec_n(d) for d in docs)
    values["size.dim_gL"] = statistics.fmean(workloads.expected_dim_gL(d) for d in docs)

    requested = workload.stages.split(",")
    for stage in ("canonical", "berger", "realize", "probe"):
        failed = 0
        if stage in requested:
            failed = sum(1 for p in traced_passes for r in p["records"]
                         if not r.get("stage_passed", {}).get(stage, False))
        values[f"failures.{stage}"] = failed
    attempted, failures = gate_passes(workload, docs, traced["passes"])
    values["failed_frac"] = len(failures) / attempted
    values["trace.absent"] = absent
    values["trace.overhead_s"] = 1e-3 * (sum(fastest_per_spec(traced_passes))
                                         - sum(fastest_per_spec(untraced_passes)))
    return values


# -- environment ---------------------------------------------------------------

def _git_commit(root: Path):
    """HEAD of the checkout's own .git, or None (never looks above ``root``)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": util.find_spec("numba") is not None,
        "holonomy_env": {k: v for k, v in sorted(os.environ.items())
                         if k.startswith("HOLONOMY_")},
        "git_commit": _git_commit(ROOT),
        "src_sha256": _src_digest(SRC),
        "machine": platform.machine(),
    }


# -- processes -----------------------------------------------------------------

def _remaining(started: float) -> float:
    left = RUN_BUDGET_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("run budget exhausted")
    return left


def run_worker(started: float, workload: str, seed: int, mode: str, tag: str,
               passes: int = 1) -> tuple:
    """Start one fresh worker.

    Returns (set-up seconds, the speed samples taken right after set-up,
    output document or None).
    """
    work = OUT_DIR / "work" / f"{workload}-{seed}-{os.getpid()}-{tag}"
    out = work / "out.json"
    span_file = OUT_DIR / "results" / f"{workload}-seed{seed}-spans.jsonl"
    span_file.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--workload", workload, "--seed", str(seed), "--dir", str(work / "specs"),
           "--mode", mode, "--passes", str(passes), "--out", str(out),
           "--deadline", str(_remaining(started) - DEADLINE_MARGIN_S),
           "--spans", str(span_file)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    try:
        line = proc.stdout.readline().strip()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=_remaining(started))
    except (subprocess.TimeoutExpired, BenchError):
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker did not finish in time")
    code = proc.returncode
    if line != "ready" or code != 0:
        raise BenchError(f"{mode} worker failed (exit {code}, first line {line!r})")
    paced = [json.loads(x[5:]) for x in rest.splitlines() if x.startswith("pace ")]
    if len(paced) != 1:
        raise BenchError(f"{mode} worker printed no speed samples")
    doc = None
    if mode != "setup":
        doc = json.loads(out.read_text(encoding="utf-8"))
        if mode == "traced":
            doc["span_records"] = [json.loads(x) for x in
                                   span_file.read_text(encoding="utf-8").splitlines()]
    shutil.rmtree(work, ignore_errors=True)
    return setup, paced[0], doc


# -- entry point ---------------------------------------------------------------

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    if not (SRC / "holonomy" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}/holonomy", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    docs = [s.doc for s in workload.specs(args.seed)]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    try:
        if args.trace:
            _, _, doc = run_worker(started, args.workload, args.seed, "traced", "traced")
            records = doc.pop("span_records")
            values = per_layer_metrics(workload, docs, doc, records)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
            notes = {"specs": len(docs), "absent_targets": doc.get("absent", []),
                     "pass_wall_s": [p["wall_s"] for p in doc["passes"]]}
        else:
            # Set-up-only processes run before and after the timed one, so
            # that one burst of contention cannot hit every sample.
            setups = [run_worker(started, args.workload, args.seed, "setup", f"setup{i}")[:2]
                      for i in range(SETUP_ONLY_PROCESSES // 2)]
            setup, setup_pace, doc = run_worker(started, args.workload, args.seed, "timed",
                                                "timed", workload.timed_passes(args.seconds))
            setups.append((setup, setup_pace))
            setups += [run_worker(started, args.workload, args.seed, "setup", f"setup{i}")[:2]
                       for i in range(SETUP_ONLY_PROCESSES // 2, SETUP_ONLY_PROCESSES)]
            values, notes = end_to_end_metrics(setups, doc, workload.reference)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failures = gate_passes(workload, docs, doc["passes"])
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "samples": notes,
            "attempted": attempted, "failures": failures, "metrics": metrics}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("samples " + json.dumps(notes, sort_keys=True))
    for f in failures[:10]:
        print(f"FAILED pass {f['pass']} spec {f['spec']}: {'; '.join(f['reasons'])}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
