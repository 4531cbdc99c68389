"""One benchmark process: set up, then drive specs through ``holonomy verify``.

Started fresh by ``run.py`` for every run.  Set-up imports ``holonomy.cli``
and ``holonomy.probe`` and writes the spec files, then prints ``ready`` on
stdout; ``run.py`` times set-up from process start to that line.  Right
after it the worker takes SETUP_SAMPLES machine-speed samples (see pace.py)
and prints them on a ``pace`` line, so that set-up can be scaled to the
reference speed.  The specs are then sent one at a time through
``holonomy.cli.main`` (a closed loop with one client), and the outcomes go
to the ``--out`` JSON file.

Modes:
    setup   stop after set-up
    timed   --passes whole passes over the specs, with the speed sampler on;
            pass k hands the program workload.cli_seed(seed, k)
    traced  TRACED_PAIRS untraced and traced passes, in the order U T T U, all
            with the seed of pass 0; the traced passes record spans (see spans.py)

A pass that would not end before --deadline is not started; on the
reference machine the deadline is far beyond the planned passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import pace
import spans
import workloads

TRACED_PAIRS = 2
SETUP_SAMPLES = 20


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, help="directory for the spec files")
    p.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    p.add_argument("--passes", type=int, default=1, help="timed mode: passes to make")
    p.add_argument("--deadline", type=float, default=0.0,
                   help="seconds after the first pass starts by which the last must end")
    p.add_argument("--out", default="")
    p.add_argument("--spans", default="", help="traced mode: JSON-lines span file")
    return p.parse_args(argv)


def _outcome(code: int, text: str, per_stage: bool) -> dict:
    """The exit code and the four report fields the gate reads.

    ``per_stage`` (traced pass only) also reads each stage's ``passed`` flag.
    """
    try:
        report = json.loads(text)
    except ValueError:
        report = {}
    if not isinstance(report, dict):
        report = {}
    stages = report.get("stages") if isinstance(report.get("stages"), dict) else {}
    berger = stages.get("berger") or {}
    probe = stages.get("probe") or {}
    outcome = {
        "exit": code,
        "verdict": report.get("verdict"),
        "dim_gL": berger.get("dim_gL"),
        "span_rank": probe.get("span_rank"),
        "max_membership_residual": probe.get("max_membership_residual"),
    }
    if per_stage:
        outcome["stage_passed"] = {name: bool(doc.get("passed"))
                                   for name, doc in stages.items() if isinstance(doc, dict)}
    return outcome


def _one_pass(cli, argvs: list, tracer=None) -> tuple:
    """Verify every spec once; returns (per-spec records, pass wall seconds)."""
    records = []
    started = time.perf_counter()
    for i, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.spec = i
        error = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span("cli"):
                        code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crashing spec is a failed spec, not a crashed run
                code, error = None, repr(exc)
        t1 = time.perf_counter()
        record = _outcome(code, out.getvalue(), tracer is not None)
        record.update(ms=(t1 - t0) * 1e3, t0=t0, t1=t1)
        if error is not None:
            record["error"] = error
        records.append(record)
    return records, time.perf_counter() - started


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, args.src)
    import holonomy.cli as cli
    import holonomy.probe  # noqa: F401  (so the first probe spec pays no import)

    workload = workloads.WORKLOADS[args.workload]
    paths = workloads.write_specs(workload.specs(args.seed), Path(args.dir))
    print("ready", flush=True)
    print("pace " + json.dumps(pace.samples(SETUP_SAMPLES)), flush=True)
    if args.mode == "setup":
        return 0

    def argvs(pass_index):
        cli_seed = str(workload.cli_seed(args.seed, pass_index))
        return [["verify", "--input", str(p), "--stages", workload.stages, "--seed", cli_seed]
                for p in paths]

    doc = {"specs": len(paths), "passes": []}
    if args.mode == "timed":
        doc["passes_planned"] = args.passes
        started = time.perf_counter()
        with pace.Sampler() as sampler:
            for k in range(args.passes):
                records, wall = _one_pass(cli, argvs(k))
                doc["passes"].append({"wall_s": wall, "records": records})
                # a pass that would not end before the deadline is not started
                if time.perf_counter() - started + wall > args.deadline:
                    break
        doc["pace"] = sampler.samples
    else:
        # Untraced and traced passes come in the order U T T U ..., so that
        # neither kind of pass always runs first and a steady drift of the
        # machine's speed does not land on one kind only.
        tracer = spans.Tracer()
        started = time.perf_counter()
        for pair in range(TRACED_PAIRS):
            pair_started = time.perf_counter()
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                with spans.instrumented(tracer) if traced else contextlib.nullcontext():
                    records, wall = _one_pass(cli, argvs(0), tracer if traced else None)
                doc["passes"].append({"wall_s": wall, "records": records, "traced": traced})
            now = time.perf_counter()
            if now - started + (now - pair_started) > args.deadline:
                break
        doc["absent"] = tracer.absent
        with open(args.spans, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
            for c in tracer.counters:
                fh.write(json.dumps({"counter": c["name"], "spec": c["spec"],
                                     "value": c["value"]}) + "\n")
    doc["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
