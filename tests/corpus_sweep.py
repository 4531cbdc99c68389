"""Every spec of ``holonomy corpus --max-n 12``, and a signature ladder up to
MAX_DIM, through all four stages.

``holonomy verify`` runs on each of the 1579 specs in corpus order, at seed
0, through ``cli.main`` in one process (``exact_digest``'s corpus and
``_run``), since 1579 fresh interpreters would cost minutes.  Every report
must pass, with the paper's closed-form dim g_L, every ``*_witness`` null,
``max_step_error`` and every sample's ``metric_drift`` at most 1e-13,
``max_loop_extent`` below ``validity_radius`` (null, a constant metric, is
infinite) and ``span_rank == dim_gL``, with margin: the first dropped
singular value at most 1e-3 of the rank cut ``RANK_THRESHOLD * s_0``, the
cut at most 1e-3 of the last kept value, and the largest membership
residual at most 1e-9, so that an eroding margin fails here before a
verdict flips.

The ladder then runs the same checks at seeds 0-3 on the specs where g_L
is largest and the metric's signs cancel least: 24 blocks of size 1 with p
signs + for p = 12..24, n blocks of size 1, all +, for n = 13..23, and the
shapes of CI's ``n24`` and ``multi24`` with every sign +.  The script
prints the worst residual, metric drift, step error, extent ratio and rank
margins of each part, so that an eroding margin shows in the log, and exits
1 naming every run that fails.  It takes about a minute:

    PYTHONPATH=src python tests/corpus_sweep.py
"""

import json
import math
import sys
import tempfile
from pathlib import Path

from exact_digest import _run, ci_specs, corpus
from helpers import eigenvalue_entry
from holonomy.probe.transport import RANK_THRESHOLD

MAX_STEP_ERROR = 1e-13
MAX_DRIFT = 1e-13  # |g0 - A^T g0 A|_F; the worst measured is 1.33e-15, on the ladder
MAX_RESIDUAL = 1e-9
RANK_MARGIN = 1e-3
LADDER_SEEDS = (0, 1, 2, 3)


def closed_form(spec: dict) -> int:
    """dim g_L by the paper's closed form: per eigenvalue, the sum over i of
    (k - i) * n_i for its k block sizes n_1 <= ... <= n_k."""
    return sum((len(sizes) - i) * s
               for eig in spec["eigenvalues"]
               for sizes in [sorted(b["size"] for b in eig["blocks"])]
               for i, s in enumerate(sizes, 1))


def margins(probe: dict) -> dict:
    """The probe report's worst values, each gated or printed: largest
    residual, drift and step error, extent over radius, and the rank margins
    (the rank counts the singular values above RANK_THRESHOLD * s_0)."""
    sv, rank = probe["singular_values"], probe["span_rank"]
    cut = RANK_THRESHOLD * sv[0] if sv else 0.0
    return {
        "residual": probe["max_membership_residual"],
        "drift": max((s["metric_drift"] for s in probe["samples"]), default=0.0),
        "step error": probe["max_step_error"],
        "extent / radius": probe["max_loop_extent"] / (probe["validity_radius"] or math.inf),
        "first dropped / cut": sv[rank] / cut if len(sv) > rank else 0.0,
        "cut / last kept": cut / sv[rank - 1] if sv and rank else 0.0,
    }


def faults(report: dict, spec: dict) -> list:
    """What the report of ``spec`` gets wrong, as short messages."""
    stages, out = report["stages"], []
    probe = stages["probe"]
    if report["verdict"] != "pass":
        out.append(f"verdict {report['verdict']}")
    if not stages["berger"]["dim_gL"] == probe["dim_gL"] == closed_form(spec):
        out.append(f"dim_gL {stages['berger']['dim_gL']}, closed form {closed_form(spec)}")
    out += [f"{name}.{key} {at}" for name, stage in stages.items()
            for key, at in stage.items() if key.endswith("_witness") and at is not None]
    if not probe["max_step_error"] <= MAX_STEP_ERROR:
        out.append(f"max_step_error {probe['max_step_error']}")
    if not probe["max_loop_extent"] < (probe["validity_radius"] or math.inf):
        out.append(f"max_loop_extent {probe['max_loop_extent']} >= {probe['validity_radius']}")
    if probe["span_rank"] != probe["dim_gL"]:
        out.append(f"span_rank {probe['span_rank']} != dim_gL {probe['dim_gL']}")
    worst = margins(probe)
    out += [f"{what} {worst[what]:.3g} > {bound:g}"
            for what, bound in (("residual", MAX_RESIDUAL), ("drift", MAX_DRIFT),
                                ("first dropped / cut", RANK_MARGIN),
                                ("cut / last kept", RANK_MARGIN))
            if not worst[what] <= bound]
    return out


def ladder() -> list:
    """(name, spec document) of the signature ladder, in its order."""
    def ones(plus, minus=0):
        return [eigenvalue_entry("0", *[(1, 1)] * plus + [(1, -1)] * minus)]

    specs = [(f"ones24_p{p}", ones(p, 24 - p)) for p in range(12, 25)]
    specs += [(f"plus{n}", ones(n)) for n in range(13, 24)]
    specs += [(f"{name}_plus", [{**eig, "blocks": [{**b, "sign": 1} for b in eig["blocks"]]}
                                for eig in eigenvalues])
              for name, eigenvalues in ci_specs() if name in ("n24", "multi24")]
    return specs


def sweep(part: str, runs: list) -> int:
    """Verify each (name, path, seed) run, print every failing one and the
    worst margins, and return the number that failed."""
    worst, failed = {}, 0
    for name, path, seed in runs:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
        report = json.loads(_run(["verify", "--input", str(path), "--seed", str(seed)]))
        bad = faults(report, spec)
        if bad:
            failed += 1
            print(f"FAIL {name} seed {seed}: {'; '.join(bad)}")
            continue
        for what, value in margins(report["stages"]["probe"]).items():
            worst[what] = max(worst.get(what, (0.0, "")), (value, f"{name} seed {seed}"))
    print(f"{part}: {len(runs)} runs, {failed} failed")
    for what, (value, name) in worst.items():
        print(f"  worst {what}: {value:.3g} ({name})")
    return failed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = corpus(Path(tmp))
        failed = sweep("corpus", [(Path(path).stem, path, 0) for path in paths])
        runs = []
        for name, eigenvalues in ladder():
            path = Path(tmp, f"{name}.json")
            path.write_text(json.dumps({"eigenvalues": eigenvalues}), encoding="utf-8")
            runs += [(name, path, seed) for seed in LADDER_SEEDS]
        failed += sweep("ladder", runs)
    return 1 if failed or len(paths) != 1579 or len(runs) != 104 else 0


if __name__ == "__main__":
    sys.exit(main())
