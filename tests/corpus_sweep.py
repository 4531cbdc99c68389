"""Every spec of ``holonomy corpus --max-n 12`` through all four stages.

``holonomy verify`` runs on each of the 1579 specs in corpus order, at seed
0, through ``cli.main`` in one process (``exact_digest``'s corpus and
``_run``), since 1579 fresh interpreters would cost minutes.  Every report
must pass, with the paper's closed-form dim g_L, every ``*_witness`` null,
``max_step_error`` at most 1e-13, ``max_loop_extent`` below
``validity_radius`` (null, a constant metric, is infinite) and
``span_rank == dim_gL``.  The script prints the worst membership residual,
step error, extent ratio and rank margins, so that drift shows in the log,
and exits 1 naming every spec that fails.  It takes about half a minute:

    PYTHONPATH=src python tests/corpus_sweep.py
"""

import json
import math
import sys
import tempfile
from pathlib import Path

from exact_digest import _run, corpus
from holonomy.probe.transport import RANK_THRESHOLD

MAX_STEP_ERROR = 1e-13


def closed_form(spec: dict) -> int:
    """dim g_L by the paper's closed form: per eigenvalue, the sum over i of
    (k - i) * n_i for its k block sizes n_1 <= ... <= n_k."""
    return sum((len(sizes) - i) * s
               for eig in spec["eigenvalues"]
               for sizes in [sorted(b["size"] for b in eig["blocks"])]
               for i, s in enumerate(sizes, 1))


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
    return out


def main() -> int:
    worst = {"residual": (0.0, ""), "step error": (0.0, ""), "extent / radius": (0.0, ""),
             "first dropped / cut": (0.0, ""), "cut / last kept": (0.0, "")}

    def note(what, value, name):
        worst[what] = max(worst[what], (value, name))

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = corpus(Path(tmp))
        for path in paths:
            name = Path(path).stem
            spec = json.loads(Path(path).read_text(encoding="utf-8"))
            report = json.loads(_run(["verify", "--input", path, "--seed", "0"]))
            bad = faults(report, spec)
            if bad:
                failed += 1
                print(f"FAIL {name}: {'; '.join(bad)}")
                continue
            probe = report["stages"]["probe"]
            note("residual", probe["max_membership_residual"], name)
            note("step error", probe["max_step_error"], name)
            if probe["validity_radius"] is not None:
                note("extent / radius", probe["max_loop_extent"] / probe["validity_radius"], name)
            # the rank counts the singular values above RANK_THRESHOLD * s_0
            sv, rank = probe["singular_values"], probe["span_rank"]
            if sv:
                cut = RANK_THRESHOLD * sv[0]
                note("cut / last kept", cut / sv[rank - 1], name)
                if len(sv) > rank:
                    note("first dropped / cut", sv[rank] / cut, name)
    print(f"{len(paths)} specs, {failed} failed")
    for what, (value, name) in worst.items():
        print(f"worst {what}: {value:.3g} ({name or '-'})")
    return 1 if failed or len(paths) != 1579 else 0


if __name__ == "__main__":
    sys.exit(main())
