"""Command-line verification pipeline, corpus generation, and reporting.

Commands:
    verify --input spec.json [--stages ...] [--out report.json] [--seed N]
    corpus --max-n N --out DIR
    report FILES... [--csv out.csv]

Exit status: 0 all requested stages pass, 1 verification failure,
2 invalid input.  Report JSON files are deterministic for a fixed config
and seed; a verify report is serialized once, and stdout and the ``--out``
file carry the same bytes.  Per-stage wall times go to stderr only.

The probe stage transports the standard loops only in the coordinate
planes (a, b) whose formal curvature value R0(e_a ^ e_b) is nonzero; the
others add nothing to the span of g_L and are counted in ``flat_planes``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .berger import berger_certificate, r_formal
from .canonical import (
    MAX_SPEC_BYTES,
    CanonicalPair,
    InvalidSpecError,
    PencilSpec,
    build_canonical,
    layout_to_json,
    pencil_from_json,
    pencil_to_json,
    validate_pair,
)
from .liealg import wedge_index
from .realize import lower_B, verify_realization

ALL_STAGES = ("canonical", "berger", "realize", "probe")

# An n = 24 report takes 141 KB, and 448 KB with all 276 planes curved; a
# file past this cap is refused after reading at most one byte beyond it.
MAX_REPORT_BYTES = 4 * 1024 * 1024


@dataclass
class RunConfig:
    input: str
    stages: tuple = ALL_STAGES
    seed: int = 0

    def __post_init__(self) -> None:
        unknown = [s for s in self.stages if s not in ALL_STAGES]
        if unknown or not self.stages:
            raise ValueError(f"unknown stages: {','.join(unknown) or '(none)'}")
        if len(set(self.stages)) < len(self.stages):
            raise ValueError(f"repeated stage in: {','.join(self.stages)}")
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")


# -- verify ------------------------------------------------------------------

def _stage_canonical(spec: PencilSpec, pair: CanonicalPair) -> dict:
    failures = list(validate_pair(pair))
    return {"n": pair.n, "layout": layout_to_json(spec), "failures": failures,
            "passed": not failures}


def _stage_probe(qm, cert, rmap, config: RunConfig) -> dict:
    from .probe import FloatMetric, holonomy_span, standard_loops

    # a plane whose formal value is exactly zero adds nothing to the span of
    # g_L, and its loops transport to the identity: only curved planes go on
    curved = np.zeros((qm.n, qm.n), dtype=bool)
    curved[wedge_index(qm.n)] = rmap.any(axis=(1, 2))
    loops = standard_loops(qm.n, seed=config.seed)
    keep = curved[loops[0][:, 0], loops[0][:, 1]]
    doc = holonomy_span(FloatMetric(qm), cert, tuple(a[keep] for a in loops)).to_json()
    doc["flat_planes"] = len(rmap) - int(curved.sum())
    return doc


def cmd_verify(config: RunConfig) -> tuple:
    """Run the requested stages; returns (report dict, exit code)."""
    try:
        with open(config.input, "rb") as fh:
            data = fh.read(MAX_SPEC_BYTES + 1)  # never more than one byte past the cap
        if len(data) > MAX_SPEC_BYTES:
            raise InvalidSpecError(f"spec file larger than {MAX_SPEC_BYTES} bytes")
        spec = pencil_from_json(data.decode("utf-8"))
    except (OSError, UnicodeDecodeError, InvalidSpecError) as exc:
        return {"error": str(exc)}, 2

    pair = build_canonical(spec)
    report = {
        "spec": pencil_to_json(spec),
        "config": {
            # in pipeline order, so the same stages give the same report
            "stages": [s for s in ALL_STAGES if s in config.stages],
            "seed": config.seed,
        },
        "stages": {},
    }
    # Each exact object is built once and handed to every stage that needs it.
    started = time.perf_counter()
    wanted = set(config.stages)
    rmap = r_formal(pair) if wanted & {"berger", "realize", "probe"} else None
    # the certificate's witness values are the probe's g_L basis
    cert = berger_certificate(pair, rmap) if wanted & {"berger", "probe"} else None
    qm = lower_B(pair.block_tensor, pair.involution) if wanted & {"realize", "probe"} else None
    timings = [("shared", time.perf_counter() - started)]

    for stage in ALL_STAGES:
        if stage not in wanted:
            continue
        started = time.perf_counter()
        if stage == "canonical":
            report["stages"]["canonical"] = _stage_canonical(spec, pair)
        elif stage == "berger":
            report["stages"]["berger"] = cert.to_json()
        elif stage == "realize":
            report["stages"]["realize"] = verify_realization(pair, qm, rmap).to_json()
        elif stage == "probe":
            report["stages"]["probe"] = _stage_probe(qm, cert, rmap, config)
        timings.append((stage, time.perf_counter() - started))

    passed = all(s.get("passed", False) for s in report["stages"].values())
    report["verdict"] = "pass" if passed else "fail"
    for stage, dt in timings:
        print(f"[timing] {stage}: {dt:.3f}s", file=sys.stderr)
    return report, 0 if passed else 1


def _dumps(doc: dict) -> str:
    """The one JSON text of a document, as written to stdout and to files:
    compact, one line, so the C encoder writes it (``python3 -m json.tool``
    indents it); strict JSON, so a non-finite float raises instead of
    writing Infinity."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=True, allow_nan=False) + "\n"


def _write_atomic(path: str, text: str) -> None:
    # through a symlink, the rename replaces its target, not the link; the
    # temp name is this process's, and O_EXCL refuses any entry already there
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the temp file is ours: never leave it behind
            os.remove(tmp)
        raise


# -- corpus ------------------------------------------------------------------

def _partitions(n: int, smallest: int = 1):
    """Ascending integer partitions of n, deterministic order."""
    if n == 0:
        yield ()
        return
    for first in range(smallest, n + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _sign_classes(partition: tuple) -> list:
    """Canonical sign vectors up to a simultaneous global flip.

    Within every run of equal sizes the signs are sorted + before -, so a
    class is described by the minus count per run; the global flip maps
    counts c to (run length - c) and the lexicographically smaller tuple
    is kept.
    """
    runs = [(size, len(list(group))) for size, group in itertools.groupby(partition)]
    classes = set()
    for counts in itertools.product(*[range(m + 1) for _, m in runs]):
        flipped = tuple(m - c for (_, m), c in zip(runs, counts))
        classes.add(min(counts, flipped))
    out = []
    for counts in sorted(classes):
        signs = []
        for (_, m), c in zip(runs, counts):
            signs.extend([1] * (m - c) + [-1] * c)
        out.append(tuple(signs))
    return out


def iter_corpus_specs(max_n: int) -> list:
    """Every nilpotent single-eigenvalue spec with 2 <= n <= max_n.

    Yields (name, spec document dict) pairs with deterministic names
    ``n{n}_p{sizes}_s{signs}``.
    """
    if not (2 <= max_n <= 12):
        raise ValueError("max_n must be between 2 and 12")
    out = []
    for n in range(2, max_n + 1):
        for partition in _partitions(n):
            for signs in _sign_classes(partition):
                name = "n{}_p{}_s{}".format(
                    n,
                    "-".join(str(s) for s in partition),
                    "".join("+" if s > 0 else "-" for s in signs),
                )
                doc = {
                    "eigenvalues": [{
                        "lambda": "0",
                        "blocks": [
                            {"size": size, "sign": sign}
                            for size, sign in zip(partition, signs)
                        ],
                    }]
                }
                out.append((name, doc))
    return out


def cmd_corpus(max_n: int, out_dir: str) -> list:
    outp = Path(out_dir)
    outp.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in iter_corpus_specs(max_n):
        path = outp / f"{name}.json"
        _write_atomic(str(path), _dumps(doc))
        paths.append(path)
    return paths


# -- report ------------------------------------------------------------------

def _spec_pattern(doc: dict) -> tuple:
    """(n, partition string, signs string) from a spec echo."""
    sizes = []
    signs = []
    for eig in doc.get("eigenvalues", []):
        for b in eig.get("blocks", []):
            sizes.append(str(b["size"]))
            signs.append("+" if b["sign"] > 0 else "-")
    n = sum(int(s) for s in sizes)
    return n, "-".join(sizes), "".join(signs)


def _report_row(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_REPORT_BYTES + 1)
        if len(data) > MAX_REPORT_BYTES:
            return _error_row(path, f"report file larger than {MAX_REPORT_BYTES} bytes")
        doc = json.loads(data.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        return _error_row(path, str(exc))
    try:
        n, partition, signs = _spec_pattern(doc.get("spec", {}))
        stages = doc.get("stages", {})
        berger = stages.get("berger", {})
        probe = stages.get("probe", {})
        return {
            "file": Path(path).name,
            "n": n,
            "partition": partition,
            "signs": signs,
            "dim_gL": berger.get("dim_gL", ""),
            "berger": _flag(berger),
            "realize": _flag(stages.get("realize", {})),
            "probe_rank": probe.get("span_rank", ""),
            "probe_residual": probe.get("max_membership_residual", ""),
            "verdict": doc.get("verdict", "fail"),
            "error": "",
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # a field of the wrong shape
        return _error_row(path, f"not a verify report: {exc!r}")


def _error_row(path: str, error: str) -> dict:
    return {**dict.fromkeys(_COLUMNS, ""), "file": Path(path).name, "verdict": "error",
            "error": " ".join(error.split())}  # one line, one table cell


def _flag(stage: dict) -> str:
    if not stage:
        return "-"
    return "pass" if stage.get("passed") else "FAIL"


_COLUMNS = ("file", "n", "partition", "signs", "dim_gL", "berger",
            "realize", "probe_rank", "probe_residual", "verdict", "error")


def cmd_report(paths, csv_out: str = "") -> tuple:
    rows = [_report_row(p) for p in paths]
    # failing and unreadable rows first, then stable ordering
    # error rows have n == "" and sort first among the failing rows
    rows.sort(key=lambda r: (r["verdict"] == "pass", -1 if r["n"] == "" else r["n"],
                             r["partition"], r["signs"], r["file"]))
    lines = ["\t".join(_COLUMNS)]
    for r in rows:
        lines.append("\t".join(str(r[c]) for c in _COLUMNS))
    table = "\n".join(lines)
    if csv_out:
        with open(csv_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    bad = any(r["verdict"] != "pass" for r in rows)
    return table, 1 if bad else 0


# -- entry point ---------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused."""
    parser = argparse.ArgumentParser(
        prog="holonomy",
        description="Verify centralizer holonomy algebras from Jordan block data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification pipeline on one spec")
    p_verify.add_argument("--input", required=True, help="pencil spec JSON file")
    p_verify.add_argument("--stages", default=",".join(ALL_STAGES),
                          help="comma list from: canonical,berger,realize,probe")
    p_verify.add_argument("--out", default="", help="write the report JSON here")
    p_verify.add_argument("--seed", type=int, default=0)

    p_corpus = sub.add_parser("corpus", help="emit the nilpotent spec corpus")
    p_corpus.add_argument("--max-n", type=int, required=True)
    p_corpus.add_argument("--out", required=True, help="output directory")

    p_report = sub.add_parser("report", help="summarize verify reports")
    p_report.add_argument("files", nargs="*")
    p_report.add_argument("--csv", default="")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "verify":
        stages = tuple(s.strip() for s in args.stages.split(",") if s.strip())
        try:
            config = RunConfig(input=args.input, stages=stages, seed=args.seed)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        report, code = cmd_verify(config)
        text = _dumps(report)
        if args.out and "error" not in report:
            try:
                _write_atomic(args.out, text)
            except OSError as exc:
                print(f"cannot write the report: {exc}", file=sys.stderr)
                return 2
        sys.stdout.write(text)
        return code

    if args.command == "corpus":
        try:
            paths = cmd_corpus(args.max_n, args.out)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"cannot write the corpus: {exc}", file=sys.stderr)
            return 2
        for p in paths:
            print(p)
        return 0

    if args.command == "report":
        try:
            table, code = cmd_report(args.files, csv_out=args.csv)
        except OSError as exc:
            print(f"cannot write the CSV: {exc}", file=sys.stderr)
            return 2
        print(table)
        return code

    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
