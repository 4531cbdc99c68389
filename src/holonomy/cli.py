"""Command-line verification pipeline, corpus generation, and reporting.

Commands:
    verify --input spec.json [--stages ...] [--out report.json] [--seed N]
    corpus --max-n N --out DIR
    report FILES... [--csv out.csv]

Exit status: 0 all requested stages pass, 1 verification failure,
2 invalid input.  Report JSON bytes are fixed for one config, seed and BLAS
thread count; across thread counts only the probe's residuals, metric
drifts and singular values move, by rounding.  A verify report is
serialized once, and stdout and the ``--out`` file carry the same bytes.
Each stage is one call from the run's exact objects, each built on first
use and kept, to its report document; its wall time, those builds
included, goes to stderr only, as one ``[timing]`` line.

This module keeps only I/O: it parses arguments, runs the stage table,
reads capped files and writes documents.  Each stage document comes from
its own module (``canonical.canonical_report``, ``berger.berger_certificate``,
``realize.verify_realization``, ``probe.probe_report``), and every spec is
read and written by the spec codec in ``canonical``.  ``verify`` writes the
verdict that ``_verdict`` gives its stages, and ``report`` derives it again,
after checking each stage document by the ``DOCUMENT`` declared in the
stage's module, which also set that document's ``passed``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import importlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .berger import berger_certificate, r_formal
from .canonical import (
    MAX_SPEC_BYTES,
    build_canonical,
    canonical_report,
    make_pencil,
    pencil_from_json,
    pencil_to_json,
)
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


def _read_capped(path: str, cap: int, what: str) -> str:
    """The UTF-8 text of the file at ``path``, read to at most one byte
    past ``cap``: a longer file raises ``ValueError``, as bad UTF-8 does."""
    with open(path, "rb") as fh:
        data = fh.read(cap + 1)
    if len(data) > cap:
        raise ValueError(f"{what} file larger than {cap} bytes")
    return data.decode("utf-8")


# -- verify ------------------------------------------------------------------

def cmd_verify(config: RunConfig) -> tuple:
    """Run the requested stages; returns (report dict, exit code)."""
    try:
        spec = pencil_from_json(_read_capped(config.input, MAX_SPEC_BYTES, "spec"))
    except (OSError, ValueError) as exc:  # ValueError: past the cap, bad UTF-8, a refused spec
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
    # each exact object is built on first use and kept for every later stage;
    # the berger document is the certificate, and the values of rmap at its
    # witnesses are the probe's g_L basis
    rmap = functools.cache(lambda: r_formal(pair))
    cert = functools.cache(lambda: berger_certificate(pair, rmap()))
    qm = functools.cache(lambda: lower_B(pair))
    if "probe" in config.stages:
        from .probe import probe_report  # the float probe is imported only when it runs
    run = {
        "canonical": lambda: canonical_report(pair),
        "berger": cert,
        "realize": lambda: verify_realization(qm(), rmap()),
        "probe": lambda: probe_report(qm(), cert(), rmap(), config.seed),
    }
    for stage in report["config"]["stages"]:
        started = time.perf_counter()
        report["stages"][stage] = run[stage]()
        print(f"[timing] {stage}: {time.perf_counter() - started:.3f}s", file=sys.stderr)

    report["verdict"] = _verdict(report["stages"])
    return report, 0 if report["verdict"] == "pass" else 1


def _verdict(stages: dict) -> str:
    """ "pass" exactly when every stage document's ``passed`` is true."""
    return "pass" if all(doc["passed"] is True for doc in stages.values()) else "fail"


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
    return [tuple(s for (_, m), c in zip(runs, counts) for s in [1] * (m - c) + [-1] * c)
            for counts in sorted(classes)]


def iter_corpus_specs(max_n: int) -> list:
    """Every nilpotent single-eigenvalue spec with 2 <= n <= max_n.

    Returns (name, spec document) pairs with deterministic names
    ``n{n}_p{sizes}_s{signs}``, each document written by ``pencil_to_json``.
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
                out.append((name, pencil_to_json(make_pencil([(0, zip(partition, signs))]))))
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

def _report_row(path: str) -> dict:
    try:
        doc = json.loads(_read_capped(path, MAX_REPORT_BYTES, "report"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: past the cap, bad JSON or UTF-8
        return _error_row(path, str(exc))
    try:
        if doc.get("error") is not None:  # a refused spec: its message is the row
            return _error_row(path, str(doc["error"]))
        # the spec echo, read by the spec codec, which also parses text: a
        # document whose echo is missing or not an object is no verify report
        spec = pencil_from_json(doc["spec"] if isinstance(doc["spec"], dict) else None)
        blocks = [b for bs in spec.blocks for b in bs]
        # a verify report holds exactly the documents of its config's stages,
        # named in pipeline order, and states the verdict that they give
        names, stages = doc["config"]["stages"], doc["stages"]
        if not names or names != [s for s in ALL_STAGES if s in names] or set(stages) != set(names):
            raise ValueError(f"stage documents {sorted(stages)} are not config.stages {names}")
        facts = [_first_failure(stages, name) for name in names]
        verdict = _verdict(stages)
        if doc["verdict"] != verdict:
            raise ValueError(f"verdict {doc['verdict']!r} is not its stages' {verdict!r}")
        berger = stages.get("berger", {})
        probe = stages.get("probe", {})
        return {
            "file": Path(path).name,
            "n": spec.dim,
            "partition": "-".join(str(size) for size, _ in blocks),
            "signs": "".join("+" if sign > 0 else "-" for _, sign in blocks),
            "dim_gL": berger.get("dim_gL", ""),
            "berger": _flag(berger),
            "realize": _flag(stages.get("realize", {})),
            "probe_rank": probe.get("span_rank", ""),
            "probe_residual": probe.get("max_membership_residual", ""),
            "verdict": verdict,
            "error": " ".join(next(filter(None, facts), "").split()),  # one table cell
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # a field of the wrong shape
        return _error_row(path, f"not a verify report: {exc!r}")


def _first_failure(stages: dict, name: str) -> str | None:
    """The first failing fact of ``stages[name]`` by the ``DOCUMENT`` of the
    stage's module, its namesake (so the probe is imported only to read its
    document); a refused document, or a ``passed`` the fact contradicts,
    raises.  Without the berger document, the probe's ``passed`` stands for
    the certificate's."""
    doc = stages[name]
    declared = importlib.import_module(f"{__package__}.{name}").DOCUMENT
    fact = declared.first_failure(doc, stages.get(declared.needs, doc))
    if doc["passed"] is not (fact is None):
        raise ValueError(f"{name}.passed {doc['passed']!r} but {fact or 'every check holds'}")
    return fact


def _error_row(path: str, error: str) -> dict:
    return {**dict.fromkeys(_COLUMNS, ""), "file": Path(path).name, "verdict": "error",
            "error": " ".join(error.split())}  # one line, one table cell


def _flag(stage: dict) -> str:
    return "-" if not stage else "pass" if stage.get("passed") else "FAIL"


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
