"""Seeded spec generation, the closed-form g_L dimension, and the correctness gate.

Every input the benchmark sends to ``holonomy verify`` is generated here from
the workload name and the seed; the program under test only ever sees the
spec files.  Specs use JSON ints for sizes, signs of +1/-1, rational-string
eigenvalues and n <= 12, which every version of the spec parser accepts.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXACT_STAGES = "canonical,berger,realize"
ALL_STAGES = "canonical,berger,realize,probe"
MAX_N = 12
# The probe gate: every logarithm sample must lie in g_L to this relative
# residual (the acceptance suite's tolerance).
MEMBERSHIP_TOL = 1e-6
# Program seeds per benchmark seed: pass k of a run with seed s hands the
# program --seed PASS_SEEDS * s + k (probe workloads only).
PASS_SEEDS = 1000

# The eight specs of the acceptance suite's probe criterion, n = 3..5.
PROBE_BLOCKS = (
    ((1, 1), (2, 1)),
    ((1, 1), (2, -1)),
    ((2, 1), (2, 1)),
    ((2, 1), (2, -1)),
    ((1, 1), (1, 1), (2, 1)),
    ((1, 1), (1, 1), (2, -1)),
    ((2, 1), (3, 1)),
    ((2, 1), (3, -1)),
)

@dataclass(frozen=True)
class Spec:
    name: str
    doc: dict


@dataclass(frozen=True)
class Workload:
    name: str
    stages: str
    specs: Callable[[int], list]  # seed -> list of Spec
    # Length of one pass over the specs on the reference machine (see
    # README.md, "Noise").  It turns --seconds into a number of passes that
    # is the same on every commit, so each spec gets the same number of calls.
    pass_s: float
    # The parts of pace.reference whose speed scales this workload's times:
    # the ones that resemble its work (see README.md, "Noise").
    reference: tuple

    def timed_passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))

    @property
    def probe(self) -> bool:
        return "probe" in self.stages.split(",")

    def cli_seed(self, seed: int, pass_index: int = 0) -> int:
        """The ``--seed`` handed to the program in one pass: it only moves probe loops.

        Each timed pass of a run gets its own, so that a run averages over
        several placements of the loop basepoints.  The tail from the origin
        to a basepoint grows with its distance, so a single placement would
        let the seed move the probe's work by several percent.
        """
        if pass_index >= PASS_SEEDS:
            raise ValueError(f"at most {PASS_SEEDS} passes per run")
        return PASS_SEEDS * seed + pass_index if self.probe else 0


def _lambda(rng: random.Random) -> Fraction:
    # Never 0: a zero eigenvalue empties L's diagonal, which makes the L-sparse
    # realize checks markedly cheaper and would let the seed move the timings.
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))


def _eigen(lam: Fraction, blocks) -> dict:
    ordered = sorted(blocks, key=lambda b: (b[0], 0 if b[1] > 0 else 1))
    return {"lambda": str(lam),
            "blocks": [{"size": size, "sign": sign} for size, sign in ordered]}


def _pattern(doc: dict) -> str:
    parts = []
    for eig in doc["eigenvalues"]:
        parts.append(".".join(f"{b['size']}{'+' if b['sign'] > 0 else '-'}"
                              for b in eig["blocks"]))
    return "|".join(parts)


def _partitions(n: int, smallest: int = 1):
    """Ascending integer partitions of n."""
    if n == 0:
        yield ()
        return
    for first in range(smallest, n + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _sign_classes(partition: tuple) -> list:
    """Sign vectors up to a global flip, + before - within equal sizes."""
    runs = [len(list(group)) for _, group in itertools.groupby(partition)]
    classes = set()
    for counts in itertools.product(*[range(m + 1) for m in runs]):
        flipped = tuple(m - c for m, c in zip(runs, counts))
        classes.add(min(counts, flipped))
    out = []
    for counts in sorted(classes):
        signs = []
        for m, c in zip(runs, counts):
            signs.extend([1] * (m - c) + [-1] * c)
        out.append(tuple(signs))
    return out


def corpus_shapes(max_n: int = 7) -> list:
    """Every nilpotent block shape with 2 <= n <= max_n, one per sign class.

    The enumeration order and count (126 for max_n = 7) match the program's
    ``holonomy corpus`` command; the benchmark owns a copy so that its inputs
    stay fixed when the program changes.
    """
    out = []
    for n in range(2, max_n + 1):
        for partition in _partitions(n):
            for signs in _sign_classes(partition):
                out.append(tuple(zip(partition, signs)))
    return out


def _corpus_specs(seed: int) -> list:
    rng = random.Random(f"corpus_exact/{seed}")
    out = []
    for i, blocks in enumerate(corpus_shapes(7)):
        doc = {"eigenvalues": [_eigen(_lambda(rng), blocks)]}
        out.append(Spec(f"c{i:03d}_{_pattern(doc)}", doc))
    return out


def _probe_specs(seed: int) -> list:
    del seed  # the probe seed moves loop basepoints, not the specs
    out = []
    for i, blocks in enumerate(PROBE_BLOCKS):
        doc = {"eigenvalues": [_eigen(Fraction(0), blocks)]}
        out.append(Spec(f"p{i}_{_pattern(doc)}", doc))
    return out


WORKLOADS = {
    w.name: w for w in (
        Workload("corpus_exact", EXACT_STAGES, _corpus_specs, pass_s=12.0,
                 reference=("exact",)),
        Workload("probe_family", ALL_STAGES, _probe_specs, pass_s=12.5,
                 reference=("exact", "float")),
    )
}


def spec_bytes(spec: Spec) -> bytes:
    return (json.dumps(spec.doc, sort_keys=True) + "\n").encode("utf-8")


def write_specs(specs: list, directory: Path) -> list:
    """Write one file per spec; returns the paths in spec order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in specs:
        path = directory / f"{spec.name.replace('|', '_')}.json"
        path.write_bytes(spec_bytes(spec))
        paths.append(path)
    return paths


def spec_n(doc: dict) -> int:
    return sum(b["size"] for eig in doc["eigenvalues"] for b in eig["blocks"])


def expected_dim_gL(doc: dict) -> int:
    """Closed-form dim g_L: per eigenvalue with blocks n_1 <= ... <= n_k,
    the sum over i (1-indexed) of (k - i) * n_i."""
    total = 0
    for eig in doc["eigenvalues"]:
        sizes = sorted(b["size"] for b in eig["blocks"])
        k = len(sizes)
        total += sum((k - i) * size for i, size in enumerate(sizes, start=1))
    return total


def gate(workload: Workload, doc: dict, outcome: dict) -> list:
    """Reasons the outcome of one verify call is wrong; empty when correct.

    ``outcome`` holds the exit code and the four report fields the benchmark
    reads: verdict, dim_gL, span_rank and max_membership_residual.
    """
    reasons = []
    if outcome.get("exit") != 0:
        reasons.append(f"exit code {outcome.get('exit')}")
    if outcome.get("verdict") != "pass":
        reasons.append(f"verdict {outcome.get('verdict')!r}")
    want = expected_dim_gL(doc)
    dim = outcome.get("dim_gL")
    if type(dim) is not int or dim != want:
        reasons.append(f"dim_gL {dim!r} != {want}")
    if workload.probe:
        rank = outcome.get("span_rank")
        if type(rank) is not int or rank != want:
            reasons.append(f"span_rank {rank!r} != {want}")
        residual = outcome.get("max_membership_residual")
        if not (isinstance(residual, (int, float)) and residual < MEMBERSHIP_TOL):
            reasons.append(f"max_membership_residual {residual!r}")
    return reasons
