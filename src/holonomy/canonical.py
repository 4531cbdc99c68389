"""Canonical pairs (g, L) built from declarative Jordan block data.

A pencil spec is one flat value, ``PencilSpec(lams, blocks)``: the real
eigenvalues in ascending order and, for each, its Jordan blocks as
``(size, sign)`` pairs; ``make_pencil`` is the one place it is checked.
The canonical form puts, for every block, an upper-shift Jordan
block (plus a label of lambda on the diagonal, see ``CanonicalPair``) into
L and a signed antidiagonal of ones into g; blocks are concatenated
diagonally.  In this basis g is a signed involution, g = g^T = g^{-1},
held as ``(perm, sign)`` (see ``exactla.check_involution``), and gL is
symmetric: L is g-symmetric.  The pair is every exact stage's one input:
it holds the block tensor T that the curvature map and the metric are
read off, and ``canonical_report`` reads nothing else.  ``StageDocument``
declares a stage's report document and is its one pass rule; each stage
module declares its own as ``DOCUMENT``.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .exactla import capped, check_involution, first_mismatch, times_L, times_g

# Largest accepted dimension n.  The realization stage holds n^4 exact
# coefficients; n = 24 runs the exact stages in seconds and tens of MB.
MAX_DIM = 24
# Largest accepted spec file in bytes.  The largest valid spec (MAX_DIM
# blocks, MAX_RATIONAL_LEN-character lambdas) is about 5 KB.
MAX_SPEC_BYTES = 64 * 1024
# Longest accepted eigenvalue string.  Together with the ban on exponent
# notation this bounds the size of every integer an eigenvalue creates.
MAX_RATIONAL_LEN = 100


class InvalidSpecError(ValueError):
    """The pencil description is malformed or inconsistent."""


class ComplexBlockError(InvalidSpecError):
    """Complex-conjugate eigenvalue blocks are not supported."""


def _shown(value) -> str:
    """``repr(value)`` cut to MAX_RATIONAL_LEN characters, for echoing
    malformed input in a one-line message.  An int past Python's int-to-str
    digit limit has no repr and is shown by its bit length."""
    try:
        return repr(value)[:MAX_RATIONAL_LEN]
    except ValueError:  # an int, or a container holding one
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return "an unprintable value"


def _is_int(value) -> bool:
    """True for a genuine int: bool is an int subclass, and a float such as
    2.7 must not be truncated into a block size."""
    return isinstance(value, int) and not isinstance(value, bool)


def _block(size, sign) -> tuple:
    """One Jordan block as ``(size, sign)``: its size, an integer >= 1, and
    the sign of its antidiagonal metric, the integer 1 or -1."""
    if not _is_int(size) or size < 1:
        raise InvalidSpecError(f"block size must be an integer >= 1, got {_shown(size)}")
    if not _is_int(sign) or sign not in (1, -1):
        raise InvalidSpecError(f"block sign must be the integer 1 or -1, got {_shown(sign)}")
    return size, sign


@dataclass(frozen=True)
class PencilSpec:
    """Full declarative description of a g-symmetric operator: ``lams``,
    the ascending eigenvalues (Fractions), and ``blocks[k]``, the blocks of
    ``lams[k]`` as ``(size, sign)`` pairs sorted by size (ties: + first).
    ``make_pencil`` makes it and is where it is checked."""

    lams: tuple
    blocks: tuple

    @property
    def dim(self) -> int:
        return sum(size for blocks in self.blocks for size, _ in blocks)


def make_pencil(eigens: Iterable) -> PencilSpec:
    """Build a spec from ``[(lam, [(size, sign), ...]), ...]``, normalizing order.

    Each eigenvalue's blocks are checked in input order, then the sorted
    spec for at least one eigenvalue, no duplicates and n <= MAX_DIM."""
    specs = []
    for lam, blocks in eigens:
        lam = lam if isinstance(lam, Fraction) else Fraction(lam)
        blocks = sorted((_block(s, sg) for s, sg in blocks), key=lambda b: (b[0], -b[1]))
        if not blocks:
            raise InvalidSpecError("eigenvalue needs at least one block")
        specs.append((lam, tuple(blocks)))
    if not specs:
        raise InvalidSpecError("spec needs at least one eigenvalue")
    specs.sort(key=lambda e: e[0])
    spec = PencilSpec(*zip(*specs))
    if len(set(spec.lams)) != len(spec.lams):
        raise InvalidSpecError("duplicate eigenvalues")
    if spec.dim > MAX_DIM:
        raise InvalidSpecError(f"dimension {spec.dim} exceeds the maximum {MAX_DIM}")
    return spec


def rat_from_str(text: str) -> Fraction:
    """Parse a rational written as "p", "p/q" or a decimal (ASCII digits in
    base 10, '-' or U+2212 minus) of at most MAX_RATIONAL_LEN characters.

    Exponent notation is refused: "1e999999999" would build its integer
    before any size check could run.  Only ASCII digits pass, without the
    underscores that ``Fraction`` takes on Python 3.11 but not on 3.10.
    """
    s = text.strip().replace("−", "-")
    if len(s) > MAX_RATIONAL_LEN:
        raise ValueError(f"rational longer than {MAX_RATIONAL_LEN} characters")
    if "e" in s.lower():
        raise ValueError("exponent notation is not accepted")
    if not re.fullmatch(r"[+-]?[0-9]*(\.[0-9]*|/[0-9]+)?", s):
        raise ValueError("not a rational")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("not a rational") from exc


def pencil_from_json(doc) -> PencilSpec:
    """Parse the JSON wire format.

    ``{"eigenvalues": [{"lambda": "0", "blocks": [{"size": 2, "sign": 1}]}]}``
    with lambda a rational string, size a JSON integer >= 1 and sign the
    JSON integer 1 or -1.  Anything else raises InvalidSpecError.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:  # bad syntax or encoding, deep nesting
            raise InvalidSpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("eigenvalues"), list):
        raise InvalidSpecError('expected an object with an "eigenvalues" list')
    # each eigenvalue has a block and each block a dimension
    _check_length(doc["eigenvalues"], "eigenvalues")
    eigens = []
    for item in doc["eigenvalues"]:
        if not isinstance(item, dict):
            raise InvalidSpecError(f"eigenvalue entry must be an object, got {_shown(item)}")
        raw = item.get("lambda")
        if not isinstance(raw, str):  # null, true, 0.5 or a missing key
            raise InvalidSpecError(f"lambda must be a rational string, got {_shown(raw)}")
        try:
            lam = rat_from_str(raw)
        except ValueError as exc:
            if _is_complex(raw):
                raise ComplexBlockError("unsupported: complex block") from exc
            raise InvalidSpecError(f"bad eigenvalue {raw[:MAX_RATIONAL_LEN]!r}: {exc}") from exc
        blocks = item.get("blocks")
        _check_length(blocks, "blocks")
        if not isinstance(blocks, list) or not all(
                isinstance(b, dict) and "size" in b and "sign" in b for b in blocks):
            raise InvalidSpecError(f"bad block list for eigenvalue {raw!r}")
        eigens.append((lam, [(b["size"], b["sign"]) for b in blocks]))
    return make_pencil(eigens)


def _check_length(items, what: str) -> None:
    """Refuse a list longer than MAX_DIM before anything is built from it."""
    if isinstance(items, list) and len(items) > MAX_DIM:
        raise InvalidSpecError(f"{len(items)} {what} exceed the maximum dimension {MAX_DIM}")


def _is_complex(raw: str) -> bool:
    """True when ``raw`` is a complex number with a nonzero imaginary part."""
    try:
        return complex(raw.replace("i", "j")).imag != 0
    except ValueError:
        return False


def pencil_to_json(spec: PencilSpec) -> dict:
    return {"eigenvalues": [
        {"lambda": str(lam), "blocks": [{"size": s, "sign": sg} for s, sg in bs]}
        for lam, bs in zip(spec.lams, spec.blocks)]}


@dataclass(frozen=True, eq=False)
class CanonicalPair:
    """The canonical (g, L) and the block structure of each index.

    ``involution`` is g as ``(perm, sign)``, g[i, perm[i]] = sign[i], checked
    on construction (``exactla.check_involution``).  ``block`` and ``label``
    (capped) are int vectors of length n: the Jordan block of each index in
    spec order, and its eigenvalue's 0-based label.  They are L relabeled,
    L' = diag(label) + N with k in place of lambda_k, and ``exactla.times_L``
    multiplies by it.  With distinct eigenvalues, L and L' are polynomials in
    each other, and every exact check reads L as X L = L X or X L = L^T X
    with X free of L (for g(x)-symmetry and covariant constancy once B is
    symmetric in its first index pair, which ``realize.lower_B`` checks).  So
    each verdict holds for every L of this Jordan type and grouping of blocks
    into eigenvalues, whatever the values, which live only in the spec.
    """

    involution: tuple
    block: np.ndarray
    label: np.ndarray

    def __post_init__(self) -> None:
        check_involution(*self.involution)
        object.__setattr__(self, "label", capped(self.label)[0])  # frozen: the checked int64 copy

    @property
    def n(self) -> int:
        return len(self.block)

    @functools.cached_property
    def block_tensor(self) -> np.ndarray:
        """T = sum J_i^a (x) J_j^s as one (n, n, n, n) 0/1 int64 array, built
        on first use and kept.

        With J_i the upper shift on block i's index range (J_i^0 its
        projector), the formal curvature map and the realizing metric's
        coefficient tensor are the same sum:

            R(X) = sum J_i^a X J_j^s,    B = -1/2 sum J_i^a (x) J_j^s,

        over every ordered pair of blocks i, j of one eigenvalue (a block
        with itself included) and every a, s >= 0 with a + s = max(n_i, n_j)
        - 1: T[r, c, p, q] = 1 exactly when c - r = a inside one block,
        q - p = s inside one block and r, p share a label.  So R and B are
        block-diagonal across eigenvalues, and the metric is a product.  The
        diagonal pairs add nothing to R on so(g), but they make B agree with
        the plain minimal-polynomial tensor when all blocks have one size.
        A mask sets each entry once, so T is the exact sum.
        """
        block, label = self.block, self.label
        idx = np.arange(self.n)
        size = np.bincount(block)[block]
        # shift[r, c] = c - r for r and c in one block, and -1 elsewhere.  A
        # shift is below its block's size, so two add up to the larger size
        # minus one only when both are >= 0: a >= 0 and s >= 0 need no test
        shift = np.where(block[:, None] == block, idx - idx[:, None], -1)
        reach = np.maximum(size[:, None], size) - 1  # [r, p]
        t = ((label[:, None, None, None] == label[:, None])
             & (shift[:, :, None, None] + shift == reach[:, None, :, None]))
        return t.astype(np.int64)


def build_canonical(spec: PencilSpec) -> CanonicalPair:
    """Assemble the block-diagonal canonical matrices for a pencil spec."""
    labels, sizes, signs = (np.array(col, dtype=np.int64) for col in zip(
        *[(k, s, sg) for k, bs in enumerate(spec.blocks) for s, sg in bs]))
    block = np.repeat(np.arange(len(sizes)), sizes)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    perm = 2 * first + sizes[block] - 1 - np.arange(spec.dim)  # each index's antidiagonal partner
    return CanonicalPair((perm, signs[block]), block, labels[block])


@dataclass(frozen=True)
class StageDocument:
    """A stage's report document, declared once in the stage's module as
    ``DOCUMENT``: ``keys``, every key but ``passed`` and the witnesses;
    ``witnesses``, the ``*_witness`` keys in check order (None when the check
    holds); and the facts ``passed`` needs: ``equal`` key pairs, ``below``
    (key, bound) pairs and a passing document of the stage it ``needs``.
    The stage sets ``passed`` from ``first_failure``, and ``holonomy
    report`` checks every stored document with it."""

    stage: str
    keys: tuple
    witnesses: tuple = ()
    equal: tuple = ()
    below: tuple = ()
    needs: str = ""

    def first_failure(self, doc: dict, needed: dict | None = None) -> str | None:
        """None when every fact of ``doc`` (with or without ``passed``) holds,
        else the first that fails, as one line: a witness, an unequal pair, a
        value not under its bound, then ``needed``, the ``needs`` stage's
        document, not passing.  Another key set raises ValueError."""
        if set(doc) - {"passed"} != {*self.keys, *self.witnesses}:
            raise ValueError(f"{self.stage} keys {sorted(doc)} are not its document's")
        for key in self.witnesses:
            if doc[key] is not None:
                return f"{self.stage}.{key} {doc[key]}"
        for a, b in self.equal:
            if doc[a] != doc[b]:
                return f"{self.stage}.{a} {doc[a]} != {b} {doc[b]}"
        for key, bound in self.below:
            if not doc[key] < bound:
                return f"{self.stage}.{key} {doc[key]} >= {bound}"
        if self.needs and needed["passed"] is not True:
            return f"{self.stage}: {self.needs}.passed {needed['passed']}"
        return None


DOCUMENT = StageDocument("canonical", ("n",), ("gL_witness",))


def validate_pair(pair: CanonicalPair) -> tuple | None:
    """None when gL is symmetric, that is, L is g-symmetric, else the witness:
    the first (r, c) in lexicographic order where (gL)[r, c] != (gL)[c, r].
    The pair's g is a signed involution, checked when the pair was made."""
    gl = times_g(times_L(np.eye(pair.n, dtype=np.int64), pair, 0), pair.involution, 0)
    return first_mismatch(gl, gl.T)


def canonical_report(pair: CanonicalPair) -> dict:
    """The canonical stage's report document for ``pair``: n,
    ``validate_pair``'s witness as ``gL_witness`` (None when gL is
    symmetric) and ``passed``; the spec's values are in the report's echo."""
    at = validate_pair(pair)
    doc = {"n": pair.n, "gL_witness": at and list(at)}
    return {**doc, "passed": DOCUMENT.first_failure(doc) is None}
