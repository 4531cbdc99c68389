"""SHA-256 digest of the exact-stage reports of the corpus and of CI's specs.

``holonomy corpus --max-n 12`` writes 1579 specs; ``holonomy verify
--stages canonical,berger,realize`` then runs on each of them in corpus
order and on the six specs of CI's exact-stage smoke test, all through
``cli.main`` in one process, and the digest hashes their stdout in that
order.  The exact stages round nothing, so the bytes, and the digest, do
not depend on the machine.  ``data/exact_reports.sha256`` next to this
file holds the committed digest; a change that alters exact-stage bytes on
purpose regenerates it with

    PYTHONPATH=src python tests/exact_digest.py --write

(without ``--write`` the script prints the digest and compares it).
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from helpers import N24_BLOCKS, eigenvalue_entry as eig
from holonomy.cli import main

DIGEST_FILE = Path(__file__).parent / "data" / "exact_reports.sha256"
EXACT_STAGES = "canonical,berger,realize"


def _probable_prime(m: int) -> bool:
    """Miller-Rabin to the first 12 prime bases, as CI's smoke test."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def ci_specs() -> list:
    """(name, spec document) of CI's exact-stage smoke test, in its order."""
    eight = [(1, 1), (2, -1), (2, 1), (3, 1)]
    primes = []
    p = 10 ** 48 + 1
    while len(primes) < 24:
        if _probable_prime(p):
            primes.append(p)
        p += 2
    return [
        ("big", [eig("100000000000000000000", *eight)]),
        ("edge", [eig("3000000000000000000", *eight)]),
        ("n24", [eig("-1/3", *N24_BLOCKS)]),
        ("multi", [eig("0", (1, 1), (2, -1), (3, 1)), eig("5/7", (2, 1), (2, -1))]),
        ("multi24", [eig("-1/3", (1, 1), (2, -1), (3, 1), (4, 1)),
                     eig("5/7", (2, 1), (2, -1), (3, -1)),
                     eig("100000000000000000000", (1, 1), (2, 1), (4, -1))]),
        ("coprime24", [eig(f"{k * 10 ** 48 + 7}/{q}", (1, 1 if k % 2 else -1))
                       for k, q in enumerate(primes, 1)]),
    ]


def _run(argv) -> str:
    """stdout of ``holonomy argv``, run in this process; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue()


def corpus(workdir: Path) -> list:
    """The paths of the 1579 specs that ``holonomy corpus --max-n 12``
    writes under ``workdir``, in corpus order."""
    return _run(["corpus", "--max-n", "12", "--out", str(workdir / "corpus")]).split()


def digest(workdir: Path) -> str:
    """Hex SHA-256 of the exact-stage stdout of every spec, in order; the
    corpus and CI's specs are written under ``workdir``."""
    paths = corpus(workdir)
    for name, eigenvalues in ci_specs():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"eigenvalues": eigenvalues}), encoding="utf-8")
        paths.append(str(path))
    h = hashlib.sha256()
    for path in paths:
        h.update(_run(["verify", "--input", path, "--stages", EXACT_STAGES]).encode("utf-8"))
    return h.hexdigest()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found = digest(Path(tmp))
    if "--write" in sys.argv[1:]:
        DIGEST_FILE.parent.mkdir(exist_ok=True)
        DIGEST_FILE.write_text(found + "\n", encoding="ascii")
    print(found)
    sys.exit(0 if DIGEST_FILE.read_text(encoding="ascii").strip() == found else 1)
