"""Exact verification of centralizer holonomy algebras.

The package builds canonical pseudo-Euclidean pairs (g, L) from Jordan
block data, certifies by exact rational arithmetic that the centralizer
g_L of L in so(g) passes the Berger curvature test (the formal map's values
at the certificate's witnesses are then an exact basis of g_L), realizes a
quadratic metric whose curvature at the origin reproduces the certified
tensor, and probes parallel-transport holonomy numerically against that
basis, read from the berger stage's report document and the map.

Stages 1-3 are exact and hold every matrix in one format (see
:mod:`holonomy.exactla`): an int64 numpy array over one positive common
denominator, its entries capped so that nothing overflows.  They read L
with each eigenvalue relabeled by its rank, so a certificate holds for
every L of its Jordan type and block grouping, whatever the eigenvalues.
Each stage's report document comes from its own module, in one call:
``canonical_report``, ``berger_certificate``, ``verify_realization`` and
``probe.probe_report``, and passes by the ``DOCUMENT`` its module declares
(``canonical.StageDocument``).  The floating-point probe lives in
:mod:`holonomy.probe`; the CLI, which only reads and writes, imports it
only when the probe stage runs.
"""

from .canonical import (
    ComplexBlockError,
    InvalidSpecError,
    build_canonical,
    canonical_report,
    make_pencil,
    pencil_from_json,
    pencil_to_json,
    validate_pair,
)
from .berger import berger_certificate, r_formal
from .realize import lower_B, verify_realization

__version__ = "0.1.0"
