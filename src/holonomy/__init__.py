"""Exact verification of centralizer holonomy algebras.

The package builds canonical pseudo-Euclidean pairs (g, L) from Jordan
block data, certifies by exact rational arithmetic that the centralizer
of L in so(g) passes the Berger curvature test, realizes a quadratic
metric whose curvature at the origin reproduces the certified tensor,
and probes parallel-transport holonomy numerically.

The numerical probe lives in :mod:`holonomy.probe` and is imported lazily
so that the exact core stays free of numpy imports.
"""

from .canonical import (
    ComplexBlockError,
    InvalidSpecError,
    build_canonical,
    make_pencil,
    pencil_from_json,
    pencil_to_json,
    validate_pair,
)
from .liealg import centralizer_basis
from .berger import berger_certificate, r_formal
from .realize import build_B, lower_B, verify_realization

__version__ = "0.1.0"
