"""Loop parallel transport and holonomy span estimation.

All loops are based at the origin: a square with an off-origin corner is
reached through a straight connecting segment and closed the same way, so
every transport matrix is an honest holonomy element at 0 and its
logarithm can be compared against the centralizer algebra there.  The
algebra comes from the Berger certificate: its witness values, the
curvature images that span g_L, are the basis the logarithms are tested
against.

Every loop is a 7-vertex polyline (a square at the origin has tails of
length 0, which the kernel takes as the identity) whose other segments all
take ``STEPS`` RK4 steps, so one kernel call transports all loops of a
run.  Before it, the polylines are certified regular by the exact bound
|x|_inf^2 * c < 1 at their vertices (the sup-norm is convex, so that covers
every point of every segment, and the bound grows with |x|_inf, so one
check at the largest extent covers every loop); a polyline the bound does
not cover is refused.  The transport returns the kernel's arrays, one row
per loop, and the span estimate reads them as they are, without restacking.

``standard_loops`` spans every coordinate plane.  The CLI probe keeps only
the loops in planes whose formal curvature value is nonzero: the loops in
the other planes transport to the identity to rounding and add nothing to
the span (the Tier-1 tests check both).  So a report's samples, and its
``max_step_error`` and ``max_loop_extent``, cover the transported loops.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..berger import BergerCertificate
from ..canonical import _is_int, _shown
from ..realize import QuadraticMetric, invertibility_bound, validity_radius
from . import kernels

# The probe's numerical policy: RK4 steps per segment (even, so the
# kernel's N/2-step error estimate exists; 6 is the fewest that keep every
# flat-plane loop within 1e-15 of the identity and every estimate under
# 1e-13, and 4 fails the first), the largest relative membership residual a
# passing report may have, and the singular values counted in the rank,
# relative to the largest.  Frobenius norms below _NEGLIGIBLE are treated as
# a zero logarithm sample.
STEPS = 6
MEMBERSHIP_TOL = 1e-6
RANK_THRESHOLD = 1e-8
_NEGLIGIBLE = 1e-9

# The standard loop family: side of every square, and the seeded off-origin
# corners, drawn uniformly from [-BASEPOINT_NORM, BASEPOINT_NORM]^n.
SIDE = 1e-2
EXTRA_BASEPOINTS = 2
BASEPOINT_NORM = 0.05


class SingularMetricError(RuntimeError):
    """The metric degenerates somewhere on the requested path."""


def _finite(value) -> float:
    """``value`` as a float; nan for a bool, a non-number or one no finite float holds."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return float(value) if real and abs(value) <= sys.float_info.max else math.nan


@dataclass(frozen=True)
class LoopSpec:
    """Axis-aligned square loop: corner basepoint, coordinate plane, side."""

    basepoint: tuple
    plane: tuple
    side: float

    def __post_init__(self) -> None:
        a, b = self.plane
        if not (_is_int(a) and _is_int(b)) or a == b or a < 0 or b < 0:
            raise ValueError("plane must be two distinct nonnegative indices")
        side, basepoint = _finite(self.side), tuple(map(_finite, self.basepoint))
        if not side > 0:
            raise ValueError(f"side must be positive and finite, got {_shown(self.side)}")
        if any(map(math.isnan, basepoint)):
            raise ValueError("basepoint coordinates must be finite, "
                             f"got {_shown(list(self.basepoint))}")
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(self, "side", side)


class FloatMetric:
    """Float64 view of a quadratic metric, converted once per probe run.

    ``bound`` is the exact invertibility constant c of the metric, which
    certifies the loops the probe may transport.
    """

    __slots__ = ("g0", "B", "n", "bound")

    def __init__(self, g0: np.ndarray, B: np.ndarray, bound: Fraction) -> None:
        self.g0 = np.ascontiguousarray(g0, dtype=np.float64)
        self.B = np.ascontiguousarray(B, dtype=np.float64)
        self.n = self.g0.shape[0]
        self.bound = bound

    @classmethod
    def from_exact(cls, qm: QuadraticMetric) -> "FloatMetric":
        return cls(qm.g0, qm.num.astype(np.float64) / qm.den, invertibility_bound(qm))

    def certifies(self, extent: float) -> bool:
        """Exactly: is g(x) invertible for every |x|_inf <= extent?  An
        extent that overflowed to infinity is not certified."""
        return math.isfinite(extent) and Fraction(extent) ** 2 * self.bound < 1


def _lasso_vertices(loops: Sequence[LoopSpec], n: int) -> np.ndarray:
    """The (L, 7, n) vertices of the origin-based lassos, one row per loop."""
    planes = np.array([lp.plane for lp in loops])
    if planes.max() >= n:
        raise ValueError("plane indices exceed the dimension")
    for lp in loops:
        if len(lp.basepoint) > n:
            raise ValueError(f"basepoint {list(lp.basepoint)} has {len(lp.basepoint)} "
                             f"coordinates, more than the dimension {n}")
    bp = np.array([lp.basepoint + (0.0,) * (n - len(lp.basepoint)) for lp in loops])
    rows = np.arange(len(loops))
    sides = np.array([lp.side for lp in loops])
    ea = np.zeros_like(bp)
    eb = np.zeros_like(bp)
    ea[rows, planes[:, 0]] = sides
    eb[rows, planes[:, 1]] = sides
    origin = np.zeros_like(bp)
    return np.stack([origin, bp, bp + ea, bp + ea + eb, bp + eb, bp, origin], axis=1)


def parallel_transport(fm: FloatMetric, loops: Sequence[LoopSpec]) -> tuple:
    """Integrate transport around origin-based square loops in one kernel call.

    dP/dt = -Gamma(x(t))[x'(t)] P with classical fixed-step RK4, ``STEPS``
    steps per segment; each square is traversed corner -> +e_a -> +e_b ->
    -e_a -> -e_b.  Returns ``(d, step_error, extent)``, a row per loop: the
    (L, n, n) increments D = A - I of the transport matrices A, the kernel's
    RK4 error estimates |D_N - D_(N/2)|_max / 15, and the largest vertex
    sup-norm of each polyline.  A loop the exact bound does not certify, or
    a degenerate metric on any loop, raises before any result exists.
    """
    if not loops:
        return np.zeros((0, fm.n, fm.n)), np.zeros(0), np.zeros(0)
    verts = _lasso_vertices(loops, fm.n)
    extents = np.max(np.abs(verts), axis=(1, 2))
    # the bound grows with the extent: the largest extent certifies every loop
    if not fm.certifies(float(extents.max())):
        lp, extent = next((lp, e) for lp, e in zip(loops, extents.tolist()) if not fm.certifies(e))
        raise SingularMetricError(
            f"loop in plane {lp.plane} at basepoint {list(lp.basepoint)} has extent "
            f"|x|_inf = {extent!r}, not certified regular by the validity radius "
            f"{validity_radius(fm.bound)}")
    try:
        d, err = kernels.transport_polyline(fm.g0, fm.B, verts, STEPS)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError("metric is singular on a loop") from exc
    if not (np.isfinite(d).all() and np.isfinite(err).all()):
        raise SingularMetricError("transport diverged; metric degenerates on the loop")
    return d, err, extents


def standard_loops(n: int, seed: int = 0) -> list:
    """Squares in every coordinate plane at the origin plus seeded basepoints."""
    rng = np.random.default_rng(seed)
    basepoints = [tuple(0.0 for _ in range(n))]
    for _ in range(EXTRA_BASEPOINTS):
        basepoints.append(tuple(rng.uniform(-BASEPOINT_NORM, BASEPOINT_NORM, n).tolist()))
    return [LoopSpec(bp, (a, b), SIDE)
            for a in range(n) for b in range(a + 1, n) for bp in basepoints]


@dataclass(frozen=True)
class SpanReport:
    span_rank: int
    dim_gL: int
    max_membership_residual: float
    singular_values: tuple
    sv_gap: float
    validity_radius: float
    loops: tuple  # of LoopSpec, in transport order; the arrays below are per loop
    residuals: np.ndarray  # relative membership residual of the logarithm
    metric_drift: np.ndarray  # |g0 - A^T g0 A|_F
    step_error: np.ndarray  # the kernel's RK4 error estimate
    extent: np.ndarray  # largest vertex sup-norm of the loop's polyline
    passed: bool

    def to_json(self) -> dict:
        # strict JSON has no Infinity: an infinite gap (no singular value
        # discarded) or radius (a constant metric) is written as null
        return {
            "span_rank": self.span_rank,
            "dim_gL": self.dim_gL,
            "max_membership_residual": self.max_membership_residual,
            "sv_gap": None if math.isinf(self.sv_gap) else self.sv_gap,
            "singular_values": list(self.singular_values),
            "validity_radius": None if math.isinf(self.validity_radius) else self.validity_radius,
            "max_loop_extent": float(self.extent.max(initial=0.0)),
            "max_step_error": float(self.step_error.max(initial=0.0)),
            "samples": [
                {
                    "plane": list(lp.plane),
                    "side": lp.side,
                    "basepoint": list(lp.basepoint),
                    "residual": r,
                    "metric_drift": drift,
                    "step_error": err,
                }
                for lp, r, drift, err in zip(self.loops, self.residuals.tolist(),
                                             self.metric_drift.tolist(), self.step_error.tolist())
            ],
            "passed": self.passed,
        }


def holonomy_span(fm: FloatMetric, cert: BergerCertificate, loops: Sequence[LoopSpec]) -> SpanReport:
    """Transport all loops in one batch, then rank the logarithm samples against dim g_L.

    ``cert`` is the Berger certificate, built once by the caller: the
    membership residual of a sample is its relative Frobenius distance to
    the span of the witness values (the curvature image, which is g_L when
    the certificate passed), all samples in one least-squares solve, and
    the target rank is ``cert.dim_gL``.  The numerical rank uses singular
    values above ``RANK_THRESHOLD`` times the largest; near-zero samples
    (flat directions) are excluded from the stack and have residual 0.  The
    report passes iff the certificate passed, the rank equals dim g_L and
    every membership residual stays below ``MEMBERSHIP_TOL``.
    """
    dim = cert.dim_gL
    d, step_error, extent = parallel_transport(fm, loops)
    # log A to second order, D - D^2 / 2 (|D| = O(side^2)), and g0's drift under A
    psi = (d - 0.5 * (d @ d)).reshape(len(d), fm.n ** 2)
    a = d + np.eye(fm.n)
    drift = np.linalg.norm(fm.g0 - a.transpose(0, 2, 1) @ fm.g0 @ a, axis=(1, 2))

    norms = np.linalg.norm(psi, axis=1)
    kept = norms >= _NEGLIGIBLE
    gl = cert.basis.astype(np.float64).reshape(len(cert.basis), fm.n ** 2).T
    coef = np.linalg.lstsq(gl, psi[kept].T, rcond=None)[0]
    residuals = np.zeros(len(d))
    residuals[kept] = np.linalg.norm(psi[kept].T - gl @ coef, axis=0) / norms[kept]

    if kept.any():
        sv = np.linalg.svd(psi[kept], compute_uv=False)
        sv = sv[sv > 0.0]
        rank = int(np.sum(sv > RANK_THRESHOLD * sv[0])) if sv.size else 0
    else:
        sv = np.array([])
        rank = 0
    retained = sv[:dim]
    discarded = sv[dim:]
    if discarded.size == 0 or discarded[0] == 0.0:
        gap = float("inf")
    elif retained.size < dim:
        gap = 0.0
    else:
        gap = float(retained[-1] / discarded[0])
    max_res = float(residuals.max(initial=0.0))
    passed = cert.passed and rank == dim and max_res < MEMBERSHIP_TOL
    return SpanReport(rank, dim, max_res, tuple(sv.tolist()), gap, validity_radius(fm.bound),
                      tuple(loops), residuals, drift, step_error, extent, passed)
