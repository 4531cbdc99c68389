"""Loop parallel transport and holonomy span estimation.

All loops are based at the origin: a square with an off-origin corner c is
reached through a straight tail 0 -> c and closed by the tail reversed, so
every transport matrix is an honest holonomy element at 0 and its logarithm
can be compared against the centralizer algebra there.  Its basis is the
formal map's values at the berger document's witnesses, the curvature images
that span g_L.  Their supports are disjoint, checked exactly, so they are
orthogonal and a logarithm's projection onto g_L is in closed form.

Transport along the reversed tail is the inverse of transport along the
tail, so each loop is two 5-vertex polylines, its closed square at c and
its tail cut into four equal pieces (of length 0 at the origin, where its
transport is exactly I), and the loop's holonomy is the square's
conjugated by the tail's.  Two RK4 runs along the tail, out and back, would
not cancel and would leave their truncation error in the holonomy.  Every
segment takes ``STEPS`` RK4 steps, so one kernel call transports all loops
of a run.  Before it, the polylines are certified regular by the exact
bound |x|_inf^2 * c < 1 at their vertices (the sup-norm is convex, so that
covers every point of every segment, and the bound grows with |x|_inf, so
one check at the largest extent covers every loop); a loop the bound does
not cover is refused.  A loop family is one tuple of aligned arrays
``(planes, basepoints, sides)``: (L, 2) ints (a, b), (L, k) float corners
(k <= n, zero-padded) and (L,) float sides.  The transport checks them once
and returns its arrays, one row per loop, which the span estimate reads as
they are and writes into its report document, one sample per loop.

``standard_loops`` spans every coordinate plane, with its off-origin
corners drawn from the standard library's ``random.Random(seed)``, so the
probe never imports ``numpy.random``.  ``holonomy_span`` transports every
loop it is given.  ``probe_report``, the probe stage's one call, gives it
only the loops in planes whose formal curvature value is nonzero: the
loops in the other planes transport to the identity to rounding and add
nothing to the span (the Tier-1 tests check both), and the report counts
those planes in ``flat_planes``.  So a report's samples, and its
``max_step_error`` and ``max_loop_extent``, cover the transported loops.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import numpy as np

from ..canonical import StageDocument
from ..exactla import first_mismatch, times_g, wedge_index
from ..realize import QuadraticMetric, invertibility_bound
from . import kernels

# The probe's numerical policy: RK4 steps per segment (even, so the
# N/2-step error estimate exists; 2, the fewest, keeps every flat-plane loop
# within 1e-15 of the identity and every estimate under 1e-13), the largest
# relative membership residual a passing report may have, and the singular
# values counted in the rank, relative to the largest.  Frobenius norms
# below _NEGLIGIBLE are treated as a zero logarithm sample.
STEPS = 2
MEMBERSHIP_TOL = 1e-6
RANK_THRESHOLD = 1e-8
_NEGLIGIBLE = 1e-9

# The standard loop family: side of every square, and the seeded off-origin
# corners, drawn uniformly from [-BASEPOINT_NORM, BASEPOINT_NORM]^n by
# ``random.Random(seed)``: Python keeps its stream for an int seed fixed
# across versions, numpy does not for its generators, so a seed names the
# same loops everywhere.
SIDE = 1e-2
EXTRA_BASEPOINTS = 2
BASEPOINT_NORM = 0.05

DOCUMENT = StageDocument(
    "probe", ("span_rank", "dim_gL", "max_membership_residual", "singular_values",
              "validity_radius", "max_loop_extent", "max_step_error", "samples", "flat_planes"),
    equal=(("span_rank", "dim_gL"),), below=(("max_membership_residual", MEMBERSHIP_TOL),),
    needs="berger", shared=("dim_gL",))


class SingularMetricError(RuntimeError):
    """The metric degenerates somewhere on the requested path."""


class FloatMetric:
    """Float64 view of a checked ``QuadraticMetric`` ``qm``, made once per probe run.

    ``involution`` is qm's g0, ``qm.pair.involution``, never a dense matrix, and
    ``mats`` the kernel's contraction matrices: qm's exact ``raised`` pair
    g0 B and g0 C, cast and divided by den once.  The raised tensor g0 B
    must vanish at every (i, j, p, q) with i > j, so that g0 g(x) is upper
    triangular, decided on the exact pair; any other metric is refused with
    ``ValueError`` naming its first such entry.  ``bound`` is the exact
    invertibility constant c, which certifies the loops the probe may transport.
    """

    __slots__ = ("involution", "n", "bound", "mats")

    def __init__(self, qm: QuadraticMetric) -> None:
        self.involution, self.n = qm.pair.involution, qm.n
        self.bound = invertibility_bound(qm)
        lower = np.tri(self.n, k=-1, dtype=bool)[:, :, None, None]
        at = first_mismatch(np.where(lower, qm.raised[0], 0), 0)
        if at is not None:
            raise ValueError(f"g0 B has a nonzero entry below the diagonal at {at}: "
                             f"g0 g(x) is not upper triangular")
        self.mats = qm.raised.reshape(2, self.n ** 2, self.n ** 2) / qm.den

    def certifies(self, extent: float) -> bool:
        """Exactly: is g(x) invertible for every |x|_inf <= extent?  An
        extent that overflowed to infinity is not certified."""
        return math.isfinite(extent) and Fraction(extent) ** 2 * self.bound < 1


def validity_radius(bound: Fraction) -> float:
    """Sup-norm radius 1 / sqrt(c) inside which g(x) is invertible, for c
    from ``realize.invertibility_bound``; infinite for a constant metric."""
    return float("inf") if bound == 0 else float(1 / bound) ** 0.5


def _floats(a, message: str, low: float = -math.inf) -> np.ndarray:
    """An int or float array ``a`` as float64 with every entry finite and
    above ``low``; anything else is refused with ``message``."""
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iuf"):
        raise ValueError(f"{message}, got {getattr(a, 'dtype', type(a).__name__)}")
    x = a.astype(np.float64)
    bad = ~(np.isfinite(x) & (x > low))
    if bad.any():
        raise ValueError(f"{message}, got {float(x[bad][0])!r}")
    return x


def _checked(loops: tuple, n: int) -> tuple:
    """The loop family checked against the dimension ``n``, basepoints and
    sides as float64.  An array of another kind is refused, never coerced:
    ``np.asarray([(True, 2)])`` would be the plane (1, 2)."""
    planes, basepoints, sides = loops
    if not (isinstance(planes, np.ndarray) and planes.dtype.kind in "iu" and planes.ndim == 2
            and planes.shape[1] == 2) or (planes < 0).any() or (planes[:, 0] == planes[:, 1]).any():
        raise ValueError("plane must be two distinct nonnegative indices")
    sides = _floats(sides, "side must be positive and finite", low=0.0)
    basepoints = _floats(basepoints, "basepoint coordinates must be finite")
    if sides.shape != (len(planes),) or basepoints.ndim != 2 or len(basepoints) != len(planes):
        raise ValueError(f"loop arrays of shapes {planes.shape}, {basepoints.shape} and "
                         f"{sides.shape} are not (L, 2), (L, k) and (L,)")
    if (planes >= n).any():
        raise ValueError("plane indices exceed the dimension")
    if basepoints.shape[1] > n:
        raise ValueError(f"basepoints have {basepoints.shape[1]} coordinates, "
                         f"more than the dimension {n}")
    return planes, basepoints, sides


def _polylines(loops: tuple, n: int) -> np.ndarray:
    """The (2L, 5, n) polylines of a checked loop family: first each loop's
    closed square at its corner c, then each loop's tail 0 -> c in four
    equal collinear pieces (all at 0 for an origin square)."""
    planes, basepoints, sides = loops
    bp = np.zeros((len(planes), n))
    bp[:, :basepoints.shape[1]] = basepoints
    rows = np.arange(len(planes))
    ea, eb = np.zeros((2,) + bp.shape)
    ea[rows, planes[:, 0]] = sides
    eb[rows, planes[:, 1]] = sides
    squares = np.stack([bp, bp + ea, bp + ea + eb, bp + eb, bp], axis=1)
    return np.concatenate([squares, bp[:, None] * np.linspace(0.0, 1.0, 5)[:, None]])


def parallel_transport(fm: FloatMetric, loops: tuple) -> tuple:
    """Integrate transport around origin-based square loops in one kernel call.

    ``loops`` is a loop family ``(planes, basepoints, sides)``, checked
    first.  dP/dt = -Gamma(x(t))[x'(t)] P with classical fixed-step RK4,
    ``STEPS`` steps per segment; each square is traversed corner -> +e_a ->
    +e_b -> -e_a -> -e_b.  The lasso 0 -> c -> square -> c -> 0 transports
    by T^-1 H T, for H the square's transport at c and T the tail's, so its
    increment is T^-1 (H - I) T, formed for the N-step and the N/2-step
    runs alike.  Returns ``(d, step_error, extent, loops)``, a row per
    loop: the (L, n, n) increments D = A - I of the transport matrices A,
    the RK4 error estimates |D_N - D_(N/2)|_max / 15 of the lassos, the
    largest vertex sup-norm of each square, and the checked family, its
    basepoints and sides as float64.  A loop the exact bound does not
    certify, or a degenerate metric on any loop, raises before any result
    exists.
    """
    planes, basepoints, _ = loops = _checked(loops, fm.n)
    if not len(planes):
        return np.zeros((0, fm.n, fm.n)), np.zeros(0), np.zeros(0), loops
    verts = _polylines(loops, fm.n)
    extents = np.max(np.abs(verts[:len(planes)]), axis=(1, 2))
    # the bound grows with the extent: the largest extent certifies every loop
    if not fm.certifies(float(extents.max())):
        i, extent = next((i, e) for i, e in enumerate(extents.tolist()) if not fm.certifies(e))
        raise SingularMetricError(
            f"loop in plane {tuple(planes[i].tolist())} at basepoint {basepoints[i].tolist()} "
            f"has extent |x|_inf = {extent!r}, not certified regular by the validity radius "
            f"{validity_radius(fm.bound)}")
    runs = kernels.transport_polyline(fm.mats, verts, STEPS)
    square, tail = runs[:, :len(planes)], runs[:, len(planes):]
    tail += np.eye(fm.n)
    d = np.linalg.solve(tail, square @ tail)
    if not np.isfinite(d).all():
        raise SingularMetricError("transport diverged; metric degenerates on the loop")
    return d[0], np.max(np.abs(d[0] - d[1]), axis=(1, 2)) / 15.0, extents, loops


def standard_loops(n: int, seed: int = 0) -> tuple:
    """Squares of side ``SIDE`` in every coordinate plane, at the origin and
    at ``EXTRA_BASEPOINTS`` seeded corners: a loop family with the planes in
    ``wedge_index`` order, one row per corner in each.

    Each corner coordinate is ``BASEPOINT_NORM * (2 * u - 1)`` for one draw
    u of ``random.Random(seed).random()``, corners in order and coordinates
    in row-major order.  ``seed`` is a nonnegative integer (``operator.index``):
    a float or str seed raises ``TypeError`` and a negative one
    ``ValueError``, where ``random.Random`` would take ``abs`` or a hash."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    draw = random.Random(seed).random
    corners = np.zeros((1 + EXTRA_BASEPOINTS, n))
    corners[1:] = [[BASEPOINT_NORM * (2.0 * draw() - 1.0) for _ in range(n)]
                   for _ in range(EXTRA_BASEPOINTS)]
    planes = np.repeat(np.stack(wedge_index(n), axis=1), len(corners), axis=0)
    return planes, np.tile(corners, (n * (n - 1) // 2, 1)), np.full(len(planes), SIDE)


def holonomy_span(fm: FloatMetric, cert: dict, rmap: np.ndarray, loops: tuple,
                  flat_planes: int = 0) -> dict:
    """Transport all loops in one batch, then rank the logarithm samples against dim g_L.

    ``cert`` is the berger stage's report document for the formal map
    ``rmap``, both built once by the caller.  The membership residual of a
    sample psi is |psi - sum_k <psi, b_k> b_k / |b_k|^2|_F / |psi|_F, for b_k
    the rows of ``rmap`` at ``cert["witnesses"]`` in wedge order (the curvature
    image, g_L when the certificate passed): its distance to their span, since
    the b_k have disjoint supports, checked before any transport (``ValueError``
    names an entry two rows share).  The target rank is ``cert["dim_gL"]``.  The
    numerical rank uses singular values above ``RANK_THRESHOLD`` times the
    largest; near-zero samples (flat directions) are excluded from the stack
    and have residual 0.  The metric drift |g0 - A^T g0 A|_F takes g0 A by
    ``times_g``.  Returns the probe stage's report document, with one
    ``samples`` record per loop and ``flat_planes``, the count of planes
    whose loops were left out, and ``passed`` set by ``DOCUMENT``; a
    constant metric's infinite validity radius is null (strict JSON).
    """
    # the rows b_k of rmap at the witnesses, in wedge order (int64: [] is no float index)
    chosen = np.zeros((fm.n, fm.n), dtype=bool)
    chosen[tuple(np.array(cert["witnesses"], dtype=np.int64).reshape(-1, 2).T)] = True
    basis = rmap[chosen[wedge_index(fm.n)]]
    at = first_mismatch(np.count_nonzero(basis, axis=0) > 1, False)
    if at is not None:
        raise ValueError(f"witness rows share the entry {at}: their supports are not disjoint")
    gl = basis.reshape(-1, fm.n ** 2).astype(np.float64)
    d, step_error, extent, loops = parallel_transport(fm, loops)  # checks the loop family
    # log A to second order, D - D^2 / 2 (|D| = O(side^2)), and g0's drift under A
    psi = (d - 0.5 * (d @ d)).reshape(len(d), fm.n ** 2)
    a = d + np.eye(fm.n)
    m = times_g(a, fm.involution, 1).transpose(0, 2, 1) @ a  # A^T g0 A
    m -= times_g(np.eye(fm.n), fm.involution, 0)  # the dense g0, formed once
    drift = np.linalg.norm(m, axis=(1, 2))

    norms = np.linalg.norm(psi, axis=1)
    kept = norms >= _NEGLIGIBLE
    coef = psi[kept] @ gl.T / np.sum(gl * gl, axis=1)
    residuals = np.zeros(len(d))
    residuals[kept] = np.linalg.norm(psi[kept] - coef @ gl, axis=1) / norms[kept]

    sv = np.linalg.svd(psi[kept], compute_uv=False) if kept.any() else np.zeros(0)
    sv = sv[sv > 0.0]
    rank = int(np.sum(sv > RANK_THRESHOLD * sv[0])) if sv.size else 0
    radius = validity_radius(fm.bound)
    doc = {
        "span_rank": rank,
        "dim_gL": cert["dim_gL"],
        "max_membership_residual": float(residuals.max(initial=0.0)),
        "singular_values": sv.tolist(),
        "validity_radius": None if math.isinf(radius) else radius,
        "max_loop_extent": float(extent.max(initial=0.0)),
        "max_step_error": float(step_error.max(initial=0.0)),
        "samples": [
            {"plane": plane, "side": side, "basepoint": basepoint, "residual": r,
             "metric_drift": dr, "step_error": err}
            for plane, basepoint, side, r, dr, err in zip(
                *(a.tolist() for a in loops), residuals.tolist(), drift.tolist(),
                step_error.tolist())
        ],
        "flat_planes": flat_planes,
    }
    return {**doc, "passed": DOCUMENT.first_failure(doc, cert) is None}


def probe_report(qm: QuadraticMetric, cert: dict, rmap: np.ndarray, seed: int) -> dict:
    """The probe stage's report document: ``holonomy_span`` of the
    ``standard_loops(qm.n, seed)`` in the planes (a, b) whose formal value,
    the row of ``rmap`` at e_a ^ e_b, is nonzero, with ``flat_planes`` the
    number of the other planes.  A flat plane adds nothing to the span of
    g_L, and its loops transport to the identity, so they are not transported.
    """
    curved = rmap.any(axis=(1, 2))  # in wedge order, as standard_loops lays out its planes
    keep = np.repeat(curved, 1 + EXTRA_BASEPOINTS)
    loops = tuple(a[keep] for a in standard_loops(qm.n, seed))
    return holonomy_span(FloatMetric(qm), cert, rmap, loops, len(rmap) - int(curved.sum()))
