"""Hot float kernels: metric value, Christoffel symbols, batched polyline transport.

Array conventions (all float64):
    g0    (n, n)           constant metric value at the origin
    B     (n, n, n, n)     lowered quadratic coefficients B[i,j,p,q], converted
                           once from the exact integer form as num / den
    x     (n,)             evaluation point
    gamma (n, n, n)        gamma[k, i, j] with symmetric (i, j)
    verts (L, V, n)        L polylines of V vertices each, transported together
    steps (L * (V - 1),)   RK4 steps per segment, loop-major: segment e of loop l
                           is steps[l * (V - 1) + e]; 0 only for a segment of
                           length 0
    a, v  (..., n)         segment start and direction, x(s) = a + s v, s in [0, 1]
    G     (3, ..., n, n)   metric along the segment, g(s) = G[0] + s G[1] + s^2 G[2]
    R     (2, ..., n, n)   Christoffel right-hand side R(s) = R[0] + s R[1], so that
                           M(s) = Gamma(x(s))[v] = 1/2 g(s)^-1 R(s)
    D     (L, K, n, n)     RK4 increments: step k maps P to (I + D[:, k]) P

The transport ODE dP/ds = -M(s) P is linear, so every RK4 step is a matrix
I + D.  A segment is integrated in chunks of at most ``CHUNK`` steps: M at
all nodes of a chunk comes from one batched solve, the chunk's increments
are combined pairwise in order, and P is multiplied once per chunk.
"""

from __future__ import annotations

import numpy as np

# Steps per chunk: bounds the working set at (L, 2 * CHUNK + 1, n, n) floats.
CHUNK = 16


def metric_value(g0, B, x):
    return g0 + np.einsum("ijpq,p,q->ij", B, x, x)


def christoffel(g0, B, x):
    n = g0.shape[0]
    gx = metric_value(g0, B, x)
    dg = 2.0 * np.einsum("ijpq,q->pij", B, x)
    t = np.einsum("isj->sij", dg) + np.einsum("jsi->sij", dg) - dg
    sol = np.linalg.solve(gx, t.reshape(n, n * n))
    return 0.5 * sol.reshape(n, n, n)


def segment_terms(g0, B, a, v):
    """Polynomial coefficients (G, R) of the metric and of the Christoffel
    right-hand side along the segments x(s) = a + s v.

    With d_p g_ij(x) = 2 B_ijpq x^q, the right-hand side is
    R(s)[k, c] = sum_b (d_b g_kc + d_c g_kb - d_k g_bc)(x(s)) v^b, linear in x.
    """
    def quad(x, y):
        return np.einsum("ijpq,...p,...q->...ij", B, x, y)

    def rhs(x):
        return 2.0 * (np.einsum("kcbq,...b,...q->...kc", B, v, x)
                      + np.einsum("kbcq,...b,...q->...kc", B, v, x)
                      - np.einsum("bckq,...b,...q->...kc", B, v, x))

    G = np.stack([g0 + quad(a, a), quad(a, v) + quad(v, a), quad(v, v)])
    R = np.stack([rhs(a), rhs(v)])
    return G, R


def segment_gamma(G, R, s):
    """M(s) = 1/2 g(s)^-1 R(s) for G, R of shape (3|2, *batch, n, n) and s of
    shape (*batch, K): one batched solve, result (*batch, K, n, n)."""
    s = s[..., None, None]
    G = G[:, ..., None, :, :]
    R = R[:, ..., None, :, :]
    g = s * G[2]
    g += G[1]
    g *= s
    g += G[0]
    r = s * R[1]
    r += R[0]
    r *= 0.5
    return np.linalg.solve(g, r)


def _combine(d):
    """Ordered product of the steps I + d[:, k] as one increment.

    Pairs are merged as (I + hi)(I + lo) = I + (hi + lo + hi lo), which keeps
    the small part precise.  A zero increment is an exact identity step.
    """
    while d.shape[1] > 1:
        if d.shape[1] % 2:
            d = np.concatenate([d, np.zeros_like(d[:, :1])], axis=1)
        lo, hi = d[:, 0::2], d[:, 1::2]
        d = hi + lo + hi @ lo
    return d[:, 0]


def transport_polyline(g0, B, verts, steps):
    """Parallel transport along L polylines at once.

    Segment e of loop l takes steps[l * (V - 1) + e] fixed RK4 steps; loops
    whose segment has fewer steps than the batch maximum take identity steps
    for the rest.  Returns the (L, n, n) transport matrices mapping fibers at
    each polyline's first vertex to its last.
    """
    verts = np.ascontiguousarray(verts, dtype=np.float64)
    steps = np.ascontiguousarray(steps, dtype=np.int64)
    if verts.ndim != 3 or verts.shape[1] < 2:
        raise ValueError("verts must have shape (loops, vertices >= 2, n)")
    nloops, nverts, n = verts.shape
    if steps.shape != (nloops * (nverts - 1),):
        raise ValueError("need one step count per segment")
    steps = steps.reshape(nloops, nverts - 1)
    a = verts[:, :-1]
    v = verts[:, 1:] - a
    if np.any(steps < 0) or np.any((steps == 0) & np.any(v != 0.0, axis=-1)):
        raise ValueError("step counts must be positive on segments of nonzero length")
    G, R = segment_terms(g0, B, a, v)
    eye = np.eye(n)
    p = np.broadcast_to(eye, (nloops, n, n)).copy()
    for e in range(nverts - 1):
        ns = steps[:, e]
        nmax = int(ns.max())
        h = (1.0 / np.maximum(ns, 1))[:, None]
        for k0 in range(0, nmax, CHUNK):
            k = k0 + np.arange(min(CHUNK, nmax - k0))
            # nodes k0 h, (k0 + 1/2) h, ..., (k0 + K) h; unused ones sit at s = 0
            j = np.arange(2 * k.size + 1)
            s = np.where(j <= 2 * (ns[:, None] - k0), (k0 + 0.5 * j) * h, 0.0)
            m = segment_gamma(G[:, :, e], R[:, :, e], s)
            m0, mm, m1 = m[:, 0:-1:2], m[:, 1::2], m[:, 2::2]
            hh = h[:, :, None, None]
            # RK4 from P = I: the stages are -q with q1 = m0 and
            # q_i = m_i (I - c_i h q_(i-1)); D = -h/6 (q1 + 2 q2 + 2 q3 + q4)
            q = m0
            d = m0.copy()
            for weight, c, mk in ((2.0, 0.5, mm), (2.0, 0.5, mm), (1.0, 1.0, m1)):
                q = mk @ (eye - (c * hh) * q)
                d += weight * q
            d *= -hh / 6.0
            d[k[None, :] >= ns[:, None]] = 0.0
            p = p + _combine(d) @ p
    return p
