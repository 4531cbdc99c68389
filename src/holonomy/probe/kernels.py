"""Hot float kernels: metric value, Christoffel symbols, polyline transport.

Array conventions (all float64):
    g0   (n, n)        constant metric value at the origin
    B    (n, n, n, n)  lowered quadratic coefficients B[i,j,p,q], converted
                       once from the exact integer form as num / den
    x    (n,)          evaluation point
    gamma(n, n, n)     gamma[k, i, j] with symmetric (i, j)
"""

from __future__ import annotations

import numpy as np


def metric_value(g0, B, x):
    return g0 + np.einsum("ijpq,p,q->ij", B, x, x)


def christoffel(g0, B, x):
    n = g0.shape[0]
    gx = metric_value(g0, B, x)
    dg = 2.0 * np.einsum("ijpq,q->pij", B, x)
    t = np.einsum("isj->sij", dg) + np.einsum("jsi->sij", dg) - dg
    sol = np.linalg.solve(gx, t.reshape(n, n * n))
    return 0.5 * sol.reshape(n, n, n)


def _gamma_dot_v(g0, B, x, v):
    gamma = christoffel(g0, B, x)
    return np.einsum("abc,b->ac", gamma, v)


def transport_polyline(g0, B, verts, steps):
    """Parallel transport along straight segments between consecutive vertices.

    ``steps[e]`` fixed RK4 steps are taken on segment e.  Returns the n x n
    transport matrix mapping fibers at the first vertex to the last.
    """
    verts = np.ascontiguousarray(verts, dtype=np.float64)
    steps = np.ascontiguousarray(steps, dtype=np.int64)
    if verts.shape[0] < 2 or steps.shape[0] != verts.shape[0] - 1:
        raise ValueError("need one step count per segment")
    if np.any(steps <= 0):
        raise ValueError("step counts must be positive")
    n = g0.shape[0]
    p = np.eye(n)
    for e in range(verts.shape[0] - 1):
        a = verts[e]
        v = verts[e + 1] - a
        ns = int(steps[e])
        h = 1.0 / ns
        for k in range(ns):
            x0 = a + (k * h) * v
            xm = a + ((k + 0.5) * h) * v
            x1 = a + ((k + 1.0) * h) * v
            m0 = _gamma_dot_v(g0, B, x0, v)
            mm = _gamma_dot_v(g0, B, xm, v)
            m1 = _gamma_dot_v(g0, B, x1, v)
            k1 = -m0 @ p
            k2 = -mm @ (p + (0.5 * h) * k1)
            k3 = -mm @ (p + (0.5 * h) * k2)
            k4 = -m1 @ (p + h * k3)
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p
