"""Hot float kernel: batched RK4 parallel transport along polylines.

Array conventions (all float64):
    mats  (2, n^2, n^2)    g0 B and g0 C, C the Christoffel combination of
                           B, as rows (i, j): ``QuadraticMetric.raised``
                           cast and divided by den (``FloatMetric``); the
                           rows of g0 B with i > j are zero, so that g0 g(x)
                           is upper triangular
    verts (L, V, n)        L polylines of V vertices each, transported together
    steps int              RK4 steps N on every segment, even and at least 2
    a, v  (S, n)           segment start and direction, x(s) = a + s v, s in [0, 1]
    G     (3, n, n, S)     raised metric along the segment, h(s) = g0 g(x(s))
                           = G[0] + s G[1] + s^2 G[2], with G[0] = I + g0 B(a, a)
    R     (2, n, n, S)     raised Christoffel right-hand side g0 R(s) = R[0] + s R[1],
                           so that M(s) = Gamma(x(s))[v] = 1/2 h(s)^-1 g0 R(s)
    m     (S, 2N + 1, n, n) M at the nodes s = j / (2N) of every segment
    D     (..., K, n, n)   RK4 increments: step k maps P to (I + D[..., k, :, :]) P

The transport ODE dP/ds = -M(s) P is linear, so every RK4 step is a matrix
I + D.  The polylines of a call share many segments (the loops at one
corner share its tail, and squares share edges), so each distinct
segment, by the exact bits of its (start, direction), is integrated once;
one dict keyed on those bits numbers the distinct segments in byte order.
M at all nodes of a batch of distinct segments comes from one back
substitution on the upper triangular h, with the nodes on the last axis,
and the steps of each segment are combined pairwise in order into its
increment.  No pivot is zero on a certified polyline: there
|g0 B(x, x)|_inf <= |x|_inf^2 c < 1, so every diagonal entry of h is
positive.  Each polyline then gathers its segments' increments by index,
and they are combined pairwise in order, a batch of polylines at a time.
A segment's bits can depend on its column in a batch's GEMMs (BLAS picks
its inner kernels by position), so byte order, not the order in which the
polylines show the segments, fixes the batches: the result depends on the
set of segments in a call, not on the order of its polylines.  The
even-indexed nodes are exactly the nodes of the N/2-step run, so both runs
come at no extra solve.  A segment of length 0 needs no special case:
v = 0 makes M = 0, and its increment is exactly 0.
"""

from __future__ import annotations

import numpy as np

# Floats in one batch's node array m (a batch holds at least one segment),
# and in one batch's gathered loop increments (at least one loop).  Beyond
# one (n, n) increment per distinct segment and per loop, this bounds the
# working set, so peak memory does not grow with the loop count.
NODE_BUDGET = 1 << 17


def segment_terms(mats, a, v):
    """Polynomial coefficients (G, R) of the raised metric and of the raised
    Christoffel right-hand side along the segments x(s) = a + s v.

    With d_p g_ij(x) = 2 B_ijpq x^q, the right-hand side is
    R(s)[k, c] = sum_b (d_b g_kc + d_c g_kb - d_k g_bc)(x(s)) v^b
    = 2 sum_bq C[k,c,b,q] v^b x(s)^q, linear in x; ``mats`` raises k.
    """
    n = a.shape[-1]
    x = np.stack([a.T, v.T])
    # the outer products aa, av, va, vv, each (n^2, S)
    xx = (x[:, None, :, None] * x[None, :, None, :]).reshape(4, n * n, -1)
    R = mats[1] @ xx[2:]
    xx[1] += xx[2]  # G's middle term av + va
    G = (mats[0] @ xx[[0, 1, 3]]).reshape(3, n, n, -1)
    G[0, np.arange(n), np.arange(n)] += 1.0
    return G, 2.0 * R.reshape(2, n, n, -1)


def segment_gamma(G, R, s):
    """M(s) = 1/2 h(s)^-1 g0 R(s) for G, R of shape (3|2, n, n, S) and s of
    shape (K,), by back substitution on the upper triangular h(s) with the
    S K nodes on the last axis; result (n, n, S, K)."""
    h = G[2][..., None] * s
    h += G[1][..., None]
    h *= s
    h += G[0][..., None]
    x = R[1][..., None] * s
    x += R[0][..., None]
    x *= 0.5
    n = len(x)
    for k in reversed(range(n)):
        if k + 1 < n:
            x[k] -= (h[k, k + 1:, None] * x[k + 1:]).sum(axis=0)
        x[k] /= h[k, k]
    return x


def _combine(d):
    """Ordered product of the steps I + d[..., k, :, :] as one increment.

    Pairs are merged as (I + hi)(I + lo) = I + (hi + lo + hi lo), which keeps
    the small part precise.  A zero increment is an exact identity step.
    """
    while d.shape[-3] > 1:
        if d.shape[-3] % 2:
            d = np.concatenate([d, np.zeros_like(d[..., :1, :, :])], axis=-3)
        lo, hi = d[..., 0::2, :, :], d[..., 1::2, :, :]
        d = hi + lo + hi @ lo
    return d[..., 0, :, :]


def _rk4(m, h):
    """Combined increment of the RK4 steps over the nodes m[:, 0], m[:, 1],
    ..., m[:, 2K] (start, midpoint, end of each of K steps of length h).

    From P = I the stages are -q with q1 = m0 and q_i = m_i (I - c_i h q_(i-1));
    a step's increment is D = -h/6 (q1 + 2 q2 + 2 q3 + q4).
    """
    m0, mm, m1 = m[:, 0:-1:2], m[:, 1::2], m[:, 2::2]
    eye = np.eye(m.shape[-1])
    q = m0
    d = m0.copy()
    for weight, c, mk in ((2.0, 0.5, mm), (2.0, 0.5, mm), (1.0, 1.0, m1)):
        q = mk @ (eye - (c * h) * q)
        d += weight * q
    d *= -h / 6.0
    return _combine(d)


def _batches(total, per_item):
    """Slices covering range(total) in equal-sized batches of at most
    NODE_BUDGET // per_item items (at least one): the largest sets peak memory."""
    size = max(1, NODE_BUDGET // per_item)
    size = -(-total // -(-total // size))
    return [slice(lo, min(lo + size, total)) for lo in range(0, total, size)]


def transport_polyline(mats, verts, steps):
    """Parallel transport along L polylines at once, for the raised
    contraction matrices ``mats`` of ``FloatMetric``.

    Every segment takes ``steps`` fixed RK4 steps, an even count N of at
    least 2.  Returns the (2, L, n, n) increments D = A - I of the transport
    matrices A mapping fibers at each polyline's first vertex to its last,
    of the N-step run and of the N/2-step run (every second node of the
    N-step run), for a step-doubling error estimate.
    """
    verts = np.ascontiguousarray(verts, dtype=np.float64)
    if verts.ndim != 3 or not len(verts) or verts.shape[1] < 2:
        raise ValueError("verts must have shape (loops >= 1, vertices >= 2, n)")
    if not isinstance(steps, int) or steps < 2 or steps % 2:
        raise ValueError(f"steps must be an even int of at least 2, got {steps!r}")
    nloops, nverts, n = verts.shape
    a = verts[:, :-1]
    # the distinct segments, equal when the bits of (start, direction) are:
    # a row's 2n floats as one byte string (numpy drops its trailing NULs
    # and pads them back), numbered in byte order
    row = f"S{16 * n}"
    keys = np.concatenate([a, verts[:, 1:] - a], axis=-1).view(row).ravel().tolist()
    ids = {key: i for i, key in enumerate(sorted(set(keys)))}
    index = np.reshape([ids[key] for key in keys], (nloops, nverts - 1))
    seg = np.array(list(ids), dtype=row).view(np.float64).reshape(-1, 2 * n)
    s = np.arange(2 * steps + 1) / (2 * steps)
    runs = np.empty((2, len(seg), n, n))
    for part in _batches(len(seg), (2 * steps + 1) * n * n):
        m = segment_gamma(*segment_terms(mats, seg[part, :n], seg[part, n:]), s)
        m = np.ascontiguousarray(m.transpose(2, 3, 0, 1))  # nodes first, for the batched GEMMs
        runs[:, part] = _rk4(m, 1.0 / steps), _rk4(m[:, 0::2], 2.0 / steps)
    d = np.empty((2, nloops, n, n))
    for part in _batches(nloops, 2 * (nverts - 1) * n * n):
        d[:, part] = _combine(runs[:, index[part]])
    return d
