"""Machine-speed samples, for timing on a host whose speed drifts.

On a shared virtual machine the same code runs at a speed that moves by a
third or more, in phases from tens of milliseconds to many minutes, while
the process keeps its CPU (wall and CPU time agree).  Fixed reference work,
timed now and then while the program runs, sees the same phases.  Scaling
the program's time by the speed the samples saw gives its time at the
reference speed, which moves far less from run to run.

A sample times both reference parts, ``exact`` and ``float``, in a
``SIGALRM`` handler every ``INTERVAL_S`` seconds, so it lands at arbitrary
points inside the calls being timed without touching the program.  A part
tracks the speed of code like it best, so each workload reads the speed
from the parts that resemble its work (``Workload.reference``).  The
sample's thread CPU time measures the speed; its wall time is taken back
out of the call it interrupted.  Thread CPU time rather than wall time, so
that threads of the program that hold the interpreter lock while a sample
waits for it do not read as a slow machine.
"""

from __future__ import annotations

import bisect
import functools
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
PARTS = ("exact", "float")
# Thread CPU time of each part in the fast phase of the reference machine
# (see README.md, "Noise").  Scaled times are wall times at that speed.
REFERENCE_S = {"exact": 0.00052, "float": 0.00021}


def _exact():
    """Rational arithmetic, as in the exact stages."""
    a = Fraction(1, 3)
    s = Fraction(0)
    for i in range(1, 120):
        s += a * Fraction(i, i + 7)
    return s


@functools.cache
def _arrays():
    # numpy is imported on first use, so that importing this module does
    # not move numpy's import into the program's set-up time.
    import numpy as np

    n = 4
    B = (np.arange(n ** 4) % 7 - 3.0).reshape(n, n, n, n) * 0.01
    return np, 2.0 * np.eye(n), B, np.linspace(-0.5, 0.5, n)


def _float():
    """Small numpy contractions and solves, as in the probe's RK4 steps."""
    np, g0, B, x = _arrays()
    for _ in range(12):
        gx = g0 + np.einsum("ijpq,p,q->ij", B, x, x)
        t = np.linalg.solve(gx, np.einsum("ijpq,q->pij", B, x).reshape(4, 16))
    return t


def sample() -> tuple:
    """One sample: (start, wall seconds, thread CPU seconds of each part)."""
    t0 = time.perf_counter()
    c0 = time.thread_time()
    _exact()
    c1 = time.thread_time()
    _float()
    c2 = time.thread_time()
    return t0, time.perf_counter() - t0, c1 - c0, c2 - c1


def samples(count: int) -> list:
    """``count`` samples in a row, after one untimed warm-up."""
    sample()
    return [sample() for _ in range(count)]


def speed(samples, parts) -> float:
    """The machine's mean speed over the samples, relative to the reference
    speed, as the given parts see it.

    The mean of reference time over measured time, over samples evenly
    spaced in time, is the work done per second relative to the reference,
    so time measured over the samples' span times this factor is time at
    the reference speed.
    """
    if not samples:
        raise ValueError("no speed samples")
    cols = [2 + PARTS.index(p) for p in parts]
    ref = sum(REFERENCE_S[p] for p in parts)
    return statistics.fmean(ref / sum(s[c] for c in cols) for s in samples)


def scaled_call(samples, starts, t0: float, t1: float, parts) -> float:
    """Seconds the call over [t0, t1) would take at the reference speed.

    ``samples`` are in start order and ``starts`` holds their start times.
    The wall time of the samples taken inside the call is removed first.
    The speed is read from the samples within one interval of the call;
    when a call is shorter than the gap between samples, from the two
    samples around it.
    """
    lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
    inside = sum(s[1] for s in samples[lo:hi])
    near = samples[bisect.bisect_left(starts, t0 - INTERVAL_S):
                   bisect.bisect_left(starts, t1 + INTERVAL_S)]
    if not near:
        near = samples[max(0, lo - 1):lo + 1]
    return (t1 - t0 - inside) * speed(near, parts)


class Sampler:
    """Takes a sample every INTERVAL_S seconds of wall time while entered."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        sample()  # warm-up, outside the timed calls
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
