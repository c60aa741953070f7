"""Timing at a reference machine speed.

The shared host this benchmark was defined on runs the same code up to 1.8
times slower for spells of a fraction of a second to minutes, on both of its
CPUs alike.  So every timed interval is also put on a common scale.  While a
run measures, a SIGALRM handler times a short fixed calibration chunk, which
uses no bcvgeo code, every PERIOD_S of wall time.  An interval's own time is
its wall time minus the handler's time inside it; its scaled time is its own
time multiplied by REFERENCE_S over the mean chunk time from WINDOW_S before
the interval to WINDOW_S after it.  A program change moves the scaled time
as it moves the own time; a slow spell of the host slows the interval and
the chunks taken during it alike, and cancels.
"""

from __future__ import annotations

import math
import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.1
# a round figure near the chunk's median time on the defining machine
# (2-vCPU x86_64 VM, Python 3.11, numpy 2.4), so that scaled times are
# close to seconds there
REFERENCE_S = 0.001

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])


def _calibration_chunk():
    """Scalar Python arithmetic and 3x3 numpy algebra, the two kinds of work
    bcvgeo's stencils are made of."""
    s = 0.0
    for i in range(1, 900):
        s += math.sqrt(i) * 0.5 - math.sin(i * 1e-3)
    m = _A
    for _ in range(60):
        m = np.linalg.solve(_A, m) + 1e-3 * (_A @ m)
    return s + float(m[0, 0])


class Sampler:
    """Calibration chunks timed from a SIGALRM handler while the sampler is
    entered; `scaled` then puts any interval inside that time on the
    reference scale."""

    def __init__(self):
        self.start = array("d")
        self.took = array("d")
        self._old = None
        self._inside = False

    def _handler(self, signum, frame):
        if self._inside:        # a signal that arrived during the chunk
            return
        self._inside = True
        t0 = perf_counter()
        _calibration_chunk()
        self.start.append(t0)
        self.took.append(perf_counter() - t0)
        self._inside = False

    def __enter__(self):
        self._handler(None, None)
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._handler(None, None)

    def own(self, t0, t1):
        """Wall time from t0 to t1 minus the chunks that started inside it."""
        i, j = bisect_left(self.start, t0), bisect_left(self.start, t1)
        return (t1 - t0) - sum(self.took[i:j])

    def scaled(self, t0, t1):
        i = bisect_left(self.start, t0 - WINDOW_S)
        j = bisect_right(self.start, t1 + WINDOW_S)
        chunk = sum(self.took[i:j]) / (j - i)
        return self.own(t0, t1) * REFERENCE_S / chunk

    def median(self):
        s = sorted(self.took)
        return s[len(s) // 2]
