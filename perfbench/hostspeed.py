"""Host-speed probe: scales measured times to a fixed reference speed.

On a shared host the same code runs up to about 1.6 times slower while
other tenants are busy, in stretches of one to ten seconds, and the busy
share changes from one run to the next.  That swamps the differences the
benchmark is meant to show.  While the passes run, ``Probe`` times a small
fixed kernel every ``PERIOD`` seconds from a SIGALRM handler.  The kernel is
the same kind of work flowlab does (Python calls on small numpy arrays), so
it slows down with the program.  ``normalize`` then scales each pass's wall
time by ``REFERENCE_S`` over the kernel's mean time during that pass.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.02  # seconds between kernel runs; each run takes about 0.5 ms
REFERENCE_S = 5e-4  # the kernel time a normalized second is scaled to
_X = np.arange(64.0)


def kernel() -> float:
    """The fixed reference work: twenty periodic second differences."""
    s = 0.0
    for _ in range(20):
        y = np.roll(_X, 1) - 2.0 * _X + np.roll(_X, -1)
        s += float(y[3])
    return s


class Probe:
    """``with Probe() as p:`` runs ``kernel`` every ``PERIOD`` seconds of wall
    time and appends ``(start, duration)`` to ``p.ticks``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.ticks = []

    def _tick(self, signum, frame):
        t0 = self.clock()
        kernel()
        self.ticks.append((t0, self.clock() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def normalize(starts, walls, ticks) -> list:
    """Each pass's wall time at the reference speed: ``wall * REFERENCE_S /
    mean kernel time`` over the ticks that started during the pass (over
    all ticks for a pass too short to hold one)."""
    overall = statistics.fmean(d for _, d in ticks)
    out = []
    for start, wall in zip(starts, walls):
        inside = [d for t, d in ticks if start <= t < start + wall]
        out.append(wall * REFERENCE_S / (statistics.fmean(inside) if inside else overall))
    return out
