"""Timings in reference seconds, corrected for the host's changing speed.

The shared host this benchmark was tuned on runs the same pure-Python code up
to twice as slowly for stretches of several seconds, as other tenants come and
go.  Wall times of one program then spread by 25-35% between runs, far more
than the regressions the benchmark has to catch.  So every timing is taken
together with the host's current speed:

- a fixed probe kernel (``_kernel``, which does sparse-polynomial work on
  rational numbers kept as integer pairs, like the program's own hot loops)
  is timed at the start and end of every timed stretch and, while the program
  runs, every ``INTERVAL_S`` from a SIGALRM handler;
- each piece of program time between two probes counts as
  ``piece * REFERENCE_S / mean(probe before, probe after)``: the seconds the
  piece would have taken with the probe running at its reference speed.

Probe time is left out of every timing.  The probe uses nothing from the
program, so a change to the program moves reference seconds exactly as it
moves wall seconds on a quiet host.  The garbage collector is held off while
a probe runs, so that the program's heap size does not leak into the probe.
"""

from __future__ import annotations

import gc
import signal
from math import gcd
from time import perf_counter

# The probe's time on a quiet host: the 10th percentile of 34,000 probes on
# the 2-vCPU Intel Xeon VM the benchmark was tuned on (their median was
# 0.37 ms).  Only a fixed scale; changing it rescales every timing.
REFERENCE_S = 0.00035
INTERVAL_S = 0.02


def _kernel() -> int:
    """Fixed work: square a sparse bivariate polynomial over the rationals."""
    a = {(i, j): (i + 1, j + 2) for i in range(6) for j in range(5)}
    out: dict = {}
    for (i, j), (p, q) in a.items():
        for (k, m), (r, s) in a.items():
            key = (i + k, j + m)
            num, den = p * r, q * s
            if key in out:
                n0, d0 = out[key]
                num, den = num * d0 + n0 * den, den * d0
            g = gcd(num, den)
            out[key] = (num // g, den // g)
    return len(out)


def probe() -> float:
    """Seconds one run of the probe kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    _kernel()
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


for _ in range(3):          # let the interpreter specialise the kernel
    probe()


class Clock:
    """Reference seconds of a stretch of the program, split at ``split()``.

    ``with Clock() as clock:`` starts timing; each ``clock.split()`` returns
    the reference seconds since the previous split (or the start).  With
    ``interval=None`` the host is probed only at splits, not during them.
    """

    def __init__(self, interval: float | None = INTERVAL_S):
        self.interval = interval
        self._busy = False

    def __enter__(self) -> "Clock":
        self._ref = 0.0
        self._wall = 0.0
        self.wall = 0.0              # wall seconds of the program, probes left out
        self.probes = 0
        self._last = probe()
        if self.interval:
            self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._mark = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, *_) -> None:
        if not self._busy:
            self._busy = True
            self._close_piece()
            self._busy = False

    def _close_piece(self) -> None:
        piece = perf_counter() - self._mark
        now = probe()
        self._ref += piece * REFERENCE_S * 2 / (self._last + now)
        self._wall += piece
        self._last = now
        self.probes += 1
        self._mark = perf_counter()

    def split(self) -> float:
        self._busy = True            # no tick may close a piece meanwhile
        self._close_piece()
        ref, self._ref = self._ref, 0.0
        self.wall += self._wall
        self._wall = 0.0
        self._busy = False
        return ref
