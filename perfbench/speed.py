"""Timing that discounts the machine's changing speed.

A shared machine runs the same fixed work at different speeds from one
minute to the next (a fixed pure-Python loop, timed back to back, took from
60 to 115 ms within 40 s).  Raw wall times of one workload then spread far
more across runs than any code change worth gating.

:class:`Stopwatch` times a region and samples the machine's speed while the
region runs: every ``PROBE_INTERVAL_S`` a ``SIGALRM`` handler runs
:func:`reference_loop` in the main thread.  A probe's time is the CPU time
its thread spent in the loop, so a wait for the GIL held by another thread
does not count as a slow machine.  The measuring process is pinned to one
CPU, so the probes' CPU time is exactly the share of the region they took;
it is taken out of the region's wall time, and the region's time at
reference speed is

    ref_s = wall_s * REFERENCE_S / mean(probe times)

that is, the wall time the region would take on a machine where the loop
takes ``REFERENCE_S``.  A change to the program moves ``wall_s`` and leaves
the probes alone; a slow phase of the machine moves both.

Changing :func:`reference_loop` or ``REFERENCE_S`` rescales every time
reported at reference speed, so neither may change between a baseline and
the run compared with it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

PROBE_INTERVAL_S = 0.1
#: Probes run back to back on entry and on exit, so a short region still
#: has a speed estimate.
BRACKET_PROBES = 5
REFERENCE_ITERATIONS = 20_000
REFERENCE_S = 0.002


def reference_loop() -> int:
    """Fixed interpreted integer work; allocates no container."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total = (total + i * i) & 0xFFFFFFFF
    return total


class Stopwatch:
    """Times one region at a time and the machine's speed during it.

    With ``sample=False`` only the bracket probes run, so nothing
    interrupts the region (the traced passes use this, so probes do not
    land in spans).  Use it from the main thread only: that is where
    Python runs signal handlers.
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.samples: List[float] = []
        self.elapsed_s = 0.0
        self.probes_s = 0.0

    def _probe(self, signum=None, frame=None) -> None:
        started = time.thread_time()
        reference_loop()
        spent = time.thread_time() - started
        self.samples.append(spent)
        self.probes_s += spent

    def __enter__(self) -> "Stopwatch":
        self.samples = []
        for _ in range(BRACKET_PROBES):
            self._probe()
        self.probes_s = 0.0
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.elapsed_s = time.perf_counter() - self._started
        inside = self.probes_s
        for _ in range(BRACKET_PROBES):
            self._probe()
        self.probes_s = inside
        return False

    @property
    def wall_s(self) -> float:
        """The region's wall time without the probes that interrupted it."""
        return self.elapsed_s - self.probes_s

    @property
    def slowdown(self) -> float:
        """Mean probe time over ``REFERENCE_S``: above 1 on a slow machine."""
        return statistics.fmean(self.samples) / REFERENCE_S

    @property
    def ref_s(self) -> float:
        """``wall_s`` at reference speed."""
        return self.wall_s / self.slowdown
