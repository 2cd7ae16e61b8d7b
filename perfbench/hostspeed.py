"""Host-speed probe: a fixed slice of work timed beside the program's own.

The small shared hosts this benchmark runs on change speed in phases that
last from seconds to many minutes: a fixed pure-Python loop takes anywhere
from 1x to 1.8x its fastest time, CPU time tracks wall time, and pinning
does not help.  Fixed work and medians cannot take that out of a timing, so
every process that does timed work also times this probe, between units of
its work and never inside one, and every timing the benchmark reports is
divided by the probe's slowdown over ``REFERENCE_S`` around that work: it
reads as the time the same work takes on a host running the probe in
``REFERENCE_S``.  The probe mixes the three kinds of work the program does
(interpreter loops, dict traffic, small NumPy kernels), in the benchmark's
own code, so no change to ``src/`` moves it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

clock = time.perf_counter

#: the probe's wall time on the reference host (2 vCPUs, CPython 3, one
#: BLAS thread) in its fast phase
REFERENCE_S = 0.004

_BASE = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)


def probe_once() -> float:
    """Wall time of one fixed slice of work."""
    started = clock()
    acc = 0
    for i in range(36000):
        acc += i * i
    table: dict = {}
    for i in range(7500):
        table[i % 97] = table.get(i % 97, 0) + i
    a = _BASE
    for _ in range(90):
        a = np.tanh(a @ a * 0.02 + _BASE)
    return clock() - started


class HostSpeed:
    """Probe marks set between units of work, and the units' slowdowns.

    ``mark()`` times the probe twice and records the median as a slowdown
    over ``REFERENCE_S`` (1.0 at reference speed).  The work between marks
    ``i`` and ``i + 1`` is scaled by the mean of those two marks, so each
    unit is corrected for the host's speed around it rather than for the
    round as a whole.
    """

    def __init__(self) -> None:
        self.marks: List[float] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.spent = 0.0

    def mark(self, times: int = 2) -> None:
        started = clock()
        self.marks.append(statistics.median(probe_once() for _ in range(times)) / REFERENCE_S)
        ended = clock()
        self.starts.append(started)
        self.ends.append(ended)
        self.spent += ended - started

    def between(self, i: int) -> float:
        """Slowdown of the host over the work between marks i and i + 1."""
        return (self.marks[i] + self.marks[i + 1]) / 2.0

    def window_s(self, i: int) -> float:
        """Wall time between the end of mark i and the start of mark i + 1."""
        return self.starts[i + 1] - self.ends[i]

    def steady_s(self) -> float:
        """Wall time of all the work between the marks, at reference speed."""
        return sum(self.window_s(i) / self.between(i) for i in range(len(self.marks) - 1))

    def slowdown(self) -> float:
        """Median slowdown over all marks."""
        return statistics.median(self.marks)
