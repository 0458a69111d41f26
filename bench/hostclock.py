"""Host speed, measured between the timed operations of a run.

The benchmark runs on virtual CPUs shared with other tenants, whose speed
moves from second to second and in steps that last minutes: on the
two-vCPU Xeon host of the first baseline, by up to 1.9x, so that a run in
a slow stretch read as much slower although the program did the same work.
To take that out, a fixed probe that does not touch ``totpos`` is timed in
the same thread, between operations, at least every ``PROBE_EVERY_S``
seconds.  The probe is exact ``Fraction`` elimination from the standard
library, half on small entries and half on 13-digit ones, the same kinds of
interpreter and big-integer work as the package's exact layers.  Each
operation's wall time (and each set-up child's) is scaled by
``REFERENCE_S`` over the median of the ``NEIGHBOURS`` probes nearest to it
in time, so the benchmark reports times at a fixed reference speed of the
probe.  A change to the program moves the operations and not the probe; a
change of host speed moves both.  The ``cli`` workload, whose operations
are child processes, uses a child interpreter that imports numpy as its
probe instead (``import_probe``).

Measured on that host over three minutes of 6 s windows, the window medians
of five fixed operations (quick reject to ``canonical_basis`` at n = 7)
moved with the probe at slopes 0.84 to 1.14, and scaling cut their
log-standard deviation from 0.19-0.25 to 0.06-0.09.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable

PROBE_EVERY_S = 0.25
NEIGHBOURS = 7  # probes whose median scales an operation
# Probe wall time at the reference speed: the probe's median on a quiet
# stretch of the two-vCPU Xeon host of the first baseline.
REFERENCE_S = 0.009
# The cli workload's ops are child processes, whose start and imports slowed
# less than in-process work in slow stretches (slope 0.58 against the
# Fraction probe, 0.88 against a child importing numpy).  Its probe is that
# child, every IMPORT_EVERY_S seconds; IMPORT_REFERENCE_S is its median on a
# quiet stretch of the same host.
IMPORT_EVERY_S = 1.0
IMPORT_REFERENCE_S = 0.110


def _matrix(seed: int, n: int, num: int, den: int) -> list[list[Fraction]]:
    state = seed
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            row.append(Fraction(state % num - num // 2, 1 + (state >> 32) % den))
        rows.append(row)
    return rows


# Small entries (interpreter-bound, like a quick reject) and 13-digit ones
# (big-integer arithmetic, like deep minors and inverses); the probe takes
# about as long on each, so host slowdowns of either kind weigh alike.
_SMALL = _matrix(1, 7, 17, 5)
_BIG = _matrix(2, 6, 10**13, 10**6)
_REPEATS = ((_SMALL, 10), (_BIG, 8))


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction elimination."""
    m = [row[:] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


_DETS = [_det(m) for m, _ in _REPEATS]


def probe() -> float:
    """Wall seconds of one probe, with the collector off, so the objects a
    run keeps alive do not change what the probe measures."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for (m, repeats), want in zip(_REPEATS, _DETS):
            for _ in range(repeats):
                if _det(m) != want:
                    raise RuntimeError("host probe gave a different determinant")
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def import_probe() -> float:
    """Wall seconds of a child interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True)
    return time.perf_counter() - start


class HostClock:
    """Probe times taken through a run, and the scale they give each instant."""

    def __init__(self, probe: Callable[[], float] = probe, reference_s: float = REFERENCE_S,
                 every_s: float = PROBE_EVERY_S):
        self._probe, self.reference_s, self.every_s = probe, reference_s, every_s
        self.at: list[float] = []  # perf_counter at each probe's end
        self.seconds: list[float] = []
        self.probe()

    def probe(self) -> None:
        self.seconds.append(self._probe())
        self.at.append(time.perf_counter())

    def tick(self) -> None:
        """Probe when the last probe is `every_s` old."""
        if time.perf_counter() - self.at[-1] >= self.every_s:
            self.probe()

    def scale(self, when: float) -> float:
        """`reference_s` over the median of the NEIGHBOURS probes nearest `when`."""
        i = bisect.bisect_left(self.at, when)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.at) - NEIGHBOURS))
        return self.reference_s / statistics.median(self.seconds[lo:lo + NEIGHBOURS])

    def median_s(self) -> float:
        return statistics.median(self.seconds)
