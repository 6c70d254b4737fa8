"""Host-speed probes timed alongside the operations, to divide out host drift.

The shared virtual machines this benchmark runs on change speed by up to
about 1.8x within seconds (a fixed interpreter loop takes 7 ms or 13 ms), in
states that last from a few seconds to about a minute.  A run of 20-30 s then
reads fast or slow as a whole, and raw wall times of the same code spread by
up to 45% over ten runs (interquartile range over median).

While the operations run, a ``SIGALRM`` every ``PERIOD_S`` runs a *probe*: a
fixed piece of the benchmark's own code in two parts, an interpreter loop and
a NumPy table lookup (the two kinds of work pbpsolve does), each timed.  The
probe's *factor* is the geometric mean of the two parts' times over their
nominal times, so it is 1 on a host as fast as the nominal one and 1.5 on a
host where the probe takes half as long again.  An operation's time at the reference speed is its
own time (probe time taken out) divided by the median factor of the probes
that ran during it, or of the ``MIN_PROBES`` nearest ones for operations
shorter than that.  The probes touch none of pbpsolve's state, so a change
to the program moves the time at the reference speed by the same share as
the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
MIN_PROBES = 5
# Interpreter-loop iterations and table-lookup sizes of one probe.
PY_ITERATIONS = 4000
NP_QUERIES = 5_000
NP_TABLE = 100_001
# The two parts' times on a 2-vCPU Xeon host in its fast state (seconds).
NOMINAL_PY_S = 0.0004
NOMINAL_NP_S = 0.0013


def _interpreter_part() -> int:
    total = 0
    for i in range(PY_ITERATIONS):
        total += i * i % 7
    return total


class HostSpeed:
    """Periodic probes of the host's speed, and operation times corrected by them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._queries = rng.uniform(-8.0, 8.0, NP_QUERIES)
        self._xp = np.linspace(-8.0, 8.0, NP_TABLE)
        self._fp = np.sin(self._xp)
        # (start, end, factor) per probe, in time.perf_counter() seconds.
        self.probes: list[tuple[float, float, float]] = []
        self._previous_handler = None

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _interpreter_part()
        mid = time.perf_counter()
        np.interp(self._queries, self._xp, self._fp)
        end = time.perf_counter()
        factor = ((mid - start) / NOMINAL_PY_S * (end - mid) / NOMINAL_NP_S) ** 0.5
        self.probes.append((start, end, factor))

    def start(self) -> None:
        for _ in range(20):  # warm the caches and the interpreter's paths
            self._probe()
        self.probes.clear()
        self._probe()  # one probe before and one after the run, however short
        self._previous_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        self._probe()

    def busy(self, start: float, end: float) -> float:
        """Seconds of probing inside [start, end]."""
        return sum(min(e, end) - max(s, start) for s, e, _ in self.probes
                   if e > start and s < end)

    def factor(self, start: float, end: float) -> float:
        """Median factor of the probes during [start, end], at least MIN_PROBES nearest."""
        def distance(probe: tuple[float, float, float]) -> float:
            mid = 0.5 * (probe[0] + probe[1])
            return max(start - mid, mid - end, 0.0)

        ranked = sorted(self.probes, key=distance)
        inside = sum(1 for p in ranked if distance(p) == 0.0)
        chosen = ranked[:max(inside, MIN_PROBES)]
        return statistics.median(f for _, _, f in chosen)
