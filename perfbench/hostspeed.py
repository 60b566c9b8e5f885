"""Wall time corrected for the speed the host gives this process.

On a shared machine the same work can take 1.5x longer in one minute than
in the next: neighbours on the same cores slow every instruction, and the
process's own CPU time slows with them, so neither wall nor CPU time is
steady from run to run. A fixed probe runs every INTERVAL_S from a
SIGALRM timer while the benchmark works: a pure-Python arithmetic loop
followed by a loop of small numpy calls, the two kinds of work covertlink
spends its time in. (Neither half alone followed the slowdowns of both
plans and transmissions as well as the pair did.) Its duration tracks
the host's current speed, and each
stretch of wall time between probes is scaled by REFERENCE_PROBE_S over
the probe durations around it. The probes' own time is left out.

The result is in reference seconds: wall seconds on a host where the
probe takes REFERENCE_PROBE_S, which is its uncontended duration on the
machine the reference figures in README.md come from. Faster code gives
proportionally fewer reference seconds on any host; the raw wall times
are kept in every run's info line.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
PROBE_LOOP = 3000
PROBE_CALLS = 40
REFERENCE_PROBE_S = 4.5e-4
SMOOTHING = 5  # probes in the running median that sets the speed around a stretch

_PROBE_ARRAY = np.arange(64, dtype=float)


def _probe() -> float:
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    for i in range(PROBE_CALLS):
        total += float(np.sum(np.log1p(_PROBE_ARRAY * (1e-3 * i))))
    return total


class HostSpeed:
    """Samples the probe from a timer and converts wall intervals to reference seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._running = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _probe()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        """Stop the timer; a second call does nothing."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._running = False
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        half = SMOOTHING // 2
        self._factor = [
            REFERENCE_PROBE_S / statistics.median(durations[max(0, i - half) : i + half + 1])
            for i in range(len(durations))
        ]

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the benchmark's own work in the wall interval [t0, t1].

        Call after stop(). Each stretch between probes takes the speed
        factor of the probe that ends it; the stretch after the last
        probe takes the factor of the next probe, or of the last one.
        """
        if not self.starts:
            raise RuntimeError("no probe ran; the interval cannot be corrected")
        last = len(self.starts) - 1
        i = bisect.bisect_left(self.starts, t0)
        # a probe that began before t0 may still have been running at t0
        cursor = max(t0, self.ends[i - 1]) if i > 0 else t0
        total = 0.0
        while i <= last and self.starts[i] < t1:
            total += max(0.0, self.starts[i] - cursor) * self._factor[i]
            cursor = self.ends[i]
            i += 1
        if cursor < t1:
            total += (t1 - cursor) * self._factor[min(i, last)]
        return total
