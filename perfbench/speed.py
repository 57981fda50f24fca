"""Run-time scaling for a machine whose speed drifts.

On a shared machine (measured on 2 cores, Python 3.11.7), the same run can
take a third longer or shorter from one minute to the next, for any code. A fixed pure-Python loop, timed in
60 ms pieces over 150 s, varied from 0.058 to 0.178 s per piece, and its
process CPU time drifted with it. So the cause is the machine's speed, not
preemption. Raw times of runs made minutes apart therefore do not compare.

The probe times a fixed piece of reference work between requests, outside
every timed interval. Each interval is scaled by PROBE_NOMINAL over the mean
probe time within PROBE_WINDOW of it, and so reported in seconds at the
reference speed. On ten `certify-large` runs this cut the spread of
`wall_s` from 0.21 to 0.035.
"""
from __future__ import annotations

import bisect
import random
import time

PROBE_INTERVAL = 0.05  # seconds between probes
PROBE_WINDOW = 0.2  # probes this close to an interval scale it
PROBE_BURST = 20  # probes taken after a long request, in place of the ones it skipped
PROBE_NOMINAL = 0.0011  # seconds _reference_work takes at the reference speed


_REFERENCE_MASK = random.Random(0).getrandbits(64 * 64)


def _reference_work() -> int:
    """A fixed piece of work shaped like the package's own: bit extraction from a
    64-vertex adjacency integer into small masks, tuples hashed into a dict."""
    acc = 0
    counts: dict[tuple[int, ...], int] = {}
    for i in range(400):
        t = tuple((i * k) & 63 for k in range(6))
        counts[t] = counts.get(t, 0) + 1
        acc ^= hash(t) & 0xFFFF
    n = 64
    for base in range(0, 40, 3):
        sub = range(base, base + 12)
        m = 0
        for i, u in enumerate(sub):
            for j, v in enumerate(sub):
                if u != v and _REFERENCE_MASK >> u * n + v & 1:
                    m |= 1 << i * 12 + j
        acc ^= m
    return acc + sum((_REFERENCE_MASK >> u * n & (1 << n) - 1).bit_count() for u in range(n))


class SpeedProbe:
    """Times `_reference_work` between requests, at most every PROBE_INTERVAL seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._due = 0.0

    def maybe_sample(self) -> None:
        """Probe once per PROBE_INTERVAL passed since the last probe, up to PROBE_BURST times."""
        now = time.perf_counter()
        if now < self._due:
            return
        missed = 1 if not self.starts else int((now - self._due) / PROBE_INTERVAL) + 1
        for _ in range(min(missed, PROBE_BURST)):
            start = time.perf_counter()
            _reference_work()
            end = time.perf_counter()
            self.starts.append(start)
            self.seconds.append(end - start)
        self._due = end + PROBE_INTERVAL

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed for the interval [start, end] timed here."""
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW)
        around = self.seconds[lo:hi] or self.seconds
        return (end - start) * PROBE_NOMINAL * len(around) / sum(around)
