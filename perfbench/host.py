"""The host's speed, sampled while the program is idle.

The benchmark runs on shared machines whose speed drifts.  On the
2-vCPU virtual machine it was sized on, a fixed pure-Python loop flips
between a fast and a slow time (about 1.5 and 2.4 ms, at other hours
2.9 and 4.5 ms) every second or so, and the share of slow time changes
from minute to minute.  The program's CPU work follows it: ten runs of
one commit on ``schedule`` spread by up to a third.

:class:`HostClock` times that loop on each CPU at moments the program
has no work: between set-up phases, before and after each timed
window, and inside a closed-loop window after each operation.  The
median of a run's samples is ``host.ref_ms``, and ``run.end_to_end``
reports the end-to-end figures of CPU work at a host on which the loop
takes :data:`REFERENCE_MS`: times multiplied by ``REFERENCE_MS /
host.ref_ms``, rates divided by it.  The loop is the benchmark's own
code, so a change to the program moves the reported figures as much as
the measured ones, and a change in the host's speed mostly does not.
"""

from __future__ import annotations

import os
import statistics
import time

#: Loop time, in ms, of the host the scaled metrics are reported for.
REFERENCE_MS = 2.0

_ITERATIONS = 20_000
_REPEATS = 3


def _loop_ms() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(_ITERATIONS):
        total += i * i % 7
    return 1e3 * (time.perf_counter() - started)


class HostClock:
    """Samples of the reference loop, each with the interval it took."""

    def __init__(self) -> None:
        #: (start, end, loop ms) on the host monotonic clock.
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        """Time the loop on each CPU in turn; keeps the mean of their medians.

        The program runs on every CPU the benchmark may use, and on a
        shared machine each can be slow while another is fast.  Takes
        about 6 ms per CPU.
        """
        start = time.monotonic()
        cpus = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(statistics.median(_loop_ms() for _ in range(_REPEATS)))
        finally:
            os.sched_setaffinity(0, cpus)
        self.samples.append((start, time.monotonic(), statistics.fmean(per_cpu)))

    def paused_s(self, t0: float, t1: float) -> float:
        """Time spent sampling within ``[t0, t1]``."""
        return sum(end - start for start, end, _ms in self.samples if start >= t0 and end <= t1)

    def median_ms(self) -> float:
        """Median loop time of every sample so far: ``host.ref_ms``."""
        return statistics.median(ms for _s, _e, ms in self.samples)

