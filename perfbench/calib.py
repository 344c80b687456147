"""Adjusting op times for the slow phases of a shared machine.

On a machine shared with other tenants, code slows by up to 1.7x for
seconds to minutes at a time, and CPU time slows with wall time, so
neither clock alone is steady from run to run.  So a fixed reference
task, independent of the program, mixing interpreted Python with
OpenSSL calls, is timed between ops, and each op's time is multiplied by
``(REFERENCE_NS / reference time around the op) ** gamma``.

``gamma`` is the workload's sensitivity to the slowdown: the slope of
log op time on log reference time among ops doing the same work.  It is
a constant of each workload (``Workload.GAMMA``), not fitted per run, so
that the same adjustment applies to every commit a run is compared
with.  Measured on a 2-vCPU Xeon VM over 20-second runs, the slope was
0.65-0.93 for handshake_storm and attack_gauntlet, 0.74-0.81 for cli_mix
and 0.07-0.11 for bulk_stream, whose secrecy scan, a bytes search,
barely slows.  If a change moves a workload's true slope away from its
constant, as a faster scan would for bulk_stream, the adjusted ratio of
change to parent on an equally loaded machine equals the raw ratio, so
the adjustment never hides a difference that raw times would show.

``REFERENCE_NS`` is the reference task's time on that VM when it was
quiet; on another machine it changes every figure of a workload by the
same factor, so comparisons between commits on one machine do not
depend on it.  Unadjusted medians stay in each run's info line.
"""

from __future__ import annotations

import bisect
import statistics
import time

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

REFERENCE_NS = 180_000
GAP_NS = 5_000_000  # at most one reference sample per 5 ms of loop time...
MAX_BURST = 8  # ...and at most this many after one long op
WINDOW_NS = 100_000_000  # samples within +-100 ms of an op give its reference time
MIN_SAMPLES = 5

_KEY = bytes(range(16))
_IV = bytes(16)
_BLOCK = bytes(512)


def reference_task() -> None:
    table: dict = {}
    acc = 0
    for i in range(800):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 63] = table.get(acc & 63, 0) + 1
    for _ in range(4):
        enc = Cipher(algorithms.AES(_KEY), modes.CBC(_IV)).encryptor()
        enc.update(_BLOCK)
        enc.finalize()


class Speed:
    """Reference-task samples taken over one run."""

    def __init__(self):
        self.times: list = []  # sample midpoints, ns, increasing
        self.costs: list = []  # reference task durations, ns
        self._last = 0

    def sample(self, reps: int = 1) -> None:
        clock = time.perf_counter_ns
        for _ in range(reps):
            start = clock()
            reference_task()
            end = clock()
            self.times.append((start + end) // 2)
            self.costs.append(end - start)
        self._last = clock()

    def between_ops(self) -> None:
        """Take samples if enough loop time has passed since the last ones."""
        gap = time.perf_counter_ns() - self._last
        if gap >= GAP_NS:
            self.sample(min(MAX_BURST, gap // GAP_NS))

    def scale(self, start_ns: int, end_ns: int, gamma: float) -> float:
        """Factor for an op over [start, end]: from the median reference
        time of the samples within ``WINDOW_NS`` of it."""
        lo = bisect.bisect_left(self.times, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.times, end_ns + WINDOW_NS)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return (REFERENCE_NS / statistics.median(self.costs[lo:hi])) ** gamma
