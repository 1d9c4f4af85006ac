"""Host-speed calibration for the benchmark's timings.

On a shared machine the host's speed drifts by 10-20 % over tens of
seconds, and every part of the simulator slows together.  A run
therefore interleaves a fixed pure-Python loop with the timed work and
scales its timings to the reference speed: host seconds times
``REFERENCE_UNIT_S / mean unit time``.  The loop mixes what the
simulator does: small-object churn in a compact table, and random reads
and updates across tables far larger than the host's per-core caches
(where co-tenants of the machine contend).  It belongs to the
benchmark, so no change to the simulator moves it; the garbage collector
is off while it runs, so the simulator's heap does not either.

A single unit's time varies by a third from one unit to the next, so a
sample is several units and a run takes one sample per timed call:
about a tenth of a run goes to calibration.
"""

from __future__ import annotations

import array
import gc
import statistics
import time
from typing import List

#: The unit's usual time on the 2-vCPU Xeon (KVM guest, 2.1 GHz) the
#: bounds were tuned on; scaled timings read as that host's seconds.
REFERENCE_UNIT_S = 0.0065
UNITS_PER_SAMPLE = 4
SMALL_ITERATIONS = 4_000
LARGE_ITERATIONS = 2_500
#: Entries of the large tables: ~5 MB of dict, 8 MB of array.
LARGE_KEYS = 100_000
LARGE_WORDS = 1_000_000


class _Node:
    __slots__ = ("key", "count", "next")

    def __init__(self, key: int, nxt) -> None:
        self.key = key
        self.count = 0
        self.next = nxt


class HostSpeed:
    """Calibration samples of one run and the scale they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._large = {key * 7919: key for key in range(LARGE_KEYS)}
        self._words = array.array("q", range(LARGE_WORDS))
        self._state = 1

    def unit(self) -> int:
        """One calibration unit: a fixed mix of small and large traffic."""
        table = {}
        ring = [None] * 1024
        recent: List[int] = []
        total = 0
        for i in range(SMALL_ITERATIONS):
            key = (i * 2654435761) & 0xFFFF
            node = table.get(key)
            if node is None:
                node = _Node(key, ring[key & 1023])
                table[key] = node
                ring[key & 1023] = node
            node.count += 1
            if node.count & 7 == 0:
                recent.append(key)
                if len(recent) > 64:
                    recent.pop(0)
            total += (key >> 3) * 3 + (node.count if node.next is None
                                       else node.next.count)
        large, words, state = self._large, self._words, self._state
        for _ in range(LARGE_ITERATIONS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            index = large[(state % LARGE_KEYS) * 7919]
            words[index] += 1
            total += words[state % LARGE_WORDS] + index
        self._state = state
        return total

    def sample(self) -> None:
        """Time :data:`UNITS_PER_SAMPLE` calibration units."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(UNITS_PER_SAMPLE):
                begin = time.perf_counter()
                self.unit()
                self.samples.append(time.perf_counter() - begin)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Reference speed over measured speed (below 1 on a slow host)."""
        if not self.samples:
            return 1.0
        return REFERENCE_UNIT_S / statistics.fmean(self.samples)
