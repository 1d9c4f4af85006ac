"""Online touch-count filter (CHOP-style, reference [22] of the paper).

Jiang et al.'s filter-based DRAM caching only allocates pages that have
proven hot.  Adapted to the tagless design's software surface: each
cTLB miss on an uncached page bumps a per-page counter; the page is
bypassed (served at block granularity from off-package DRAM) until the
counter reaches ``threshold``, after which it is cached normally.
Counters decay periodically so stale history does not pin cold pages
hot forever.

Compared to :class:`StaticProfilePolicy` this needs no offline profile
-- the trade-off is that a hot page pays ``threshold - 1`` bypassed TLB
windows before it starts enjoying in-package hits.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.policy.base import CachingPolicy, PolicyDecision
from repro.vm.page_table import PageTableEntry


class TouchCountFilterPolicy(CachingPolicy):
    """Cache a page after ``threshold`` cTLB misses within the window."""

    name = "touch-filter"
    #: The touch counts themselves are learned state, not counters.
    COUNTERS = ("bypasses", "promotions", "decays")

    def __init__(self, threshold: int = 2, decay_interval_ns: float = 1e6):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if decay_interval_ns <= 0:
            raise ValueError("decay interval must be positive")
        self.threshold = threshold
        self.decay_interval_ns = decay_interval_ns
        self._counts: Dict[Tuple[int, int], int] = {}
        self._last_decay_ns = 0.0
        self.bypasses = 0
        self.promotions = 0
        self.decays = 0

    def decide(
        self,
        process_id: int,
        virtual_page: int,
        pte: PageTableEntry,
        now_ns: float,
    ) -> PolicyDecision:
        self._maybe_decay(now_ns)
        key = (process_id, virtual_page)
        count = self._counts.get(key, 0) + 1
        if count >= self.threshold:
            # Promoted: forget the counter (it has served its purpose).
            self._counts.pop(key, None)
            self.promotions += 1
            return PolicyDecision.CACHE
        self._counts[key] = count
        self.bypasses += 1
        return PolicyDecision.BYPASS

    def _maybe_decay(self, now_ns: float) -> None:
        """Halve all counters once per decay interval (cheap aging)."""
        if now_ns - self._last_decay_ns < self.decay_interval_ns:
            return
        self._last_decay_ns = now_ns
        self.decays += 1
        survivors = {
            key: count // 2
            for key, count in self._counts.items()
            if count // 2 > 0
        }
        self._counts = survivors

    def pending_pages(self) -> int:
        """Pages currently being observed (not yet promoted)."""
        return len(self._counts)

    def stats(self, prefix: str = "") -> dict:
        out = super().stats(prefix)
        out[f"{prefix}pending"] = float(len(self._counts))
        return out
