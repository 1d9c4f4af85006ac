"""Two-level on-die cache hierarchy (the L1/L2 of Table 3).

The hierarchy is indexed by *global line number*.  In the SRAM-tag design
these are physical line numbers; in the tagless design they are **cache**
line numbers (Section 3.1: "on-die SRAM caches are now addressed and
tagged by cache addresses"), which is why the hierarchy also supports
page-granularity invalidation -- when the tagless cache recycles a cache
address, stale lines of the departing page must leave the on-die levels.

Dirty L2 victims are surfaced to the caller as write-backs; timing and
energy for those belong to the memory side.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.common.addressing import LINES_PER_PAGE
from repro.common.config import OnDieCacheConfig
from repro.common.stats import Counters
from repro.sram.set_assoc import SetAssociativeCache


@dataclasses.dataclass
class AccessResult:
    """Outcome of one hierarchy access.

    ``level`` is "l1", "l2" or "miss"; ``writebacks`` lists the global
    line numbers of dirty L2 victims that must be written toward memory.
    """

    level: str
    writebacks: List[int]


class OnDieHierarchy(Counters):
    """Write-back, write-allocate L1 + L2 with simple inclusion-free flow.

    The hot path is :meth:`access_level` / :meth:`access_after_l1_miss`:
    they return the hit level as a plain string and surface dirty L2
    victims through :attr:`pending_writebacks`, a list **reused across
    calls** (valid until the next miss-path access) so the common case
    allocates nothing.  :meth:`access` wraps them in the original
    allocating :class:`AccessResult` interface for tests and tools.
    """

    __slots__ = ("l1_config", "l2_config", "l1", "l2", "l1_hits",
                 "l2_hits", "misses", "writebacks", "pending_writebacks")

    COUNTERS = ("l1_hits", "l2_hits", "misses", "writebacks")

    def __init__(self, l1: OnDieCacheConfig, l2: OnDieCacheConfig):
        self.l1_config = l1
        self.l2_config = l2
        self.l1 = SetAssociativeCache(l1.num_sets, l1.associativity, "lru")
        self.l2 = SetAssociativeCache(l2.num_sets, l2.associativity, "lru")
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0
        self.writebacks = 0
        #: Dirty L2 victim lines of the most recent miss-path access.
        self.pending_writebacks: List[int] = []

    def access(self, line: int, is_write: bool) -> AccessResult:
        """Look up ``line``; fill on miss; return hit level + write-backs."""
        level = self.access_level(line, is_write)
        writebacks = [] if level == "l1" else list(self.pending_writebacks)
        return AccessResult(level, writebacks)

    def access_level(self, line: int, is_write: bool) -> str:
        """Hot-path access: hit level only; write-backs via
        :attr:`pending_writebacks` (untouched on an L1 hit)."""
        if self.l1.lookup(line, is_write):
            self.l1_hits += 1
            return "l1"
        return self._after_l1_probe_missed(line, is_write)

    def access_after_l1_miss(self, line: int, is_write: bool) -> str:
        """Continuation for callers that inlined the L1 probe themselves
        (without counting the miss): books the L1 miss, then proceeds."""
        self.l1.misses += 1
        return self._after_l1_probe_missed(line, is_write)

    def _after_l1_probe_missed(self, line: int, is_write: bool) -> str:
        # Both levels are always fused-LRU (constructed with "lru"
        # above), so the set-associative probe / insert / spill dict
        # operations are inlined here verbatim -- same operations in the
        # same order as SetAssociativeCache.lookup()/insert_fast(),
        # minus the policy-dispatch branches that can never be taken.
        writebacks = self.pending_writebacks
        writebacks.clear()
        l1 = self.l1
        l2 = self.l2
        l2_set = l2._sets[line % l2.num_sets]
        l2_entries = l2_set.entries
        if line in l2_entries:
            # L2 hit: move-to-end + dirty merge, then fill L1.
            l2.hits += 1
            l2_entries[line] = l2_entries.pop(line) or is_write
            self.l2_hits += 1
            level = "l2"
        else:
            l2.misses += 1
            self.misses += 1
            # Miss: the line arrives from the next level; install in L2
            # (it just missed, so it cannot already be resident).
            if len(l2_entries) >= l2_set.ways:
                victim = next(iter(l2_entries))
                if l2_entries.pop(victim):
                    writebacks.append(victim)
                    self.writebacks += 1
            l2_entries[line] = False
            level = "miss"
        # Fill L1 (the line just missed L1, so it is not resident).
        l1_set = l1._sets[line % l1.num_sets]
        l1_entries = l1_set.entries
        if len(l1_entries) >= l1_set.ways:
            victim = next(iter(l1_entries))
            if l1_entries.pop(victim):
                # Dirty L1 victim drains into L2; if L2 must evict a
                # dirty line to make room, that one continues to memory.
                spill_set = l2._sets[victim % l2.num_sets]
                spill_entries = spill_set.entries
                if victim in spill_entries:
                    # mark_dirty: set the bit without refreshing recency.
                    spill_entries[victim] = True
                else:
                    if len(spill_entries) >= spill_set.ways:
                        spilled = next(iter(spill_entries))
                        if spill_entries.pop(spilled):
                            writebacks.append(spilled)
                            self.writebacks += 1
                    spill_entries[victim] = True
        l1_entries[line] = is_write
        return level

    def invalidate_page(self, page_number: int) -> List[int]:
        """Invalidate all 64 lines of a page; return dirty lines dropped.

        The tagless design calls this when a cache address is recycled.
        Dirty lines are returned so the caller can merge them into the
        page's write-back (they are part of the page being evicted).
        """
        dirty: List[int] = []
        first = page_number * LINES_PER_PAGE
        for line in range(first, first + LINES_PER_PAGE):
            for level in (self.l1, self.l2):
                evicted = level.invalidate(line)
                if evicted is not None and evicted.dirty:
                    dirty.append(line)
        return dirty

    def reset_stats(self) -> None:
        """Zero hit/miss counters; cache contents stay warm."""
        super().reset_stats()
        self.l1.reset_stats()
        self.l2.reset_stats()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.l1_hits + self.l2_hits + self.misses

    def miss_rate(self) -> float:
        """Fraction of accesses that left the on-die hierarchy."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses
