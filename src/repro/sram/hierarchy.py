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
    """Write-back, write-allocate, LRU L1 + L2 with inclusion-free flow.

    :meth:`access` is the on-die probe, fill and spill sequence of
    ``MemorySystemDesign.access_cycles``.  The fused kernel
    (:mod:`repro.cpu.batched`) inlines that sequence on the set dicts
    and surfaces dirty L2 victims through :attr:`pending_writebacks`, a
    list reused across its miss-path accesses so the common case
    allocates nothing; the kernel-vs-reference tests pin it to this
    model.
    """

    __slots__ = ("l1", "l2", "l1_hits", "l2_hits", "misses", "writebacks",
                 "pending_writebacks", "_l1_entries", "_l2_entries")

    COUNTERS = ("l1_hits", "l2_hits", "misses", "writebacks")

    def __init__(self, l1: OnDieCacheConfig, l2: OnDieCacheConfig):
        self.l1 = SetAssociativeCache(l1.num_sets, l1.associativity)
        self.l2 = SetAssociativeCache(l2.num_sets, l2.associativity)
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0
        self.writebacks = 0
        #: Dirty L2 victim lines of the fused kernel's most recent
        #: miss-path access.
        self.pending_writebacks: List[int] = []
        # Each level's set dicts (line -> dirty), bound once for
        # invalidate_page.
        self._l1_entries = [s.entries for s in self.l1._sets]
        self._l2_entries = [s.entries for s in self.l2._sets]

    def access(self, line: int, is_write: bool) -> AccessResult:
        """Look up ``line``; fill on miss; return hit level + write-backs."""
        l1 = self.l1
        l2 = self.l2
        if l1.lookup(line, is_write):
            self.l1_hits += 1
            return AccessResult("l1", [])
        writebacks: List[int] = []
        if l2.lookup(line, is_write):
            self.l2_hits += 1
            level = "l2"
        else:
            # The line arrives from the next level into L2, then L1.
            self.misses += 1
            level = "miss"
            self._write_back(l2.insert(line), writebacks)
        victim = l1.insert(line, is_write)
        if victim is not None and victim.dirty:
            # A dirty L1 victim drains into L2 without refreshing its
            # recency there; a dirty line L2 must evict to take it in
            # continues toward memory.
            if l2.contains(victim.key):
                l2.mark_dirty(victim.key)
            else:
                self._write_back(l2.insert(victim.key, True), writebacks)
        return AccessResult(level, writebacks)

    def _write_back(self, eviction, writebacks: List[int]) -> None:
        if eviction is not None and eviction.dirty:
            writebacks.append(eviction.key)
            self.writebacks += 1

    def invalidate_page(
        self, page_number: int, lines: int = (1 << LINES_PER_PAGE) - 1
    ) -> List[int]:
        """Invalidate a page's lines; return the dirty lines dropped.

        ``lines`` is a 64-bit mask of the page's lines to probe (bit ``i``
        is line ``i``), all of them by default.  The tagless design calls
        this when a cache address is recycled, with the lines the page
        touched during its residency: no other line of it can be
        on-die.  Dirty lines are returned so the caller can merge them
        into the page's write-back (they are part of the page being
        evicted), in line order; a line dirty in both levels is listed
        twice.

        Each probe is one ``pop`` on the set dict: the removal
        :meth:`SetAssociativeCache.invalidate` performs, without the call
        and the :class:`Eviction` it allocates.
        """
        dirty: List[int] = []
        l1_entries = self._l1_entries
        l2_entries = self._l2_entries
        l1_sets = len(l1_entries)
        l2_sets = len(l2_entries)
        first = page_number * LINES_PER_PAGE
        while lines:
            # Lowest set bit first, so the dirty list keeps line order.
            low = lines & -lines
            lines ^= low
            line = first + low.bit_length() - 1
            # ``False`` for an absent line and a clean one alike.
            if l1_entries[line % l1_sets].pop(line, False):
                dirty.append(line)
            if l2_entries[line % l2_sets].pop(line, False):
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
