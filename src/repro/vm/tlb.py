"""Two-level TLB hierarchy (Table 3: 32-entry L1, 512-entry L2 per core).

The same hardware serves as the conventional TLB in the baselines and as
the **cTLB** in the tagless design -- the paper stresses the organisation
is identical; only the meaning of the stored translation changes.  Each
entry therefore carries an opaque ``target_page`` (physical or cache page)
plus the NC bit the cTLB needs.

The hierarchy is inclusive (L1 subset of L2), so "resident in any TLB" --
the condition the GIPT's TLB-residence bit vector tracks -- reduces to
membership in the L2 TLB, and an L2 eviction is *the* event at which a
page leaves TLB reach.  Callers observe those events via the eviction
callback to maintain GIPT residence bits.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.common.stats import Counters

EvictionCallback = Callable[[int, "TLBEntry"], None]


@dataclasses.dataclass(slots=True)
class TLBEntry:
    """Payload of one TLB slot."""

    target_page: int
    non_cacheable: bool = False


class TLB(Counters):
    """A fully associative, LRU TLB level.

    Real L1 TLBs are fully associative and L2 TLBs highly associative;
    modelling both as fully associative LRU matches the paper's setup
    while keeping miss-rate behaviour faithful.

    Recency lives in the insertion order of a plain dict (guaranteed
    since Python 3.7): move-to-end is pop + reinsert, the LRU victim is
    the first key.  This is measurably faster than an ``OrderedDict``
    on the per-access hot path and semantically identical.
    """

    __slots__ = ("capacity", "_map", "hits", "misses")

    COUNTERS = ("hits", "misses")

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError("a TLB needs at least one entry")
        self.capacity = entries
        self._map: dict = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, virtual_page: int) -> Optional[TLBEntry]:
        _map = self._map
        entry = _map.get(virtual_page)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        _map[virtual_page] = _map.pop(virtual_page)
        return entry

    def insert(self, virtual_page: int, entry: TLBEntry):
        """Install a translation; returns the evicted (vpn, entry) or None."""
        _map = self._map
        evicted = None
        if virtual_page in _map:
            del _map[virtual_page]
        elif len(_map) >= self.capacity:
            victim = next(iter(_map))
            evicted = (victim, _map.pop(victim))
        _map[virtual_page] = entry
        return evicted

    def invalidate(self, virtual_page: int) -> Optional[TLBEntry]:
        """Drop one translation (TLB shootdown of a single VPN)."""
        return self._map.pop(virtual_page, None)

    def contains(self, virtual_page: int) -> bool:
        return virtual_page in self._map

    def peek(self, virtual_page: int) -> Optional[TLBEntry]:
        """Read an entry without touching LRU state or statistics."""
        return self._map.get(virtual_page)

    def flush(self) -> int:
        """Drop everything (full shootdown); returns entries dropped."""
        count = len(self._map)
        self._map.clear()
        return count

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self):
        return iter(self._map)


class TLBHierarchy(Counters):
    """Inclusive L1+L2 TLB pair for one core.

    :meth:`lookup` is the translation probe of
    ``MemorySystemDesign.access_cycles``; :meth:`install` is the refill
    after a walk.  The fused kernel (:mod:`repro.cpu.batched`) inlines
    both on the ``_map`` dicts, and the kernel-vs-reference tests pin
    it to them.
    """

    __slots__ = ("l1", "l2", "on_l2_evict", "l1_hits", "l2_hits", "misses")

    COUNTERS = ("l1_hits", "l2_hits", "misses")

    def __init__(
        self,
        l1_entries: int,
        l2_entries: int,
        on_l2_evict: Optional[EvictionCallback] = None,
    ):
        if l2_entries < l1_entries:
            raise ValueError("inclusive hierarchy requires l2 >= l1 entries")
        self.l1 = TLB(l1_entries)
        self.l2 = TLB(l2_entries)
        self.on_l2_evict = on_l2_evict
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0

    def lookup(self, virtual_page: int):
        """Probe L1 then L2.

        Returns ``(level, entry)`` where level is "l1", "l2" or "miss".
        An L2 hit is promoted into L1 (the dropped L1 victim remains in
        L2, preserving inclusion).
        """
        entry = self.l1.lookup(virtual_page)
        if entry is not None:
            self.l1_hits += 1
            # Keep L2's LRU in step with actual use so that the pages
            # protected from eviction are the genuinely hot ones.
            l2_map = self.l2._map
            if virtual_page in l2_map:
                l2_map[virtual_page] = l2_map.pop(virtual_page)
            return "l1", entry
        entry = self.l2.lookup(virtual_page)
        if entry is not None:
            self.l2_hits += 1
            self.l1.insert(virtual_page, entry)
            return "l2", entry
        self.misses += 1
        return "miss", None

    def install(self, virtual_page: int, entry: TLBEntry) -> None:
        """Install a fresh translation after a walk (into L2 then L1).

        Runs once per TLB miss, so both :meth:`TLB.insert` bodies are
        inlined (same operations in the same order).
        """
        l1 = self.l1
        l2_map = self.l2._map
        evicted = None
        if virtual_page in l2_map:
            # Overwriting a live translation *replaces* its payload: the
            # old entry leaves TLB reach exactly like a capacity victim,
            # so the eviction callback must fire for it too -- otherwise
            # a cache-mapped payload would strand its GIPT residence bit
            # and block that page's eviction forever.
            replaced = l2_map.pop(virtual_page)
            if self.on_l2_evict is not None and replaced is not entry:
                self.on_l2_evict(virtual_page, replaced)
        elif len(l2_map) >= self.l2.capacity:
            victim = next(iter(l2_map))
            evicted = (victim, l2_map.pop(victim))
        l2_map[virtual_page] = entry
        if evicted is not None:
            evicted_vpn, evicted_entry = evicted
            # Inclusion: a page leaving L2 must leave L1 too.
            l1._map.pop(evicted_vpn, None)
            if self.on_l2_evict is not None:
                self.on_l2_evict(evicted_vpn, evicted_entry)
        l1_map = l1._map
        if virtual_page in l1_map:
            del l1_map[virtual_page]
        elif len(l1_map) >= l1.capacity:
            del l1_map[next(iter(l1_map))]
        l1_map[virtual_page] = entry

    def invalidate(self, virtual_page: int) -> bool:
        """Shoot down one translation from both levels.

        Returns True if the page was resident in L2 (i.e. within TLB
        reach).  Fires the eviction callback so residence bookkeeping
        stays consistent.
        """
        self.l1.invalidate(virtual_page)
        entry = self.l2.invalidate(virtual_page)
        if entry is None:
            return False
        if self.on_l2_evict is not None:
            self.on_l2_evict(virtual_page, entry)
        return True

    def flush(self) -> int:
        """Full shootdown of both levels (context switch without ASIDs).

        Unlike :meth:`TLB.flush`, which silently clears one level, this
        fires the eviction callback for every L2 entry: each translation
        leaves TLB reach, and residence bookkeeping (the GIPT bits in
        the tagless design) must observe that.  Returns the number of L2
        entries dropped.
        """
        l2_map = self.l2._map
        dropped = len(l2_map)
        if self.on_l2_evict is not None:
            for virtual_page, entry in list(l2_map.items()):
                self.on_l2_evict(virtual_page, entry)
        l2_map.clear()
        self.l1._map.clear()
        return dropped

    def reset_stats(self) -> None:
        """Zero hit/miss counters; translations stay resident."""
        super().reset_stats()
        self.l1.reset_stats()
        self.l2.reset_stats()
