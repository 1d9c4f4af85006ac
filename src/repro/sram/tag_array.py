"""SRAM tag array for the page-based SRAM-tag baseline (Figure 1).

The baseline DRAM cache keeps a 16-way set-associative tag store on die:
each entry maps a physical page number to a (set, way) slot of the
in-package DRAM, i.e. to a cache page number.  Every L3 access -- hit or
miss -- pays the tag-probe latency of Table 6, and the array's SRAM burns
both dynamic probe energy and leakage, which is precisely the overhead the
tagless design eliminates.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.common.config import SRAMTagConfig
from repro.common.errors import SimulationError
from repro.common.stats import Counters


@dataclasses.dataclass
class TagEviction:
    """A page displaced from the SRAM-tag cache."""

    physical_page: int
    cache_page: int
    dirty: bool


class _TagSet:
    """One set: ``mapping`` maps physical page -> way, LRU first."""

    __slots__ = ("mapping", "free_ways")

    def __init__(self, ways: int):
        self.mapping: Dict[int, int] = {}
        self.free_ways: List[int] = list(range(ways - 1, -1, -1))


class SRAMTagArray(Counters):
    """Physical-page -> cache-page translation with LRU replacement.

    Each set's ``mapping`` dict is also its recency order: a touch pops
    and reinserts the page, and the first key is the LRU victim.
    """

    COUNTERS = ("probes", "hits")

    def __init__(self, capacity_pages: int, config: SRAMTagConfig):
        ways = config.associativity
        if capacity_pages < ways:
            ways = max(1, capacity_pages)
        if capacity_pages % ways:
            raise ValueError(
                f"capacity_pages={capacity_pages} not divisible by "
                f"associativity={ways}"
            )
        self.config = config
        self.capacity_pages = capacity_pages
        self.ways = ways
        self.num_sets = capacity_pages // ways
        self._sets = [_TagSet(ways) for _ in range(self.num_sets)]
        self._dirty: Dict[int, bool] = {}  # cache page -> dirty
        self.probes = 0
        self.hits = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _set_index(self, physical_page: int) -> int:
        return physical_page % self.num_sets

    def _cache_page(self, set_index: int, way: int) -> int:
        return set_index * self.ways + way

    # ------------------------------------------------------------------
    # Operations (each public call models one tag-array probe)
    # ------------------------------------------------------------------
    def lookup(self, physical_page: int, is_write: bool = False) -> Optional[int]:
        """Probe the tags; return the cache page on a hit, else None."""
        self.probes += 1
        set_index = self._set_index(physical_page)
        mapping = self._sets[set_index].mapping
        way = mapping.pop(physical_page, None)
        if way is None:
            return None
        self.hits += 1
        mapping[physical_page] = way
        cache_page = self._cache_page(set_index, way)
        if is_write:
            self._dirty[cache_page] = True
        return cache_page

    def insert(self, physical_page: int, dirty: bool = False):
        """Allocate a slot for ``physical_page``.

        Returns ``(cache_page, eviction_or_None)``.  The caller fills the
        returned cache page and writes back the eviction if dirty.
        """
        set_index = self._set_index(physical_page)
        tag_set = self._sets[set_index]
        mapping = tag_set.mapping
        if physical_page in mapping:
            way = mapping.pop(physical_page)
            mapping[physical_page] = way
            cache_page = self._cache_page(set_index, way)
            if dirty:
                self._dirty[cache_page] = True
            return cache_page, None

        eviction = None
        if tag_set.free_ways:
            way = tag_set.free_ways.pop()
        else:
            victim = next(iter(mapping))
            way = mapping.pop(victim)
            victim_cache_page = self._cache_page(set_index, way)
            eviction = TagEviction(
                physical_page=victim,
                cache_page=victim_cache_page,
                dirty=self._dirty.pop(victim_cache_page, False),
            )
        mapping[physical_page] = way
        cache_page = self._cache_page(set_index, way)
        self._dirty[cache_page] = dirty
        return cache_page, eviction

    def contains(self, physical_page: int) -> bool:
        """Residency check without modelling a probe."""
        tag_set = self._sets[self._set_index(physical_page)]
        return physical_page in tag_set.mapping

    # ------------------------------------------------------------------
    # Cost model (Table 6)
    # ------------------------------------------------------------------
    @property
    def access_cycles(self) -> int:
        """Tag-probe latency, on the critical path of every L3 access."""
        return self.config.access_cycles

    @property
    def probe_nj(self) -> float:
        """Dynamic energy of one probe."""
        return self.config.probe_nj

    @property
    def leakage_watts(self) -> float:
        return self.config.leakage_watts

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Validate tag-store structure (read-only; ``repro.validate``)."""
        allocated = set()
        for index, tag_set in enumerate(self._sets):
            ways_used = set(tag_set.mapping.values())
            if len(ways_used) != len(tag_set.mapping):
                raise SimulationError(
                    f"tag set {index}: two pages share one way"
                )
            free = set(tag_set.free_ways)
            if ways_used & free:
                raise SimulationError(
                    f"tag set {index}: ways {ways_used & free} are both "
                    "mapped and free"
                )
            if len(ways_used) + len(free) != self.ways:
                raise SimulationError(
                    f"tag set {index}: {len(ways_used)} mapped + "
                    f"{len(free)} free ways != associativity {self.ways}"
                )
            for way in ways_used | free:
                if not (0 <= way < self.ways):
                    raise SimulationError(
                        f"tag set {index}: way {way} out of range"
                    )
            for page in tag_set.mapping:
                if page % self.num_sets != index:
                    raise SimulationError(
                        f"tag set {index}: PPN {page} belongs in set "
                        f"{page % self.num_sets}"
                    )
            allocated.update(
                self._cache_page(index, way) for way in ways_used
            )
        stray = set(self._dirty) - allocated
        if stray:
            raise SimulationError(
                f"dirty bits for unallocated cache pages {sorted(stray)}"
            )

    def __len__(self) -> int:
        return sum(len(s.mapping) for s in self._sets)

    def stats(self, prefix: str = "") -> dict:
        out = super().stats(prefix)
        out[f"{prefix}resident_pages"] = float(len(self))
        out[f"{prefix}probe_energy_nj"] = self.probes * self.probe_nj
        return out
