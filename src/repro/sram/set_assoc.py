"""Generic set-associative LRU cache keyed by an integer block identifier.

Used for the on-die L1 and L2 (keys are global 64 B line numbers).  The
cache tracks residency and dirtiness; timing and energy stay with the
caller, keeping this structure purely functional and easy to
property-test.

Residency and recency are **fused** into one insertion-ordered dict per
set (``key -> dirty``): Python dicts preserve insertion order, so
move-to-end is pop + reinsert and the LRU victim is the first key.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional

from repro.common.errors import SimulationError
from repro.common.stats import Counters


@dataclasses.dataclass
class Eviction:
    """A block pushed out of the cache: its key and whether it was dirty."""

    key: int
    dirty: bool


class _CacheSet:
    """One associativity set: ``entries`` maps key -> dirty, LRU first."""

    __slots__ = ("ways", "entries")

    def __init__(self, ways: int):
        self.ways = ways
        self.entries: dict = {}


class SetAssociativeCache(Counters):
    """A write-back, write-allocate, LRU set-associative cache.

    ``num_sets * ways`` blocks total; ``num_sets == 1`` yields a fully
    associative structure.
    """

    __slots__ = ("num_sets", "ways", "_sets", "hits", "misses")

    COUNTERS = ("hits", "misses")

    def __init__(self, num_sets: int, ways: int):
        if num_sets <= 0 or ways <= 0:
            raise ValueError(
                f"invalid cache geometry: num_sets={num_sets} ways={ways}"
            )
        self.num_sets = num_sets
        self.ways = ways
        self._sets: List[_CacheSet] = [
            _CacheSet(ways) for _ in range(num_sets)
        ]
        self.hits = 0
        self.misses = 0

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.ways

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def lookup(self, key: int, is_write: bool = False) -> bool:
        """Probe for ``key``; on a hit, update recency and dirtiness."""
        entries = self._sets[key % self.num_sets].entries
        if key in entries:
            self.hits += 1
            entries[key] = entries.pop(key) or is_write
            return True
        self.misses += 1
        return False

    def contains(self, key: int) -> bool:
        """Residency check with no statistics or recency side effects."""
        return key in self._sets[key % self.num_sets].entries

    def insert(self, key: int, dirty: bool = False) -> Optional[Eviction]:
        """Install ``key``, evicting the LRU block if the set is full.

        Returns the eviction (if any) so the caller can write back dirty
        data.  Inserting an already-resident key refreshes its recency and
        merges dirtiness instead of duplicating it.
        """
        cache_set = self._sets[key % self.num_sets]
        entries = cache_set.entries
        if key in entries:
            entries[key] = entries.pop(key) or dirty
            return None
        eviction = None
        if len(entries) >= cache_set.ways:
            victim = next(iter(entries))
            eviction = Eviction(victim, entries.pop(victim))
        entries[key] = dirty
        return eviction

    def invalidate(self, key: int) -> Optional[Eviction]:
        """Drop ``key`` if resident, returning it (with dirtiness)."""
        entries = self._sets[key % self.num_sets].entries
        if key not in entries:
            return None
        return Eviction(key, entries.pop(key))

    def mark_dirty(self, key: int) -> None:
        """Set the dirty bit of a resident key (no-op if absent).

        Deliberately does not refresh recency -- a background dirty-bit
        update is not a use of the line.
        """
        entries = self._sets[key % self.num_sets].entries
        if key in entries:
            entries[key] = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(s.entries) for s in self._sets)

    def __iter__(self) -> Iterator[int]:
        for cache_set in self._sets:
            yield from cache_set.entries

    def check_consistency(self) -> None:
        """Validate per-set structure (read-only; ``repro.validate``).

        Every set must respect its associativity and hold only keys that
        map to it.
        """
        for index, cache_set in enumerate(self._sets):
            entries = cache_set.entries
            if len(entries) > cache_set.ways:
                raise SimulationError(
                    f"set {index} holds {len(entries)} blocks but has "
                    f"only {cache_set.ways} ways"
                )
            for key in entries:
                if key % self.num_sets != index:
                    raise SimulationError(
                        f"key {key} indexed into set {index} of "
                        f"{self.num_sets} (belongs in {key % self.num_sets})"
                    )
