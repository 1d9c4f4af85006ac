"""Generic set-associative cache keyed by an integer block identifier.

Used for the on-die L1 and L2 (keys are global 64 B line numbers) and --
with a page-sized "line" -- anywhere a set-associative page structure is
needed.  The cache tracks residency and dirtiness; timing and energy stay
with the caller, keeping this structure purely functional and easy to
property-test.

For the LRU and FIFO policies -- the ones on the per-access hot path --
residency and recency are **fused** into one insertion-ordered dict per
set (``key -> dirty``): Python dicts preserve insertion order, so
move-to-end is pop + reinsert and the victim is the first key.  That
replaces the former parallel ``OrderedDict`` policy object and its
double membership checks with a single dict operation per probe.  The
stateful CLOCK and random policies keep the policy-object path.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.stats import Counters
from repro.sram.replacement import make_policy


@dataclasses.dataclass
class Eviction:
    """A block pushed out of the cache: its key and whether it was dirty."""

    key: int
    dirty: bool


#: Policies whose ordering metadata is exactly "insertion order of the
#: residency dict" -- fused, no policy object.
_FUSED_POLICIES = ("lru", "fifo")


class _CacheSet:
    """One associativity set: residency map (+ policy object if any).

    ``entries`` maps key -> dirty in replacement order for the fused
    policies; ``policy`` is ``None`` then.  ``lru`` selects whether a
    touch refreshes the order (LRU) or leaves it alone (FIFO).
    """

    __slots__ = ("ways", "entries", "policy", "lru")

    def __init__(self, ways: int, policy_name: str, seed: int):
        self.ways = ways
        self.entries: dict = {}  # key -> dirty, in replacement order
        self.lru = policy_name == "lru"
        if policy_name in _FUSED_POLICIES:
            self.policy = None
        else:
            self.policy = make_policy(policy_name, seed=seed)


class SetAssociativeCache(Counters):
    """A write-back, write-allocate set-associative cache.

    Parameters
    ----------
    num_sets, ways:
        Geometry; ``num_sets * ways`` blocks total.  ``num_sets == 1``
        yields a fully associative structure.
    policy:
        Replacement policy name understood by
        :func:`repro.sram.replacement.make_policy`.
    """

    __slots__ = ("num_sets", "ways", "policy_name", "_sets", "hits",
                 "misses", "evicted_dirty")

    COUNTERS = ("hits", "misses")

    def __init__(self, num_sets: int, ways: int, policy: str = "lru"):
        if num_sets <= 0 or ways <= 0:
            raise ValueError(
                f"invalid cache geometry: num_sets={num_sets} ways={ways}"
            )
        if policy not in _FUSED_POLICIES:
            make_policy(policy, seed=0)  # validate the name eagerly
        self.num_sets = num_sets
        self.ways = ways
        self.policy_name = policy
        self._sets: List[_CacheSet] = [
            _CacheSet(ways, policy, seed=i) for i in range(num_sets)
        ]
        self.hits = 0
        self.misses = 0
        #: Dirtiness of the victim of the most recent insert_fast() that
        #: evicted one (hot-path side channel; see insert_fast).
        self.evicted_dirty = False

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.ways

    def _set_for(self, key: int) -> _CacheSet:
        return self._sets[key % self.num_sets]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def lookup(self, key: int, is_write: bool = False) -> bool:
        """Probe for ``key``; on a hit, update recency and dirtiness."""
        cache_set = self._sets[key % self.num_sets]
        entries = cache_set.entries
        if key in entries:
            self.hits += 1
            policy = cache_set.policy
            if policy is None:
                if cache_set.lru:
                    entries[key] = entries.pop(key) or is_write
                elif is_write:
                    entries[key] = True
            else:
                policy.on_access(key)
                if is_write:
                    entries[key] = True
            return True
        self.misses += 1
        return False

    def contains(self, key: int) -> bool:
        """Residency check with no statistics or recency side effects."""
        return key in self._sets[key % self.num_sets].entries

    def insert(self, key: int, dirty: bool = False) -> Optional[Eviction]:
        """Install ``key``, evicting a victim if the set is full.

        Returns the eviction (if any) so the caller can write back dirty
        data.  Inserting an already-resident key refreshes its recency and
        merges dirtiness instead of duplicating it.
        """
        victim = self.insert_fast(key, dirty)
        if victim is None:
            return None
        return Eviction(victim, self.evicted_dirty)

    def insert_fast(self, key: int, dirty: bool = False) -> Optional[int]:
        """Allocation-free :meth:`insert`: returns the victim key (or
        ``None``), with its dirtiness in :attr:`evicted_dirty`."""
        cache_set = self._sets[key % self.num_sets]
        entries = cache_set.entries
        policy = cache_set.policy
        if key in entries:
            if policy is None:
                if cache_set.lru:
                    entries[key] = entries.pop(key) or dirty
                else:
                    entries[key] = entries[key] or dirty
            else:
                policy.on_access(key)
                entries[key] = entries[key] or dirty
            return None
        victim = None
        if len(entries) >= cache_set.ways:
            if policy is None:
                victim = next(iter(entries))
                self.evicted_dirty = entries.pop(victim)
            else:
                victim = policy.victim()
                self.evicted_dirty = entries.pop(victim)
                policy.on_evict(victim)
        entries[key] = dirty
        if policy is not None:
            policy.on_insert(key)
        return victim

    def invalidate(self, key: int) -> Optional[Eviction]:
        """Drop ``key`` if resident, returning it (with dirtiness)."""
        cache_set = self._sets[key % self.num_sets]
        entries = cache_set.entries
        if key not in entries:
            return None
        dirty = entries.pop(key)
        if cache_set.policy is not None:
            cache_set.policy.on_evict(key)
        return Eviction(key, dirty)

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

    def occupancy(self) -> float:
        """Fraction of the cache currently valid."""
        return len(self) / self.capacity_blocks

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def set_of(self, key: int) -> Tuple[int, ...]:
        """Keys currently resident in ``key``'s set (testing aid)."""
        return tuple(self._sets[key % self.num_sets].entries)

    def check_consistency(self) -> None:
        """Validate per-set structure (read-only; ``repro.validate``).

        Every set must respect its associativity, hold only keys that
        map to it, and -- for the policy-object path -- keep the policy's
        key set identical to the residency dict's.
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
            policy = cache_set.policy
            if policy is not None and set(policy.keys()) != set(entries):
                raise SimulationError(
                    f"set {index}: replacement-policy keys "
                    f"{sorted(policy.keys())} != resident keys "
                    f"{sorted(entries)}"
                )
