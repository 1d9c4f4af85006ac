"""Slow-but-obvious reference model of the set-associative LRU cache.

``repro.sram.set_assoc`` fuses residency and recency into one
insertion-ordered dict per set.  This module re-implements the same
semantics the straightforward way -- an explicit per-set recency list
beside a dirty map -- and replays randomized operation traces through
both, comparing hits, victims, dirty write-backs and full structure
state.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.sram.set_assoc import SetAssociativeCache
from repro.validate.invariants import InvariantViolation


class _ReferenceSet:
    """One set: ``order`` is recency order, front = next victim."""

    def __init__(self, ways: int):
        self.ways = ways
        self.order: List[int] = []
        self.dirty: Dict[int, bool] = {}

    def _touch(self, key: int) -> None:
        self.order.remove(key)
        self.order.append(key)

    def lookup(self, key: int, is_write: bool) -> bool:
        if key not in self.dirty:
            return False
        self._touch(key)
        if is_write:
            self.dirty[key] = True
        return True

    def insert(self, key: int, dirty: bool) -> Optional[Tuple[int, bool]]:
        """Returns the (victim, victim_dirty) eviction, if any."""
        if key in self.dirty:
            self._touch(key)
            self.dirty[key] = self.dirty[key] or dirty
            return None
        evicted = None
        if len(self.dirty) >= self.ways:
            victim = self.order.pop(0)
            evicted = (victim, self.dirty.pop(victim))
        self.order.append(key)
        self.dirty[key] = dirty
        return evicted

    def invalidate(self, key: int) -> Optional[Tuple[int, bool]]:
        if key not in self.dirty:
            return None
        self.order.remove(key)
        return (key, self.dirty.pop(key))

    def mark_dirty(self, key: int) -> None:
        if key in self.dirty:
            self.dirty[key] = True


class ReferenceSetAssociativeCache:
    """Eager, list-based twin of :class:`SetAssociativeCache`."""

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = num_sets
        self.ways = ways
        self._sets = [_ReferenceSet(ways) for _ in range(num_sets)]

    def _set_for(self, key: int) -> _ReferenceSet:
        return self._sets[key % self.num_sets]

    def lookup(self, key: int, is_write: bool = False) -> bool:
        return self._set_for(key).lookup(key, is_write)

    def contains(self, key: int) -> bool:
        return key in self._set_for(key).dirty

    def insert(self, key: int, dirty: bool = False):
        return self._set_for(key).insert(key, dirty)

    def invalidate(self, key: int):
        return self._set_for(key).invalidate(key)

    def mark_dirty(self, key: int) -> None:
        self._set_for(key).mark_dirty(key)


def _compare_state(fast: SetAssociativeCache,
                   reference: ReferenceSetAssociativeCache,
                   op_index: int) -> None:
    """Each set's dict order must be the reference's recency order."""
    for index in range(fast.num_sets):
        entries = fast._sets[index].entries
        ref_set = reference._sets[index]
        if list(entries) != ref_set.order:
            raise InvariantViolation(
                f"op {op_index}, set {index}: replacement order diverged -- "
                f"optimized {list(entries)} vs reference {ref_set.order}"
            )
        if entries != ref_set.dirty:
            raise InvariantViolation(
                f"op {op_index}, set {index}: dirty bits diverged -- "
                f"optimized {dict(entries)} vs reference {ref_set.dirty}"
            )


def run_reference_differential(num_sets: int = 4, ways: int = 8,
                               operations: int = 20_000, seed: int = 0,
                               state_check_every: int = 64,
                               fast: Optional[SetAssociativeCache] = None,
                               ) -> dict:
    """Drive both implementations with one randomized op trace.

    Raises :class:`InvariantViolation` at the first divergence; returns a
    small summary dict on success.  ``fast`` lets mutation tests pass in
    a structure they intend to corrupt mid-run.
    """
    if fast is None:
        fast = SetAssociativeCache(num_sets, ways)
    reference = ReferenceSetAssociativeCache(num_sets, ways)
    rng = random.Random(seed)
    # Key space ~2x capacity so sets stay full and evictions are common.
    key_space = max(2 * num_sets * ways, 16)
    counts = {"lookup": 0, "insert": 0, "invalidate": 0, "mark_dirty": 0}

    for op_index in range(operations):
        key = rng.randrange(key_space)
        roll = rng.random()
        if roll < 0.55:  # demand access: lookup, insert on miss
            counts["lookup"] += 1
            is_write = rng.random() < 0.3
            hit_fast = fast.lookup(key, is_write)
            hit_ref = reference.lookup(key, is_write)
            if hit_fast != hit_ref:
                raise InvariantViolation(
                    f"op {op_index}: lookup({key}) hit mismatch -- "
                    f"optimized {hit_fast} vs reference {hit_ref}"
                )
            if not hit_fast:
                counts["insert"] += 1
                ev_fast = fast.insert(key, dirty=is_write)
                ev_ref = reference.insert(key, is_write)
                _compare_evictions(ev_fast, ev_ref, key, op_index)
        elif roll < 0.75:  # prefetch-style direct insert
            counts["insert"] += 1
            dirty = rng.random() < 0.3
            ev_fast = fast.insert(key, dirty=dirty)
            ev_ref = reference.insert(key, dirty)
            _compare_evictions(ev_fast, ev_ref, key, op_index)
        elif roll < 0.9:  # invalidate (shootdown)
            counts["invalidate"] += 1
            ev_fast = fast.invalidate(key)
            ev_ref = reference.invalidate(key)
            _compare_evictions(ev_fast, ev_ref, key, op_index)
        else:  # background dirty-bit update
            counts["mark_dirty"] += 1
            fast.mark_dirty(key)
            reference.mark_dirty(key)
        if (op_index + 1) % state_check_every == 0:
            _compare_state(fast, reference, op_index)

    _compare_state(fast, reference, operations)
    counts["operations"] = operations
    return counts


def _compare_evictions(ev_fast, ev_ref, key: int, op_index: int) -> None:
    fast_pair = (ev_fast.key, ev_fast.dirty) if ev_fast is not None else None
    if fast_pair != ev_ref:
        raise InvariantViolation(
            f"op {op_index}: insert/invalidate({key}) eviction mismatch -- "
            f"optimized {fast_pair} vs reference {ev_ref}"
        )
