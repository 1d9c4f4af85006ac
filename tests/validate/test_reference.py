"""Reference-model differential tests, including mutation kills."""

import pytest

from repro.sram.set_assoc import SetAssociativeCache
from repro.validate.invariants import InvariantViolation
from repro.validate.reference import (
    ReferenceSetAssociativeCache,
    _compare_state,
    run_reference_differential,
)


def test_optimized_matches_reference():
    counts = run_reference_differential(operations=5_000)
    assert counts["operations"] == 5_000
    # The op mix must actually exercise every path.
    for op in ("lookup", "insert", "invalidate", "mark_dirty"):
        assert counts[op] > 0


def test_differential_is_seed_deterministic():
    a = run_reference_differential(operations=2_000, seed=3)
    b = run_reference_differential(operations=2_000, seed=3)
    assert a == b


def test_catches_preexisting_divergence():
    # A fast structure that already holds a line the reference has never
    # seen.  The key sits outside the differential's key space, so the
    # trace cannot re-insert it and silently heal the divergence: the
    # first state sweep (or an eviction mismatch) must flag it.
    fast = SetAssociativeCache(4, 8)
    fast.insert(64)
    with pytest.raises(InvariantViolation):
        run_reference_differential(operations=500, state_check_every=16,
                                   fast=fast)


def test_catches_corrupted_recency_order():
    """Same residents, wrong victim order -- the classic fused-dict bug."""
    fast = SetAssociativeCache(4, 8)
    reference = ReferenceSetAssociativeCache(4, 8)
    for key in (0, 4, 8):  # all land in set 0
        fast.insert(key)
        reference.insert(key, False)
    _compare_state(fast, reference, 0)  # in sync before the corruption
    cache_set = fast._sets[0]
    reversed_entries = dict(reversed(list(cache_set.entries.items())))
    cache_set.entries.clear()
    cache_set.entries.update(reversed_entries)
    with pytest.raises(InvariantViolation, match="order diverged"):
        _compare_state(fast, reference, 1)


def test_catches_corrupted_dirty_bit():
    fast = SetAssociativeCache(4, 8)
    reference = ReferenceSetAssociativeCache(4, 8)
    fast.insert(0)
    reference.insert(0, False)
    fast.mark_dirty(0)  # reference not told
    with pytest.raises(InvariantViolation, match="dirty bits diverged"):
        _compare_state(fast, reference, 1)
