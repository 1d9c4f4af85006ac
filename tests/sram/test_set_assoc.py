"""Set-associative cache tests, including a hypothesis residency model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sram.set_assoc import SetAssociativeCache


def test_miss_then_hit():
    cache = SetAssociativeCache(num_sets=4, ways=2)
    assert not cache.lookup(10)
    cache.insert(10)
    assert cache.lookup(10)
    assert cache.hits == 1
    assert cache.misses == 1


def test_capacity_and_eviction():
    cache = SetAssociativeCache(num_sets=1, ways=2)
    cache.insert(1)
    cache.insert(2)
    evicted = cache.insert(3)
    assert evicted is not None
    assert evicted.key == 1  # LRU
    assert len(cache) == 2


def test_eviction_reports_dirtiness():
    cache = SetAssociativeCache(num_sets=1, ways=1)
    cache.insert(1, dirty=True)
    evicted = cache.insert(2)
    assert evicted.key == 1 and evicted.dirty


def test_write_lookup_sets_dirty():
    cache = SetAssociativeCache(num_sets=1, ways=1)
    cache.insert(1)
    cache.lookup(1, is_write=True)
    evicted = cache.insert(2)
    assert evicted.dirty


def test_reinsert_merges_dirty_and_refreshes():
    cache = SetAssociativeCache(num_sets=1, ways=2)
    cache.insert(1, dirty=True)
    cache.insert(2)
    assert cache.insert(1, dirty=False) is None  # no duplicate eviction
    evicted = cache.insert(3)
    assert evicted.key == 2  # 1 was refreshed


def test_invalidate():
    cache = SetAssociativeCache(num_sets=2, ways=2)
    cache.insert(4, dirty=True)
    dropped = cache.invalidate(4)
    assert dropped.key == 4 and dropped.dirty
    assert cache.invalidate(4) is None
    assert not cache.contains(4)


def test_mark_dirty():
    cache = SetAssociativeCache(num_sets=1, ways=1)
    cache.insert(9)
    cache.mark_dirty(9)
    assert cache.invalidate(9).dirty


def test_keys_map_to_distinct_sets():
    cache = SetAssociativeCache(num_sets=4, ways=1)
    for key in range(4):
        cache.insert(key)
    assert len(cache) == 4  # no conflict evictions


def test_occupancy_and_hit_rate():
    cache = SetAssociativeCache(num_sets=2, ways=2)
    assert len(cache) == 0
    assert cache.hits == cache.misses == 0
    cache.insert(1)
    cache.lookup(1)
    cache.lookup(2)
    assert len(cache) / cache.capacity_blocks == pytest.approx(0.25)
    assert cache.hits / (cache.hits + cache.misses) == pytest.approx(0.5)


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        SetAssociativeCache(num_sets=0, ways=4)


@settings(max_examples=60)
@given(
    num_sets=st.sampled_from([1, 2, 4]),
    ways=st.sampled_from([1, 2, 4]),
    keys=st.lists(st.integers(0, 31), max_size=120),
)
def test_residency_invariants(num_sets, ways, keys):
    """Whatever the access pattern:

    - no set ever exceeds its way count;
    - an inserted key is resident until evicted/invalidated;
    - total occupancy never exceeds capacity.
    """
    cache = SetAssociativeCache(num_sets=num_sets, ways=ways)
    resident = set()
    for key in keys:
        evicted = cache.insert(key)
        resident.add(key)
        if evicted is not None:
            resident.discard(evicted.key)
        assert cache.contains(key)
        assert len(cache) <= cache.capacity_blocks
    assert set(cache) == resident
    for key in resident:
        assert len(cache._sets[key % cache.num_sets].entries) <= ways
