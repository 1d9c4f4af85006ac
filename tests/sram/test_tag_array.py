"""SRAM tag array (the baseline's physical-to-cache translation)."""

import pytest
from hypothesis import given, strategies as st

from repro.common.addressing import BYTES_PER_GB
from repro.common.config import SRAMTagConfig
from repro.sram.tag_array import SRAMTagArray


@pytest.fixture
def tags():
    return SRAMTagArray(
        capacity_pages=64,
        config=SRAMTagConfig(cache_bytes=BYTES_PER_GB),
    )


def test_lookup_miss_then_insert_then_hit(tags):
    assert tags.lookup(100) is None
    cache_page, eviction = tags.insert(100)
    assert eviction is None
    assert tags.lookup(100) == cache_page


def test_cache_pages_unique_until_full(tags):
    seen = set()
    for ppn in range(64):
        cache_page, eviction = tags.insert(ppn)
        assert eviction is None
        assert cache_page not in seen
        seen.add(cache_page)
    assert len(tags) == 64
    assert seen == set(range(64))


def test_eviction_when_set_full(tags):
    ways = tags.ways
    num_sets = tags.num_sets
    # Fill one set completely, then overflow it.
    for i in range(ways):
        tags.insert(i * num_sets)
    __, eviction = tags.insert(ways * num_sets)
    assert eviction is not None
    assert eviction.physical_page == 0  # LRU victim


def test_lru_within_set(tags):
    num_sets = tags.num_sets
    for i in range(tags.ways):
        tags.insert(i * num_sets)
    tags.lookup(0)  # refresh page 0
    __, eviction = tags.insert(tags.ways * num_sets)
    assert eviction.physical_page == num_sets  # second-oldest now LRU


def test_dirty_tracking_through_eviction(tags):
    num_sets = tags.num_sets
    tags.insert(0, dirty=False)
    tags.lookup(0, is_write=True)  # dirties the page
    for i in range(1, tags.ways):
        tags.insert(i * num_sets)
    __, eviction = tags.insert(tags.ways * num_sets)
    assert eviction.physical_page == 0
    assert eviction.dirty


def test_reinsert_resident_page_keeps_slot(tags):
    cache_page, __ = tags.insert(42)
    again, eviction = tags.insert(42)
    assert again == cache_page
    assert eviction is None
    assert len(tags) == 1


def test_contains_does_not_count_probe(tags):
    tags.insert(7)
    probes = tags.probes
    assert tags.contains(7)
    assert tags.probes == probes


def test_cost_model_from_table6(tags):
    assert tags.access_cycles == 11  # 1 GB cache
    assert tags.probe_nj > 0
    assert tags.leakage_watts == pytest.approx(1.0)


def test_hit_rate_and_stats(tags):
    tags.insert(1)
    tags.lookup(1)
    tags.lookup(2)
    assert tags.hits / tags.probes == pytest.approx(0.5)
    stats = tags.stats("t_")
    assert stats["t_probes"] == 2.0
    assert stats["t_resident_pages"] == 1.0


def test_small_capacity_clamps_ways():
    tags = SRAMTagArray(
        capacity_pages=8,
        config=SRAMTagConfig(cache_bytes=BYTES_PER_GB, associativity=16),
    )
    assert tags.ways == 8


def test_indivisible_capacity_rejected():
    with pytest.raises(ValueError):
        SRAMTagArray(
            capacity_pages=65,
            config=SRAMTagConfig(cache_bytes=BYTES_PER_GB, associativity=2),
        )


@given(st.lists(st.tuples(st.sampled_from(["lookup", "insert"]),
                          st.integers(0, 15), st.booleans()), max_size=80))
def test_lru_matches_reference_model(ops):
    """Drive the tag array and a per-set list-based LRU model in
    lockstep: same hits, same victims, same dirty bits on eviction."""
    tags = SRAMTagArray(
        capacity_pages=8,
        config=SRAMTagConfig(cache_bytes=BYTES_PER_GB, associativity=4),
    )
    model = [[] for _ in range(tags.num_sets)]  # least-recent first
    dirty = set()
    for op, page, is_write in ops:
        order = model[page % tags.num_sets]
        if op == "lookup":
            hit = tags.lookup(page, is_write) is not None
            assert hit == (page in order)
            if not hit:
                continue
        else:
            __, eviction = tags.insert(page, dirty=is_write)
            if page not in order and len(order) == tags.ways:
                victim = order.pop(0)
                assert eviction.physical_page == victim
                assert eviction.dirty == (victim in dirty)
                dirty.discard(victim)
            else:
                assert eviction is None
        if page in order:
            order.remove(page)
        order.append(page)
        if is_write:
            dirty.add(page)
    for index, order in enumerate(model):
        assert list(tags._sets[index].mapping) == order
