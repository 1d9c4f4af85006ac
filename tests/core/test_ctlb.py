"""cTLB semantic wrapper tests (probes read through ``ctlb.hierarchy``)."""

import pytest

from repro.core.ctlb import CacheMapTLB
from repro.vm.page_table import PageTableEntry
from repro.vm.tlb import TLBHierarchy


@pytest.fixture
def ctlb():
    return CacheMapTLB(TLBHierarchy(2, 4))


def test_cache_mapping_returns_cache_page(ctlb):
    ctlb.install_cache_mapping(virtual_page=5, cache_page=17)
    level, entry = ctlb.hierarchy.lookup(5)
    assert level == "l1"
    assert entry.target_page == 17
    assert not entry.non_cacheable


def test_noncacheable_mapping_returns_physical_page(ctlb):
    pte = PageTableEntry(virtual_page=6, physical_page=900,
                         non_cacheable=True)
    ctlb.install_noncacheable(pte)
    __, entry = ctlb.hierarchy.lookup(6)
    assert entry.target_page == 900
    assert entry.non_cacheable


def test_miss_returns_none(ctlb):
    level, entry = ctlb.hierarchy.lookup(99)
    assert level == "miss" and entry is None


def test_shootdown(ctlb):
    ctlb.install_cache_mapping(1, 2)
    assert ctlb.shootdown(1)
    level, __ = ctlb.hierarchy.lookup(1)
    assert level == "miss"
    assert not ctlb.shootdown(1)


def test_resident_and_peek(ctlb):
    ctlb.install_cache_mapping(1, 2)
    assert ctlb.hierarchy.l2.contains(1)
    assert ctlb.hierarchy.l2.peek(1).target_page == 2
    assert ctlb.hierarchy.l2.peek(42) is None


def test_miss_rate_delegation(ctlb):
    ctlb.hierarchy.lookup(1)
    ctlb.install_cache_mapping(1, 2)
    ctlb.hierarchy.lookup(1)
    h = ctlb.hierarchy
    accesses = h.l1_hits + h.l2_hits + h.misses
    assert accesses == 2
    assert h.misses / accesses == pytest.approx(0.5)
