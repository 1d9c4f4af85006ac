"""TLB and hierarchy tests, including the inclusion property test."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.vm.tlb import TLB, TLBEntry, TLBHierarchy


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(4)
        assert tlb.lookup(1) is None
        tlb.insert(1, TLBEntry(target_page=10))
        assert tlb.lookup(1).target_page == 10

    def test_lru_eviction(self):
        tlb = TLB(2)
        tlb.insert(1, TLBEntry(1))
        tlb.insert(2, TLBEntry(2))
        tlb.lookup(1)
        evicted = tlb.insert(3, TLBEntry(3))
        assert evicted[0] == 2

    def test_reinsert_no_eviction(self):
        tlb = TLB(2)
        tlb.insert(1, TLBEntry(1))
        tlb.insert(2, TLBEntry(2))
        assert tlb.insert(1, TLBEntry(11)) is None
        assert tlb.peek(1).target_page == 11

    def test_invalidate(self):
        tlb = TLB(2)
        tlb.insert(1, TLBEntry(1))
        assert tlb.invalidate(1).target_page == 1
        assert tlb.invalidate(1) is None

    def test_flush(self):
        tlb = TLB(4)
        for i in range(3):
            tlb.insert(i, TLBEntry(i))
        assert tlb.flush() == 3
        assert len(tlb) == 0

    def test_peek_no_side_effects(self):
        tlb = TLB(2)
        tlb.insert(1, TLBEntry(1))
        hits = tlb.hits
        tlb.peek(1)
        assert tlb.hits == hits

    def test_hit_rate(self):
        tlb = TLB(2)
        tlb.insert(1, TLBEntry(1))
        tlb.lookup(1)
        tlb.lookup(2)
        assert tlb.hits / (tlb.hits + tlb.misses) == pytest.approx(0.5)

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            TLB(0)


class TestTLBHierarchy:
    def make(self, l1=2, l2=4, record=None):
        def on_evict(vpn, entry):
            if record is not None:
                record.append(vpn)
        return TLBHierarchy(l1, l2, on_l2_evict=on_evict)

    def test_install_then_l1_hit(self):
        h = self.make()
        h.install(1, TLBEntry(10))
        level, entry = h.lookup(1)
        assert level == "l1"
        assert entry.target_page == 10

    def test_l2_hit_promotes(self):
        h = self.make(l1=1, l2=4)
        h.install(1, TLBEntry(1))
        h.install(2, TLBEntry(2))  # evicts 1 from the 1-entry L1
        level, __ = h.lookup(1)
        assert level == "l2"
        level, __ = h.lookup(1)
        assert level == "l1"  # promoted

    def test_miss_counts(self):
        h = self.make()
        level, entry = h.lookup(99)
        assert level == "miss" and entry is None
        assert h.misses == 1

    def test_l2_eviction_fires_callback_and_maintains_inclusion(self):
        evicted = []
        h = self.make(l1=2, l2=2, record=evicted)
        h.install(1, TLBEntry(1))
        h.install(2, TLBEntry(2))
        h.install(3, TLBEntry(3))
        assert evicted == [1]
        assert not h.l1.contains(1)  # inclusion: left L1 with L2

    def test_invalidate_fires_callback(self):
        evicted = []
        h = self.make(record=evicted)
        h.install(1, TLBEntry(1))
        assert h.invalidate(1)
        assert evicted == [1]
        assert not h.invalidate(1)

    def test_resident_tracks_l2(self):
        h = self.make(l1=1, l2=4)
        h.install(1, TLBEntry(1))
        h.install(2, TLBEntry(2))
        assert h.l2.contains(1)  # out of L1, still within TLB reach

    def test_l2_smaller_than_l1_rejected(self):
        with pytest.raises(ValueError):
            TLBHierarchy(4, 2)

    def test_reset_stats_keeps_translations(self):
        h = self.make()
        h.install(1, TLBEntry(1))
        h.lookup(1)
        h.reset_stats()
        assert h.l1_hits + h.l2_hits + h.misses == 0
        level, __ = h.lookup(1)
        assert level == "l1"


@settings(max_examples=50)
@given(st.lists(st.integers(0, 15), max_size=80))
def test_inclusion_invariant(vpns):
    """L1 contents are always a subset of L2 contents (inclusive pair).

    Residence bookkeeping (the GIPT bit vector) depends on this: a page
    is within TLB reach iff it is in the L2 TLB.
    """
    h = TLBHierarchy(2, 6)
    for vpn in vpns:
        level, entry = h.lookup(vpn)
        if level == "miss":
            h.install(vpn, TLBEntry(vpn + 1000))
        l1_keys = set(h.l1)
        l2_keys = set(h.l2)
        assert l1_keys <= l2_keys
        assert len(l1_keys) <= 2 and len(l2_keys) <= 6
