"""Tagless design end-to-end behaviour and its core invariants."""

import pytest

from repro.common.errors import SimulationError
from repro.designs import create_design


def touch_page(design, vpn, lines=4, now=0.0, write=False, core=0, proc=0):
    costs = []
    for line in range(lines):
        costs.append(design.access(core, proc, vpn, line, write, now))
        now += 50.0
    return costs


@pytest.fixture
def design(small_config):
    return create_design("tagless", small_config)


def test_tlb_hit_implies_cache_hit_and_no_off_package_traffic(design):
    touch_page(design, vpn=1, lines=8)
    # After the initial fill, every L3-bound access is in-package.
    fills_bytes = 4096
    assert design.off_package.energy.read_bytes <= fills_bytes + 64
    assert design.engine.fills == 1
    design.engine.check_invariants()


def test_second_page_touch_is_victim_hit_after_tlb_eviction(design,
                                                            small_config):
    tlb_entries = small_config.scaled_tlb.l2_entries
    touch_page(design, vpn=0, lines=2)
    # Push vpn 0 out of the TLB (but not out of the huge cache).
    for vpn in range(1, tlb_entries + 2):
        touch_page(design, vpn, lines=1, now=vpn * 1000.0)
    before = design.engine.fills
    touch_page(design, vpn=0, lines=1, now=10**7)
    assert design.engine.fills == before  # no refill
    assert design.engine.victim_hits >= 1


def test_no_tag_structures_exist(design):
    assert not hasattr(design, "tags")
    assert design.leakage_watts() == 0.0
    assert design.probe_energy_nj() == 0.0


def test_nc_page_bypasses_dram_cache(design):
    design.set_non_cacheable(0, 5)
    touch_page(design, vpn=5, lines=4)
    assert design.engine.fills == 0
    assert design.nc_accesses > 0
    # NC lines still live in the on-die caches (PA-tagged namespace).
    cost = design.access(0, 0, 5, 0, False, 10_000.0)
    assert cost.ondie_level in ("l1", "l2")


def test_nc_and_cached_lines_never_collide(design):
    """CA-space and PA-space keys must map to disjoint on-die lines even
    when the numeric page values coincide."""
    design.set_non_cacheable(0, 5)
    touch_page(design, vpn=5, lines=1)           # NC: PA-tagged
    touch_page(design, vpn=6, lines=1, now=500)  # cached: CA-tagged
    pa_line = design.tlbs[0].l1.peek(5).target_page * 64
    ca_line = design.tlbs[0].l1.peek(6).target_page * 64
    # Even if the raw page numbers matched, the namespaced keys differ.
    keys = {design._line_key(design.tlbs[0].l1.peek(5), 0),
            design._line_key(design.tlbs[0].l1.peek(6), 0)}
    assert len(keys) == 2


def test_eviction_invalidates_ondie_lines(design, small_config):
    capacity = small_config.cache_pages
    tlb_entries = small_config.scaled_tlb.l2_entries
    touch_page(design, vpn=0, lines=2)
    # Fill far past capacity so vpn 0 is evicted (it leaves the TLB
    # first, making it evictable).
    for vpn in range(1, capacity + tlb_entries + 4):
        touch_page(design, vpn, lines=1, now=vpn * 3000.0)
    assert not design.page_table(0).entry(0).valid_in_cache
    design.engine.check_invariants()
    # Re-touching refills at a (possibly) new cache address.
    before = design.engine.fills
    touch_page(design, vpn=0, lines=1, now=10**8)
    assert design.engine.fills == before + 1


def test_gipt_and_cache_never_diverge_under_pressure(design, small_config):
    for vpn in range(small_config.cache_pages * 3):
        touch_page(design, vpn, lines=2, now=vpn * 1000.0,
                   write=(vpn % 2 == 0))
        if vpn % 16 == 0:
            design.engine.check_invariants()
    design.engine.check_invariants()


def test_multithreaded_shared_page_single_fill(small_mp_config):
    design = create_design("tagless", small_mp_config)
    now = 0.0
    for core in range(4):
        touch_page(design, vpn=7, lines=2, now=now, core=core, proc=0)
        now += 10_000.0
    assert design.engine.fills == 1  # PU bit prevented duplicates
    ca = design.page_table(0).entry(7).cache_page
    assert design.engine.gipt.require(ca).residence_mask == 0b1111


def test_writeback_marks_gipt_dirty(design):
    touch_page(design, vpn=1, lines=2, write=True)
    ca = design.page_table(0).entry(1).cache_page
    # Force the dirty L1/L2 lines out by invalidating the page.
    gipt_entry = design.engine.gipt.require(ca)
    assert (gipt_entry.touched_cores, gipt_entry.touched_mask) == (1, 0b11)
    design._invalidate_ondie_page(  # drops them; dirt subsumed
        ca, gipt_entry.touched_cores, gipt_entry.touched_mask
    )
    assert not any(line // 64 == ca for level in (design.ondie[0].l1,
                                                  design.ondie[0].l2)
                   for line in level)
    # Direct path: dirty L2 victim routed through _writeback_line.
    line = ca * 64
    design._writeback_line(line, 0.0)
    assert design.engine.gipt.require(ca).dirty


def test_stats_expose_engine_and_handlers(design):
    touch_page(design, vpn=1)
    stats = design.stats()
    assert stats["engine_fills"] == 1.0
    assert stats["core0_handler_fill"] == 1.0
    assert stats["cache_accesses"] > 0
