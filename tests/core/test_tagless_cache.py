"""Tagless cache engine tests: fills, evictions, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CoreConfig, DRAMCacheConfig, default_system
from repro.common.errors import SimulationError
from repro.core.tagless_cache import TaglessCacheEngine
from repro.dram.device import DRAMDevice
from repro.vm.page_table import PageTable, PhysicalFrameAllocator


def make_engine(capacity_pages=8, replacement="fifo", alpha=1,
                num_cores=2):
    cfg = default_system()
    in_pkg = DRAMDevice(cfg.in_package, cfg.in_package_energy)
    off_pkg = DRAMDevice(cfg.off_package, cfg.off_package_energy)
    evicted = []
    engine = TaglessCacheEngine(
        capacity_pages=capacity_pages,
        cache_config=DRAMCacheConfig(replacement=replacement, alpha=alpha),
        core_config=CoreConfig(),
        num_cores=num_cores,
        in_package=in_pkg,
        off_package=off_pkg,
        gipt_base_page=10_000,
        on_page_evicted=lambda ca, cores, lines: evicted.append(ca),
    )
    return engine, evicted


def touch(engine, ca, is_write, line_index=0, core_id=0):
    """The engine-side bookkeeping of a cached access reaching L3."""
    engine.victims.on_touch(ca)
    entry = engine.gipt.require(ca)
    entry.touched_mask |= 1 << line_index
    entry.touched_cores |= 1 << core_id
    if is_write:
        entry.dirty = True


@pytest.fixture
def table():
    return PageTable(PhysicalFrameAllocator(5000))


def test_fill_installs_state(table):
    engine, __ = make_engine()
    pte = table.entry(1)
    ca, latency = engine.allocate_and_fill(0.0, pte, core_id=0)
    assert latency > 0
    assert pte.valid_in_cache and pte.cache_page == ca
    assert engine.gipt.require(ca).physical_page == pte.physical_page
    assert engine.gipt.is_resident(ca)  # protected for the filling core
    engine.check_invariants()


def test_fill_charges_page_read_and_gipt_writes(table):
    engine, __ = make_engine()
    engine.allocate_and_fill(0.0, table.entry(1), core_id=0)
    assert engine.off_package.energy.read_bytes == 4096
    assert engine.off_package.energy.write_bytes == 2 * 64  # GIPT
    assert engine.in_package.energy.write_bytes == 4096  # lay-in


def test_eviction_starts_when_free_falls_below_alpha(table):
    engine, evicted = make_engine(capacity_pages=4, alpha=2)
    ptes = [table.entry(i) for i in range(4)]
    for core, pte in enumerate(ptes[:3]):
        ca, __ = engine.allocate_and_fill(0.0, pte, core_id=0)
        # Release residence so pages become evictable.
        engine.gipt.clear_resident(ca, 0)
    # 3 filled, 1 free < alpha=2: one eviction must have run.
    assert engine.free_queue.free_blocks >= engine.cache_config.alpha
    assert evicted, "on_page_evicted callback must fire"
    engine.check_invariants()


def test_fifo_evicts_oldest_unprotected(table):
    engine, evicted = make_engine(capacity_pages=3, alpha=1)
    cas = []
    for i in range(3):
        ca, __ = engine.allocate_and_fill(0.0, table.entry(i), core_id=0)
        engine.gipt.clear_resident(ca, 0)
        cas.append(ca)
    assert evicted[0] == cas[0]
    # The evicted page's PTE reverted to its physical address.
    assert not table.entry(0).valid_in_cache
    engine.check_invariants()


def test_resident_page_never_evicted(table):
    engine, evicted = make_engine(capacity_pages=3, alpha=1)
    first_ca, __ = engine.allocate_and_fill(0.0, table.entry(0), core_id=0)
    # Keep page 0 TLB-resident; fill more pages, releasing their bits.
    for i in range(1, 3):
        ca, __ = engine.allocate_and_fill(0.0, table.entry(i), core_id=1)
        engine.gipt.clear_resident(ca, 1)
    assert first_ca not in evicted
    assert table.entry(0).valid_in_cache
    engine.check_invariants()


def test_dirty_eviction_writes_back(table):
    engine, __ = make_engine(capacity_pages=2, alpha=1)
    ca, __ = engine.allocate_and_fill(0.0, table.entry(0), core_id=0)
    touch(engine, ca, is_write=True)
    engine.gipt.clear_resident(ca, 0)
    before = engine.off_package.energy.write_bytes
    ca2, __ = engine.allocate_and_fill(0.0, table.entry(1), core_id=0)
    assert engine.writebacks == 1
    # A full page went home plus the new fill's GIPT writes.
    assert engine.off_package.energy.write_bytes >= before + 4096


def test_eviction_hands_the_entrys_touched_masks_to_the_callback(table):
    engine, __ = make_engine(capacity_pages=2, alpha=1)
    calls = []
    engine.on_page_evicted = lambda *args: calls.append(args)
    ca, __ = engine.allocate_and_fill(0.0, table.entry(0), core_id=0)
    touch(engine, ca, is_write=False, line_index=3, core_id=1)
    touch(engine, ca, is_write=False, line_index=9, core_id=1)
    engine.gipt.clear_resident(ca, 0)
    engine.allocate_and_fill(0.0, table.entry(1), core_id=0)
    assert calls == [(ca, 0b10, (1 << 3) | (1 << 9))]


def test_clean_eviction_skips_writeback(table):
    engine, __ = make_engine(capacity_pages=2, alpha=1)
    ca, __ = engine.allocate_and_fill(0.0, table.entry(0), core_id=0)
    touch(engine, ca, is_write=False)
    engine.gipt.clear_resident(ca, 0)
    engine.allocate_and_fill(0.0, table.entry(1), core_id=0)
    assert engine.writebacks == 0


def test_all_protected_records_alpha_deficit(table):
    engine, __ = make_engine(capacity_pages=2, alpha=1)
    engine.allocate_and_fill(0.0, table.entry(0), core_id=0)
    engine.allocate_and_fill(0.0, table.entry(1), core_id=0)
    # Both pages resident: nothing evictable.
    assert engine.alpha_deficits >= 1
    engine.check_invariants()


def test_gipt_page_mapping_is_dense(table):
    engine, __ = make_engine(capacity_pages=8)
    assert engine.gipt_page_of(0) == 10_000
    # 16-byte entries: 256 per 4 KB page.
    assert engine.gipt_page_of(255) == 10_000
    assert engine.gipt_page_of(256) == 10_001


def test_stats_and_reset(table):
    engine, __ = make_engine()
    engine.allocate_and_fill(0.0, table.entry(0), core_id=0)
    stats = engine.stats("e_")
    assert stats["e_fills"] == 1.0
    assert stats["e_occupancy"] == pytest.approx(1 / 8)
    engine.reset_stats()
    assert engine.fills == 0
    assert len(engine.gipt) == 1  # contents stay warm
    engine.check_invariants()


def test_zero_capacity_rejected():
    with pytest.raises(SimulationError):
        make_engine(capacity_pages=0)


@settings(max_examples=25, deadline=None)
@given(
    vpns=st.lists(st.integers(0, 30), min_size=1, max_size=120),
    replacement=st.sampled_from(["fifo", "lru"]),
)
def test_engine_invariants_under_random_workload(vpns, replacement):
    """Property: after any fill/touch/release sequence,

    - block accounting (live + free + pending == capacity) holds;
    - every GIPT entry agrees with its PTE;
    - a VC=1 PTE always points at a live GIPT entry.
    """
    engine, __ = make_engine(capacity_pages=8, replacement=replacement)
    table = PageTable(PhysicalFrameAllocator(5000))
    resident_cas = []
    for i, vpn in enumerate(vpns):
        pte = table.entry(vpn)
        if pte.valid_in_cache:
            engine.note_victim_hit(pte.cache_page)
            touch(engine, pte.cache_page, is_write=(i % 3 == 0))
        else:
            ca, __ = engine.allocate_and_fill(float(i), pte, core_id=0)
            resident_cas.append(ca)
            # Model a tiny TLB: only the two most recent fills stay
            # protected.
            while len(resident_cas) > 2:
                old = resident_cas.pop(0)
                engine.gipt.clear_resident(old, 0)
        engine.check_invariants()
        for page_vpn in range(31):
            entry = table.existing_entry(page_vpn)
            if entry is not None and entry.valid_in_cache:
                assert entry.cache_page in engine.gipt
