"""cTLB miss handler tests -- the Figure 4 flow chart."""

import pytest

from repro.common.config import CoreConfig, DRAMCacheConfig, TLBConfig, default_system
from repro.core.ctlb import CacheMapTLB
from repro.core.miss_handler import CTLBMissHandler, MissOutcome
from repro.core.tagless_cache import TaglessCacheEngine
from repro.dram.device import DRAMDevice
from repro.vm.page_table import PageTable, PhysicalFrameAllocator
from repro.vm.tlb import TLBHierarchy
from repro.vm.walker import PageTableWalker


def make_handler(capacity_pages=8, num_cores=2):
    cfg = default_system()
    engine = TaglessCacheEngine(
        capacity_pages=capacity_pages,
        cache_config=DRAMCacheConfig(),
        core_config=CoreConfig(),
        num_cores=num_cores,
        in_package=DRAMDevice(cfg.in_package, cfg.in_package_energy),
        off_package=DRAMDevice(cfg.off_package, cfg.off_package_energy),
        gipt_base_page=10_000,
    )
    handlers = []
    for core_id in range(num_cores):
        ctlb = CacheMapTLB(TLBHierarchy(2, 4))
        handlers.append(
            CTLBMissHandler(
                core_id=core_id,
                ctlb=ctlb,
                engine=engine,
                walker=PageTableWalker(TLBConfig(walk_cycles=60)),
                core_config=CoreConfig(),
            )
        )
    return engine, handlers


@pytest.fixture
def table():
    return PageTable(PhysicalFrameAllocator(5000))


def test_first_touch_fills(table):
    engine, (h, __) = make_handler()
    cycles, outcome = h.handle(table, 7, now_ns=0.0)
    assert outcome is MissOutcome.FILL
    assert cycles > 60  # walk + fill + GIPT
    assert engine.fills == 1
    # The cTLB now maps the page to its cache address.
    __, entry = h.ctlb.hierarchy.lookup(7)
    assert entry.target_page == table.entry(7).cache_page


def test_cached_page_is_victim_hit(table):
    engine, (h0, h1) = make_handler()
    h0.handle(table, 7, 0.0)
    cycles, outcome = h1.handle(table, 7, 1000.0)
    assert outcome is MissOutcome.VICTIM_HIT
    assert cycles == pytest.approx(60.0)  # walk only (Table 1, row 3)
    assert engine.victim_hits == 1
    assert engine.fills == 1  # no duplicate fill


def test_noncacheable_page_gets_physical_mapping(table):
    engine, (h, __) = make_handler()
    table.set_non_cacheable(3)
    cycles, outcome = h.handle(table, 3, 0.0)
    assert outcome is MissOutcome.NON_CACHEABLE
    assert engine.fills == 0
    __, entry = h.ctlb.hierarchy.lookup(3)
    assert entry.non_cacheable
    assert entry.target_page == table.entry(3).physical_page


def test_pu_wait_for_in_flight_fill(table):
    """A second core reaching the page before the first core's fill
    completes must stall until it does (the PU busy-wait)."""
    engine, (h0, h1) = make_handler()
    h0.handle(table, 7, now_ns=0.0)
    pending_until = table.entry(7).pending_until_ns
    assert pending_until > 0
    cycles, outcome = h1.handle(table, 7, now_ns=pending_until / 2)
    assert outcome is MissOutcome.PU_WAIT
    # Walk plus the remaining wait.
    expected_wait = (pending_until / 2) * CoreConfig().frequency_ghz
    assert cycles == pytest.approx(60.0 + expected_wait)


def test_no_pu_wait_after_completion(table):
    engine, (h0, h1) = make_handler()
    h0.handle(table, 7, now_ns=0.0)
    after = table.entry(7).pending_until_ns + 1.0
    __, outcome = h1.handle(table, 7, now_ns=after)
    assert outcome is MissOutcome.VICTIM_HIT


def test_residence_set_for_each_core(table):
    engine, (h0, h1) = make_handler()
    h0.handle(table, 7, 0.0)
    h1.handle(table, 7, 1000.0)
    ca = table.entry(7).cache_page
    assert engine.gipt.require(ca).residence_mask == 0b11


def test_fill_clears_pu_bit(table):
    __, (h, _h1) = make_handler()
    h.handle(table, 7, 0.0)
    assert not table.entry(7).pending_update


def test_outcome_stats(table):
    engine, (h, __) = make_handler()
    h.handle(table, 1, 0.0)
    table.set_non_cacheable(2)
    h.handle(table, 2, 0.0)
    stats = h.stats("h_")
    assert stats["h_fill"] == 1.0
    assert stats["h_non_cacheable"] == 1.0
    assert stats["h_cycles_total"] > 0
