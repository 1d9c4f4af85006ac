"""Free queue / header pointer tests.

The header pointer (HP) is the head of the free pool: ``allocate``
hands it to a fill and ``free_pages()`` lists the pool from it.  The
eviction side is the pending queue: the engine's ``_maintain_alpha``
queues victims when a fill leaves fewer than alpha blocks free, and its
``_drain_evictions`` takes them oldest first and returns each block
with ``mark_free``.
"""

import pytest

from repro.common.config import CoreConfig, DRAMCacheConfig, default_system
from repro.common.errors import SimulationError
from repro.core.free_queue import FreeQueue
from repro.core.tagless_cache import TaglessCacheEngine
from repro.dram.device import DRAMDevice
from repro.vm.page_table import PageTable, PhysicalFrameAllocator


def _engine(capacity_pages, alpha):
    cfg = default_system()
    return TaglessCacheEngine(
        capacity_pages=capacity_pages,
        cache_config=DRAMCacheConfig(alpha=alpha),
        core_config=CoreConfig(),
        num_cores=1,
        in_package=DRAMDevice(cfg.in_package, cfg.in_package_energy),
        off_package=DRAMDevice(cfg.off_package, cfg.off_package_energy),
        gipt_base_page=10_000,
    )


def _fill(engine, table, virtual_page):
    """Fill a page and drop its TLB residence, so it may be evicted."""
    cache_page, _ = engine.allocate_and_fill(
        0.0, table.entry(virtual_page), core_id=0)
    engine.gipt.clear_resident(cache_page, 0)
    return cache_page


def test_header_pointer_walks_addresses_in_order():
    fq = FreeQueue(capacity_pages=4, alpha=1)
    assert fq.free_pages() == (0, 1, 2, 3)  # HP first
    assert [fq.allocate() for _ in range(4)] == [0, 1, 2, 3]


def test_allocation_exhaustion_is_a_bug():
    fq = FreeQueue(capacity_pages=2, alpha=1)
    fq.allocate()
    fq.allocate()
    with pytest.raises(SimulationError):
        fq.allocate()


def test_needs_eviction_below_alpha():
    """The engine evicts when, and only when, a fill leaves fewer than
    alpha blocks free."""
    engine = _engine(capacity_pages=4, alpha=2)
    fq = engine.free_queue
    table = PageTable(PhysicalFrameAllocator(64))
    _fill(engine, table, 0)
    _fill(engine, table, 1)
    assert fq.free_blocks == 2 and fq.evictions_enqueued == 0  # 2 >= 2
    _fill(engine, table, 2)  # leaves 1 free < alpha 2
    assert fq.evictions_enqueued == fq.evictions_completed == 1
    assert fq.free_blocks == 2 and fq.pending_evictions == 0


def test_eviction_cycle_returns_block_to_pool():
    fq = FreeQueue(capacity_pages=2, alpha=1)
    a = fq.allocate()
    fq.allocate()
    assert fq.free_blocks == 0
    fq.enqueue_eviction(a)
    assert fq.pending_evictions == 1
    assert fq.pending_pages() == (a,)
    fq.mark_free(a)
    assert fq.free_blocks == 1
    assert fq.free_pages() == (a,)
    assert fq.allocate() == a  # recycled block is next to allocate


def test_drain_takes_pending_evictions_oldest_first():
    """A drain with nothing pending frees nothing; queued victims come
    off the pending queue oldest first, each back to the pool's tail."""
    engine = _engine(capacity_pages=8, alpha=1)
    fq = engine.free_queue
    table = PageTable(PhysicalFrameAllocator(64))
    first, second = _fill(engine, table, 0), _fill(engine, table, 1)
    pool = fq.free_pages()
    engine._drain_evictions(0.0)
    assert fq.free_pages() == pool and fq.evictions_completed == 0
    fq.enqueue_eviction(second)
    fq.enqueue_eviction(first)
    engine._drain_evictions(0.0)
    assert fq.pending_evictions == 0
    assert fq.free_pages() == pool + (second, first)


def test_mark_free_out_of_range_is_a_bug():
    fq = FreeQueue(capacity_pages=2, alpha=1)
    with pytest.raises(SimulationError):
        fq.mark_free(5)


def test_alpha_must_leave_room():
    with pytest.raises(ValueError):
        FreeQueue(capacity_pages=2, alpha=2)
    with pytest.raises(ValueError):
        FreeQueue(capacity_pages=4, alpha=0)


def test_stats():
    fq = FreeQueue(capacity_pages=4, alpha=1)
    fq.allocate()
    fq.enqueue_eviction(0)
    stats = fq.stats("f_")
    assert stats["f_allocations"] == 1.0
    assert stats["f_evictions_enqueued"] == 1.0
    assert stats["f_free_blocks"] == 3.0
    assert stats["f_pending"] == 1.0
