"""Page-table walker cost model tests."""

import pytest

from repro.common.config import TLBConfig, default_system
from repro.dram.device import DRAMDevice
from repro.vm.page_table import PageTable, PhysicalFrameAllocator
from repro.vm.walker import PageTableWalker


@pytest.fixture
def table():
    return PageTable(PhysicalFrameAllocator(1000))


def test_walk_returns_pte_and_fixed_cycles(table):
    walker = PageTableWalker(TLBConfig(walk_cycles=60))
    pte, cycles = walker.walk(table, 5)
    assert pte.virtual_page == 5
    assert cycles == 60.0
    assert walker.walks == 1


def test_walk_charges_pte_read_energy(table):
    cfg = default_system()
    device = DRAMDevice(cfg.off_package, cfg.off_package_energy)
    walker = PageTableWalker(TLBConfig(), pte_backing=device)
    walker.walk(table, 1)
    assert device.energy.read_bytes == 8
    # Energy only: no demand latency was charged to the device.
    assert device.demand_accesses == 0


def test_update_pte_costs_one_cycle(table):
    walker = PageTableWalker(TLBConfig())
    pte, __ = walker.walk(table, 1)
    assert walker.update_pte(pte) == 1.0


def test_stats_and_reset(table):
    walker = PageTableWalker(TLBConfig(walk_cycles=10))
    walker.walk(table, 1)
    walker.walk(table, 2)
    assert walker.stats("w_")["w_walks"] == 2.0
    assert walker.stats("w_")["w_cycles_total"] == 20.0
    walker.reset_stats()
    assert walker.walks == 0
