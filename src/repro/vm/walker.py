"""Page-table walker cost model.

Both the conventional TLB miss handler and the cTLB miss handler begin
with the same radix-tree walk; its latency is a fixed cycle cost (the
paper folds it into ``MissPenalty_TLB`` in Equations 1 and 5).  Because
walks are frequent for these memory-bound workloads, the walker also
accounts the PTE traffic energy-wise as small reads against the
off-package device, without charging its latency twice.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import TLBConfig
from repro.common.stats import Counters
from repro.dram.device import DRAMDevice
from repro.vm.page_table import PageTable, PageTableEntry


class PageTableWalker(Counters):
    """Performs walks and accumulates their statistics."""

    COUNTERS = ("walks", "cycles_total")

    def __init__(
        self,
        config: TLBConfig,
        pte_backing: Optional[DRAMDevice] = None,
    ):
        self.config = config
        self.pte_backing = pte_backing
        self.walks = 0
        self.cycles_total = 0.0
        # Hoisted per-walk constants (walks happen once per TLB miss --
        # frequent for these memory-bound workloads).
        self._walk_cycles = float(config.walk_cycles)
        self._pte_nj = (
            pte_backing.energy.config.access_nj(8, 0)
            if pte_backing is not None else 0.0
        )

    def walk(self, table: PageTable, virtual_page: int, now_ns: float = 0.0):
        """Walk for ``virtual_page``.

        Returns ``(pte, cycles)``.  The cycle cost models the multi-level
        pointer chase; MMU caches make it mostly constant, matching the
        fixed ``walk_cycles`` parameter.  The 8-byte PTE read is charged
        to the backing DRAM's energy/bandwidth when a device is attached
        (its latency is already inside ``walk_cycles``).
        """
        pte = table.entry(virtual_page)
        cycles = self._walk_cycles
        backing = self.pte_backing
        if backing is not None:
            # Energy/bus accounting only: the walk-latency constant above
            # already covers the time.  (EnergyAccount.charge inlined;
            # zero activations, so only the read side moves.)
            energy = backing.energy
            energy.dynamic_nj += self._pte_nj
            energy.read_bytes += 8
        self.walks += 1
        self.cycles_total += cycles
        return pte, cycles

    def update_pte(self, pte: PageTableEntry) -> float:
        """Cost of rewriting a PTE (cache fill or eviction completion).

        The PTE is resident in the on-die caches right after a walk, so
        the paper treats this as a cached store; we charge a single core
        cycle and the 8-byte write energy.
        """
        if self.pte_backing is not None:
            self.pte_backing.energy.charge(8, 0, is_write=True)
        return 1.0
