"""The No-L3 baseline: conventional off-package DDR3 memory only.

Every on-die L2 miss pays a 64 B off-package block access.  All of the
paper's IPC/EDP figures are normalised to this configuration.
"""

from __future__ import annotations

from repro.designs.base import MemorySystemDesign
from repro.vm.tlb import TLBEntry


class NoL3Design(MemorySystemDesign):
    """Baseline with no DRAM cache at all (Section 4, "No L3")."""

    name = "no-l3"

    def _service_l2_miss(
        self,
        core_id: int,
        entry: TLBEntry,
        virtual_page: int,
        line_index: int,
        is_write: bool,
        now_ns: float,
    ) -> float:
        latency_ns = self.off_package.access_block(
            now_ns, entry.target_page, is_write
        )
        return latency_ns * self._freq
