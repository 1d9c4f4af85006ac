"""The Ideal upper bound: all data already lives in in-package DRAM.

No fills, no tags, no capacity limit -- every on-die miss is served at
in-package latency and bandwidth.  Section 5.1 uses this point to bound
how much headroom remains above the tagless cache.
"""

from __future__ import annotations

from repro.common.addressing import LINES_PER_PAGE
from repro.designs.base import MemorySystemDesign
from repro.vm.tlb import TLBEntry


class IdealDesign(MemorySystemDesign):
    """Everything in package, irrespective of capacity (Section 4)."""

    name = "ideal"
    #: Every L3-bound access is served in package, by construction.
    L3_HIT_KEYS = ("l3_accesses",)

    def _service_l2_miss(
        self,
        core_id: int,
        entry: TLBEntry,
        virtual_page: int,
        line_index: int,
        is_write: bool,
        now_ns: float,
    ) -> float:
        latency_ns = self.in_package.access_block(
            now_ns, entry.target_page, is_write
        )
        return latency_ns * self._freq

    def _writeback_line(self, line: int, now_ns: float) -> None:
        self.in_package.write_back_block(now_ns, line // LINES_PER_PAGE)
