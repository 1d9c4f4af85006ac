"""The bank-interleaving (BI) heterogeneous-memory design.

The in-package DRAM is mapped into the physical address space alongside
the off-package DRAM, and the OS allocates frames with no awareness of
the heterogeneity (Section 4, "Bank-interleaving").  A fixed slice of the
physical page space is in-package; the frame allocator's scattered
assignment means roughly ``cache_size / total_size`` of any footprint
lands there -- about 1/9 for the default 1 GB + 8 GB machine, which is
why BI improves IPC only modestly.
"""

from __future__ import annotations

from repro.common.addressing import LINES_PER_PAGE
from repro.common.config import SystemConfig
from repro.common.stats import counter_stats
from repro.designs.base import MemorySystemDesign
from repro.vm.tlb import TLBEntry


class BankInterleavingDesign(MemorySystemDesign):
    """OS-oblivious heterogeneous main memory (no caching, no migration)."""

    name = "bi"
    COUNTERS = ("in_package_hits",)
    L3_HIT_KEYS = ("in_package_hits",)

    def __init__(self, config: SystemConfig):
        # In-package pages occupy the bottom of the physical space; the
        # allocator's strided scatter spreads every process across both
        # regions in proportion to their sizes.
        self.in_package_pages = config.cache_pages
        super().__init__(config)
        self.in_package_hits = 0

    def _physical_pages(self) -> int:
        return self.config.off_package_pages + self.config.cache_pages

    def is_in_package(self, physical_page: int) -> bool:
        """Placement test: which device does this frame live on?"""
        return physical_page < self.in_package_pages

    def _service_l2_miss(
        self,
        core_id: int,
        entry: TLBEntry,
        virtual_page: int,
        line_index: int,
        is_write: bool,
        now_ns: float,
    ) -> float:
        page = entry.target_page
        if self.is_in_package(page):
            self.in_package_hits += 1
            latency_ns = self.in_package.access_block(now_ns, page, is_write)
        else:
            latency_ns = self.off_package.access_block(
                now_ns, page - self.in_package_pages, is_write
            )
        return latency_ns * self._freq

    def _writeback_line(self, line: int, now_ns: float) -> None:
        page = line // LINES_PER_PAGE
        if self.is_in_package(page):
            self.in_package.write_back_block(now_ns, page)
        else:
            self.off_package.write_back_block(
                now_ns, page - self.in_package_pages
            )

    def stats(self) -> dict:
        out = super().stats()
        out.update(counter_stats(self, BankInterleavingDesign.COUNTERS))
        return out
