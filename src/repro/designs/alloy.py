"""An Alloy-style block-based DRAM cache (extension design point).

The paper's Table 2 and related-work section contrast page-based caching
against **block-based** designs such as Alloy Cache (Qureshi & Loh,
MICRO 2012): a direct-mapped cache of 64 B blocks whose tag is co-located
with the data in the same DRAM row (a "TAD" unit), so one in-package
access returns tag and data together.  Strengths and weaknesses per
Table 2, all observable in this model:

- *minimal over-fetching*: misses move 64 B, not 4 KB (good);
- *tag storage in DRAM*: no SRAM, but ~12.5 % of the in-package capacity
  feeds tags instead of data (bad);
- *every L3 probe costs an in-package access even on a miss*, and misses
  then pay the off-package block on top (bad for miss-heavy phases);
- *direct-mapped*: conflict misses, no associativity (bad);
- *no row-buffer amortisation*: block-granularity traffic cannot exploit
  a streamed row (bad).

Including it makes the Table 2 comparison quantitative across all three
classes of designs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.addressing import LINES_PER_PAGE
from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.designs.base import L3CacheDesign
from repro.vm.tlb import TLBEntry

#: Fraction of each in-package row spent on tags (8 B tag per 64 B block
#: in Alloy's 72 B TADs): the capacity tax of block-based caching.
TAG_CAPACITY_TAX = 8 / 72


class AlloyCacheDesign(L3CacheDesign):
    """Direct-mapped, block-granularity DRAM cache with in-DRAM tags."""

    name = "alloy"

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        total_lines = config.cache_pages * LINES_PER_PAGE
        #: Usable block slots after the TAD tag tax.
        self.num_blocks = max(1, int(total_lines * (1 - TAG_CAPACITY_TAX)))
        #: slot -> (physical line, dirty); a line's slot is
        #: ``line % num_blocks``.
        self._slots: Dict[int, Tuple[int, bool]] = {}

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
        line = page * LINES_PER_PAGE + line_index
        slot = line % self.num_blocks
        # One in-package access always: the TAD read returns tag+data.
        probe_ns = self.in_package.access_block(now_ns, page, is_write)
        slots = self._slots
        resident = slots.get(slot)
        if resident is not None and resident[0] == line:
            self.l3_hits += 1
            if is_write and not resident[1]:
                slots[slot] = (line, True)
            return probe_ns * self._freq

        # Miss: fetch the block from off-package DRAM, install it, and
        # write back the dirty victim (both off the critical path except
        # the demand block itself).
        self.l3_misses += 1
        if resident is not None and resident[1]:
            self.off_package.write_back_block(
                now_ns, resident[0] // LINES_PER_PAGE
            )
            self.l3_writebacks += 1
        fill_ns = self.off_package.access_block(now_ns, page, False)
        self.in_package.write_back_block(now_ns, page)
        slots[slot] = (line, is_write)
        return (probe_ns + fill_ns) * self._freq

    def _writeback_line(self, line: int, now_ns: float) -> None:
        slot = line % self.num_blocks
        resident = self._slots.get(slot)
        if resident is not None and resident[0] == line:
            self._slots[slot] = (line, True)
            self.in_package.write_back_block(now_ns, line // LINES_PER_PAGE)
        else:
            self.off_package.write_back_block(now_ns, line // LINES_PER_PAGE)

    def effective_capacity_fraction(self) -> float:
        """Usable data fraction of the in-package DRAM (Table 2's 'small
        tag storage: bad' row -- the 12.5 % DRAM tag tax)."""
        return 1 - TAG_CAPACITY_TAX

    def register_invariants(self, checker) -> None:
        super().register_invariants(checker)
        checker.register("alloy_slots", self._check_slots)

    def _check_slots(self) -> None:
        """Direct-mapped integrity: every resident line sits in the one
        slot its address hashes to, within the (tag-taxed) capacity."""
        if len(self._slots) > self.num_blocks:
            raise SimulationError(
                f"{len(self._slots)} resident blocks exceed capacity "
                f"{self.num_blocks}"
            )
        for slot, (line, _dirty) in self._slots.items():
            if not (0 <= slot < self.num_blocks):
                raise SimulationError(f"slot {slot} out of range")
            if line % self.num_blocks != slot:
                raise SimulationError(
                    f"line {line} stored in slot {slot}, maps to "
                    f"{line % self.num_blocks}"
                )
