"""The SRAM-tag page-based DRAM cache baseline (Figure 1, Section 2.2).

A 16-way set-associative, LRU, 4 KB-page cache whose tags live in on-die
SRAM (Table 6: 4 MB and 11 cycles for a 1 GB cache).  Every L3 access --
hit or miss -- serialises through the tag probe, and the probe burns SRAM
dynamic energy while the array leaks continuously: exactly the overheads
Equation 3 attributes to ``AccessTime_SRAM-tag`` and that the tagless
design deletes.

On a miss the whole page is fetched from off-package DRAM (page-based
caching); the displaced page is written back if dirty.  Unlike the
tagless design, the fill is on the *demand* path of the missing access
(Equation 3's ``MissRate_L3 * PageAccessTime_off-pkg`` term).
"""

from __future__ import annotations

from repro.common.addressing import LINES_PER_PAGE
from repro.common.config import SystemConfig
from repro.designs.base import L3CacheDesign
from repro.sram.tag_array import SRAMTagArray
from repro.vm.tlb import TLBEntry


class SRAMTagDesign(L3CacheDesign):
    """Page-based DRAM cache with on-die SRAM tags and LRU replacement."""

    name = "sram"

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.tags = SRAMTagArray(
            capacity_pages=config.cache_pages,
            config=config.sram_tag,
            policy="lru",
        )

    def _service_l2_miss(
        self,
        core_id: int,
        entry: TLBEntry,
        virtual_page: int,
        line_index: int,
        is_write: bool,
        now_ns: float,
    ) -> float:
        physical_page = entry.target_page
        # The tag probe gates every L3 access, hit or miss (Section 2.2).
        cycles = float(self.tags.access_cycles)

        cache_page = self.tags.lookup(physical_page, is_write)
        if cache_page is not None:
            self.l3_hits += 1
            latency_ns = self.in_package.access_block(
                now_ns, cache_page, is_write
            )
            return cycles + self.core_cfg.cycles_from_ns(latency_ns)

        self.l3_misses += 1
        cache_page, eviction = self.tags.insert(physical_page, dirty=is_write)
        if eviction is not None and eviction.dirty:
            # Victim drains in the background: read it out of the cache,
            # write it home.  Bus time + energy, no demand latency.
            self.in_package.stream_page(
                now_ns, eviction.cache_page, is_write=False, asynchronous=True
            )
            self.off_package.stream_page(
                now_ns, eviction.physical_page, is_write=True, asynchronous=True
            )
            self.l3_writebacks += 1

        # Demand fill: stream the 4 KB page from off-package DRAM,
        # critical block first (the missing 64 B unblocks the core; the
        # rest of the page streams behind it).
        fill_ns = self.off_package.fill_page(now_ns, physical_page)
        self.in_package.stream_page(
            now_ns, cache_page, is_write=True, asynchronous=True
        )
        return cycles + self.core_cfg.cycles_from_ns(fill_ns)

    def _writeback_line(self, line: int, now_ns: float) -> None:
        """Dirty on-die victims land in the DRAM cache when the page is
        cached (marking it dirty), else go straight home."""
        page = line // LINES_PER_PAGE
        if self.tags.contains(page):
            cache_page = self.tags.lookup(page, is_write=True)
            # lookup() counted a probe; that is faithful -- the write-back
            # must locate the page in the cache too.
            self._async_block_write(self.in_package, cache_page, now_ns)
        else:
            self._async_block_write(self.off_package, page, now_ns)

    # ------------------------------------------------------------------
    # Energy hooks
    # ------------------------------------------------------------------
    def leakage_watts(self) -> float:
        """The tag SRAM leaks as long as the machine is on."""
        return self.tags.leakage_watts

    def probe_energy_nj(self) -> float:
        """Dynamic energy burned by tag probes so far."""
        return self.tags.probes * self.tags.probe_nj

    def register_invariants(self, checker) -> None:
        super().register_invariants(checker)
        checker.register("tag_array", self.tags.check_consistency)

    def reset_stats(self) -> None:
        super().reset_stats()
        self.tags.reset_stats()

    def stats(self) -> dict:
        out = super().stats()
        out.update(self.tags.stats("tags_"))
        return out
