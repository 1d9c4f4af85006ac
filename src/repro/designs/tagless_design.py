"""The tagless DRAM cache design (Figure 2's access path).

Wires the :mod:`repro.core` machinery into the common design interface:

- each core's TLB hierarchy becomes a **cTLB** whose L2-eviction callback
  clears the GIPT residence bit (a page leaving TLB reach becomes
  evictable);
- a TLB miss is handled by :class:`repro.core.miss_handler.CTLBMissHandler`
  (walk + optional fill + GIPT update, Figure 4);
- the on-die L1/L2 are tagged by **cache address** for cached pages and by
  physical address for non-cacheable pages (disjoint key spaces);
- an on-die miss on a cached page is *guaranteed* to hit in-package DRAM
  with zero tag-check latency -- the headline property;
- recycling a cache address invalidates the departing page's lines from
  the on-die hierarchies of the cores that touched it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.addressing import LINES_PER_PAGE
from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import counter_stats
from repro.core.ctlb import CacheMapTLB
from repro.core.miss_handler import CTLBMissHandler
from repro.core.tagless_cache import TaglessCacheEngine
from repro.designs.base import PA_NAMESPACE_OFFSET, MemorySystemDesign
from repro.vm.page_table import PageTable
from repro.vm.tlb import TLBEntry, TLBHierarchy


class TaglessDesign(MemorySystemDesign):
    """The paper's fully associative, tagless DRAM cache."""

    name = "tagless"

    #: L3-bound accesses split by the cTLB's verdict: cached pages
    #: (guaranteed in-package hits) and non-cacheable ones.
    COUNTERS = ("nc_accesses", "cache_accesses")
    L3_HIT_KEYS = ("cache_accesses",)
    L3_REF_KEYS = ("cache_accesses", "nc_accesses")
    PROBE_COUNTERS = {
        "fills": "engine_fills",
        "writebacks": "engine_writebacks",
        "evictions": "engine_fq_evictions_completed",
    }
    PROBE_GAUGES = {
        "free_queue_depth": "engine_fq_free_blocks",
        "free_queue_alpha": "engine.free_queue.alpha",
        "gipt_occupancy": "engine_occupancy",
    }

    #: Engine class hook: the resizable variant substitutes its gated
    #: engine without re-deriving the constructor wiring.
    _engine_class = TaglessCacheEngine

    def __init__(self, config: SystemConfig):
        self.engine: Optional[TaglessCacheEngine] = None
        super().__init__(config)
        tlb_reach = config.num_cores * config.scaled_tlb.l2_entries
        if config.cache_pages <= tlb_reach:
            raise ConfigurationError(
                f"tagless cache of {config.cache_pages} pages is not "
                f"larger than total TLB reach ({tlb_reach} pages): every "
                "cached page would be eviction-protected and fills would "
                "starve.  Increase the cache size or the tlb_scale."
            )
        self.engine = self._engine_class(
            capacity_pages=config.cache_pages,
            cache_config=config.dram_cache,
            core_config=config.core,
            num_cores=config.num_cores,
            in_package=self.in_package,
            off_package=self.off_package,
            # The GIPT lives past the end of workload-usable physical
            # memory; only at TLB misses/evictions is it touched.
            gipt_base_page=config.off_package_pages,
            on_page_evicted=self._invalidate_ondie_page,
        )
        self.ctlbs: List[CacheMapTLB] = [
            CacheMapTLB(hierarchy) for hierarchy in self.tlbs
        ]
        self.handlers: List[CTLBMissHandler] = [
            CTLBMissHandler(
                core_id=core_id,
                ctlb=self.ctlbs[core_id],
                engine=self.engine,
                walker=self.walker,
                core_config=config.core,
            )
            for core_id in range(config.num_cores)
        ]
        self.nc_accesses = 0
        self.cache_accesses = 0

    # ------------------------------------------------------------------
    # cTLB wiring
    # ------------------------------------------------------------------
    def _make_tlb_hierarchy(self, core_id: int, tlb_cfg) -> TLBHierarchy:
        clear_bit = ~(1 << core_id)

        def on_evict(virtual_page: int, entry: TLBEntry) -> None:
            # A cache-mapped page left this core's TLB reach: clear its
            # residence bit so the replacement logic may evict it.
            # GlobalInvertedPageTable.clear_resident, written out (a
            # context switch's flush runs this for every L2 entry; the
            # core id is in range by construction).
            engine = self.engine
            if engine is not None and not entry.non_cacheable:
                gipt = engine.gipt
                gipt_entry = gipt._entries.get(entry.target_page)
                if gipt_entry is not None:
                    gipt_entry.residence_mask &= clear_bit
                    gipt.residence_updates += 1

        return TLBHierarchy(
            tlb_cfg.l1_entries, tlb_cfg.l2_entries, on_l2_evict=on_evict
        )

    def _refill_tlb(
        self,
        core_id: int,
        table: PageTable,
        virtual_page: int,
        now_ns: float,
        line_index: int = 0,
    ):
        cycles, outcome = self.handlers[core_id].handle(
            table, virtual_page, now_ns, first_line=line_index
        )
        entry = self.tlbs[core_id].l1.peek(virtual_page)
        if entry is None:
            raise SimulationError(
                f"cTLB miss handler did not install VA page {virtual_page:#x}"
            )
        self.trace_event("ctlb", "miss_fill", now_ns,
                         cycles * self._cycle_time_ns, core_id,
                         {"outcome": outcome.value})
        return cycles, entry

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def _line_key(self, entry: TLBEntry, line_index: int) -> int:
        base = entry.target_page * LINES_PER_PAGE + line_index
        if entry.non_cacheable:
            # NC pages keep physical-address tags in the on-die caches
            # (they bypass only the DRAM cache, Section 3.5).
            return PA_NAMESPACE_OFFSET + base
        return base

    def _service_l2_miss(
        self,
        core_id: int,
        entry: TLBEntry,
        virtual_page: int,
        line_index: int,
        is_write: bool,
        now_ns: float,
    ) -> float:
        if entry.non_cacheable:
            self.nc_accesses += 1
            latency_ns = self.off_package.access_block(
                now_ns, entry.target_page, is_write
            )
            return latency_ns * self._freq

        cache_page = entry.target_page
        engine = self.engine
        # One GIPT probe serves both the invariant check and the
        # bookkeeping below.
        gipt_entry = engine.gipt._entries.get(cache_page)
        if gipt_entry is None:
            raise SimulationError(
                f"cTLB maps VA page {virtual_page:#x} to CA "
                f"{cache_page:#x} which holds no page -- the 'TLB hit "
                "implies cache hit' invariant is broken"
            )
        self.cache_accesses += 1
        engine.victims.on_touch(cache_page)
        # The line is entering this core's on-die caches: the purge at
        # eviction must visit it (see _invalidate_ondie_page).
        gipt_entry.touched_mask |= 1 << line_index
        gipt_entry.touched_cores |= 1 << core_id
        if is_write:
            gipt_entry.dirty = True
        if engine.footprint is not None:
            # Footprint caching only: a block the predictor skipped is
            # fetched from off-package DRAM on demand.
            latency_ns = engine.ensure_line_fetched(
                cache_page, line_index, now_ns
            )
        else:
            latency_ns = 0.0
        # No tag check: the cache address is final.  One in-package access.
        latency_ns += self.in_package.access_block(now_ns, cache_page, is_write)
        return latency_ns * self._freq

    def _writeback_line(self, line: int, now_ns: float) -> None:
        if line >= PA_NAMESPACE_OFFSET:
            page = (line - PA_NAMESPACE_OFFSET) // LINES_PER_PAGE
            self.off_package.write_back_block(now_ns, page)
            return
        cache_page = line // LINES_PER_PAGE
        self.in_package.write_back_block(now_ns, cache_page)
        gipt_entry = self.engine.gipt.lookup(cache_page)
        if gipt_entry is not None:
            gipt_entry.dirty = True

    def _invalidate_ondie_page(
        self, cache_page: int, cores: int, lines: int
    ) -> None:
        """Recycled cache address: purge its lines from the on-die caches.

        ``cores`` and ``lines`` are the departing GIPT entry's
        ``touched_cores`` and ``touched_mask``.  A line of the page
        enters core c's L1/L2 only through core c's on-die miss to L3,
        which sets both bits, so only the lines in ``lines`` of the
        cores in ``cores`` are probed.  The purge is not timed.
        """
        core_id = 0
        while cores:
            if cores & 1:
                self.ondie[core_id].invalidate_page(cache_page, lines)
            cores >>= 1
            core_id += 1

    # ------------------------------------------------------------------
    # Policy surface (Section 3.5)
    # ------------------------------------------------------------------
    def set_non_cacheable(
        self, process_id: int, virtual_page: int, value: bool = True
    ) -> None:
        """Flag a page NC before (or during) a run -- the mmap extension."""
        self.page_table(process_id).set_non_cacheable(virtual_page, value)
        self.trace_event("cache", "nc_pin", 0.0, None, 0,
                         {"process": process_id, "vpn": virtual_page,
                          "value": value})

    # ------------------------------------------------------------------
    # Validation (repro.validate)
    # ------------------------------------------------------------------
    def register_invariants(self, checker) -> None:
        super().register_invariants(checker)
        checker.register("engine_accounting", self.engine.check_invariants)
        checker.register("alpha_reserve", self._check_alpha_reserve)
        checker.register("ctlb_residence", self._check_ctlb_residence)
        checker.register("ondie_keys_live", self._check_ondie_keys_live)
        checker.register("victim_tracker", self._check_victim_tracker)

    def _check_alpha_reserve(self) -> None:
        """Free pool >= alpha between accesses, and the eviction queue
        drained (the simulator's drain is state-eager)."""
        fq = self.engine.free_queue
        if fq.pending_evictions != 0:
            raise SimulationError(
                f"{fq.pending_evictions} evictions left undrained between "
                "accesses (eager-drain property broken)"
            )
        if fq.free_blocks < fq.alpha and not self.engine._alpha_deficit_ever:
            raise SimulationError(
                f"free pool holds {fq.free_blocks} < alpha={fq.alpha} "
                "blocks with no recorded alpha deficit"
            )

    def _check_ctlb_residence(self) -> None:
        """Every cTLB translation's cache page is live in the engine with
        this core's GIPT residence bit set -- the paper's "TLB hit
        implies cache hit" guarantee."""
        gipt = self.engine.gipt
        for core_id, tlb in enumerate(self.tlbs):
            for virtual_page, entry in tlb.l2._map.items():
                if entry.non_cacheable:
                    continue
                gipt_entry = gipt.lookup(entry.target_page)
                if gipt_entry is None:
                    raise SimulationError(
                        f"core {core_id} cTLB maps VA {virtual_page:#x} to "
                        f"CA {entry.target_page:#x} which holds no page"
                    )
                if not (gipt_entry.residence_mask >> core_id) & 1:
                    raise SimulationError(
                        f"core {core_id} cTLB maps VA {virtual_page:#x} to "
                        f"CA {entry.target_page:#x} but its GIPT residence "
                        f"bit is clear (mask={gipt_entry.residence_mask:#x})"
                    )

    def _check_ondie_keys_live(self) -> None:
        """No on-die cache holds a line the eviction purge would miss.

        A CA-keyed line (below the PA namespace) of core c must belong
        to a page the engine currently maps, whose ``touched_cores``
        has bit c and whose ``touched_mask`` has the line's bit;
        anything else means eviction forgot to invalidate the on-die
        hierarchies, or will.  Iterates the (small) on-die caches, not
        the cache's page space.
        """
        live = self.engine.gipt._entries
        for core_id, hierarchy in enumerate(self.ondie):
            for level_name, level in (("l1", hierarchy.l1),
                                      ("l2", hierarchy.l2)):
                for line_key in level:
                    if line_key >= PA_NAMESPACE_OFFSET:
                        continue  # NC line, PA-keyed: no cache page
                    cache_page, line_index = divmod(line_key,
                                                    LINES_PER_PAGE)
                    gipt_entry = live.get(cache_page)
                    if gipt_entry is None:
                        raise SimulationError(
                            f"core {core_id} on-die {level_name} holds "
                            f"line {line_key} of CA {cache_page:#x}, which "
                            "is not cached (recycled address not "
                            "invalidated)"
                        )
                    if not ((gipt_entry.touched_cores >> core_id) & 1
                            and (gipt_entry.touched_mask >> line_index) & 1):
                        raise SimulationError(
                            f"core {core_id} on-die {level_name} holds "
                            f"line {line_key} of CA {cache_page:#x} outside "
                            "its GIPT entry's touched masks (cores="
                            f"{gipt_entry.touched_cores:#x}, lines="
                            f"{gipt_entry.touched_mask:#x}); its eviction "
                            "would not purge it"
                        )

    def _check_victim_tracker(self) -> None:
        """The victim tracker's live set is exactly the cached pages."""
        tracked = set(self.engine.victims.tracked_pages())
        live = set(self.engine.gipt._entries)
        if tracked != live:
            missing = live - tracked
            stale = tracked - live
            raise SimulationError(
                f"victim tracker out of sync with GIPT: missing={missing} "
                f"stale={stale}"
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        super().reset_stats()
        self.engine.reset_stats()
        for handler in self.handlers:
            handler.reset_stats()
        # The simulation clock restarts at zero after a warmup phase;
        # fill-completion timestamps from warmup would otherwise read as
        # fills still in flight and trigger bogus PU busy-waits.
        for table in self._page_tables.values():
            for pte in table._entries.values():
                pte.pending_until_ns = 0.0
                pte.pending_update = False

    def hit_rate(self) -> float:
        """DRAM-cache hit fraction among L3-bound accesses."""
        total = self.cache_accesses + self.nc_accesses
        if total == 0:
            return 0.0
        return self.cache_accesses / total

    def stats(self) -> dict:
        out = super().stats()
        out.update(counter_stats(self, TaglessDesign.COUNTERS))
        out.update(self.engine.stats("engine_"))
        for handler in self.handlers:
            out.update(handler.stats(f"core{handler.core_id}_handler_"))
        return out
