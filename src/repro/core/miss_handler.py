"""The cTLB miss handler -- the flow chart of Figure 4.

The handler consolidates address translation and cache management: after
the conventional page-table walk it inspects the PTE's (VC, NC) bits and

- **NC page** -> install a conventional virtual-to-physical mapping and
  let accesses bypass the DRAM cache;
- **VC=1** -> *in-package victim hit*: the page is already cached, so the
  handler simply returns the cache address (Table 1 row 3: no penalty
  beyond the walk itself);
- **(VC, NC) = (0, 0)** -> the shaded path: set PU, allocate a free block
  at the header pointer, fill the page, update GIPT and PTE, clear PU.

The PU (Pending-Update) bit prevents duplicate fills when several threads
miss on the same page concurrently; in the simulator a second thread that
arrives before an in-flight fill's completion time stalls until it
finishes, then proceeds as a victim hit.
"""

from __future__ import annotations

import enum

from repro.common.config import CoreConfig
from repro.common.stats import Counters
from repro.core.ctlb import CacheMapTLB
from repro.core.tagless_cache import TaglessCacheEngine
from repro.vm.page_table import PageTable
from repro.vm.walker import PageTableWalker


class MissOutcome(enum.Enum):
    """How a cTLB miss was resolved (the rows of Table 1 that start
    with a TLB miss, plus the NC refill case)."""

    NON_CACHEABLE = "non_cacheable"
    VICTIM_HIT = "victim_hit"
    FILL = "fill"
    PU_WAIT = "pu_wait"


class CTLBMissHandler(Counters):
    """Per-core miss handler binding a cTLB to the shared cache engine."""

    #: One counter per :class:`MissOutcome`, named by its value, then the
    #: handler's cost and superpage counters.
    COUNTERS = tuple(outcome.value for outcome in MissOutcome) + (
        # Always 0 (nothing declines a fill); kept because perfbench's
        # stored result digests hash every stats key, this one included.
        "bypass",
        "cycles_total", "superpage_splits", "superpage_nc_pins",
    )

    def __init__(
        self,
        core_id: int,
        ctlb: CacheMapTLB,
        engine: TaglessCacheEngine,
        walker: PageTableWalker,
        core_config: CoreConfig,
    ):
        self.core_id = core_id
        self.ctlb = ctlb
        self.engine = engine
        self.walker = walker
        self.core_config = core_config
        #: ns -> cycles (CoreConfig.cycles_from_ns's multiply).
        self._freq = core_config.frequency_ghz
        for outcome in MissOutcome:
            setattr(self, outcome.value, 0)
        self.bypass = 0
        self.cycles_total = 0.0
        self.superpage_splits = 0
        self.superpage_nc_pins = 0

    def handle(
        self,
        table: PageTable,
        virtual_page: int,
        now_ns: float,
        first_line: int = 0,
    ):
        """Resolve a cTLB miss; returns (cycles, MissOutcome).

        The returned cycle count is the full miss penalty of Equation 5:
        the walk, plus -- only on the fill path -- the off-package page
        copy and the GIPT update.  ``first_line`` is the 64 B block whose
        access triggered the miss (the footprint predictor's seed).
        """
        pte, cycles = self.walker.walk(table, virtual_page, now_ns)

        if pte.is_superpage:
            pte, extra = self._handle_superpage(
                table, virtual_page, pte
            )
            cycles += extra
            if pte is None:
                # The run was pinned NC; the faulting page's mapping is
                # already installed.
                self.non_cacheable += 1
                return self._finish(cycles, MissOutcome.NON_CACHEABLE)

        if pte.non_cacheable:
            self.ctlb.install_noncacheable(pte)
            self.non_cacheable += 1
            return self._finish(cycles, MissOutcome.NON_CACHEABLE)

        # PU busy-wait: another thread's fill for this page is in flight.
        waited = False
        if pte.pending_until_ns > now_ns:
            cycles += (pte.pending_until_ns - now_ns) * self._freq
            waited = True

        if pte.valid_in_cache:
            cache_page = pte.cache_page
            self.engine.note_victim_hit(cache_page)
            self.engine.gipt.set_resident(cache_page, self.core_id)
            self.ctlb.install_cache_mapping(virtual_page, cache_page)
            if waited:
                self.pu_wait += 1
                return self._finish(cycles, MissOutcome.PU_WAIT)
            self.victim_hit += 1
            return self._finish(cycles, MissOutcome.VICTIM_HIT)

        # Shaded path of Figure 4: allocate, fill, update GIPT + PTE.
        # The fill is issued at the handler's entry time: memory-system
        # timestamps track the core clock, never partial latencies.
        pte.pending_update = True
        cache_page, fill_ns = self.engine.allocate_and_fill(
            now_ns, pte, self.core_id, first_line=first_line
        )
        pte.pending_until_ns = now_ns + fill_ns
        pte.pending_update = False
        cycles += fill_ns * self._freq

        self.engine.gipt.set_resident(cache_page, self.core_id)
        self.ctlb.install_cache_mapping(virtual_page, cache_page)
        self.fill += 1
        return self._finish(cycles, MissOutcome.FILL)

    def _handle_superpage(self, table: PageTable, virtual_page: int, pte):
        """Resolve a touch inside an unsplit superpage (Sections 3.5/6).

        Policy "split": expand the superpage into 4 KB PTEs -- the
        hierarchical page table makes this a bounded, one-time cost --
        and return the faulting page's fresh PTE so caching proceeds
        normally.  Policy "nc": pin the whole run non-cacheable and
        install the faulting page's VA->PA mapping directly (returns
        ``(None, cost)``).
        """
        handling = self.engine.cache_config.superpage_handling
        cfg = self.walker.config
        if handling == "split":
            pages = table.split_superpage(pte.virtual_page)
            self.superpage_splits += 1
            cost = (
                cfg.superpage_split_base_cycles
                + cfg.superpage_split_cycles_per_page * pages
            )
            # The new PTE writes drain through the write buffer.
            if self.walker.pte_backing is not None:
                self.walker.pte_backing.energy.charge(
                    8 * pages, 0, is_write=True
                )
            return table.entry(virtual_page), cost
        # "nc": the run's locality does not justify coarse-grained
        # caching (Section 3.5: "it would be safe to specify superpages
        # as non-cacheable").
        pte.non_cacheable = True
        offset = virtual_page - pte.virtual_page
        self.ctlb.install_noncacheable_target(
            virtual_page, pte.physical_page + offset
        )
        self.superpage_nc_pins += 1
        return None, 0.0

    def _finish(self, cycles: float, outcome: MissOutcome):
        # The caller has already counted ``outcome`` in its own counter.
        self.cycles_total += cycles
        return cycles, outcome
