"""The tagless DRAM cache engine (Sections 3.1-3.4 of the paper).

This class owns the cache's *state machine*: block allocation via the
header pointer, cache fills, the alpha free-block invariant, asynchronous
eviction through the free queue, GIPT maintenance, and the residence bits
that make "cTLB hit implies DRAM-cache hit" an invariant.  All DRAM
timing/energy for those operations is charged here against the two
:class:`repro.dram.device.DRAMDevice` instances.

What it deliberately does **not** contain: any tag array, any tag probe
latency, and any per-access metadata beyond the victim tracker -- the
whole point of the design.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.addressing import PAGE_BYTES
from repro.common.config import CoreConfig, DRAMCacheConfig
from repro.common.errors import SimulationError
from repro.common.stats import Counters
from repro.core.footprint import (
    FULL_MASK,
    FootprintHistoryTable,
    mask_bit,
    mask_bytes,
)
from repro.core.free_queue import FreeQueue
from repro.core.gipt import GlobalInvertedPageTable
from repro.core.policies import make_victim_tracker
from repro.dram.device import DRAMDevice
from repro.obs.events import null_event
from repro.vm.page_table import PageTableEntry

#: Bytes per GIPT entry as laid out in off-package memory (82 bits padded).
GIPT_ENTRY_BYTES = 16

#: Callback invoked when a cache page is recycled, so the design can
#: invalidate the departing page's lines from the on-die caches (which
#: are tagged by cache address in this design).  Called as
#: ``(cache_page, touched_cores, touched_mask)`` with the removed GIPT
#: entry's masks: only those cores and lines can hold the page on-die.
PageEvictedFn = Callable[[int, int, int], None]


class TaglessCacheEngine(Counters):
    """State and cost model of the tagless, fully associative DRAM cache."""

    COUNTERS = ("fills", "fill_latency_ns", "victim_hits", "writebacks",
                "alpha_deficits", "footprint_misses")

    def __init__(
        self,
        capacity_pages: int,
        cache_config: DRAMCacheConfig,
        core_config: CoreConfig,
        num_cores: int,
        in_package: DRAMDevice,
        off_package: DRAMDevice,
        gipt_base_page: int,
        on_page_evicted: Optional[PageEvictedFn] = None,
    ):
        if capacity_pages <= 0:
            raise SimulationError("tagless cache needs at least one page")
        self.capacity_pages = capacity_pages
        self.cache_config = cache_config
        self.core_config = core_config
        self.in_package = in_package
        self.off_package = off_package
        self.gipt_base_page = gipt_base_page
        self.on_page_evicted = on_page_evicted

        self.gipt = GlobalInvertedPageTable(capacity_pages, num_cores)
        self.free_queue = FreeQueue(capacity_pages, alpha=cache_config.alpha)
        self.victims = make_victim_tracker(cache_config.replacement)
        #: Footprint predictor (partial-fill extension); None = full
        #: 4 KB fills, the paper's evaluated behaviour.
        self.footprint = (
            FootprintHistoryTable() if cache_config.footprint_caching
            else None
        )

        #: Prebound no-op rebound by installed telemetry (repro.obs);
        #: emission sites are all off the per-access path.
        self.trace_event = null_event

        self.fills = 0
        self.fill_latency_ns = 0.0
        self.victim_hits = 0
        self.writebacks = 0
        self.alpha_deficits = 0
        self.footprint_misses = 0
        #: Lifetime flag (never reset): has the free pool *ever* run an
        #: alpha deficit?  The ``alpha_deficits`` counter above resets at
        #: the warmup boundary, but the invariant checker must not flag
        #: ``free < alpha`` as a violation if the deficit legitimately
        #: predates the reset.
        self._alpha_deficit_ever = False
        #: Energy of the 8 B PTE rewrite that completes an eviction.
        self._pte_write_nj = off_package.energy.config.access_nj(8, 0)

    # ------------------------------------------------------------------
    # Fill path (cTLB miss, page not cached) -- the shaded path of Fig. 4
    # ------------------------------------------------------------------
    def allocate_and_fill(
        self,
        now_ns: float,
        pte: PageTableEntry,
        core_id: int,
        first_line: int = 0,
    ) -> tuple:
        """Allocate a free block, copy the page in, update GIPT and PTE.

        Returns ``(cache_page, latency_ns)``.  The latency covers the
        demand page copy from off-package DRAM and the conservative
        two-memory-write GIPT update of Section 3.4; the write of the
        page *into* the in-package device overlaps the copy and is
        charged as background traffic.  With footprint caching enabled,
        only the predicted blocks transfer (``first_line`` identifies
        the block that triggered the miss and is always included).
        """
        if self.free_queue.free_blocks == 0:
            # The asynchronous evictor fell behind (every candidate was
            # TLB-resident at the last check).  Retry synchronously
            # before declaring the alpha invariant broken.
            self._maintain_alpha(now_ns)
        cache_page = self.free_queue.allocate()
        entry = self.gipt.insert(cache_page, pte.physical_page, pte)
        # Protect the page for the filling core before any victim is
        # chosen: a fill must never evict itself.
        self.gipt.set_resident(cache_page, core_id)
        self.victims.on_fill(cache_page)

        if self.footprint is not None:
            entry.fetched_mask = self.footprint.predict(
                pte.physical_page, first_line
            )
        fill_bytes = mask_bytes(entry.fetched_mask)

        # Demand read of the page (or its predicted footprint) from
        # off-package DRAM, critical block first (the triggering
        # access's block unblocks the core; the rest streams behind)...
        latency_ns = self.off_package.fill_page(
            now_ns, pte.physical_page, num_bytes=fill_bytes
        )
        # ...streamed into the in-package device concurrently.
        self.in_package.stream_page(
            now_ns, cache_page, is_write=True, asynchronous=True,
            num_bytes=fill_bytes,
        )
        # GIPT update: conservatively two full memory writes
        # (Section 3.4).  They are posted stores -- the handler pays the
        # device service latency but does not queue behind the page
        # stream -- and the header pointer's sequential walk gives them
        # the very high row locality the paper points out.  The table
        # may live in either DRAM (Section 3.2); off-package by default.
        gipt_device = (
            self.in_package if self.cache_config.gipt_in_package
            else self.off_package
        )
        gipt_page = self.gipt_page_of(cache_page)
        latency_ns += gipt_device.posted_write_block(
            now_ns + latency_ns, gipt_page
        )
        latency_ns += gipt_device.posted_write_block(
            now_ns + latency_ns, gipt_page
        )

        pte.install_in_cache(cache_page)
        self.fills += 1
        self.fill_latency_ns += latency_ns
        self.trace_event("cache", "fill", now_ns, latency_ns, core_id,
                         {"ca": cache_page, "bytes": fill_bytes})

        self._maintain_alpha(now_ns)
        return cache_page, latency_ns

    def gipt_page_of(self, cache_page: int) -> int:
        """Off-package page holding the GIPT entry for ``cache_page``."""
        return self.gipt_base_page + (cache_page * GIPT_ENTRY_BYTES) // 4096

    # ------------------------------------------------------------------
    # Access-path bookkeeping (no latency -- that is the design's point)
    # ------------------------------------------------------------------
    def ensure_line_fetched(
        self, cache_page: int, line_index: int, now_ns: float
    ) -> float:
        """Footprint-miss check: fetch a skipped block on demand.

        Returns the extra latency (0.0 when the block is already in the
        cache, which is always the case without footprint caching).
        The fetched block joins the page's resident footprint.
        """
        if self.footprint is None:
            return 0.0
        entry = self.gipt.lookup(cache_page)
        if entry is None or entry.fetched_mask & mask_bit(line_index):
            return 0.0
        self.footprint_misses += 1
        entry.fetched_mask |= mask_bit(line_index)
        latency_ns = self.off_package.access_block(
            now_ns, entry.physical_page
        )
        # Lay the block into the cache behind the demand read.
        self.in_package.write_back_block(now_ns, cache_page)
        return latency_ns

    def note_victim_hit(self, cache_page: int) -> None:
        """An in-package victim hit (Table 1, row 3)."""
        self.victim_hits += 1
        self.victims.on_touch(cache_page)

    # ------------------------------------------------------------------
    # Replacement (asynchronous)
    # ------------------------------------------------------------------
    def _maintain_alpha(self, now_ns: float) -> None:
        """Restore the invariant that >= alpha blocks are free.

        The one eviction path: :meth:`allocate_and_fill` calls it after
        every fill, and so does the fused kernel
        (:func:`repro.cpu.batched._run_kernel`) after each of its inline
        fills that leaves fewer than alpha blocks free.  It reads the
        free pool and queues victims on the pending deque directly
        (``FreeQueue.enqueue_eviction`` written out), and the drain
        takes them from its head.
        """
        free_queue = self.free_queue
        free = free_queue._free
        alpha = free_queue.alpha
        pending = free_queue._pending
        select = self.victims.select
        is_resident = self.gipt.is_resident
        while len(free) < alpha:
            victim = select(is_resident)
            if victim is None:
                # Every cached page is inside some TLB's reach.  Possible
                # only when the cache is barely larger than total TLB
                # reach; record it and let the free pool run a deficit.
                self.alpha_deficits += 1
                self._alpha_deficit_ever = True
                self.trace_event("cache", "alpha_deficit", now_ns, None, 0,
                                 {"free": len(free), "alpha": alpha})
                break
            pending.append(victim)
            free_queue.evictions_enqueued += 1
            self._drain_evictions(now_ns)

    def _drain_evictions(self, now_ns: float) -> None:
        """Background eviction process (Figure 5, step 2).

        State changes are applied immediately; bus time and energy are
        charged as background traffic so no core-visible latency accrues
        -- the asynchronous-eviction property of Section 3.1.

        Serves the reference path, the fused kernel's fills (through
        :meth:`_maintain_alpha`) and the resizable design's shrinks
        alike.  ``GlobalInvertedPageTable.remove``,
        ``PageTableEntry.evict_from_cache`` and the PTE write's
        ``EnergyAccount.charge`` are written out; an entry that is
        missing or still TLB-resident calls ``remove`` itself, which
        raises as it always has.  ``FreeQueue.mark_free`` stays a call:
        the resizable engine's queue overrides it.
        """
        free_queue = self.free_queue
        pending = free_queue._pending
        gipt = self.gipt
        entries = gipt._entries
        trace_event = self.trace_event
        traced = trace_event is not null_event
        on_page_evicted = self.on_page_evicted
        footprint = self.footprint
        on_evicted = self.victims.on_evicted
        mark_free = free_queue.mark_free
        off_energy = self.off_package.energy
        pte_write_nj = self._pte_write_nj
        while pending:
            cache_page = pending.popleft()
            entry = entries.get(cache_page)
            if entry is None or entry.residence_mask:
                gipt.remove(cache_page)  # raises: the checks failed
            del entries[cache_page]
            gipt.removals += 1
            if traced:
                trace_event("cache", "evict", now_ns, None, 0,
                            {"ca": cache_page, "dirty": entry.dirty})
            if on_page_evicted is not None:
                # Stale on-die lines tagged with this cache address must
                # go; their dirt is subsumed by the page write-back.
                on_page_evicted(
                    cache_page, entry.touched_cores, entry.touched_mask
                )
            if entry.dirty:
                # Read the (resident part of the) page out of the cache
                # and write it home.
                # (A full page, the only size without footprint
                # caching, skips the bit count.)
                fetched = entry.fetched_mask
                resident_bytes = (PAGE_BYTES if fetched == FULL_MASK
                                  else mask_bytes(fetched))
                self.in_package.stream_page(
                    now_ns, cache_page, is_write=False, asynchronous=True,
                    num_bytes=resident_bytes,
                )
                self.off_package.stream_page(
                    now_ns, entry.physical_page, is_write=True,
                    asynchronous=True, num_bytes=resident_bytes,
                )
                self.writebacks += 1
                if traced:
                    trace_event("cache", "writeback", now_ns, None, 0,
                                {"ca": cache_page,
                                 "bytes": resident_bytes})
            if footprint is not None:
                # Teach the predictor what this residency actually used.
                footprint.record(entry.physical_page, entry.touched_mask)
            # Recover the PPN from the GIPT and rewrite the PTE: an
            # 8 B write, no activation.
            pte = entry.pte
            pte.cache_page = None
            pte.valid_in_cache = False
            off_energy.dynamic_nj += pte_write_nj
            off_energy.write_bytes += 8
            on_evicted(cache_page)
            mark_free(cache_page)

    # ------------------------------------------------------------------
    # Invariant checks and reporting
    # ------------------------------------------------------------------
    def gated_pages(self) -> tuple:
        """Cache pages power-gated out of service (resizable subclass
        hook; the fixed-capacity engine gates nothing)."""
        return ()

    def check_invariants(self) -> None:
        """Raise SimulationError if cache and GIPT state have diverged.

        Called by tests after simulation runs and by the
        ``repro.validate`` invariant checker periodically during
        validated runs.  Strictly read-only.
        """
        live = len(self.gipt)
        free_pages = self.free_queue.free_pages()
        pending_pages = self.free_queue.pending_pages()
        gated_pages = self.gated_pages()
        free = len(free_pages)
        pending = len(pending_pages)
        gated = len(gated_pages)
        if live + free + pending + gated != self.capacity_pages:
            raise SimulationError(
                f"block accounting broken: {live} live + {free} free + "
                f"{pending} pending + {gated} gated != capacity "
                f"{self.capacity_pages}"
            )
        # The free pool, the eviction queue, the gated region and the
        # GIPT's live entries must partition the cache: any overlap
        # means a block is simultaneously "holds data" and "free to
        # allocate" (or powered off while in use).
        free_set = set(free_pages)
        if len(free_set) != free:
            raise SimulationError("free pool holds duplicate cache pages")
        pending_set = set(pending_pages)
        overlap = free_set & pending_set
        if overlap:
            raise SimulationError(
                f"HP free pool and eviction queue share pages {overlap}"
            )
        gated_set = set(gated_pages)
        overlap = gated_set & (free_set | pending_set
                               | set(self.gipt.cached_cache_pages()))
        if overlap:
            raise SimulationError(
                f"power-gated region overlaps in-service pages {overlap}"
            )
        live_overlap = free_set.intersection(self.gipt.cached_cache_pages())
        if live_overlap:
            raise SimulationError(
                f"free pool contains live (GIPT-mapped) pages {live_overlap}"
            )
        mask_limit = 1 << self.gipt.num_cores
        for cache_page in self.gipt.cached_cache_pages():
            entry = self.gipt.require(cache_page)
            pte = entry.pte
            if not pte.valid_in_cache or pte.cache_page != cache_page:
                raise SimulationError(
                    f"GIPT entry for CA {cache_page:#x} disagrees with its "
                    f"PTE (VC={pte.valid_in_cache}, CA={pte.cache_page})"
                )
            if not (0 <= entry.residence_mask < mask_limit):
                raise SimulationError(
                    f"GIPT entry for CA {cache_page:#x} has residence mask "
                    f"{entry.residence_mask:#x} with bits beyond "
                    f"{self.gipt.num_cores} cores"
                )

    def reset_stats(self) -> None:
        """Zero counters; cache contents, GIPT and free queue stay warm."""
        super().reset_stats()
        self.gipt.reset_stats()
        self.free_queue.reset_stats()
        if self.footprint is not None:
            self.footprint.reset_stats()

    def occupancy(self) -> float:
        return len(self.gipt) / self.capacity_pages

    def stats(self, prefix: str = "") -> dict:
        out = super().stats(prefix)
        out[f"{prefix}occupancy"] = self.occupancy()
        out.update(self.gipt.stats(f"{prefix}gipt_"))
        out.update(self.free_queue.stats(f"{prefix}fq_"))
        if self.footprint is not None:
            out.update(self.footprint.stats(f"{prefix}footprint_"))
        return out
