"""Shared machinery for the evaluated memory-system designs.

A design owns everything below the core: per-core TLB hierarchies, per-core
on-die L1/L2 caches, per-process page tables, the two DRAM devices, and
whatever L3 structure it defines.  The single entry point is
:meth:`MemorySystemDesign.access`, which the simulator calls once per
memory reference with the core's current local time.

The base class implements the entire conventional access path -- TLB
probe, walk on miss, on-die hierarchy, write-back routing -- and exposes
two hooks for subclasses: :meth:`_refill_tlb` (what a TLB miss does) and
:meth:`_service_l2_miss` (where an on-die miss goes).  The tagless design
overrides both; the other designs override only the second.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Dict, List, Tuple

from repro.common.addressing import LINES_PER_PAGE
from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.common.stats import Counters, counter_stats
from repro.dram.device import DRAMDevice
from repro.obs.events import null_event
from repro.sram.hierarchy import OnDieHierarchy
from repro.vm.page_table import PageTable, PhysicalFrameAllocator
from repro.vm.tlb import TLBEntry, TLBHierarchy
from repro.vm.walker import PageTableWalker

#: Key-space offset separating physical-address lines from cache-address
#: lines inside the on-die caches of the tagless design (whose L1/L2 are
#: tagged by cache address for cached pages but by physical address for
#: non-cacheable pages).
PA_NAMESPACE_OFFSET = 1 << 40


@dataclasses.dataclass(slots=True)
class AccessCost:
    """Core-visible outcome of one memory access.

    ``cycles`` is the full latency; ``l3_cycles`` is the portion counted
    by Figure 8 (everything after an on-die L2 miss, *including* the TLB
    penalty, per Section 5.1); ``l3_involved`` marks whether the access
    reached beyond the on-die caches at all.

    The replay loops never allocate one of these: they call
    :meth:`MemorySystemDesign.access_cycles`, which returns the bare
    latency and parks the remaining fields on the design.
    :meth:`MemorySystemDesign.access` is the allocating adapter kept for
    tests, tools and any caller that wants the full record.
    """

    cycles: float
    l3_cycles: float = 0.0
    l3_involved: bool = False
    tlb_level: str = "l1"
    ondie_level: str = "l1"


class MemorySystemDesign(Counters):
    """Base class: conventional translation + on-die caches + routing."""

    #: Registry name; subclasses override.
    name = "abstract"

    #: Figure 8 accounting.  Each subclass declares the counters of its
    #: own L3 structure the same way; ``stats()`` reports every class's
    #: counters right after that class's parent's keys.
    COUNTERS = ("accesses", "l3_accesses", "l3_latency_cycles")

    # What :meth:`timeseries_probe` reads beyond the shared columns.
    #: Stats keys summed into the ``l3_hits`` and ``l3_refs`` columns:
    #: the in-package service fraction of L3-bound accesses.
    L3_HIT_KEYS: Tuple[str, ...] = ()
    L3_REF_KEYS: Tuple[str, ...] = ("l3_accesses",)
    #: Extra delta columns, column -> stats key.
    PROBE_COUNTERS: Dict[str, str] = {}
    #: Gauge columns, column -> stats key (or, for a value ``stats()``
    #: does not report, an attribute path on the design).
    PROBE_GAUGES: Dict[str, str] = {}

    def __init__(self, config: SystemConfig):
        self.config = config
        self.core_cfg = config.core
        scaled_tlb = config.scaled_tlb

        self.in_package = DRAMDevice(config.in_package, config.in_package_energy)
        self.off_package = DRAMDevice(config.off_package, config.off_package_energy)

        self.allocator = PhysicalFrameAllocator(self._physical_pages())
        self._page_tables: Dict[int, PageTable] = {}

        self.walker = PageTableWalker(scaled_tlb, pte_backing=self.off_package)
        self.tlbs: List[TLBHierarchy] = [
            self._make_tlb_hierarchy(core_id, scaled_tlb)
            for core_id in range(config.num_cores)
        ]
        self.ondie: List[OnDieHierarchy] = [
            OnDieHierarchy(config.scaled_l1, config.scaled_l2)
            for _ in range(config.num_cores)
        ]

        self.l3_accesses = 0
        self.l3_latency_cycles = 0.0
        self.accesses = 0

        # Side-channel fields of the most recent access_cycles() call,
        # read by the access() adapter when building an AccessCost and
        # by the replay loops' tenant attribution.
        self._last_tlb_level = "l1"
        self._last_ondie_level = "l1"
        self._last_l3_cycles = 0.0
        self._last_l3_involved = False

        # Read once: config.scaled_tlb is a property that rebuilds a
        # TLBConfig (dataclasses.replace) on every read.
        self._tlb_l2_hit_cycles = float(scaled_tlb.l2_hit_cycles)

        # On-die hit latencies come from the cache configs themselves
        # (OnDieCacheConfig.hit_cycles is the single source of truth;
        # tests/common/test_config.py locks the absence of a duplicate
        # on CoreConfig).
        self._l1_hit_cycles = config.l1.hit_cycles
        self._l2_hit_cycles = config.l2.hit_cycles

        # Observability (repro.obs).  ``trace_event`` is a prebound
        # no-op that installed telemetry rebinds to an EventTracer; it
        # is only ever called on rare paths (TLB refills, evictions).
        self.trace_event = null_event
        self._cycle_time_ns = 1.0 / config.core.frequency_ghz
        # ns -> core cycles (CoreConfig.cycles_from_ns's multiply,
        # without the call): ``latency_ns * self._freq``.
        self._freq = config.core.frequency_ghz

        # Replay boundaries (repro.cpu.multicore.replay): the sources,
        # in install order, and the lifetime access count they sit in
        # (warmup included; reset_stats keeps it).
        self.boundaries: list = []
        self.replayed_accesses = 0

    # ------------------------------------------------------------------
    # Construction hooks
    # ------------------------------------------------------------------
    def _physical_pages(self) -> int:
        """Size of the physical page space the frame allocator covers."""
        return self.config.off_package_pages

    def _make_tlb_hierarchy(self, core_id: int, tlb_cfg) -> TLBHierarchy:
        return TLBHierarchy(tlb_cfg.l1_entries, tlb_cfg.l2_entries)

    # ------------------------------------------------------------------
    # Page tables
    # ------------------------------------------------------------------
    def page_table(self, process_id: int) -> PageTable:
        table = self._page_tables.get(process_id)
        if table is None:
            table = PageTable(self.allocator, process_id)
            self._page_tables[process_id] = table
        return table

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------
    def access_cycles(
        self,
        core_id: int,
        process_id: int,
        virtual_page: int,
        line_index: int,
        is_write: bool,
        now_ns: float,
    ) -> float:
        """Perform one memory reference; returns its latency in cycles.

        The plain composition of the structure models: the TLB lookup
        (a refill on a miss), the on-die access on the line key, the
        routing of its dirty victims and, on an on-die miss, the
        design's L3 service.  The fused kernel (:mod:`repro.cpu.batched`)
        replays the same sequence inline and falls back to this call for
        what it does not inline.  The non-latency fields of the access
        land in ``_last_*`` attributes instead of a fresh
        ``AccessCost``; :meth:`access` builds the full record.
        """
        if not (0 <= line_index < LINES_PER_PAGE):
            raise SimulationError(f"line index {line_index} out of page")
        self.accesses += 1
        tlb_level, entry = self.tlbs[core_id].lookup(virtual_page)
        if tlb_level == "l1":
            tlb_cycles = 0.0
        elif tlb_level == "l2":
            tlb_cycles = self._tlb_l2_hit_cycles
        else:
            tlb_cycles, entry = self._refill_tlb(
                core_id, self.page_table(process_id), virtual_page, now_ns,
                line_index,
            )

        result = self.ondie[core_id].access(
            self._line_key(entry, line_index), is_write
        )
        if result.writebacks:
            self._route_writebacks(result.writebacks, now_ns)

        ondie_level = result.level
        l3_cycles = 0.0
        if ondie_level == "l1":
            cycles = tlb_cycles + self._l1_hit_cycles
        elif ondie_level == "l2":
            cycles = tlb_cycles + self._l2_hit_cycles
        else:
            # All memory-system requests are issued at the core's issue
            # time.  Adding partial latencies here would make timestamps
            # run ahead of the MLP-overlapped core clock and manufacture
            # phantom queueing between an access and its own successor.
            l3_cycles = cycles = tlb_cycles + self._service_l2_miss(
                core_id, entry, virtual_page, line_index, is_write, now_ns
            )
            self.l3_accesses += 1
            self.l3_latency_cycles += l3_cycles

        self._last_tlb_level = tlb_level
        self._last_ondie_level = ondie_level
        self._last_l3_cycles = l3_cycles
        self._last_l3_involved = ondie_level == "miss"
        return cycles

    def access(
        self,
        core_id: int,
        process_id: int,
        virtual_page: int,
        line_index: int,
        is_write: bool,
        now_ns: float,
    ) -> AccessCost:
        """Perform one memory reference and return its full cost record.

        Allocating adapter over :meth:`access_cycles` -- behaviourally
        identical, kept for tests and callers that inspect the levels.
        """
        cycles = self.access_cycles(
            core_id, process_id, virtual_page, line_index, is_write, now_ns
        )
        return AccessCost(
            cycles=cycles,
            l3_cycles=self._last_l3_cycles,
            l3_involved=self._last_l3_involved,
            tlb_level=self._last_tlb_level,
            ondie_level=self._last_ondie_level,
        )

    # ------------------------------------------------------------------
    # Hooks implemented by concrete designs
    # ------------------------------------------------------------------
    def _refill_tlb(
        self,
        core_id: int,
        table: PageTable,
        virtual_page: int,
        now_ns: float,
        line_index: int = 0,
    ):
        """Conventional TLB miss: walk and install a VA->PA mapping.

        Returns (cycles, installed_entry).  ``line_index`` identifies
        the block whose access triggered the miss; the conventional
        handler ignores it, the cTLB handler feeds it to the footprint
        predictor.
        """
        pte, cycles = self.walker.walk(table, virtual_page, now_ns)
        target = pte.physical_page
        if pte.is_superpage:
            # Inside a superpage the walk returns the base PTE; the
            # page's frame is base + offset into the contiguous run.
            target += virtual_page - pte.virtual_page
        entry = TLBEntry(target_page=target, non_cacheable=False)
        self.tlbs[core_id].install(virtual_page, entry)
        self.trace_event("tlb", "walk_fill", now_ns,
                         cycles * self._cycle_time_ns, core_id)
        return cycles, entry

    def _line_key(self, entry: TLBEntry, line_index: int) -> int:
        """On-die cache key for this access (PA-space by default)."""
        return entry.target_page * LINES_PER_PAGE + line_index

    def _service_l2_miss(
        self,
        core_id: int,
        entry: TLBEntry,
        virtual_page: int,
        line_index: int,
        is_write: bool,
        now_ns: float,
    ) -> float:
        """Service an on-die miss; returns latency in core cycles."""
        raise NotImplementedError

    def _route_writebacks(self, writebacks: List[int], now_ns: float) -> None:
        """Send dirty on-die L2 victims toward memory (asynchronously)."""
        for line in writebacks:
            self._writeback_line(line, now_ns)

    def _writeback_line(self, line: int, now_ns: float) -> None:
        """Default: dirty lines go home to off-package physical memory."""
        self.off_package.write_back_block(now_ns, line // LINES_PER_PAGE)

    # ------------------------------------------------------------------
    # Validation (repro.validate)
    # ------------------------------------------------------------------
    def register_invariants(self, checker) -> None:
        """Register this design's structural invariants with ``checker``
        (an :class:`repro.validate.invariants.InvariantChecker`).

        The base class covers what every design shares -- TLB inclusion
        and on-die cache consistency; subclasses extend this with their
        own structures.  Registered checks must be strictly read-only.
        """
        from repro.validate.invariants import check_tlb_hierarchy

        for core_id, tlb in enumerate(self.tlbs):
            checker.register(
                f"core{core_id}_tlb_inclusion",
                lambda tlb=tlb, core_id=core_id: check_tlb_hierarchy(
                    tlb, f"core{core_id}"
                ),
            )
        for core_id, hierarchy in enumerate(self.ondie):
            checker.register(
                f"core{core_id}_ondie_l1", hierarchy.l1.check_consistency
            )
            checker.register(
                f"core{core_id}_ondie_l2", hierarchy.l2.check_consistency
            )

    # ------------------------------------------------------------------
    # Warmup support
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero every counter while keeping all cached state warm.

        Called at the warmup/measurement boundary.  Zeroes the declared
        counters of every class in the design's hierarchy; subclasses
        extend this for their own components and non-counter state.
        """
        super().reset_stats()
        self.walker.reset_stats()
        for tlb in self.tlbs:
            tlb.reset_stats()
        for hierarchy in self.ondie:
            hierarchy.reset_stats()
        self.in_package.reset_stats()
        self.off_package.reset_stats()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def mean_l3_latency_cycles(self) -> float:
        """Figure 8's metric: average latency after an on-die L2 miss."""
        if self.l3_accesses == 0:
            return 0.0
        return self.l3_latency_cycles / self.l3_accesses

    def leakage_watts(self) -> float:
        """Design-specific static power (e.g. the SRAM tag array)."""
        return 0.0

    def probe_energy_nj(self) -> float:
        """Design-specific dynamic energy outside the DRAM devices."""
        return 0.0

    def timeseries_probe(self):
        """Cumulative counters + instantaneous gauges for repro.obs.

        Returns ``(counters, gauges)``.  Counters are monotone within a
        measured window; the timeseries recorder differences successive
        snapshots, so this is called once per sampling window -- never
        on the per-access path.  The design-specific columns come from
        the class declarations above (``L3_HIT_KEYS``, ``L3_REF_KEYS``,
        ``PROBE_COUNTERS``, ``PROBE_GAUGES``); the three free-queue/GIPT
        gauges exist for every design so artifacts share one column
        schema.
        """
        stats = self.stats()
        tlb_hits = 0
        tlb_refs = 0
        for tlb in self.tlbs:
            hits = tlb.l1_hits + tlb.l2_hits
            tlb_hits += hits
            tlb_refs += hits + tlb.misses
        in_pkg = self.in_package
        off_pkg = self.off_package
        banks = in_pkg.banks
        row_hits = float(banks.row_hits)
        counters = {
            "accesses": float(self.accesses),
            "l3_accesses": float(self.l3_accesses),
            "tlb_hits": float(tlb_hits),
            "tlb_refs": float(tlb_refs),
            "l3_hits": sum((stats[key] for key in self.L3_HIT_KEYS), 0.0),
            "l3_refs": sum((stats[key] for key in self.L3_REF_KEYS), 0.0),
            "inpkg_bytes": float(
                in_pkg.energy.read_bytes + in_pkg.energy.write_bytes
            ),
            "offpkg_bytes": float(
                off_pkg.energy.read_bytes + off_pkg.energy.write_bytes
            ),
            "inpkg_busy_ns": (in_pkg.channels.demand_busy_ns
                              + in_pkg.channels.background_busy_ns),
            "offpkg_busy_ns": (off_pkg.channels.demand_busy_ns
                               + off_pkg.channels.background_busy_ns),
            "row_hits": row_hits,
            "row_refs": row_hits + banks.row_misses + banks.row_empties,
            "offpkg_demand": float(off_pkg.demand_accesses),
        }
        for column, key in self.PROBE_COUNTERS.items():
            counters[column] = stats[key]
        gauges = dict.fromkeys(
            ("free_queue_depth", "free_queue_alpha", "gipt_occupancy"), 0.0
        )
        for column, source in self.PROBE_GAUGES.items():
            gauges[column] = (stats[source] if source in stats
                              else float(attrgetter(source)(self)))
        return counters, gauges

    def stats(self) -> dict:
        out = counter_stats(self, MemorySystemDesign.COUNTERS)
        for core_id, tlb in enumerate(self.tlbs):
            out.update(tlb.stats(f"core{core_id}_tlb_"))
        for core_id, hierarchy in enumerate(self.ondie):
            out.update(hierarchy.stats(f"core{core_id}_ondie_"))
        out.update(self.in_package.stats("inpkg_"))
        out.update(self.off_package.stats("offpkg_"))
        out.update(self.walker.stats("walker_"))
        return out


class L3CacheDesign(MemorySystemDesign):
    """A design whose L3 structure counts its own hits, misses and dirty
    write-backs (the SRAM-tag page cache and the Alloy block cache)."""

    COUNTERS = ("l3_hits", "l3_misses", "l3_writebacks")
    L3_HIT_KEYS = ("l3_hits",)
    L3_REF_KEYS = ("l3_hits", "l3_misses")
    PROBE_COUNTERS = {"writebacks": "l3_writebacks"}

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.l3_hits = 0
        self.l3_misses = 0
        self.l3_writebacks = 0

    def hit_rate(self) -> float:
        total = self.l3_hits + self.l3_misses
        if total == 0:
            return 0.0
        return self.l3_hits / total

    def stats(self) -> dict:
        out = super().stats()
        out.update(counter_stats(self, L3CacheDesign.COUNTERS))
        return out
