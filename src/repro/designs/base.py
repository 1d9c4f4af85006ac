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

    The simulation engine itself never allocates one of these: the hot
    path is :meth:`MemorySystemDesign.access_cycles`, which returns the
    bare latency and parks the remaining fields on the design.
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
        # read by the access() adapter when building an AccessCost.
        self._last_tlb_level = "l1"
        self._last_ondie_level = "l1"
        self._last_l3_cycles = 0.0
        self._last_l3_involved = False

        # Hoisted hot-path constant: config.scaled_tlb is a property
        # that rebuilds a TLBConfig (dataclasses.replace) on every read.
        self._tlb_l2_hit_cycles = float(scaled_tlb.l2_hit_cycles)

        # On-die hit latencies come from the cache configs themselves
        # (OnDieCacheConfig.hit_cycles is the single source of truth;
        # tests/common/test_config.py locks the absence of a duplicate
        # on CoreConfig).
        self._l1_hit_cycles = config.l1.hit_cycles
        self._l2_hit_cycles = config.l2.hit_cycles

        # Observability (repro.obs).  ``trace_event`` is a prebound
        # no-op that installed telemetry rebinds to an EventTracer --
        # the same enable/disable trick ``validate=`` uses -- and it is
        # only ever called on rare paths (TLB refills, evictions).
        self.trace_event = null_event
        self._cycle_time_ns = 1.0 / config.core.frequency_ghz

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

        This is the engine's hot path: it is called once per simulated
        memory reference, so the L1-TLB-hit + on-die-L1-hit common case
        is a hand-inlined short circuit (two dict probes, no allocation,
        no further calls).  The full per-access record is available via
        the :meth:`access` adapter; here the non-latency fields land in
        ``_last_*`` attributes instead of a fresh ``AccessCost``.
        """
        if not (0 <= line_index < LINES_PER_PAGE):
            raise SimulationError(f"line index {line_index} out of page")
        self.accesses += 1
        tlb = self.tlbs[core_id]

        # --- Translation.  Inlined L1 TLB probe (TLB.lookup hit branch
        # plus TLBHierarchy.lookup's L2 recency sync, verbatim).
        l1_tlb = tlb.l1
        l1_map = l1_tlb._map
        entry = l1_map.get(virtual_page)
        if entry is not None:
            l1_tlb.hits += 1
            l1_map[virtual_page] = l1_map.pop(virtual_page)
            tlb.l1_hits += 1
            l2_map = tlb.l2._map
            if virtual_page in l2_map:
                l2_map[virtual_page] = l2_map.pop(virtual_page)
            tlb_level = "l1"
            tlb_cycles = 0.0
        else:
            l1_tlb.misses += 1
            # Inlined TLBHierarchy.lookup_after_l1_miss: L2 probe, and
            # on a hit the promotion into L1 (TLB.insert, verbatim).
            l2_tlb = tlb.l2
            l2_map = l2_tlb._map
            entry = l2_map.get(virtual_page)
            if entry is not None:
                l2_tlb.hits += 1
                l2_map[virtual_page] = l2_map.pop(virtual_page)
                tlb.l2_hits += 1
                if virtual_page in l1_map:
                    del l1_map[virtual_page]
                elif len(l1_map) >= l1_tlb.capacity:
                    del l1_map[next(iter(l1_map))]
                l1_map[virtual_page] = entry
                tlb_level = "l2"
                tlb_cycles = self._tlb_l2_hit_cycles
            else:
                l2_tlb.misses += 1
                tlb.misses += 1
                tlb_level = "miss"
                table = self.page_table(process_id)
                tlb_cycles, entry = self._refill_tlb(
                    core_id, table, virtual_page, now_ns, line_index
                )

        # --- On-die lookup.  The inline key computation matches
        # _line_key for every design when the NC bit is clear (the
        # subclass override only diverges for non-cacheable pages).
        if entry.non_cacheable:
            line_key = self._line_key(entry, line_index)
        else:
            line_key = entry.target_page * LINES_PER_PAGE + line_index

        # Inlined on-die L1 probe (SetAssociativeCache.lookup hit branch
        # for the fused-LRU sets the L1 always uses).
        ondie = self.ondie[core_id]
        l1 = ondie.l1
        l1_set = l1._sets[line_key % l1.num_sets]
        entries = l1_set.entries
        if line_key in entries:
            l1.hits += 1
            entries[line_key] = entries.pop(line_key) or is_write
            ondie.l1_hits += 1
            self._last_tlb_level = tlb_level
            self._last_ondie_level = "l1"
            self._last_l3_cycles = 0.0
            self._last_l3_involved = False
            return tlb_cycles + self._l1_hit_cycles

        # Inlined OnDieHierarchy.access_after_l1_miss and
        # _after_l1_probe_missed: book the L1 miss, probe the fused-LRU
        # L2, fill L1 and drain dirty spills -- same operations in the
        # same order as hierarchy.py (``entries`` above is already the
        # L1 set the fill lands in).
        l1.misses += 1
        writebacks = ondie.pending_writebacks
        writebacks.clear()
        ondie_l2 = ondie.l2
        l2_set = ondie_l2._sets[line_key % ondie_l2.num_sets]
        l2_entries = l2_set.entries
        if line_key in l2_entries:
            ondie_l2.hits += 1
            l2_entries[line_key] = l2_entries.pop(line_key) or is_write
            ondie.l2_hits += 1
            ondie_level = "l2"
        else:
            ondie_l2.misses += 1
            ondie.misses += 1
            if len(l2_entries) >= l2_set.ways:
                victim = next(iter(l2_entries))
                if l2_entries.pop(victim):
                    writebacks.append(victim)
                    ondie.writebacks += 1
            l2_entries[line_key] = False
            ondie_level = "miss"
        # Fill L1 (the line just missed it, so it is not resident).
        if len(entries) >= l1_set.ways:
            victim = next(iter(entries))
            if entries.pop(victim):
                # Dirty L1 victim drains into L2; a dirty line L2 must
                # evict to make room continues toward memory.
                spill_set = ondie_l2._sets[victim % ondie_l2.num_sets]
                spill_entries = spill_set.entries
                if victim in spill_entries:
                    spill_entries[victim] = True
                else:
                    if len(spill_entries) >= spill_set.ways:
                        spilled = next(iter(spill_entries))
                        if spill_entries.pop(spilled):
                            writebacks.append(spilled)
                            ondie.writebacks += 1
                    spill_entries[victim] = True
        entries[line_key] = is_write
        if writebacks:
            self._route_writebacks(writebacks, now_ns)

        cycles = tlb_cycles
        l3_cycles = 0.0
        l3_involved = False
        if ondie_level == "l2":
            cycles += self._l2_hit_cycles
        else:
            l3_involved = True
            # All memory-system requests are issued at the core's issue
            # time.  Adding partial latencies here would make timestamps
            # run ahead of the MLP-overlapped core clock and manufacture
            # phantom queueing between an access and its own successor.
            l3_only = self._service_l2_miss(
                core_id, entry, virtual_page, line_index, is_write, now_ns
            )
            cycles += l3_only
            l3_cycles = tlb_cycles + l3_only
            self.l3_accesses += 1
            self.l3_latency_cycles += l3_cycles

        self._last_tlb_level = tlb_level
        self._last_ondie_level = ondie_level
        self._last_l3_cycles = l3_cycles
        self._last_l3_involved = l3_involved
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
        self._async_block_write(self.off_package, line // LINES_PER_PAGE, now_ns)

    @staticmethod
    def _async_block_write(device: DRAMDevice, page: int, now_ns: float) -> None:
        """A 64 B write nobody waits on: bus time + energy, no latency."""
        device.energy.charge(64, 0, is_write=True)
        channel = device.channels.channel_of_page(page)
        device.channels.occupy_background(
            channel, now_ns, device.timing.transfer_ns(64)
        )

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
