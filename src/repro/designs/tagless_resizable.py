"""Runtime-resizable tagless DRAM cache (consistent-hashing-style churn
bounds on top of the paper's design).

The tagless cache's capacity is normally fixed at construction.  This
variant adds a **capacity schedule**: at configured access counts the
cache shrinks (power-gates its upper address region) or grows (returns
gated blocks to service).  The mechanism follows the structures the
paper already has:

- shrinking first *drains the free queue* of blocks in the doomed
  region (pure bookkeeping: a free block holds no data);
- displaced **live** pages are *remapped* -- migrated to a surviving
  free block with their GIPT entry, PTE, dirtiness and footprint masks
  intact -- under a per-event churn budget (``max_remap_per_resize``),
  the bounded-remapping idea of consistent-hashing DRAM caches; the
  budget's overflow is *evicted* through the ordinary asynchronous
  eviction path instead;
- every displaced page gets a guarded **cTLB shootdown** first, so no
  core retains a stale "TLB hit => cache hit" translation into the
  gated region;
- growing simply un-gates blocks back into the free pool, lowest
  address first (the header pointer's natural order).

The engine's structural invariant generalises to ``live + free +
pending + gated == capacity`` with the gated set exactly the powered-off
upper region, so ``repro check`` holds mid-schedule.  The schedule is a
replay boundary source (:func:`repro.cpu.multicore.replay`): events are
positioned in lifetime accesses, warmup included, and act before the
access they are due at.  The access path is plain tagless, so the fused
kernel replays this design with the tagless branches, stopping for each
event.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import counter_stats
from repro.core.footprint import mask_bytes
from repro.core.free_queue import FreeQueue
from repro.core.tagless_cache import TaglessCacheEngine
from repro.designs.tagless_design import TaglessDesign


class GatedFreeQueue(FreeQueue):
    """Free queue aware of a power-gated upper address region.

    ``active_capacity`` splits the cache address space: pages at or
    above it are out of service.  A block evicted while its address is
    gated (a displaced page leaving through the normal eviction path
    mid-shrink) is routed into the gated set instead of the free pool,
    so it can never be re-allocated until the cache grows again.
    """

    def __init__(self, capacity_pages: int, alpha: int = 1):
        super().__init__(capacity_pages, alpha=alpha)
        self.active_capacity = capacity_pages
        self.gated: set = set()

    def mark_free(self, cache_page: int) -> None:
        """Return an evicted block: to the pool, or to the gated set."""
        if not (0 <= cache_page < self.capacity_pages):
            raise SimulationError(
                f"freeing CA {cache_page:#x} outside the cache"
            )
        if cache_page >= self.active_capacity:
            self.gated.add(cache_page)
        else:
            self._free.append(cache_page)
        self.evictions_completed += 1

    def gate_page(self, cache_page: int) -> None:
        """Move one (already vacated) block straight into the gated set."""
        if not (0 <= cache_page < self.capacity_pages):
            raise SimulationError(
                f"gating CA {cache_page:#x} outside the cache"
            )
        self.gated.add(cache_page)

    def gate_free_region(self, new_capacity: int) -> int:
        """Pull every free block >= ``new_capacity`` out of the pool."""
        survivors = [p for p in self._free if p < new_capacity]
        doomed = [p for p in self._free if p >= new_capacity]
        self._free.clear()
        self._free.extend(survivors)
        self.gated.update(doomed)
        return len(doomed)

    def ungate_to(self, new_capacity: int) -> int:
        """Return gated blocks below ``new_capacity`` to the free pool,
        lowest address first (the header pointer's walk order)."""
        restored = sorted(p for p in self.gated if p < new_capacity)
        for page in restored:
            self.gated.discard(page)
            self._free.append(page)
        return len(restored)


class ResizableTaglessEngine(TaglessCacheEngine):
    """Tagless engine whose free queue understands power gating."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Swap in the gated queue before any allocation happens; the
        # base queue carries no state yet at this point.
        self.free_queue = GatedFreeQueue(
            self.capacity_pages, alpha=self.cache_config.alpha
        )

    @property
    def active_capacity(self) -> int:
        return self.free_queue.active_capacity

    def gated_pages(self) -> tuple:
        return tuple(sorted(self.free_queue.gated))

    def occupancy(self) -> float:
        """Occupancy of the *active* region (the serviceable cache)."""
        active = self.free_queue.active_capacity
        if active == 0:
            return 0.0
        return len(self.gipt) / active


class TaglessResizableDesign(TaglessDesign):
    """Tagless cache with a runtime capacity schedule."""

    name = "tagless-resizable"
    _engine_class = ResizableTaglessEngine

    COUNTERS = ("resize_events", "resize_remapped_pages",
                "resize_evicted_pages", "resize_shootdowns")
    PROBE_COUNTERS = {
        **TaglessDesign.PROBE_COUNTERS,
        "resize_events": "resize_events",
        "resize_remapped": "resize_remapped_pages",
        "resize_evicted": "resize_evicted_pages",
        "resize_shootdowns": "resize_shootdowns",
    }
    PROBE_GAUGES = {
        **TaglessDesign.PROBE_GAUGES,
        "resize_gated_free_blocks": "resize_gated_free_blocks",
        "resize_active_occupancy": "resize_active_occupancy",
    }

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        #: Resolved (at_access, capacity_pages) events, sorted; armed
        #: via :meth:`set_resize_schedule`.
        self._resize_events: List[Tuple[int, int]] = []
        self._next_resize = 0
        self._max_remap = 0
        self.resize_events = 0
        self.resize_remapped_pages = 0
        self.resize_evicted_pages = 0
        self.resize_shootdowns = 0
        #: Per-event churn ledger (dicts); the bounded-churn invariant
        #: and the CLI's per-event table read it.
        self.resize_log: List[dict] = []

    # ------------------------------------------------------------------
    # Schedule arming
    # ------------------------------------------------------------------
    def min_capacity_pages(self) -> int:
        """Smallest legal active capacity: the cache must stay larger
        than total TLB reach (else fills starve on eviction-protected
        pages) and than the alpha reserve."""
        tlb_reach = self.config.num_cores * self.config.scaled_tlb.l2_entries
        return max(tlb_reach, self.engine.free_queue.alpha) + 1

    def set_resize_schedule(
        self,
        events: Sequence[Tuple[int, float]],
        max_remap_per_resize: int = 64,
    ) -> None:
        """Arm a capacity schedule: ``(at_access, capacity)`` pairs.

        ``capacity`` <= 1.0 is a fraction of the built capacity;
        anything larger is an absolute page count.  Capacities must stay
        within ``(min_capacity_pages(), capacity_pages]``; an
        ``at_access`` or a page count that is not a whole number raises
        :class:`~repro.common.errors.ConfigurationError`.
        """
        if max_remap_per_resize < 0:
            raise ConfigurationError("max_remap_per_resize must be >= 0")
        capacity = self.engine.capacity_pages
        floor = self.min_capacity_pages()
        resolved: List[Tuple[int, int]] = []
        for at_access, target in events:
            if at_access != int(at_access) or at_access < 1:
                raise ConfigurationError(
                    "resize at_access must be a whole access count >= 1, "
                    f"got {at_access!r}")
            target = float(target)
            if target > 1.0 and target != int(target):
                raise ConfigurationError(
                    f"resize target {target!r} is neither a fraction "
                    "(<= 1.0) nor a whole page count")
            pages = (int(round(capacity * target)) if target <= 1.0
                     else int(target))
            if pages > capacity:
                raise ConfigurationError(
                    f"resize target {pages} pages exceeds the built "
                    f"capacity of {capacity} pages"
                )
            if pages < floor:
                raise ConfigurationError(
                    f"resize target {pages} pages is below the minimum "
                    f"active capacity ({floor} pages: total TLB reach "
                    "and the alpha reserve must stay covered)"
                )
            resolved.append((int(at_access), pages))
        self._resize_events = sorted(resolved)
        self._next_resize = 0
        self._max_remap = max_remap_per_resize
        if self not in self.boundaries:
            self.boundaries.append(self)

    # ------------------------------------------------------------------
    # The resize trigger: a replay boundary source
    # ------------------------------------------------------------------
    acts_before = True  # an event acts before the access it is due at

    def next_boundary(self, count: int, end: int) -> Tuple[int, float]:
        """The access the next event is due before (the next one when
        overdue); ``end + 1`` when none is left."""
        if self._next_resize < len(self._resize_events):
            at_access = self._resize_events[self._next_resize][0]
            return max(at_access, count + 1), math.inf
        return end + 1, math.inf

    def on_boundary(self, number: int, now_ns: float, cores) -> None:
        """Apply every event due at or before access ``number``."""
        index = self._next_resize
        events = self._resize_events
        while index < len(events) and number >= events[index][0]:
            self._apply_resize(events[index][1], number, now_ns)
            index += 1
        self._next_resize = index

    # ------------------------------------------------------------------
    # The resize state machine
    # ------------------------------------------------------------------
    def _apply_resize(self, new_capacity: int, at_access: int,
                      now_ns: float) -> None:
        engine = self.engine
        fq = engine.free_queue
        old_capacity = fq.active_capacity
        event = {
            "at_access": at_access,
            "from_pages": old_capacity,
            "to_pages": new_capacity,
            "remapped": 0,
            "evicted": 0,
            "shootdowns": 0,
            "room_evictions": 0,
            "gated_free": 0,
            "ungated": 0,
            "max_remap": self._max_remap,
        }
        self.resize_events += 1
        if new_capacity > old_capacity:
            event["ungated"] = fq.ungate_to(new_capacity)
            fq.active_capacity = new_capacity
        elif new_capacity < old_capacity:
            self._shrink_to(new_capacity, now_ns, event)
        self.resize_log.append(event)
        self.trace_event("cache", "resize", now_ns, None, 0, dict(event))

    def _shrink_to(self, new_capacity: int, now_ns: float,
                   event: dict) -> None:
        engine = self.engine
        fq = engine.free_queue
        # 1. Free blocks in the doomed region: pure bookkeeping.
        event["gated_free"] = fq.gate_free_region(new_capacity)
        fq.active_capacity = new_capacity
        # 2. Refill the alpha reserve *inside* the surviving region --
        #    gating usually swallowed part of it, and the refilled
        #    blocks are what displaced pages remap onto.
        engine._maintain_alpha(now_ns)
        # 3. Displaced live pages, in address order (deterministic).
        displaced = sorted(
            ca for ca in engine.gipt._entries if ca >= new_capacity
        )
        num_cores = self.config.num_cores
        remapped = evicted = shootdowns = room_evictions = 0
        for cache_page in displaced:
            entry = engine.gipt._entries[cache_page]
            virtual_page = entry.pte.virtual_page
            mask = entry.residence_mask
            core_id = 0
            while mask:
                if mask & 1:
                    # Guarded shootdown: only drop the translation if it
                    # actually targets the displaced block -- a same-VPN
                    # entry of another process must survive.
                    peeked = self.ctlbs[core_id].hierarchy.l2.peek(
                        virtual_page
                    )
                    if (peeked is not None and not peeked.non_cacheable
                            and peeked.target_page == cache_page):
                        self.ctlbs[core_id].shootdown(virtual_page)
                        shootdowns += 1
                mask >>= 1
                core_id += 1
            if entry.residence_mask:
                # Belt-and-braces: a residence bit whose translation was
                # not found above (it should have been cleared by the
                # shootdown callback) must not block the removal.
                for cid in range(num_cores):
                    engine.gipt.clear_resident(cache_page, cid)
            if remapped < self._max_remap and fq.free_blocks == 0:
                # Make room for the remap: retire a cold *survivor*
                # (below the cut, outside every TLB's reach) through the
                # ordinary eviction path.  Displaced pages stay off
                # limits -- evicting one here would invalidate the
                # snapshot being walked.
                victim = engine.victims.select(
                    protected=lambda ca: (ca >= new_capacity
                                          or engine.gipt.is_resident(ca))
                )
                if victim is not None:
                    fq.enqueue_eviction(victim)
                    engine._drain_evictions(now_ns)
                    room_evictions += 1
            if remapped < self._max_remap and fq.free_blocks > 0:
                self._remap_page(cache_page, now_ns)
                remapped += 1
            else:
                fq.enqueue_eviction(cache_page)
                engine._drain_evictions(now_ns)
                evicted += 1
        # 4. Restore the alpha reserve within the shrunk region.
        engine._maintain_alpha(now_ns)
        event["remapped"] = remapped
        event["evicted"] = evicted
        event["shootdowns"] = shootdowns
        event["room_evictions"] = room_evictions
        self.resize_remapped_pages += remapped
        self.resize_evicted_pages += evicted
        self.resize_shootdowns += shootdowns

    def _remap_page(self, old_ca: int, now_ns: float) -> None:
        """Migrate one displaced page to a surviving free block.

        The GIPT entry moves with its dirtiness and footprint masks, the
        PTE is rewritten to the new cache address, and the old block's
        on-die lines are invalidated (its cache address is being
        retired, exactly like an eviction's recycle).  The new entry's
        ``touched_cores`` starts empty: no core holds a line of the new
        cache address yet.  Costs are charged as background traffic
        plus the conservative GIPT rewrite.
        """
        engine = self.engine
        new_ca = engine.free_queue.allocate()
        moved = engine.gipt.remove(old_ca)
        self._invalidate_ondie_page(
            old_ca, moved.touched_cores, moved.touched_mask
        )
        engine.victims.on_evicted(old_ca)
        fresh = engine.gipt.insert(new_ca, moved.physical_page, moved.pte)
        fresh.dirty = moved.dirty
        fresh.fetched_mask = moved.fetched_mask
        fresh.touched_mask = moved.touched_mask
        engine.victims.on_fill(new_ca)
        moved.pte.install_in_cache(new_ca)
        engine.free_queue.gate_page(old_ca)
        # Migration traffic: read the resident bytes out of the doomed
        # block, stream them into the survivor, rewrite the GIPT entries
        # of both addresses (two posted writes, Section 3.4's bound).
        nbytes = mask_bytes(moved.fetched_mask)
        engine.in_package.stream_page(
            now_ns, old_ca, is_write=False, asynchronous=True,
            num_bytes=nbytes,
        )
        engine.in_package.stream_page(
            now_ns, new_ca, is_write=True, asynchronous=True,
            num_bytes=nbytes,
        )
        gipt_device = (
            engine.in_package if engine.cache_config.gipt_in_package
            else engine.off_package
        )
        gipt_device.posted_write_block(
            now_ns, engine.gipt_page_of(old_ca)
        )
        gipt_device.posted_write_block(
            now_ns, engine.gipt_page_of(new_ca)
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def register_invariants(self, checker) -> None:
        super().register_invariants(checker)
        checker.register("resize_region", self._check_resize_region)
        checker.register("resize_churn_bounded", self._check_resize_churn)

    def _check_resize_region(self) -> None:
        """The gated set is exactly the powered-off upper region, and
        nothing in service lives at or above ``active_capacity``."""
        fq = self.engine.free_queue
        active = fq.active_capacity
        expected = set(range(active, fq.capacity_pages))
        if fq.gated != expected:
            missing = expected - fq.gated
            stray = fq.gated - expected
            raise SimulationError(
                f"gated region out of shape at active={active}: "
                f"missing={sorted(missing)[:8]} stray={sorted(stray)[:8]}"
            )
        for label, pages in (
            ("free", fq.free_pages()),
            ("pending", fq.pending_pages()),
            ("live", self.engine.gipt.cached_cache_pages()),
        ):
            breach = [p for p in pages if p >= active]
            if breach:
                raise SimulationError(
                    f"{label} pages {breach[:8]} lie in the power-gated "
                    f"region (active capacity {active})"
                )

    def _check_resize_churn(self) -> None:
        """Every resize event's remapping churn respects the budget."""
        for event in self.resize_log:
            if event["remapped"] > event["max_remap"]:
                raise SimulationError(
                    f"resize at access {event['at_access']} remapped "
                    f"{event['remapped']} pages, over the configured "
                    f"bound of {event['max_remap']}"
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        super().reset_stats()
        self.resize_log = []

    def stats(self) -> dict:
        out = super().stats()
        out.update(counter_stats(self, TaglessResizableDesign.COUNTERS))
        fq = self.engine.free_queue
        out["resize_gated_free_blocks"] = float(len(fq.gated))
        out["resize_active_occupancy"] = (
            fq.active_capacity / fq.capacity_pages
        )
        return out
