"""Fused replay kernel, one frame for every design.

:meth:`MemorySystemDesign.access_cycles` is the plain reference path:
one call per access into the structure models (``TLBHierarchy.lookup``,
``OnDieHierarchy.access``, the design's service hooks), stepped by the
reference loop's core-model calls.  The kernel replays every core of a
run in a single loop instead, with those models' probes and fills
written out on their dicts and every hot structure -- TLB dicts, on-die
sets, channel free-lists, timing constants -- bound to locals, the
shared ones exactly once and the per-core ones once per burst of one
core.

The frame -- argmin, segments, tenant attribution, replay boundaries,
translation hits, on-die hits and fills, the write-back router, the
DRAM demand access, counter flush -- is the same for every design.
Past the TLB, a design decides one thing: where a block lives.  Each
decides it with a read-only classification, written out in the kernel
(:data:`_CLASSIFIERS` names the designs; the tagless design and its
subclasses have their own branch):

- tagless: GIPT bookkeeping, then in package at the cache page (no
  tag check);
- ideal: in package; no-l3: off package; BI: split at
  ``in_package_pages``;
- SRAM-tag: one fused ``pop``/reinsert probe of the page's tag set; a
  hit is in package at ``set * ways + way``, behind the tag latency;
- Alloy: a slot hit is in package at the physical page; a slot miss
  probes in package, fetches the block off package and lays it into
  its slot, all inline.

One inline demand block per device -- ``DRAMDevice.access_block``'s
closed-page arithmetic with the idle-channel shortcut -- then serves the
access, and one write-back router sends each dirty on-die victim to
``write_back_block``'s arithmetic on the device its design names (an
SRAM-tag victim to its cached page, with a counted probe that marks it
dirty; an Alloy victim to its slot; a tagless one by key namespace,
marking its GIPT entry dirty).  An SRAM-tag miss calls the design's own
``_service_l2_miss``: the classification's probe left no trace, so the
hook's re-probe is exact.  A design class the kernel has no
classification for replays through the reference loop
(:func:`select_kernel`).  The TLB full miss
keeps its per-design paths: the tagless cTLB victim hit and fill run
inline, a conventional walk runs inline, a superpage calls the design's
``_refill_tlb``.

:func:`run_interleaved_batched` is the simulator's replay entry point
for bound traces, and :func:`repro.cpu.scheduled.run_schedule` for
tenant schedules.  :func:`select_kernel` picks the kernel for both;
designs it returns ``None`` for run the reference loop,
:func:`repro.cpu.multicore.replay`.  The kernel owns the multi-core
argmin: ``replay`` hands it every core, and it steps them in the
reference loop's global time order (first minimum on clock ties).  It
also attributes a tenant schedule's accesses to their tenants' QoS
records, in that same order, and stops at the replay's boundaries --
resize events, invariant sweeps, telemetry windows -- for ``replay``
to run their callbacks.

Bit-identity discipline (the golden-stats oracle compares floats with
``==``):

- Each access is first *classified with read-only probes*.  Only if the
  whole access is expressible inline does the kernel mutate anything;
  otherwise it falls back to the reference path's
  ``design.access_cycles`` call, which then performs every probe,
  counter update and side effect itself through the structure models.
  The tagless design's rare events -- superpages, NC pages, PU waits --
  therefore run the reference code.  Fills run inline in reference
  order, down to the helpers the reference fill calls (the free-queue
  pop, the GIPT insert, a FIFO tracker's fill, the posted GIPT writes'
  row buffer, the PTE rewrite); where a check of those helpers would
  fail, the kernel calls the helper, which raises as it always has.
  Evictions go to the engine's ``_maintain_alpha``, the one eviction
  path, which the reference loop takes too.  The other designs never
  fall back: their rare event, a superpage, calls the design's own
  ``_refill_tlb``.
- Integer counters are accumulated in locals (per-core ones in the
  core's slot) and flushed once at kernel exit: integer addition is
  exact and commutative, and nothing reads the counters while the
  kernel runs -- trace hooks are off (a kernel precondition) and
  boundary callbacks run after the kernel has stopped and flushed.
- Float accumulators (latency sums, queue times, energy) are
  order-sensitive, so they cannot be batch-flushed like the integers.
  They live in *seeded locals*, under one rule for every design: both
  devices' DRAM floats, the walker's cycle total and
  ``l3_latency_cycles`` are initialised from their attributes, advanced
  by the same additions in the same order as the scalar path (same
  rounding, same result) and stored back at exit; a float is a local
  only while no called hook advances it, so every call out of the
  kernel that may advance one -- a design hook, the engine's eviction
  path, the scalar fallback -- stores the locals before and reloads
  them (with both devices' refresh deadlines) after.  Calls out thus
  always see, and update, the true totals.
- A tenant's demand latencies are order-sensitive too (the histogram
  total is a float sum): the kernel appends them to a per-tenant list,
  in access order, and folds the list into its histogram with
  ``Histogram.observe_all``, which adds them in that order, whenever a
  core has appended ``_LOG_CHUNK`` of them and at exit.  Folding a prefix and
  then the rest is the same left fold, so the chunking is exact.

The kernel indexes on-die sets, DRAM channels and banks with ``% n``,
the structure models' rule, so every machine shape replays on it.  It
stands down (:func:`select_kernel`) only when an event tracer or the
off-package latency histogram is attached, since it inlines the paths
both observe, when a tagless engine predicts footprints, and for a
design class it has no classification for.  Such runs replay through
the reference loop, which produces the same numbers.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import List

from repro.common.addressing import LINES_PER_PAGE, PAGE_BYTES
from repro.core.gipt import GIPTEntry
from repro.core.policies import FIFOVictimTracker
from repro.cpu.multicore import BoundTrace, CoreResult, run_interleaved
from repro.designs.alloy import AlloyCacheDesign
from repro.designs.bank_interleave import BankInterleavingDesign
from repro.designs.base import PA_NAMESPACE_OFFSET, MemorySystemDesign
from repro.designs.ideal import IdealDesign
from repro.designs.no_l3 import NoL3Design
from repro.designs.sram_tag import SRAMTagDesign
from repro.designs.tagless_design import TaglessDesign
from repro.obs.events import null_event
from repro.vm.page_table import PageTableEntry
from repro.vm.tlb import TLBEntry


#: The classification the kernel writes out for each comparator design,
#: by exact class (the tagless design, subclasses included, has its own
#: branch).  A design class not listed replays through the reference
#: loop.
_CLASSIFIERS = {
    NoL3Design: "no-l3",
    IdealDesign: "ideal",
    BankInterleavingDesign: "bi",
    SRAMTagDesign: "sram",
    AlloyCacheDesign: "alloy",
}

#: A core folds its tenant's latency log into the histogram once it has
#: appended this many entries since its last fold, so a long attributed
#: run holds at most this many unfolded latencies per tenant and core.
_LOG_CHUNK = 4096


def _observed(design: MemorySystemDesign) -> bool:
    """True when something watches the paths the kernel inlines.

    Event tracers rebind ``trace_event`` (on the design, and on a
    tagless design's engine); telemetry hangs its latency histogram off
    the off-package device.  The kernel bypasses all three, so any one
    means it must stand down.  (Resize schedules, invariant sweeps and
    telemetry windows act at replay boundaries, which the kernel stops
    for.)
    """
    return (
        design.trace_event is not null_event
        or design.off_package.latency_histogram is not None
        or (isinstance(design, TaglessDesign)
            and design.engine.trace_event is not null_event)
    )


def select_kernel(design: MemorySystemDesign):
    """The fused kernel for ``design``, or ``None`` for the reference loop.

    Every design gets it, whatever its set and channel counts (the
    kernel indexes them with ``%``, as the structure models do), except
    when:

    - something watches the paths it inlines (:func:`_observed`);
    - a tagless engine predicts footprints;
    - the design is neither tagless nor of a class in
      :data:`_CLASSIFIERS` (the kernel has no classification for it).

    The resizable tagless variant gets it too: its capacity schedule is
    a replay boundary, not an access-path override.  The choice reads
    no class attribute, so a span tracer that wraps ``access_cycles``
    leaves it unchanged.
    """
    if _observed(design):
        return None
    if isinstance(design, TaglessDesign):
        if design.engine.footprint is not None:
            return None
    elif type(design) not in _CLASSIFIERS:
        return None
    return _run_kernel


def run_interleaved_batched(
    design: MemorySystemDesign,
    bindings: List[BoundTrace],
) -> List[CoreResult]:
    """Drop-in replacement for :func:`run_interleaved`.

    Every core runs through the fused kernel when :func:`select_kernel`
    finds one -- single-programmed workloads and multi-core mixes
    alike, in the same global event order as the reference argmin loop
    (which is what makes contention results meaningful) -- and through
    the reference loop otherwise.
    """
    return run_interleaved(design, bindings, _kernel=select_kernel(design))


def _load_floats(design: MemorySystemDesign) -> tuple:
    """The kernel's seeded floats, then both devices' refresh deadlines.

    Order: in-package dynamic energy, background busy, queue, demand
    busy and demand latency; the same five off package; the walker's
    cycle total; ``l3_latency_cycles``.
    """
    ip, off = design.in_package, design.off_package
    ip_ch, off_ch = ip.channels, off.channels
    return (ip.energy.dynamic_nj, ip_ch.background_busy_ns,
            ip_ch.queue_ns_total, ip_ch.demand_busy_ns, ip.demand_latency_ns,
            off.energy.dynamic_nj, off_ch.background_busy_ns,
            off_ch.queue_ns_total, off_ch.demand_busy_ns,
            off.demand_latency_ns, design.walker.cycles_total,
            design.l3_latency_cycles, ip._next_refresh_ns,
            off._next_refresh_ns)


def _store_floats(design: MemorySystemDesign, floats: tuple) -> None:
    """Store the kernel's seeded floats, in :func:`_load_floats` order."""
    ip, off = design.in_package, design.off_package
    ip_ch, off_ch = ip.channels, off.channels
    (ip.energy.dynamic_nj, ip_ch.background_busy_ns, ip_ch.queue_ns_total,
     ip_ch.demand_busy_ns, ip.demand_latency_ns, off.energy.dynamic_nj,
     off_ch.background_busy_ns, off_ch.queue_ns_total,
     off_ch.demand_busy_ns, off.demand_latency_ns,
     design.walker.cycles_total, design.l3_latency_cycles) = floats


# ----------------------------------------------------------------------
# The kernel: the access path of every design, fused.
# ----------------------------------------------------------------------
#: Layout of a kernel core slot (a list): per-core constants first, then
#: the per-segment values from ``segment()``, then one tuple of the
#: running values a burst stores back (one item store, not a slice).
_SEG = 12
_ACC = _SEG + 8  # the segment's access iterator (a limited burst's slice)
_REM = _SEG + 9  # the segment's remaining-accesses count
_TQ = _SEG + 10  # the segment's tenant record (None: unattributed)
_RUN = 25


def _run_kernel(design: MemorySystemDesign, active, qos, budget,
                clock_stop, *, _next=next, _iter=iter, _len=len, _min=min,
                _sum=sum, _islice=islice, _nextafter=math.nextafter) -> int:
    """Replay the cores of ``active`` against ``design``.

    ``active`` is :func:`repro.cpu.multicore.replay`'s non-empty
    active list: cursors in argmin scan order, each at a position of
    its current segment.  ``qos`` is ``replay``'s tenant id ->
    :class:`repro.cpu.scheduled.TenantQoS` map, or ``None`` for an
    unattributed run.  Returns how many accesses ran.

    ``budget`` (``None``: no limit) caps the accesses to run and
    ``clock_stop`` (``inf``: none) the core clock an access may start
    from: :func:`repro.cpu.multicore.replay` passes the distance to its
    next boundary.  The kernel then stops before the access it would
    break either limit at: it stores the model floats and the cursor
    position of every unfinished core back, takes back the instructions
    it counted up front for their unrun accesses, leaves them in
    ``active`` and flushes its counters as at the end of a run.  A later
    call re-enters mid-segment and hoists everything afresh, since the
    boundary callbacks in between (resizes above all) change the
    structures it holds.  With no limit, neither costs anything per
    access; with one, each burst counts the accesses the last one ran,
    and a burst the budget ends inside runs a slice of its segment.  A
    phantom clock at ``clock_stop`` bounds every burst's horizon.

    The kernel owns the argmin: it picks the
    core with the earliest clock (first minimum on ties) and runs it
    for a *burst*, while its clock stays ``<`` every earlier core's and
    ``<=`` every later core's -- exactly the accesses the reference
    loop would hand that core in a row, since no other clock moves
    meanwhile.  One active core has an infinite horizon.  The horizon
    is tested after each access, on the clock the next access starts
    from; a segment end is handled before it, as the reference loop
    does.

    Shared structures -- walker, both DRAM devices and their channel
    free-lists, the seeded float accumulators, and for the tagless
    design the GIPT, free queue and victim tracker -- are hoisted once
    per call, with the on-die set and DRAM channel counts the kernel
    indexes with ``%`` (any count, as in the structure models).
    Per-core state (TLB maps, on-die sets, pending write-backs, page
    table, model floats, trace cursor, same-page cache, integer
    counters) lives in a slot list per core that a switch stores and
    reloads.  At a segment end
    the kernel stores the model floats back and calls the cursor's
    ``next_segment()`` (which charges the context switch, flushes the
    TLB maps in place and retunes the model), then reloads the
    per-segment values and clears the same-page cache.

    Inlines TLB L1/L2 hits, on-die L1/L2 hits, the write-back router
    and the DRAM demand access for every design.  Where the path
    depends on the design, bools hoisted once per call (``tagless``,
    then one per comparator kind) pick the branch, on miss branches
    only:

    - **TLB full miss.**  The tagless design inlines the two paths that
      dominate its profile: the cTLB full miss resolving as an
      in-package *victim hit* (walk + GIPT residence + cTLB install,
      Figure 4's unshaded path) and the fill.  The fill calls none of
      the reference fill's helpers: ``FreeQueue.allocate``,
      ``GIPT.insert``, ``FIFOVictimTracker.on_fill`` (LRU and CLOCK
      keep the call), the first posted GIPT write's
      ``BankArray.access`` (the second is a row hit by construction)
      and ``PageTableEntry.install_in_cache`` are written out, and
      their counters are counted at flush.  An empty pool after the
      synchronous eviction, or a cache page the GIPT already holds,
      calls ``allocate`` or ``insert`` to raise.  Evictions run in the
      engine's ``_maintain_alpha``/``_drain_evictions``, one copy for
      both paths.  Its genuinely rare events leave the loop: NC pages,
      superpages, PU waits.  The other designs inline the conventional
      walk and install of
      :meth:`MemorySystemDesign._refill_tlb`; a superpage PTE calls
      that method instead (it offsets the frame into the run).  Every
      design materialises a first-touched PTE inline
      (``PageTable.entry`` for a table with no unsplit superpage; a
      table with one keeps the call).
    - **Dirty on-die write-backs.**  One router for every design: the
      design names the device and page each victim drains to (see the
      module docstring), and ``write_back_block``'s arithmetic runs
      inline for it.  SRAM-tag probes count at flush.
    - **On-die L2 miss.**  The design's classification picks the page
      and the device; the device's one inline demand block serves it
      (``access_block``'s closed-page path, with an idle-channel
      shortcut whose cost and stall are hoisted constants).  The
      SRAM-tag latency rides in the in-package block as a hoisted
      ``ip_extra`` (0.0 elsewhere, an exact no-op).  An Alloy slot
      miss runs its in-package probe, its dirty victim's write-back,
      its off-package fetch and the in-package fill inline, in
      ``AlloyCacheDesign._service_l2_miss``'s order.  An SRAM-tag
      miss calls the design's own ``_service_l2_miss``, after the
      frame's translation, so nothing is translated twice.  The
      blocks' integer counters (requests, activations, bytes, the
      designs' hit, miss and write-back counters, SRAM-tag probes)
      are counted at flush.

    Loop-level shortcuts, each a proof that some scalar work is the
    identity:

    - **Same-page run**: when an access repeats the core's previous
      virtual page, that page is by construction the most recently
      used entry of both of its TLB levels (the previous access made
      it so), and fused-LRU's move-to-end of the newest key is the
      identity permutation.  The shortcut skips the TLB dicts entirely
      and reuses the cached translation.  Trace locality makes this
      the majority case (50-95% of accesses on the SPEC-like
      generators).  Other cores cannot invalidate the cached page:
      tagless fills evict only pages no TLB holds
      (``victims.select(protected=gipt.is_resident)``), and this page
      is in its core's L2 TLB; no other design ever moves a page.  A
      TLB flush (segment end) and every scalar fallback clear the
      cache.
    - **Zero-stall exit**: with ``tlb_cycles == 0.0`` and an on-die L1
      hit, ``cost - l1_hit`` is exactly ``(0.0 + l1_hit_cycles) -
      float(l1_hit_cycles) == 0.0``, so the stall branch disappears;
      for the 0.0-TLB + on-die-L2-hit case the whole stall chain is a
      per-segment constant, computed once.
    - **Fused probes**: the scalar path's probe-then-move-to-end pair
      (``in``/``get`` + ``pop`` + reinsert) collapses to one
      ``pop(key, None)`` + reinsert -- same resulting dict order, one
      hash lookup fewer.  For NC entries the reinsert happens before
      the fallback; the scalar call then repeats a move-to-end of an
      already-MRU key, which is again the identity.
    - **Deferred instruction count**: ``instructions`` advances by
      ``gap + 1`` per access regardless of path, so a segment's total
      is ``sum(gaps) + len(gaps)`` -- integer math, exact in any
      order -- added once when the segment is loaded (to the segment's
      tenant too, in an attributed run).

    Tenant attribution (``qos`` given) matches the reference loop's
    per-access updates.  Each access adds its own cycle delta to the
    tenant's total; the sum is order-sensitive, so the kernel adds the
    delta per access (at the top of the next access, or where the burst
    or segment ends) and never a per-segment ``end - start``.  The
    context-switch charge falls between two segments' deltas, so no
    tenant gets it.  Each L3-bound access appends ``cost * cycle_ns``
    to the tenant's latency log (the list's ``append``, bound once per
    segment in the slot); a scalar fallback reads the cost from the
    design's ``_last_l3_*`` side channel instead.  Once a core has
    appended ``_LOG_CHUNK`` latencies to a log, and at exit, the log is
    folded into its tenant's demand-latency histogram
    (``Histogram.observe_all``, in log order), adds its length to the
    tenant's ``l3_accesses`` and is emptied, so a long run holds a
    bounded log.  A tenant can run on two cores whose clocks overlap,
    so its running cycle total is a
    seeded local per burst: loaded when the burst (or the segment)
    starts and stored back when it ends.  Bursts run in global order,
    so the additions land in the reference order.  In an unattributed
    run the segment's tenant record is ``None``, and the attribution
    costs one ``is not None`` test per access (two on an L3-bound one;
    an attributed L3-bound access also counts down its core's room in
    the log).

    Order-sensitive float accumulators live in *seeded locals*, one
    rule for every design: each is initialised from its attribute,
    accumulated sequentially (the same additions in the same order as
    the scalar path, hence the same rounding), and stored back at
    kernel exit.  A float is a local only while no called hook
    advances it: every call out that may advance one -- the tagless
    fallback to ``access_cycles`` and the engine's ``_maintain_alpha``,
    a comparator's ``_refill_tlb`` and SRAM-tag's ``_service_l2_miss``
    -- stores the locals before (:func:`_store_floats`) and reloads
    them and both refresh deadlines after (:func:`_load_floats`).
    The tagless per-core handler total is seeded the same way, from
    the core's slot.
    """
    # --- Shared structures and constants (identical for every core).
    first = active[0].model
    l1_hit = first._l1_hit
    cycle_ns = first._cycle_ns
    tagless = isinstance(design, TaglessDesign)
    # The comparators' classification of an on-die miss (one bool per
    # kind, hoisted once per call; select_kernel admits no other class).
    kind = None if tagless else _CLASSIFIERS[type(design)]
    sram = kind == "sram"
    no_l3 = kind == "no-l3"
    bi = kind == "bi"
    ideal = kind == "ideal"
    alloy = kind == "alloy"

    tlb0 = design.tlbs[0]
    l1_cap = tlb0.l1.capacity
    l2_cap = tlb0.l2.capacity
    tlb_l2_hit_cycles = design._tlb_l2_hit_cycles

    walker = design.walker
    walk_cycles = walker._walk_cycles
    pte_nj = walker._pte_nj
    off_pkg = design.off_package
    off_energy = off_pkg.energy
    off_ch = off_pkg.channels
    off_free = off_ch._free_at_ns
    off_bg = off_ch._bg_until_ns
    off_channels = off_ch.num_channels
    off_tr64 = off_pkg._block_transfer_ns
    off_nj = off_pkg._block_nj
    off_wb_nj = off_pkg._block_wb_nj
    off_sv = off_pkg._block_service_ns
    off_page_tr = off_pkg._page_transfer_ns
    off_preempt = off_ch.preemption_ns
    off_fill_nj = off_pkg._page_nj

    ondie0 = design.ondie[0]
    ol1_sets = ondie0.l1.num_sets
    ol1_ways = ondie0.l1._sets[0].ways
    ol2_sets = ondie0.l2.num_sets
    ol2_ways = ondie0.l2._sets[0].ways

    in_pkg = design.in_package
    ip_energy = in_pkg.energy
    ip_ch = in_pkg.channels
    ip_free = ip_ch._free_at_ns
    ip_bg = ip_ch._bg_until_ns
    ip_channels = ip_ch.num_channels
    ip_preempt = ip_ch.preemption_ns
    ip_tr = in_pkg._block_transfer_ns
    ip_sv = in_pkg._block_service_ns
    ip_nj = in_pkg._block_nj
    ip_wb_nj = in_pkg._block_wb_nj
    ip_page_tr = in_pkg._page_transfer_ns
    ip_fill_nj = in_pkg._page_nj

    l1_hit_cycles = design._l1_hit_cycles
    l2_hit_cycles = design._l2_hit_cycles
    freq = design.core_cfg.frequency_ghz
    lines_per_page = LINES_PER_PAGE
    frame_allocate = design.allocator.allocate

    # What an in-package demand access adds before its DRAM latency:
    # the SRAM tag probe, which gates every L3 access of that design
    # (its ``_service_l2_miss`` returns ``tag + latency * freq``), and
    # 0.0 elsewhere (``0.0 + x`` is ``x`` for every latency).
    ip_extra = design._tag_cycles if sram else 0.0
    # Cost of an idle-channel demand access (queue_ns == 0.0, so the
    # latency is the service constant) on each device, its demand
    # latency for attribution, and its excess in the tlb_cycles == 0.0
    # case; likewise the on-die L2 hit's.  The same expressions the
    # general path evaluates, evaluated once; ``segment()`` divides the
    # excesses by each core's MLP.
    exc0_l2 = 0.0 + l2_hit_cycles - l1_hit
    ip_l3_0 = ip_extra + ip_sv * freq
    ip_l3_ns0 = ip_l3_0 * cycle_ns
    exc0_ip = 0.0 + ip_l3_0 - l1_hit
    off_l3_0 = off_sv * freq
    off_l3_ns0 = off_l3_0 * cycle_ns
    exc0_off = 0.0 + off_l3_0 - l1_hit

    # Seeded float locals, for every design, and the mirrors of both
    # devices' refresh deadlines.  Every call out of the kernel into
    # code that may advance them stores them before (_store_floats)
    # and reloads them after (_load_floats); the exit stores them.
    (f_ip_dyn, f_ip_bg, f_ip_queue, f_ip_busy, f_ip_lat, f_off_dyn, f_off_bg,
     f_off_queue, f_off_busy, f_off_lat, f_walker, f_l3, ip_next_refresh,
     off_next_refresh) = _load_floats(design)

    if tagless:
        access_cycles = design.access_cycles
        handlers = design.handlers
        engine = design.engine
        gipt = engine.gipt
        gipt_entries = gipt._entries
        gipt_cap = gipt.capacity_pages
        gipt_insert = gipt.insert
        # FIFO ignores touches (its whole point) and its fill is
        # inline; LRU/CLOCK need both calls.
        victims = engine.victims
        fifo = type(victims) is FIFOVictimTracker
        if fifo:
            on_touch = None
            fifo_epoch = victims._epoch
            fifo_push = victims._queue.append
            fifo_live = victims._live.add
        else:
            on_touch = victims.on_touch
            on_fill_v = victims.on_fill
        free_queue = engine.free_queue
        fq_free = free_queue._free
        fq_take = fq_free.popleft
        fq_alpha = free_queue.alpha
        fq_allocate = free_queue.allocate
        maintain_alpha = engine._maintain_alpha
        gipt_base = engine.gipt_base_page

        # GIPT posted-write device (Section 3.2: the table may live in
        # either DRAM; off-package by default).
        gipt_off = not engine.cache_config.gipt_in_package
        gd = off_pkg if gipt_off else in_pkg
        gd_banks = gd.banks
        gd_rows = gd_banks._open_rows
        gd_num_banks = gd_banks._total_banks
        gd_hit_ns = gd_banks._block_hit_ns
        gd_empty_ns = gd_banks._block_empty_ns
        gd_miss_ns = gd_banks._block_miss_ns
        gd_free = gd.channels._free_at_ns
        gd_bg = gd.channels._bg_until_ns
        gd_channels = gd.channels.num_channels
        gd_tr64 = gd._block_transfer_ns
        # A write's energy with 0 and with 1 activation: the same sums
        # as ``gd_nj0 + acts * act_pre_nj`` (0 * x adds exactly 0.0).
        gd_nj0 = gd._block_wb_nj
        gd_nj1 = gd_nj0 + gd.energy.config.act_pre_nj
    else:
        refill_tlb = design._refill_tlb
        service_l2_miss = design._service_l2_miss
        if sram:
            tags = design.tags
            tag_maps = [tag_set.mapping for tag_set in tags._sets]
            tag_sets = tags.num_sets
            tag_ways = tags.ways
            tag_dirty = tags._dirty
        elif bi:
            bi_split = design.in_package_pages
        elif alloy:
            alloy_slots = design._slots
            alloy_blocks = design.num_blocks

    # Shared integer counters (GIPT, DRAM); per-core ones live in slots.
    n_gd_hits = n_gd_empties = n_gd_misses = 0  # first GIPT write's row
    n_res_evict = 0
    n_ip_write = n_off = n_off_write = n_hook = 0  # demand blocks, hooks
    n_amiss = n_avict = 0  # Alloy slot misses; those evicting dirty slots
    n_wb_ip = n_wb_off = n_wb_probe = 0  # write-backs; sram's probes

    #: Accesses each core loaded in this call, from its cursor to its
    #: segments' ends; a stop takes the unrun ones back.
    processed = [0] * _len(active)
    #: Each core's access iterator over its current segment; a limited
    #: burst runs a slice of it.
    bases = [None] * _len(active)
    #: Tenant id -> the demand latencies (ns) of its L3-bound accesses
    #: not yet in its histogram, in global order; folded in whenever it
    #: holds ``log_chunk`` of them, and at exit.
    latency_logs = {}
    log_chunk = _LOG_CHUNK

    def fold(tq, log):
        """Move ``log`` into ``tq``'s histogram, in log order; returns
        the room the emptied log has.

        Each core counts down a room of its own (``t_room``, kept in its
        slot and reset from the log's length at a segment switch) and
        folds the log when it reaches 0.  Cores that run one tenant at
        once share its log, so a log holds fewer than ``log_chunk``
        entries per such core.
        """
        tq.demand_latency.observe_all(log)
        tq.l3_accesses += _len(log)
        log.clear()
        return log_chunk

    def segment(state, k):
        """Per-segment slot values of ``state``'s current segment, from
        the cursor position on."""
        model = state.model
        gaps = state.gaps
        pos = state.pos
        # Every access advances instructions by gap + 1, inline and
        # fallback alike; integer addition is exact in any order.
        if pos:
            instructions = state.unrun_instructions()
        else:
            instructions = _sum(gaps) + _len(gaps)
        model.instructions += instructions
        tq = t_log = log = None
        if qos is not None:
            tq = qos[state.tenant_id]
            tq.instructions += instructions
            log = latency_logs.get(state.tenant_id)
            if log is None:
                log = latency_logs[state.tenant_id] = []
            t_log = log.append
        processed[k] += _len(gaps) - pos
        mlp = model.mlp
        table = design.page_table(state.process_id)
        columns = [_iter(state.pages), _iter(state.lines),
                   _iter(state.writes), _iter(gaps)]
        if pos:
            for column in columns:
                column.__setstate__(pos)
        accesses = bases[k] = zip(*columns)
        return (
            state.process_id, table._entries, table,
            model.base_cpi, mlp,
            exc0_l2 / mlp if exc0_l2 > 0 else 0.0,
            exc0_ip / mlp if exc0_ip > 0 else 0.0,
            exc0_off / mlp if exc0_off > 0 else 0.0,
            accesses, columns[0].__length_hint__, tq, t_log, log,
        )

    slots = []
    for k, state in enumerate(active):
        core_id = state.core_id
        tlb = design.tlbs[core_id]
        ondie = design.ondie[core_id]
        model = state.model
        handler = handlers[core_id] if tagless else None
        slot = [
            k, core_id, 1 << core_id, ~(1 << core_id),
            tlb.l1._map, tlb.l2._map, handler,
            [s.entries for s in ondie.l1._sets],
            [s.entries for s in ondie.l2._sets],
            ondie.pending_writebacks, state, model,
        ]
        slot += segment(state, k)
        # cycles, stall_cycles, handler total, same-page cache (last_vp
        # -1 never equals a virtual page number), the latency log's room
        # (see fold), per-core counters.
        slot.append((model.cycles, model.stall_cycles,
                     handler.cycles_total if tagless else 0.0,
                     -1, 0, 0, None, log_chunk, 0, 0, 0, 0, 0, 0, 0))
        slots.append(slot)
    all_slots = slots[:]
    clocks = [slot[_RUN][0] for slot in slots]
    inf = float("inf")
    ninf = -inf
    limited = budget is not None or clock_stop < inf
    if limited:
        if budget is None:
            budget = inf
        # A phantom last clock at the stop: every burst's horizon stays
        # at or below it, and it is the next pick once every core is
        # past it.
        clocks.append(clock_stop)
        done = 0  # accesses run by the bursts before the last one
        n0 = 0  # the last burst's segment had n0 accesses left ...
        remaining = int  # ... and has remaining() now (int() == 0)

    # The reference loop's pick: first minimum in scan order.
    index = clocks.index(_min(clocks))
    while True:
        if limited:
            # Stop at the phantom or at the budget; else run this burst
            # on a slice of the segment when the budget ends inside it.
            done += n0 - remaining()
            left = budget - done
            if index == _len(slots) or left <= 0:
                break
            slot = slots[index]
            n0 = slot[_REM]()
            accesses = bases[slot[0]]
            slot[_ACC] = _islice(accesses, left) if n0 > left else accesses
        slot = slots[index]
        (k, core_id, core_bit, clear_bit, l1_map, l2_map, handler,
         ol1_ent, ol2_ent, pending_wb, state, model,
         process_id, pte_map, table, base_cpi, mlp, st0_l2, st0_ip,
         st0_off, accesses, remaining, tq, t_log, t_list, run) = slot
        (cycles, stall_cycles, f_handler, last_vp, last_target, last_base,
         last_entry, t_room, n_fb, n_t2, n_tm, n_fill, n_o1, n_o2,
         n_owb) = run
        if tq is not None:
            # Seeded per burst: the tenant may have run on another core
            # since this core's last burst.
            t_cycles = tq.cycles
            t_start = cycles
        # Burst horizon.  The other clocks' first minimum (``nxt``) is
        # the reference loop's next pick once this core stops being
        # the first minimum: it runs while its clock stays below an
        # earlier core's (strictly) or a later core's (or equal).
        clocks[index] = inf
        following = _min(clocks)
        nxt = clocks.index(following)
        horizon = (_nextafter(following, ninf) if nxt < index
                   else following)
        live = True
        while True:
            for vp, line, w, gap in accesses:
                if tq is not None:
                    # The previous access's cycle delta (0.0 on a burst's
                    # or segment's first access, which adds exactly).
                    t_cycles += cycles - t_start
                    t_start = cycles
                cycles += gap * base_cpi

                if vp == last_vp:
                    # Same-page run: vp is the MRU key of both TLB
                    # levels, so the scalar path's move-to-end is the
                    # identity and its probes are pure counter traffic.
                    line_key = last_base + line
                    entries = ol1_ent[line_key % ol1_sets]
                    v = entries.pop(line_key, None)
                    if v is not None:
                        # Zero-stall exit: cost == l1_hit exactly.
                        n_o1 += 1
                        entries[line_key] = v or w
                        cycles += base_cpi
                        if cycles <= horizon:
                            continue
                        break
                    tlb_cycles = 0.0
                    target = last_target
                    entry = last_entry
                else:
                    # --- Translation: classify with fused probes, mutate
                    # in scalar order.  ``target`` stays -1 on every
                    # outcome that needs the scalar path (NC entries,
                    # superpages, PU waits), which reach the single
                    # fallback site below; the only state an NC
                    # classification leaves behind is the probe's own
                    # move-to-end, which the scalar re-probe repeats as
                    # the identity.
                    target = -1
                    entry = l1_map.pop(vp, None)
                    if entry is not None:
                        l1_map[vp] = entry
                        if not entry.non_cacheable:
                            moved = l2_map.pop(vp, None)
                            if moved is not None:
                                l2_map[vp] = moved
                            tlb_cycles = 0.0
                            target = entry.target_page
                    else:
                        entry = l2_map.pop(vp, None)
                        if entry is not None:
                            l2_map[vp] = entry
                            if not entry.non_cacheable:
                                n_t2 += 1
                                if _len(l1_map) >= l1_cap:
                                    del l1_map[_next(_iter(l1_map))]
                                l1_map[vp] = entry
                                tlb_cycles = tlb_l2_hit_cycles
                                target = entry.target_page
                        else:
                            now_ns = cycles * cycle_ns
                            pte = pte_map.get(vp)
                            if pte is None:
                                # Materialise the PTE exactly where the
                                # scalar walk would; it is idempotent,
                                # so a superpage/NC outcome still falls
                                # back safely.  PageTable.entry, written
                                # out for a table with no unsplit
                                # superpage.
                                if table._superpages:
                                    pte = table.entry(vp)
                                else:
                                    pte = pte_map[vp] = PageTableEntry(
                                        vp, frame_allocate())
                            if not tagless:
                                # Counted apart: n_tm inline walks,
                                # n_fill superpage refills.
                                if pte.superpage_order:
                                    # The scalar refill offsets the
                                    # frame into the superpage's run.
                                    n_fill += 1
                                    _store_floats(design, (
                                        f_ip_dyn, f_ip_bg, f_ip_queue,
                                        f_ip_busy, f_ip_lat, f_off_dyn,
                                        f_off_bg, f_off_queue, f_off_busy,
                                        f_off_lat, f_walker, f_l3))
                                    tlb_cycles, entry = refill_tlb(
                                        core_id, table, vp, now_ns, line)
                                    (f_ip_dyn, f_ip_bg, f_ip_queue, f_ip_busy,
                                     f_ip_lat, f_off_dyn, f_off_bg,
                                     f_off_queue, f_off_busy, f_off_lat,
                                     f_walker, f_l3, ip_next_refresh,
                                     off_next_refresh) = _load_floats(design)
                                    target = entry.target_page
                                else:
                                    # PageTableWalker.walk and the base
                                    # _refill_tlb, inlined.
                                    n_tm += 1
                                    f_off_dyn += pte_nj
                                    f_walker += walk_cycles
                                    target = pte.physical_page
                                    entry = TLBEntry(target, False)
                                    # TLBHierarchy.install, inlined (vp
                                    # is in neither level; no eviction
                                    # callback).
                                    if _len(l2_map) >= l2_cap:
                                        evicted_vpn = _next(_iter(l2_map))
                                        del l2_map[evicted_vpn]
                                        l2_map[vp] = entry
                                        l1_map.pop(evicted_vpn, None)
                                    else:
                                        l2_map[vp] = entry
                                    if _len(l1_map) >= l1_cap:
                                        del l1_map[_next(_iter(l1_map))]
                                    l1_map[vp] = entry
                                    tlb_cycles = walk_cycles
                            elif not (
                                pte.superpage_order != 0
                                or pte.non_cacheable
                                or pte.pending_until_ns > now_ns
                            ):
                              if pte.valid_in_cache:
                                # Victim hit (Table 1 row 3): the page
                                # is cached; the walk is the whole
                                # penalty.
                                n_tm += 1
                                f_off_dyn += pte_nj
                                f_walker += walk_cycles
                                target = pte.cache_page
                                if on_touch is not None:
                                    on_touch(target)
                                g = gipt_entries.get(target)
                                if g is None:
                                    # Raises: a cached page has an entry.
                                    gipt.set_resident(target, core_id)
                                g.residence_mask |= core_bit
                                entry = TLBEntry(target, False)
                                # TLBHierarchy.install, inlined (the
                                # probes above guarantee vp is in
                                # neither level).
                                if _len(l2_map) >= l2_cap:
                                    evicted_vpn = _next(_iter(l2_map))
                                    evicted = l2_map.pop(evicted_vpn)
                                    l2_map[vp] = entry
                                    l1_map.pop(evicted_vpn, None)
                                    # on_l2_evict: leaving TLB reach
                                    # clears residence.
                                    if not evicted.non_cacheable:
                                        g2 = gipt_entries.get(
                                            evicted.target_page)
                                        if g2 is not None:
                                            g2.residence_mask &= clear_bit
                                            n_res_evict += 1
                                else:
                                    l2_map[vp] = entry
                                if _len(l1_map) >= l1_cap:
                                    del l1_map[_next(_iter(l1_map))]
                                l1_map[vp] = entry
                                f_handler += walk_cycles
                                tlb_cycles = walk_cycles
                              else:
                                # Fill (Figure 4's shaded path): walk,
                                # allocate at the header pointer, stream
                                # the page in, post two GIPT writes,
                                # install.  Inlined from
                                # CTLBMissHandler.handle /
                                # allocate_and_fill / fill_page /
                                # stream_page / posted_write_block, in
                                # scalar order, and so are the helpers
                                # they call; their integer counters are
                                # counted at flush.  Where an inlined
                                # check fails, the helper itself is
                                # called to raise.
                                n_fill += 1
                                f_off_dyn += pte_nj
                                f_walker += walk_cycles
                                pte.pending_update = True
                                if not fq_free:
                                    # Alpha invariant broken: evict
                                    # synchronously (rare) -- run the
                                    # real engine machinery over the
                                    # true totals.
                                    _store_floats(design, (
                                        f_ip_dyn, f_ip_bg, f_ip_queue,
                                        f_ip_busy, f_ip_lat, f_off_dyn,
                                        f_off_bg, f_off_queue, f_off_busy,
                                        f_off_lat, f_walker, f_l3))
                                    maintain_alpha(now_ns)
                                    (f_ip_dyn, f_ip_bg, f_ip_queue, f_ip_busy,
                                     f_ip_lat, f_off_dyn, f_off_bg,
                                     f_off_queue, f_off_busy, f_off_lat,
                                     f_walker, f_l3, ip_next_refresh,
                                     off_next_refresh) = _load_floats(design)
                                    if not fq_free:
                                        fq_allocate()  # raises: no block
                                # FreeQueue.allocate and GIPT.insert.
                                target = fq_take()
                                if (target in gipt_entries
                                        or not 0 <= target < gipt_cap):
                                    gipt_insert(target, pte.physical_page,
                                                pte)  # raises
                                g = gipt_entries[target] = GIPTEntry(
                                    pte.physical_page, pte)
                                # Protect the page for the filling core
                                # before any victim is chosen
                                # (allocate_and_fill's first
                                # set_resident).
                                g.residence_mask |= core_bit
                                if fifo:
                                    # FIFOVictimTracker.on_fill.
                                    epoch = fifo_epoch.get(target, 0) + 1
                                    fifo_epoch[target] = epoch
                                    fifo_push((target, epoch))
                                    fifo_live(target)
                                else:
                                    on_fill_v(target)
                                # fill_page: demand-read the page from
                                # off-package DRAM, critical block
                                # first.
                                if now_ns >= off_next_refresh:
                                    off_pkg._catch_up_refresh(now_ns)
                                    off_next_refresh = off_pkg._next_refresh_ns
                                ch = pte.physical_page % off_channels
                                start = off_free[ch]
                                if start < now_ns:
                                    start = now_ns
                                bg_until = off_bg[ch]
                                if bg_until > start:
                                    start = start + off_preempt
                                    if bg_until < start:
                                        start = bg_until
                                queue_ns = start - now_ns
                                off_free[ch] = start + off_page_tr
                                f_off_queue += queue_ns
                                f_off_busy += off_page_tr
                                f_off_dyn += off_fill_nj
                                fill_ns = queue_ns + off_sv
                                f_off_lat += fill_ns
                                # stream_page: lay the page into the
                                # cache behind the read (background
                                # traffic).
                                if now_ns >= ip_next_refresh:
                                    in_pkg._catch_up_refresh(now_ns)
                                    ip_next_refresh = in_pkg._next_refresh_ns
                                ch = target % ip_channels
                                start = now_ns
                                if ip_bg[ch] > start:
                                    start = ip_bg[ch]
                                if ip_free[ch] > start:
                                    start = ip_free[ch]
                                ip_bg[ch] = start + ip_page_tr
                                f_ip_bg += ip_page_tr
                                f_ip_dyn += ip_fill_nj
                                # Two posted GIPT writes (Section 3.4),
                                # open-page: the header pointer's
                                # sequential walk gives them high row
                                # locality.  The first one's
                                # BankArray.access, inlined:
                                gipt_page = gipt_base + (target >> 8)
                                gch = gipt_page % gd_channels
                                bank = gipt_page % gd_num_banks
                                open_row = gd_rows.get(bank)
                                if open_row == gipt_page:
                                    n_gd_hits += 1
                                    sv2 = gd_hit_ns
                                    gd_nj = gd_nj0
                                else:
                                    gd_rows[bank] = gipt_page
                                    if open_row is None:
                                        n_gd_empties += 1
                                        sv2 = gd_empty_ns
                                    else:
                                        n_gd_misses += 1
                                        sv2 = gd_miss_ns
                                    gd_nj = gd_nj1
                                start = now_ns + fill_ns
                                if gd_bg[gch] > start:
                                    start = gd_bg[gch]
                                if gd_free[gch] > start:
                                    start = gd_free[gch]
                                gd_bg[gch] = start + gd_tr64
                                if gipt_off:
                                    f_off_bg += gd_tr64
                                    f_off_dyn += gd_nj
                                else:
                                    f_ip_bg += gd_tr64
                                    f_ip_dyn += gd_nj
                                fill_ns += sv2
                                # The second write opens nothing: it hits
                                # the row the first one left open (the
                                # same page, nothing in between).
                                start = now_ns + fill_ns
                                if gd_bg[gch] > start:
                                    start = gd_bg[gch]
                                if gd_free[gch] > start:
                                    start = gd_free[gch]
                                gd_bg[gch] = start + gd_tr64
                                if gipt_off:
                                    f_off_bg += gd_tr64
                                    f_off_dyn += gd_nj0
                                else:
                                    f_ip_bg += gd_tr64
                                    f_ip_dyn += gd_nj0
                                fill_ns += gd_hit_ns
                                # PageTableEntry.install_in_cache.
                                pte.cache_page = target
                                pte.valid_in_cache = True
                                engine.fill_latency_ns += fill_ns
                                if _len(fq_free) < fq_alpha:
                                    # Asynchronous eviction (Figure 5):
                                    # the engine helper reads the true
                                    # totals.
                                    _store_floats(design, (
                                        f_ip_dyn, f_ip_bg, f_ip_queue,
                                        f_ip_busy, f_ip_lat, f_off_dyn,
                                        f_off_bg, f_off_queue, f_off_busy,
                                        f_off_lat, f_walker, f_l3))
                                    maintain_alpha(now_ns)
                                    (f_ip_dyn, f_ip_bg, f_ip_queue, f_ip_busy,
                                     f_ip_lat, f_off_dyn, f_off_bg,
                                     f_off_queue, f_off_busy, f_off_lat,
                                     f_walker, f_l3, ip_next_refresh,
                                     off_next_refresh) = _load_floats(design)
                                pte.pending_until_ns = now_ns + fill_ns
                                pte.pending_update = False
                                # The handler's second set_resident (a
                                # no-op bitwise OR; counted at flush).
                                g.residence_mask |= core_bit
                                entry = TLBEntry(target, False)
                                # TLBHierarchy.install, inlined (the
                                # probes above guarantee vp is in
                                # neither level).
                                if _len(l2_map) >= l2_cap:
                                    evicted_vpn = _next(_iter(l2_map))
                                    evicted = l2_map.pop(evicted_vpn)
                                    l2_map[vp] = entry
                                    l1_map.pop(evicted_vpn, None)
                                    if not evicted.non_cacheable:
                                        g2 = gipt_entries.get(
                                            evicted.target_page)
                                        if g2 is not None:
                                            g2.residence_mask &= clear_bit
                                            n_res_evict += 1
                                else:
                                    l2_map[vp] = entry
                                if _len(l1_map) >= l1_cap:
                                    del l1_map[_next(_iter(l1_map))]
                                l1_map[vp] = entry
                                h_cycles = walk_cycles + fill_ns * freq
                                f_handler += h_cycles
                                tlb_cycles = h_cycles
                    if target < 0:
                        # The one scalar-fallback site: store the seeded
                        # float locals (the core's handler total too) so
                        # access_cycles sees true totals, reload after
                        # (it advanced them), and invalidate the
                        # same-page cache.
                        _store_floats(design, (
                            f_ip_dyn, f_ip_bg, f_ip_queue, f_ip_busy, f_ip_lat,
                            f_off_dyn, f_off_bg, f_off_queue, f_off_busy,
                            f_off_lat, f_walker, f_l3))
                        handler.cycles_total = f_handler
                        n_fb += 1
                        cost = access_cycles(
                            core_id, process_id, vp, line, w,
                            cycles * cycle_ns
                        )
                        (f_ip_dyn, f_ip_bg, f_ip_queue, f_ip_busy, f_ip_lat,
                         f_off_dyn, f_off_bg, f_off_queue, f_off_busy,
                         f_off_lat, f_walker, f_l3, ip_next_refresh,
                         off_next_refresh) = _load_floats(design)
                        f_handler = handler.cycles_total
                        last_vp = -1
                        if tq is not None and design._last_l3_involved:
                            t_log(design._last_l3_cycles * cycle_ns)
                            t_room -= 1
                            if not t_room:
                                t_room = fold(tq, t_list)
                        cycles += base_cpi
                        excess = cost - l1_hit
                        if excess > 0:
                            stall = excess / mlp
                            cycles += stall
                            stall_cycles += stall
                        if cycles <= horizon:
                            continue
                        break
                    last_vp = vp
                    last_target = target
                    last_base = target * lines_per_page
                    last_entry = entry
                    line_key = last_base + line
                    entries = ol1_ent[line_key % ol1_sets]
                    v = entries.pop(line_key, None)
                    if v is not None:
                        n_o1 += 1
                        entries[line_key] = v or w
                        cycles += base_cpi
                        if tlb_cycles:
                            excess = tlb_cycles + l1_hit_cycles - l1_hit
                            if excess > 0:
                                stall = excess / mlp
                                cycles += stall
                                stall_cycles += stall
                        if cycles <= horizon:
                            continue
                        break

                # --- On-die L1 miss (CA key space; NC never reaches
                # here).
                if pending_wb:
                    pending_wb.clear()
                l2_entries = ol2_ent[line_key % ol2_sets]
                v = l2_entries.pop(line_key, None)
                if v is not None:
                    n_o2 += 1
                    l2_entries[line_key] = v or w
                    hit_l2 = True
                else:
                    if _len(l2_entries) >= ol2_ways:
                        victim = _next(_iter(l2_entries))
                        if l2_entries.pop(victim):
                            pending_wb.append(victim)
                            n_owb += 1
                    l2_entries[line_key] = False
                    hit_l2 = False
                if _len(entries) >= ol1_ways:
                    victim = _next(_iter(entries))
                    if entries.pop(victim):
                        spill_entries = ol2_ent[victim % ol2_sets]
                        if victim in spill_entries:
                            spill_entries[victim] = True
                        else:
                            if _len(spill_entries) >= ol2_ways:
                                spilled = _next(_iter(spill_entries))
                                if spill_entries.pop(spilled):
                                    pending_wb.append(spilled)
                                    n_owb += 1
                            spill_entries[victim] = True
                entries[line_key] = w
                if pending_wb:
                    # --- The one write-back router: _route_writebacks,
                    # _writeback_line and DRAMDevice.write_back_block,
                    # inlined.  The design names the device a dirty
                    # victim drains to (``home``: off package) and its
                    # page there; // LINES_PER_PAGE is >> 6.
                    now_ns = cycles * cycle_ns
                    for wline in pending_wb:
                        if tagless:
                            # By key namespace; an in-package victim
                            # dirties its cached page.
                            home = wline >= PA_NAMESPACE_OFFSET
                            if home:
                                wpage = (wline - PA_NAMESPACE_OFFSET) >> 6
                            else:
                                wpage = wline >> 6
                                g2 = gipt_entries.get(wpage)
                                if g2 is not None:
                                    g2.dirty = True
                        elif sram:
                            # SRAMTagArray.contains, then lookup's hit (a
                            # counted probe, MRU, dirty), fused into one
                            # probe of the set.
                            wpage = wline >> 6
                            tag_set = wpage % tag_sets
                            tag_map = tag_maps[tag_set]
                            way = tag_map.pop(wpage, None)
                            home = way is None
                            if not home:
                                tag_map[wpage] = way
                                n_wb_probe += 1
                                wpage = tag_set * tag_ways + way
                                tag_dirty[wpage] = True
                        elif alloy:
                            wpage = wline >> 6
                            aslot = wline % alloy_blocks
                            home = (aslot not in alloy_slots
                                    or alloy_slots[aslot][0] != wline)
                            if not home:
                                alloy_slots[aslot] = (wline, True)
                        else:
                            wpage = wline >> 6
                            if bi:
                                home = wpage >= bi_split
                                if home:
                                    wpage -= bi_split
                            else:
                                home = no_l3
                        if home:
                            ch = wpage % off_channels
                            start = now_ns
                            if off_bg[ch] > start:
                                start = off_bg[ch]
                            if off_free[ch] > start:
                                start = off_free[ch]
                            off_bg[ch] = start + off_tr64
                            f_off_bg += off_tr64
                            f_off_dyn += off_wb_nj
                            n_wb_off += 1
                        else:
                            ch = wpage % ip_channels
                            start = now_ns
                            if ip_bg[ch] > start:
                                start = ip_bg[ch]
                            if ip_free[ch] > start:
                                start = ip_free[ch]
                            ip_bg[ch] = start + ip_tr
                            f_ip_bg += ip_tr
                            f_ip_dyn += ip_wb_nj
                            n_wb_ip += 1
                if hit_l2:
                    cycles += base_cpi
                    if tlb_cycles:
                        excess = tlb_cycles + l2_hit_cycles - l1_hit
                        if excess > 0:
                            stall = excess / mlp
                            cycles += stall
                            stall_cycles += stall
                    elif st0_l2:
                        cycles += st0_l2
                        stall_cycles += st0_l2
                    if cycles <= horizon:
                        continue
                    break

                # --- L3 service.  The design classifies where the
                # block lives, read-only; one demand block per device
                # serves it.
                if tagless:
                    # A DRAM-cache hit by construction: no tag check.
                    g = gipt_entries.get(target)
                    if g is None:
                        design._service_l2_miss(  # canonical raise
                            core_id, entry, vp, line, w, cycles * cycle_ns
                        )
                    if on_touch is not None:
                        on_touch(target)
                    g.touched_mask |= 1 << line
                    g.touched_cores |= core_bit
                    if w:
                        g.dirty = True
                    ch = target % ip_channels
                else:
                    # ``ch``: in package, on that channel; else
                    # ``home``: off package at that page; else a tag
                    # or slot miss.
                    ch = home = -1
                    if sram:
                        # SRAMTagArray.lookup as one fused probe: a hit
                        # moves the page to MRU (and marks its cache
                        # page dirty on a write); a miss leaves no
                        # trace, so the hook's own probe repeats it.
                        tag_set = target % tag_sets
                        tag_map = tag_maps[tag_set]
                        way = tag_map.pop(target, None)
                        if way is not None:
                            tag_map[target] = way
                            page = tag_set * tag_ways + way
                            ch = page % ip_channels
                            if w:
                                tag_dirty[page] = True
                    elif alloy:
                        # A slot hit: the TAD read is the whole access.
                        aslot = line_key % alloy_blocks
                        resident = alloy_slots.get(aslot)
                        if resident is not None and resident[0] == line_key:
                            ch = target % ip_channels
                            if w and not resident[1]:
                                alloy_slots[aslot] = (line_key, True)
                    elif no_l3:
                        home = target
                    elif bi:
                        if target < bi_split:
                            ch = target % ip_channels
                        else:
                            home = target - bi_split
                    elif ideal:
                        ch = target % ip_channels
                    if ch < 0:
                        now_ns = cycles * cycle_ns
                        if home < 0:
                            if alloy:
                                # A slot miss: AlloyCacheDesign's
                                # _service_l2_miss, inlined.  The TAD
                                # probe in package, the dirty victim's
                                # write-back and the block's fetch off
                                # package, then the block laid into its
                                # slot behind the fetch; the same
                                # arithmetic as the demand blocks and
                                # the router, in the hook's order.
                                n_amiss += 1
                                n_ip_write += w
                                if now_ns >= ip_next_refresh:
                                    in_pkg._catch_up_refresh(now_ns)
                                    ip_next_refresh = in_pkg._next_refresh_ns
                                ch = target % ip_channels
                                start = ip_free[ch]
                                if start < now_ns:
                                    start = now_ns
                                bg_until = ip_bg[ch]
                                if bg_until > start:
                                    start = start + ip_preempt
                                    if bg_until < start:
                                        start = bg_until
                                queue_ns = start - now_ns
                                ip_free[ch] = start + ip_tr
                                f_ip_queue += queue_ns
                                f_ip_busy += ip_tr
                                f_ip_dyn += ip_nj
                                probe_ns = queue_ns + ip_sv
                                f_ip_lat += probe_ns
                                if resident is not None and resident[1]:
                                    n_avict += 1
                                    n_wb_off += 1
                                    home = (resident[0] >> 6) % off_channels
                                    start = now_ns
                                    if off_bg[home] > start:
                                        start = off_bg[home]
                                    if off_free[home] > start:
                                        start = off_free[home]
                                    off_bg[home] = start + off_tr64
                                    f_off_bg += off_tr64
                                    f_off_dyn += off_wb_nj
                                if now_ns >= off_next_refresh:
                                    off_pkg._catch_up_refresh(now_ns)
                                    off_next_refresh = off_pkg._next_refresh_ns
                                home = target % off_channels
                                start = off_free[home]
                                if start < now_ns:
                                    start = now_ns
                                bg_until = off_bg[home]
                                if bg_until > start:
                                    start = start + off_preempt
                                    if bg_until < start:
                                        start = bg_until
                                queue_ns = start - now_ns
                                off_free[home] = start + off_tr64
                                f_off_queue += queue_ns
                                f_off_busy += off_tr64
                                f_off_dyn += off_nj
                                fill_ns = queue_ns + off_sv
                                f_off_lat += fill_ns
                                start = now_ns
                                if ip_bg[ch] > start:
                                    start = ip_bg[ch]
                                if ip_free[ch] > start:
                                    start = ip_free[ch]
                                ip_bg[ch] = start + ip_tr
                                f_ip_bg += ip_tr
                                f_ip_dyn += ip_wb_nj
                                n_wb_ip += 1
                                alloy_slots[aslot] = (line_key, w)
                                cost = tlb_cycles + (probe_ns + fill_ns) * freq
                            else:
                                # An SRAM-tag miss: the design's own
                                # service, on the frame's translation,
                                # with the seeded floats stored around
                                # the call.
                                n_hook += 1
                                _store_floats(design, (
                                    f_ip_dyn, f_ip_bg, f_ip_queue, f_ip_busy,
                                    f_ip_lat, f_off_dyn, f_off_bg,
                                    f_off_queue, f_off_busy, f_off_lat,
                                    f_walker, f_l3))
                                cost = tlb_cycles + service_l2_miss(
                                    core_id, entry, vp, line, w, now_ns)
                                (f_ip_dyn, f_ip_bg, f_ip_queue, f_ip_busy,
                                 f_ip_lat, f_off_dyn, f_off_bg, f_off_queue,
                                 f_off_busy, f_off_lat, f_walker, f_l3,
                                 ip_next_refresh,
                                 off_next_refresh) = _load_floats(design)
                        else:
                            # --- Off-package demand block: access_block's
                            # closed-page path, inlined.
                            if now_ns >= off_next_refresh:
                                off_pkg._catch_up_refresh(now_ns)
                                off_next_refresh = off_pkg._next_refresh_ns
                            ch = home % off_channels
                            n_off += 1
                            n_off_write += w
                            if off_free[ch] <= now_ns and off_bg[ch] <= now_ns:
                                # Idle channel (see the in-package block).
                                off_free[ch] = now_ns + off_tr64
                                f_off_busy += off_tr64
                                f_off_dyn += off_nj
                                f_off_lat += off_sv
                                cycles += base_cpi
                                if tlb_cycles:
                                    cost = tlb_cycles + off_l3_0
                                    f_l3 += cost
                                    if tq is not None:
                                        t_log(cost * cycle_ns)
                                        t_room -= 1
                                        if not t_room:
                                            t_room = fold(tq, t_list)
                                    excess = cost - l1_hit
                                    if excess > 0:
                                        stall = excess / mlp
                                        cycles += stall
                                        stall_cycles += stall
                                else:
                                    f_l3 += off_l3_0
                                    if tq is not None:
                                        t_log(off_l3_ns0)
                                        t_room -= 1
                                        if not t_room:
                                            t_room = fold(tq, t_list)
                                    if st0_off:
                                        cycles += st0_off
                                        stall_cycles += st0_off
                                if cycles <= horizon:
                                    continue
                                break
                            start = off_free[ch]
                            if start < now_ns:
                                start = now_ns
                            bg_until = off_bg[ch]
                            if bg_until > start:
                                start = start + off_preempt
                                if bg_until < start:
                                    start = bg_until
                            queue_ns = start - now_ns
                            off_free[ch] = start + off_tr64
                            f_off_queue += queue_ns
                            f_off_busy += off_tr64
                            f_off_dyn += off_nj
                            latency = queue_ns + off_sv
                            f_off_lat += latency
                            cost = tlb_cycles + latency * freq
                        f_l3 += cost
                        if tq is not None:
                            t_log(cost * cycle_ns)
                            t_room -= 1
                            if not t_room:
                                t_room = fold(tq, t_list)
                        cycles += base_cpi
                        excess = cost - l1_hit
                        if excess > 0:
                            stall = excess / mlp
                            cycles += stall
                            stall_cycles += stall
                        if cycles <= horizon:
                            continue
                        break

                # --- In-package demand block: access_block's
                # closed-page path, inlined, on channel ``ch``.
                now_ns = cycles * cycle_ns
                if now_ns >= ip_next_refresh:
                    in_pkg._catch_up_refresh(now_ns)
                    ip_next_refresh = in_pkg._next_refresh_ns
                n_ip_write += w
                if ip_free[ch] <= now_ns and ip_bg[ch] <= now_ns:
                    # Idle channel: queue_ns is exactly 0.0, so the
                    # queue add is the identity (the accumulator is
                    # never -0.0) and the latency is the precomputed
                    # service constant.
                    ip_free[ch] = now_ns + ip_tr
                    f_ip_busy += ip_tr
                    f_ip_dyn += ip_nj
                    f_ip_lat += ip_sv
                    cycles += base_cpi
                    if tlb_cycles:
                        cost = tlb_cycles + ip_l3_0
                        f_l3 += cost
                        if tq is not None:
                            t_log(cost * cycle_ns)
                            t_room -= 1
                            if not t_room:
                                t_room = fold(tq, t_list)
                        excess = cost - l1_hit
                        if excess > 0:
                            stall = excess / mlp
                            cycles += stall
                            stall_cycles += stall
                    else:
                        f_l3 += ip_l3_0
                        if tq is not None:
                            t_log(ip_l3_ns0)
                            t_room -= 1
                            if not t_room:
                                t_room = fold(tq, t_list)
                        if st0_ip:
                            cycles += st0_ip
                            stall_cycles += st0_ip
                    if cycles <= horizon:
                        continue
                    break
                start = ip_free[ch]
                if start < now_ns:
                    start = now_ns
                bg_until = ip_bg[ch]
                if bg_until > start:
                    start = start + ip_preempt
                    if bg_until < start:
                        start = bg_until
                queue_ns = start - now_ns
                ip_free[ch] = start + ip_tr
                f_ip_queue += queue_ns
                f_ip_busy += ip_tr
                f_ip_dyn += ip_nj
                latency = queue_ns + ip_sv
                f_ip_lat += latency
                cost = tlb_cycles + (ip_extra + latency * freq)
                f_l3 += cost
                if tq is not None:
                    t_log(cost * cycle_ns)
                    t_room -= 1
                    if not t_room:
                        t_room = fold(tq, t_list)
                cycles += base_cpi
                excess = cost - l1_hit
                if excess > 0:
                    stall = excess / mlp
                    cycles += stall
                    stall_cycles += stall
                if cycles > horizon:
                    break

            if tq is not None:
                # The last access of the burst or the segment; stored
                # back for the tenant's next burst on any core.
                tq.cycles = t_cycles + (cycles - t_start)
            if remaining():
                break  # horizon reached inside the segment
            # Segment end: store the model floats and move on, as the
            # reference loop does right after a segment's last access.
            model.cycles = cycles
            model.stall_cycles = stall_cycles
            if not state.next_segment():
                live = False
                break
            seg = slot[_SEG:_RUN] = segment(state, k)
            (process_id, pte_map, table, base_cpi, mlp, st0_l2, st0_ip,
             st0_off, accesses, remaining, tq, t_log, t_list) = seg
            cycles = model.cycles  # plus the context-switch charge
            last_vp = -1  # the TLB may have been flushed
            if tq is not None:
                # The switch charge belongs to no tenant.
                t_cycles = tq.cycles
                t_start = cycles
                t_room = log_chunk - _len(t_list)
                if t_room <= 0:
                    t_room = fold(tq, t_list)
            if limited:
                done += n0
                n0 = remaining()
                if n0 > budget - done:
                    accesses = _islice(accesses, budget - done)
            if cycles > horizon:
                break

        slot[_RUN] = (cycles, stall_cycles, f_handler, last_vp, last_target,
                      last_base, last_entry, t_room,
                      n_fb, n_t2, n_tm, n_fill, n_o1, n_o2, n_owb)
        if live:
            clocks[index] = cycles
            index = nxt
        else:
            del slots[index]  # preserves scan order of the rest
            del clocks[index]
            if not slots:
                break
            index = nxt - (nxt > index)

    # After a stop, hand every unfinished core back at its position.
    for slot in slots:
        k, state, model, tq, run = (slot[0], slot[10], slot[11],
                                    slot[_TQ], slot[_RUN])
        model.cycles = run[0]
        model.stall_cycles = run[1]
        state.pos = state.length - slot[_REM]()
        unrun = state.unrun_instructions()
        model.instructions -= unrun
        if tq is not None:
            tq.instructions -= unrun
        processed[k] -= state.length - state.pos
    active[:] = [slot[10] for slot in slots]

    # Float store-back (each was accumulated in scalar order), and each
    # tenant's latency log folded into its histogram in that order.
    _store_floats(design, (
        f_ip_dyn, f_ip_bg, f_ip_queue, f_ip_busy, f_ip_lat, f_off_dyn,
        f_off_bg, f_off_queue, f_off_busy, f_off_lat, f_walker, f_l3))
    for tenant_id, log in latency_logs.items():
        fold(qos[tenant_id], log)

    # Integer-counter flush (exact + commutative, hence deferrable).
    # Only the rarer outcomes were counted; the hot ones follow by
    # subtraction (every inline access is exactly one of t1/t2/tm/fill
    # and exactly one of o1/o2/om).  For the other designs tm counts
    # the inline walks and fill the superpage refills.
    tot_acc = tot_tw = tot_tm = tot_fill = tot_om = 0
    for slot in all_slots:
        core_id = slot[1]
        run = slot[_RUN]
        n_fb, n_t2, n_tm, n_fill, n_o1, n_o2, n_owb = run[8:]
        if tagless:
            handler = slot[6]
            handler.cycles_total = run[2]
            handler.victim_hit += n_tm
            handler.fill += n_fill
        n_acc = processed[slot[0]] - n_fb
        n_t1 = n_acc - n_t2 - n_tm - n_fill
        n_tw = n_tm + n_fill  # TLB full misses (each walked)
        n_om = n_acc - n_o1 - n_o2
        tlb = design.tlbs[core_id]
        tlb.l1.hits += n_t1
        tlb.l1.misses += n_t2 + n_tw
        tlb.l2.hits += n_t2
        tlb.l2.misses += n_tw
        tlb.l1_hits += n_t1
        tlb.l2_hits += n_t2
        tlb.misses += n_tw
        ondie = design.ondie[core_id]
        ondie.l1.hits += n_o1
        ondie.l1.misses += n_o2 + n_om
        ondie.l2.hits += n_o2
        ondie.l2.misses += n_om
        ondie.l1_hits += n_o1
        ondie.l2_hits += n_o2
        ondie.misses += n_om
        ondie.writebacks += n_owb
        tot_acc += n_acc
        tot_tw += n_tw
        tot_tm += n_tm
        tot_fill += n_fill
        tot_om += n_om
    design.accesses += tot_acc
    design.l3_accesses += tot_om
    # Every inline L3-bound access ran exactly one of the in-package
    # demand block, the off-package one and a hook (which counts its
    # own work), but an Alloy slot miss, which ran both blocks.
    n_ip = tot_om - n_off - n_hook
    n_off += n_amiss
    in_pkg.demand_accesses += n_ip
    ip_ch.requests += n_ip
    ip_energy.activations += n_ip
    ip_energy.read_bytes += 64 * (n_ip - n_ip_write)
    ip_energy.write_bytes += 64 * (n_ip_write + n_wb_ip)
    off_pkg.demand_accesses += n_off
    off_ch.requests += n_off
    off_energy.activations += n_off
    off_energy.read_bytes += 64 * (n_off - n_off_write)
    off_energy.write_bytes += 64 * (n_off_write + n_wb_off)
    if not tagless:
        # The superpage refills counted their own walks.
        walker.walks += tot_tm
        off_energy.read_bytes += 8 * tot_tm
        # The in-package blocks were the designs' hits.
        if sram:
            design.l3_hits += n_ip
            tags.probes += n_ip + n_wb_probe
            tags.hits += n_ip + n_wb_probe
        elif alloy:
            design.l3_hits += n_ip - n_amiss
            design.l3_misses += n_amiss
            design.l3_writebacks += n_avict
        elif bi:
            design.in_package_hits += n_ip
        return _sum(processed)
    walker.walks += tot_tw
    off_energy.read_bytes += 8 * tot_tw + PAGE_BYTES * tot_fill
    off_energy.activations += tot_fill
    engine.victim_hits += tot_tm
    engine.fills += tot_fill
    free_queue.allocations += tot_fill
    gipt.inserts += tot_fill
    gipt.residence_updates += tot_tm + n_res_evict + 2 * tot_fill
    design.cache_accesses += tot_om
    ip_energy.activations += tot_fill
    ip_energy.write_bytes += PAGE_BYTES * tot_fill
    off_ch.requests += tot_fill
    off_pkg.demand_accesses += tot_fill
    # Posted GIPT writes: two 64 B stores per fill on whichever device
    # hosts the table, with data-dependent activations (row buffer);
    # every second write is a row hit.
    gd_banks.row_hits += n_gd_hits + tot_fill
    gd_banks.row_empties += n_gd_empties
    gd_banks.row_misses += n_gd_misses
    gd_energy = off_energy if gipt_off else ip_energy
    gd_energy.activations += n_gd_empties + n_gd_misses
    gd_energy.write_bytes += 128 * tot_fill
    return _sum(processed)
