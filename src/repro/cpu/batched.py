"""Fused replay kernel for the tagless design.

:meth:`MemorySystemDesign.access_cycles` is a single hand-inlined
function; the remaining per-access overhead is the *call* into it (and,
inside, the per-access re-hoisting of every structure the path touches).
The tagless kernel removes both: it replays every core of a run in a
single loop with every hot structure -- cTLB dicts, on-die sets, GIPT,
channel free-lists, timing constants -- bound to locals, the shared ones
exactly once and the per-core ones once per burst of one core.  The
tagless hit path has no tag check (the cTLB hands out a cache address
directly), so the fused loop covers almost every access.

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
to run their callbacks.  A fused loop for the other designs' shared
path was measured no faster than the reference loop, so none exists.

Bit-identity discipline (the golden-stats oracle compares floats with
``==``):

- Each access is first *classified with read-only probes*.  Only if the
  whole access is expressible inline does the kernel mutate anything;
  otherwise it falls back to the untouched scalar
  ``design.access_cycles`` call, which then performs every probe,
  counter update and side effect itself.  Rare events -- superpages,
  NC pages, PU waits -- therefore run the exact scalar code; fills run
  inline in scalar order and hand evictions to the engine's own helper.
- Integer counters are accumulated in locals (per-core ones in the
  core's slot) and flushed once at kernel exit: integer addition is
  exact and commutative, and nothing reads the counters while the
  kernel runs -- trace hooks are off (a kernel precondition) and
  boundary callbacks run after the kernel has stopped and flushed.
- Float accumulators (latency sums, queue times, energy) are
  order-sensitive, so they cannot be batch-flushed like the integers.
  Instead each lives in a *seeded local*: initialised from its
  attribute, advanced by the same additions in the same order as the
  scalar path (same rounding, same result), stored back at exit.  The
  scalar-fallback site flushes the locals first and reloads after, so
  fallback accesses always see -- and update -- the true totals.

The kernel runs only when no event tracer and no latency histogram is
attached: it inlines the paths both observe.  Such runs replay through
the reference loop, which produces the same numbers.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import List

from repro.common.addressing import LINES_PER_PAGE, PAGE_BYTES
from repro.core.policies import FIFOVictimTracker
from repro.cpu.multicore import BoundTrace, CoreResult, run_interleaved
from repro.designs.base import PA_NAMESPACE_OFFSET, MemorySystemDesign
from repro.designs.tagless_design import TaglessDesign
from repro.obs.events import null_event
from repro.vm.tlb import TLBEntry


def _observed(design: MemorySystemDesign) -> bool:
    """True when something watches the paths the kernel inlines.

    Event tracers rebind ``trace_event``; latency histograms hang off
    the DRAM devices.  The kernel bypasses both, so either means it
    must stand down.  (Resize schedules, invariant sweeps and telemetry
    windows act at replay boundaries, which the kernel stops for.)
    """
    return (
        design.trace_event is not null_event
        or design.in_package.latency_histogram is not None
        or design.off_package.latency_histogram is not None
    )


def select_kernel(design: MemorySystemDesign):
    """The fused kernel for ``design``, or ``None`` for the reference loop.

    Every tagless design gets it, the resizable variant included: its
    capacity schedule is a replay boundary, not an access-path
    override.  The choice reads no class attribute, so a span tracer
    that wraps ``access_cycles`` leaves it unchanged.
    """
    if not isinstance(design, TaglessDesign) or _observed(design):
        return None
    engine = design.engine
    ondie = design.ondie[0]
    pow2 = all(
        n & (n - 1) == 0
        for n in (
            ondie.l1.num_sets,
            ondie.l2.num_sets,
            design.in_package.channels.num_channels,
            design.off_package.channels.num_channels,
        )
    )
    if (
        pow2  # the kernel indexes sets/channels with bitmasks
        and engine.trace_event is null_event
        and engine.footprint is None
        and design.caching_policy is None
    ):
        return _run_tagless_kernel
    return None


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


# ----------------------------------------------------------------------
# Tagless kernel: the full Figure 2 access path, fused.
# ----------------------------------------------------------------------
#: Layout of a kernel core slot (a list): per-core constants first, then
#: the per-segment values from ``segment()``, then one tuple of the
#: running values a burst stores back (one item store, not a slice).
_SEG = 12
_ACC = _SEG + 7  # the segment's access iterator (a limited burst's slice)
_REM = _SEG + 8  # the segment's remaining-accesses count
_RUN = 22


def _run_tagless_kernel(design: TaglessDesign, active, qos, budget,
                        clock_stop, *, _next=next, _iter=iter, _len=len,
                        _min=min, _sum=sum, _islice=islice,
                        _nextafter=math.nextafter) -> int:
    """Replay the cores of ``active`` against the tagless design.

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

    Shared structures -- GIPT, free queue, victim tracker, walker, both
    DRAM devices and their channel free-lists, the seeded float
    accumulators -- are hoisted once per call.  Per-core state (cTLB
    maps, on-die sets, pending write-backs, page table, model floats,
    trace cursor, same-page cache, integer counters) lives in a slot
    list per core that a switch stores and reloads.  At a segment end
    the kernel stores the model floats back and calls the cursor's
    ``next_segment()`` (which charges the context switch, flushes the
    TLB maps in place and retunes the model), then reloads the
    per-segment values and clears the same-page cache.

    Inlines cTLB L1/L2 hits and on-die L1/L2 hits, plus the two paths
    that dominate the tagless profile: the cTLB full miss resolving as
    an in-package *victim hit* (walk + GIPT residence + cTLB install,
    Figure 4's unshaded path) and the on-die full miss serviced by the
    DRAM cache with zero tag check (``_service_l2_miss``'s cached
    branch, with the closed-page ``access_block`` arithmetic inlined).
    Only genuinely rare events leave the loop: NC pages, superpages,
    PU waits.

    Loop-level shortcuts, each a proof that some scalar work is the
    identity:

    - **Same-page run**: when an access repeats the core's previous
      virtual page, that page is by construction the most recently
      used entry of both of its cTLB levels (the previous access made
      it so), and fused-LRU's move-to-end of the newest key is the
      identity permutation.  The shortcut skips the TLB dicts entirely
      and reuses the cached translation.  Trace locality makes this
      the majority case (50-95% of accesses on the SPEC-like
      generators).  Other cores cannot invalidate the cached page:
      their fills evict only pages no TLB holds
      (``victims.select(protected=gipt.is_resident)``), and this page
      is in its core's L2 TLB.  A TLB flush (segment end) and every
      scalar fallback clear the cache.
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
    tenant gets it.  Each L3-bound access adds one to the tenant's
    ``l3_accesses`` and observes ``cost * cycle_ns`` in its
    demand-latency histogram; a scalar fallback reads the cost from
    the design's ``_last_l3_*`` side channel instead.  A tenant can run
    on two cores whose clocks overlap, so its running cycle total is a
    seeded local per burst: loaded when the burst (or the segment)
    starts and stored back when it ends.  Bursts run in global order,
    so the additions land in the reference order.  In an unattributed
    run the segment's tenant record is ``None``, and the attribution
    costs one ``is not None`` test per access (two on an L3-bound one).

    Order-sensitive float accumulators live in *seeded locals*: each
    is initialised from its attribute, accumulated sequentially (the
    same additions in the same order as the scalar path, hence the same
    rounding), and stored back at kernel exit.  The one scalar-fallback
    site flushes them before calling ``access_cycles`` and reloads
    after, so the scalar path always sees -- and updates -- the true
    running totals.  The per-core handler total is seeded the same way,
    from the core's slot.
    """
    # --- Shared structures and constants (identical for every core).
    first = active[0].model
    l1_hit = first._l1_hit
    cycle_ns = first._cycle_ns
    access_cycles = design.access_cycles

    tlb0 = design.tlbs[0]
    l1_cap = tlb0.l1.capacity
    l2_cap = tlb0.l2.capacity
    tlb_l2_hit_cycles = design._tlb_l2_hit_cycles

    engine = design.engine
    gipt = engine.gipt
    gipt_entries = gipt._entries
    # FIFO ignores touches (its whole point); LRU/CLOCK need the call.
    victims = engine.victims
    on_touch = (None if type(victims) is FIFOVictimTracker
                else victims.on_touch)
    walker = design.walker
    walk_cycles = walker._walk_cycles
    pte_nj = walker._pte_nj
    free_queue = engine.free_queue
    fq_free = free_queue._free
    fq_alpha = free_queue.alpha
    fq_allocate = free_queue.allocate
    gipt_insert = gipt.insert
    on_fill_v = victims.on_fill
    maintain_alpha = engine._maintain_alpha
    gipt_base = engine.gipt_base_page
    off_pkg = design.off_package
    off_energy = off_pkg.energy
    off_ch = off_pkg.channels
    off_free = off_ch._free_at_ns
    off_bg = off_ch._bg_until_ns
    off_mask = off_ch.num_channels - 1  # pow2, per select_kernel
    off_tr64 = off_pkg.timing.transfer_ns(64)
    off_wb_nj = off_energy.config.access_nj(64, 0)
    off_sv = off_pkg._block_service_ns
    off_page_tr = off_pkg._page_transfer_ns
    off_preempt = off_ch.preemption_ns
    off_fill_nj = off_energy.config.access_nj(PAGE_BYTES, 1)

    ondie0 = design.ondie[0]
    ol1_mask = ondie0.l1.num_sets - 1  # pow2, per select_kernel
    ol1_ways = ondie0.l1._sets[0].ways
    ol2_mask = ondie0.l2.num_sets - 1
    ol2_ways = ondie0.l2._sets[0].ways

    in_pkg = design.in_package
    ip_energy = in_pkg.energy
    ip_ch = in_pkg.channels
    ip_free = ip_ch._free_at_ns
    ip_bg = ip_ch._bg_until_ns
    ip_mask = ip_ch.num_channels - 1
    ip_preempt = ip_ch.preemption_ns
    ip_tr = in_pkg._block_transfer_ns
    ip_sv = in_pkg._block_service_ns
    ip_nj = in_pkg._block_nj
    ip_tr64 = in_pkg.timing.transfer_ns(64)
    ip_wb_nj = ip_energy.config.access_nj(64, 0)
    ip_page_tr = in_pkg._page_transfer_ns
    ip_fill_nj = ip_energy.config.access_nj(PAGE_BYTES, 1)
    ip_next_refresh = in_pkg._next_refresh_ns

    # GIPT posted-write device (Section 3.2: the table may live in
    # either DRAM; off-package by default).
    gipt_off = not engine.cache_config.gipt_in_package
    gd = off_pkg if gipt_off else in_pkg
    gd_banks = gd.banks.access
    gd_free = gd.channels._free_at_ns
    gd_bg = gd.channels._bg_until_ns
    gd_mask = gd.channels.num_channels - 1
    gd_tr64 = gd._block_transfer_ns
    gd_nj0 = gd.energy.config.access_nj(64, 0)
    gd_act_nj = gd.energy.config.act_pre_nj

    l1_hit_cycles = design._l1_hit_cycles
    l2_hit_cycles = design._l2_hit_cycles
    freq = design.core_cfg.frequency_ghz
    lines_per_page = LINES_PER_PAGE

    # Excess of the (tlb_cycles == 0.0, on-die L2 hit) case and of the
    # idle-channel DRAM access (queue_ns == 0.0, whose latency is the
    # service constant): same expressions the general path evaluates,
    # evaluated once.  ``segment()`` divides them by each core's MLP.
    exc0_l2 = 0.0 + l2_hit_cycles - l1_hit
    l3_only0 = ip_sv * freq
    exc0_dram = 0.0 + l3_only0 - l1_hit
    l3_ns0 = l3_only0 * cycle_ns  # its demand latency, for attribution

    # Order-sensitive float accumulators, seeded from their attributes
    # (see the docstring).  Flushed/reloaded around the fallback call
    # and stored back at exit.
    f_off_dyn = off_energy.dynamic_nj
    f_off_bg = off_ch.background_busy_ns
    f_walker = walker.cycles_total
    f_ip_dyn = ip_energy.dynamic_nj
    f_ip_bg = ip_ch.background_busy_ns
    f_ip_queue = ip_ch.queue_ns_total
    f_ip_busy = ip_ch.demand_busy_ns
    f_ip_lat = in_pkg.demand_latency_ns
    f_l3 = design.l3_latency_cycles

    # Shared integer counters (GIPT, DRAM); per-core ones live in slots.
    n_gipt_acts = 0
    n_res_evict = 0
    n_ip_write = 0
    n_wb_ip = n_wb_off = 0

    #: Accesses each core loaded in this call, from its cursor to its
    #: segments' ends; a stop takes the unrun ones back.
    processed = [0] * _len(active)
    #: Each core's access iterator over its current segment; a limited
    #: burst runs a slice of it.
    bases = [None] * _len(active)

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
        tq = None if qos is None else qos[state.tenant_id]
        if tq is not None:
            tq.instructions += instructions
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
            state.process_id, table._entries, table.entry,
            model.base_cpi, mlp,
            exc0_l2 / mlp if exc0_l2 > 0 else 0.0,
            exc0_dram / mlp if exc0_dram > 0 else 0.0,
            accesses, columns[0].__length_hint__, tq,
        )

    slots = []
    for k, state in enumerate(active):
        core_id = state.core_id
        tlb = design.tlbs[core_id]
        ondie = design.ondie[core_id]
        model = state.model
        slot = [
            k, core_id, 1 << core_id, ~(1 << core_id),
            tlb.l1._map, tlb.l2._map, design.handlers[core_id],
            [s.entries for s in ondie.l1._sets],
            [s.entries for s in ondie.l2._sets],
            ondie.pending_writebacks, state, model,
        ]
        slot += segment(state, k)
        # cycles, stall_cycles, handler total, same-page cache (last_vp
        # -1 never equals a virtual page number), per-core counters.
        slot.append((model.cycles, model.stall_cycles,
                     design.handlers[core_id].cycles_total, -1, 0, 0, None,
                     0, 0, 0, 0, 0, 0, 0))
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
         process_id, pte_map, table_entry, base_cpi, mlp, st0_l2,
         st0_dram, accesses, remaining, tq, run) = slot
        (cycles, stall_cycles, f_handler, last_vp, last_target, last_base,
         last_entry, n_fb, n_t2, n_tm, n_fill, n_o1, n_o2, n_owb) = run
        if tq is not None:
            # Seeded per burst: the tenant may have run on another core
            # since this core's last burst.
            t_cycles, t_observe = tq.cycles, tq.demand_latency.observe
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
                    entries = ol1_ent[line_key & ol1_mask]
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
                                # scalar walk would.  table.entry is
                                # idempotent, so a superpage/NC outcome
                                # still falls back safely.
                                pte = table_entry(vp)
                            if not (
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
                                # scalar order.
                                n_fill += 1
                                f_off_dyn += pte_nj
                                f_walker += walk_cycles
                                pte.pending_update = True
                                if not fq_free:
                                    # Alpha invariant broken: evict
                                    # synchronously (rare) -- run the
                                    # real engine machinery over the
                                    # true totals.
                                    off_energy.dynamic_nj = f_off_dyn
                                    off_ch.background_busy_ns = f_off_bg
                                    ip_energy.dynamic_nj = f_ip_dyn
                                    ip_ch.background_busy_ns = f_ip_bg
                                    maintain_alpha(now_ns)
                                    f_off_dyn = off_energy.dynamic_nj
                                    f_off_bg = off_ch.background_busy_ns
                                    f_ip_dyn = ip_energy.dynamic_nj
                                    f_ip_bg = ip_ch.background_busy_ns
                                    ip_next_refresh = in_pkg._next_refresh_ns
                                target = fq_allocate()
                                g = gipt_insert(target, pte.physical_page,
                                                pte)
                                # Protect the page for the filling core
                                # before any victim is chosen
                                # (allocate_and_fill's first
                                # set_resident).
                                g.residence_mask |= core_bit
                                on_fill_v(target)
                                # fill_page: demand-read the page from
                                # off-package DRAM, critical block
                                # first.
                                if now_ns >= off_pkg._next_refresh_ns:
                                    off_pkg._catch_up_refresh(now_ns)
                                ch = pte.physical_page & off_mask
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
                                off_ch.queue_ns_total += queue_ns
                                off_ch.demand_busy_ns += off_page_tr
                                f_off_dyn += off_fill_nj
                                fill_ns = queue_ns + off_sv
                                off_pkg.demand_latency_ns += fill_ns
                                # stream_page: lay the page into the
                                # cache behind the read (background
                                # traffic).
                                if now_ns >= ip_next_refresh:
                                    in_pkg._catch_up_refresh(now_ns)
                                    ip_next_refresh = in_pkg._next_refresh_ns
                                ch = target & ip_mask
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
                                # locality.
                                gipt_page = gipt_base + (target >> 8)
                                gch = gipt_page & gd_mask
                                sv2, acts = gd_banks(gipt_page, 64)
                                start = now_ns + fill_ns
                                if gd_bg[gch] > start:
                                    start = gd_bg[gch]
                                if gd_free[gch] > start:
                                    start = gd_free[gch]
                                gd_bg[gch] = start + gd_tr64
                                if gipt_off:
                                    f_off_bg += gd_tr64
                                    f_off_dyn += gd_nj0 + acts * gd_act_nj
                                else:
                                    f_ip_bg += gd_tr64
                                    f_ip_dyn += gd_nj0 + acts * gd_act_nj
                                n_gipt_acts += acts
                                fill_ns += sv2
                                sv2, acts = gd_banks(gipt_page, 64)
                                start = now_ns + fill_ns
                                if gd_bg[gch] > start:
                                    start = gd_bg[gch]
                                if gd_free[gch] > start:
                                    start = gd_free[gch]
                                gd_bg[gch] = start + gd_tr64
                                if gipt_off:
                                    f_off_bg += gd_tr64
                                    f_off_dyn += gd_nj0 + acts * gd_act_nj
                                else:
                                    f_ip_bg += gd_tr64
                                    f_ip_dyn += gd_nj0 + acts * gd_act_nj
                                n_gipt_acts += acts
                                fill_ns += sv2
                                pte.install_in_cache(target)
                                engine.fill_latency_ns += fill_ns
                                if _len(fq_free) < fq_alpha:
                                    # Asynchronous eviction (Figure 5):
                                    # the engine helper reads the true
                                    # totals.
                                    off_energy.dynamic_nj = f_off_dyn
                                    off_ch.background_busy_ns = f_off_bg
                                    ip_energy.dynamic_nj = f_ip_dyn
                                    ip_ch.background_busy_ns = f_ip_bg
                                    maintain_alpha(now_ns)
                                    f_off_dyn = off_energy.dynamic_nj
                                    f_off_bg = off_ch.background_busy_ns
                                    f_ip_dyn = ip_energy.dynamic_nj
                                    f_ip_bg = ip_ch.background_busy_ns
                                    ip_next_refresh = in_pkg._next_refresh_ns
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
                        # The one scalar-fallback site: flush the seeded
                        # float locals so access_cycles sees true
                        # totals, reload after (it advanced them),
                        # resync the refresh mirror, and invalidate the
                        # same-page cache.
                        off_energy.dynamic_nj = f_off_dyn
                        off_ch.background_busy_ns = f_off_bg
                        walker.cycles_total = f_walker
                        handler.cycles_total = f_handler
                        ip_energy.dynamic_nj = f_ip_dyn
                        ip_ch.background_busy_ns = f_ip_bg
                        ip_ch.queue_ns_total = f_ip_queue
                        ip_ch.demand_busy_ns = f_ip_busy
                        in_pkg.demand_latency_ns = f_ip_lat
                        design.l3_latency_cycles = f_l3
                        n_fb += 1
                        cost = access_cycles(
                            core_id, process_id, vp, line, w,
                            cycles * cycle_ns
                        )
                        f_off_dyn = off_energy.dynamic_nj
                        f_off_bg = off_ch.background_busy_ns
                        f_walker = walker.cycles_total
                        f_handler = handler.cycles_total
                        f_ip_dyn = ip_energy.dynamic_nj
                        f_ip_bg = ip_ch.background_busy_ns
                        f_ip_queue = ip_ch.queue_ns_total
                        f_ip_busy = ip_ch.demand_busy_ns
                        f_ip_lat = in_pkg.demand_latency_ns
                        f_l3 = design.l3_latency_cycles
                        ip_next_refresh = in_pkg._next_refresh_ns
                        last_vp = -1
                        if tq is not None and design._last_l3_involved:
                            tq.l3_accesses += 1
                            t_observe(design._last_l3_cycles * cycle_ns)
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
                    entries = ol1_ent[line_key & ol1_mask]
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
                l2_entries = ol2_ent[line_key & ol2_mask]
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
                        spill_entries = ol2_ent[victim & ol2_mask]
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
                    # _route_writebacks/_writeback_line/
                    # _async_block_write, inlined (both namespaces;
                    # // LINES_PER_PAGE is >> 6).
                    now_ns = cycles * cycle_ns
                    for wline in pending_wb:
                        if wline >= PA_NAMESPACE_OFFSET:
                            f_off_dyn += off_wb_nj
                            n_wb_off += 1
                            ch = (((wline - PA_NAMESPACE_OFFSET) >> 6)
                                  & off_mask)
                            start = now_ns
                            if off_bg[ch] > start:
                                start = off_bg[ch]
                            if off_free[ch] > start:
                                start = off_free[ch]
                            off_bg[ch] = start + off_tr64
                            f_off_bg += off_tr64
                        else:
                            wpage = wline >> 6
                            f_ip_dyn += ip_wb_nj
                            n_wb_ip += 1
                            ch = wpage & ip_mask
                            start = now_ns
                            if ip_bg[ch] > start:
                                start = ip_bg[ch]
                            if ip_free[ch] > start:
                                start = ip_free[ch]
                            ip_bg[ch] = start + ip_tr64
                            f_ip_bg += ip_tr64
                            g2 = gipt_entries.get(wpage)
                            if g2 is not None:
                                g2.dirty = True
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

                # --- DRAM-cache service: guaranteed hit, no tag check.
                g = gipt_entries.get(target)
                if g is None:
                    design._service_l2_miss(  # canonical raise
                        core_id, entry, vp, line, w, cycles * cycle_ns
                    )
                if on_touch is not None:
                    on_touch(target)
                g.touched_mask |= 1 << line
                if w:
                    g.dirty = True
                # DRAMDevice.access_block, closed-page path, inlined.
                now_ns = cycles * cycle_ns
                if now_ns >= ip_next_refresh:
                    in_pkg._catch_up_refresh(now_ns)
                    ip_next_refresh = in_pkg._next_refresh_ns
                ch = target & ip_mask
                if ip_free[ch] <= now_ns and ip_bg[ch] <= now_ns:
                    # Idle channel: queue_ns is exactly 0.0, so the
                    # queue add is the identity (the accumulator is
                    # never -0.0) and the latency is the precomputed
                    # service constant.
                    ip_free[ch] = now_ns + ip_tr
                    f_ip_busy += ip_tr
                    f_ip_dyn += ip_nj
                    n_ip_write += w
                    f_ip_lat += ip_sv
                    cycles += base_cpi
                    if tlb_cycles:
                        cost = tlb_cycles + l3_only0
                        f_l3 += cost
                        if tq is not None:
                            tq.l3_accesses += 1
                            t_observe(cost * cycle_ns)
                        excess = cost - l1_hit
                        if excess > 0:
                            stall = excess / mlp
                            cycles += stall
                            stall_cycles += stall
                    else:
                        f_l3 += l3_only0
                        if tq is not None:
                            tq.l3_accesses += 1
                            t_observe(l3_ns0)
                        if st0_dram:
                            cycles += st0_dram
                            stall_cycles += st0_dram
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
                n_ip_write += w
                latency = queue_ns + ip_sv
                f_ip_lat += latency
                l3_only = latency * freq
                cost = tlb_cycles + l3_only
                f_l3 += cost
                if tq is not None:
                    tq.l3_accesses += 1
                    t_observe(cost * cycle_ns)
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
            (process_id, pte_map, table_entry, base_cpi, mlp, st0_l2,
             st0_dram, accesses, remaining, tq) = seg
            cycles = model.cycles  # plus the context-switch charge
            last_vp = -1  # the TLB may have been flushed
            if tq is not None:
                # The switch charge belongs to no tenant.
                t_cycles, t_observe = tq.cycles, tq.demand_latency.observe
                t_start = cycles
            if limited:
                done += n0
                n0 = remaining()
                if n0 > budget - done:
                    accesses = _islice(accesses, budget - done)
            if cycles > horizon:
                break

        slot[_RUN] = (cycles, stall_cycles, f_handler, last_vp, last_target,
                      last_base, last_entry,
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
                                    slot[_SEG + 9], slot[_RUN])
        model.cycles = run[0]
        model.stall_cycles = run[1]
        state.pos = state.length - slot[_REM]()
        unrun = state.unrun_instructions()
        model.instructions -= unrun
        if tq is not None:
            tq.instructions -= unrun
        processed[k] -= state.length - state.pos
    active[:] = [slot[10] for slot in slots]

    # Float store-back (each was accumulated in scalar order).
    off_energy.dynamic_nj = f_off_dyn
    off_ch.background_busy_ns = f_off_bg
    walker.cycles_total = f_walker
    ip_energy.dynamic_nj = f_ip_dyn
    ip_ch.background_busy_ns = f_ip_bg
    ip_ch.queue_ns_total = f_ip_queue
    ip_ch.demand_busy_ns = f_ip_busy
    in_pkg.demand_latency_ns = f_ip_lat
    design.l3_latency_cycles = f_l3

    # Integer-counter flush (exact + commutative, hence deferrable).
    # Only the rarer outcomes were counted; the hot ones follow by
    # subtraction (every inline access is exactly one of t1/t2/tm/fill
    # and exactly one of o1/o2/om).
    tot_acc = tot_tw = tot_tm = tot_fill = tot_om = 0
    for slot in all_slots:
        core_id = slot[1]
        run = slot[_RUN]
        n_fb, n_t2, n_tm, n_fill, n_o1, n_o2, n_owb = run[7:]
        handler = design.handlers[core_id]
        handler.cycles_total = run[2]
        n_acc = processed[slot[0]] - n_fb
        n_t1 = n_acc - n_t2 - n_tm - n_fill
        n_tw = n_tm + n_fill  # TLB full misses resolved inline (walks)
        n_om = n_acc - n_o1 - n_o2
        tlb = design.tlbs[core_id]
        tlb.l1.hits += n_t1
        tlb.l1.misses += n_t2 + n_tw
        tlb.l2.hits += n_t2
        tlb.l2.misses += n_tw
        tlb.l1_hits += n_t1
        tlb.l2_hits += n_t2
        tlb.misses += n_tw
        handler.victim_hit += n_tm
        handler.fill += n_fill
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
    walker.walks += tot_tw
    off_energy.read_bytes += 8 * tot_tw + PAGE_BYTES * tot_fill
    off_energy.activations += tot_fill
    engine.victim_hits += tot_tm
    engine.fills += tot_fill
    gipt.residence_updates += tot_tm + n_res_evict + 2 * tot_fill
    design.l3_accesses += tot_om
    design.cache_accesses += tot_om
    ip_ch.requests += tot_om
    ip_energy.activations += tot_om + tot_fill
    ip_energy.read_bytes += 64 * (tot_om - n_ip_write)
    ip_energy.write_bytes += (64 * (n_ip_write + n_wb_ip)
                              + PAGE_BYTES * tot_fill)
    off_energy.write_bytes += 64 * n_wb_off
    off_ch.requests += tot_fill
    off_pkg.demand_accesses += tot_fill
    in_pkg.demand_accesses += tot_om
    # Posted GIPT writes: two 64 B stores per fill on whichever device
    # hosts the table, with data-dependent activations (row buffer).
    gd_energy = off_energy if gipt_off else ip_energy
    gd_energy.activations += n_gipt_acts
    gd_energy.write_bytes += 128 * tot_fill
    return _sum(processed)
