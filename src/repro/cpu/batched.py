"""Fused replay kernel for the tagless design.

:meth:`MemorySystemDesign.access_cycles` is a single hand-inlined
function; the remaining per-access overhead is the *call* into it (and,
inside, the per-access re-hoisting of every structure the path touches).
The tagless kernel removes both: it replays one core's whole trace in a
single loop with every hot structure -- cTLB dicts, on-die sets, GIPT,
channel free-lists, timing constants -- bound to locals exactly once.
The tagless hit path has no tag check (the cTLB hands out a cache
address directly), so the fused loop covers almost every access.

:func:`run_interleaved_batched` is the simulator's replay entry point
for bound traces.  :func:`select_kernel` picks the kernel; designs it
returns ``None`` for run the reference loop,
:func:`repro.cpu.multicore.replay`, which is also the only argmin
interleave: the kernel replaces it only for the single-core tail of a
run.  Tenant schedules (:func:`repro.cpu.scheduled.run_schedule`) keep
their tail in the argmin loop for per-tenant attribution, so they never
reach the kernel.  A fused loop for the other designs' shared path was
measured no faster than the reference loop, so none exists.

Bit-identity discipline (the golden-stats oracle compares floats with
``==``):

- Each access is first *classified with read-only probes*.  Only if the
  whole access is expressible inline does the kernel mutate anything;
  otherwise it falls back to the untouched scalar
  ``design.access_cycles`` call, which then performs every probe,
  counter update and side effect itself.  Rare events -- fills, page
  walks of unmapped pages, superpages, NC pages, PU waits, evictions --
  therefore run the exact scalar code.
- Integer counters are accumulated in locals and flushed once at kernel
  exit: integer addition is exact and commutative, and nothing reads
  the counters mid-run when trace hooks are off (a kernel
  precondition).
- Float accumulators (latency sums, queue times, energy) are
  order-sensitive, so they cannot be batch-flushed like the integers.
  Instead each lives in a *seeded local*: initialised from its
  attribute, advanced by the same additions in the same order as the
  scalar path (same rounding, same result), stored back at exit.  The
  scalar-fallback site flushes the locals first and reloads after, so
  fallback accesses always see -- and update -- the true totals.

The kernel runs only when the run is unobserved: no event tracer, no
telemetry/validation wrapper around ``access_cycles``, no latency
histograms, no mid-run core attachments.  Observed runs replay through
the reference loop, which produces the same numbers.
"""

from __future__ import annotations

from typing import List

from repro.common.addressing import LINES_PER_PAGE, PAGE_BYTES
from repro.core.policies import FIFOVictimTracker
from repro.cpu.multicore import BoundTrace, CoreResult, run_interleaved
from repro.designs.base import PA_NAMESPACE_OFFSET, MemorySystemDesign
from repro.designs.tagless_design import TaglessDesign
from repro.obs.events import null_event
from repro.vm.tlb import TLBEntry


def _observed(design: MemorySystemDesign) -> bool:
    """True when something is watching the per-access path.

    Installed telemetry/validation wraps ``access_cycles`` as an
    *instance* attribute; event tracers rebind ``trace_event``;
    histograms hang off the DRAM devices.  Any of these means the
    kernel (which bypasses all three) must stand down.

    The wrapper test compares the bound method's function with the
    class's instead of probing ``design.__dict__``: on CPython 3.11+
    reading ``__dict__`` materialises the instance dict and slows every
    later attribute load on the design.
    """
    return (
        design.trace_event is not null_event
        or getattr(design.access_cycles, "__func__", None)
        is not type(design).access_cycles
        or getattr(design, "obs_attach_cores", None) is not None
        or design.in_package.latency_histogram is not None
        or design.off_package.latency_histogram is not None
    )


def select_kernel(design: MemorySystemDesign):
    """The fused kernel for ``design``, or ``None`` for the reference loop.

    A design class that overrides the scalar access path (the resizable
    tagless variant's capacity-schedule trigger) never gets the kernel,
    which would bypass the override.  The test reads both class
    attributes at call time, so a span tracer that wraps them alike
    leaves the choice unchanged.
    """
    if (not isinstance(design, TaglessDesign)
            or type(design).access_cycles
            is not MemorySystemDesign.access_cycles
            or _observed(design)):
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

    Multi-core interleaving keeps the reference argmin stepping (global
    event order is what makes contention results meaningful); the
    single-active-core regime -- the whole run for single-programmed
    workloads, the end-game for mixes -- runs the fused kernel when
    :func:`select_kernel` finds one.
    """
    return run_interleaved(design, bindings, _kernel=select_kernel(design))


# ----------------------------------------------------------------------
# Tagless kernel: the full Figure 2 access path, fused.
# ----------------------------------------------------------------------
def _run_tagless_kernel(design: TaglessDesign, state, *,
                        _next=next, _iter=iter, _len=len) -> None:
    """Replay ``state``'s remaining trace against the tagless design.

    Inlines cTLB L1/L2 hits and on-die L1/L2 hits, plus the two paths
    that dominate the tagless profile: the cTLB full miss resolving as
    an in-package *victim hit* (walk + GIPT residence + cTLB install,
    Figure 4's unshaded path) and the on-die full miss serviced by the
    DRAM cache with zero tag check (``_service_l2_miss``'s cached
    branch, with the closed-page ``access_block`` arithmetic inlined).
    Only genuinely rare events leave the loop: fills, NC pages,
    superpages, PU waits.

    Loop-level shortcuts, each a proof that some scalar work is the
    identity:

    - **Same-page run**: when an access repeats the previous access's
      virtual page, that page is by construction the most recently
      used entry of both cTLB levels (the previous iteration made it
      so), and fused-LRU's move-to-end of the newest key is the
      identity permutation.  The shortcut skips the TLB dicts entirely
      and reuses the cached translation.  Trace locality makes this
      the majority case (50-95% of accesses on the SPEC-like
      generators).
    - **Zero-stall exit**: with ``tlb_cycles == 0.0`` and an on-die L1
      hit, ``cost - l1_hit`` is exactly ``(0.0 + l1_hit_cycles) -
      float(l1_hit_cycles) == 0.0``, so the stall branch disappears;
      for the 0.0-TLB + on-die-L2-hit case the whole stall chain is a
      loop constant, computed once.
    - **Fused probes**: the scalar path's probe-then-move-to-end pair
      (``in``/``get`` + ``pop`` + reinsert) collapses to one
      ``pop(key, None)`` + reinsert -- same resulting dict order, one
      hash lookup fewer.  For NC entries the reinsert happens before
      the fallback; the scalar call then repeats a move-to-end of an
      already-MRU key, which is again the identity.
    - **Deferred instruction count**: ``instructions`` advances by
      ``gap + 1`` per access regardless of path, so the loop total is
      ``sum(gaps) + len(gaps)`` -- integer math, exact in any order --
      added once at exit.

    Order-sensitive float accumulators live in *seeded locals*: each is
    initialised from its attribute, accumulated sequentially (the same
    additions in the same order as the scalar path, hence the same
    rounding), and stored back at kernel exit.  The one scalar-fallback
    site flushes them before calling ``access_cycles`` and reloads
    after, so the scalar path always sees -- and updates -- the true
    running totals.
    """
    model = state.model
    base_cpi = model.base_cpi
    mlp = model.mlp
    l1_hit = model._l1_hit
    cycle_ns = model._cycle_ns
    cycles = model.cycles
    stall_cycles = model.stall_cycles

    core_id = state.core_id
    process_id = state.process_id
    access_cycles = design.access_cycles

    tlb = design.tlbs[core_id]
    l1_tlb = tlb.l1
    l1_map = l1_tlb._map
    l1_cap = l1_tlb.capacity
    l2_tlb = tlb.l2
    l2_map = l2_tlb._map
    l2_cap = l2_tlb.capacity
    tlb_l2_hit_cycles = design._tlb_l2_hit_cycles

    table = design.page_table(process_id)
    pte_map = table._entries
    engine = design.engine
    gipt = engine.gipt
    gipt_entries = gipt._entries
    core_bit = 1 << core_id
    clear_bit = ~core_bit
    # FIFO ignores touches (its whole point); LRU/CLOCK need the call.
    victims = engine.victims
    on_touch = (None if type(victims) is FIFOVictimTracker
                else victims.on_touch)
    handler = design.handlers[core_id]
    walker = design.walker
    walk_cycles = walker._walk_cycles
    pte_nj = walker._pte_nj
    table_entry = table.entry
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

    ondie = design.ondie[core_id]
    ol1 = ondie.l1
    ol1_mask = ol1.num_sets - 1  # pow2, per select_kernel
    ol1_ent = [s.entries for s in ol1._sets]
    ol1_ways = ol1._sets[0].ways
    ol2 = ondie.l2
    ol2_mask = ol2.num_sets - 1
    ol2_ent = [s.entries for s in ol2._sets]
    ol2_ways = ol2._sets[0].ways
    pending_wb = ondie.pending_writebacks

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

    core_cfg = design.core_cfg
    l1_hit_cycles = design._l1_hit_cycles
    l2_hit_cycles = design._l2_hit_cycles
    freq = core_cfg.frequency_ghz
    lines_per_page = LINES_PER_PAGE

    # Constant stall of the (tlb_cycles == 0.0, on-die L2 hit) case:
    # same expressions the general path would evaluate, evaluated once.
    exc0_l2 = 0.0 + l2_hit_cycles - l1_hit
    st0_l2 = exc0_l2 / mlp if exc0_l2 > 0 else 0.0
    # Constants of the idle-channel DRAM access (queue_ns == 0.0):
    # latency is the service constant, and with a 0.0-cycle TLB the
    # whole cost/stall chain is fixed too.
    l3_only0 = ip_sv * freq
    exc0_dram = 0.0 + l3_only0 - l1_hit
    st0_dram = exc0_dram / mlp if exc0_dram > 0 else 0.0

    # Order-sensitive float accumulators, seeded from their attributes
    # (see the docstring).  Flushed/reloaded around the fallback call
    # and stored back at exit.
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

    # Only the rarer outcomes are counted in-loop; the hot ones are
    # derived at flush by subtraction (every inline access is exactly
    # one of t1/t2/tm and exactly one of o1/o2/om).
    n_fb = 0
    n_t2 = n_tm = 0
    n_fill = n_gipt_acts = 0
    n_res_evict = 0
    n_o1 = n_o2 = 0
    n_owb = 0
    n_ip_write = 0
    n_wb_ip = n_wb_off = 0

    # Same-page run cache: the previous access's page, translation and
    # TLB entry.  Valid only when the previous access completed inline
    # (fallbacks reset it); -1 never equals a virtual page number.
    last_vp = -1
    last_target = 0
    last_base = 0
    last_entry = None

    pos = state.pos
    pages, lines, writes, gaps = (
        state.pages, state.lines, state.writes, state.gaps
    )
    if pos:
        pages, lines, writes, gaps = (
            pages[pos:], lines[pos:], writes[pos:], gaps[pos:]
        )
    for vp, line, w, gap in zip(pages, lines, writes, gaps):
        cycles += gap * base_cpi

        if vp == last_vp:
            # Same-page run: vp is the MRU key of both TLB levels, so
            # the scalar path's move-to-end is the identity and its
            # probes are pure counter traffic.
            line_key = last_base + line
            entries = ol1_ent[line_key & ol1_mask]
            v = entries.pop(line_key, None)
            if v is not None:
                # Zero-stall exit: cost == l1_hit exactly.
                n_o1 += 1
                entries[line_key] = v or w
                cycles += base_cpi
                continue
            tlb_cycles = 0.0
            target = last_target
            entry = last_entry
        else:
            # --- Translation: classify with fused probes, mutate in
            # scalar order.  ``target`` stays -1 on every outcome that
            # needs the scalar path (NC entries, fills, superpages, PU
            # waits), which reach the single fallback site below; the
            # only state an NC classification leaves behind is the
            # probe's own move-to-end, which the scalar re-probe
            # repeats as the identity.
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
                        # Materialise the PTE exactly where the scalar
                        # walk would.  table.entry is idempotent, so a
                        # superpage/NC outcome still falls back safely.
                        pte = table_entry(vp)
                    if not (
                        pte.superpage_order != 0
                        or pte.non_cacheable
                        or pte.pending_until_ns > now_ns
                    ):
                      if pte.valid_in_cache:
                        # Victim hit (Table 1 row 3): the page is
                        # cached; the walk is the whole penalty.
                        n_tm += 1
                        f_off_dyn += pte_nj
                        f_walker += walk_cycles
                        target = pte.cache_page
                        if on_touch is not None:
                            on_touch(target)
                        g = gipt_entries.get(target)
                        if g is None:
                            gipt.set_resident(target, core_id)  # raises
                        g.residence_mask |= core_bit
                        entry = TLBEntry(target, False)
                        # TLBHierarchy.install, inlined (the probes
                        # above guarantee vp is in neither level).
                        if _len(l2_map) >= l2_cap:
                            evicted_vpn = _next(_iter(l2_map))
                            evicted = l2_map.pop(evicted_vpn)
                            l2_map[vp] = entry
                            l1_map.pop(evicted_vpn, None)
                            # on_l2_evict: leaving TLB reach clears
                            # residence.
                            if not evicted.non_cacheable:
                                g2 = gipt_entries.get(evicted.target_page)
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
                        # Fill (Figure 4's shaded path): walk, allocate
                        # at the header pointer, stream the page in,
                        # post two GIPT writes, install.  Inlined from
                        # CTLBMissHandler.handle / allocate_and_fill /
                        # fill_page / stream_page / posted_write_block,
                        # in scalar order.
                        n_fill += 1
                        f_off_dyn += pte_nj
                        f_walker += walk_cycles
                        pte.pending_update = True
                        if not fq_free:
                            # Alpha invariant broken: evict
                            # synchronously (rare) -- run the real
                            # engine machinery over the true totals.
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
                        g = gipt_insert(target, pte.physical_page, pte)
                        # Protect the page for the filling core before
                        # any victim is chosen (allocate_and_fill's
                        # first set_resident).
                        g.residence_mask |= core_bit
                        on_fill_v(target)
                        # fill_page: demand-read the page from
                        # off-package DRAM, critical block first.
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
                        # stream_page: lay the page into the cache
                        # behind the read (background traffic).
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
                        # open-page: the header pointer's sequential
                        # walk gives them high row locality.
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
                            # Asynchronous eviction (Figure 5): the
                            # engine helper reads the true totals.
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
                        # The handler's second set_resident (a no-op
                        # bitwise OR; counted at flush).
                        g.residence_mask |= core_bit
                        entry = TLBEntry(target, False)
                        # TLBHierarchy.install, inlined (the probes
                        # above guarantee vp is in neither level).
                        if _len(l2_map) >= l2_cap:
                            evicted_vpn = _next(_iter(l2_map))
                            evicted = l2_map.pop(evicted_vpn)
                            l2_map[vp] = entry
                            l1_map.pop(evicted_vpn, None)
                            if not evicted.non_cacheable:
                                g2 = gipt_entries.get(evicted.target_page)
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
                # The one scalar-fallback site: flush the seeded float
                # locals so access_cycles sees true totals, reload
                # after (it advanced them), resync the refresh mirror,
                # and invalidate the same-page cache.
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
                    core_id, process_id, vp, line, w, cycles * cycle_ns
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
                cycles += base_cpi
                excess = cost - l1_hit
                if excess > 0:
                    stall = excess / mlp
                    cycles += stall
                    stall_cycles += stall
                continue
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
                continue

        # --- On-die L1 miss (CA key space; NC never reaches here).
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
            # _route_writebacks/_writeback_line/_async_block_write,
            # inlined (both namespaces; // LINES_PER_PAGE is >> 6).
            now_ns = cycles * cycle_ns
            for wline in pending_wb:
                if wline >= PA_NAMESPACE_OFFSET:
                    f_off_dyn += off_wb_nj
                    n_wb_off += 1
                    ch = ((wline - PA_NAMESPACE_OFFSET) >> 6) & off_mask
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
            continue

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
            # Idle channel: queue_ns is exactly 0.0, so the queue add
            # is the identity (the accumulator is never -0.0) and the
            # latency is the precomputed service constant.
            ip_free[ch] = now_ns + ip_tr
            f_ip_busy += ip_tr
            f_ip_dyn += ip_nj
            n_ip_write += w
            f_ip_lat += ip_sv
            cycles += base_cpi
            if tlb_cycles:
                cost = tlb_cycles + l3_only0
                f_l3 += cost
                excess = cost - l1_hit
                if excess > 0:
                    stall = excess / mlp
                    cycles += stall
                    stall_cycles += stall
            else:
                f_l3 += l3_only0
                if st0_dram:
                    cycles += st0_dram
                    stall_cycles += st0_dram
            continue
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
        cycles += base_cpi
        excess = cost - l1_hit
        if excess > 0:
            stall = excess / mlp
            cycles += stall
            stall_cycles += stall

    model.cycles = cycles
    # Every access advances instructions by gap + 1, inline and
    # fallback alike; integer addition is exact in any order.
    model.instructions += sum(gaps) + _len(gaps)
    model.stall_cycles = stall_cycles
    state.pos = state.length

    # Float store-back (each was accumulated in scalar order).
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

    # Integer-counter flush (exact + commutative, hence deferrable).
    n_acc = _len(gaps) - n_fb
    n_t1 = n_acc - n_t2 - n_tm - n_fill
    n_tw = n_tm + n_fill  # TLB full misses resolved inline (walks)
    n_om = n_acc - n_o1 - n_o2
    n_res = n_tm + n_res_evict + 2 * n_fill
    design.accesses += n_acc
    l1_tlb.hits += n_t1
    l1_tlb.misses += n_t2 + n_tw
    l2_tlb.hits += n_t2
    l2_tlb.misses += n_tw
    tlb.l1_hits += n_t1
    tlb.l2_hits += n_t2
    tlb.misses += n_tw
    walker.walks += n_tw
    off_energy.read_bytes += 8 * n_tw + PAGE_BYTES * n_fill
    off_energy.activations += n_fill
    engine.victim_hits += n_tm
    engine.fills += n_fill
    handler.victim_hit += n_tm
    handler.fill += n_fill
    gipt.residence_updates += n_res
    ol1.hits += n_o1
    ol1.misses += n_o2 + n_om
    ol2.hits += n_o2
    ol2.misses += n_om
    ondie.l1_hits += n_o1
    ondie.l2_hits += n_o2
    ondie.misses += n_om
    ondie.writebacks += n_owb
    design.l3_accesses += n_om
    design.cache_accesses += n_om
    ip_ch.requests += n_om
    ip_energy.activations += n_om + n_fill
    ip_energy.read_bytes += 64 * (n_om - n_ip_write)
    ip_energy.write_bytes += 64 * (n_ip_write + n_wb_ip) + PAGE_BYTES * n_fill
    off_energy.write_bytes += 64 * n_wb_off
    off_ch.requests += n_fill
    off_pkg.demand_accesses += n_fill
    in_pkg.demand_accesses += n_om
    # Posted GIPT writes: two 64 B stores per fill on whichever device
    # hosts the table, with data-dependent activations (row buffer).
    gd_energy = off_energy if gipt_off else ip_energy
    gd_energy.activations += n_gipt_acts
    gd_energy.write_bytes += 128 * n_fill
