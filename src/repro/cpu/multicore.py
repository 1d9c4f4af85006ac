"""Timestamp-interleaved execution of per-core traces against one design.

Each core replays its own trace on its own clock; the engine always steps
the core whose local time is earliest, so shared state -- the DRAM cache,
the channel schedulers, the GIPT -- sees events in a globally consistent
order.  This is the standard way to get multi-programmed contention
behaviour out of a one-pass trace simulation.

:func:`replay` is the only replay loop.  Each core walks an ordered list
of ``(tenant_id, process_id, trace)`` segments: a plain
:class:`BoundTrace` is one segment (:func:`run_interleaved`), a
multi-tenant schedule is many (:func:`repro.cpu.scheduled.run_schedule`).
Where the tenant changes between segments the core pays the
context-switch penalty, optionally flushes its TLB hierarchy, and
retunes its core model to the incoming workload.  Resize schedules,
invariant sweeps and telemetry windows act at *boundaries* of the
replay, which the fused kernel and the reference loop both run to and
stop at (see :func:`replay`).

This module is the hot path of every experiment in the repository: the
inner loops below run once per simulated memory reference.  They are
therefore written for throughput -- slotted per-core state objects,
hot values bound to locals, the default interval core model inlined --
while producing *bit-identical* results to the straightforward
formulation (the golden-stats suite enforces this).
"""

from __future__ import annotations

import dataclasses
import math
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.core_model import CoreTimingModel, make_core_model
from repro.designs.base import MemorySystemDesign
from repro.workloads.trace import AccessTrace


@dataclasses.dataclass
class BoundTrace:
    """A trace assigned to a core and an address space."""

    core_id: int
    process_id: int
    trace: AccessTrace


@dataclasses.dataclass
class CoreResult:
    """Per-core outcome of a run."""

    core_id: int
    workload: str
    instructions: int
    cycles: float
    stall_cycles: float

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


class _CoreState:
    """Slotted replay cursor of one core through its segment list."""

    __slots__ = ("core_id", "workload", "model", "segments", "tlb",
                 "switch_cycles", "tenant_id", "process_id", "pages",
                 "lines", "writes", "gaps", "pos", "length", "switches",
                 "flushed", "prefix")

    def __init__(self, core_id: int, workload: str, segments, model,
                 tenant_id, switch_cycles: float, tlb) -> None:
        self.core_id = core_id
        self.workload = workload
        self.model = model
        self.segments = iter(segments)
        self.tlb = tlb
        self.switch_cycles = switch_cycles
        self.tenant_id = tenant_id
        self.process_id = -1
        self.pages = self.lines = self.writes = self.gaps = ()
        self.pos = 0
        self.length = 0
        self.switches = 0
        self.flushed = 0
        self.prefix = None

    def next_segment(self) -> bool:
        """Move to the next non-empty segment; False when none is left.

        A tenant change charges ``switch_cycles`` to the core clock,
        flushes ``tlb`` when one is set (through the callback-firing
        :meth:`repro.vm.tlb.TLBHierarchy.flush`, so GIPT residence bits
        stay consistent) and retunes the core model.
        """
        for tenant_id, process_id, trace in self.segments:
            if len(trace):
                break
        else:
            return False
        if tenant_id != self.tenant_id:
            self.switches += 1
            self.model.cycles += self.switch_cycles
            if self.tlb is not None:
                self.flushed += self.tlb.flush()
            self.model.retune(trace.base_cpi, trace.mlp)
            self.tenant_id = tenant_id
        self.process_id = process_id
        self.pages, self.lines, self.writes, self.gaps = trace.as_lists()
        self.pos = 0
        self.length = len(self.pages)
        self.prefix = None
        return True

    def unrun_instructions(self) -> int:
        """Instructions the current segment retires from ``pos`` on: each
        access retires its gap and itself.  The fused kernel counts a
        segment's instructions when it loads the segment, so it takes
        this share back when it stops mid-segment."""
        prefix = self.prefix
        if prefix is None:
            prefix = self.prefix = list(accumulate(self.gaps, initial=0))
        return prefix[-1] - prefix[self.pos] + self.length - self.pos


def _run_single(state: _CoreState, access_cycles, budget: int) -> int:
    """Replay up to ``budget`` accesses of one core's current segment
    with no scheduling overhead; returns how many ran.

    The reference loop's single-core regime -- the whole run for
    single-programmed workloads, the end-game for mixes -- whenever the
    fused kernel does not replay the run.  The default MLP interval
    model's arithmetic is inlined (same operations in the same order as
    ``CoreTimingModel.advance_instructions`` / ``account_memory``, so
    the floats come out identical) and its state kept in locals until
    the loop exits; other core models fall back to method calls.
    Boundary callbacks, which may read the models, run only between
    these runs (see :func:`replay`).
    """
    model = state.model
    pages = state.pages
    lines = state.lines
    writes = state.writes
    gaps = state.gaps
    pos = state.pos
    end = min(state.length, pos + budget)
    core_id = state.core_id
    process_id = state.process_id

    if type(model) is CoreTimingModel:
        base_cpi = model.base_cpi
        mlp = model.mlp
        l1_hit = model._l1_hit
        cycle_ns = model._cycle_ns
        cycles = model.cycles
        instructions = model.instructions
        stall_cycles = model.stall_cycles
        while pos < end:
            # advance_instructions(gap)
            gap = gaps[pos]
            instructions += gap
            cycles += gap * base_cpi
            cost = access_cycles(
                core_id, process_id, pages[pos], lines[pos], writes[pos],
                cycles * cycle_ns,
            )
            # account_memory(cost)
            instructions += 1
            cycles += base_cpi
            excess = cost - l1_hit
            if excess > 0:
                stall = excess / mlp
                cycles += stall
                stall_cycles += stall
            pos += 1
        model.cycles = cycles
        model.instructions = instructions
        model.stall_cycles = stall_cycles
    else:
        advance = model.advance_instructions
        account = model.account_memory
        while pos < end:
            advance(gaps[pos])
            account(access_cycles(
                core_id, process_id, pages[pos], lines[pos], writes[pos],
                model.time_ns,
            ))
            pos += 1
    ran = pos - state.pos
    state.pos = pos
    return ran


def _run_argmin(design: MemorySystemDesign, active: List[_CoreState],
                access_cycles, qos, budget: int, tail: int) -> int:
    """Step the earliest core one access at a time, for up to ``budget``
    accesses or until ``tail`` cores are left; returns how many ran.

    (4 cores: a linear argmin scan beats a heap.)  Ties go to the
    earliest-bound core, matching min()'s first-minimum semantics.  A
    finished core leaves ``active`` in place, so the scan order of the
    rest holds.  With ``qos``, each access adds its instruction and
    cycle deltas to its tenant, and an L3-bound one feeds the tenant's
    demand-latency histogram.
    """
    if len(active) <= tail:
        return 0
    cycle_ns = 1.0 / design.config.core.frequency_ghz
    ran = 0
    for ran in range(1, budget + 1):
        best = active[0]
        best_index = 0
        best_clock = best.model.cycles
        for index in range(1, len(active)):
            state = active[index]
            clock = state.model.cycles
            if clock < best_clock:
                best = state
                best_index = index
                best_clock = clock
        model = best.model
        pos = best.pos
        if qos is not None:
            before_instructions = model.instructions
            before_cycles = model.cycles
        model.advance_instructions(best.gaps[pos])
        model.account_memory(access_cycles(
            best.core_id, best.process_id, best.pages[pos], best.lines[pos],
            best.writes[pos], model.time_ns,
        ))
        if qos is not None:
            tq = qos[best.tenant_id]
            tq.instructions += model.instructions - before_instructions
            tq.cycles += model.cycles - before_cycles
            if design._last_l3_involved:
                tq.l3_accesses += 1
                tq.demand_latency.observe(design._last_l3_cycles * cycle_ns)
        best.pos = pos + 1
        if best.pos >= best.length and not best.next_segment():
            del active[best_index]
            if len(active) <= tail:
                break
    return ran


def _run_reference(design: MemorySystemDesign, active: List[_CoreState],
                   access_cycles, qos, budget: int) -> int:
    """The reference loop: run ``budget`` accesses (fewer if every core
    ends first) in global time order; returns how many ran.

    An unattributed run leaves the argmin loop for the tight
    single-core loop once one core is left.  An attributed run keeps
    that tail in the argmin loop, so the per-access float order of the
    attribution never changes.
    """
    ran = _run_argmin(design, active, access_cycles, qos, budget,
                      0 if qos is not None else 1)
    while active and ran < budget:
        state = active[0]
        ran += _run_single(state, access_cycles, budget - ran)
        if state.pos < state.length:
            break
        if not state.next_segment():
            del active[0]
    return ran


#: Fewest accesses a run between two boundaries must have for the fused
#: kernel to replay it: entering the kernel hoists every structure and
#: leaving it flushes every counter.  On a 4-core MIX1 tagless replay
#: with a boundary every 32 accesses the two paths run level; every 16,
#: the reference loop is faster.
_MIN_KERNEL_RUN = 32


def _clock_stop(boundary_ns: float, max_gap_cycles: float,
                cycle_ns: float) -> float:
    """A core clock no access issues at or past ``boundary_ns`` from.

    An access at clock ``c`` issues at ``(c + gap * base_cpi) *
    cycle_ns``; float rounding is monotone, so when the longest gap
    issues before the boundary from the returned clock, every access
    from that clock or an earlier one does too.
    """
    stop = boundary_ns / cycle_ns - max_gap_cycles
    while (stop + max_gap_cycles) * cycle_ns >= boundary_ns:
        stop = math.nextafter(stop, -math.inf)
    return stop


#: One core's replay input: ``(core_id, workload, segments)`` with
#: ``segments`` an ordered list of ``(tenant_id, process_id, trace)``.
CoreSegments = Tuple[int, str, Sequence[Tuple[object, int, AccessTrace]]]


def replay(
    design: MemorySystemDesign,
    cores: Sequence[CoreSegments],
    qos: Optional[Dict[object, object]] = None,
    switch_cycles: float = 0.0,
    flush_tlb: bool = False,
    _kernel=None,
) -> Tuple[List[CoreResult], Dict[str, int]]:
    """Replay every core's segments to completion.

    Returns ``(core_results, switch_stats)``; ``switch_stats`` counts
    ``context_switches`` and the ``context_switch_tlb_entries`` they
    flushed.  ``qos`` maps
    tenant id -> :class:`repro.cpu.scheduled.TenantQoS`: when given,
    every access adds its instruction and cycle deltas to its tenant and
    L3-bound accesses feed the tenant's demand-latency histogram, in
    global access order (the context-switch charge goes to no tenant).
    ``_kernel`` is the fused-kernel hook (see :mod:`repro.cpu.batched`):
    a ``kernel(design, active, qos, budget, clock_stop)`` that replays
    the active cores in this loop's global order, argmin and attribution
    included, for ``budget`` accesses (``None``: to the end) and never
    from a core clock past ``clock_stop``; it leaves the unfinished
    cores in ``active`` and returns how many accesses it ran.  It runs
    when every core model is a plain :class:`CoreTimingModel`.
    Otherwise, or without it, the reference loop replays, which every
    kernel must match bit for bit.

    **Boundaries.**  ``design.boundaries`` lists the sources that act
    at points of the run: the resize schedule, the invariant checker
    and the window recorder.  Each access has a lifetime number,
    counted in ``design.replayed_accesses`` over every replay of the
    design.  A source answers ``next_boundary(count, end)`` -- with
    ``count`` accesses run and ``end`` the number of this replay's last
    access -- with ``(number, clock_ns)``: the number of the next access
    it acts at (past ``end``: none in this replay) and a clock value
    (``inf``: none) at whose first access, in global order, issued at
    or after it, it acts too.  Its ``on_boundary(number, now_ns,
    cores)`` then runs with that access's issue time and the replay's
    ``(core_id, model)`` pairs: before the design's access when the
    source ``acts_before`` (the resize schedule), else after it and
    before the core accounts its cycles.  At one point between two
    accesses the sweep and the window of the earlier one therefore come
    before the resize due at the later one; sources of one kind fire
    in install order.  The kernel or the reference loop runs to the
    next boundary, and the boundary access itself goes through the
    reference loop with the callbacks around it.  A run with no source
    is one call of the kernel or of the reference loop.

    A core's model is built from its first non-empty segment, whose
    tenant is the core's first tenant: only later tenant changes count
    as context switches.  Raises ``ValueError``, before any access, for
    a core id given twice, a core with an empty segment list, or a
    segment whose tenant ``qos`` has no entry for.
    """
    core_cfg = design.config.core
    l1_hit = design.config.l1.hit_cycles
    states = []
    seen_cores = set()
    for core_id, workload, segments in cores:
        if core_id in seen_cores:
            raise ValueError(f"core {core_id} bound twice")
        seen_cores.add(core_id)
        if not segments:
            raise ValueError(f"core {core_id} has no segments")
        if qos is not None:
            for tenant_id, _, _ in segments:
                if tenant_id not in qos:
                    raise ValueError(
                        f"tenant {tenant_id!r} on core {core_id} has no "
                        "QoS entry")
        tenant_id, _, trace = next(
            (s for s in segments if len(s[2])), segments[0])
        model = make_core_model(core_cfg, trace.base_cpi, trace.mlp, l1_hit)
        tlb = design.tlbs[core_id] if flush_tlb else None
        states.append(_CoreState(core_id, workload, segments, model,
                                 tenant_id, switch_cycles, tlb))

    active = [s for s in states if s.next_segment()]
    access_cycles = design.access_cycles  # bind once; called per access
    if not all(type(s.model) is CoreTimingModel for s in active):
        _kernel = None
    start = design.replayed_accesses
    end = start + sum(len(trace) for _, _, segments in cores
                      for _, _, trace in segments)
    if design.boundaries:
        _replay_to_boundaries(design, cores, states, active, access_cycles,
                              qos, _kernel, start, end)
    elif _kernel is not None and active:
        _kernel(design, active, qos, None, math.inf)
    else:
        _run_reference(design, active, access_cycles, qos, end - start)
    design.replayed_accesses = end

    results = [
        CoreResult(
            core_id=s.core_id,
            workload=s.workload,
            instructions=s.model.instructions,
            cycles=s.model.cycles,
            stall_cycles=s.model.stall_cycles,
        )
        for s in states
    ]
    switch_stats = {
        "context_switches": sum(s.switches for s in states),
        "context_switch_tlb_entries": sum(s.flushed for s in states),
    }
    return results, switch_stats


def _replay_to_boundaries(design, cores, states, active, access_cycles, qos,
                          kernel, start: int, end: int) -> None:
    """:func:`replay`'s loop over ``design.boundaries``: run to the next
    boundary, run its access with the callbacks around it, repeat."""
    sources = design.boundaries
    models = [(s.core_id, s.model) for s in states]
    cycle_ns = 1.0 / design.config.core.frequency_ghz
    max_gap_cycles = None  # the longest gap of the run, for clock stops
    count = start
    while active:
        due = [(source, *source.next_boundary(count, end))
               for source in sources]
        budget = min(at for _, at, _ in due) - count - 1
        clock = min(clock_ns for _, _, clock_ns in due)
        limit = budget if budget < end - count else None
        if clock == math.inf:
            if kernel is not None and budget >= _MIN_KERNEL_RUN:
                count += kernel(design, active, qos, limit, math.inf)
            else:
                count += _run_reference(design, active, access_cycles, qos,
                                        budget)
        elif kernel is not None and budget >= _MIN_KERNEL_RUN:
            if max_gap_cycles is None:
                max_gap_cycles = max(
                    max(trace.as_lists()[3]) * trace.base_cpi
                    for _, _, segments in cores
                    for _, _, trace in segments if len(trace))
            stop = _clock_stop(clock, max_gap_cycles, cycle_ns)
            if min(s.model.cycles for s in active) <= stop:
                count += kernel(design, active, qos, limit, stop)
        if active:
            count += 1
            _run_argmin(design, active, _boundary_access(
                access_cycles, due, count, models), qos, 1, 0)


def _boundary_access(access_cycles, due, number: int, models):
    """``access_cycles`` for access ``number``, wrapped in the callbacks
    of the ``(source, at, clock_ns)`` boundaries due at it."""
    def access(core_id, process_id, virtual_page, line, is_write, now_ns):
        for source, at, _ in due:
            if source.acts_before and at == number:
                source.on_boundary(number, now_ns, models)
        cost = access_cycles(core_id, process_id, virtual_page, line,
                             is_write, now_ns)
        for source, at, clock_ns in due:
            if not source.acts_before and (at == number
                                           or now_ns >= clock_ns):
                source.on_boundary(number, now_ns, models)
        return cost
    return access


def run_interleaved(
    design: MemorySystemDesign,
    bindings: List[BoundTrace],
    _kernel=None,
) -> List[CoreResult]:
    """Replay every bound trace to completion; returns per-core results.

    Each binding is a one-segment core for :func:`replay`.  Every bound
    core is reported, including one whose trace is empty; a core bound
    twice raises ``ValueError``.
    """
    if not bindings:
        return []
    cores = [
        (b.core_id, b.trace.name, [(None, b.process_id, b.trace)])
        for b in bindings
    ]
    return replay(design, cores, _kernel=_kernel)[0]
