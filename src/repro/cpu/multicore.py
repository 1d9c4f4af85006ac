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
retunes its core model to the incoming workload.

This module is the hot path of every experiment in the repository: the
inner loops below run once per simulated memory reference.  They are
therefore written for throughput -- slotted per-core state objects,
hot values bound to locals, the default interval core model inlined --
while producing *bit-identical* results to the straightforward
formulation (the golden-stats suite enforces this).
"""

from __future__ import annotations

import dataclasses
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
                 "flushed")

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
        return True


def _run_single(state: _CoreState, access_cycles,
                generic: bool = False) -> None:
    """Replay one core's remaining trace with no scheduling overhead.

    The reference loop's single-core regime -- the whole run for
    single-programmed workloads, the end-game for mixes -- whenever the
    fused kernel does not replay the run.  The default
    MLP interval model's arithmetic is inlined (same operations in the
    same order as ``CoreTimingModel.advance_instructions`` /
    ``account_memory``, so the floats come out identical); other core
    models fall back to method calls.  ``generic=True`` forces the
    method-call branch: the inlined loop keeps the model's state in
    locals until it exits, so observers that read the model mid-run
    (repro.obs sampling per-core IPC from inside ``access_cycles``)
    need the generic path -- which, per the above, produces identical
    floats.
    """
    model = state.model
    pages = state.pages
    lines = state.lines
    writes = state.writes
    gaps = state.gaps
    pos = state.pos
    length = state.length
    core_id = state.core_id
    process_id = state.process_id

    if not generic and type(model) is CoreTimingModel:
        base_cpi = model.base_cpi
        mlp = model.mlp
        l1_hit = model._l1_hit
        cycle_ns = model._cycle_ns
        cycles = model.cycles
        instructions = model.instructions
        stall_cycles = model.stall_cycles
        while pos < length:
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
        while pos < length:
            advance(gaps[pos])
            account(access_cycles(
                core_id, process_id, pages[pos], lines[pos], writes[pos],
                model.time_ns,
            ))
            pos += 1
    state.pos = pos


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
    The reference loop then keeps even the single-core tail in the
    argmin loop, so the per-access float order of the attribution never
    changes.  ``_kernel`` is the fused-kernel hook (see
    :mod:`repro.cpu.batched`): a ``kernel(design, active, qos)`` that
    replays *every* active core in this loop's global order, argmin and
    attribution included.  It runs when nothing is attached and every
    core model is a plain :class:`CoreTimingModel`.  Otherwise, or
    without it, this is the reference loop every kernel must match bit
    for bit.

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
    cycle_ns = 1.0 / core_cfg.frequency_ghz

    # Observability hook (repro.obs): installed telemetry sets
    # ``obs_attach_cores`` to receive the core models for per-window
    # IPC.  Attached cores force _run_single's generic branch so the
    # models stay readable mid-run; with nothing installed this is one
    # getattr per run.
    attach = getattr(design, "obs_attach_cores", None)
    if attach is not None:
        attach([(s.core_id, s.model) for s in states])

    if (_kernel is not None and active and attach is None
            and all(type(s.model) is CoreTimingModel for s in active)):
        _kernel(design, active, qos)
        active = []  # the kernel ran every core to completion

    # Multi-core regime: step the earliest core one access at a time.
    # (4 cores: a linear argmin scan beats a heap.)  Ties go to the
    # earliest-bound core, matching min()'s first-minimum semantics.
    # Attributed runs keep the single-core tail here too.
    tail = 0 if qos is not None else 1
    while len(active) > tail:
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
            del active[best_index]  # preserves scan order of the rest

    # Single-core tail of an unattributed reference run: tight loop.
    if active:
        state = active[0]
        while True:
            _run_single(state, access_cycles, generic=attach is not None)
            if not state.next_segment():
                break

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
