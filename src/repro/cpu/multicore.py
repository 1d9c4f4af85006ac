"""Timestamp-interleaved execution of per-core traces against one design.

Each core replays its own trace on its own clock; the engine always steps
the core whose local time is earliest, so shared state -- the DRAM cache,
the channel schedulers, the GIPT -- sees events in a globally consistent
order.  This is the standard way to get multi-programmed contention
behaviour out of a one-pass trace simulation.

This module is the hot path of every experiment in the repository: the
inner loops below run once per simulated memory reference.  They are
therefore written for throughput -- slotted per-core state objects,
hot values bound to locals, the default interval core model inlined --
while producing *bit-identical* results to the straightforward
formulation (the golden-stats suite enforces this).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

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
    """Slotted per-core replay state (one dict lookup fewer per field
    than the dict-of-dicts this replaces)."""

    __slots__ = ("core_id", "process_id", "workload", "model",
                 "pages", "lines", "writes", "gaps", "pos", "length")

    def __init__(self, binding: BoundTrace, model,
                 pages, lines, writes, gaps):
        self.core_id = binding.core_id
        self.process_id = binding.process_id
        self.workload = binding.trace.name
        self.model = model
        self.pages = pages
        self.lines = lines
        self.writes = writes
        self.gaps = gaps
        self.pos = 0
        self.length = len(pages)


def _run_single(state: _CoreState, access_cycles,
                generic: bool = False) -> None:
    """Replay one core's remaining trace with no scheduling overhead.

    Used whenever only one core is (still) active -- the whole run for
    single-programmed workloads, the end-game for mixes.  The default
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


def run_interleaved(
    design: MemorySystemDesign,
    bindings: List[BoundTrace],
    max_accesses: Optional[int] = None,
    _kernel=None,
) -> List[CoreResult]:
    """Replay every bound trace to completion; returns per-core results.

    ``max_accesses`` optionally truncates each trace (handy for tests).
    ``_kernel`` is the fused-kernel hook (see :mod:`repro.cpu.batched`):
    a ``kernel(design, state)`` replacement for :func:`_run_single` used
    in the single-active-core regime when the run is unobserved.  Without
    it this is the reference loop every kernel must match bit for bit.
    """
    if not bindings:
        return []
    seen_cores = set()
    for binding in bindings:
        if binding.core_id in seen_cores:
            raise ValueError(f"core {binding.core_id} bound twice")
        seen_cores.add(binding.core_id)

    core_cfg = design.config.core
    states = []
    for binding in bindings:
        trace = binding.trace
        pages, lines, writes, gaps = trace.as_lists()
        if max_accesses is not None:
            pages = pages[:max_accesses]
            lines = lines[:max_accesses]
            writes = writes[:max_accesses]
            gaps = gaps[:max_accesses]
        model = make_core_model(core_cfg, trace.base_cpi, trace.mlp,
                                design.config.l1.hit_cycles)
        states.append(_CoreState(binding, model, pages, lines, writes, gaps))

    active = [s for s in states if s.length > 0]
    access_cycles = design.access_cycles  # bind once; called per access

    # Observability hook (repro.obs): installed telemetry sets
    # ``obs_attach_cores`` to receive the core models for per-window
    # IPC.  Attached cores force _run_single's generic branch so the
    # models stay readable mid-run; with nothing installed this is one
    # getattr per run.
    attach = getattr(design, "obs_attach_cores", None)
    if attach is not None:
        attach([(s.core_id, s.model) for s in states])

    # Multi-core regime: step the earliest core one access at a time.
    # (4 cores: a linear argmin scan beats a heap.)  Ties go to the
    # earliest-bound core, matching min()'s first-minimum semantics.
    while len(active) > 1:
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
        model.advance_instructions(best.gaps[pos])
        model.account_memory(access_cycles(
            best.core_id, best.process_id, best.pages[pos], best.lines[pos],
            best.writes[pos], model.time_ns,
        ))
        best.pos = pos + 1
        if best.pos >= best.length:
            del active[best_index]  # preserves scan order of the rest

    # Single-core regime (or tail of a multi-core run): tight loop.
    if active:
        state = active[0]
        if (_kernel is not None and attach is None
                and type(state.model) is CoreTimingModel):
            _kernel(design, state)
        else:
            _run_single(state, access_cycles, generic=attach is not None)

    return [
        CoreResult(
            core_id=s.core_id,
            workload=s.workload,
            instructions=s.model.instructions,
            cycles=s.model.cycles,
            stall_cycles=s.model.stall_cycles,
        )
        for s in states
    ]
