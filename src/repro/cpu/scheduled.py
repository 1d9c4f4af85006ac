"""Context-switched replay of a multi-tenant schedule.

:func:`run_schedule` hands each core's ordered list of
:class:`~repro.workloads.tenants.TenantSegment` slices to the one replay
loop, :func:`repro.cpu.multicore.replay`: cores still advance in global
timestamp order (the earliest local clock steps next).  At every
segment boundary where the tenant changes, the core pays the
scenario's context-switch penalty and -- matching real OSes on
ASID-less TLBs -- optionally flushes its TLB hierarchy.

Every access is attributed to its segment's tenant: its instruction
and cycle deltas of the core model go to the tenant's totals, and an
L3-bound access feeds the tenant's demand-latency histogram.  With no
event tracer or latency histogram attached, :func:`run_schedule` hands
the run to the fused kernel (:func:`repro.cpu.batched.select_kernel`),
which attributes in the reference loop's global access order.  The
reference loop reads the design's ``_last_l3_involved`` /
``_last_l3_cycles`` side channels after every access, and so do the
kernel's scalar fallbacks.  The per-core clock is continuous across
tenants (one model per core, retuned to each segment's workload
parameters), so shared-resource contention between tenants is
preserved.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.common.stats import Histogram
from repro.cpu.batched import select_kernel
from repro.cpu.multicore import replay
from repro.designs.base import MemorySystemDesign
from repro.workloads.tenants import TenantSchedule


@dataclasses.dataclass
class TenantQoS:
    """Per-tenant quality-of-service accounting for one run."""

    tenant_id: int
    profile: str
    arrival_round: int
    footprint_pages: int
    instructions: int = 0
    cycles: float = 0.0
    l3_accesses: int = 0
    demand_latency: Histogram = None  # set in __post_init__

    def __post_init__(self) -> None:
        if self.demand_latency is None:
            self.demand_latency = Histogram(
                f"tenant{self.tenant_id}_demand_latency_ns"
            )

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self) -> float:
        """Off-die demand misses (L3-bound accesses) per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l3_accesses / self.instructions

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant_id,
            "profile": self.profile,
            "arrival_round": self.arrival_round,
            "footprint_pages": self.footprint_pages,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "l3_accesses": self.l3_accesses,
            "mpki": self.mpki,
            "mean_demand_ns": self.demand_latency.mean(),
            "p50_demand_ns": self.demand_latency.percentile(0.50),
            "p99_demand_ns": self.demand_latency.percentile(0.99),
        }


def replay_inputs(schedule: TenantSchedule):
    """``(cores, qos, switch)`` to :func:`replay` ``schedule`` with.

    ``cores`` holds each core's segment list (a core with no accesses
    scheduled is left out), ``qos`` a fresh :class:`TenantQoS` per
    tenant, and ``switch`` the scenario's ``switch_cycles`` and
    ``flush_tlb`` keyword arguments.
    """
    scenario = schedule.scenario
    qos: Dict[int, TenantQoS] = {
        info.tenant_id: TenantQoS(
            tenant_id=info.tenant_id,
            profile=info.profile,
            arrival_round=info.arrival_round,
            footprint_pages=info.footprint_pages,
        )
        for info in schedule.tenants
    }
    workload = f"tenants:{scenario.name}"
    cores = [
        (core_id, workload,
         [(s.tenant_id, s.process_id, s.trace) for s in segments])
        for core_id, segments in enumerate(schedule.per_core)
        if any(len(s.trace) for s in segments)
    ]
    switch = dict(switch_cycles=scenario.context_switch_cycles,
                  flush_tlb=scenario.flush_tlb_on_switch)
    return cores, qos, switch


def run_schedule(
    design: MemorySystemDesign,
    schedule: TenantSchedule,
):
    """Replay ``schedule`` against ``design``, through the fused kernel
    where :func:`repro.cpu.batched.select_kernel` finds one.

    Returns ``(core_results, tenant_qos, switch_stats)`` where
    ``tenant_qos`` maps tenant id -> :class:`TenantQoS` and
    ``switch_stats`` counts context switches and TLB shootdown volume.
    A core with no accesses scheduled is left out of ``core_results``.
    """
    cores, qos, switch = replay_inputs(schedule)
    core_results, switch_stats = replay(
        design, cores, qos=qos, _kernel=select_kernel(design), **switch)
    return core_results, qos, switch_stats
