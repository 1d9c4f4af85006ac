"""Multi-tenant scenario generation: hundreds of processes, one machine.

The paper's Table 5 mixes co-schedule four SPEC programs on four cores;
this module models the opposite regime the ROADMAP's "millions of users"
axis asks about: **N tenants** (hundreds of simulated processes) with
Zipf-skewed footprints, Poisson-ish arrivals, and exponential service
demands, time-sliced onto the existing cores by a deterministic
round-robin scheduler.  The output is a :class:`TenantSchedule` -- per
core, an ordered list of :class:`TenantSegment` slices of per-tenant
:class:`~repro.workloads.trace.ColumnarTrace` streams -- replayed by
:func:`repro.cpu.scheduled.run_schedule` through the one replay loop,
:func:`repro.cpu.multicore.replay`.

Determinism contract (mirrors the campaign seed policy): every draw
derives via :func:`repro.common.rng.derive_seed` from the scenario's
effective seed and the tenant index, so a schedule is bit-identical for
a fixed seed and re-rolls completely when the seed, the scenario name,
or any tenant-level component changes.  :meth:`TenantSchedule.digest`
is the test hook that locks this.

Address spaces: each tenant gets its own ``process_id`` *and* a private
virtual-page window (``vpn_base`` offsets).  The window matters because
the modelled TLBs are keyed by VPN without ASIDs -- two time-shared
tenants reusing VPN 0 would alias each other's translations between
context-switch flushes, which is a model correctness bug, not a
realistic hardware behaviour.
"""

from __future__ import annotations

import dataclasses
import json
import hashlib
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common import rng
from repro.common.errors import ConfigurationError
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import SPEC_PROFILES, spec_profile
from repro.workloads.trace import AccessTrace, ColumnarTrace

#: Guard pages between tenant VPN windows (cold-region margin).
VPN_WINDOW_MARGIN = 64

#: Default profile rotation when a scenario names none.
DEFAULT_PROFILES = ("mcf", "milc", "sphinx3", "omnetpp")


@dataclasses.dataclass(frozen=True)
class TenantScenarioSpec:
    """Everything that defines one multi-tenant scenario, declaratively.

    Loads from JSON (``from_file``) so a scenario is a config artifact,
    not code.  ``resize`` pairs ``(at_access, capacity)`` arm the
    resizable tagless design's capacity schedule: ``capacity`` is a
    fraction of the configured cache when <= 1.0, else absolute pages.
    """

    name: str
    tenants: int
    profiles: Tuple[str, ...] = DEFAULT_PROFILES
    #: Mean service demand (accesses) per tenant; actual demands are
    #: exponential around it, floored at one quantum.
    tenant_accesses: int = 4000
    #: Accesses per scheduling slice (context-switch granularity).
    quantum: int = 500
    #: Base footprint divisor; tenant rank r runs at
    #: ``capacity_scale * (r + 1) ** footprint_zipf`` (larger divisor =
    #: smaller footprint), giving the Zipf-skewed tenant sizes.
    capacity_scale: int = 512
    footprint_zipf: float = 0.8
    #: Expected tenant arrivals per scheduling round (Poisson-ish:
    #: exponential inter-arrival gaps, cumulated and floored).
    arrival_rate: float = 4.0
    #: Cycles charged to a core when it switches tenants.
    context_switch_cycles: float = 2000.0
    #: Full TLB shootdown on every tenant switch (no ASIDs modelled).
    flush_tlb_on_switch: bool = True
    #: Scenario seed; ``None`` defers to the library base seed in
    #: effect at build time (so campaign repetitions re-roll it).
    seed: Optional[int] = None
    #: Capacity schedule for the resizable design: (at_access, capacity).
    resize: Tuple[Tuple[int, float], ...] = ()
    #: Churn bound: pages a single resize event may remap (the rest of
    #: the displaced pages are evicted instead).
    max_remap_per_resize: int = 64

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("scenario needs a non-empty name")
        if self.tenants < 1:
            raise ConfigurationError("scenario needs at least one tenant")
        if not self.profiles:
            raise ConfigurationError("scenario needs at least one profile")
        for profile in self.profiles:
            if profile not in SPEC_PROFILES:
                raise ConfigurationError(
                    f"unknown profile {profile!r}; known: "
                    f"{', '.join(sorted(SPEC_PROFILES))}"
                )
        if self.tenant_accesses < 1:
            raise ConfigurationError("tenant_accesses must be >= 1")
        if self.quantum < 1:
            raise ConfigurationError("quantum must be >= 1")
        if self.capacity_scale < 1:
            raise ConfigurationError("capacity_scale must be >= 1")
        if self.footprint_zipf < 0.0:
            raise ConfigurationError("footprint_zipf must be >= 0")
        if self.arrival_rate <= 0.0:
            raise ConfigurationError("arrival_rate must be positive")
        if self.context_switch_cycles < 0.0:
            raise ConfigurationError("context_switch_cycles must be >= 0")
        if self.max_remap_per_resize < 0:
            raise ConfigurationError("max_remap_per_resize must be >= 0")
        normalised = []
        for event in self.resize:
            if len(event) != 2:
                raise ConfigurationError(
                    "resize events are (at_access, capacity) pairs"
                )
            at_access, capacity = event[0], float(event[1])
            if at_access != int(at_access) or at_access < 1:
                raise ConfigurationError(
                    "resize at_access must be a whole access count >= 1, "
                    f"got {at_access!r}")
            if capacity <= 0.0:
                raise ConfigurationError("resize capacity must be positive")
            if capacity > 1.0 and capacity != int(capacity):
                raise ConfigurationError(
                    f"resize capacity {capacity!r} is neither a fraction "
                    "(<= 1.0) nor a whole page count")
            normalised.append((int(at_access), capacity))
        object.__setattr__(
            self, "resize",
            tuple(sorted(normalised, key=lambda e: e[0])),
        )
        object.__setattr__(self, "profiles", tuple(self.profiles))

    # ------------------------------------------------------------------
    @property
    def effective_seed(self) -> int:
        return self.seed if self.seed is not None else rng.BASE_SEED

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["profiles"] = list(self.profiles)
        data["resize"] = [list(event) for event in self.resize]
        return data

    def spec_hash(self) -> str:
        """Stable 16-hex digest of the canonical scenario content."""
        text = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TenantScenarioSpec":
        if not isinstance(data, dict):
            raise ConfigurationError("tenant scenario must be a mapping")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario keys: {', '.join(unknown)}"
            )
        kwargs = dict(data)
        if "profiles" in kwargs:
            kwargs["profiles"] = tuple(kwargs["profiles"])
        if "resize" in kwargs:
            kwargs["resize"] = tuple(
                tuple(event) for event in kwargs["resize"]
            )
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "TenantScenarioSpec":
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read scenario file {path}: {exc.strerror}"
            ) from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path} is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)


@dataclasses.dataclass(frozen=True)
class TenantInfo:
    """Static description of one scheduled tenant."""

    tenant_id: int
    process_id: int
    profile: str
    capacity_scale: int
    footprint_pages: int
    vpn_base: int
    vpn_span: int
    arrival_round: int
    demand_accesses: int


@dataclasses.dataclass(frozen=True)
class TenantSegment:
    """One scheduling slice: a tenant's trace window bound to a core."""

    tenant_id: int
    process_id: int
    trace: ColumnarTrace


@dataclasses.dataclass
class TenantSchedule:
    """The compiled scenario: per-core segment streams plus metadata."""

    scenario: TenantScenarioSpec
    num_cores: int
    tenants: List[TenantInfo]
    per_core: List[List[TenantSegment]]
    total_span_pages: int

    @property
    def total_accesses(self) -> int:
        return sum(
            len(segment.trace)
            for segments in self.per_core for segment in segments
        )

    @property
    def context_switch_bound(self) -> int:
        """Upper bound on tenant switches (segments across all cores)."""
        return sum(len(segments) for segments in self.per_core)

    def digest(self) -> str:
        """Bit-level identity of the schedule (determinism test hook).

        Hashes the scheduling structure *and* every segment's packed
        access columns, so any change to arrivals, demands, footprints,
        interleaving, or the traces themselves changes the digest.
        """
        sha = hashlib.sha256()
        sha.update(str(self.num_cores).encode())
        for info in self.tenants:
            sha.update(json.dumps(dataclasses.asdict(info),
                                  sort_keys=True).encode())
        for core_id, segments in enumerate(self.per_core):
            sha.update(f"core:{core_id}".encode())
            for segment in segments:
                sha.update(
                    f"{segment.tenant_id}:{segment.process_id}:"
                    f"{len(segment.trace)}".encode()
                )
                pages, lines, writes, gaps = segment.trace.as_lists()
                sha.update(np.asarray(pages, dtype=np.int64).tobytes())
                sha.update(np.asarray(lines, dtype=np.int16).tobytes())
                sha.update(np.asarray(writes, dtype=bool).tobytes())
                sha.update(np.asarray(gaps, dtype=np.int64).tobytes())
        return sha.hexdigest()


def _tenant_scale(scenario: TenantScenarioSpec, tenant_id: int) -> int:
    """Zipf-skewed footprint divisor for tenant rank ``tenant_id``."""
    return max(1, int(round(
        scenario.capacity_scale
        * (tenant_id + 1) ** scenario.footprint_zipf
    )))


def build_schedule(
    scenario: TenantScenarioSpec,
    num_cores: int,
    base_seed: Optional[int] = None,
) -> TenantSchedule:
    """Compile a scenario into a deterministic per-core schedule.

    ``base_seed`` overrides the library base seed for scenarios without
    an explicit ``seed`` (the harness passes the job's derived seed so
    campaign repetitions re-roll arrivals and traces in lock-step with
    every other workload kind).
    """
    if num_cores < 1:
        raise ConfigurationError("schedule needs at least one core")
    effective = (
        scenario.seed if scenario.seed is not None
        else (base_seed if base_seed is not None else rng.BASE_SEED)
    )

    tenants: List[TenantInfo] = []
    streams: List[ColumnarTrace] = []
    vpn_base = 0
    arrival_round = 0
    for tenant_id in range(scenario.tenants):
        tenant_seed = rng.derive_seed(
            effective, "tenant", scenario.name, tenant_id
        )
        gen = np.random.default_rng(tenant_seed)
        profile_name = scenario.profiles[
            int(gen.integers(len(scenario.profiles)))
        ]
        demand = max(
            scenario.quantum, int(gen.exponential(scenario.tenant_accesses))
        )
        # Poisson-ish arrival process: exponential inter-arrival gaps in
        # units of scheduling rounds, cumulated across tenant ids.
        arrival_round += int(gen.exponential(1.0 / scenario.arrival_rate))

        scale = _tenant_scale(scenario, tenant_id)
        generator = TraceGenerator(
            spec_profile(profile_name),
            capacity_scale=scale,
            seed_tag=("tenants", scenario.name, tenant_id, tenant_seed),
        )
        trace = generator.generate(accesses=demand)
        # Private VPN window: the generator emits pages in
        # [0, ~3 * footprint); shift each tenant past its predecessors.
        span = 3 * generator.footprint + VPN_WINDOW_MARGIN
        shifted = AccessTrace(
            name=trace.name,
            virtual_pages=trace.virtual_pages + vpn_base,
            lines=trace.lines,
            writes=trace.writes,
            instruction_gaps=trace.instruction_gaps,
            base_cpi=trace.base_cpi,
            mlp=trace.mlp,
        )
        streams.append(ColumnarTrace.from_trace(shifted))
        tenants.append(TenantInfo(
            tenant_id=tenant_id,
            process_id=tenant_id,
            profile=profile_name,
            capacity_scale=scale,
            footprint_pages=generator.footprint,
            vpn_base=vpn_base,
            vpn_span=span,
            arrival_round=arrival_round,
            demand_accesses=len(trace),
        ))
        vpn_base += span

    # Quantized round-robin: each round admits newly arrived tenants,
    # then every core serves one quantum of the tenant at the head of
    # the ready queue.  ColumnarTrace slices are O(1) views, so the
    # schedule costs metadata, not copies.
    per_core: List[List[TenantSegment]] = [[] for _ in range(num_cores)]
    positions = [0] * scenario.tenants
    ready: deque = deque()
    pending = deque(sorted(tenants, key=lambda t: (t.arrival_round,
                                                   t.tenant_id)))
    round_index = 0
    remaining = scenario.tenants
    while remaining > 0:
        while pending and pending[0].arrival_round <= round_index:
            ready.append(pending.popleft())
        if not ready:
            # Idle gap: jump straight to the next arrival.
            round_index = pending[0].arrival_round
            continue
        for core_id in range(num_cores):
            if not ready:
                break
            info = ready.popleft()
            stream = streams[info.tenant_id]
            start = positions[info.tenant_id]
            stop = min(start + scenario.quantum, len(stream))
            per_core[core_id].append(TenantSegment(
                tenant_id=info.tenant_id,
                process_id=info.process_id,
                trace=stream.slice(start, stop),
            ))
            positions[info.tenant_id] = stop
            if stop < len(stream):
                ready.append(info)
            else:
                remaining -= 1
        round_index += 1

    return TenantSchedule(
        scenario=scenario,
        num_cores=num_cores,
        tenants=tenants,
        per_core=per_core,
        total_span_pages=vpn_base,
    )
