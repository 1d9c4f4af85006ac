"""High-level simulation façade: one call per (design, workload) point.

``Simulator(config).run("tagless", bindings)`` builds a fresh design,
replays the bound traces through it, and returns a
:class:`SimulationResult` carrying IPC, the Figure 8 latency metric, the
full energy breakdown and every component's statistics.  Experiment
runners and benchmarks are thin loops over this call.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.analysis.energy import EnergyBreakdown, compute_energy
from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.cpu.batched import run_interleaved_batched
# run_interleaved stays importable from here: it is the reference loop
# that tests and span tracers swap in for (or wrap around) the replay.
from repro.cpu.multicore import (  # noqa: F401
    BoundTrace,
    CoreResult,
    run_interleaved,
)
from repro.designs.base import MemorySystemDesign
from repro.designs.registry import create_design
from repro.designs.tagless_design import TaglessDesign
from repro.validate.invariants import (
    InvariantChecker,
    check_interval,
    validation_enabled,
)


@dataclasses.dataclass
class SimulationResult:
    """Everything one simulation point produces."""

    design_name: str
    cores: List[CoreResult]
    elapsed_ns: float
    mean_l3_latency_cycles: float
    energy: EnergyBreakdown
    stats: Dict[str, float]
    #: Per-tenant QoS breakdown (multi-tenant runs only; see
    #: :mod:`repro.cpu.scheduled`): one dict per tenant with IPC, MPKI
    #: and demand-latency percentiles.
    tenants: Optional[List[Dict[str, object]]] = None
    #: Per-event resize churn ledger (resizable designs with an armed
    #: capacity schedule only).
    resize_events: Optional[List[Dict[str, object]]] = None

    @property
    def ipc_sum(self) -> float:
        """System throughput: the sum of per-core IPCs (the aggregate the
        multi-programmed figures normalise)."""
        return sum(core.ipc for core in self.cores)

    @property
    def instructions(self) -> int:
        return sum(core.instructions for core in self.cores)

    @property
    def total_energy_j(self) -> float:
        return self.energy.total_j

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds (lower is better)."""
        return self.energy.total_j * self.elapsed_ns * 1e-9

    def ipc_of(self, core_id: int) -> float:
        for core in self.cores:
            if core.core_id == core_id:
                return core.ipc
        raise KeyError(f"no core {core_id} in result")


class Simulator:
    """Runs design/workload combinations under one machine configuration."""

    def __init__(self, config: SystemConfig):
        self.config = config

    def build_design(self, design_name: str) -> MemorySystemDesign:
        return create_design(design_name, self.config)

    def run(
        self,
        design_name: str,
        bindings: Sequence[BoundTrace],
        non_cacheable: Optional[Dict[int, Sequence[int]]] = None,
        warmup_fraction: float = 0.25,
        caching_policy=None,
        superpages: Optional[Dict[int, Sequence]] = None,
        validate: Optional[bool] = None,
        validate_every: Optional[int] = None,
        telemetry=None,
        resize_schedule: Optional[Sequence] = None,
        max_remap_per_resize: int = 64,
    ) -> SimulationResult:
        """Simulate ``bindings`` on a fresh instance of ``design_name``.

        The first ``warmup_fraction`` of every trace warms caches, TLBs
        and the DRAM cache without being measured -- the trace-driven
        analogue of the paper's Simpoint methodology, where statistics
        come from a representative slice executed against warmed state.
        Cold-start fill storms would otherwise dominate every cache
        design's numbers.

        ``non_cacheable`` maps process id -> virtual pages to flag NC
        before the run (the Section 5.4 case study); it only affects the
        tagless design, which is the only one with an NC mechanism.

        ``validate=True`` installs an
        :class:`~repro.validate.invariants.InvariantChecker` that sweeps
        the design's registered structural invariants every
        ``validate_every`` accesses (default from ``REPRO_VALIDATE_EVERY``
        or 1024) and once more at the end of the run, raising
        :class:`~repro.validate.invariants.InvariantViolation` on any
        breakage.  ``validate=None`` defers to the ``REPRO_VALIDATE``
        environment variable.  Checks are read-only: results are
        bit-identical with and without validation.

        ``telemetry`` optionally attaches a
        :class:`~repro.obs.telemetry.Telemetry` bundle for the measured
        window: it installs after the warmup boundary, so, like the
        statistics, it observes only measured behaviour.  Telemetry is
        strictly observational -- results are bit-identical with and
        without it.

        Replay goes through
        :func:`~repro.cpu.batched.run_interleaved_batched`, which picks
        the execution path itself: the fused tagless kernel for every
        core, multi-core argmin included, when the design is tagless
        (``tagless-resizable`` too) and no event tracer or latency
        histogram is attached, else the one replay loop
        :func:`~repro.cpu.multicore.replay` throughout.  Resize events,
        invariant sweeps and telemetry windows are replay boundaries
        that either path stops for.  Both paths are bit-identical (the
        golden-stats oracle locks this).
        """
        if not (0.0 <= warmup_fraction < 1.0):
            raise ValueError("warmup_fraction must be in [0, 1)")
        design = self.build_design(design_name)
        if non_cacheable and isinstance(design, TaglessDesign):
            for process_id, pages in non_cacheable.items():
                for virtual_page in pages:
                    design.set_non_cacheable(process_id, virtual_page)
        if caching_policy is not None and isinstance(design, TaglessDesign):
            design.set_caching_policy(caching_policy)
        if superpages:
            # process id -> [(base_vpn, order), ...]: map the regions
            # before any access touches them (all designs support this).
            for process_id, regions in superpages.items():
                table = design.page_table(process_id)
                for base_vpn, order in regions:
                    table.map_superpage(base_vpn, order)

        bindings = list(bindings)
        warm, measured = [], bindings
        if warmup_fraction > 0.0:
            warm, measured = [], []
            for binding in bindings:
                # Materialize the parent's list cache before slicing:
                # both halves then inherit shared slices of it
                # (AccessTrace.slice's seeded path), so repeated runs
                # of the same trace never re-convert the numpy columns.
                binding.trace.as_lists()
                split = int(len(binding.trace) * warmup_fraction)
                warm.append(
                    BoundTrace(binding.core_id, binding.process_id,
                               binding.trace.slice(0, split))
                )
                measured.append(
                    BoundTrace(binding.core_id, binding.process_id,
                               binding.trace.slice(split, len(binding.trace)))
                )
        return self._simulate(
            design_name, design, resize_schedule, max_remap_per_resize,
            validate, validate_every, telemetry, warm=warm, bindings=measured,
        )

    def run_tenants(
        self,
        design_name: str,
        schedule,
        validate: Optional[bool] = None,
        validate_every: Optional[int] = None,
        telemetry=None,
    ) -> SimulationResult:
        """Replay a multi-tenant :class:`~repro.workloads.tenants.TenantSchedule`.

        The scenario's own resize schedule (if any) is armed on designs
        that support one.  There is no warmup split: tenant arrival and
        departure *are* the phenomenon under study, so the measured
        window is the whole schedule.  ``tagless`` and
        ``tagless-resizable`` replay through the fused kernel,
        per-tenant attribution included, unless an event tracer or a
        latency histogram is attached; other designs use the reference
        loop, with the same numbers.  Returns a
        :class:`SimulationResult` whose ``tenants`` field carries the
        per-tenant QoS breakdown (IPC, MPKI, demand-latency tail).
        """
        scenario = schedule.scenario
        if schedule.num_cores != self.config.num_cores:
            raise ConfigurationError(
                f"schedule was built for {schedule.num_cores} cores but "
                f"the machine has {self.config.num_cores}"
            )
        if schedule.total_span_pages > self.config.off_package_pages:
            raise ConfigurationError(
                f"scenario {scenario.name!r} spans "
                f"{schedule.total_span_pages} pages of off-package DRAM "
                f"but the machine only has "
                f"{self.config.off_package_pages}; shrink the tenant "
                "count/footprints or grow the machine"
            )
        return self._simulate(
            design_name, self.build_design(design_name), scenario.resize,
            scenario.max_remap_per_resize, validate, validate_every,
            telemetry, schedule=schedule,
        )

    def _simulate(self, design_name, design, resize_schedule,
                  max_remap_per_resize, validate, validate_every, telemetry,
                  warm=(), bindings=(), schedule=None) -> SimulationResult:
        """Replay ``bindings`` (after ``warm``) or ``schedule`` on
        ``design`` and account the measured window."""
        if resize_schedule:
            # ``(at_access, capacity)`` events for runtime-resizable
            # designs; other designs ignore the schedule so design
            # sweeps can share one spec.
            arm = getattr(design, "set_resize_schedule", None)
            if arm is not None:
                arm(resize_schedule,
                    max_remap_per_resize=max_remap_per_resize)
        if validate is None:
            validate = validation_enabled()
        checker = None
        if validate:
            every = (check_interval() if validate_every is None
                     else validate_every)
            checker = InvariantChecker(design, every=every)
            checker.install()  # sweeps count from here, warmup included
        if warm:
            run_interleaved_batched(design, warm)
            design.reset_stats()
        if telemetry is not None:
            # After warmup: observe the measured window only.
            telemetry.install(design)
            if checker is not None:
                checker.tracer = telemetry.tracer
        tenants, switch_stats = None, {}
        if schedule is None:
            cores = run_interleaved_batched(design, bindings)
        else:
            # Looked up per call: span tracers patch the module name.
            from repro.cpu.scheduled import run_schedule

            cores, qos, switch_stats = run_schedule(design, schedule)
            tenants = [qos[tid].to_dict() for tid in sorted(qos)]
        if telemetry is not None:
            telemetry.uninstall()
        if checker is not None:
            checker.run_checks()  # final sweep over the end-of-run state
            checker.uninstall()
        elapsed_ns = max((c.cycles for c in cores), default=0.0)
        elapsed_ns /= self.config.core.frequency_ghz
        energy = compute_energy(design, cores, elapsed_ns)
        stats = design.stats()
        stats.update((name, float(n)) for name, n in switch_stats.items())
        log = getattr(design, "resize_log", None)
        return SimulationResult(
            design_name=design_name,
            cores=cores,
            elapsed_ns=elapsed_ns,
            mean_l3_latency_cycles=design.mean_l3_latency_cycles(),
            energy=energy,
            stats=stats,
            tenants=tenants,
            resize_events=[dict(event) for event in log] if log else None,
        )
