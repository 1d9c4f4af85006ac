"""The benchmark's four workloads.

Every simulation point goes through a public entry point on the
default engine path (no ``engine=`` argument, ``REPRO_ENGINE`` unset):
``Simulator.run``, ``Simulator.run_tenants``, or ``run_campaign`` plus
``reduce_campaign`` on a :class:`~repro.harness.Harness`.

Each workload has a ``setup`` (input generation, timed as ``setup_s``)
and a ``run_pass`` that simulates every point once and returns a
:class:`PassResult`; a pass takes a host-speed sample
(:mod:`hostspeed`) before each timed call.  Inputs derive only from the
seed: the seed is the library base seed
(:data:`repro.common.rng.BASE_SEED`) while inputs are generated.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign import compile as campaign_compile
from repro.campaign import report as campaign_report
from repro.campaign.spec import CampaignSpec
from repro.common import rng
from repro.common.machine import build_system
from repro.cpu.multicore import BoundTrace
from repro.cpu.simulator import SimulationResult, Simulator
from repro.designs.registry import ALL_DESIGN_NAMES
from repro.harness import Harness, ResultCache, simulation_result_to_dict
from repro.workloads import tenants as tenants_mod
from repro.workloads.generator import TraceGenerator
from repro.workloads.mixes import mix_traces
from repro.workloads.spec import spec_profile

from hostspeed import HostSpeed
from tracer import PARENT_LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO_PATH = os.path.join(HERE, "scenario.json")
CAMPAIGN_PATH = os.path.join(HERE, "campaign.json")

#: The Table 3 machine at 1 GB and capacity scale 64 (the JobSpec
#: defaults), so in-process points match what the harness would run.
CACHE_MB = 1024
CAPACITY_SCALE = 64

#: Simulated statistics are summarised over this design's points.
SIM_DESIGN = "tagless"


def result_digest(result: SimulationResult) -> str:
    """Digest of every simulated number in ``result``."""
    text = json.dumps(simulation_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@contextlib.contextmanager
def base_seed(seed: int):
    """Run the body with ``seed`` as the library base seed."""
    previous = rng.BASE_SEED
    rng.BASE_SEED = seed
    try:
        yield
    finally:
        rng.BASE_SEED = previous


def sim_properties(results: List[SimulationResult]) -> Dict[str, float]:
    """Simulated workload properties, summed over ``results``."""
    accesses = l3 = fills = tlb_misses = 0.0
    row_hits = row_refs = l3_cycles = 0.0
    ipc = []
    for result in results:
        stats = result.stats
        accesses += stats["accesses"]
        l3 += stats["l3_accesses"]
        l3_cycles += stats["l3_latency_cycles"]
        fills += stats.get("engine_fills", 0.0)
        tlb_misses += sum(value for key, value in stats.items()
                          if key.startswith("core")
                          and key.endswith("_tlb_misses"))
        for device in ("inpkg_", "offpkg_"):
            hits = stats[device + "row_hits"]
            row_hits += hits
            row_refs += (hits + stats[device + "row_misses"]
                         + stats[device + "row_empties"])
        ipc.append(result.ipc_sum)
    per_k = 1000.0 / accesses if accesses else 0.0
    return {
        "sim.tlb_miss_per_kacc": tlb_misses * per_k,
        "sim.l3_per_kacc": l3 * per_k,
        "sim.fills_per_kacc": fills * per_k,
        "sim.row_hit_frac": row_hits / row_refs if row_refs else 0.0,
        "sim.mean_l3_latency_cycles": l3_cycles / l3 if l3 else 0.0,
        "sim.ipc": statistics.fmean(ipc) if ipc else 0.0,
    }


@dataclasses.dataclass
class PassResult:
    """What one pass over a workload's points measured."""

    wall_s: float
    #: One per timed simulate call: ``(kind, design, simulated accesses
    #: (warmup plus measured), host seconds)``.  Calls of one kind repeat
    #: the same work (campaign repetitions differ only in their seed).
    timings: List[Tuple[str, str, int, float]]
    #: Point label -> simulated-result digest.
    digests: Dict[str, str]
    #: One line per point that raised or ended with a non-ok status.
    failures: List[str]
    attempted: int
    sim: Dict[str, float]
    #: Wall times of the warm (all cache hits) runs, on the campaign
    #: workload only.
    warm_walls: List[float] = dataclasses.field(default_factory=list)
    #: ``designs.access_cycles`` calls per simulated access, per design
    #: (traced passes of in-process workloads only).
    fallback: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Harness per-layer values (campaign workload only).
    harness: Dict[str, float] = dataclasses.field(default_factory=dict)


class Workload:
    """Base class: ``setup`` once or more, then any number of passes."""

    name = ""
    why = ""
    #: Layers the traced run wraps (None: all of them).
    traced_layers: Optional[frozenset] = None

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.speed = HostSpeed()

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        raise NotImplementedError


#: One in-process point: label, design, simulated accesses, simulate call.
Point = Tuple[str, str, int, Callable[[], SimulationResult]]


class InProcessWorkload(Workload):
    """Points simulated in this process, one simulate call each."""

    def points(self) -> List[Point]:
        raise NotImplementedError

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        accesses = {design: 0 for design in ALL_DESIGN_NAMES}
        timings = []
        fallback_calls = {design: 0 for design in ALL_DESIGN_NAMES}
        digests: Dict[str, str] = {}
        failures: List[str] = []
        sim_results: List[SimulationResult] = []
        points = self.points()
        clock = time.perf_counter
        samples_before = len(self.speed.samples)
        start = clock()
        for label, design, n, simulate in points:
            calls_before = (tracer.calls_of("designs.access_cycles")
                            if tracer is not None else 0)
            self.speed.sample()
            begin = clock()
            try:
                result = simulate()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            timings.append((label, design, n, clock() - begin))
            accesses[design] += n
            if tracer is not None:
                fallback_calls[design] += (
                    tracer.calls_of("designs.access_cycles") - calls_before
                )
            digests[label] = result_digest(result)
            if design == SIM_DESIGN:
                sim_results.append(result)
        wall = clock() - start - sum(self.speed.samples[samples_before:])
        fallback = {}
        if tracer is not None:
            fallback = {
                design: (fallback_calls[design] / accesses[design]
                         if accesses[design] else 0.0)
                for design in ALL_DESIGN_NAMES
            }
        return PassResult(
            wall_s=wall,
            timings=timings,
            digests=digests,
            failures=failures,
            attempted=len(points),
            sim=sim_properties(sim_results),
            fallback=fallback,
        )


class SpecSingle(InProcessWorkload):
    name = "spec-single"
    why = ("1 core, SPEC mcf and lbm on every design: TLB-heavy vs "
           "TLB-light hit path, fills rare")
    programs = ("mcf", "lbm")

    def setup(self) -> None:
        accesses = 1_500 if self.smoke else 40_000
        self.simulator = Simulator(build_system(
            cache_megabytes=CACHE_MB, num_cores=1,
            capacity_scale=CAPACITY_SCALE,
        ))
        self.bindings: Dict[str, List[BoundTrace]] = {}
        with base_seed(self.seed):
            for program in self.programs:
                generator = TraceGenerator(spec_profile(program),
                                           capacity_scale=CAPACITY_SCALE)
                trace = generator.generate(accesses)
                trace.as_lists()  # materialise once, outside the timing
                self.bindings[program] = [BoundTrace(0, 0, trace)]

    def points(self) -> List[Point]:
        points = []
        for design in ALL_DESIGN_NAMES:
            for program, bindings in self.bindings.items():
                points.append((
                    f"{design}/{program}", design, len(bindings[0].trace),
                    lambda d=design, b=bindings: self.simulator.run(d, b),
                ))
        return points


class MixQuad(InProcessWorkload):
    name = "mix-quad"
    why = ("4 cores, MIX1 on every design: the multi-core argmin "
           "interleave, kernels only on the single-core tail")
    mix = "MIX1"

    def setup(self) -> None:
        accesses = 500 if self.smoke else 10_000
        self.simulator = Simulator(build_system(
            cache_megabytes=CACHE_MB, num_cores=4,
            capacity_scale=CAPACITY_SCALE,
        ))
        with base_seed(self.seed):
            traces = mix_traces(self.mix, accesses_per_program=accesses,
                                capacity_scale=CAPACITY_SCALE)
        for trace in traces:
            trace.as_lists()
        self.bindings = [BoundTrace(core, core, trace)
                         for core, trace in enumerate(traces)]
        self.accesses = sum(len(trace) for trace in traces)

    def points(self) -> List[Point]:
        return [
            (f"{design}/{self.mix}", design, self.accesses,
             lambda d=design: self.simulator.run(d, self.bindings))
            for design in ALL_DESIGN_NAMES
        ]


def load_scenario(smoke: bool) -> tenants_mod.TenantScenarioSpec:
    """The benchmark's tenant scenario (shrunk for smoke runs)."""
    scenario = tenants_mod.TenantScenarioSpec.from_file(SCENARIO_PATH)
    if smoke:
        scenario = dataclasses.replace(
            scenario, tenants=4, tenant_accesses=300, quantum=100,
            resize=((600, 0.5), (1200, 1.0)),
        )
    return scenario


class TenantsResize(InProcessWorkload):
    name = "tenants-resize"
    why = ("4 cores, context-switched tenants with TLB flushes and a "
           "shrink/grow resize: the fill/evict path")

    def setup(self) -> None:
        self.simulator = Simulator(build_system(
            cache_megabytes=CACHE_MB, num_cores=4,
            capacity_scale=CAPACITY_SCALE,
        ))
        scenario = load_scenario(self.smoke)
        schedule = tenants_mod.build_schedule(scenario, num_cores=4,
                                              base_seed=self.seed)
        limit = self.simulator.config.off_package_pages
        if schedule.total_span_pages > limit:
            raise ValueError(
                f"tenant scenario spans {schedule.total_span_pages} pages; "
                f"the machine has {limit}"
            )
        self.schedule = schedule

    def points(self) -> List[Point]:
        total = self.schedule.total_accesses
        return [
            (f"{design}/tenants", design, total,
             lambda d=design: self.simulator.run_tenants(d, self.schedule))
            for design in ALL_DESIGN_NAMES
        ]


class _Observer:
    """Harness observer: records queue waits of dispatched attempts."""

    def __init__(self) -> None:
        self.queue_waits: List[float] = []

    def job_done(self, outcome) -> None:
        pass

    def job_dispatched(self, index, spec, attempt, worker_id,
                       wait_s) -> None:
        self.queue_waits.append(wait_s)


class CampaignSweep(Workload):
    name = "campaign-sweep"
    why = ("many short jobs on a 2-worker Harness, cold then warm result "
           "cache: pool, shm, cache and reduce layers")
    traced_layers = PARENT_LAYERS
    #: Warm passes per cold pass (they are cheap; ``warm_s`` is their
    #: median).
    warm_repeats = 8

    def setup(self) -> None:
        with open(CAMPAIGN_PATH) as handle:
            data = json.load(handle)
        data["seed"] = self.seed
        if self.smoke:
            data["repetitions"] = 1
            data["fixed"] = dict(data["fixed"], accesses=300)
        self.campaign = CampaignSpec.from_dict(data)
        # Resolves every job spec, so a bad grid fails before any timing.
        campaign_compile.expand(self.campaign)
        self.workers = min(2, os.cpu_count() or 1)

    def _run(self, cache_dir: str):
        """One campaign run plus its reduction.

        Returns the run, its wall time, its observer and its cache.
        """
        observer = _Observer()
        self.speed.sample()
        harness = Harness(jobs=self.workers, cache=ResultCache(cache_dir),
                          observer=observer)
        start = time.perf_counter()
        run = campaign_compile.run_campaign(self.campaign, harness)
        campaign_report.reduce_campaign(self.campaign, run.cell_results())
        return run, time.perf_counter() - start, observer, harness.cache

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        os.makedirs(self.out_dir, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        try:
            cold, cold_s, observer, _ = self._run(cache_dir)
            warm_runs = [self._run(cache_dir)
                         for _ in range(self.warm_repeats)]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        timings = []
        digests: Dict[str, str] = {}
        failures: List[str] = []
        sim_results: List[SimulationResult] = []
        exec_s = 0.0
        shared = pickled = 0
        for job, outcome in zip(cold.jobs, cold.outcomes):
            label = f"{job.spec.label}#{job.repetition}"
            if not outcome.ok or outcome.status != "ok":
                failures.append(f"{label}: {outcome.status}: {outcome.error}")
                continue
            design = job.spec.design
            timings.append((job.spec.label, design,
                            job.spec.accesses * job.spec.num_cores,
                            outcome.wall_time_s))
            exec_s += outcome.wall_time_s
            shared += outcome.trace_bytes_shared
            pickled += outcome.trace_bytes_pickled
            digests[label] = result_digest(outcome.result)
            if design == SIM_DESIGN:
                sim_results.append(outcome.result)
        hits = lookups = attempted = 0
        for warm, _seconds, _observer, cache in warm_runs:
            attempted += len(warm.outcomes)
            hits += cache.stats.hits
            lookups += cache.stats.lookups
            for job, outcome in zip(warm.jobs, warm.outcomes):
                label = f"{job.spec.label}#{job.repetition}"
                if not outcome.ok or outcome.status != "ok":
                    failures.append(f"{label} (warm): {outcome.status}: "
                                    f"{outcome.error}")
                elif digests.get(label) != result_digest(outcome.result):
                    failures.append(f"{label}: warm result differs "
                                    "from cold")

        waits = observer.queue_waits
        return PassResult(
            wall_s=cold_s,
            warm_walls=[run[1] for run in warm_runs],
            timings=timings,
            digests=digests,
            failures=failures,
            attempted=len(cold.outcomes) + attempted,
            sim=sim_properties(sim_results),
            harness={
                "harness.queue_wait_s.p50":
                    statistics.median(waits) if waits else 0.0,
                "harness.queue_wait_s.max": max(waits, default=0.0),
                "harness.exec_s": exec_s,
                "harness.cache_hit_frac": hits / lookups if lookups else 0.0,
                "harness.trace_bytes_shared": float(shared),
                "harness.trace_bytes_pickled": float(pickled),
                "harness.pool_overhead_s": cold_s - exec_s / self.workers,
            },
        )


WORKLOADS = {cls.name: cls
             for cls in (SpecSingle, MixQuad, TenantsResize, CampaignSweep)}
