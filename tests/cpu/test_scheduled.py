"""Context-switched tenant replay through the one replay loop."""

import dataclasses
import os

import pytest

from repro.cpu.batched import select_kernel
from repro.cpu.multicore import replay
from repro.cpu.scheduled import TenantQoS, replay_inputs, run_schedule
from repro.cpu.simulator import Simulator
from repro.designs import create_design
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import spec_profile
from repro.workloads.tenants import TenantScenarioSpec, build_schedule
from tests.cpu.test_batched_engine import (
    _kernel_and_reference_replays,
    qos_numbers,
)

SMOKE_SCENARIO = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "studies",
    "multitenant_smoke_scenario.json")


def scenario(**overrides):
    base = dict(
        name="sched-unit",
        tenants=5,
        profiles=("mcf", "sphinx3"),
        tenant_accesses=300,
        quantum=100,
        capacity_scale=512,
        seed=3,
    )
    base.update(overrides)
    return TenantScenarioSpec(**base)


def segment_lists(schedule):
    return [
        (core_id, "unit",
         [(s.tenant_id, s.process_id, s.trace) for s in segments])
        for core_id, segments in enumerate(schedule.per_core)
    ]


def tenant_changes(schedule):
    """Tenant changes between consecutive non-empty segments per core."""
    changes = 0
    for segments in schedule.per_core:
        tenants = [s.tenant_id for s in segments if len(s.trace)]
        changes += sum(a != b for a, b in zip(tenants, tenants[1:]))
    return changes


def test_switches_are_tenant_changes_only(small_mp_config):
    schedule = build_schedule(scenario(), num_cores=4)
    design = create_design("tagless", small_mp_config)
    cores, qos, switch_stats = run_schedule(design, schedule)
    assert switch_stats["context_switches"] == tenant_changes(schedule) > 0
    assert switch_stats["context_switch_tlb_entries"] > 0
    assert sum(q.instructions for q in qos.values()) == sum(
        c.instructions for c in cores)


def test_no_flush_leaves_tlbs_alone(small_mp_config):
    schedule = build_schedule(scenario(flush_tlb_on_switch=False),
                              num_cores=4)
    design = create_design("tagless", small_mp_config)
    _, _, switch_stats = run_schedule(design, schedule)
    assert switch_stats["context_switches"] > 0
    assert switch_stats["context_switch_tlb_entries"] == 0


def test_schedule_omits_idle_cores(small_mp_config):
    """A core with no accesses scheduled is left out of the results,
    while a plain run reports every bound core (see test_multicore)."""
    schedule = build_schedule(scenario(tenants=1, tenant_accesses=1),
                              num_cores=4)
    busy = [core_id for core_id, segments in enumerate(schedule.per_core)
            if any(len(s.trace) for s in segments)]
    assert len(busy) == 1
    result = Simulator(small_mp_config).run_tenants("no-l3", schedule)
    assert [core.core_id for core in result.cores] == busy


@pytest.mark.parametrize("design_name", ["tagless", "no-l3"])
def test_unattributed_replay_matches_attributed(small_mp_config,
                                                design_name):
    """Without a QoS map the kernel replays every core's segments
    (tagless) or the single-core tail walks its remaining segments in
    the tight loop (no-l3); the numbers must equal the attributed replay
    that keeps every access in the argmin loop."""
    schedule = build_schedule(scenario(), num_cores=4)
    switch = dict(switch_cycles=schedule.scenario.context_switch_cycles,
                  flush_tlb=True)
    attributed = create_design(design_name, small_mp_config)
    qos = {info.tenant_id: TenantQoS(info.tenant_id, info.profile, 0, 0)
           for info in schedule.tenants}
    expected = replay(attributed, segment_lists(schedule), qos=qos,
                      **switch)
    plain = create_design(design_name, small_mp_config)
    kernel = select_kernel(plain)
    assert (kernel is not None) == (design_name == "tagless")
    actual = replay(plain, segment_lists(schedule), _kernel=kernel,
                    **switch)
    assert [dataclasses.asdict(c) for c in actual[0]] == \
        [dataclasses.asdict(c) for c in expected[0]]
    assert actual[1] == expected[1]
    assert plain.stats() == attributed.stats()


def test_replay_checks_the_qos_map_before_any_access(small_mp_config,
                                                     tiny_trace):
    design = create_design("tagless", small_mp_config)
    cores = [(0, "w", [(1, 0, tiny_trace)]),
             (2, "w", [(1, 0, tiny_trace), (7, 0, tiny_trace)])]
    with pytest.raises(ValueError, match="tenant 7 on core 2"):
        replay(design, cores, qos={1: TenantQoS(1, "unit", 0, 0)})
    assert design.stats() == create_design("tagless",
                                           small_mp_config).stats()


# ----------------------------------------------------------------------
# Attributed runs through the kernel against the reference loop.
# ----------------------------------------------------------------------
def _schedule_matches_reference(make_design, schedule):
    """``run_schedule`` (kernel) against the attributed reference loop on
    designs from ``make_design()``: stats, per-core results, switch stats
    and every tenant's QoS numbers must be equal.  Returns the stats."""
    design = make_design()
    assert select_kernel(design) is not None
    results, qos, switch_stats = run_schedule(design, schedule)
    kernel = ([dataclasses.asdict(r) for r in results], design.stats(),
              switch_stats, qos_numbers(qos))

    reference_design = make_design()
    cores, reference_qos, switch = replay_inputs(schedule)
    results, switch_stats = replay(reference_design, cores, qos=reference_qos,
                                   _kernel=None, **switch)
    reference = ([dataclasses.asdict(r) for r in results],
                 reference_design.stats(), switch_stats,
                 qos_numbers(reference_qos))
    assert kernel == reference
    assert sum(q[2] for q in kernel[3].values()) > 0  # L3 attributed
    return kernel[1]


def test_kernel_attributes_the_smoke_scenario(small_mp_config):
    schedule = build_schedule(TenantScenarioSpec.from_file(SMOKE_SCENARIO),
                              num_cores=4)
    _schedule_matches_reference(
        lambda: create_design("tagless", small_mp_config), schedule)


@pytest.mark.parametrize("overrides,num_cores,dram_cache", [
    (dict(flush_tlb_on_switch=False), 4, {}),
    (dict(context_switch_cycles=0.0), 4, {}),
    ({}, 1, {}),  # every tenant on core 0: one core, infinite horizon
    ({}, 4, dict(gipt_in_package=True)),
], ids=["no-flush", "free-switch", "one-busy-core", "gipt-in-package"])
def test_kernel_attributes_schedule_variants(small_mp_config, overrides,
                                             num_cores, dram_cache):
    config = dataclasses.replace(small_mp_config,
                                 dram_cache=dataclasses.replace(
                                     small_mp_config.dram_cache,
                                     **dram_cache))
    schedule = build_schedule(scenario(**overrides), num_cores=num_cores)
    _schedule_matches_reference(lambda: create_design("tagless", config),
                                schedule)


def test_kernel_attributes_cross_core_evictions(small_mp_config):
    """Eight tenants' footprints against the 256-page cache: fills evict
    pages other cores filled, purging their on-die lines."""
    schedule = build_schedule(scenario(tenants=8, tenant_accesses=600),
                              num_cores=4)
    stats = _schedule_matches_reference(
        lambda: create_design("tagless", small_mp_config), schedule)
    assert stats["engine_fq_evictions_completed"] > 0


def test_kernel_attributes_nc_fallbacks(small_mp_config):
    """NC pins on one tenant's hottest pages: its accesses to them fall
    back to the scalar path, whose L3 cost the kernel reads back from
    the design's ``_last_l3_*`` side channel."""
    schedule = build_schedule(scenario(), num_cores=4)
    pinned = schedule.tenants[0]
    counts = {}
    for segments in schedule.per_core:
        for s in segments:
            if s.tenant_id == pinned.tenant_id:
                for page, n in s.trace.page_access_counts().items():
                    counts[page] = counts.get(page, 0) + n
    hot = sorted(counts, key=counts.get, reverse=True)[:8]
    process_id = next(s.process_id for segments in schedule.per_core
                      for s in segments if s.tenant_id == pinned.tenant_id)

    def pinned_design():
        design = create_design("tagless", small_mp_config)
        for page in hot:
            design.set_non_cacheable(process_id, page)
        return design

    stats = _schedule_matches_reference(pinned_design, schedule)
    assert stats["nc_accesses"] > 0


def test_kernel_attributes_a_tenant_on_two_cores_at_once(small_mp_config):
    """Tenant 1's first segment runs on core 0 while its second starts on
    core 1 (after a short tenant-0 segment there), so the two cores'
    bursts add to one tenant's cycle total in turn."""
    traces = [TraceGenerator(spec_profile(name), capacity_scale=512)
              .generate(n) for name, n in (("mcf", 400), ("sphinx3", 20),
                                           ("mcf", 400), ("sphinx3", 200))]
    cores = [(0, "a", [(1, 1, traces[0]), (2, 2, traces[3])]),
             (1, "b", [(0, 0, traces[1]), (1, 1, traces[2])])]
    kernel, reference = _kernel_and_reference_replays(
        lambda: create_design("tagless", small_mp_config), cores,
        tenants=(0, 1, 2), switch_cycles=100.0, flush_tlb=True)
    assert kernel == reference
    per_core, _, switch_stats, qos, _ = reference
    assert switch_stats["context_switches"] == 2
    # Core 1 entered tenant 1 before core 0 left it.
    enters = qos[0][1] + 100.0
    leaves = qos[1][1] - (per_core[1][2] - enters)
    assert enters < leaves
