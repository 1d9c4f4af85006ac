"""Context-switched tenant replay through the one replay loop."""

import dataclasses

import pytest

from repro.cpu.batched import select_kernel
from repro.cpu.multicore import replay
from repro.cpu.scheduled import TenantQoS, run_schedule
from repro.cpu.simulator import Simulator
from repro.designs import create_design
from repro.workloads.tenants import TenantScenarioSpec, build_schedule


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
