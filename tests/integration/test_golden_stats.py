"""Golden-stats regression oracle for the simulation engine.

Pins the full ``SimulationResult`` (``stats`` dict plus the headline
scalars, per-tenant QoS and the resize ledger) for every registered
design on small fixed-seed traces and on a small multi-tenant schedule.  Any
engine change that alters a single counter, latency or energy number --
however slightly -- fails here.  This is the equivalence oracle for
perf work on the hot path: an optimisation is only an optimisation if
this file does not notice it ran.

Comparison is **exact** (``==`` on floats): the simulator is fully
deterministic, so the optimized engine must reproduce the pre-recorded
numbers bit-for-bit, not merely approximately.

Regenerate (only when a deliberate behaviour change is being made, with
the change called out in the commit message)::

    PYTHONPATH=src python tests/integration/test_golden_stats.py --regenerate
"""

import dataclasses
import json
import os

import pytest

from repro.common.config import default_system
from repro.cpu.multicore import BoundTrace
from repro.cpu.simulator import Simulator
from repro.designs.registry import ALL_DESIGN_NAMES
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import spec_profile
from repro.workloads.tenants import TenantScenarioSpec, build_schedule

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_stats.json")

#: Trace lengths are deliberately small: the oracle must stay cheap
#: enough to run in the tier-1 suite on every commit.
SINGLE_ACCESSES = 3000
QUAD_ACCESSES = 2000

#: Designs exercised in the 4-core multi-programmed point (the full
#: cross-product would triple suite time for no extra coverage: the
#: remaining designs share the same multicore engine code).
QUAD_DESIGNS = ("no-l3", "tagless")

QUAD_WORKLOADS = ("mcf", "lbm", "milc", "sphinx3")

#: Multi-tenant scenario replayed on the 4-core config for every design
#: (context switches, TLB flushes and a shrink/grow resize schedule).
TENANT_SCENARIO = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks",
    "studies", "multitenant_smoke_scenario.json",
)

#: Design replayed once more on the ``window`` core model, whose derived
#: ROB constant must follow each incoming tenant's base CPI.
TENANT_WINDOW_DESIGN = "tagless-resizable"


def _single_core_config():
    cfg = default_system(cache_megabytes=128, num_cores=1,
                         capacity_scale=512)
    return dataclasses.replace(cfg, tlb_scale=32)


def _quad_core_config():
    cfg = default_system(cache_megabytes=512, num_cores=4,
                         capacity_scale=512)
    return dataclasses.replace(cfg, tlb_scale=32)


def _tenant_schedule():
    scenario = TenantScenarioSpec.from_file(TENANT_SCENARIO)
    return build_schedule(scenario, num_cores=4)


def _trace(workload: str, accesses: int):
    generator = TraceGenerator(spec_profile(workload), capacity_scale=512)
    return generator.generate(accesses)


def _point(result) -> dict:
    return {
        "ipc_sum": result.ipc_sum,
        "elapsed_ns": result.elapsed_ns,
        "mean_l3_latency_cycles": result.mean_l3_latency_cycles,
        "total_energy_j": result.total_energy_j,
        "per_core_cycles": [core.cycles for core in result.cores],
        "per_core_instructions": [core.instructions
                                  for core in result.cores],
        "stats": result.stats,
    }


def compute_point(name: str) -> dict:
    """Simulate one golden point by name ("single:<design>",
    "quad:<design>", "tenants:<design>" or "tenants-window:<design>")."""
    kind, design = name.split(":", 1)
    if kind.startswith("tenants"):
        config = _quad_core_config()
        if kind == "tenants-window":
            config = dataclasses.replace(
                config,
                core=dataclasses.replace(config.core, model="window"),
            )
        result = Simulator(config).run_tenants(design, _tenant_schedule())
        point = _point(result)
        point["tenants"] = result.tenants
        point["resize_events"] = result.resize_events
        return point
    if kind == "single":
        simulator = Simulator(_single_core_config())
        bindings = [BoundTrace(0, 0, _trace("sphinx3", SINGLE_ACCESSES))]
    else:
        simulator = Simulator(_quad_core_config())
        bindings = [
            BoundTrace(core, core, _trace(workload, QUAD_ACCESSES))
            for core, workload in enumerate(QUAD_WORKLOADS)
        ]
    return _point(simulator.run(design, bindings))


def point_names():
    names = [f"single:{design}" for design in ALL_DESIGN_NAMES]
    names += [f"quad:{design}" for design in QUAD_DESIGNS]
    names += [f"tenants:{design}" for design in ALL_DESIGN_NAMES]
    names.append(f"tenants-window:{TENANT_WINDOW_DESIGN}")
    return names


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", point_names())
def test_stats_match_golden(name):
    golden = _load_golden()
    assert name in golden, (
        f"no golden for {name!r}; regenerate via "
        f"`python {os.path.relpath(__file__)} --regenerate`"
    )
    expected = golden[name]
    actual = _point_roundtrip(compute_point(name))
    assert actual["stats"].keys() == expected["stats"].keys()
    for key, value in expected["stats"].items():
        assert actual["stats"][key] == value, (
            f"{name}: stats[{key!r}] = {actual['stats'][key]!r}, "
            f"golden has {value!r}"
        )
    for key in expected:
        if key == "stats":
            continue
        assert actual[key] == expected[key], (
            f"{name}: {key} = {actual[key]!r}, golden has {expected[key]!r}"
        )


def _point_roundtrip(point: dict) -> dict:
    """Pass the computed point through JSON so int/float identity
    matches what the golden file stores."""
    return json.loads(json.dumps(point))


def regenerate() -> None:
    golden = {}
    for name in point_names():
        golden[name] = compute_point(name)
        print(f"  {name}: done")
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        raise SystemExit("usage: test_golden_stats.py --regenerate")
    regenerate()
