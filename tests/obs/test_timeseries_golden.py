"""Timeseries golden: window columns and JSONL artifacts, byte for byte.

Pins what telemetry writes -- every window column, as the JSONL
artifact carries it -- on 4-core runs with an
:class:`~repro.validate.invariants.InvariantChecker` composed: access-
and cycle-unit windows, on ``tagless`` and on ``tagless-resizable``
with a shrink/grow capacity schedule (one event in the warmup slice,
two in the measured window), bound traces and a tenant schedule.  The
``timeseries-only`` cases attach nothing but the recorder, so they are
free to replay through the fused kernel; the ``full`` case adds the
event tracer and the latency histogram, whose artifact also carries the
histogram record and the trace-capture ledger.  Where a window, a sweep
and a resize fall, the per-core IPC each window reads and the last
window's timestamp all show up in these bytes.

Regenerate (only for a deliberate behaviour change)::

    PYTHONPATH=src python tests/obs/test_timeseries_golden.py --regenerate
"""

import dataclasses
import json
import os

import pytest

from repro.common.config import default_system
from repro.cpu.multicore import BoundTrace
from repro.cpu.simulator import Simulator
from repro.obs import Telemetry, TimeseriesRecorder, make_telemetry
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import spec_profile
from repro.workloads.tenants import TenantScenarioSpec, build_schedule

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "timeseries.json")

TENANT_SCENARIO = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks",
    "studies", "multitenant_smoke_scenario.json",
)

WORKLOADS = ("mcf", "lbm", "milc", "sphinx3")
ACCESSES = 1500

#: ``(at_access, capacity)``: lifetime access counts, warmup included
#: (4 cores x 1500 accesses, the first quarter of each trace warms).
RESIZE = ((900, 0.75), (2600, 0.6), (4700, 1.0))

#: ``(unit, interval)`` of each window flavour.
UNITS = {"accesses": ("accesses", 250), "cycles": ("cycles", 9000)}

CHECK_EVERY = 300


def _config():
    config = default_system(cache_megabytes=512, num_cores=4,
                            capacity_scale=512)
    return dataclasses.replace(config, tlb_scale=32)


def _bindings():
    return [
        BoundTrace(core, core, TraceGenerator(
            spec_profile(workload), capacity_scale=512).generate(ACCESSES))
        for core, workload in enumerate(WORKLOADS)
    ]


def _telemetry(unit: str, full: bool):
    kind, interval = UNITS[unit]
    if full:
        return make_telemetry(interval=interval, unit=kind)
    return Telemetry(timeseries=TimeseriesRecorder(interval, kind),
                     latency_histogram=False)


def case_names():
    names = []
    for design in ("tagless", "tagless-resizable"):
        for unit in UNITS:
            names.append(f"bound:{design}:{unit}:timeseries-only")
    names.append("bound:tagless-resizable:cycles:full")
    names.append("tenants:tagless-resizable:accesses:timeseries-only")
    names.append("tenants:tagless:cycles:timeseries-only")
    return names


def compute_case(name: str, tmp_dir: str) -> dict:
    kind, design, unit, flavour = name.split(":")
    telemetry = _telemetry(unit, flavour == "full")
    simulator = Simulator(_config())
    if kind == "bound":
        result = simulator.run(
            design, _bindings(), validate=True, validate_every=CHECK_EVERY,
            telemetry=telemetry, resize_schedule=RESIZE,
            max_remap_per_resize=8)
    else:
        scenario = TenantScenarioSpec.from_file(TENANT_SCENARIO)
        result = simulator.run_tenants(
            design, build_schedule(scenario, num_cores=4), validate=True,
            validate_every=CHECK_EVERY, telemetry=telemetry)
    path = os.path.join(tmp_dir, name.replace(":", "_") + ".jsonl")
    telemetry.write_artifacts(timeseries_path=path, workload=name)
    with open(path) as handle:
        artifact = handle.read().splitlines()
    return {
        "artifact": artifact,
        "windows": telemetry.timeseries.windows,
        "resize_events": result.resize_events,
        "ipc_sum": result.ipc_sum,
        "elapsed_ns": result.elapsed_ns,
    }


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", case_names())
def test_timeseries_matches_golden(name, tmp_path):
    expected = _load_golden()[name]
    actual = json.loads(json.dumps(compute_case(name, str(tmp_path))))
    assert actual["artifact"] == expected["artifact"]
    assert actual == expected


def regenerate() -> None:
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as tmp_dir:
        for name in case_names():
            golden[name] = compute_case(name, tmp_dir)
            print(f"  {name}: {golden[name]['windows']} windows")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        raise SystemExit("usage: test_timeseries_golden.py --regenerate")
    regenerate()
