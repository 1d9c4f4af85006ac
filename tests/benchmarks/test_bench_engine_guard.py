"""The kernel speedup guard on a tenant scenario.

The guard lives outside the package (it is a script), so it is loaded
by file path here.  The speed floor is machine-dependent and left to CI;
this pins the scenario path and its correctness canary.
"""

import importlib.util
import os

_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
_GUARD_PATH = os.path.join(_ROOT, "benchmarks", "bench_engine_guard.py")
_SCENARIO = os.path.join(_ROOT, "benchmarks", "studies",
                         "multitenant_smoke_scenario.json")


def _load_guard():
    spec = importlib.util.spec_from_file_location("bench_engine_guard",
                                                  _GUARD_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scenario_workload_compares_tenant_qos():
    guard = _load_guard()
    args = guard.parse_args(["--workload", _SCENARIO, "--repeat", "1",
                             "--min-ratio", "0.01"])
    num_cores, accesses, reference, kernel = guard.workload_replays(
        args, accesses=10)
    assert num_cores == guard.SCENARIO_CORES
    assert accesses > 10  # the scenario fixes its own length
    config = guard.default_system(cache_megabytes=args.cache_mb,
                                  num_cores=num_cores,
                                  capacity_scale=args.scale)
    _, kernel_outcome = guard._best_of(config, "tagless", 1, kernel)
    _, reference_outcome = guard._best_of(config, "tagless", 1, reference)
    tenants = kernel_outcome[2]
    assert len(tenants) == 8
    assert all(t["l3_accesses"] > 0 for t in tenants.values())
    assert kernel_outcome == reference_outcome
    [row] = guard.run_guard(args)
    assert row["results_identical"]
    assert row["accesses"] == accesses
    assert row["status"] == "ok"
