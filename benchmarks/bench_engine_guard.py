"""Fused-kernel speedup guard: the kernel must stay fast for every design.

The simulator replays through
:func:`repro.cpu.batched.run_interleaved_batched`, which runs the fused
kernel where it applies.  The kernel exists to be faster than
the reference loop (:func:`repro.cpu.multicore.run_interleaved`) while
staying bit-identical to it (the golden oracle locks identity; this
guard locks *speed*).  For each design it replays one workload through
both on fresh design instances, takes the best of ``--repeat`` timings,
and fails if the kernel / reference ratio falls below ``--min-ratio``::

    PYTHONPATH=src python benchmarks/bench_engine_guard.py --smoke
    PYTHONPATH=src python benchmarks/bench_engine_guard.py --smoke \
        --workload MIX1
    PYTHONPATH=src python benchmarks/bench_engine_guard.py --smoke \
        --workload benchmarks/studies/multitenant_smoke_scenario.json
    PYTHONPATH=src python benchmarks/bench_engine_guard.py --smoke \
        --designs no-l3 bi sram ideal alloy --min-ratio 1.15
    PYTHONPATH=src python benchmarks/bench_engine_guard.py \
        --designs tagless --accesses 100000 --min-ratio 2.0

``--workload`` is a SPEC program (one core), a Table 5 mix such as
``MIX1`` (its four programs on a four-core machine, ``--accesses`` per
program), which times the kernel's multi-core argmin, or the path of a
tenant-scenario JSON file.  A scenario is scheduled onto four cores
(the scenario fixes its own length; ``--accesses`` does not apply) and
timed through :func:`repro.cpu.scheduled.run_schedule`, which hands the
kernel the attributed run, against the attributed reference loop
(``replay(..., qos=..., _kernel=None)``).  A design that takes a
resize schedule (``tagless-resizable``) gets the scenario's ``resize``
events armed on both paths, as ``Simulator.run_tenants`` arms them.

The default floor (1.5x on the smoke workload, for the default
``tagless``) is deliberately well below the measured speedup: this is a
tripwire for "someone put per-access work back on the kernel path" (or
silently stopped selecting the kernel), not a performance contract for
a particular machine.  The five comparators call their own L3 service
from the kernel, so they gain less and CI guards them at 1.15x.  The
reference loop calls the plain structure models, so the ratios sit well
above both floors: on a shared 2-vCPU host, three runs gave the
comparators 1.95-2.93x on mcf and 1.99-2.93x on MIX1 (sram lowest at
1.95x), and tagless 2.55-3.58x.  The design's whole ``stats()`` dictionary
and every core's IPC are compared exactly across the two paths as a
free correctness canary (plus every tenant's QoS dictionary on a
scenario) -- a guard run that got faster by diverging is a failure, not
a win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli.main import _bounded  # noqa: E402
from repro.common.config import default_system  # noqa: E402
from repro.cpu.batched import run_interleaved_batched  # noqa: E402
from repro.cpu.multicore import (  # noqa: E402
    BoundTrace,
    replay,
    run_interleaved,
)
from repro.cpu.scheduled import replay_inputs, run_schedule  # noqa: E402
from repro.designs.registry import (  # noqa: E402
    ALL_DESIGN_NAMES,
    create_design,
)
from repro.workloads.generator import TraceGenerator  # noqa: E402
from repro.workloads.mixes import MIXES, mix_traces  # noqa: E402
from repro.workloads.spec import spec_profile  # noqa: E402
from repro.workloads.tenants import (  # noqa: E402
    TenantScenarioSpec,
    build_schedule,
)

SMOKE_ACCESSES = 20_000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--designs", nargs="+", default=["tagless"],
                        choices=ALL_DESIGN_NAMES, metavar="DESIGN",
                        help="designs to compare (default: tagless)")
    parser.add_argument("--workload", default="mcf",
                        help="SPEC program (one core), mix name such as "
                             "MIX1 (four cores) or tenant-scenario JSON "
                             "path (four cores) driving the replay "
                             "(default mcf)")
    parser.add_argument("--accesses", type=_bounded(int, 1), default=100_000,
                        help="trace length per program (default 100k)")
    parser.add_argument("--repeat", type=_bounded(int, 1), default=3,
                        help="timings per path; best is compared")
    parser.add_argument("--cache-mb", type=int, default=1024)
    parser.add_argument("--scale", type=int, default=64)
    parser.add_argument("--min-ratio", type=_bounded(float, 0, strict=True),
                        default=1.5,
                        help="required kernel/reference throughput ratio "
                             "(default 1.5)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI size: {SMOKE_ACCESSES} accesses, repeat "
                             "bumped to 5 to tame timing noise")
    parser.add_argument("--json", action="store_true",
                        help="emit the comparison as JSON on stdout")
    return parser.parse_args(argv)


#: Cores a tenant scenario is scheduled onto (what a tenant JobSpec uses).
SCENARIO_CORES = 4


def _best_of(config, design: str, repeat: int, replay):
    """(best wall seconds, outcome) over ``repeat`` calls of
    ``replay(instance)``, each on a freshly built design; the outcome is
    the design's stats, every core's IPC and the per-tenant QoS
    dictionaries (``None`` for an unattributed run)."""
    best = float("inf")
    outcome = None
    for _ in range(repeat):
        instance = create_design(design, config)
        start = time.perf_counter()
        cores, tenants = replay(instance)
        best = min(best, time.perf_counter() - start)
        outcome = (instance.stats(), [core.ipc for core in cores], tenants)
    return best, outcome


def workload_bindings(args: argparse.Namespace, accesses: int):
    """Bindings of ``args.workload``: one core for a SPEC program, four
    for a mix."""
    if args.workload in MIXES:
        traces = mix_traces(args.workload, accesses_per_program=accesses,
                            capacity_scale=args.scale)
    else:
        traces = [TraceGenerator(spec_profile(args.workload),
                                 capacity_scale=args.scale)
                  .generate(accesses)]
    for trace in traces:
        trace.as_lists()  # convert once, outside every timed replay
    return [BoundTrace(core, core, trace)
            for core, trace in enumerate(traces)]


def _qos_dicts(qos) -> dict:
    return {tenant: q.to_dict() for tenant, q in qos.items()}


def workload_replays(args: argparse.Namespace, accesses: int):
    """``(num_cores, accesses, reference, kernel)`` for ``args.workload``;
    each replay maps a fresh design to ``(core results, QoS dicts)``."""
    if not args.workload.endswith(".json"):
        bindings = workload_bindings(args, accesses)
        return (
            len(bindings), accesses * len(bindings),
            lambda design: (run_interleaved(design, bindings), None),
            lambda design: (run_interleaved_batched(design, bindings), None),
        )
    scenario = TenantScenarioSpec.from_file(args.workload)
    schedule = build_schedule(scenario, num_cores=SCENARIO_CORES)
    for segments in schedule.per_core:
        for segment in segments:
            segment.trace.as_lists()  # convert once, outside every replay

    def arm(design):
        """Arm the scenario's resize schedule where the design takes one,
        as ``Simulator.run_tenants`` does (microseconds, so timed)."""
        set_schedule = getattr(design, "set_resize_schedule", None)
        if set_schedule is not None and scenario.resize:
            set_schedule(scenario.resize,
                         max_remap_per_resize=scenario.max_remap_per_resize)

    def reference(design):
        arm(design)
        cores, qos, switch = replay_inputs(schedule)
        results, _ = replay(design, cores, qos=qos, _kernel=None, **switch)
        return results, _qos_dicts(qos)

    def kernel(design):
        arm(design)
        results, qos, _ = run_schedule(design, schedule)
        return results, _qos_dicts(qos)

    return SCENARIO_CORES, schedule.total_accesses, reference, kernel


def run_guard(args: argparse.Namespace) -> list:
    per_program = SMOKE_ACCESSES if args.smoke else args.accesses
    repeat = max(args.repeat, 5) if args.smoke else args.repeat
    num_cores, accesses, reference_replay, kernel_replay = \
        workload_replays(args, per_program)
    config = default_system(cache_megabytes=args.cache_mb,
                            num_cores=num_cores,
                            capacity_scale=args.scale)

    rows = []
    for design in args.designs:
        reference_s, reference = _best_of(config, design, repeat,
                                          reference_replay)
        kernel_s, kernel = _best_of(config, design, repeat, kernel_replay)
        ratio = (reference_s / kernel_s) if kernel_s > 0 else 0.0
        identical = reference == kernel
        status = "ok" if (ratio >= args.min_ratio and identical) else "FAIL"
        rows.append({
            "design": design,
            "accesses": accesses,
            "reference_accesses_per_second":
                accesses / reference_s if reference_s > 0 else 0.0,
            "kernel_accesses_per_second":
                accesses / kernel_s if kernel_s > 0 else 0.0,
            "ratio": ratio,
            "results_identical": identical,
            "status": status,
        })
        note = "" if identical else "  RESULTS DIVERGED"
        print(f"  [{status:4s}] {design:8s} kernel/reference "
              f"{ratio:5.2f}x (floor {args.min_ratio:g}x){note}",
              file=sys.stderr)
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    print(f"kernel guard (floor {args.min_ratio:g}x, "
          f"workload {args.workload})", file=sys.stderr)
    rows = run_guard(args)
    failures = [r for r in rows if r["status"] == "FAIL"]
    if args.json:
        print(json.dumps(rows, indent=2))
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} designs)"
    print(f"kernel guard: {verdict}")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
