"""Fused-kernel speedup guard: the tagless kernel must stay fast.

The simulator replays through
:func:`repro.cpu.batched.run_interleaved_batched`, which runs the fused
tagless kernel where it applies.  The kernel exists to be faster than
the reference loop (:func:`repro.cpu.multicore.run_interleaved`) while
staying bit-identical to it (the golden oracle locks identity; this
guard locks *speed*).  For each design it replays one workload through
both on fresh design instances, takes the best of ``--repeat`` timings,
and fails if the kernel / reference ratio falls below ``--min-ratio``::

    PYTHONPATH=src python benchmarks/bench_engine_guard.py --smoke
    PYTHONPATH=src python benchmarks/bench_engine_guard.py \
        --designs tagless --accesses 100000 --min-ratio 2.0

The default floor (1.5x on the smoke workload) is deliberately well
below the measured speedup: this is a tripwire for "someone put
per-access work back on the kernel path" (or silently stopped selecting
the kernel), not a performance contract for a particular machine.  IPC
is compared exactly across the two paths as a free correctness canary
-- a guard run that got faster by diverging is a failure, not a win.
Designs without a kernel replay the reference loop both ways, so only
``tagless`` can pass the default floor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.common.config import default_system  # noqa: E402
from repro.cpu.batched import run_interleaved_batched  # noqa: E402
from repro.cpu.multicore import BoundTrace, run_interleaved  # noqa: E402
from repro.designs.registry import (  # noqa: E402
    ALL_DESIGN_NAMES,
    create_design,
)
from repro.workloads.generator import TraceGenerator  # noqa: E402
from repro.workloads.spec import spec_profile  # noqa: E402

SMOKE_ACCESSES = 20_000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--designs", nargs="+", default=["tagless"],
                        choices=ALL_DESIGN_NAMES, metavar="DESIGN",
                        help="designs to compare (default: tagless, the "
                             "only design with a fused kernel)")
    parser.add_argument("--workload", default="mcf",
                        help="SPEC program driving the replay (default mcf)")
    parser.add_argument("--accesses", type=int, default=100_000,
                        help="trace length per timing (default 100k)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timings per path; best is compared")
    parser.add_argument("--cache-mb", type=int, default=1024)
    parser.add_argument("--scale", type=int, default=64)
    parser.add_argument("--min-ratio", type=float, default=1.5,
                        help="required kernel/reference throughput ratio "
                             "(default 1.5)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI size: {SMOKE_ACCESSES} accesses, repeat "
                             "bumped to 5 to tame timing noise")
    parser.add_argument("--json", action="store_true",
                        help="emit the comparison as JSON on stdout")
    return parser.parse_args(argv)


def _best_of(config, design: str, bindings, repeat: int, replay):
    """(best wall seconds, ipc) over ``repeat`` replays by ``replay``,
    each on a freshly built design."""
    best = float("inf")
    ipc = None
    for _ in range(repeat):
        instance = create_design(design, config)
        start = time.perf_counter()
        cores = replay(instance, bindings)
        best = min(best, time.perf_counter() - start)
        ipc = sum(core.ipc for core in cores)
    return best, ipc


def run_guard(args: argparse.Namespace) -> list:
    accesses = SMOKE_ACCESSES if args.smoke else args.accesses
    repeat = max(args.repeat, 5) if args.smoke else args.repeat
    generator = TraceGenerator(spec_profile(args.workload),
                               capacity_scale=args.scale)
    trace = generator.generate(accesses)
    config = default_system(cache_megabytes=args.cache_mb, num_cores=1,
                            capacity_scale=args.scale)
    trace.as_lists()  # convert once, outside every timed replay
    bindings = [BoundTrace(0, 0, trace)]

    rows = []
    for design in args.designs:
        reference_s, reference_ipc = _best_of(config, design, bindings,
                                              repeat, run_interleaved)
        kernel_s, kernel_ipc = _best_of(config, design, bindings, repeat,
                                        run_interleaved_batched)
        ratio = (reference_s / kernel_s) if kernel_s > 0 else 0.0
        identical = reference_ipc == kernel_ipc
        status = "ok" if (ratio >= args.min_ratio and identical) else "FAIL"
        rows.append({
            "design": design,
            "accesses": accesses,
            "reference_accesses_per_second":
                accesses / reference_s if reference_s > 0 else 0.0,
            "kernel_accesses_per_second":
                accesses / kernel_s if kernel_s > 0 else 0.0,
            "ratio": ratio,
            "ipc_identical": identical,
            "status": status,
        })
        note = "" if identical else "  IPC DIVERGED"
        print(f"  [{status:4s}] {design:8s} kernel/reference "
              f"{ratio:5.2f}x (floor {args.min_ratio:g}x){note}",
              file=sys.stderr)
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.min_ratio <= 0:
        raise SystemExit("--min-ratio must be positive")
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
