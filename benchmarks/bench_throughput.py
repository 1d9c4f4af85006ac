"""Simulation-engine throughput benchmark (accesses per second).

Unlike the figure benchmarks, this one measures the *simulator*, not the
simulated machine: how many memory references per wall-clock second the
simulator sustains for each design.  Its numbers form the perf
trajectory future PRs are judged against -- a hot-path regression shows
up here before it shows up as slow figure runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_throughput.py --json

The full run replays ``--accesses`` references (default 200k) of one
SPEC workload through every selected design and reports the best of
``--repeat`` timings (best-of is the standard way to suppress scheduler
noise in throughput numbers).  ``--smoke`` shrinks the trace to a few
thousand accesses so CI can prove the entry point works without paying
for a real measurement.  The text table is archived to
``benchmarks/results/throughput.txt`` like the figure tables, and
``--json`` additionally writes the machine-readable records (per-design
acc/s, best-of-N) to ``benchmarks/results/BENCH_throughput.json`` so
perf trajectories can be diffed across PRs without parsing tables.

Every point runs ``Simulator.run`` as-is, so tagless times the fused
kernel of :mod:`repro.cpu.batched` and the other designs the reference
loop.  The IPC column is a correctness canary across revisions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.common.config import default_system  # noqa: E402
from repro.cpu.multicore import BoundTrace  # noqa: E402
from repro.cpu.simulator import Simulator  # noqa: E402
from repro.designs.registry import ALL_DESIGN_NAMES  # noqa: E402
from repro.workloads.generator import TraceGenerator  # noqa: E402
from repro.workloads.spec import spec_profile  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SMOKE_ACCESSES = 4000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--designs", nargs="+", default=list(ALL_DESIGN_NAMES),
                        choices=ALL_DESIGN_NAMES, metavar="DESIGN",
                        help="designs to time (default: all registered)")
    parser.add_argument("--workload", default="mcf",
                        help="SPEC program driving the engine (default mcf)")
    parser.add_argument("--accesses", type=int, default=200_000,
                        help="trace length per timing (default 200k)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timings per design; best is reported")
    parser.add_argument("--cache-mb", type=int, default=1024)
    parser.add_argument("--scale", type=int, default=64)
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny trace ({SMOKE_ACCESSES} accesses, one "
                             "repeat): exercises the entry point, does not "
                             "measure")
    parser.add_argument("--json", action="store_true",
                        help="emit results as JSON on stdout and archive "
                             "them to benchmarks/results/"
                             "BENCH_throughput.json")
    parser.add_argument("--no-archive", action="store_true",
                        help="do not write benchmarks/results/ artifacts")
    return parser.parse_args(argv)


def time_design(design_name: str, simulator: Simulator, bindings,
                repeat: int) -> dict:
    """Best-of-``repeat`` wall time for one design; returns a record."""
    total_accesses = sum(len(b.trace) for b in bindings)
    best = float("inf")
    ipc = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = simulator.run(design_name, bindings)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        ipc = result.ipc_sum
    return {
        "design": design_name,
        "accesses": total_accesses,
        "seconds": best,
        # A zero-length run finishes in ~0s and serves 0 accesses; its
        # rate is reported as 0 rather than nan/inf.
        "accesses_per_second": (total_accesses / best) if best > 0 else 0.0,
        "ipc": ipc,
    }


def run(args: argparse.Namespace) -> list:
    accesses = SMOKE_ACCESSES if args.smoke else args.accesses
    repeat = 1 if args.smoke else args.repeat
    generator = TraceGenerator(spec_profile(args.workload),
                               capacity_scale=args.scale)
    trace = generator.generate(accesses)
    config = default_system(cache_megabytes=args.cache_mb, num_cores=1,
                            capacity_scale=args.scale)
    simulator = Simulator(config)
    bindings = [BoundTrace(0, 0, trace)]
    records = []
    for design in args.designs:
        record = time_design(design, simulator, bindings, repeat)
        record["workload"] = args.workload
        records.append(record)
        print(f"  {design:8s} {record['accesses_per_second']:12,.0f} acc/s "
              f"({record['seconds'] * 1e3:8.1f} ms)", file=sys.stderr)
    return records


def table(records: list, args: argparse.Namespace) -> str:
    lines = [
        "Simulation-engine throughput "
        f"(workload {args.workload}, {records[0]['accesses']} accesses, "
        f"best of {1 if args.smoke else args.repeat})",
        f"{'design':10s} {'accesses/s':>14s} {'ms/run':>10s}",
    ]
    for record in records:
        lines.append(
            f"{record['design']:10s} "
            f"{record['accesses_per_second']:14,.0f} "
            f"{record['seconds'] * 1e3:10.1f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    records = run(args)
    text = table(records, args)
    if args.json:
        print(json.dumps(records, indent=2))
    else:
        print(text)
    if not args.no_archive and not args.smoke:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, "throughput.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print(f"archived to {path}", file=sys.stderr)
        if args.json:
            payload = {
                "benchmark": "throughput",
                "workload": args.workload,
                "accesses": records[0]["accesses"] if records else 0,
                "repeat": args.repeat,
                "records": records,
            }
            json_path = os.path.join(RESULTS_DIR, "BENCH_throughput.json")
            with open(json_path, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"archived to {json_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
