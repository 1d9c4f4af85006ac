"""Call gate: Python calls per simulated access, this tree against a base.

For every design on each in-process perfbench workload (``spec-single``,
``mix-quad`` and ``tenants-resize`` at seed 1), counts the Python calls
that cProfile records per simulated access, in a base checkout (normally
the parent commit) and in this tree::

    git clone . /tmp/base && git -C /tmp/base checkout HEAD~1
    python3 benchmarks/call_gate.py /tmp/base

Each point runs twice and only the second run is profiled, so lazy
set-up stays out of the count.  The counts repeat exactly from run to
run, so one pass per tree is enough: unlike ``perf_gate.py`` this gate
cannot flake on a busy host.  cProfile counts builtin calls too, and
their number can differ between Python versions, so both trees are
counted by this interpreter, each in a child process of its own that
imports that tree's ``src`` and ``perfbench``.

It fails when a design's count in this tree exceeds the base's by more
than ``TOLERANCE`` of the base's count on any workload.  The wall-clock
gates (``perf_gate.py``, ``bench_engine_guard.py``) stay as they are;
this one adds to them.  Exit status 0 on PASS, 1 on FAIL.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("spec-single", "mix-quad", "tenants-resize")
SEED = 1
#: A count may rise by at most this share of the base's count.  The
#: counts themselves repeat exactly; the slack admits a call added on a
#: rare path (a few per thousand accesses), not one added per access.
TOLERANCE = 0.005

#: workload -> design -> calls per simulated access.
Counts = Dict[str, Dict[str, float]]


def count_calls(tree: str) -> Counts:
    """Calls per simulated access of every design on every workload of
    ``tree``, counted in this process (``tree``'s sources imported)."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # as perfbench's isolate_environment
    sys.path[:0] = [os.path.join(tree, "src"),
                    os.path.join(tree, "perfbench")]
    import workloads  # the tree's perfbench/workloads.py

    counts: Counts = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for name in WORKLOADS:
            workload = workloads.WORKLOADS[name](SEED, False, out_dir)
            workload.setup()
            calls: Dict[str, int] = {}
            accesses: Dict[str, int] = {}
            for _label, design, n, simulate in workload.points():
                simulate()
                profiler = cProfile.Profile()
                profiler.enable()
                simulate()
                profiler.disable()
                total = pstats.Stats(profiler).total_calls
                calls[design] = calls.get(design, 0) + total
                accesses[design] = accesses.get(design, 0) + n
            counts[name] = {design: calls[design] / accesses[design]
                            for design in calls}
    return counts


def run_count(tree: str) -> Counts:
    """:func:`count_calls` of ``tree`` in a child process of this
    interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--count", tree],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"call gate: counting {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def judge(base: Counts, change: Counts) -> Tuple[List[str], List[str]]:
    """``(table lines, failures)``: one row per workload and design."""
    lines, failures = [], []
    for workload in WORKLOADS:
        lines.append(f"== {workload}")
        lines.append(f"  {'design':20s} {'base':>8s} {'change':>8s} "
                     f"{'ratio':>7s}  verdict")
        for design, base_count in base[workload].items():
            count = change[workload].get(design)
            if count is None:
                failures.append(f"{workload}/{design}: no count in this "
                                "tree")
                continue
            failed = count > base_count * (1.0 + TOLERANCE)
            lines.append(f"  {design:20s} {base_count:8.3f} {count:8.3f} "
                         f"{count / base_count:7.3f}  "
                         f"{'FAIL' if failed else 'ok'}")
            if failed:
                failures.append(
                    f"{workload}/{design}: {count:.3f} calls per access "
                    f"vs {base_count:.3f} (tolerance {TOLERANCE:.1%})")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", nargs="?",
                        help="checkout of the base commit (the parent)")
    parser.add_argument("--count", metavar="TREE",
                        help="print TREE's counts as JSON and exit (the "
                             "child process's mode)")
    args = parser.parse_args(argv)
    if args.count:
        print(json.dumps(count_calls(os.path.abspath(args.count))))
        return 0
    if not args.base_dir:
        parser.error("a base checkout is required")
    base_dir = os.path.abspath(args.base_dir)
    if not os.path.isfile(os.path.join(base_dir, "perfbench",
                                       "workloads.py")):
        parser.error(f"{base_dir} holds no perfbench/workloads.py")
    lines, failures = judge(run_count(base_dir), run_count(ROOT))
    print("\n".join(lines), flush=True)
    for line in failures:
        print(f"call gate: FAIL {line}", file=sys.stderr)
    print("call gate: " + ("PASS" if not failures else
                           f"FAIL ({len(failures)} counts)"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
