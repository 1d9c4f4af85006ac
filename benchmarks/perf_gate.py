"""Perf gate: this tree's perfbench metrics against a base tree's.

Runs ``perfbench/run.py --seed 1 --seconds 0 --trace 0`` on each gated
workload from a base checkout (normally the parent commit) and from this
tree, as ``PAIRS`` pairs, alternating which tree runs first::

    git clone . /tmp/base && git -C /tmp/base checkout HEAD~1
    python3 benchmarks/perf_gate.py /tmp/base

Both trees run from the same kind of place: this tree's working files
(tracked and untracked, uncommitted edits included, ignored files left
out) are copied to a fresh directory beside the base checkout, measured
there and removed at the end.  Where a checkout lives moves the timings
by itself: measured in place against a fresh clone, a tree whose
benchmark path was untouched read 0.87-0.95x on ``spec-single``.  An
A/A run -- this tree against a clone of itself, ``git clone . /tmp/same``
-- shows how close two copies of one tree measure.

It fails when any run is not ``"correct": true`` or has failed points,
and it fails an end-to-end metric of ``BENCHMARK.json`` when both hold:

- the change's median is worse than the base's by more than that
  metric's ``bound`` (read from ``BENCHMARK.json``, so the gate and the
  benchmark agree on what a regression is);
- the change is worse in at least ``MIN_WORSE_PAIRS`` of the pairs, so
  one noisy run cannot move the verdict on its own.

Exit status 0 on PASS, 1 on FAIL.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: ``campaign-sweep`` is left out: at ``--seconds 0`` its runs are a
#: handful of short pool jobs, and the spread between the quartiles of
#: one tree's runs measured 0.22-0.37 of the median, as wide as the 0.25
#: bound or wider.  Its layers keep their functional CI gates (chaos,
#: campaign, status).
WORKLOADS = ("spec-single", "mix-quad", "tenants-resize")
PAIRS = 5
MIN_WORSE_PAIRS = 4
RUN_ARGS = ("--seed", "1", "--seconds", "0", "--trace", "0")


def load_end_to_end(path: str = BENCHMARK_PATH) -> List[dict]:
    """The end-to-end metrics of ``BENCHMARK.json``: name, better, bound."""
    with open(path) as handle:
        return json.load(handle)["end_to_end"]


def _run_failures(label: str, runs: Sequence[dict]) -> List[str]:
    """One line per run that is not correct or has failed points."""
    return [f"{label} run {i + 1}: correct={run.get('correct')} "
            f"failed={run.get('failed')}"
            for i, run in enumerate(runs)
            if run.get("correct") is not True or run.get("failed") != 0]


def _worse(change: float, base: float, better: str) -> bool:
    return change < base if better == "higher" else change > base


def _past_bound(change: float, base: float, better: str,
                bound: float) -> bool:
    if better == "higher":
        return change < base * (1.0 - bound)
    return change > base * (1.0 + bound)


def judge(base_runs: Sequence[dict], change_runs: Sequence[dict],
          end_to_end: Sequence[dict]) -> Tuple[List[dict], List[str]]:
    """``(rows, failures)`` for one workload's paired runs.

    ``base_runs[i]`` and ``change_runs[i]`` are pair ``i``.  Each row
    holds a metric's medians, their ratio, the pairs the change lost and
    whether the metric failed; ``failures`` names every failed run and
    every failed metric.
    """
    failures = (_run_failures("base", base_runs)
                + _run_failures("change", change_runs))
    rows = []
    for metric in end_to_end:
        name, better, bound = (metric["name"], metric["better"],
                               metric["bound"])
        base = [run["metrics"][name]["value"] for run in base_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        worse_pairs = sum(_worse(c, b, better) for b, c in zip(base, change))
        failed = (_past_bound(change_median, base_median, better, bound)
                  and worse_pairs >= MIN_WORSE_PAIRS)
        rows.append({
            "metric": name, "better": better, "bound": bound,
            "base_median": base_median, "change_median": change_median,
            "ratio": change_median / base_median if base_median else None,
            "worse_pairs": worse_pairs, "pairs": len(base),
            "failed": failed,
        })
        if failed:
            failures.append(f"{name}: median {change_median:.6g} vs "
                            f"{base_median:.6g} ({better} is better, "
                            f"bound {bound:g}), worse in {worse_pairs}/"
                            f"{len(base)} pairs")
    return rows, failures


def run_perfbench(tree: str, workload: str) -> dict:
    """One perfbench run of ``workload`` from ``tree``: the JSON object
    its last line holds."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, *RUN_ARGS],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perf gate: perfbench in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def copy_working_files(tree: str, parent_dir: str) -> str:
    """Copy ``tree``'s working files into a new directory in
    ``parent_dir``; returns its path.

    The files are the ones git lists as tracked or untracked and not
    ignored, as they are on disk: uncommitted edits are measured,
    build and run outputs are not copied.
    """
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=tree, capture_output=True, check=True,
    ).stdout.decode()
    copy = tempfile.mkdtemp(prefix="perf-gate-change-", dir=parent_dir)
    for name in filter(None, listed.split("\0")):
        source = os.path.join(tree, name)
        if not os.path.isfile(source):
            continue  # tracked but deleted in the working tree
        target = os.path.join(copy, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)
    return copy


def measure(base_dir: str, change_dir: str,
            workload: str) -> Tuple[List[dict], List[dict]]:
    """``PAIRS`` paired runs; even pairs run the base first."""
    base_runs, change_runs = [], []
    for pair in range(PAIRS):
        trees = [(base_dir, base_runs), (change_dir, change_runs)]
        if pair % 2:
            trees.reverse()
        for tree, runs in trees:
            runs.append(run_perfbench(tree, workload))
    return base_runs, change_runs


def format_rows(workload: str, rows: Sequence[dict]) -> List[str]:
    lines = [f"== {workload}",
             f"  {'metric':30s} {'base':>12s} {'change':>12s} "
             f"{'ratio':>7s} {'worse':>6s}  verdict"]
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(
            f"  {row['metric']:30s} {row['base_median']:12.6g} "
            f"{row['change_median']:12.6g} {ratio:>7s} "
            f"{row['worse_pairs']:>3d}/{row['pairs']}  "
            f"{'FAIL' if row['failed'] else 'ok'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir",
                        help="checkout of the base commit (the parent)")
    args = parser.parse_args(argv)
    base_dir = os.path.abspath(args.base_dir)
    if not os.path.isfile(os.path.join(base_dir, "perfbench", "run.py")):
        parser.error(f"{base_dir} holds no perfbench/run.py")
    end_to_end = load_end_to_end()
    failures: Dict[str, List[str]] = {}
    change_dir = copy_working_files(ROOT, os.path.dirname(base_dir))
    try:
        for workload in WORKLOADS:
            base_runs, change_runs = measure(base_dir, change_dir, workload)
            rows, failed = judge(base_runs, change_runs, end_to_end)
            print("\n".join(format_rows(workload, rows)), flush=True)
            if failed:
                failures[workload] = failed
    finally:
        shutil.rmtree(change_dir)
    for workload, lines in failures.items():
        for line in lines:
            print(f"perf gate: FAIL {workload}: {line}", file=sys.stderr)
    print("perf gate: " + ("PASS" if not failures else
                           f"FAIL ({len(failures)} workloads)"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
