"""Perf-trajectory ledger: throughput history with a regression gate.

One ``bench_throughput --json`` run is a point measurement; the
*trajectory* of those measurements across commits is what tells you a
PR quietly cost 20% of simulator throughput.  This tool maintains that
trajectory in the repo root as ``BENCH_throughput.json`` -- a small
append-only JSON ledger, reviewable in diffs like any other file --
and gates on it.

Usage::

    # Measure, then append the run to the ledger:
    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --json > /tmp/bench.json
    python benchmarks/bench_history.py append --input /tmp/bench.json

    # Gate: fail when the newest entry regresses vs the trailing median
    python benchmarks/bench_history.py check --tolerance 0.3

    # Inspect the trajectory
    python benchmarks/bench_history.py show

``append`` accepts either the raw record list ``bench_throughput
--json`` prints on stdout or the archived payload dict it writes to
``benchmarks/results/BENCH_throughput.json``; entries are stamped with
wall-clock time and (when available) the git commit.  ``check``
compares each design's accesses-per-second in the newest entry against
the median of up to ``--window`` earlier entries for the same
(design, workload) series and fails when the newest value falls below
``median * (1 - tolerance)``.  Entries from before the simulator picked
its own replay path carry an ``engine`` tag; it is ignored, so they
stay in their design's series.  Until a series has
``--min-history`` earlier points the gate reports "seeding" and
passes: medians over one or two CI runners are noise, not a baseline.

The default tolerance is deliberately loose (30%): shared CI runners
jitter by tens of percent, and the gate exists to catch structural
regressions (an accidental O(n^2), a hot-path allocation), not 5%
scheduler luck.  Local trend-watching can tighten it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_HISTORY = os.path.join(REPO_ROOT, "BENCH_throughput.json")

HISTORY_SCHEMA = "repro-bench-history/v1"


# ----------------------------------------------------------------------
# Ledger I/O
# ----------------------------------------------------------------------
def load_history(path: str) -> dict:
    """Load the ledger; a missing file is an empty trajectory."""
    if not os.path.exists(path):
        return {"schema": HISTORY_SCHEMA, "benchmark": "throughput",
                "entries": []}
    with open(path) as handle:
        history = json.load(handle)
    if not isinstance(history, dict) or "entries" not in history:
        raise SystemExit(f"bench_history: {path} is not a history ledger "
                         "(expected an object with an 'entries' list)")
    return history


def save_history(history: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def normalize_payload(payload) -> dict:
    """Accept raw ``--json`` stdout (a record list) or the archived
    payload dict, and return the payload-dict shape."""
    if isinstance(payload, list):
        records = payload
        if not records:
            raise SystemExit("bench_history: input holds no records")
        return {
            "benchmark": "throughput",
            "workload": records[0].get("workload", "unknown"),
            "accesses": records[0].get("accesses", 0),
            "records": records,
        }
    if isinstance(payload, dict) and isinstance(payload.get("records"), list):
        return payload
    raise SystemExit("bench_history: input is neither a record list nor a "
                     "bench_throughput payload")


def make_entry(payload: dict, now: Optional[float] = None,
               commit: Optional[str] = None) -> dict:
    records = [
        {
            "design": r["design"],
            "accesses": r.get("accesses", 0),
            "seconds": r.get("seconds", 0.0),
            "accesses_per_second": r["accesses_per_second"],
        }
        for r in payload["records"]
    ]
    now = time.time() if now is None else now
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)),
        "commit": commit if commit is not None else _git_commit(),
        "workload": payload.get("workload", "unknown"),
        "accesses": payload.get("accesses", 0),
        "records": records,
    }


# ----------------------------------------------------------------------
# Regression check
# ----------------------------------------------------------------------
def _series_key(entry: dict, record: dict) -> Tuple[str, str]:
    return (record["design"], entry.get("workload", "?"))


def check_trajectory(history: dict, tolerance: float, window: int,
                     min_history: int) -> Tuple[List[dict], List[str]]:
    """Judge the newest entry against each series' trailing median.

    Returns ``(verdicts, regressions)``: one verdict row per record of
    the newest entry, and the subset of human-readable regression
    messages (empty means the gate passes).
    """
    entries = history.get("entries", [])
    if not entries:
        raise SystemExit("bench_history: ledger has no entries; run "
                         "'append' first")
    newest = entries[-1]
    trailing: Dict[Tuple[str, str], List[float]] = {}
    for entry in entries[:-1]:
        for record in entry.get("records", []):
            trailing.setdefault(_series_key(entry, record), []).append(
                record["accesses_per_second"])

    verdicts: List[dict] = []
    regressions: List[str] = []
    for record in newest.get("records", []):
        key = _series_key(newest, record)
        rate = record["accesses_per_second"]
        prior = trailing.get(key, [])[-window:]
        verdict = {
            "design": key[0], "workload": key[1],
            "accesses_per_second": rate, "prior_points": len(prior),
        }
        if len(prior) < min_history:
            verdict["status"] = "seeding"
        else:
            median = statistics.median(prior)
            floor = median * (1.0 - tolerance)
            verdict["trailing_median"] = median
            verdict["floor"] = floor
            if rate < floor:
                verdict["status"] = "regression"
                regressions.append(
                    f"{key[0]}/{key[1]}: {rate:,.0f} acc/s is "
                    f"below {floor:,.0f} (median {median:,.0f} over "
                    f"{len(prior)} runs, tolerance {tolerance:.0%})")
            else:
                verdict["status"] = "ok"
        verdicts.append(verdict)
    return verdicts, regressions


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_append(args: argparse.Namespace) -> int:
    if args.input == "-":
        payload = normalize_payload(json.load(sys.stdin))
    else:
        with open(args.input) as handle:
            payload = normalize_payload(json.load(handle))
    history = load_history(args.history)
    entry = make_entry(payload, commit=args.commit)
    history["entries"].append(entry)
    if args.max_entries and len(history["entries"]) > args.max_entries:
        history["entries"] = history["entries"][-args.max_entries:]
    save_history(history, args.history)
    rates = ", ".join(f"{r['design']} {r['accesses_per_second']:,.0f}"
                      for r in entry["records"])
    print(f"bench_history: appended entry #{len(history['entries'])} "
          f"({entry['workload']}: {rates} acc/s) "
          f"-> {args.history}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    history = load_history(args.history)
    verdicts, regressions = check_trajectory(
        history, args.tolerance, args.window, args.min_history)
    for verdict in verdicts:
        line = (f"  {verdict['design']:10s} {verdict['workload']:8s} "
                f"{verdict['accesses_per_second']:14,.0f} acc/s  "
                f"[{verdict['status']}]")
        if "trailing_median" in verdict:
            line += (f"  median {verdict['trailing_median']:,.0f} over "
                     f"{verdict['prior_points']} runs")
        print(line)
    if regressions:
        for message in regressions:
            print(f"bench_history: REGRESSION {message}", file=sys.stderr)
        if args.warn_only:
            print("bench_history: --warn-only set; not failing",
                  file=sys.stderr)
            return 0
        return 1
    seeding = sum(1 for v in verdicts if v["status"] == "seeding")
    if seeding:
        print(f"bench_history: PASS ({seeding}/{len(verdicts)} series still "
              f"seeding; gate active after {args.min_history} runs)")
    else:
        print(f"bench_history: PASS ({len(verdicts)} series within "
              f"{args.tolerance:.0%} of trailing median)")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    history = load_history(args.history)
    entries = history.get("entries", [])
    if not entries:
        print("bench_history: empty ledger")
        return 0
    for i, entry in enumerate(entries):
        commit = entry.get("commit") or "-"
        print(f"#{i + 1}  {entry.get('timestamp', '?')}  {commit:>9s}  "
              f"{entry.get('workload', '?')} "
              f"({entry.get('accesses', 0)} accesses)")
        for record in entry.get("records", []):
            print(f"      {record['design']:10s} "
                  f"{record['accesses_per_second']:14,.0f} acc/s")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help="ledger path (default: repo-root "
                             "BENCH_throughput.json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser("append",
                              help="append a bench_throughput --json run")
    p_append.add_argument("--input", default="-",
                          help="JSON file from bench_throughput --json "
                               "('-' reads stdin)")
    p_append.add_argument("--commit", default=None,
                          help="commit id to stamp (default: git HEAD)")
    p_append.add_argument("--max-entries", type=int, default=200,
                          help="cap ledger length, oldest dropped "
                               "(default 200; 0 keeps all)")
    p_append.set_defaults(func=cmd_append)

    p_check = sub.add_parser("check",
                             help="gate newest entry vs trailing median")
    p_check.add_argument("--tolerance", type=float, default=0.3,
                         help="allowed drop below trailing median "
                              "(default 0.3)")
    p_check.add_argument("--window", type=int, default=10,
                         help="trailing entries per series feeding the "
                              "median (default 10)")
    p_check.add_argument("--min-history", type=int, default=3,
                         help="prior points required before the gate "
                              "arms (default 3)")
    p_check.add_argument("--warn-only", action="store_true",
                         help="report regressions without failing")
    p_check.set_defaults(func=cmd_check)

    p_show = sub.add_parser("show", help="print the trajectory")
    p_show.set_defaults(func=cmd_show)

    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
