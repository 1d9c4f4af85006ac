"""CI chaos gate: a campaign under injected faults must degrade gracefully.

Runs a small ``repro campaign run`` (a 2x2 study, one repetition) with a
hang, a worker SIGKILL and a flaky job injected via
``REPRO_FAULT_INJECT``, then asserts the acceptance contract of the
fault-tolerance layer:

1. the run completes (no stall, no ``BrokenProcessPool`` abort) with
   exactly the expected per-job statuses -- ``timeout`` for the hung
   point, ``worker-crashed`` for the killed one, ``ok`` (after one
   retry) for the flaky one, plain ``ok`` for the rest;
2. ``repro campaign resume`` on the campaign directory, faults
   disabled, recomputes *only* the failed points -- every previously
   good point is seeded from the artifact, and the whole campaign ends
   green.

Exit code 0 on success, 1 with a report of every violated expectation.

Usage::

    PYTHONPATH=src python benchmarks/chaos_sweep.py [--timeout 3.0]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.cli.main import main as cli_main

#: The study's grid: 2 designs x 2 workloads (single-core SPEC points).
DESIGNS = ("no-l3", "tagless")
WORKLOADS = ("sphinx3", "libquantum")
STUDY = {
    "name": "chaos",
    "repetitions": 1,
    "factors": {"design": list(DESIGNS), "workload": list(WORKLOADS)},
    "fixed": {"accesses": 2000},
    "metrics": ["ipc"],
}

#: Injected faults, keyed by spec-label substrings.
FAULTS = ("hang:tagless/sphinx3,"
          "crash:no-l3/sphinx3,"
          "flaky:tagless/libquantum:1")

#: label fragment -> expected terminal status under faults.
EXPECTED = {
    "no-l3/sphinx3": "worker-crashed",
    "tagless/sphinx3": "timeout",
    "tagless/libquantum": "ok",
    "no-l3/libquantum": "ok",
}


def _job_rows(path):
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    rows = {}
    for record in records:
        if record.get("record") == "job":
            spec = record["spec"]
            rows[f"{spec['design']}/{spec['workload']}"] = record
    summary = records[-1] if records else {}
    return rows, summary


def run(timeout_s: float) -> int:
    problems = []

    def expect(condition: bool, message: str) -> None:
        if condition:
            print(f"  [ok]   {message}")
        else:
            problems.append(message)
            print(f"  [FAIL] {message}")

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        study = os.path.join(tmp, "chaos.json")
        with open(study, "w") as handle:
            json.dump(STUDY, handle)
        out_dir = os.path.join(tmp, "chaos")
        artifact = os.path.join(out_dir, "jobs.jsonl")
        flags = ["--jobs", "2", "--no-cache", "--timeout", str(timeout_s),
                 "--retries", "1", "--retry-backoff", "0"]

        print(f"chaos campaign: {FAULTS}")
        os.environ["REPRO_FAULT_INJECT"] = FAULTS
        try:
            code = cli_main(["campaign", "run", study, "--out", out_dir,
                             *flags])
        finally:
            del os.environ["REPRO_FAULT_INJECT"]
        rows, summary = _job_rows(artifact)
        expect(code == 1, f"faulted campaign exits 1 (got {code})")
        expect(len(rows) == len(EXPECTED),
               f"all {len(EXPECTED)} points recorded (got {len(rows)})")
        for label, status in EXPECTED.items():
            got = rows.get(label, {}).get("status")
            expect(got == status, f"{label}: status {status} (got {got})")
        retried = rows.get("tagless/libquantum", {}).get("retries")
        expect(retried == 1,
               f"flaky point succeeded on retry 1 (got {retried})")
        expect(summary.get("timeouts") == 1,
               f"summary counts 1 timed-out point "
               f"(got {summary.get('timeouts')})")
        expect(summary.get("worker_crashes") == 1,
               f"summary counts 1 crashed point "
               f"(got {summary.get('worker_crashes')})")
        expect(summary.get("retries") == 3,
               f"summary counts 3 consumed retries "
               f"(got {summary.get('retries')})")

        print("campaign resume: faults cleared, seeding from artifact")
        code = cli_main(["campaign", "resume", out_dir, *flags])
        rows, summary = _job_rows(artifact)
        expect(code == 0, f"resumed campaign exits 0 (got {code})")
        for label in EXPECTED:
            got = rows.get(label, {}).get("status")
            expect(got == "ok", f"{label}: recovered to ok (got {got})")
        resumed = [label for label, row in rows.items()
                   if row.get("cache") == "resume"]
        expect(sorted(resumed) == ["no-l3/libquantum", "tagless/libquantum"],
               f"exactly the 2 good points were seeded, the 2 failed "
               f"ones recomputed (seeded: {sorted(resumed)})")
        expect(summary.get("resumed") == 2,
               f"summary counts 2 resumed points "
               f"(got {summary.get('resumed')})")

    verdict = "PASS" if not problems else f"FAIL ({len(problems)})"
    print(f"chaos gate: {verdict}")
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=3.0,
                        help="per-job budget the hung point must hit "
                             "(default 3.0s; the hang costs 2x this "
                             "because the timed-out point is retried)")
    args = parser.parse_args()
    return run(args.timeout)


if __name__ == "__main__":
    sys.exit(main())
