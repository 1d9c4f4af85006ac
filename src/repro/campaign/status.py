"""Reconstruct campaign health from its on-disk artifacts.

``repro status <dir>`` answers "how is that 180-point study doing?"
without attaching to the running process: everything it reports is
derived from the campaign directory's ``spec.json`` (what *should*
run) and ``jobs.jsonl`` (what *has* run), the same artifacts resume
and ``campaign report`` already rely on.

The counters come from the same tally as
:meth:`repro.campaign.compile.CampaignRun.counters`
(:func:`repro.harness.jobs.job_health`), fed from the artifact rows --
status over a finished campaign's artifact must reproduce exactly the
summary its run printed, which is what makes the reconstruction
trustworthy (and testable).  Rows are deduplicated by cache key with
the last row winning, matching how resume chains artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Optional

from repro.campaign.spec import CampaignSpec
from repro.campaign.compile import expand
from repro.harness.jobs import job_health


@dataclasses.dataclass
class CampaignStatus:
    """Health of one campaign directory, derived from artifacts."""

    name: str
    spec_hash: str
    cells: int
    repetitions: int
    #: Points the spec expands to (what a complete run must cover).
    expected: int
    #: Distinct points with at least one artifact row (last row wins).
    seen: int
    #: Execution-health counters over the deduplicated rows, with the
    #: exact key set of :meth:`CampaignRun.counters`.
    counters: Dict[str, int]
    #: Terminal failures still standing after dedup: (label, status,
    #: error) -- a point that failed then succeeded on resume is not
    #: listed.
    failures: List[Dict[str, str]]
    #: Sum of recorded per-job wall time over deduplicated rows.
    job_wall_time_s: float

    @property
    def missing(self) -> int:
        return max(0, self.expected - self.seen)

    @property
    def complete(self) -> bool:
        return self.missing == 0 and not self.failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign": self.name,
            "spec_hash": self.spec_hash,
            "cells": self.cells,
            "repetitions": self.repetitions,
            "expected": self.expected,
            "seen": self.seen,
            "missing": self.missing,
            "complete": self.complete,
            **self.counters,
            "failures": self.failures,
            "job_wall_time_s": self.job_wall_time_s,
        }


def _dedupe_rows(artifact_path: str) -> Dict[str, dict]:
    """Last job row per cache key, torn-trailing-line tolerant."""
    rows: Dict[str, dict] = {}
    with open(artifact_path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing line: the run died mid-write
            if record.get("record") != "job":
                continue
            key = record.get("key")
            if isinstance(key, str):
                rows[key] = record
    return rows


def campaign_status(out_dir: str) -> CampaignStatus:
    """Build the status of the campaign directory ``out_dir``.

    Raises ``OSError`` when ``spec.json`` is unreadable (not a campaign
    directory).  A missing ``jobs.jsonl`` is not an error -- it is a
    campaign that has not started -- and reports zero seen points.
    """
    spec = CampaignSpec.from_file(os.path.join(out_dir, "spec.json"))
    expected = len(expand(spec))
    artifact_path = os.path.join(out_dir, "jobs.jsonl")
    rows = (_dedupe_rows(artifact_path)
            if os.path.exists(artifact_path) else {})
    failures = [
        {
            "label": _row_label(record),
            "status": str(record.get("status")),
            "error": str(record.get("error", "")),
        }
        for record in rows.values()
        if record.get("status") not in ("ok", None)
    ]
    wall = sum(float(record.get("wall_time_s", 0.0))
               for record in rows.values())
    return CampaignStatus(
        name=spec.name,
        spec_hash=spec.spec_hash(),
        cells=len(spec.cells()),
        repetitions=spec.repetitions,
        expected=expected,
        seen=len(rows),
        counters=job_health(
            (record.get("status"), record.get("cache"),
             int(record.get("retries", 0))) for record in rows.values()
        ),
        failures=failures,
        job_wall_time_s=wall,
    )


def _row_label(record: dict) -> str:
    spec = record.get("spec")
    if isinstance(spec, dict):
        design = spec.get("design", "?")
        workload = spec.get("workload", "?")
        return f"{design}/{workload}@seed{spec.get('base_seed', '?')}"
    return record.get("key", "?")[:16]


def render_status(status: CampaignStatus) -> str:
    """Human-readable status block for the CLI."""
    counters = status.counters
    state = ("complete" if status.complete
             else f"incomplete ({status.missing} points missing)"
             if status.missing else "complete with failures")
    lines = [
        f"campaign {status.name} [{status.spec_hash}]: {state}",
        f"  grid     {status.cells} cells x {status.repetitions} "
        f"repetitions = {status.expected} points "
        f"({status.seen} recorded)",
        f"  work     {counters['computed']} computed, "
        f"{counters['cache_hits']} cache hits, "
        f"{counters['resumed']} resumed, "
        f"{status.job_wall_time_s:.1f}s job wall time",
        f"  health   {counters['errors']} errors "
        f"({counters['timeouts']} timeouts, "
        f"{counters['worker_crashes']} worker crashes, "
        f"{counters['retries']} retries)",
    ]
    for failure in status.failures[:10]:
        lines.append(f"  fail     {failure['label']}: "
                     f"{failure['status']} -- {failure['error'][:80]}")
    if len(status.failures) > 10:
        lines.append(f"  fail     ... +{len(status.failures) - 10} more")
    return "\n".join(lines)
