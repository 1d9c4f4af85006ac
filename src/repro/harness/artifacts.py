"""JSONL run artifacts: a durable record of every job a sweep executed.

Each harness run can stream one record per job -- the full spec, the
headline metrics, wall time, and whether the point came from the cache
-- into an append-only JSONL file, bracketed by a header and a summary
record.  The artifact is the ground truth for "what did this sweep
actually run, and how long did it take": a warm re-run shows the same
specs with ``"cache": "hit"`` and near-zero wall times, which is how
the caching claims in EXPERIMENTS.md are audited.
"""

from __future__ import annotations

import datetime
import json
import os
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.machine import system_config_to_dict
from repro.harness.cache import CacheStats, simulation_result_to_dict
from repro.harness.jobs import JobResult, code_fingerprint
from repro.harness.progress import RunRecord
from repro.cpu.simulator import SimulationResult


def job_metrics(result: SimulationResult) -> Dict[str, object]:
    """The headline metrics recorded per job (a superset of `repro run`)."""
    metrics = {
        "ipc": result.ipc_sum,
        "per_core_ipc": [core.ipc for core in result.cores],
        "instructions": result.instructions,
        "elapsed_ms": result.elapsed_ns / 1e6,
        "mean_l3_latency_cycles": result.mean_l3_latency_cycles,
        "energy_j": result.total_energy_j,
        "edp_js": result.edp,
    }
    if result.tenants:
        # Multi-tenant QoS headlines: the *worst* tenant's tail and the
        # *slowest* tenant's throughput -- the numbers an SLO watches.
        metrics["tenant_p99_demand_ns"] = max(
            t["p99_demand_ns"] for t in result.tenants
        )
        metrics["tenant_ipc_min"] = min(
            t["ipc"] for t in result.tenants
        )
    if result.resize_events is not None:
        metrics["resize_remapped_pages"] = float(sum(
            e.get("remapped", 0) for e in result.resize_events
        ))
    return metrics


def default_artifact_path(cache_dir: str, name: str) -> str:
    """Timestamped path under ``<cache_dir>/runs`` for a named run."""
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    return os.path.join(cache_dir, "runs", f"{name}-{stamp}.jsonl")


class RunArtifact:
    """Streams header / per-job / summary records to a JSONL file.

    With ``store_results=True`` (the default) every ``ok`` row embeds
    the full flattened simulation result, which is what makes an
    artifact *resumable*: ``run_jobs(resume=load_resume_map(path))``
    seeds those outcomes without recomputing them.  Pass
    ``store_results=False`` to keep rows headline-only when artifacts
    must stay small and resume is not needed.  The summary's counts are
    ``record``'s; an artifact given none keeps and feeds its own.
    """

    def __init__(self, path: str, name: str = "run",
                 meta: Optional[Dict[str, object]] = None,
                 store_results: bool = True,
                 record: Optional[RunRecord] = None):
        self.path = path
        self.name = name
        self.store_results = store_results
        self._feeds_record = record is None
        self.record = RunRecord() if record is None else record
        self._job_wall_s = 0.0
        self._closed = False
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "w")
        self._write({
            "record": "header",
            "run": name,
            "created": datetime.datetime.now().isoformat(timespec="seconds"),
            # Provenance: which build of the simulator produced the rows
            # below.  Resume reads it back to refuse (or warn about)
            # seeding results across code versions.
            "code": code_fingerprint(),
            "meta": meta or {},
        })

    # ------------------------------------------------------------------
    def job_done(self, outcome: JobResult) -> None:
        """Append one job record (the runner's observer hook)."""
        if self._feeds_record:
            self.record.job_done(outcome)
        self._job_wall_s += outcome.wall_time_s
        machine: Dict[str, object] = {
            "spec": outcome.spec.machine.to_dict(),
            "hash": outcome.spec.machine.spec_hash(),
        }
        # The fully-resolved machine this row simulated -- preset +
        # overrides already folded into every SystemConfig field -- so a
        # row's provenance never depends on what a preset name meant at
        # the time it was written.
        try:
            machine["resolved"] = system_config_to_dict(
                outcome.spec.system_config()
            )
        except ConfigurationError:
            # Only a failed job gets here: its machine never built, and
            # the row's error already says why.
            if outcome.ok:
                raise
        entry: Dict[str, object] = {
            "record": "job",
            "key": outcome.spec.cache_key(),
            "spec": outcome.spec.to_dict(),
            # Per-row provenance, not just header-level: an artifact
            # chained through resumes can mix rows from several builds.
            "code": code_fingerprint(),
            "machine": machine,
            "cache": outcome.cache_status,
            "cache_hit": outcome.cache_status == "hit",
            "wall_time_s": outcome.wall_time_s,
            "retries": outcome.retries,
        }
        if outcome.ok:
            entry["status"] = "ok"
            entry["metrics"] = job_metrics(outcome.result)
            if self.store_results:
                entry["result"] = simulation_result_to_dict(outcome.result)
        else:
            entry["status"] = outcome.status
            entry["error"] = outcome.error
            if outcome.error_detail:
                entry["error_detail"] = outcome.error_detail
        self._write(entry)

    @property
    def counters(self) -> Dict[str, int]:
        """The record's execution-health counters (a live copy).

        The same numbers the summary record carries; exposed so
        ``repro experiment --json`` can surface retry/timeout/crash
        counts without re-reading the artifact.
        """
        return dict(self.record.health)

    def close(self, cache_stats: Optional[CacheStats] = None) -> None:
        """Append the summary record and close the file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        counters = self.counters
        jobs = counters["jobs"]
        summary: Dict[str, object] = {
            "record": "summary",
            "run": self.name,
            **counters,
            "cache_hit_rate": counters["cache_hits"] / jobs if jobs else 0.0,
            "job_wall_time_s": self._job_wall_s,
            "elapsed_s": self.record.elapsed_s(),
        }
        if cache_stats is not None:
            summary["cache"] = cache_stats.as_dict()
        self._write(summary)
        self._handle.close()

    def __enter__(self) -> "RunArtifact":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _write(self, record: Dict[str, object]) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()


def read_artifact(path: str) -> List[Dict[str, object]]:
    """Load every record of a JSONL artifact (tests and tooling)."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class ResumeMap(Dict[str, Dict[str, object]]):
    """``cache_key -> job record`` map plus provenance accounting.

    A plain dict to :func:`repro.harness.runner.run_jobs`; the extra
    attributes let the CLI report how trustworthy the seeds are:

    - ``code_mismatches``: usable rows recorded under a *different*
      code fingerprint than the current build's;
    - ``unknown_code``: rows from artifacts predating per-row
      provenance (no ``code`` field);
    - ``skipped``: rows dropped because ``strict`` resume refused them.
    """

    def __init__(self) -> None:
        super().__init__()
        self.code_mismatches = 0
        self.unknown_code = 0
        self.skipped = 0


def load_resume_map(path: str, strict: bool = False) -> ResumeMap:
    """Index a prior artifact's completed job records by cache key.

    Only ``status=="ok"`` rows that embed a full result payload are
    kept -- those are the points :func:`repro.harness.runner.run_jobs`
    can seed without recomputation.  Failed, timed-out, crashed or
    headline-only rows are omitted so resume recomputes them.  The last
    record per key wins, so an artifact that itself came from a resumed
    run chains correctly.  A torn trailing line (the sweep died
    mid-write) is skipped rather than fatal: everything before it is
    still a valid resume seed.

    Rows whose recorded ``code`` fingerprint differs from the current
    build's are counted in ``code_mismatches`` (callers should warn:
    those results were computed by different simulator code).  With
    ``strict=True`` such rows -- and rows with no recorded fingerprint
    at all -- are skipped instead, so a ``--resume-strict`` run only
    ever seeds provenance-verified results.
    """
    current = code_fingerprint()
    seeds = ResumeMap()
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not (record.get("record") == "job"
                    and record.get("status") == "ok"
                    and isinstance(record.get("result"), dict)
                    and isinstance(record.get("key"), str)):
                continue
            code = record.get("code")
            if code is None:
                seeds.unknown_code += 1
                if strict:
                    seeds.skipped += 1
                    continue
            elif code != current:
                seeds.code_mismatches += 1
                if strict:
                    seeds.skipped += 1
                    continue
            seeds[record["key"]] = record
    return seeds


# Re-exported so artifact consumers can round-trip full results without
# importing the cache module.
__all__ = [
    "ResumeMap",
    "RunArtifact",
    "default_artifact_path",
    "job_metrics",
    "load_resume_map",
    "read_artifact",
    "simulation_result_to_dict",
]
