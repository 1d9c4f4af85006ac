"""Artifact and progress-reporter tests."""

import io
import json

from repro.harness.artifacts import (
    RunArtifact,
    default_artifact_path,
    job_metrics,
    load_resume_map,
    read_artifact,
)
from repro.harness.cache import ResultCache
from repro.harness.jobs import JobSpec, code_fingerprint
from repro.harness.progress import ProgressReporter, RunRecord
from repro.harness.runner import run_jobs
from repro.obs.live import CompositeObserver

SPECS = [
    JobSpec(design="no-l3", workload="sphinx3", accesses=2_000),
    JobSpec(design="no-such-design", workload="sphinx3", accesses=2_000),
]


def test_artifact_records_jobs_and_summary(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunArtifact(path, name="unit", meta={"note": "test"}) as artifact:
        run_jobs(SPECS, jobs=1, observer=artifact)
    records = read_artifact(path)
    assert [r["record"] for r in records] == [
        "header", "job", "job", "summary"
    ]
    header, ok_job, bad_job, summary = records
    assert header["meta"] == {"note": "test"}
    assert ok_job["status"] == "ok"
    assert ok_job["spec"]["design"] == "no-l3"
    assert ok_job["metrics"]["ipc"] > 0
    assert bad_job["status"] == "error"
    assert "no-such-design" in bad_job["error"]
    assert summary["jobs"] == 2
    assert summary["errors"] == 1


def test_artifact_shows_warm_run_hits(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    spec = SPECS[:1]
    run_jobs(spec, jobs=1, cache=cache)
    path = str(tmp_path / "warm.jsonl")
    with RunArtifact(path, name="warm") as artifact:
        run_jobs(spec, jobs=1, cache=cache, observer=artifact)
        artifact.close(cache.stats)
    records = read_artifact(path)
    job = [r for r in records if r["record"] == "job"][0]
    summary = [r for r in records if r["record"] == "summary"][0]
    assert job["cache"] == "hit"
    assert summary["cache_hit_rate"] == 1.0
    assert summary["cache"]["hits"] == 1


def test_job_metrics_fields():
    outcome = run_jobs(SPECS[:1], jobs=1)[0]
    metrics = job_metrics(outcome.result)
    assert set(metrics) == {
        "ipc", "per_core_ipc", "instructions", "elapsed_ms",
        "mean_l3_latency_cycles", "energy_j", "edp_js",
    }


def test_default_artifact_path_is_unique(tmp_path):
    first = default_artifact_path(str(tmp_path), "fig7")
    second = default_artifact_path(str(tmp_path), "fig7")
    assert first != second
    assert first.startswith(str(tmp_path))
    assert first.endswith(".jsonl")


def test_progress_reporter_lines_and_summary():
    stream = io.StringIO()
    record = RunRecord(total=2)
    reporter = ProgressReporter(record, stream=stream, label="unit")
    for outcome in run_jobs(SPECS, jobs=1,
                            observer=CompositeObserver(record, reporter)):
        pass
    text = stream.getvalue()
    assert "[1/2] no-l3/sphinx3@1024MB ok" in text
    assert "ERROR" in text
    summary = reporter.summary()
    assert "2 jobs" in summary and "1 errors" in summary


def test_artifact_rows_carry_code_fingerprint(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunArtifact(path, name="unit") as artifact:
        run_jobs(SPECS, jobs=1, observer=artifact)
    records = read_artifact(path)
    header = records[0]
    assert header["code"] == code_fingerprint()
    for job in (r for r in records if r["record"] == "job"):
        assert job["code"] == code_fingerprint()


def test_artifact_counters_property(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunArtifact(path, name="unit") as artifact:
        run_jobs(SPECS, jobs=1, observer=artifact)
        counters = artifact.counters
    assert counters["jobs"] == 2
    assert counters["errors"] == 1
    assert counters["timeouts"] == 0
    assert counters["worker_crashes"] == 0
    assert counters["retries"] == 0
    assert counters["resumed"] == 0
    assert counters["cache_hits"] == 0


def _rewrite_code_field(path, code):
    """Rewrite the ``code`` provenance of every job row in an artifact."""
    records = read_artifact(path)
    with open(path, "w") as handle:
        for record in records:
            if record["record"] == "job":
                if code is None:
                    record.pop("code", None)
                else:
                    record["code"] = code
            handle.write(json.dumps(record) + "\n")


def test_resume_map_counts_code_mismatches(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunArtifact(path, name="unit") as artifact:
        run_jobs(SPECS[:1], jobs=1, observer=artifact)
    _rewrite_code_field(path, "someone-elses-build")
    lax = load_resume_map(path)
    assert len(lax) == 1  # still usable without strict
    assert lax.code_mismatches == 1
    assert lax.skipped == 0
    strict = load_resume_map(path, strict=True)
    assert len(strict) == 0
    assert strict.skipped == 1


def test_resume_map_counts_unknown_code(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunArtifact(path, name="unit") as artifact:
        run_jobs(SPECS[:1], jobs=1, observer=artifact)
    _rewrite_code_field(path, None)
    lax = load_resume_map(path)
    assert len(lax) == 1
    assert lax.unknown_code == 1
    strict = load_resume_map(path, strict=True)
    assert len(strict) == 0
    assert strict.skipped == 1


def test_strict_resume_keeps_earlier_trusted_rows(tmp_path):
    """A rejected later row must not discard an earlier trusted one."""
    path = str(tmp_path / "run.jsonl")
    with RunArtifact(path, name="unit") as artifact:
        run_jobs(SPECS[:1], jobs=1, observer=artifact)
    records = read_artifact(path)
    trusted = [r for r in records if r["record"] == "job"][0]
    foreign = dict(trusted, code="someone-elses-build")
    with open(path, "a") as handle:
        handle.write(json.dumps(foreign) + "\n")
    strict = load_resume_map(path, strict=True)
    assert strict.skipped == 1
    assert trusted["key"] in strict  # the trusted row survived


def test_current_build_rows_resume_cleanly(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunArtifact(path, name="unit") as artifact:
        run_jobs(SPECS[:1], jobs=1, observer=artifact)
    seeds = load_resume_map(path, strict=True)
    assert len(seeds) == 1
    assert seeds.code_mismatches == 0
    assert seeds.unknown_code == 0
    assert seeds.skipped == 0
    outcomes = run_jobs(SPECS[:1], jobs=1, resume=seeds)
    assert outcomes[0].cache_status == "resume"


def test_progress_reporter_disabled_is_silent():
    stream = io.StringIO()
    record = RunRecord(total=1)
    reporter = ProgressReporter(record, stream=stream, enabled=False)
    run_jobs(SPECS[:1], jobs=1, observer=CompositeObserver(record, reporter))
    reporter.summary()
    assert stream.getvalue() == ""
    assert record.health["jobs"] == 1
