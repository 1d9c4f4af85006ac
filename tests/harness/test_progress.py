"""Run-record and progress-reporter tests: line format, the one ETA
and degenerate-run guards."""

import io

import pytest

from repro.harness.cache import CacheStats
from repro.harness.jobs import JobResult, JobSpec
from repro.harness.progress import ProgressReporter, RunRecord

SPEC = JobSpec(design="tagless", workload="sphinx3", accesses=2_000)


def outcome(**overrides):
    fields = dict(spec=SPEC, result=None, error=None, wall_time_s=0.5,
                  cache_status="off")
    fields.update(overrides)
    return JobResult(**fields)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def reporter(total=None, clock=None, **kwargs):
    stream = io.StringIO()
    record = RunRecord(total, clock=clock or FakeClock())
    return ProgressReporter(record, stream=stream, **kwargs), stream


def land(rep, result):
    """Deliver one outcome as the session's observer does: record first."""
    rep.record.job_done(result)
    rep.job_done(result)


def test_job_lines_and_summary():
    rep, stream = reporter(total=3)
    rep.record.clock.now += 1.0
    land(rep, outcome())
    land(rep, outcome(error="boom", cache_status="miss"))
    text = stream.getvalue()
    assert "[1/3] tagless/sphinx3@1024MB ok" in text
    assert "ERROR boom" in text
    assert "cache miss" in text
    summary = rep.summary()
    assert "2 jobs" in summary
    assert "1 errors" in summary
    assert "jobs/s" in summary


def test_eta_appears_once_progress_exists():
    rep, stream = reporter(total=10)
    rep.record.clock.now += 1.0
    land(rep, outcome())
    assert ", eta " in stream.getvalue()


def test_eta_suppressed_without_total():
    rep, stream = reporter()
    rep.record.clock.now += 1.0
    land(rep, outcome())
    assert ", eta " not in stream.getvalue()
    assert "[1/?]" in stream.getvalue()


def test_eta_suppressed_on_final_job():
    rep, stream = reporter(total=1)
    rep.record.clock.now += 1.0
    land(rep, outcome())
    assert ", eta " not in stream.getvalue()


def test_eta_paces_on_computed_jobs_only():
    # 100 jobs, 90 served from the cache at t=0, then one computed job
    # landing after 10 s: 9 more jobs at 10 s each are left.
    rep, stream = reporter(total=100)
    for _ in range(90):
        land(rep, outcome(cache_status="hit", wall_time_s=0.0))
    assert ", eta " not in stream.getvalue()  # no pace known yet
    rep.record.clock.now += 10.0
    land(rep, outcome(cache_status="miss", wall_time_s=10.0))
    assert rep.record.eta_s() == pytest.approx(90.0)
    assert stream.getvalue().splitlines()[-1].endswith(
        "(10.00s, cache miss, eta 90s)")


def test_eta_ignores_resume_seeds_and_counts_failures():
    record = RunRecord(total=6, clock=FakeClock())
    for _ in range(2):
        record.job_done(outcome(cache_status="resume"))
    record.clock.now += 4.0
    record.job_done(outcome(error="boom"))
    record.job_done(outcome())
    # Two computed jobs (a failure costs time too) in 4 s: 2 s each.
    assert record.eta_s() == pytest.approx(4.0)


def test_record_counts_retries_when_granted():
    record = RunRecord(total=2)
    record.job_retry(SPEC, 0, "boom")
    assert record.retries_granted == 1
    assert record.health["retries"] == 0  # the retried job is in flight
    record.job_done(outcome(retries=1))
    assert record.health["retries"] == record.retries_granted == 1


def test_zero_job_summary_has_no_rate():
    # An empty sweep (everything filtered out, or --accesses 0 smoke
    # plumbing) must not divide by zero or report nan jobs/s.
    rep, _ = reporter(total=0)
    summary = rep.summary()
    assert "0 jobs" in summary
    assert "jobs/s" not in summary
    assert "nan" not in summary


def test_instant_run_guard():
    # All cache hits on a fast disk: elapsed can round to exactly zero.
    rep, stream = reporter(total=5)
    land(rep, outcome(cache_status="hit"))
    assert ", eta " not in stream.getvalue()
    summary = rep.summary()
    assert "jobs/s" not in summary
    assert "nan" not in summary


def test_disabled_reporter_still_counts():
    rep, stream = reporter(total=2, enabled=False)
    land(rep, outcome(cache_status="hit"))
    assert rep.record.health["jobs"] == 1
    assert rep.record.health["cache_hits"] == 1
    assert stream.getvalue() == ""
    assert "1 jobs" in rep.summary(CacheStats())
