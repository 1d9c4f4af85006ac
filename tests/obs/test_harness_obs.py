"""Harness observer tests: job lifecycle recording and artifact export."""

import pytest

from repro.harness.jobs import JobResult, JobSpec
from repro.harness.progress import RunRecord
from repro.harness.runner import Harness, run_jobs
from repro.obs import load_timeseries
from repro.obs.harness import COLUMNS, HarnessObserver
from repro.obs.live import CompositeObserver


def _spec(**overrides) -> JobSpec:
    base = dict(design="no-l3", workload="sphinx3", workload_kind="spec",
                accesses=500, cache_megabytes=128, num_cores=1,
                capacity_scale=512)
    base.update(overrides)
    return JobSpec(**base)


def _outcome(ok=True, cache="miss", wall=0.25) -> JobResult:
    return JobResult(spec=_spec(), result=None if not ok else object(),
                     error=None if ok else "Boom: bang",
                     wall_time_s=wall, cache_status=cache)


class FakeClock:
    """Deterministic monotonic clock the observer can be driven with."""

    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


def _observer(label="run"):
    """An observer on a fake-clocked record, plus that clock."""
    clock = FakeClock()
    return HarnessObserver(RunRecord(clock=clock), label=label), clock


def _land(observer, outcome):
    """Deliver one outcome as the session's observer does: record first."""
    observer.record.job_done(outcome)
    observer.job_done(outcome)


def _columns(observer):
    return dict(zip(COLUMNS, map(list, zip(*observer.windows))))


class TestHarnessObserver:
    def test_counts_and_columns(self):
        observer, clock = _observer(label="sweep")
        clock.t += 1.0
        _land(observer, _outcome(cache="hit", wall=0.0))
        clock.t += 2.0
        _land(observer, _outcome(ok=False, wall=1.5))
        health = observer.record.health
        assert health["jobs"] == 2
        assert health["cache_hits"] == 1
        assert health["errors"] == 1
        columns = _columns(observer)
        assert columns["t_ns"] == [pytest.approx(1e9), pytest.approx(3e9)]
        assert columns["jobs_done"] == [1.0, 2.0]
        assert columns["job_wall_s"] == [0.0, 1.5]

    def test_job_slices_cover_their_wall_time(self):
        observer, clock = _observer()
        clock.t += 2.0
        _land(observer, _outcome(wall=0.5))
        slices = [e for e in observer.tracer.events() if e[1] == "X"]
        assert len(slices) == 1
        ts_ns, _ph, _cat, _name, dur_ns, _tid, args = slices[0]
        assert ts_ns == pytest.approx(1.5e9)  # landed at 2s, ran 0.5s
        assert dur_ns == pytest.approx(0.5e9)
        assert args["cache"] == "miss" and args["ok"] is True

    def test_slice_start_clamps_to_run_origin(self):
        # A cache hit "ran" for longer than the observer has existed
        # (clock skew); its slice must not start before t=0.
        observer, _clock = _observer()
        _land(observer, _outcome(wall=99.0))
        slices = [e for e in observer.tracer.events() if e[1] == "X"]
        assert slices[0][0] == 0.0

    def test_finish_writes_artifacts_and_is_idempotent(self, tmp_path):
        observer, clock = _observer(label="sweep")
        observer.trace_path = str(tmp_path / "h.perfetto.json")
        observer.timeseries_path = str(tmp_path / "h.jsonl")
        clock.t += 1.0
        _land(observer, _outcome())
        observer.finish()
        observer.finish()  # no double-write, no error
        meta, columns, _ = load_timeseries(observer.timeseries_path)
        assert meta["design"] == "harness"
        assert meta["unit"] == "jobs"
        assert columns["jobs_done"] == [1.0]
        import json

        with open(observer.trace_path) as handle:
            document = json.load(handle)
        names = [e["name"] for e in document["traceEvents"]]
        assert "sweep" in names  # the harness B/E run slice

    def test_run_jobs_reports_to_observer(self, tmp_path):
        record = RunRecord()
        observer = HarnessObserver(record, label="unit")
        outcomes = run_jobs([_spec(accesses=400)],
                            observer=CompositeObserver(record, observer))
        assert len(outcomes) == 1 and outcomes[0].ok
        assert record.health["jobs"] == 1
        assert len(observer.windows) == 1

    def test_harness_dataclass_threads_observer(self):
        record = RunRecord()
        observer = HarnessObserver(record, label="unit")
        harness = Harness(observer=CompositeObserver(record, observer))
        harness.run([_spec(accesses=400)])
        assert record.health["jobs"] == 1
        assert len(observer.windows) == 1
