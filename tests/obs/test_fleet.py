"""Fleet-observability tests: lifecycle ordering, heartbeats, --live.

The pooled runner's per-attempt hooks (``job_dispatched`` /
``job_finished`` / ``worker_heartbeat``) are the substrate everything
in this PR renders from, so their *ordering* under faults is pinned
here: every attempt's finish is preceded by its own dispatch, retried
attempts leave one finish per attempt, timeouts and worker crashes
report their status on the attempt that suffered them, and the
per-job ``job_done`` lands after the job's terminal attempt.  The
LiveMonitor and CompositeObserver tests run hermetically on a fake
clock and an in-memory stream.
"""

import io

import pytest

from repro.harness import JobSpec, RunRecord, run_jobs
from repro.obs.harness import HarnessObserver
from repro.obs.live import CompositeObserver, LiveMonitor

SPECS = [
    JobSpec(design="no-l3", workload="sphinx3", accesses=2_000),
    JobSpec(design="tagless", workload="sphinx3", accesses=2_000),
    JobSpec(design="tagless", workload="libquantum", accesses=2_000),
]

HANG = "hang:tagless/sphinx3"
CRASH = "crash:no-l3/sphinx3"
FLAKY2 = "flaky:tagless/libquantum:2"


class RecordingObserver:
    """Flat hook log: (kind, job index, attempt, payload...)."""

    def __init__(self):
        self.events = []

    def job_dispatched(self, index, spec, attempt, worker_id,
                       queue_wait_s):
        assert queue_wait_s >= 0.0
        self.events.append(("dispatch", index, attempt, worker_id))

    def job_finished(self, index, spec, attempt, worker_id, status,
                     wall_s):
        assert wall_s >= 0.0
        self.events.append(("finish", index, attempt, worker_id, status))

    def job_retry(self, spec, attempt, error):
        self.events.append(("retry", None, attempt, error))

    def job_done(self, outcome):
        self.events.append(("done", outcome.spec.label, None,
                            outcome.status))

    def worker_heartbeat(self, payload):
        self.events.append(("hb", payload["index"], payload["attempt"],
                            payload["worker"]))

    # ------------------------------------------------------------------
    def per_job(self, index):
        return [e for e in self.events
                if e[0] in ("dispatch", "finish") and e[1] == index]


class TestLifecycleOrdering:
    def test_every_finish_follows_its_own_dispatch(self):
        observer = RecordingObserver()
        outcomes = run_jobs(SPECS, jobs=2, timeout_s=60.0,
                            observer=observer)
        assert all(o.ok for o in outcomes)
        for index in range(len(SPECS)):
            events = observer.per_job(index)
            # Exactly one attempt: dispatch then finish, same worker.
            assert [e[0] for e in events] == ["dispatch", "finish"]
            assert events[0][2] == events[1][2] == 0  # attempt 0
            assert events[0][3] == events[1][3]  # same worker id
            assert events[1][4] == "ok"

    def test_retries_leave_one_finish_per_attempt(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", FLAKY2)
        observer = RecordingObserver()
        outcomes = run_jobs(SPECS, jobs=2, timeout_s=60.0, retries=2,
                            observer=observer)
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        events = observer.per_job(2)  # the flaky job
        assert [e[0] for e in events] == ["dispatch", "finish"] * 3
        attempts = [e[2] for e in events]
        assert attempts == [0, 0, 1, 1, 2, 2]
        statuses = [e[4] for e in events if e[0] == "finish"]
        assert statuses == ["error", "error", "ok"]
        retries = [e for e in observer.events if e[0] == "retry"]
        assert [r[2] for r in retries] == [0, 1]
        # The per-job terminal callback lands after the last attempt.
        done_pos = observer.events.index(
            ("done", SPECS[2].label, None, "ok"))
        last_finish = max(i for i, e in enumerate(observer.events)
                          if e[0] == "finish" and e[1] == 2)
        assert done_pos > last_finish

    def test_timeout_status_lands_on_the_hung_attempt(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", HANG)
        observer = RecordingObserver()
        outcomes = run_jobs(SPECS, jobs=2, timeout_s=1.0,
                            observer=observer)
        assert [o.status for o in outcomes] == ["ok", "timeout", "ok"]
        events = observer.per_job(1)
        assert [e[0] for e in events] == ["dispatch", "finish"]
        assert events[1][4] == "timeout"

    def test_crash_status_lands_on_the_dead_workers_attempt(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", CRASH)
        observer = RecordingObserver()
        outcomes = run_jobs(SPECS, jobs=2, timeout_s=60.0,
                            observer=observer)
        assert [o.status for o in outcomes] == ["worker-crashed", "ok",
                                                "ok"]
        events = observer.per_job(0)
        assert [e[0] for e in events] == ["dispatch", "finish"]
        assert events[1][4] == "worker-crashed"

    def test_heartbeats_carry_the_beating_attempts_identity(
            self, monkeypatch):
        # A hung job can do nothing *but* beat: with a 50 ms cadence and
        # a 1 s timeout the worker must get several beats out, each
        # tagged with the job/attempt it was executing.
        monkeypatch.setenv("REPRO_FAULT_INJECT", HANG)
        observer = RecordingObserver()
        run_jobs(SPECS, jobs=2, timeout_s=1.0, heartbeat_s=0.05,
                 observer=observer)
        beats = [e for e in observer.events if e[0] == "hb"]
        assert beats, "no heartbeats arrived during a 1s hang"
        hung_beats = [b for b in beats if b[1] == 1]
        assert hung_beats and all(b[2] == 0 for b in hung_beats)
        # Beats for a job arrive between its dispatch and its finish.
        positions = [i for i, e in enumerate(observer.events)
                     if e[1] == 1 and e[0] in ("dispatch", "finish", "hb")]
        kinds = [observer.events[i][0] for i in positions]
        assert kinds[0] == "dispatch" and kinds[-1] == "finish"
        assert set(kinds[1:-1]) <= {"hb"}


class TestHarnessObserverTracks:
    def test_retried_attempts_leave_exec_slices(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", FLAKY2)
        observer = HarnessObserver(RunRecord(), label="unit")
        run_jobs(SPECS, jobs=2, timeout_s=60.0, retries=2,
                 observer=observer)
        execs = [e for e in observer.tracer.events() if e[2] == "exec"
                 and e[3] == SPECS[2].label]
        assert [e[6]["attempt"] for e in execs] == [0, 1, 2]
        assert [e[6]["status"] for e in execs] == ["error", "error", "ok"]
        # Worker tracks exist and are named in the export map.
        assert observer.worker_ids
        names = observer.thread_names()
        assert names[0] == "run"
        for worker_id in observer.worker_ids:
            assert names[worker_id + 1] == f"worker {worker_id}"

    def test_queue_wait_slices_precede_exec_on_same_track(self):
        observer = HarnessObserver(RunRecord(), label="unit")
        run_jobs(SPECS, jobs=1, timeout_s=60.0, observer=observer)
        events = observer.tracer.events()
        waits = [e for e in events if e[2] == "queue"]
        execs = [e for e in events if e[2] == "exec"]
        assert len(waits) == len(execs) == len(SPECS)
        for wait, exc in zip(waits, execs):
            assert wait[5] == exc[5]  # same tid
            assert wait[0] <= exc[0] + 1e-6


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Spec:
    def __init__(self, label):
        self.label = label


class _Outcome:
    def __init__(self, label, ok=True, cache_status="off", status=None):
        self.spec = _Spec(label)
        self.ok = ok
        self.cache_status = cache_status
        self.status = status or ("ok" if ok else "error")
        self.wall_time_s = 1.0
        self.retries = 0


class TestLiveMonitor:
    def _monitor(self, total=4, tty=False):
        clock = FakeClock()
        stream = io.StringIO()
        record = RunRecord(total, clock=clock)
        monitor = LiveMonitor(record, label="sweep", stream=stream,
                              interval_s=0.5, is_tty=tty)
        # Fed as a harness session feeds its views: record first.
        return CompositeObserver(record, monitor), monitor, clock, stream

    def test_rows_track_dispatch_heartbeat_finish(self):
        session, monitor, clock, _ = self._monitor()
        monitor.job_dispatched(0, _Spec("tagless/mcf"), 0, 7, 0.01)
        assert monitor.workers[7].busy
        clock.now = 3.0
        monitor.worker_heartbeat({"worker": 7, "index": 0,
                                  "label": "tagless/mcf", "attempt": 0,
                                  "elapsed_s": 3.0,
                                  "accesses_done": 60_000})
        row = monitor.workers[7]
        assert row.accesses_done == 60_000
        assert row.rate(clock.now) == pytest.approx(20_000)
        monitor.job_finished(0, _Spec("tagless/mcf"), 0, 7, "ok", 3.0)
        session.job_done(_Outcome("tagless/mcf"))
        assert not monitor.workers[7].busy
        assert monitor.workers[7].jobs_done == 1
        assert monitor.record.health["jobs"] == 1

    def test_render_lines_shape_and_counters(self):
        session, monitor, clock, _ = self._monitor(total=8)
        monitor.job_dispatched(0, _Spec("tagless/mcf"), 0, 0, 0.0)
        session.job_done(_Outcome("a", cache_status="hit"))
        session.job_done(_Outcome("b", cache_status="resume"))
        session.job_retry(_Spec("c"), 0, "boom")
        session.job_done(_Outcome("c", ok=False))
        clock.now = 10.0
        lines = monitor.render_lines()
        head = lines[0]
        assert "jobs 3/8 (38%)" in head
        assert "cache 1" in head and "resumed 1" in head
        assert "retries 1" in head and "errors 1" in head
        assert "eta" in head
        assert len(lines) == 2  # header + one worker row
        assert lines[1].lstrip().startswith("w0")

    def test_pipe_output_is_throttled(self):
        _session, monitor, clock, stream = self._monitor(tty=False)
        for i in range(50):
            clock.now = i * 0.01  # 10 ms apart: far below the gap
            monitor.worker_heartbeat({"worker": 0, "index": 0,
                                      "attempt": 0, "elapsed_s": 0.0,
                                      "accesses_done": 0})
        frames = stream.getvalue().count("sweep:")
        assert frames <= 2
        monitor.finish()
        assert stream.getvalue().count("sweep:") == frames + 1

    def test_tty_redraw_rewinds_previous_frame(self):
        session, _monitor, clock, stream = self._monitor(tty=True)
        session.job_done(_Outcome("a"))
        clock.now = 1.0
        session.job_done(_Outcome("b"))
        text = stream.getvalue()
        assert "\x1b[1F\x1b[J" in text  # rewound the 1-line first frame

    def test_finish_is_idempotent(self):
        _session, monitor, _, stream = self._monitor()
        monitor.finish()
        once = stream.getvalue()
        monitor.finish()
        assert stream.getvalue() == once


class TestCompositeObserver:
    def test_fans_out_only_to_defined_hooks(self):
        class OnlyDone:
            def __init__(self):
                self.seen = []

            def job_done(self, outcome):
                self.seen.append(outcome.spec.label)

        class Everything(RecordingObserver):
            def finish(self):
                self.events.append(("finish-call",))

        only = OnlyDone()
        everything = Everything()
        composite = CompositeObserver(only, None, everything)
        assert [type(o).__name__ for o in composite.observers] == [
            "OnlyDone", "Everything"]
        composite.job_done(_Outcome("x"))
        composite.job_dispatched(0, _Spec("x"), 0, 0, 0.0)
        composite.finish()
        assert only.seen == ["x"]
        assert ("dispatch", 0, 0, 0) in everything.events
        assert ("finish-call",) in everything.events

    def test_absent_hooks_stay_absent(self):
        class Silent:
            pass

        composite = CompositeObserver(Silent())
        assert not hasattr(composite, "worker_heartbeat")
        assert not hasattr(composite, "job_done")
