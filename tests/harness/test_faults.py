"""Fault-tolerance tests: timeouts, crash recovery, retries, resume.

Failures are made reproducible with the ``REPRO_FAULT_INJECT`` hook
(:mod:`repro.harness.faults`): named jobs hang, SIGKILL their worker,
or fail transiently, and the assertions below prove the sweep survives
with exactly the right per-job statuses while every unaffected point
stays bit-identical to a fault-free run.
"""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.harness import (
    HarnessError,
    JobSpec,
    RunArtifact,
    RunRecord,
    load_resume_map,
    parse_fault_plan,
    read_artifact,
    run_jobs,
)
from repro.harness import runner as runner_mod
from repro.obs.harness import COLUMNS, HarnessObserver
from repro.obs.live import CompositeObserver

SPECS = [
    JobSpec(design="no-l3", workload="sphinx3", accesses=2_000),
    JobSpec(design="tagless", workload="sphinx3", accesses=2_000),
    JobSpec(design="tagless", workload="libquantum", accesses=2_000),
]

#: Rules keyed off these labels; substring-matched against spec.label.
HANG = "hang:tagless/sphinx3"
CRASH = "crash:no-l3/sphinx3"
FLAKY2 = "flaky:tagless/libquantum:2"


def _session(view):
    """The view behind its run record, as a harness session wires it."""
    return CompositeObserver(view.record, view)


def _metrics(outcomes):
    return [
        None if o.result is None else
        (o.result.ipc_sum, o.result.edp, o.result.mean_l3_latency_cycles)
        for o in outcomes
    ]


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial metrics every degraded run is compared against."""
    outcomes = run_jobs(SPECS, jobs=1)
    assert all(o.ok for o in outcomes)
    return _metrics(outcomes)


class TestFaultPlan:
    def test_empty_plan(self):
        assert parse_fault_plan(None) == []
        assert parse_fault_plan("") == []

    def test_grammar(self):
        rules = parse_fault_plan("hang:a/b,crash:c,flaky:d:3")
        assert [(r.kind, r.label, r.count) for r in rules] == [
            ("hang", "a/b", 0), ("crash", "c", 0), ("flaky", "d", 3),
        ]

    @pytest.mark.parametrize("text", [
        "explode:a", "hang", "hang:", "flaky:a", "flaky:a:x", "flaky:a:-1",
    ])
    def test_malformed_plan_raises(self, text):
        with pytest.raises(ConfigurationError):
            parse_fault_plan(text)


class TestTimeout:
    def test_injected_hang_hits_timeout(self, monkeypatch, baseline):
        monkeypatch.setenv("REPRO_FAULT_INJECT", HANG)
        outcomes = run_jobs(SPECS, jobs=2, timeout_s=1.0)
        assert [o.status for o in outcomes] == ["ok", "timeout", "ok"]
        hung = outcomes[1]
        assert hung.result is None and not hung.ok
        assert "timed out" in hung.error
        assert hung.wall_time_s >= 1.0
        # Every unaffected point is bit-identical to the fault-free run.
        metrics = _metrics(outcomes)
        assert metrics[0] == baseline[0] and metrics[2] == baseline[2]

    def test_env_default_supervises_even_serial_runs(self, monkeypatch):
        # jobs=1 normally runs in-process, where a hang cannot be
        # preempted; a configured timeout must route through a killable
        # one-worker pool instead.
        monkeypatch.setenv("REPRO_FAULT_INJECT", HANG)
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "1.0")
        outcomes = run_jobs(SPECS, jobs=1)
        assert [o.status for o in outcomes] == ["ok", "timeout", "ok"]

    def test_spec_timeout_overrides_run_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", HANG)
        specs = [SPECS[0], dataclasses.replace(SPECS[1], timeout_s=1.0)]
        outcomes = run_jobs(specs, jobs=2, timeout_s=120.0)
        assert [o.status for o in outcomes] == ["ok", "timeout"]
        assert outcomes[1].wall_time_s < 60.0

    def test_bad_env_timeout_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
        with pytest.raises(HarnessError):
            run_jobs(SPECS[:1], jobs=1)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            JobSpec(design="no-l3", workload="sphinx3", timeout_s=0.0)

    def test_retry_knob_validation(self):
        with pytest.raises(ValueError):
            run_jobs(SPECS[:1], retries=-1)
        with pytest.raises(ValueError):
            run_jobs(SPECS[:1], retry_backoff_s=-0.5)


class TestWorkerCrash:
    def test_crash_fails_only_that_job(self, monkeypatch, baseline):
        monkeypatch.setenv("REPRO_FAULT_INJECT", CRASH)
        outcomes = run_jobs(SPECS, jobs=2, timeout_s=60.0)
        assert [o.status for o in outcomes] == ["worker-crashed", "ok", "ok"]
        assert "worker process died" in outcomes[0].error
        # The pool replaced the dead worker and finished the rest
        # bit-identically.
        metrics = _metrics(outcomes)
        assert metrics[1] == baseline[1] and metrics[2] == baseline[2]


class TestRetries:
    def test_flaky_succeeds_within_budget(self, monkeypatch, baseline):
        monkeypatch.setenv("REPRO_FAULT_INJECT", FLAKY2)
        observer = HarnessObserver(RunRecord(), label="unit")
        outcomes = run_jobs(SPECS, jobs=2, timeout_s=60.0, retries=2,
                            observer=_session(observer))
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        assert [o.retries for o in outcomes] == [0, 0, 2]
        # A retried attempt is a fresh deterministic execution: metrics
        # cannot depend on how many tries it took.
        assert _metrics(outcomes) == baseline
        assert observer.record.retries_granted == 2
        retry_events = [e for e in observer.tracer.events()
                        if e[2] == "retry"]
        assert len(retry_events) == 2

    def test_flaky_exhausts_budget_in_process(self, monkeypatch):
        # The serial in-process path owns its own retry loop.
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "flaky:tagless/libquantum:3")
        outcomes = run_jobs(SPECS, jobs=1, retries=1)
        flaky = outcomes[2]
        assert flaky.status == "error" and flaky.retries == 1
        assert "InjectedFault" in flaky.error
        assert "Traceback" in flaky.error_detail

    def test_default_is_single_attempt(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "flaky:tagless/libquantum:1")
        outcomes = run_jobs(SPECS, jobs=1)
        assert outcomes[2].status == "error"
        assert outcomes[2].retries == 0


class TestResume:
    def _interrupted_artifact(self, path, monkeypatch):
        """An artifact where the middle point failed (never completed)."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "flaky:tagless/sphinx3:99")
        with RunArtifact(str(path), name="first") as artifact:
            outcomes = run_jobs(SPECS, jobs=1, observer=artifact)
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert [o.status for o in outcomes] == ["ok", "error", "ok"]

    def test_resume_recomputes_exactly_the_missing_points(
            self, tmp_path, monkeypatch, baseline):
        first = tmp_path / "first.jsonl"
        self._interrupted_artifact(first, monkeypatch)
        seeds = load_resume_map(str(first))
        assert len(seeds) == 2  # the failed row is not a seed

        second = tmp_path / "second.jsonl"
        with RunArtifact(str(second), name="second") as artifact:
            outcomes = run_jobs(SPECS, jobs=1, resume=seeds,
                                observer=artifact)
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        assert [o.cache_status for o in outcomes] == [
            "resume", "off", "resume",
        ]
        assert _metrics(outcomes) == baseline
        summary = read_artifact(str(second))[-1]
        assert summary["resumed"] == 2 and summary["errors"] == 0

    def test_resume_chains_through_artifacts(self, tmp_path, monkeypatch):
        # The second artifact embeds resumed results too, so a third
        # run can resume from it and recompute nothing.
        first = tmp_path / "first.jsonl"
        self._interrupted_artifact(first, monkeypatch)
        second = tmp_path / "second.jsonl"
        with RunArtifact(str(second), name="second") as artifact:
            run_jobs(SPECS, jobs=1, resume=load_resume_map(str(first)),
                     observer=artifact)
        outcomes = run_jobs(SPECS, jobs=1,
                            resume=load_resume_map(str(second)))
        assert [o.cache_status for o in outcomes] == ["resume"] * 3

    def test_headline_only_artifacts_yield_no_seeds(self, tmp_path):
        path = tmp_path / "slim.jsonl"
        with RunArtifact(str(path), name="slim",
                         store_results=False) as artifact:
            run_jobs(SPECS[:1], jobs=1, observer=artifact)
        assert load_resume_map(str(path)) == {}

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        with RunArtifact(str(path), name="torn") as artifact:
            run_jobs(SPECS[:2], jobs=1, observer=artifact)
        with open(path, "a") as handle:
            handle.write('{"record": "job", "key": "abc", "status": "o')
        assert len(load_resume_map(str(path))) == 2


class TestBookkeeping:
    def test_unfilled_slot_raises_instead_of_truncating(self, monkeypatch):
        # Simulate a scheduling bug: the pooled path returns without
        # delivering any outcome.  run_jobs must refuse to hand back a
        # silently truncated, misordered list.
        monkeypatch.setattr(runner_mod, "_run_pooled",
                            lambda *args, **kwargs: None)
        with pytest.raises(HarnessError, match="unfilled"):
            run_jobs(SPECS, jobs=2, timeout_s=60.0)

    def test_error_detail_lands_in_artifact(self, tmp_path):
        bad = JobSpec(design="no-such-design", workload="sphinx3",
                      accesses=2_000)
        path = tmp_path / "bad.jsonl"
        with RunArtifact(str(path), name="bad") as artifact:
            outcomes = run_jobs([bad], jobs=1, observer=artifact)
        assert not outcomes[0].ok
        row = [r for r in read_artifact(str(path))
               if r["record"] == "job"][0]
        assert row["status"] == "error"
        assert "Traceback" in row["error_detail"]
        assert "no-such-design" in row["error_detail"]

    def test_fault_free_defaults_are_bit_identical(self, baseline):
        # The whole fault-tolerance stack armed, but nothing goes
        # wrong: results must match the legacy serial path exactly.
        outcomes = run_jobs(SPECS, jobs=2, timeout_s=120.0, retries=2,
                            retry_backoff_s=0.25)
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert [o.retries for o in outcomes] == [0] * 3
        assert _metrics(outcomes) == baseline


class TestObserverLifecycle:
    def test_timeout_and_crash_counters(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", HANG)
        observer = HarnessObserver(RunRecord(), label="unit")
        run_jobs(SPECS, jobs=2, timeout_s=1.0, observer=_session(observer))
        health = observer.record.health
        assert health["jobs"] == 3
        assert health["errors"] == 1
        assert health["timeouts"] == 1
        assert health["worker_crashes"] == 0
        assert [row[COLUMNS.index("retries")]
                for row in observer.windows] == [0.0, 0.0, 0.0]

    def test_resume_counter(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunArtifact(str(path), name="seed") as artifact:
            run_jobs(SPECS[:2], jobs=1, observer=artifact)
        observer = HarnessObserver(RunRecord(), label="unit")
        run_jobs(SPECS[:2], jobs=1, resume=load_resume_map(str(path)),
                 observer=_session(observer))
        assert observer.record.health["resumed"] == 2
