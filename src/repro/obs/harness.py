"""Harness-level observability: job lifecycle over wall-clock time.

Sweep and experiment jobs may execute in worker processes, where
simulator-level telemetry cannot cross the pickling boundary.  What the
parent process *can* observe -- and what matters for harness tuning --
is the run's own lifecycle: when each job landed, how long it ran,
whether it came from the cache, how the error count grew.  The
:class:`HarnessObserver` paints exactly that from the run record
(:class:`~repro.harness.progress.RunRecord`) and exports the same two
artifact kinds as simulator telemetry: a Perfetto trace of job slices
and a progress time-series.

The trace carries one thread track per pool worker (tid = worker id +
1; tid 0 is the run-level track): the runner's dispatch hook paints a
queue-wait slice, each attempt's completion paints an execution slice
tagged with its status (``ok``/``error``/``timeout``/
``worker-crashed``), and heartbeats land as instant ticks -- so a
stall, a retry storm, or one slow worker is visible as a shape, not a
number.  The export is mergeable with a sim-level telemetry trace via
:func:`repro.obs.events.merge_perfetto_files`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.events import EventTracer


#: Harness timeseries columns: one window per landed job, counts as
#: the run record had them when it landed.
COLUMNS = ("t_ns", "jobs_done", "cache_hits", "errors", "job_wall_s",
           "retries", "trace_bytes_shared")


class HarnessObserver:
    """Paints one run's job lifecycle; counts and clock are ``record``'s."""

    def __init__(self, record, label: str = "run"):
        self.record = record
        self.label = label
        self.tracer = EventTracer()
        #: Worker ids seen via the lifecycle hooks (names their tracks).
        self.worker_ids: set = set()
        #: Progress samples, one row of :data:`COLUMNS` per landed job.
        self.windows: List[List[float]] = []
        self._finished = False
        #: Artifact destinations the CLI wires up; written at finish().
        self.trace_path: Optional[str] = None
        self.timeseries_path: Optional[str] = None
        self.tracer.begin("harness", label, 0.0)

    def _now_ns(self) -> float:
        return self.record.elapsed_s() * 1e9

    # ------------------------------------------------------------------
    def job_done(self, outcome) -> None:
        """Paint one finished :class:`~repro.harness.jobs.JobResult`."""
        now_ns = self._now_ns()
        wall_ns = outcome.wall_time_s * 1e9
        self.tracer.event(
            "job", outcome.spec.label, max(0.0, now_ns - wall_ns),
            dur_ns=wall_ns,
            args={"cache": outcome.cache_status, "ok": outcome.ok,
                  "status": outcome.status,
                  "retries": outcome.retries,
                  "trace_bytes_pickled": outcome.trace_bytes_pickled,
                  "trace_bytes_shared": outcome.trace_bytes_shared},
        )
        health = self.record.health
        # The last column sums trace bytes attached from shared memory
        # (see :mod:`repro.harness.shm`) per *consuming* job.
        shared = self.windows[-1][-1] if self.windows else 0.0
        self.windows.append([
            now_ns, float(health["jobs"]), float(health["cache_hits"]),
            float(health["errors"]), outcome.wall_time_s,
            float(self.record.retries_granted),
            shared + outcome.trace_bytes_shared,
        ])

    # ------------------------------------------------------------------
    # Per-attempt lifecycle (invoked by the pooled runner when present)
    # ------------------------------------------------------------------
    def job_dispatched(self, index: int, spec, attempt: int,
                       worker_id: int, queue_wait_s: float) -> None:
        """One attempt left the queue for a worker.

        Painted as a queue-wait slice ending now on the worker's track:
        in the Perfetto timeline, dead air before a job's execution
        slice is literally the time it spent waiting.
        """
        now_ns = self._now_ns()
        tid = worker_id + 1
        self.worker_ids.add(worker_id)
        wait_ns = queue_wait_s * 1e9
        self.tracer.event(
            "queue", "wait", max(0.0, now_ns - wait_ns), dur_ns=wait_ns,
            tid=tid, args={"job": spec.label, "attempt": attempt},
        )

    def job_finished(self, index: int, spec, attempt: int, worker_id: int,
                     status: str, wall_s: float) -> None:
        """One attempt ended on a worker (terminal or about to retry).

        Unlike :meth:`job_done` -- one event per *job*, on the run track
        -- this fires once per *attempt*, on the worker's track, so
        timeouts and crashed attempts that later succeed still leave
        their slice behind.
        """
        now_ns = self._now_ns()
        tid = worker_id + 1
        self.worker_ids.add(worker_id)
        wall_ns = wall_s * 1e9
        self.tracer.event(
            "exec", spec.label, max(0.0, now_ns - wall_ns),
            dur_ns=wall_ns, tid=tid,
            args={"status": status, "attempt": attempt},
        )

    def worker_heartbeat(self, payload: dict) -> None:
        """Liveness beat from a busy worker (instant tick on its track)."""
        worker_id = int(payload.get("worker", 0))
        self.worker_ids.add(worker_id)
        self.tracer.event(
            "hb", "heartbeat", self._now_ns(), tid=worker_id + 1,
            args={"job": payload.get("label"),
                  "elapsed_s": payload.get("elapsed_s"),
                  "accesses_done": payload.get("accesses_done")},
        )

    def job_retry(self, spec, attempt: int, error: str) -> None:
        """Record one retry decision (job failed, another attempt granted).

        Instant events rather than slices: the failed attempt's wall
        time is folded into the job's terminal slice, while the retry
        marks *when* the harness decided to go again and why.
        """
        self.tracer.event(
            "retry", spec.label, self._now_ns(),
            args={"attempt": attempt, "error": error},
        )

    def finish(self) -> None:
        """Close the run slice and write any configured artifacts."""
        if self._finished:
            return
        self._finished = True
        self.tracer.end("harness", self.label, self._now_ns())
        if self.trace_path is not None:
            self.tracer.to_perfetto(self.trace_path,
                                    process_name=self.label,
                                    thread_names=self.thread_names())
        if self.timeseries_path is not None:
            self.to_timeseries_jsonl(self.timeseries_path)

    def thread_names(self) -> Dict[int, str]:
        """Track labels for the export: the run plus each worker seen."""
        names = {0: "run"}
        for worker_id in sorted(self.worker_ids):
            names[worker_id + 1] = f"worker {worker_id}"
        return names

    # ------------------------------------------------------------------
    def to_timeseries_jsonl(self, path: str) -> None:
        """Progress series in the same artifact schema ``repro report``
        reads for simulator timeseries."""
        meta = {
            "record": "meta", "kind": "timeseries", "design": "harness",
            "interval": 1, "unit": "jobs", "label": self.label,
            "columns": list(COLUMNS), "windows": len(self.windows),
        }
        with open(path, "w") as handle:
            handle.write(json.dumps(meta) + "\n")
            for row in self.windows:
                handle.write(json.dumps({"record": "window", "v": row})
                             + "\n")
