"""Job execution: parallel fan-out with a deterministic serial fallback.

:func:`run_jobs` takes an ordered list of :class:`JobSpec` and returns
one :class:`JobResult` per spec **in the same order**, regardless of
completion order.  ``jobs=1`` executes in-process (no pool, no pickling
-- the debuggable reference path); ``jobs>1`` -- or any configured
timeout -- fans misses out to a supervised
:class:`~repro.harness.pool.WorkerPool`.  Because every job is
reconstructed from its spec inside the worker, parallel and serial runs
produce bit-identical metrics -- a property the test suite locks.

Failures are captured *per job* and never abort the sweep:

- a point that **raises** yields a ``JobResult`` with ``status="error"``
  carrying the error string and a traceback tail;
- a point that **hangs** past its wall-clock budget
  (``JobSpec.timeout_s``, ``run_jobs(timeout_s=...)``, or
  ``$REPRO_JOB_TIMEOUT``) has its worker killed and is reported
  ``status="timeout"``;
- a point whose **worker process dies** (OOM killer, SIGKILL) is
  reported ``status="worker-crashed"``; the pool spawns a replacement
  worker and the remaining points continue.  This is the supervised
  pool's reason for existing: ``ProcessPoolExecutor`` would raise
  ``BrokenProcessPool`` out of every in-flight future instead.

``retries=N`` grants every failed point up to ``N`` more attempts
(exponential backoff from ``retry_backoff_s``), and ``resume=`` seeds
completed outcomes from a prior run's JSONL artifact so an interrupted
sweep recomputes only missing or failed points.  All knobs default off,
preserving bit-identical legacy behaviour.

Callers that need every point (the figure runners) raise
:class:`HarnessError` on any failure; callers that stream artifacts
(``repro campaign run``) simply record the failed rows.
"""

from __future__ import annotations

import collections
import os
import time
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import dataclasses

from repro.common.errors import ReproError
from repro.cpu.simulator import SimulationResult
from repro.harness.cache import ResultCache, simulation_result_from_dict
from repro.harness.jobs import JobResult, JobSpec, execute_captured
from repro.harness.pool import DONE, HEARTBEAT, WorkerPool
from repro.harness.shm import TraceArena
from repro.obs.metrics import get_registry

#: Environment variable supplying the default per-job timeout (seconds).
TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"


class HarnessError(ReproError):
    """One or more jobs of a sweep failed (details in the message)."""


def resolve_default_timeout(timeout_s: Optional[float]) -> Optional[float]:
    """Run-level timeout: explicit argument, else ``$REPRO_JOB_TIMEOUT``.

    A malformed environment value raises :class:`HarnessError` -- a
    mistyped timeout must not silently run an unbounded sweep.  Zero or
    negative values mean "no timeout".
    """
    if timeout_s is None:
        raw = os.environ.get(TIMEOUT_ENV)
        if not raw:
            return None
        try:
            timeout_s = float(raw)
        except ValueError:
            raise HarnessError(
                f"bad {TIMEOUT_ENV} value {raw!r}: expected seconds"
            ) from None
    return timeout_s if timeout_s > 0 else None


def _retry_delay(backoff_s: float, attempt: int) -> float:
    """Exponential backoff: ``backoff_s * 2**attempt`` (attempt 0-based)."""
    return backoff_s * (2.0 ** attempt)


def _hook(observer, name: str, *args) -> None:
    """Invoke an *optional* observer hook.

    Every hook -- ``job_done``, ``job_retry``, ``job_dispatched``,
    ``job_finished``, ``worker_heartbeat`` -- is looked up dynamically,
    so an observer implements only the ones it cares about.
    """
    if observer is None:
        return
    fn = getattr(observer, name, None)
    if fn is not None:
        fn(*args)


def _seed_from_record(spec: JobSpec, record: Dict[str, object],
                      ) -> Optional[JobResult]:
    """Rebuild a completed outcome from a prior artifact's job record.

    Only ``status=="ok"`` rows carrying a full result payload are
    usable; anything else (failed rows, rows from artifacts predating
    result embedding, corrupt payloads) returns ``None`` and the point
    is recomputed.
    """
    payload = record.get("result")
    if record.get("status") != "ok" or not isinstance(payload, dict):
        return None
    try:
        result = simulation_result_from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None
    return JobResult(spec=spec, result=result, cache_status="resume")


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    observer=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.0,
    resume: Optional[Dict[str, Dict[str, object]]] = None,
    heartbeat_s: Optional[float] = None,
) -> List[JobResult]:
    """Execute ``specs`` and return their outcomes in input order.

    Resume seeds and cache hits are resolved up front in the parent
    process (they never occupy a worker); only misses are dispatched.
    Each completed job is reported to ``observer``'s ``job_done`` hook
    as it lands, each granted retry to its ``job_retry`` hook, and the
    job is stored in the cache on success.  A harness session's
    observer is a :class:`~repro.obs.live.CompositeObserver` that
    records both in its :class:`~repro.harness.progress.RunRecord`
    first, then fans them out to the views that read the record's
    counts (progress line, artifact, harness trace, ``--live``); a
    lone :class:`~repro.harness.artifacts.RunArtifact` keeps a record
    of its own.  ``resume`` maps cache keys to job
    records from a prior artifact (see
    :func:`repro.harness.artifacts.load_resume_map`).

    A ``KeyboardInterrupt`` drains gracefully: workers are killed, and
    every outcome that already landed has been streamed to the artifact
    -- re-running with that artifact as ``resume`` picks up where the
    interrupted sweep stopped.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if retry_backoff_s < 0:
        raise ValueError("retry_backoff_s must be >= 0")
    default_timeout = resolve_default_timeout(timeout_s)

    def job_timeout(spec: JobSpec) -> Optional[float]:
        if spec.timeout_s is not None:
            return spec.timeout_s
        return default_timeout

    outcomes: List[Optional[JobResult]] = [None] * len(specs)
    pending: List[Tuple[int, JobSpec]] = []

    cache_status = "off" if cache is None else "miss"
    for index, spec in enumerate(specs):
        if resume:
            record = resume.get(spec.cache_key())
            if record is not None:
                seeded = _seed_from_record(spec, record)
                if seeded is not None:
                    outcomes[index] = seeded
                    _hook(observer, "job_done", seeded)
                    continue
        if cache is not None:
            start = time.perf_counter()
            result = cache.get(spec)
            if result is not None:
                outcomes[index] = JobResult(
                    spec=spec,
                    result=result,
                    wall_time_s=time.perf_counter() - start,
                    cache_status="hit",
                )
                _hook(observer, "job_done", outcomes[index])
                continue
        pending.append((index, spec))

    def finish(index: int, spec: JobSpec, result, error, detail, wall,
               status: str = "", attempt: int = 0,
               transfer: Tuple[int, int] = (0, 0)) -> None:
        if cache is not None and error is None:
            cache.put(spec, result, wall_time_s=wall)
        outcomes[index] = JobResult(
            spec=spec,
            result=result,
            error=error,
            wall_time_s=wall,
            cache_status=cache_status,
            status=status,
            error_detail=detail,
            retries=attempt,
            trace_bytes_pickled=transfer[0],
            trace_bytes_shared=transfer[1],
        )
        _hook(observer, "job_done", outcomes[index])

    def notify_retry(spec: JobSpec, attempt: int, error: str) -> None:
        _hook(observer, "job_retry", spec, attempt, error)

    # The in-process path stays the default (debuggable, zero overhead)
    # unless real parallelism is requested or any job carries a timeout
    # -- enforcing a wall-clock budget requires a killable worker, so a
    # serial run with a timeout is supervised by a one-worker pool.
    needs_pool = any(job_timeout(spec) is not None for _, spec in pending)
    if pending and (needs_pool or (jobs > 1 and len(pending) > 1)):
        # The arena outlives every worker (segments are unlinked here,
        # in the parent, after the pool is torn down), so a crashed or
        # killed worker can never leak a segment -- it only ever held
        # an attachment.
        with TraceArena() as arena:
            _run_pooled(pending, min(jobs, len(pending)), job_timeout,
                        retries, retry_backoff_s, finish, notify_retry,
                        arena, observer=observer, heartbeat_s=heartbeat_s)
    else:
        for index, spec in pending:
            attempt = 0
            while True:
                result, error, detail, wall = execute_captured(spec, attempt)
                if error is None or attempt >= retries:
                    break
                notify_retry(spec, attempt, error)
                delay = _retry_delay(retry_backoff_s, attempt)
                attempt += 1
                if delay > 0:
                    time.sleep(delay)
            finish(index, spec, result, error, detail, wall,
                   attempt=attempt)

    # Any unfilled slot is a harness bookkeeping bug; silently dropping
    # it would hand callers a truncated list whose positions no longer
    # line up with their specs.
    missing = [index for index, outcome in enumerate(outcomes)
               if outcome is None]
    if missing:
        shown = ", ".join(specs[i].label for i in missing[:3])
        more = "" if len(missing) <= 3 else f", +{len(missing) - 3} more"
        raise HarnessError(
            f"internal error: {len(missing)}/{len(specs)} job slots left "
            f"unfilled ({shown}{more}); refusing to return a truncated "
            f"sweep"
        )
    return outcomes


#: One queued (or requeued) unit of work awaiting a worker:
#: index, spec, attempt, t_ready, t_enqueued.
_QueueEntry = Tuple[int, JobSpec, int, float, float]


def _run_pooled(pending, workers, job_timeout, retries, retry_backoff_s,
                finish, notify_retry, arena=None, observer=None,
                heartbeat_s=None) -> None:
    """Schedule ``pending`` over a supervised pool until all terminate.

    Owns the retry queue and deadline enforcement; terminal outcomes are
    delivered through ``finish``.  Workers are always torn down on the
    way out, including on ``KeyboardInterrupt`` -- landed outcomes have
    already been streamed, which is what makes an interrupted sweep
    resumable.  ``arena`` optionally publishes each job's traces to
    shared memory once per recipe; retries and replacement workers
    re-attach the same segments, so trace data crosses a process
    boundary at most once per sweep, not once per attempt.

    ``observer`` additionally receives the per-attempt lifecycle hooks
    (:func:`_hook`): dispatch with measured queue wait, attempt
    completion with worker attribution, and (when ``heartbeat_s`` is
    set) worker liveness beats.
    """
    t_start = time.monotonic()
    queue: Deque[_QueueEntry] = collections.deque(
        (index, spec, 0, 0.0, t_start) for index, spec in pending
    )
    queue_wait = get_registry().histogram(
        "repro_pool_queue_wait_seconds",
        "Seconds a job (or retry) waited for a worker")

    def share_for(spec):
        if arena is None:
            return None
        try:
            return arena.share_for(spec)
        except Exception:
            # Trace generation failed in the parent; hand the job to a
            # worker anyway so the failure is captured per-job instead
            # of aborting the sweep.
            return None

    def transfer_of(job) -> Tuple[int, int]:
        if job.share is None:
            return (0, 0)
        return (job.share.pickled_nbytes, job.share.shared_nbytes)

    def requeue_or_fail(job, error, detail, wall, status) -> None:
        if job.attempt < retries:
            notify_retry(job.spec, job.attempt, error)
            now = time.monotonic()
            ready = now + _retry_delay(retry_backoff_s, job.attempt)
            queue.append((job.index, job.spec, job.attempt + 1, ready, now))
        else:
            finish(job.index, job.spec, None, error, detail, wall,
                   status=status, attempt=job.attempt,
                   transfer=transfer_of(job))

    with WorkerPool(workers, heartbeat_s=heartbeat_s or 0.0) as pool:
        while queue or pool.busy():
            now = time.monotonic()
            # Dispatch every ready entry to available capacity; entries
            # still backing off go back to the front, order preserved.
            deferred: List[_QueueEntry] = []
            while queue and pool.has_capacity():
                entry = queue.popleft()
                if entry[3] > now:
                    deferred.append(entry)
                    continue
                index, spec, attempt, _ready, t_enqueued = entry
                worker_id = pool.submit(index, spec, attempt,
                                        job_timeout(spec),
                                        share=share_for(spec))
                wait_s = max(0.0, time.monotonic() - t_enqueued)
                queue_wait.observe(wait_s)
                _hook(observer, "job_dispatched",
                      index, spec, attempt, worker_id, wait_s)
            queue.extendleft(reversed(deferred))

            if not pool.busy():
                if not queue:
                    break
                # Everything queued is backing off; sleep until the
                # earliest entry becomes ready.
                wake = min(entry[3] for entry in queue)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue

            wakes = [entry[3] for entry in queue if entry[3] > now]
            deadline = pool.next_deadline()
            if deadline is not None:
                wakes.append(deadline)
            timeout = (max(0.0, min(wakes) - time.monotonic())
                       if wakes else None)

            for kind, job, payload in pool.poll(timeout):
                if kind == HEARTBEAT:
                    _hook(observer, "worker_heartbeat", payload)
                    continue
                if kind == DONE:
                    result, error, detail, wall = payload
                    _hook(observer, "job_finished", job.index, job.spec,
                          job.attempt, job.worker_id,
                          "ok" if error is None else "error", wall)
                    if error is None:
                        finish(job.index, job.spec, result, None, None,
                               wall, attempt=job.attempt,
                               transfer=transfer_of(job))
                    else:
                        requeue_or_fail(job, error, detail, wall, "error")
                else:  # the worker process died mid-job
                    wall = time.monotonic() - job.started
                    _hook(observer, "job_finished", job.index, job.spec,
                          job.attempt, job.worker_id, "worker-crashed",
                          wall)
                    error = (f"worker process died while running "
                             f"{job.spec.label} (killed or out of memory)")
                    requeue_or_fail(job, error, None, wall,
                                    "worker-crashed")

            for worker in pool.expired():
                job = worker.job
                pool.kill(worker)
                wall = time.monotonic() - job.started
                _hook(observer, "job_finished", job.index, job.spec,
                      job.attempt, job.worker_id, "timeout", wall)
                budget = job_timeout(job.spec)
                error = (f"timed out after {wall:.1f}s "
                         f"(budget {budget:g}s)")
                requeue_or_fail(job, error, None, wall, "timeout")


@dataclasses.dataclass
class Harness:
    """Bundle of execution options threaded through the figure runners.

    ``Harness()`` is the neutral configuration -- serial, uncached,
    silent, no timeouts or retries -- so every runner keeps its old
    behaviour when no harness is passed.  The CLI builds one from
    ``--jobs`` / ``--cache-dir`` / ``--no-cache`` / ``--timeout`` /
    ``--retries`` / ``--resume``; benchmarks from ``REPRO_BENCH_JOBS``
    etc.  Progress lines, the JSONL artifact and fleet telemetry all
    ride the one ``observer`` slot (see :func:`run_jobs`).
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    observer: object = None
    #: Default per-job wall-clock budget (``None``: $REPRO_JOB_TIMEOUT,
    #: else unbounded).  ``JobSpec.timeout_s`` overrides per job.
    timeout_s: Optional[float] = None
    #: Extra attempts granted to each failed job.
    retries: int = 0
    #: First retry delay in seconds; doubles on each further attempt.
    retry_backoff_s: float = 0.0
    #: ``cache_key -> job record`` map from a prior run's artifact
    #: (:func:`repro.harness.artifacts.load_resume_map`).
    resume: Optional[Dict[str, Dict[str, object]]] = None
    #: Worker liveness-beat period in seconds (``None``/0: disabled).
    #: Enabled by ``--live`` so the monitor can show per-worker rows.
    heartbeat_s: Optional[float] = None

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        return run_jobs(
            specs,
            jobs=self.jobs,
            cache=self.cache,
            observer=self.observer,
            timeout_s=self.timeout_s,
            retries=self.retries,
            retry_backoff_s=self.retry_backoff_s,
            resume=self.resume,
            heartbeat_s=self.heartbeat_s,
        )

    def run_strict(
        self, specs: Sequence[JobSpec]
    ) -> List[SimulationResult]:
        """Run specs and raise :class:`HarnessError` if any point failed.

        The figure runners need *every* point to render their tables,
        but by running the whole sweep first (and caching the good
        points) a retry after a fix only recomputes the failures.
        """
        outcomes = self.run(specs)
        failures = [o for o in outcomes if not o.ok]
        if failures:
            detail = "; ".join(
                f"{o.spec.label}: {o.error}" for o in failures[:5]
            )
            more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
            raise HarnessError(
                f"{len(failures)}/{len(outcomes)} jobs failed: {detail}{more}"
            )
        return [o.result for o in outcomes]
