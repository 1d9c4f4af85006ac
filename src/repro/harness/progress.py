"""The run record and the line-per-job progress reporter.

:class:`RunRecord` counts one run's job events once; the progress
line, the artifact summary, the harness trace/timeseries and the
``--live`` header all read it.  :class:`ProgressReporter` prints one
line per completed job on ``stderr`` (so stdout stays reserved for the
paper-style tables, byte-identical whether or not a reporter is
attached) plus an end-of-run summary with cache accounting.  It prints
nothing when ``enabled=False``, which is what ``--live`` and the test
suite use.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional

from repro.harness.cache import CacheStats
from repro.harness.jobs import JobResult, job_health


class RunRecord:
    """Each terminal job and granted retry of one run, recorded once.

    The harness session's observer feeds it before any view, so a view
    handed a landing outcome already sees it counted.  It also owns the
    run's clock and its one ETA.
    """

    def __init__(self, total: Optional[int] = None, clock=time.monotonic):
        self.total = total
        #: monotonic(): rate/ETA math must be immune to wall-clock
        #: adjustments (NTP slews, DST) over long sweeps.
        self.clock = clock
        self.started = clock()
        #: :func:`job_health` over every terminal outcome so far.
        self.health = job_health(())
        #: Retries granted so far.  ``health["retries"]`` counts them
        #: when the retried job lands; this counts them when granted.
        self.retries_granted = 0

    def job_done(self, outcome: JobResult) -> None:
        landed = job_health([(outcome.status, outcome.cache_status,
                              outcome.retries)])
        for key, count in landed.items():
            self.health[key] += count

    def job_retry(self, spec, attempt: int, error: str) -> None:
        self.retries_granted += 1

    def elapsed_s(self) -> float:
        return self.clock() - self.started

    def eta_s(self) -> Optional[float]:
        """Seconds of work left, paced on the jobs that ran.

        Cache hits and resume seeds land up front at no cost, so the
        pace counts only computed jobs (failures included).  ``None``
        when no estimate exists: unknown total, nothing left, nothing
        computed yet or no time elapsed.
        """
        health = self.health
        ran = health["jobs"] - health["cache_hits"] - health["resumed"]
        remaining = (self.total or 0) - health["jobs"]
        elapsed = self.elapsed_s()
        if ran <= 0 or remaining <= 0 or elapsed <= 0.0:
            return None
        return remaining * elapsed / ran


class ProgressReporter:
    """Prints ``[k/N] design/workload status`` lines as jobs finish.

    Counts, elapsed time and the ETA are ``record``'s.
    """

    def __init__(
        self,
        record: RunRecord,
        stream: Optional[IO[str]] = None,
        label: str = "sweep",
        enabled: bool = True,
    ):
        self.record = record
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self.enabled = enabled

    # ------------------------------------------------------------------
    def job_done(self, outcome: JobResult) -> None:
        """Print one finished job (already counted by the record)."""
        if not self.enabled:
            return
        record = self.record
        total = str(record.total) if record.total is not None else "?"
        status = "ok" if outcome.ok else f"ERROR {outcome.error}"
        cache_note = ""
        if outcome.cache_status != "off":
            cache_note = f", cache {outcome.cache_status}"
        eta = record.eta_s()
        eta_note = "" if eta is None else f", eta {eta:.0f}s"
        self._emit(
            f"[{record.health['jobs']}/{total}] {outcome.spec.label} "
            f"{status} ({outcome.wall_time_s:.2f}s{cache_note}{eta_note})"
        )

    def summary(self, cache_stats: Optional[CacheStats] = None) -> str:
        """Build (and print) the end-of-run summary line."""
        elapsed = self.record.elapsed_s()
        done = self.record.health["jobs"]
        parts = [
            f"{self.label}: {done} jobs",
            f"{self.record.health['errors']} errors",
            f"{elapsed:.2f}s wall",
        ]
        if done > 0 and elapsed > 0.0:
            # Rate only when well-defined: an empty or instant run has
            # no meaningful jobs/s and must not divide by zero.
            parts.append(f"{done / elapsed:.2f} jobs/s")
        if cache_stats is not None and cache_stats.lookups:
            parts.append(
                f"cache {cache_stats.hits}/{cache_stats.lookups} hits "
                f"({100.0 * cache_stats.hit_rate:.0f}%)"
            )
        text = ", ".join(parts)
        if self.enabled:
            self._emit(text)
        return text

    # ------------------------------------------------------------------
    def _emit(self, line: str) -> None:
        print(line, file=self.stream, flush=True)
