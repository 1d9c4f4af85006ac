"""Live fleet monitoring: per-worker rows over a running sweep.

``--live`` replaces the one-line progress bar with a small dashboard
fed entirely by the observer hooks the pooled runner already invokes --
no extra IPC beyond the workers' heartbeat messages:

    workers 4  jobs 37/180 (21%)  cache 12  retries 1  errors 0  eta 94s
      w0  busy  tagless/mcf@1024MB      #2  12.3s   1.2M acc/s  9 done
      w1  busy  sram-tags/lbm@1024MB    #0   2.1s   1.4M acc/s  8 done
      ...

Rendering is resilient to where it runs: on a TTY the block redraws in
place (cursor-up ANSI codes); on a dumb pipe (CI logs) it prints a
fresh block at most every few seconds.  The monitor is an *observer* --
state in, text out -- so :class:`CompositeObserver` can fan the same
hook stream out to it and a :class:`~repro.obs.harness.HarnessObserver`
simultaneously.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional


class CompositeObserver:
    """Fan one runner hook stream out to several observers, in order.

    Hooks are forwarded only to children that define them, mirroring
    the runner's own optional-hook discipline, so a plain legacy
    observer can sit next to a :class:`LiveMonitor`.  A harness session
    puts its :class:`~repro.harness.progress.RunRecord` first, so each
    event is recorded once before any view reads the counts.
    """

    _HOOKS = ("job_done", "job_retry", "job_dispatched", "job_finished",
              "worker_heartbeat", "finish")

    def __init__(self, *observers):
        self.observers = [obs for obs in observers if obs is not None]
        for hook in self._HOOKS:
            targets = [getattr(obs, hook) for obs in self.observers
                       if hasattr(obs, hook)]
            if targets:
                setattr(self, hook, _fan_out(targets))


def _fan_out(targets):
    def call(*args, **kwargs):
        for target in targets:
            target(*args, **kwargs)
    return call


class _WorkerRow:
    """What the dashboard knows about one pool worker."""

    __slots__ = ("worker_id", "label", "attempt", "elapsed_s",
                 "accesses_done", "jobs_done", "last_status", "busy",
                 "first_seen")

    def __init__(self, worker_id: int, now: float):
        self.worker_id = worker_id
        self.label: Optional[str] = None
        self.attempt = 0
        self.elapsed_s = 0.0
        self.accesses_done = 0
        self.jobs_done = 0
        self.last_status = ""
        self.busy = False
        self.first_seen = now

    def rate(self, now: float) -> float:
        """Accesses per second over the worker's observed lifetime."""
        uptime = max(1e-9, now - self.first_seen)
        return self.accesses_done / uptime


class LiveMonitor:
    """Renders fleet state from runner hooks; safe on TTYs and pipes.

    The header's counts, clock and ETA are ``record``'s
    (:class:`~repro.harness.progress.RunRecord`); the monitor keeps
    only the per-worker rows.
    """

    def __init__(self, record, label: str = "run", stream=None,
                 interval_s: float = 0.5, is_tty: Optional[bool] = None):
        self.record = record
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self._tty = (self.stream.isatty() if is_tty is None
                     and hasattr(self.stream, "isatty") else bool(is_tty))
        self._last_render = -float("inf")
        self._last_lines = 0
        self.workers: Dict[int, _WorkerRow] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def job_done(self, outcome) -> None:
        self._render()

    def job_retry(self, spec, attempt: int, error: str) -> None:
        self._render()

    def job_dispatched(self, index: int, spec, attempt: int,
                       worker_id: int, queue_wait_s: float) -> None:
        row = self._row(worker_id)
        row.busy = True
        row.label = spec.label
        row.attempt = attempt
        row.elapsed_s = 0.0
        self._render()

    def job_finished(self, index: int, spec, attempt: int, worker_id: int,
                     status: str, wall_s: float) -> None:
        row = self._row(worker_id)
        row.busy = False
        row.jobs_done += 1
        row.last_status = status
        row.elapsed_s = wall_s
        self._render()

    def worker_heartbeat(self, payload: dict) -> None:
        row = self._row(int(payload.get("worker", 0)))
        row.busy = True
        row.label = payload.get("label", row.label)
        row.attempt = int(payload.get("attempt", row.attempt))
        row.elapsed_s = float(payload.get("elapsed_s", 0.0))
        row.accesses_done = int(payload.get("accesses_done", 0))
        self._render()

    def finish(self) -> None:
        """Force a final frame so the last state is what stays behind."""
        if self._finished:
            return
        self._finished = True
        self._render(force=True)
        if not self._tty:
            return
        self.stream.write("\n")
        self.stream.flush()

    # ------------------------------------------------------------------
    def _row(self, worker_id: int) -> _WorkerRow:
        row = self.workers.get(worker_id)
        if row is None:
            row = _WorkerRow(worker_id, self.record.clock())
            self.workers[worker_id] = row
        return row

    def render_lines(self) -> List[str]:
        now = self.record.clock()
        health = self.record.health
        done, total = health["jobs"], self.record.total or 0
        pct = (100.0 * done / total) if total else 100.0
        eta = self.record.eta_s()
        head = (f"{self.label}: workers {len(self.workers)}  "
                f"jobs {done}/{total} ({pct:.0f}%)  "
                f"cache {health['cache_hits']}  "
                f"resumed {health['resumed']}  "
                f"retries {self.record.retries_granted}  "
                f"errors {health['errors']}")
        if eta is not None:
            head += f"  eta {_fmt_duration(eta)}"
        lines = [head]
        for worker_id in sorted(self.workers):
            row = self.workers[worker_id]
            state = "busy" if row.busy else "idle"
            label = (row.label or "-")[:34]
            rate = row.rate(now)
            rate_text = f"{_fmt_quantity(rate)} acc/s" if rate > 0 else ""
            lines.append(
                f"  w{row.worker_id:<3d} {state:<4s} {label:<34s} "
                f"#{row.attempt}  {row.elapsed_s:6.1f}s  "
                f"{rate_text:>12s}  {row.jobs_done} done"
                + (f"  [{row.last_status}]"
                   if row.last_status and row.last_status != "ok" else "")
            )
        return lines

    def _render(self, force: bool = False) -> None:
        now = self.record.clock()
        # Pipes get a frame at most every 4 intervals to keep CI logs
        # readable; TTYs redraw in place at the configured cadence.
        min_gap = self.interval_s if self._tty else self.interval_s * 4
        if not force and now - self._last_render < min_gap:
            return
        self._last_render = now
        lines = self.render_lines()
        if self._tty:
            out = ""
            if self._last_lines:
                out += f"\x1b[{self._last_lines}F\x1b[J"
            out += "\n".join(lines)
            self.stream.write(out + "\n")
            self._last_lines = len(lines)
        else:
            self.stream.write("\n".join(lines) + "\n")
        self.stream.flush()


def _fmt_duration(seconds: float) -> str:
    if seconds < 90:
        return f"{seconds:.0f}s"
    if seconds < 90 * 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def _fmt_quantity(value: float) -> str:
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= scale:
            return f"{value / scale:.1f}{suffix}"
    return f"{value:.0f}"
