"""Event tracing with ring-buffer retention and Perfetto export.

The :class:`EventTracer` collects discrete simulation events -- cTLB
miss-handler fills, free-queue evictions, NC transitions, validation
sweeps, harness job lifecycle -- into a bounded ring buffer and exports
them as Chrome trace-event JSON, the format ``ui.perfetto.dev`` (and
``chrome://tracing``) opens directly.

Emission sites follow the repository's zero-cost-when-off discipline:
components carry a prebound :func:`null_event` attribute that installed
telemetry rebinds to :meth:`EventTracer.event`, so the disabled path
pays one no-op call on *rare* paths only (misses, evictions) and nothing
at all per access.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Default ring-buffer capacity: enough for the event density of a
#: figure-sized run while bounding memory for arbitrarily long ones.
DEFAULT_CAPACITY = 65_536


def null_event(cat, name, ts_ns, dur_ns=None, tid=0, args=None) -> None:
    """The prebound no-op every traceable component starts with.

    Signature-compatible with :meth:`EventTracer.event`; rebinding the
    attribute is the entire enable/disable mechanism.
    """
    return None


# One buffered event: (ts_ns, phase, cat, name, dur_ns, tid, args).
_Event = Tuple[float, str, str, str, float, int, Optional[dict]]


class EventTracer:
    """Bounded buffer of trace events with Chrome/Perfetto JSON export.

    Retention is ring-buffer style: once ``capacity`` events are held,
    each new event drops the oldest one.  ``emitted`` counts everything
    ever offered, so ``dropped`` quantifies what the ring shed -- the
    exporter records it in the trace metadata rather than pretending the
    run was fully covered.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[_Event] = deque(maxlen=capacity)
        self.emitted = 0

    # ------------------------------------------------------------------
    # Emission API (what the instrumented components call)
    # ------------------------------------------------------------------
    def event(self, cat, name, ts_ns, dur_ns=None, tid=0, args=None) -> None:
        """Record one event.

        ``dur_ns=None`` emits an instant event ("i"); a duration emits a
        complete event ("X") spanning ``[ts_ns, ts_ns + dur_ns]``.
        """
        self.emitted += 1
        if dur_ns is None:
            self._events.append((ts_ns, "i", cat, name, 0.0, tid, args))
        else:
            self._events.append((ts_ns, "X", cat, name, dur_ns, tid, args))

    def begin(self, cat: str, name: str, ts_ns: float, tid: int = 0,
              args: Optional[dict] = None) -> None:
        """Open a duration slice (must be closed by a matching end)."""
        self.emitted += 1
        self._events.append((ts_ns, "B", cat, name, 0.0, tid, args))

    def end(self, cat: str, name: str, ts_ns: float, tid: int = 0) -> None:
        """Close the innermost open slice of this name/tid."""
        self.emitted += 1
        self._events.append((ts_ns, "E", cat, name, 0.0, tid, None))

    def counter(self, name: str, ts_ns: float,
                values: Dict[str, float], tid: int = 0) -> None:
        """Record a counter-track sample (rendered as area charts)."""
        self.emitted += 1
        self._events.append((ts_ns, "C", "counter", name, 0.0, tid,
                             dict(values)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events shed by ring-buffer retention."""
        return self.emitted - len(self._events)

    def events(self) -> List[_Event]:
        """Snapshot of the retained events in emission order."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_perfetto_dict(self, process_name: str = "repro",
                         pid: int = 0,
                         thread_names: Optional[Dict[int, str]] = None,
                         ) -> Dict[str, object]:
        """Build the Chrome trace-event JSON object.

        Events are sorted by timestamp (stable, so properly nested B/E
        pairs emitted at identical timestamps keep their order) and
        timestamps are converted from simulation nanoseconds to the
        microseconds the format specifies.  ``thread_names`` labels tid
        tracks (``{0: "run", 1: "worker 0"}``) via ``thread_name``
        metadata events -- how per-worker tracks get their names in the
        Perfetto UI.
        """
        trace_events: List[Dict[str, object]] = [{
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": process_name},
        }]
        for tid, name in sorted((thread_names or {}).items()):
            trace_events.append({
                "ph": "M", "pid": pid, "tid": tid, "ts": 0,
                "name": "thread_name", "args": {"name": name},
            })
        for ts_ns, phase, cat, name, dur_ns, tid, args in sorted(
                self._events, key=lambda e: e[0]):
            record: Dict[str, object] = {
                "name": name, "cat": cat, "ph": phase,
                "ts": ts_ns / 1000.0, "pid": pid, "tid": tid,
            }
            if phase == "X":
                record["dur"] = dur_ns / 1000.0
            if args:
                record["args"] = args
            trace_events.append(record)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ns",
            "otherData": {
                "emitted": self.emitted,
                "retained": len(self._events),
                "dropped": self.dropped,
            },
        }

    def to_perfetto(self, path: str, process_name: str = "repro",
                    pid: int = 0,
                    thread_names: Optional[Dict[int, str]] = None) -> None:
        """Write the trace as Perfetto-loadable JSON."""
        with open(path, "w") as handle:
            json.dump(self.to_perfetto_dict(process_name, pid,
                                            thread_names), handle)
            handle.write("\n")


def merge_perfetto_files(paths, out_path: str) -> Dict[str, object]:
    """Merge trace files into one Perfetto-loadable JSON document.

    Each input keeps its own process track: events of input *i* are
    re-pidded to ``i``, so a harness-lifecycle trace (pid 0, one thread
    per worker) and a sim-level telemetry trace (pid 1) land side by
    side in one timeline instead of colliding on pid 0.  ``otherData``
    drop ledgers are summed -- a merged trace must not launder away
    what its inputs shed.  Returns the merged document.
    """
    events: List[Dict[str, object]] = []
    other = {"emitted": 0, "retained": 0, "dropped": 0}
    sources = []
    for new_pid, path in enumerate(paths):
        with open(path) as handle:
            doc = json.load(handle)
        sources.append(path)
        for event in doc.get("traceEvents", []):
            event = dict(event)
            event["pid"] = new_pid
            events.append(event)
        for key in other:
            value = doc.get("otherData", {}).get(key)
            if isinstance(value, (int, float)):
                other[key] += value
    merged = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": other | {"merged_from": sources},
    }
    with open(out_path, "w") as handle:
        json.dump(merged, handle)
        handle.write("\n")
    return merged
