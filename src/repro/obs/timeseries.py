"""Windowed time-series recording over a running design.

The :class:`TimeseriesRecorder` turns the simulator's cumulative
counters into per-window behaviour-over-time: it shadows
``design.access_cycles`` with a sampling wrapper (the same
instance-attribute trick the invariant checker uses), and at every
window boundary snapshots :meth:`~repro.designs.base.MemorySystemDesign.
timeseries_probe` and stores the counter *deltas* plus the instantaneous
gauges.  Nothing is accounted per access -- a window costs one probe --
so enabling telemetry cannot perturb the simulated machine, and leaving
it off costs nothing at all.

Windows are measured in ``accesses`` (every N memory references) or in
``cycles`` (every N core cycles of the interleaved clock, which is
globally non-decreasing).  The result is a compact columnar buffer
dumpable to JSONL or CSV and renderable by ``repro report``.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List, Optional, Tuple

#: Default sampling interval (in the recorder's unit).
DEFAULT_INTERVAL = 1024

#: Counters consumed by the derived columns below; anything else a
#: design's probe reports lands in the artifact as a raw ``d_<name>``
#: delta column.
_CONSUMED = frozenset((
    "accesses", "l3_accesses", "tlb_hits", "tlb_refs", "l3_hits",
    "l3_refs", "inpkg_bytes", "offpkg_bytes", "inpkg_busy_ns",
    "offpkg_busy_ns", "row_hits", "row_refs",
))

_MISSING = object()


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


class TimeseriesRecorder:
    """Samples a design's counters into per-window metric columns."""

    def __init__(
        self,
        interval: int = DEFAULT_INTERVAL,
        unit: str = "accesses",
        tracer=None,
    ):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if unit not in ("accesses", "cycles"):
            raise ValueError(f"unit must be 'accesses' or 'cycles', "
                             f"got {unit!r}")
        self.interval = interval
        self.unit = unit
        self.tracer = tracer
        self.columns: Dict[str, List[float]] = {}
        self.meta: Dict[str, object] = {"interval": interval, "unit": unit}
        self.windows = 0
        self._design = None
        self._cores: List[Tuple[int, object]] = []
        self._core_prev: Dict[int, Tuple[float, float]] = {}
        self._prev_counters: Dict[str, float] = {}
        self._prev_t_ns = 0.0
        self._last_now_ns = 0.0
        self._saved_access_cycles = _MISSING
        self._installed = False

    # ------------------------------------------------------------------
    # Install / uninstall (mirrors InvariantChecker's wrapper protocol)
    # ------------------------------------------------------------------
    def install(self, design) -> None:
        """Shadow ``design.access_cycles`` with the sampling wrapper.

        Must run before the replay loop binds ``access_cycles``.  If
        an invariant checker is already installed its wrapper is what we
        wrap, and :meth:`uninstall` restores it rather than deleting it.
        """
        if self._installed:
            return
        self._design = design
        self.meta["design"] = design.name
        counters, _gauges = design.timeseries_probe()
        self._prev_counters = counters
        self._prev_t_ns = 0.0
        # Whatever currently shadows access_cycles (checker wrapper, or
        # nothing) is the chain we extend and must later put back.
        self._saved_access_cycles = design.__dict__.get(
            "access_cycles", _MISSING
        )
        inner = design.access_cycles
        sample = self._sample

        if self.unit == "accesses":
            interval = self.interval
            countdown = [interval]

            def sampling_access_cycles(core_id, process_id, virtual_page,
                                       line_index, is_write, now_ns):
                cycles = inner(core_id, process_id, virtual_page,
                               line_index, is_write, now_ns)
                self._last_now_ns = now_ns
                countdown[0] -= 1
                if countdown[0] <= 0:
                    countdown[0] = interval
                    sample(now_ns)
                return cycles
        else:
            # Cycle windows: boundaries on the interleaved clock, which
            # only moves forward, so a simple high-water check suffices.
            interval_ns = self.interval / design.config.core.frequency_ghz
            boundary = [interval_ns]

            def sampling_access_cycles(core_id, process_id, virtual_page,
                                       line_index, is_write, now_ns):
                cycles = inner(core_id, process_id, virtual_page,
                               line_index, is_write, now_ns)
                self._last_now_ns = now_ns
                if now_ns >= boundary[0]:
                    while boundary[0] <= now_ns:
                        boundary[0] += interval_ns
                    sample(now_ns)
                return cycles

        design.access_cycles = sampling_access_cycles
        self._installed = True

    def uninstall(self) -> None:
        """Restore whatever shadowed ``access_cycles`` before us."""
        if not self._installed:
            return
        if self._saved_access_cycles is _MISSING:
            try:
                del self._design.access_cycles
            except AttributeError:
                pass
        else:
            self._design.access_cycles = self._saved_access_cycles
        self._saved_access_cycles = _MISSING
        self._installed = False

    def attach_cores(self, cores) -> None:
        """Receive ``[(core_id, model), ...]`` from the replay loop
        so windows can carry per-core IPC."""
        self._cores = list(cores)
        self._core_prev = {
            core_id: (model.instructions, model.cycles)
            for core_id, model in self._cores
        }

    def finalize(self) -> None:
        """Flush the trailing partial window (and guarantee at least one
        window for any run that performed accesses)."""
        if self._design is None:
            return
        counters, _gauges = self._design.timeseries_probe()
        if counters.get("accesses", 0.0) != self._prev_counters.get(
                "accesses", 0.0):
            self._sample(max(self._last_now_ns, self._prev_t_ns))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _sample(self, now_ns: float) -> None:
        counters, gauges = self._design.timeseries_probe()
        prev = self._prev_counters
        delta = {key: value - prev.get(key, 0.0)
                 for key, value in counters.items()}
        self._prev_counters = counters
        dt_ns = now_ns - self._prev_t_ns
        self._prev_t_ns = now_ns

        instructions = 0.0
        ipc_total = 0.0
        per_core: List[Tuple[int, float]] = []
        for core_id, model in self._cores:
            prev_instr, prev_cycles = self._core_prev.get(core_id, (0.0, 0.0))
            d_instr = model.instructions - prev_instr
            d_cycles = model.cycles - prev_cycles
            self._core_prev[core_id] = (model.instructions, model.cycles)
            instructions += d_instr
            core_ipc = _ratio(d_instr, d_cycles)
            ipc_total += core_ipc
            per_core.append((core_id, core_ipc))

        row: Dict[str, float] = {
            "t_ns": now_ns,
            "accesses": delta.get("accesses", 0.0),
            "instructions": instructions,
            "mpki": _ratio(1000.0 * delta.get("l3_accesses", 0.0),
                           instructions),
            "ipc": ipc_total,
            "ctlb_hit_rate": _ratio(delta.get("tlb_hits", 0.0),
                                    delta.get("tlb_refs", 0.0)),
            "l3_hit_rate": _ratio(delta.get("l3_hits", 0.0),
                                  delta.get("l3_refs", 0.0)),
            "row_hit_rate": _ratio(delta.get("row_hits", 0.0),
                                   delta.get("row_refs", 0.0)),
            # bytes/ns == GB/s: the unit-free arithmetic the energy
            # account also relies on.
            "inpkg_gbps": _ratio(delta.get("inpkg_bytes", 0.0), dt_ns),
            "offpkg_gbps": _ratio(delta.get("offpkg_bytes", 0.0), dt_ns),
            "inpkg_bus_util": _ratio(delta.get("inpkg_busy_ns", 0.0), dt_ns),
            "offpkg_bus_util": _ratio(delta.get("offpkg_busy_ns", 0.0),
                                      dt_ns),
        }
        for key, value in gauges.items():
            row[key] = value
        for core_id, core_ipc in per_core:
            row[f"ipc_core{core_id}"] = core_ipc
        for key, value in delta.items():
            if key not in _CONSUMED:
                row[f"d_{key}"] = value

        columns = self.columns
        for key, value in row.items():
            columns.setdefault(key, []).append(value)
        self.windows += 1

        if self.tracer is not None:
            self.tracer.counter("free_queue", now_ns, {
                "depth": row.get("free_queue_depth", 0.0),
                "alpha": row.get("free_queue_alpha", 0.0),
            })
            self.tracer.counter("bandwidth_gbps", now_ns, {
                "in_package": row["inpkg_gbps"],
                "off_package": row["offpkg_gbps"],
            })
            self.tracer.counter("hit_rates", now_ns, {
                "ctlb": row["ctlb_hit_rate"],
                "l3": row["l3_hit_rate"],
            })

    # ------------------------------------------------------------------
    # Dump / load
    # ------------------------------------------------------------------
    def to_jsonl(self, path: str, histogram=None,
                 extra_meta: Optional[Dict[str, object]] = None) -> None:
        """Write ``meta`` + one compact record per window (+ an optional
        trailing histogram record) as JSONL."""
        names = list(self.columns)
        meta: Dict[str, object] = {"record": "meta", "kind": "timeseries"}
        meta.update(self.meta)
        if extra_meta:
            meta.update(extra_meta)
        meta["columns"] = names
        meta["windows"] = self.windows
        with open(path, "w") as handle:
            handle.write(json.dumps(meta) + "\n")
            for index in range(self.windows):
                record = {
                    "record": "window",
                    "v": [self.columns[name][index] for name in names],
                }
                handle.write(json.dumps(record) + "\n")
            if histogram is not None:
                record = {"record": "histogram"}
                record.update(histogram.to_dict())
                handle.write(json.dumps(record) + "\n")

    def to_csv(self, path: str) -> None:
        names = list(self.columns)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            for index in range(self.windows):
                writer.writerow(
                    [self.columns[name][index] for name in names]
                )


def load_timeseries(path: str):
    """Load a timeseries artifact written by :meth:`to_jsonl` or
    :meth:`to_csv`.

    Returns ``(meta, columns, histogram_dict_or_None)``; CSV artifacts
    come back with an empty meta dict and no histogram.
    """
    with open(path) as handle:
        first = handle.readline()
        try:
            head = json.loads(first)
        except json.JSONDecodeError:
            head = None
        if head is None:
            # CSV: the first line is the header row.
            names = next(csv.reader([first]))
            columns: Dict[str, List[float]] = {name: [] for name in names}
            for row in csv.reader(handle):
                for name, value in zip(names, row):
                    columns[name].append(float(value))
            return {}, columns, None
        if head.get("record") != "meta" or head.get("kind") != "timeseries":
            raise ValueError(f"{path} is not a timeseries artifact")
        names = list(head["columns"])
        columns = {name: [] for name in names}
        histogram = None
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("record") == "window":
                for name, value in zip(names, record["v"]):
                    columns[name].append(float(value))
            elif record.get("record") == "histogram":
                histogram = record
        return head, columns, histogram
