"""The telemetry bundle: one object that turns observability on and off.

``Telemetry`` owns an optional :class:`~repro.obs.timeseries.
TimeseriesRecorder`, an optional :class:`~repro.obs.events.EventTracer`
and the off-package latency :class:`~repro.common.stats.Histogram`, and
knows how to wire all three into a design and tear them back out:

- ``install(design)`` rebinds the design's (and the tagless engine's)
  prebound ``trace_event`` no-op to the tracer, adds the recorder to
  the design's replay boundaries, and arms the off-package device's
  latency histogram;
- ``uninstall()`` restores every attribute it touched, so a design is
  bit-for-bit back on its unobserved fast path afterwards.

The fused kernel inlines the paths the tracer and the histogram
observe, so either keeps a run on the reference loop
(:func:`repro.cpu.batched.select_kernel`); the recorder alone does
not, since its windows are replay boundaries the kernel stops for.
``Simulator.run(..., telemetry=...)`` installs after the warmup
boundary: telemetry observes the measured window, like the stats.
"""

from __future__ import annotations

from typing import Optional

from repro.common.stats import Histogram
from repro.obs.events import EventTracer, null_event
from repro.obs.timeseries import TimeseriesRecorder


class Telemetry:
    """Bundles recorder + tracer + histogram behind one install switch."""

    def __init__(
        self,
        timeseries: Optional[TimeseriesRecorder] = None,
        tracer: Optional[EventTracer] = None,
        latency_histogram: bool = True,
    ):
        self.timeseries = timeseries
        self.tracer = tracer
        self.histogram: Optional[Histogram] = (
            Histogram("offpkg_demand_latency_ns") if latency_histogram
            else None
        )
        self._design = None
        self._installed = False

    # ------------------------------------------------------------------
    def install(self, design) -> None:
        if self._installed:
            return
        self._design = design
        tracer = self.tracer
        if tracer is not None:
            design.trace_event = tracer.event
            engine = getattr(design, "engine", None)
            if engine is not None:
                engine.trace_event = tracer.event
            tracer.begin("sim", "measured", 0.0)
        if self.histogram is not None:
            design.off_package.latency_histogram = self.histogram
        if self.timeseries is not None:
            if self.timeseries.tracer is None:
                self.timeseries.tracer = tracer
            self.timeseries.install(design)
        self._installed = True

    def uninstall(self) -> None:
        """Flush the recorder and restore every instrumented attribute."""
        if not self._installed:
            return
        design = self._design
        if self.timeseries is not None:
            self.timeseries.finalize()
            self.timeseries.uninstall()
        if self.tracer is not None:
            self.tracer.end(
                "sim", "measured",
                self.timeseries._last_now_ns if self.timeseries else 0.0,
            )
            design.trace_event = null_event
            engine = getattr(design, "engine", None)
            if engine is not None:
                engine.trace_event = null_event
        if self.histogram is not None:
            design.off_package.latency_histogram = None
        self._installed = False

    # ------------------------------------------------------------------
    def write_artifacts(
        self,
        trace_path: Optional[str] = None,
        timeseries_path: Optional[str] = None,
        workload: Optional[str] = None,
    ) -> None:
        """Dump whatever was captured to the requested paths."""
        if trace_path is not None and self.tracer is not None:
            name = self._design.name if self._design is not None else "repro"
            self.tracer.to_perfetto(trace_path, process_name=name)
        if timeseries_path is not None and self.timeseries is not None:
            extra = {"workload": workload} if workload else {}
            if self.tracer is not None:
                # Capture-health ledger: lets `repro report` say whether
                # the ring buffer shed events during this run.
                extra["trace_events"] = {
                    "emitted": self.tracer.emitted,
                    "retained": len(self.tracer.events()),
                    "dropped": self.tracer.dropped,
                }
            if timeseries_path.endswith(".csv"):
                self.timeseries.to_csv(timeseries_path)
            else:
                self.timeseries.to_jsonl(
                    timeseries_path, histogram=self.histogram,
                    extra_meta=extra,
                )


def make_telemetry(
    interval: int = 1024,
    unit: str = "accesses",
    timeseries: bool = True,
    trace: bool = True,
    capacity: int = 65_536,
) -> Telemetry:
    """Convenience constructor used by the CLI commands."""
    tracer = EventTracer(capacity=capacity) if trace else None
    recorder = (
        TimeseriesRecorder(interval=interval, unit=unit, tracer=tracer)
        if timeseries else None
    )
    return Telemetry(timeseries=recorder, tracer=tracer)
