"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each simulator layer from the
outside: it replaces a class attribute (or a module-level name at the
place it is looked up) with a wrapper that records one span per call --
layer name, start, end and the enclosing span.  Nothing is put on a
design *instance*, so the batched engine's ``_observed`` check sees an
unobserved run and the traced run follows the same engine path as the
untraced one.

Spans live in flat typed arrays (24 bytes each) and are reduced to
per-layer call counts and self times when a pass ends; a layer's self
time is its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Parent index of a span with no enclosing span.
ROOT = -1

#: Layers wrapped in the traced run: ``(layer, target, first_name)``.
#: ``target`` is ``module:attr`` for a module-level name (patched in the
#: module that looks it up) or ``module:Class.attr`` for a method, which
#: is also patched on every subclass that overrides it.  ``first_name``
#: renames the first call under each enclosing span: ``Simulator.run``
#: replays the warmup slice first, then the measured slice.
LAYERS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("cpu.simulate", "repro.cpu.simulator:Simulator.run", None),
    ("cpu.simulate", "repro.cpu.simulator:Simulator.run_tenants", None),
    ("designs.build", "repro.cpu.simulator:Simulator.build_design", None),
    ("cpu.replay", "repro.cpu.simulator:run_interleaved", "cpu.warmup"),
    ("cpu.replay", "repro.cpu.simulator:run_interleaved_batched",
     "cpu.warmup"),
    ("cpu.replay", "repro.cpu.scheduled:run_schedule", None),
    ("designs.access_cycles",
     "repro.designs.base:MemorySystemDesign.access_cycles", None),
    ("vm.walk", "repro.vm.walker:PageTableWalker.walk", None),
    ("vm.tlb_flush", "repro.vm.tlb:TLBHierarchy.flush", None),
    ("vm.tlb_install", "repro.vm.tlb:TLBHierarchy.install", None),
    ("core.miss_handle", "repro.core.miss_handler:CTLBMissHandler.handle",
     None),
    ("core.allocate_and_fill",
     "repro.core.tagless_cache:TaglessCacheEngine.allocate_and_fill", None),
    ("core.free_queue_allocate", "repro.core.free_queue:FreeQueue.allocate",
     None),
    ("core.victim_select", "repro.core.policies:VictimTracker.select", None),
    ("sram.invalidate_page",
     "repro.sram.hierarchy:OnDieHierarchy.invalidate_page", None),
    ("sram.tag_lookup", "repro.sram.tag_array:SRAMTagArray.lookup", None),
    ("dram.access_block", "repro.dram.device:DRAMDevice.access_block", None),
    ("dram.fill_page", "repro.dram.device:DRAMDevice.fill_page", None),
    ("dram.stream_page", "repro.dram.device:DRAMDevice.stream_page", None),
    ("dram.posted_write_block",
     "repro.dram.device:DRAMDevice.posted_write_block", None),
    ("analysis.compute_energy", "repro.cpu.simulator:compute_energy", None),
    ("workloads.generate",
     "repro.workloads.generator:TraceGenerator.generate", None),
    ("workloads.build_schedule", "repro.workloads.tenants:build_schedule",
     None),
    ("campaign.expand", "repro.campaign.compile:expand", None),
    ("campaign.reduce", "repro.campaign.report:reduce_campaign", None),
    ("harness.run", "repro.harness.runner:Harness.run", None),
    ("harness.shm_share", "repro.harness.shm:TraceArena.share_for", None),
    ("harness.cache_get", "repro.harness.cache:ResultCache.get", None),
    ("harness.cache_put", "repro.harness.cache:ResultCache.put", None),
)

#: Layers that run in the parent process of a pooled campaign.  Only
#: these are wrapped there: pool workers are forked from the parent and
#: would inherit (and pay for) every other wrapper without reporting it.
PARENT_LAYERS = frozenset({
    "workloads.generate", "campaign.expand", "campaign.reduce",
    "harness.run", "harness.shm_share", "harness.cache_get",
    "harness.cache_put",
})


def span_layer_names() -> List[str]:
    """Every layer name a span can carry, in table order."""
    names: List[str] = []
    for layer, _target, first in LAYERS:
        for name in (first, layer):
            if name is not None and name not in names:
                names.append(name)
    return names


def self_times(names: np.ndarray, parents: np.ndarray, starts: np.ndarray,
               ends: np.ndarray, layer_count: int,
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-layer ``(calls, self_seconds)`` from a flat span table.

    Span ``i`` has layer id ``names[i]``, enclosing span ``parents[i]``
    (:data:`ROOT` for none) and interval ``[starts[i], ends[i]]``.  Self
    time is the span's duration minus the summed durations of the spans
    whose parent it is.
    """
    durations = ends - starts
    child = np.zeros(len(names))
    nested = parents >= 0
    np.add.at(child, parents[nested], durations[nested])
    own = durations - child
    calls = np.bincount(names, minlength=layer_count)
    seconds = np.bincount(names, weights=own, minlength=layer_count)
    return calls, seconds


def _resolve(target: str):
    """``(owners, attr)`` for a LAYERS target string."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return [module], path
    class_name, attr = path.split(".")
    cls = getattr(module, class_name)
    owners = [cls]
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        pending.extend(sub.__subclasses__())
        if attr in sub.__dict__:
            owners.append(sub)
    return owners, attr


class Tracer:
    """Records spans of wrapped layer calls into flat arrays."""

    def __init__(self) -> None:
        self.layer_names: List[str] = span_layer_names()
        self._ids: Dict[str, int] = {
            name: i for i, name in enumerate(self.layer_names)
        }
        self.names = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack: List[int] = [ROOT]
        #: Live per-layer call counters (read between calls by workloads
        #: that attribute calls to the point that made them).
        self.calls: List[int] = [0] * len(self.layer_names)
        self._patches: List[Tuple[object, str, object]] = []
        #: Each wrapper's "last enclosing span seen" cell (see ``wrap``);
        #: span indices restart at 0 after ``reset``, so these must too.
        self._last_parents: List[list] = []

    # ------------------------------------------------------------------
    def wrap(self, fn, layer: str, first: Optional[str] = None):
        """Return ``fn`` wrapped to record one span per call.

        A call made directly inside a span of the same layer (a subclass
        override calling ``super()``) is folded into the enclosing span.
        """
        layer_id = self._ids[layer]
        first_id = self._ids[first] if first is not None else layer_id
        names, parents = self.names, self.parents
        starts, ends = self.starts, self.ends
        stack, calls = self.stack, self.calls
        clock = time.perf_counter
        last_parent = [None]
        self._last_parents.append(last_parent)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and names[parent] == layer_id:
                return fn(*args, **kwargs)
            name = layer_id
            if parent != last_parent[0]:
                last_parent[0] = parent
                name = first_id
            index = len(names)
            names.append(name)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            calls[name] += 1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        return wrapper

    def install(self, layers: Optional[Sequence[str]] = None) -> None:
        """Wrap every :data:`LAYERS` target (or only those in ``layers``)."""
        for layer, target, first in LAYERS:
            if layers is not None and layer not in layers:
                continue
            owners, attr = _resolve(target)
            for owner in owners:
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, layer, first))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def calls_of(self, layer: str) -> int:
        return self.calls[self._ids[layer]]

    def reset(self) -> None:
        """Drop recorded spans (the arrays are shared with the wrappers,
        so they are emptied in place)."""
        for column in (self.names, self.parents, self.starts, self.ends):
            del column[:]
        del self.stack[1:]
        self.calls[:] = [0] * len(self.calls)
        for cell in self._last_parents:
            cell[0] = None

    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "names": np.frombuffer(self.names, dtype=np.int32).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``layer -> (calls, self_seconds)`` over the recorded spans."""
        cols = self.columns()
        calls, seconds = self_times(
            cols["names"], cols["parents"], cols["starts"], cols["ends"],
            len(self.layer_names),
        )
        return {
            name: (int(calls[i]), float(seconds[i]))
            for i, name in enumerate(self.layer_names)
        }

    def write(self, path: str) -> None:
        """Save the recorded spans (and the layer-name table) to ``path``."""
        np.savez(path, layer_names=np.array(self.layer_names),
                 **self.columns())
