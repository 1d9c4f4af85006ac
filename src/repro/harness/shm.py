"""Zero-copy trace dispatch over ``multiprocessing.shared_memory``.

A sweep of K jobs over one workload would otherwise synthesise the same
trace K times in its workers (and K more times on retries).  The
:class:`TraceArena` moves that cost to the parent, exactly once per
distinct trace recipe:

- the parent materialises the spec's bindings, packs each
  :class:`~repro.workloads.trace.AccessTrace`'s numpy columns into one
  ``SharedMemory`` segment in the :data:`COLUMNS` layout, and keeps the
  handle;
- the job rides the pool's submit payload with a tiny
  :class:`TraceShare` manifest (segment names and trace metadata, no
  trace data);
- the worker attaches the named segments -- zero-copy, cached for the
  life of the process -- and replays ``AccessTrace``s whose columns are
  ``np.frombuffer`` views over them.

Lifecycle is parent-owned: segments are created before the first submit
that needs them and unlinked in the runner's ``finally``, so a worker
that is SIGKILLed mid-job (or replaced after a crash) never leaks a
segment -- it only ever held an *attachment*.  Retries and replacement
workers re-attach the same segments; nothing is ever re-published.

Where ``SharedMemory`` creation fails (``/dev/shm`` missing or full) a
trace falls back to shipping the packed bytes inline in the manifest --
still one materialisation in the parent, but the bytes then cross the
pipe by pickling and are counted as such
(``JobResult.trace_bytes_pickled`` vs ``trace_bytes_shared``).

Either way the worker replays the same class, with the same column
values, as a serial run, and the recipe key covers every input trace
generation depends on, so results are bit-identical to regeneration.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common import rng
from repro.cpu.multicore import BoundTrace
from repro.obs.metrics import get_registry
from repro.workloads.trace import AccessTrace

#: Packed layout of one trace, column after column: ``AccessTrace``
#: field and stored dtype.  The 8-byte columns come first, so every
#: column starts aligned.
COLUMNS = (
    ("virtual_pages", np.int64),
    ("instruction_gaps", np.int64),
    ("lines", np.uint8),
    ("writes", np.bool_),
)

#: Packed bytes per access (18).
BYTES_PER_ACCESS = sum(np.dtype(dtype).itemsize for _, dtype in COLUMNS)


def _column_views(buffer, accesses: int) -> Dict[str, np.ndarray]:
    """``COLUMNS``-layout numpy views over ``buffer``, keyed by field."""
    views = {}
    offset = 0
    for field, dtype in COLUMNS:
        views[field] = np.frombuffer(buffer, dtype=dtype, count=accesses,
                                     offset=offset)
        offset += views[field].nbytes
    return views


def _pack(trace: AccessTrace, buffer) -> None:
    """Write ``trace``'s columns into ``buffer`` in the ``COLUMNS`` layout.

    The views are dropped on return: a live view over a segment's
    buffer would make ``SharedMemory.close()`` raise ``BufferError``.
    """
    for field, view in _column_views(buffer, len(trace)).items():
        view[:] = getattr(trace, field)


@dataclasses.dataclass(frozen=True)
class SegmentRef:
    """One published trace: where it lives and how to rebind it."""

    #: ``SharedMemory`` name to attach, or ``None`` when the payload
    #: travels inline (shared memory unavailable).
    segment: Optional[str]
    #: Packed columns for the inline fallback (``None`` in shm mode).
    payload: Optional[bytes]
    accesses: int
    trace_name: str
    base_cpi: float
    mlp: float
    core_id: int
    process_id: int

    @property
    def nbytes(self) -> int:
        return BYTES_PER_ACCESS * self.accesses

    def trace_over(self, buffer) -> AccessTrace:
        """An ``AccessTrace`` whose columns are views over ``buffer``."""
        return AccessTrace(
            name=self.trace_name,
            base_cpi=self.base_cpi,
            mlp=self.mlp,
            **_column_views(buffer, self.accesses),
        )


@dataclasses.dataclass(frozen=True)
class TraceShare:
    """The manifest a job carries instead of its trace data."""

    refs: Tuple[SegmentRef, ...]

    @property
    def shared_nbytes(self) -> int:
        """Trace bytes served from shared memory for one job."""
        return sum(r.nbytes for r in self.refs if r.segment is not None)

    @property
    def pickled_nbytes(self) -> int:
        """Trace bytes that cross the pipe by value for one job."""
        return sum(r.nbytes for r in self.refs if r.segment is None)


def _recipe_key(spec) -> tuple:
    """Everything trace generation depends on, nothing else.

    Two specs differing only in design/config knobs share one published
    trace set -- that sharing, across a sweep's design axis, is most of
    the arena's win.
    """
    return (
        spec.workload,
        spec.workload_kind,
        spec.accesses,
        spec.capacity_scale,
        spec.parsec_threads,
        spec.effective_seed,
    )


class TraceArena:
    """Parent-owned registry of published trace segments.

    ``share_for(spec)`` returns the manifest for a spec's trace recipe,
    publishing it on first sight and reusing it afterwards.  ``close()``
    unlinks every segment; the runner calls it in a ``finally`` so the
    segments' lifetime is bounded by the sweep, not by any worker.
    """

    def __init__(self):
        self._shares: Dict[tuple, TraceShare] = {}
        self._segments: list = []
        self.publishes = 0
        self.reuses = 0
        registry = get_registry()
        self._m_shares = registry.counter(
            "repro_shm_shares_total",
            "Trace-share requests by disposition (publish/reuse)")
        self._m_bytes = registry.counter(
            "repro_shm_trace_bytes_total",
            "Trace bytes published by transport (shared/pickled)")

    # ------------------------------------------------------------------
    def share_for(self, spec) -> Optional[TraceShare]:
        """Manifest for ``spec``'s traces (publishing them if new)."""
        if spec.workload_kind == "tenants":
            # Tenant jobs replay a context-switched schedule built
            # in-worker from the scenario file; there are no per-core
            # bindings to publish.
            return None
        key = _recipe_key(spec)
        share = self._shares.get(key)
        if share is not None:
            self.reuses += 1
            self._m_shares.inc(disposition="reuse")
            return share
        share = self._publish(spec)
        self._shares[key] = share
        self.publishes += 1
        self._m_shares.inc(disposition="publish")
        return share

    def _publish(self, spec) -> TraceShare:
        # bindings() consumes the ambient base seed the same way
        # execute_job does; replicate its override so parent-generated
        # traces match what the worker would have regenerated.
        previous = rng.BASE_SEED
        override = spec.base_seed is not None and spec.base_seed != previous
        if override:
            rng.BASE_SEED = spec.base_seed
        try:
            bindings = spec.bindings()
        finally:
            if override:
                rng.BASE_SEED = previous
        refs = []
        for binding in bindings:
            trace = binding.trace
            nbytes = BYTES_PER_ACCESS * len(trace)
            segment_name = None
            payload = None
            segment = self._create_segment(nbytes)
            if segment is not None:
                _pack(trace, segment.buf)
                segment_name = segment.name
                self._segments.append(segment)
                self._m_bytes.inc(nbytes, transport="shared")
            else:  # inline fallback: ship the packed bytes by value
                buffer = bytearray(nbytes)
                _pack(trace, buffer)
                payload = bytes(buffer)
                self._m_bytes.inc(nbytes, transport="pickled")
            refs.append(SegmentRef(
                segment=segment_name,
                payload=payload,
                accesses=len(trace),
                trace_name=trace.name,
                base_cpi=trace.base_cpi,
                mlp=trace.mlp,
                core_id=binding.core_id,
                process_id=binding.process_id,
            ))
        return TraceShare(refs=tuple(refs))

    @staticmethod
    def _create_segment(nbytes: int):
        try:
            return shared_memory.SharedMemory(create=True,
                                              size=max(1, nbytes))
        except OSError:  # /dev/shm missing or full: inline fallback
            return None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every published segment (idempotent)."""
        segments, self._segments = self._segments, []
        self._shares.clear()
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass

    def __enter__(self) -> "TraceArena":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Segment-name -> (SharedMemory, AccessTrace) attachments, cached for
#: the worker process's lifetime: a worker running 50 jobs over one
#: trace attaches it (and converts it to lists) once.
_ATTACHMENTS: Dict[str, tuple] = {}


def _attach_segment(ref: SegmentRef) -> AccessTrace:
    cached = _ATTACHMENTS.get(ref.segment)
    if cached is not None:
        return cached[1]
    segment = shared_memory.SharedMemory(name=ref.segment, create=False)
    # Under the spawn start method each worker runs its own resource
    # tracker, which assumes whoever attaches also owns cleanup and
    # would unlink the segment when this worker exits -- yanking it out
    # from under the parent and every sibling.  Lifecycle is
    # parent-owned here, so withdraw the registration (py3.13's
    # ``track=False`` parameter, spelled for 3.10-3.12).  Forked
    # workers share the parent's tracker, where the attach-time
    # register was an idempotent set-add: leave it, so the parent's
    # eventual unlink finds its own registration intact.
    if multiprocessing.get_start_method(allow_none=True) == "spawn":
        try:  # pragma: no cover - CPython implementation detail
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
    trace = ref.trace_over(segment.buf)
    _ATTACHMENTS[ref.segment] = (segment, trace)
    return trace


def attach_bindings(share: TraceShare) -> List[BoundTrace]:
    """Rebuild a job's bindings from its manifest (worker side).

    Shared segments are attached zero-copy and cached; inline payloads
    are wrapped in place (read-only views over the ``bytes``).  Raises
    on a vanished segment -- the caller falls back to regenerating from
    the spec.
    """
    bindings = []
    for ref in share.refs:
        if ref.segment is not None:
            trace = _attach_segment(ref)
        else:
            trace = ref.trace_over(ref.payload)
        bindings.append(BoundTrace(core_id=ref.core_id,
                                   process_id=ref.process_id,
                                   trace=trace))
    return bindings
