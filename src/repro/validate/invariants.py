"""Run-time invariant checking for the simulated memory-system designs.

PR 2 rewrote the per-access hot path with hand-inlined probes, fused
residency/recency dicts and lazy replacement structures -- exactly the
kind of optimisation that can break the paper's structural guarantees
(the alpha free-block reserve, GIPT<->cTLB consistency, tagless
residency) without moving the golden stats of the pinned traces.  This
module provides the safety net: every design registers cheap, strictly
read-only assertions over its own state, and an
:class:`InvariantChecker` runs them every ``every`` accesses during a
validated run.

Validation is opt-in three ways, strongest first:

- ``Simulator.run(..., validate=True)`` (what ``repro check`` uses);
- ``JobSpec(validate=True)`` for individual harness jobs;
- the ``REPRO_VALIDATE=1`` environment variable, which turns it on for
  every run that did not explicitly decide (``REPRO_VALIDATE_EVERY``
  overrides the check interval).

Checks observe, never mutate: a validated run produces bit-identical
statistics to an unvalidated one (the golden-stats suite enforces this).
"""

from __future__ import annotations

import math
import os
from typing import Callable, List, Tuple

from repro.common.errors import ConfigurationError, SimulationError

#: Accesses between check sweeps unless overridden.
DEFAULT_CHECK_EVERY = 1024

ENV_ENABLE = "REPRO_VALIDATE"
ENV_EVERY = "REPRO_VALIDATE_EVERY"

_FALSEY = ("", "0", "false", "no", "off")


class InvariantViolation(SimulationError):
    """A registered structural invariant failed during a validated run."""


def validation_enabled(default: bool = False) -> bool:
    """Has the user switched validation on via ``REPRO_VALIDATE``?"""
    value = os.environ.get(ENV_ENABLE)
    if value is None:
        return default
    return value.strip().lower() not in _FALSEY


def check_interval(default: int = DEFAULT_CHECK_EVERY) -> int:
    """Check interval from ``REPRO_VALIDATE_EVERY`` (falls back to
    ``default``)."""
    value = os.environ.get(ENV_EVERY)
    if value is None or not value.strip():
        return default
    try:
        every = int(value)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_EVERY}={value!r} is not an integer"
        ) from None
    if every < 1:
        raise ConfigurationError(f"{ENV_EVERY} must be >= 1, got {every}")
    return every


class InvariantChecker:
    """Periodically runs the read-only checks a design registers.

    Construction asks the design to register its checks
    (:meth:`~repro.designs.base.MemorySystemDesign.register_invariants`);
    :meth:`install` then makes the checker one of the design's replay
    boundaries, so a sweep runs after every N-th access the design
    replays from then on (``Simulator`` installs it before the warmup),
    on either replay path: the fused kernel stops for the sweep.  Sweeps
    only read -- simulation state and statistics are untouched.
    """

    def __init__(self, design, every: int = DEFAULT_CHECK_EVERY):
        if every < 1:
            raise ValueError(f"check interval must be >= 1, got {every}")
        self.design = design
        self.every = every
        self.checks: List[Tuple[str, Callable[[], None]]] = []
        self.sweeps = 0
        self._next = 0
        #: Optional repro.obs.events.EventTracer; when set, every sweep
        #: emits a matched begin/end slice so validation pauses are
        #: visible in a Perfetto trace.
        self.tracer = None
        design.register_invariants(self)

    def register(self, name: str, check: Callable[[], None]) -> None:
        """Add one named, zero-argument, read-only check.

        The check signals a violation by raising
        :class:`~repro.common.errors.SimulationError` (or the more
        specific :class:`InvariantViolation`); the sweep wraps either
        into an :class:`InvariantViolation` naming the check.
        """
        self.checks.append((name, check))

    def run_checks(self, now_ns: float = 0.0) -> None:
        """Run every registered check once (one sweep).

        ``now_ns`` is purely observational: it timestamps the sweep's
        trace slice when a tracer is attached (checks themselves take
        zero simulated time).
        """
        self.sweeps += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("validate", "sweep", now_ns,
                         args={"sweep": self.sweeps})
        for name, check in self.checks:
            try:
                check()
            except SimulationError as exc:
                raise InvariantViolation(
                    f"[{self.design.name}] {name}: {exc}"
                ) from None
        if tracer is not None:
            tracer.end("validate", "sweep", now_ns)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Sweep after every ``every``-th access replayed from now on."""
        if self in self.design.boundaries:
            return
        self._next = self.design.replayed_accesses + self.every
        self.design.boundaries.append(self)

    def uninstall(self) -> None:
        """Stop sweeping."""
        if self in self.design.boundaries:
            self.design.boundaries.remove(self)

    acts_before = False  # a sweep runs after its access

    def next_boundary(self, count: int, end: int) -> Tuple[int, float]:
        return self._next, math.inf

    def on_boundary(self, number: int, now_ns: float, cores) -> None:
        self._next += self.every
        self.run_checks(now_ns)


# ----------------------------------------------------------------------
# Shared check helpers (used by the designs' register_invariants hooks)
# ----------------------------------------------------------------------
def check_tlb_hierarchy(hierarchy, label: str) -> None:
    """L1 within capacity and a subset of L2 (the hierarchy is inclusive,
    which is what lets GIPT residence track only L2 membership)."""
    l1, l2 = hierarchy.l1, hierarchy.l2
    if len(l1._map) > l1.capacity:
        raise SimulationError(
            f"{label}: L1 TLB holds {len(l1._map)} > {l1.capacity} entries"
        )
    if len(l2._map) > l2.capacity:
        raise SimulationError(
            f"{label}: L2 TLB holds {len(l2._map)} > {l2.capacity} entries"
        )
    l2_map = l2._map
    for virtual_page in l1._map:
        if virtual_page not in l2_map:
            raise SimulationError(
                f"{label}: VA page {virtual_page:#x} in L1 TLB but not L2 "
                "(inclusion broken)"
            )
