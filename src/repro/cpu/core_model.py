"""Interval-style timing model of one out-of-order core.

Cycle-accurate OoO simulation is far beyond what pure Python can sustain,
and the paper's results do not depend on pipeline minutiae -- they depend
on how much *memory latency* each design exposes.  The standard interval
approximation captures that: the core retires non-memory instructions at
a base CPI, and each memory access adds a stall equal to its latency
beyond the (pipelined) L1 hit time divided by the workload's
memory-level parallelism.  Base CPI and MLP are per-workload parameters
of the synthetic trace profiles.
"""

from __future__ import annotations

from repro.common.config import CoreConfig

#: L1 hit latency assumed when a model is built from a bare CoreConfig
#: (tests, standalone use).  The simulator always passes the system's
#: ``l1.hit_cycles``; this default merely mirrors the Table 3 value.
DEFAULT_L1_HIT_CYCLES = 2.0


class CoreTimingModel:
    """Accumulates cycles and instructions for one core."""

    __slots__ = (
        "config",
        "base_cpi",
        "mlp",
        "cycles",
        "instructions",
        "stall_cycles",
        "_l1_hit",
        "_cycle_ns",
    )

    def __init__(self, config: CoreConfig, base_cpi: float, mlp: float,
                 l1_hit_cycles: float = DEFAULT_L1_HIT_CYCLES):
        if base_cpi <= 0 or mlp < 1.0:
            raise ValueError(
                f"base_cpi must be positive and mlp >= 1, got "
                f"cpi={base_cpi} mlp={mlp}"
            )
        self.config = config
        self.base_cpi = base_cpi
        self.mlp = mlp
        self.cycles = 0.0
        self.instructions = 0
        self.stall_cycles = 0.0
        #: Pipelined L1 hit latency: accesses at or below it stall
        #: nothing.  Sourced from ``OnDieCacheConfig.hit_cycles`` (the
        #: caller passes ``config.l1.hit_cycles``); CoreConfig carries
        #: no duplicate.
        self._l1_hit = float(l1_hit_cycles)
        self._cycle_ns = 1.0 / config.frequency_ghz

    def advance_instructions(self, count: int) -> None:
        """Retire ``count`` non-memory instructions at the base CPI."""
        self.instructions += count
        self.cycles += count * self.base_cpi

    def account_memory(self, latency_cycles: float) -> float:
        """Apply one memory access's latency; returns the visible stall.

        L1 hits are fully pipelined (no stall); anything beyond overlaps
        with other outstanding misses, so only ``excess / mlp`` cycles
        stall the core.  The memory instruction itself retires here.
        """
        self.instructions += 1
        self.cycles += self.base_cpi
        excess = latency_cycles - self._l1_hit
        if excess <= 0:
            return 0.0
        stall = excess / self.mlp
        self.cycles += stall
        self.stall_cycles += stall
        return stall

    def retune(self, base_cpi: float, mlp: float) -> None:
        """Point the model at a new tenant's workload parameters.

        The clock, instruction count and stall totals continue -- it is
        the same physical core -- but retirement width and overlap now
        follow the incoming tenant.
        """
        self.base_cpi = base_cpi
        self.mlp = mlp

    @property
    def time_ns(self) -> float:
        """Local wall-clock position of this core."""
        return self.cycles * self._cycle_ns

    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


class WindowCoreTimingModel(CoreTimingModel):
    """Interval model with an explicit instruction window (ROB).

    The Karkhanis/Smith-style refinement of the MLP-divisor model: a
    long-latency access stalls the core only once the reorder buffer
    fills -- the window hides ``rob_entries * base_cpi`` cycles -- and
    misses issued while an earlier miss's *stall shadow* is still open
    overlap with it instead of serialising.  Selected with
    ``CoreConfig(model="window")``; the figures are calibrated with the
    default divisor model, and the two agree on every qualitative
    ordering (see tests/cpu/test_core_model.py).
    """

    __slots__ = ("rob_entries", "_hide_cycles", "_shadow_end")

    def __init__(self, config: CoreConfig, base_cpi: float, mlp: float,
                 l1_hit_cycles: float = DEFAULT_L1_HIT_CYCLES):
        super().__init__(config, base_cpi, mlp, l1_hit_cycles)
        self.rob_entries = config.rob_entries
        #: Latency one miss can hide while the window drains behind it.
        self._hide_cycles = self.rob_entries * base_cpi
        #: Cycle (absolute) until which memory latency is already paid.
        self._shadow_end = 0.0

    def retune(self, base_cpi: float, mlp: float) -> None:
        super().retune(base_cpi, mlp)
        self._hide_cycles = self.rob_entries * base_cpi

    def account_memory(self, latency_cycles: float) -> float:
        self.instructions += 1
        self.cycles += self.base_cpi
        excess = latency_cycles - self._l1_hit
        if excess <= 0:
            return 0.0
        # Issue position in the *stall-free* (program-order) frame: an
        # OoO core issues the next load into the window while an earlier
        # miss is still outstanding, so overlap must be judged by
        # program position, not by the stalled clock.
        issue = self.instructions * self.base_cpi
        completion = issue + excess
        # The visible portion starts after whatever the window hides and
        # after the shadow of any overlapping earlier miss.
        visible_from = max(issue + self._hide_cycles, self._shadow_end)
        stall = max(0.0, completion - visible_from)
        if completion > self._shadow_end:
            self._shadow_end = completion
        self.cycles += stall
        self.stall_cycles += stall
        return stall


def make_core_model(
    config: CoreConfig, base_cpi: float, mlp: float,
    l1_hit_cycles: float = DEFAULT_L1_HIT_CYCLES,
) -> CoreTimingModel:
    """Instantiate the configured core timing model."""
    if config.model == "mlp":
        return CoreTimingModel(config, base_cpi, mlp, l1_hit_cycles)
    if config.model == "window":
        return WindowCoreTimingModel(config, base_cpi, mlp, l1_hit_cycles)
    raise ValueError(
        f"unknown core model {config.model!r}; expected 'mlp' or 'window'"
    )
