"""Energy bookkeeping for one DRAM device.

Accumulates the Table 4 energy components -- I/O pJ/bit, read/write core
pJ/bit and 15 nJ per 4 KB activate+precharge -- as accesses happen, plus
background power integrated over wall-clock time at the end of a run.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import DRAMEnergyConfig


class EnergyAccount:
    """Running total of DRAM energy, in nanojoules."""

    __slots__ = (
        "config",
        "dynamic_nj",
        "read_bytes",
        "write_bytes",
        "activations",
    )

    def __init__(self, config: DRAMEnergyConfig):
        self.config = config
        self.dynamic_nj = 0.0
        self.read_bytes = 0
        self.write_bytes = 0
        self.activations = 0

    def charge(
        self,
        num_bytes: int,
        activations: int,
        is_write: bool,
        nj: Optional[float] = None,
    ) -> float:
        """Charge one access; returns the nanojoules added.

        ``nj`` is the access's energy when the caller has it hoisted
        (``config.access_nj(num_bytes, activations)``, computed once per
        device); otherwise it is computed here.  The per-access hot
        paths write this body out inline and must change with it:
        ``DRAMDevice.access_block``, ``DRAMDevice.write_back_block``,
        ``PageTableWalker.walk`` and the fused kernel
        (``repro.cpu.batched._run_kernel``).
        """
        if nj is None:
            nj = self.config.access_nj(num_bytes, activations)
        self.dynamic_nj += nj
        self.activations += activations
        if is_write:
            self.write_bytes += num_bytes
        else:
            self.read_bytes += num_bytes
        return nj

    def background_nj(self, elapsed_ns: float) -> float:
        """Background (standby + refresh) energy over ``elapsed_ns``.

        watts * ns == nanojoules, which keeps the arithmetic unit-free.
        """
        return self.config.background_watts * elapsed_ns

    def total_nj(self, elapsed_ns: float) -> float:
        """Dynamic plus background energy for a run of ``elapsed_ns``."""
        return self.dynamic_nj + self.background_nj(elapsed_ns)

    def as_dict(self, prefix: str = "") -> dict:
        return {
            f"{prefix}dynamic_nj": self.dynamic_nj,
            f"{prefix}read_bytes": float(self.read_bytes),
            f"{prefix}write_bytes": float(self.write_bytes),
            f"{prefix}activations": float(self.activations),
        }
