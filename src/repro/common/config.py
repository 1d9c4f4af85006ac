"""Machine configuration presets transcribed from the paper.

Tables reproduced here:

- **Table 3** (architectural parameters): 4 out-of-order cores at 3 GHz,
  32-entry L1 TLBs and 512-entry L2 TLBs per core, 32 KB L1 / 2 MB L2
  caches, a 1 GB in-package DRAM (1 channel, 2 ranks, 16 banks/rank,
  128-bit bus at 1.6 GHz DDR) and an 8 GB off-package DRAM (1 channel,
  2 ranks, 64 banks/rank, 64-bit bus at 800 MHz DDR).
- **Table 4** (DRAM timing and energy): tRCD/tAA/tRAS/tRP and the pJ/bit
  and nJ/activation energies for both devices.
- **Table 6** (SRAM tag array): tag size and access latency as a function
  of DRAM cache size, from CACTI 6.5.

Because the simulator is pure Python, capacities can be *scaled down*
uniformly (see :attr:`SystemConfig.capacity_scale`): the DRAM cache and
workload footprints shrink by the same factor so that the ratios that
determine hit rates and contention are preserved, while traces stay short
enough to simulate in seconds.  On-die caches and TLBs use a separate,
milder scale (:attr:`SystemConfig.ondie_scale`, :attr:`SystemConfig.tlb_scale`)
so they keep a realistic relationship to burst-level locality.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Tuple

from repro.common.addressing import (
    BYTES_PER_GB,
    BYTES_PER_KB,
    BYTES_PER_MB,
    CACHE_LINE_BYTES,
    PAGE_BYTES,
)
from repro.common.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class CoreConfig:
    """Timing parameters of one out-of-order core (Table 3, top)."""

    frequency_ghz: float = 3.0
    #: Base cycles-per-instruction of the core when no memory stalls occur.
    #: Individual workloads override this (pointer-chasing codes have a
    #: higher base CPI than streaming codes).
    base_cpi: float = 0.5
    #: Memory-level-parallelism divisor: overlapping outstanding misses
    #: means only ``latency / mlp`` cycles of a miss stall the core.
    mlp: float = 2.0
    #: Core timing model: "mlp" (the default divisor model every figure
    #: is calibrated with) or "window" (a Karkhanis/Smith-style interval
    #: model where the ROB hides latency and overlapping misses share
    #: one stall shadow).
    model: str = "mlp"
    #: Effective reorder-buffer depth for the "window" model.  This is
    #: the *dependency-limited* useful window, not the architectural ROB
    #: size: with a very large value the model hides the entire
    #: common-case L3 latency on every access, which real dependent
    #: instruction streams cannot do.
    rob_entries: int = 96

    def __post_init__(self) -> None:
        if self.model not in ("mlp", "window"):
            raise ConfigurationError(
                f"unknown core model {self.model!r}; "
                "expected 'mlp' or 'window'"
            )
        if self.frequency_ghz <= 0:
            raise ConfigurationError("frequency_ghz must be positive")
        if self.rob_entries < 1:
            raise ConfigurationError("rob_entries must be >= 1")

    def cycles_from_ns(self, ns: float) -> float:
        """Convert a nanosecond latency into core clock cycles."""
        return ns * self.frequency_ghz

    def ns_from_cycles(self, cycles: float) -> float:
        return cycles / self.frequency_ghz


@dataclasses.dataclass(frozen=True)
class TLBConfig:
    """Per-core TLB hierarchy (Table 3): 32-entry L1, 512-entry L2."""

    l1_entries: int = 32
    l2_entries: int = 512
    #: Extra cycles to probe the L2 TLB after an L1 TLB miss.
    l2_hit_cycles: int = 7
    #: Cycles for a full page-table walk (both designs pay this on a
    #: complete TLB miss; the cTLB handler *adds* fill/GIPT costs on top).
    walk_cycles: int = 60
    #: One-time cost of splitting a superpage into 4 KB PTEs
    #: (Section 6: expanding one superpage entry into next-level page
    #: tables): a fixed part plus one PTE write per created page.
    superpage_split_base_cycles: float = 40.0
    superpage_split_cycles_per_page: float = 1.0

    def __post_init__(self) -> None:
        if self.l1_entries <= 0 or self.l2_entries < self.l1_entries:
            raise ConfigurationError(
                "TLB sizes must satisfy 0 < l1_entries <= l2_entries, got "
                f"l1={self.l1_entries} l2={self.l2_entries}"
            )


@dataclasses.dataclass(frozen=True)
class OnDieCacheConfig:
    """One on-die SRAM cache level (L1 or L2 of Table 3)."""

    capacity_bytes: int
    associativity: int
    line_bytes: int = CACHE_LINE_BYTES
    #: Access latency of a hit in this level, core cycles.  This is the
    #: *authoritative* source the timing models read (the hot paths of
    #: :mod:`repro.designs.base` and :mod:`repro.cpu.batched`, and the
    #: L1-pipelining threshold of :mod:`repro.cpu.core_model`).
    hit_cycles: int = 2

    def __post_init__(self) -> None:
        if self.capacity_bytes % (self.line_bytes * self.associativity):
            raise ConfigurationError(
                f"cache capacity {self.capacity_bytes} is not divisible by "
                f"line_bytes*associativity = "
                f"{self.line_bytes * self.associativity}"
            )
        if self.hit_cycles < 1:
            raise ConfigurationError("hit_cycles must be >= 1")

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclasses.dataclass(frozen=True)
class DRAMTimingConfig:
    """DRAM device timing (Table 4) and channel geometry (Table 3)."""

    name: str
    trcd_ns: float
    taa_ns: float
    tras_ns: float
    trp_ns: float
    #: DDR transfer rate in giga-transfers per second (2x bus frequency).
    transfers_per_ns: float
    bus_bytes: int
    channels: int = 1
    ranks: int = 2
    banks_per_rank: int = 16
    #: Fixed memory-controller + PHY latency added to every demand
    #: access: command queuing, arbitration and (off-package) the board
    #: trace/PHY crossing.  In-package TSV channels cross no board, so
    #: their constant is much smaller -- part of why die-stacked DRAM
    #: has lower *latency* and not just higher bandwidth.
    controller_ns: float = 4.0
    #: Refresh cadence and duration (tREFI / tRFC): every ``trefi_ns``
    #: the channel goes unconditionally busy for ``trfc_ns``.  Standard
    #: DDR3 values; per-bank refresh on stacked parts shortens tRFC.
    trefi_ns: float = 7800.0
    trfc_ns: float = 350.0

    @property
    def bytes_per_ns(self) -> float:
        """Peak channel bandwidth in bytes per nanosecond."""
        return self.transfers_per_ns * self.bus_bytes

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks * self.banks_per_rank

    def transfer_ns(self, num_bytes: int) -> float:
        """Time to stream ``num_bytes`` over the data bus."""
        return num_bytes / self.bytes_per_ns

    def row_hit_ns(self, num_bytes: int) -> float:
        """Latency of an access that hits the open row buffer."""
        return self.taa_ns + self.transfer_ns(num_bytes)

    def row_miss_ns(self, num_bytes: int) -> float:
        """Latency of an access that must precharge and activate first."""
        return self.trp_ns + self.trcd_ns + self.taa_ns + self.transfer_ns(num_bytes)

    def row_empty_ns(self, num_bytes: int) -> float:
        """Latency when the bank is precharged (activate, no precharge)."""
        return self.trcd_ns + self.taa_ns + self.transfer_ns(num_bytes)


@dataclasses.dataclass(frozen=True)
class DRAMEnergyConfig:
    """DRAM access energies (Table 4)."""

    io_pj_per_bit: float
    rw_pj_per_bit: float
    act_pre_nj: float
    #: Background (standby/refresh) power of the whole device, watts.
    background_watts: float = 0.5

    def access_nj(self, num_bytes: int, activations: int = 0) -> float:
        """Energy of moving ``num_bytes`` on/off the device in nanojoules."""
        bits = num_bytes * 8
        per_bit = (self.io_pj_per_bit + self.rw_pj_per_bit) * bits / 1000.0
        return per_bit + activations * self.act_pre_nj


#: Smallest scaled DRAM-cache size (pages) the simulator accepts.
#: Below this, burst locality no longer resembles the full-size machine
#: and distinct nominal configurations would collapse onto one model.
MIN_CACHE_PAGES = 16


#: Table 6 of the paper: DRAM cache size -> (tag SRAM MB, access cycles).
TAG_ARRAY_TABLE: Dict[int, Tuple[float, int]] = {
    128 * BYTES_PER_MB: (0.5, 5),
    256 * BYTES_PER_MB: (1.0, 6),
    512 * BYTES_PER_MB: (2.0, 9),
    1024 * BYTES_PER_MB: (4.0, 11),
}


def tag_array_parameters(cache_bytes: int) -> Tuple[float, int]:
    """Return (tag SRAM megabytes, access latency cycles) for a cache size.

    Exact sizes come straight from Table 6; other sizes interpolate the
    table linearly in log2(size), mirroring how CACTI latency grows with
    SRAM capacity.
    """
    if cache_bytes in TAG_ARRAY_TABLE:
        return TAG_ARRAY_TABLE[cache_bytes]
    sizes = sorted(TAG_ARRAY_TABLE)
    if cache_bytes < sizes[0]:
        mb, cyc = TAG_ARRAY_TABLE[sizes[0]]
        ratio = cache_bytes / sizes[0]
        return (mb * ratio, max(1, round(cyc + math.log2(ratio))))
    if cache_bytes > sizes[-1]:
        mb, cyc = TAG_ARRAY_TABLE[sizes[-1]]
        ratio = cache_bytes / sizes[-1]
        return (mb * ratio, round(cyc + 2 * math.log2(ratio)))
    lo = max(s for s in sizes if s <= cache_bytes)
    hi = min(s for s in sizes if s >= cache_bytes)
    frac = math.log2(cache_bytes / lo) / math.log2(hi / lo)
    lo_mb, lo_cyc = TAG_ARRAY_TABLE[lo]
    hi_mb, hi_cyc = TAG_ARRAY_TABLE[hi]
    mb = lo_mb + (hi_mb - lo_mb) * frac
    cycles = round(lo_cyc + (hi_cyc - lo_cyc) * frac)
    return (mb, cycles)


@dataclasses.dataclass(frozen=True)
class SRAMTagConfig:
    """On-die SRAM tag array for the SRAM-tag baseline (16-way, Table 3/6)."""

    cache_bytes: int
    associativity: int = 16
    #: Dynamic energy of one tag probe, nanojoules.  Grows mildly with the
    #: array size (CACTI-style); the constant matters only relative to the
    #: DRAM access energies of Table 4.
    base_probe_nj: float = 0.2
    probe_nj_per_mb: float = 0.1
    #: Leakage power per megabyte of tag SRAM, watts.
    leakage_watts_per_mb: float = 0.25

    @property
    def tag_megabytes(self) -> float:
        return tag_array_parameters(self.cache_bytes)[0]

    @property
    def access_cycles(self) -> int:
        return tag_array_parameters(self.cache_bytes)[1]

    @property
    def probe_nj(self) -> float:
        return self.base_probe_nj + self.probe_nj_per_mb * self.tag_megabytes

    @property
    def leakage_watts(self) -> float:
        return self.leakage_watts_per_mb * self.tag_megabytes


#: Tagless victim-selection policies: the ``--replacement`` choices.
REPLACEMENT_POLICIES = ("fifo", "lru", "clock")


@dataclasses.dataclass(frozen=True)
class DRAMCacheConfig:
    """The in-package DRAM cache itself (capacity, replacement, alpha)."""

    nominal_capacity_bytes: int = BYTES_PER_GB
    page_bytes: int = PAGE_BYTES
    #: Number of free blocks the tagless design keeps available so that a
    #: cache fill never waits for an eviction (the paper uses alpha = 1).
    alpha: int = 1
    #: Victim-selection policy for the tagless design: "fifo" (default,
    #: paper Section 3.2), "lru" (Figure 11 sensitivity study) or
    #: "clock" (the LRU approximation Section 5.2 alludes to).
    replacement: str = "fifo"
    #: Where the GIPT lives.  Section 3.2: "can be placed in either
    #: in-package or off-package DRAM"; the ablation benchmark flips it.
    gipt_in_package: bool = False
    #: Footprint-style partial fills (extension; the paper cites
    #: footprint caching [21] as the complementary over-fetch fix).
    footprint_caching: bool = False
    #: What the cTLB miss handler does with an unsplit superpage
    #: (Sections 3.5/6): "split" it into cacheable 4 KB pages, or pin
    #: the whole run "nc" when its locality does not justify caching.
    superpage_handling: str = "split"

    def __post_init__(self) -> None:
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ConfigurationError(
                f"unknown replacement policy {self.replacement!r}; "
                f"expected one of {REPLACEMENT_POLICIES}"
            )
        if self.superpage_handling not in ("split", "nc"):
            raise ConfigurationError(
                f"unknown superpage handling {self.superpage_handling!r}; "
                "expected 'split' or 'nc'"
            )
        if self.alpha < 1:
            raise ConfigurationError("alpha must be >= 1")
        if self.nominal_capacity_bytes % self.page_bytes:
            raise ConfigurationError(
                "cache capacity must be a whole number of pages"
            )

    @property
    def nominal_pages(self) -> int:
        return self.nominal_capacity_bytes // self.page_bytes


@dataclasses.dataclass(frozen=True)
class EnergyModelConfig:
    """Non-DRAM power constants used for the EDP metric.

    The paper extracts core/cache power from McPAT; here we use round
    figures of the same magnitude.  Only *relative* EDP matters for the
    reproduced figures, and those are dominated by execution time and by
    the DRAM + tag-array energies of Table 4 / Table 6.
    """

    core_active_watts: float = 5.0
    core_idle_watts: float = 1.0
    l2_leakage_watts_per_mb: float = 0.2
    #: Dynamic energy of one on-die cache access (L1 or L2), nanojoules.
    ondie_access_nj: float = 0.05


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated machine configuration."""

    core: CoreConfig = CoreConfig()
    tlb: TLBConfig = TLBConfig()
    l1: OnDieCacheConfig = OnDieCacheConfig(
        capacity_bytes=32 * BYTES_PER_KB, associativity=4, hit_cycles=2
    )
    l2: OnDieCacheConfig = OnDieCacheConfig(
        capacity_bytes=2 * BYTES_PER_MB, associativity=16, hit_cycles=6
    )
    in_package: DRAMTimingConfig = DRAMTimingConfig(
        name="in-package",
        trcd_ns=8.0,
        taa_ns=10.0,
        tras_ns=22.0,
        trp_ns=14.0,
        transfers_per_ns=3.2,
        bus_bytes=16,
        channels=1,
        ranks=2,
        banks_per_rank=16,
        trfc_ns=260.0,
    )
    off_package: DRAMTimingConfig = DRAMTimingConfig(
        name="off-package",
        trcd_ns=14.0,
        taa_ns=14.0,
        tras_ns=35.0,
        trp_ns=14.0,
        transfers_per_ns=1.6,
        bus_bytes=8,
        channels=1,
        ranks=2,
        banks_per_rank=64,
        controller_ns=14.0,
    )
    in_package_energy: DRAMEnergyConfig = DRAMEnergyConfig(
        io_pj_per_bit=2.4, rw_pj_per_bit=4.0, act_pre_nj=15.0,
        background_watts=0.6,
    )
    off_package_energy: DRAMEnergyConfig = DRAMEnergyConfig(
        io_pj_per_bit=20.0, rw_pj_per_bit=13.0, act_pre_nj=15.0,
        background_watts=1.2,
    )
    dram_cache: DRAMCacheConfig = DRAMCacheConfig()
    energy: EnergyModelConfig = EnergyModelConfig()
    num_cores: int = 4
    off_package_bytes: int = 8 * BYTES_PER_GB
    #: Scale factor applied to the DRAM cache capacity and (by the
    #: workload layer) to footprints so pure-Python simulation is fast.
    capacity_scale: int = 64
    #: Scale factor for on-die cache capacities.
    ondie_scale: int = 8
    #: Scale factor for L2 TLB entries (the L1 TLB keeps its 32 entries).
    tlb_scale: int = 8

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("num_cores must be >= 1")
        if (self.capacity_scale < 1 or self.ondie_scale < 1
                or self.tlb_scale < 1):
            raise ConfigurationError(
                "capacity_scale, ondie_scale and tlb_scale must be >= 1"
            )
        # Refuse configurations where the scaled structures would have
        # to be clamped to stay simulable.  A silent floor (the old
        # ``max(16, pages)``) let two sweep points with different
        # ``cache_megabytes``/``capacity_scale`` simulate the *same*
        # machine while being reported -- and cached -- as distinct
        # results.
        pages = self.dram_cache.nominal_capacity_bytes // (
            self.dram_cache.page_bytes * self.capacity_scale
        )
        if pages < MIN_CACHE_PAGES:
            raise ConfigurationError(
                f"capacity_scale={self.capacity_scale} shrinks the "
                f"{self.dram_cache.nominal_capacity_bytes // BYTES_PER_MB}"
                f" MB DRAM cache to {pages} pages, below the "
                f"{MIN_CACHE_PAGES}-page simulation floor; lower "
                f"capacity_scale or enlarge the cache so distinct sweep "
                f"points describe distinct machines"
            )
        off_pages = self.off_package_bytes // (
            PAGE_BYTES * self.capacity_scale
        )
        if off_pages < pages * 2:
            raise ConfigurationError(
                f"off-package DRAM scales to {off_pages} pages, fewer "
                f"than twice the {pages}-page DRAM cache; enlarge "
                f"off_package_bytes or shrink the cache (the workloads "
                f"assume backing memory strictly larger than the cache)"
            )

    # ------------------------------------------------------------------
    # Scaled views used by the simulator
    # ------------------------------------------------------------------
    @property
    def cache_pages(self) -> int:
        """DRAM-cache capacity in pages after applying capacity_scale.

        Construction-time validation guarantees the result is at least
        :data:`MIN_CACHE_PAGES` -- no silent clamping happens here.
        """
        return self.dram_cache.nominal_capacity_bytes // (
            self.dram_cache.page_bytes * self.capacity_scale
        )

    @property
    def off_package_pages(self) -> int:
        """Off-package DRAM capacity in pages after scaling (>= 2x cache)."""
        return self.off_package_bytes // (PAGE_BYTES * self.capacity_scale)

    @property
    def scaled_l1(self) -> OnDieCacheConfig:
        return _scale_ondie(self.l1, self.ondie_scale)

    @property
    def scaled_l2(self) -> OnDieCacheConfig:
        return _scale_ondie(self.l2, self.ondie_scale)

    @property
    def scaled_tlb(self) -> TLBConfig:
        l2_entries = max(self.tlb.l1_entries, self.tlb.l2_entries // self.tlb_scale)
        return dataclasses.replace(self.tlb, l2_entries=l2_entries)

    @property
    def sram_tag(self) -> SRAMTagConfig:
        """Tag-array model sized for the *nominal* cache capacity.

        Latency/energy of the tag array depend on the real (unscaled)
        cache size -- an 11-cycle probe for 1 GB per Table 6 -- so the
        nominal capacity is the right input even in scaled simulations.
        """
        return SRAMTagConfig(
            cache_bytes=self.dram_cache.nominal_capacity_bytes,
            associativity=self.l2.associativity,
        )

    def with_cache_capacity(self, nominal_bytes: int) -> "SystemConfig":
        """Return a copy with a different nominal DRAM-cache capacity."""
        return dataclasses.replace(
            self,
            dram_cache=dataclasses.replace(
                self.dram_cache, nominal_capacity_bytes=nominal_bytes
            ),
        )

    def with_replacement(self, policy: str) -> "SystemConfig":
        """Return a copy using a different tagless victim policy."""
        return dataclasses.replace(
            self,
            dram_cache=dataclasses.replace(self.dram_cache, replacement=policy),
        )


def _scale_ondie(cfg: OnDieCacheConfig, scale: int) -> OnDieCacheConfig:
    """Shrink an on-die cache while keeping geometry valid."""
    floor = cfg.line_bytes * cfg.associativity
    capacity = max(floor, cfg.capacity_bytes // scale)
    capacity -= capacity % floor
    return dataclasses.replace(cfg, capacity_bytes=capacity)


def default_system(
    cache_megabytes: int = 1024,
    num_cores: int = 4,
    replacement: str = "fifo",
    capacity_scale: int = 64,
) -> SystemConfig:
    """Build the paper's Table 3 machine, optionally resized.

    Parameters
    ----------
    cache_megabytes:
        Nominal in-package DRAM cache capacity (Figure 10 sweeps 256,
        512 and 1024).
    num_cores:
        Active cores (1 for single-programmed runs, 4 otherwise).
    replacement:
        Tagless victim policy: ``"fifo"`` (default), ``"lru"``
        (Figure 11) or ``"clock"`` (the Section 5.2 approximation).
    capacity_scale:
        Uniform shrink factor for cache capacity and footprints.
    """
    return SystemConfig(
        dram_cache=DRAMCacheConfig(
            nominal_capacity_bytes=cache_megabytes * BYTES_PER_MB,
            replacement=replacement,
        ),
        num_cores=num_cores,
        capacity_scale=capacity_scale,
    )
