"""Configuration presets must match the paper's Tables 3, 4 and 6."""

import dataclasses

import pytest

from repro.common.addressing import BYTES_PER_GB, BYTES_PER_MB
from repro.common.config import (
    REPLACEMENT_POLICIES,
    DRAMCacheConfig,
    OnDieCacheConfig,
    SRAMTagConfig,
    TLBConfig,
    default_system,
    tag_array_parameters,
)
from repro.common.errors import ConfigurationError


class TestTable3:
    """Architectural parameters of Table 3."""

    def test_core(self):
        cfg = default_system()
        assert cfg.core.frequency_ghz == 3.0
        assert cfg.num_cores == 4

    def test_tlbs(self):
        cfg = default_system()
        assert cfg.tlb.l1_entries == 32
        assert cfg.tlb.l2_entries == 512

    def test_l1_cache(self):
        cfg = default_system()
        assert cfg.l1.capacity_bytes == 32 * 1024
        assert cfg.l1.associativity == 4
        assert cfg.l1.line_bytes == 64

    def test_l2_cache(self):
        cfg = default_system()
        assert cfg.l2.capacity_bytes == 2 * BYTES_PER_MB
        assert cfg.l2.associativity == 16
        assert cfg.l2.hit_cycles == 6

    def test_in_package_geometry(self):
        d = default_system().in_package
        assert d.channels == 1
        assert d.ranks == 2
        assert d.banks_per_rank == 16
        assert d.bus_bytes == 16  # 128 bits
        assert d.transfers_per_ns == pytest.approx(3.2)  # DDR 3.2 GT/s

    def test_off_package_geometry(self):
        d = default_system().off_package
        assert d.channels == 1
        assert d.ranks == 2
        assert d.banks_per_rank == 64
        assert d.bus_bytes == 8  # 64 bits
        assert d.transfers_per_ns == pytest.approx(1.6)

    def test_bandwidth_ratio_is_4x(self):
        """The paper: in-package bandwidth is 4x off-package."""
        cfg = default_system()
        ratio = cfg.in_package.bytes_per_ns / cfg.off_package.bytes_per_ns
        assert ratio == pytest.approx(4.0)


class TestTable4:
    """DRAM timing and energy parameters of Table 4."""

    def test_in_package_timing(self):
        d = default_system().in_package
        assert (d.trcd_ns, d.taa_ns, d.tras_ns, d.trp_ns) == (8, 10, 22, 14)

    def test_off_package_timing(self):
        d = default_system().off_package
        assert (d.trcd_ns, d.taa_ns, d.tras_ns, d.trp_ns) == (14, 14, 35, 14)

    def test_in_package_energy(self):
        e = default_system().in_package_energy
        assert e.io_pj_per_bit == pytest.approx(2.4)
        assert e.rw_pj_per_bit == pytest.approx(4.0)
        assert e.act_pre_nj == pytest.approx(15.0)

    def test_off_package_energy(self):
        e = default_system().off_package_energy
        assert e.io_pj_per_bit == pytest.approx(20.0)
        assert e.rw_pj_per_bit == pytest.approx(13.0)
        assert e.act_pre_nj == pytest.approx(15.0)

    def test_access_energy_formula(self):
        e = default_system().in_package_energy
        # 64 bytes = 512 bits at (2.4 + 4.0) pJ/b = 3276.8 pJ = ~3.28 nJ.
        assert e.access_nj(64) == pytest.approx(3.2768)
        assert e.access_nj(64, activations=1) == pytest.approx(18.2768)


class TestTable6:
    """SRAM tag array size/latency as a function of cache size."""

    @pytest.mark.parametrize(
        "cache_mb,tag_mb,cycles",
        [(128, 0.5, 5), (256, 1.0, 6), (512, 2.0, 9), (1024, 4.0, 11)],
    )
    def test_exact_table_entries(self, cache_mb, tag_mb, cycles):
        got_mb, got_cycles = tag_array_parameters(cache_mb * BYTES_PER_MB)
        assert got_mb == pytest.approx(tag_mb)
        assert got_cycles == cycles

    def test_interpolation_monotone(self):
        sizes = [128, 192, 256, 384, 512, 768, 1024]
        latencies = [
            tag_array_parameters(mb * BYTES_PER_MB)[1] for mb in sizes
        ]
        assert latencies == sorted(latencies)

    def test_extrapolation_beyond_1gb_grows(self):
        mb4, cyc4 = tag_array_parameters(4 * BYTES_PER_GB)
        assert mb4 == pytest.approx(16.0)
        assert cyc4 > 11

    def test_sram_tag_config_properties(self):
        cfg = SRAMTagConfig(cache_bytes=BYTES_PER_GB)
        assert cfg.tag_megabytes == pytest.approx(4.0)
        assert cfg.access_cycles == 11
        assert cfg.probe_nj > 0
        assert cfg.leakage_watts == pytest.approx(1.0)


class TestValidation:
    def test_bad_tlb_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            TLBConfig(l1_entries=64, l2_entries=32)

    def test_bad_cache_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            OnDieCacheConfig(capacity_bytes=1000, associativity=3)

    def test_bad_replacement_rejected(self):
        with pytest.raises(ConfigurationError):
            DRAMCacheConfig(replacement="mru")

    @pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
    def test_every_declared_replacement_accepted(self, policy):
        assert DRAMCacheConfig(replacement=policy).replacement == policy

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            DRAMCacheConfig(alpha=0)


class TestScaling:
    def test_cache_pages_scale(self):
        cfg = default_system(cache_megabytes=1024, capacity_scale=64)
        assert cfg.cache_pages == 1024 * BYTES_PER_MB // (4096 * 64)

    def test_scaled_ondie_keeps_geometry_valid(self):
        cfg = default_system()
        for scaled in (cfg.scaled_l1, cfg.scaled_l2):
            assert scaled.capacity_bytes % (
                scaled.line_bytes * scaled.associativity
            ) == 0
            assert scaled.num_sets >= 1

    def test_scaled_tlb_never_below_l1(self):
        cfg = dataclasses.replace(default_system(), tlb_scale=10_000)
        assert cfg.scaled_tlb.l2_entries >= cfg.scaled_tlb.l1_entries

    def test_with_cache_capacity(self):
        cfg = default_system().with_cache_capacity(256 * BYTES_PER_MB)
        assert cfg.dram_cache.nominal_capacity_bytes == 256 * BYTES_PER_MB

    def test_with_replacement(self):
        cfg = default_system().with_replacement("lru")
        assert cfg.dram_cache.replacement == "lru"

    def test_sram_tag_uses_nominal_capacity(self):
        """Tag latency must reflect the real 1 GB array, not the scaled
        simulation structure."""
        cfg = default_system(cache_megabytes=1024, capacity_scale=64)
        assert cfg.sram_tag.access_cycles == 11


class TestScalingFloors:
    """The old silent clamps are now hard errors (PR: config correctness)."""

    def test_cache_pages_floor_raises_not_clamps(self):
        # 16 MB at scale 512 is 8 pages -- below MIN_CACHE_PAGES.  The
        # old max(16, pages) clamp made this silently identical to a
        # 32 MB cache at the same scale.
        with pytest.raises(ConfigurationError, match="simulation floor"):
            default_system(cache_megabytes=16, capacity_scale=512)

    def test_distinct_sweep_points_stay_distinct(self):
        # Just above the floor both points are legal and different.
        small = default_system(cache_megabytes=64, capacity_scale=512)
        large = default_system(cache_megabytes=128, capacity_scale=512)
        assert small.cache_pages == 32
        assert large.cache_pages == 64

    def test_floor_boundary_is_exact(self):
        at_floor = default_system(cache_megabytes=32, capacity_scale=512)
        assert at_floor.cache_pages == 16
        with pytest.raises(ConfigurationError):
            dataclasses.replace(at_floor, capacity_scale=1024)

    def test_off_package_floor_raises(self):
        # Shrink backing memory below 2x the cache: must refuse.
        cfg = default_system(cache_megabytes=1024, capacity_scale=64)
        with pytest.raises(ConfigurationError, match="off-package"):
            dataclasses.replace(
                cfg, off_package_bytes=BYTES_PER_GB
            )

    def test_scale_ondie_floors_at_one_set(self):
        from repro.common.config import _scale_ondie

        base = OnDieCacheConfig(capacity_bytes=32 * 1024, associativity=4,
                                line_bytes=64, hit_cycles=2)
        scaled = _scale_ondie(base, 10**9)
        # One full set survives arbitrary shrinking, geometry intact.
        assert scaled.capacity_bytes == 64 * 4
        assert scaled.num_sets == 1
        assert scaled.capacity_bytes % (
            scaled.line_bytes * scaled.associativity
        ) == 0

    def test_scale_ondie_truncates_to_set_multiple(self):
        from repro.common.config import _scale_ondie

        base = OnDieCacheConfig(capacity_bytes=2 * BYTES_PER_MB,
                                associativity=16, line_bytes=64,
                                hit_cycles=6)
        scaled = _scale_ondie(base, 3)
        floor = base.line_bytes * base.associativity
        assert scaled.capacity_bytes % floor == 0
        assert scaled.capacity_bytes <= base.capacity_bytes // 3

    def test_scaled_tlb_extreme_scale_floors_at_l1(self):
        cfg = dataclasses.replace(default_system(), tlb_scale=10**6)
        assert cfg.scaled_tlb.l2_entries == cfg.scaled_tlb.l1_entries

    def test_scaled_tlb_scale_one_keeps_full_size(self):
        cfg = dataclasses.replace(default_system(), tlb_scale=1)
        assert cfg.scaled_tlb.l2_entries == cfg.tlb.l2_entries


class TestTagArrayExtrapolation:
    def test_below_128mb_shrinks_proportionally(self):
        mb, cycles = tag_array_parameters(64 * BYTES_PER_MB)
        assert mb == pytest.approx(0.25)
        assert 1 <= cycles < 5

    def test_far_below_floor_latency_clamps_at_one(self):
        _mb, cycles = tag_array_parameters(BYTES_PER_MB)
        assert cycles >= 1

    def test_above_1gb_latency_grows_superlinearly(self):
        _mb2, cyc2 = tag_array_parameters(2 * BYTES_PER_GB)
        _mb8, cyc8 = tag_array_parameters(8 * BYTES_PER_GB)
        assert 11 < cyc2 < cyc8

    def test_extrapolated_sizes_stay_positive_and_monotone(self):
        sizes = [8, 32, 64, 128, 1024, 2048, 8192]
        params = [tag_array_parameters(mb * BYTES_PER_MB) for mb in sizes]
        megabytes = [p[0] for p in params]
        cycles = [p[1] for p in params]
        assert all(m > 0 for m in megabytes)
        assert megabytes == sorted(megabytes)
        assert cycles == sorted(cycles)


class TestHitCycleSourceOfTruth:
    """OnDieCacheConfig.hit_cycles is the only on-die latency source."""

    def test_core_config_has_no_hit_cycle_fields(self):
        from repro.common.config import CoreConfig

        names = {f.name for f in dataclasses.fields(CoreConfig)}
        assert "l1_hit_cycles" not in names
        assert "l2_hit_cycles" not in names

    def test_designs_read_cache_config_latencies(self):
        from repro.designs import create_design

        cfg = default_system(cache_megabytes=128, num_cores=1,
                             capacity_scale=512)
        cfg = dataclasses.replace(
            cfg,
            l1=dataclasses.replace(cfg.l1, hit_cycles=4),
            l2=dataclasses.replace(cfg.l2, hit_cycles=9),
        )
        design = create_design("no-l3", cfg)
        assert design._l1_hit_cycles == 4
        assert design._l2_hit_cycles == 9
        # And the hoisted values drive the actual access cost.
        design.access(0, 0, 1, 0, False, 0.0)
        cost = design.access(0, 0, 1, 0, False, 100.0)
        assert cost.cycles == pytest.approx(4.0)

    def test_hit_cycles_validated(self):
        with pytest.raises(ConfigurationError):
            OnDieCacheConfig(capacity_bytes=32 * 1024, associativity=4,
                             hit_cycles=0)
