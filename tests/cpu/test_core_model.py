"""Interval core timing model tests."""

import pytest

from repro.common.config import CoreConfig
from repro.cpu.core_model import CoreTimingModel


def make(base_cpi=0.5, mlp=2.0):
    return CoreTimingModel(CoreConfig(), base_cpi=base_cpi, mlp=mlp)


def test_advance_instructions():
    core = make(base_cpi=0.5)
    core.advance_instructions(1000)
    assert core.instructions == 1000
    assert core.cycles == pytest.approx(500.0)


def test_l1_hits_never_stall():
    core = make()
    stall = core.account_memory(latency_cycles=2.0)  # L1 hit time
    assert stall == 0.0
    assert core.instructions == 1
    assert core.cycles == pytest.approx(0.5)  # just the instruction


def test_mlp_divides_excess_latency():
    core = make(mlp=2.0)
    stall = core.account_memory(latency_cycles=102.0)
    assert stall == pytest.approx((102.0 - 2.0) / 2.0)
    assert core.stall_cycles == pytest.approx(50.0)


def test_ipc_computation():
    core = make(base_cpi=0.5, mlp=1.0)
    core.advance_instructions(99)
    core.account_memory(2.0)
    assert core.ipc() == pytest.approx(100 / 50.0)


def test_time_ns_follows_frequency():
    core = make(base_cpi=1.0)
    core.advance_instructions(3000)
    assert core.time_ns == pytest.approx(1000.0)  # 3 GHz


def test_empty_core_ipc_zero():
    assert make().ipc() == 0.0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make(base_cpi=0.0)
    with pytest.raises(ValueError):
        make(mlp=0.5)


def test_higher_mlp_hides_more_latency():
    low = make(mlp=1.5)
    high = make(mlp=3.0)
    low.account_memory(100.0)
    high.account_memory(100.0)
    assert high.cycles < low.cycles


class TestWindowModel:
    def make_window(self, base_cpi=0.5, rob=64):
        import dataclasses

        from repro.cpu.core_model import WindowCoreTimingModel

        cfg = dataclasses.replace(CoreConfig(), model="window",
                                  rob_entries=rob)
        return WindowCoreTimingModel(cfg, base_cpi=base_cpi, mlp=2.0)

    def test_window_hides_short_latency_completely(self):
        core = self.make_window(base_cpi=0.5, rob=64)  # hides 32 cycles
        stall = core.account_memory(latency_cycles=30.0)
        assert stall == 0.0

    def test_long_latency_stalls_beyond_the_window(self):
        core = self.make_window(base_cpi=0.5, rob=64)
        stall = core.account_memory(latency_cycles=102.0)
        # excess 100, window hides 32 -> 68 visible.
        assert stall == pytest.approx(68.0)

    def test_overlapping_misses_share_one_shadow(self):
        core = self.make_window(base_cpi=0.5, rob=64)
        first = core.account_memory(202.0)
        # Issued immediately after: its completion falls inside the
        # first miss's shadow, so it adds (almost) nothing.
        second = core.account_memory(202.0)
        assert second < first * 0.2

    def test_distant_misses_stall_independently(self):
        core = self.make_window(base_cpi=0.5, rob=64)
        first = core.account_memory(202.0)
        core.advance_instructions(10_000)  # shadow long expired
        second = core.account_memory(202.0)
        assert second == pytest.approx(first)

    def test_retune_refreshes_the_window(self):
        core = self.make_window(base_cpi=0.5, rob=64)
        core.advance_instructions(10)
        core.retune(base_cpi=1.0, mlp=4.0)
        assert (core.base_cpi, core.mlp) == (1.0, 4.0)
        assert core._hide_cycles == 64.0
        assert (core.instructions, core.cycles) == (10, 5.0)

    def test_factory(self):
        import dataclasses

        from repro.cpu.core_model import (
            CoreTimingModel,
            WindowCoreTimingModel,
            make_core_model,
        )

        assert isinstance(
            make_core_model(CoreConfig(), 0.5, 2.0), CoreTimingModel
        )
        window_cfg = dataclasses.replace(CoreConfig(), model="window")
        assert isinstance(
            make_core_model(window_cfg, 0.5, 2.0), WindowCoreTimingModel
        )
        # Bogus model names now die at config construction, before a
        # factory could even see them.
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            dataclasses.replace(CoreConfig(), model="oracle")

    def test_design_ordering_survives_the_window_model(self):
        """The qualitative result is model-robust: under the window
        model the design ordering of Figure 7 still holds."""
        import dataclasses

        from repro import BoundTrace, Simulator, default_system
        from repro.workloads import TraceGenerator, spec_profile

        config = default_system(cache_megabytes=1024, num_cores=1,
                                capacity_scale=64)
        config = dataclasses.replace(
            config, core=dataclasses.replace(config.core, model="window")
        )
        trace = TraceGenerator(
            spec_profile("milc"), capacity_scale=64
        ).generate(20_000)
        sim = Simulator(config)
        bindings = [BoundTrace(0, 0, trace)]
        ipc = {name: sim.run(name, bindings).ipc_sum
               for name in ("no-l3", "sram", "tagless", "ideal")}
        assert ipc["no-l3"] < ipc["sram"] < ipc["tagless"]
        assert ipc["tagless"] < ipc["ideal"]
