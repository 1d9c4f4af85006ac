"""Runtime-resizable tagless cache: capacity schedule, churn bounds,
mid-resize invariants, and reset/determinism audits."""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.cpu.batched import select_kernel
from repro.designs.registry import create_design
from repro.designs.tagless_design import TaglessDesign
from repro.validate.invariants import InvariantChecker
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import spec_profile

from tests.designs.test_reset_stats import drive


@pytest.fixture
def churn_trace():
    """A trace whose footprint dwarfs the 64-page test cache, so fills
    cycle through the whole cache address space."""
    generator = TraceGenerator(spec_profile("mcf"), capacity_scale=64)
    return generator.generate(6000)


def build(small_config, schedule=None, max_remap=8):
    design = create_design("tagless-resizable", small_config)
    if schedule is not None:
        design.set_resize_schedule(schedule, max_remap_per_resize=max_remap)
    return design


def checked_drive(design, trace, every=64):
    checker = InvariantChecker(design, every=every)
    checker.install()
    drive(design, trace)
    checker.run_checks()
    return checker


class TestScheduleValidation:
    def test_fractional_and_absolute_targets(self, small_config):
        design = build(small_config)
        design.set_resize_schedule([(10, 0.75), (20, 48)])
        assert design._resize_events == [(10, 48), (20, 48)]

    def test_rejects_target_above_capacity(self, small_config):
        design = build(small_config)
        with pytest.raises(ConfigurationError, match="exceeds"):
            design.set_resize_schedule([(10, 65)])

    def test_rejects_target_below_tlb_reach(self, small_config):
        design = build(small_config)
        floor = design.min_capacity_pages()
        with pytest.raises(ConfigurationError, match="minimum active"):
            design.set_resize_schedule([(10, floor - 1)])

    def test_rejects_bad_at_access(self, small_config):
        design = build(small_config)
        with pytest.raises(ConfigurationError, match="at_access"):
            design.set_resize_schedule([(0, 0.75)])

    def test_rejects_negative_budget(self, small_config):
        design = build(small_config)
        with pytest.raises(ConfigurationError, match="max_remap"):
            design.set_resize_schedule([(10, 0.75)],
                                       max_remap_per_resize=-1)


class TestResizeMechanics:
    def test_shrink_gates_exactly_the_upper_region(self, small_config,
                                                   churn_trace):
        design = build(small_config, [(2000, 0.75)])
        checked_drive(design, churn_trace)
        fq = design.engine.free_queue
        assert fq.active_capacity == 48
        assert fq.gated == set(range(48, 64))
        # Nothing in service may live in the gated region.
        assert all(p < 48 for p in fq.free_pages())
        assert all(p < 48 for p in design.engine.gipt.cached_cache_pages())

    def test_grow_restores_full_capacity(self, small_config, churn_trace):
        design = build(small_config, [(2000, 0.75), (4000, 1.0)])
        checked_drive(design, churn_trace)
        fq = design.engine.free_queue
        assert fq.active_capacity == 64
        assert fq.gated == set()
        events = design.resize_log
        assert len(events) == 2
        assert events[1]["ungated"] == 16

    def test_churn_bounded_by_budget(self, small_config, churn_trace):
        design = build(small_config, [(2000, 0.75)], max_remap=4)
        checked_drive(design, churn_trace)
        (event,) = design.resize_log
        assert event["remapped"] <= 4
        # The displaced set is fully accounted for: every page either
        # remapped or left through the eviction path.
        displaced = event["remapped"] + event["evicted"]
        assert displaced + event["gated_free"] == 16

    def test_zero_budget_means_evict_only(self, small_config, churn_trace):
        design = build(small_config, [(2000, 0.75)], max_remap=0)
        checked_drive(design, churn_trace)
        (event,) = design.resize_log
        assert event["remapped"] == 0
        assert event["evicted"] + event["gated_free"] == 16

    def test_remap_preserves_translation_consistency(self, small_config,
                                                     churn_trace):
        """After a shrink with remaps, every surviving translation still
        points at a page the GIPT holds -- the TLB-inclusion invariant
        the checker sweeps (tlb_gipt_agree) plus the churn/region checks
        ran throughout this drive via checked_drive."""
        design = build(small_config, [(2000, 0.75)], max_remap=16)
        checked_drive(design, churn_trace, every=32)
        assert design.resize_log[0]["remapped"] > 0

    def test_eviction_during_gating_routes_to_gated_set(self, small_config):
        design = build(small_config)
        fq = design.engine.free_queue
        fq.gate_free_region(48)
        fq.active_capacity = 48
        # Simulate a displaced page whose eviction was still pending when
        # the region gated: its completion must land in the gated set.
        fq.gated.discard(60)
        fq.mark_free(60)
        assert 60 in fq.gated
        assert 60 not in fq.free_pages()
        # A survivor's eviction still completes into the free pool.
        fq._free.remove(10)
        fq.mark_free(10)
        assert 10 in fq.free_pages()

    def test_resize_fires_at_absolute_access_counts(self, small_config,
                                                    churn_trace):
        design = build(small_config, [(2000, 0.75)])
        drive(design, churn_trace)
        assert design.resize_log[0]["at_access"] == 2000

    def test_other_designs_ignore_resize_schedule(self, small_config):
        design = create_design("tagless", small_config)
        assert not hasattr(design, "set_resize_schedule")


class TestEngineStanddown:
    def test_batched_kernels_stand_down(self, small_config):
        """The fused kernel would bypass the access_cycles override
        that triggers resize events, so it must refuse this design."""
        design = build(small_config)
        assert select_kernel(design) is None

    def test_any_access_path_override_stands_down(self, small_config):
        class Overriding(TaglessDesign):
            def access_cycles(self, *args):
                return super().access_cycles(*args)

        assert select_kernel(Overriding(small_config)) is None

    def test_base_tagless_still_batches(self, small_config):
        design = create_design("tagless", small_config)
        assert select_kernel(design) is not None


class TestResetAudit:
    def test_reset_clears_resize_counters_keeps_gating(self, small_config,
                                                       churn_trace):
        design = build(small_config, [(2000, 0.75)])
        drive(design, churn_trace)
        assert design.resize_events == 1
        design.reset_stats()
        stats = design.stats()
        assert stats["resize_events"] == 0
        assert stats["resize_remapped_pages"] == 0
        assert stats["resize_evicted_pages"] == 0
        assert stats["resize_shootdowns"] == 0
        assert design.resize_log == []
        # Structural state survives: the cache is still shrunk.
        assert design.engine.free_queue.active_capacity == 48
        assert stats["resize_active_occupancy"] == 0.75

    def test_resize_clock_survives_reset(self, small_config, churn_trace):
        """The schedule is positioned in absolute accesses: a warmup
        reset must not rewind it, or events would fire twice."""
        design = build(small_config, [(2000, 0.75)])
        drive(design, churn_trace)
        clock = design._resize_clock
        design.reset_stats()
        assert design._resize_clock == clock

    def test_run_reset_run_deterministic_with_events(self, small_config,
                                                     churn_trace):
        def measure():
            design = build(small_config, [(8000, 0.75)])
            end = drive(design, churn_trace)
            design.reset_stats()
            drive(design, churn_trace, start_ns=end)
            return design.stats()

        first, second = measure(), measure()
        assert first == second
        assert first["resize_events"] == 1  # fired inside the window


class TestSimulatorIntegration:
    def test_run_arms_schedule_and_reports_ledger(self, small_config):
        from repro.cpu.multicore import BoundTrace
        from repro.cpu.simulator import Simulator

        generator = TraceGenerator(spec_profile("mcf"), capacity_scale=64)
        bindings = [BoundTrace(0, 0, generator.generate(6000))]
        result = Simulator(small_config).run(
            "tagless-resizable", bindings,
            validate=True, validate_every=128,
            resize_schedule=[(2000, 0.75), (4000, 1.0)],
            max_remap_per_resize=8,
        )
        assert result.resize_events is not None
        assert len(result.resize_events) == 2
        assert all(e["remapped"] <= e["max_remap"]
                   for e in result.resize_events)

    def test_run_without_schedule_matches_plain_tagless(self, small_config):
        """With no events armed the resizable design is the tagless
        design: identical stats on an identical drive (the golden-stats
        oracle pins this shape too)."""
        from repro.cpu.multicore import BoundTrace
        from repro.cpu.simulator import Simulator

        generator = TraceGenerator(spec_profile("sphinx3"),
                                   capacity_scale=512)
        bindings = [BoundTrace(0, 0, generator.generate(3000))]
        base = Simulator(small_config).run("tagless", bindings)
        resizable = Simulator(small_config).run("tagless-resizable",
                                                bindings)
        resizable_stats = dict(resizable.stats)
        for key in ("resize_events", "resize_remapped_pages",
                    "resize_evicted_pages", "resize_shootdowns",
                    "resize_gated_free_blocks", "resize_active_occupancy"):
            resizable_stats.pop(key)
        assert resizable_stats == base.stats
        assert resizable.resize_events is None
