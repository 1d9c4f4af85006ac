"""Simulator facade tests: warmup, NC plumbing, result fields."""

import pytest

from repro.cpu.multicore import BoundTrace
from repro.cpu.simulator import Simulator


def bindings_for(trace):
    return [BoundTrace(core_id=0, process_id=0, trace=trace)]


def test_result_fields(small_config, tiny_trace):
    result = Simulator(small_config).run("no-l3", bindings_for(tiny_trace))
    assert result.design_name == "no-l3"
    assert result.ipc_sum > 0
    assert result.elapsed_ns > 0
    assert result.instructions > 0
    assert result.total_energy_j > 0
    assert result.edp > 0
    assert result.mean_l3_latency_cycles > 0
    assert "accesses" in result.stats


def test_ipc_of(small_config, tiny_trace):
    result = Simulator(small_config).run("no-l3", bindings_for(tiny_trace))
    assert result.ipc_of(0) == result.cores[0].ipc
    with pytest.raises(KeyError):
        result.ipc_of(3)


def test_warmup_excludes_cold_start(small_config, tiny_trace):
    sim = Simulator(small_config)
    cold = sim.run("tagless", bindings_for(tiny_trace), warmup_fraction=0.0)
    warm = sim.run("tagless", bindings_for(tiny_trace), warmup_fraction=0.3)
    # The warmed run measures fewer accesses and fewer cold fills.
    assert warm.stats["accesses"] < cold.stats["accesses"]
    assert warm.stats["engine_fills"] < cold.stats["engine_fills"]


def test_invalid_warmup_rejected(small_config, tiny_trace):
    with pytest.raises(ValueError):
        Simulator(small_config).run("no-l3", bindings_for(tiny_trace),
                                    warmup_fraction=1.0)


def test_max_accesses(small_config, tiny_trace):
    result = Simulator(small_config).run(
        "no-l3", bindings_for(tiny_trace.head(100)),
        warmup_fraction=0.0,
    )
    assert result.stats["accesses"] == 100.0


def test_non_cacheable_only_affects_tagless(small_config, tiny_trace):
    sim = Simulator(small_config)
    nc = {0: list(range(10))}
    tagless = sim.run("tagless", bindings_for(tiny_trace), non_cacheable=nc)
    assert tagless.stats["nc_accesses"] > 0
    # Other designs silently ignore the hint.
    sram = sim.run("sram", bindings_for(tiny_trace), non_cacheable=nc)
    assert "nc_accesses" not in sram.stats


def test_each_run_uses_a_fresh_design(small_config, tiny_trace):
    sim = Simulator(small_config)
    first = sim.run("sram", bindings_for(tiny_trace), warmup_fraction=0.0)
    second = sim.run("sram", bindings_for(tiny_trace), warmup_fraction=0.0)
    assert first.ipc_sum == pytest.approx(second.ipc_sum)


def test_determinism(small_config, tiny_trace):
    a = Simulator(small_config).run("tagless", bindings_for(tiny_trace))
    b = Simulator(small_config).run("tagless", bindings_for(tiny_trace))
    assert a.ipc_sum == pytest.approx(b.ipc_sum)
    assert a.total_energy_j == pytest.approx(b.total_energy_j)
