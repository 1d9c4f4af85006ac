"""Figure result tests using synthetic simulation outcomes (no sims)."""

import pytest

from repro.analysis.energy import EnergyBreakdown
from repro.analysis.experiments import FigureResult, expand_figure
from repro.common.errors import ConfigurationError
from repro.cpu.multicore import CoreResult
from repro.cpu.simulator import SimulationResult


def fake_result(ipc=1.0, edp_energy=1.0, elapsed_ns=1e6, l3=80.0):
    """A SimulationResult with chosen aggregates."""
    core = CoreResult(core_id=0, workload="w", instructions=int(ipc * 1e6),
                      cycles=1e6, stall_cycles=0.0)
    energy = EnergyBreakdown(
        core_j=edp_energy, ondie_dynamic_j=0, ondie_leakage_j=0,
        tag_dynamic_j=0, tag_leakage_j=0, in_package_j=0, off_package_j=0,
    )
    return SimulationResult(
        design_name="x", cores=[core], elapsed_ns=elapsed_ns,
        mean_l3_latency_cycles=l3, energy=energy, stats={},
    )


def synthetic(figure, results, **levels):
    """``figure``'s result object over a grid of fake outcomes."""
    grid, jobs = expand_figure(figure, accesses=2_000, **levels)
    return FigureResult(figure, grid, jobs, results)


def test_simulation_result_aggregates():
    r = fake_result(ipc=2.0, edp_energy=3.0, elapsed_ns=2e6)
    assert r.ipc_sum == pytest.approx(2.0)
    assert r.total_energy_j == pytest.approx(3.0)
    assert r.edp == pytest.approx(3.0 * 2e-3)
    assert r.instructions == 2_000_000


def test_single_program_result_normalisation():
    spr = synthetic("fig7", {
        ("mcf", "no-l3"): fake_result(ipc=1.0),
        ("mcf", "tagless"): fake_result(ipc=1.5),
    }, workload=("mcf",), design=("no-l3", "tagless"))
    assert spr.normalized("ipc_sum", workload="mcf")["tagless"] == (
        pytest.approx(1.5))
    assert spr.geomean("ipc_sum", "tagless") == pytest.approx(1.5)


def test_mix_result_tables_and_geomeans():
    mr = synthetic("fig9", {
        ("MIX1", "no-l3"): fake_result(ipc=1.0, edp_energy=4.0),
        ("MIX1", "tagless"): fake_result(ipc=2.0, edp_energy=2.0),
    }, workload=("MIX1",), design=("no-l3", "tagless"))
    assert mr.normalized("ipc_sum", workload="MIX1")["tagless"] == (
        pytest.approx(2.0))
    assert mr.normalized("edp", workload="MIX1")["tagless"] == (
        pytest.approx(0.5))
    assert "MIX1" in mr.tables()[0]
    assert mr.geomean("edp", "tagless") == pytest.approx(0.5)


def test_cache_size_result():
    results = {}
    for size, ipcs in ((256, (1.0, 0.7, 0.6)), (1024, (1.0, 1.2, 1.3))):
        for design, ipc in zip(("bi", "sram", "tagless"), ipcs):
            results[(size, "MIX1", design)] = fake_result(ipc=ipc)
    csr = synthetic("fig10", results, cache_mb=(256, 1024),
                    workload=("MIX1",))
    assert csr.normalized("ipc_sum", baseline="bi", cache_mb=256,
                          workload="MIX1")["tagless"] == pytest.approx(0.6)
    assert csr.geomean("ipc_sum", "tagless", baseline="bi",
                       cache_mb=1024) == pytest.approx(1.3)
    assert "256MB" in csr.tables()[0]


def test_replacement_result():
    rr = synthetic("fig11", {
        ("fifo", "MIX1"): fake_result(ipc=1.0),
        ("lru", "MIX1"): fake_result(ipc=1.016),
    }, workload=("MIX1",))
    assert rr.normalized("ipc_sum", over="replacement", baseline="fifo",
                         workload="MIX1")["lru"] == pytest.approx(1.016)
    assert rr.to_dict()["mean_gain_percent"] == pytest.approx(1.6, abs=0.01)
    assert "LRU gain" in rr.tables()[0]


def test_noncacheable_result():
    ncr = synthetic("fig13", {
        (None,): fake_result(ipc=1.0),
        (32,): fake_result(ipc=1.071),
    })
    data = ncr.to_dict()
    assert data["gain_percent"] == pytest.approx(7.1, abs=0.01)
    assert data["threshold"] == 32
    assert "Figure 13" in ncr.tables()[0]


def test_figure_grid_rejects_unknown_names():
    with pytest.raises(ConfigurationError, match="unknown figure"):
        expand_figure("fig14")
    with pytest.raises(ConfigurationError, match="no factor cache_mb"):
        expand_figure("fig7", cache_mb=(256,))
