"""Telemetry bundle tests: the bit-identity contract and the artifacts.

The load-bearing property of PR 4 is that observability never perturbs
the simulation: a run with a full telemetry bundle attached -- at any
sampling interval -- must produce *exactly* the statistics of a plain
run.  These tests pin that, and that every registered design yields
schema-valid artifacts carrying the series the paper's figures need.
"""

import json

import pytest

from repro.cpu.multicore import BoundTrace
from repro.cpu.simulator import Simulator
from repro.designs.registry import ALL_DESIGN_NAMES
from repro.obs import load_timeseries, make_telemetry


@pytest.fixture(scope="module")
def bindings():
    from repro.workloads.generator import TraceGenerator
    from repro.workloads.spec import spec_profile

    trace = TraceGenerator(spec_profile("mcf"),
                           capacity_scale=512).generate(4000)
    return [BoundTrace(0, 0, trace)]


@pytest.fixture(scope="module")
def config():
    import dataclasses

    from repro.common.config import default_system

    cfg = default_system(cache_megabytes=128, num_cores=1,
                         capacity_scale=512)
    return dataclasses.replace(cfg, tlb_scale=32)


@pytest.fixture(scope="module")
def plain_result(config, bindings):
    return Simulator(config).run("tagless", bindings)


class TestGoldenInvariance:
    @pytest.mark.parametrize("interval", [1, 64, 4096])
    def test_stats_bit_identical_at_any_interval(
            self, config, bindings, plain_result, interval):
        telemetry = make_telemetry(interval=interval)
        observed = Simulator(config).run("tagless", bindings,
                                         telemetry=telemetry)
        # Exact float equality: telemetry must be strictly observational.
        assert observed.stats == plain_result.stats
        assert observed.elapsed_ns == plain_result.elapsed_ns
        assert [c.ipc for c in observed.cores] == \
            [c.ipc for c in plain_result.cores]

    def test_cycle_windows_are_also_invariant(self, config, bindings,
                                              plain_result):
        telemetry = make_telemetry(interval=2000, unit="cycles")
        observed = Simulator(config).run("tagless", bindings,
                                         telemetry=telemetry)
        assert observed.stats == plain_result.stats
        assert observed.elapsed_ns == plain_result.elapsed_ns

    def test_uninstall_restores_the_fast_path(self, config, bindings):
        simulator = Simulator(config)
        design = simulator.build_design("tagless")
        telemetry = make_telemetry(interval=8)
        telemetry.install(design)
        telemetry.uninstall()
        # No recorder left among the replay boundaries, no tracer
        # bindings.
        assert design.boundaries == []
        assert "access_cycles" not in design.__dict__
        from repro.obs.events import null_event

        assert design.trace_event is null_event
        assert design.engine.trace_event is null_event
        assert design.off_package.latency_histogram is None

    def test_composes_with_invariant_checker(self, config, bindings,
                                             plain_result):
        telemetry = make_telemetry(interval=64)
        observed = Simulator(config).run(
            "tagless", bindings, telemetry=telemetry,
            validate=True, validate_every=500,
        )
        assert observed.stats == plain_result.stats
        # The checker's sweeps appear as matched validate slices.
        sweeps = [e for e in telemetry.tracer.events()
                  if e[3] == "sweep"]
        assert sweeps, "validation sweeps should be traced"
        assert len([e for e in sweeps if e[1] == "B"]) == \
            len([e for e in sweeps if e[1] == "E"])


class TestArtifactsAcrossDesigns:
    #: Series the acceptance criteria require in every artifact.
    REQUIRED = ("free_queue_depth", "ctlb_hit_rate", "offpkg_gbps")

    @pytest.mark.parametrize("design", ALL_DESIGN_NAMES)
    def test_every_design_produces_both_artifacts(
            self, tmp_path, config, bindings, design):
        telemetry = make_telemetry(interval=256)
        Simulator(config).run(design, bindings, telemetry=telemetry)
        trace_path = str(tmp_path / f"{design}.perfetto.json")
        series_path = str(tmp_path / f"{design}.timeseries.jsonl")
        telemetry.write_artifacts(trace_path, series_path, workload="mcf")

        with open(trace_path) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == design
        timed = [e for e in events if e["ph"] != "M"]
        for event in timed:
            assert {"name", "ph", "ts", "pid", "tid"} <= event.keys(), event
        timestamps = [e["ts"] for e in timed]
        assert timestamps == sorted(timestamps)
        assert all(ts >= 0 for ts in timestamps)
        # Duration slices balance per (track, name): no E before its B,
        # no B left open.
        depth = {}
        for event in timed:
            key = (event["tid"], event["name"])
            if event["ph"] == "B":
                depth[key] = depth.get(key, 0) + 1
            elif event["ph"] == "E":
                assert depth.get(key, 0) > 0, f"unmatched E {key}"
                depth[key] -= 1
        assert not any(depth.values()), depth

        meta, columns, histogram = load_timeseries(series_path)
        assert meta["design"] == design
        assert meta["workload"] == "mcf"
        assert meta["windows"] >= 2
        for name in self.REQUIRED:
            assert name in columns, f"{design} artifact missing {name}"
            assert len(columns[name]) == meta["windows"]
        # The off-package latency histogram rides along in JSONL form.
        assert histogram is not None
        assert histogram["name"] == "offpkg_demand_latency_ns"

    def test_tagless_series_show_cache_behaviour(self, tmp_path, config,
                                                 bindings):
        telemetry = make_telemetry(interval=256)
        Simulator(config).run("tagless", bindings, telemetry=telemetry)
        path = str(tmp_path / "t.jsonl")
        telemetry.write_artifacts(None, path, workload="mcf")
        _meta, columns, _histogram = load_timeseries(path)
        # The small cache forces allocation: the free queue drains and
        # GIPT occupancy rises over the run.
        assert max(columns["gipt_occupancy"]) > 0.0
        assert min(columns["free_queue_depth"]) < \
            max(columns["free_queue_depth"]) or \
            max(columns["d_fills"]) > 0.0
        assert any(v > 0.0 for v in columns["ctlb_hit_rate"])

    def test_csv_artifact_roundtrips(self, tmp_path, config, bindings):
        telemetry = make_telemetry(interval=512)
        Simulator(config).run("tagless", bindings, telemetry=telemetry)
        path = str(tmp_path / "t.csv")
        telemetry.write_artifacts(None, path, workload="mcf")
        meta, columns, histogram = load_timeseries(path)
        assert meta == {} and histogram is None  # CSV carries data only
        for name in self.REQUIRED:
            assert columns[name]
