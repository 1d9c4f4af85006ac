"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import ROOT as NO_PARENT, Tracer, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=170,
    )


# ----------------------------------------------------------------------
# BENCHMARK.json: names, counts and agreement with what run.py emits
# ----------------------------------------------------------------------
def test_benchmark_json_grammar(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and ".." not in path.split("/")
        assert not path.startswith("/")
    assert len(bench["command"]) <= 32
    assert all(len(arg) <= 200 for arg in bench["command"])
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    names = []
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    assert len(json.dumps(bench)) <= 64 * 1024


def test_benchmark_json_counts(bench):
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in bench["end_to_end"])}]
    runs = 4 + 22 * len(bench["workloads"])
    # A run ends within its seconds plus interpreter start-up (a pass
    # starts only when it is expected to fit); all runs must fit 3420 s.
    assert runs * (bench["run_seconds"] + 5) <= 3420


def test_benchmark_json_matches_run(bench):
    from repro.designs.registry import ALL_DESIGN_NAMES
    from workloads import WORKLOADS

    assert run.DESIGNS == ALL_DESIGN_NAMES
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, WORKLOADS[name].why) for name in run.WORKLOAD_NAMES
    ]
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == run.end_to_end_metrics()
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == run.per_layer_metrics()


# ----------------------------------------------------------------------
# Span arithmetic and the tracer
# ----------------------------------------------------------------------
def test_self_times_on_synthetic_tree():
    # 0: A [0, 10] with children 1: B [1, 4] and 2: C [5, 9];
    # 3: D [6, 7] under C; 4: B again [11, 12], a second root.
    names = np.array([0, 1, 2, 3, 1])
    parents = np.array([NO_PARENT, 0, 0, 2, NO_PARENT])
    starts = np.array([0.0, 1.0, 5.0, 6.0, 11.0])
    ends = np.array([10.0, 4.0, 9.0, 7.0, 12.0])
    calls, seconds = self_times(names, parents, starts, ends, 5)
    assert calls.tolist() == [1, 2, 1, 1, 0]
    assert seconds.tolist() == pytest.approx([3.0, 4.0, 3.0, 1.0, 0.0])


def test_tracer_names_warmup_and_folds_same_layer_calls():
    tracer = Tracer()

    def replay():
        return access(1)

    def inner_access(depth):
        return depth

    inner = tracer.wrap(inner_access, "designs.access_cycles")

    def access_outer(depth):
        return inner(depth)  # a super() call into the same layer

    access = tracer.wrap(access_outer, "designs.access_cycles")
    wrapped_replay = tracer.wrap(replay, "cpu.replay", "cpu.warmup")

    def simulate():
        wrapped_replay()
        wrapped_replay()

    tracer.wrap(simulate, "cpu.simulate")()
    tracer.wrap(simulate, "cpu.simulate")()
    summary = tracer.summary()
    assert summary["cpu.simulate"][0] == 2
    assert summary["cpu.warmup"][0] == 2
    assert summary["cpu.replay"][0] == 2
    assert summary["designs.access_cycles"][0] == 4
    total_self = sum(seconds for _calls, seconds in summary.values())
    cols = tracer.columns()
    roots = cols["parents"] == NO_PARENT
    assert total_self == pytest.approx(
        float((cols["ends"] - cols["starts"])[roots].sum()))
    tracer.reset()
    assert tracer.summary()["cpu.simulate"] == (0, 0.0)


def test_traced_run_leaves_the_kernel_path_open():
    from repro.common.machine import build_system
    from repro.cpu.batched import _observed
    from repro.designs.registry import ALL_DESIGN_NAMES, create_design

    config = build_system(num_cores=1)
    with Tracer() as tracer:
        tracer.install()
        for name in ALL_DESIGN_NAMES:
            assert not _observed(create_design(name, config)), name
    from repro.designs.base import MemorySystemDesign
    assert not hasattr(MemorySystemDesign.access_cycles, "__wrapped__")


def test_every_layer_target_resolves():
    for _layer, target, _first in tracer_mod.LAYERS:
        owners, attr = tracer_mod._resolve(target)
        assert owners and all(attr in owner.__dict__ for owner in owners)
    assert tracer_mod.PARENT_LAYERS <= set(tracer_mod.span_layer_names())


def test_host_speed_scale():
    from hostspeed import REFERENCE_UNIT_S, UNITS_PER_SAMPLE, HostSpeed

    speed = HostSpeed()
    assert speed.factor() == 1.0
    speed.sample()
    assert len(speed.samples) == UNITS_PER_SAMPLE
    speed.samples[:] = [REFERENCE_UNIT_S * 2, REFERENCE_UNIT_S * 2]
    assert speed.factor() == pytest.approx(0.5)


def test_end_to_end_values_medians_and_scale():
    from workloads import PassResult

    def one_pass(wall, mcf_seconds, lbm_seconds):
        timings = [("sram/mcf", "sram", 1000, mcf_seconds),
                   ("sram/lbm", "sram", 500, lbm_seconds)]
        return PassResult(wall_s=wall, timings=timings, digests={},
                          failures=[], attempted=2, sim={})

    passes = [one_pass(2.0, 1.0, 0.5), one_pass(4.0, 9.0, 0.25),
              one_pass(3.0, 2.0, 1.0)]
    m = run.Measurement([0.1, 0.3, 0.2], passes, [], [], [], 10.0, 0.5)
    values = run.end_to_end_values(m)
    assert values["setup_s"] == pytest.approx(0.1)
    assert values["wall_s"] == pytest.approx(1.5)
    assert values["warm_s"] == pytest.approx(1.75)
    # 1500 accesses over median 2 s + 0.5 s, at half the measured time.
    assert values["acc_per_s.sram"] == pytest.approx(1200.0)
    assert values["acc_per_s.tagless"] == 0.0
    assert values["peak_rss_mb"] == 10.0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3, 17, 2024])
def test_tenant_scenario_fits_the_machine(seed):
    from workloads import TenantsResize

    workload = TenantsResize(seed=seed, smoke=False, out_dir="unused")
    workload.setup()
    schedule = workload.schedule
    assert schedule.total_span_pages <= \
        workload.simulator.config.off_package_pages
    assert schedule.scenario.flush_tlb_on_switch
    assert schedule.scenario.resize


def test_traced_and_untraced_digests_agree():
    from workloads import TenantsResize

    workload = TenantsResize(seed=5, smoke=True, out_dir="unused")
    workload.setup()
    plain = workload.run_pass(None)
    with Tracer() as tracer:
        tracer.install()
        traced = workload.run_pass(tracer)
    assert plain.digests == traced.digests and not plain.failures
    assert set(traced.fallback) == set(run.DESIGNS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass(workload, trace):
    env = dict(os.environ, REPRO_VALIDATE="1", REPRO_ENGINE="scalar")
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", trace, "--smoke", env=env)
    assert proc.returncode == 0, proc.stderr
    assert "cleared REPRO_VALIDATE=1" in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = (run.per_layer_metrics() if trace == "1"
                else run.end_to_end_metrics())
    assert {name: unit for name, unit, _ in expected} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if trace == "0":
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())
    else:
        harness = [v["value"] for k, v in result["metrics"].items()
                   if k.startswith("harness.")]
        in_process = workload != "campaign-sweep"
        assert (max(harness) == 0) == in_process


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "spec-single", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _session_members(sid: int):
    """Pids of live processes whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command: state, ppid, pgrp, session.
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
def test_campaign_run_leaves_no_process_behind():
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "campaign-sweep", "--seed", "7", "--seconds", "0", "--trace", "0",
         "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert _session_members(proc.pid) == []


def test_stop_child_processes_waits_for_the_resource_tracker():
    # The tracker exits on its own once its pipe closes, but only after
    # a moment; stopping must wait for it.
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    run.stop_child_processes()
    assert resource_tracker._resource_tracker._fd is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
