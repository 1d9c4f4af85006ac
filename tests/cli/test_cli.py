"""Command-line interface tests."""

import argparse
import json
import os

import pytest

from repro.cli.main import build_parser, main
from repro.common.config import REPLACEMENT_POLICIES

#: The CI-sized tenant scenario (8 tenants, a shrink and a grow).
SMOKE_SCENARIO = os.path.join(os.path.dirname(__file__), "..", "..",
                              "benchmarks", "studies",
                              "multitenant_smoke_scenario.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_workloads_lists_catalogues(capsys):
    code, out = run_cli(capsys, "workloads")
    assert code == 0
    assert "mcf" in out
    assert "streamcluster" in out
    assert "MIX5: mcf-soplex-GemsFDTD-lbm" in out


def test_run_single_program_json(capsys):
    code, out = run_cli(
        capsys, "run", "tagless", "sphinx3",
        "--accesses", "3000", "--json",
    )
    assert code == 0
    metrics = json.loads(out)
    assert metrics["design"] == "tagless"
    assert metrics["ipc"] > 0
    assert len(metrics["per_core_ipc"]) == 1


def test_run_mix_uses_four_cores(capsys):
    code, out = run_cli(
        capsys, "run", "no-l3", "MIX1", "--accesses", "1500", "--json",
    )
    metrics = json.loads(out)
    assert len(metrics["per_core_ipc"]) == 4


def test_run_human_readable(capsys):
    code, out = run_cli(
        capsys, "run", "sram", "sphinx3", "--accesses", "2000",
    )
    assert code == 0
    assert "mean_l3_latency_cycles" in out


def test_experiment_fig13_small(capsys):
    code, out = run_cli(
        capsys, "experiment", "fig13", "--accesses", "15000",
    )
    assert code == 0
    assert "Figure 13" in out


def test_parser_rejects_unknown_design():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "magic", "sphinx3"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_design_choices_cover_whole_registry():
    from repro.designs.registry import ALL_DESIGN_NAMES

    args = build_parser().parse_args(["run", "alloy", "sphinx3"])
    assert args.design == "alloy"
    assert "alloy" in ALL_DESIGN_NAMES


def test_run_warmup_flag_threads_through(capsys):
    code, out = run_cli(
        capsys, "run", "tagless", "sphinx3",
        "--accesses", "3000", "--warmup", "0.5", "--json",
    )
    assert code == 0
    metrics = json.loads(out)
    assert metrics["warmup_fraction"] == 0.5
    # A different warmup split measures a different trace slice.
    _, out0 = run_cli(
        capsys, "run", "tagless", "sphinx3",
        "--accesses", "3000", "--warmup", "0.0", "--json",
    )
    assert json.loads(out0)["ipc"] != metrics["ipc"]


def test_run_rejects_invalid_warmup(capsys):
    # JobSpec validates the split; main() turns its error into an exit.
    with pytest.raises(SystemExit) as exc:
        main(["run", "tagless", "sphinx3", "--warmup", "1.0"])
    assert exc.value.code == "warmup_fraction must be in [0, 1)"


def test_experiment_json_output(tmp_path, capsys):
    code, out = run_cli(
        capsys, "experiment", "fig13", "--accesses", "15000", "--json",
        "--no-cache", "--artifact", str(tmp_path / "a.jsonl"),
    )
    assert code == 0
    data = json.loads(out)
    assert data["baseline_ipc"] > 0
    assert data["threshold"] == 32


def test_experiment_caches_between_invocations(tmp_path, capsys):
    from repro.harness import read_artifact

    argv = ["experiment", "fig13", "--accesses", "15000",
            "--cache-dir", str(tmp_path / "cache")]
    cold_code, cold_out = run_cli(
        capsys, *argv, "--artifact", str(tmp_path / "cold.jsonl")
    )
    warm_code, warm_out = run_cli(
        capsys, *argv, "--artifact", str(tmp_path / "warm.jsonl")
    )
    assert cold_code == warm_code == 0
    assert cold_out == warm_out  # byte-identical tables
    warm_summary = [
        r for r in read_artifact(str(tmp_path / "warm.jsonl"))
        if r["record"] == "summary"
    ][0]
    assert warm_summary["cache_hit_rate"] == 1.0


def test_experiment_progress_counts_against_the_grid(tmp_path, capsys):
    code = main(["experiment", "fig13", "--accesses", "600", "--no-cache",
                 "--artifact", str(tmp_path / "fig13.jsonl")])
    err = capsys.readouterr().err
    assert code == 0
    assert "[1/2]" in err and "[2/2]" in err
    assert "/?]" not in err


def test_sweep_writes_jsonl_artifact(tmp_path, capsys, write_study):
    from repro.harness import read_artifact

    study = write_study(design=["no-l3", "tagless"], workload=["sphinx3"],
                        cache_mb=[512, 1024], fixed={"accesses": 2000})
    out_dir = tmp_path / "camp"
    code, out = run_cli(capsys, "campaign", "run", study,
                        "--out", str(out_dir), "--no-cache", "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["jobs"] == 4
    assert summary["errors"] == 0
    jobs = [
        r for r in read_artifact(str(out_dir / "jobs.jsonl"))
        if r["record"] == "job"
    ]
    assert len(jobs) == 4
    assert {j["spec"]["cache_megabytes"] for j in jobs} == {512, 1024}
    assert all(j["metrics"]["ipc"] > 0 for j in jobs)


def test_sweep_rejects_unknown_workload(tmp_path, write_study):
    study = write_study(design=["tagless"], workload=["not-a-program"])
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["campaign", "run", study, "--out", str(tmp_path / "camp"),
              "--no-cache"])


def test_profile_json_report(capsys):
    code, out = run_cli(
        capsys, "profile", "--design", "tagless", "--workload", "sphinx3",
        "--accesses", "3000", "--top", "5", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["design"] == "tagless"
    assert report["accesses"] == 3000
    assert report["accesses_per_second"] > 0
    assert 1 <= len(report["top"]) <= 5
    # Cumulative ranking puts the simulation entry points first.
    functions = {row["function"] for row in report["top"]}
    assert "run" in functions or "access_cycles" in functions
    ranked = [row["cumtime_s"] for row in report["top"]]
    assert ranked == sorted(ranked, reverse=True)


def test_profile_text_report(capsys):
    code, out = run_cli(
        capsys, "profile", "--design", "no-l3", "--workload", "sphinx3",
        "--accesses", "2000", "--top", "3", "--sort", "tottime",
    )
    assert code == 0
    assert "no-l3 on sphinx3: 2000 accesses" in out
    assert "top 3 by tottime" in out


def assert_parse_error(capsys, argv):
    """Range checks run at parse time: a usage error (exit 2) naming the
    flag, before any simulation or traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err and "must be" in err
    assert "Traceback" not in err


def test_profile_rejects_bad_top(capsys):
    assert_parse_error(capsys, ["profile", "--top", "0"])


@pytest.mark.parametrize("argv", [
    ["run", "tagless", "mcf", "--accesses", "-5"],
    ["run", "tagless", "mcf", "--interval", "0"],
    ["run", "tagless", "mcf", "--timeout", "0"],
    ["run", "tagless", "mcf", "--retries", "-1"],
    ["profile", "--accesses", "-5"],
    ["report", "series.jsonl", "--width", "0"],
    ["experiment", "fig13", "--accesses", "0"],
    ["experiment", "fig13", "--accesses", "-5"],
    ["campaign", "run", "study.json", "--retries", "-1"],
    ["check", "--every", "0"],
    ["run", "tagless-resizable", "scenario.json", "--interval", "0"],
    ["validate", "--accesses", "0"],
    ["validate", "--accesses", "-5"],
])
def test_out_of_range_flags_are_parse_errors(capsys, argv):
    assert_parse_error(capsys, argv)


def test_check_smoke_single_design(capsys):
    code, out = run_cli(capsys, "check", "--accesses", "4000",
                        "--every", "500", "--design", "tagless")
    assert code == 0
    assert "[ok]   tagless" in out
    assert "[ok]   lru" in out
    assert "check: PASS" in out


def test_check_smoke_runs_bound_chain(capsys):
    code, out = run_cli(capsys, "check", "--accesses", "4000",
                        "--every", "500", "--design", "tagless", "no-l3")
    assert code == 0
    assert "service_ratio[tagless] >= service_ratio[no-l3]" in out
    assert "check: PASS" in out


def test_check_rejects_negative_accesses(capsys):
    assert_parse_error(capsys, ["check", "--design", "tagless",
                                "--accesses", "-5"])


def test_check_rejects_unknown_design():
    with pytest.raises(SystemExit):
        main(["check", "--design", "not-a-design"])


def test_trace_capture_mode_writes_artifacts(tmp_path, capsys):
    trace_path = str(tmp_path / "t.perfetto.json")
    series_path = str(tmp_path / "t.timeseries.jsonl")
    code, _ = run_cli(
        capsys, "run", "tagless", "sphinx3", "--accesses", "3000",
        "--interval", "256",
        "--trace", trace_path, "--timeseries", series_path,
    )
    assert code == 0
    document = json.loads(open(trace_path).read())
    assert document["traceEvents"]
    from repro.obs import load_timeseries

    meta, columns, _hist = load_timeseries(series_path)
    assert meta["design"] == "tagless"
    assert columns["free_queue_depth"]


def test_report_renders_captured_artifact(tmp_path, capsys):
    series_path = str(tmp_path / "t.timeseries.jsonl")
    run_cli(capsys, "run", "no-l3", "sphinx3", "--accesses", "2500",
            "--interval", "256", "--timeseries", series_path)
    code, out = run_cli(capsys, "report", series_path, "--width", "20")
    assert code == 0
    assert "no-l3 on sphinx3" in out
    assert "ctlb_hit_rate" in out


def test_report_rejects_non_artifact(tmp_path):
    bad = tmp_path / "nope.jsonl"
    bad.write_text('{"record": "header"}\n')
    with pytest.raises(SystemExit):
        main(["report", str(bad)])


def test_run_trace_flags_add_artifact_keys(tmp_path, capsys):
    trace_path = str(tmp_path / "r.perfetto.json")
    series_path = str(tmp_path / "r.timeseries.jsonl")
    code, out = run_cli(
        capsys, "run", "tagless", "sphinx3", "--accesses", "3000",
        "--json", "--trace", trace_path, "--timeseries", series_path,
    )
    assert code == 0
    metrics = json.loads(out)
    assert metrics["trace"] == trace_path
    assert metrics["timeseries"] == series_path
    assert json.loads(open(trace_path).read())["traceEvents"]


def test_run_without_trace_flags_keeps_plain_keys(capsys):
    code, out = run_cli(capsys, "run", "tagless", "sphinx3",
                        "--accesses", "2000", "--json")
    metrics = json.loads(out)
    assert "trace" not in metrics and "timeseries" not in metrics


def test_run_telemetry_does_not_change_metrics(tmp_path, capsys):
    argv = ["run", "tagless", "sphinx3", "--accesses", "3000", "--json"]
    _, plain = run_cli(capsys, *argv)
    _, traced = run_cli(
        capsys, *argv, "--trace", str(tmp_path / "x.perfetto.json"),
    )
    plain_metrics = json.loads(plain)
    traced_metrics = json.loads(traced)
    traced_metrics.pop("trace")
    assert traced_metrics == plain_metrics


def test_tenant_run_prints_qos_and_resize_tables(capsys):
    """A ``.json`` workload is a tenant job: one QoS row per tenant, the
    worst tail, then one churn row per resize, after the metrics."""
    argv = ["run", "tagless-resizable", SMOKE_SCENARIO, "--cache-mb", "512",
            "--scale", "512", "--set", "tlb_scale=32"]
    _, text = run_cli(capsys, *argv)
    _, data = run_cli(capsys, *argv, "--json")
    data = json.loads(data)
    lines = text.splitlines()
    assert lines[0] == "design                  : tagless-resizable"
    head = next(i for i, line in enumerate(lines)
                if line.split()[:2] == ["tenant", "profile"])
    worst = next(i for i, line in enumerate(lines)
                 if line.startswith("  worst p99 demand: tenant "))
    rows = [line.split() for line in lines[head + 1:worst]]
    assert [(int(r[0]), r[1]) for r in rows] == [
        (t["tenant"], t["profile"]) for t in data["tenants"]]
    events = data["resize_events"]
    assert lines[worst + 1] == f"  resize events ({len(events)}):"
    churn = [line.split() for line in lines[worst + 3:]]
    assert [int(r[0]) for r in churn] == [e["at_access"] for e in events]
    # The scenario sets the warmup; run prints no value it did not use.
    assert "warmup_fraction" not in data
    assert not any(line.startswith("warmup_fraction") for line in lines)


@pytest.mark.parametrize("flags", [
    ["--accesses", "7"], ["--warmup", "0.9"], ["--warmup=0.25"],
    ["--accesses", "100000", "--warmup", "0.9"],
])
def test_tenant_run_refuses_the_flags_it_ignores(flags):
    """The scenario file sets a tenant run's length and warmup, so an
    explicit ``--accesses`` or ``--warmup`` is refused by name, even at
    its default value."""
    with pytest.raises(SystemExit) as refused:
        main(["run", "tagless-resizable", SMOKE_SCENARIO, *flags])
    named = sorted({flag.split("=")[0] for flag in flags
                    if flag.startswith("--")})
    assert str(refused.value).startswith(", ".join(named) + ": ")


def test_tenant_run_telemetry_does_not_change_metrics(tmp_path, capsys):
    argv = ["run", "tagless-resizable", SMOKE_SCENARIO, "--json"]
    _, plain = run_cli(capsys, *argv)
    trace_path = str(tmp_path / "t.perfetto.json")
    series_path = str(tmp_path / "t.timeseries.jsonl")
    _, traced = run_cli(capsys, *argv, "--trace", trace_path,
                        "--timeseries", series_path)
    plain_metrics = json.loads(plain)
    traced_metrics = json.loads(traced)
    assert traced_metrics.pop("trace") == trace_path
    assert traced_metrics.pop("timeseries") == series_path
    assert traced_metrics == plain_metrics
    assert plain_metrics["tenants"] and plain_metrics["resize_events"]
    assert json.loads(open(trace_path).read())["traceEvents"]
    from repro.obs import load_timeseries

    meta, columns, _hist = load_timeseries(series_path)
    assert meta["design"] == "tagless-resizable"
    assert columns["free_queue_depth"]


def test_sweep_timeseries_flag_writes_progress_artifact(tmp_path, capsys,
                                                        write_study):
    series_path = str(tmp_path / "progress.jsonl")
    study = write_study(design=["no-l3"], workload=["sphinx3"],
                        fixed={"accesses": 1500})
    code, _ = run_cli(
        capsys, "campaign", "run", study, "--out", str(tmp_path / "camp"),
        "--no-cache", "--timeseries", series_path,
    )
    assert code == 0
    from repro.obs import load_timeseries

    meta, columns, _hist = load_timeseries(series_path)
    assert meta["design"] == "harness"
    assert columns["jobs_done"] == [1.0]


def test_profile_json_reports_sampling_metadata(capsys):
    from repro.common import rng

    code, out = run_cli(
        capsys, "profile", "--design", "no-l3", "--workload", "sphinx3",
        "--accesses", "2000", "--top", "3", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == rng.BASE_SEED
    assert report["accesses"] == 2000
    assert report["design"] == "no-l3"
    assert report["replacement"] == "fifo"


def test_replacement_choices_are_the_declared_policies():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    choices = {name: action.choices
               for name, sub in subparsers.choices.items()
               for action in sub._actions
               if "--replacement" in action.option_strings}
    assert sorted(choices) == ["profile", "run"]
    assert all(c == REPLACEMENT_POLICIES for c in choices.values())
