"""Command-line interface tests."""

import argparse
import json

import pytest

from repro.cli.main import build_parser, main
from repro.common.config import REPLACEMENT_POLICIES
from repro.workloads.trace import load_trace


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


def test_trace_generation_and_save(tmp_path, capsys):
    out_path = str(tmp_path / "trace.npz")
    code, out = run_cli(
        capsys, "trace", "sphinx3", "--accesses", "2000", "--out", out_path
    )
    assert code == 0
    assert "2000 accesses" in out
    trace = load_trace(out_path)
    assert len(trace) == 2000
    assert trace.name == "sphinx3"


def test_trace_unknown_workload(capsys):
    with pytest.raises(SystemExit):
        main(["trace", "not-a-program"])


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


def test_sweep_writes_jsonl_artifact(tmp_path, capsys):
    from repro.harness import read_artifact

    out_path = str(tmp_path / "sweep.jsonl")
    code, out = run_cli(
        capsys, "sweep", "--designs", "no-l3", "tagless",
        "--workloads", "sphinx3", "--cache-sizes", "512", "1024",
        "--accesses", "2000", "--out", out_path, "--no-cache", "--json",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["jobs"] == 4
    assert summary["errors"] == 0
    jobs = [
        r for r in read_artifact(out_path) if r["record"] == "job"
    ]
    assert len(jobs) == 4
    assert {j["spec"]["cache_megabytes"] for j in jobs} == {512, 1024}
    assert all(j["metrics"]["ipc"] > 0 for j in jobs)


def test_sweep_rejects_unknown_workload(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--workloads", "not-a-program",
              "--out", str(tmp_path / "x.jsonl"), "--no-cache"])


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
    ["trace", "tagless", "mcf", "--accesses", "-5"],
    ["trace", "tagless", "mcf", "--interval", "0"],
    ["report", "series.jsonl", "--width", "0"],
    ["experiment", "fig13", "--accesses", "0"],
    ["experiment", "fig13", "--accesses", "-5"],
    ["sweep", "--workloads", "mcf", "--accesses", "-5"],
    ["check", "--every", "0"],
    ["tenants", "scenario.json", "--every", "0"],
    ["validate", "--accesses", "0"],
    ["validate", "--accesses", "-5"],
])
def test_out_of_range_flags_are_parse_errors(capsys, argv):
    assert_parse_error(capsys, argv)


def test_check_smoke_single_design(capsys):
    code, out = run_cli(capsys, "check", "--smoke", "--design", "tagless")
    assert code == 0
    assert "[ok]   tagless" in out
    assert "[ok]   lru" in out
    assert "check: PASS" in out


def test_check_smoke_runs_bound_chain(capsys):
    code, out = run_cli(capsys, "check", "--smoke",
                        "--design", "tagless", "no-l3")
    assert code == 0
    assert "service_ratio[tagless] >= service_ratio[no-l3]" in out
    assert "check: PASS" in out


def test_check_rejects_negative_accesses(capsys):
    assert_parse_error(capsys, ["check", "--design", "tagless",
                                "--accesses", "-5"])


def test_check_rejects_unknown_design():
    with pytest.raises(SystemExit):
        main(["check", "--design", "not-a-design"])


def test_sweep_validate_flag_parses():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--designs", "tagless",
                              "--workloads", "sphinx3", "--validate"])
    assert args.validate is True


def test_trace_capture_mode_writes_artifacts(tmp_path, capsys):
    trace_path = str(tmp_path / "t.perfetto.json")
    series_path = str(tmp_path / "t.timeseries.jsonl")
    code, out = run_cli(
        capsys, "trace", "tagless", "sphinx3", "--accesses", "3000",
        "--interval", "256",
        "--trace-out", trace_path, "--timeseries-out", series_path,
    )
    assert code == 0
    assert "windows" in out
    document = json.loads(open(trace_path).read())
    assert document["traceEvents"]
    from repro.obs import load_timeseries

    meta, columns, _hist = load_timeseries(series_path)
    assert meta["design"] == "tagless"
    assert columns["free_queue_depth"]


def test_trace_capture_requires_workload():
    with pytest.raises(SystemExit):
        main(["trace", "tagless"])


def test_trace_smoke_single_design(capsys):
    code, out = run_cli(capsys, "trace", "tagless", "--smoke",
                        "--accesses", "1500")
    assert code == 0
    assert "[ok]   tagless" in out
    assert "trace smoke: PASS" in out


def test_report_renders_captured_artifact(tmp_path, capsys):
    series_path = str(tmp_path / "t.timeseries.jsonl")
    run_cli(capsys, "trace", "no-l3", "sphinx3", "--accesses", "2500",
            "--interval", "256",
            "--trace-out", str(tmp_path / "t.perfetto.json"),
            "--timeseries-out", series_path)
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


def test_sweep_timeseries_flag_writes_progress_artifact(tmp_path, capsys):
    series_path = str(tmp_path / "progress.jsonl")
    code, _ = run_cli(
        capsys, "sweep", "--designs", "no-l3", "--workloads", "sphinx3",
        "--accesses", "1500", "--out", str(tmp_path / "s.jsonl"),
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
    assert sorted(choices) == ["profile", "run", "sweep", "tenants",
                               "trace"]
    assert all(c == REPLACEMENT_POLICIES for c in choices.values())
