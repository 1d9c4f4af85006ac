"""The one harness front door: shared flags, ``--metrics``, one tally.

``experiment``, ``sweep``, ``campaign run`` and ``campaign resume`` take
the same execution flags from one parser helper and run through one
harness lifecycle; every job-health summary they emit comes from one
tally.  These tests pin all three properties, and that the
simulation-point flags of ``trace``/``run``/``sweep``/``profile`` come
from one helper too.
"""

import argparse
import json
import os
import re

import pytest

from repro.campaign import CampaignSpec, campaign_status, run_campaign
from repro.cli.main import build_parser, main
from repro.common.config import REPLACEMENT_POLICIES
from repro.harness import Harness, RunArtifact, read_artifact
from repro.obs import get_registry, load_timeseries, set_registry

#: Flags every harness command shares (one helper adds them all).
SHARED_FLAGS = ("--jobs", "--cache-dir", "--no-cache", "--timeout",
                "--retries", "--retry-backoff", "--resume-strict",
                "--live", "--metrics")

#: Minimal argv reaching each harness command's parser.
COMMANDS = {
    "experiment": ["experiment", "fig13"],
    "sweep": ["sweep", "--workloads", "sphinx3"],
    "campaign run": ["campaign", "run", "study.json"],
    "campaign resume": ["campaign", "resume", "campaign-dir"],
}


def _subparser(parser, *path):
    for name in path:
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


def _shared_defaults(command):
    sub = _subparser(build_parser(), *command.split())
    return {option: action.default
            for action in sub._actions
            for option in action.option_strings
            if option in SHARED_FLAGS}


class TestSharedFlags:
    def test_every_command_exposes_identical_shared_flags(self):
        defaults = {command: _shared_defaults(command)
                    for command in COMMANDS}
        for command, flags in defaults.items():
            assert sorted(flags) == sorted(SHARED_FLAGS), command
        assert defaults["experiment"] == {
            "--jobs": 1, "--cache-dir": None, "--no-cache": False,
            "--timeout": None, "--retries": 0, "--retry-backoff": 0.5,
            "--resume-strict": False, "--live": False, "--metrics": None,
        }
        for command in COMMANDS:
            assert defaults[command] == defaults["experiment"], command

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("bad", [
        ("--jobs", "0"),
        ("--retries", "-1"),
        ("--timeout", "0"),
        ("--retry-backoff", "-1"),
    ])
    def test_out_of_range_values_are_rejected(self, command, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(COMMANDS[command] + list(bad))


#: Simulation-point flags and the commands that share them (one helper
#: adds them all; ``sweep`` takes ``--cache-sizes`` instead of
#: ``--cache-mb``).
POINT_COMMANDS = {
    "trace": ("--cache-mb", "--scale", "--replacement", "--warmup"),
    "run": ("--cache-mb", "--scale", "--replacement", "--warmup"),
    "sweep": ("--scale", "--replacement", "--warmup"),
    "profile": ("--cache-mb", "--scale", "--replacement", "--warmup"),
}


def _point_options(command):
    sub = _subparser(build_parser(), command)
    return {option: (action.type, action.choices, action.default,
                     action.help)
            for action in sub._actions
            for option in action.option_strings
            if option in POINT_COMMANDS["run"]}


def test_point_flags_agree_across_commands():
    tables = {command: _point_options(command) for command in POINT_COMMANDS}
    run = tables["run"]
    assert {option: spec[:3] for option, spec in run.items()} == {
        "--cache-mb": (int, None, 1024),
        "--scale": (int, None, 64),
        "--replacement": (None, REPLACEMENT_POLICIES, "fifo"),
        "--warmup": (float, None, 0.25),
    }
    for command, options in POINT_COMMANDS.items():
        assert tables[command] == {option: run[option]
                                   for option in options}, command


@pytest.fixture
def fresh_registry():
    """Restore the global metrics registry ``--metrics`` replaces."""
    previous = set_registry(None)
    yield
    set_registry(previous)


def _metric_names(path):
    with open(path) as handle:
        return {json.loads(line)["name"] for line in handle if line.strip()}


class TestMetricsFlag:
    EXPECTED = {"repro_cache_lookups_total",
                "repro_pool_jobs_submitted_total"}

    def test_sweep_writes_snapshot(self, tmp_path, capsys, fresh_registry):
        path = str(tmp_path / "fleet.jsonl")
        code = main(["sweep", "--designs", "no-l3", "tagless",
                     "--workloads", "sphinx3", "--accesses", "1500",
                     "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(tmp_path / "s.jsonl"), "--metrics", path])
        assert code == 0
        assert self.EXPECTED <= _metric_names(path)
        assert f"metrics: {path}" in capsys.readouterr().err
        assert get_registry().enabled

    def test_campaign_run_writes_snapshot(self, tmp_path, capsys,
                                          fresh_registry):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({
            "name": "metrics-unit",
            "factors": {"design": ["tagless", "no-l3"],
                        "workload": ["sphinx3"]},
            "fixed": {"accesses": 1500},
            "metrics": ["ipc"],
        }))
        path = str(tmp_path / "fleet.jsonl")
        code = main(["campaign", "run", str(study),
                     "--out", str(tmp_path / "camp"), "--jobs", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--metrics", path])
        assert code == 0
        names = _metric_names(path)
        assert self.EXPECTED <= names
        assert "repro_campaign_points_expanded_total" in names


#: A crash that outlives its retry and a flaky point healed by it.
FAULTS = "crash:no-l3/sphinx3,flaky:tagless/libquantum:1"
DESIGNS = ["no-l3", "tagless"]
WORKLOADS = ["sphinx3", "libquantum"]

#: Counted by hand: four points; no-l3/sphinx3 crashes on both attempts
#: (one retry), tagless/libquantum fails once then succeeds (one retry),
#: the other two run clean.
EXPECTED = {
    "jobs": 4, "errors": 1, "timeouts": 0, "worker_crashes": 1,
    "retries": 2, "resumed": 0, "cache_hits": 0, "computed": 3,
}


def _summary_record(path):
    summary = read_artifact(path)[-1]
    assert summary["record"] == "summary"
    return {key: summary[key] for key in EXPECTED}


def _expected(counts):
    """``EXPECTED`` restricted to the keys one view shows."""
    return {key: EXPECTED[key] for key in counts}


def _progress_summary(err):
    """``jobs``/``errors`` of the progress reporter's end-of-run line."""
    match = re.search(r"^sweep: (\d+) jobs, (\d+) errors, ", err, re.M)
    assert match, err
    return {"jobs": int(match[1]), "errors": int(match[2])}


def _live_header(err):
    """Counts of the last ``--live`` frame's header line."""
    head = [line for line in err.splitlines()
            if line.startswith("sweep: workers ")][-1]
    counts = dict(re.findall(r"(jobs|cache|resumed|retries|errors) (\d+)",
                             head))
    return {"jobs": int(counts["jobs"]), "cache_hits": int(counts["cache"]),
            "resumed": int(counts["resumed"]),
            "retries": int(counts["retries"]),
            "errors": int(counts["errors"])}


def _last_window(path):
    """Counts of the harness timeseries' final window."""
    _meta, columns, _ = load_timeseries(path)
    return {"jobs": columns["jobs_done"][-1],
            "cache_hits": columns["cache_hits"][-1],
            "errors": columns["errors"][-1],
            "retries": columns["retries"][-1]}


def _trace_counts(path):
    """Health recounted from the harness Perfetto trace's events."""
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    jobs = [e["args"] for e in events if e.get("cat") == "job"]
    return {"jobs": len(jobs),
            "errors": sum(not job["ok"] for job in jobs),
            "worker_crashes": sum(job["status"] == "worker-crashed"
                                  for job in jobs),
            "timeouts": sum(job["status"] == "timeout" for job in jobs),
            "retries": sum(e.get("cat") == "retry" for e in events),
            "cache_hits": sum(job["cache"] == "hit" for job in jobs),
            "resumed": sum(job["cache"] == "resume" for job in jobs)}


def test_every_health_summary_comes_from_one_tally(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECT", FAULTS)

    # The same faulted sweep twice: with the line-per-job progress
    # reporter, then with --live owning stderr; both write the harness
    # trace and timeseries.
    views = {}
    for mode in ("progress", "live"):
        sweep_artifact = str(tmp_path / f"{mode}.jsonl")
        trace = str(tmp_path / f"{mode}.perfetto.json")
        timeseries = str(tmp_path / f"{mode}.timeseries.jsonl")
        code = main(["sweep", "--designs", *DESIGNS,
                     "--workloads", *WORKLOADS, "--accesses", "1500",
                     "--jobs", "2", "--retries", "1",
                     "--retry-backoff", "0", "--no-cache",
                     "--out", sweep_artifact, "--json",
                     "--trace", trace, "--timeseries", timeseries]
                    + (["--live"] if mode == "live" else []))
        assert code == 1
        captured = capsys.readouterr()
        sweep_json = json.loads(captured.out)
        assert sweep_json.pop("artifact") == sweep_artifact
        views[mode] = captured.err
        assert sweep_json == EXPECTED
        assert _summary_record(sweep_artifact) == EXPECTED
        for counts in (_last_window(timeseries), _trace_counts(trace)):
            assert counts == _expected(counts)
    for counts in (_progress_summary(views["progress"]),
                   _live_header(views["live"])):
        assert counts == _expected(counts)

    spec = CampaignSpec.from_dict({
        "name": "tally-unit",
        "repetitions": 1,
        "factors": {"design": DESIGNS, "workload": WORKLOADS},
        "fixed": {"accesses": 1500},
        "metrics": ["ipc"],
    })
    out_dir = str(tmp_path / "camp")
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "spec.json"), "w") as handle:
        json.dump(spec.to_dict(), handle)
    campaign_artifact = os.path.join(out_dir, "jobs.jsonl")
    with RunArtifact(campaign_artifact, name="tally-unit") as artifact:
        run = run_campaign(spec, Harness(jobs=2, retries=1,
                                         observer=artifact))

    assert run.counters() == EXPECTED
    assert _summary_record(campaign_artifact) == EXPECTED
    assert campaign_status(out_dir).counters == EXPECTED


def test_campaign_ctrl_c_closes_artifact_and_exits_130(tmp_path, capsys,
                                                       monkeypatch):
    def interrupted(self, specs):
        raise KeyboardInterrupt

    monkeypatch.setattr(Harness, "run", interrupted)
    out_dir = str(tmp_path / "camp")
    code = main(["campaign", "run", "--smoke", "--out", out_dir,
                 "--no-cache"])
    assert code == 130
    assert "interrupted; completed points are in" in capsys.readouterr().err
    summary = read_artifact(os.path.join(out_dir, "jobs.jsonl"))[-1]
    assert summary["record"] == "summary" and summary["jobs"] == 0


def test_unbuildable_sweep_point_fails_alone(tmp_path, capsys):
    """A point whose machine does not build is one failed row; the sweep
    still runs the other points and exits 1 without a traceback."""
    artifact = str(tmp_path / "s.jsonl")
    code = main(["sweep", "--workloads", "mcf", "--designs", "tagless",
                 "--accesses", "100", "--cache-sizes", "0", "1024",
                 "--no-cache", "--out", artifact])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = [r for r in read_artifact(artifact) if r["record"] == "job"]
    assert [r["status"] for r in rows] == ["error", "ok"]
    assert "ConfigurationError" in rows[0]["error"]
    assert "resolved" not in rows[0]["machine"]
    assert "resolved" in rows[1]["machine"]


def test_progress_eta_paces_on_computed_jobs(tmp_path, capsys,
                                             monkeypatch):
    """Cache hits land at once and cost nothing: the ETA after the first
    computed job must pace on that job alone, not on the hits."""
    sweep = ["sweep", "--designs", "no-l3",
             "--workloads", "sphinx3", "libquantum", "--accesses", "300",
             "--cache-dir", str(tmp_path / "cache")]
    warm = ["--cache-sizes", "128", "256", "512", "1024"]
    assert main(sweep + warm + ["--out", str(tmp_path / "warm.jsonl")]) == 0
    capsys.readouterr()
    # The first computed job fails once and retries after a 2 s backoff,
    # so it lands no sooner than 2 s in, with one computed job to go.
    monkeypatch.setenv("REPRO_FAULT_INJECT", "flaky:no-l3/sphinx3@2048MB:1")
    assert main(sweep + warm + ["2048", "--retries", "1",
                                "--retry-backoff", "2",
                                "--out", str(tmp_path / "s.jsonl")]) == 0
    lines = capsys.readouterr().err.splitlines()
    first_computed = next(line for line in lines
                          if line.startswith("[9/10] "))
    assert "cache miss" in first_computed
    eta = re.search(r", eta (\d+)s\)$", first_computed)
    assert eta and int(eta[1]) >= 2, first_computed
