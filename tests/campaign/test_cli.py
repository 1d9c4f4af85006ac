"""End-to-end `repro campaign` CLI tests (tiny grids, no workers)."""

import json
import warnings

import pytest

from repro.cli.main import main

STUDY = {
    "name": "cli-unit",
    "repetitions": 2,
    "factors": {
        "design": ["tagless", "no-l3"],
        "workload": ["mcf"],
    },
    "fixed": {"accesses": 1500, "cache_mb": 256, "scale": 512},
    "metrics": ["ipc"],
    "baseline": "no-l3",
    "bootstrap_resamples": 200,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def study_path(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(STUDY))
    return str(path)


def run_study(capsys, tmp_path, study_path, *extra):
    out_dir = str(tmp_path / "camp")
    code, out = run_cli(
        capsys, "campaign", "run", study_path, "--out", out_dir,
        "--jobs", "1", "--no-cache", "--json", *extra,
    )
    return code, out, out_dir


def test_campaign_run_writes_reports(capsys, tmp_path, study_path):
    code, out, out_dir = run_study(capsys, tmp_path, study_path)
    assert code == 0
    summary = json.loads(out)
    assert summary["campaign"] == "cli-unit"
    assert summary["jobs"] == 4
    assert summary["computed"] == 4
    assert summary["errors"] == 0
    assert summary["missing_points"] == 0
    for name in ("spec.json", "jobs.jsonl", "report.md", "report.json",
                 "cells.csv", "pairs.csv"):
        assert (tmp_path / "camp" / name).exists(), name
    with open(tmp_path / "camp" / "report.json") as handle:
        data = json.load(handle)
    assert data["kind"] == "campaign-report"
    assert len(data["cells"]) == 2
    assert data["pairs"][0]["design"] == "tagless"


def test_campaign_rerun_is_report_identical(capsys, tmp_path, study_path):
    _, _, out_dir = run_study(capsys, tmp_path, study_path)
    first = (tmp_path / "camp" / "report.json").read_text()
    # Resume over a complete artifact: everything comes back resumed.
    code, out = run_cli(
        capsys, "campaign", "resume", out_dir,
        "--jobs", "1", "--no-cache", "--json",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["resumed"] == 4
    assert summary["computed"] == 0
    assert (tmp_path / "camp" / "report.json").read_text() == first


@pytest.mark.parametrize("engine", [None, "batched"])
def test_campaign_resume_accepts_retired_engine_key(capsys, tmp_path,
                                                    study_path, engine):
    """Artifacts written while JobSpec had an ``engine`` field resume
    and reduce in full, with no warning about unknown keys."""
    _, _, out_dir = run_study(capsys, tmp_path, study_path)
    artifact = tmp_path / "camp" / "jobs.jsonl"
    rows = [json.loads(line) for line in artifact.read_text().splitlines()]
    for row in rows:
        if row.get("record") == "job":
            row["spec"]["engine"] = engine
    artifact.write_text("".join(json.dumps(row) + "\n" for row in rows))
    first = (tmp_path / "camp" / "report.json").read_text()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["campaign", "report", out_dir])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" not in captured.err
        assert (tmp_path / "camp" / "report.json").read_text() == first

        code = main(["campaign", "resume", out_dir,
                     "--jobs", "1", "--no-cache", "--json"])
        captured = capsys.readouterr()
    assert code == 0
    assert "warning" not in captured.err
    summary = json.loads(captured.out)
    assert summary["resumed"] == 4
    assert summary["computed"] == 0
    assert summary["missing_points"] == 0


def test_campaign_report_reduces_without_running(capsys, tmp_path,
                                                 study_path):
    _, _, out_dir = run_study(capsys, tmp_path, study_path)
    first = (tmp_path / "camp" / "report.md").read_text()
    code, out = run_cli(capsys, "campaign", "report", out_dir)
    assert code == 0
    assert out == first
    assert (tmp_path / "camp" / "report.md").read_text() == first


def test_campaign_resume_rejects_edited_study(capsys, tmp_path, study_path):
    _, _, out_dir = run_study(capsys, tmp_path, study_path)
    edited = dict(STUDY, repetitions=3)
    edited_path = tmp_path / "edited.json"
    edited_path.write_text(json.dumps(edited))
    with pytest.raises(SystemExit, match="study changed"):
        main(["campaign", "run", str(edited_path), "--out", out_dir,
              "--resume", "--jobs", "1", "--no-cache"])


def test_campaign_smoke_gate_passes(capsys, tmp_path):
    code, out = run_cli(
        capsys, "campaign", "run", "--smoke",
        "--out", str(tmp_path / "smoke"), "--jobs", "1", "--no-cache",
    )
    assert code == 0
    assert "campaign smoke: PASS" in out


def test_campaign_run_requires_study_or_smoke():
    with pytest.raises(SystemExit, match="needs a study file"):
        main(["campaign", "run"])


def test_campaign_report_rejects_non_campaign_dir(tmp_path):
    with pytest.raises(SystemExit, match="not a campaign directory"):
        main(["campaign", "report", str(tmp_path)])


def test_campaign_run_rejects_bad_study(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(STUDY, metrics=["frobnication"])))
    with pytest.raises(SystemExit, match="bad study"):
        main(["campaign", "run", str(bad), "--no-cache",
              "--out", str(tmp_path / "x")])
