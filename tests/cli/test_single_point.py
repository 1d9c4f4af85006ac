"""``run`` and ``profile`` simulate one point the harness way.

Each builds a :class:`~repro.harness.JobSpec` and executes it, in
process or (``run --timeout``) in a supervised worker, so a single
point reports the same numbers the same point reports in a campaign
run at the same seed.
"""

import json

import pytest

from repro.cli.main import main
from repro.common import rng
from repro.harness import read_artifact

ACCESSES = "1500"


def run_json(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("workload, cores", [
    ("sphinx3", 1), ("MIX1", 4), ("streamcluster", 4),
])
def test_run_agrees_with_sweep(tmp_path, capsys, monkeypatch, write_study,
                               workload, cores):
    argv = ["run", "tagless", workload, "--accesses", ACCESSES, "--json"]
    direct = run_json(capsys, *argv)
    supervised = run_json(capsys, *argv, "--timeout", "60")
    study = write_study(design=["tagless"], workload=[workload],
                        fixed={"accesses": int(ACCESSES)})
    out_dir = tmp_path / "camp"
    assert main(["campaign", "run", study, "--out", str(out_dir),
                 "--no-cache"]) == 0
    capsys.readouterr()
    [row] = [r for r in read_artifact(str(out_dir / "jobs.jsonl"))
             if r["record"] == "job"]
    swept = row["metrics"]
    # Campaign points run at seeds derived per cell; the same point run
    # at the row's seed must report the row's numbers.
    monkeypatch.setattr(rng, "BASE_SEED", row["spec"]["base_seed"])
    seeded = run_json(capsys, *argv)

    assert row["spec"]["num_cores"] == cores
    assert len(direct["per_core_ipc"]) == cores
    assert supervised["ipc"] == direct["ipc"]
    assert supervised["per_core_ipc"] == direct["per_core_ipc"]
    assert swept["ipc"] == seeded["ipc"]
    assert swept["per_core_ipc"] == seeded["per_core_ipc"]


def test_trace_and_profile_run_parsec_threads_on_four_cores(tmp_path,
                                                           capsys):
    traced = run_json(capsys, "run", "tagless", "streamcluster",
                      "--accesses", "800", "--json",
                      "--trace", str(tmp_path / "t.perfetto.json"),
                      "--timeseries", str(tmp_path / "t.timeseries.jsonl"))
    assert len(traced["per_core_ipc"]) == 4
    report = run_json(capsys, "profile", "--workload", "streamcluster",
                      "--accesses", "800", "--top", "1", "--json")
    # Four threads of 800 accesses each.
    assert report["accesses"] == 4 * 800
    direct = run_json(capsys, "run", "tagless", "streamcluster",
                      "--accesses", "800", "--json")
    assert report["ipc"] == direct["ipc"] == traced["ipc"]

