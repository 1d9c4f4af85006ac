"""``run``, ``trace`` and ``profile`` simulate one point the harness way.

Each builds a :class:`~repro.harness.JobSpec` and executes it, in
process or (``run --timeout``) in a supervised worker, so a single
point reports the same numbers the same point reports in a ``sweep``.
"""

import json

import pytest

from repro.cli.main import main
from repro.harness import read_artifact

ACCESSES = "1500"


def run_json(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("workload, cores", [
    ("sphinx3", 1), ("MIX1", 4), ("streamcluster", 4),
])
def test_run_agrees_with_sweep(tmp_path, capsys, workload, cores):
    argv = ["run", "tagless", workload, "--accesses", ACCESSES, "--json"]
    direct = run_json(capsys, *argv)
    supervised = run_json(capsys, *argv, "--timeout", "60")
    out = str(tmp_path / "sweep.jsonl")
    assert main(["sweep", "--designs", "tagless", "--workloads", workload,
                 "--accesses", ACCESSES, "--out", out, "--no-cache"]) == 0
    capsys.readouterr()
    [row] = [r for r in read_artifact(out) if r["record"] == "job"]
    swept = row["metrics"]

    assert row["spec"]["num_cores"] == cores
    assert len(direct["per_core_ipc"]) == cores
    for metrics in (supervised, swept):
        assert metrics["ipc"] == direct["ipc"]
        assert metrics["per_core_ipc"] == direct["per_core_ipc"]


def test_trace_and_profile_run_parsec_threads_on_four_cores(tmp_path,
                                                           capsys):
    code = main(["trace", "tagless", "streamcluster", "--accesses", "800",
                 "--trace-out", str(tmp_path / "t.perfetto.json"),
                 "--timeseries-out", str(tmp_path / "t.timeseries.jsonl")])
    assert code == 0
    assert "streamcluster: 800 accesses" in capsys.readouterr().out
    report = run_json(capsys, "profile", "--workload", "streamcluster",
                      "--accesses", "800", "--top", "1", "--json")
    # Four threads of 800 accesses each.
    assert report["accesses"] == 4 * 800
    direct = run_json(capsys, "run", "tagless", "streamcluster",
                      "--accesses", "800", "--json")
    assert report["ipc"] == direct["ipc"]

