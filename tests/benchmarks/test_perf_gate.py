"""The perf gate's decision rule over paired perfbench runs, and the copy of
the working files it measures the change from.

The gate lives outside the package (it is a script), so it is loaded by
file path here.  Runs are the JSON objects perfbench prints last.
"""

import importlib.util
import json
import os
import subprocess

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
_GATE_PATH = os.path.join(_ROOT, "benchmarks", "perf_gate.py")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def end_to_end(gate):
    return gate.load_end_to_end()


def _run(end_to_end, correct=True, failed=0, **scaled):
    """A perfbench result line: every metric 100.0, times ``scaled``."""
    metrics = {m["name"]: {"value": 100.0 * scaled.get(m["name"], 1.0)}
               for m in end_to_end}
    return {"correct": correct, "attempted": 7, "failed": failed,
            "metrics": metrics}


def _runs(end_to_end, n=5, **scaled):
    return [_run(end_to_end, **scaled) for _ in range(n)]


def _failed_metrics(rows):
    return [row["metric"] for row in rows if row["failed"]]


def test_gated_metrics_are_benchmark_json_end_to_end(gate, end_to_end):
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    assert end_to_end == declared
    rows, _ = gate.judge(_runs(end_to_end), _runs(end_to_end), end_to_end)
    assert [(r["metric"], r["better"], r["bound"]) for r in rows] == [
        (m["name"], m["better"], m["bound"]) for m in declared]


def test_identical_runs_pass(gate, end_to_end):
    rows, failures = gate.judge(_runs(end_to_end), _runs(end_to_end),
                                end_to_end)
    assert failures == []
    assert all(row["ratio"] == 1.0 and row["worse_pairs"] == 0
               for row in rows)


def test_throughput_drop_in_every_pair_fails(gate, end_to_end):
    slowed = _runs(end_to_end, **{"acc_per_s.tagless": 0.6})
    rows, failures = gate.judge(_runs(end_to_end), slowed, end_to_end)
    assert _failed_metrics(rows) == ["acc_per_s.tagless"]
    assert len(failures) == 1 and "5/5 pairs" in failures[0]


def test_lower_is_better_metric_fails_when_it_rises(gate, end_to_end):
    slowed = _runs(end_to_end, wall_s=1.4)
    rows, _ = gate.judge(_runs(end_to_end), slowed, end_to_end)
    assert _failed_metrics(rows) == ["wall_s"]
    # The same move in the better direction is no failure.
    rows, failures = gate.judge(_runs(end_to_end),
                                _runs(end_to_end, wall_s=0.6), end_to_end)
    assert failures == []


def test_bound_is_the_metrics_own(gate, end_to_end):
    """``peak_rss_mb`` has a 0.1 bound, the timings 0.25."""
    change = _runs(end_to_end, peak_rss_mb=1.15, wall_s=1.15)
    rows, _ = gate.judge(_runs(end_to_end), change, end_to_end)
    assert _failed_metrics(rows) == ["peak_rss_mb"]


def test_median_past_bound_in_only_three_pairs_passes(gate, end_to_end):
    base = _runs(end_to_end)
    name = "acc_per_s.tagless"
    change = [_run(end_to_end, **{name: ratio})
              for ratio in (0.5, 0.6, 0.7, 1.1, 1.2)]
    rows, failures = gate.judge(base, change, end_to_end)
    row = next(row for row in rows if row["metric"] == name)
    assert row["ratio"] == pytest.approx(0.7)  # past the 0.25 bound
    assert row["worse_pairs"] == 3
    assert failures == []


@pytest.mark.parametrize("side", ["base", "change"])
@pytest.mark.parametrize("broken", [{"correct": False}, {"failed": 2}])
def test_incorrect_or_failed_run_fails(gate, end_to_end, side, broken):
    runs = {"base": _runs(end_to_end), "change": _runs(end_to_end)}
    runs[side][3] = _run(end_to_end, **broken)
    rows, failures = gate.judge(runs["base"], runs["change"], end_to_end)
    assert _failed_metrics(rows) == []
    assert failures == [f"{side} run 4: correct="
                        f"{broken.get('correct', True)} "
                        f"failed={broken.get('failed', 0)}"]


def test_base_dir_without_perfbench_is_refused(gate, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        gate.main([str(tmp_path)])
    assert exit_info.value.code == 2
    assert "holds no perfbench/run.py" in capsys.readouterr().err


def _git(tree, *args):
    subprocess.run(["git", *args], cwd=tree, check=True,
                   capture_output=True)


def test_change_is_measured_from_a_copy_of_its_working_files(gate,
                                                             tmp_path):
    """Tracked files as edited, untracked files too, ignored files and
    tracked files deleted from the working tree not; the copy is a new
    directory inside the given parent."""
    tree = tmp_path / "tree"
    (tree / "pkg").mkdir(parents=True)
    (tree / "pkg" / "mod.py").write_text("x = 1\n")
    (tree / "gone.py").write_text("y = 1\n")
    (tree / ".gitignore").write_text("out/\n")
    _git(tree, "init", "-q")
    _git(tree, "add", "-A")
    _git(tree, "-c", "user.name=t", "-c", "user.email=t@t", "commit",
         "-q", "-m", "base")
    (tree / "pkg" / "mod.py").write_text("x = 2\n")
    (tree / "new.py").write_text("z = 3\n")
    (tree / "gone.py").unlink()
    (tree / "out").mkdir()
    (tree / "out" / "result.json").write_text("{}")
    parent = tmp_path / "siblings"
    parent.mkdir()
    copy = gate.copy_working_files(str(tree), str(parent))
    assert os.path.dirname(copy) == str(parent)
    files = sorted(os.path.relpath(os.path.join(root, name), copy)
                   for root, _, names in os.walk(copy) for name in names)
    assert files == [".gitignore", "new.py", os.path.join("pkg", "mod.py")]
    with open(os.path.join(copy, "pkg", "mod.py")) as handle:
        assert handle.read() == "x = 2\n"
