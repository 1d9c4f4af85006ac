"""The call gate's decision rule over two trees' calls per access.

The gate lives outside the package (it is a script), so it is loaded by
file path here.  Counts are ``workload -> design -> calls per access``.
"""

import importlib.util
import os

import pytest

_GATE_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks", "call_gate.py")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("call_gate", _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _counts(gate, scaled=None):
    """Every workload and design at 20.0 calls per access, ``design`` at
    20.0 times ``scaled[design]`` on every workload."""
    scaled = scaled or {}
    designs = ("no-l3", "tagless", "tagless-resizable")
    return {workload: {d: 20.0 * scaled.get(d, 1.0) for d in designs}
            for workload in gate.WORKLOADS}


def test_identical_counts_pass(gate):
    lines, failures = gate.judge(_counts(gate), _counts(gate))
    assert failures == []
    assert sum(line.endswith("ok") for line in lines) == 3 * len(
        gate.WORKLOADS)


def test_a_rise_past_the_tolerance_fails_on_every_workload(gate):
    change = _counts(gate, {"tagless": 1.0 + 2 * gate.TOLERANCE})
    _, failures = gate.judge(_counts(gate), change)
    assert len(failures) == len(gate.WORKLOADS)
    assert all("/tagless:" in line for line in failures)


def test_a_rise_within_the_tolerance_or_a_fall_passes(gate):
    change = _counts(gate, {"tagless": 1.0 + gate.TOLERANCE / 2,
                            "no-l3": 0.5})
    _, failures = gate.judge(_counts(gate), change)
    assert failures == []


def test_a_design_missing_from_this_tree_fails(gate):
    change = _counts(gate)
    del change["mix-quad"]["tagless"]
    _, failures = gate.judge(_counts(gate), change)
    assert failures == ["mix-quad/tagless: no count in this tree"]


def test_base_dir_without_perfbench_is_refused(gate, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        gate.main([str(tmp_path)])
    assert exit_info.value.code == 2
    assert "holds no perfbench/workloads.py" in capsys.readouterr().err
