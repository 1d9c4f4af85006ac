"""The timing guards refuse arguments that would time no work.

``--accesses 0`` simulates nothing and ``--repeat 0`` times nothing, so
either would let a guard print a verdict on noise (or on ``nan``); a
non-positive ratio or tolerance makes the verdict vacuous.  Both guards
refuse them when the command line is parsed (an argparse error, exit 2).
The guards live outside the package (they are scripts), so they are
loaded by file path here.
"""

import importlib.util
import os

import pytest

_BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", params=["bench_engine_guard",
                                        "bench_obs_guard"])
def guard(request):
    return _load(request.param)


def _ratio_flag(guard):
    return ("--min-ratio" if guard.__name__ == "bench_engine_guard"
            else "--enabled-tolerance")


@pytest.mark.parametrize("flag, value", [
    ("--accesses", "0"), ("--accesses", "-5"),
    ("--repeat", "0"), ("--repeat", "-1"),
    ("ratio", "0"), ("ratio", "-0.5"),
])
def test_zero_work_arguments_are_refused(guard, capsys, flag, value):
    flag = _ratio_flag(guard) if flag == "ratio" else flag
    with pytest.raises(SystemExit) as exit_info:
        guard.parse_args([flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


def test_smallest_valid_arguments_parse(guard):
    flag = _ratio_flag(guard)
    args = guard.parse_args(["--accesses", "1", "--repeat", "1",
                             flag, "0.01"])
    assert (args.accesses, args.repeat) == (1, 1)
    assert getattr(args, flag[2:].replace("-", "_")) == 0.01

