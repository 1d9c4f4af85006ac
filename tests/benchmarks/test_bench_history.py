"""The perf-trajectory ledger keys its series on (design, workload).

Ledger entries written while the throughput benchmark still had an
engine switch carry an ``engine`` tag on the entry and on every record.
New entries carry none.  Both must land in the same series so the gate
keeps its history across the change.
"""

import importlib.util
import json
import os

_BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks")
_LEDGER = os.path.join(os.path.dirname(__file__), "..", "..",
                       "BENCH_throughput.json")


def _load_history_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_history", os.path.join(_BENCH_DIR, "bench_history.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _old_entry(rate):
    return {
        "workload": "mcf", "accesses": 1000, "engine": "batched",
        "records": [{"design": "tagless", "engine": "batched",
                     "accesses": 1000, "seconds": 1000 / rate,
                     "accesses_per_second": rate}],
    }


def _new_entry(tool, rate):
    records = [{"design": "tagless", "workload": "mcf", "accesses": 1000,
                "seconds": 1000 / rate, "accesses_per_second": rate}]
    return tool.make_entry(tool.normalize_payload(records), now=0.0,
                           commit="abc1234")


def test_new_entries_carry_no_engine_tag():
    tool = _load_history_tool()
    entry = _new_entry(tool, 100_000.0)
    assert "engine" not in entry
    assert all("engine" not in record for record in entry["records"])


def test_old_and_new_entries_share_a_series():
    tool = _load_history_tool()
    history = {"entries": [_old_entry(100_000.0), _old_entry(110_000.0),
                           _old_entry(90_000.0),
                           _new_entry(tool, 95_000.0)]}
    verdicts, regressions = tool.check_trajectory(
        history, tolerance=0.3, window=10, min_history=3)
    assert regressions == []
    (verdict,) = verdicts
    assert (verdict["design"], verdict["workload"]) == ("tagless", "mcf")
    assert verdict["prior_points"] == 3
    assert verdict["status"] == "ok"
    assert verdict["trailing_median"] == 100_000.0


def test_old_entries_still_gate_new_ones():
    tool = _load_history_tool()
    history = {"entries": [_old_entry(100_000.0)] * 3
               + [_new_entry(tool, 50_000.0)]}
    verdicts, regressions = tool.check_trajectory(
        history, tolerance=0.3, window=10, min_history=3)
    assert verdicts[0]["status"] == "regression"
    assert len(regressions) == 1
    assert regressions[0].startswith("tagless/mcf:")


def test_checked_in_ledger_seeds_the_new_series():
    tool = _load_history_tool()
    with open(_LEDGER) as handle:
        history = json.load(handle)
    prior = len(history["entries"])
    history["entries"].append(_new_entry(tool, 500_000.0))
    verdicts, _ = tool.check_trajectory(
        history, tolerance=0.3, window=10, min_history=prior)
    (verdict,) = verdicts
    assert verdict["prior_points"] == prior
    assert verdict["status"] == "ok"
