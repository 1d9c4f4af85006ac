"""Guards for the throughput benchmark's degenerate inputs.

The benchmark lives outside the package (it is a script), so it is
loaded by file path here.
"""

import importlib.util
import os

_BENCH_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks",
    "bench_throughput.py",
)


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_throughput", _BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_zero_length_run_reports_zero_rate():
    bench = _load_bench()
    args = bench.parse_args([
        "--designs", "no-l3", "--accesses", "0", "--repeat", "1",
        "--no-archive",
    ])
    records = bench.run(args)
    assert records[0]["accesses"] == 0
    assert records[0]["accesses_per_second"] == 0.0
    text = bench.table(records, args)
    assert "nan" not in text
    assert "inf" not in text


def test_rate_guard_handles_zero_elapsed(monkeypatch):
    bench = _load_bench()

    class InstantSimulator:
        def run(self, design_name, bindings):
            class Result:
                ipc_sum = 0.0
            return Result()

    # perf_counter frozen: elapsed is exactly zero, the division guard
    # must kick in rather than produce inf/nan.
    monkeypatch.setattr(bench.time, "perf_counter", lambda: 0.0)
    record = bench.time_design("no-l3", InstantSimulator(), [], repeat=1)
    assert record["accesses_per_second"] == 0.0
