"""The benchmark knobs raise on bad values instead of clamping them."""

import importlib.util
import os

import pytest

from repro.common.errors import ConfigurationError

_CONFTEST = os.path.join(os.path.dirname(__file__), "..", "..",
                         "benchmarks", "conftest.py")


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest",
                                                  _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("value", ["0", "-3", "2.5", "many"])
def test_bad_accesses_raise(bench_conftest, monkeypatch, value):
    monkeypatch.setenv("REPRO_BENCH_ACCESSES", value)
    with pytest.raises(ConfigurationError, match="REPRO_BENCH_ACCESSES"):
        bench_conftest.bench_accesses(1_000)


@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_bad_jobs_raise(bench_conftest, monkeypatch, value):
    monkeypatch.setenv("REPRO_BENCH_JOBS", value)
    with pytest.raises(ConfigurationError, match="REPRO_BENCH_JOBS"):
        bench_conftest.bench_harness()


def test_good_values_pass_through(bench_conftest, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_ACCESSES", raising=False)
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
    assert bench_conftest.bench_accesses(1_000) == 1_000
    assert bench_conftest.bench_harness() is None
    monkeypatch.setenv("REPRO_BENCH_ACCESSES", "2000")
    monkeypatch.setenv("REPRO_BENCH_JOBS", "2")
    assert bench_conftest.bench_accesses(1_000) == 2_000
    assert bench_conftest.bench_harness().jobs == 2
