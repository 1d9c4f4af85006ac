"""Shared plumbing for the figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper, prints the
paper-style text table, and archives it under ``benchmarks/results/`` so
EXPERIMENTS.md can be refreshed by diffing that directory.  Every
simulated one -- Figs 7-13, Table 2, the energy breakdown and all
ablations but superpages -- is an entry of
:data:`repro.analysis.experiments.FIGURES` run through the
:func:`bench_figure` fixture; the other five build what they print by
hand (see that module's docstring for why).

Scale knobs: the environment variable ``REPRO_BENCH_ACCESSES`` overrides
the per-core trace length each benchmark defaults to, trading fidelity
for runtime.  It and ``REPRO_BENCH_JOBS`` must be integers >= 1;
anything else raises.

Execution knobs: ``REPRO_BENCH_JOBS`` fans each :func:`bench_figure`
sweep out to that many worker processes through :mod:`repro.harness`,
and ``REPRO_BENCH_CACHE`` (a directory path, or ``1`` for the default
``~/.cache/repro``) replays unchanged points from the on-disk result
cache -- so re-running the benchmark suite after a change only
recomputes what the change invalidated.  Unset, benchmarks run the
serial, uncached reference path exactly as before.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.common.errors import ConfigurationError  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _env_count(name: str, default: int) -> int:
    """A positive integer from environment variable ``name``.

    Unset or empty means ``default``.  Zero, negatives and non-integers
    raise: a bad knob fails loudly instead of running something else.
    """
    text = os.environ.get(name)
    if not text:
        return default
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigurationError(f"{name} must be an integer >= 1, "
                                 f"got {text!r}")
    return value


def bench_accesses(default: int) -> int:
    """Per-core trace length for a benchmark, env-overridable."""
    return _env_count("REPRO_BENCH_ACCESSES", default)


def bench_harness():
    """Build the harness the figure benchmarks dispatch through.

    Returns ``None`` (the serial, uncached reference path) unless
    ``REPRO_BENCH_JOBS`` or ``REPRO_BENCH_CACHE`` asks for more.
    """
    from repro.harness import Harness, ResultCache

    jobs = _env_count("REPRO_BENCH_JOBS", 1)
    cache_env = os.environ.get("REPRO_BENCH_CACHE")
    if jobs == 1 and not cache_env:
        return None
    cache = None
    if cache_env:
        cache = ResultCache(None if cache_env == "1" else cache_env)
    return Harness(jobs=jobs, cache=cache)


@pytest.fixture
def record_table(request):
    """Returns a function that prints a table and archives it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _record(name: str, *tables: str) -> None:
        text = "\n\n".join(tables) + "\n"
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text)
        print()
        print(text)

    return _record


@pytest.fixture
def bench_figure(benchmark, record_table):
    """Returns a function that runs one paper figure and archives it.

    ``bench_figure("fig7", 100_000)`` times ``run_figure("fig7")`` at
    that per-core trace length (env-overridable), archives its tables as
    ``results/fig07.txt`` (any other name as itself, e.g.
    ``results/table2.txt``) and returns the result for the shape checks.
    """
    from repro.analysis.experiments import run_figure

    def _run(name: str, default_accesses: int):
        result = benchmark.pedantic(
            run_figure, args=(name,),
            kwargs={"accesses": bench_accesses(default_accesses),
                    "harness": bench_harness()},
            rounds=1, iterations=1,
        )
        archive = (f"fig{int(name[3:]):02d}" if name.startswith("fig")
                   else name)
        record_table(archive, *result.tables())
        return result

    return _run
