"""Interleaved multicore execution engine tests."""

import signal

import numpy as np
import pytest

from repro.cpu.multicore import (
    BoundTrace,
    _clock_stop,
    replay,
    run_interleaved,
)
from repro.designs import create_design
from repro.workloads.trace import AccessTrace


def make_trace(name, pages, cpi=0.5, mlp=2.0, gap=20):
    n = len(pages)
    return AccessTrace(
        name=name,
        virtual_pages=np.array(pages, dtype=np.int64),
        lines=np.arange(n, dtype=np.int16) % 64,
        writes=np.zeros(n, dtype=bool),
        instruction_gaps=np.full(n, gap, dtype=np.int64),
        base_cpi=cpi,
        mlp=mlp,
    )


def test_single_core_runs_to_completion(small_config):
    design = create_design("no-l3", small_config)
    trace = make_trace("t", [1, 2, 3, 1, 2, 3] * 50)
    results = run_interleaved(design, [BoundTrace(0, 0, trace)])
    assert len(results) == 1
    assert results[0].instructions == trace.total_instructions
    assert results[0].cycles > 0


def test_empty_bindings():
    assert run_interleaved(None, []) == []


def test_duplicate_core_rejected(small_config):
    design = create_design("no-l3", small_config)
    trace = make_trace("t", [1])
    with pytest.raises(ValueError):
        run_interleaved(
            design,
            [BoundTrace(0, 0, trace), BoundTrace(0, 1, trace)],
        )


def test_replay_rejects_duplicate_core(small_mp_config):
    design = create_design("no-l3", small_mp_config)
    trace = make_trace("t", [1])
    with pytest.raises(ValueError, match="core 1 bound twice"):
        replay(design, [(1, "a", [(None, 0, trace)]),
                        (1, "b", [(None, 1, trace)])])


def test_replay_rejects_core_without_segments(small_config):
    design = create_design("no-l3", small_config)
    with pytest.raises(ValueError, match="core 0 has no segments"):
        replay(design, [(0, "w", [])])


def test_multicore_all_traces_complete(small_mp_config):
    design = create_design("no-l3", small_mp_config)
    bindings = [
        BoundTrace(i, i, make_trace(f"t{i}", [(i * 37 + j) % 50
                                              for j in range(300)]))
        for i in range(4)
    ]
    results = run_interleaved(design, bindings)
    assert len(results) == 4
    assert all(r.instructions > 0 for r in results)
    assert {r.core_id for r in results} == {0, 1, 2, 3}


def test_interleaving_keeps_clocks_close(small_mp_config):
    """The min-time scheduler should keep core clocks within one access
    cost of each other while all traces are active (same-length traces
    with identical behaviour finish at similar times)."""
    design = create_design("no-l3", small_mp_config)
    bindings = [
        BoundTrace(i, i, make_trace(f"t{i}", [j % 40 for j in range(400)]))
        for i in range(4)
    ]
    results = run_interleaved(design, bindings)
    cycles = [r.cycles for r in results]
    assert max(cycles) / min(cycles) < 1.2


def test_max_accesses_truncates(small_config):
    design = create_design("no-l3", small_config)
    trace = make_trace("t", list(range(50)))
    results = run_interleaved(design, [BoundTrace(0, 0, trace.head(10))])
    assert design.accesses == 10
    assert results[0].instructions == 10 * 21  # 10 gaps of 20 + 10 mem ops


def test_idle_bound_core_is_reported(small_mp_config):
    """A plain run reports every bound core, even one with an empty
    trace (a tenant schedule omits idle cores; see test_scheduled)."""
    design = create_design("no-l3", small_mp_config)
    results = run_interleaved(design, [
        BoundTrace(0, 0, make_trace("busy", [1, 2, 3])),
        BoundTrace(1, 1, make_trace("idle", [])),
    ])
    assert [(r.core_id, r.instructions, r.cycles) for r in results][1] == \
        (1, 0, 0.0)


def test_workload_name_propagates(small_config):
    design = create_design("no-l3", small_config)
    results = run_interleaved(
        design, [BoundTrace(0, 0, make_trace("myprog", [1, 2]))]
    )
    assert results[0].workload == "myprog"


def test_ipc_property(small_config):
    design = create_design("no-l3", small_config)
    results = run_interleaved(
        design, [BoundTrace(0, 0, make_trace("t", [1] * 100))]
    )
    r = results[0]
    assert r.ipc == pytest.approx(r.instructions / r.cycles)


def test_clock_stop_returns_when_stop_is_tiny_next_to_the_gap():
    """A 20-cycle window on a 3 GHz core whose longest gap is 20 cycles:
    the first candidate stop is 3.6e-15, so one-ulp steps of ``stop``
    alone would need about 4.5e15 of them to move the sum below 20."""
    def too_slow(signum, frame):
        raise TimeoutError("_clock_stop did not return")

    boundary_ns, max_gap_cycles, cycle_ns = 6.666666666666667, 20.0, 1 / 3
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        stop = _clock_stop(boundary_ns, max_gap_cycles, cycle_ns)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert (stop + max_gap_cycles) * cycle_ns < boundary_ns
    assert stop <= boundary_ns / cycle_ns - max_gap_cycles
