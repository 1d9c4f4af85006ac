"""AccessTrace container tests."""

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import spec_profile
from repro.workloads.trace import AccessTrace


def make(pages, lines=None, writes=None, gaps=None):
    n = len(pages)
    return AccessTrace(
        name="t",
        virtual_pages=np.array(pages, dtype=np.int64),
        lines=np.array(lines if lines is not None else [0] * n,
                       dtype=np.int16),
        writes=np.array(writes if writes is not None else [False] * n),
        instruction_gaps=np.array(gaps if gaps is not None else [10] * n,
                                  dtype=np.int64),
    )


def test_length_and_instructions():
    trace = make([1, 2, 3])
    assert len(trace) == 3
    assert trace.total_instructions == 33  # 3 gaps of 10 + 3 memory ops


def test_footprint():
    assert make([1, 1, 2, 5]).footprint_pages == 3


def test_apki():
    trace = make([1, 2])
    assert trace.accesses_per_kilo_instruction == pytest.approx(
        1000 * 2 / 22
    )


def test_write_fraction():
    trace = make([1, 2], writes=[True, False])
    assert trace.write_fraction() == pytest.approx(0.5)


def test_page_access_counts():
    counts = make([1, 1, 2]).page_access_counts()
    assert counts == {1: 2, 2: 1}


def test_mismatched_arrays_rejected():
    with pytest.raises(TraceError):
        AccessTrace(
            name="bad",
            virtual_pages=np.array([1, 2]),
            lines=np.array([0], dtype=np.int16),
            writes=np.array([False, False]),
            instruction_gaps=np.array([1, 1]),
        )


def test_line_range_validated():
    with pytest.raises(TraceError):
        make([1], lines=[64])


def test_negative_values_rejected():
    with pytest.raises(TraceError):
        make([-1])
    with pytest.raises(TraceError):
        make([1], gaps=[-5])


def test_head_and_slice():
    trace = make([1, 2, 3, 4])
    assert len(trace.head(2)) == 2
    sliced = trace.slice(1, 3)
    assert list(sliced.virtual_pages) == [2, 3]
    assert sliced.base_cpi == trace.base_cpi


def test_as_lists_round_trip():
    trace = make([1, 2], writes=[True, False])
    pages, lines, writes, gaps = trace.as_lists()
    assert pages == [1, 2]
    assert writes == [True, False]
    assert isinstance(pages, list)


def test_empty_trace_properties():
    trace = make([])
    assert trace.footprint_pages == 0
    assert trace.accesses_per_kilo_instruction == 0.0
    assert trace.write_fraction() == 0.0


def test_object_slice_seeded_from_materialized_parent():
    """Regression for the warmup-split path: once a parent's list cache
    is materialized, ``AccessTrace.slice`` children inherit shared
    slices of it instead of re-converting the numpy columns."""
    trace = TraceGenerator(spec_profile("mcf"), capacity_scale=64).generate(
        4_000)
    parent_lists = trace.as_lists()
    split = len(trace) // 4
    warm = trace.slice(0, split)
    measured = trace.slice(split, len(trace))
    assert warm._lists is not None and measured._lists is not None
    assert warm.as_lists() == tuple(p[:split] for p in parent_lists)
    assert measured.as_lists() == tuple(p[split:] for p in parent_lists)
    # Shared, not copied: the seeded slices are views over the same
    # objects the parent cached (ints are interned/shared; identity on
    # the first element proves no per-element reconversion happened).
    assert warm.as_lists()[0][0] is parent_lists[0][0]
