"""Packed-column traces: replay-equivalent to the generated trace.

The shared-memory arena packs a trace's numpy columns into one flat
buffer in the ``COLUMNS`` layout and workers replay ``AccessTrace``s
whose columns are ``np.frombuffer`` views over it.  Such a trace must be
indistinguishable from the generated one everywhere replay can look:
``as_lists`` values and types, ``page_access_counts`` content *and
iteration order* (NC classification iterates it), derived properties,
and the pack-then-view round trip itself.
"""

import numpy as np
import pytest

from repro.harness.shm import BYTES_PER_ACCESS, SegmentRef, _pack
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import spec_profile
from repro.workloads.trace import AccessTrace


@pytest.fixture(scope="module")
def object_trace():
    generator = TraceGenerator(spec_profile("mcf"), capacity_scale=64)
    return generator.generate(4_000)


def _ref(trace, payload=None):
    return SegmentRef(segment=None, payload=payload, accesses=len(trace),
                      trace_name=trace.name, base_cpi=trace.base_cpi,
                      mlp=trace.mlp, core_id=0, process_id=0)


def _packed_bytes(trace):
    buffer = bytearray(BYTES_PER_ACCESS * len(trace))
    _pack(trace, buffer)
    return bytes(buffer)


@pytest.fixture()
def columnar(object_trace):
    """The trace as the inline transport delivers it: read-only views
    over the packed ``bytes``."""
    ref = _ref(object_trace, _packed_bytes(object_trace))
    return ref.trace_over(ref.payload)


def test_as_lists_matches_object_trace(object_trace, columnar):
    assert columnar.as_lists() == object_trace.as_lists()
    # Same Python types too: replay arithmetic is type-sensitive, and
    # the packed lines column is narrower than the generator's.
    pages, lines, writes, gaps = columnar.as_lists()
    assert all(type(p) is int for p in pages[:16] + lines[:16] + gaps[:16])
    assert all(type(w) is bool for w in writes[:16])


def test_page_access_counts_content_and_order(object_trace, columnar):
    ours = columnar.page_access_counts()
    theirs = object_trace.page_access_counts()
    assert ours == theirs
    assert list(ours) == list(theirs)  # iteration order is part of the API


def test_derived_properties(object_trace, columnar):
    assert len(columnar) == len(object_trace)
    assert columnar.total_instructions == object_trace.total_instructions
    assert columnar.footprint_pages == object_trace.footprint_pages
    assert (columnar.accesses_per_kilo_instruction
            == object_trace.accesses_per_kilo_instruction)
    assert columnar.write_fraction() == object_trace.write_fraction()
    column_bytes = sum(getattr(columnar, field).nbytes for field in
                       ("virtual_pages", "lines", "writes",
                        "instruction_gaps"))
    assert column_bytes == 18 * len(object_trace)
    assert _ref(object_trace).nbytes == 18 * len(object_trace)


def test_to_trace_round_trip(object_trace, columnar):
    """Viewing the packed columns gives back the generated columns and
    trace metadata."""
    assert isinstance(columnar, AccessTrace)
    assert np.array_equal(columnar.virtual_pages, object_trace.virtual_pages)
    assert np.array_equal(columnar.lines, object_trace.lines)
    assert np.array_equal(columnar.writes, object_trace.writes)
    assert np.array_equal(columnar.instruction_gaps,
                          object_trace.instruction_gaps)
    assert columnar.name == object_trace.name
    assert columnar.base_cpi == object_trace.base_cpi
    assert columnar.mlp == object_trace.mlp


def test_flat_buffer_round_trip(object_trace):
    """Packing into a writable buffer (the shared-segment case) fills it
    exactly, and views over it replay like the original."""
    buffer = bytearray(BYTES_PER_ACCESS * len(object_trace))
    _pack(object_trace, buffer)
    assert bytes(buffer) == _packed_bytes(object_trace)
    attached = _ref(object_trace).trace_over(buffer)
    assert attached.virtual_pages.flags.writeable
    assert attached.as_lists() == object_trace.as_lists()
    assert (attached.page_access_counts()
            == object_trace.page_access_counts())


def test_from_buffer_rejects_short_buffer(object_trace):
    with pytest.raises(ValueError):
        _ref(object_trace).trace_over(bytearray(17))


def test_slice_is_window_and_shares_list_cache(columnar):
    parent_lists = columnar.as_lists()
    child = columnar.slice(100, 300)
    assert len(child) == 200
    # The child's columns are windows over the same packed buffer.
    assert np.shares_memory(child.virtual_pages, columnar.virtual_pages)
    # The child's lists were seeded from the parent's cache, not
    # re-materialized from the columns.
    assert child._lists is not None
    assert child._lists == tuple(part[100:300] for part in parent_lists)
    assert child.as_lists() == tuple(part[100:300] for part in parent_lists)


def test_head_equals_slice(columnar):
    assert columnar.head(50).as_lists() == columnar.slice(0, 50).as_lists()
