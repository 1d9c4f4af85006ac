"""ColumnarTrace: replay-equivalent to AccessTrace, zero-copy slicing.

The columnar representation must be indistinguishable from the object
trace everywhere replay can look: ``as_lists`` values and types,
``page_access_counts`` content *and iteration order* (NC classification
iterates it), derived properties, and the flat-buffer round trip the
shared-memory arena depends on.
"""

import numpy as np
import pytest

from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import spec_profile
from repro.workloads.trace import AccessTrace, ColumnarTrace, TraceError


@pytest.fixture(scope="module")
def object_trace():
    generator = TraceGenerator(spec_profile("mcf"), capacity_scale=64)
    return generator.generate(4_000)


@pytest.fixture()
def columnar(object_trace):
    return ColumnarTrace.from_trace(object_trace)


def test_as_lists_matches_object_trace(object_trace, columnar):
    assert columnar.as_lists() == object_trace.as_lists()
    # Same Python types too: replay arithmetic is type-sensitive.
    pages, lines, writes, gaps = columnar.as_lists()
    assert all(type(p) is int for p in pages[:16])
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
    assert columnar.nbytes == 18 * len(object_trace)


def test_to_trace_round_trip(object_trace, columnar):
    back = columnar.to_trace()
    assert np.array_equal(back.virtual_pages, object_trace.virtual_pages)
    assert np.array_equal(back.lines, object_trace.lines)
    assert np.array_equal(back.writes, object_trace.writes)
    assert np.array_equal(back.instruction_gaps,
                          object_trace.instruction_gaps)
    assert back.base_cpi == object_trace.base_cpi
    assert back.mlp == object_trace.mlp


def test_flat_buffer_round_trip(columnar):
    buffer = bytearray(ColumnarTrace.buffer_nbytes(len(columnar)))
    written = columnar.pack_into(buffer)
    assert written == len(buffer)
    attached = ColumnarTrace.from_buffer(
        columnar.name, len(columnar), buffer,
        base_cpi=columnar.base_cpi, mlp=columnar.mlp, owner=buffer,
    )
    assert attached.as_lists() == columnar.as_lists()
    assert attached.page_access_counts() == columnar.page_access_counts()


def test_from_buffer_rejects_short_buffer(columnar):
    with pytest.raises(TraceError):
        ColumnarTrace.from_buffer("short", len(columnar), bytearray(17))


def test_slice_is_window_and_shares_list_cache(columnar):
    parent_lists = columnar.as_lists()
    child = columnar.slice(100, 300)
    assert len(child) == 200
    # The child's lists were seeded from the parent's cache, not
    # re-materialized from the columns.
    assert child._lists is not None
    assert child._lists == tuple(part[100:300] for part in parent_lists)
    assert child.as_lists() == tuple(part[100:300] for part in parent_lists)


def test_head_equals_slice(columnar):
    assert columnar.head(50).as_lists() == columnar.slice(0, 50).as_lists()


def test_object_slice_seeded_from_materialized_parent(object_trace):
    """Regression for the warmup-split path: once a parent's list cache
    is materialized, ``AccessTrace.slice`` children inherit shared
    slices of it instead of re-converting the numpy columns."""
    parent_lists = object_trace.as_lists()
    split = len(object_trace) // 4
    warm = object_trace.slice(0, split)
    measured = object_trace.slice(split, len(object_trace))
    assert warm._lists is not None and measured._lists is not None
    assert warm.as_lists() == tuple(p[:split] for p in parent_lists)
    assert measured.as_lists() == tuple(p[split:] for p in parent_lists)
    # Shared, not copied: the seeded slices are views over the same
    # objects the parent cached (ints are interned/shared; identity on
    # the first element proves no per-element reconversion happened).
    assert warm.as_lists()[0][0] is parent_lists[0][0]


def test_columnar_replay_bit_identical(object_trace, columnar):
    """Full simulation over ColumnarTrace bindings equals AccessTrace."""
    from repro.common.config import default_system
    from repro.cpu.multicore import BoundTrace
    from repro.cpu.simulator import Simulator

    simulator = Simulator(default_system(cache_megabytes=256, num_cores=1,
                                         capacity_scale=64))
    via_object = simulator.run("tagless", [BoundTrace(0, 0, object_trace)])
    via_columnar = simulator.run("tagless", [BoundTrace(0, 0, columnar)])
    assert via_object.stats == via_columnar.stats
    assert via_object.energy == via_columnar.energy
    assert ([(c.instructions, c.cycles, c.stall_cycles)
             for c in via_object.cores]
            == [(c.instructions, c.cycles, c.stall_cycles)
                for c in via_columnar.cores])
