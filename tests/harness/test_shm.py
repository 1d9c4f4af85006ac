"""Shared-memory trace dispatch: publish once, attach everywhere.

Locks the TraceArena contract: one publication per trace recipe
(reused across designs, retries and replacement workers), zero trace
bytes pickled in shm mode, bit-identical results against in-worker
regeneration over both transports (shared segment and inline payload),
and parent-owned segment lifecycle that survives worker crashes without
leaking ``/dev/shm`` entries.
"""

import os

from repro.harness.jobs import JobSpec, execute_job
from repro.harness.runner import run_jobs
from repro.harness.shm import (
    TraceArena,
    attach_bindings,
)

ACCESSES = 2_000


def _specs(*designs, **overrides):
    kwargs = dict(workload="mcf", accesses=ACCESSES, cache_megabytes=256)
    kwargs.update(overrides)
    return [JobSpec(design=d, **kwargs) for d in designs]


def _record_segments(monkeypatch):
    """List that collects the name of every segment ``TraceArena``
    creates from now on (over the current ``_create_segment``)."""
    names = []
    create = TraceArena._create_segment

    def recording(nbytes):
        segment = create(nbytes)
        if segment is not None:
            names.append(segment.name)
        return segment

    monkeypatch.setattr(TraceArena, "_create_segment",
                        staticmethod(recording))
    return names


def _live(names):
    """Those of ``names`` still present in ``/dev/shm``.  Only segments
    this test created are looked at, so other processes' segments
    cannot fail it."""
    return {name for name in names
            if os.path.exists(os.path.join("/dev/shm", name))}


def _metrics(outcomes):
    return [
        (o.result.ipc_sum, o.result.edp, o.result.mean_l3_latency_cycles)
        for o in outcomes
    ]


#: Patched over ``TraceArena._create_segment``: shared memory is
#: unavailable, so every trace travels as an inline payload.
_NO_SEGMENT = staticmethod(lambda nbytes: None)


# ----------------------------------------------------------------------
# Arena unit behaviour
# ----------------------------------------------------------------------
def test_publish_once_per_recipe_across_designs():
    with TraceArena() as arena:
        a, b = _specs("tagless", "sram")
        share_a = arena.share_for(a)
        share_b = arena.share_for(b)
        # Same workload recipe: one publication, shared by both designs.
        assert share_a is share_b
        assert arena.publishes == 1
        assert arena.reuses == 1
        assert share_a.shared_nbytes == 18 * ACCESSES
        assert share_a.pickled_nbytes == 0


def test_distinct_recipes_publish_separately():
    with TraceArena() as arena:
        spec = _specs("tagless")[0]
        other = _specs("tagless", accesses=ACCESSES + 1)[0]
        assert arena.share_for(spec) is not arena.share_for(other)
        assert arena.publishes == 2


def test_attach_bindings_equals_regeneration():
    spec = _specs("tagless")[0]
    expected = spec.bindings()
    with TraceArena() as arena:
        share = arena.share_for(spec)
        attached = attach_bindings(share)
        assert len(attached) == len(expected)
        for ours, theirs in zip(attached, expected):
            assert ours.core_id == theirs.core_id
            assert ours.process_id == theirs.process_id
            assert ours.trace.as_lists() == theirs.trace.as_lists()
            # Same Python types too: replay arithmetic is type-sensitive,
            # and the packed lines column is narrower than the generator's.
            pages, lines, writes, gaps = ours.trace.as_lists()
            assert all(type(v) is int for v in pages[:16] + lines[:16])
            assert all(type(w) is bool for w in writes[:16])
            ours_counts = ours.trace.page_access_counts()
            theirs_counts = theirs.trace.page_access_counts()
            assert ours_counts == theirs_counts
            # NC classification iterates the counts: order is API.
            assert list(ours_counts) == list(theirs_counts)
            for attribute in ("name", "base_cpi", "mlp",
                              "total_instructions", "footprint_pages",
                              "accesses_per_kilo_instruction"):
                assert (getattr(ours.trace, attribute)
                        == getattr(theirs.trace, attribute))
            assert ours.trace.write_fraction() == theirs.trace.write_fraction()


def _replay_digest(result):
    return (result.stats, result.energy,
            [(c.instructions, c.cycles, c.stall_cycles)
             for c in result.cores])


def test_attached_replay_bit_identical(monkeypatch):
    """Full simulations over attached traces -- segment views, then
    read-only payload views -- equal simulations over in-process traces,
    on the kernel (tagless) and on the reference loop (sram)."""
    specs = _specs("tagless", "sram")
    expected = [_replay_digest(execute_job(spec)) for spec in specs]
    for inline in (False, True):
        if inline:
            monkeypatch.setattr(TraceArena, "_create_segment", _NO_SEGMENT)
        for spec, digest in zip(specs, expected):
            with TraceArena() as arena:
                share = arena.share_for(spec)
                assert all((ref.segment is None) == inline
                           for ref in share.refs)
                bindings = attach_bindings(share)
                # Payload views are read-only: they wrap ``bytes``.
                assert inline != any(b.trace.virtual_pages.flags.writeable
                                     for b in bindings)
                assert _replay_digest(
                    execute_job(spec, bindings=bindings)) == digest


def test_close_unlinks_segments(monkeypatch):
    created = _record_segments(monkeypatch)
    arena = TraceArena()
    arena.share_for(_specs("tagless")[0])
    assert _live(created)  # something was published
    arena.close()
    assert _live(created) == set()
    arena.close()  # idempotent


# ----------------------------------------------------------------------
# Through the pool
# ----------------------------------------------------------------------
def test_pooled_shm_matches_serial_and_counts_transfer(monkeypatch):
    specs = _specs("tagless", "sram", "no-l3")
    created = _record_segments(monkeypatch)
    serial = run_jobs(specs, jobs=1)
    pooled = run_jobs(specs, jobs=2)
    assert all(o.ok for o in pooled)
    assert _metrics(serial) == _metrics(pooled)
    # Zero-copy: every job consumed the one shared segment; nothing
    # crossed the pipe by value, and nothing leaked.
    assert all(o.trace_bytes_pickled == 0 for o in pooled)
    assert all(o.trace_bytes_shared == 18 * ACCESSES for o in pooled)
    assert created and _live(created) == set()
    # The serial path never pays the arena (no pool, no transfer).
    assert all(o.trace_bytes_shared == 0 for o in serial)


def test_pooled_inline_payload_matches_serial(monkeypatch):
    monkeypatch.setattr(TraceArena, "_create_segment", _NO_SEGMENT)
    specs = _specs("tagless", "sram")
    created = _record_segments(monkeypatch)
    serial = run_jobs(specs, jobs=1)
    pooled = run_jobs(specs, jobs=2)
    assert all(o.ok for o in pooled)
    assert _metrics(serial) == _metrics(pooled)
    # The packed columns crossed the pipe by value, once per job.
    assert all(o.trace_bytes_pickled == 18 * ACCESSES for o in pooled)
    assert all(o.trace_bytes_shared == 0 for o in pooled)
    assert created == []


def test_pooled_regeneration_still_identical(monkeypatch):
    # No manifest: every worker regenerates its traces from the spec.
    monkeypatch.setattr(TraceArena, "share_for", lambda self, spec: None)
    specs = _specs("tagless", "sram")
    pooled = run_jobs(specs, jobs=2)
    monkeypatch.undo()
    serial = run_jobs(specs, jobs=1)
    assert _metrics(serial) == _metrics(pooled)
    assert all(o.trace_bytes_shared == 0 for o in pooled)
    assert all(o.trace_bytes_pickled == 0 for o in pooled)


def test_retry_reattaches_without_republishing(monkeypatch):
    specs = _specs("tagless", "sram")
    label = specs[0].label
    monkeypatch.setenv("REPRO_FAULT_INJECT", f"flaky:{label}:1")
    created = _record_segments(monkeypatch)
    outcomes = run_jobs(specs, jobs=2, retries=1)
    assert all(o.ok for o in outcomes)
    assert outcomes[0].retries == 1
    # The retried attempt re-attached the same segment: still zero
    # pickled bytes, and the segments are gone after the sweep.
    assert all(o.trace_bytes_pickled == 0 for o in outcomes)
    assert all(o.trace_bytes_shared == 18 * ACCESSES for o in outcomes)
    assert created and _live(created) == set()


def test_worker_crash_does_not_leak_segments(monkeypatch):
    specs = _specs("tagless", "sram", "no-l3")
    label = specs[1].label
    monkeypatch.setenv("REPRO_FAULT_INJECT", f"crash:{label}")
    created = _record_segments(monkeypatch)
    outcomes = run_jobs(specs, jobs=2)
    # The crashed job is attributed precisely; its SIGKILLed worker
    # held only an attachment, so the surviving jobs complete from the
    # same parent-owned segment and nothing is left in /dev/shm.
    assert outcomes[1].status == "worker-crashed"
    assert outcomes[0].ok and outcomes[2].ok
    assert outcomes[0].trace_bytes_shared == 18 * ACCESSES
    assert created and _live(created) == set()
