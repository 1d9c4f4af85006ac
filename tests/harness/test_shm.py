"""Shared-memory trace dispatch: publish once, attach everywhere.

Locks the TraceArena contract: one publication per trace recipe
(reused across designs, retries and replacement workers), zero trace
bytes pickled in shm mode, bit-identical results against in-worker
regeneration, and parent-owned segment lifecycle that survives worker
crashes without leaking ``/dev/shm`` entries.
"""

import glob
import os

from repro.harness.jobs import JobSpec
from repro.harness.runner import run_jobs
from repro.harness.shm import (
    TraceArena,
    attach_bindings,
    shm_enabled,
)

ACCESSES = 2_000


def _specs(*designs, **overrides):
    kwargs = dict(workload="mcf", accesses=ACCESSES, cache_megabytes=256)
    kwargs.update(overrides)
    return [JobSpec(design=d, **kwargs) for d in designs]


def _segment_names():
    return set(glob.glob("/dev/shm/psm_*"))


def _metrics(outcomes):
    return [
        (o.result.ipc_sum, o.result.edp, o.result.mean_l3_latency_cycles)
        for o in outcomes
    ]


# ----------------------------------------------------------------------
# Arena unit behaviour
# ----------------------------------------------------------------------
def test_publish_once_per_recipe_across_designs():
    with TraceArena(enabled=True) as arena:
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
    with TraceArena(enabled=True) as arena:
        spec = _specs("tagless")[0]
        other = _specs("tagless", accesses=ACCESSES + 1)[0]
        assert arena.share_for(spec) is not arena.share_for(other)
        assert arena.publishes == 2


def test_attach_bindings_equals_regeneration():
    spec = _specs("tagless")[0]
    expected = spec.bindings()
    with TraceArena(enabled=True) as arena:
        share = arena.share_for(spec)
        attached = attach_bindings(share)
        assert len(attached) == len(expected)
        for ours, theirs in zip(attached, expected):
            assert ours.core_id == theirs.core_id
            assert ours.process_id == theirs.process_id
            assert ours.trace.as_lists() == theirs.trace.as_lists()
            assert (ours.trace.page_access_counts()
                    == theirs.trace.page_access_counts())


def test_close_unlinks_segments():
    before = _segment_names()
    arena = TraceArena(enabled=True)
    arena.share_for(_specs("tagless")[0])
    assert _segment_names() - before  # something was published
    arena.close()
    assert _segment_names() - before == set()
    arena.close()  # idempotent


def test_env_switch_disables(monkeypatch):
    monkeypatch.setenv("REPRO_SHM", "0")
    assert not shm_enabled()
    assert TraceArena().share_for(_specs("tagless")[0]) is None
    monkeypatch.setenv("REPRO_SHM", "1")
    assert shm_enabled()


def test_disabled_arena_returns_none():
    arena = TraceArena(enabled=False)
    assert arena.share_for(_specs("tagless")[0]) is None
    assert arena.publishes == 0


# ----------------------------------------------------------------------
# Through the pool
# ----------------------------------------------------------------------
def test_pooled_shm_matches_serial_and_counts_transfer():
    specs = _specs("tagless", "sram", "no-l3")
    before = _segment_names()
    serial = run_jobs(specs, jobs=1)
    pooled = run_jobs(specs, jobs=2)
    assert all(o.ok for o in pooled)
    assert _metrics(serial) == _metrics(pooled)
    # Zero-copy: every job consumed the one shared segment; nothing
    # crossed the pipe by value, and nothing leaked.
    assert all(o.trace_bytes_pickled == 0 for o in pooled)
    assert all(o.trace_bytes_shared == 18 * ACCESSES for o in pooled)
    assert _segment_names() - before == set()
    # The serial path never pays the arena (no pool, no transfer).
    assert all(o.trace_bytes_shared == 0 for o in serial)


def test_pooled_legacy_mode_still_identical(monkeypatch):
    monkeypatch.setenv("REPRO_SHM", "0")
    specs = _specs("tagless", "sram")
    pooled = run_jobs(specs, jobs=2)
    monkeypatch.delenv("REPRO_SHM")
    serial = run_jobs(specs, jobs=1)
    assert _metrics(serial) == _metrics(pooled)
    assert all(o.trace_bytes_shared == 0 for o in pooled)
    assert all(o.trace_bytes_pickled == 0 for o in pooled)


def test_retry_reattaches_without_republishing(monkeypatch):
    specs = _specs("tagless", "sram")
    label = specs[0].label
    monkeypatch.setenv("REPRO_FAULT_INJECT", f"flaky:{label}:1")
    before = _segment_names()
    outcomes = run_jobs(specs, jobs=2, retries=1)
    assert all(o.ok for o in outcomes)
    assert outcomes[0].retries == 1
    # The retried attempt re-attached the same segment: still zero
    # pickled bytes, and the segments are gone after the sweep.
    assert all(o.trace_bytes_pickled == 0 for o in outcomes)
    assert all(o.trace_bytes_shared == 18 * ACCESSES for o in outcomes)
    assert _segment_names() - before == set()


def test_worker_crash_does_not_leak_segments(monkeypatch):
    specs = _specs("tagless", "sram", "no-l3")
    label = specs[1].label
    monkeypatch.setenv("REPRO_FAULT_INJECT", f"crash:{label}")
    before = _segment_names()
    outcomes = run_jobs(specs, jobs=2)
    # The crashed job is attributed precisely; its SIGKILLed worker
    # held only an attachment, so the surviving jobs complete from the
    # same parent-owned segment and nothing is left in /dev/shm.
    assert outcomes[1].status == "worker-crashed"
    assert outcomes[0].ok and outcomes[2].ok
    assert outcomes[0].trace_bytes_shared == 18 * ACCESSES
    assert _segment_names() - before == set()
