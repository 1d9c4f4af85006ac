"""The kernel's shared L3 service equals the reference path, case by case.

The fused kernel serves every design's on-die miss from one inline
demand block per DRAM device, after a read-only classification of where
the block lives, and routes every dirty on-die victim through one
write-back router.  These tests replay the same cores through the kernel
and through the reference loop (each on a fresh design) and compare the
whole outcome: per-core numbers, the full stats dictionary (exact ``==``
on every float), the context-switch counts and, in an attributed run,
every tenant's QoS numbers down to the raw latency histogram.

Each run also asserts that the outcomes it is meant to cover actually
happened, counted on the reference run: SRAM-tag hits and misses that
evict dirty pages, write-backs to cached and to uncached pages; BI
pages on both sides of its split; Alloy hits, and misses that evict
dirty slots.  An attributed run also folds its tenants' latency logs in
chunks.  The write-back sides are counted by wrapping the
reference design's ``_writeback_line``, which the reference loop calls
once per dirty victim and the kernel never calls for these designs.
"""

import dataclasses

import numpy as np
import pytest

from repro.common.config import default_system
from repro.common.stats import Histogram
from repro.cpu import batched
from repro.cpu.batched import _run_kernel, select_kernel
from repro.cpu.multicore import replay
from repro.cpu.scheduled import TenantQoS
from repro.designs.ideal import IdealDesign
from repro.designs.registry import create_design
from repro.workloads.trace import AccessTrace

#: 256 cache pages (16 SRAM-tag sets), 32-entry L2 TLBs and 16-set
#: on-die caches: a footprint of a few hundred pages keeps every cache
#: level missing and evicting.
_SMALL = {
    n: dataclasses.replace(default_system(cache_megabytes=512, num_cores=n,
                                          capacity_scale=512), tlb_scale=32)
    for n in (1, 4)
}

#: How a dirty victim's line lands, per design: the side a reference
#: ``_writeback_line`` call takes, read before the call.
_WRITEBACK_SIDE = {
    "sram": lambda design, line: (
        "cached" if design.tags.contains(line // 64) else "uncached"),
    "bi": lambda design, line: (
        "in" if design.is_in_package(line // 64) else "off"),
    "alloy": lambda design, line: (
        "hit" if design._slots.get(line % design.num_blocks, (None,))[0]
        == line else "miss"),
}


def _trace(name, seed, n, footprint):
    """``n`` accesses, half of them writes, over ``footprint`` pages:
    most go to a hot tenth of the pages (hits at every level), the rest
    anywhere (misses, evictions, dirty victims)."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, max(footprint // 10, 1), n)
    cold = rng.integers(0, footprint, n)
    return AccessTrace(
        name=name,
        virtual_pages=np.where(rng.random(n) < 0.7, hot, cold),
        lines=rng.integers(0, 64, n).astype(np.int16),
        writes=rng.random(n) < 0.5,
        instruction_gaps=rng.integers(0, 8, n).astype(np.int64),
    )


def _cores(layout):
    """``(cores, tenants, replay keywords)`` of a named run layout."""
    if layout == "1 core":
        return [(0, "c0", [(None, 0, _trace("c0", 1, 6_000, 900))])], None, {}
    if layout == "4 cores":
        return [(c, f"c{c}", [(None, c, _trace(f"c{c}", c, 5_000, 900))])
                for c in range(4)], None, {}
    # Three tenants in two address spaces time-share four cores, with
    # switch costs and TLB flushes; tenant 2 runs on two cores at once.
    cores = []
    for c in range(4):
        segments = [(c % 3, c % 2, _trace(f"c{c}a", 10 + c, 2_500, 900)),
                    (2, 0, _trace(f"c{c}b", 20 + c, 2_500, 900))]
        cores.append((c, f"c{c}", segments))
    return cores, (0, 1, 2), dict(switch_cycles=50.0, flush_tlb=True)


def _outcome(design, cores, tenants, **replay_kwargs):
    qos = (None if tenants is None
           else {t: TenantQoS(t, "unit", 0, 0) for t in tenants})
    results, switch_stats = replay(design, cores, qos=qos, **replay_kwargs)
    tenants_seen = None if qos is None else {
        t: (q.instructions, q.cycles, q.l3_accesses,
            list(q.demand_latency.buckets), q.demand_latency.count,
            q.demand_latency.total, q.demand_latency.min,
            q.demand_latency.max)
        for t, q in qos.items()
    }
    return ([(r.core_id, r.instructions, r.cycles, r.stall_cycles)
             for r in results], design.stats(), switch_stats, tenants_seen)


def _counting_writebacks(design, name):
    """Wrap ``design._writeback_line`` to count the sides it takes."""
    sides = {}
    side_of = _WRITEBACK_SIDE[name]
    route = design._writeback_line

    def writeback_line(line, now_ns):
        side = side_of(design, line)
        sides[side] = sides.get(side, 0) + 1
        route(line, now_ns)

    design._writeback_line = writeback_line
    return sides


@pytest.mark.parametrize("layout", ["1 core", "4 cores", "tenants"])
@pytest.mark.parametrize("name", ["sram", "bi", "alloy"])
def test_kernel_l3_paths_equal_the_reference(name, layout):
    cores, tenants, kwargs = _cores(layout)
    config = _SMALL[len(cores)]
    kernel_design = create_design(name, config)
    assert select_kernel(kernel_design) is _run_kernel
    kernel = _outcome(kernel_design, cores, tenants, _kernel=_run_kernel,
                      **kwargs)
    reference_design = create_design(name, config)
    sides = _counting_writebacks(reference_design, name)
    reference = _outcome(reference_design, cores, tenants, _kernel=None,
                         **kwargs)
    assert kernel == reference

    stats = reference[1]
    if name == "sram":
        assert stats["l3_hits"] > 0 and stats["l3_misses"] > 0
        assert stats["l3_writebacks"] > 0  # misses evicting dirty pages
        assert sides["cached"] > 0 and sides["uncached"] > 0
    elif name == "bi":
        assert 0 < stats["in_package_hits"] < stats["l3_accesses"]
        assert sides["in"] > 0 and sides["off"] > 0
    else:
        assert stats["l3_hits"] > 0
        assert stats["l3_writebacks"] > 0  # misses evicting dirty slots
        assert sides["hit"] > 0 and sides["miss"] > 0
    if tenants is not None:
        assert all(q[2] > 0 and q[4] == q[2] for q in reference[3].values())


class _PlainIdeal(IdealDesign):
    """A design class the kernel has no classification for."""


@pytest.mark.parametrize("layout", ["1 core", "tenants"])
def test_unclassified_design_replays_through_the_reference_loop(layout):
    """A design class the kernel does not know gets no kernel, so it
    replays through the reference loop: the same numbers as the
    classified ``IdealDesign`` on the kernel."""
    cores, tenants, kwargs = _cores(layout)
    config = _SMALL[len(cores)]
    design = _PlainIdeal(config)
    assert select_kernel(design) is None
    plain = _outcome(design, cores, tenants,
                     _kernel=select_kernel(design), **kwargs)
    stats = plain[1]
    assert stats["l3_accesses"] > 0
    assert sum(value for key, value in stats.items()
               if key.endswith("_ondie_writebacks")) > 0
    ideal = create_design("ideal", config)
    assert select_kernel(ideal) is _run_kernel
    assert _outcome(ideal, cores, tenants, _kernel=_run_kernel,
                    **kwargs) == plain


def test_latency_logs_fold_in_chunks(monkeypatch):
    """An attributed run folds each tenant's latency log in chunks, not
    only at exit, and the chunked folds add up to the reference loop's
    per-access ``observe``.  Each core folds after ``_LOG_CHUNK`` of its
    own appends; tenant 2 runs on all four cores at once, so its log
    may also hold up to ``_LOG_CHUNK - 1`` entries from each other
    core."""
    cores, tenants, kwargs = _cores("tenants")
    config = _SMALL[len(cores)]
    chunk = 7
    monkeypatch.setattr(batched, "_LOG_CHUNK", chunk)
    folds = []
    observe_all = Histogram.observe_all

    def counting_observe_all(histogram, values):
        folds.append(len(values))
        observe_all(histogram, values)

    monkeypatch.setattr(Histogram, "observe_all", counting_observe_all)
    kernel = _outcome(create_design("alloy", config), cores, tenants,
                      _kernel=_run_kernel, **kwargs)
    assert chunk <= max(folds) <= chunk + 3 * (chunk - 1)
    assert sum(folds) > 10 * chunk * len(tenants)
    reference = _outcome(create_design("alloy", config), cores, tenants,
                         _kernel=None, **kwargs)
    assert kernel == reference
