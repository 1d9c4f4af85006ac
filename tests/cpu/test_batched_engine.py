"""Replay paths: the fused kernel is bit-identical to the reference loop.

``Simulator.run`` replays through
:func:`repro.cpu.batched.run_interleaved_batched`, which runs the fused
kernel where it applies and the reference loop
(:func:`repro.cpu.multicore.run_interleaved`) everywhere else.  These
tests rerun each point with the simulator's replay swapped for the
reference loop and compare the *entire* observable output -- the stats
dictionary (exact ``==`` on every float), the energy breakdown, and the
per-core instruction/cycle/stall counts -- for every registered design,
single- and quad-core.  The kernel owns the multi-core argmin, so the
tagless cases then cover the interleave itself: uneven and empty cores,
2 and 8 cores, exact clock ties, every victim policy, the GIPT in either
DRAM, cross-core evictions and NC fallbacks in mid-burst.  A fixed-seed
property draws per-core segment lists and a design, attributed to
their tenants or not (``test_scheduled.py`` covers attributed tenant
schedules), and a superpage test covers the comparators' refill
call.  The golden-stats oracle additionally locks the production
path against checked-in numbers.
"""

import copy
import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cpu.simulator as simulator_module
from repro.common.config import default_system
from repro.common.errors import SimulationError
from repro.common.machine import MachineSpec
from repro.cpu.batched import _run_kernel, select_kernel
from repro.cpu.multicore import BoundTrace, replay, run_interleaved
from repro.cpu.scheduled import TenantQoS
from repro.cpu.simulator import Simulator
from repro.designs.registry import ALL_DESIGN_NAMES, create_design
from repro.obs.timeseries import TimeseriesRecorder
from repro.validate.invariants import InvariantChecker
from repro.workloads.generator import TraceGenerator
from repro.workloads.mixes import mix_traces
from repro.workloads.spec import spec_profile
from repro.workloads.trace import AccessTrace

ACCESSES = 3_000


def _single_core_bindings():
    generator = TraceGenerator(spec_profile("mcf"), capacity_scale=64)
    return [BoundTrace(0, 0, generator.generate(ACCESSES))]


def _quad_core_bindings():
    traces = mix_traces("MIX1", accesses_per_program=1_500,
                        capacity_scale=64)
    return [BoundTrace(i, i, t) for i, t in enumerate(traces)]


def _snapshot(result):
    return (
        result.stats,
        result.energy,
        [(c.core_id, c.instructions, c.cycles, c.stall_cycles)
         for c in result.cores],
        result.elapsed_ns,
        result.mean_l3_latency_cycles,
    )


def _kernel_and_reference(monkeypatch, simulator, design, bindings,
                          **run_kwargs):
    kernel = simulator.run(design, bindings, **run_kwargs)
    monkeypatch.setattr(simulator_module, "run_interleaved_batched",
                        run_interleaved)
    reference = simulator.run(design, bindings, **run_kwargs)
    return kernel, reference


@pytest.mark.parametrize("design", ALL_DESIGN_NAMES)
def test_batched_bit_identical_single_core(monkeypatch, design):
    simulator = Simulator(default_system(cache_megabytes=256, num_cores=1,
                                         capacity_scale=64))
    kernel, reference = _kernel_and_reference(
        monkeypatch, simulator, design, _single_core_bindings())
    assert _snapshot(kernel) == _snapshot(reference)


@pytest.mark.parametrize("design", ALL_DESIGN_NAMES)
def test_batched_bit_identical_quad_core(monkeypatch, design):
    simulator = Simulator(default_system(cache_megabytes=256, num_cores=4,
                                         capacity_scale=64))
    kernel, reference = _kernel_and_reference(
        monkeypatch, simulator, design, _quad_core_bindings())
    assert _snapshot(kernel) == _snapshot(reference)


def _fresh(design):
    return create_design(design, default_system(
        cache_megabytes=256, num_cores=1, capacity_scale=64))


@pytest.mark.parametrize("design", ALL_DESIGN_NAMES)
def test_select_kernel_only_for_plain_tagless(design):
    """The kernel replays every design when nothing is attached, the
    resizable one included (its schedule is a replay boundary).  Of
    the tagless designs it replays only plain ones: footprint caching
    stands it down there; the other designs ignore that knob."""
    assert select_kernel(_fresh(design)) is _run_kernel
    config = default_system(cache_megabytes=256, num_cores=1,
                            capacity_scale=64)
    config = dataclasses.replace(config, dram_cache=dataclasses.replace(
        config.dram_cache, footprint_caching=True))
    kernel = select_kernel(create_design(design, config))
    if design in ("tagless", "tagless-resizable"):
        assert kernel is None
    else:
        assert kernel is _run_kernel


@pytest.mark.parametrize("design", ALL_DESIGN_NAMES)
def test_select_kernel_leaves_instance_dict_alone(design):
    """Kernel selection must not materialise the design's ``__dict__``.

    On CPython 3.11+ an instance's attributes live inline until
    something reads ``__dict__``; that read moves them into a real dict
    object (so the instance's GC referents change) and slows every later
    attribute load on the design.
    """
    fresh = _fresh(design)
    before = len(gc.get_referents(fresh))
    select_kernel(fresh)
    assert len(gc.get_referents(fresh)) == before


def test_class_level_wrappers_keep_the_choice(monkeypatch):
    """A span tracer wraps ``access_cycles`` on the class; kernel
    selection must not change."""
    import functools

    from repro.designs.base import MemorySystemDesign

    inner = MemorySystemDesign.__dict__["access_cycles"]
    monkeypatch.setattr(MemorySystemDesign, "access_cycles",
                        functools.wraps(inner)(
                            lambda self, *a, _f=inner: _f(self, *a)))
    assert select_kernel(_fresh("tagless")) is not None
    assert select_kernel(_fresh("tagless-resizable")) is not None


def test_installed_checker_keeps_the_kernel(monkeypatch):
    """A validated tagless run replays through the kernel, which stops
    for every sweep: the same sweeps and numbers as the validated
    reference loop, and the same numbers as an unvalidated run."""
    from repro.designs.base import MemorySystemDesign

    calls = []
    inner = MemorySystemDesign.access_cycles
    monkeypatch.setattr(MemorySystemDesign, "access_cycles",
                        lambda self, *a: calls.append(1) or inner(self, *a))
    bindings = [(b.core_id, b.trace.name, [(None, b.process_id, b.trace)])
                for b in _quad_core_bindings()]
    outcomes = []
    for kernel in (_run_kernel, None):
        design = create_design("tagless", _config())
        checker = InvariantChecker(design, every=250)
        checker.install()
        assert select_kernel(design) is not None
        del calls[:]
        outcomes.append((_replay_outcome(design, bindings, _kernel=kernel),
                         checker.sweeps, len(calls)))
        checker.uninstall()
    (kernel_run, kernel_sweeps, fallbacks), (reference_run, sweeps, _) = \
        outcomes
    assert kernel_run == reference_run
    assert kernel_sweeps == sweeps == 6_000 // 250
    assert fallbacks < 600  # the sweeps' accesses plus the kernel's own
    plain = create_design("tagless", _config())
    assert _replay_outcome(plain, bindings,
                           _kernel=_run_kernel) == kernel_run


def test_observed_batched_run_stays_identical():
    """Validation sweeps stop the kernel and resume it -- results
    unchanged."""
    simulator = Simulator(default_system(cache_megabytes=256, num_cores=1,
                                         capacity_scale=64))
    bindings = _single_core_bindings()
    plain = simulator.run("tagless", bindings)
    validated = simulator.run("tagless", bindings, validate=True)
    assert _snapshot(plain) == _snapshot(validated)


# ----------------------------------------------------------------------
# The multi-core kernel against the reference argmin loop (tagless).
# ----------------------------------------------------------------------
def _config(num_cores=4, cache_megabytes=256, replacement="fifo",
            **dram_cache):
    config = default_system(cache_megabytes=cache_megabytes,
                            num_cores=num_cores, replacement=replacement,
                            capacity_scale=64)
    if dram_cache:
        config = dataclasses.replace(config, dram_cache=dataclasses.replace(
            config.dram_cache, **dram_cache))
    return config


def _mix_bindings(mixes=("MIX1",), accesses=1_500):
    traces = [trace for mix in mixes
              for trace in mix_traces(mix, accesses_per_program=accesses,
                                      capacity_scale=64)]
    return [BoundTrace(i, i, t) for i, t in enumerate(traces)]


def _tagless_kernel_matches(monkeypatch, config, bindings, **run_kwargs):
    """Run tagless through the kernel and the reference loop; the full
    snapshot must match.  Returns the kernel run."""
    simulator = Simulator(config)
    assert select_kernel(simulator.build_design("tagless")) is not None
    kernel, reference = _kernel_and_reference(
        monkeypatch, simulator, "tagless", bindings, **run_kwargs)
    assert _snapshot(kernel) == _snapshot(reference)
    return kernel


def test_kernel_uneven_cores_with_an_empty_one(monkeypatch):
    bindings = [BoundTrace(b.core_id, b.process_id, b.trace.head(n))
                for b, n in zip(_mix_bindings(), (1_500, 0, 700, 150))]
    result = _tagless_kernel_matches(monkeypatch, _config(), bindings)
    assert [c.instructions == 0 for c in result.cores] == \
        [False, True, False, False]


@pytest.mark.parametrize("num_cores", [2, 8])
def test_kernel_core_counts(monkeypatch, num_cores):
    bindings = _mix_bindings(("MIX1", "MIX2"))[:num_cores]
    _tagless_kernel_matches(monkeypatch, _config(num_cores), bindings)


@pytest.mark.parametrize("shared", [False, True],
                         ids=["private", "shared-address-space"])
def test_kernel_identical_traces_tie(monkeypatch, shared):
    """Every core replays the same trace from clock 0.0, so picks are
    exact ties settled by the first-minimum rule; a shared address space
    adds cross-core fills of one page (PU waits fall back)."""
    trace = _mix_bindings()[0].trace
    bindings = [BoundTrace(i, 0 if shared else i, trace) for i in range(4)]
    _tagless_kernel_matches(monkeypatch, _config(), bindings)


@pytest.mark.parametrize("replacement", ["lru", "clock"])
def test_kernel_touch_tracking_victim_policies(monkeypatch, replacement):
    _tagless_kernel_matches(monkeypatch, _config(replacement=replacement),
                            _mix_bindings())


def test_kernel_gipt_in_package(monkeypatch):
    _tagless_kernel_matches(monkeypatch, _config(gipt_in_package=True),
                            _mix_bindings())


def test_kernel_cross_core_evictions(monkeypatch):
    """320 cache pages (just above the 4 x 64-entry TLB reach) against
    ~500 pages of MIX1 footprint: fills evict pages other cores filled
    and touched, invalidating their on-die lines."""
    result = _tagless_kernel_matches(monkeypatch, _config(cache_megabytes=80),
                                     _mix_bindings())
    assert result.stats["engine_fq_evictions_completed"] > 0


def test_kernel_nc_pins_on_one_core(monkeypatch):
    """NC pages fall back to the scalar path in the middle of core 1's
    bursts while the other cores stay inline."""
    bindings = _mix_bindings()
    counts = bindings[1].trace.page_access_counts()
    hot = sorted(counts, key=counts.get, reverse=True)[:8]
    result = _tagless_kernel_matches(monkeypatch, _config(), bindings,
                                     non_cacheable={1: hot})
    assert result.stats["nc_accesses"] > 0


# A small machine (256 cache pages, 32-entry L2 TLBs, 16-set on-die
# caches) so drawn traces of a few hundred accesses reach fills,
# evictions and every TLB outcome.
_SMALL = {
    n: dataclasses.replace(default_system(cache_megabytes=512, num_cores=n,
                                          capacity_scale=512), tlb_scale=32)
    for n in range(1, 5)
}


def _trace(pages, lines):
    n = len(pages)
    return AccessTrace(
        name="unit",
        virtual_pages=np.array(pages, dtype=np.int64),
        lines=np.array(lines, dtype=np.int16),
        writes=np.zeros(n, dtype=bool),
        instruction_gaps=np.zeros(n, dtype=np.int64),
    )


def qos_numbers(qos):
    """Every attributed number of a QoS map, raw histogram included."""
    if qos is None:
        return None
    return {
        tenant: (q.instructions, q.cycles, q.l3_accesses,
                 list(q.demand_latency.buckets), q.demand_latency.count,
                 q.demand_latency.total, q.demand_latency.min,
                 q.demand_latency.max)
        for tenant, q in qos.items()
    }


def _replay_outcome(design, cores, tenants=None, **replay_kwargs):
    """``(per-core numbers, stats, switch stats, QoS numbers, resize
    ledger)`` of one ``replay``; ``tenants`` lists the tenant ids of an
    attributed run."""
    qos = (None if tenants is None
           else {t: TenantQoS(t, "unit", 0, 0) for t in tenants})
    results, switch_stats = replay(design, cores, qos=qos, **replay_kwargs)
    return ([(r.core_id, r.instructions, r.cycles, r.stall_cycles)
             for r in results], design.stats(), switch_stats,
            qos_numbers(qos), getattr(design, "resize_log", None))


def _kernel_and_reference_replays(make_design, cores, tenants=None,
                                  **replay_kwargs):
    """``replay`` through the kernel and the reference loop, each on a
    design from ``make_design()``: one :func:`_replay_outcome` each."""
    return [_replay_outcome(make_design(), cores, tenants, _kernel=kernel,
                            **replay_kwargs)
            for kernel in (_run_kernel, None)]


def _double_allocation(engine):
    """A live cache page at the head of the free pool."""
    engine.free_queue._free.appendleft(next(iter(engine.gipt._entries)))


def _resident_at_eviction(engine):
    """A TLB-resident page queued for eviction ahead of the next
    victim, and a pool the next fill leaves short of alpha."""
    free_queue = engine.free_queue
    free_queue._pending.append(next(
        ca for ca, g in engine.gipt._entries.items() if g.residence_mask))
    while len(free_queue._free) > free_queue.alpha:
        free_queue._free.pop()


def _exhausted_pool(engine):
    """No free block, and a residence bit no TLB clears on every cached
    page: the synchronous eviction finds no victim."""
    engine.free_queue._free.clear()
    for g in engine.gipt._entries.values():
        g.residence_mask |= 2


@pytest.mark.parametrize("corrupt,message", [
    (_double_allocation, "double allocation"),
    (_resident_at_eviction, "while TLB-resident"),
    (_exhausted_pool, "found no free block"),
], ids=["double-allocation", "resident-at-eviction", "exhausted-pool"])
def test_kernel_fill_raises_as_the_reference_does(corrupt, message):
    """The kernel's fill writes out ``FreeQueue.allocate`` and
    ``GIPT.insert``, and the engine's drain ``GIPT.remove``; where one
    of their checks fails, the helper itself is called and raises the
    reference loop's error, word for word."""
    raised = []
    for kernel in (_run_kernel, None):
        design = create_design("tagless", _SMALL[1])
        # 100 fills: the last 32 pages stay in the L2 TLB (resident),
        # the first 68 are evictable.
        pages = list(range(100))
        replay(design, [(0, "warm", [(None, 0, _trace(pages, [0] * 100))])],
               _kernel=kernel)
        corrupt(design.engine)
        with pytest.raises(SimulationError, match=message) as info:
            replay(design, [(0, "fill", [(None, 0, _trace([1000], [0]))])],
                   _kernel=kernel)
        raised.append(str(info.value))
    assert raised[0] == raised[1]


def test_kernel_clock_tie_goes_to_the_earlier_core():
    """Core 1 catches up with core 0's clock exactly (one zero-stall
    on-die hit each, 0.5 cycles), so the next pick is core 0: its DRAM
    access to the shared page goes first and core 1 queues behind it."""
    def warmed():
        design = create_design("tagless", _SMALL[2])
        for core in (0, 1):  # page 7 cached, in both TLBs, line 0 on-die
            replay(design, [(core, "warm", [(None, 0, _trace([7], [0]))])])
        return design

    cores = [(core, "tie", [(None, 0, _trace([7, 7], [0, 1]))])
             for core in (0, 1)]
    kernel, reference = _kernel_and_reference_replays(warmed, cores)
    assert kernel == reference
    (_, _, _, stall0), (_, _, _, stall1) = reference[0]
    assert stall1 > stall0


def test_kernel_translates_afresh_after_a_tenant_switch():
    """Tenant A's segment ends on virtual page 3 and tenant B's (another
    address space) starts on it: after the TLB flush the kernel must not
    reuse A's cached translation."""
    cores = [(0, "switch", [("A", 0, _trace([1, 2, 3], [0, 0, 0])),
                            ("B", 1, _trace([3, 3, 4], [0, 1, 0]))])]
    kernel, reference = _kernel_and_reference_replays(
        lambda: create_design("tagless", _SMALL[1]), cores,
        switch_cycles=50.0, flush_tlb=True)
    assert kernel == reference
    assert reference[1]["engine_fills"] == 5


#: Tenant ids the drawn segments use.
_TENANTS = range(4)


@st.composite
def _drawn_cores(draw):
    """1-4 cores, each with 1-3 segments of 0-200 accesses over a small
    footprint, a drawn write share and instruction gaps that include 0.
    Each segment belongs to a drawn tenant in a drawn address space, so
    a tenant can run on several cores at once; the replay is attributed
    to the tenants or not, with drawn switch cost and TLB flushing."""
    num_cores = draw(st.integers(1, 4))
    cores = []
    for core in range(num_cores):
        segments = []
        for index in range(draw(st.integers(1, 3))):
            footprint = draw(st.integers(1, 400))
            n = draw(st.integers(0, 200))
            pages = draw(st.lists(st.integers(0, footprint - 1),
                                  min_size=n, max_size=n))
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            trace = AccessTrace(
                name=f"drawn{core}.{index}",
                virtual_pages=np.array(pages, dtype=np.int64),
                lines=rng.integers(0, 64, n).astype(np.int16),
                writes=(rng.random(n)
                        < draw(st.sampled_from([0.0, 0.3, 1.0]))),
                instruction_gaps=rng.integers(
                    0, draw(st.integers(0, 40)) + 1, n).astype(np.int64),
                base_cpi=draw(st.sampled_from([0.25, 0.5, 1.0])),
                mlp=draw(st.sampled_from([1.0, 2.0, 3.5])),
            )
            segments.append((draw(st.sampled_from(_TENANTS)),
                             draw(st.integers(0, num_cores - 1)), trace))
        cores.append((core, f"drawn{core}", segments))
    tenants = _TENANTS if draw(st.booleans()) else None
    switch = dict(switch_cycles=draw(st.sampled_from([0.0, 50.0])),
                  flush_tlb=draw(st.booleans()))
    return cores, tenants, switch


@st.composite
def _drawn_resizes(draw, config, accesses):
    """A ``tagless-resizable`` capacity schedule for a run of
    ``accesses``: 0-4 events at access 1, inside the run or past its
    end, to the floor, to full capacity or between, with a drawn remap
    budget (0 included)."""
    design = create_design("tagless-resizable", config)
    floor = design.min_capacity_pages()
    capacity = design.engine.capacity_pages
    at = st.one_of(st.just(1), st.integers(1, max(accesses, 1)),
                   st.integers(accesses + 1, accesses + 100))
    target = st.one_of(st.just(floor), st.just(capacity),
                       st.integers(floor, capacity))
    events = draw(st.lists(st.tuples(at, target), max_size=4))
    return events, draw(st.sampled_from([0, 1, 8, 64]))


@st.composite
def _drawn_windows(draw):
    """A window recorder: access or cycle windows of a drawn width."""
    if draw(st.booleans()):
        return TimeseriesRecorder(draw(st.integers(1, 300)), "accesses")
    return TimeseriesRecorder(draw(st.integers(20, 5_000)), "cycles")


@st.composite
def _drawn_shape(draw, config):
    """``config`` with 1-6 channels per DRAM device and 1-24 L1 and
    1-96 L2 on-die sets, mostly not powers of two."""
    def ondie_bytes(level, sets):
        return (sets * level.associativity * level.line_bytes
                * config.ondie_scale)

    return MachineSpec(overrides={
        "in_package.channels": draw(st.integers(1, 6)),
        "off_package.channels": draw(st.integers(1, 6)),
        "l1.capacity_bytes": ondie_bytes(config.l1, draw(st.integers(1, 24))),
        "l2.capacity_bytes": ondie_bytes(config.l2, draw(st.integers(1, 96))),
    }).resolve(config)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(drawn=_drawn_cores(), data=st.data())
def test_kernel_equals_reference_on_drawn_traces(drawn, data):
    """The kernel equals the reference loop on drawn segment lists, on
    a drawn machine shape (:func:`_drawn_shape`) and a drawn design:
    ``tagless-resizable`` with a drawn resize schedule,
    either tagless design with 0-60 drawn pages pinned NC; and again
    with invariant sweeps every 1-200 accesses and drawn telemetry
    windows, which the kernel stops for: same sweeps, same windows, the
    numbers of the unvalidated run.

    The examples depend on which test modules are collected: Hypothesis
    (6.155) also draws literal constants gathered from the loaded
    modules, so this file run alone draws other examples than the whole
    suite does.  Reproduce a failure with ``pytest tests -k
    drawn_traces``."""
    cores, tenants, switch = drawn
    config = data.draw(_drawn_shape(_SMALL[len(cores)]), label="shape")
    accesses = sum(len(trace) for _, _, segments in cores
                   for _, _, trace in segments)
    name = data.draw(st.sampled_from(ALL_DESIGN_NAMES), label="design")
    schedule, max_remap, pins = (), 0, []
    if name == "tagless-resizable":
        schedule, max_remap = data.draw(_drawn_resizes(config, accesses),
                                        label="resizes")
    period = data.draw(st.integers(1, 200), label="check period")
    windows = data.draw(_drawn_windows(), label="windows")
    if name.startswith("tagless"):
        # The count is drawn first: a plain list draw stays at 0-1 pins
        # in most examples, and then hardly any access meets a pinned
        # page.
        count = data.draw(st.integers(0, 60), label="NC pin count")
        pins = data.draw(
            st.lists(st.tuples(st.integers(0, len(cores) - 1),
                               st.integers(0, 399)),
                     min_size=count, max_size=count),
            label="NC pins")

    def make_design():
        design = create_design(name, config)
        for process_id, virtual_page in pins:
            design.set_non_cacheable(process_id, virtual_page)
        if schedule:
            design.set_resize_schedule(schedule,
                                       max_remap_per_resize=max_remap)
        return design

    kernel, reference = _kernel_and_reference_replays(
        make_design, cores, tenants, **switch)
    assert kernel == reference
    validated = []
    for path in (_run_kernel, None):
        design = make_design()
        checker = InvariantChecker(design, every=period)
        checker.install()
        recorder = copy.deepcopy(windows)
        recorder.install(design)
        assert select_kernel(design) is _run_kernel
        outcome = _replay_outcome(design, cores, tenants, _kernel=path,
                                  **switch)
        recorder.finalize()
        checker.run_checks()
        validated.append((outcome, checker.sweeps, recorder.columns))
    assert validated[0] == validated[1]
    assert validated[0][0] == kernel
    assert validated[0][1] == accesses // period + 1


#: Machine shapes whose set or channel counts are not powers of two.
#: On the small machine: 6 in-package and 3 off-package channels;
#: 42 L1 and 682 L2 sets at ``ondie_scale=3``; 96 sets in a 768 KB L2.
_ODD_SHAPES = {
    "channels-6-3": {"in_package.channels": 6, "off_package.channels": 3},
    "ondie-scale-3": {"ondie_scale": 3},
    "l2-768k": {"l2.capacity_bytes": 768 * 1024},
}


@pytest.mark.parametrize("shape", _ODD_SHAPES)
@pytest.mark.parametrize("design_name", ALL_DESIGN_NAMES)
def test_kernel_replays_odd_machine_shapes(design_name, shape):
    """Set and channel counts that are not powers of two replay on the
    kernel, with the reference loop's numbers: 1-core ``mcf``, then
    6,000 half-written lines, more than the on-die L2 holds but at
    ``ondie_scale=3`` (dirty victims to route), and 4-core ``MIX1``
    attributed to two tenants (with a shrink and a regrow for
    ``tagless-resizable``)."""
    spec = MachineSpec(overrides=_ODD_SHAPES[shape])
    mcf = TraceGenerator(spec_profile("mcf"), capacity_scale=512)
    rng = np.random.default_rng(5)
    scatter = AccessTrace(
        name="scatter",
        virtual_pages=rng.integers(0, 192, 6_000),
        lines=rng.integers(0, 64, 6_000).astype(np.int16),
        writes=rng.random(6_000) < 0.5,
        instruction_gaps=np.zeros(6_000, dtype=np.int64),
    )
    mix = mix_traces("MIX1", accesses_per_program=600, capacity_scale=512)
    runs = [
        (1, [(0, "mcf", [(None, 0, mcf.generate(2_000)),
                         (None, 0, scatter)])], None),
        (4, [(core, trace.name, [(core % 2, core, trace)])
             for core, trace in enumerate(mix)], (0, 1)),
    ]
    for num_cores, cores, tenants in runs:
        config = spec.resolve(_SMALL[num_cores])

        def make_design():
            design = create_design(design_name, config)
            if tenants and design_name == "tagless-resizable":
                design.set_resize_schedule(
                    [(600, design.min_capacity_pages()), (1_500, 1.0)])
            return design

        assert select_kernel(make_design()) is _run_kernel
        kernel, reference = _kernel_and_reference_replays(
            make_design, cores, tenants)
        assert kernel == reference
        if tenants is None:
            if shape != "ondie-scale-3":
                assert reference[1]["core0_ondie_writebacks"] > 0
        elif design_name == "tagless-resizable":
            assert len(reference[4]) == 2


@pytest.mark.parametrize("design_name", [
    name for name in ALL_DESIGN_NAMES if not name.startswith("tagless")])
def test_comparator_replays_a_superpage_on_the_kernel(design_name):
    """Pages 64-127 are one superpage: a TLB miss inside it calls the
    design's own ``_refill_tlb``, which offsets the frame into the
    contiguous run; the kernel walks every other page inline.  Half the
    accesses write, over more lines than the on-die L2 holds, so dirty
    victims go through the design's write-back routing."""
    def mapped():
        design = create_design(design_name, _SMALL[1])
        design.page_table(0).map_superpage(64, 6)
        return design

    rng = np.random.default_rng(3)
    trace = AccessTrace(
        name="superpage",
        virtual_pages=rng.integers(0, 192, 8_000),
        lines=rng.integers(0, 64, 8_000).astype(np.int16),
        writes=rng.random(8_000) < 0.5,
        instruction_gaps=np.zeros(8_000, dtype=np.int64),
    )
    cores = [(0, "superpage", [(None, 0, trace)])]
    assert select_kernel(mapped()) is _run_kernel
    kernel, reference = _kernel_and_reference_replays(mapped, cores)
    assert kernel == reference
    assert reference[1]["core0_tlb_misses"] > 64
    assert reference[1]["core0_ondie_writebacks"] > 0


def _cpi_trace(name, n, gap, cpi):
    """``n`` accesses over 8 pages, each after ``gap`` instructions."""
    return AccessTrace(
        name=name,
        virtual_pages=np.arange(n, dtype=np.int64) % 8,
        lines=np.arange(n, dtype=np.int16) % 64,
        writes=np.zeros(n, dtype=bool),
        instruction_gaps=np.full(n, gap, dtype=np.int64),
        base_cpi=cpi,
    )


def test_every_segment_retires_at_its_own_cpi():
    """One tenant runs two segments, at CPI 1.0 and then 0.5.  The core
    retunes at every segment, not only at a tenant change, so each of
    the second segment's 500 instructions retires in 0.5 cycles, in the
    kernel as in the reference loop."""
    cores = [(0, "cpi", [("A", 0, _cpi_trace("first", 50, 9, 1.0)),
                         ("A", 0, _cpi_trace("second", 50, 9, 0.5))])]
    kernel, reference = _kernel_and_reference_replays(
        lambda: create_design("tagless", _SMALL[1]), cores)
    assert kernel == reference
    [(_, instructions, cycles, stall_cycles)] = reference[0]
    assert instructions == 1000
    assert cycles - stall_cycles == pytest.approx(500 * 1.0 + 500 * 0.5)


def test_kernel_stops_for_cycle_windows_across_a_cpi_change():
    """One tenant runs two traces, the second at CPI 0.25 after the
    first at 1.0.  The kernel's clock stop bounds each trace's gaps by
    that trace's own CPI; a bound below the CPI the core runs at would
    let the kernel run accesses past window boundaries that the
    reference loop closes the windows at."""
    cores = [(0, "cpi", [("A", 0, _cpi_trace("first", 4, 0, 1.0)),
                         ("A", 0, _cpi_trace("second", 200, 40, 0.25))])]
    observed = []
    for path in (_run_kernel, None):
        design = create_design("tagless", _SMALL[1])
        recorder = TimeseriesRecorder(100, "cycles")
        recorder.install(design)
        outcome = _replay_outcome(design, cores, _kernel=path)
        recorder.finalize()
        observed.append((outcome, recorder.columns))
    assert observed[0] == observed[1]
    assert len(observed[1][1]["t_ns"]) == 49


def test_kernel_forgets_the_page_after_a_fallback():
    """An NC access (scalar fallback) between two accesses to page 100
    makes the NC page the most recent TLB entry, so the second access to
    100 must move it back to the MRU end: 31 new pages later the 32-entry
    TLBs evict the NC page, not page 100."""
    def pinned():
        design = create_design("tagless", _SMALL[1])
        design.set_non_cacheable(0, 200)
        return design

    pages = [100, 200, 100] + list(range(1, 32)) + [100]
    cores = [(0, "nc", [(None, 0, _trace(pages, [0] * len(pages)))])]
    kernel, reference = _kernel_and_reference_replays(pinned, cores)
    assert kernel == reference
    assert reference[1]["core0_tlb_misses"] == 33
