"""Replay paths: the fused kernel is bit-identical to the reference loop.

``Simulator.run`` replays through
:func:`repro.cpu.batched.run_interleaved_batched`, which runs the fused
tagless kernel where it applies and the reference loop
(:func:`repro.cpu.multicore.run_interleaved`) everywhere else.  These
tests rerun each point with the simulator's replay swapped for the
reference loop and compare the *entire* observable output -- the stats
dictionary (exact ``==`` on every float), the energy breakdown, and the
per-core instruction/cycle/stall counts -- for every registered design,
single- and quad-core.  The golden-stats oracle additionally locks the
production path against checked-in numbers.
"""

import gc

import pytest

import repro.cpu.simulator as simulator_module
from repro.common.config import default_system
from repro.cpu.batched import select_kernel
from repro.cpu.multicore import BoundTrace, run_interleaved
from repro.cpu.simulator import Simulator
from repro.designs.registry import ALL_DESIGN_NAMES, create_design
from repro.validate.invariants import InvariantChecker
from repro.workloads.generator import TraceGenerator
from repro.workloads.mixes import mix_traces
from repro.workloads.spec import spec_profile

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


def _kernel_and_reference(monkeypatch, simulator, design, bindings):
    kernel = simulator.run(design, bindings)
    monkeypatch.setattr(simulator_module, "run_interleaved_batched",
                        run_interleaved)
    reference = simulator.run(design, bindings)
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
    kernel = select_kernel(_fresh(design))
    if design == "tagless":
        assert kernel is not None
    else:
        assert kernel is None


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
    """A span tracer wraps ``access_cycles`` on the base class and on
    every overriding subclass; kernel selection must not change."""
    import functools

    from repro.designs.base import MemorySystemDesign
    from repro.designs.tagless_resizable import TaglessResizableDesign

    for cls in (MemorySystemDesign, TaglessResizableDesign):
        inner = cls.__dict__["access_cycles"]
        monkeypatch.setattr(cls, "access_cycles",
                            functools.wraps(inner)(
                                lambda self, *a, _f=inner: _f(self, *a)))
    assert select_kernel(_fresh("tagless")) is not None
    assert select_kernel(_fresh("tagless-resizable")) is None


def test_installed_checker_stands_the_kernel_down():
    design = _fresh("tagless")
    assert select_kernel(design) is not None
    checker = InvariantChecker(design, every=1024)
    checker.install()
    assert select_kernel(design) is None
    checker.uninstall()
    assert select_kernel(design) is not None


def test_observed_batched_run_stays_identical():
    """Validation hooks force the reference loop -- results unchanged."""
    simulator = Simulator(default_system(cache_megabytes=256, num_cores=1,
                                         capacity_scale=64))
    bindings = _single_core_bindings()
    plain = simulator.run("tagless", bindings)
    validated = simulator.run("tagless", bindings, validate=True)
    assert _snapshot(plain) == _snapshot(validated)
