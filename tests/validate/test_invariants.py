"""Invariant-checker tests: env gating, sweep plumbing, mutation kills.

The mutation tests are the teeth of the subsystem: they corrupt a live
design the way a real hot-path bug would (leak a resident page into the
free pool, dangle a cTLB translation) and assert the checker notices.
A checker that passes corrupted state is worse than no checker.
"""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.cpu.multicore import BoundTrace, replay
from repro.cpu.simulator import Simulator
from repro.designs.registry import ALL_DESIGN_NAMES, create_design
from repro.validate.invariants import (
    DEFAULT_CHECK_EVERY,
    ENV_ENABLE,
    ENV_EVERY,
    InvariantChecker,
    InvariantViolation,
    check_interval,
    validation_enabled,
)


# ----------------------------------------------------------------------
# Environment gating
# ----------------------------------------------------------------------
class TestEnvGating:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_ENABLE, raising=False)
        assert validation_enabled() is False
        assert validation_enabled(default=True) is True

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "anything"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_ENABLE, value)
        assert validation_enabled() is True

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", " OFF "])
    def test_falsey_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_ENABLE, value)
        assert validation_enabled() is False

    def test_interval_default(self, monkeypatch):
        monkeypatch.delenv(ENV_EVERY, raising=False)
        assert check_interval() == DEFAULT_CHECK_EVERY
        assert check_interval(default=7) == 7

    def test_interval_parses(self, monkeypatch):
        monkeypatch.setenv(ENV_EVERY, "256")
        assert check_interval() == 256

    @pytest.mark.parametrize("value", ["zero", "1.5"])
    def test_interval_rejects_non_integers(self, monkeypatch, value):
        monkeypatch.setenv(ENV_EVERY, value)
        with pytest.raises(ConfigurationError):
            check_interval()

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_interval_rejects_non_positive(self, monkeypatch, value):
        monkeypatch.setenv(ENV_EVERY, value)
        with pytest.raises(ConfigurationError):
            check_interval()


# ----------------------------------------------------------------------
# Checker mechanics
# ----------------------------------------------------------------------
def drive(design, trace, accesses=None, start_ns=0.0):
    """Replay ``accesses`` references of a trace straight into a design."""
    n = len(trace) if accesses is None else min(accesses, len(trace))
    now = start_ns
    for i in range(n):
        cycles = design.access_cycles(
            0, 0, int(trace.virtual_pages[i]), int(trace.lines[i]),
            bool(trace.writes[i]), now,
        )
        now += (cycles + int(trace.instruction_gaps[i])) * 0.5
    return now


def test_rejects_bad_interval(small_config):
    design = create_design("no-l3", small_config)
    with pytest.raises(ValueError):
        InvariantChecker(design, every=0)


def test_designs_register_checks(small_config):
    for name in ALL_DESIGN_NAMES:
        checker = InvariantChecker(create_design(name, small_config))
        assert checker.checks, f"{name} registered no invariants"
        checker.run_checks()  # fresh state must pass
        assert checker.sweeps == 1


def test_violation_names_design_and_check(small_config):
    design = create_design("no-l3", small_config)
    checker = InvariantChecker(design)

    def broken():
        raise SimulationError("the sky is falling")

    checker.register("sky", broken)
    with pytest.raises(InvariantViolation, match=r"\[no-l3\] sky: the sky"):
        checker.run_checks()


def _replay(design, trace):
    replay(design, [(0, "unit", [(None, 0, trace)])])


def test_install_sweeps_every_n_accesses(small_config, tiny_trace):
    design = create_design("tagless", small_config)
    _replay(design, tiny_trace.head(50))  # before install: not counted
    checker = InvariantChecker(design, every=100)
    checker.install()
    _replay(design, tiny_trace.head(1000))
    assert checker.sweeps == 10
    checker.uninstall()
    # Uninstalled: further replays no longer sweep.
    _replay(design, tiny_trace.head(200))
    assert checker.sweeps == 10
    assert design.boundaries == []
    assert "access_cycles" not in vars(design)


def test_install_is_idempotent(small_config):
    design = create_design("no-l3", small_config)
    checker = InvariantChecker(design, every=10)
    checker.install()
    checker.install()  # must not register twice
    assert design.boundaries == [checker]
    checker.uninstall()
    checker.uninstall()  # no-op on a clean design
    assert design.boundaries == []


# ----------------------------------------------------------------------
# Mutation tests: corrupted state must be caught
# ----------------------------------------------------------------------
@pytest.fixture
def warm_tagless(small_config, tiny_trace):
    """A tagless design after enough traffic to fill the small cache."""
    design = create_design("tagless", small_config)
    checker = InvariantChecker(design)
    drive(design, tiny_trace)
    checker.run_checks()  # sanity: uncorrupted state passes
    return design, checker


def test_catches_resident_page_leaked_to_free_pool(warm_tagless):
    design, checker = warm_tagless
    live_page = next(iter(design.engine.gipt._entries))
    design.engine.free_queue._free.append(live_page)
    with pytest.raises(InvariantViolation):
        checker.run_checks()


def test_catches_duplicate_free_block(warm_tagless):
    design, checker = warm_tagless
    free = design.engine.free_queue._free
    free.append(free[0])
    with pytest.raises(InvariantViolation):
        checker.run_checks()


def test_catches_dangling_ctlb_translation(warm_tagless):
    design, checker = warm_tagless
    tlb = design.tlbs[0]
    entry = next(e for e in tlb.l2._map.values() if not e.non_cacheable)
    # Point the translation at a recycled (free) cache page.
    entry.target_page = design.engine.free_queue.free_pages()[0]
    with pytest.raises(InvariantViolation, match="ctlb_residence"):
        checker.run_checks()


@pytest.mark.parametrize("mask", ["touched_cores", "touched_mask"])
def test_catches_ondie_line_the_purge_would_miss(warm_tagless, mask):
    design, checker = warm_tagless
    gipt = design.engine.gipt._entries
    line = next(line for line in design.ondie[0].l1 if line // 64 in gipt)
    entry = gipt[line // 64]
    bit = 1 if mask == "touched_cores" else 1 << (line % 64)
    setattr(entry, mask, getattr(entry, mask) & ~bit)
    with pytest.raises(InvariantViolation, match="ondie_keys_live"):
        checker.run_checks()


def test_catches_tlb_inclusion_break(small_config, tiny_trace):
    design = create_design("no-l3", small_config)
    checker = InvariantChecker(design)
    drive(design, tiny_trace)
    l1 = design.tlbs[0].l1
    stray = max(l1._map) + 1 if l1._map else 1
    l2_entry = next(iter(design.tlbs[0].l2._map.values()))
    l1._map[stray] = l2_entry
    with pytest.raises(InvariantViolation, match="tlb_inclusion"):
        checker.run_checks()


# ----------------------------------------------------------------------
# Golden invariance: checks observe, never mutate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("design", ["tagless", "sram"])
def test_validated_run_is_bit_identical(small_config, tiny_trace, design):
    bindings = [BoundTrace(0, 0, tiny_trace)]
    plain = Simulator(small_config).run(design, bindings, validate=False)
    checked = Simulator(small_config).run(design, bindings, validate=True,
                                          validate_every=256)
    assert checked.stats == plain.stats
    assert checked.ipc_sum == plain.ipc_sum
    assert checked.elapsed_ns == plain.elapsed_ns


def test_env_variable_turns_validation_on(monkeypatch, small_config,
                                          tiny_trace):
    monkeypatch.setenv(ENV_ENABLE, "1")
    monkeypatch.setenv(ENV_EVERY, "512")
    bindings = [BoundTrace(0, 0, tiny_trace)]
    result = Simulator(small_config).run("tagless", bindings)
    baseline = Simulator(small_config).run("tagless", bindings,
                                           validate=False)
    assert result.stats == baseline.stats
