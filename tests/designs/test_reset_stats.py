"""reset_stats audit: counters clear, cached state stays warm.

The warmup/measurement boundary calls ``reset_stats()``; a counter a
design forgets to clear silently inflates every warmed measurement.
These tests sweep the whole registry so a new design (or a new counter
on an old one) cannot dodge the audit.
"""

import pytest

from repro.designs.registry import ALL_DESIGN_NAMES, create_design

#: Stats that survive a reset by design: they are gauges describing
#: current structural state (cache occupancy, free pool, GIPT size),
#: not accumulated event counts.
GAUGE_SUFFIXES = (
    "occupancy",
    "resident_pages",
    "free_blocks",
    "live_entries",
    "storage_bytes",
)


def drive(design, trace, start_ns=0.0):
    now = start_ns
    for i in range(len(trace)):
        cycles = design.access_cycles(
            0, 0, int(trace.virtual_pages[i]), int(trace.lines[i]),
            bool(trace.writes[i]), now,
        )
        now += (cycles + int(trace.instruction_gaps[i])) * 0.5
    return now


@pytest.mark.parametrize("name", ALL_DESIGN_NAMES)
def test_reset_clears_every_counter(small_config, tiny_trace, name):
    design = create_design(name, small_config)
    drive(design, tiny_trace)
    assert design.stats()["accesses"] > 0
    design.reset_stats()
    leftovers = {
        key: value for key, value in design.stats().items()
        if value != 0 and not key.endswith(GAUGE_SUFFIXES)
    }
    assert not leftovers, f"{name}: counters survived reset: {leftovers}"
    assert design.mean_l3_latency_cycles() == 0.0


@pytest.mark.parametrize("name", ALL_DESIGN_NAMES)
def test_run_reset_run_is_deterministic(small_config, tiny_trace, name):
    """Two identically built designs through the same warmup/reset/measure
    sequence must report identical measured stats -- the property the
    simulator's warmup split relies on."""

    def measure():
        design = create_design(name, small_config)
        end = drive(design, tiny_trace)
        design.reset_stats()
        drive(design, tiny_trace, start_ns=end)
        return design.stats()

    assert measure() == measure()


def test_reset_keeps_cache_warm(small_config, tiny_trace):
    design = create_design("tagless", small_config)
    drive(design, tiny_trace)
    occupancy = len(design.engine.gipt._entries)
    fills_before = design.stats()["engine_fills"]
    assert fills_before > 0
    design.reset_stats()
    # Structural state untouched; counters back to zero.
    assert len(design.engine.gipt._entries) == occupancy
    assert design.stats()["engine_fills"] == 0.0

