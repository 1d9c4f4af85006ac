"""Channel occupancy / queuing model tests."""

import dataclasses

import pytest

from repro.common.config import default_system
from repro.dram.channel import ChannelScheduler
from repro.dram.device import DRAMDevice


def test_idle_channel_has_no_queue():
    sched = ChannelScheduler(1)
    assert sched.occupy(0, now_ns=100.0, busy_ns=10.0) == 0.0
    assert sched.free_at(0) == pytest.approx(110.0)


def test_busy_channel_queues():
    sched = ChannelScheduler(1)
    sched.occupy(0, 0.0, 50.0)
    queue = sched.occupy(0, 10.0, 5.0)
    assert queue == pytest.approx(40.0)
    assert sched.free_at(0) == pytest.approx(55.0)


def test_late_arrival_after_free_no_queue():
    sched = ChannelScheduler(1)
    sched.occupy(0, 0.0, 50.0)
    assert sched.occupy(0, 60.0, 5.0) == 0.0
    assert sched.free_at(0) == pytest.approx(65.0)


def test_background_delays_demand_by_at_most_preemption_window():
    sched = ChannelScheduler(1, preemption_ns=8.0)
    sched.occupy_background(0, 0.0, 100.0)
    assert sched.requests == 0
    assert sched.background_busy_ns == pytest.approx(100.0)
    # Demand preempts the in-flight background burst after 8 ns instead
    # of waiting out the full 100 ns stream.
    assert sched.occupy(0, 10.0, 5.0) == pytest.approx(8.0)


def test_background_queues_behind_background():
    sched = ChannelScheduler(1, preemption_ns=0.0)
    sched.occupy_background(0, 0.0, 100.0)
    sched.occupy_background(0, 50.0, 100.0)
    assert sched.background_until(0) == pytest.approx(200.0)


def test_demand_ignores_background_with_zero_preemption():
    sched = ChannelScheduler(1)
    sched.occupy_background(0, 0.0, 100.0)
    assert sched.occupy(0, 10.0, 5.0) == 0.0


def test_channels_are_independent():
    sched = ChannelScheduler(2)
    sched.occupy(0, 0.0, 100.0)
    assert sched.occupy(1, 0.0, 10.0) == 0.0


def test_channel_of_page_interleaves():
    """A verb on page ``p`` occupies channel ``p % num_channels``."""
    cfg = default_system()
    timing = dataclasses.replace(cfg.off_package, channels=3)
    for page in range(7):
        device = DRAMDevice(timing, cfg.off_package_energy)
        device.write_back_block(0.0, page)
        busy = [until > 0.0 for until in device.channels._bg_until_ns]
        assert busy == [channel == page % 3 for channel in range(3)]


def test_mean_queue(atol=1e-9):
    sched = ChannelScheduler(1)
    assert sched.mean_queue_ns() == 0.0
    sched.occupy(0, 0.0, 10.0)
    sched.occupy(0, 0.0, 10.0)  # waits 10
    assert sched.mean_queue_ns() == pytest.approx(5.0)


def test_reset():
    sched = ChannelScheduler(1)
    sched.occupy(0, 0.0, 10.0)
    sched.reset()
    assert sched.free_at(0) == 0.0
    assert sched.requests == 0
    assert sched.queue_ns_total == 0.0


def test_zero_channels_rejected():
    with pytest.raises(ValueError):
        ChannelScheduler(0)
