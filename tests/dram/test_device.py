"""DRAM device facade: latency composition, energy and accounting."""

import dataclasses

import pytest

from repro.common.addressing import PAGE_BYTES
from repro.common.config import default_system
from repro.dram.device import DRAMDevice


@pytest.fixture
def off_pkg():
    cfg = default_system()
    return DRAMDevice(cfg.off_package, cfg.off_package_energy)


@pytest.fixture
def in_pkg():
    cfg = default_system()
    return DRAMDevice(cfg.in_package, cfg.in_package_energy)


def test_block_access_closed_page_latency(off_pkg):
    t = off_pkg.timing
    expected = t.row_empty_ns(64) + t.controller_ns
    assert off_pkg.access_block(0.0, 5) == pytest.approx(expected)


def test_block_access_open_page_uses_row_state(off_pkg):
    first = off_pkg.access_block(0.0, 5, open_page=True)
    # Issue at a time the channel is free again to isolate service time.
    second = off_pkg.access_block(1000.0, 5, open_page=True)
    assert second < first  # row hit after activation


def test_in_package_faster_than_off_package(in_pkg, off_pkg):
    assert in_pkg.access_block(0.0, 1) < off_pkg.access_block(0.0, 1)


def test_fill_page_critical_block_first(off_pkg):
    t = off_pkg.timing
    latency = off_pkg.fill_page(0.0, 3)
    # Core waits ~ a block access, far less than the full page stream.
    assert latency == pytest.approx(t.row_empty_ns(64) + t.controller_ns)
    assert latency < t.transfer_ns(PAGE_BYTES)
    # But the channel is reserved for the whole page.
    assert off_pkg.channels.free_at(0) == pytest.approx(
        t.transfer_ns(PAGE_BYTES)
    )


def test_fill_page_charges_full_page_energy(off_pkg):
    off_pkg.fill_page(0.0, 3)
    assert off_pkg.energy.read_bytes == PAGE_BYTES
    assert off_pkg.energy.activations == 1


def test_stream_page_async_zero_latency_but_occupies(in_pkg):
    latency = in_pkg.stream_page(0.0, 2, is_write=True, asynchronous=True)
    assert latency == 0.0
    assert in_pkg.channels.background_until(0) > 0.0
    assert in_pkg.channels.background_busy_ns > 0.0
    assert in_pkg.energy.write_bytes == PAGE_BYTES
    assert in_pkg.demand_accesses == 0


def test_stream_page_sync_waits_for_whole_page(in_pkg):
    latency = in_pkg.stream_page(0.0, 2)
    assert latency >= in_pkg.timing.row_empty_ns(PAGE_BYTES)


def test_posted_write_returns_service_only(off_pkg):
    # Saturate the channel first; a posted write must not report queue.
    off_pkg.fill_page(0.0, 1)
    service = off_pkg.posted_write_block(1.0, 1)
    assert service < 100.0  # no 320 ns page-stream wait folded in
    assert off_pkg.energy.write_bytes == 64


def test_demand_accounting(off_pkg):
    off_pkg.access_block(0.0, 1)
    off_pkg.access_block(0.0, 2)
    assert off_pkg.demand_accesses == 2
    assert off_pkg.mean_demand_latency_ns() > 0


def test_queue_included_in_latency(off_pkg):
    first = off_pkg.fill_page(0.0, 1)
    second = off_pkg.access_block(0.0, 2)
    # The second access queues behind the 4 KB stream.
    assert second > first


def test_stats_keys(off_pkg):
    off_pkg.access_block(0.0, 1)
    stats = off_pkg.stats("off_")
    assert stats["off_demand_accesses"] == 1.0
    assert "off_dynamic_nj" in stats
    assert "off_queue_ns_total" in stats


def test_reset_stats_keeps_rows_clears_counters(off_pkg):
    off_pkg.access_block(0.0, 1, open_page=True)
    off_pkg.reset_stats()
    assert off_pkg.demand_accesses == 0
    assert off_pkg.channels.free_at(0) == 0.0
    # Row stays open: the next open-page access row-hits.
    latency = off_pkg.access_block(0.0, 1, open_page=True)
    assert latency == pytest.approx(
        off_pkg.timing.row_hit_ns(64) + off_pkg.timing.controller_ns
    )


def test_full_reset_clears_rows(off_pkg):
    off_pkg.access_block(0.0, 1, open_page=True)
    off_pkg.reset()
    latency = off_pkg.access_block(0.0, 1, open_page=True)
    assert latency == pytest.approx(
        off_pkg.timing.row_empty_ns(64) + off_pkg.timing.controller_ns
    )


# ----------------------------------------------------------------------
# Every verb against the composition it replaces
# ----------------------------------------------------------------------
# Each verb hoists its per-device constants (``access_block`` and
# ``write_back_block`` also inline the channel reservation and energy
# charge).  The references below are the general
# composition -- ``EnergyAccount.charge`` for the energy,
# ``timing.transfer_ns``/``row_empty_ns`` for the times, and the
# channel scheduler's ``max()``/``min()`` arithmetic for the
# reservation -- and the tests compare every float with ``==``.


def _device(num_channels):
    cfg = default_system()
    timing = dataclasses.replace(cfg.off_package, channels=num_channels)
    return DRAMDevice(timing, cfg.off_package_energy)


def _state(device):
    """Every channel, energy, bank and refresh field a verb can move."""
    ch = device.channels
    energy = device.energy
    banks = device.banks
    return (
        list(ch._free_at_ns), list(ch._bg_until_ns), ch.queue_ns_total,
        ch.requests, ch.demand_busy_ns, ch.background_busy_ns,
        energy.dynamic_nj, energy.read_bytes, energy.write_bytes,
        energy.activations, device.demand_accesses,
        device.demand_latency_ns, device.refreshes,
        device._next_refresh_ns, dict(banks._open_rows), banks.row_hits,
        banks.row_misses, banks.row_empties,
    )


def _ref_background(device, now_ns, page, num_bytes, activations,
                    is_write):
    ch = device.channels
    channel = page % ch.num_channels
    busy_ns = device.timing.transfer_ns(num_bytes)
    start = max(now_ns, ch._bg_until_ns[channel], ch._free_at_ns[channel])
    ch._bg_until_ns[channel] = start + busy_ns
    ch.background_busy_ns += busy_ns
    device.energy.charge(num_bytes, activations, is_write)


def _ref_demand(device, now_ns, page, num_bytes, activations, is_write,
                service_ns):
    ch = device.channels
    channel = page % ch.num_channels
    busy_ns = device.timing.transfer_ns(num_bytes)
    start = max(ch._free_at_ns[channel], now_ns)
    bg_until = ch._bg_until_ns[channel]
    if bg_until > start:
        start = min(bg_until, start + ch.preemption_ns)
    queue_ns = start - now_ns
    ch._free_at_ns[channel] = start + busy_ns
    ch.queue_ns_total += queue_ns
    ch.requests += 1
    ch.demand_busy_ns += busy_ns
    device.energy.charge(num_bytes, activations, is_write)
    latency = queue_ns + service_ns
    device.demand_accesses += 1
    device.demand_latency_ns += latency
    return latency


def ref_write_back_block(device, now_ns, page):
    _ref_background(device, now_ns, page, 64, 0, True)


def ref_stream_async(device, now_ns, page, is_write, num_bytes):
    device._catch_up_refresh(now_ns)
    _ref_background(device, now_ns, page, num_bytes, 1, is_write)
    return 0.0


def ref_stream_sync(device, now_ns, page, is_write, num_bytes):
    device._catch_up_refresh(now_ns)
    return _ref_demand(device, now_ns, page, num_bytes, 1, is_write,
                       device.timing.row_empty_ns(num_bytes))


def ref_fill_page(device, now_ns, page, num_bytes):
    device._catch_up_refresh(now_ns)
    t = device.timing
    return _ref_demand(device, now_ns, page, num_bytes, 1, False,
                       t.row_empty_ns(64) + t.controller_ns)


def ref_access_block(device, now_ns, page, is_write, open_page):
    device._catch_up_refresh(now_ns)
    t = device.timing
    if open_page:
        service_ns, activations = device.banks.access(page)
        service_ns += t.controller_ns
    else:
        service_ns, activations = t.row_empty_ns(64) + t.controller_ns, 1
    return _ref_demand(device, now_ns, page, 64, activations, is_write,
                       service_ns)


def ref_posted_write_block(device, now_ns, page, open_page):
    if open_page:
        service_ns, activations = device.banks.access(page)
    else:
        service_ns, activations = device.timing.row_empty_ns(64), 1
    _ref_background(device, now_ns, page, 64, activations, True)
    return service_ns


def _busy(device, now_ns, bg_ahead, free_ahead):
    """Put every channel's background and demand tails ahead of now."""
    ch = device.channels
    for channel in range(ch.num_channels):
        ch._bg_until_ns[channel] = now_ns + bg_ahead * (channel + 1)
        ch._free_at_ns[channel] = now_ns + free_ahead * (channel + 1)


#: (name, now_ns, background tail ahead, demand tail ahead).  The
#: refresh case issues at 2.5 tREFI: two refreshes fall due inside the
#: verb.
SCENARIOS = [
    ("idle", 100.0, 0.0, 0.0),
    ("bg_ahead", 100.0, 37.5, 0.0),
    ("free_ahead", 100.0, 0.0, 12.25),
    ("bg_then_free", 100.0, 90.0, 3.0),
    ("free_then_bg", 100.0, 2.5, 70.0),
    ("refresh_due", 19_500.0, 41.0, 7.0),
]

VERBS = [
    ("write_back_block",
     lambda d, now, page: d.write_back_block(now, page),
     lambda d, now, page: ref_write_back_block(d, now, page)),
]
for _size in (PAGE_BYTES, 1024, 192):
    for _write in (False, True):
        VERBS.append((
            f"stream_async_{_size}_{'w' if _write else 'r'}",
            lambda d, now, page, s=_size, w=_write: d.stream_page(
                now, page, is_write=w, asynchronous=True, num_bytes=s),
            lambda d, now, page, s=_size, w=_write: ref_stream_async(
                d, now, page, w, s),
        ))
    VERBS.append((
        f"stream_sync_{_size}",
        lambda d, now, page, s=_size: d.stream_page(
            now, page, is_write=True, num_bytes=s),
        lambda d, now, page, s=_size: ref_stream_sync(d, now, page, True, s),
    ))
    VERBS.append((
        f"fill_page_{_size}",
        lambda d, now, page, s=_size: d.fill_page(now, page, num_bytes=s),
        lambda d, now, page, s=_size: ref_fill_page(d, now, page, s),
    ))
for _open in (False, True):
    for _write in (False, True):
        VERBS.append((
            f"access_block_{'open' if _open else 'closed'}_"
            f"{'w' if _write else 'r'}",
            lambda d, now, page, o=_open, w=_write: d.access_block(
                now, page, w, open_page=o),
            lambda d, now, page, o=_open, w=_write: ref_access_block(
                d, now, page, w, o),
        ))
    VERBS.append((
        f"posted_write_block_{'open' if _open else 'closed'}",
        lambda d, now, page, o=_open: d.posted_write_block(
            now, page, open_page=o),
        lambda d, now, page, o=_open: ref_posted_write_block(
            d, now, page, o),
    ))


@pytest.mark.parametrize("num_channels", [1, 2, 3])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s[0] for s in SCENARIOS])
@pytest.mark.parametrize("verb", VERBS, ids=[v[0] for v in VERBS])
def test_verb_matches_the_composition_it_replaces(num_channels, scenario,
                                                   verb):
    _, now_ns, bg_ahead, free_ahead = scenario
    _, call, reference = verb
    device, expected = _device(num_channels), _device(num_channels)
    for d in (device, expected):
        _busy(d, now_ns, bg_ahead, free_ahead)
    # Pages 0..6 cover every channel twice (and repeat banks/rows),
    # issued a little apart so each call sees the previous one's tails.
    for step, page in enumerate((0, 1, 2, 3, 4, 5, 0)):
        now = now_ns + 1.5 * step
        got = call(device, now, page)
        want = reference(expected, now, page)
        assert got == want
        assert _state(device) == _state(expected)
    if scenario[0] == "refresh_due" and verb[0] not in (
            "write_back_block", "posted_write_block_open",
            "posted_write_block_closed"):
        assert device.refreshes == 2


def test_write_back_block_catches_up_no_refresh():
    """A background write activates no row and leaves refresh alone."""
    device = _device(1)
    device.write_back_block(3 * device.timing.trefi_ns, 0)
    assert device.refreshes == 0
    assert device.demand_accesses == 0
    assert device.energy.activations == 0


@pytest.mark.parametrize("num_bytes", [0, 32, PAGE_BYTES + 64])
def test_page_verbs_reject_sizes_outside_a_page(off_pkg, num_bytes):
    with pytest.raises(ValueError, match="fill size"):
        off_pkg.fill_page(0.0, 1, num_bytes=num_bytes)
    with pytest.raises(ValueError, match="stream size"):
        off_pkg.stream_page(0.0, 1, asynchronous=True, num_bytes=num_bytes)
    fresh = DRAMDevice(off_pkg.timing, off_pkg.energy.config)
    assert _state(off_pkg) == _state(fresh)
