"""SRAM-tag baseline design behaviour."""

import pytest

from repro.designs import create_design


def touch_page(design, vpn, lines=4, now=0.0, write=False, core=0, proc=0):
    costs = []
    for line in range(lines):
        costs.append(design.access(core, proc, vpn, line, write, now))
        now += 50.0
    return costs


@pytest.fixture
def design(small_config):
    return create_design("sram", small_config)


def test_first_touch_misses_then_hits(design):
    costs = touch_page(design, vpn=1, lines=4)
    assert design.l3_misses == 1
    assert design.l3_hits >= 1  # subsequent lines hit the filled page


def test_tag_probe_on_every_l3_access(design):
    touch_page(design, vpn=1)
    touch_page(design, vpn=2, now=1000.0)
    assert design.tags.probes == design.l3_accesses


def test_fill_reads_full_page_off_package(design):
    touch_page(design, vpn=1)
    assert design.off_package.energy.read_bytes >= 4096
    assert design.in_package.energy.write_bytes >= 4096  # lay-in


def test_hits_served_in_package(design):
    touch_page(design, vpn=1)
    before = design.in_package.demand_accesses
    design.access(0, 0, 1, 60, False, 5000.0)
    assert design.in_package.demand_accesses == before + 1


def test_tag_latency_on_hit_path(design, small_config):
    touch_page(design, vpn=1)
    cost = design.access(0, 0, 1, 63, False, 9000.0)
    # The access reached L3: it must include at least the Table 6 probe.
    assert cost.l3_involved
    assert cost.l3_cycles >= design.tags.access_cycles


def test_eviction_writes_back_dirty_page(design, small_config):
    capacity = small_config.cache_pages
    # Dirty one page, then stream enough pages through its set to evict.
    victim_vpn = 0
    touch_page(design, victim_vpn, write=True)
    before = design.off_package.energy.write_bytes
    for vpn in range(1, capacity * 2 + 1):
        touch_page(design, vpn, lines=1, now=vpn * 2000.0)
    assert design.l3_writebacks >= 1
    assert design.off_package.energy.write_bytes >= before + 4096


def test_energy_hooks_nonzero(design):
    touch_page(design, vpn=1)
    assert design.leakage_watts() > 0
    assert design.probe_energy_nj() > 0


def test_stats_include_tags(design):
    touch_page(design, vpn=1)
    stats = design.stats()
    assert stats["l3_misses"] == 1.0
    assert stats["tags_probes"] >= 1.0


def test_hit_rate(design):
    assert design.hit_rate() == 0.0
    touch_page(design, vpn=1, lines=8)
    assert 0.0 < design.hit_rate() < 1.0
