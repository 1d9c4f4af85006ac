"""Lock the reporting schema of every design.

``SimulationResult.stats`` and the timeseries artifacts are consumed by
key and by column position (golden oracle, benchmark digests, JSONL/CSV
headers), so the *order* of a design's ``stats()`` keys and of its
``timeseries_probe()`` counter and gauge names is part of its interface.
These tests pin both, per design, on a two-core machine so the per-core
blocks are pinned too.
"""

import dataclasses

import pytest

from repro.common.config import default_system
from repro.designs.registry import ALL_DESIGN_NAMES, create_design

CORES = 2


def per_core(component, names):
    """Core-major per-core keys: every core's block, core 0 first."""
    return [f"core{core}_{component}_{name}"
            for core in range(CORES) for name in names]


def device(prefix):
    return [prefix + name for name in (
        "demand_accesses", "demand_latency_ns", "row_hits", "row_misses",
        "row_empties", "queue_ns_total", "refreshes", "dynamic_nj",
        "read_bytes", "write_bytes", "activations",
    )]


SHARED_STATS = (
    ["accesses", "l3_accesses", "l3_latency_cycles"]
    + per_core("tlb", ["l1_hits", "l2_hits", "misses"])
    + per_core("ondie", ["l1_hits", "l2_hits", "misses", "writebacks"])
    + device("inpkg_")
    + device("offpkg_")
    + ["walker_walks", "walker_cycles_total"]
)

TAGLESS_STATS = (
    ["nc_accesses", "cache_accesses"]
    + ["engine_" + name for name in (
        "fills", "fill_latency_ns", "victim_hits", "writebacks",
        "alpha_deficits", "footprint_misses", "occupancy",
        "gipt_inserts", "gipt_removals", "gipt_residence_updates",
        "gipt_live_entries", "gipt_storage_bytes",
        "fq_allocations", "fq_evictions_enqueued", "fq_evictions_completed",
        "fq_free_blocks", "fq_pending",
    )]
    + per_core("handler", [
        "non_cacheable", "victim_hit", "fill", "pu_wait", "bypass",
        "cycles_total", "superpage_splits", "superpage_nc_pins",
    ])
)

L3_TRIPLET = ["l3_hits", "l3_misses", "l3_writebacks"]

STATS_KEYS = {
    "no-l3": SHARED_STATS,
    "bi": SHARED_STATS + ["in_package_hits"],
    "sram": SHARED_STATS + L3_TRIPLET + [
        "tags_probes", "tags_hits", "tags_resident_pages",
        "tags_probe_energy_nj",
    ],
    "tagless": SHARED_STATS + TAGLESS_STATS,
    "ideal": SHARED_STATS,
    "alloy": SHARED_STATS + L3_TRIPLET,
    "tagless-resizable": SHARED_STATS + TAGLESS_STATS + [
        "resize_events", "resize_remapped_pages", "resize_evicted_pages",
        "resize_shootdowns", "resize_gated_free_blocks",
        "resize_active_occupancy",
    ],
}

SHARED_COLUMNS = [
    "accesses", "l3_accesses", "tlb_hits", "tlb_refs", "l3_hits", "l3_refs",
    "inpkg_bytes", "offpkg_bytes", "inpkg_busy_ns", "offpkg_busy_ns",
    "row_hits", "row_refs", "offpkg_demand",
]
TAGLESS_COLUMNS = SHARED_COLUMNS + ["fills", "writebacks", "evictions"]

PROBE_COUNTERS = {
    "no-l3": SHARED_COLUMNS,
    "bi": SHARED_COLUMNS,
    "sram": SHARED_COLUMNS + ["writebacks"],
    "tagless": TAGLESS_COLUMNS,
    "ideal": SHARED_COLUMNS,
    "alloy": SHARED_COLUMNS + ["writebacks"],
    "tagless-resizable": TAGLESS_COLUMNS + [
        "resize_events", "resize_remapped", "resize_evicted",
        "resize_shootdowns",
    ],
}

SHARED_GAUGES = ["free_queue_depth", "free_queue_alpha", "gipt_occupancy"]

PROBE_GAUGES = {
    name: SHARED_GAUGES for name in ALL_DESIGN_NAMES
}
PROBE_GAUGES["tagless-resizable"] = SHARED_GAUGES + [
    "resize_gated_free_blocks", "resize_active_occupancy",
]


@pytest.fixture
def two_core_config():
    cfg = default_system(cache_megabytes=512, num_cores=CORES,
                         capacity_scale=512)
    return dataclasses.replace(cfg, tlb_scale=32)


def test_every_design_is_pinned():
    assert set(STATS_KEYS) == set(ALL_DESIGN_NAMES)
    assert set(PROBE_COUNTERS) == set(ALL_DESIGN_NAMES)


@pytest.mark.parametrize("name", ALL_DESIGN_NAMES)
def test_stats_key_order(two_core_config, name):
    stats = create_design(name, two_core_config).stats()
    assert list(stats) == STATS_KEYS[name]
    assert all(type(value) is float for value in stats.values())


@pytest.mark.parametrize("name", ALL_DESIGN_NAMES)
def test_timeseries_probe_names(two_core_config, name):
    counters, gauges = create_design(name, two_core_config).timeseries_probe()
    assert list(counters) == PROBE_COUNTERS[name]
    assert list(gauges) == PROBE_GAUGES[name]
    assert all(type(value) is float for value in counters.values())
    assert all(type(value) is float for value in gauges.values())


def test_optional_tagless_components_append_in_order(two_core_config):
    """Footprint caching adds its own block: the footprint predictor's
    keys close the engine block."""
    cfg = dataclasses.replace(
        two_core_config,
        dram_cache=dataclasses.replace(two_core_config.dram_cache,
                                       footprint_caching=True),
    )
    design = create_design("tagless", cfg)
    footprint = ["engine_footprint_" + name for name in (
        "predictions", "full_fetches", "predicted_bytes", "records",
        "tracked_pages",
    )]
    engine_end = TAGLESS_STATS.index("engine_fq_pending") + 1
    expected = (
        SHARED_STATS + TAGLESS_STATS[:engine_end] + footprint
        + TAGLESS_STATS[engine_end:]
    )
    assert list(design.stats()) == expected


def _probe_reference(design):
    """The design-specific probe values read straight off the attributes
    (what each design's own probe reported before the declarations)."""
    counters = {}
    gauges = {}
    if design.name in ("sram", "alloy"):
        counters["l3_hits"] = design.l3_hits
        counters["l3_refs"] = design.l3_hits + design.l3_misses
        counters["writebacks"] = design.l3_writebacks
    elif design.name == "bi":
        counters["l3_hits"] = design.in_package_hits
    elif design.name == "ideal":
        counters["l3_hits"] = design.l3_accesses
    elif design.name.startswith("tagless"):
        engine = design.engine
        fq = engine.free_queue
        counters["l3_hits"] = design.cache_accesses
        counters["l3_refs"] = design.cache_accesses + design.nc_accesses
        counters["fills"] = engine.fills
        counters["writebacks"] = engine.writebacks
        counters["evictions"] = fq.evictions_completed
        gauges["free_queue_depth"] = fq.free_blocks
        gauges["free_queue_alpha"] = fq.alpha
        gauges["gipt_occupancy"] = engine.occupancy()
        if design.name == "tagless-resizable":
            counters["resize_events"] = design.resize_events
            counters["resize_remapped"] = design.resize_remapped_pages
            counters["resize_evicted"] = design.resize_evicted_pages
            counters["resize_shootdowns"] = design.resize_shootdowns
            gauges["resize_gated_free_blocks"] = len(fq.gated)
            gauges["resize_active_occupancy"] = (
                fq.active_capacity / fq.capacity_pages
            )
    return counters, gauges


@pytest.mark.parametrize("name", ALL_DESIGN_NAMES)
def test_probe_columns_read_the_right_counters(small_config, tiny_trace,
                                               name):
    design = create_design(name, small_config)
    now = 0.0
    for i in range(len(tiny_trace)):
        cycles = design.access_cycles(
            0, 0, int(tiny_trace.virtual_pages[i]), int(tiny_trace.lines[i]),
            bool(tiny_trace.writes[i]), now,
        )
        now += cycles * 0.5
    counters, gauges = design.timeseries_probe()
    ref_counters, ref_gauges = _probe_reference(design)
    assert counters["l3_hits"] == ref_counters.pop("l3_hits", 0.0)
    assert counters["l3_refs"] == ref_counters.pop(
        "l3_refs", design.l3_accesses)
    assert counters["l3_refs"] > 0
    for column, value in ref_counters.items():
        assert counters[column] == float(value), column
    for column, value in ref_gauges.items():
        assert gauges[column] == float(value), column
