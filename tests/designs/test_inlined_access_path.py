"""The inlined access path is the plain structure model, access by access.

``MemorySystemDesign.access_cycles`` hand-inlines the TLB and on-die
probes on the structures' dicts.  This property replays drawn accesses
through a design and through twin structures driven only by their plain
methods -- ``TLBHierarchy.lookup`` (plus ``install`` of the entry the
design installed on a miss) and ``OnDieHierarchy.access`` on the line key
-- and compares them after every access: levels, the key order and dirty
bits of every set dict, every counter, and the write-backs.
"""

import dataclasses

from hypothesis import given, seed, settings, strategies as st

from repro.common.addressing import CACHE_LINE_BYTES
from repro.common.config import OnDieCacheConfig, TLBConfig, default_system
from repro.designs import create_design
from repro.sram.hierarchy import OnDieHierarchy
from repro.vm.tlb import TLBHierarchy


@st.composite
def _machines(draw):
    """Small TLB and on-die geometries; set counts include non-powers
    of two, which index by ``%`` like any other."""
    l1_ways = draw(st.integers(1, 3), label="l1_ways")
    l2_ways = draw(st.integers(1, 4), label="l2_ways")
    l1 = OnDieCacheConfig(
        capacity_bytes=draw(st.integers(1, 3), label="l1_sets")
        * l1_ways * CACHE_LINE_BYTES,
        associativity=l1_ways, hit_cycles=2,
    )
    l2 = OnDieCacheConfig(
        capacity_bytes=draw(st.integers(1, 7), label="l2_sets")
        * l2_ways * CACHE_LINE_BYTES,
        associativity=l2_ways, hit_cycles=6,
    )
    l1_entries = draw(st.integers(1, 4), label="l1_tlb")
    tlb = TLBConfig(l1_entries=l1_entries,
                    l2_entries=draw(st.integers(l1_entries, 8),
                                    label="l2_tlb"))
    config = default_system(cache_megabytes=128, num_cores=1,
                            capacity_scale=512)
    return dataclasses.replace(config, l1=l1, l2=l2, tlb=tlb,
                               ondie_scale=1, tlb_scale=1)


_accesses = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 7), st.booleans()),
    min_size=1, max_size=150,
)


def _tlb_state(tlb):
    return ([list(level._map.items()) for level in (tlb.l1, tlb.l2)],
            (tlb.l1.hits, tlb.l1.misses, tlb.l2.hits, tlb.l2.misses,
             tlb.l1_hits, tlb.l2_hits, tlb.misses))


def _ondie_state(ondie):
    return ([[list(s.entries.items()) for s in level._sets]
             for level in (ondie.l1, ondie.l2)],
            (ondie.l1.hits, ondie.l1.misses, ondie.l2.hits, ondie.l2.misses,
             ondie.l1_hits, ondie.l2_hits, ondie.misses, ondie.writebacks))


@seed(22)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(config=_machines(),
       name=st.sampled_from(["no-l3", "sram", "tagless"]),
       accesses=_accesses)
def test_access_cycles_matches_plain_structures(config, name, accesses):
    """For ``tagless`` only the levels are compared: its evictions purge
    on-die lines outside the model (none happen at this footprint)."""
    design = create_design(name, config)
    tlb_cfg = config.scaled_tlb
    tlb = TLBHierarchy(tlb_cfg.l1_entries, tlb_cfg.l2_entries)
    ondie = OnDieHierarchy(config.scaled_l1, config.scaled_l2)
    full = name != "tagless"
    for step, (virtual_page, line_index, is_write) in enumerate(accesses):
        tlb_level, entry = tlb.lookup(virtual_page)
        cost = design.access(0, 0, virtual_page, line_index, is_write,
                             step * 100.0)
        assert cost.tlb_level == tlb_level
        if entry is None:
            entry = design.tlbs[0].l1.peek(virtual_page)
            tlb.install(virtual_page, entry)
        result = ondie.access(design._line_key(entry, line_index), is_write)
        assert cost.ondie_level == result.level
        if not full:
            continue
        assert _tlb_state(design.tlbs[0]) == _tlb_state(tlb)
        assert _ondie_state(design.ondie[0]) == _ondie_state(ondie)
        if result.level != "l1":
            assert design.ondie[0].pending_writebacks == result.writebacks
