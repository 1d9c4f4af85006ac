"""Table 1 of the paper: the four (TLB, DRAM-cache) hit/miss cases.

| TLB  | DRAM cache | expectation                                      |
|------|------------|--------------------------------------------------|
| hit  | hit        | lowest latency, zero penalty                     |
| hit  | miss       | NC page: off-package block access time           |
| miss | hit        | victim hit: only the TLB miss (walk) penalty     |
| miss | miss       | cache fill + GIPT update on top of the walk      |

The micro-traces below force each case through the real tagless design
and assert both the classification and the latency ordering.
"""

import pytest

from repro.designs.tagless_design import TaglessDesign


@pytest.fixture
def design(small_config):
    return TaglessDesign(small_config)


def fresh_page_cost(design, vpn, now=0.0):
    """First-ever touch: TLB miss + cache miss (case 4)."""
    return design.access(0, 0, vpn, 0, False, now)


def case1_tlb_hit_cache_hit(design, vpn, now):
    """Touch a page already mapped by the cTLB."""
    return design.access(0, 0, vpn, 1, False, now)


def evict_from_tlb(design, vpn, start_vpn, now):
    """Touch enough other pages to push ``vpn`` out of the TLB (but not
    out of the much larger DRAM cache)."""
    entries = design.config.scaled_tlb.l2_entries
    for i in range(entries + 2):
        design.access(0, 0, start_vpn + i, 0, False, now + i * 100.0)
    assert not design.tlbs[0].l2.contains(vpn)


def test_case4_then_case1_ordering(design):
    cost_miss_miss = fresh_page_cost(design, vpn=0)
    cost_hit_hit = case1_tlb_hit_cache_hit(design, vpn=0, now=1000.0)
    assert cost_hit_hit.cycles < cost_miss_miss.cycles
    assert cost_miss_miss.tlb_level == "miss"
    assert cost_hit_hit.tlb_level == "l1"
    assert design.engine.fills == 1


def test_case3_victim_hit_costs_only_the_walk(design, small_config):
    fresh_page_cost(design, vpn=0)
    evict_from_tlb(design, vpn=0, start_vpn=100, now=10_000.0)
    fills_before = design.engine.fills
    cost = design.access(0, 0, 0, 2, False, 10**7)
    assert design.engine.fills == fills_before  # no new fill: case 3
    assert design.engine.victim_hits >= 1
    # Penalty is the walk, not a fill: far cheaper than a case-4 miss.
    cost_case4 = fresh_page_cost(design, vpn=999, now=2 * 10**7)
    assert cost.cycles < cost_case4.cycles


def test_case2_nc_page_goes_off_package(design):
    design.set_non_cacheable(0, 50)
    first = design.access(0, 0, 50, 0, False, 0.0)
    # TLB hit now, but the DRAM cache is bypassed: off-package latency.
    before = design.off_package.demand_accesses
    second = design.access(0, 0, 50, 1, False, 1000.0)
    assert second.tlb_level == "l1"
    assert design.off_package.demand_accesses == before + 1
    assert design.engine.fills == 0


def test_full_ordering_of_all_four_cases(design, small_config):
    """case1 < case3 < case4 in cycles; case2 sits between case1 and
    case4 (off-package block beats a 4 KB fill + GIPT update)."""
    case4 = fresh_page_cost(design, vpn=0).cycles

    case1 = case1_tlb_hit_cache_hit(design, vpn=0, now=1000.0).cycles

    design.set_non_cacheable(0, 50)
    design.access(0, 0, 50, 0, False, 2000.0)
    case2 = design.access(0, 0, 50, 1, False, 3000.0).cycles

    evict_from_tlb(design, vpn=0, start_vpn=100, now=10_000.0)
    case3 = design.access(0, 0, 0, 3, False, 10**7).cycles

    assert case1 < case3 < case4
    assert case1 < case2 < case4


def test_tlb_hit_guarantees_cache_hit_everywhere(design):
    """The design's central invariant, asserted over a busy interleaving:
    no access with a cTLB hit ever touches off-package DRAM (NC aside)."""
    now = 0.0
    for i in range(600):
        vpn = (i * 13) % 90
        before = design.off_package.demand_accesses
        cost = design.access(0, 0, vpn, i % 64, i % 3 == 0, now)
        after = design.off_package.demand_accesses
        if cost.tlb_level in ("l1", "l2"):
            assert after == before, "cTLB hit must never miss the cache"
        now += 40.0 + cost.cycles / 3.0
    design.engine.check_invariants()
