"""On-die L1/L2 hierarchy behaviour."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.addressing import LINES_PER_PAGE
from repro.common.config import OnDieCacheConfig
from repro.sram.hierarchy import OnDieHierarchy


def make_hierarchy(l1_lines=8, l2_lines=32):
    l1 = OnDieCacheConfig(capacity_bytes=l1_lines * 64, associativity=2,
                          hit_cycles=2)
    l2 = OnDieCacheConfig(capacity_bytes=l2_lines * 64, associativity=4,
                          hit_cycles=6)
    return OnDieHierarchy(l1, l2)


def test_first_access_misses_everywhere():
    h = make_hierarchy()
    result = h.access(100, is_write=False)
    assert result.level == "miss"
    assert h.misses == 1


def test_second_access_hits_l1():
    h = make_hierarchy()
    h.access(100, False)
    assert h.access(100, False).level == "l1"


def test_l2_hit_after_l1_eviction():
    h = make_hierarchy(l1_lines=2, l2_lines=64)
    h.access(0, False)
    # Push line 0 out of the tiny L1 (same set usage pattern).
    for line in range(2, 20, 2):
        h.access(line, False)
    result = h.access(0, False)
    assert result.level == "l2"


def test_dirty_l2_victims_surface_as_writebacks():
    h = make_hierarchy(l1_lines=2, l2_lines=4)
    # Write lines then stream enough conflicting lines through to force
    # dirty data fully out of the hierarchy.
    writebacks = []
    for line in range(0, 40, 4):
        result = h.access(line, is_write=True)
        writebacks.extend(result.writebacks)
    assert writebacks, "dirty lines must eventually drain to memory"
    assert h.writebacks == len(writebacks)


def test_clean_traffic_never_writes_back():
    h = make_hierarchy(l1_lines=2, l2_lines=4)
    for line in range(100):
        result = h.access(line, is_write=False)
        assert result.writebacks == []


def test_invalidate_page_removes_all_lines():
    h = make_hierarchy(l1_lines=8, l2_lines=128)
    page = 3
    first = page * LINES_PER_PAGE
    for line in range(first, first + 8):
        h.access(line, is_write=False)
    h.invalidate_page(page)
    assert h.access(first, False).level == "miss"


def test_invalidate_page_returns_dirty_lines():
    h = make_hierarchy(l1_lines=8, l2_lines=128)
    line = 5 * LINES_PER_PAGE + 2
    h.access(line, is_write=True)
    dirty = h.invalidate_page(5)
    assert line in dirty


def test_invalidate_unknown_page_is_noop():
    h = make_hierarchy()
    assert h.invalidate_page(999) == []


ALL_LINES = (1 << LINES_PER_PAGE) - 1
PAGES = [3, 4, 17, 64, 65, 1000, 999]  # 999 is never accessed


def _naive_invalidate_page(hierarchy, page, lines=ALL_LINES):
    """Reference: one SetAssociativeCache.invalidate per masked line and
    level, in line order."""
    dirty = []
    first = page * LINES_PER_PAGE
    for index in range(LINES_PER_PAGE):
        if not (lines >> index) & 1:
            continue
        line = first + index
        for level in (hierarchy.l1, hierarchy.l2):
            evicted = level.invalidate(line)
            if evicted is not None and evicted.dirty:
                dirty.append(line)
    return dirty


def _contents(hierarchy):
    """Both levels' sets, each as its (line, dirty) items in dict order."""
    return [[list(s.entries.items()) for s in level._sets]
            for level in (hierarchy.l1, hierarchy.l2)]


@settings(max_examples=8, deadline=None)
@given(masks=st.lists(
    st.one_of(st.just(0), st.just(ALL_LINES), st.integers(0, ALL_LINES)),
    min_size=len(PAGES), max_size=len(PAGES),
))
@example(masks=[0] * len(PAGES))
@example(masks=[ALL_LINES] * len(PAGES))
@pytest.mark.parametrize("l1_lines,l2_lines", [(8, 32), (16, 256),
                                               (512, 8192)])
def test_invalidate_page_matches_per_line_reference(l1_lines, l2_lines,
                                                    masks):
    """Random clean and dirty lines of several pages: after each page is
    invalidated under a drawn line mask, both levels hold exactly what
    the per-line reference restricted to that mask leaves, in the same
    order, and the dirty lists agree (a line dirty in both levels is
    listed twice).  A second pass with the default mask (every line)
    then empties both levels."""
    rng = random.Random(7)
    fast = make_hierarchy(l1_lines, l2_lines)
    naive = make_hierarchy(l1_lines, l2_lines)
    for _ in range(3 * l2_lines):
        line = (rng.choice(PAGES[:-1]) * LINES_PER_PAGE
                + rng.randrange(LINES_PER_PAGE))
        is_write = rng.random() < 0.4
        fast.access(line, is_write)
        naive.access(line, is_write)
    assert _contents(fast) == _contents(naive)
    saw_dirty = False
    for page, lines in zip(PAGES, masks):
        dirty = fast.invalidate_page(page, lines)
        assert dirty == _naive_invalidate_page(naive, page, lines)
        assert _contents(fast) == _contents(naive)
        saw_dirty = saw_dirty or bool(dirty)
    for page in PAGES:
        dirty = fast.invalidate_page(page)
        assert dirty == _naive_invalidate_page(naive, page)
        assert _contents(fast) == _contents(naive)
        saw_dirty = saw_dirty or bool(dirty)
    assert saw_dirty
    assert not any(len(s.entries) for s in fast.l1._sets + fast.l2._sets)


def test_miss_rate_and_stats():
    h = make_hierarchy()
    h.access(1, False)
    h.access(1, False)
    assert h.misses / h.accesses == pytest.approx(0.5)
    stats = h.stats("p_")
    assert stats["p_l1_hits"] == 1.0
    assert stats["p_misses"] == 1.0


def test_reset_stats_keeps_contents():
    h = make_hierarchy()
    h.access(1, False)
    h.reset_stats()
    assert h.misses == 0
    assert h.access(1, False).level == "l1"  # still warm
