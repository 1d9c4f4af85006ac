"""Footprint-style partial page fills (extension; paper references [21]).

The paper names over-fetching as the one weakness of page-granularity
caching and points at *footprint caching* (Jevdjic et al., ISCA 2013) as
the complementary fix: predict which 64 B blocks of a page will actually
be used and transfer only those.  This module adds that mechanism to the
tagless cache:

- a :class:`FootprintHistoryTable` remembers, per physical page, the set
  of blocks touched during the page's previous cache residency;
- a fill transfers the predicted footprint (previous mask, plus the
  block that triggered the miss) instead of the whole 4 KB; a page never
  seen before fetches everything (safe default);
- an access to a block the predictor skipped is a **footprint miss**: it
  fetches that single block from off-package DRAM on demand and adds it
  to the page's fetched set;
- at eviction, the page's *touched* mask replaces its history entry, so
  the predictor tracks phase changes.

In hardware the history table costs 8 bytes per entry; like the GIPT it
is touched only at fills and evictions.
"""

from __future__ import annotations

from typing import Dict

from repro.common.addressing import CACHE_LINE_BYTES, LINES_PER_PAGE
from repro.common.stats import Counters

#: All 64 blocks of a page.
FULL_MASK = (1 << LINES_PER_PAGE) - 1


def mask_bit(line_index: int) -> int:
    """The mask bit for one 64 B block of a page."""
    return 1 << line_index


def mask_bytes(mask: int) -> int:
    """Bytes covered by a footprint mask."""
    return bin(mask).count("1") * CACHE_LINE_BYTES


class FootprintHistoryTable(Counters):
    """Per-physical-page record of the blocks used last residency."""

    #: ``records`` is not among them: it counts the residencies the
    #: predictor has learned from, warm state that survives a reset.
    COUNTERS = ("predictions", "full_fetches", "predicted_bytes")

    #: Evictions observed before first-touch predictions leave the
    #: conservative fetch-everything mode.
    WARMUP_RECORDS = 32

    def __init__(self) -> None:
        self._masks: Dict[int, int] = {}
        self.predictions = 0
        self.full_fetches = 0
        self.predicted_bytes = 0
        self.records = 0
        self._popcount_sum = 0

    def predict(self, physical_page: int, first_line: int) -> int:
        """Footprint to fetch when filling ``physical_page``.

        The triggering block is always included.  Refills use the page's
        own last-residency mask.  First touches start conservative
        (fetch everything); once enough residencies have been observed,
        they fetch a contiguous window sized by the *global average*
        footprint density, anchored at the triggering block -- the cheap
        stand-in for the original footprint cache's PC-correlated
        predictor, matched to this simulator's burst-sequential traces.
        """
        self.predictions += 1
        history = self._masks.get(physical_page)
        if history is not None:
            mask = history | mask_bit(first_line)
        elif self.records < self.WARMUP_RECORDS:
            self.full_fetches += 1
            mask = FULL_MASK
        else:
            window = max(1, round(self._popcount_sum / self.records))
            mask = 0
            for offset in range(min(window, LINES_PER_PAGE)):
                mask |= mask_bit((first_line + offset) % LINES_PER_PAGE)
        self.predicted_bytes += mask_bytes(mask)
        return mask

    def record(self, physical_page: int, touched_mask: int) -> None:
        """Store the blocks actually used during the ending residency."""
        self.records += 1
        self._popcount_sum += bin(touched_mask).count("1")
        if touched_mask:
            self._masks[physical_page] = touched_mask
        else:
            # An untouched residency (pure pollution): remember the
            # smallest footprint so a refill stays cheap.
            self._masks[physical_page] = mask_bit(0)

    def __len__(self) -> int:
        return len(self._masks)

    def storage_bytes(self) -> int:
        """8 bytes (one 64-bit mask) per tracked page."""
        return 8 * len(self._masks)

    def stats(self, prefix: str = "") -> dict:
        out = super().stats(prefix)
        out[f"{prefix}records"] = float(self.records)
        out[f"{prefix}tracked_pages"] = float(len(self._masks))
        return out
