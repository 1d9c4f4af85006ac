"""Global Inverted Page Table (GIPT) -- Section 3.2 of the paper.

The GIPT is the *only* new data structure the tagless design introduces.
It is indexed by cache (page) address and stores, per cached page:

- the physical page number (PPN) the page came from, needed to put the
  page back on eviction;
- a pointer to the PTE currently mapping the page (PTEP), so the eviction
  machinery can rewrite that PTE from CA back to PA;
- a TLB-residence bit vector (one bit per core), so the replacement logic
  never evicts a page that is still within some core's TLB reach -- which
  is what makes "cTLB hit implies cache hit" an invariant.

At 82 bits per entry (36 PPN + 42 PTEP + 4 residence bits for a quad-core)
a 1 GB cache needs 2.56 MB -- 0.25 % overhead -- and, crucially, the table
is only touched at TLB misses and evictions, never on the cache access
path, so it can live in either DRAM.

:attr:`GIPTEntry.touched_cores` is not part of that 82-bit entry: it is
simulator bookkeeping that lets the untimed purge of a recycled cache
address visit only the cores that can hold the page's lines on-die.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.common.addressing import BYTES_PER_MB
from repro.common.errors import SimulationError
from repro.common.stats import Counters
from repro.vm.page_table import PageTableEntry

#: Bits per GIPT entry as itemised in Section 3.2.
PPN_BITS = 36
PTEP_BITS = 42
ENTRY_BITS_BASE = PPN_BITS + PTEP_BITS


@dataclasses.dataclass(slots=True)
class GIPTEntry:
    """One cached page's reverse mapping.

    ``fetched_mask`` matters only when footprint caching (the
    partial-fill extension, :mod:`repro.core.footprint`) is enabled;
    with full fills it simply stays all-ones.
    """

    physical_page: int
    pte: PageTableEntry
    residence_mask: int = 0
    dirty: bool = False
    #: Blocks of the page present in the cache (bit per 64 B block).
    fetched_mask: int = (1 << 64) - 1
    #: Blocks touched during this residency (feeds the footprint
    #: predictor at eviction).  Every line of the page in an on-die
    #: cache has its bit here: a line reaches L1/L2 only through an
    #: on-die miss to L3, which sets it.
    touched_mask: int = 0
    #: Cores whose on-die L1/L2 may hold lines of this residency, one
    #: bit per core, set next to ``touched_mask`` and sticky for the
    #: residency.  Simulator bookkeeping, not part of the 82-bit
    #: hardware entry: it only narrows the (untimed) on-die purge at
    #: eviction.
    touched_cores: int = 0

    def resident_anywhere(self) -> bool:
        """True when any core's TLB still maps this page."""
        return self.residence_mask != 0


class GlobalInvertedPageTable(Counters):
    """CA-indexed reverse map shared by every process in the system."""

    COUNTERS = ("inserts", "removals", "residence_updates")

    def __init__(self, capacity_pages: int, num_cores: int):
        if capacity_pages <= 0:
            raise ValueError("GIPT capacity must be positive")
        self.capacity_pages = capacity_pages
        self.num_cores = num_cores
        self._entries: Dict[int, GIPTEntry] = {}
        self.inserts = 0
        self.removals = 0
        self.residence_updates = 0

    # ------------------------------------------------------------------
    # Entry lifecycle
    # ------------------------------------------------------------------
    def insert(self, cache_page: int, physical_page: int, pte: PageTableEntry) -> GIPTEntry:
        """Create the reverse mapping when a page is filled into the cache.

        The fused kernel's fill (:func:`repro.cpu.batched._run_kernel`)
        writes this body out and counts ``inserts`` at its exit; it
        calls this method only when a check here would raise.
        """
        self._check_range(cache_page)
        if cache_page in self._entries:
            raise SimulationError(
                f"GIPT already holds CA {cache_page:#x}; double allocation"
            )
        entry = GIPTEntry(physical_page=physical_page, pte=pte)
        self._entries[cache_page] = entry
        self.inserts += 1
        return entry

    def lookup(self, cache_page: int) -> Optional[GIPTEntry]:
        return self._entries.get(cache_page)

    def require(self, cache_page: int) -> GIPTEntry:
        """Lookup that treats absence as a simulator bug."""
        entry = self._entries.get(cache_page)
        if entry is None:
            raise SimulationError(
                f"GIPT has no entry for CA {cache_page:#x}; the cache and "
                "the GIPT have diverged"
            )
        return entry

    def remove(self, cache_page: int) -> GIPTEntry:
        """Drop the mapping as the final step of an eviction."""
        entry = self._entries.pop(cache_page, None)
        if entry is None:
            raise SimulationError(
                f"evicting CA {cache_page:#x} that the GIPT does not hold"
            )
        if entry.resident_anywhere():
            raise SimulationError(
                f"evicting CA {cache_page:#x} while TLB-resident "
                f"(mask={entry.residence_mask:#x}); the residence bits "
                "failed to protect it"
            )
        self.removals += 1
        return entry

    # ------------------------------------------------------------------
    # TLB residence bits
    # ------------------------------------------------------------------
    def set_resident(self, cache_page: int, core_id: int) -> None:
        """Mark the page as within ``core_id``'s TLB reach."""
        self._check_core(core_id)
        self.require(cache_page).residence_mask |= 1 << core_id
        self.residence_updates += 1

    def clear_resident(self, cache_page: int, core_id: int) -> None:
        """Mark the page as having left ``core_id``'s TLB reach.

        Two copies write this body out, for the TLB evictions of the
        tagless design: its TLB-eviction callback
        (``TaglessDesign._make_tlb_hierarchy``), which a context
        switch's flush runs for every L2 entry, and the fused kernel's
        inline TLB install (:func:`repro.cpu.batched._run_kernel`).
        """
        self._check_core(core_id)
        entry = self._entries.get(cache_page)
        if entry is None:
            # The page may have been evicted after its last TLB entry
            # left; clearing residence for a gone page is harmless.
            return
        entry.residence_mask &= ~(1 << core_id)
        self.residence_updates += 1

    def is_resident(self, cache_page: int) -> bool:
        """True when some core's TLB maps the page (the victim filter)."""
        entry = self._entries.get(cache_page)
        return entry is not None and entry.residence_mask != 0

    # ------------------------------------------------------------------
    # Size model
    # ------------------------------------------------------------------
    @classmethod
    def entry_bits(cls, num_cores: int) -> int:
        """Bits per entry: 36 PPN + 42 PTEP + one residence bit per core."""
        return ENTRY_BITS_BASE + num_cores

    def storage_bytes(self) -> int:
        """Total table size for this capacity (Section 3.2's 2.56 MB)."""
        return self.capacity_pages * self.entry_bits(self.num_cores) // 8

    def storage_overhead(self, cache_bytes: int) -> float:
        """Fraction of the cache the GIPT costs (paper: < 0.25 %)."""
        return self.storage_bytes() / cache_bytes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, cache_page: int) -> bool:
        return cache_page in self._entries

    def cached_cache_pages(self):
        """Iterate over all CAs currently holding data."""
        return self._entries.keys()

    def _check_range(self, cache_page: int) -> None:
        if not (0 <= cache_page < self.capacity_pages):
            raise SimulationError(
                f"CA {cache_page:#x} outside cache of "
                f"{self.capacity_pages} pages"
            )

    def _check_core(self, core_id: int) -> None:
        if not (0 <= core_id < self.num_cores):
            raise SimulationError(
                f"core id {core_id} outside 0..{self.num_cores - 1}"
            )

    def stats(self, prefix: str = "") -> dict:
        out = super().stats(prefix)
        out[f"{prefix}live_entries"] = float(len(self._entries))
        out[f"{prefix}storage_bytes"] = float(self.storage_bytes())
        return out


def gipt_storage_megabytes(cache_gigabytes: float, num_cores: int = 4) -> float:
    """Headline size check: 1 GB cache, 4 cores -> ~2.56 MB (paper §3.2)."""
    pages = int(cache_gigabytes * 1024 * 1024 * 1024) // 4096
    bits = GlobalInvertedPageTable.entry_bits(num_cores)
    return pages * bits / 8 / BYTES_PER_MB
