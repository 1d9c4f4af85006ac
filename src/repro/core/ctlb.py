"""The cache-map TLB (cTLB) -- Section 3.1/3.2 of the paper.

Hardware-wise the cTLB *is* the conventional TLB of Table 3 (same entry
count, same organisation); the only additions are (a) the stored
translation target is a cache page number whenever the page is cached,
and (b) each entry carries the Non-Cacheable bit copied from the PTE so
that NC pages keep conventional virtual-to-physical behaviour.

This module is a thin semantic wrapper over
:class:`repro.vm.tlb.TLBHierarchy` that makes those two conventions
explicit and typo-proof for the miss handler.  Lookups go through the
design's access path (or ``hierarchy.lookup``) like any TLB probe.
"""

from __future__ import annotations

from repro.vm.page_table import PageTableEntry
from repro.vm.tlb import TLBEntry, TLBHierarchy


class CacheMapTLB:
    """Per-core cTLB: a TLB hierarchy holding virtual-to-cache mappings."""

    def __init__(self, hierarchy: TLBHierarchy):
        self.hierarchy = hierarchy

    # ------------------------------------------------------------------
    # Refill paths (from the cTLB miss handler)
    # ------------------------------------------------------------------
    def install_cache_mapping(self, virtual_page: int, cache_page: int) -> TLBEntry:
        """Install a virtual-to-cache translation (the common case)."""
        entry = TLBEntry(target_page=cache_page, non_cacheable=False)
        self.hierarchy.install(virtual_page, entry)
        return entry

    def install_noncacheable(self, pte: PageTableEntry) -> TLBEntry:
        """Install a conventional virtual-to-physical translation.

        Used for NC pages, which bypass the DRAM cache entirely
        (Section 3.5): the entry behaves exactly like a classic TLB entry.
        """
        entry = TLBEntry(target_page=pte.physical_page, non_cacheable=True)
        self.hierarchy.install(pte.virtual_page, entry)
        return entry

    def install_noncacheable_target(
        self, virtual_page: int, physical_page: int
    ) -> TLBEntry:
        """NC install with an explicit target frame.

        Needed for pages inside an unsplit NC superpage, whose frames
        are the base PTE's frame plus the page's offset into the run.
        """
        entry = TLBEntry(target_page=physical_page, non_cacheable=True)
        self.hierarchy.install(virtual_page, entry)
        return entry

    # ------------------------------------------------------------------
    # Coherence helpers
    # ------------------------------------------------------------------
    def shootdown(self, virtual_page: int) -> bool:
        """Invalidate one mapping (Section 6: eviction consistency)."""
        return self.hierarchy.invalidate(virtual_page)

    def flush(self) -> int:
        """Full cTLB shootdown (context switch); returns entries dropped.

        Delegates to the hierarchy's callback-firing flush so every
        cache-mapped translation clears its GIPT residence bit on the
        way out -- a bare :meth:`repro.vm.tlb.TLB.flush` would strand
        the bits and freeze eviction.
        """
        return self.hierarchy.flush()
