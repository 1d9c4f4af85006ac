"""Page table with the paper's three extra PTE bits (Section 3.2).

Each :class:`PageTableEntry` carries:

- ``VC`` (*Valid-in-Cache*): the page currently lives in the DRAM cache and
  the translation target is a **cache** page number;
- ``NC`` (*Non-Cacheable*): the page bypasses the DRAM cache (but not the
  on-die caches) -- the over-fetching mitigation of Section 3.5;
- ``PU`` (*Pending-Update*): a fill for this page is in flight, so a second
  thread must not issue a duplicate fill.

The x86_64 PTE has 14 unused bits, so these fit for free in real hardware;
here they are plain booleans.

:class:`PhysicalFrameAllocator` stands in for the OS frame allocator.  It
spreads frames over the whole physical space so that the bank-interleaving
design (whose in-package region is just the top slice of physical memory)
sees the OS-oblivious placement the paper describes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional

from repro.common.errors import SimulationError


@dataclasses.dataclass(slots=True)
class PageTableEntry:
    """One PTE: translation target plus the three new flag bits."""

    virtual_page: int
    physical_page: int
    cache_page: Optional[int] = None
    valid_in_cache: bool = False
    non_cacheable: bool = False
    pending_update: bool = False
    #: Simulation timestamp (ns) at which an in-flight fill completes.
    #: Stands in for the PU busy-wait: a second thread touching the page
    #: before this time stalls until the first thread's fill finishes.
    pending_until_ns: float = 0.0
    #: Non-zero for the base PTE of an unsplit superpage: this entry
    #: maps 2**order contiguous 4 KB pages (Sections 3.5 and 6).
    superpage_order: int = 0

    @property
    def is_superpage(self) -> bool:
        return self.superpage_order > 0

    @property
    def superpage_pages(self) -> int:
        """4 KB pages covered by this mapping (1 for a normal PTE)."""
        return 1 << self.superpage_order

    @property
    def target_page(self) -> int:
        """The page number a TLB refill should cache for this PTE.

        When VC is set this is the in-package cache page, otherwise the
        off-package physical page -- the single field a real PTE would
        hold, with VC disambiguating its meaning.
        """
        if self.valid_in_cache:
            if self.cache_page is None:
                raise SimulationError(
                    f"PTE for VA page {self.virtual_page:#x} has VC=1 but "
                    "no cache page"
                )
            return self.cache_page
        return self.physical_page

    def install_in_cache(self, cache_page: int) -> None:
        """Rewrite the PTE after a cache fill: PA replaced by CA, VC set.

        The fused kernel's fill (:func:`repro.cpu.batched._run_kernel`)
        writes this body out.
        """
        self.cache_page = cache_page
        self.valid_in_cache = True

    def evict_from_cache(self) -> None:
        """Rewrite the PTE after eviction: CA replaced by the original PA.

        The original PPN is recovered from the GIPT by the eviction
        machinery; this PTE kept it as well, which the paper permits since
        the GIPT stores a *pointer* to the PTE rather than a copy.
        """
        self.cache_page = None
        self.valid_in_cache = False


class PhysicalFrameAllocator:
    """Assigns physical frames to newly touched virtual pages.

    Frames are handed out by striding through the physical page space with
    a large odd step, which scatters consecutive virtual pages across
    banks and across the in/off-package split the way a long-running OS's
    free list would.  Deterministic, so experiments are reproducible.
    """

    def __init__(self, total_pages: int, stride: int = 997):
        if total_pages <= 0:
            raise ValueError("total_pages must be positive")
        self.total_pages = total_pages
        # A full permutation of the page space requires gcd(stride, total)
        # == 1; nudge the stride until that holds.
        while math.gcd(stride, total_pages) != 1:
            stride += 1
        self.stride = stride
        self._next = 0
        self._allocated = 0
        #: Frames at or above this floor are reserved for contiguous
        #: (superpage) allocations, carved from the top of memory.
        self._contig_floor = total_pages

    def allocate(self) -> int:
        """Return the next free physical page number."""
        while True:
            if self._allocated >= self._contig_floor:
                raise SimulationError(
                    f"physical memory exhausted after {self._allocated} pages"
                )
            frame = self._next
            self._next = (self._next + self.stride) % self.total_pages
            if frame < self._contig_floor:
                self._allocated += 1
                return frame
            # Frame fell in the superpage reservation; skip it.

    def allocate_contiguous(self, num_pages: int) -> int:
        """Reserve ``num_pages`` physically contiguous frames.

        Superpage mappings need contiguous physical memory; the run is
        carved from the top of the page space, which the strided
        single-frame allocator then avoids.  Returns the base frame.
        """
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        new_floor = self._contig_floor - num_pages
        if new_floor < self._allocated:
            raise SimulationError(
                f"cannot reserve {num_pages} contiguous frames: memory "
                "exhausted"
            )
        self._contig_floor = new_floor
        return new_floor

    @property
    def allocated(self) -> int:
        return self._allocated


class PageTable:
    """Per-process virtual-to-physical (or -cache) mapping.

    Pages are materialised lazily on first touch using the shared frame
    allocator, mirroring demand paging.  Multi-threaded workloads share
    one instance across cores (no aliasing, Section 3.5); multi-programmed
    workloads get one instance each.
    """

    def __init__(self, allocator: PhysicalFrameAllocator, process_id: int = 0):
        self.allocator = allocator
        self.process_id = process_id
        self._entries: Dict[int, PageTableEntry] = {}
        #: base virtual page -> superpage order, for unsplit superpages.
        self._superpages: Dict[int, int] = {}
        self.superpage_splits = 0

    # ------------------------------------------------------------------
    # Superpage management (Sections 3.5 and 6)
    # ------------------------------------------------------------------
    def map_superpage(self, base_vpn: int, order: int) -> PageTableEntry:
        """Map 2**order pages at ``base_vpn`` as one superpage.

        The base must be naturally aligned; physical frames are
        contiguous, as real superpages require.  Returns the base PTE.
        """
        pages = 1 << order
        if order <= 0:
            raise ValueError("superpage order must be positive")
        if base_vpn % pages:
            raise ValueError(
                f"superpage base {base_vpn:#x} not aligned to {pages} pages"
            )
        for vpn in range(base_vpn, base_vpn + pages):
            if vpn in self._entries:
                raise SimulationError(
                    f"VA page {vpn:#x} already mapped; cannot fold it "
                    "into a superpage"
                )
        frame = self.allocator.allocate_contiguous(pages)
        pte = PageTableEntry(
            virtual_page=base_vpn,
            physical_page=frame,
            superpage_order=order,
        )
        self._entries[base_vpn] = pte
        self._superpages[base_vpn] = order
        return pte

    def superpage_base(self, virtual_page: int):
        """Return (base_vpn, order) if ``virtual_page`` lies inside an
        unsplit superpage, else None."""
        for base_vpn, order in self._superpages.items():
            if base_vpn <= virtual_page < base_vpn + (1 << order):
                return base_vpn, order
        return None

    def split_superpage(self, base_vpn: int) -> int:
        """Break a superpage into 4 KB PTEs (Section 6's hierarchical
        expansion).  Returns the number of PTEs created."""
        order = self._superpages.pop(base_vpn, None)
        if order is None:
            raise SimulationError(
                f"no unsplit superpage at base {base_vpn:#x}"
            )
        base_pte = self._entries.pop(base_vpn)
        pages = 1 << order
        for offset in range(pages):
            self._entries[base_vpn + offset] = PageTableEntry(
                virtual_page=base_vpn + offset,
                physical_page=base_pte.physical_page + offset,
                non_cacheable=base_pte.non_cacheable,
            )
        self.superpage_splits += 1
        return pages

    def entry(self, virtual_page: int) -> PageTableEntry:
        """Return the PTE for ``virtual_page``, materialising on demand.

        Inside an unsplit superpage this returns the *base* PTE, whose
        ``superpage_order`` tells the handler it covers the whole run.
        The fused kernel (:func:`repro.cpu.batched._run_kernel`) writes
        out the first touch of a table with no unsplit superpage.
        """
        pte = self._entries.get(virtual_page)
        if pte is not None:
            return pte
        if self._superpages:
            location = self.superpage_base(virtual_page)
            if location is not None:
                return self._entries[location[0]]
        pte = PageTableEntry(
            virtual_page=virtual_page,
            physical_page=self.allocator.allocate(),
        )
        self._entries[virtual_page] = pte
        return pte

    def existing_entry(self, virtual_page: int) -> Optional[PageTableEntry]:
        """Return the PTE only if the page was already touched."""
        return self._entries.get(virtual_page)

    def set_non_cacheable(self, virtual_page: int, value: bool = True) -> None:
        """Flag a page as NC (the mmap-extension hook of Section 3.5)."""
        self.entry(virtual_page).non_cacheable = value

    def __len__(self) -> int:
        return len(self._entries)

    def cached_pages(self) -> int:
        """Number of pages currently marked Valid-in-Cache."""
        return sum(1 for pte in self._entries.values() if pte.valid_in_cache)
