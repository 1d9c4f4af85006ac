"""Address arithmetic for the simulated machine.

The paper assumes a 48-bit physical address space, 4 KB OS pages (the
caching granularity of the tagless design) and conventional 64-byte cache
lines for the on-die SRAM caches.  All addresses in the simulator are plain
Python ``int`` byte addresses; this module centralises the bit twiddling so
no other module hard-codes shift amounts.

Two address *kinds* flow through the system:

- **physical addresses (PA)** name bytes in off-package DRAM;
- **cache addresses (CA)** name bytes inside the in-package DRAM cache.

Both kinds share page/line geometry, so the helpers below apply to either.
The :class:`AddressSpace` helper distinguishes the two value ranges when a
component (e.g. the cTLB) must know which kind it is holding.
"""

from __future__ import annotations

import dataclasses

BYTES_PER_KB = 1024
BYTES_PER_MB = 1024 * BYTES_PER_KB
BYTES_PER_GB = 1024 * BYTES_PER_MB

#: OS page size -- the caching granularity of every page-based design here.
PAGE_BYTES = 4 * BYTES_PER_KB
PAGE_SHIFT = 12

#: Conventional cache line size used by the on-die L1/L2 caches.
CACHE_LINE_BYTES = 64
LINE_SHIFT = 6

#: Number of 64 B lines in one 4 KB page (the paper's "64 blocks per page").
LINES_PER_PAGE = PAGE_BYTES // CACHE_LINE_BYTES

#: Width of the physical address space assumed by the paper (48 bits).
PHYSICAL_ADDRESS_BITS = 48

#: Pages in that address space (2^36): every page number, virtual or
#: physical, lies below it.
ADDRESS_SPACE_PAGES = 1 << (PHYSICAL_ADDRESS_BITS - PAGE_SHIFT)


def page_of_address(address: int) -> int:
    """Return the page number containing byte ``address``."""
    return address >> PAGE_SHIFT


def line_of_address(address: int) -> int:
    """Return the global line number containing byte ``address``."""
    return address >> LINE_SHIFT


def line_index_in_page(address: int) -> int:
    """Return the 0..63 index of the line within its page."""
    return (address >> LINE_SHIFT) & (LINES_PER_PAGE - 1)


def address_of_page(page_number: int) -> int:
    """Return the base byte address of ``page_number``."""
    return page_number << PAGE_SHIFT


def address_of_line(line_number: int) -> int:
    """Return the base byte address of global line ``line_number``."""
    return line_number << LINE_SHIFT


def lines_of_page(page_number: int) -> range:
    """Return the range of global line numbers belonging to a page.

    Used when a page-granularity event (e.g. a tagless-cache eviction that
    recycles a cache address) must touch every 64 B line of the page, such
    as invalidating stale on-die cache lines.
    """
    first = page_number * LINES_PER_PAGE
    return range(first, first + LINES_PER_PAGE)


def page_of_line(line_number: int) -> int:
    """Return the page number that global line ``line_number`` belongs to."""
    return line_number // LINES_PER_PAGE


@dataclasses.dataclass(frozen=True)
class AddressSpace:
    """A contiguous page-number range, used to tell PAs and CAs apart.

    The tagless design stores *cache* page numbers in the page table and
    cTLB once a page is cached.  Components that must distinguish the two
    namespaces (for instance the bank-interleaving design, which maps a
    slice of the physical space onto in-package DRAM) carry an
    ``AddressSpace`` describing the page-number interval they own.
    """

    base_page: int
    num_pages: int

    def __post_init__(self) -> None:
        if self.base_page < 0 or self.num_pages <= 0:
            raise ValueError(
                "AddressSpace requires base_page >= 0 and num_pages > 0, "
                f"got base_page={self.base_page} num_pages={self.num_pages}"
            )

    @property
    def limit_page(self) -> int:
        """One past the last page number in the space."""
        return self.base_page + self.num_pages

    @property
    def num_bytes(self) -> int:
        return self.num_pages * PAGE_BYTES

    def contains_page(self, page_number: int) -> bool:
        """Return True if ``page_number`` falls inside this space."""
        return self.base_page <= page_number < self.limit_page

    def contains_address(self, address: int) -> bool:
        """Return True if byte ``address`` falls inside this space."""
        return self.contains_page(page_of_address(address))

    def offset_of_page(self, page_number: int) -> int:
        """Return the 0-based index of a page within this space."""
        if not self.contains_page(page_number):
            raise ValueError(
                f"page {page_number:#x} outside space "
                f"[{self.base_page:#x}, {self.limit_page:#x})"
            )
        return page_number - self.base_page
