"""Free queue and header-pointer free pool (Section 3.2, Figure 3).

Two cooperating pieces keep cache fills off the eviction critical path:

- the **free pool**: cache blocks with no valid data, consumed by the
  header pointer (HP) at fills.  The design invariant is that at least
  ``alpha`` blocks are free at any instant, so a fill never waits for a
  victim to drain;
- the **free queue**: a FIFO of cache addresses whose eviction has been
  *decided* but not yet performed.  A background process drains it --
  writing dirty pages back and rewriting PTEs -- asynchronously.

In the simulator the drain happens eagerly (state-wise) while its costs
are charged as background bus/energy traffic, which is exactly the
observable behaviour of the paper's asynchronous eviction.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.common.errors import SimulationError
from repro.common.stats import Counters


class FreeQueue(Counters):
    """FIFO of cache pages pending eviction, plus the free-block pool."""

    COUNTERS = ("allocations", "evictions_enqueued", "evictions_completed")

    def __init__(self, capacity_pages: int, alpha: int = 1):
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        if capacity_pages <= alpha:
            raise ValueError(
                f"cache of {capacity_pages} pages cannot reserve "
                f"alpha={alpha} free blocks"
            )
        self.capacity_pages = capacity_pages
        self.alpha = alpha
        # All blocks start free; HP walks them in address order first time
        # around, matching the paper's incrementing header pointer.
        self._free: Deque[int] = deque(range(capacity_pages))
        self._pending: Deque[int] = deque()
        self.allocations = 0
        self.evictions_enqueued = 0
        self.evictions_completed = 0

    # ------------------------------------------------------------------
    # Header-pointer side
    # ------------------------------------------------------------------
    @property
    def header_pointer(self) -> Optional[int]:
        """The next cache page a fill will receive (None if exhausted)."""
        return self._free[0] if self._free else None

    def allocate(self) -> int:
        """Hand the HP block to a fill and advance the pointer."""
        if not self._free:
            raise SimulationError(
                "cache fill found no free block: the alpha invariant was "
                "violated (victim selection could not find an evictable "
                "page -- is the cache smaller than total TLB reach?)"
            )
        self.allocations += 1
        return self._free.popleft()

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    def needs_eviction(self) -> bool:
        """True when the pool has dropped below alpha free blocks."""
        return len(self._free) < self.alpha

    # ------------------------------------------------------------------
    # Eviction side
    # ------------------------------------------------------------------
    def enqueue_eviction(self, cache_page: int) -> None:
        """Queue a victim for the asynchronous eviction process."""
        self._pending.append(cache_page)
        self.evictions_enqueued += 1

    def pop_pending(self) -> Optional[int]:
        """Take the oldest queued victim (the background drain)."""
        if not self._pending:
            return None
        return self._pending.popleft()

    def mark_free(self, cache_page: int) -> None:
        """Return a fully evicted block to the free pool."""
        if not (0 <= cache_page < self.capacity_pages):
            raise SimulationError(
                f"freeing CA {cache_page:#x} outside the cache"
            )
        self._free.append(cache_page)
        self.evictions_completed += 1

    @property
    def pending_evictions(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Introspection (validation support; no simulation side effects)
    # ------------------------------------------------------------------
    def free_pages(self) -> tuple:
        """Snapshot of the free pool, HP first."""
        return tuple(self._free)

    def pending_pages(self) -> tuple:
        """Snapshot of the eviction queue, oldest first."""
        return tuple(self._pending)

    def stats(self, prefix: str = "") -> dict:
        out = super().stats(prefix)
        out[f"{prefix}free_blocks"] = float(len(self._free))
        out[f"{prefix}pending"] = float(len(self._pending))
        return out
