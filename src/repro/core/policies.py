"""Victim selection for the tagless cache (Section 5.2, Figure 11).

The paper's default is FIFO -- victims leave in allocation order, which is
what makes the header pointer a simple incrementing counter -- with the
constraint that a page still resident in some TLB is never chosen (the
GIPT residence bits guarantee "cTLB hit implies cache hit").  Figure 11
compares FIFO against LRU and finds LRU only ~1.6 % better, justifying
the cheaper policy; both are implemented here behind one interface so the
ablation benchmark can swap them.

TLB-resident pages encountered at the FIFO head are re-queued behind the
tail (second-chance style).  The paper only specifies that residents are
not enqueued for eviction; re-queueing is the natural realisation and
coincides with strict FIFO whenever residents are a small minority of the
victim region, which Table 3's sizes guarantee.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Optional

from repro.common.errors import SimulationError

ProtectedFn = Callable[[int], bool]


class VictimTracker:
    """Interface: orders cached pages for eviction."""

    def on_fill(self, cache_page: int) -> None:
        """A page was just allocated at ``cache_page``."""
        raise NotImplementedError

    def on_touch(self, cache_page: int) -> None:
        """The page at ``cache_page`` was accessed (LRU cares, FIFO not)."""
        raise NotImplementedError

    def on_evicted(self, cache_page: int) -> None:
        """The page at ``cache_page`` left the cache."""
        raise NotImplementedError

    def select(self, protected: ProtectedFn) -> Optional[int]:
        """Choose and remove the next victim, skipping protected pages.

        Returns None when every tracked page is protected (the caller
        treats this as "cannot maintain alpha right now").
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def tracked_pages(self):
        """Live tracked pages (validation support, read-only)."""
        raise NotImplementedError


class FIFOVictimTracker(VictimTracker):
    """Allocation-order victims with second-chance skipping of residents.

    Queue entries are (cache_page, epoch) pairs and each page carries a
    current epoch, bumped on every fill.  A dequeued entry whose epoch is
    stale -- the page was evicted, or evicted and refilled since it was
    enqueued -- is discarded, which keeps selection O(1) amortised with
    no linear deque surgery and makes double-selection impossible.
    """

    def __init__(self) -> None:
        self._queue: deque = deque()
        self._epoch: dict = {}
        self._live: set = set()
        self.skips = 0

    def on_fill(self, cache_page: int) -> None:
        """Queue the page under a fresh epoch.  The fused kernel's fill
        (:func:`repro.cpu.batched._run_kernel`) writes this body out."""
        epoch = self._epoch.get(cache_page, 0) + 1
        self._epoch[cache_page] = epoch
        self._queue.append((cache_page, epoch))
        self._live.add(cache_page)

    def on_touch(self, cache_page: int) -> None:
        pass  # FIFO ignores reuse; that is its whole point.

    def on_evicted(self, cache_page: int) -> None:
        self._live.discard(cache_page)

    def select(self, protected: ProtectedFn) -> Optional[int]:
        attempts = len(self._queue)
        for _ in range(attempts):
            candidate, epoch = self._queue.popleft()
            if (candidate not in self._live
                    or self._epoch.get(candidate) != epoch):
                continue  # stale entry: evicted (and maybe refilled)
            if protected(candidate):
                self.skips += 1
                self._queue.append((candidate, epoch))
                continue
            self._live.discard(candidate)
            return candidate
        return None

    def __len__(self) -> int:
        return len(self._live)

    def tracked_pages(self):
        return tuple(self._live)


class LRUVictimTracker(VictimTracker):
    """Least-recently-used victims (the Figure 11 comparison point)."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()
        self.skips = 0

    def on_fill(self, cache_page: int) -> None:
        self._order[cache_page] = None
        self._order.move_to_end(cache_page)

    def on_touch(self, cache_page: int) -> None:
        if cache_page in self._order:
            self._order.move_to_end(cache_page)

    def on_evicted(self, cache_page: int) -> None:
        self._order.pop(cache_page, None)

    def select(self, protected: ProtectedFn) -> Optional[int]:
        victim = None
        for candidate in self._order:
            if protected(candidate):
                self.skips += 1
                continue
            victim = candidate
            break
        if victim is None:
            return None
        del self._order[victim]
        return victim

    def __len__(self) -> int:
        return len(self._order)

    def tracked_pages(self):
        return tuple(self._order)


class ClockVictimTracker(VictimTracker):
    """CLOCK (second-chance) victim selection.

    Section 5.2 of the paper names CLOCK as the kind of LRU
    approximation whose extra state the tagless design avoids; this
    implementation lets the Figure 11 ablation measure a third point
    between FIFO and LRU.  One reference bit per page, set on touch;
    the hand gives referenced pages a second chance.
    """

    def __init__(self) -> None:
        self._ring: deque = deque()
        self._referenced: dict = {}
        self.skips = 0

    def on_fill(self, cache_page: int) -> None:
        self._ring.append(cache_page)
        self._referenced[cache_page] = False

    def on_touch(self, cache_page: int) -> None:
        if cache_page in self._referenced:
            self._referenced[cache_page] = True

    def on_evicted(self, cache_page: int) -> None:
        self._referenced.pop(cache_page, None)

    def select(self, protected: ProtectedFn) -> Optional[int]:
        # Two sweeps suffice: the first clears reference bits, the
        # second finds an unreferenced, unprotected page (unless all
        # live pages are protected).
        for _ in range(2 * len(self._ring)):
            if not self._ring:
                return None
            candidate = self._ring.popleft()
            if candidate not in self._referenced:
                continue  # stale: already evicted
            if protected(candidate):
                self.skips += 1
                self._ring.append(candidate)
                continue
            if self._referenced[candidate]:
                self._referenced[candidate] = False
                self._ring.append(candidate)
                continue
            del self._referenced[candidate]
            return candidate
        return None

    def __len__(self) -> int:
        return len(self._referenced)

    def tracked_pages(self):
        return tuple(self._referenced)


def make_victim_tracker(name: str) -> VictimTracker:
    """Instantiate a victim policy by config name ("fifo", "lru" or
    "clock")."""
    if name == "fifo":
        return FIFOVictimTracker()
    if name == "lru":
        return LRUVictimTracker()
    if name == "clock":
        return ClockVictimTracker()
    raise SimulationError(f"unknown victim policy {name!r}")
