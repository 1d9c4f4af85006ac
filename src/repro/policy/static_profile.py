"""Offline-profile NC classification (the Section 5.4 case study).

A profiling pass over the workload's trace counts accesses per page;
pages below a threshold (the paper uses 32 -- under half of a 4 KB
page's 64 blocks) are pinned non-cacheable, so they stop polluting the
DRAM cache and stop burning off-package bandwidth on 4 KB fills.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Set, Tuple

from repro.policy.base import CachingPolicy, PolicyDecision
from repro.vm.page_table import PageTableEntry
from repro.workloads.trace import AccessTrace

#: The paper's threshold: fewer than half of the page's 64 blocks.
DEFAULT_THRESHOLD = 32


class StaticProfilePolicy(CachingPolicy):
    """Pin profiled low-reuse pages NC; cache everything else."""

    name = "static-profile"
    #: The NC page set is the (static) profile, not a counter.
    COUNTERS = ("pinned", "cached")

    def __init__(self, nc_pages: Mapping[int, Iterable[int]]):
        """``nc_pages`` maps process id -> virtual pages to pin NC."""
        self._nc: Set[Tuple[int, int]] = {
            (process_id, int(page))
            for process_id, pages in nc_pages.items()
            for page in pages
        }
        self.pinned = 0
        self.cached = 0

    @classmethod
    def from_traces(
        cls,
        traces: Mapping[int, AccessTrace],
        threshold: int = DEFAULT_THRESHOLD,
    ) -> "StaticProfilePolicy":
        """Build the policy by profiling traces (process id -> trace)."""
        nc: Dict[int, list] = {}
        for process_id, trace in traces.items():
            counts = trace.page_access_counts()
            nc[process_id] = [
                page for page, count in counts.items() if count < threshold
            ]
        return cls(nc)

    def decide(
        self,
        process_id: int,
        virtual_page: int,
        pte: PageTableEntry,
        now_ns: float,
    ) -> PolicyDecision:
        if (process_id, virtual_page) in self._nc:
            self.pinned += 1
            return PolicyDecision.PIN_NC
        self.cached += 1
        return PolicyDecision.CACHE

    @property
    def nc_page_count(self) -> int:
        return len(self._nc)

    def stats(self, prefix: str = "") -> dict:
        out = super().stats(prefix)
        out[f"{prefix}nc_pages"] = float(len(self._nc))
        return out
