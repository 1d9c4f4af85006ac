"""The paper's default policy: cache every cacheable page on first miss."""

from __future__ import annotations

from repro.policy.base import CachingPolicy, PolicyDecision
from repro.vm.page_table import PageTableEntry


class AlwaysCachePolicy(CachingPolicy):
    """Unconditional caching -- the behaviour evaluated in Figures 7-12."""

    name = "always"
    COUNTERS = ("decisions",)

    def __init__(self) -> None:
        self.decisions = 0

    def decide(
        self,
        process_id: int,
        virtual_page: int,
        pte: PageTableEntry,
        now_ns: float,
    ) -> PolicyDecision:
        self.decisions += 1
        return PolicyDecision.CACHE
