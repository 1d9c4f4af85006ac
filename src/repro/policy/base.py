"""Caching-policy interface consulted by the cTLB miss handler.

The handler reaches the policy exactly once per cTLB miss on a
cacheable-but-uncached page -- the shaded decision point of Figure 4 --
and the policy answers with a :class:`PolicyDecision`:

- ``CACHE``: proceed with the normal fill (allocate at HP, copy page);
- ``BYPASS``: serve this TLB window from off-package DRAM (a
  conventional VA->PA mapping is installed), but leave the PTE's NC bit
  clear so the page is reconsidered at its next TLB miss;
- ``PIN_NC``: set the PTE's NC bit permanently (Section 3.5's
  "non-cacheable page": all future misses skip the policy too).

Policies also observe fills and evictions so online schemes can learn.
"""

from __future__ import annotations

import enum

from repro.common.stats import Counters
from repro.vm.page_table import PageTableEntry


class PolicyDecision(enum.Enum):
    """What to do with a cacheable page at its cTLB miss."""

    CACHE = "cache"
    BYPASS = "bypass"
    PIN_NC = "pin_nc"


class CachingPolicy(Counters):
    """Interface for page-caching policies.

    Implementations must be cheap: ``decide`` runs inside the simulated
    TLB miss handler, the hottest slow path in the system.  Decision
    counters go in ``COUNTERS`` (reported under the ``policy_`` stats
    prefix and zeroed at the warmup/measurement boundary); learned state
    (touch counts, profiles) is not a counter and survives that reset.
    """

    #: Registry/reporting name; subclasses override.
    name = "abstract"

    def decide(
        self,
        process_id: int,
        virtual_page: int,
        pte: PageTableEntry,
        now_ns: float,
    ) -> PolicyDecision:
        """Choose CACHE, BYPASS or PIN_NC for an uncached page."""
        raise NotImplementedError

    def on_fill(self, process_id: int, virtual_page: int) -> None:
        """A page chosen for caching was filled (learning hook)."""

    def on_evicted(self, physical_page: int) -> None:
        """A cached page was evicted from the DRAM cache."""
