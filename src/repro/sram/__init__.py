"""On-die SRAM structures: L1/L2 caches and the SRAM-tag array baseline.

Every structure here is LRU, as the paper's on-die caches and SRAM-tag
store are (Table 3, Section 2.2).  The tagless design's FIFO/LRU victim
selection (Figure 11) lives in :mod:`repro.core.policies`.

:class:`repro.sram.set_assoc.SetAssociativeCache` backs both on-die
cache levels; :class:`repro.sram.hierarchy.OnDieHierarchy` wires an L1
and an L2 together with write-back semantics; and
:class:`repro.sram.tag_array.SRAMTagArray` models the 16-way page-tag
store of the paper's SRAM-tag baseline (Figure 1, Table 6).
"""

from repro.sram.hierarchy import AccessResult, OnDieHierarchy
from repro.sram.set_assoc import SetAssociativeCache
from repro.sram.tag_array import SRAMTagArray

__all__ = [
    "AccessResult",
    "OnDieHierarchy",
    "SetAssociativeCache",
    "SRAMTagArray",
]
