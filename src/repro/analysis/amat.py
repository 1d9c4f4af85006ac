"""Analytic average-memory-access-time model -- Equations 1-5.

The paper derives AMAT for the SRAM-tag baseline (Equations 1-3) and the
tagless cache (Equations 4-5).  This module implements both expressions
so they can be unit-tested against hand-computed values and used for
quick what-if studies without running traces
(``examples/amat_model_explorer.py``).  Nothing feeds them measured
statistics from a simulation yet: the designs record only a total L3
latency, not the per-term components the equations take.

All times are in core cycles, all rates in [0, 1].
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class AMATInputs:
    """Shared model parameters for one configuration point.

    Attributes mirror the symbols of Equations 1-5:

    - ``tlb_miss_rate`` / ``tlb_miss_penalty`` -- conventional TLB terms;
    - ``l12_hit_time`` / ``l12_miss_rate`` -- the on-die cache pair seen
      as one unit, as the equations do;
    - ``tag_time`` -- ``AccessTime_SRAM-tag`` (Table 6);
    - ``block_time_in_pkg`` -- ``BlockAccessTime_in-pkg``;
    - ``page_time_off_pkg`` -- ``PageAccessTime_off-pkg`` (a 4 KB fill);
    - ``l3_miss_rate`` -- DRAM-cache miss rate (SRAM-tag design);
    - ``victim_miss_rate`` -- ``MissRate_Victim``: fraction of cTLB
      misses that do *not* find the page already cached;
    - ``gipt_time`` -- ``AccessTime_GIPT`` (two off-package writes).
    """

    tlb_miss_rate: float
    tlb_miss_penalty: float
    l12_hit_time: float
    l12_miss_rate: float
    tag_time: float
    block_time_in_pkg: float
    page_time_off_pkg: float
    l3_miss_rate: float
    victim_miss_rate: float
    gipt_time: float

    def __post_init__(self) -> None:
        for name in (
            "tlb_miss_rate",
            "l12_miss_rate",
            "l3_miss_rate",
            "victim_miss_rate",
        ):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a rate in [0,1], got {value}")


def avg_l3_latency_sram(inputs: AMATInputs) -> float:
    """Equation 3: AvgL3Latency for the SRAM-tag cache.

    The tag probe is unconditional -- it gates hits *and* misses -- which
    is the latency the tagless design deletes.
    """
    return (
        inputs.tag_time
        + inputs.block_time_in_pkg
        + inputs.l3_miss_rate * inputs.page_time_off_pkg
    )


def amat_sram_tag(inputs: AMATInputs) -> float:
    """Equations 1-2: full AMAT of the SRAM-tag baseline."""
    amat_tlb_hit = (
        inputs.l12_hit_time
        + inputs.l12_miss_rate * avg_l3_latency_sram(inputs)
    )
    return inputs.tlb_miss_rate * inputs.tlb_miss_penalty + amat_tlb_hit


def miss_penalty_ctlb(inputs: AMATInputs) -> float:
    """Equation 5: the cTLB miss penalty.

    A cTLB miss always pays the conventional walk; only when the page is
    genuinely absent (a victim *miss*) does it also pay the GIPT update
    and the off-package page copy.
    """
    return inputs.tlb_miss_penalty + inputs.victim_miss_rate * (
        inputs.gipt_time + inputs.page_time_off_pkg
    )


def amat_tagless(inputs: AMATInputs) -> float:
    """Equation 4: full AMAT of the tagless cache.

    Note what is *missing* relative to :func:`amat_sram_tag`: no
    ``tag_time`` and no per-access L3 miss term -- a cTLB hit guarantees
    an in-package hit at plain ``block_time_in_pkg``.
    """
    return (
        inputs.tlb_miss_rate * miss_penalty_ctlb(inputs)
        + inputs.l12_hit_time
        + inputs.l12_miss_rate * inputs.block_time_in_pkg
    )


def tagless_advantage(inputs: AMATInputs) -> float:
    """AMAT(SRAM-tag) - AMAT(tagless): positive when tagless wins.

    Useful for sweeping the analytic model over rates to find the
    crossover (e.g. how high the victim miss rate must climb before the
    fill-at-TLB-miss policy stops paying off).
    """
    return amat_sram_tag(inputs) - amat_tagless(inputs)
