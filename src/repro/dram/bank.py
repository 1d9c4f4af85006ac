"""Per-bank row-buffer state.

A DRAM row in both devices holds one 4 KB page (Table 4 quotes the
ACT+PRE energy "per 4 KB page"), so the row identifier *is* the page
number and pages map to banks by simple modulo interleaving -- the same
bank-interleaving the paper's BI design relies on.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.addressing import CACHE_LINE_BYTES
from repro.common.config import DRAMTimingConfig
from repro.common.stats import Counters


class BankArray(Counters):
    """Open-row bookkeeping for all banks of one DRAM device.

    The array answers a single question for each access: does the target
    page hit the open row buffer of its bank (cheap), land on a precharged
    bank (activate only), or conflict with a different open row (precharge
    then activate)?
    """

    __slots__ = ("timing", "_open_rows", "row_hits", "row_misses",
                 "row_empties", "_total_banks", "_block_hit_ns",
                 "_block_empty_ns", "_block_miss_ns")

    COUNTERS = ("row_hits", "row_misses", "row_empties")

    def __init__(self, timing: DRAMTimingConfig):
        self.timing = timing
        self._open_rows: Dict[int, int] = {}
        self.row_hits = 0
        self.row_misses = 0
        self.row_empties = 0
        # Hoisted per-device constants: the bank count and the 64 B
        # hit/empty/miss latencies access() returns.
        self._total_banks = timing.total_banks
        self._block_hit_ns = timing.row_hit_ns(CACHE_LINE_BYTES)
        self._block_empty_ns = timing.row_empty_ns(CACHE_LINE_BYTES)
        self._block_miss_ns = timing.row_miss_ns(CACHE_LINE_BYTES)

    def bank_of_page(self, page_number: int) -> int:
        """Bank index a page maps to (modulo interleaving)."""
        return page_number % self._total_banks

    def open_row(self, bank: int) -> Optional[int]:
        """Page number currently open in ``bank``, or None if precharged."""
        return self._open_rows.get(bank)

    def access(self, page_number: int) -> tuple:
        """Record a 64 B access to ``page_number`` and return its cost.

        Returns
        -------
        (latency_ns, activations):
            Core-visible latency of the access and the number of
            activate+precharge pairs it incurred (for energy accounting).

        The fused kernel's fill (:func:`repro.cpu.batched._run_kernel`)
        writes this body out for the first of its two posted GIPT
        writes and counts the row outcomes at its exit; the second
        write, to the same page with nothing in between, is a row hit.
        """
        bank = page_number % self._total_banks
        open_rows = self._open_rows
        current = open_rows.get(bank)
        if current == page_number:
            self.row_hits += 1
            return self._block_hit_ns, 0
        open_rows[bank] = page_number
        if current is None:
            self.row_empties += 1
            return self._block_empty_ns, 1
        self.row_misses += 1
        return self._block_miss_ns, 1

    def precharge_all(self) -> None:
        """Close every row (used between independent experiment phases)."""
        self._open_rows.clear()

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_misses + self.row_empties

    def row_hit_rate(self) -> float:
        """Fraction of accesses that hit an open row buffer."""
        total = self.accesses
        if total == 0:
            return 0.0
        return self.row_hits / total
