"""Memory-access trace container.

A trace is four parallel columns -- virtual page, line-in-page, write
flag, and the instruction gap since the previous access -- plus the
metadata the core model needs (base CPI, MLP).  Traces are generated
once per (workload, seed) and are deterministic.

:class:`AccessTrace` is the one representation: the generators build
it, analysis reads its numpy columns, and replay reads the plain lists
of :meth:`AccessTrace.as_lists`.  The columns may be numpy views over
any buffer (the harness wraps views of a shared-memory segment), and
:meth:`AccessTrace.slice` takes views, not copies.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.common.addressing import ADDRESS_SPACE_PAGES, LINES_PER_PAGE
from repro.common.errors import TraceError


@dataclasses.dataclass
class AccessTrace:
    """One core's memory reference stream."""

    name: str
    virtual_pages: np.ndarray
    lines: np.ndarray
    writes: np.ndarray
    instruction_gaps: np.ndarray
    base_cpi: float = 0.5
    mlp: float = 2.0

    def __post_init__(self) -> None:
        # Lazily built by as_lists(); seeded by slice() when the parent
        # trace has already paid for the numpy->Python conversion.
        self._lists = None
        n = len(self.virtual_pages)
        for field in ("lines", "writes", "instruction_gaps"):
            if len(getattr(self, field)) != n:
                raise TraceError(
                    f"trace {self.name!r}: {field} has "
                    f"{len(getattr(self, field))} entries, expected {n}"
                )
        if n and (self.lines.min() < 0 or self.lines.max() >= LINES_PER_PAGE):
            raise TraceError(
                f"trace {self.name!r}: line indices outside 0..63"
            )
        if n and self.virtual_pages.min() < 0:
            raise TraceError(f"trace {self.name!r}: negative virtual page")
        if n and self.virtual_pages.max() >= ADDRESS_SPACE_PAGES:
            raise TraceError(f"trace {self.name!r}: virtual page past "
                             f"the address space ({ADDRESS_SPACE_PAGES})")
        if n and self.instruction_gaps.min() < 0:
            raise TraceError(f"trace {self.name!r}: negative instruction gap")

    def __len__(self) -> int:
        return len(self.virtual_pages)

    @property
    def total_instructions(self) -> int:
        """Instructions represented, including the memory ops themselves."""
        return int(self.instruction_gaps.sum()) + len(self)

    @property
    def footprint_pages(self) -> int:
        """Distinct virtual pages touched."""
        if len(self) == 0:
            return 0
        return int(np.unique(self.virtual_pages).size)

    @property
    def accesses_per_kilo_instruction(self) -> float:
        total = self.total_instructions
        if total == 0:
            return 0.0
        return 1000.0 * len(self) / total

    def write_fraction(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(self.writes.mean())

    def page_access_counts(self) -> dict:
        """Map virtual page -> access count (used to classify NC pages
        for the Section 5.4 case study)."""
        pages, counts = np.unique(self.virtual_pages, return_counts=True)
        return dict(zip(pages.tolist(), counts.tolist()))

    def as_lists(self):
        """Return (pages, lines, writes, gaps) as plain Python lists.

        The simulator's inner loop iterates millions of times; list
        indexing is several times faster than numpy scalar extraction.
        The conversion is cached on the trace (and inherited by
        :meth:`slice` children), so replaying the same trace against
        several designs -- or splitting it into warmup and measurement
        phases -- converts each array exactly once.
        """
        if self._lists is None:
            self._lists = (
                self.virtual_pages.tolist(),
                self.lines.tolist(),
                self.writes.tolist(),
                self.instruction_gaps.tolist(),
            )
        return self._lists

    def head(self, accesses: int) -> "AccessTrace":
        """A shortened copy (used by unit tests and quick examples)."""
        return self.slice(0, accesses)

    def slice(self, start: int, stop: int) -> "AccessTrace":
        """A sub-trace covering accesses [start, stop) -- used to split
        traces into warmup and measurement phases."""
        child = AccessTrace(
            name=self.name,
            virtual_pages=self.virtual_pages[start:stop],
            lines=self.lines[start:stop],
            writes=self.writes[start:stop],
            instruction_gaps=self.instruction_gaps[start:stop],
            base_cpi=self.base_cpi,
            mlp=self.mlp,
        )
        if self._lists is not None:
            # Slice the already-converted lists instead of reconverting
            # the numpy views (list slicing is a memcpy of references).
            child._lists = tuple(part[start:stop] for part in self._lists)
        return child

