"""The paper's evaluation figures (Section 5) as data.

Each entry of :data:`FIGURES` is one figure: a factor grid named with
the campaign factor names (:data:`repro.campaign.spec.FACTOR_FIELDS`),
the :class:`~repro.harness.JobSpec` fields it holds fixed, its default
per-core trace length and the renderer that reduces the grid to the
paper-style text tables and the ``--json`` dict.  :func:`run_figure`
expands a figure's grid into jobs (last factor varying fastest),
dispatches them through the experiment harness (:mod:`repro.harness`)
and returns a :class:`FigureResult`.  ``repro experiment``, ``repro
validate`` and the ``benchmarks/bench_fig*`` wrappers all call it, so
the same code path regenerates every number in EXPERIMENTS.md.

A keyword argument named after a factor replaces that factor's levels
(``run_figure("fig9", workload=("MIX1",))``), which is how the validate
scorecard and the tests run subsets.  Passing a
:class:`~repro.harness.Harness` parallelises the sweep across processes
and/or replays points from the on-disk result cache; the default
(``harness=None``) is the serial, uncached reference path and produces
byte-identical tables either way, because every job is fully determined
by its spec.

Figures run at the library default seed.  They do not go through
:func:`repro.campaign.expand`, which derives a seed per cell and would
change every number and every cache key.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.analysis.report import format_table, normalize_to, percent_delta
from repro.campaign.spec import FACTOR_FIELDS
from repro.common.errors import ConfigurationError
from repro.common.machine import MachineSpec
from repro.common.stats import geometric_mean
from repro.cpu.simulator import SimulationResult
from repro.designs.registry import DESIGN_NAMES
from repro.harness.jobs import JobSpec
from repro.harness.runner import Harness
from repro.workloads.generator import TraceGenerator
from repro.workloads.mixes import MIX_ORDER
from repro.workloads.parsec import PARSEC_ORDER
from repro.workloads.spec import SPEC_ORDER, spec_profile

Cell = Tuple[Hashable, ...]
Rendered = Tuple[List[str], Dict[str, object]]


def _sweep(
    specs: Dict[Hashable, JobSpec], harness: Optional[Harness]
) -> Dict[Hashable, SimulationResult]:
    """Dispatch ``specs`` through ``harness`` (serial when ``None``).

    Returns results keyed like the input.  Raises
    :class:`~repro.harness.HarnessError` listing every failed point --
    the successful remainder is already cached, so a retry after a fix
    only recomputes the failures.
    """
    harness = harness or Harness()
    results = harness.run_strict(list(specs.values()))
    return dict(zip(specs.keys(), results))


@dataclasses.dataclass(frozen=True)
class Figure:
    """One figure: factor grid, fixed job fields, trace length, renderer."""

    #: Factor name -> levels, outermost loop first.
    factors: Dict[str, Tuple[Hashable, ...]]
    #: JobSpec fields every job holds constant.
    fixed: Dict[str, object]
    #: Default per-core trace length.
    accesses: int
    render: Callable[["FigureResult"], Rendered]


@dataclasses.dataclass
class FigureResult:
    """A figure's simulated grid: one job and one result per cell.

    Cells are addressed by factor keyword (``value("ipc_sum",
    workload="mcf", design="tagless")``); ``metric`` is a
    :class:`SimulationResult` attribute such as ``"ipc_sum"``, ``"edp"``
    or ``"mean_l3_latency_cycles"``.
    """

    name: str
    levels: Dict[str, Tuple[Hashable, ...]]
    jobs: Dict[Cell, JobSpec]
    results: Dict[Cell, SimulationResult]

    def _cell(self, cell: Dict[str, Hashable]) -> Cell:
        return tuple(cell[factor] for factor in self.levels)

    def spec(self, **cell: Hashable) -> JobSpec:
        return self.jobs[self._cell(cell)]

    def value(self, metric: str, **cell: Hashable) -> float:
        return getattr(self.results[self._cell(cell)], metric)

    def normalized(self, metric: str, *, over: str = "design",
                   baseline: Hashable = "no-l3",
                   **cell: Hashable) -> Dict[Hashable, float]:
        """``metric`` per level of ``over``, normalised to ``baseline``."""
        return normalize_to(
            {level: self.value(metric, **cell, **{over: level})
             for level in self.levels[over]},
            baseline,
        )

    def geomean(self, metric: str, level: Hashable, *,
                across: str = "workload", over: str = "design",
                baseline: Hashable = "no-l3", **cell: Hashable) -> float:
        """Geomean over ``across`` of ``level``'s normalised ``metric``."""
        return geometric_mean(
            self.normalized(metric, over=over, baseline=baseline,
                            **cell, **{across: row})[level]
            for row in self.levels[across]
        )

    def tables(self) -> List[str]:
        """The figure's paper-style text tables."""
        return FIGURES[self.name].render(self)[0]

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form of everything the tables print."""
        return FIGURES[self.name].render(self)[1]


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def _normalized_data(r: FigureResult, rows_key: str, *,
                     baseline: bool = False, geomean: bool = True,
                     latency: bool = False) -> Dict[str, object]:
    """The ``--json`` dict of Figs 7, 8, 9 and 12.

    The flags keep each figure's published key set: only Fig 9 names
    its baseline, Fig 12 has no geomeans, Figs 7/8 add L3 latencies.
    """
    rows, designs = r.levels["workload"], r.levels["design"]
    data: Dict[str, object] = {rows_key: list(rows),
                               "designs": list(designs)}
    if baseline:
        data["baseline"] = "no-l3"
    for key, metric in (("ipc", "ipc_sum"), ("edp", "edp")):
        data[f"normalized_{key}"] = {
            row: r.normalized(metric, workload=row) for row in rows
        }
    if geomean:
        for key, metric in (("ipc", "ipc_sum"), ("edp", "edp")):
            data[f"geomean_{key}"] = {
                d: r.geomean(metric, d) for d in designs
            }
    if latency:
        data["l3_latency_cycles"] = {
            row: {d: r.value("mean_l3_latency_cycles", workload=row,
                             design=d) for d in designs}
            for row in rows
        }
    return data


def _normalized_pair(r: FigureResult, *, titles: Tuple[str, str],
                     row: str = "program", rows_key: str = "programs",
                     geomean: bool = True, **data_flags: bool) -> Rendered:
    """Figs 7, 9, 12: IPC and EDP per workload, normalised to No-L3."""
    designs = r.levels["design"]
    tables = []
    for metric, title in zip(("ipc_sum", "edp"), titles):
        rows = [[w] + [r.normalized(metric, workload=w)[d] for d in designs]
                for w in r.levels["workload"]]
        if geomean:
            rows.append(["geomean"] + [r.geomean(metric, d) for d in designs])
        tables.append(format_table(title, [row] + list(designs), rows))
    return tables, _normalized_data(r, rows_key, geomean=geomean,
                                    **data_flags)


def _l3_latency(r: FigureResult) -> Rendered:
    """Fig 8: mean L3 latency, SRAM-tag vs tagless, per program."""
    programs = r.levels["workload"]

    def latency(program: str, design: str) -> float:
        return r.value("mean_l3_latency_cycles", workload=program,
                       design=design)

    rows = [[p, latency(p, "sram"), latency(p, "tagless"),
             percent_delta(latency(p, "tagless"), latency(p, "sram"))]
            for p in programs]
    sram_gm = geometric_mean(latency(p, "sram") for p in programs)
    tag_gm = geometric_mean(latency(p, "tagless") for p in programs)
    rows.append(["geomean", sram_gm, tag_gm, percent_delta(tag_gm, sram_gm)])
    table = format_table(
        "Figure 8: average L3 access latency in cycles (lower is better)",
        ["program", "sram-tag", "tagless", "delta %"],
        rows,
    )
    return [table], _normalized_data(r, "programs", latency=True)


def _cache_size(r: FigureResult) -> Rendered:
    """Fig 10: geomean IPC per cache size, normalised to BI."""
    sizes, mixes = r.levels["cache_mb"], r.levels["workload"]

    def gm(size: int, design: str) -> float:
        return r.geomean("ipc_sum", design, baseline="bi", cache_mb=size)

    table = format_table(
        "Figure 10: IPC vs DRAM cache size, normalised to "
        "bank-interleaving (geomean over mixes)",
        ["cache size", "sram-tag", "tagless"],
        [[f"{size}MB", gm(size, "sram"), gm(size, "tagless")]
         for size in sizes],
    )
    return [table], {
        "sizes_mb": list(sizes),
        "mixes": list(mixes),
        "normalized_ipc": {
            str(size): {m: r.normalized("ipc_sum", baseline="bi",
                                        cache_mb=size, workload=m)
                        for m in mixes}
            for size in sizes
        },
        "geomean_ipc": {
            str(size): {d: gm(size, d) for d in ("sram", "tagless")}
            for size in sizes
        },
    }


def _replacement(r: FigureResult) -> Rendered:
    """Fig 11: tagless IPC under FIFO vs LRU victim selection, per mix."""
    mixes = r.levels["workload"]
    vs_fifo = dict(over="replacement", baseline="fifo")
    ipc = {m: {p: r.value("ipc_sum", workload=m, replacement=p)
               for p in ("fifo", "lru")} for m in mixes}
    gain = {m: (r.normalized("ipc_sum", workload=m, **vs_fifo)["lru"] - 1.0)
            * 100.0 for m in mixes}
    mean_gain = (r.geomean("ipc_sum", "lru", **vs_fifo) - 1.0) * 100.0
    rows = [[m, ipc[m]["fifo"], ipc[m]["lru"], gain[m]] for m in mixes]
    rows.append(["geomean", "", "", mean_gain])
    table = format_table(
        "Figure 11: tagless-cache IPC under FIFO vs LRU replacement",
        ["mix", "fifo IPC", "lru IPC", "LRU gain %"],
        rows,
    )
    return [table], {"mixes": list(mixes), "ipc": ipc,
                     "lru_gain_percent": gain,
                     "mean_gain_percent": mean_gain}


def _noncacheable(r: FigureResult) -> Rendered:
    """Fig 13: tagless IPC without vs with NC-flagged low-reuse pages.

    The flagged-page count for the caption is recomputed from the
    deterministic trace, so it matches what the NC job computed inside
    the worker.
    """
    off, threshold = r.levels["nc_threshold"]
    spec = r.spec(nc_threshold=threshold)
    base = r.value("ipc_sum", nc_threshold=off)
    with_nc = r.value("ipc_sum", nc_threshold=threshold)
    gain = percent_delta(with_nc, base)
    counts = TraceGenerator(
        spec_profile(spec.workload), capacity_scale=spec.capacity_scale
    ).generate(spec.accesses).page_access_counts()
    nc_pages = sum(1 for count in counts.values() if count < threshold)
    table = format_table(
        f"Figure 13: effect of non-cacheable pages on {spec.workload} "
        f"({nc_pages} pages below {threshold} accesses flagged NC)",
        ["configuration", "IPC", "gain"],
        [["tagless", base, ""], ["tagless + NC", with_nc, f"+{gain:.1f}%"]],
    )
    return [table], {"baseline_ipc": base, "with_nc_ipc": with_nc,
                     "nc_pages": nc_pages, "threshold": threshold,
                     "gain_percent": gain}


_EDP_TITLE = "EDP normalised to No-L3 (lower is better)"

#: Every reproduced figure, by its ``repro experiment`` name.
FIGURES: Dict[str, Figure] = {
    "fig7": Figure(
        {"workload": SPEC_ORDER, "design": DESIGN_NAMES},
        {"workload_kind": "spec"}, 150_000,
        functools.partial(_normalized_pair, titles=(
            "Figure 7a: IPC normalised to No-L3 (single-programmed SPEC)",
            f"Figure 7b: {_EDP_TITLE}"), latency=True),
    ),
    "fig8": Figure(
        {"workload": SPEC_ORDER, "design": ("no-l3", "sram", "tagless")},
        {"workload_kind": "spec"}, 150_000, _l3_latency,
    ),
    "fig9": Figure(
        {"workload": MIX_ORDER, "design": DESIGN_NAMES},
        {"workload_kind": "mix"}, 100_000,
        functools.partial(_normalized_pair, titles=(
            "Figure 9a: IPC normalised to No-L3 (multi-programmed mixes)",
            f"Figure 9b: {_EDP_TITLE}"),
            row="mix", rows_key="mixes", baseline=True),
    ),
    "fig10": Figure(
        {"cache_mb": (256, 512, 1024), "workload": MIX_ORDER,
         "design": ("bi", "sram", "tagless")},
        {"workload_kind": "mix"}, 100_000, _cache_size,
    ),
    # Longer traces than the other mix figures: replacement only matters
    # once the singleton stream has filled the cache and evictions flow.
    "fig11": Figure(
        {"replacement": ("fifo", "lru"), "workload": MIX_ORDER},
        {"design": "tagless", "workload_kind": "mix"}, 140_000,
        _replacement,
    ),
    "fig12": Figure(
        {"workload": PARSEC_ORDER, "design": DESIGN_NAMES},
        {"workload_kind": "parsec", "parsec_threads": 4}, 100_000,
        functools.partial(_normalized_pair, titles=(
            "Figure 12a: IPC normalised to No-L3 (multi-threaded PARSEC)",
            f"Figure 12b: {_EDP_TITLE}"), geomean=False),
    ),
    # Section 5.4: pages with fewer than 32 accesses in the trace (fewer
    # than half of a page's 64 blocks touched) bypass the DRAM cache.
    "fig13": Figure(
        {"nc_threshold": (None, 32)},
        {"design": "tagless", "workload": "GemsFDTD",
         "workload_kind": "spec"}, 150_000, _noncacheable,
    ),
}


def expand_figure(
    name: str, *, accesses: Optional[int] = None,
    machine: Optional[MachineSpec] = None, **levels: Tuple[Hashable, ...],
) -> Tuple[Dict[str, Tuple[Hashable, ...]], Dict[Cell, JobSpec]]:
    """``(levels, jobs)`` of figure ``name``, jobs in dispatch order."""
    if name not in FIGURES:
        raise ConfigurationError(
            f"unknown figure {name!r}; expected one of {', '.join(FIGURES)}"
        )
    figure = FIGURES[name]
    unknown = set(levels) - set(figure.factors)
    if unknown:
        raise ConfigurationError(
            f"{name} has no factor {', '.join(sorted(unknown))}; its "
            f"factors are {', '.join(figure.factors)}"
        )
    grid = {factor: tuple(levels.get(factor, default))
            for factor, default in figure.factors.items()}
    jobs = {
        cell: JobSpec(
            **figure.fixed,
            **{FACTOR_FIELDS[f]: level for f, level in zip(grid, cell)},
            accesses=figure.accesses if accesses is None else accesses,
            machine=machine,
        )
        for cell in itertools.product(*grid.values())
    }
    return grid, jobs


def run_figure(
    name: str, *, accesses: Optional[int] = None,
    machine: Optional[MachineSpec] = None,
    harness: Optional[Harness] = None, **levels: Tuple[Hashable, ...],
) -> FigureResult:
    """Simulate figure ``name``; ``levels`` replace factor levels."""
    grid, jobs = expand_figure(name, accesses=accesses, machine=machine,
                               **levels)
    return FigureResult(name, grid, jobs, _sweep(jobs, harness))
