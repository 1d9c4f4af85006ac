"""The paper's simulated figures and tables (Sections 3 and 5) as data.

Each entry of :data:`FIGURES` is one figure or table: Figs 7-13, Table 2
quantified, the energy breakdown and the design-choice ablations.  An
entry holds a factor grid and the levels it holds fixed, both named
like campaign factors (:data:`repro.campaign.spec.FACTOR_FIELDS`, or a
dotted SystemConfig path such as ``"dram_cache.alpha"``), its default
per-core trace length and the renderer that reduces the grid to the
paper-style text tables and the ``--json`` dict.  :func:`run_figure`
expands the grid into jobs (last factor varying fastest) through the
campaigns' own :func:`~repro.campaign.compile.job_fields`, dispatches
them through the experiment harness (:mod:`repro.harness`) and returns
a :class:`FigureResult`.  ``repro experiment``, ``repro validate`` and
the ``benchmarks/bench_*`` wrappers all call it, so the same code path
regenerates every number in EXPERIMENTS.md.

A keyword argument named after a factor replaces that factor's levels
(``run_figure("fig9", workload=("MIX1",))``), which is how the validate
scorecard and the tests run subsets.  ``machine=`` (``--machine`` and
``--set``) applies to every job; a dotted path that is also a grid
factor is refused.  Passing a :class:`~repro.harness.Harness`
parallelises the sweep across processes and/or replays points from the
on-disk result cache; the default (``harness=None``) is the serial,
uncached reference path and produces byte-identical tables either way,
because every job is fully determined by its spec.

Figures run at the library default seed.  They do not go through
:func:`repro.campaign.expand`, which derives a seed per cell and would
change every number and every cache key.

Five benchmarks stay hand-built.  Tables 1, 4 and 6 and Fig 6 run no
job: they evaluate the configured machine's formulas and structures
directly.  The superpage ablation hands per-core superpage regions to
``Simulator.run``, which a JobSpec cannot express.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.analysis.report import format_table, normalize_to, percent_delta
from repro.campaign.compile import job_fields
from repro.common.addressing import BYTES_PER_MB
from repro.common.errors import ConfigurationError
from repro.common.machine import MachineSpec
from repro.common.stats import geometric_mean
from repro.core.gipt import gipt_storage_megabytes
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
    #: Factor name -> the level every job holds constant.
    fixed: Dict[str, Hashable]
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


def _table2(r: FigureResult) -> Rendered:
    """Table 2, quantified: each design-requirement row as a number.

    Tag storage is the on-die SRAM the tags take, the hit ratio counts
    DRAM-cache hits per L3 access, and over-fetching is the off-package
    traffic per L3 access.
    """
    metrics = {}
    for (design,), result in r.results.items():
        s = result.stats
        if design == "sram":
            config = r.spec(design=design).system_config()
            tag_mb, hits, misses = (config.sram_tag.tag_megabytes,
                                    s["l3_hits"], s["l3_misses"])
        else:
            tag_mb, hits, misses = 0.0, s["cache_accesses"], s["engine_fills"]
        metrics[design] = {
            "tag_mb": tag_mb,
            "hit_ratio": hits / max(hits + misses, 1.0),
            "l3_latency": result.mean_l3_latency_cycles,
            "overfetch": (s["offpkg_read_bytes"] + s["offpkg_write_bytes"])
            / max(s["l3_accesses"], 1.0),
        }
    table = format_table(
        "Table 2 (quantified): SRAM-tag vs tagless on milc",
        ["design", "tag SRAM", "hit ratio", "avg L3 latency",
         "off-pkg bytes / L3 access"],
        [[design, f"{m['tag_mb']:.1f}MB", f"{m['hit_ratio']:.4f}",
          f"{m['l3_latency']:.1f}cy", f"{m['overfetch']:.0f}B"]
         for design, m in metrics.items()],
    )
    return [table], {"designs": metrics}


def _energy_breakdown(r: FigureResult) -> Rendered:
    """Behind Figs 7b/9b: each design's energy per component."""
    rows = []
    for (design,), result in r.results.items():
        e = result.energy
        rows.append([design, e.core_j * 1e3,
                     (e.ondie_dynamic_j + e.ondie_leakage_j) * 1e3,
                     e.tag_j * 1e3, e.in_package_j * 1e3,
                     e.off_package_j * 1e3, e.total_j * 1e3,
                     result.elapsed_ns / 1e6])
    keys = ("cores_mj", "ondie_sram_mj", "tag_mj", "in_package_mj",
            "off_package_mj", "total_mj", "runtime_ms")
    table = format_table(
        "Energy breakdown on milc (millijoules; time in ms)",
        ["design", "cores", "on-die SRAM", "tag array", "in-pkg DRAM",
         "off-pkg DRAM", "total", "runtime"],
        rows,
    )
    return [table], {"designs": {row[0]: dict(zip(keys, row[1:]))
                                 for row in rows}}


def _alpha(r: FigureResult) -> Rendered:
    """Section 3.1: IPC and eviction traffic per free-block budget."""
    rows = [[alpha, result.ipc_sum, result.stats["engine_fills"],
             result.stats["engine_fq_evictions_completed"],
             result.stats["engine_alpha_deficits"]]
            for (alpha,), result in r.results.items()]
    table = format_table(
        "Ablation: free-block budget alpha (tagless, MIX5, 512MB cache)",
        ["alpha", "IPC", "fills", "evictions", "alpha deficits"],
        rows,
    )
    keys = ("ipc", "fills", "evictions", "alpha_deficits")
    return [table], {"alpha": {row[0]: dict(zip(keys, row[1:]))
                               for row in rows}}


def _blockbased(r: FigureResult) -> Rendered:
    """Table 2's block-based column: IPC per design over No-L3."""
    designs = r.levels["design"][1:]
    norm = {w: {d: r.normalized("ipc_sum", workload=w)[d] for d in designs}
            for w in r.levels["workload"]}
    table = format_table(
        "Ablation: block-based vs page-based vs tagless "
        "(IPC normalised to No-L3)",
        ["program", "alloy (block)", "sram (page)", "tagless"],
        [[w, *row.values()] for w, row in norm.items()],
    )
    return [table], {"normalized_ipc": norm}


def _footprint(r: FigureResult) -> Rendered:
    """Footprint partial fills: IPC and off-package read traffic."""
    rows, data = [], {}
    for (cache_mb, footprint), result in r.results.items():
        policy = "footprint" if footprint else "full-fill"
        point = {"ipc": result.ipc_sum,
                 "offpkg_read_mb": result.stats["offpkg_read_bytes"] / 1e6,
                 "footprint_misses": result.stats["engine_footprint_misses"]}
        data.setdefault(cache_mb, {})[policy] = point
        rows.append([f"{cache_mb}MB", policy, *point.values()])
    table = format_table(
        "Ablation: footprint partial fills (tagless, MIX5)",
        ["cache", "fill policy", "IPC", "off-pkg reads (MB)",
         "footprint misses"],
        rows,
    )
    return [table], {"cache_mb": data}


def _gipt(r: FigureResult) -> Rendered:
    """Sections 3.2/3.4: GIPT placement, and its size per cache size."""
    placement = {
        "in-package" if in_package else "off-package": {
            "ipc": result.ipc_sum,
            "l3_latency_cycles": result.mean_l3_latency_cycles}
        for (in_package,), result in r.results.items()
    }
    storage = {}
    for cache_gb in (0.25, 0.5, 1.0, 4.0, 16.0):
        mb = gipt_storage_megabytes(cache_gb)
        storage[f"{cache_gb:g}GB"] = {
            "gipt_mb": mb,
            "overhead": mb * BYTES_PER_MB / (cache_gb * 1024 * BYTES_PER_MB)}
    tables = [
        format_table("Ablation: GIPT placement (GemsFDTD, tagless)",
                     ["GIPT in", "IPC", "avg L3 latency (cycles)"],
                     [[label, *row.values()]
                      for label, row in placement.items()]),
        format_table("GIPT storage scaling (82-bit entries, quad-core)",
                     ["cache", "GIPT size", "overhead"],
                     [[size, f"{row['gipt_mb']:.2f}MB",
                       f"{row['overhead'] * 100:.3f}%"]
                      for size, row in storage.items()]),
    ]
    return tables, {"placement": placement, "storage": storage}


def _victim_policy(r: FigureResult) -> Rendered:
    """Fig 11 extended: tagless IPC per victim policy at 512 MB."""
    ipc = {m: {p: r.value("ipc_sum", workload=m, replacement=p)
               for p in r.levels["replacement"]}
           for m in r.levels["workload"]}
    table = format_table(
        "Ablation: tagless victim policy at 512MB (IPC; replacement "
        "pressure visible)",
        ["mix", *r.levels["replacement"]],
        [[m, *row.values()] for m, row in ipc.items()],
    )
    return [table], {"ipc": ipc}


_EDP_TITLE = "EDP normalised to No-L3 (lower is better)"

#: Every reproduced figure, by its ``repro experiment`` name.
FIGURES: Dict[str, Figure] = {
    "fig7": Figure(
        {"workload": SPEC_ORDER, "design": DESIGN_NAMES}, {}, 150_000,
        functools.partial(_normalized_pair, titles=(
            "Figure 7a: IPC normalised to No-L3 (single-programmed SPEC)",
            f"Figure 7b: {_EDP_TITLE}"), latency=True),
    ),
    "fig8": Figure(
        {"workload": SPEC_ORDER, "design": ("no-l3", "sram", "tagless")},
        {}, 150_000, _l3_latency,
    ),
    "fig9": Figure(
        {"workload": MIX_ORDER, "design": DESIGN_NAMES}, {}, 100_000,
        functools.partial(_normalized_pair, titles=(
            "Figure 9a: IPC normalised to No-L3 (multi-programmed mixes)",
            f"Figure 9b: {_EDP_TITLE}"),
            row="mix", rows_key="mixes", baseline=True),
    ),
    "fig10": Figure(
        {"cache_mb": (256, 512, 1024), "workload": MIX_ORDER,
         "design": ("bi", "sram", "tagless")}, {}, 100_000, _cache_size,
    ),
    # Longer traces than the other mix figures: replacement only matters
    # once the singleton stream has filled the cache and evictions flow.
    "fig11": Figure(
        {"replacement": ("fifo", "lru"), "workload": MIX_ORDER},
        {"design": "tagless"}, 140_000, _replacement,
    ),
    "fig12": Figure(
        {"workload": PARSEC_ORDER, "design": DESIGN_NAMES}, {}, 100_000,
        functools.partial(_normalized_pair, titles=(
            "Figure 12a: IPC normalised to No-L3 (multi-threaded PARSEC)",
            f"Figure 12b: {_EDP_TITLE}"), geomean=False),
    ),
    # Section 5.4: pages with fewer than 32 accesses in the trace (fewer
    # than half of a page's 64 blocks touched) bypass the DRAM cache.
    "fig13": Figure(
        {"nc_threshold": (None, 32)},
        {"design": "tagless", "workload": "GemsFDTD"}, 150_000,
        _noncacheable,
    ),
    "table2": Figure(
        {"design": ("sram", "tagless")}, {"workload": "milc"}, 80_000,
        _table2,
    ),
    "energy_breakdown": Figure(
        {"design": DESIGN_NAMES}, {"workload": "milc"}, 80_000,
        _energy_breakdown,
    ),
    # The ablations vary machine knobs by their dotted SystemConfig path.
    "ablation_alpha": Figure(
        {"dram_cache.alpha": (1, 4, 16, 64)},
        {"design": "tagless", "workload": "MIX5", "cache_mb": 512}, 50_000,
        _alpha,
    ),
    "ablation_blockbased": Figure(
        {"workload": ("libquantum", "omnetpp"),
         "design": ("no-l3", "alloy", "sram", "tagless")}, {}, 80_000,
        _blockbased,
    ),
    "ablation_footprint": Figure(
        {"cache_mb": (256, 512),
         "dram_cache.footprint_caching": (False, True)},
        {"design": "tagless", "workload": "MIX5"}, 50_000, _footprint,
    ),
    "ablation_gipt": Figure(
        {"dram_cache.gipt_in_package": (False, True)},
        {"design": "tagless", "workload": "GemsFDTD"}, 80_000, _gipt,
    ),
    # 512 MB rather than Fig 11's 1 GB: replacement matters under pressure.
    "ablation_victim_policy": Figure(
        {"workload": ("MIX3", "MIX5"),
         "replacement": ("fifo", "clock", "lru")},
        {"design": "tagless", "cache_mb": 512}, 50_000, _victim_policy,
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
    length = figure.accesses if accesses is None else accesses
    jobs = {
        cell: JobSpec(accesses=length, **job_fields(
            (*figure.fixed.items(), *zip(grid, cell)), machine))
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
