"""One runner per reproduced table/figure (the paper's Section 5).

Each ``run_*`` function enumerates the :class:`~repro.harness.JobSpec`
points behind one figure or table, dispatches them through the
experiment harness (:mod:`repro.harness`) and returns a small result
object that knows how to render itself as a paper-style text table.
The benchmarks in ``benchmarks/`` and the example scripts in
``examples/`` are thin wrappers around these runners, so the exact same
code path regenerates every number in EXPERIMENTS.md.

Passing a :class:`~repro.harness.Harness` parallelises the sweep across
processes and/or replays points from the on-disk result cache; the
default (``harness=None``) is the serial, uncached reference path and
produces byte-identical tables either way, because every job is fully
determined by its spec.

Runtime is controlled by two knobs shared by all runners: the per-core
trace length (``accesses``) and the capacity scale.  Defaults reproduce
the shapes discussed in EXPERIMENTS.md in a few minutes total; tests use
much smaller values.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.analysis.report import format_table, normalize_to, percent_delta
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

#: Default per-core trace length for full experiment runs.
DEFAULT_ACCESSES = 150_000
#: Multi-programmed runs use slightly shorter per-core traces: four cores
#: already provide 4x the references.
DEFAULT_MIX_ACCESSES = 100_000
#: Warmup split every runner uses unless overridden (see Simulator.run).
DEFAULT_WARMUP_FRACTION = 0.25


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


# ----------------------------------------------------------------------
# Figures 7 and 8: single-programmed SPEC
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SingleProgramResult:
    """Per-(program, design) simulation outcomes for Figures 7 and 8."""

    programs: Tuple[str, ...]
    designs: Tuple[str, ...]
    results: Dict[Tuple[str, str], SimulationResult]

    def normalized_ipc(self, program: str) -> Dict[str, float]:
        values = {
            d: self.results[(program, d)].ipc_sum for d in self.designs
        }
        return normalize_to(values, "no-l3")

    def normalized_edp(self, program: str) -> Dict[str, float]:
        values = {d: self.results[(program, d)].edp for d in self.designs}
        return normalize_to(values, "no-l3")

    def l3_latency(self, program: str, design: str) -> float:
        return self.results[(program, design)].mean_l3_latency_cycles

    def geomean_ipc(self, design: str) -> float:
        return geometric_mean(
            self.normalized_ipc(p)[design] for p in self.programs
        )

    def geomean_edp(self, design: str) -> float:
        return geometric_mean(
            self.normalized_edp(p)[design] for p in self.programs
        )

    def ipc_table(self) -> str:
        rows = [
            [p] + [self.normalized_ipc(p)[d] for d in self.designs]
            for p in self.programs
        ]
        rows.append(
            ["geomean"] + [self.geomean_ipc(d) for d in self.designs]
        )
        return format_table(
            "Figure 7a: IPC normalised to No-L3 (single-programmed SPEC)",
            ["program"] + list(self.designs),
            rows,
        )

    def edp_table(self) -> str:
        rows = [
            [p] + [self.normalized_edp(p)[d] for d in self.designs]
            for p in self.programs
        ]
        rows.append(
            ["geomean"] + [self.geomean_edp(d) for d in self.designs]
        )
        return format_table(
            "Figure 7b: EDP normalised to No-L3 (lower is better)",
            ["program"] + list(self.designs),
            rows,
        )

    def l3_latency_table(self) -> str:
        rows = []
        for p in self.programs:
            sram = self.l3_latency(p, "sram")
            tagless = self.l3_latency(p, "tagless")
            rows.append([p, sram, tagless, percent_delta(tagless, sram)])
        sram_gm = geometric_mean(
            self.l3_latency(p, "sram") for p in self.programs
        )
        tag_gm = geometric_mean(
            self.l3_latency(p, "tagless") for p in self.programs
        )
        rows.append(["geomean", sram_gm, tag_gm,
                     percent_delta(tag_gm, sram_gm)])
        return format_table(
            "Figure 8: average L3 access latency in cycles "
            "(lower is better)",
            ["program", "sram-tag", "tagless", "delta %"],
            rows,
        )

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form of everything the tables print."""
        return {
            "programs": list(self.programs),
            "designs": list(self.designs),
            "normalized_ipc": {
                p: self.normalized_ipc(p) for p in self.programs
            },
            "normalized_edp": {
                p: self.normalized_edp(p) for p in self.programs
            },
            "geomean_ipc": {d: self.geomean_ipc(d) for d in self.designs},
            "geomean_edp": {d: self.geomean_edp(d) for d in self.designs},
            "l3_latency_cycles": {
                p: {d: self.l3_latency(p, d) for d in self.designs}
                for p in self.programs
            },
        }


def run_single_programmed(
    programs: Sequence[str] = SPEC_ORDER,
    designs: Sequence[str] = DESIGN_NAMES,
    accesses: int = DEFAULT_ACCESSES,
    capacity_scale: int = 64,
    cache_megabytes: int = 1024,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    machine: Optional[MachineSpec] = None,
    harness: Optional[Harness] = None,
) -> SingleProgramResult:
    """Run the Figure 7 / Figure 8 sweep (11 programs x 5 designs)."""
    specs = {
        (program, design): JobSpec(
            design=design,
            workload=program,
            workload_kind="spec",
            accesses=accesses,
            cache_megabytes=cache_megabytes,
            capacity_scale=capacity_scale,
            warmup_fraction=warmup_fraction,
            machine=machine,
        )
        for program in programs
        for design in designs
    }
    return SingleProgramResult(
        programs=tuple(programs),
        designs=tuple(designs),
        results=_sweep(specs, harness),
    )


# ----------------------------------------------------------------------
# Figure 9: multi-programmed mixes
# ----------------------------------------------------------------------
@dataclasses.dataclass
class MixResult:
    """Per-(mix, design) outcomes for Figure 9 (and 10/11 variants)."""

    mixes: Tuple[str, ...]
    designs: Tuple[str, ...]
    results: Dict[Tuple[str, str], SimulationResult]
    baseline: str = "no-l3"

    def normalized_ipc(self, mix: str) -> Dict[str, float]:
        values = {d: self.results[(mix, d)].ipc_sum for d in self.designs}
        return normalize_to(values, self.baseline)

    def normalized_edp(self, mix: str) -> Dict[str, float]:
        values = {d: self.results[(mix, d)].edp for d in self.designs}
        return normalize_to(values, self.baseline)

    def geomean_ipc(self, design: str) -> float:
        return geometric_mean(
            self.normalized_ipc(m)[design] for m in self.mixes
        )

    def geomean_edp(self, design: str) -> float:
        return geometric_mean(
            self.normalized_edp(m)[design] for m in self.mixes
        )

    def ipc_table(self, title: str = "Figure 9a: IPC normalised to No-L3 "
                  "(multi-programmed mixes)") -> str:
        rows = [
            [m] + [self.normalized_ipc(m)[d] for d in self.designs]
            for m in self.mixes
        ]
        rows.append(["geomean"] + [self.geomean_ipc(d) for d in self.designs])
        return format_table(title, ["mix"] + list(self.designs), rows)

    def edp_table(self, title: str = "Figure 9b: EDP normalised to No-L3 "
                  "(lower is better)") -> str:
        rows = [
            [m] + [self.normalized_edp(m)[d] for d in self.designs]
            for m in self.mixes
        ]
        rows.append(["geomean"] + [self.geomean_edp(d) for d in self.designs])
        return format_table(title, ["mix"] + list(self.designs), rows)

    def to_dict(self) -> Dict[str, object]:
        return {
            "mixes": list(self.mixes),
            "designs": list(self.designs),
            "baseline": self.baseline,
            "normalized_ipc": {
                m: self.normalized_ipc(m) for m in self.mixes
            },
            "normalized_edp": {
                m: self.normalized_edp(m) for m in self.mixes
            },
            "geomean_ipc": {d: self.geomean_ipc(d) for d in self.designs},
            "geomean_edp": {d: self.geomean_edp(d) for d in self.designs},
        }


def run_multi_programmed(
    mixes: Sequence[str] = MIX_ORDER,
    designs: Sequence[str] = DESIGN_NAMES,
    accesses: int = DEFAULT_MIX_ACCESSES,
    capacity_scale: int = 64,
    cache_megabytes: int = 1024,
    replacement: str = "fifo",
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    machine: Optional[MachineSpec] = None,
    harness: Optional[Harness] = None,
) -> MixResult:
    """Run the Figure 9 sweep (8 mixes x designs, 4 cores)."""
    specs = {
        (mix, design): JobSpec(
            design=design,
            workload=mix,
            workload_kind="mix",
            accesses=accesses,
            cache_megabytes=cache_megabytes,
            replacement=replacement,
            capacity_scale=capacity_scale,
            warmup_fraction=warmup_fraction,
            machine=machine,
        )
        for mix in mixes
        for design in designs
    }
    return MixResult(
        mixes=tuple(mixes),
        designs=tuple(designs),
        results=_sweep(specs, harness),
    )


# ----------------------------------------------------------------------
# Figure 10: DRAM cache size sensitivity (normalised to BI)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CacheSizeResult:
    """IPC vs cache size for SRAM-tag and tagless, normalised to BI."""

    sizes_mb: Tuple[int, ...]
    mixes: Tuple[str, ...]
    #: (size_mb, mix, design) -> SimulationResult; design includes "bi".
    results: Dict[Tuple[int, str, str], SimulationResult]

    def normalized_ipc(self, size_mb: int, mix: str) -> Dict[str, float]:
        values = {
            d: self.results[(size_mb, mix, d)].ipc_sum
            for d in ("bi", "sram", "tagless")
        }
        return normalize_to(values, "bi")

    def geomean_ipc(self, size_mb: int, design: str) -> float:
        return geometric_mean(
            self.normalized_ipc(size_mb, m)[design] for m in self.mixes
        )

    def table(self) -> str:
        rows = []
        for size in self.sizes_mb:
            rows.append(
                [f"{size}MB",
                 self.geomean_ipc(size, "sram"),
                 self.geomean_ipc(size, "tagless")]
            )
        return format_table(
            "Figure 10: IPC vs DRAM cache size, normalised to "
            "bank-interleaving (geomean over mixes)",
            ["cache size", "sram-tag", "tagless"],
            rows,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "sizes_mb": list(self.sizes_mb),
            "mixes": list(self.mixes),
            "normalized_ipc": {
                str(size): {
                    m: self.normalized_ipc(size, m) for m in self.mixes
                }
                for size in self.sizes_mb
            },
            "geomean_ipc": {
                str(size): {
                    d: self.geomean_ipc(size, d)
                    for d in ("sram", "tagless")
                }
                for size in self.sizes_mb
            },
        }


def run_cache_size_sweep(
    sizes_mb: Sequence[int] = (256, 512, 1024),
    mixes: Sequence[str] = MIX_ORDER,
    accesses: int = DEFAULT_MIX_ACCESSES,
    capacity_scale: int = 64,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    machine: Optional[MachineSpec] = None,
    harness: Optional[Harness] = None,
) -> CacheSizeResult:
    """Run the Figure 10 sweep: cache size sensitivity on the mixes."""
    specs = {
        (size, mix, design): JobSpec(
            design=design,
            workload=mix,
            workload_kind="mix",
            accesses=accesses,
            cache_megabytes=size,
            capacity_scale=capacity_scale,
            warmup_fraction=warmup_fraction,
            machine=machine,
        )
        for size in sizes_mb
        for mix in mixes
        for design in ("bi", "sram", "tagless")
    }
    return CacheSizeResult(
        sizes_mb=tuple(sizes_mb),
        mixes=tuple(mixes),
        results=_sweep(specs, harness),
    )


# ----------------------------------------------------------------------
# Figure 11: replacement-policy sensitivity (FIFO vs LRU)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ReplacementResult:
    """Tagless IPC under FIFO vs LRU victim selection, per mix."""

    mixes: Tuple[str, ...]
    #: (mix, policy) -> SimulationResult
    results: Dict[Tuple[str, str], SimulationResult]

    def lru_over_fifo(self, mix: str) -> float:
        fifo = self.results[(mix, "fifo")].ipc_sum
        lru = self.results[(mix, "lru")].ipc_sum
        return lru / fifo

    def mean_gain_percent(self) -> float:
        ratio = geometric_mean(self.lru_over_fifo(m) for m in self.mixes)
        return (ratio - 1.0) * 100.0

    def table(self) -> str:
        rows = [
            [m,
             self.results[(m, "fifo")].ipc_sum,
             self.results[(m, "lru")].ipc_sum,
             (self.lru_over_fifo(m) - 1.0) * 100.0]
            for m in self.mixes
        ]
        rows.append(["geomean", "", "", self.mean_gain_percent()])
        return format_table(
            "Figure 11: tagless-cache IPC under FIFO vs LRU replacement",
            ["mix", "fifo IPC", "lru IPC", "LRU gain %"],
            rows,
            float_format="{:.3f}",
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "mixes": list(self.mixes),
            "ipc": {
                m: {
                    "fifo": self.results[(m, "fifo")].ipc_sum,
                    "lru": self.results[(m, "lru")].ipc_sum,
                }
                for m in self.mixes
            },
            "lru_gain_percent": {
                m: (self.lru_over_fifo(m) - 1.0) * 100.0
                for m in self.mixes
            },
            "mean_gain_percent": self.mean_gain_percent(),
        }


def run_replacement_study(
    mixes: Sequence[str] = MIX_ORDER,
    accesses: int = DEFAULT_MIX_ACCESSES,
    capacity_scale: int = 64,
    cache_megabytes: int = 1024,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    machine: Optional[MachineSpec] = None,
    harness: Optional[Harness] = None,
) -> ReplacementResult:
    """Run the Figure 11 ablation: FIFO vs LRU for the tagless cache."""
    specs = {
        (mix, policy): JobSpec(
            design="tagless",
            workload=mix,
            workload_kind="mix",
            accesses=accesses,
            cache_megabytes=cache_megabytes,
            replacement=policy,
            capacity_scale=capacity_scale,
            warmup_fraction=warmup_fraction,
            machine=machine,
        )
        for policy in ("fifo", "lru")
        for mix in mixes
    }
    return ReplacementResult(
        mixes=tuple(mixes), results=_sweep(specs, harness)
    )


# ----------------------------------------------------------------------
# Figure 12: multi-threaded PARSEC
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ParsecResult:
    """Per-(program, design) outcomes for the PARSEC figure."""

    programs: Tuple[str, ...]
    designs: Tuple[str, ...]
    results: Dict[Tuple[str, str], SimulationResult]

    def normalized_ipc(self, program: str) -> Dict[str, float]:
        values = {
            d: self.results[(program, d)].ipc_sum for d in self.designs
        }
        return normalize_to(values, "no-l3")

    def normalized_edp(self, program: str) -> Dict[str, float]:
        values = {d: self.results[(program, d)].edp for d in self.designs}
        return normalize_to(values, "no-l3")

    def ipc_table(self) -> str:
        rows = [
            [p] + [self.normalized_ipc(p)[d] for d in self.designs]
            for p in self.programs
        ]
        return format_table(
            "Figure 12a: IPC normalised to No-L3 (multi-threaded PARSEC)",
            ["program"] + list(self.designs),
            rows,
        )

    def edp_table(self) -> str:
        rows = [
            [p] + [self.normalized_edp(p)[d] for d in self.designs]
            for p in self.programs
        ]
        return format_table(
            "Figure 12b: EDP normalised to No-L3 (lower is better)",
            ["program"] + list(self.designs),
            rows,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "programs": list(self.programs),
            "designs": list(self.designs),
            "normalized_ipc": {
                p: self.normalized_ipc(p) for p in self.programs
            },
            "normalized_edp": {
                p: self.normalized_edp(p) for p in self.programs
            },
        }


def run_parsec(
    programs: Sequence[str] = PARSEC_ORDER,
    designs: Sequence[str] = DESIGN_NAMES,
    accesses: int = DEFAULT_MIX_ACCESSES,
    capacity_scale: int = 64,
    cache_megabytes: int = 1024,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    machine: Optional[MachineSpec] = None,
    harness: Optional[Harness] = None,
) -> ParsecResult:
    """Run the Figure 12 sweep: 4 PARSEC programs, 4 threads, shared pages."""
    specs = {
        (program, design): JobSpec(
            design=design,
            workload=program,
            workload_kind="parsec",
            accesses=accesses,
            cache_megabytes=cache_megabytes,
            capacity_scale=capacity_scale,
            warmup_fraction=warmup_fraction,
            machine=machine,
            parsec_threads=4,
        )
        for program in programs
        for design in designs
    }
    return ParsecResult(
        programs=tuple(programs),
        designs=tuple(designs),
        results=_sweep(specs, harness),
    )


# ----------------------------------------------------------------------
# Figure 13: non-cacheable pages on 459.GemsFDTD
# ----------------------------------------------------------------------
@dataclasses.dataclass
class NonCacheableResult:
    """Tagless IPC without vs with NC classification of low-reuse pages."""

    baseline: SimulationResult
    with_nc: SimulationResult
    nc_pages: int
    threshold: int

    def gain_percent(self) -> float:
        return percent_delta(self.with_nc.ipc_sum, self.baseline.ipc_sum)

    def table(self) -> str:
        rows = [
            ["tagless", self.baseline.ipc_sum, ""],
            ["tagless + NC", self.with_nc.ipc_sum,
             f"+{self.gain_percent():.1f}%"],
        ]
        return format_table(
            f"Figure 13: effect of non-cacheable pages on GemsFDTD "
            f"({self.nc_pages} pages below {self.threshold} accesses "
            "flagged NC)",
            ["configuration", "IPC", "gain"],
            rows,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "baseline_ipc": self.baseline.ipc_sum,
            "with_nc_ipc": self.with_nc.ipc_sum,
            "nc_pages": self.nc_pages,
            "threshold": self.threshold,
            "gain_percent": self.gain_percent(),
        }


def run_noncacheable_study(
    program: str = "GemsFDTD",
    threshold: int = 32,
    accesses: int = DEFAULT_ACCESSES,
    capacity_scale: int = 64,
    cache_megabytes: int = 1024,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    machine: Optional[MachineSpec] = None,
    harness: Optional[Harness] = None,
) -> NonCacheableResult:
    """Run the Section 5.4 case study.

    Pages with fewer than ``threshold`` accesses in the trace (the
    paper's offline-profiling criterion: fewer than half of a page's 64
    blocks touched) are flagged NC, so they bypass the DRAM cache and
    stop polluting it.  The NC page set itself is recomputed inside the
    job from the deterministic trace, so both points cache cleanly.
    """
    common = dict(
        design="tagless",
        workload=program,
        workload_kind="spec",
        accesses=accesses,
        cache_megabytes=cache_megabytes,
        capacity_scale=capacity_scale,
        warmup_fraction=warmup_fraction,
        machine=machine,
    )
    specs = {
        "baseline": JobSpec(**common),
        "with_nc": JobSpec(**common, nc_threshold=threshold),
    }
    results = _sweep(specs, harness)

    # Count the flagged pages for the table caption (cheap relative to
    # the simulations; the trace is deterministic, so this matches what
    # the with_nc job computed internally).
    generator = TraceGenerator(
        spec_profile(program), capacity_scale=capacity_scale
    )
    counts = generator.generate(accesses).page_access_counts()
    nc_pages = sum(1 for count in counts.values() if count < threshold)

    return NonCacheableResult(
        baseline=results["baseline"],
        with_nc=results["with_nc"],
        nc_pages=nc_pages,
        threshold=threshold,
    )
