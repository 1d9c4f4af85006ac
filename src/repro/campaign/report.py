"""Reduce campaign results to Markdown / CSV / JSON study reports.

The reduction is a pure, deterministic function of the campaign spec
and the per-repetition metric samples: statistics (including the
bootstrap, whose generator seed derives from the campaign seed) carry
no wall-clock or host state, so re-reducing the same completed study
always produces byte-identical report files.  Execution health
(retries, timeouts, cache hits) deliberately lives in the run summary
and the JSONL artifact, *not* in the report files, for that reason.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.compile import CellResults
from repro.campaign.spec import CampaignSpec, Cell
from repro.campaign.stats import (
    PairedComparison,
    SampleSummary,
    paired_speedup,
    summarize,
)
from repro.common import rng

#: Bump when the JSON report layout changes; :func:`validate_report` and
#: any downstream aggregation key on it.
REPORT_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class CellReport:
    """Reduced statistics for one factor-grid cell."""

    cell: Cell
    expected: int
    completed: int
    metrics: Tuple[Tuple[str, SampleSummary], ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "cell": self.cell.as_dict(),
            "label": self.cell.label,
            "expected": self.expected,
            "n": self.completed,
            "metrics": {name: summary.to_dict()
                        for name, summary in self.metrics},
        }


@dataclasses.dataclass(frozen=True)
class PairReport:
    """One design-vs-baseline paired comparison for one metric."""

    pairing: Tuple[Tuple[str, object], ...]
    design: str
    baseline: str
    metric: str
    comparison: PairedComparison

    @property
    def pairing_label(self) -> str:
        return " ".join(f"{n}={v}" for n, v in self.pairing)

    def to_dict(self) -> Dict[str, object]:
        return {
            "pairing": dict(self.pairing),
            "label": self.pairing_label,
            "design": self.design,
            "baseline": self.baseline,
            "metric": self.metric,
            **self.comparison.to_dict(),
        }


@dataclasses.dataclass(frozen=True)
class StudyReport:
    """The complete reduced study."""

    campaign: CampaignSpec
    cells: Tuple[CellReport, ...]
    pairs: Tuple[PairReport, ...]
    #: (cell, repetition) points with no successful result.
    missing_points: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "campaign-report",
            "name": self.campaign.name,
            "spec_hash": self.campaign.spec_hash(),
            "spec": self.campaign.to_dict(),
            "repetitions": self.campaign.repetitions,
            "confidence": self.campaign.confidence,
            "baseline": self.campaign.effective_baseline,
            "missing_points": self.missing_points,
            "cells": [cell.to_dict() for cell in self.cells],
            "pairs": [pair.to_dict() for pair in self.pairs],
        }


def _bootstrap_seed(campaign: CampaignSpec, cell: Cell, metric: str) -> int:
    """Deterministic bootstrap seed, distinct per (cell, metric)."""
    components: List[object] = ["bootstrap"]
    for name, level in sorted(cell.assignment):
        components.extend((name, level))
    components.append(metric)
    return rng.derive_seed(campaign.campaign_seed, *components)


def reduce_campaign(campaign: CampaignSpec,
                    results: CellResults) -> StudyReport:
    """Reduce per-repetition samples to the full study report.

    Cells keep their grid order; failed repetitions shrink a cell's
    ``n`` (and the paired tables only use repetitions where *both*
    designs completed, preserving the seed pairing).
    """
    cells = campaign.cells()
    cell_reports: List[CellReport] = []
    missing = 0
    for index, cell in enumerate(cells):
        reps = results.get(index, {})
        missing += campaign.repetitions - len(reps)
        metric_summaries: List[Tuple[str, SampleSummary]] = []
        if reps:
            ordered = [reps[r] for r in sorted(reps)]
            for metric in campaign.metrics:
                values = [m[metric] for m in ordered if metric in m]
                if not values:
                    continue
                metric_summaries.append((metric, summarize(
                    values,
                    confidence=campaign.confidence,
                    resamples=campaign.bootstrap_resamples,
                    seed=_bootstrap_seed(campaign, cell, metric),
                )))
        cell_reports.append(CellReport(
            cell=cell,
            expected=campaign.repetitions,
            completed=len(reps),
            metrics=tuple(metric_summaries),
        ))

    pairs: List[PairReport] = []
    baseline = campaign.effective_baseline
    if baseline is not None:
        groups: Dict[Tuple[Tuple[str, object], ...], List[int]] = {}
        for index, cell in enumerate(cells):
            groups.setdefault(cell.pairing_assignment(), []).append(index)
        for pairing in sorted(groups, key=str):
            indices = groups[pairing]
            by_design = {str(cells[i].get("design")): i for i in indices}
            base_index = by_design.get(baseline)
            if base_index is None:
                continue
            base_reps = results.get(base_index, {})
            for design in (str(cells[i].get("design")) for i in indices):
                if design == baseline:
                    continue
                cand_reps = results.get(by_design[design], {})
                shared = sorted(set(base_reps) & set(cand_reps))
                for metric in campaign.metrics:
                    candidate = [cand_reps[r][metric] for r in shared
                                 if metric in cand_reps[r]
                                 and metric in base_reps[r]]
                    base = [base_reps[r][metric] for r in shared
                            if metric in cand_reps[r]
                            and metric in base_reps[r]]
                    if not candidate:
                        continue
                    pairs.append(PairReport(
                        pairing=pairing,
                        design=design,
                        baseline=baseline,
                        metric=metric,
                        comparison=paired_speedup(
                            candidate, base,
                            confidence=campaign.confidence,
                        ),
                    ))
    return StudyReport(
        campaign=campaign,
        cells=tuple(cell_reports),
        pairs=tuple(pairs),
        missing_points=missing,
    )


# ----------------------------------------------------------------------
# Rendering

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_markdown(report: StudyReport) -> str:
    """The human-facing study report."""
    campaign = report.campaign
    out = io.StringIO()
    out.write(f"# Campaign report: {campaign.name}\n\n")
    out.write(f"- spec hash: `{campaign.spec_hash()}`\n")
    grid = " x ".join(
        f"{len(levels)} {factor}" for factor, levels in campaign.factors
    )
    out.write(f"- grid: {grid} x {campaign.repetitions} repetitions "
              f"({len(report.cells) * campaign.repetitions} points)\n")
    out.write(f"- confidence: {campaign.confidence:.0%} "
              f"(t and percentile bootstrap, "
              f"{campaign.bootstrap_resamples} resamples)\n")
    if report.missing_points:
        out.write(f"- **missing points: {report.missing_points}** "
                  f"(failed or not yet run; resume to fill)\n")
    factor_names = [factor for factor, _levels in campaign.factors]

    out.write("\n## Per-cell statistics\n\n")
    header = (factor_names
              + ["metric", "n", "mean", "median", "stdev",
                 "ci_low", "ci_high", "boot_low", "boot_high"])
    out.write("| " + " | ".join(header) + " |\n")
    out.write("|" + "---|" * len(header) + "\n")
    for cell_report in report.cells:
        levels = [str(cell_report.cell.get(name)) for name in factor_names]
        if not cell_report.metrics:
            out.write("| " + " | ".join(
                levels + ["-", "0"] + ["-"] * 7) + " |\n")
            continue
        for metric, summary in cell_report.metrics:
            row = levels + [
                metric, str(summary.n), _fmt(summary.mean),
                _fmt(summary.median), _fmt(summary.stdev),
                _fmt(summary.ci_low), _fmt(summary.ci_high),
                _fmt(summary.boot_low), _fmt(summary.boot_high),
            ]
            out.write("| " + " | ".join(row) + " |\n")

    if report.pairs:
        baseline = report.campaign.effective_baseline
        out.write(f"\n## Paired speedups vs `{baseline}` "
                  f"(shared-seed ratios)\n\n")
        header = ["cell", "design", "metric", "n", "speedup",
                  "ci_low", "ci_high", "cliffs_d", "cohens_d"]
        out.write("| " + " | ".join(header) + " |\n")
        out.write("|" + "---|" * len(header) + "\n")
        for pair in report.pairs:
            comparison = pair.comparison
            row = [pair.pairing_label or "-", pair.design, pair.metric,
                   str(comparison.n), _fmt(comparison.speedup),
                   _fmt(comparison.ci_low), _fmt(comparison.ci_high),
                   _fmt(comparison.cliffs_delta),
                   _fmt(comparison.cohens_d)]
            out.write("| " + " | ".join(row) + " |\n")
    return out.getvalue()


def render_cells_csv(report: StudyReport) -> str:
    factor_names = [f for f, _levels in report.campaign.factors]
    lines = [",".join(
        factor_names + ["metric", "n", "mean", "median", "stdev",
                        "ci_low", "ci_high", "boot_low", "boot_high",
                        "min", "max"]
    )]
    for cell_report in report.cells:
        levels = [str(cell_report.cell.get(name)) for name in factor_names]
        for metric, s in cell_report.metrics:
            lines.append(",".join(
                levels + [metric, str(s.n)]
                + [repr(v) for v in (s.mean, s.median, s.stdev,
                                     s.ci_low, s.ci_high,
                                     s.boot_low, s.boot_high,
                                     s.minimum, s.maximum)]
            ))
    return "\n".join(lines) + "\n"


def render_pairs_csv(report: StudyReport) -> str:
    lines = [",".join(["cell", "design", "baseline", "metric", "n",
                       "speedup", "ci_low", "ci_high",
                       "cliffs_delta", "cohens_d"])]
    for pair in report.pairs:
        c = pair.comparison
        lines.append(",".join([
            pair.pairing_label or "-", pair.design, pair.baseline,
            pair.metric, str(c.n),
            repr(c.speedup), repr(c.ci_low), repr(c.ci_high),
            repr(c.cliffs_delta), repr(c.cohens_d),
        ]))
    return "\n".join(lines) + "\n"


def write_reports(report: StudyReport, out_dir: str) -> Dict[str, str]:
    """Write report.md / report.json / cells.csv / pairs.csv; return paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "markdown": os.path.join(out_dir, "report.md"),
        "json": os.path.join(out_dir, "report.json"),
        "cells_csv": os.path.join(out_dir, "cells.csv"),
        "pairs_csv": os.path.join(out_dir, "pairs.csv"),
    }
    with open(paths["markdown"], "w") as handle:
        handle.write(render_markdown(report))
    with open(paths["json"], "w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(paths["cells_csv"], "w") as handle:
        handle.write(render_cells_csv(report))
    with open(paths["pairs_csv"], "w") as handle:
        handle.write(render_pairs_csv(report))
    return paths


# ----------------------------------------------------------------------
# Schema validation

_SUMMARY_KEYS = ("n", "mean", "median", "stdev", "ci_low", "ci_high",
                 "boot_low", "boot_high", "minimum", "maximum")
_PAIR_KEYS = ("design", "baseline", "metric", "n", "speedup",
              "ci_low", "ci_high", "cliffs_delta", "cohens_d")


def validate_report(data: Dict[str, object]) -> List[str]:
    """Structural checks over a JSON report; returns a list of problems."""
    problems: List[str] = []
    if data.get("schema") != REPORT_SCHEMA:
        problems.append(f"schema is {data.get('schema')!r}, "
                        f"expected {REPORT_SCHEMA}")
    if data.get("kind") != "campaign-report":
        problems.append("kind is not 'campaign-report'")
    cells = data.get("cells")
    if not isinstance(cells, list) or not cells:
        problems.append("cells missing or empty")
        cells = []
    for index, cell in enumerate(cells):
        metrics = cell.get("metrics") if isinstance(cell, dict) else None
        if not isinstance(metrics, dict):
            problems.append(f"cell {index}: metrics missing")
            continue
        for metric, summary in metrics.items():
            missing = [k for k in _SUMMARY_KEYS
                       if not isinstance(summary, dict) or k not in summary]
            if missing:
                problems.append(f"cell {index} metric {metric}: "
                                f"missing {','.join(missing)}")
                continue
            if not (summary["ci_low"] <= summary["mean"]
                    <= summary["ci_high"]):
                problems.append(f"cell {index} metric {metric}: "
                                f"t interval does not bracket the mean")
            if summary["boot_low"] > summary["boot_high"]:
                problems.append(f"cell {index} metric {metric}: "
                                f"bootstrap interval inverted")
    pairs = data.get("pairs")
    if not isinstance(pairs, list):
        problems.append("pairs missing")
        pairs = []
    for index, pair in enumerate(pairs):
        missing = [k for k in _PAIR_KEYS
                   if not isinstance(pair, dict) or k not in pair]
        if missing:
            problems.append(f"pair {index}: missing {','.join(missing)}")
            continue
        if pair["ci_low"] > pair["ci_high"]:
            problems.append(f"pair {index}: speedup interval inverted")
        if not (-1.0 <= pair["cliffs_delta"] <= 1.0):
            problems.append(f"pair {index}: cliffs_delta out of [-1, 1]")
    return problems
