"""Compile a campaign spec into harness jobs and execute it.

The compiler is a pure function from :class:`CampaignSpec` to an
ordered list of :class:`CampaignJob` -- one per (cell, repetition),
each carrying the derived seed and the fully-populated
:class:`~repro.harness.jobs.JobSpec`.  Execution then rides the PR-5
supervised harness unchanged: worker fan-out, per-job timeouts,
retries, the content-addressed result cache, and JSONL artifact
streaming (which is what makes an interrupted campaign resumable) all
come for free.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common import machine as machine_mod
from repro.common.errors import ConfigurationError
from repro.designs.registry import ALL_DESIGN_NAMES
from repro.harness.artifacts import job_metrics
from repro.harness.jobs import (
    JobResult,
    JobSpec,
    infer_workload_kind,
    job_health,
)
from repro.harness.runner import Harness
from repro.obs.metrics import get_registry
from repro.campaign.spec import (
    FACTOR_FIELDS,
    CampaignSpec,
    Cell,
    is_machine_name,
)

#: Per-cell, per-repetition metric samples: the reduction input shared
#: by live runs and artifact replays.  ``results[cell_index][rep]`` is
#: the metric dict of that repetition; failed repetitions are absent.
CellResults = Dict[int, Dict[int, Dict[str, float]]]


@dataclasses.dataclass(frozen=True)
class CampaignJob:
    """One executable point: a cell, a repetition, and its job spec."""

    cell_index: int
    cell: Cell
    repetition: int
    seed: int
    spec: JobSpec


def _job_spec(campaign: CampaignSpec, cell: Cell, repetition: int,
              ) -> JobSpec:
    """Build the harness job for one (cell, repetition).

    Machine-layer names -- ``"preset"`` and dotted override paths --
    are collected into the job's :class:`MachineSpec` instead of
    mapping to a JobSpec field, so a study can vary any SystemConfig
    knob without the harness growing a scalar per knob.
    """
    kwargs: Dict[str, object] = {}
    preset = machine_mod.DEFAULT_PRESET
    overrides: Dict[str, object] = {}
    for name, value in (*campaign.fixed, *cell.assignment):
        if name == "preset":
            preset = str(value)
        elif is_machine_name(name):
            overrides[name] = value
        else:
            kwargs[FACTOR_FIELDS[name]] = value
    if preset != machine_mod.DEFAULT_PRESET or overrides:
        kwargs["machine"] = machine_mod.MachineSpec(
            preset=preset, overrides=overrides
        )
    design = kwargs.get("design")
    if design is None:
        raise ConfigurationError(
            "campaign needs 'design' as a factor or fixed setting"
        )
    if design not in ALL_DESIGN_NAMES:
        raise ConfigurationError(
            f"unknown design {design!r}; expected one of "
            f"{', '.join(ALL_DESIGN_NAMES)}"
        )
    scenario = kwargs.get("scenario")
    if scenario is not None:
        # Multi-tenant point: the scenario file is the workload recipe.
        # ``workload`` becomes a display label (defaulting to the file's
        # basename), not a profile/mix lookup.
        kind = "tenants"
        kwargs.setdefault(
            "workload",
            os.path.splitext(os.path.basename(str(scenario)))[0],
        )
    else:
        workload = kwargs.get("workload")
        if workload is None:
            raise ConfigurationError(
                "campaign needs 'workload' as a factor or fixed setting"
            )
        kind = infer_workload_kind(str(workload))
    kwargs["workload_kind"] = kind
    kwargs["base_seed"] = campaign.repetition_seed(cell, repetition)
    return JobSpec(**kwargs)


def expand(campaign: CampaignSpec) -> List[CampaignJob]:
    """Expand the factor grid into jobs, repetitions innermost.

    Deterministic: the same spec always expands to the same jobs in the
    same order, which is what lets ``campaign report`` re-associate
    artifact rows with cells and lets a resumed run address the exact
    cache entries its predecessor computed.
    """
    jobs: List[CampaignJob] = []
    cells = 0
    for cell_index, cell in enumerate(campaign.cells()):
        cells += 1
        for repetition in range(campaign.repetitions):
            spec = _job_spec(campaign, cell, repetition)
            jobs.append(CampaignJob(
                cell_index=cell_index,
                cell=cell,
                repetition=repetition,
                seed=spec.base_seed,
                spec=spec,
            ))
    registry = get_registry()
    registry.counter(
        "repro_campaign_cells_expanded_total",
        "Grid cells produced by campaign expansion").inc(cells)
    registry.counter(
        "repro_campaign_points_expanded_total",
        "(cell, repetition) points produced by campaign expansion",
    ).inc(len(jobs))
    return jobs


@dataclasses.dataclass
class CampaignRun:
    """Outcome of executing one campaign: jobs, results, and health."""

    campaign: CampaignSpec
    jobs: List[CampaignJob]
    outcomes: List[JobResult]

    def cell_results(self) -> CellResults:
        """Group successful outcomes into the reduction input."""
        results: CellResults = {}
        for job, outcome in zip(self.jobs, self.outcomes):
            if not outcome.ok:
                continue
            metrics = job_metrics(outcome.result)
            results.setdefault(job.cell_index, {})[job.repetition] = {
                key: value for key, value in metrics.items()
                if isinstance(value, (int, float))
            }
        return results

    def counters(self) -> Dict[str, int]:
        """Execution-health accounting for the run summary.

        ``computed`` counts points that actually ran this invocation
        (cache misses); ``resumed``/``cache_hits`` together say how much
        work a resume or a warm cache saved -- the counters the
        acceptance checks read to verify resume recomputes only what is
        missing.
        """
        return job_health((outcome.status, outcome.cache_status,
                           outcome.retries) for outcome in self.outcomes)


def check_scenarios(jobs: Sequence[CampaignJob]) -> None:
    """Load every tenant scenario the jobs name, before any job runs.

    A relative ``scenario`` path resolves against the working
    directory; a missing or malformed file raises
    :class:`ConfigurationError` here instead of failing job by job.
    """
    from repro.workloads.tenants import TenantScenarioSpec

    for path in sorted({job.spec.scenario for job in jobs
                        if job.spec.scenario is not None}):
        TenantScenarioSpec.from_file(path)


def run_campaign(campaign: CampaignSpec, harness: Harness) -> CampaignRun:
    """Execute every (cell, repetition) of ``campaign`` through ``harness``."""
    jobs = expand(campaign)
    check_scenarios(jobs)
    outcomes = harness.run([job.spec for job in jobs])
    return CampaignRun(campaign=campaign, jobs=jobs, outcomes=outcomes)


def _spec_identity(spec: JobSpec) -> str:
    """Code-version-independent identity of a job spec.

    Artifact rows embed the full spec dict; matching on its canonical
    JSON (rather than the cache key, which folds in the code
    fingerprint) lets ``campaign report`` reduce artifacts produced by
    an older build of the simulator.
    """
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))


def results_from_artifact(campaign: CampaignSpec, path: str,
                          ) -> Tuple[List[CampaignJob], CellResults, int]:
    """Re-associate a prior run's artifact rows with the campaign grid.

    Returns ``(jobs, results, dropped_unknown)``: the expansion, the
    reduction input recovered from ``status=="ok"`` rows, and the
    count of rows refused because their spec dict carried keys this
    build does not know.  Such rows were written by a different schema;
    parsing them as a *narrower* job (the old silent-drop behaviour)
    would file a foreign result under the wrong cell, so they are
    skipped and counted instead -- the caller should surface the count.
    Rows that match no expanded job (edited study, foreign artifact)
    are ignored; the caller can diff ``len(jobs) * repetitions``
    against the recovered count to report missing points.  The last
    row per job wins, so chained resume artifacts reduce correctly.
    """
    jobs = expand(campaign)
    by_identity = {_spec_identity(job.spec): job for job in jobs}
    results: CellResults = {}
    dropped_unknown = 0
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                # A torn trailing line (the run died mid-write) forfeits
                # that one row, not the whole artifact.
                continue
    for record in records:
        if record.get("record") != "job" or record.get("status") != "ok":
            continue
        spec_dict = record.get("spec")
        metrics = record.get("metrics")
        if not isinstance(spec_dict, dict) or not isinstance(metrics, dict):
            continue
        if JobSpec.unknown_keys(spec_dict):
            dropped_unknown += 1
            continue
        try:
            identity = _spec_identity(JobSpec.from_dict(spec_dict,
                                                        strict=True))
        except (ConfigurationError, TypeError):
            continue
        job = by_identity.get(identity)
        if job is None:
            continue
        results.setdefault(job.cell_index, {})[job.repetition] = {
            key: value for key, value in metrics.items()
            if isinstance(value, (int, float))
        }
    return jobs, results, dropped_unknown
