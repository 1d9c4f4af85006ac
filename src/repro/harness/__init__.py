"""Experiment-execution engine: declarative jobs, parallel fan-out,
content-addressed result caching, and JSONL run artifacts.

:func:`repro.analysis.experiments.run_figure` expands each paper figure
into :class:`JobSpec` points and dispatches them through a
:class:`Harness`;
``repro sweep`` exposes the same machinery for ad-hoc cartesian sweeps.

Typical use::

    from repro.harness import Harness, JobSpec, ResultCache

    harness = Harness(jobs=4, cache=ResultCache())
    outcomes = harness.run([
        JobSpec(design="tagless", workload="mcf", accesses=50_000),
        JobSpec(design="sram", workload="mcf", accesses=50_000),
    ])
"""

from repro.harness.artifacts import (
    ResumeMap,
    RunArtifact,
    default_artifact_path,
    job_metrics,
    load_resume_map,
    read_artifact,
)
from repro.harness.faults import FAULT_ENV, InjectedFault, parse_fault_plan
from repro.harness.cache import (
    CacheStats,
    ResultCache,
    resolve_cache_dir,
    simulation_result_from_dict,
    simulation_result_to_dict,
)
from repro.harness.jobs import (
    SCHEMA_VERSION,
    JobResult,
    JobSpec,
    execute_captured,
    execute_job,
    infer_workload_kind,
    job_health,
)
from repro.harness.progress import ProgressReporter, RunRecord
from repro.harness.runner import (
    TIMEOUT_ENV,
    Harness,
    HarnessError,
    resolve_default_timeout,
    run_jobs,
)

__all__ = [
    "CacheStats",
    "FAULT_ENV",
    "Harness",
    "HarnessError",
    "InjectedFault",
    "JobResult",
    "JobSpec",
    "ProgressReporter",
    "ResultCache",
    "ResumeMap",
    "RunArtifact",
    "RunRecord",
    "SCHEMA_VERSION",
    "TIMEOUT_ENV",
    "default_artifact_path",
    "execute_captured",
    "execute_job",
    "infer_workload_kind",
    "job_health",
    "job_metrics",
    "load_resume_map",
    "parse_fault_plan",
    "read_artifact",
    "resolve_cache_dir",
    "resolve_default_timeout",
    "run_jobs",
    "simulation_result_from_dict",
    "simulation_result_to_dict",
]
