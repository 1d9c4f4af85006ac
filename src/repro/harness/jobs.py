"""Declarative job specifications: one :class:`JobSpec` per simulation point.

A job spec captures *everything* that determines one ``Simulator.run``
call -- the design name, the workload binding recipe (program/mix name,
trace length, thread count), every config knob the experiment runners
vary, the warmup split, and the RNG base seed.  Because trace generation
is itself deterministic given those inputs (see :mod:`repro.common.rng`),
a spec can be executed in any process, in any order, and always yields
bit-identical metrics.  That property is what lets the runner fan jobs
out to worker processes and the cache replay results across invocations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import time
import traceback
import warnings
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import repro
from repro.common import rng
from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.common.machine import DEFAULT_MACHINE, MachineSpec, build_system
from repro.cpu.multicore import BoundTrace
from repro.cpu.simulator import SimulationResult, Simulator
from repro.workloads.generator import TraceGenerator
from repro.workloads.mixes import MIXES, mix_traces
from repro.workloads.parsec import PARSEC_PROFILES, parsec_thread_traces
from repro.workloads.spec import SPEC_PROFILES, spec_profile

#: Bump whenever the meaning of a cached result changes (new metrics,
#: different warmup semantics, ...).  Old cache entries then read back
#: with a stale schema and are invalidated instead of silently reused.
SCHEMA_VERSION = 1

#: Recognised workload binding recipes.
WORKLOAD_KINDS = ("spec", "mix", "parsec", "tenants")

#: Fields earlier builds wrote into spec dicts that no longer exist and
#: never entered the cache key.  Rows carrying them still describe the
#: same job, so :meth:`JobSpec.from_dict` ignores them silently.
#: ``engine`` chose between two bit-identical replay paths.
RETIRED_FIELDS = frozenset({"engine"})

#: Memoised :func:`code_fingerprint` value (None = not yet computed).
_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Identify the simulator code that produces results.

    ``<package version>+<git rev>`` when the repository is available
    (``-dirty`` suffix for uncommitted changes), else the package
    version alone.  Folded into every cache key so results cached by one
    version of the simulator are never replayed by another -- config
    knobs alone cannot distinguish two builds whose *code* computes
    different numbers from the same knobs.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        fingerprint = repro.__version__
        try:
            rev = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=5,
            )
            if rev.returncode == 0 and rev.stdout.strip():
                fingerprint = f"{fingerprint}+{rev.stdout.strip()}"
        except (OSError, subprocess.SubprocessError):
            pass  # no git available: the package version must do
        _FINGERPRINT = fingerprint
    return _FINGERPRINT


def infer_workload_kind(workload: str) -> str:
    """Classify a workload name into one of :data:`WORKLOAD_KINDS`."""
    if workload in MIXES:
        return "mix"
    if workload in SPEC_PROFILES:
        return "spec"
    if workload in PARSEC_PROFILES:
        return "parsec"
    raise ConfigurationError(
        f"unknown workload {workload!r}; see `repro workloads`"
    )


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """Everything that determines one simulation point.

    Instances are frozen and hashable so they can serve directly as
    dictionary keys and as the input to the content-addressed result
    cache.  ``workload_kind`` may be left empty and is then inferred
    from the workload name.  ``num_cores`` may be left ``None`` and is
    then resolved from the kind: one core for a ``spec`` program, four
    for every other kind (a MIX binds one program per core, a PARSEC
    program runs one thread per core, tenants share the quad-core
    machine).  An explicit value wins.  ``to_dict()`` and the cache key
    always carry the resolved count.
    """

    design: str
    workload: str
    workload_kind: str = ""
    accesses: int = 100_000
    cache_megabytes: int = 1024
    num_cores: Optional[int] = None
    replacement: str = "fifo"
    capacity_scale: int = 64
    warmup_fraction: float = 0.25
    #: Thread count for parsec workloads (ignored otherwise).
    parsec_threads: int = 4
    #: When set, pages with fewer than this many accesses in the trace
    #: are flagged non-cacheable before the run (the Figure 13 study).
    nc_threshold: Optional[int] = None
    #: RNG base seed; ``None`` means the library default
    #: (:data:`repro.common.rng.BASE_SEED`) in effect at execution time.
    base_seed: Optional[int] = None
    #: Run with the ``repro.validate`` invariant checker installed.
    validate: bool = False
    #: Per-job wall-clock timeout in seconds; ``None`` defers to the
    #: run-level default (``run_jobs(timeout_s=...)``, itself defaulting
    #: to ``$REPRO_JOB_TIMEOUT``).  Excluded from the cache key: how
    #: long a job is *allowed* to run does not change its result.
    timeout_s: Optional[float] = None
    #: Machine description beyond the scalar knobs above: a preset plus
    #: validated dotted-path overrides (:mod:`repro.common.machine`).
    #: Accepts a :class:`MachineSpec`, a preset name, a dict form, or
    #: ``None`` (the Table 3 default).  The default spec is excluded
    #: from the cache key so pre-existing keys stay byte-identical.
    machine: MachineSpec = DEFAULT_MACHINE
    #: Path to a multi-tenant scenario JSON
    #: (:class:`repro.workloads.tenants.TenantScenarioSpec`).  Setting it
    #: switches the job to the ``tenants`` workload kind: the scenario
    #: file -- not ``accesses``/``warmup_fraction`` -- describes the
    #: replay.  The cache key folds the file's *content* hash, so
    #: editing a scenario in place invalidates its cached results.
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if self.machine is None:
            object.__setattr__(self, "machine", DEFAULT_MACHINE)
        elif isinstance(self.machine, str):
            object.__setattr__(self, "machine",
                               MachineSpec(preset=self.machine))
        elif isinstance(self.machine, Mapping):
            object.__setattr__(self, "machine",
                               MachineSpec.from_dict(self.machine))
        elif not isinstance(self.machine, MachineSpec):
            raise ConfigurationError(
                f"machine must be a MachineSpec, preset name or mapping,"
                f" got {type(self.machine).__name__}"
            )
        if self.scenario is not None and not self.workload_kind:
            object.__setattr__(self, "workload_kind", "tenants")
        if self.workload_kind == "tenants" and self.scenario is None:
            raise ConfigurationError(
                "workload kind 'tenants' needs a scenario file path"
            )
        if not self.workload_kind:
            object.__setattr__(
                self, "workload_kind", infer_workload_kind(self.workload)
            )
        elif self.workload_kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.workload_kind!r}; "
                f"expected one of {WORKLOAD_KINDS}"
            )
        if self.num_cores is None:
            object.__setattr__(
                self, "num_cores", 1 if self.workload_kind == "spec" else 4
            )
        if self.accesses < 0:
            # Zero is legal: a zero-length run exercises the plumbing
            # and reports all-zero metrics (used by smoke tests).
            raise ConfigurationError("accesses must be >= 0")
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ConfigurationError("warmup_fraction must be in [0, 1)")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Short human-readable identifier for progress lines.

        Non-default machines append the spec's short hash so two sweep
        points differing only in overrides stay distinguishable.
        """
        base = f"{self.design}/{self.workload}@{self.cache_megabytes}MB"
        if self.machine.is_default:
            return base
        return f"{base}#{self.machine.spec_hash()[:6]}"

    @property
    def effective_seed(self) -> int:
        """The RNG base seed this job runs under."""
        return self.base_seed if self.base_seed is not None else rng.BASE_SEED

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        # asdict recurses into MachineSpec with tuple-shaped overrides;
        # replace that with the canonical (sorted-mapping) form so the
        # dict round-trips through JSON and hashes stably.
        data["machine"] = self.machine.to_dict()
        return data

    @staticmethod
    def unknown_keys(data: Mapping[str, object]) -> List[str]:
        """The keys of ``data`` no JobSpec field matches, sorted.

        :data:`RETIRED_FIELDS` are not unknown: they are ignored.
        """
        known = {f.name for f in dataclasses.fields(JobSpec)}
        return sorted(set(data) - known - RETIRED_FIELDS)

    @classmethod
    def from_dict(cls, data: Dict[str, object],
                  strict: bool = False) -> "JobSpec":
        """Rebuild a spec from its dict form.

        Keys no field matches -- typically a semantic field added by a
        *newer* build of the simulator -- cannot be silently dropped:
        replaying such a row as if it were this build's spec would
        associate results with the wrong job.  ``strict=True`` (the
        ``--resume-strict`` behaviour) refuses with a
        :class:`ConfigurationError`; the default accepts the spec but
        emits a warning naming the dropped keys.  Keys in
        :data:`RETIRED_FIELDS` are dropped silently in both modes.
        """
        unknown = cls.unknown_keys(data)
        if unknown:
            if strict:
                raise ConfigurationError(
                    f"JobSpec dict carries unknown field(s) "
                    f"{', '.join(unknown)} (written by a newer build?); "
                    f"refusing to reinterpret it as a different job"
                )
            warnings.warn(
                f"dropping {len(unknown)} unknown JobSpec field(s): "
                f"{', '.join(unknown)} -- the replayed spec may not "
                f"describe the job that produced this record",
                RuntimeWarning,
                stacklevel=2,
            )
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def cache_key(self) -> str:
        """Stable content hash of this spec plus the effective base seed.

        Any change to a config knob, the workload recipe, the warmup
        split, the library base seed, :data:`SCHEMA_VERSION`, or the
        simulator code itself (:func:`code_fingerprint`) yields a
        different key, so stale results can never be replayed.  A
        tenant job's key holds :data:`_TENANT_UNREAD` in place of the
        fields its replay never reads.
        """
        payload = self.to_dict()
        # Execution policy, not simulation input: two runs differing
        # only in how long they allow a job to take address the same
        # cached result (and keys stay stable across the field's
        # introduction).
        payload.pop("timeout_s", None)
        # The default machine spec resolves to exactly the machine the
        # scalar knobs already describe, so it is excluded -- keys of
        # every pre-machine-spec JobSpec stay byte-identical.  Any
        # non-default preset/override changes the simulated machine and
        # therefore the key.
        if self.machine.is_default:
            payload.pop("machine", None)
        if self.scenario is None:
            # Pre-scenario keys stay byte-identical.
            payload.pop("scenario", None)
        else:
            # Content-address the scenario: the *file path* is identity
            # for humans, but two machines (or two edits) with different
            # contents at the same path must not share results.
            from repro.workloads.tenants import TenantScenarioSpec
            payload["scenario"] = \
                TenantScenarioSpec.from_file(self.scenario).spec_hash()
        if self.workload_kind == "tenants":
            # The scenario file, not these fields, describes a tenant
            # replay: hashed at their defaults, specs differing only
            # there share a key (and default specs keep theirs).
            payload.update(_TENANT_UNREAD)
        payload["base_seed"] = self.effective_seed
        payload["schema"] = SCHEMA_VERSION
        payload["code"] = code_fingerprint()
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    # ------------------------------------------------------------------
    def system_config(self) -> SystemConfig:
        """Build the machine configuration this job simulates.

        The scalar knobs feed :func:`repro.common.config.default_system`
        exactly as before; the machine spec's preset and overrides are
        then resolved on top, giving every one of SystemConfig's ~40
        fields a declarative path into the harness.
        """
        return build_system(
            machine=self.machine,
            cache_megabytes=self.cache_megabytes,
            num_cores=self.num_cores,
            replacement=self.replacement,
            capacity_scale=self.capacity_scale,
        )

    def bindings(self) -> List[BoundTrace]:
        """Generate the per-core trace bindings this spec describes."""
        if self.workload_kind == "tenants":
            raise ConfigurationError(
                "tenant jobs replay a context-switched schedule, not "
                "per-core trace bindings; execute_job handles them"
            )
        if self.workload_kind == "mix":
            traces = mix_traces(
                self.workload,
                accesses_per_program=self.accesses,
                capacity_scale=self.capacity_scale,
            )
            return [
                BoundTrace(core_id=i, process_id=i, trace=trace)
                for i, trace in enumerate(traces)
            ]
        if self.workload_kind == "parsec":
            traces = parsec_thread_traces(
                self.workload,
                num_threads=self.parsec_threads,
                accesses_per_thread=self.accesses,
                capacity_scale=self.capacity_scale,
            )
            # One shared address space: every thread binds to process 0.
            return [
                BoundTrace(core_id=i, process_id=0, trace=trace)
                for i, trace in enumerate(traces)
            ]
        generator = TraceGenerator(
            spec_profile(self.workload), capacity_scale=self.capacity_scale
        )
        return [
            BoundTrace(core_id=0, process_id=0,
                       trace=generator.generate(self.accesses))
        ]


#: The fields a tenant job's replay never reads, at their defaults: the
#: values :meth:`JobSpec.cache_key` hashes for every tenant job.
_TENANT_UNREAD = {
    f.name: f.default for f in dataclasses.fields(JobSpec)
    if f.name in ("accesses", "warmup_fraction", "parsec_threads",
                  "nc_threshold")
}


def execute_job(spec: JobSpec, bindings=None,
                telemetry=None) -> SimulationResult:
    """Run one spec to completion and return its simulation result.

    This is the function worker processes call; everything it needs is
    reconstructed from the spec, so no simulator state ever crosses a
    process boundary.  ``bindings`` optionally supplies the traces
    already materialised (the shared-memory dispatch path of
    :mod:`repro.harness.shm`); it must describe exactly what
    ``spec.bindings()`` would generate.  ``telemetry`` is handed to
    ``Simulator.run`` or ``Simulator.run_tenants`` for in-process
    callers (``repro run``); the worker pool never passes one.
    """
    previous_seed = rng.BASE_SEED
    override = spec.base_seed is not None and spec.base_seed != previous_seed
    if override:
        rng.BASE_SEED = spec.base_seed
    try:
        if spec.workload_kind == "tenants":
            from repro.workloads.tenants import (
                TenantScenarioSpec,
                build_schedule,
            )

            scenario = TenantScenarioSpec.from_file(spec.scenario)
            schedule = build_schedule(
                scenario, num_cores=spec.num_cores,
                base_seed=spec.effective_seed,
            )
            simulator = Simulator(spec.system_config())
            return simulator.run_tenants(
                spec.design,
                schedule,
                validate=spec.validate or None,
                telemetry=telemetry,
            )
        if bindings is None:
            bindings = spec.bindings()
        non_cacheable = None
        if spec.nc_threshold is not None:
            # Accumulate counts per address space: threads of a parsec
            # run share process 0, so their counts must merge before the
            # threshold is applied.
            per_process: Dict[int, Dict[int, int]] = {}
            for binding in bindings:
                counts = per_process.setdefault(binding.process_id, {})
                for page, count in binding.trace.page_access_counts().items():
                    counts[page] = counts.get(page, 0) + count
            non_cacheable = {
                process_id: [
                    page for page, count in counts.items()
                    if count < spec.nc_threshold
                ]
                for process_id, counts in per_process.items()
            }
        simulator = Simulator(spec.system_config())
        return simulator.run(
            spec.design,
            bindings,
            non_cacheable=non_cacheable,
            warmup_fraction=spec.warmup_fraction,
            # False defers to REPRO_VALIDATE; True forces validation on.
            validate=spec.validate or None,
            telemetry=telemetry,
        )
    finally:
        if override:
            rng.BASE_SEED = previous_seed


#: How many trailing characters of a failure traceback survive into
#: ``JobResult.error_detail`` and the JSONL artifact row.
TRACEBACK_TAIL_CHARS = 2000


def _traceback_tail() -> str:
    """The tail of the current exception's traceback, bounded in size.

    The *last* frames are the ones that say where a sweep point died;
    keeping only the tail bounds artifact rows even for deeply nested
    failures.
    """
    text = traceback.format_exc().strip()
    if len(text) > TRACEBACK_TAIL_CHARS:
        text = "...\n" + text[-TRACEBACK_TAIL_CHARS:]
    return text


def execute_captured(
    spec: JobSpec, attempt: int = 0, bindings=None,
) -> Tuple[Optional[SimulationResult], Optional[str], Optional[str], float]:
    """Run one spec, trapping any exception into strings.

    Returns ``(result, error, error_detail, wall_time_s)``.  Runs inside
    worker processes, so failures are stringified here -- arbitrary
    exception objects are not reliably picklable -- as a one-line
    ``TypeName: msg`` plus the traceback tail for post-hoc debugging.
    ``attempt`` is the zero-based retry attempt, consumed only by the
    deterministic fault-injection hook (:mod:`repro.harness.faults`);
    ``bindings`` optionally carries pre-materialised traces (see
    :func:`execute_job`).
    """
    from repro.harness.faults import apply_faults

    start = time.perf_counter()
    try:
        apply_faults(spec.label, attempt)
        result = execute_job(spec, bindings=bindings)
        return result, None, None, time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - per-job isolation is the point
        error = f"{type(exc).__name__}: {exc}"
        return None, error, _traceback_tail(), time.perf_counter() - start


#: Terminal job statuses a :class:`JobResult` can carry.
JOB_STATUSES = ("ok", "error", "timeout", "worker-crashed")


@dataclasses.dataclass
class JobResult:
    """Outcome of one job: a result, or a captured error, never both."""

    spec: JobSpec
    result: Optional[SimulationResult]
    error: Optional[str] = None
    wall_time_s: float = 0.0
    #: "hit" (served from cache), "miss" (computed, then stored when a
    #: cache is attached), "resume" (seeded from a prior run artifact)
    #: or "off" (no cache in play).
    cache_status: str = "off"
    #: Terminal status: "ok", "error" (the job raised), "timeout" (hit
    #: its wall-clock budget) or "worker-crashed" (its worker process
    #: died).  Derived from ``error`` when not set explicitly.
    status: str = ""
    #: Traceback tail of the failure, when one was captured.
    error_detail: Optional[str] = None
    #: How many retries this job consumed before its terminal attempt.
    retries: int = 0
    #: Trace bytes that crossed the worker pipe by value for this job
    #: (the shared-memory arena's inline fallback; 0 when traces were
    #: regenerated in-worker or served from shared memory).
    trace_bytes_pickled: int = 0
    #: Trace bytes this job consumed from parent-published shared-memory
    #: segments (attachment is zero-copy; the bytes were written once
    #: per recipe, not per job).
    trace_bytes_shared: int = 0

    def __post_init__(self) -> None:
        if not self.status:
            self.status = "ok" if self.error is None else "error"

    @property
    def ok(self) -> bool:
        return self.error is None


def job_health(jobs: Iterable[Tuple[str, str, int]]) -> Dict[str, int]:
    """Execution-health counters over ``(status, cache status, retries)``.

    The one tally behind the run record every view of a live run reads
    (:class:`~repro.harness.progress.RunRecord`), the ``--json``
    summaries, the campaign run summary and ``repro status`` -- so a
    live run and an artifact replay of it count identically.
    ``errors`` covers every failed terminal status (``timeouts`` and
    ``worker_crashes`` break two of them out); ``computed`` counts
    points that actually ran, i.e. neither served from the cache nor
    seeded by a resume.
    """
    counters = {
        "jobs": 0,
        "errors": 0,
        "timeouts": 0,
        "worker_crashes": 0,
        "retries": 0,
        "resumed": 0,
        "cache_hits": 0,
        "computed": 0,
    }
    for status, cache_status, retries in jobs:
        counters["jobs"] += 1
        counters["retries"] += retries
        if status in ("error", "timeout", "worker-crashed"):
            counters["errors"] += 1
        if status == "timeout":
            counters["timeouts"] += 1
        elif status == "worker-crashed":
            counters["worker_crashes"] += 1
        if cache_status == "resume":
            counters["resumed"] += 1
        elif cache_status == "hit":
            counters["cache_hits"] += 1
        elif status == "ok":
            counters["computed"] += 1
    return counters
