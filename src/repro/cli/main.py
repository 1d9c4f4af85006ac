"""Argument parsing and dispatch for the ``repro`` command-line tools."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import List, Optional

from repro.analysis import experiments
from repro.common.config import REPLACEMENT_POLICIES
from repro.common.errors import ConfigurationError
from repro.common.machine import MachineSpec, build_system
from repro.cpu.multicore import BoundTrace
from repro.cpu.simulator import Simulator
from repro.designs.registry import ALL_DESIGN_NAMES
from repro.harness import (
    Harness,
    JobSpec,
    ProgressReporter,
    ResultCache,
    RunArtifact,
    RunRecord,
    default_artifact_path,
    execute_job,
    load_resume_map,
    resolve_cache_dir,
    run_jobs,
)
from repro.workloads.generator import TraceGenerator
from repro.workloads.mixes import MIX_ORDER, MIXES
from repro.workloads.parsec import PARSEC_ORDER, PARSEC_PROFILES
from repro.workloads.spec import SPEC_ORDER, SPEC_PROFILES


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    """Machine-spec flags shared by run/experiment/campaign run."""
    parser.add_argument("--machine", dest="machine_file", default=None,
                        metavar="FILE",
                        help="machine spec file (.json or .toml): a named "
                             "preset plus dotted-path SystemConfig "
                             "overrides (see EXPERIMENTS.md)")
    parser.add_argument("--set", dest="machine_sets", action="append",
                        default=[], metavar="PATH=VALUE",
                        help="override one SystemConfig field by dotted "
                             "path, e.g. dram_cache.gipt_in_package=true "
                             "or core.model=window; repeatable, applied "
                             "after --machine")


def _machine_from_args(args: argparse.Namespace) -> MachineSpec:
    """Resolve ``--machine``/``--set`` into a validated MachineSpec."""
    machine_file = getattr(args, "machine_file", None)
    try:
        if machine_file is not None:
            machine = MachineSpec.from_file(machine_file)
        else:
            machine = MachineSpec()
        assignments = getattr(args, "machine_sets", None) or []
        if assignments:
            machine = machine.with_assignments(assignments)
        return machine
    except OSError as exc:
        raise SystemExit(
            f"cannot read machine spec {machine_file}: {exc}"
        ) from None


def _bounded(kind, minimum, strict: bool = False):
    """argparse ``type=``: a ``kind`` number ``>= minimum`` (``>`` if strict)."""
    def parse(text: str):
        value = kind(text)
        if value < minimum or (strict and value == minimum):
            relation = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {relation} {minimum}")
        return value
    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = kind.__name__
    return parse


class _NoteGiven(argparse.Action):
    """Store the value and note the flag in ``args.given``, so a command
    can refuse a flag it would ignore even at its default value."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()),
                           self.option_strings[0])


def _add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    """``--timeout``/``--retries``: shared by ``run`` and the harness set.

    Either one sends a ``run`` point through a supervised worker.
    """
    parser.add_argument("--timeout", type=_bounded(float, 0, strict=True),
                        default=None, metavar="SECONDS",
                        help="per-job wall-clock budget; a job past it is "
                             "killed and reported status=timeout (default: "
                             "$REPRO_JOB_TIMEOUT for harness commands, "
                             "else unbounded)")
    parser.add_argument("--retries", type=_bounded(int, 0), default=0,
                        help="extra attempts granted to each failed job "
                             "(default 0: fail on first error)")


def _add_harness_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution flags shared by experiment/campaign run/campaign resume.

    Every one of them configures the single harness lifecycle in
    :func:`_harness_session`; out-of-range values are refused at parse
    time.
    """
    parser.add_argument("--jobs", type=_bounded(int, 1), default=1,
                        help="worker processes (1 = serial, the default)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache root (default ~/.cache/repro, "
                             "or $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="compute every point fresh; do not read or "
                             "write the result cache")
    _add_supervision_arguments(parser)
    parser.add_argument("--retry-backoff", type=_bounded(float, 0),
                        default=0.5, metavar="SECONDS",
                        help="delay before the first retry, doubling each "
                             "further attempt (default 0.5)")
    parser.add_argument("--resume-strict", action="store_true",
                        help="when resuming: skip artifact rows recorded "
                             "by a different code fingerprint (default: "
                             "accept them with a warning)")
    parser.add_argument("--live", action="store_true",
                        help="replace the progress lines with a live "
                             "per-worker dashboard fed by worker "
                             "heartbeats (best with --jobs > 1)")
    parser.add_argument("--metrics", dest="metrics_out", default=None,
                        metavar="PATH",
                        help="write a fleet-metrics snapshot (pool, "
                             "cache, shared-memory, campaign counters) "
                             "to PATH on exit; a .prom suffix selects "
                             "Prometheus text exposition, anything else "
                             "JSONL")
    parser.add_argument("--trace", dest="trace_out", default=None,
                        metavar="PATH",
                        help="write a Perfetto JSON trace of the harness "
                             "job lifecycle to PATH")
    parser.add_argument("--timeseries", dest="timeseries_out", default=None,
                        metavar="PATH",
                        help="write a JSONL progress time-series "
                             "(jobs/errors/cache hits over wall time) to "
                             "PATH")


def _add_point_arguments(parser: argparse.ArgumentParser) -> None:
    """Simulation-point flags shared by run/profile."""
    parser.add_argument("--cache-mb", type=int, default=1024,
                        help="nominal DRAM cache size in MB "
                             "(default 1024)")
    parser.add_argument("--scale", type=int, default=64,
                        help="capacity scale factor (default 64)")
    parser.add_argument("--replacement", default="fifo",
                        choices=REPLACEMENT_POLICIES,
                        help="tagless victim policy (default fifo)")
    parser.add_argument("--warmup", type=float, default=0.25,
                        action=_NoteGiven,
                        help="fraction of each trace that warms state "
                             "unmeasured (default 0.25)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tagless DRAM cache reproduction toolkit (ISCA 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list workload models and mixes")

    run = sub.add_parser("run", help="simulate a workload on a design")
    run.add_argument("design", choices=ALL_DESIGN_NAMES)
    run.add_argument("workload",
                     help="SPEC/PARSEC program, MIX1..MIX8, or a tenant "
                          "scenario .json file (replayed on four cores; "
                          "the file sets its length and warmup, so "
                          "--accesses/--warmup are refused)")
    run.add_argument("--accesses", type=_bounded(int, 0), default=100_000,
                     action=_NoteGiven)
    _add_point_arguments(run)
    run.add_argument("--json", action="store_true",
                     help="emit metrics as JSON")
    run.add_argument("--trace", dest="trace_out", default=None,
                     metavar="PATH",
                     help="capture a Perfetto JSON event trace of the "
                          "measured window to PATH")
    run.add_argument("--timeseries", dest="timeseries_out", default=None,
                     metavar="PATH",
                     help="capture a windowed time-series artifact to "
                          "PATH (.csv suffix switches format)")
    run.add_argument("--interval", type=_bounded(int, 1), default=1024,
                     help="time-series window size in accesses "
                          "(default 1024)")
    _add_supervision_arguments(run)
    _add_machine_arguments(run)

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's figures"
    )
    experiment.add_argument("figure", choices=tuple(experiments.FIGURES))
    experiment.add_argument("--accesses", type=_bounded(int, 1),
                            default=None,
                            help="per-core trace length override")
    experiment.add_argument("--json", action="store_true",
                            help="emit the figure's data as JSON instead "
                                 "of text tables")
    experiment.add_argument("--artifact", default=None,
                            help="JSONL run-record path (default: a "
                                 "timestamped file under <cache-dir>/runs)")
    _add_machine_arguments(experiment)
    _add_harness_arguments(experiment)
    experiment.add_argument("--resume", default=None, metavar="ARTIFACT",
                            help="seed completed points from a prior run's "
                                 "JSONL artifact; only missing/failed "
                                 "points are recomputed")

    campaign = sub.add_parser(
        "campaign",
        help="run, resume, and report declarative factor x level x "
             "repetition studies with statistical reduction",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="execute a study spec end to end and write reports"
    )
    campaign_run.add_argument(
        "study", help="path to a .json/.toml campaign spec"
    )
    campaign_run.add_argument(
        "--out", default=None, metavar="DIR",
        help="campaign directory for the spec copy, the resumable "
             "jobs.jsonl artifact and the reports "
             "(default campaigns/<study name>)"
    )
    campaign_run.add_argument(
        "--resume", action="store_true",
        help="seed completed points from DIR/jobs.jsonl of an "
             "interrupted run; only missing/failed points are recomputed"
    )
    _add_machine_arguments(campaign_run)
    _add_harness_arguments(campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="continue an interrupted campaign directory"
    )
    campaign_resume.add_argument(
        "dir", help="campaign directory holding spec.json + jobs.jsonl"
    )
    _add_harness_arguments(campaign_resume)
    for command in (campaign_run, campaign_resume):
        command.add_argument("--json", action="store_true",
                             help="print the run summary as JSON")

    campaign_report = campaign_sub.add_parser(
        "report",
        help="recompute the statistical reports of a campaign directory "
             "from its artifact, without re-running anything",
    )
    campaign_report.add_argument(
        "dir", help="campaign directory holding spec.json + jobs.jsonl"
    )
    campaign_report.add_argument("--json", action="store_true",
                                 help="print the JSON report to stdout "
                                      "instead of the Markdown table")

    profile = sub.add_parser(
        "profile",
        help="profile the simulation engine with cProfile",
    )
    profile.add_argument("--design", default="tagless",
                         choices=ALL_DESIGN_NAMES)
    profile.add_argument("--workload", default="mcf",
                         help="SPEC/PARSEC program or MIX1..MIX8")
    profile.add_argument("--accesses", type=_bounded(int, 0),
                         default=100_000)
    _add_point_arguments(profile)
    profile.add_argument("--top", type=_bounded(int, 1), default=25,
                         help="rows to report (default 25)")
    profile.add_argument("--sort", default="cumulative",
                         choices=("cumulative", "tottime", "ncalls"),
                         help="ranking key (default cumulative)")
    profile.add_argument("--json", action="store_true",
                         help="emit the report as JSON")

    report = sub.add_parser(
        "report",
        help="render a time-series artifact as ASCII sparklines",
    )
    report.add_argument("artifact",
                        help="path to a .timeseries.jsonl/.csv artifact "
                             "(from `repro run <design> <workload> "
                             "--timeseries PATH`)")
    report.add_argument("--width", type=_bounded(int, 1), default=60,
                        help="sparkline width in characters (default 60)")
    report.add_argument("--metrics", nargs="+", default=None,
                        metavar="COLUMN",
                        help="only render these columns (default: all)")

    status = sub.add_parser(
        "status",
        help="reconstruct campaign health (counters, failures, missing "
             "points) from a campaign directory's artifacts",
    )
    status.add_argument(
        "dir", help="campaign directory holding spec.json + jobs.jsonl"
    )
    status.add_argument("--json", action="store_true",
                        help="emit the status as JSON")

    merge_trace = sub.add_parser(
        "merge-trace",
        help="merge Perfetto JSON traces (e.g. a harness job-lifecycle "
             "trace and a sim-level telemetry trace) into one timeline",
    )
    merge_trace.add_argument("traces", nargs="+",
                             help="input Perfetto JSON trace files")
    merge_trace.add_argument("--out", required=True, metavar="PATH",
                             help="merged Perfetto JSON output path")

    validate = sub.add_parser(
        "validate",
        help="grade the paper's headline claims against this build",
    )
    validate.add_argument("--accesses", type=_bounded(int, 1), default=40_000,
                          help="single-programmed trace length")

    check = sub.add_parser(
        "check",
        help="run structural invariants, reference differentials and "
             "cross-design bounds (the repro.validate subsystem)",
    )
    check.add_argument("--design", nargs="+", default=list(ALL_DESIGN_NAMES),
                       choices=ALL_DESIGN_NAMES, metavar="DESIGN",
                       help="designs to sweep with the invariant checker "
                            "(default: all registered)")
    check.add_argument("--accesses", type=_bounded(int, 0), default=20_000,
                       help="trace length per invariant-checked run "
                            "(default 20k)")
    check.add_argument("--every", type=_bounded(int, 1), default=None,
                       help="accesses between invariant sweeps (default "
                            "$REPRO_VALIDATE_EVERY or 1024)")
    check.add_argument("--workload", default="mcf",
                       help="SPEC program driving the checked runs")
    return parser


def cmd_workloads(_args: argparse.Namespace) -> int:
    print("SPEC CPU 2006 models (single/multi-programmed):")
    for name in SPEC_ORDER:
        profile = SPEC_PROFILES[name]
        print(f"  {name:12s} footprint {profile.footprint_mb:6.0f} MB  "
              f"apki {profile.apki:4.1f}  "
              f"stream {profile.stream_fraction:.2f}  "
              f"cold {profile.cold_fraction:.3f}")
    print("\nPARSEC models (multi-threaded):")
    for name in PARSEC_ORDER:
        profile = PARSEC_PROFILES[name]
        print(f"  {name:12s} footprint {profile.footprint_mb:6.0f} MB  "
              f"apki {profile.apki:4.1f}")
    print("\nMixes (Table 5):")
    for name in MIX_ORDER:
        print(f"  {name}: {'-'.join(MIXES[name])}")
    return 0


def _profile_for(workload: str):
    if workload in SPEC_PROFILES:
        return SPEC_PROFILES[workload]
    if workload in PARSEC_PROFILES:
        return PARSEC_PROFILES[workload]
    raise SystemExit(
        f"unknown workload {workload!r}; see `repro workloads`"
    )


def _point_spec(args: argparse.Namespace, design: str, workload: str,
                accesses: int, **fields) -> JobSpec:
    """The JobSpec of one ``run``/``profile`` point.

    The same description every campaign point has, so a single point
    simulates exactly what the harness would (four threads on four
    cores for a PARSEC program, for example).  A ``.json`` workload is a
    tenant-scenario file: the job replays its schedule.
    """
    if workload.endswith(".json"):
        fields["scenario"] = workload
    return JobSpec(
        design=design,
        workload=workload,
        accesses=accesses,
        cache_megabytes=args.cache_mb,
        replacement=args.replacement,
        capacity_scale=args.scale,
        warmup_fraction=args.warmup,
        **fields,
    )


def _print_tenant_tables(result) -> None:
    """The per-tenant QoS table and the per-resize churn table."""
    print(f"  {'tenant':>6s} {'profile':>10s} {'arrive':>6s} "
          f"{'footprint':>9s} {'instrs':>9s} {'ipc':>7s} {'mpki':>7s} "
          f"{'p50 ns':>8s} {'p99 ns':>8s}")
    for t in result.tenants:
        print(f"  {t['tenant']:>6d} {t['profile']:>10s} "
              f"{t['arrival_round']:>6d} {t['footprint_pages']:>9d} "
              f"{t['instructions']:>9d} {t['ipc']:>7.3f} {t['mpki']:>7.2f} "
              f"{t['p50_demand_ns']:>8.0f} {t['p99_demand_ns']:>8.0f}")
    worst = max(result.tenants, key=lambda t: t["p99_demand_ns"],
                default=None)
    if worst is not None:
        print(f"  worst p99 demand: tenant {worst['tenant']} "
              f"({worst['profile']}) at {worst['p99_demand_ns']:.0f} ns")
    if result.resize_events:
        print(f"  resize events ({len(result.resize_events)}):")
        print(f"    {'at':>8s} {'from':>6s} {'to':>6s} {'remap':>6s} "
              f"{'evict':>6s} {'shoot':>6s} {'budget':>6s}")
        for e in result.resize_events:
            print(f"    {e['at_access']:>8d} {e['from_pages']:>6d} "
                  f"{e['to_pages']:>6d} {e['remapped']:>6d} "
                  f"{e['evicted']:>6d} {e['shootdowns']:>6d} "
                  f"{e['max_remap']:>6d}")


def cmd_run(args: argparse.Namespace) -> int:
    if args.workload.endswith(".json") and getattr(args, "given", ()):
        raise ConfigurationError(
            f"{', '.join(sorted(set(args.given)))}: a tenant scenario sets "
            f"its own length and warmup, so run refuses the flag"
        )
    # Resolved once: the machine file is read a single time, so the
    # printed ``machine`` block is the machine that was simulated.
    machine = _machine_from_args(args)
    spec = _point_spec(args, args.design, args.workload, args.accesses,
                       timeout_s=args.timeout, machine=machine)
    tenant_job = spec.workload_kind == "tenants"
    telemetry = None
    if args.timeout is not None or args.retries > 0:
        # Supervised: the point runs in a killable worker process, so a
        # hang ends after the budget instead of wedging the terminal.
        # Simulator-level telemetry cannot cross that process boundary.
        if args.trace_out or args.timeseries_out:
            raise SystemExit(
                "--timeout/--retries run in a worker process and cannot "
                "capture --trace/--timeseries telemetry; drop one or the "
                "other"
            )
        outcome = run_jobs([spec], jobs=1, retries=args.retries)[0]
        if not outcome.ok:
            print(f"{spec.label} {outcome.status}: {outcome.error}",
                  file=sys.stderr)
            if outcome.error_detail:
                print(outcome.error_detail, file=sys.stderr)
            raise SystemExit(1)
        result = outcome.result
    else:
        if args.trace_out or args.timeseries_out:
            from repro.obs import make_telemetry

            telemetry = make_telemetry(interval=args.interval)
        result = execute_job(spec, telemetry=telemetry)
    metrics = {
        "design": args.design,
        "workload": args.workload,
        "cache_mb": args.cache_mb,
        "warmup_fraction": args.warmup,
        "ipc": result.ipc_sum,
        "per_core_ipc": [core.ipc for core in result.cores],
        "elapsed_ms": result.elapsed_ns / 1e6,
        "mean_l3_latency_cycles": result.mean_l3_latency_cycles,
        "energy_j": result.total_energy_j,
        "edp_js": result.edp,
    }
    if tenant_job:
        del metrics["warmup_fraction"]  # the scenario sets its warmup
    if not machine.is_default:
        # Key appears only when the machine was customised, so default
        # invocations keep byte-identical output.
        metrics["machine"] = machine.to_dict()
    if telemetry is not None:
        # Keys appear only when capture was requested, so the default
        # output stays byte-identical.
        telemetry.write_artifacts(args.trace_out, args.timeseries_out,
                                  workload=args.workload)
        if args.trace_out:
            metrics["trace"] = args.trace_out
        if args.timeseries_out:
            metrics["timeseries"] = args.timeseries_out
    if tenant_job:
        metrics["context_switches"] = result.stats["context_switches"]
    if args.json:
        if tenant_job:
            metrics["tenants"] = result.tenants
            metrics["resize_events"] = result.resize_events
        print(json.dumps(metrics, indent=2))
        return 0
    for key, value in metrics.items():
        print(f"{key:24s}: {value}")
    if tenant_job:
        _print_tenant_tables(result)
    return 0


def _load_resume(path: str, strict: bool):
    """Load a resume map, reporting provenance of the seeded rows.

    Rows recorded under a different code fingerprint are either skipped
    (``strict``) or accepted with a warning -- results computed by a
    different build of the simulator may not match what the current
    code would produce.
    """
    try:
        resume = load_resume_map(path, strict=strict)
    except OSError as exc:
        raise SystemExit(
            f"cannot read resume artifact {path}: {exc}"
        ) from None
    print(f"resume: {len(resume)} completed points from {path}",
          file=sys.stderr)
    if resume.skipped:
        print(f"resume: skipped {resume.skipped} rows from a different "
              f"code fingerprint (--resume-strict)", file=sys.stderr)
    elif resume.code_mismatches or resume.unknown_code:
        suspect = resume.code_mismatches + resume.unknown_code
        print(f"resume: warning: {suspect} rows were recorded by a "
              f"different or unknown code fingerprint; pass "
              f"--resume-strict to recompute them instead",
              file=sys.stderr)
    return resume


#: Worker heartbeat period behind ``--live`` (seconds).
LIVE_HEARTBEAT_S = 0.5


def _install_metrics(args: argparse.Namespace) -> None:
    """Arm the global metrics registry when ``--metrics`` asks for it.

    Must run before any instrumented object (cache, pool, arena) is
    constructed -- instruments are fetched at construction time -- and
    before a campaign expands its grid, which counts cells and points;
    :func:`main` calls it straight after parsing.  Without the flag the
    registry keeps its ``$REPRO_METRICS`` default.
    """
    if getattr(args, "metrics_out", None):
        from repro.obs import MetricsRegistry, set_registry

        set_registry(MetricsRegistry(enabled=True))


def _write_metrics(path: Optional[str]) -> None:
    """Snapshot the global registry to ``path`` (no-op without one)."""
    if not path:
        return
    from repro.obs import get_registry

    get_registry().write(path)
    print(f"metrics: {path}", file=sys.stderr)


def _fleet_observers(args: argparse.Namespace, name: str,
                     record: RunRecord) -> list:
    """Observers behind ``--trace``/``--timeseries`` and ``--live``."""
    observers = []
    if args.trace_out or args.timeseries_out:
        from repro.obs import HarnessObserver

        harness_obs = HarnessObserver(record, label=name)
        harness_obs.trace_path = args.trace_out
        harness_obs.timeseries_path = args.timeseries_out
        observers.append(harness_obs)
    if args.live:
        from repro.obs import LiveMonitor

        observers.append(LiveMonitor(record, label=name))
    return observers


@contextlib.contextmanager
def _harness_session(args: argparse.Namespace, name: str,
                     artifact_path: Optional[str],
                     total: Optional[int] = None, *,
                     meta: Optional[dict] = None,
                     resume_path: Optional[str] = None):
    """Build the harness from the shared flags; finish it on the way out.

    The one execution lifecycle of ``experiment`` and ``campaign
    run``/``resume``.  Yields ``(harness, artifact)``: the
    run record, then the progress reporter, the JSONL artifact and any
    fleet observers, all labelled ``name``, ride the harness's one
    observer slot, in that order.  The record counts each job event
    once; every view reads its counts from it.  On exit -- Ctrl-C
    included -- the artifact gets its summary record, telemetry files
    are written, the progress summary prints (without ``--live``) and
    the ``--metrics`` snapshot lands.  Progress and file locations
    go to stderr so stdout carries only the figure tables / JSON --
    byte-identical to a serial, uncached invocation.
    """
    from repro.obs import CompositeObserver

    # Loaded before the artifact opens for writing, so resuming over
    # the same file is safe.
    resume = (_load_resume(resume_path, args.resume_strict)
              if resume_path is not None else None)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if artifact_path is None:
        artifact_path = default_artifact_path(
            resolve_cache_dir(args.cache_dir), name
        )
    record = RunRecord(total)
    artifact = RunArtifact(
        artifact_path, name=name,
        meta={"jobs": args.jobs, "cache": not args.no_cache,
              **(meta or {}), "argv": sys.argv[1:]},
        record=record,
    )
    # --live owns the terminal: the line-per-job reporter stays silent,
    # its end-of-run summary included.
    progress = ProgressReporter(record, label=name, enabled=not args.live)
    fleet = _fleet_observers(args, name, record)
    print(f"artifact: {artifact_path}", file=sys.stderr)
    harness = Harness(jobs=args.jobs, cache=cache,
                      observer=CompositeObserver(record, progress, artifact,
                                                 *fleet),
                      timeout_s=args.timeout, retries=args.retries,
                      retry_backoff_s=args.retry_backoff, resume=resume,
                      heartbeat_s=LIVE_HEARTBEAT_S if args.live else None)
    try:
        yield harness, artifact
    finally:
        cache_stats = cache.stats if cache else None
        artifact.close(cache_stats)
        for observer in fleet:
            observer.finish()
            for path in (getattr(observer, "trace_path", None),
                         getattr(observer, "timeseries_path", None)):
                if path:
                    print(f"telemetry: {path}", file=sys.stderr)
        progress.summary(cache_stats)
        _write_metrics(args.metrics_out)


def cmd_experiment(args: argparse.Namespace) -> int:
    machine = _machine_from_args(args)
    # Expanded first: a bad grid fails before any file opens, and the
    # job count gives the progress line and the live view their total.
    _levels, jobs = experiments.expand_figure(
        args.figure, accesses=args.accesses, machine=machine)
    with _harness_session(args, args.figure, args.artifact, total=len(jobs),
                          resume_path=args.resume) as (harness, artifact):
        result = experiments.run_figure(args.figure, accesses=args.accesses,
                                        machine=machine, harness=harness)
    if args.json:
        data = result.to_dict()
        # Execution health rides along so campaign-style aggregation
        # can tell a clean figure from one that limped through retries.
        data["harness"] = artifact.counters
        print(json.dumps(data, indent=2))
    else:
        print("\n\n".join(result.tables()))
    return 0


def _campaign_spec(args: argparse.Namespace):
    """Load the study file of ``campaign run``."""
    from repro.campaign import CampaignSpec

    try:
        return CampaignSpec.from_file(args.study)
    except OSError as exc:
        raise SystemExit(f"cannot read study {args.study}: {exc}") from None
    except ConfigurationError as exc:
        raise SystemExit(f"bad study {args.study}: {exc}") from None


def _campaign_execute(spec, out_dir: str, args: argparse.Namespace,
                      resume: bool) -> int:
    """Shared body of ``campaign run`` and ``campaign resume``."""
    from repro.campaign import (
        CampaignRun,
        expand,
        reduce_campaign,
        write_reports,
    )
    from repro.campaign.compile import check_scenarios
    from repro.harness.jobs import code_fingerprint

    try:
        jobs = expand(spec)
        check_scenarios(jobs)
    except ConfigurationError as exc:
        raise SystemExit(f"bad study: {exc}") from None

    os.makedirs(out_dir, exist_ok=True)
    spec_path = os.path.join(out_dir, "spec.json")
    artifact_path = os.path.join(out_dir, "jobs.jsonl")

    resume_path = None
    if resume:
        if os.path.exists(spec_path):
            from repro.campaign import CampaignSpec

            try:
                recorded = CampaignSpec.from_file(spec_path)
            except (OSError, ConfigurationError) as exc:
                raise SystemExit(
                    f"cannot read recorded spec {spec_path}: {exc}"
                ) from None
            if recorded.spec_hash() != spec.spec_hash():
                raise SystemExit(
                    f"study changed since this campaign directory was "
                    f"created (spec hash {recorded.spec_hash()} -> "
                    f"{spec.spec_hash()}); use a fresh --out instead of "
                    f"resuming"
                )
        if os.path.exists(artifact_path):
            resume_path = artifact_path
        else:
            print(f"resume: no prior artifact at {artifact_path}; "
                  f"running the full study", file=sys.stderr)

    with open(spec_path, "w") as handle:
        json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"campaign {spec.name}: {len(jobs)} points "
          f"({len(spec.cells())} cells x {spec.repetitions} repetitions) "
          f"-> {out_dir}", file=sys.stderr)
    try:
        with _harness_session(
            args, f"campaign-{spec.name}", artifact_path, total=len(jobs),
            meta={"campaign": spec.name, "spec_hash": spec.spec_hash()},
            resume_path=resume_path,
        ) as (harness, _artifact):
            outcomes = harness.run([job.spec for job in jobs])
    except KeyboardInterrupt:
        print(f"\ninterrupted; completed points are in {artifact_path} -- "
              f"finish with `repro campaign resume {out_dir}`",
              file=sys.stderr)
        return 130

    run = CampaignRun(campaign=spec, jobs=jobs, outcomes=outcomes)
    report = reduce_campaign(spec, run.cell_results())
    paths = write_reports(report, out_dir)
    counters = run.counters()
    summary = {
        "campaign": spec.name,
        "spec_hash": spec.spec_hash(),
        "code": code_fingerprint(),
        "out_dir": out_dir,
        "cells": len(spec.cells()),
        "repetitions": spec.repetitions,
        "missing_points": report.missing_points,
        **counters,
        "reports": paths,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"campaign {spec.name}: {counters['jobs']} points -- "
              f"{counters['computed']} computed, "
              f"{counters['cache_hits']} cache hits, "
              f"{counters['resumed']} resumed, "
              f"{counters['errors']} errors "
              f"({counters['timeouts']} timeouts, "
              f"{counters['worker_crashes']} crashes, "
              f"{counters['retries']} retries)")
        for kind, path in paths.items():
            print(f"{kind:10s} {path}")

    return 1 if counters["errors"] else 0


def _merge_machine_into_campaign(spec, machine: MachineSpec):
    """Fold ``--machine``/``--set`` into a campaign spec's fixed settings.

    The merged names join the spec's namespace, so they change its
    ``spec_hash`` (a customised machine is a different study) and are
    validated by the :class:`CampaignSpec` constructor like any other
    fixed setting.  Conflicts with the study's own factors or fixed
    settings are refused rather than silently resolved.
    """
    if machine.is_default:
        return spec
    additions = []
    if machine.preset != MachineSpec().preset:
        additions.append(("preset", machine.preset))
    # Explicit overrides only: the preset name above already carries
    # its bundle, so expanding effective_overrides() here would
    # double-apply it.
    additions.extend(machine.overrides)
    taken = ({name for name, _levels in spec.factors}
             | {name for name, _value in spec.fixed})
    conflicts = sorted(name for name, _value in additions if name in taken)
    if conflicts:
        raise SystemExit(
            f"--machine/--set would override study settings already "
            f"declared by {spec.name!r}: {', '.join(conflicts)}; edit "
            f"the study file instead"
        )
    return dataclasses.replace(spec, fixed=spec.fixed + tuple(additions))


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec

    if args.campaign_command == "run":
        spec = _campaign_spec(args)
        spec = _merge_machine_into_campaign(spec, _machine_from_args(args))
        out_dir = (args.out if args.out is not None
                   else os.path.join("campaigns", spec.name))
        return _campaign_execute(spec, out_dir, args, resume=args.resume)

    spec_path = os.path.join(args.dir, "spec.json")
    try:
        spec = CampaignSpec.from_file(spec_path)
    except OSError as exc:
        raise SystemExit(
            f"{args.dir} is not a campaign directory "
            f"(cannot read {spec_path}: {exc})"
        ) from None
    except ConfigurationError as exc:
        raise SystemExit(f"bad recorded spec {spec_path}: {exc}") from None

    if args.campaign_command == "resume":
        return _campaign_execute(spec, args.dir, args, resume=True)

    # campaign report: reduce the artifact without re-running anything.
    from repro.campaign import (
        reduce_campaign,
        render_markdown,
        results_from_artifact,
        write_reports,
    )

    artifact_path = os.path.join(args.dir, "jobs.jsonl")
    try:
        _jobs, results, dropped = results_from_artifact(spec, artifact_path)
    except OSError as exc:
        raise SystemExit(
            f"cannot read artifact {artifact_path}: {exc}"
        ) from None
    if dropped:
        print(f"warning: skipped {dropped} artifact rows whose specs "
              f"carry keys unknown to this build (written by a newer "
              f"schema?); they cannot be re-associated safely",
              file=sys.stderr)
    report = reduce_campaign(spec, results)
    paths = write_reports(report, args.dir)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_markdown(report), end="")
    if report.missing_points:
        print(f"warning: {report.missing_points} points missing; "
              f"`repro campaign resume {args.dir}` completes them",
              file=sys.stderr)
    for kind, path in paths.items():
        print(f"{kind}: {path}", file=sys.stderr)
    return 0


def _short_location(filename: str, line: int) -> str:
    """Trim profiler file paths to the repository-relative interesting part."""
    if filename.startswith("~") or filename.startswith("<"):
        return filename  # C builtins / exec'd code have no real path
    marker = "src/repro/"
    index = filename.find(marker)
    if index >= 0:
        filename = filename[index:]
    return f"{filename}:{line}"


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one simulation run under cProfile and rank the hot spots.

    The run takes the same replay path as ``Simulator.run``: the fused
    kernel, which shows up as one ``_run_kernel`` frame with only its
    calls broken out beneath it (for the tagless design the rare-event
    fallbacks, for the others also the design's L3 service).
    """
    import cProfile
    import pstats
    import time

    spec = _point_spec(args, args.design, args.workload, args.accesses)
    bindings = spec.bindings()
    for binding in bindings:
        # Pay the one-time numpy->list conversion outside the profile so
        # the report shows the steady-state engine, not trace prep.
        binding.trace.as_lists()

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = execute_job(spec, bindings=bindings)
    profiler.disable()
    elapsed = time.perf_counter() - start

    rows = []
    for (filename, line, func), (cc, nc, tt, ct, _callers) in \
            pstats.Stats(profiler).stats.items():
        rows.append({
            "function": func,
            "location": _short_location(filename, line),
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_s": tt,
            "cumtime_s": ct,
        })
    sort_key = {"cumulative": "cumtime_s", "tottime": "tottime_s",
                "ncalls": "ncalls"}[args.sort]
    rows.sort(key=lambda row: row[sort_key], reverse=True)
    rows = rows[:args.top]

    from repro.common import rng

    total_accesses = sum(len(binding.trace) for binding in bindings)
    report = {
        "design": args.design,
        "workload": args.workload,
        "accesses": total_accesses,
        "seed": rng.BASE_SEED,
        "cache_mb": args.cache_mb,
        "scale": args.scale,
        "replacement": args.replacement,
        "warmup_fraction": args.warmup,
        "seconds": elapsed,
        "accesses_per_second": (
            total_accesses / elapsed if elapsed > 0 else 0.0
        ),
        "ipc": result.ipc_sum,
        "sort": args.sort,
        "top": rows,
    }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"{args.design} on {args.workload}: {total_accesses} accesses "
          f"in {elapsed:.3f} s "
          f"({report['accesses_per_second']:,.0f} accesses/s), "
          f"IPC {result.ipc_sum:.3f}")
    print(f"top {len(rows)} by {args.sort}:")
    print(f"{'ncalls':>10s} {'tottime':>9s} {'cumtime':>9s}  function")
    for row in rows:
        print(f"{row['ncalls']:>10d} {row['tottime_s']:>9.3f} "
              f"{row['cumtime_s']:>9.3f}  {row['function']} "
              f"({row['location']})")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a time-series artifact (JSONL or CSV) as sparklines."""
    from repro.obs import load_timeseries, render_timeseries

    try:
        meta, columns, histogram = load_timeseries(args.artifact)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read {args.artifact}: {exc}") from None
    print(render_timeseries(meta, columns, histogram=histogram,
                            width=args.width, metrics=args.metrics))
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Reconstruct campaign health from spec.json + jobs.jsonl."""
    from repro.campaign import campaign_status, render_status

    try:
        status = campaign_status(args.dir)
    except OSError as exc:
        raise SystemExit(
            f"{args.dir} is not a campaign directory ({exc})"
        ) from None
    except ConfigurationError as exc:
        raise SystemExit(
            f"bad recorded spec in {args.dir}: {exc}"
        ) from None
    if args.json:
        print(json.dumps(status.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_status(status))
    return 0


def cmd_merge_trace(args: argparse.Namespace) -> int:
    """Merge Perfetto traces into one timeline (one process per input)."""
    from repro.obs import merge_perfetto_files

    try:
        merged = merge_perfetto_files(args.traces, args.out)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot merge traces: {exc}") from None
    other = merged["otherData"]
    print(f"merged {len(args.traces)} traces -> {args.out} "
          f"({len(merged['traceEvents'])} events, "
          f"{other['dropped']} dropped at capture)")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validate import run_validation

    report = run_validation(
        single_accesses=args.accesses,
        mix_accesses=max(10_000, args.accesses * 3 // 4),
    )
    print(report.table())
    print()
    print("overall:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_check(args: argparse.Namespace) -> int:
    """Structural and differential validation (the `repro check` gate).

    Three phases, any failure exits non-zero:

    1. every selected design runs an invariant-checked simulation on a
       deliberately small cache (evictions early and often);
    2. the fused-dict LRU set-associative cache is replayed against the
       slow list-based reference model on a randomized trace;
    3. one trace is replayed through the design chain and the
       cross-design bounds (ideal >= tagless >= bi >= no-l3, no-l3's
       off-package demand as the ceiling) are asserted.
    """
    from repro.validate import differential, reference
    from repro.validate.invariants import InvariantViolation

    accesses = args.accesses
    ref_ops = 20_000

    # A small cache over a scaled-down footprint keeps fill/evict churn
    # high -- the same shape the golden-stats fixtures pin -- so the
    # invariants see the interesting transitions, not a half-empty cache.
    config = dataclasses.replace(
        build_system(cache_megabytes=128, num_cores=1, capacity_scale=512),
        tlb_scale=32,
    )
    profile = _profile_for(args.workload)
    trace = TraceGenerator(profile, capacity_scale=512).generate(accesses)
    bindings = [BoundTrace(0, 0, trace)]
    simulator = Simulator(config)
    failures = 0

    # Designs with a runtime capacity schedule get one armed mid-run --
    # shrink at a third of the trace, grow back at two thirds -- so the
    # invariant sweeps exercise the resize state machine, not just the
    # steady state.  Designs without one ignore the schedule.
    resize_schedule = [
        (max(1, accesses // 3), 0.75),
        (max(2, 2 * accesses // 3), 1.0),
    ]

    print(f"invariant sweep: {len(args.design)} designs x {accesses} "
          f"accesses ({args.workload})")
    for design in args.design:
        try:
            simulator.run(design, bindings, validate=True,
                          validate_every=args.every,
                          resize_schedule=resize_schedule,
                          max_remap_per_resize=8)
            print(f"  [ok]   {design}")
        except InvariantViolation as exc:
            failures += 1
            print(f"  [FAIL] {design}: {exc}")

    print(f"reference differential: {ref_ops} randomized ops")
    try:
        reference.run_reference_differential(
            num_sets=4, ways=8, operations=ref_ops
        )
        print("  [ok]   lru")
    except InvariantViolation as exc:
        failures += 1
        print(f"  [FAIL] lru: {exc}")

    chain = [d for d in differential.BOUND_CHAIN if d in args.design]
    extras = [d for d in ("sram", "alloy") if d in args.design]
    if len(chain) >= 2 or extras:
        try:
            report = differential.run_cross_design_bounds(
                config, bindings, designs=chain + extras,
                workload=args.workload, validate=False,
            )
            print(report.table())
            failures += sum(1 for c in report.checks if not c.passed)
        except InvariantViolation as exc:
            failures += 1
            print(f"  [FAIL] cross-design bounds: {exc}")
    print("check:", "PASS" if failures == 0 else f"FAIL ({failures})")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "workloads": cmd_workloads,
    "run": cmd_run,
    "experiment": cmd_experiment,
    "campaign": cmd_campaign,
    "profile": cmd_profile,
    "report": cmd_report,
    "status": cmd_status,
    "merge-trace": cmd_merge_trace,
    "validate": cmd_validate,
    "check": cmd_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _install_metrics(args)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        # The one place a bad setting -- a flag value, a machine
        # override, a workload name -- becomes a clean exit.
        raise SystemExit(str(exc)) from None
