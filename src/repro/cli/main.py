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
from repro.common.errors import ConfigurationError
from repro.common.machine import MachineSpec, build_system
from repro.cpu.multicore import BoundTrace
from repro.cpu.simulator import Simulator
from repro.designs.registry import ALL_DESIGN_NAMES, DESIGN_NAMES
from repro.harness import (
    Harness,
    JobSpec,
    ProgressReporter,
    ResultCache,
    RunArtifact,
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
from repro.workloads.trace import save_trace


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    """Machine-spec flags shared by run/experiment/sweep/campaign run."""
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


def _add_harness_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution flags shared by experiment/sweep/campaign run/resume.

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
    parser.add_argument("--timeout", type=_bounded(float, 0, strict=True),
                        default=None, metavar="SECONDS",
                        help="per-job wall-clock budget; a job past it is "
                             "killed and reported status=timeout (default: "
                             "$REPRO_JOB_TIMEOUT, else unbounded)")
    parser.add_argument("--retries", type=_bounded(int, 0), default=0,
                        help="extra attempts granted to each failed job "
                             "(default 0: fail on first error)")
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


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Artifact-resume and telemetry flags of ``experiment``/``sweep``.

    ``campaign`` resumes from its own directory and has no harness
    telemetry files, so these stay off its parsers.
    """
    parser.add_argument("--resume", default=None, metavar="ARTIFACT",
                        help="seed completed points from a prior run's "
                             "JSONL artifact; only missing/failed points "
                             "are recomputed")
    parser.add_argument("--trace", dest="trace_out", default=None,
                        metavar="PATH",
                        help="write a Perfetto JSON trace of the harness "
                             "job lifecycle to PATH")
    parser.add_argument("--timeseries", dest="timeseries_out", default=None,
                        metavar="PATH",
                        help="write a JSONL progress time-series "
                             "(jobs/errors/cache hits over wall time) to "
                             "PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tagless DRAM cache reproduction toolkit (ISCA 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list workload models and mixes")

    trace = sub.add_parser(
        "trace",
        help="generate a synthetic trace, or capture telemetry "
             "(Perfetto trace + time-series) from a simulation",
    )
    trace.add_argument(
        "target", nargs="?", default=None,
        help="a design name captures telemetry from a simulated run "
             f"({', '.join(ALL_DESIGN_NAMES)}); any other name is a "
             "workload and generates a synthetic trace (legacy mode)",
    )
    trace.add_argument("workload", nargs="?", default=None,
                       help="workload for capture mode "
                            "(SPEC/PARSEC program or MIX1..MIX8)")
    trace.add_argument("--accesses", type=_bounded(int, 0), default=None,
                       help="trace length (default: 100k generate, "
                            "20k capture, 2k smoke)")
    trace.add_argument("--scale", type=int, default=64,
                       help="capacity scale factor (default 64)")
    trace.add_argument("--out", help="save as .npz to this path "
                                     "(generate mode)")
    trace.add_argument("--cache-mb", type=int, default=1024)
    trace.add_argument("--replacement", default="fifo",
                       choices=("fifo", "lru", "clock"))
    trace.add_argument("--warmup", type=float, default=0.25)
    trace.add_argument("--interval", type=_bounded(int, 1), default=1024,
                       help="time-series window size (default 1024)")
    trace.add_argument("--interval-unit", default="accesses",
                       choices=("accesses", "cycles"),
                       help="window unit (default accesses)")
    trace.add_argument("--trace-out", default=None, metavar="PATH",
                       help="Perfetto JSON path (default "
                            "<design>-<workload>.perfetto.json)")
    trace.add_argument("--timeseries-out", default=None, metavar="PATH",
                       help="time-series artifact path; a .csv suffix "
                            "switches format (default "
                            "<design>-<workload>.timeseries.jsonl)")
    trace.add_argument("--smoke", action="store_true",
                       help="CI gate: capture every design on a short "
                            "trace into a temp dir and validate the "
                            "artifacts (exit non-zero on any failure)")

    run = sub.add_parser("run", help="simulate a workload on a design")
    run.add_argument("design", choices=ALL_DESIGN_NAMES)
    run.add_argument("workload",
                     help="SPEC/PARSEC program or MIX1..MIX8")
    run.add_argument("--accesses", type=_bounded(int, 0), default=100_000)
    run.add_argument("--cache-mb", type=int, default=1024)
    run.add_argument("--scale", type=int, default=64)
    run.add_argument("--replacement", default="fifo",
                     choices=("fifo", "lru", "clock"))
    run.add_argument("--warmup", type=float, default=0.25,
                     help="fraction of each trace that warms state "
                          "unmeasured (default 0.25)")
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
    run.add_argument("--timeout", type=_bounded(float, 0, strict=True),
                     default=None, metavar="SECONDS",
                     help="wall-clock budget; the run executes in a "
                          "supervised worker and is killed past it "
                          "(incompatible with --trace/--timeseries)")
    run.add_argument("--retries", type=_bounded(int, 0), default=0,
                     help="extra attempts if the run fails (supervised "
                          "mode, like --timeout)")
    _add_machine_arguments(run)

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's figures"
    )
    experiment.add_argument(
        "figure",
        choices=("fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"),
    )
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
    _add_sweep_arguments(experiment)

    sweep = sub.add_parser(
        "sweep",
        help="run a cartesian design x workload x cache-size sweep "
             "and record every point to JSONL",
    )
    sweep.add_argument("--designs", nargs="+", default=list(DESIGN_NAMES),
                       choices=ALL_DESIGN_NAMES, metavar="DESIGN",
                       help=f"designs to sweep (default: paper order; "
                            f"choices: {', '.join(ALL_DESIGN_NAMES)})")
    sweep.add_argument("--workloads", nargs="+", required=True,
                       metavar="WORKLOAD",
                       help="SPEC/PARSEC programs or MIX1..MIX8")
    sweep.add_argument("--cache-sizes", nargs="+", type=int, default=[1024],
                       metavar="MB", help="nominal cache sizes in MB")
    sweep.add_argument("--accesses", type=_bounded(int, 0), default=50_000,
                       help="per-core trace length (default 50k)")
    sweep.add_argument("--scale", type=int, default=64)
    sweep.add_argument("--replacement", default="fifo",
                       choices=("fifo", "lru", "clock"))
    sweep.add_argument("--warmup", type=float, default=0.25)
    sweep.add_argument("--out", default="sweep.jsonl",
                       help="JSONL artifact path (default sweep.jsonl)")
    sweep.add_argument("--json", action="store_true",
                       help="print the run summary as JSON")
    sweep.add_argument("--validate", action="store_true",
                       help="run every job with the repro.validate "
                            "invariant checker installed")
    _add_machine_arguments(sweep)
    _add_harness_arguments(sweep)
    _add_sweep_arguments(sweep)

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
        "study", nargs="?", default=None,
        help="path to a .json/.toml campaign spec (optional with --smoke)"
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
    campaign_run.add_argument(
        "--smoke", action="store_true",
        help="CI gate: run a tiny built-in study (or the given one) and "
             "schema-validate the JSON report (exit non-zero on any "
             "problem)"
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
    profile.add_argument("--cache-mb", type=int, default=1024)
    profile.add_argument("--scale", type=int, default=64)
    profile.add_argument("--replacement", default="fifo",
                         choices=("fifo", "lru", "clock"))
    profile.add_argument("--warmup", type=float, default=0.25)
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
                             "(from `repro trace` or --timeseries)")
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
        "dir", nargs="?", default=None,
        help="campaign directory holding spec.json + jobs.jsonl "
             "(optional with --smoke)"
    )
    status.add_argument("--json", action="store_true",
                        help="emit the status as JSON")
    status.add_argument("--smoke", action="store_true",
                        help="CI gate: run the built-in smoke study and "
                             "verify status reconstructs the run's exact "
                             "counters from its artifacts")

    merge_trace = sub.add_parser(
        "merge-trace",
        help="merge Perfetto JSON traces (e.g. a harness job-lifecycle "
             "trace and a sim-level telemetry trace) into one timeline",
    )
    merge_trace.add_argument("traces", nargs="+",
                             help="input Perfetto JSON trace files")
    merge_trace.add_argument("--out", required=True, metavar="PATH",
                             help="merged Perfetto JSON output path")

    tenants = sub.add_parser(
        "tenants",
        help="replay a multi-tenant scenario (context-switched schedule, "
             "optional runtime cache resizing) and report per-tenant QoS",
    )
    tenants.add_argument("scenario", metavar="SCENARIO",
                         help="scenario JSON file "
                              "(see examples/studies/multitenant_scenario"
                              ".json)")
    tenants.add_argument("--design", default="tagless-resizable",
                         choices=ALL_DESIGN_NAMES,
                         help="design to replay the schedule on "
                              "(default tagless-resizable; the scenario's "
                              "resize events only apply to designs that "
                              "support a capacity schedule)")
    tenants.add_argument("--cache-mb", type=int, default=512,
                         help="DRAM cache size in MB (default 512: with "
                              "--scale 512 and --tlb-scale 32 the cache "
                              "stays comfortably above total TLB reach)")
    tenants.add_argument("--cores", type=int, default=4,
                         help="cores the tenants are scheduled onto")
    tenants.add_argument("--scale", type=int, default=512,
                         help="capacity scale-down factor (default 512)")
    tenants.add_argument("--replacement", default="fifo",
                         choices=("fifo", "lru", "clock"),
                         help="victim selection policy")
    tenants.add_argument("--tlb-scale", type=int, default=32,
                         help="TLB reach scale-down matching --scale "
                              "(default 32)")
    tenants.add_argument("--validate", action="store_true",
                         help="run with the invariant checker installed "
                              "(sweeps hold mid-resize)")
    tenants.add_argument("--every", type=_bounded(int, 1), default=None,
                         help="accesses between invariant sweeps")
    tenants.add_argument("--json", action="store_true",
                         help="machine-readable output")

    validate = sub.add_parser(
        "validate",
        help="grade the paper's headline claims against this build",
    )
    validate.add_argument("--accesses", type=int, default=40_000,
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
    check.add_argument("--smoke", action="store_true",
                       help="CI-sized pass: short traces, frequent sweeps")
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


def cmd_trace(args: argparse.Namespace) -> int:
    """Dispatch the dual-mode ``trace`` subcommand.

    ``repro trace <design> <workload>`` captures telemetry from a
    simulated run; ``repro trace <workload>`` keeps the original
    synthetic-trace generator (design names and workload names do not
    collide, so the first positional disambiguates); ``--smoke`` runs
    the CI artifact gate over every design.
    """
    if args.smoke:
        return _trace_smoke(args)
    if args.target is None:
        raise SystemExit(
            "trace needs a design (capture) or workload (generate); "
            "see `repro trace --help`"
        )
    if args.target in ALL_DESIGN_NAMES:
        return _trace_capture(args)
    if args.workload is not None:
        raise SystemExit(
            f"unknown design {args.target!r}; capture mode is "
            f"`repro trace <design> <workload>` with design one of: "
            f"{', '.join(ALL_DESIGN_NAMES)}"
        )
    return _trace_generate(args)


def _trace_generate(args: argparse.Namespace) -> int:
    profile = _profile_for(args.target)
    generator = TraceGenerator(profile, capacity_scale=args.scale)
    accesses = args.accesses if args.accesses is not None else 100_000
    trace = generator.generate(accesses)
    print(f"{trace.name}: {len(trace)} accesses, "
          f"{trace.footprint_pages} pages, "
          f"apki {trace.accesses_per_kilo_instruction:.1f}, "
          f"writes {trace.write_fraction():.2f}, "
          f"{trace.total_instructions} instructions")
    if args.out:
        save_trace(trace, args.out)
        print(f"saved to {args.out}")
    return 0


def _trace_capture(args: argparse.Namespace) -> int:
    """Run one design/workload point with telemetry and write artifacts."""
    from repro.obs import make_telemetry

    if args.workload is None:
        raise SystemExit(
            "capture mode needs a workload: repro trace <design> <workload>"
        )
    accesses = args.accesses if args.accesses is not None else 20_000
    spec = _point_spec(args, args.target, args.workload, accesses)
    telemetry = make_telemetry(interval=args.interval,
                               unit=args.interval_unit)
    result = execute_job(spec, telemetry=telemetry)
    stem = f"{args.target}-{args.workload}"
    trace_path = args.trace_out or f"{stem}.perfetto.json"
    timeseries_path = args.timeseries_out or f"{stem}.timeseries.jsonl"
    telemetry.write_artifacts(trace_path, timeseries_path,
                              workload=args.workload)
    tracer = telemetry.tracer
    print(f"{args.target} on {args.workload}: {accesses} accesses, "
          f"IPC {result.ipc_sum:.3f}, "
          f"{telemetry.timeseries.windows} windows, "
          f"{len(tracer)} events retained ({tracer.dropped} dropped)")
    print(f"trace:      {trace_path} (open at ui.perfetto.dev)")
    print(f"timeseries: {timeseries_path} (render with `repro report`)")
    return 0


#: Time-series columns the smoke gate (and the paper's figures) require.
_SMOKE_REQUIRED_COLUMNS = ("free_queue_depth", "ctlb_hit_rate",
                           "offpkg_gbps")


def _validate_trace_artifacts(trace_path: str,
                              timeseries_path: str) -> List[str]:
    """Schema checks for one captured artifact pair; returns problems."""
    from repro.obs import load_timeseries

    problems: List[str] = []
    try:
        with open(trace_path) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"perfetto: unreadable ({exc})"]
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append("perfetto: traceEvents missing or empty")
        events = []
    last_ts = None
    open_slices: dict = {}
    for index, event in enumerate(events):
        missing = [k for k in ("name", "ph", "ts", "pid", "tid")
                   if k not in event]
        if missing:
            problems.append(
                f"perfetto: event {index} missing {','.join(missing)}"
            )
            continue
        phase = event["ph"]
        if phase == "M":
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"perfetto: event {index} bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append("perfetto: timestamps not monotonic")
        last_ts = ts
        key = (event["tid"], event["name"])
        if phase == "B":
            open_slices[key] = open_slices.get(key, 0) + 1
        elif phase == "E":
            if open_slices.get(key, 0) <= 0:
                problems.append(f"perfetto: unmatched E for {event['name']}")
            else:
                open_slices[key] -= 1
    unclosed = [name for (_tid, name), depth in open_slices.items()
                if depth > 0]
    if unclosed:
        problems.append(f"perfetto: unclosed B slices: {unclosed}")

    try:
        _meta, columns, _histogram = load_timeseries(timeseries_path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        problems.append(f"timeseries: unreadable ({exc})")
        return problems
    for column in _SMOKE_REQUIRED_COLUMNS:
        if not columns.get(column):
            problems.append(f"timeseries: missing {column} series")
    return problems


def _trace_smoke(args: argparse.Namespace) -> int:
    """CI gate: every design must produce schema-valid artifacts."""
    import os
    import tempfile

    from repro.obs import make_telemetry

    designs = ALL_DESIGN_NAMES
    if args.target is not None:
        if args.target not in ALL_DESIGN_NAMES:
            raise SystemExit(f"unknown design {args.target!r}")
        designs = (args.target,)
    workload = args.workload or "mcf"
    accesses = args.accesses if args.accesses is not None else 2000
    specs = [_point_spec(args, design, workload, accesses)
             for design in designs]
    # One set of traces replayed on every design.
    bindings = specs[0].bindings()
    failures = 0
    print(f"trace smoke: {len(designs)} designs x {accesses} accesses "
          f"({workload})")
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        for design, spec in zip(designs, specs):
            # Windows sized so even the short smoke trace produces a
            # multi-window series for the column checks.
            telemetry = make_telemetry(
                interval=max(1, accesses // 8), unit=args.interval_unit,
            )
            execute_job(spec, bindings=bindings, telemetry=telemetry)
            trace_path = os.path.join(tmp, f"{design}.perfetto.json")
            timeseries_path = os.path.join(
                tmp, f"{design}.timeseries.jsonl"
            )
            telemetry.write_artifacts(trace_path, timeseries_path,
                                      workload=workload)
            problems = _validate_trace_artifacts(trace_path,
                                                 timeseries_path)
            if problems:
                failures += 1
                print(f"  [FAIL] {design}: {'; '.join(problems)}")
            else:
                print(f"  [ok]   {design}: "
                      f"{telemetry.timeseries.windows} windows, "
                      f"{len(telemetry.tracer)} events")
    print("trace smoke:", "PASS" if failures == 0 else f"FAIL ({failures})")
    return 0 if failures == 0 else 1


def _point_spec(args: argparse.Namespace, design: str, workload: str,
                accesses: int, **fields) -> JobSpec:
    """The JobSpec of one ``run``/``trace``/``profile`` point.

    The same description every sweep point has, so a single point
    simulates exactly what the harness would (four threads on four
    cores for a PARSEC program, for example).
    """
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


def cmd_run(args: argparse.Namespace) -> int:
    # Resolved once: the machine file is read a single time, so the
    # printed ``machine`` block is the machine that was simulated.
    machine = _machine_from_args(args)
    spec = _point_spec(args, args.design, args.workload, args.accesses,
                       timeout_s=args.timeout, machine=machine)
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
    if args.json:
        print(json.dumps(metrics, indent=2))
    else:
        for key, value in metrics.items():
            print(f"{key:24s}: {value}")
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
                     total: Optional[int]) -> list:
    """Observers behind ``--trace``/``--timeseries`` and ``--live``."""
    observers = []
    if getattr(args, "trace_out", None) or getattr(args, "timeseries_out",
                                                   None):
        from repro.obs import HarnessObserver

        harness_obs = HarnessObserver(label=name)
        harness_obs.trace_path = args.trace_out
        harness_obs.timeseries_path = args.timeseries_out
        observers.append(harness_obs)
    if args.live:
        from repro.obs import LiveMonitor

        observers.append(LiveMonitor(total=total or 0, label=name))
    return observers


@contextlib.contextmanager
def _harness_session(args: argparse.Namespace, name: str,
                     artifact_path: Optional[str],
                     total: Optional[int] = None, *,
                     meta: Optional[dict] = None,
                     resume_path: Optional[str] = None):
    """Build the harness from the shared flags; finish it on the way out.

    The one execution lifecycle of ``experiment``, ``sweep`` and
    ``campaign run``/``resume``.  Yields ``(harness, artifact)``: the
    progress reporter, the JSONL artifact and any fleet observers, all
    labelled ``name``, ride the harness's one observer slot, in that
    order.  On exit -- Ctrl-C included -- the artifact gets its summary
    record, telemetry files are written, the progress summary prints
    and the ``--metrics`` snapshot lands.  Progress and file locations
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
    artifact = RunArtifact(
        artifact_path, name=name,
        meta={"jobs": args.jobs, "cache": not args.no_cache,
              **(meta or {}), "argv": sys.argv[1:]},
    )
    # --live owns the terminal; the line-per-job reporter keeps counting
    # silently so its end-of-run summary still prints.
    progress = ProgressReporter(total=total, label=name,
                                enabled=not args.live)
    fleet = _fleet_observers(args, name, total)
    print(f"artifact: {artifact_path}", file=sys.stderr)
    harness = Harness(jobs=args.jobs, cache=cache,
                      observer=CompositeObserver(progress, artifact, *fleet),
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
    def accesses(default: int) -> int:
        return args.accesses if args.accesses is not None else default

    machine = _machine_from_args(args)
    with _harness_session(args, args.figure, args.artifact,
                          resume_path=args.resume) as (harness, artifact):
        if args.figure == "fig7":
            result = experiments.run_single_programmed(
                accesses=accesses(experiments.DEFAULT_ACCESSES),
                machine=machine,
                harness=harness,
            )
            tables = [result.ipc_table(), result.edp_table()]
        elif args.figure == "fig8":
            result = experiments.run_single_programmed(
                accesses=accesses(experiments.DEFAULT_ACCESSES),
                designs=("no-l3", "sram", "tagless"),
                machine=machine,
                harness=harness,
            )
            tables = [result.l3_latency_table()]
        elif args.figure == "fig9":
            result = experiments.run_multi_programmed(
                accesses=accesses(experiments.DEFAULT_MIX_ACCESSES),
                machine=machine,
                harness=harness,
            )
            tables = [result.ipc_table(), result.edp_table()]
        elif args.figure == "fig10":
            result = experiments.run_cache_size_sweep(
                accesses=accesses(experiments.DEFAULT_MIX_ACCESSES),
                machine=machine,
                harness=harness,
            )
            tables = [result.table()]
        elif args.figure == "fig11":
            result = experiments.run_replacement_study(
                accesses=accesses(140_000),
                machine=machine,
                harness=harness,
            )
            tables = [result.table()]
        elif args.figure == "fig12":
            result = experiments.run_parsec(
                accesses=accesses(experiments.DEFAULT_MIX_ACCESSES),
                machine=machine,
                harness=harness,
            )
            tables = [result.ipc_table(), result.edp_table()]
        elif args.figure == "fig13":
            result = experiments.run_noncacheable_study(
                accesses=accesses(experiments.DEFAULT_ACCESSES),
                machine=machine,
                harness=harness,
            )
            tables = [result.table()]

    if args.json:
        data = result.to_dict()
        # Execution health rides along so campaign-style aggregation
        # can tell a clean figure from one that limped through retries.
        data["harness"] = artifact.counters
        print(json.dumps(data, indent=2))
    else:
        for index, table in enumerate(tables):
            if index:
                print()
            print(table)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    specs: List[JobSpec] = []
    machine = _machine_from_args(args)
    for design in args.designs:
        for workload in args.workloads:
            for size in args.cache_sizes:
                specs.append(JobSpec(
                    design=design,
                    workload=workload,
                    accesses=args.accesses,
                    cache_megabytes=size,
                    replacement=args.replacement,
                    capacity_scale=args.scale,
                    warmup_fraction=args.warmup,
                    validate=args.validate,
                    machine=machine,
                ))

    with _harness_session(args, "sweep", args.out, total=len(specs),
                          resume_path=args.resume) as (harness, artifact):
        harness.run(specs)

    summary = {**artifact.counters, "artifact": args.out}
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"{summary['jobs']} jobs ({summary['errors']} errors, "
              f"{summary['cache_hits']} cache hits) -> {args.out}")
    return 1 if summary["errors"] else 0


#: Built-in study behind ``repro campaign run --smoke``: a 2-design x
#: 2-workload grid, two repetitions, small traces -- big enough to
#: exercise expansion, seed pairing, reduction and report writing, small
#: enough for a CI gate.
_SMOKE_STUDY = {
    "name": "smoke",
    "repetitions": 2,
    "factors": {
        "design": ["tagless", "no-l3"],
        "workload": ["mcf", "lbm"],
    },
    "fixed": {"accesses": 2000, "cache_mb": 256, "scale": 512},
    "metrics": ["ipc"],
    "baseline": "no-l3",
    "bootstrap_resamples": 200,
}


def _campaign_spec(args: argparse.Namespace):
    """Load the study for ``campaign run`` (file, or the smoke built-in)."""
    from repro.campaign import CampaignSpec

    if args.study is not None:
        try:
            return CampaignSpec.from_file(args.study)
        except OSError as exc:
            raise SystemExit(
                f"cannot read study {args.study}: {exc}"
            ) from None
        except ConfigurationError as exc:
            raise SystemExit(f"bad study {args.study}: {exc}") from None
    if args.smoke:
        return CampaignSpec.from_dict(_SMOKE_STUDY)
    raise SystemExit("campaign run needs a study file (or --smoke); "
                     "see `repro campaign run --help`")


def _campaign_execute(spec, out_dir: str, args: argparse.Namespace,
                      resume: bool) -> int:
    """Shared body of ``campaign run`` and ``campaign resume``."""
    import os

    from repro.campaign import (
        CampaignRun,
        expand,
        reduce_campaign,
        validate_report,
        write_reports,
    )
    from repro.harness.jobs import code_fingerprint

    try:
        jobs = expand(spec)
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

    if getattr(args, "smoke", False):
        with open(paths["json"]) as handle:
            data = json.load(handle)
        problems = validate_report(data)
        if report.missing_points:
            problems.append(
                f"{report.missing_points} points missing from the study"
            )
        for cell in data.get("cells", []):
            if cell.get("n") != spec.repetitions:
                problems.append(f"cell {cell.get('label')}: n={cell.get('n')}"
                                f" != repetitions={spec.repetitions}")
        if not data.get("pairs"):
            problems.append("no paired comparisons in the smoke report")
        if problems:
            print("campaign smoke: FAIL")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print("campaign smoke: PASS")
        return 0
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
    import os
    import tempfile

    from repro.campaign import CampaignSpec

    if args.campaign_command == "run":
        spec = _campaign_spec(args)
        spec = _merge_machine_into_campaign(spec, _machine_from_args(args))
        if args.out is not None:
            out_dir = args.out
        elif args.smoke:
            # The smoke gate is a pass/fail check; don't litter the
            # working tree with its campaign directory.
            with tempfile.TemporaryDirectory(prefix="repro-campaign-") \
                    as tmp:
                return _campaign_execute(spec, tmp, args,
                                         resume=args.resume)
        else:
            out_dir = os.path.join("campaigns", spec.name)
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

    The run takes the same replay path as ``Simulator.run``: for the
    tagless design that is the fused kernel, which shows up as one
    ``_run_tagless_kernel`` frame with only its rare-event fallbacks
    (fills, NC pages, superpages) broken out beneath it.
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

    if args.smoke:
        return _status_smoke()
    if not args.dir:
        raise SystemExit("status needs a campaign directory (or --smoke); "
                         "see `repro status --help`")
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


def _status_smoke() -> int:
    """CI gate: artifact-reconstructed counters must equal the run's.

    Runs the built-in smoke study into a temp directory through the
    pooled harness, then rebuilds its health purely from the artifacts
    and diffs against :meth:`CampaignRun.counters` -- the acceptance
    check that `repro status` on a finished campaign tells the same
    story its run summary did.
    """
    import tempfile

    from repro.campaign import CampaignSpec, campaign_status, run_campaign

    spec = CampaignSpec.from_dict(_SMOKE_STUDY)
    problems = []
    with tempfile.TemporaryDirectory(prefix="repro-status-") as tmp:
        with open(os.path.join(tmp, "spec.json"), "w") as handle:
            json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        artifact = RunArtifact(os.path.join(tmp, "jobs.jsonl"),
                               name=f"campaign-{spec.name}")
        run = run_campaign(spec, Harness(jobs=2, observer=artifact))
        artifact.close()
        status = campaign_status(tmp)
        expected = run.counters()
        if status.counters != expected:
            problems.append(f"reconstructed counters {status.counters} "
                            f"!= run counters {expected}")
        if status.missing:
            problems.append(f"{status.missing} points missing from the "
                            f"artifact")
        if not status.complete:
            problems.append("finished campaign not reported complete")
    if problems:
        print("status smoke: FAIL")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"status smoke: PASS ({status.expected} points reconstructed "
          f"bit-identically from artifacts)")
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


def cmd_tenants(args: argparse.Namespace) -> int:
    """Replay a multi-tenant scenario and print the QoS breakdown."""
    from repro.workloads.tenants import TenantScenarioSpec, build_schedule

    scenario = TenantScenarioSpec.from_file(args.scenario)
    config = dataclasses.replace(
        build_system(
            cache_megabytes=args.cache_mb,
            num_cores=args.cores,
            replacement=args.replacement,
            capacity_scale=args.scale,
        ),
        tlb_scale=args.tlb_scale,
    )
    schedule = build_schedule(scenario, num_cores=args.cores)
    result = Simulator(config).run_tenants(
        args.design, schedule,
        validate=args.validate or None,
        validate_every=args.every,
    )

    if args.json:
        print(json.dumps({
            "design": args.design,
            "scenario": scenario.to_dict(),
            "schedule_digest": schedule.digest(),
            "ipc": result.ipc_sum,
            "elapsed_ms": result.elapsed_ns / 1e6,
            "energy_j": result.total_energy_j,
            "context_switches": result.stats["context_switches"],
            "tenants": result.tenants,
            "resize_events": result.resize_events,
        }, indent=2))
        return 0

    print(f"scenario {scenario.name}: {len(schedule.tenants)} tenants on "
          f"{args.cores} cores, {schedule.total_accesses} accesses, "
          f"design {args.design}")
    print(f"  ipc {result.ipc_sum:.3f}  elapsed "
          f"{result.elapsed_ns / 1e6:.3f} ms  "
          f"context switches {int(result.stats['context_switches'])}  "
          f"tlb entries flushed "
          f"{int(result.stats['context_switch_tlb_entries'])}")
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
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Structural and differential validation (the `repro check` gate).

    Three phases, any failure exits non-zero:

    1. every selected design runs an invariant-checked simulation on a
       deliberately small cache (evictions early and often);
    2. the optimized set-associative structures are replayed against the
       slow reference model on randomized traces (LRU/FIFO/CLOCK);
    3. one trace is replayed through the design chain and the
       cross-design bounds (ideal >= tagless >= bi >= no-l3, no-l3's
       off-package demand as the ceiling) are asserted.
    """
    import dataclasses as _dc

    from repro.validate import differential, reference
    from repro.validate.invariants import InvariantViolation

    accesses = 4000 if args.smoke else args.accesses
    every = args.every if args.every is not None else (500 if args.smoke
                                                      else None)
    ref_ops = 4000 if args.smoke else 20_000

    # A small cache over a scaled-down footprint keeps fill/evict churn
    # high -- the same shape the golden-stats fixtures pin -- so the
    # invariants see the interesting transitions, not a half-empty cache.
    config = _dc.replace(
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
                          validate_every=every,
                          resize_schedule=resize_schedule,
                          max_remap_per_resize=8)
            print(f"  [ok]   {design}")
        except InvariantViolation as exc:
            failures += 1
            print(f"  [FAIL] {design}: {exc}")

    print(f"reference differential: {ref_ops} randomized ops per policy")
    for policy in reference.REFERENCE_POLICIES:
        try:
            reference.run_reference_differential(
                policy, num_sets=4, ways=8, operations=ref_ops
            )
            print(f"  [ok]   {policy}")
        except InvariantViolation as exc:
            failures += 1
            print(f"  [FAIL] {policy}: {exc}")

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
    "trace": cmd_trace,
    "run": cmd_run,
    "experiment": cmd_experiment,
    "sweep": cmd_sweep,
    "campaign": cmd_campaign,
    "profile": cmd_profile,
    "report": cmd_report,
    "status": cmd_status,
    "merge-trace": cmd_merge_trace,
    "tenants": cmd_tenants,
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
