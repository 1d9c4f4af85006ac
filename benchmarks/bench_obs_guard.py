"""Observability overhead guard: the disabled path must stay fast.

PR 4's telemetry is designed to be zero-cost when off -- the only
residue on the hot path is a prebound no-op ``trace_event`` attribute
touched on *rare* events (TLB refills, fills, evictions).  This guard
proves it: for each design it re-measures plain-run throughput
(best-of-``--repeat``, same methodology as ``bench_throughput.py``) and
fails if any design falls more than ``--tolerance`` below a baseline
recorded *before or without* the instrumentation::

    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke --json \
        > baseline.json
    PYTHONPATH=src python benchmarks/bench_obs_guard.py --smoke \
        --baseline baseline.json

Without ``--baseline`` the guard times each design twice in-process --
once plain, once with a full telemetry bundle attached -- and asserts
the *enabled* overhead stays within ``--enabled-tolerance``; this keeps
the guard meaningful even where no baseline file is available.  An
observed run always replays through the reference loop, so in this mode
the plain run is pinned to that loop too: otherwise tagless's
"overhead" would fold in its fused kernel's speedup.  Both
comparisons use best-of-N timings, the standard suppressor of scheduler
noise, and the tolerances are deliberately loose (5% / 150%): this is a
tripwire for "someone put work on the disabled path", not a profiler.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.cpu.simulator as simulator_module  # noqa: E402
from repro.common.config import default_system  # noqa: E402
from repro.cpu.multicore import BoundTrace, run_interleaved  # noqa: E402
from repro.cpu.simulator import Simulator  # noqa: E402
from repro.designs.registry import ALL_DESIGN_NAMES  # noqa: E402
from repro.obs import make_telemetry, set_registry  # noqa: E402
from repro.obs.metrics import (  # noqa: E402
    NULL_INSTRUMENT,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
)
from repro.workloads.generator import TraceGenerator  # noqa: E402
from repro.workloads.spec import spec_profile  # noqa: E402

SMOKE_ACCESSES = 4000


def metrics_null_check() -> None:
    """Structural proof the metrics-off path is the shared no-op.

    A disabled :class:`MetricsRegistry` must hand every caller the one
    ``NULL_INSTRUMENT`` singleton -- that is what makes instrumented
    call sites (pool, cache, shm, campaign) cost exactly one no-op
    method call when ``REPRO_METRICS`` is unset.  Raises SystemExit on
    violation so the guard fails loudly, not with a timing wobble.
    """
    if metrics_enabled():
        raise SystemExit("obs guard: REPRO_METRICS is set; the disabled-"
                         "path guard must run with metrics off")
    disabled = MetricsRegistry(enabled=False)
    instruments = (
        disabled.counter("guard_c", "x"),
        disabled.gauge("guard_g", "x"),
        disabled.histogram("guard_h", "x"),
    )
    for instrument in instruments:
        if instrument is not NULL_INSTRUMENT:
            raise SystemExit("obs guard: disabled registry leaked a live "
                             f"instrument: {instrument!r}")
    if get_registry().enabled:
        raise SystemExit("obs guard: default registry is enabled without "
                         "REPRO_METRICS")
    enabled = MetricsRegistry(enabled=True)
    if enabled.counter("guard_c", "x") is NULL_INSTRUMENT:
        raise SystemExit("obs guard: enabled registry returned the null "
                         "instrument")
    print("  [ok  ] metrics registry: disabled path shares "
          "NULL_INSTRUMENT; default registry off", file=sys.stderr)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--designs", nargs="+", default=list(ALL_DESIGN_NAMES),
                        choices=ALL_DESIGN_NAMES, metavar="DESIGN")
    parser.add_argument("--workload", default="mcf",
                        help="SPEC program driving the engine (default mcf)")
    parser.add_argument("--accesses", type=int, default=100_000,
                        help="trace length per timing (default 100k)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timings per design; best is compared")
    parser.add_argument("--cache-mb", type=int, default=1024)
    parser.add_argument("--scale", type=int, default=64)
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="bench_throughput --json records to compare "
                             "the disabled path against")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed fractional slowdown vs the baseline "
                             "(default 0.05 = 5%%)")
    parser.add_argument("--enabled-tolerance", type=float, default=1.5,
                        help="allowed fractional slowdown with telemetry "
                             "attached (default 1.5 = 150%%)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI size: {SMOKE_ACCESSES} accesses, "
                             "repeat bumped to 5 to tame timing noise")
    parser.add_argument("--json", action="store_true",
                        help="emit the comparison as JSON on stdout")
    return parser.parse_args(argv)


def _best_of(simulator: Simulator, design: str, bindings, repeat: int,
             telemetry_factory=None) -> float:
    """Best wall time over ``repeat`` runs (optionally instrumented)."""
    best = float("inf")
    for _ in range(repeat):
        telemetry = telemetry_factory() if telemetry_factory else None
        start = time.perf_counter()
        simulator.run(design, bindings, telemetry=telemetry)
        best = min(best, time.perf_counter() - start)
    return best


def load_baseline(path: str) -> dict:
    """``design -> accesses_per_second`` from bench_throughput records."""
    with open(path) as handle:
        records = json.load(handle)
    return {r["design"]: r["accesses_per_second"] for r in records}


def run_guard(args: argparse.Namespace) -> list:
    accesses = SMOKE_ACCESSES if args.smoke else args.accesses
    repeat = max(args.repeat, 5) if args.smoke else args.repeat
    baseline = load_baseline(args.baseline) if args.baseline else None
    generator = TraceGenerator(spec_profile(args.workload),
                               capacity_scale=args.scale)
    trace = generator.generate(accesses)
    config = default_system(cache_megabytes=args.cache_mb, num_cores=1,
                            capacity_scale=args.scale)
    simulator = Simulator(config)
    bindings = [BoundTrace(0, 0, trace)]

    rows = []
    for design in args.designs:
        plain_s = _best_of(simulator, design, bindings, repeat)
        plain_rate = accesses / plain_s if plain_s > 0 else 0.0
        row = {
            "design": design,
            "accesses": accesses,
            "plain_accesses_per_second": plain_rate,
        }
        if baseline is not None:
            reference = baseline.get(design)
            if reference is None:
                row["status"] = "skip"
                row["reason"] = "design missing from baseline"
            else:
                # rate >= reference * (1 - tolerance) passes.
                floor = reference * (1.0 - args.tolerance)
                row["baseline_accesses_per_second"] = reference
                row["ratio"] = plain_rate / reference if reference else 0.0
                row["status"] = "ok" if plain_rate >= floor else "FAIL"
        else:
            enabled_s = _best_of(
                simulator, design, bindings, repeat,
                telemetry_factory=lambda: make_telemetry(
                    interval=max(1, accesses // 16)
                ),
            )
            enabled_rate = accesses / enabled_s if enabled_s > 0 else 0.0
            ceiling = plain_s * (1.0 + args.enabled_tolerance)
            row["enabled_accesses_per_second"] = enabled_rate
            row["overhead"] = (enabled_s / plain_s - 1.0) if plain_s else 0.0
            row["status"] = "ok" if enabled_s <= ceiling else "FAIL"
        rows.append(row)
        note = ""
        if "ratio" in row:
            note = f" ({100.0 * row['ratio']:.0f}% of baseline)"
        elif "overhead" in row:
            note = f" (+{100.0 * row['overhead']:.0f}% enabled)"
        print(f"  [{row['status']:4s}] {design:8s} "
              f"{plain_rate:12,.0f} acc/s{note}", file=sys.stderr)
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (0.0 <= args.tolerance < 1.0):
        raise SystemExit("--tolerance must be in [0, 1)")
    mode = "baseline" if args.baseline else "self-relative"
    print(f"obs guard ({mode}, tolerance "
          f"{args.tolerance if args.baseline else args.enabled_tolerance})",
          file=sys.stderr)
    metrics_null_check()
    # Time the disabled path with a disabled registry explicitly
    # installed: what the 5% baseline comparison certifies is the whole
    # metrics-off stack, not a build that dodged the metrics layer.
    set_registry(MetricsRegistry(enabled=False))
    # Self-relative mode compares plain against telemetry runs; the
    # latter take the reference loop, so the plain runs must as well.
    replay = (contextlib.nullcontext() if args.baseline else
              mock.patch.object(simulator_module, "run_interleaved_batched",
                                run_interleaved))
    with replay:
        rows = run_guard(args)
    failures = [r for r in rows if r["status"] == "FAIL"]
    if args.json:
        print(json.dumps(rows, indent=2))
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} designs)"
    print(f"obs guard: {verdict}")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
