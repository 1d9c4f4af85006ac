"""Observability overhead guard: the disabled path must stay fast.

PR 4's telemetry is designed to be zero-cost when off -- the only
residue on the hot path is a prebound no-op ``trace_event`` attribute
touched on *rare* events (TLB refills, fills, evictions).  This guard
checks it two ways::

    PYTHONPATH=src python benchmarks/bench_obs_guard.py --smoke

First, structurally: a disabled metrics registry must hand out the one
shared ``NULL_INSTRUMENT``.  Second, by timing: for each design it
times one workload twice in-process -- once plain, once with a full
telemetry bundle attached -- and asserts the *enabled* overhead stays
within ``--enabled-tolerance``.  An observed run always replays through
the reference loop, so the plain run is pinned to that loop too:
otherwise every design's "overhead" would fold in the fused kernel's
speedup.  Both sides use best-of-N timings, the standard suppressor of
scheduler noise, and the tolerance is deliberately loose (150%): this is
a tripwire for "someone put work on the disabled path", not a profiler.
Whether the simulator as a whole got slower is the perf gate's question
(``benchmarks/perf_gate.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.cpu.simulator as simulator_module  # noqa: E402
from repro.cli.main import _bounded  # noqa: E402
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
    parser.add_argument("--accesses", type=_bounded(int, 1), default=100_000,
                        help="trace length per timing (default 100k)")
    parser.add_argument("--repeat", type=_bounded(int, 1), default=3,
                        help="timings per design; best is compared")
    parser.add_argument("--cache-mb", type=int, default=1024)
    parser.add_argument("--scale", type=int, default=64)
    parser.add_argument("--enabled-tolerance",
                        type=_bounded(float, 0, strict=True), default=1.5,
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


def run_guard(args: argparse.Namespace) -> list:
    accesses = SMOKE_ACCESSES if args.smoke else args.accesses
    repeat = max(args.repeat, 5) if args.smoke else args.repeat
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
        enabled_s = _best_of(
            simulator, design, bindings, repeat,
            telemetry_factory=lambda: make_telemetry(
                interval=max(1, accesses // 16)
            ),
        )
        plain_rate = accesses / plain_s if plain_s > 0 else 0.0
        overhead = (enabled_s / plain_s - 1.0) if plain_s else 0.0
        ceiling = plain_s * (1.0 + args.enabled_tolerance)
        row = {
            "design": design,
            "accesses": accesses,
            "plain_accesses_per_second": plain_rate,
            "enabled_accesses_per_second":
                accesses / enabled_s if enabled_s > 0 else 0.0,
            "overhead": overhead,
            "status": "ok" if enabled_s <= ceiling else "FAIL",
        }
        rows.append(row)
        print(f"  [{row['status']:4s}] {design:8s} "
              f"{plain_rate:12,.0f} acc/s (+{100.0 * overhead:.0f}% "
              "enabled)", file=sys.stderr)
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    print(f"obs guard (enabled tolerance {args.enabled_tolerance})",
          file=sys.stderr)
    metrics_null_check()
    # Time the disabled path with a disabled registry explicitly
    # installed: what the guard certifies is the whole metrics-off
    # stack, not a build that dodged the metrics layer.
    set_registry(MetricsRegistry(enabled=False))
    # The telemetry runs take the reference loop, so the plain runs
    # must as well.
    with mock.patch.object(simulator_module, "run_interleaved_batched",
                           run_interleaved):
        rows = run_guard(args)
    failures = [r for r in rows if r["status"] == "FAIL"]
    if args.json:
        print(json.dumps(rows, indent=2))
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} designs)"
    print(f"obs guard: {verdict}")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
