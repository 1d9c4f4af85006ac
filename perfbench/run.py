"""Simulator benchmark: host-time throughput and per-layer spans.

Run from the repository root::

    python3 perfbench/run.py --workload spec-single --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` adds a traced run (every layer of ``tracer.LAYERS``
wrapped from outside) and prints the per-layer metrics instead.
``--workload all`` runs every workload traced and prints both, one
workload after another.  The last line of standard output is always one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

All timings are host time, scaled to the reference host speed by the
run's calibration samples (see ``hostspeed``); the report prints the
scale.  Simulated statistics are deterministic; their digests are the
correctness check (``reference.json`` holds them for the default seed,
other seeds compare against their first pass).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Tuple

from tracer import Tracer, span_layer_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: The seed whose simulated-result digests ``reference.json`` stores.
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("spec-single", "mix-quad", "tenants-resize",
                  "campaign-sweep")
DESIGNS = ("no-l3", "bi", "sram", "tagless", "ideal", "alloy",
           "tagless-resizable")

#: Set-ups before the first pass, at least; every later pass is preceded
#: by set-ups too, until each batch takes ``SETUP_MIN_S``.  Spreading
#: them over the run keeps ``setup_s`` (their median) from depending on
#: how busy the host was in the run's first second.
SETUP_REPEATS = 5
SETUP_MIN_S = 0.02
#: Untraced passes per run, at least (``warm_s`` needs two on the
#: in-process workloads).
MIN_PASSES = 3
#: Share of ``--seconds`` a traced run spends on untraced passes (the
#: base of ``trace.overhead_frac``); the rest goes to traced passes.
UNTRACED_SHARE = 0.4

HARNESS_METRICS = (
    ("harness.queue_wait_s.p50", "s", "lower"),
    ("harness.queue_wait_s.max", "s", "lower"),
    ("harness.exec_s", "s", "lower"),
    ("harness.cache_hit_frac", "frac", "higher"),
    ("harness.trace_bytes_shared", "bytes", "higher"),
    ("harness.trace_bytes_pickled", "bytes", "lower"),
    ("harness.pool_overhead_s", "s", "lower"),
)
SIM_METRICS = (
    ("sim.tlb_miss_per_kacc", "1/kacc", "lower"),
    ("sim.l3_per_kacc", "1/kacc", "lower"),
    ("sim.fills_per_kacc", "1/kacc", "lower"),
    ("sim.row_hit_frac", "frac", "higher"),
    ("sim.mean_l3_latency_cycles", "cycles", "lower"),
    ("sim.ipc", "ipc", "higher"),
)


def end_to_end_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every end-to-end metric."""
    return ([("setup_s", "s", "lower"), ("wall_s", "s", "lower"),
             ("warm_s", "s", "lower")]
            + [(f"acc_per_s.{d}", "1/s", "higher") for d in DESIGNS]
            + [("peak_rss_mb", "MB", "lower")])


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric."""
    metrics = []
    for layer in span_layer_names():
        metrics.append((f"{layer}.calls", "count", "lower"))
        metrics.append((f"{layer}.self_s", "s", "lower"))
    metrics += [(f"cpu.fallback_frac.{d}", "frac", "lower")
                for d in DESIGNS]
    metrics += list(HARNESS_METRICS) + list(SIM_METRICS)
    metrics.append(("trace.overhead_frac", "frac", "lower"))
    return metrics


def isolate_environment() -> Dict[str, str]:
    """Clear every ``REPRO_*`` variable; return what was cleared.

    They select the engine, arm validation, metrics export, fault
    injection and timeouts, redirect the result cache or turn shared
    memory off -- each would silently change the measured path.
    """
    cleared = {key: os.environ.pop(key) for key in sorted(os.environ)
               if key.startswith("REPRO_")}
    return cleared


def stop_child_processes() -> None:
    """Stop every process this run started and wait for each to end.

    Harness workers are joined by the harness itself; any still alive
    here (an error path) are killed.  The first shared-memory trace
    starts multiprocessing's resource tracker, which would otherwise
    outlive this process for a moment while it shuts down.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB.

    It includes the ~20 MB of host-speed calibration tables.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclasses.dataclass
class Measurement:
    """Everything one run of one workload measured."""

    setups: List[float]
    untraced: list
    traced: list
    #: Per traced iteration: ``layer -> (calls, self_s)``.
    summaries: List[Dict[str, Tuple[int, float]]]
    #: Per traced iteration: set-up plus pass wall time.
    traced_walls: List[float]
    rss_mb: float
    #: Host-speed scale of the untraced passes (``HostSpeed.factor``).
    speed_factor: float


def _fits(start: float, last: list, budget: float, clock) -> bool:
    """Whether one more pass, as long as the last one, ends in budget."""
    return clock() - start + (last[-1] if last else 0.0) <= budget


def measure(workload, seconds: float, traced: bool) -> Measurement:
    """Set up and run passes for about ``seconds`` (see module docstring).

    A pass starts only while it is expected to end within the budget,
    so a run overshoots ``seconds`` only when the host slows down.
    """
    clock = time.perf_counter
    setups: List[float] = []
    untraced, walls = [], []
    start = clock()
    budget = seconds * (UNTRACED_SHARE if traced else 1.0)
    while (len(untraced) < (2 if traced else MIN_PASSES)
           or _fits(start, walls, budget, clock)):
        batch = 0.0
        count = SETUP_REPEATS if not untraced else 1
        while count > 0 or batch < SETUP_MIN_S:
            begin = clock()
            workload.setup()
            setups.append(clock() - begin)
            batch += setups[-1]
            count -= 1
        begin = clock()
        untraced.append(workload.run_pass(None))
        walls.append(clock() - begin)
    rss = peak_rss_mb()
    speed_factor = workload.speed.factor()

    passes, summaries, traced_walls = [], [], []
    if traced:
        with Tracer() as tracer:
            tracer.install(workload.traced_layers)
            while not passes or _fits(start, traced_walls, seconds, clock):
                tracer.reset()
                begin = clock()
                workload.setup()
                passes.append(workload.run_pass(tracer))
                traced_walls.append(clock() - begin)
                summaries.append(tracer.summary())
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write(os.path.join(OUT_DIR,
                                      f"spans-{workload.name}.npz"))
    return Measurement(setups, untraced, passes, summaries, traced_walls,
                       rss, speed_factor)


def load_reference(workload: str, seed: int,
                   smoke: bool) -> Optional[Dict[str, str]]:
    """Stored digests for ``workload``, when they apply to this run."""
    if smoke or seed != DEFAULT_SEED or not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as handle:
        stored = json.load(handle)
    if stored.get("seed") != DEFAULT_SEED:
        return None
    return stored.get("workloads", {}).get(workload)


def check(measurement: Measurement,
          reference: Optional[Dict[str, str]]) -> Tuple[int, List[str]]:
    """``(attempted, failures)``: failed points plus digest mismatches.

    Without a stored reference the first pass is the reference.  Traced
    passes must match too: the tracer may not change any result.
    """
    passes = measurement.untraced + measurement.traced
    if reference is None:
        reference = passes[0].digests
    attempted = sum(p.attempted for p in passes)
    failures: List[str] = []
    for index, result in enumerate(passes):
        failures.extend(result.failures)
        for label, digest in result.digests.items():
            if reference.get(label) != digest:
                kind = ("traced" if index >= len(measurement.untraced)
                        else "untraced")
                failures.append(f"{label}: {kind} pass {index} digest "
                                f"{digest} != reference "
                                f"{reference.get(label)}")
    return attempted, failures


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_values(m: Measurement) -> Dict[str, float]:
    """End-to-end metrics; every time is scaled by ``m.speed_factor``.

    ``acc_per_s`` of a design is the simulated accesses of its kinds of
    simulate call (see ``PassResult.timings``) over the sum of each
    kind's median host seconds in the run.  Medians keep out the calls
    a burst of host load hit, which matters for short campaign jobs.
    """
    passes = m.untraced
    warm = [w for p in passes for w in p.warm_walls]
    if not warm:
        warm = [p.wall_s for p in passes[1:]]
    scale = m.speed_factor
    values = {
        "setup_s": _median(m.setups) * scale,
        "wall_s": _median(p.wall_s for p in passes) * scale,
        "warm_s": _median(warm) * scale,
    }
    kinds: Dict[Tuple[str, str, int], List[float]] = {}
    for p in passes:
        for kind, design, accesses, seconds in p.timings:
            kinds.setdefault((kind, design, accesses), []).append(seconds)
    for design in DESIGNS:
        accesses = seconds = 0.0
        for (_kind, of, size), times in kinds.items():
            if of == design:
                accesses += size
                seconds += statistics.median(times)
        values[f"acc_per_s.{design}"] = (accesses / (seconds * scale)
                                         if seconds else 0.0)
    values["peak_rss_mb"] = m.rss_mb
    return values


def per_layer_values(m: Measurement) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for layer in span_layer_names():
        values[f"{layer}.calls"] = _median(s[layer][0] for s in m.summaries)
        values[f"{layer}.self_s"] = _median(s[layer][1]
                                            for s in m.summaries)
    for design in DESIGNS:
        values[f"cpu.fallback_frac.{design}"] = _median(
            p.fallback[design] for p in m.traced if p.fallback
        )
    for name, _unit, _better in HARNESS_METRICS:
        values[name] = _median(p.harness[name] for p in m.traced
                               if p.harness)
    values.update(m.untraced[0].sim)
    untraced_wall = _median(p.wall_s for p in m.untraced)
    traced_wall = _median(p.wall_s for p in m.traced)
    values["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0
                                     if untraced_wall else 0.0)
    return values


def layer_table(m: Measurement) -> List[str]:
    """Calls, self time and share of the traced wall, by self time."""
    wall = _median(m.traced_walls)
    rows = []
    for layer in span_layer_names():
        calls = _median(s[layer][0] for s in m.summaries)
        self_s = _median(s[layer][1] for s in m.summaries)
        if calls:
            rows.append((self_s, layer, calls))
    rows.sort(reverse=True)
    lines = [f"  {'layer':28s} {'calls':>10s} {'self_s':>10s} "
             f"{'share':>7s}"]
    for self_s, layer, calls in rows:
        share = 100.0 * self_s / wall if wall else 0.0
        lines.append(f"  {layer:28s} {calls:10.0f} {self_s:10.4f} "
                     f"{share:6.1f}%")
    lines.append(f"  traced wall (set-up + pass): {wall:.4f} s")
    return lines


def _format(name: str, value: float, unit: str) -> str:
    return f"  {name:36s} {value:16.6g} {unit}"


def run_one(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool, show_end_to_end: bool):
    """Measure one workload; print its report; return its JSON parts."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed=seed, smoke=smoke, out_dir=OUT_DIR)
    m = measure(workload, seconds, traced)
    attempted, failures = check(m, load_reference(name, seed, smoke))
    print(f"== {name} (seed {seed}): {workload.why}")
    print(f"  passes: {len(m.untraced)} untraced, {len(m.traced)} traced; "
          f"points: {attempted} attempted, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.4g})")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    print(f"  host speed: {len(workload.speed.samples)} calibration "
          f"samples, times scaled by {m.speed_factor:.4f}")
    metrics: Dict[str, Dict[str, float]] = {}
    if show_end_to_end:
        values = end_to_end_values(m)
        for metric, unit, _better in end_to_end_metrics():
            print(_format(metric, values[metric], unit))
            metrics[metric] = {"value": values[metric], "unit": unit}
    if traced:
        for line in layer_table(m):
            print(line)
        values = per_layer_values(m)
        for metric, unit, _better in per_layer_metrics():
            if not metric.endswith((".calls", ".self_s")):
                print(_format(metric, values[metric], unit))
            metrics[metric] = {"value": values[metric], "unit": unit}
    return attempted, failures, metrics


def write_reference(seed: int) -> None:
    """Record the default seed's digests (first pass of each workload)."""
    from workloads import WORKLOADS

    stored = {"seed": seed, "workloads": {}}
    for name in WORKLOAD_NAMES:
        workload = WORKLOADS[name](seed=seed, smoke=False, out_dir=OUT_DIR)
        workload.setup()
        stored["workloads"][name] = dict(
            sorted(workload.run_pass(None).digests.items())
        )
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the digests of seed {DEFAULT_SEED} "
                             "in reference.json and exit")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    cleared = isolate_environment()
    for key, value in cleared.items():
        print(f"perfbench: cleared {key}={value}", file=sys.stderr)
    sys.path.insert(0, SRC)
    try:
        if args.write_reference:
            write_reference(DEFAULT_SEED)
            return 0
        return run(args)
    finally:
        stop_child_processes()


def run(args) -> int:
    """Measure the selected workloads and print the result line."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        if args.workload == "all":
            n, failures, values = run_one(name, args.seed, args.seconds,
                                          True, args.smoke, True)
            values = {f"{name}/{k}": v for k, v in values.items()}
        else:
            n, failures, values = run_one(name, args.seed, args.seconds,
                                          bool(args.trace), args.smoke,
                                          not args.trace)
        attempted += n
        failed += len(failures)
        metrics.update(values)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
