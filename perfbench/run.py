"""Run one workload of the packwise benchmark and print its metrics.

    python3 perfbench/run.py --workload build-history --seed 1 --seconds 40 --trace 0

Run from the root of a packwise checkout; the library is imported from its
``src`` directory. ``--trace 0`` runs rounds for ``--seconds``: each sets
the workload up (timed), then calls its operation for one slice (see
workloads.py) in a closed loop, one call at a time. Meanwhile a timer
samples the host's speed (see hostspeed.py), and every timing is rescaled
to a reference speed; ``setup_s`` and ``op_ms``, a slice's mean operation
time, are medians over the rounds.
Every output is checked, and the end-to-end metrics are printed.

``--trace 1`` sets up once, runs a third of ``--seconds`` untraced as a
reference, then wraps the calls between packwise modules in spans (see
tracing.py) for the rest, prints per-layer metrics, and writes every span
to ``perfbench/out/spans-<workload>.csv``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

# One caller on one core: BLAS threads would compete with the caller for the
# host's few cores and measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_SHARE = 1 / 3    # of --seconds, untraced, in a traced run


def import_library():
    """Import packwise from this checkout's src directory, or exit 2."""
    if not (SRC / "packwise" / "__init__.py").is_file():
        print(f"error: no packwise sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import packwise
    if Path(packwise.__file__).resolve().parent != SRC / "packwise":
        print(f"error: imported packwise from {packwise.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


class LogCounter(logging.Handler):
    """Counts the library's log records instead of printing them."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        self.count += 1


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Timings:
    """Timed intervals: the seconds outside host-speed samples of each, and
    the range of samples that fell inside it. Kept in flat arrays, so that
    tens of thousands of queries do not weigh on the reported peak RSS."""

    def __init__(self):
        self.own, self.first, self.last = array("d"), array("q"), array("q")

    def add(self, clock, start, end) -> None:
        self.own.append(clock.own(start, end))
        self.first.append(start[2])
        self.last.append(end[2])

    def __len__(self):
        return len(self.own)

    def scaled(self, clock) -> np.ndarray:
        """Each interval at the reference host speed."""
        return np.array([own * clock.scale(j0, j1)
                         for own, j0, j1 in zip(self.own, self.first, self.last)])


def measure(workload, checks, seconds: float, first: int, clock, tracer=None,
            max_ops: int | None = None) -> Timings:
    """Call the operation until the next call would overrun ``seconds`` or
    ``max_ops`` calls are made; returns the timings of the calls that
    completed."""
    timings = Timings()
    i = first
    start = time.perf_counter()
    while True:
        span = tracer.begin("bench.op") if tracer else None
        m0 = clock.mark()
        try:
            result = workload.operate(i)
        except Exception:
            checks.expect(False, f"operation {i} raised")
            traceback.print_exc(file=sys.stderr)
            result = None
        m1 = clock.mark()
        if tracer:
            tracer.end(span)
        if result is not None:
            checks.expect(True, "")
            timings.add(clock, m0, m1)
            workload.observe(i, result)
        i += 1
        if (i - first == max_ops
                or time.perf_counter() - start + clock.own(m0, m1) > seconds):
            return timings


class Round:
    """One set-up and one slice of operations, in seconds at the reference
    host speed and, under ``wall_``, as measured less the samples' time."""

    def __init__(self, setup: Timings, ops: Timings, clock):
        self.setup_s, self.wall_setup_s = setup.scaled(clock)[0], setup.own[0]
        self.ops, self.wall_ops = ops.scaled(clock), np.array(ops.own)


def run_rounds(workload, checks, seconds: float, clock) -> list:
    """Rounds of one timed set-up and one slice of operations, until the next
    round would overrun ``seconds``; returns the timings of each round's
    set-up and operations.

    The set-ups are spread over the run like the slices, so that one slow
    phase of the host does not catch all of them.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        m0 = clock.mark()
        workload.setup()
        setup = Timings()
        setup.add(clock, m0, clock.mark())
        ops = measure(workload, checks, math.inf, len(rounds) * workload.slice_ops,
                      clock, max_ops=workload.slice_ops)
        rounds.append((setup, ops))
        now = time.perf_counter()
        if now - start + (now - m0[0]) > seconds:
            return rounds


def median_of(rounds, value) -> float:
    return statistics.median(value(r) for r in rounds)


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def end_to_end(rounds, info) -> dict:
    return {
        "setup_s": (median_of(rounds, lambda r: r.setup_s), "s"),
        "op_ms": (median_of(rounds, lambda r: mean(r.ops)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cost_vs_best_fit": (info["cost_vs_best_fit"], "ratio"),
    }


def printed_metrics(workload, rounds, info, checks, log_records, sampled: bool) -> list:
    """The workload's metrics under their per-workload names, for reading:
    medians over rounds, at the reference host speed and, under ``wall.``,
    as measured. A traced run samples no host speed and prints only the
    latter, under the per-workload names."""
    def scaled(stat):
        return median_of(rounds, lambda r: stat(r.ops))

    def wall(stat):
        return median_of(rounds, lambda r: stat(r.wall_ops))

    def p(q):
        return lambda ops: percentile(ops, q)

    rows = [("setup_s", median_of(rounds, lambda r: r.setup_s), "s")]
    walls = [("wall.setup_s", median_of(rounds, lambda r: r.wall_setup_s), "s")]
    if workload.name == "query-mix":
        rows += [("query_mean_us", scaled(mean) * 1e6, "us"),
                 ("query_p50_us", scaled(p(50)) * 1e6, "us"),
                 ("query_p95_us", scaled(p(95)) * 1e6, "us"),
                 ("query_p99_us", scaled(p(99)) * 1e6, "us")]
        walls += [("wall.query_mean_us", wall(mean) * 1e6, "us"),
                  ("wall.query_p50_us", wall(p(50)) * 1e6, "us")]
    else:
        name = {"build-history": "build_s", "replay-shift": "replay_s"}[workload.name]
        rows.append((name, scaled(mean), "s"))
        walls.append((f"wall.{name}", wall(mean), "s"))
    if sampled:
        rows += walls + [("host_slowdown",
                          median_of(rounds, lambda r: sum(r.wall_ops) / sum(r.ops)), "x")]
    rows += [
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        ("cost_vs_best_fit", info["cost_vs_best_fit"], "ratio"),
    ]
    if workload.name != "build-history":
        rows += [("hit_rate", info["hit_rate"], "ratio"),
                 ("violation_rate", info["violation_rate"], "ratio")]
    rows += [("error_rate", checks.failed / checks.attempted, "ratio"),
             ("ops", sum(len(r.ops) for r in rounds), "count"),
             ("rounds", len(rounds), "count"),
             ("log_records", log_records, "count")]
    return rows


def per_layer(tracer, n_ops, info, reference, traced, log_records) -> dict:
    from tracing import SpanStats

    stats = tracer.stats()

    def span(name):
        return stats.get(name, SpanStats())

    def calls(name):
        return (span(name).calls / n_ops, "count")

    def self_s(name):
        return (span(name).self_s / n_ops, "s")

    def p(name, q, scale, unit):
        return (percentile(span(name).durations, q) * scale, unit)

    def peak_mb(name):
        return (span(name).peak_bytes / 2**20, "MB")

    total = sum(span("bench.op").durations)
    layers = {}
    for name, s in stats.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s.self_s

    def share(value):
        return (100.0 * value / total if total else 0.0, "%")

    ga_runs = tracer.ga_runs
    gens_to_best = [min(range(len(t)), key=t.__getitem__) + 1 for _, t in ga_runs if t]
    matches = span("lookup.match").calls
    ref_p50 = percentile(reference, 50)

    m = {
        "demand.demand_for_period.calls": calls("demand.demand_for_period"),
        "demand.demand_for_period.p50_us": p("demand.demand_for_period", 50, 1e6, "us"),
        "demand.demand_series.self_s": self_s("demand.demand_series"),
        "clustering.select_k.s": (sum(span("clustering.select_k").durations) / n_ops, "s"),
        "clustering.kmeans.calls": calls("clustering.kmeans"),
        "clustering.kmeans.self_s": self_s("clustering.kmeans"),
        "clustering.dunn.calls": calls("clustering.dunn"),
        "clustering.dunn.self_s": self_s("clustering.dunn"),
        "clustering.dunn.peak_mb": peak_mb("clustering.dunn"),
        "clustering.davies_bouldin.self_s": self_s("clustering.davies_bouldin"),
        "clustering.ahc.self_s": self_s("clustering.ahc"),
        "clustering.ahc.peak_mb": peak_mb("clustering.ahc"),
        "packing.ga_pack.calls": calls("packing.ga_pack"),
        "packing.ga_pack.self_s": self_s("packing.ga_pack"),
        "packing.ga_pack.p50_ms": p("packing.ga_pack", 50, 1e3, "ms"),
        "packing.ga_pack.feasible_ratio": (
            sum(f for f, _ in ga_runs) / len(ga_runs) if ga_runs else 0.0, "ratio"),
        "packing.ga_pack.gens_to_best": (
            statistics.median(gens_to_best) if gens_to_best else 0.0, "count"),
        "packing.best_fit_pack.calls": calls("packing.best_fit_pack"),
        "packing.best_fit_pack.p50_us": p("packing.best_fit_pack", 50, 1e6, "us"),
        "packing.first_fit_pack.self_s": self_s("packing.first_fit_pack"),
        "packing.verify_solution.calls": calls("packing.verify_solution"),
        "packing.verify_solution.self_s": self_s("packing.verify_solution"),
        "lookup.match.calls": calls("lookup.match"),
        "lookup.match.self_s": self_s("lookup.match"),
        "lookup.match.p50_us": p("lookup.match", 50, 1e6, "us"),
        "lookup.match.p99_us": p("lookup.match", 99, 1e6, "us"),
        "lookup.pearson.calls": calls("lookup.pearson"),
        "lookup.pearson.per_match": (
            span("lookup.pearson").calls / matches if matches else 0.0, "count"),
        "lookup.entries.final": (info["entries"], "count"),
        "lookup.hit_rate": (info.get("hit_rate", 0.0), "ratio"),
        "engine.violation_rate": (info.get("violation_rate", 0.0), "ratio"),
        "engine.recluster_events": (info.get("recluster_events", 0), "count"),
        "engine.skipped_entries": (info.get("skipped_entries", 0), "count"),
        "engine.log_records": (log_records / n_ops, "count"),
        "trace.overhead_pct": (
            100.0 * (percentile(traced, 50) / ref_p50 - 1.0) if ref_p50 else 0.0, "%"),
    }
    for layer in ("demand", "clustering", "packing", "lookup", "engine", "bench"):
        m[f"share.{layer}_pct"] = share(layers.get(layer, 0.0))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_library()
    from hostspeed import HostSpeed
    from tracing import Instrumentation, Tracer
    from workloads import WORKLOADS, Checks, Inputs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    counter = LogCounter()
    logging.getLogger("packwise").addHandler(counter)

    checks = Checks()
    workload = WORKLOADS[args.workload](Inputs(args.seed), checks)
    if args.trace:
        clock = HostSpeed()     # never entered: the wall clock, unscaled
        m0 = clock.mark()
        workload.setup()
        setup = Timings()
        setup.add(clock, m0, clock.mark())
        reference = measure(workload, checks, args.seconds * REFERENCE_SHARE, 0, clock)
        tracer = Tracer()
        logged_before = counter.count
        with Instrumentation(tracer):
            traced = measure(workload, checks, args.seconds * (1 - REFERENCE_SHARE),
                             len(reference), clock, tracer)
        logged = counter.count - logged_before
        rounds = [Round(setup, traced, clock)]
    else:
        with HostSpeed() as clock:
            timings = run_rounds(workload, checks, args.seconds, clock)
        rounds = [Round(setup, ops, clock) for setup, ops in timings]
        logged = counter.count
    latencies = [dt for r in rounds for dt in r.wall_ops]
    if not latencies:
        print("error: no operation completed", file=sys.stderr)
        return 1
    info = workload.finish()

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, value, unit in printed_metrics(workload, rounds, info, checks,
                                           counter.count, sampled=not args.trace):
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  digest = {info['digest']}")
    for note in checks.notes:
        print(f"  check failed: {note}")

    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}.csv"
        tracer.write_csv(spans_path)
        print(f"  spans = {spans_path.relative_to(ROOT)}")
        metrics = per_layer(tracer, len(latencies), info,
                            list(reference.own), latencies, logged)
    else:
        metrics = end_to_end(rounds, info)

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
