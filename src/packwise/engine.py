"""End-to-end orchestration.

Offline: turn a historical trace into demand patterns, pick a cluster
count, cluster, pack every representative pattern with the GA, and
assemble the lookup table. Online: replay a trace period by period,
serving each from the table on a hit and, on a miss, from a best-fit
packing of the live demand; once enough misses accumulate, the table is
rebuilt by clustering its patterns together with the missed ones.
A comparison mode prices the same trace under the table pipeline,
per-period GA, both greedy baselines, and a static peak-sized
configuration.

All reports serialize deterministically (no wall-clock content); repeated
runs with the same seeds produce byte-identical files. Stage timings are
logged, not serialized.

The independent, separately seeded jobs of a build, a recluster and a
comparison (select_k's ks, the GA runs of _pack_representatives and
evaluate_methods' periods) run on every usable CPU through split_map.
Jobs return plain data and never log; this module builds the objects and
writes the log records from what they return, in job order, so outputs
and logs do not depend on the number of CPUs.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .clustering import kmeans, select_k
from .demand import (
    DemandVector,
    _demand_vectors,
    demand_for_period,
    demand_from_values,
    demand_patterns,
)
from .lookup import (
    FingerprintMismatchError,
    LookupEntry,
    LookupTable,
    catalog_fingerprint,
    check_period_prices,
    match,
)
from .packing import (
    BRUTE_FORCE_MAX_BITS,
    GaParams,
    _decode,
    best_fit_pack,
    brute_force_pack,
    first_fit_pack,
    ga_pack,
    mix_lower_bound,
    verify_solution,
)
from .parallel import split_map
from .workload import ServiceCatalog, WorkloadTrace

log = logging.getLogger(__name__)

BRUTE_FORCE_SLOTS = 3
DEFAULT_K_RANGE = (2, 15)   # inclusive range of cluster counts the builds try


class BuildError(RuntimeError):
    """Offline table construction cannot complete."""


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_pattern(pattern) -> str:
    return ";".join(_fmt(v) for v in pattern)


@dataclass(frozen=True)
class OfflineReport:
    """What the offline build decided and how much each packing costs."""

    best_k: int
    index_rows: tuple          # (k, davies_bouldin, dunn) from the k-means sweep
    centroid_rows: tuple       # (index, pattern, ga, first_fit, best_fit, brute|None)
    lower_bounds: tuple        # mix_lower_bound of each centroid row's pattern

    def to_csv(self, path, ahc_scores=(None, None)) -> None:
        """Write the report; ahc_scores, the (davies_bouldin, dunn) of the
        hierarchical clustering of the same patterns cut at best_k, fill
        the ahc_* comment fields, each left empty where it is None."""
        db, dn = ahc_scores
        lines = [
            f"# best_k={self.best_k}",
            f"# ahc_davies_bouldin={_fmt(db) if db is not None else ''}"
            f" ahc_dunn={_fmt(dn) if dn is not None else ''}",
            "representative,pattern,ga_cost,first_fit_cost,best_fit_cost,brute_force_cost,"
            "lower_bound,gap",
        ]
        for (idx, pattern, ga, ff, bf, brute), lb in zip(self.centroid_rows, self.lower_bounds):
            brute_s = _fmt(brute) if brute is not None else ""
            gap = ga / lb - 1 if lb > 0 else 0.0
            lines.append(
                f"{idx},{_fmt_pattern(pattern)},{_fmt(ga)},{_fmt(ff)},{_fmt(bf)},{brute_s},"
                f"{_fmt(lb)},{_fmt(gap)}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class PeriodRecord:
    period: int
    score: float
    hit: bool
    source: str            # table | fallback-greedy
    cost: float


@dataclass(frozen=True)
class SimulationReport:
    """Per-period replay decisions plus aggregates."""

    records: tuple
    hit_rate: float
    total_cost: float
    recluster_events: int
    live_violation_rate: float
    skipped_entries: int
    final_table: LookupTable = field(compare=False, repr=False, default=None)

    def to_csv(self, path) -> None:
        lines = [
            f"# hit_rate={_fmt(self.hit_rate)} total_cost={_fmt(self.total_cost)}"
            f" recluster_events={self.recluster_events}"
            f" live_violation_rate={_fmt(self.live_violation_rate)}"
            f" skipped_entries={self.skipped_entries}",
            "period,score,hit,source,cost",
        ]
        for r in self.records:
            lines.append(f"{r.period},{_fmt(r.score)},{int(r.hit)},{r.source},{_fmt(r.cost)}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ComparisonReport:
    """Per-period cost of each provisioning method, plus column totals."""

    methods: tuple
    rows: tuple
    totals: tuple

    def to_csv(self, path) -> None:
        lines = ["period," + ",".join(self.methods)]
        for i, row in enumerate(self.rows):
            lines.append(f"{i}," + ",".join(_fmt(v) for v in row))
        lines.append("total," + ",".join(_fmt(v) for v in self.totals))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class MissPolicy:
    """How the online loop buffers misses and rebuilds the table.

    Every buffer_size (>= 1) misses trigger a recluster: cluster-count
    selection over the table's patterns plus the buffer, whose model
    replaces the table. k_range is that sweep, held to select_k's
    2 <= low <= high, so a table never holds more than k_range[1] entries
    after a recluster.
    """

    buffer_size: int = 20
    ga_params: GaParams = field(default_factory=GaParams)
    k_range: tuple = DEFAULT_K_RANGE
    seed: int = 0

    def __post_init__(self):
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        low, high = self.k_range
        if not 2 <= low <= high:
            raise ValueError(f"k range [{low}, {high}] must satisfy 2 <= low <= high")


def _ga_genome(dv, vm_catalog, params, period_seconds):
    """ga_pack's packing as plain data: the genome (VM type indexes into
    vm_catalog, (instances, S) assignment rows, feasible) that _decode
    turns back into it."""
    sol = ga_pack(dv, vm_catalog, params, period_seconds)
    index = {id(vm): t for t, vm in enumerate(vm_catalog)}
    types = np.array([index[id(inst.vm_type)] for inst in sol.instances], dtype=np.intp)
    bits = np.array([inst.assignment for inst in sol.instances],
                    dtype=np.uint8).reshape(len(types), dv.service_count)
    return types, bits, sol.feasible


def _pack_representatives(centroids, catalog, vm_catalog, ga_params, period_seconds,
                          on_infeasible="raise", kept=None):
    """GA-pack each centroid; returns (entries, skipped count). kept[i],
    when given, lists packings already made for centroid i's cluster; the
    cheapest of them that fits the centroid (the first on ties) serves it
    instead of running the GA again.

    The GA runs, centroid i's seeded ga_params.seed + i, are independent
    jobs spread over the usable CPUs by split_map. Each returns its
    packing's genome, decoded here, so every instance holds vm_catalog's
    own VmType. The entries, and the BuildError or warning for an
    infeasible representative, follow centroid order, as in a serial loop.
    """
    demands = [demand_from_values(centroid, catalog) for centroid in centroids]
    served = []     # per centroid: its packing, None until the GA packs it
    for i, dv in enumerate(demands):
        fits = [sol for sol in (kept[i] if kept else ()) if verify_solution(sol, dv)]
        served.append(min(fits, key=lambda sol: sol.total_cost) if fits else None)
    runs = [i for i, sol in enumerate(served) if sol is None]
    genomes = split_map(
        lambda i: _ga_genome(demands[i], vm_catalog,
                             replace(ga_params, seed=ga_params.seed + i), period_seconds),
        runs)
    skipped = 0
    for i, genome in zip(runs, genomes):
        sol = _decode(vm_catalog, *genome, period_seconds)
        if sol.feasible:
            served[i] = sol
            continue
        if on_infeasible == "raise":
            raise BuildError(
                f"representative {i} (pattern {_fmt_pattern(centroids[i])}) "
                f"has no feasible packing"
            )
        log.warning("skipping representative %d: no feasible packing", i)
        skipped += 1
    entries = [LookupEntry(pattern=centroid, solution=sol)
               for centroid, sol in zip(centroids, served) if sol is not None]
    return entries, skipped


def _report_row(i, entry, catalog, vm_catalog, period_seconds):
    """An offline-report row, the entry's GA cost beside the first-fit,
    best-fit and (for small instances) brute-force costs of its pattern,
    and the pattern's mix_lower_bound."""
    dv = demand_from_values(entry.pattern, catalog)
    ff = first_fit_pack(dv, vm_catalog, period_seconds)
    bf = best_fit_pack(dv, vm_catalog, period_seconds)
    brute_cost = None
    if dv.service_count * BRUTE_FORCE_SLOTS <= BRUTE_FORCE_MAX_BITS:
        brute = brute_force_pack(dv, vm_catalog, BRUTE_FORCE_SLOTS, period_seconds)
        if brute.feasible:
            brute_cost = brute.total_cost
    row = (i, entry.pattern, entry.solution.total_cost, ff.total_cost, bf.total_cost,
           brute_cost)
    return row, mix_lower_bound(dv, vm_catalog, period_seconds)


def build_offline(trace: WorkloadTrace, catalog: ServiceCatalog, vm_catalog,
                  k_range=DEFAULT_K_RANGE, ga_params: GaParams | None = None, *,
                  threshold: float | None = None,
                  magnitude_ratio: float = 1.5, seed: int = 0):
    """Construct the lookup table from a historical trace.

    Pipeline: demand patterns -> cluster-count selection -> k-means
    representatives -> GA packing per representative. Any representative
    without a feasible packing aborts the build: the table must only ever
    serve feasible configurations. Nothing here holds O(n^2) memory for n
    periods; hierarchical clustering, which does, is left to callers that
    want a dendrogram (the CLI's build). The table's width picks its
    metric, and threshold=None its default (see LookupTable).

    Returns (LookupTable, OfflineReport).
    """
    timings = {}
    t0 = time.perf_counter()
    patterns = demand_patterns(trace, catalog)
    timings["demand"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    model, index_rows = select_k(patterns, k_range, seed=seed)
    timings["clustering"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gp = ga_params or GaParams()
    entries, _ = _pack_representatives(
        model.centroids, catalog, vm_catalog, gp, trace.period_seconds,
        on_infeasible="raise")
    report_rows = [_report_row(i, entry, catalog, vm_catalog, trace.period_seconds)
                   for i, entry in enumerate(entries)]
    timings["packing"] = time.perf_counter() - t0

    table = LookupTable(
        entries=tuple(entries),
        threshold=threshold,
        magnitude_ratio=magnitude_ratio,
        fingerprint=catalog_fingerprint(catalog, vm_catalog),
    )
    report = OfflineReport(
        best_k=model.k,
        index_rows=tuple(index_rows),
        centroid_rows=tuple(row for row, _ in report_rows),
        lower_bounds=tuple(bound for _, bound in report_rows),
    )
    log.info("offline build: %s", " ".join(f"{k}={v:.2f}s" for k, v in timings.items()))
    return table, report


def _check_table(table: LookupTable, catalog, vm_catalog, period_seconds) -> None:
    """Refuse a table built for other catalogs or priced for another period length."""
    if table.fingerprint != catalog_fingerprint(catalog, vm_catalog):
        raise FingerprintMismatchError("table was built for different catalogs")
    check_period_prices(table, period_seconds)


def _recluster(table, missed, catalog, vm_catalog, policy, period_seconds, event):
    """Rebuild the table from its patterns plus the missed ones: select_k
    over the union, capped by policy.k_range, gives the new entries, in
    centroid order. A union too small to sweep k >= 2 is clustered at
    k = its number of distinct patterns. A centroid keeps the cheapest
    packing of the old entries in its cluster that fits it; only a centroid
    none of them fits runs the GA."""
    union = np.vstack([table.patterns, *missed])
    seed = policy.seed + 1000 * event
    distinct = np.unique(union, axis=0).shape[0]
    hi = min(policy.k_range[1], union.shape[0] - 1)
    lo = min(policy.k_range[0], hi, distinct)
    if lo < 2:
        model = kmeans(union, distinct, seed=seed)
    else:
        model, _ = select_k(union, (lo, hi), seed=seed)
    gp = replace(policy.ga_params, seed=policy.ga_params.seed + 1000 * event)
    old = model.assignments[:len(table.entries)]      # the table's rows lead the union
    kept = [[e.solution for e, c in zip(table.entries, old) if c == i]
            for i in range(len(model.centroids))]
    entries, skipped = _pack_representatives(
        model.centroids, catalog, vm_catalog, gp, period_seconds,
        on_infeasible="skip", kept=kept)
    if not entries:
        log.warning("recluster produced no feasible entries; keeping old table")
        return table, skipped
    return replace(table, entries=entries), skipped


def decide(table: LookupTable, dv: DemandVector, vm_catalog, period_seconds: float):
    """Serve one period: the matched entry's own packing on a hit, a best-fit
    packing of the live demand on a miss. Returns (solution, source, MatchResult)."""
    result = match(table, dv)
    if result.hit:
        return result.chosen, "table", result
    return best_fit_pack(dv, vm_catalog, period_seconds), "fallback-greedy", result


def run_online(table: LookupTable, online_trace: WorkloadTrace,
               catalog: ServiceCatalog, vm_catalog,
               miss_policy: MissPolicy | None = None) -> SimulationReport:
    """Replay a trace against the table, one configuration per period.

    Each period is served by decide(): a hit by its entry's packing, a miss
    by a best-fit packing of the live demand. Every policy.buffer_size
    missed patterns are reclustered with the table's patterns (see
    MissPolicy), and the rebuilt table serves subsequent periods.

    Table-sourced configurations are feasible for their representative by
    construction; each emitted configuration is additionally checked
    against the live period demand and mismatches are counted in
    live_violation_rate (one summary warning, not fatal). A table priced
    for another period length than the trace's is refused.
    """
    _check_table(table, catalog, vm_catalog, online_trace.period_seconds)
    policy = miss_policy or MissPolicy()
    missed = []

    records = []
    violations = 0
    events = 0
    skipped = 0
    total = 0.0
    for period, counts in enumerate(online_trace.counts):
        dv = demand_for_period(counts, catalog)
        solution, source, result = decide(table, dv, vm_catalog,
                                          online_trace.period_seconds)
        if not verify_solution(solution, dv):
            violations += 1
            log.debug("period %d: configuration from %s violates live demand",
                      period, source)
        total += solution.total_cost
        records.append(PeriodRecord(period, result.score, result.hit, source,
                                    solution.total_cost))
        if not result.hit:
            missed.append(dv.values)
            if len(missed) >= policy.buffer_size:
                events += 1
                table, newly_skipped = _recluster(
                    table, missed, catalog, vm_catalog, policy,
                    online_trace.period_seconds, events)
                skipped += newly_skipped
                missed = []

    n = len(records)
    if violations:
        log.warning("%d of %d periods served a configuration that violates live demand",
                    violations, n)
    return SimulationReport(
        records=tuple(records),
        hit_rate=sum(r.hit for r in records) / n if n else 0.0,
        total_cost=total,
        recluster_events=events,
        live_violation_rate=violations / n if n else 0.0,
        skipped_entries=skipped,
        final_table=table,
    )


def evaluate_methods(trace: WorkloadTrace, catalog: ServiceCatalog, vm_catalog,
                     table: LookupTable,
                     ga_params: GaParams | None = None) -> ComparisonReport:
    """Price every period under five provisioning methods.

    pipeline: table lookup with greedy fallback on misses (stateless; the
    buffer/reclustering machinery is left out of the comparison).
    per_period_ga: a fresh GA packing of each period (the offline-optimal
    reference). first_fit / best_fit: greedy packings per period.
    static_peak: one GA packing of the entrywise-maximum demand, reused
    every period.

    The periods are independent jobs, each GA seeded gp.seed + its index,
    spread over the usable CPUs by split_map; each returns its row of
    costs.
    """
    _check_table(table, catalog, vm_catalog, trace.period_seconds)
    if trace.n_periods == 0:
        raise ValueError("trace has no periods")
    gp = ga_params or GaParams()
    secs = trace.period_seconds

    peak_counts = trace.counts.max(axis=0)
    peak = ga_pack(demand_for_period(peak_counts, catalog), vm_catalog,
                   replace(gp, seed=gp.seed + 10_000), secs)

    def price(period):
        i, counts = period
        dv = demand_for_period(counts, catalog)
        pipeline, source, _ = decide(table, dv, vm_catalog, secs)
        # A greedy miss already is the best-fit packing of this demand.
        best_fit = (pipeline if source == "fallback-greedy"
                    else best_fit_pack(dv, vm_catalog, secs))
        per_ga = ga_pack(dv, vm_catalog, replace(gp, seed=gp.seed + i), secs)
        return (
            pipeline.total_cost,
            per_ga.total_cost,
            first_fit_pack(dv, vm_catalog, secs).total_cost,
            best_fit.total_cost,
            peak.total_cost,
        )

    rows = split_map(price, enumerate(trace.counts))
    totals = tuple(float(s) for s in np.array(rows).sum(axis=0))
    return ComparisonReport(
        methods=("pipeline", "per_period_ga", "first_fit", "best_fit", "static_peak"),
        rows=tuple(rows),
        totals=totals,
    )


class PackingAutoscaler:
    """Estimator-style front door: fit on a historical trace, predict VM
    configurations for new demand.

    fit() runs the offline pipeline and stores the lookup table; predict()
    maps request-count rows to PackingSolutions by decide() (stateless): a
    hit gets its entry's packing, a miss a best-fit packing of the live
    demand. replay() runs the full online loop, reclustering misses over
    the same k_range as fit(), and returns the simulation report.
    """

    def __init__(self, k_range=DEFAULT_K_RANGE, threshold=None,
                 magnitude_ratio=1.5, miss_buffer_size=20, ga_params=None, seed=0):
        self.k_range = k_range
        self.threshold = threshold
        self.magnitude_ratio = magnitude_ratio
        self.miss_buffer_size = miss_buffer_size
        self.ga_params = ga_params
        self.seed = seed

    def fit(self, trace: WorkloadTrace, catalog: ServiceCatalog, vm_catalog):
        self.table_, self.report_ = build_offline(
            trace, catalog, vm_catalog,
            k_range=self.k_range,
            ga_params=self.ga_params,
            threshold=self.threshold,
            magnitude_ratio=self.magnitude_ratio,
            seed=self.seed,
        )
        self._catalog = catalog
        self._vm_catalog = vm_catalog
        self._period_seconds = trace.period_seconds
        return self

    def predict(self, counts):
        """Configurations for one count row or a matrix of rows; a matrix
        is converted to demand in one step, each row as a lone row would be."""
        if not hasattr(self, "table_"):
            raise ValueError("autoscaler is not fitted")
        arr = np.asarray(counts)
        row = arr.ndim == 1
        demands = ([demand_for_period(arr, self._catalog)] if row
                   else _demand_vectors(arr, self._catalog))
        solutions = [decide(self.table_, dv, self._vm_catalog,
                            self._period_seconds)[0] for dv in demands]
        return solutions[0] if row else solutions

    def replay(self, trace: WorkloadTrace) -> SimulationReport:
        if not hasattr(self, "table_"):
            raise ValueError("autoscaler is not fitted")
        policy = MissPolicy(buffer_size=self.miss_buffer_size,
                            ga_params=self.ga_params or GaParams(),
                            k_range=self.k_range,
                            seed=self.seed)
        return run_online(self.table_, trace, self._catalog, self._vm_catalog,
                          miss_policy=policy)
