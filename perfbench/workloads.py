"""Inputs and the three workloads of the packwise benchmark.

Every workload runs on the README quickstart: its catalogs (5 services x 3
dimensions; small/medium/large VM types) and its 10 planted demand modes,
integer centers in [20, 200] drawn as ``packwise gen --seed 1`` draws them,
with noise sigma at 5% of the mean center. The run's seed draws the noise
and the query order of every trace, so the same seed gives the same
inputs. The modes stay those of the quickstart: with modes drawn per seed,
the seeded quality ratios spread by more than their bounds from one seed
to the next. The library only ever sees the generated counts.

A workload has a set-up (timed, repeated by the runner), one operation the
runner times in a closed loop, an untimed ``observe`` that checks each
operation's output, and a ``finish`` that prices and digests what the run
served. ``slice_ops`` is how many consecutive operations form one slice of
the run, which is also what a round of the untraced run operates after its
set-up: one pass over the query pool, or one build or replay. Checks use
the functions imported below, which the traced run does not wrap, so they
add no spans.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import packwise
from packwise import (
    GaParams,
    PackingAutoscaler,
    ServiceCatalog,
    SyntheticSpec,
    VmType,
    best_fit_pack,
    demand_for_period,
    demand_from_values,
    generate_trace,
    verify_solution,
)

UNIT_COSTS = ((1, 1, 2), (1, 2, 1), (2, 1, 2), (1, 1, 1), (2, 2, 1))
VM_TYPES = (
    ("small", (200, 200, 300), 1.0),
    ("medium", (300, 400, 300), 1.6),
    ("large", (600, 600, 700), 2.9),
)
MODES = 10
CENTER_RANGE = (20, 200)
MODES_SEED = 1             # the quickstart's `packwise gen --seed 1`
SIGMA_FRACTION = 0.05
K_RANGE = (2, 15)
FIT_PERIODS = 500          # history the online workloads fit on, in set-up
BUILD_PERIODS = 2000       # long enough that the O(n^2) cluster-count sweep dominates
QUERY_POOL = 2000          # distinct queries, cycled by the closed loop
SHIFTED_SHARE = 0.1        # queries at 2x magnitude: they fail the 1.5 guard and miss
REPLAY_PERIODS = 500       # the table grows from about 10 to 55 entries over these
SHIFT = 2.0

# Streams of the per-seed trace generator, one per generated trace.
FIT_STREAM, BUILD_STREAM, QUERY_STREAM, SHIFTED_STREAM, REPLAY_STREAM = range(1, 6)


class Inputs:
    """Catalogs, planted modes and seeded traces for one run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.catalog = ServiceCatalog(np.array(UNIT_COSTS, dtype=float))
        self.vm_catalog = [VmType(name, np.array(cap, dtype=float), price)
                           for name, cap, price in VM_TYPES]
        rng = np.random.default_rng(MODES_SEED)
        lo, hi = CENTER_RANGE
        self.centers = rng.integers(lo, hi + 1, size=(MODES, len(UNIT_COSTS))).astype(float)
        self.sigma = SIGMA_FRACTION * float(self.centers.mean())

    def trace(self, periods: int, stream: int, scale: float = 1.0):
        spec = SyntheticSpec(mode_centers=self.centers * scale,
                             noise_sigma=self.sigma * scale,
                             periods=periods, seed=self.seed * 8 + stream)
        return generate_trace(spec, self.catalog)

    def fit(self):
        history = self.trace(FIT_PERIODS, FIT_STREAM)
        return PackingAutoscaler(k_range=K_RANGE).fit(history, self.catalog, self.vm_catalog)


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def solution_key(solution) -> str:
    """Canonical text of a served configuration."""
    instances = ";".join(f"{inst.vm_type.id}:{''.join(map(str, inst.assignment))}"
                         for inst in solution.instances)
    return f"{solution.total_cost!r}|{int(solution.feasible)}|{instances}"


class Checks:
    """Counts checked outputs and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)

    def table(self, table, catalog, label: str) -> None:
        """Every entry must fit its own pattern."""
        for i, entry in enumerate(table.entries):
            fits = verify_solution(entry.solution, demand_from_values(entry.pattern, catalog))
            self.expect(fits, f"{label} entry {i} does not fit its pattern")


class BuildHistory:
    """build_offline on a 2000-period history; clustering, no lookup."""

    name = "build-history"
    slice_ops = 1

    def __init__(self, inputs: Inputs, checks: Checks):
        self.inputs, self.checks = inputs, checks
        self.digests = set()

    def setup(self):
        self.history = self.inputs.trace(BUILD_PERIODS, BUILD_STREAM)
        # Warm-up: a 500-period build runs every code path of the timed
        # build once, so lazy set-up is not billed to the first build.
        self.inputs.fit()

    def operate(self, _i):
        return packwise.build_offline(self.history, self.inputs.catalog,
                                      self.inputs.vm_catalog, k_range=K_RANGE,
                                      ga_params=GaParams())

    def observe(self, _i, result):
        table, report = result
        self.table, self.report = table, report
        self.checks.table(table, self.inputs.catalog, "built table")
        self.checks.expect(len(table.entries) == report.best_k
                           and K_RANGE[0] <= report.best_k <= K_RANGE[1],
                           "table size differs from the selected k")
        self.digests.add(digest([
            json.dumps(table.to_doc(), sort_keys=True),
            repr(report.index_rows),
            repr([(i, [float(v) for v in p], ga, ff, bf, brute)
                  for i, p, ga, ff, bf, brute in report.centroid_rows]),
        ]))

    def finish(self) -> dict:
        self.checks.expect(len(self.digests) == 1, "repeated builds differ")
        rows = self.report.centroid_rows
        return {
            "cost_vs_best_fit": sum(r[2] for r in rows) / sum(r[4] for r in rows),
            "entries": len(self.table.entries),
            "digest": min(self.digests),
        }


class QueryMix:
    """One caller, one predict(row) at a time, on a fitted 10-entry table."""

    name = "query-mix"
    slice_ops = QUERY_POOL     # one pass serves every query once

    def __init__(self, inputs: Inputs, checks: Checks):
        self.inputs, self.checks = inputs, checks
        self.fit_docs = set()
        self.served = [None] * QUERY_POOL    # first configuration served per query

    def setup(self):
        inputs = self.inputs
        n_shifted = int(QUERY_POOL * SHIFTED_SHARE)
        normal = inputs.trace(QUERY_POOL - n_shifted, QUERY_STREAM).counts
        shifted = inputs.trace(n_shifted, SHIFTED_STREAM, scale=SHIFT).counts
        pool = np.vstack([normal, shifted])
        order = np.random.default_rng(inputs.seed * 8 + QUERY_STREAM).permutation(len(pool))
        self.pool = pool[order]
        self.autoscaler = inputs.fit()
        self.fit_docs.add(json.dumps(self.autoscaler.table_.to_doc(), sort_keys=True))

    def operate(self, i):
        return self.autoscaler.predict(self.pool[i % len(self.pool)])

    def observe(self, i, solution):
        j = i % len(self.pool)
        if self.served[j] is None:
            self.served[j] = solution
        elif solution.total_cost != self.served[j].total_cost:
            self.checks.expect(False, f"query {j} served a different configuration")

    def finish(self) -> dict:
        self.checks.expect(len(self.fit_docs) == 1, "repeated fits differ")
        table = self.autoscaler.table_
        self.checks.table(table, self.inputs.catalog, "fitted table")
        catalog, vms = self.inputs.catalog, self.inputs.vm_catalog
        entry_solutions = {id(e.solution) for e in table.entries}
        served_cost = best_cost = 0.0
        hits = fits = 0
        keys = []
        for j, counts in enumerate(self.pool):
            # The last set-up's autoscaler answers every query again, so
            # that hits are told by its table's entries.
            solution = self.autoscaler.predict(counts)
            if (self.served[j] is not None
                    and solution_key(solution) != solution_key(self.served[j])):
                self.checks.expect(False, f"query {j} served a different configuration")
            dv = demand_for_period(counts, catalog)
            served_cost += solution.total_cost
            best_cost += best_fit_pack(dv, vms).total_cost
            hits += id(solution) in entry_solutions
            fits += verify_solution(solution, dv)
            keys.append(solution_key(solution))
        n = len(self.pool)
        return {
            "cost_vs_best_fit": served_cost / best_cost,
            "violation_rate": 1.0 - fits / n,
            "hit_rate": hits / n,
            "entries": len(table.entries),
            "digest": digest(keys),
        }


class ReplayShift:
    """run_online with miss recycling on a trace at 2x the trained modes."""

    name = "replay-shift"
    slice_ops = 1

    def __init__(self, inputs: Inputs, checks: Checks):
        self.inputs, self.checks = inputs, checks
        self.digests = set()
        self.fit_docs = set()

    def setup(self):
        self.trace = self.inputs.trace(REPLAY_PERIODS, REPLAY_STREAM, scale=SHIFT)
        self.autoscaler = self.inputs.fit()
        self.fit_docs.add(json.dumps(self.autoscaler.table_.to_doc(), sort_keys=True))

    def operate(self, _i):
        return self.autoscaler.replay(self.trace)

    def observe(self, _i, report):
        self.report = report
        self.checks.expect(len(report.records) == self.trace.n_periods
                           and [r.period for r in report.records]
                           == list(range(self.trace.n_periods)),
                           "replay did not return one record per period")
        self.checks.table(report.final_table, self.inputs.catalog, "final table")
        self.digests.add(digest(f"{r.source}:{r.cost!r}" for r in report.records))

    def finish(self) -> dict:
        self.checks.expect(len(self.fit_docs) == 1, "repeated fits differ")
        self.checks.table(self.autoscaler.table_, self.inputs.catalog, "fitted table")
        self.checks.expect(len(self.digests) == 1, "repeated replays differ")
        catalog, vms = self.inputs.catalog, self.inputs.vm_catalog
        best_cost = sum(best_fit_pack(demand_for_period(c, catalog), vms).total_cost
                        for c in self.trace.counts)
        report = self.report
        return {
            "cost_vs_best_fit": report.total_cost / best_cost,
            "violation_rate": report.live_violation_rate,
            "hit_rate": report.hit_rate,
            "entries": len(report.final_table.entries),
            "recluster_events": report.recluster_events,
            "skipped_entries": report.skipped_entries,
            "digest": min(self.digests),
        }


WORKLOADS = {w.name: w for w in (BuildHistory, QueryMix, ReplayShift)}
