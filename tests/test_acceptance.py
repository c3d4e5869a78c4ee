"""Acceptance suite: the eight release criteria, each with its stated
tolerance and runtime budget. Run with `pytest tests/test_acceptance.py -v -s`
to see one PASS line per criterion."""

import time

import numpy as np
import pytest

from packwise import (
    GaParams,
    MissPolicy,
    ServiceCatalog,
    SyntheticSpec,
    WorkloadTrace,
    best_fit_pack,
    brute_force_pack,
    build_offline,
    demand_for_period,
    evaluate_methods,
    first_fit_pack,
    ga_pack,
    generate_trace,
    match,
    pearson,
    run_online,
    select_k,
    verify_solution,
)
from packwise.cli import main as cli_main
from packwise.demand import DemandVector, demand_series
from packwise.lookup import LookupEntry, LookupTable

from conftest import separated_centers, tiny_instance


def report(criterion, detail, elapsed, budget):
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s (budget {budget}s)"
    print(f"[PASS] criterion {criterion}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")


@pytest.fixture(scope="module")
def catalog():
    return ServiceCatalog(np.array([
        [1.0, 1.0, 2.0],
        [1.0, 2.0, 1.0],
        [2.0, 1.0, 2.0],
        [1.0, 1.0, 1.0],
        [2.0, 2.0, 1.0],
    ]))


@pytest.fixture(scope="module")
def vms():
    from packwise import VmType
    return [
        VmType("small", np.array([200.0, 200.0, 300.0]), 1.0),
        VmType("medium", np.array([300.0, 400.0, 300.0]), 1.6),
        VmType("large", np.array([600.0, 600.0, 700.0]), 2.9),
    ]


def test_criterion_1_demand_oracle_equivalence():
    """demand_for_period matches an independent product-and-sum oracle on
    1,000 random (counts, unit-cost) pairs: bitwise for integer unit
    costs, within 1e-12 relative otherwise."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(1000):
        S = int(rng.integers(1, 8))
        d = int(rng.integers(1, 4))
        counts = rng.integers(0, 1000, size=S)
        integer_costs = trial < 500
        if integer_costs:
            costs = rng.integers(0, 20, size=(S, d)).astype(float)
            costs[costs.sum(axis=1) == 0, 0] = 1.0
        else:
            costs = rng.uniform(0.01, 20.0, size=(S, d))
        catalog = ServiceCatalog(costs)
        dv = demand_for_period(counts, catalog)
        # Oracle: plain loops, no shared arithmetic with the implementation.
        for s in range(S):
            acc = 0.0
            for k in range(d):
                expected = float(counts[s]) * costs[s][k]
                if integer_costs:
                    assert dv.per_dim[s][k] == expected
                else:
                    assert dv.per_dim[s][k] == pytest.approx(expected, rel=1e-12)
                acc += dv.per_dim[s][k]
            if integer_costs:
                assert dv.values[s] == acc
            else:
                assert dv.values[s] == pytest.approx(acc, rel=1e-12)
    report(1, "1000/1000 oracle matches", time.perf_counter() - start, 1.0)


def test_criterion_2_cluster_count_recovery(catalog):
    """select_k over [2,15] recovers the 10 planted modes in >= 18 of 20
    seeded runs; Davies-Bouldin at k=10 beats k=7 and k=13 every run."""
    start = time.perf_counter()
    recovered = 0
    for run in range(20):
        rng = np.random.default_rng(1000 + run)
        centers = separated_centers(rng, modes=10, services=5)
        sigma = 0.05 * float(centers.mean())
        trace = generate_trace(
            SyntheticSpec(mode_centers=centers, noise_sigma=sigma,
                          periods=100, seed=2000 + run), catalog)
        X = np.vstack([dv.values for dv in demand_series(trace, catalog)])
        model, rows = select_k(X, (2, 15), seed=3000 + run)
        recovered += model.k == 10
        db = {k: score for k, score, _ in rows}
        assert db[10] < db[7], f"run {run}: db(10)={db[10]} !< db(7)={db[7]}"
        assert db[10] < db[13], f"run {run}: db(10)={db[10]} !< db(13)={db[13]}"
    assert recovered >= 18, f"k=10 recovered only {recovered}/20 times"
    report(2, f"k=10 in {recovered}/20 runs, DB strictly lowest at 10",
           time.perf_counter() - start, 30.0)


def test_criterion_3_packing_near_optimality():
    """Over 100 seeded tiny instances, GA lands within 10% of the
    exhaustive optimum in >= 95, and every feasible-flagged GA solution
    passes the independent checker."""
    start = time.perf_counter()
    within = 0
    verified = 0
    for seed in range(100):
        demand, catalog = tiny_instance(seed)
        oracle = brute_force_pack(demand, catalog, 3)
        assert oracle.feasible, f"seed {seed}: oracle infeasible"
        sol = ga_pack(demand, catalog, GaParams(max_instances=3), seed=seed)
        if sol.feasible and verify_solution(sol, demand):
            verified += 1
        if sol.total_cost <= 1.10 * oracle.total_cost + 1e-12:
            within += 1
    assert within >= 95, f"GA within 10% of optimum in only {within}/100"
    assert verified == 100, f"feasible+verified in only {verified}/100"
    report(3, f"within 10% of optimum {within}/100, verified {verified}/100",
           time.perf_counter() - start, 120.0)


def test_criterion_4_ga_beats_greedy(catalog, vms):
    """Over 50 seeded medium instances (5 services, 3 types), GA costs no
    more than first fit and best fit in >= 40 each, and is never
    infeasible where a greedy method is feasible."""
    start = time.perf_counter()
    le_ff = le_bf = 0
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        counts = rng.integers(20, 200, size=5)
        demand = demand_for_period(counts, catalog)
        ga = ga_pack(demand, vms, seed=seed)
        ff = first_fit_pack(demand, vms)
        bf = best_fit_pack(demand, vms)
        if ff.feasible or bf.feasible:
            assert ga.feasible, f"seed {seed}: GA infeasible where greedy is not"
        le_ff += ga.total_cost <= ff.total_cost + 1e-12
        le_bf += ga.total_cost <= bf.total_cost + 1e-12
    assert le_ff >= 40, f"GA <= first fit in only {le_ff}/50"
    assert le_bf >= 40, f"GA <= best fit in only {le_bf}/50"
    report(4, f"GA <= first_fit in {le_ff}/50, <= best_fit in {le_bf}/50",
           time.perf_counter() - start, 300.0)


def test_criterion_5_matcher_contract(vms):
    """pearson(x,x) is exactly 1.0 on 500 random non-constant vectors;
    scores straddling the 0.7 threshold by 1e-9 route to miss/hit
    accordingly; doubling one argument moves the score by < 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 500:
        x = rng.uniform(-100, 100, size=int(rng.integers(2, 30)))
        if np.ptp(x) == 0:
            continue
        assert pearson(x, x) == 1.0
        checked += 1

    for _ in range(200):
        a = rng.uniform(0, 100, size=8)
        b = rng.uniform(0, 100, size=8)
        assert abs(pearson(a, 2 * b) - pearson(a, b)) <= 1e-12

    # Boundary: construct incoming vectors with correlation 0.7 +/- 1e-9
    # against a fixed pattern via an orthonormal basis, confirm the score
    # side with an independent oracle, then check hit/miss and routing.
    pattern = np.array([20.0, 35.0, 50.0, 65.0, 90.0])
    from packwise.packing import PackingSolution, VmInstance
    solution = PackingSolution((VmInstance(vms[0], np.ones(5, dtype=int)),),
                               1.0 / 6, True)
    table = LookupTable(
        entries=(LookupEntry(pattern=pattern, solution=solution),),
        threshold=0.7, magnitude_ratio=float("inf"))

    p_hat = pattern - pattern.mean()
    p_hat /= np.linalg.norm(p_hat)
    raw = np.array([1.0, -1.0, 2.0, 0.5, -1.5])
    q = raw - raw.mean() - (raw @ p_hat) * p_hat
    q_hat = q / np.linalg.norm(q)
    missed = []
    for c, expect_hit in ((0.7 + 1e-9, True), (0.7 - 1e-9, False)):
        x = c * p_hat + np.sqrt(1 - c * c) * q_hat
        x = (x - x.min()) + 1.0  # shift into demand range; correlation unchanged
        oracle_score = float(np.corrcoef(x, pattern)[0, 1])
        assert (oracle_score >= 0.7) == expect_hit
        incoming = DemandVector(x[:, None])
        result = match(table, incoming)
        assert abs(result.score - oracle_score) < 1e-12
        assert result.hit == expect_hit
        assert (result.chosen is solution) == expect_hit
        if not result.hit:
            missed.append(incoming.values)
    assert len(missed) == 1
    report(5, "self-corr exact, 0.7 boundary honored both sides, scale-stable",
           time.perf_counter() - start, 60.0)


def test_criterion_6_end_to_end_sandwich(catalog, vms):
    """100-period replay against a table built from the same distribution:
    hit rate >= 0.95 and total per-period-GA <= pipeline <= static peak."""
    start = time.perf_counter()
    rng = np.random.default_rng(636)
    centers = separated_centers(rng, modes=10, services=5)
    sigma = 0.05 * float(centers.mean())
    train = generate_trace(SyntheticSpec(mode_centers=centers, noise_sigma=sigma,
                                         periods=100, seed=61), catalog)
    online = generate_trace(SyntheticSpec(mode_centers=centers, noise_sigma=sigma,
                                          periods=100, seed=62), catalog)
    table, _ = build_offline(train, catalog, vms, k_range=(2, 15), seed=6)
    sim = run_online(table, online, catalog, vms, miss_policy=MissPolicy(seed=6))
    assert sim.hit_rate >= 0.95, f"hit rate {sim.hit_rate}"
    comparison = evaluate_methods(online, catalog, vms, table, seed=6)
    by = dict(zip(comparison.methods, comparison.totals))
    assert by["per_period_ga"] <= by["pipeline"] + 1e-9, by
    assert by["pipeline"] <= by["static_peak"] + 1e-9, by
    report(6, f"hit_rate={sim.hit_rate:.2f}, "
              f"{by['per_period_ga']:.4g} <= {by['pipeline']:.4g} <= {by['static_peak']:.4g}",
           time.perf_counter() - start, 300.0)


def test_criterion_7_miss_recycling(catalog, vms):
    """Twenty consecutive novel periods fill the default-size buffer and
    fire exactly one recluster; ten more identical novel periods then hit
    from the table with score >= 0.99."""
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    centers = separated_centers(rng, modes=10, services=5)
    sigma = 0.05 * float(centers.mean())
    train = generate_trace(SyntheticSpec(mode_centers=centers, noise_sigma=sigma,
                                         periods=100, seed=71), catalog)
    table, _ = build_offline(train, catalog, vms, k_range=(2, 15), seed=7)

    novel = np.array([138, 109, 19, 270, 15])
    probe = demand_for_period(novel, catalog)
    scores = [pearson(probe.values, e.pattern) for e in table.entries]
    assert max(scores) < 0.7, f"fixture not novel enough: {max(scores):.3f}"

    online = WorkloadTrace(np.tile(novel, (30, 1)))
    sim = run_online(table, online, catalog, vms,
                     miss_policy=MissPolicy(buffer_size=20, seed=7))
    assert sim.recluster_events == 1, sim.recluster_events
    assert all(not r.hit for r in sim.records[:20])
    tail = sim.records[20:]
    assert len(tail) == 10
    assert all(r.hit and r.source == "table" and r.score >= 0.99 for r in tail)
    report(7, "one recluster event; 10/10 follow-up periods hit at score 1.0",
           time.perf_counter() - start, 60.0)


def test_criterion_8_cli_determinism(tmp_path):
    """`build` and `run` with fixed seeds produce byte-identical table and
    report files across two invocations."""
    start = time.perf_counter()
    services = tmp_path / "services.csv"
    services.write_text("1,1,2\n1,2,1\n2,1,2\n1,1,1\n2,2,1\n")
    vm_file = tmp_path / "vms.csv"
    vm_file.write_text("small,200,200,300,1.0\nmedium,300,400,300,1.6\n"
                       "large,600,600,700,2.9\n")
    trace = tmp_path / "trace.csv"
    assert cli_main(["gen", "--services", "5", "--periods", "100", "--modes", "10",
                     "--seed", "41", "--out", str(trace)]) == 0

    artifacts = {}
    for run in ("one", "two"):
        build_dir = tmp_path / f"build_{run}"
        run_dir = tmp_path / f"run_{run}"
        assert cli_main(["build", "--trace", str(trace), "--catalog", str(services),
                         "--vm-catalog", str(vm_file), "--out", str(build_dir),
                         "--seed", "8"]) == 0
        assert cli_main(["run", "--trace", str(trace), "--catalog", str(services),
                         "--vm-catalog", str(vm_file),
                         "--table", str(build_dir / "table.json"),
                         "--out", str(run_dir), "--seed", "8"]) == 0
        artifacts[run] = {
            "table.json": (build_dir / "table.json").read_bytes(),
            "offline_report.csv": (build_dir / "offline_report.csv").read_bytes(),
            "index_table.csv": (build_dir / "index_table.csv").read_bytes(),
            "dendrogram.csv": (build_dir / "dendrogram.csv").read_bytes(),
            "simulation.csv": (run_dir / "simulation.csv").read_bytes(),
        }
    for name in artifacts["one"]:
        assert artifacts["one"][name] == artifacts["two"][name], f"{name} differs"
    report(8, "table + all report files byte-identical across reruns",
           time.perf_counter() - start, 120.0)
