"""Packing solvers: GA, greedy baselines, brute-force oracle, verifier."""

import dataclasses
import hashlib
import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from packwise import (
    DemandVector,
    GaParams,
    PackingSolution,
    ServiceCatalog,
    TraceParseError,
    VmInstance,
    VmType,
    best_fit_pack,
    brute_force_pack,
    catalog_fingerprint,
    demand_for_period,
    evaluate_genome,
    first_fit_pack,
    ga_pack,
    load_vm_catalog,
    mix_lower_bound,
    save_vm_catalog,
    verify_solution,
)
from packwise import packing
from packwise.packing import (
    BOUND_BUDGET,
    FEASIBILITY_TOL,
    _evaluate_population,
    _mix_price,
    _price_bound,
    default_max_instances,
    feasibility_violations,
    ga_evolve,
    period_hours,
    solution_cost,
)

from conftest import tiny_instance


def make_demand(per_dim):
    return DemandVector(per_dim)


@pytest.fixture
def one_type():
    return [VmType("only", np.array([10.0, 10.0]), 2.0)]


# Modes 0 and 3 of `packwise gen --seed 1` (the README quickstart).
QUICKSTART_MODES = ((105, 112, 156, 192, 26), (94, 136, 119, 35, 24))


def pinned_instances(catalog, vms):
    """(name, demand, vm_catalog) for the fixed-seed GA pin: the README
    catalogs at 1x and 2x a quickstart mode, a random 20-service catalog, a
    tiny instance, an infeasible lopsided one, and two catalogs whose
    prices tie different mixes: 8 x 1.0 = 5 x 1.6, and 0.1 + 0.2 against
    0.3."""
    rng = np.random.default_rng(2020)
    wide = ServiceCatalog(rng.integers(1, 4, size=(20, 3)).astype(float))
    wide_counts = rng.integers(5, 60, size=20)
    mode0, mode3 = (np.array(m) for m in QUICKSTART_MODES)
    return [
        ("mode0-1x", demand_for_period(mode0, catalog), vms),
        ("mode0-2x", demand_for_period(2 * mode0, catalog), vms),
        ("mode3-1x", demand_for_period(mode3, catalog), vms),
        ("wide-20", demand_for_period(wide_counts, wide), vms),
        ("tiny-5", *tiny_instance(5)),
        ("lopsided", make_demand([[50.0, 0.0]]),
         [VmType("lopsided", np.array([1.0, 99.0]), 1.0)]),
        ("tie-8x5", make_demand(TIE_8X5_DEMAND),
         [VmType("a", np.array([50.0, 50.0]), 1.0), VmType("b", np.array([80.0, 80.0]), 1.6)]),
        ("tie-0.3", make_demand([[12.0], [9.0], [9.0]]),
         [VmType("p1", np.array([10.0]), 0.1), VmType("p2", np.array([20.0]), 0.2),
          VmType("p3", np.array([30.0]), 0.3)]),
    ]


# 16 services whose first dimension pairs up to 50, 400 in all: eight a's
# or five b's cover it, at the same price.
TIE_8X5_DEMAND = [[30, 25], [20, 22], [26, 30], [24, 18], [28, 20], [22, 25], [25, 24],
                  [25, 21], [30, 26], [20, 24], [27, 22], [23, 28], [29, 19], [21, 26],
                  [24, 20], [26, 25]]


def ga_fingerprint(solution, trace):
    """Type ids, assignment bytes, exact cost and a hash of the full
    best-fitness trace: equal fingerprints mean bit-identical GA output."""
    return (
        tuple(inst.vm_type.id for inst in solution.instances),
        b"".join(inst.assignment.tobytes() for inst in solution.instances).hex(),
        repr(solution.total_cost),
        solution.feasible,
        hashlib.sha256(repr(trace).encode()).hexdigest(),
    )


# Seven 0.1 instances in ten slots over 60-s periods: their slot-order
# float cost depends on which slots hold them, while their mix price does
# not, so a run stops at the bound with the arrangement it found first.
FLOAT_ORDER = (make_demand([[0.0, 0.0, 0.0], [0.0, 278.4, 626.4]]),
               [VmType("t0", np.array([52.0, 58.0, 99.0]), 0.1)], 60.0)


# ga_fingerprint of ga_evolve(demand, vms, GaParams(), seed=seed) per
# (instance, seed). Any change to the GA's draws or float reductions moves
# these; a rewrite that claims identical output must leave them alone. The
# trace hashes of mode0-1x, mode3-1x and tiny-5 are those of runs that stop
# at the cost lower bound; their solutions are those of the full
# 300-generation runs, as are the tie cases' solutions.
PINNED_GA = {
    ("mode0-1x", 0): (
        ("large", "small"),
        "01010101010100000101",
        "0.6499999999999999", True,
        "2d44f6199f25c5d97d1c66fc2aaf2cf9117790aee9ba2efaec0c58446769eacd"),
    ("mode0-1x", 7): (
        ("large", "small"),
        "01010100010000000100",
        "0.6499999999999999", True,
        "1768485f4100022a321e523f4e549eedb11af8bb25d71be1ad04de1b7ecba67f"),
    ("mode0-2x", 0): (
        ("large", "large", "small", "medium"),
        "0101010001000101010001000000000001000100",
        "1.4", True,
        "2a8539790d51b83e99423f00acbad9e944ae4eed9a0380b99fabd6f708cfbe24"),
    ("mode0-2x", 7): (
        ("medium", "small", "large", "large"),
        "0101000101010000010001010101010101010101",
        "1.4", True,
        "56408b89eb646a3e1fa97e5bc5cd87c81bc85a7e8d295e8947be29c4cfe17e16"),
    ("mode3-1x", 0): (
        ("large",),
        "0101010101",
        "0.4833333333333333", True,
        "683a81149c6bd63769bd07686698eca02e698a2bba85afdcd4f8e7cbcf635e20"),
    ("mode3-1x", 7): (
        ("large",),
        "0101010101",
        "0.4833333333333333", True,
        "d420a3ed87c9bed37e4f205082a3b873dfbf08ba60eac5e1769b9ce5e101ffde"),
    ("wide-20", 0): (
        ("medium", "large", "large"),
        "0101000100000100010000010000010101000000010101000100000101010100"
        "01010101010001000001010100010001010001010000010100010101",
        "1.2333333333333334", True,
        "860855c2fc94f7bcac0d915c66498cfc22471b1ff5c247969a005cdbb72a4b63"),
    ("wide-20", 7): (
        ("large", "medium", "large"),
        "0001010001000001000001010100010001010101010000000000000000010101"
        "01010001010001000001010101010101010000010101000000010001",
        "1.2333333333333334", True,
        "e76a8e5c5242fd584054f9b39319a9a2102ec8dcf42ecfc70e148ea48b409070"),
    ("tiny-5", 0): (
        ("t0",),
        "010101",
        "0.2033333333333333", True,
        "bd6d7ee96ca891e535eee48a44924e6dd2fff517c08026135444b07ff2f3c08a"),
    ("tiny-5", 7): (
        ("t0",),
        "010101",
        "0.2033333333333333", True,
        "bd6d7ee96ca891e535eee48a44924e6dd2fff517c08026135444b07ff2f3c08a"),
    ("lopsided", 0): (
        ("lopsided", "lopsided"),
        "0101",
        "0.3333333333333333", False,
        "be5c183ca9b8ce48e527dff99b9fd6f0870f56470bfc00ae0fe2cbd815fb8613"),
    ("lopsided", 7): (
        ("lopsided", "lopsided"),
        "0101",
        "0.3333333333333333", False,
        "be5c183ca9b8ce48e527dff99b9fd6f0870f56470bfc00ae0fe2cbd815fb8613"),
    ("tie-8x5", 0): (
        ("a", "a", "a", "a", "a", "a", "a", "a", "a"),
        "0000010000000000000000000000010000000000000000000101000000000000"
        "0101000000000000000000000000000000000000000000000000010100000000"
        "0000000000010000000000000000000100000000000001000000000000010000"
        "0000000001000000000000000000000000000000000000000000000001000000"
        "00000001000000010000000000000000",
        "1.5", True,
        "f9d2dfac248625ff1fba8e2e0016d643634916eaa19ee43c2b9d0c03e959f025"),
    ("tie-8x5", 7): (
        ("a", "a", "a", "a", "a", "a", "a", "a", "a"),
        "0000010000000000000000000000010000000000000000000101000000000000"
        "0101000000000000000000000000000000000000000000000000010100000000"
        "0000000000010000000000000000000100000000000001000000000000010000"
        "0000000001000000000000000000000000000000000000000000000001000000"
        "00000001000000010000000000000000",
        "1.5", True,
        "f9d2dfac248625ff1fba8e2e0016d643634916eaa19ee43c2b9d0c03e959f025"),
    ("tie-0.3", 0): (
        ("p3",),
        "010101",
        "0.049999999999999996", True,
        "680a01892eb0074821db56aedc8f2952210fb9e2cfe0ebf06da9037d8af3c500"),
    ("tie-0.3", 7): (
        ("p3",),
        "010101",
        "0.049999999999999996", True,
        "680a01892eb0074821db56aedc8f2952210fb9e2cfe0ebf06da9037d8af3c500"),
}


class TestTypes:
    def test_vm_type_needs_positive_capacity_somewhere(self):
        with pytest.raises(ValueError):
            VmType("z", np.array([0.0, 0.0]), 1.0)

    def test_vm_type_needs_positive_cost(self):
        with pytest.raises(ValueError):
            VmType("z", np.array([1.0]), 0.0)

    @pytest.mark.parametrize("capacity, cost", [
        ([1.0, np.nan], 1.0),
        ([1.0, np.inf], 1.0),
        ([np.nan, np.nan], 1.0),
        ([1.0, 1.0], float("nan")),
        ([1.0, 1.0], float("inf")),
    ])
    def test_vm_type_needs_finite_numbers(self, capacity, cost):
        with pytest.raises(ValueError, match="finite"):
            VmType("z", np.array(capacity), cost)

    def test_instance_bits_binary(self, one_type):
        for bad in ([0, 2], [0, -1], [0.5, 1.0]):
            with pytest.raises(ValueError):
                VmInstance(one_type[0], np.array(bad))

    def test_ga_params_ranges(self):
        with pytest.raises(ValueError):
            GaParams(population=2)

    @pytest.mark.parametrize("name", ["population", "generations", "max_instances"])
    @pytest.mark.parametrize("value", [2.5, 80.5, 0, float("nan"), float("inf")])
    def test_ga_params_refuse_non_integer_budgets(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            GaParams(**{name: value})

    def test_operator_rates_are_constants(self):
        # The GA's rates and elitism are module constants, and its seed is
        # the caller's argument: none of them is a parameter.
        assert [f.name for f in dataclasses.fields(GaParams)] == [
            "population", "generations", "max_instances"]
        for name in ("crossover_rate", "mutation_rate", "elitism", "seed"):
            with pytest.raises(TypeError):
                GaParams(**{name: 0.9})

    def test_max_instances_below_lower_bound_rejected(self, one_type):
        demand = make_demand([[50.0, 50.0]])
        with pytest.raises(ValueError, match="lower bound"):
            ga_pack(demand, one_type, GaParams(max_instances=1))


class TestEvaluateGenome:
    def test_zero_demand_empty_genome(self, one_type):
        demand = make_demand([[0.0, 0.0]])
        cost, violation = evaluate_genome([-1], [[0]], demand, one_type)
        assert cost == 0.0 and violation == 0.0

    def test_oversized_service_violates(self, one_type):
        demand = make_demand([[25.0, 3.0]])
        cost, violation = evaluate_genome([0], [[1]], demand, one_type)
        assert violation > 0

    def test_uncovered_service_counts_its_demand(self, one_type):
        demand = make_demand([[4.0, 4.0]])
        _, violation = evaluate_genome([-1], [[1]], demand, one_type)
        assert violation == pytest.approx(8.0)

    def test_three_instance_ten_minute_cost(self):
        # Three machines priced c1, c2, c3 per hour for a 10-minute
        # period cost (c1+c2+c3)/6.
        c1, c2, c3 = 1.0, 2.0, 3.0
        vms = [VmType("a", np.array([100.0]), c1),
               VmType("b", np.array([100.0]), c2),
               VmType("c", np.array([100.0]), c3)]
        demand = make_demand([[5.0], [5.0], [5.0], [5.0], [5.0]])
        genome_bits = [[0, 1, 1, 0, 0], [1, 1, 1, 0, 0], [1, 0, 0, 1, 1]]
        cost, violation = evaluate_genome([0, 1, 2], genome_bits, demand, vms,
                                          period_seconds=600)
        assert cost == pytest.approx((c1 + c2 + c3) / 6)
        assert violation == 0.0

    def test_matches_vectorized_twin(self):
        # The GA's batched arithmetic must agree with the loop reference.
        rng = np.random.default_rng(42)
        for _ in range(25):
            demand, vms = tiny_instance(int(rng.integers(10_000)))
            S, d = demand.service_count, demand.dimension_count
            M = 3
            types = rng.integers(-1, len(vms), size=(8, M))
            bits = rng.integers(0, 2, size=(8, M, S), dtype=np.uint8)
            caps = np.vstack([t.capacity for t in vms] + [np.zeros(d)])
            costs = np.array([t.hourly_cost for t in vms] + [0.0])
            fit, cost, viol = _evaluate_population(
                types, bits, demand.per_dim, demand.values, caps, costs,
                600 / 3600, 1.0)
            for p in range(8):
                c_ref, v_ref = evaluate_genome(types[p].tolist(), bits[p].tolist(),
                                               demand, vms)
                assert cost[p] == pytest.approx(c_ref, rel=1e-12, abs=1e-12)
                assert viol[p] == pytest.approx(v_ref, rel=1e-9, abs=1e-9)


# sha256 of the (fitness, cost, violation) bytes _evaluate_population returns
# for a seeded random population, per (S, M, d): pins its summation order.
PINNED_POPULATION_SUMS = {
    (5, 6, 3): "c552371812eb9de3988b8d3927b0c7d19501086783b95a17a5f7a66d3d577b5e",
    (20, 10, 3): "e91a69ba24a03244f7c2b08c6956a043ed11c8469c92a2b62702da1c98a56632",
    (12, 8, 1): "0e5a6bc6fd789df6eef2e5d757cdf6468e84638faca628185df9fe825aaa0707",
    (8, 4, 2): "dd5cdfbb283b133278a2ac5249a7e48069dc18f9be2a9a346c5038d28e54b284",
    (3, 1, 1): "95f7cd110e749fd2c190ea27f940ed89ab8a2dc0fd41becc4be931ce4ad81c02",
}


@st.composite
def populations(draw):
    """A catalog, a demand with zero-demand services, and a population whose
    slots are off, active but empty, hosting all services (so services split
    across slots) or random; a service no active slot hosts is uncovered."""
    S, M, P = draw(st.integers(1, 20)), draw(st.integers(1, 10)), draw(st.integers(1, 16))
    d, T = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    amount = st.one_of(st.integers(0, 300).map(float),
                       st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False))
    row = st.lists(amount, min_size=d, max_size=d)
    per_dim = np.array(draw(st.lists(st.one_of(st.just([0.0] * d), row),
                                     min_size=S, max_size=S)))
    cap = st.lists(st.floats(1.0, 1000.0), min_size=d, max_size=d).map(np.array)
    vms = [VmType(f"t{j}", draw(cap), draw(st.floats(0.1, 10.0))) for j in range(T)]
    kinds = np.array(draw(st.lists(st.sampled_from(["off", "empty", "all", "random"]),
                                   min_size=P * M, max_size=P * M))).reshape(P, M)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    types = np.where(kinds == "off", -1, rng.integers(0, T, size=(P, M)))
    bits = rng.integers(0, 2, size=(P, M, S), dtype=np.uint8)
    bits[kinds == "empty"] = 0
    bits[kinds == "all"] = 1
    return make_demand(per_dim), vms, types, bits


def population_sums_digest(S, M, d):
    rng = np.random.default_rng(1000 * S + 10 * M + d)
    T, P = 3, 80
    per_dim = rng.uniform(0.0, 400.0, size=(S, d)) * (rng.random((S, 1)) < 0.8)
    caps = np.vstack([rng.uniform(100.0, 900.0, size=(T, d)), np.zeros(d)])
    costs = np.append(rng.uniform(0.5, 3.0, size=T), 0.0)
    types = rng.integers(-1, T, size=(P, M))
    bits = (rng.random((P, M, S)) < 0.3).astype(np.uint8)
    out = _evaluate_population(types, bits, per_dim, per_dim.sum(axis=1), caps, costs,
                               600 / 3600, 2.9e4)
    return hashlib.sha256(np.concatenate(out).tobytes()).hexdigest()


class TestEvaluatePopulationAgainstScalarOracle:
    def test_summation_order_pinned(self):
        got = {shape: population_sums_digest(*shape) for shape in PINNED_POPULATION_SUMS}
        assert got == PINNED_POPULATION_SUMS

    @settings(max_examples=200, deadline=None)
    @given(populations())
    def test_cost_and_violation(self, case):
        demand, vms, types, bits = case
        d = demand.dimension_count
        caps = np.vstack([t.capacity for t in vms] + [np.zeros(d)])
        costs = np.array([t.hourly_cost for t in vms] + [0.0])
        _, cost, viol = _evaluate_population(types, bits, demand.per_dim, demand.values,
                                             caps, costs, 600 / 3600, 1.0)
        for p in range(len(types)):
            c_ref, v_ref = evaluate_genome(types[p].tolist(), bits[p].tolist(), demand, vms)
            assert cost[p] == pytest.approx(c_ref, rel=1e-12, abs=1e-12)
            assert viol[p] == pytest.approx(v_ref, rel=1e-9, abs=1e-9)


class TestGaPack:
    def test_zero_demand_empty_solution(self, one_type):
        demand = make_demand([[0.0, 0.0]])
        sol = ga_pack(demand, one_type)
        assert sol.instances == () and sol.total_cost == 0.0 and sol.feasible

    def test_exact_fit_single_instance(self):
        vms = [VmType("snug", np.array([10.0]), 1.0)]
        demand = make_demand([[10.0]])
        sol = ga_pack(demand, vms, GaParams(generations=50), seed=0)
        assert sol.feasible
        assert sol.instance_count == 1
        assert sol.instances[0].vm_type.id == "snug"

    def test_near_oracle_on_tiny_instances(self):
        hits = 0
        for seed in range(25):
            demand, vms = tiny_instance(seed)
            oracle = brute_force_pack(demand, vms, 3)
            assert oracle.feasible
            sol = ga_pack(demand, vms, GaParams(max_instances=3), seed=seed)
            assert sol.feasible
            assert verify_solution(sol, demand)
            if sol.total_cost <= 1.10 * oracle.total_cost + 1e-12:
                hits += 1
        assert hits >= 24

    def test_deterministic(self):
        demand, vms = tiny_instance(5)
        a = ga_pack(demand, vms, seed=9)
        b = ga_pack(demand, vms, seed=9)
        assert a.total_cost == b.total_cost
        assert all(x.vm_type.id == y.vm_type.id and np.array_equal(x.assignment, y.assignment)
                   for x, y in zip(a.instances, b.instances))

    def test_dimension_imbalance_returns_infeasible(self):
        # Capacity lives in the second dimension, demand in the first:
        # no slot count within the budget can absorb it.
        vms = [VmType("lopsided", np.array([1.0, 99.0]), 1.0)]
        demand = make_demand([[50.0, 0.0]])
        sol = ga_pack(demand, vms, GaParams(generations=40), seed=1)
        assert not sol.feasible

    def test_demand_within_tolerance_still_gets_a_host(self):
        # verify_solution rejects any uncovered service with positive demand,
        # so the GA must not count the empty packing of 5e-10 as feasible.
        vms = [VmType("unit", np.array([1.0]), 1.0)]
        demand = make_demand([[5e-10]])
        solution, _ = ga_evolve(demand, vms, GaParams(generations=20), seed=0)
        assert solution.feasible and solution.instance_count == 1
        assert verify_solution(solution, demand)

    def test_fixed_seed_outputs_pinned(self, five_service_catalog, three_vm_catalog):
        got = {}
        for name, demand, vms in pinned_instances(five_service_catalog, three_vm_catalog):
            for seed in (0, 7):
                got[name, seed] = ga_fingerprint(*ga_evolve(demand, vms, GaParams(), seed=seed))
        assert got == PINNED_GA

    def test_certified_run_stops_early(self, five_service_catalog, three_vm_catalog):
        cases = {name: (demand, vms) for name, demand, vms
                 in pinned_instances(five_service_catalog, three_vm_catalog)}
        demand, vms = cases["mode3-1x"]
        solution, trace = ga_evolve(demand, vms, GaParams(), seed=0)
        assert len(trace) < GaParams().generations
        assert solution.total_cost == mix_lower_bound(demand, vms)
        # Infeasible: nothing reaches the bound, so every generation runs.
        demand, vms = cases["lopsided"]
        solution, trace = ga_evolve(demand, vms, GaParams(generations=40), seed=1)
        assert not solution.feasible and len(trace) == 40

    @pytest.mark.parametrize("name,params", [
        ("mode0-1x", dict(seed=7)), ("mode3-1x", dict(seed=0)), ("tie-0.3", dict(seed=0)),
        ("tiny-5", dict(seed=3)), ("wide-20", dict(seed=1, generations=60)),
        ("float-order", dict(seed=711, population=4)), ("tie-60", dict(seed=0)),
    ])
    def test_stop_keeps_the_full_run_result(self, name, params, monkeypatch,
                                            five_service_catalog, three_vm_catalog):
        cases = {n: (d, v, 600.0) for n, d, v
                 in pinned_instances(five_service_catalog, three_vm_catalog)}
        cases["float-order"] = FLOAT_ORDER
        # 0.3 + 0.3 covers 60, and so does 0.1 + 0.2 + 0.3, whose float sum
        # depends on the order its prices are added in.
        cases["tie-60"] = (make_demand([[30.0], [30.0]]), cases["tie-0.3"][1], 600.0)
        demand, vms, period = cases[name]
        budget = {"generations": 100, **params}
        seed = budget.pop("seed")
        ga = GaParams(**budget)
        stopped = ga_evolve(demand, vms, ga, period, seed=seed)
        monkeypatch.setattr(packing, "_price_bound", lambda *a: -math.inf)
        full = ga_evolve(demand, vms, ga, period, seed=seed)
        assert ga_fingerprint(*stopped)[:4] == ga_fingerprint(*full)[:4]
        assert stopped[1] == full[1][:len(stopped[1])]
        if name != "wide-20":   # whose champion ends above the bound
            assert len(stopped[1]) < ga.generations

    def test_seeds_from_greedy_genomes_not_the_public_packers(
            self, monkeypatch, five_service_catalog, three_vm_catalog):
        cases = pinned_instances(five_service_catalog, three_vm_catalog)
        want = [ga_fingerprint(*ga_evolve(demand, vms, GaParams(), seed=7))
                for _, demand, vms in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("ga_evolve called a public greedy packer")

        monkeypatch.setattr(packing, "first_fit_pack", refuse)
        monkeypatch.setattr(packing, "best_fit_pack", refuse)
        got = [ga_fingerprint(*ga_evolve(demand, vms, GaParams(), seed=7))
               for _, demand, vms in cases]
        assert got == want

    def test_bound_past_its_budget_costs_next_to_nothing(self, monkeypatch):
        # Six power-of-two types priced by size, 500 units of demand: about
        # 1e9 covering mixes, far past BOUND_BUDGET, so the run takes the
        # fractional bound and costs what a run without any bound does.
        vms = [VmType(f"c{s}", np.array([float(s)]), float(s)) for s in (1, 2, 4, 8, 16, 32)]
        demand = make_demand([[125.0]] * 4)
        params = GaParams(generations=40)
        runs = {packing._price_bound: [], (lambda *a: -math.inf): []}
        for _ in range(5):    # alternating, so load on the host slows both alike
            for bound, times in runs.items():
                monkeypatch.setattr(packing, "_price_bound", bound)
                start = time.perf_counter()
                output = ga_fingerprint(*ga_evolve(demand, vms, params))
                times.append((time.perf_counter() - start, output))
        (with_bound, output), (without_bound, unbounded) = (min(t) for t in runs.values())
        assert with_bound < 1.5 * without_bound
        assert output == unbounded

    def test_best_fitness_trace_nonincreasing(self):
        for seed in (0, 3, 8):
            demand, vms = tiny_instance(seed + 100)
            _, trace = ga_evolve(demand, vms, GaParams(generations=80), seed=seed)
            assert np.all(np.diff(np.array(trace)) <= 1e-12)

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            ga_pack(make_demand([[1.0]]), [])

    def test_default_slot_budget(self, one_type):
        demand = make_demand([[30.0, 30.0]])
        # total demand 60, largest type total capacity 20 -> 2 * ceil(3) = 6.
        assert default_max_instances(demand, one_type) == 6
        assert default_max_instances(make_demand([[0.0, 0.0]]), one_type) == 0


def milp_bound(demand, vms, period_seconds=600.0):
    """mix_lower_bound's covering ILP solved by HiGHS: min cost @ n over
    integer n >= 0 with credit.T @ n >= need, where credit is capacity plus
    FEASIBILITY_TOL in the dimensions a type has capacity in, over the
    dimensions that need more than FEASIBILITY_TOL."""
    caps = np.vstack([t.capacity for t in vms])
    costs = np.array([t.hourly_cost for t in vms])
    need = demand.per_dim.sum(axis=0)
    pos = need > FEASIBILITY_TOL
    if not pos.any():
        return 0.0
    credit = np.where(caps > 0, caps + FEASIBILITY_TOL, 0.0)[:, pos]
    res = milp(costs, constraints=LinearConstraint(credit.T, lb=need[pos]),
               integrality=np.ones(len(vms)), bounds=Bounds(0, np.inf),
               options={"mip_rel_gap": 0})
    if res.status == 2:
        return math.inf
    assert res.success, res.message
    n = np.round(res.x)
    assert np.all(n @ credit >= need[pos])
    return float(n @ costs) * period_hours(period_seconds)


def within_budget(demand, vms):
    """Whether mix_lower_bound enumerates (and is exact): the widest type's
    count range and the product of the others' stay within BOUND_BUDGET."""
    caps = np.vstack([t.capacity for t in vms])
    need = demand.per_dim.sum(axis=0)
    pos = need > FEASIBILITY_TOL
    with np.errstate(divide="ignore"):
        alone = np.ceil(need[pos] / np.where(caps > 0, caps + FEASIBILITY_TOL, 0.0)[:, pos])
    widths = sorted((np.where(np.isinf(alone), 0.0, alone).max(axis=1, initial=0.0) + 1).tolist())
    return widths[-1] <= BOUND_BUDGET and math.prod(widths[:-1]) <= BOUND_BUDGET


@st.composite
def covering_problems(draw):
    """T 1-4 types with integer capacities, some of them zero, and prices
    that tie mixes; S 1-4 services of d 1-4 dimensions with integer
    demands, zero-demand services among them. A positive dimension total
    may sit FEASIBILITY_TOL / 2 above an integer, which only the tolerance
    credit covers. Demands stay integers or that close to one, so HiGHS's
    own feasibility tolerance decides nothing."""
    T, d, S = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    vms = []
    for t in range(T):
        cap = draw(st.lists(st.sampled_from([0, 0, 3, 7, 10, 25, 40, 64]), min_size=d, max_size=d))
        cap[t % d] = max(cap[t % d], 1)
        price = draw(st.sampled_from([0.1, 0.2, 0.3, 1.0, 1.6, 2.9, 0.37]))
        vms.append(VmType(f"t{t}", np.array(cap, dtype=float), price))
    rows = st.lists(st.integers(0, 120), min_size=d, max_size=d)
    per_dim = np.array(draw(st.lists(st.one_of(st.just([0] * d), rows),
                                     min_size=S, max_size=S)), dtype=float)
    if draw(st.booleans()):
        per_dim[-1, per_dim.sum(axis=0) >= 1] += FEASIBILITY_TOL / 2
    return make_demand(per_dim), vms


class TestMixLowerBound:
    @settings(max_examples=300, deadline=None)
    @given(covering_problems())
    def test_matches_milp(self, case):
        demand, vms = case
        got, want = mix_lower_bound(demand, vms), milp_bound(demand, vms)
        if math.isinf(want):
            assert got == math.inf
        elif within_budget(demand, vms):
            assert got == pytest.approx(want, rel=1e-9, abs=0)
        else:
            assert 0 < got <= want

    def test_below_every_feasible_packing(self):
        for seed in range(30):
            demand, vms = tiny_instance(seed)
            bound = mix_lower_bound(demand, vms)
            packings = [brute_force_pack(demand, vms, 3), first_fit_pack(demand, vms),
                        best_fit_pack(demand, vms),
                        ga_pack(demand, vms, GaParams(max_instances=3), seed=seed),
                        ga_pack(demand, vms, seed=seed)]
            assert packings[0].feasible
            for sol in packings:
                if sol.feasible:
                    assert bound <= sol.total_cost

    def test_zero_demand_and_no_covering_mix(self, one_type):
        assert mix_lower_bound(make_demand([[0.0, 0.0]]), one_type) == 0.0
        lopsided = [VmType("lopsided", np.array([1.0, 0.0]), 1.0)]
        assert mix_lower_bound(make_demand([[0.0, 5.0]]), lopsided) == math.inf
        assert _price_bound(make_demand([[0.0, 5.0]]), lopsided) == math.inf

    def test_mix_price_is_one_per_mix_and_monotone(self):
        # What the GA's stop rests on: a row prices the same alone as among
        # others, and adding instances never lowers a price.
        rng = np.random.default_rng(5)
        costs = np.array([0.1, 0.2, 0.3, 1.6, 2.9, 0.37, 0.7, 1.1, 0.05])
        small = rng.integers(0, 40, size=(2000, costs.size))
        big = small + rng.integers(0, 3, size=small.shape)
        prices = _mix_price(small, costs)
        assert np.all(_mix_price(big, costs) >= prices)
        assert [_mix_price(row[None], costs)[0] for row in small[:100]] == prices[:100].tolist()

    def test_dimension_within_tolerance_needs_no_capacity(self):
        # 5e-10 of the second dimension fits in the feasibility tolerance, so
        # the cheap type without capacity there is a feasible packing alone.
        vms = [VmType("A", np.array([10.0, 0.0]), 1.0), VmType("B", np.array([10.0, 10.0]), 2.0)]
        demand = make_demand([[5.0, 5e-10]])
        assert mix_lower_bound(demand, vms) == period_hours(600.0)
        solution, _ = ga_evolve(demand, vms, GaParams(), seed=0)
        assert solution.feasible and solution.total_cost == period_hours(600.0)
        assert [inst.vm_type.id for inst in solution.instances] == ["A"]
        assert milp_bound(demand, vms) == period_hours(600.0)

    def test_past_the_budget_falls_back_to_the_fractional_bound(self):
        # 500 units over six power-of-two types priced by size: the cheapest
        # mix costs 500 per hour; enumerating would take about 1e9 mixes.
        vms = [VmType(f"c{s}", np.array([float(s)]), float(s)) for s in (1, 2, 4, 8, 16, 32)]
        demand = make_demand([[125.0]] * 4)
        assert not within_budget(demand, vms)
        bound = _price_bound(demand, vms)
        assert bound == pytest.approx(500.0, rel=1e-8) and bound <= 500.0
        # Within the budget the same catalog is enumerated, and exact.
        demand = make_demand([[10.0]] * 4)
        assert within_budget(demand, vms)
        assert _price_bound(demand, vms) == 40.0

    def test_enumeration_past_half_the_budget(self):
        # The two types beside the widest range span 251 x 168 = 42,168
        # mixes, more than half of BOUND_BUDGET, all priced in one pass.
        vms = [VmType("a", np.array([1.0]), 1.0), VmType("b", np.array([1.5]), 1.45),
               VmType("c", np.array([0.9]), 0.88)]
        demand = make_demand([[250.0]])
        assert within_budget(demand, vms)
        bound = _price_bound(demand, vms)
        assert repr(bound) == "241.7"
        assert mix_lower_bound(demand, vms, 600.0) == pytest.approx(milp_bound(demand, vms),
                                                                    rel=1e-9, abs=0)


class TestGreedy:
    def test_zero_demand_empty(self, one_type, five_service_catalog):
        demand = demand_for_period([0, 0, 0, 0, 0], five_service_catalog)
        vms = [VmType("a", np.array([10.0, 10.0, 10.0]), 1.0)]
        assert first_fit_pack(demand, vms).instances == ()
        assert best_fit_pack(demand, vms).instances == ()

    def test_single_service_cheapest_fit(self):
        vms = [VmType("cheap", np.array([10.0]), 1.0),
               VmType("pricey", np.array([100.0]), 9.0)]
        sol = first_fit_pack(make_demand([[8.0]]), vms)
        assert sol.instance_count == 1
        assert sol.instances[0].vm_type.id == "cheap"
        assert sol.feasible

    def test_single_service_best_equals_first(self):
        demand, vms = tiny_instance(201)
        single = make_demand(demand.per_dim[:1])
        ff = first_fit_pack(single, vms)
        bf = best_fit_pack(single, vms)
        assert ff.total_cost == bf.total_cost
        assert [i.vm_type.id for i in ff.instances] == [i.vm_type.id for i in bf.instances]

    def test_decreasing_order_and_first_placement(self):
        vms = [VmType("bin", np.array([10.0]), 1.0)]
        demand = make_demand([[6.0], [7.0], [3.0]])
        sol = first_fit_pack(demand, vms)
        # Order by size: s1 (7), s0 (6), s2 (3); s2 lands with s1 (7+3=10).
        assert sol.instance_count == 2
        assert np.array_equal(sol.instances[0].assignment, [0, 1, 1])
        assert np.array_equal(sol.instances[1].assignment, [1, 0, 0])

    def test_best_fit_prefers_tightest(self):
        vms = [VmType("ten", np.array([10.0]), 1.0), VmType("sixteen", np.array([16.0]), 1.4)]
        # s0 (11) only fits the sixteen (slack 5); s1 (7) opens a ten
        # (slack 3). s2 (2) fits both: first-fit takes the earlier sixteen,
        # best-fit the tighter ten.
        demand = make_demand([[11.0], [7.0], [2.0]])
        ff = first_fit_pack(demand, vms)
        bf = best_fit_pack(demand, vms)
        assert np.array_equal(ff.instances[0].assignment, [1, 0, 1])
        assert np.array_equal(bf.instances[0].assignment, [1, 0, 0])
        assert np.array_equal(bf.instances[1].assignment, [0, 1, 1])

    def test_oversized_service_flags_infeasible(self):
        vms = [VmType("tiny", np.array([5.0]), 1.0)]
        sol = first_fit_pack(make_demand([[50.0]]), vms)
        assert not sol.feasible

    def test_best_fit_no_worse_on_majority(self):
        wins = 0
        for seed in range(50):
            demand, vms = tiny_instance(seed + 300)
            if best_fit_pack(demand, vms).total_cost <= first_fit_pack(demand, vms).total_cost + 1e-12:
                wins += 1
        assert wins >= 26

    def test_ga_beats_first_fit_mostly(self, five_service_catalog, three_vm_catalog):
        rng = np.random.default_rng(7)
        wins = 0
        runs = 12
        for i in range(runs):
            counts = rng.integers(20, 200, size=5)
            demand = demand_for_period(counts, five_service_catalog)
            ga = ga_pack(demand, three_vm_catalog, seed=i)
            ff = first_fit_pack(demand, three_vm_catalog)
            assert ga.feasible
            if ga.total_cost <= ff.total_cost + 1e-12:
                wins += 1
        assert wins >= int(0.8 * runs)


# The greedy packers as they were written with one instance at a time,
# kept verbatim as the oracle of the array form in packing._greedy_genome.
def _fits(load, dem, capacity) -> bool:
    return bool((load + dem <= capacity + FEASIBILITY_TOL).all())


def _cheapest_fitting_type(dem, vm_catalog):
    fitting = [t for t in vm_catalog if (dem <= t.capacity + FEASIBILITY_TOL).all()]
    if not fitting:
        return None
    return min(fitting, key=lambda t: t.hourly_cost)


def _greedy_pack(demand: DemandVector, vm_catalog, choose, period_seconds) -> PackingSolution:
    if not vm_catalog:
        raise ValueError("vm_catalog is empty")
    packing._catalog_arrays(vm_catalog, demand.dimension_count)
    S = demand.service_count
    order = np.argsort(-demand.values, kind="stable")
    opened: list[list] = []  # [type, load, bits]
    feasible = True
    for s in order:
        if demand.values[s] == 0:
            continue
        dem = demand.per_dim[s]
        candidates = [i for i, (t, load, _) in enumerate(opened) if _fits(load, dem, t.capacity)]
        if candidates:
            i = choose(candidates, opened, dem)
            opened[i][1] = opened[i][1] + dem
            opened[i][2][s] = 1
            continue
        vm = _cheapest_fitting_type(dem, vm_catalog)
        if vm is None:
            # Nothing holds this service whole; place it on the roomiest
            # type anyway and report the solution infeasible.
            feasible = False
            vm = max(vm_catalog, key=lambda t: float(t.capacity.sum()))
        bits = np.zeros(S, dtype=np.uint8)
        bits[s] = 1
        opened.append([vm, dem.copy(), bits])
    instances = tuple(VmInstance(t, bits) for t, _, bits in opened)
    return PackingSolution(
        instances=instances,
        total_cost=solution_cost(instances, period_seconds),
        feasible=feasible,
    )


def oracle_first_fit(demand, vm_catalog, period_seconds=600.0):
    return _greedy_pack(demand, vm_catalog, lambda cands, _o, _d: cands[0], period_seconds)


def oracle_best_fit(demand, vm_catalog, period_seconds=600.0):
    def choose(cands, opened, dem):
        def slack(i):
            t, load, _ = opened[i]
            return float((t.capacity - load - dem).sum())
        return min(cands, key=slack)

    return _greedy_pack(demand, vm_catalog, choose, period_seconds)


@st.composite
def greedy_problems(draw):
    """Catalogs and demands built for ties: small integer and half-integer
    amounts tie in slack and in demand order, prices come from a short list,
    some capacity entries are zero, some services have zero demand, and
    some need more than any type has in a dimension."""
    S, T, d = draw(st.integers(1, 20)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    amount = st.one_of(st.integers(0, 12).map(float), st.integers(0, 24).map(lambda v: v / 2),
                       st.floats(0.0, 12.0, allow_nan=False, allow_infinity=False))
    row = st.lists(amount, min_size=d, max_size=d)
    per_dim = np.array(draw(st.lists(st.one_of(st.just([0.0] * d), row,
                                               row.map(lambda r: [v + 20.0 for v in r])),
                                     min_size=S, max_size=S)))
    vms = []
    for j in range(T):
        cap = draw(st.lists(st.one_of(st.just(0.0), st.integers(1, 16).map(float),
                                      st.floats(0.5, 16.0)), min_size=d, max_size=d))
        if max(cap) <= 0:
            cap[draw(st.integers(0, d - 1))] = 8.0
        vms.append(VmType(f"t{j}", np.array(cap), draw(st.sampled_from([1.0, 1.6, 2.0, 0.1]))))
    return make_demand(per_dim), vms


# Two types tied in price and an instance pair tied in slack; random draws
# reach such ties only now and then, so every run also packs this one.
TIED = (make_demand([[6.0], [6.0], [4.0]]),
        [VmType("a", np.array([10.0]), 1.0), VmType("b", np.array([10.0]), 1.0),
         VmType("c", np.array([20.0]), 1.0)])


class TestGreedyAgainstScalarOracle:
    @settings(max_examples=400, deadline=None)
    @given(greedy_problems())
    @example(TIED)
    def test_same_packing_as_one_instance_at_a_time(self, case):
        demand, vms = case
        for packer, oracle in ((first_fit_pack, oracle_first_fit),
                               (best_fit_pack, oracle_best_fit)):
            got, want = packer(demand, vms, 600.0), oracle(demand, vms, 600.0)
            assert [i.vm_type.id for i in got.instances] == [i.vm_type.id for i in want.instances]
            assert ([i.assignment.tobytes() for i in got.instances]
                    == [i.assignment.tobytes() for i in want.instances])
            assert repr(got.total_cost) == repr(want.total_cost)
            assert got.feasible == want.feasible

    def test_ties_go_to_the_first_instance_and_the_first_type(self):
        # 6 and 6 open one instance each; 4 leaves both with slack 0.
        demand, vms = TIED
        for packer in (first_fit_pack, best_fit_pack):
            sol = packer(demand, vms)
            assert [i.vm_type.id for i in sol.instances] == ["a", "a"]
            assert [i.assignment.tolist() for i in sol.instances] == [[1, 0, 1], [0, 1, 0]]
        # Nothing holds 30: the roomiest type takes it, the infeasible flag is set.
        sol = best_fit_pack(make_demand([[30.0]]), vms)
        assert [i.vm_type.id for i in sol.instances] == ["c"] and not sol.feasible


class TestBruteForce:
    def test_zero_demand(self, one_type):
        sol = brute_force_pack(make_demand([[0.0, 0.0]]), one_type, 3)
        assert sol.instances == () and sol.total_cost == 0.0 and sol.feasible

    def test_forced_expensive_type(self):
        vms = [VmType("small", np.array([5.0]), 1.0),
               VmType("big", np.array([50.0]), 10.0)]
        sol = brute_force_pack(make_demand([[30.0]]), vms, 1)
        assert sol.feasible
        assert sol.instances[0].vm_type.id == "big"

    def test_is_lower_bound_for_all_solvers(self):
        for seed in range(20):
            demand, vms = tiny_instance(seed + 400)
            oracle = brute_force_pack(demand, vms, 3)
            assert oracle.feasible
            for sol in (
                ga_pack(demand, vms, GaParams(max_instances=3), seed=seed),
                first_fit_pack(demand, vms),
                best_fit_pack(demand, vms),
            ):
                if sol.feasible and sol.instance_count <= 3:
                    assert oracle.total_cost <= sol.total_cost + 1e-12

    def test_size_refusal(self, one_type):
        demand = make_demand(np.ones((5, 2)))
        with pytest.raises(ValueError, match="too large"):
            brute_force_pack(demand, one_type, 3)
        with pytest.raises(ValueError, match="too large"):
            brute_force_pack(make_demand(np.ones((1, 2))), one_type, 4)

    def test_splitting_beats_whole_placement_when_needed(self):
        # One service larger than any single machine: only an equal split
        # across two instances works, and the oracle finds it.
        vms = [VmType("half", np.array([6.0]), 1.0)]
        sol = brute_force_pack(make_demand([[10.0]]), vms, 2)
        assert sol.feasible
        assert sol.instance_count == 2


class TestBruteForceAgainstScalarEnumeration:
    """brute_force_pack's cost is the least evaluate_genome cost over every
    genome of up to m_cap slots that violates by at most FEASIBILITY_TOL."""

    @staticmethod
    def instance(seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        S = int(rng.integers(1, 6 // m + 1))
        T, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        if seed % 2:
            # Integer-valued, with service 0 filling type 0 exactly.
            caps = rng.integers(2, 9, size=(T, d)).astype(float)
            per_dim = rng.integers(0, 5, size=(S, d)).astype(float)
            per_dim[0] = caps[0]
        else:
            caps = rng.uniform(5.0, 30.0, size=(T, d)).round(1)
            per_dim = rng.uniform(0.0, 0.8, size=(S, d)) * caps.max(axis=0)
        costs = rng.integers(1, 6, size=T) / 10
        vms = [VmType(f"t{j}", caps[j], float(costs[j])) for j in range(T)]
        return make_demand(per_dim), vms, m

    def test_cost_is_least_feasible_genome_cost(self):
        feasible = 0
        for seed in range(36):
            demand, vms, m = self.instance(seed)
            S = demand.service_count
            least = math.inf
            for types in itertools.product(range(-1, len(vms)), repeat=m):
                for flat in itertools.product((0, 1), repeat=S * m):
                    rows = [flat[i * S:(i + 1) * S] for i in range(m)]
                    cost, violation = evaluate_genome(types, rows, demand, vms)
                    if violation <= FEASIBILITY_TOL:
                        least = min(least, cost)
            sol = brute_force_pack(demand, vms, m)
            assert sol.feasible == (least < math.inf), seed
            if sol.feasible:
                feasible += 1
                assert math.isclose(sol.total_cost, least, rel_tol=1e-12, abs_tol=0.0), seed
                assert verify_solution(sol, demand), seed
        assert feasible >= 20


class TestCostScaling:
    def test_alpha_scales_costs_not_argmin(self):
        alpha = 3.7
        for seed in range(10):
            demand, vms = tiny_instance(seed + 500)
            scaled = [VmType(t.id, t.capacity, t.hourly_cost * alpha) for t in vms]
            base = brute_force_pack(demand, vms, 3)
            up = brute_force_pack(demand, scaled, 3)
            assert up.total_cost == pytest.approx(alpha * base.total_cost, rel=1e-12)
            assert [i.vm_type.id for i in up.instances] == [i.vm_type.id for i in base.instances]
            assert all(np.array_equal(a.assignment, b.assignment)
                       for a, b in zip(up.instances, base.instances))
            for solver in (first_fit_pack, best_fit_pack):
                assert solver(demand, scaled).total_cost == pytest.approx(
                    alpha * solver(demand, vms).total_cost, rel=1e-12)
            gp = GaParams(generations=60)
            assert ga_pack(demand, scaled, gp, seed=seed).total_cost == pytest.approx(
                alpha * ga_pack(demand, vms, gp, seed=seed).total_cost, rel=1e-12)


class TestVerifier:
    def test_detects_uncovered_service(self, one_type):
        demand = make_demand([[2.0, 2.0], [3.0, 3.0]])
        sol = PackingSolution(
            (VmInstance(one_type[0], np.array([1, 0])),), 2.0 / 6, True)
        msgs = feasibility_violations(sol, demand)
        assert any("no host" in m for m in msgs)

    def test_detects_capacity_overflow(self, one_type):
        demand = make_demand([[12.0, 2.0]])
        sol = PackingSolution(
            (VmInstance(one_type[0], np.array([1])),), 2.0 / 6, True)
        msgs = feasibility_violations(sol, demand)
        assert any("exceeds capacity" in m for m in msgs)

    def test_equal_split_halves_load(self, one_type):
        # 16 units across two instances of capacity 10 is fine split.
        demand = make_demand([[16.0, 0.0]])
        two = PackingSolution(
            (VmInstance(one_type[0], np.array([1])),
             VmInstance(one_type[0], np.array([1]))), 4.0 / 6, True)
        assert verify_solution(two, demand)
        one = PackingSolution(
            (VmInstance(one_type[0], np.array([1])),), 2.0 / 6, True)
        assert not verify_solution(one, demand)

    def test_rejects_empty_assignment_instance(self, one_type):
        demand = make_demand([[1.0, 1.0]])
        sol = PackingSolution(
            (VmInstance(one_type[0], np.array([1])),
             VmInstance(one_type[0], np.array([0]))), 4.0 / 6, True)
        assert not verify_solution(sol, demand)


class TestVmCatalogIO:
    def test_round_trip(self, tmp_path, three_vm_catalog, five_service_catalog):
        # Values that six significant digits would round, and a whole-number
        # price given as an int: the reloaded catalog must fingerprint alike.
        vms = three_vm_catalog + [VmType("odd", np.array([1234567.0, 1 / 3, 0.1]), 2 / 3),
                                  VmType("whole", np.array([500.0, 500.0, 500.0]), 3)]
        path = tmp_path / "vms.csv"
        save_vm_catalog(vms, path)
        loaded = load_vm_catalog(path)
        assert [t.id for t in loaded] == ["small", "medium", "large", "odd", "whole"]
        for a, b in zip(loaded, vms):
            assert np.array_equal(a.capacity, b.capacity)
            assert a.hourly_cost == b.hourly_cost
        assert (catalog_fingerprint(five_service_catalog, loaded)
                == catalog_fingerprint(five_service_catalog, vms))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "vms.csv"
        path.write_text("# fleet\n\nvm1,1,1,2,0.5\n")
        loaded = load_vm_catalog(path)
        assert loaded[0].id == "vm1"
        assert np.array_equal(loaded[0].capacity, [1.0, 1.0, 2.0])

    def test_bad_rows_rejected(self, tmp_path):
        path = tmp_path / "vms.csv"
        path.write_text("vm1,abc,1\n")
        with pytest.raises(ValueError):
            load_vm_catalog(path)
        path.write_text("vm1,1,1\nvm2,1,1,1\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_vm_catalog(path)

    @pytest.mark.parametrize("type_id", ["#x", " pad ", "a,b", "two\nlines", "car\rriage"])
    def test_ids_that_would_read_back_otherwise_refused(self, tmp_path, type_id):
        path = tmp_path / "vms.csv"
        vms = [VmType("ok", np.array([1.0, 2.0]), 1.0), VmType(type_id, np.array([3.0, 4.0]), 2.0)]
        with pytest.raises(ValueError, match=re.escape(repr(type_id))):
            save_vm_catalog(vms, path)
        assert not path.exists()

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "vms.csv"
        path.write_text("a,100,5\n# cheap\na,10,1\n")
        with pytest.raises(TraceParseError, match="line 3: repeated type id 'a'"):
            load_vm_catalog(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "vms.csv"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_vm_catalog(path)
