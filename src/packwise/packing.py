"""VM packing: decide how many machines to rent and which services go where.

A solution is a list of VM instances, each an instance type plus a binary
row marking the hosted services. A service hosted on several instances
splits its demand equally among them (share = 1 / host count); an instance
is within capacity when its equally-split per-dimension load fits the
type's capacity vector. Rental cost accrues pro rata per period:
hourly cost times period length in hours.

Solvers:

* ga_pack        - genetic algorithm over fixed-slot genomes, penalty fitness,
                   stopped at mix_lower_bound
* first_fit_pack - greedy, decreasing demand, first instance that fits
* best_fit_pack  - greedy, decreasing demand, tightest instance that fits
* brute_force_pack - exhaustive optimum for tiny instances (the oracle)

Every solver yields a slot genome: one VM type index per slot and a
(slots, S) uint8 matrix of assignment rows. _decode builds every solution
from one; the greedy genomes also seed the GA's population as they are.

The GA's champion and mix_lower_bound price a mix (instances per VM
type) with one function, _mix_price, so a champion at the bound is final.
The GA and brute force score genomes with one evaluator,
_evaluate_population, so both count a packing as feasible alike: capacity
overflow plus uncovered demand at most FEASIBILITY_TOL.

verify_solution re-checks coverage and capacity with plain loops,
independent of the solvers' vectorized arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .demand import DemandVector
from .validation import as_float_vector
from .workload import DEFAULT_PERIOD_SECONDS, TraceParseError

FEASIBILITY_TOL = 1e-9
BOUND_BUDGET = 1 << 16  # most mixes mix_lower_bound enumerates before a fractional bound
BRUTE_FORCE_MAX_BITS = 12   # most assignment bits (services x slots) brute_force_pack takes
NEAR_TIE = 1e-9         # relative margin that keeps the fractional bound below every mix price
CROSSOVER_RATE = 0.9    # chance that a pair of ga_evolve's tournament winners crosses over
MUTATION_RATE = 0.05    # ga_evolve's per-gene mutation chance
ELITISM = 2             # fittest individuals ga_evolve keeps unchanged each generation


@dataclass(frozen=True)
class VmType:
    """A rentable machine type: capacity per resource dimension, price per hour."""

    id: str
    capacity: np.ndarray
    hourly_cost: float

    def __post_init__(self):
        cap = as_float_vector(self.capacity, "capacity")
        object.__setattr__(self, "capacity", cap)
        if not np.isfinite(cap).all():
            raise ValueError(f"type {self.id}: capacity must be finite")
        if np.min(cap) < 0 or cap.max() <= 0:
            raise ValueError(f"type {self.id}: capacity must be nonnegative with some positive entry")
        if not (math.isfinite(self.hourly_cost) and self.hourly_cost > 0):
            raise ValueError(f"type {self.id}: hourly cost must be positive and finite")


@dataclass(frozen=True)
class VmInstance:
    """One rented machine and the binary service-assignment row it hosts.

    VmInstance(vm_type, assignment) checks the entries and keeps a
    read-only uint8 copy. _decode builds its instances through _trusted
    instead, which skips the check and the copy its packers make
    unnecessary.
    """

    vm_type: VmType
    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment)
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("assignment entries must be 0 or 1")
        a = np.array(a, dtype=np.uint8, copy=True)
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)

    @classmethod
    def _trusted(cls, vm_type: VmType, assignment: np.ndarray) -> VmInstance:
        """Wrap a fresh uint8 row of 0s and 1s, made read-only here, without
        re-checking or copying it. Neither the row nor the fresh array it
        may be a row of may be used elsewhere."""
        assignment.flags.writeable = False
        inst = object.__new__(cls)
        object.__setattr__(inst, "vm_type", vm_type)
        object.__setattr__(inst, "assignment", assignment)
        return inst

    @property
    def services(self) -> np.ndarray:
        return np.flatnonzero(self.assignment)


@dataclass(frozen=True)
class PackingSolution:
    """Instances plus the per-period rental cost; feasible means the
    solution covers all positive demand within every capacity."""

    instances: tuple
    total_cost: float
    feasible: bool

    @property
    def instance_count(self) -> int:
        return len(self.instances)


@dataclass
class GaParams:
    """Genetic-algorithm budget and seed. max_instances defaults, when None,
    to default_max_instances: twice the slot-count lower bound."""

    population: int = 80
    generations: int = 300
    max_instances: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.population < 4:
            raise ValueError("population must be >= 4")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")


def period_hours(period_seconds: float) -> float:
    return period_seconds / 3600.0


def solution_cost(instances, period_seconds: float) -> float:
    return sum(inst.vm_type.hourly_cost for inst in instances) * period_hours(period_seconds)


def feasibility_violations(solution: PackingSolution, demand: DemandVector) -> list[str]:
    """Re-check Coverage and Capacity with plain loops, independent of any
    solver arithmetic. Returns human-readable violation messages."""
    msgs = []
    S = demand.service_count
    hosts = [0] * S
    for inst in solution.instances:
        if len(inst.assignment) != S:
            return [f"assignment width {len(inst.assignment)} != {S} services"]
        if not inst.assignment.any():
            msgs.append(f"instance of type {inst.vm_type.id} hosts no service")
        for s in range(S):
            if inst.assignment[s]:
                hosts[s] += 1
    for s in range(S):
        if demand.values[s] > 0 and hosts[s] == 0:
            msgs.append(f"service {s} has positive demand but no host")
    for i, inst in enumerate(solution.instances):
        for k in range(demand.dimension_count):
            load = 0.0
            for s in range(S):
                if inst.assignment[s]:
                    load += demand.per_dim[s][k] / hosts[s]
            if load > inst.vm_type.capacity[k] + FEASIBILITY_TOL:
                msgs.append(
                    f"instance {i} ({inst.vm_type.id}) dimension {k}: "
                    f"load {load:.6g} exceeds capacity {inst.vm_type.capacity[k]:.6g}"
                )
    return msgs


def verify_solution(solution: PackingSolution, demand: DemandVector) -> bool:
    return not feasibility_violations(solution, demand)


def default_max_instances(demand: DemandVector, vm_catalog) -> int:
    """Slot budget: twice the slot-count lower bound ceil(total demand /
    largest type's total capacity), the fewest instances that could hold
    the demand (a count of machines, unlike mix_lower_bound, which bounds
    cost). Zero demand needs zero slots."""
    total = float(demand.values.sum())
    if total == 0:
        return 0
    biggest = max(float(t.capacity.sum()) for t in vm_catalog)
    return 2 * math.ceil(total / biggest)


def mix_lower_bound(demand: DemandVector, vm_catalog,
                    period_seconds: float = DEFAULT_PERIOD_SECONDS) -> float:
    """Cost lower bound for any feasible packing of demand, in total_cost units.

    Feasible as ga_evolve counts it: capacity overflow plus uncovered
    demand at most FEASIBILITY_TOL in total. Such a packing rents an
    integer mix n of VM types whose summed capacity covers the total
    demand in every dimension that needs more than FEASIBILITY_TOL,
    n @ caps + FEASIBILITY_TOL * n.sum() >= per_dim.sum(axis=0), where a
    type with zero capacity in a dimension gets no credit there; equal
    splits included, so none costs less than the cheapest such mix
    (Martello & Toth 1990 give bounds of this kind for bin packing). A
    dimension needing at most FEASIBILITY_TOL is met by the tolerance
    alone and sets no requirement. inf when no mix covers. The bound is
    _price_bound's hourly price times the period's hours.
    """
    return _price_bound(demand, vm_catalog) * period_hours(period_seconds)


def _mix_price(counts, costs) -> np.ndarray:
    """Hourly price of each row of counts, the instances rented of each VM
    type. Each row's products are added in one order that depends only on
    the catalog, so a mix has one float price wherever its instances sit."""
    return (counts * costs).sum(axis=1)


def _price_bound(demand, vm_catalog) -> float:
    """mix_lower_bound per hour; inf when no mix covers.

    Exact, by enumeration, when it takes at most BOUND_BUDGET mixes:
    counts of every type but one run over the range past which more of
    that type covers nothing new, all in one pass, the last type's count
    is the smallest that closes the gap, and the bound is the least
    _mix_price. Past the budget (many types, or demand many times a
    type's capacity) it is the fractional bound less NEAR_TIE: the largest,
    over dimensions, of the cheapest price per unit of capacity times the
    demand.

    No mix that ga_evolve scores as feasible prices below it, so a
    champion at the bound is final: such a mix holds an enumerated
    covering mix count by count, and _mix_price rounds each product and
    addition monotonically. No champion reaches the fractional bound,
    which sits NEAR_TIE below every mix price.
    """
    caps, costs = _catalog_arrays(vm_catalog, demand.dimension_count)
    need = demand.per_dim.sum(axis=0)
    pos = need > FEASIBILITY_TOL
    if not pos.any():
        return 0.0
    need = need[pos]
    eff = np.where(caps > 0, caps + FEASIBILITY_TOL, 0.0)[:, pos]
    with np.errstate(divide="ignore"):
        alone = np.ceil(need / eff)                               # inf: no capacity
    widths = np.where(np.isinf(alone), 0.0, alone).max(axis=1) + 1
    last = int(widths.argmax())         # the widest range gets the closed form
    rest = np.delete(np.arange(len(vm_catalog)), last)
    if max(widths[last], math.prod(widths[rest].tolist())) > BOUND_BUDGET:
        with np.errstate(divide="ignore"):
            per_unit = np.where(eff > 0, costs[:, None] / eff, np.inf).min(axis=0)
        # Rounded down by NEAR_TIE so float error cannot lift it past the optimum.
        return float((per_unit * need).max()) * (1 - NEAR_TIE)
    cover = widths.astype(np.int64) - 1
    e_last = eff[last]
    idx = np.arange(math.prod((cover[rest] + 1).tolist()))
    n = np.empty((idx.size, rest.size), dtype=np.int64)
    for j, t in enumerate(rest):
        idx, n[:, j] = np.divmod(idx, cover[t] + 1)
    short = need - n @ eff[rest]
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.ceil(short / e_last)
        # Undo a quotient that rounded across an integer either way.
        k -= (k - 1) * e_last >= short
        k += k * e_last < short
    k[short <= 0] = 0.0
    mixes = np.insert(n.astype(float), last, k.max(axis=1), axis=1)   # inf: no cover
    return float(_mix_price(mixes, costs).min())


def evaluate_genome(slot_types, slot_bits, demand: DemandVector, vm_catalog,
                    period_seconds: float = DEFAULT_PERIOD_SECONDS):
    """Score one genome: (cost, violation).

    A genome is max_instances slots; slot_types[m] is a type index or -1
    for off, slot_bits[m] the assignment row. Slots that are off or assign
    no service contribute nothing (they decode to no instance). violation
    sums capacity overflow across instances and dimensions plus the total
    demand of uncovered services; the GA minimizes
    cost + 1e4 * (the priciest type's hourly cost) * violation.
    """
    hours = period_hours(period_seconds)
    S = demand.service_count
    active = [m for m, t in enumerate(slot_types) if t >= 0 and any(slot_bits[m])]
    hosts = [0] * S
    for m in active:
        for s in range(S):
            hosts[s] += 1 if slot_bits[m][s] else 0
    violation = 0.0
    for s in range(S):
        if demand.values[s] > 0 and hosts[s] == 0:
            violation += demand.values[s]
    cost = 0.0
    for m in active:
        vm = vm_catalog[slot_types[m]]
        cost += vm.hourly_cost * hours
        for k in range(demand.dimension_count):
            load = 0.0
            for s in range(S):
                if slot_bits[m][s]:
                    load += demand.per_dim[s][k] / hosts[s]
            violation += max(0.0, load - vm.capacity[k])
    return cost, violation


def _catalog_arrays(vm_catalog, d: int):
    if not vm_catalog:
        raise ValueError("vm_catalog is empty")
    caps = np.vstack([t.capacity for t in vm_catalog])
    if caps.shape[1] != d:
        raise ValueError(
            f"VM capacities have {caps.shape[1]} dimensions, demand has {d}"
        )
    costs = np.array([t.hourly_cost for t in vm_catalog])
    return caps, costs


def _evaluator_arrays(demand, caps, costs):
    """_evaluate_population's caps and costs, plus the all-zero row an off
    slot (-1) indexes, and what an uncovered service adds to the violation:
    its demand, but more than FEASIBILITY_TOL when positive, as
    verify_solution rejects any uncovered service with positive demand."""
    caps0 = np.vstack([caps, np.zeros(demand.dimension_count)])
    costs0 = np.append(costs, 0.0)
    uncovered = np.where(demand.values > 0, np.maximum(demand.values, 2 * FEASIBILITY_TOL), 0.0)
    return caps0, costs0, uncovered


def _evaluate_population(types, bits, per_dim, values, caps, costs, hours, lam):
    """Vectorized twin of evaluate_genome over a (P, M[, S]) population:
    returns (fitness, cost, violation), one value per individual. values is
    what an uncovered service adds to the violation: its demand in
    evaluate_genome, at least 2 * FEASIBILITY_TOL when positive in the
    solvers (_evaluator_arrays).

    caps and costs carry a trailing all-zero row, which an off slot's -1
    indexes, so slots that decode to no instance add no cost and no
    capacity. Services lead the working arrays, so einsum adds each
    service's load to all P * M slots at once, in service order, and the
    violation and cost sums run pairwise over contiguous per-individual
    rows: the summation order of a plain per-slot einsum. Keep both orders
    when rewriting this function; the pinned GA outputs in
    tests/test_packing.py depend on them bit for bit. (einsum falls back
    to SIMD partial sums over services only for a single one-slot genome
    with d == 1. Neither caller evaluates one: the GA's populations hold
    at least 4 individuals and brute force's, one per assignment of a type
    combination, at least 2.)
    """
    P = types.shape[0]
    on = np.multiply(bits.transpose(2, 0, 1), types >= 0, order="C")     # (S, P, M)
    hosts = np.einsum("spm->sp", on, dtype=np.int64)
    share = np.divide(1.0, hosts, out=np.zeros(hosts.shape), where=hosts > 0)
    load = np.einsum("spm,sk->kpm", on * share[:, :, None], per_dim)      # (d, P, M)
    slot = np.where(on.any(axis=0), types, -1)
    over = load - caps.T.take(slot, axis=1)
    np.maximum(over, 0.0, out=over)
    cap_viol = over.transpose(1, 2, 0).reshape(P, -1).sum(axis=1)
    cov_viol = np.multiply(hosts.T == 0, values, order="C").sum(axis=1)
    cost = costs[slot].sum(axis=1) * hours
    viol = cap_viol + cov_viol
    return cost + lam * viol, cost, viol


def _decode(vm_catalog, slot_types, slot_bits, feasible, period_seconds) -> PackingSolution:
    """The solution renting one instance per slot, in slot order: slot m is
    vm_catalog[slot_types[m]] hosting the services slot_bits[m] marks.
    Callers drop a genome's off and empty slots first; greedy genomes have
    none. slot_bits is a fresh (slots, S) uint8 array of 0s and 1s that
    nothing else holds, so its rows become the instances' read-only
    assignments as they are."""
    instances = tuple(VmInstance._trusted(vm_catalog[t], row)
                      for t, row in zip(slot_types.tolist(), slot_bits))
    return PackingSolution(
        instances=instances,
        total_cost=solution_cost(instances, period_seconds),
        feasible=feasible,
    )


def _slots_on(slot_types, slot_bits):
    """A genome's slots that decode to an instance: on, hosting something."""
    on = (slot_types >= 0) & slot_bits.any(axis=1)
    return slot_types[on], slot_bits[on]


def ga_evolve(demand: DemandVector, vm_catalog, params: GaParams,
              period_seconds: float = DEFAULT_PERIOD_SECONDS):
    """Run the GA and return (solution, best_fitness_trace).

    Genome: params.max_instances slots, each a type index (or off) plus an
    assignment row. Tournament selection (size 3), uniform slot-wise
    crossover of a winner pair at rate CROSSOVER_RATE, per-gene mutation
    at rate MUTATION_RATE that flips assignment bits and resamples slot
    types, and the ELITISM fittest kept unchanged (population >= 4 leaves
    room for them). The initial population is seeded with the two
    greedy baselines when they fit the slot budget, so the GA starts no
    worse than greedy. Deterministic given params.seed.

    Each generation's feasible individual with the least slot cost
    replaces the champion only if its mix (on, non-empty slots per type)
    has a strictly lower _mix_price, so a rearranged mix never does. The
    run stops once the champion prices at or below _price_bound: no later
    feasible individual prices lower, so only the trace is shorter than
    the full run's.

    With no feasible individual after the last generation, the
    least-violating one is returned flagged feasible=False.
    """
    S, d = demand.service_count, demand.dimension_count
    caps, costs = _catalog_arrays(vm_catalog, d)
    if demand.values.sum() == 0:
        return PackingSolution((), 0.0, True), ()

    budget = default_max_instances(demand, vm_catalog)   # twice the slot lower bound
    M = params.max_instances if params.max_instances is not None else budget
    if M < budget // 2:
        raise ValueError(f"max_instances={M} below the slot lower bound {budget // 2}")
    lam = 1e4 * float(costs.max())
    hours = period_hours(period_seconds)
    T = len(vm_catalog)
    P = params.population
    rng = np.random.default_rng(params.seed)
    stop_at = _price_bound(demand, vm_catalog)

    types = rng.integers(-1, T, size=(P, M))
    bits = rng.integers(0, 2, size=(P, M, S), dtype=np.uint8)
    for row, best_fit in enumerate((False, True)):
        seed_types, seed_bits, feasible = _greedy_genome(demand, vm_catalog, best_fit)
        n = len(seed_types)
        if feasible and n <= M:
            types[row, :n], types[row, n:] = seed_types, -1
            bits[row, :n], bits[row, n:] = seed_bits, 0

    caps0, costs0, uncovered = _evaluator_arrays(demand, caps, costs)
    half = P // 2
    cols = np.arange(M)
    best_feasible = None   # (mix price, types, bits)
    least_violating = None  # (viol, cost, types, bits); read only if nothing is ever feasible
    trace = []
    for gen in range(params.generations):
        fitness, cost, viol = _evaluate_population(
            types, bits, demand.per_dim, uncovered, caps0, costs0, hours, lam)
        trace.append(float(fitness.min()))

        feas = viol <= FEASIBILITY_TOL
        if feas.any():
            i = int(np.where(feas, cost, np.inf).argmin())
            slot = types[i][bits[i].any(axis=1)]
            mix = np.bincount(slot[slot >= 0], minlength=T)   # on, non-empty slots per type
            price = float(_mix_price(mix[None], costs)[0])
            if best_feasible is None or price < best_feasible[0]:
                best_feasible = (price, types[i].copy(), bits[i].copy())
            if best_feasible[0] <= stop_at:
                break   # no feasible individual can price lower
        if best_feasible is None:
            i = int(np.lexsort((cost, viol))[0])
            if least_violating is None or (viol[i], cost[i]) < least_violating[:2]:
                least_violating = (float(viol[i]), float(cost[i]), types[i].copy(), bits[i].copy())

        if gen == params.generations - 1:
            break

        elite = np.argsort(fitness, kind="stable")[:ELITISM]
        elite_t, elite_b = types[elite], bits[elite]

        contenders = rng.integers(0, P, size=(P, 3))
        winners = contenders[np.arange(P), fitness[contenders].argmin(axis=1)]

        # Uniform crossover of consecutive winner pairs as one gather: slot m
        # of child r is flat[r, m], an index into the (individual, slot) rows.
        do_cx = rng.random(half) < CROSSOVER_RATE
        swap = (rng.random((half, M)) < 0.5) & do_cx[:, None]
        flat = winners[:, None] * M + cols
        pairs = flat[:2 * half].reshape(half, 2, M)
        pairs[...] = np.where(swap[:, None, :], pairs[:, ::-1], pairs)
        types, bits = types.take(flat), bits.reshape(P * M, S).take(flat, axis=0)

        tmask = rng.random((P, M)) < MUTATION_RATE
        fresh = rng.integers(-1, T, size=(P, M))
        np.copyto(types, fresh, where=tmask)
        bits ^= rng.random((P, M, S)) < MUTATION_RATE

        types[:ELITISM], bits[:ELITISM] = elite_t, elite_b

    if best_feasible is not None:
        _, bt, bb = best_feasible
        solution = _decode(vm_catalog, *_slots_on(bt, bb), True, period_seconds)
        assert verify_solution(solution, demand), "GA champion failed the independent check"
        return solution, tuple(trace)
    _, _, lt, lb = least_violating
    return _decode(vm_catalog, *_slots_on(lt, lb), False, period_seconds), tuple(trace)


def ga_pack(demand: DemandVector, vm_catalog, params: GaParams | None = None,
            period_seconds: float = DEFAULT_PERIOD_SECONDS) -> PackingSolution:
    """Near-optimal packing for one demand vector via the genetic algorithm."""
    solution, _ = ga_evolve(demand, vm_catalog, params or GaParams(), period_seconds)
    return solution


def _greedy_genome(demand: DemandVector, vm_catalog, best_fit: bool):
    """The greedy packing as a genome: (types, bits, feasible), the type
    index of each opened instance, their (n, S) uint8 assignment rows and
    whether every service fits.

    Place the services with positive demand whole, in decreasing demand
    order (stable), each on an open instance with room in every dimension
    (load + demand <= capacity + FEASIBILITY_TOL): the first such instance,
    or with best_fit the one left with the least total slack
    (capacity - load - demand).sum(), ties to the lowest index. A service
    no open instance holds opens a new instance of the cheapest type that
    holds it alone (ties: first in catalog order); a service no type holds
    goes on the roomiest type (largest capacity sum, first on ties) and
    makes the packing infeasible. Every instance hosts a service, so no
    slot is off or empty.

    The open instances' loads and capacities are (n_open, d) rows, so one
    array operation tests a service against all of them, and one (S, T)
    comparison per pack says which types hold which service. argmin and
    argmax return the first extremum, the ties of min() and max() over the
    candidates in order, and every load, slack and capacity sum is the
    same float the per-instance arithmetic gives.
    """
    caps, costs = _catalog_arrays(vm_catalog, demand.dimension_count)
    per_dim, values = demand.per_dim, demand.values
    S, d = per_dim.shape
    room = caps + FEASIBILITY_TOL
    holds = (per_dim[:, None, :] <= room).all(axis=2)                 # (S, T)
    # The first holding type in stable price order is the cheapest one, ties
    # to the first in the catalog, also when prices are infinite.
    by_price = costs.argsort(kind="stable")
    cheapest = by_price[holds[:, by_price].argmax(axis=1)]
    roomiest = int(caps.sum(axis=1).argmax())
    holds_any = holds.any(axis=1)
    # Row i of these is open instance i: its type, load, capacity,
    # capacity + FEASIBILITY_TOL and the services it hosts.
    types = np.empty(S, dtype=np.intp)
    loads, cap_open, room_open = np.empty((3, S, d))
    bits = np.zeros((S, S), dtype=np.uint8)
    n = 0
    feasible = True
    vals = values.tolist()
    for s in (-values).argsort(kind="stable").tolist():
        if vals[s] == 0:
            continue
        dem = per_dim[s]
        fit = (loads[:n] + dem <= room_open[:n]).all(axis=1).nonzero()[0]
        if fit.size:
            i = fit[0]
            if best_fit and fit.size > 1:
                slack = (cap_open[:n] - loads[:n] - dem).sum(axis=1)
                i = fit[slack[fit].argmin()]
            loads[i] += dem
            bits[i, s] = 1
            continue
        if holds_any[s]:
            t = cheapest[s]
        else:
            feasible = False
            t = roomiest
        types[n] = t
        loads[n], cap_open[n], room_open[n] = dem, caps[t], room[t]
        bits[n, s] = 1
        n += 1
    return types[:n], bits[:n], feasible


def first_fit_pack(demand: DemandVector, vm_catalog,
                   period_seconds: float = DEFAULT_PERIOD_SECONDS) -> PackingSolution:
    """Greedy baseline: services in decreasing demand order, each placed
    whole on the first open instance with room, else on a new instance of
    the cheapest type that holds it alone."""
    return _decode(vm_catalog, *_greedy_genome(demand, vm_catalog, False), period_seconds)


def best_fit_pack(demand: DemandVector, vm_catalog,
                  period_seconds: float = DEFAULT_PERIOD_SECONDS) -> PackingSolution:
    """Greedy baseline like first_fit_pack, but each service goes to the
    open instance left with the least total slack (ties: lowest index)."""
    return _decode(vm_catalog, *_greedy_genome(demand, vm_catalog, True), period_seconds)


def brute_force_pack(demand: DemandVector, vm_catalog, m_cap: int,
                     period_seconds: float = DEFAULT_PERIOD_SECONDS) -> PackingSolution:
    """Exhaustive optimum over every type/assignment combination of up to
    m_cap instance slots. Verification oracle for tiny instances only:
    refuses when S * m_cap > BRUTE_FORCE_MAX_BITS or m_cap > 3. Each type
    combination's 2 ** (S * m_cap) bit genomes are scored at once by
    _evaluate_population; the cheapest with violation at most
    FEASIBILITY_TOL wins.

    Ties break toward fewer instances, then the lexicographically smallest
    genome encoding (slot types first, then the flattened assignment bits).
    """
    S, d = demand.service_count, demand.dimension_count
    if m_cap > 3 or S * m_cap > BRUTE_FORCE_MAX_BITS:
        raise ValueError(
            f"instance too large for exhaustive search (S={S}, m_cap={m_cap})"
        )
    caps, costs = _catalog_arrays(vm_catalog, d)
    if demand.values.sum() == 0:
        return PackingSolution((), 0.0, True)
    caps0, costs0, uncovered = _evaluator_arrays(demand, caps, costs)
    hours = period_hours(period_seconds)

    n_bits = S * m_cap
    combos = np.arange(2 ** n_bits)
    shifts = np.arange(n_bits - 1, -1, -1)
    bits_all = ((combos[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1, m_cap, S)
    hosting = bits_all.any(axis=2)

    best = None  # (cost, count, type_rank, bit_index, types, bits)
    for rank, combo in enumerate(itertools.product(range(len(vm_catalog) + 1), repeat=m_cap)):
        types = np.array(combo) - 1
        _, cost, viol = _evaluate_population(
            np.broadcast_to(types, hosting.shape), bits_all, demand.per_dim, uncovered,
            caps0, costs0, hours, 0.0)
        idx = np.flatnonzero(viol <= FEASIBILITY_TOL)
        if not idx.size:
            continue
        count = (hosting & (types >= 0)).sum(axis=1)
        idx = idx[np.lexsort((idx, count[idx], cost[idx]))]
        i = int(idx[0])
        key = (float(cost[i]), int(count[i]), rank, i)
        if best is None or key < best[:4]:
            best = key + (types, bits_all[i])

    if best is None:
        return PackingSolution((), 0.0, False)
    return _decode(vm_catalog, *_slots_on(best[4], best[5]), True, period_seconds)


def load_vm_catalog(path) -> list[VmType]:
    """Read VM types: one `id,cap_1,...,cap_d,hourly_cost` line per type,
    each id on one line only."""
    types = []
    width = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) < 3:
            raise TraceParseError(f"{path}: line {lineno}: need id, capacities, hourly cost")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise TraceParseError(f"{path}: line {lineno}: inconsistent column count")
        try:
            caps = [float(f) for f in fields[1:-1]]
            cost = float(fields[-1])
        except ValueError:
            raise TraceParseError(f"{path}: line {lineno}: not a numeric row") from None
        type_id = fields[0].strip()
        if any(t.id == type_id for t in types):
            raise TraceParseError(f"{path}: line {lineno}: repeated type id {type_id!r}")
        types.append(VmType(id=type_id, capacity=np.array(caps), hourly_cost=cost))
    if not types:
        raise TraceParseError(f"{path}: empty VM catalog")
    return types


def save_vm_catalog(vm_catalog, path) -> None:
    """Write the file load_vm_catalog reads; each number in its shortest
    exact form, so the reloaded catalog has the same fingerprint."""
    lines = [
        ",".join([t.id] + [repr(float(c)) for c in t.capacity] + [repr(float(t.hourly_cost))])
        for t in vm_catalog
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
