"""Allocation optimizers: harmony search plus comparison baselines.

All optimizers minimize the same objective (replication cost of one datum)
over duplicate-free cloud-id vectors of fixed length r, drawn from the
clouds with enough free capacity. Every heuristic is called as
search(problem, budget, rng), makes exactly budget objective calls, and
draws only from the rng it is passed, so a run is reproducible bit-for-bit
from that stream's seed.

The harmony search follows the concrete procedure: fill a cost-sorted
memory with random vectors, then per exercise pick two harmonies by
rank-weighted roulette, combine them position-wise with duplicate repair,
and replace the current worst harmony when the child is strictly better.
The canonical memory-consideration/pitch-adjustment formulation is not
used here.
"""

import bisect
import functools
import random
from itertools import accumulate, combinations
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from .errors import Infeasible
from .model import AllocationVector, CapacityLedger, DataItem, Topology


class PlacementProblem:
    """One datum against the current capacity state, a topology or a trial's ledger.

    feasible_clouds holds the ids with free capacity for the datum, in
    ascending order. Construction fails with ValueError for a datum of no
    replica or of a size not >= 0, as best_allocation does, and with
    Infeasible when fewer than replica_count clouds qualify.
    """

    def __init__(
        self,
        state: Topology | CapacityLedger,
        datum: DataItem,
        objective: Callable[[AllocationVector], float],
    ):
        self.datum = datum
        size = datum.size
        if datum.replica_count < 1 or not size >= 0:
            raise ValueError(f"datum {datum.id} needs >= 1 replica and a size >= 0, "
                             f"got {datum.replica_count} replicas of {size} bytes")
        ledger = state if isinstance(state, CapacityLedger) else CapacityLedger(state)
        self.feasible_clouds: tuple[int, ...] = ledger.feasible(size)
        if datum.replica_count > len(self.feasible_clouds):
            raise Infeasible(
                f"datum {datum.id} needs {datum.replica_count} replicas but only "
                f"{len(self.feasible_clouds)} clouds have {datum.size} bytes free"
            )
        self.objective = objective
        self.replica_count = datum.replica_count


class Harmony(NamedTuple):
    vector: AllocationVector
    cost: float


# the one sort key of every harmony memory, population and forest
_by_cost = attrgetter("cost")


# the harmony memory size a run uses unless it names another
HMS = 10


class OptResult(NamedTuple):
    best: AllocationVector
    best_cost: float
    trace: tuple[float, ...]
    evaluations: int


def random_allocation(problem: PlacementProblem, rng: random.Random) -> AllocationVector:
    """Sample r distinct feasible cloud ids uniformly."""
    return AllocationVector.unchecked(sample(rng, problem.feasible_clouds, problem.replica_count))


def sample(rng: random.Random, pool: Sequence[int], k: int) -> tuple[int, ...]:
    """tuple(rng.sample(pool, k)), drawn for k <= 5 by CPython's own steps
    minus its per-call overhead: up to 21 ids swap-remove from a list copy,
    above that redraw an index already taken; rng ends in the same state."""
    n = len(pool)
    if not 0 <= k <= 5 or k > n:
        return tuple(rng.sample(pool, k))
    getrandbits = rng.getrandbits
    out = []
    if n <= 21:
        pool = list(pool)
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            out.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        bits = n.bit_length()
        taken = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in taken:
                j = getrandbits(bits)
            taken.add(j)
            out.append(pool[j])
    return tuple(out)


def roulette_select_pair(memory: Sequence[Harmony], rng: random.Random) -> tuple[int, int]:
    """Two distinct indices into a cost-sorted memory; rank k gets weight (size - k + 1).

    Each pick is the first index whose running weight sum exceeds
    random() * the weights' total, else the last index of positive weight.
    The second pick zeroes the first's weight w, which lowers the sums after
    the first pick by w. Every sum is an integer, so the draw's floor x
    compares with each lowered sum as the draw does, and x + w with the table's.
    """
    size = len(memory)
    sums, total = _running_sums(size)
    first = bisect.bisect_right(sums, rng.random() * total)
    w = size - first
    x = int(rng.random() * (total - w))
    second = bisect.bisect_right(sums, x, 0, first)
    if second == first:  # past every rank before the first; only a draw of 1.0 reaches size - 2
        second = bisect.bisect_right(sums, x + w, first + 1) if first < size - 1 else size - 2
    return first, second


@functools.cache
def _running_sums(size: int) -> tuple[tuple[float, ...], int]:
    """The running sums of the weights size, size - 1, ..., 1 without the last, and their total."""
    return tuple(accumulate(map(float, range(size, 1, -1)))), size * (size + 1) // 2


def combine_harmonies(
    a: Harmony,
    b: Harmony,
    feasible: Sequence[int],
    rng: random.Random,
) -> AllocationVector:
    """Position-wise coin flip between the parents, then duplicate repair."""
    coin = rng.random
    raw = tuple([x if coin() < 0.5 else y for x, y in zip(a.vector.clouds, b.vector.clouds)])
    # without a duplicate the repair draws nothing and returns raw
    if len(set(raw)) < len(raw):
        raw = _repair_duplicates(raw, feasible, rng)
    return AllocationVector.unchecked(raw)


def _repair_duplicates(
    values: Sequence[int], feasible: Sequence[int], rng: random.Random
) -> tuple[int, ...]:
    """Left-to-right scan: a value already seen is replaced by a random
    unused feasible cloud; one is left while r <= len(feasible)."""
    seen: set[int] = set()
    out = []
    for v in values:
        if v in seen:
            v = rng.choice([c for c in feasible if c not in seen])
        seen.add(v)
        out.append(v)
    return tuple(out)


def _mutate_one_position(
    vector: tuple[int, ...], feasible: Sequence[int], rng: random.Random
) -> tuple[int, ...]:
    """Replace one random position with a random unused feasible cloud.

    Returns the vector unchanged when every feasible cloud is already used
    (r equal to the feasible count leaves no move).
    """
    used = set(vector)
    unused = [c for c in feasible if c not in used]
    if not unused:
        return tuple(vector)
    pos = rng.randrange(len(vector))
    out = list(vector)
    out[pos] = rng.choice(unused)
    return tuple(out)


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError("budget must be >= 1")


def hs_optimize(
    problem: PlacementProblem, budget: int, rng: random.Random, memory_size_hms: int = HMS
) -> OptResult:
    """Fill the memory with memory_size_hms random vectors, then spend the
    rest of the budget on exercises, one evaluation each."""
    if memory_size_hms < 2:
        raise ValueError("memory size must be >= 2")
    if budget <= memory_size_hms:
        raise ValueError("budget must exceed the memory size")
    objective = problem.objective
    feasible = problem.feasible_clouds
    # the harmony memory: a list kept sorted ascending by cost
    memory = sorted(
        [Harmony(v := random_allocation(problem, rng), objective(v))
         for _ in range(memory_size_hms)],
        key=_by_cost,
    )

    trace = []
    for _ in range(budget - memory_size_hms):
        i, j = roulette_select_pair(memory, rng)
        child = combine_harmonies(memory[i], memory[j], feasible, rng)
        # A child already present in the memory explores nothing, and once the
        # memory fills with copies of one harmony every child would be such a
        # repeat and the search would stall; spend the exercise on a fresh
        # random vector instead (the random-selection rule).
        if any(m.vector.clouds == child.clouds for m in memory):
            child = random_allocation(problem, rng)
        cost = objective(child)
        if cost < memory[-1].cost:
            # the worst goes; the child lands after every harmony of equal
            # cost, where a stable sort would put it
            memory.pop()
            bisect.insort_right(memory, Harmony(child, cost), key=_by_cost)
        trace.append(memory[0].cost)

    best = memory[0]
    return OptResult(best.vector, best.cost, tuple(trace), budget)


def random_search(problem: PlacementProblem, budget: int, rng: random.Random) -> OptResult:
    """Uniform independent samples; returns the running minimum."""
    _check_budget(budget)
    objective = problem.objective
    best = best_cost = None
    trace = []
    for _ in range(budget):
        vector = random_allocation(problem, rng)
        cost = objective(vector)
        if best is None or cost < best_cost:
            best, best_cost = vector, cost
        trace.append(best_cost)
    return OptResult(best, best_cost, tuple(trace), budget)


# Stand-in GA and FOA configurations; the source experiments never state one.
GA_POPULATION = 20
GA_CROSSOVER_RATE = 0.9
GA_MUTATION_RATE = 0.1
FOA_AREA_LIMIT = 30
FOA_LIFE_TIME = 6
FOA_LOCAL_SEEDING = 2
FOA_GLOBAL_FRACTION = 0.1


def ga_optimize(problem: PlacementProblem, budget: int, rng: random.Random) -> OptResult:
    _check_budget(budget)
    objective = problem.objective
    r = problem.replica_count
    feasible = problem.feasible_clouds

    # a budget of 1 buys one random vector and no generation; the last
    # generation is cut short where the budget runs out
    pop_size = min(GA_POPULATION, budget)

    population = sorted(
        [Harmony(v := random_allocation(problem, rng), objective(v)) for _ in range(pop_size)],
        key=_by_cost,
    )
    evaluations = pop_size
    best = population[0]
    trace = [best.cost]

    while evaluations < budget:
        next_gen = [best]  # elite carried over, not re-evaluated
        while len(next_gen) < pop_size and evaluations < budget:
            p1 = _tournament(population, rng)
            p2 = _tournament(population, rng)
            if r >= 2 and rng.random() < GA_CROSSOVER_RATE:
                point = rng.randint(1, r - 1)
                raw = p1.vector.clouds[:point] + p2.vector.clouds[point:]
                child = _repair_duplicates(raw, feasible, rng)
            else:
                child = p1.vector.clouds
            if rng.random() < GA_MUTATION_RATE:
                child = _mutate_one_position(child, feasible, rng)
            vector = AllocationVector.unchecked(child)
            next_gen.append(Harmony(vector, objective(vector)))
            evaluations += 1
        population = sorted(next_gen, key=_by_cost)
        best = population[0]
        trace.append(best.cost)

    return OptResult(best.vector, best.cost, tuple(trace), evaluations)


def _tournament(population: Sequence[Harmony], rng: random.Random) -> Harmony:
    i = rng.randrange(len(population))
    j = rng.randrange(len(population))
    return population[i] if population[i].cost <= population[j].cost else population[j]


class _Tree:
    __slots__ = ("vector", "cost", "age")

    def __init__(self, vector: AllocationVector, cost: float):
        self.vector = vector
        self.cost = cost
        self.age = 0


def foa_optimize(problem: PlacementProblem, budget: int, rng: random.Random) -> OptResult:
    """Simplified forest optimization on allocation vectors.

    New trees (age 0) spawn FOA_LOCAL_SEEDING one-position neighbors per
    iteration; everything ages, over-age trees fall into a candidate pool,
    the worst beyond FOA_AREA_LIMIT follow them, and a fraction of the pool
    re-enters as fresh random trees. The best tree's age is pinned to 0 so
    the forest always keeps one seeding tree.
    """
    _check_budget(budget)
    objective = problem.objective
    feasible = problem.feasible_clouds

    init_size = min(FOA_AREA_LIMIT, budget)
    forest = [_Tree(v := random_allocation(problem, rng), objective(v)) for _ in range(init_size)]
    evaluations = init_size
    best = min(forest, key=_by_cost)
    trace = [best.cost]

    while evaluations < budget:
        new_trees = []
        for tree in forest:
            if tree.age != 0:
                continue
            for _ in range(FOA_LOCAL_SEEDING):
                if evaluations >= budget:
                    break
                clouds = _mutate_one_position(tree.vector.clouds, feasible, rng)
                new_trees.append(_Tree(v := AllocationVector.unchecked(clouds), objective(v)))
                evaluations += 1
        for tree in forest:
            tree.age += 1
        forest.extend(new_trees)

        candidates = [t for t in forest if t.age > FOA_LIFE_TIME]
        forest = [t for t in forest if t.age <= FOA_LIFE_TIME]
        forest.sort(key=_by_cost)
        if len(forest) > FOA_AREA_LIMIT:
            candidates.extend(forest[FOA_AREA_LIMIT:])
            forest = forest[:FOA_AREA_LIMIT]

        reseeds = int(FOA_GLOBAL_FRACTION * len(candidates))
        for _ in range(reseeds):
            if evaluations >= budget:
                break
            forest.append(_Tree(v := random_allocation(problem, rng), objective(v)))
            evaluations += 1

        forest.sort(key=_by_cost)
        forest[0].age = 0
        if forest[0].cost < best.cost:
            best = forest[0]
        trace.append(best.cost)

    return OptResult(best.vector, best.cost, tuple(trace), evaluations)


def exhaustive_best(problem: PlacementProblem) -> OptResult:
    """Enumerate every r-subset of the feasible clouds; the global optimum.

    The test oracle for CostModel.best_allocation. Subset order stands in
    for vector order (the cost is permutation invariant); ties go to the
    lexicographically smallest sorted vector.
    """
    objective = problem.objective
    best = best_cost = None
    trace = []
    for combo in combinations(problem.feasible_clouds, problem.replica_count):
        vector = AllocationVector(combo)
        cost = objective(vector)
        if best is None or cost < best_cost:
            best, best_cost = vector, cost
        trace.append(best_cost)
    return OptResult(best, best_cost, tuple(trace), len(trace))
