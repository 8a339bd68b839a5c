import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest

from replica_harmony import optimize
from replica_harmony.cost import CostModel
from replica_harmony.errors import Infeasible
from replica_harmony.model import (
    AllocationVector,
    CapacityLedger,
    DataItem,
    Gateway,
    LinkMatrix,
    MiniCloud,
    Topology,
    commit_placement,
)
from replica_harmony.optimize import (
    Harmony,
    PlacementProblem,
    combine_harmonies,
    exhaustive_best,
    foa_optimize,
    ga_optimize,
    hs_optimize,
    random_allocation,
    random_search,
    roulette_select_pair,
    sample,
)

from conftest import committed, make_topology, tie_heavy_topology


class ScriptedRng(random.Random):
    """random() pops from a fixed script; everything else stays seeded."""

    def __new__(cls, script):
        return super().__new__(cls)

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)

    def random(self):
        if self.script:
            return self.script.pop(0)
        return super().random()


def make_problem(seed: int, num_clouds: int = 8, replicas: int = 3) -> PlacementProblem:
    rng = random.Random(seed)
    t = make_topology(rng, 5, num_clouds)
    d = DataItem(0, float(rng.randint(20, 100)), rng.randrange(5), replicas)
    return PlacementProblem(t, d, CostModel(t).objective(d))


def tiny_problem() -> PlacementProblem:
    """Two clouds, two replicas: a single-point search space."""
    gateway = Gateway(0, 1.0, 0.1)
    clouds = (MiniCloud(0, 2.0, 1.0, 0.05, 1e6), MiniCloud(1, 2.0, 3.0, 0.02, 1e6))
    links = LinkMatrix([[1000.0, 2000.0]], [[0.0, 500.0], [500.0, 0.0]])
    t = Topology((gateway,), clouds, links)
    d = DataItem(0, 100.0, 0, 2)
    return PlacementProblem(t, d, CostModel(t).objective(d))


def test_placement_problem_feasibility():
    rng = random.Random(1)
    t = make_topology(rng, 2, 4, capacity=(100.0, 100.0))
    big = DataItem(0, 150.0, 0, 1)
    with pytest.raises(Infeasible):
        PlacementProblem(t, big, CostModel(t).objective(big))
    d = DataItem(0, 50.0, 0, 2)
    ok = PlacementProblem(t, d, CostModel(t).objective(d))
    assert ok.feasible_clouds == (0, 1, 2, 3)


def test_placement_problem_excludes_full_clouds():
    rng = random.Random(2)
    t = make_topology(rng, 2, 4, capacity=(100.0, 100.0))
    crowded = t._replace(clouds=(t.clouds[0]._replace(used_capacity=90.0),) + t.clouds[1:])
    d = DataItem(0, 50.0, 0, 2)
    problem = PlacementProblem(crowded, d, CostModel(crowded).objective(d))
    assert problem.feasible_clouds == (1, 2, 3)


@pytest.mark.parametrize(
    "size, replicas, shown",
    [(50.0, 0, "0 replicas of 50.0 bytes"), (-50.0, 2, "2 replicas of -50.0 bytes"),
     (math.nan, 2, "2 replicas of nan bytes")],
    ids=["zero-replicas", "negative-size", "nan-size"],
)
def test_placement_problem_refuses_a_datum_no_placement_fits(size, replicas, shown):
    # the rules best_allocation applies, checked once per datum before any search:
    # else zero replicas crash random_search, a negative size fits every cloud
    # and prices below zero, and NaN turns into a counted Infeasible failure
    t = make_topology(random.Random(3), 2, 4)
    d = DataItem(7, size, 0, replicas)
    with pytest.raises(ValueError, match=f"datum 7 needs >= 1 replica and a size >= 0, got {shown}"):
        PlacementProblem(t, d, CostModel(t).objective(d))


def free_bytes(t: Topology, size: float) -> tuple[int, ...]:
    """The ids of the clouds with room for size bytes, read from each record."""
    return tuple(c.id for c in t.clouds if c.total_capacity - c.used_capacity >= size)


def test_ledger_feasible_agrees_with_free_bytes_at_the_boundary():
    rng = random.Random(5)
    t = make_topology(rng, 2, 4, capacity=(100.0, 100.0))
    t = committed(t, DataItem(0, 30.0, 0, 2), AllocationVector((0, 1)))
    t = committed(t, DataItem(1, 20.0, 1, 2), AllocationVector((1, 2)))
    assert [c.total_capacity - c.used_capacity for c in t.clouds] == [70.0, 50.0, 80.0, 100.0]

    def feasible(size):
        # the ledger's answer, which PlacementProblem offers for a topology and a ledger alike
        ledger = CapacityLedger(t)
        d = DataItem(99, size, 0, 1)
        for state in (t, ledger):
            try:
                assert PlacementProblem(state, d, CostModel(t).objective(d)).feasible_clouds == ledger.feasible(size)
            except Infeasible:
                assert ledger.feasible(size) == ()
        return ledger.feasible(size)

    assert feasible(50.0) == (0, 1, 2, 3)  # free == size
    assert feasible(51.0) == (0, 2, 3)  # one byte short
    assert feasible(100.0) == (3,)
    for size in (0.5, 49.0, 50.0, 51.0, 69.5, 70.0, 80.0, 100.0):
        assert feasible(size) == free_bytes(t, size)

    # random capacities and sizes, so free capacity carries rounding, and a
    # size at each cloud's free capacity and one ulp above it; the commits
    # go through one ledger, whose topology() the records are read from
    ledger = CapacityLedger(make_topology(rng, 3, 12))
    for i in range(40):
        size = float(rng.randint(2_000, 9_000)) + rng.random()
        if len(ledger.feasible(size)) < 3:
            break
        commit_placement(ledger, DataItem(i, size, 0, 3), AllocationVector(tuple(rng.sample(ledger.feasible(size), 3))))
    t = ledger.topology()
    for c in t.clouds:
        free = c.total_capacity - c.used_capacity
        for size in (free, math.nextafter(free, math.inf)):
            assert feasible(size) == free_bytes(t, size)
            assert (c.id in feasible(size)) == (size == free)


def test_random_allocation_contract():
    problem = make_problem(0)
    rng = random.Random(0)
    for _ in range(200):
        vec = random_allocation(problem, rng)
        assert len(vec) == 3
        assert len(set(vec)) == 3
        assert all(0 <= c < 8 for c in vec)


def test_random_allocation_full_set_when_r_equals_n():
    problem = make_problem(3, num_clouds=5, replicas=5)
    vec = random_allocation(problem, random.Random(1))
    assert sorted(vec) == [0, 1, 2, 3, 4]


def test_random_allocation_is_uniform_over_subsets():
    problem = make_problem(4, num_clouds=4, replicas=2)
    rng = random.Random(99)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        counts[tuple(sorted(random_allocation(problem, rng)))] += 1
    assert len(counts) == 6
    for subset, count in counts.items():
        assert abs(count / draws - 1 / 6) <= 0.02, subset


def test_sample_reproduces_random_sample():
    """The golden digests rest on CPython's Random.sample; a Python whose
    sample draws differently fails here by name, not as a digest mismatch."""
    for n in range(1, 131):
        pool = list(range(100, 100 + n))
        for k in range(1, min(n, 5) + 1):
            for seed in range(30):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert sample(ours, pool, k) == tuple(theirs.sample(pool, k)), (n, k, seed)
                assert ours.random() == theirs.random(), (n, k, seed)
        assert pool == list(range(100, 100 + n))


def test_sample_falls_back_beyond_five():
    pool = list(range(40))
    ours, theirs = random.Random(5), random.Random(5)
    assert sample(ours, pool, 9) == tuple(theirs.sample(pool, 9))
    with pytest.raises(ValueError):
        sample(ours, pool[:3], 4)


def gapped_problem(num_clouds: int, full: int, replicas: int) -> PlacementProblem:
    """Every third cloud of the first 3 * full is full, so the feasible ids
    are not 0..n-1."""
    rng = random.Random(num_clouds)
    t = make_topology(rng, 3, num_clouds)
    clouds = tuple(
        c._replace(used_capacity=c.total_capacity)
        if c.id % 3 == 1 and c.id < 3 * full
        else c
        for c in t.clouds
    )
    t = t._replace(clouds=clouds)
    d = DataItem(0, 50.0, 1, replicas)
    return PlacementProblem(t, d, CostModel(t).objective(d))


@pytest.mark.parametrize(
    "num_clouds, full, replicas",
    [(12, 3, 3), (30, 4, 4), (6, 1, 5), (30, 2, 7)],
    ids=["n9-list-path", "n26-set-path", "r-equals-n", "r7-fallback"],
)
@pytest.mark.parametrize("algorithm", ["hs", "random", "ga", "foa"])
def test_every_evaluated_vector_is_distinct_and_feasible(num_clouds, full, replicas, algorithm):
    """The optimizers build candidates without AllocationVector's checks;
    every vector they evaluate must still pass them."""
    problem = gapped_problem(num_clouds, full, replicas)
    assert len(problem.feasible_clouds) == num_clouds - full
    feasible = set(problem.feasible_clouds)
    evaluated = []
    objective = problem.objective

    def recording(vector):
        evaluated.append(vector.clouds)
        return objective(vector)

    problem.objective = recording
    for seed in range(3):
        if algorithm == "hs":
            result = hs_optimize(problem, 60, random.Random(seed))
        elif algorithm == "random":
            result = random_search(problem, 60, random.Random(seed))
        elif algorithm == "ga":
            result = ga_optimize(problem, 60, random.Random(seed))
        else:
            result = foa_optimize(problem, 60, random.Random(seed))
        assert result.best.clouds in evaluated
    assert len(evaluated) == 180
    for clouds in evaluated:
        assert type(clouds) is tuple and all(type(c) is int for c in clouds)
        assert len(set(clouds)) == len(clouds) == replicas
        assert set(clouds) <= feasible


def test_roulette_first_draw_distribution():
    memory = [Harmony(AllocationVector((i,)), float(i)) for i in range(3)]
    rng = random.Random(5)
    counts = Counter()
    draws = 30_000
    for _ in range(draws):
        first, second = roulette_select_pair(memory, rng)
        assert first != second
        counts[first] += 1
    # rank weights 3,2,1 over 6
    assert abs(counts[0] / draws - 1 / 2) <= 0.02
    assert abs(counts[1] / draws - 1 / 3) <= 0.02
    assert abs(counts[2] / draws - 1 / 6) <= 0.02


def test_roulette_is_rank_based_on_equal_costs():
    memory = [Harmony(AllocationVector((i,)), 1.0) for i in range(3)]
    rng = random.Random(6)
    counts = Counter()
    draws = 30_000
    for _ in range(draws):
        counts[roulette_select_pair(memory, rng)[0]] += 1
    assert abs(counts[0] / draws - 1 / 2) <= 0.02


def reference_roulette_select_pair(memory, rng: random.Random) -> tuple[int, int]:
    """roulette_select_pair as a running-sum scan per pick, the reference
    for its bisect over one table of running sums."""
    weights = list(range(len(memory), 0, -1))
    first = reference_roulette_draw(weights, rng)
    weights[first] = 0
    return first, reference_roulette_draw(weights, rng)


def reference_roulette_draw(weights, rng: random.Random) -> int:
    total = sum(weights)
    x = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return max(i for i, w in enumerate(weights) if w > 0)


@pytest.mark.parametrize("size", range(2, 17))
def test_roulette_matches_running_sum_reference(size):
    memory = [None] * size
    for seed in range(40):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(100):
            assert roulette_select_pair(memory, rng) == reference_roulette_select_pair(memory, reference)
        assert rng.getstate() == reference.getstate()


def draws_around(acc: float, total: int) -> tuple[float, float]:
    """The smallest u with u * total >= acc, and the float before it, whose
    draw is the largest below acc."""
    u = acc / total
    while u > 0.0 and math.nextafter(u, 0.0) * total >= acc:
        u = math.nextafter(u, 0.0)
    while u * total < acc:
        u = math.nextafter(u, 1.0)
    return u, math.nextafter(u, 0.0)


def boundary_draws(weights) -> list[float]:
    """random() values around each positive running weight sum, the points
    where the reference's x < acc test flips. Where no float u lands
    u * total on the sum itself (27 of 105, say), the two are the nearest
    on either side of it. At the total the u is 1.0, which random() never
    returns, but which takes each pick's fallback to the last positive weight."""
    total = sum(weights)
    draws = []
    for acc in sorted(set(itertools.accumulate(weights)) - {0}):
        u, below = draws_around(acc, total)
        assert below * total < acc <= u * total
        draws += [u, below]
    return draws


@pytest.mark.parametrize("size", range(2, 17))
def test_roulette_matches_reference_on_every_boundary(size):
    memory = [None] * size
    weights = list(range(size, 0, -1))
    pairs = landed = one_ulp_below = fallbacks = 0
    for u1 in boundary_draws(weights):
        first = reference_roulette_draw(weights, ScriptedRng([u1]))
        second_weights = [0 if i == first else w for i, w in enumerate(weights)]
        sums = set(itertools.accumulate(second_weights))
        for u2 in boundary_draws(second_weights):
            rng, reference = ScriptedRng([u1, u2]), ScriptedRng([u1, u2])
            assert roulette_select_pair(memory, rng) == reference_roulette_select_pair(memory, reference)
            assert rng.getstate() == reference.getstate() and not rng.script
            x = u2 * sum(second_weights)
            pairs += 1
            landed += x in sums
            one_ulp_below += math.nextafter(x, math.inf) in sums
            fallbacks += u1 == 1.0 or u2 == 1.0
    # most second draws land on a sum or one ulp below it
    assert landed >= pairs / 4 and one_ulp_below >= pairs / 4, (pairs, landed, one_ulp_below)
    assert fallbacks >= 2 * size


def test_roulette_on_a_large_memory_builds_one_small_table():
    # --hms has no upper bound, so the cached table must stay O(HMS): O(HMS²)
    # would take 46.7 MiB here. No other test uses this size, so it is built cold.
    memory = [None] * 1234
    tracemalloc.start()
    try:
        first, second = roulette_select_pair(memory, random.Random(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first != second and peak < 2**20, peak


def test_combine_identical_parents_returns_parent():
    parent = Harmony(AllocationVector((1, 2, 3)), 0.0)
    child = combine_harmonies(parent, parent, (0, 1, 2, 3, 4), random.Random(0))
    assert child.clouds == (1, 2, 3)


def test_combine_with_scripted_coins():
    a = Harmony(AllocationVector((1, 2, 3)), 0.0)
    b = Harmony(AllocationVector((4, 5, 6)), 0.0)
    # < 0.5 takes parent a's cell, otherwise parent b's
    rng = ScriptedRng([0.1, 0.9, 0.1])
    child = combine_harmonies(a, b, (1, 2, 3, 4, 5, 6), rng)
    assert child.clouds == (1, 5, 3)


def test_combine_repairs_duplicates():
    a = Harmony(AllocationVector((1, 2)), 0.0)
    b = Harmony(AllocationVector((2, 1)), 0.0)
    feasible = (0, 1, 2, 3)
    for seed in range(50):
        rng = ScriptedRng([0.1, 0.9])  # raw child (1, 1)
        rng.seed(seed)
        rng.script = [0.1, 0.9]
        child = combine_harmonies(a, b, feasible, rng)
        assert child.clouds[0] == 1
        assert child.clouds[1] in {0, 2, 3}


def test_combine_of_disjoint_parents_draws_one_coin_per_position():
    # no duplicate to repair: the child takes r coins and the generator
    # ends exactly r random() calls further on
    for seed in range(200):
        rng = random.Random(seed)
        r = rng.randint(1, 6)
        ids = rng.sample(range(20), 2 * r)
        a = Harmony(AllocationVector(tuple(ids[:r])), 0.0)
        b = Harmony(AllocationVector(tuple(ids[r:])), 0.0)
        reference = random.Random()
        reference.setstate(rng.getstate())
        coins = [reference.random() for _ in range(r)]
        child = combine_harmonies(a, b, tuple(range(20)), rng)
        assert child.clouds == tuple(
            x if coin < 0.5 else y for coin, x, y in zip(coins, a.vector.clouds, b.vector.clouds)
        )
        assert rng.getstate() == reference.getstate()


def test_combine_always_duplicate_free():
    problem = make_problem(7)
    rng = random.Random(7)
    for _ in range(300):
        a = Harmony(random_allocation(problem, rng), 0.0)
        b = Harmony(random_allocation(problem, rng), 0.0)
        child = combine_harmonies(a, b, problem.feasible_clouds, rng)
        assert len(set(child.clouds)) == len(child.clouds) == 3


def test_each_heuristic_checks_its_budget():
    problem = make_problem(10)
    rng = random.Random(0)
    with pytest.raises(ValueError, match="memory size must be >= 2"):
        hs_optimize(problem, 15, rng, memory_size_hms=1)
    # the memory alone spends memory_size_hms evaluations, so at least one exercise must remain
    for budget in (optimize.HMS, 5, 0):
        with pytest.raises(ValueError, match="budget must exceed the memory size"):
            hs_optimize(problem, budget, rng)
    # a budget below 1 would still buy one evaluation, more than it allows
    for search in (random_search, ga_optimize, foa_optimize):
        for budget in (0, -5):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                search(problem, budget, rng)


def test_hs_single_point_space():
    problem = tiny_problem()
    result = hs_optimize(problem, 60, random.Random(3))
    assert sorted(result.best.clouds) == [0, 1]
    assert result.best_cost == 1.05


def test_hs_trace_and_determinism():
    problem = make_problem(9)
    first = hs_optimize(problem, 50, random.Random(17))
    second = hs_optimize(problem, 50, random.Random(17))
    assert first == second
    assert len(first.trace) == 40
    assert first.evaluations == 10 + 40
    assert first.best_cost == first.trace[-1]
    assert all(a >= b for a, b in zip(first.trace, first.trace[1:]))
    assert first.best_cost == problem.objective(first.best)


def test_random_search_contract():
    problem = make_problem(11)
    rng = random.Random(0)
    single = random_search(problem, 1, rng)
    assert len(single.trace) == 1
    assert single.best_cost == single.trace[0]

    result = random_search(problem, 80, random.Random(1))
    assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))
    assert result.evaluations == 80
    with pytest.raises(ValueError):
        random_search(problem, 0, rng)


def test_random_search_finds_small_optimum():
    # 6 subsets, 100 draws: miss probability (5/6)^100 ~ 1.2e-8
    for seed in range(5):
        problem = make_problem(12 + seed, num_clouds=4, replicas=2)
        best = exhaustive_best(problem)
        found = random_search(problem, 100, random.Random(seed))
        assert found.best_cost == best.best_cost


@pytest.mark.parametrize("problem_seed,num_clouds,replicas", [(21, 5, 2), (22, 7, 2), (23, 8, 3)])
def test_random_search_mean_best_is_the_exact_expectation(problem_seed, num_clouds, replicas):
    # A uniform draw of r distinct clouds makes each of the N r-subsets equally
    # likely, so with subset costs sorted c_1 <= ... <= c_N the best of B
    # draws is c_i with probability ((N-i+1)/N)^B - ((N-i)/N)^B. The mean best
    # over many seeds must sit within a few standard errors of that value.
    budget, seeds = 15, 2000
    problem = make_problem(problem_seed, num_clouds, replicas)
    costs = sorted(problem.objective(AllocationVector(combo))
                   for combo in itertools.combinations(problem.feasible_clouds, replicas))
    n = len(costs)
    exact = sum(c * (((n - i) / n) ** budget - ((n - i - 1) / n) ** budget) for i, c in enumerate(costs))
    bests = [random_search(problem, budget, random.Random(seed)).best_cost for seed in range(seeds)]
    mean = math.fsum(bests) / seeds
    stderr = math.sqrt(math.fsum((b - mean) ** 2 for b in bests) / (seeds - 1) / seeds)
    assert abs(mean - exact) < 4 * stderr, (mean, exact, stderr)


def test_ga_single_point_space():
    result = ga_optimize(tiny_problem(), 40, random.Random(1))
    assert sorted(result.best.clouds) == [0, 1]


def test_ga_budget_and_trace():
    problem = make_problem(13)
    result = ga_optimize(problem, 560, random.Random(2))
    assert result.evaluations <= 560
    assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))
    assert result.best_cost == problem.objective(result.best)
    assert ga_optimize(problem, 560, random.Random(2)) == result


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 21, 30, 60, 240])
@pytest.mark.parametrize("algorithm", ["hs", "random", "ga", "foa"])
def test_every_heuristic_spends_exactly_its_budget(algorithm, budget):
    # hs needs one exercise beyond its memory, so its budgets start at HMS + 1
    if algorithm == "hs":
        budget += optimize.HMS
    search = {"hs": hs_optimize, "random": random_search, "ga": ga_optimize, "foa": foa_optimize}[algorithm]
    problem = make_problem(15)
    objective = problem.objective
    calls = 0

    def counting(vector):
        nonlocal calls
        calls += 1
        return objective(vector)

    problem.objective = counting
    result = search(problem, budget, random.Random(4))
    assert calls == result.evaluations == budget
    assert result.best_cost == objective(result.best)


def test_ga_without_variation_keeps_best_constant(monkeypatch):
    monkeypatch.setattr(optimize, "GA_CROSSOVER_RATE", 0.0)
    monkeypatch.setattr(optimize, "GA_MUTATION_RATE", 0.0)
    problem = make_problem(14)
    result = ga_optimize(problem, 200, random.Random(3))
    assert all(value == result.trace[0] for value in result.trace)


def test_ga_majority_optimal_at_matched_budget():
    hits = 0
    for seed in range(100):
        problem = make_problem(20_000 + seed)
        best = exhaustive_best(problem)
        got = ga_optimize(problem, 560, random.Random(seed))
        assert got.best_cost >= best.best_cost
        hits += got.best_cost == best.best_cost
    assert hits > 50


def test_foa_single_point_space():
    result = foa_optimize(tiny_problem(), 40, random.Random(1))
    assert sorted(result.best.clouds) == [0, 1]


def test_foa_budget_trace_determinism():
    problem = make_problem(15)
    result = foa_optimize(problem, 560, random.Random(4))
    assert result.evaluations <= 560
    assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))
    assert foa_optimize(problem, 560, random.Random(4)) == result
    assert result.best_cost == problem.objective(result.best)


def test_foa_majority_optimal_at_matched_budget():
    hits = 0
    for seed in range(100):
        problem = make_problem(30_000 + seed)
        best = exhaustive_best(problem)
        got = foa_optimize(problem, 560, random.Random(seed))
        assert got.best_cost >= best.best_cost
        hits += got.best_cost == best.best_cost
    assert hits > 50


def test_exhaustive_counts_subsets():
    problem = make_problem(16, num_clouds=4, replicas=2)
    result = exhaustive_best(problem)
    assert result.evaluations == 6
    assert len(result.trace) == 6


def test_exhaustive_tie_break_is_lexicographic():
    # fully symmetric topology: every subset costs the same
    gateways = (Gateway(0, 10.0, 0.5),)
    clouds = tuple(MiniCloud(c, 10.0, 10.0, 0.5, 1e6) for c in range(5))
    links = LinkMatrix(
        [[1000.0] * 5],
        [[0.0 if a == b else 1000.0 for b in range(5)] for a in range(5)],
    )
    t = Topology(gateways, clouds, links)
    d = DataItem(0, 40.0, 0, 2)
    result = exhaustive_best(PlacementProblem(t, d, CostModel(t).objective(d)))
    assert result.best.clouds == (0, 1)
    assert CostModel(t).best_allocation(d, tuple(range(5)), 2)[0].clouds == (0, 1)


@pytest.mark.parametrize("make", [make_topology, tie_heavy_topology])
def test_best_allocation_matches_exhaustive_oracle(make):
    checked = 0
    for seed in range(400):
        rng = random.Random(seed)
        num_clouds = rng.randint(2, 10)
        t = make(rng, rng.randint(1, 4), num_clouds)
        model = CostModel(t)
        for r in range(1, min(4, num_clouds) + 1):
            d = DataItem(0, float(rng.randint(20, 100)), rng.randrange(t.num_gateways), r)
            try:
                problem = PlacementProblem(t, d, model.objective(d))
            except Infeasible:
                continue
            oracle = exhaustive_best(problem)
            vector, cost = model.best_allocation(d, problem.feasible_clouds, r)
            assert vector == oracle.best, (seed, r)
            assert model.total(d, vector).hex() == oracle.best_cost.hex(), (seed, r)
            assert cost.hex() == model.total(d, vector).hex(), (seed, r)
            checked += 1
    assert checked > 800


def enumerated_best(model: CostModel, d: DataItem, feasible, r: int) -> tuple[float, tuple[int, ...]]:
    """The first cheapest r-subset of sorted(feasible), in enumeration order."""
    best = None
    for combo in itertools.combinations(sorted(feasible), r):
        cost = model.total(d, AllocationVector.unchecked(combo))
        if best is None or cost < best[0]:
            best = (cost, combo)
    return best


# make_topology with capacities that a datum of 20..100 bytes often exceeds;
# tie_heavy_topology's clouds hold 50 bytes or 1e6
@pytest.mark.parametrize(
    "make", [functools.partial(make_topology, capacity=(20.0, 150.0)), tie_heavy_topology],
    ids=["make_topology", "tie_heavy_topology"],
)
def test_best_allocation_matches_enumeration_beyond_ten_clouds(make):
    checked = walked = zero_size = 0
    for seed in range(60):
        rng = random.Random(7_000 + seed)
        num_clouds = rng.randint(11, 25)
        t = make(rng, 3, num_clouds)
        model = CostModel(t)
        for r in range(1, 5):
            size = 0.0 if rng.random() < 0.15 else float(rng.randint(20, 100))
            d = DataItem(0, size, rng.randrange(3), r)
            try:
                feasible = PlacementProblem(t, d, model.objective(d)).feasible_clouds
            except Infeasible:
                continue
            cost, combo = enumerated_best(model, d, feasible, r)
            vector, solved = model.best_allocation(d, feasible, r)
            assert vector.clouds == combo, (seed, r)
            assert model.total(d, vector).hex() == cost.hex(), (seed, r)
            assert solved.hex() == model.total(d, vector).hex(), (seed, r)
            # the answer does not depend on the order feasible lists the clouds in
            shuffled = list(feasible)
            rng.shuffle(shuffled)
            assert model.best_allocation(d, tuple(shuffled), r)[0] == vector, (seed, r)
            checked += 1
            walked += r > 1 and len(feasible) < num_clouds
            zero_size += size == 0.0
    assert checked > 200 and walked > 60 and zero_size > 20, (checked, walked, zero_size)


def test_best_allocation_rejects_bad_replica_count(example_topology):
    model = CostModel(example_topology)
    for r in (0, 3):
        with pytest.raises(ValueError):
            model.best_allocation(DataItem(0, 10.0, 0, 2), (0, 1), r)


def test_exhaustive_dominates_every_optimizer():
    for seed in range(20):
        problem = make_problem(40_000 + seed)
        floor = exhaustive_best(problem).best_cost
        assert hs_optimize(problem, 30, random.Random(seed)).best_cost >= floor
        assert random_search(problem, 30, random.Random(seed)).best_cost >= floor
        assert ga_optimize(problem, 30, random.Random(seed)).best_cost >= floor
        assert foa_optimize(problem, 30, random.Random(seed)).best_cost >= floor
