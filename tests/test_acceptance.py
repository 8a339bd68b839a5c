"""Acceptance gate: the eight release criteria.

Each test is one criterion and prints one PASS line with its measured
numbers; tolerances and runtime budgets are asserted, not just observed.
"""

import filecmp
import itertools
import random
import time

import pytest

from replica_harmony.cli import main
from replica_harmony.cost import CostModel, placement_energy
from replica_harmony.harness import compare_algorithms, run_trial_detailed
from replica_harmony.model import AllocationVector, DataItem
from replica_harmony.optimize import (
    PlacementProblem,
    exhaustive_best,
    foa_optimize,
    ga_optimize,
    hs_optimize,
    random_search,
)
from replica_harmony.scenario import builtin_scenario

from conftest import make_topology
from reference import validate_topology
from test_cost import naive_replication_cost, random_instance


def test_c1_cost_oracle_equivalence_and_permutation_invariance():
    started = time.perf_counter()
    for seed in range(1_000):
        t, d, a = random_instance(seed)
        model = CostModel(t)
        got = model.total(d, a)
        want = naive_replication_cost(t, d, a)
        assert got == pytest.approx(want, rel=1e-12)
        for perm in itertools.permutations(a.clouds):
            assert model.total(d, AllocationVector(perm)) == got
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: 1000 instances match the brute-force oracle at 1e-12, "
          f"permutation-exact, in {elapsed:.2f}s")


def test_c2_worked_example_exact(example_topology):
    from replica_harmony.cost import replication_cost

    breakdown = replication_cost(
        example_topology, DataItem(0, 100.0, 0, 2), AllocationVector((0, 1))
    )
    assert breakdown.total == 1.05
    assert breakdown.entry_cloud == 0
    print("\nPASS criterion 2: two-replica worked example costs exactly 1.05 s via entry cloud c1")


def test_c3_hs_reaches_exhaustive_optimum_at_desk_scale():
    started = time.perf_counter()
    hits = 0
    dominance_violations = 0
    trials = 100
    for trial in range(trials):
        rng = random.Random(460_000 + trial)
        t = make_topology(rng, 5, 8)
        d = DataItem(0, float(rng.randint(20, 100)), rng.randrange(5), 3)
        problem = PlacementProblem(t, d, CostModel(t).objective(d))
        floor = exhaustive_best(problem).best_cost

        hs = hs_optimize(problem, 210, random.Random(trial))
        others = (
            random_search(problem, 210, random.Random(trial)),
            ga_optimize(problem, 210, random.Random(trial)),
            foa_optimize(problem, 210, random.Random(trial)),
        )
        for result in (hs,) + others:
            if result.best_cost < floor:
                dominance_violations += 1
        hits += hs.best_cost == floor
    elapsed = time.perf_counter() - started
    assert dominance_violations == 0
    assert hits >= 95
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: HS matched the exhaustive optimum in {hits}/100 trials, "
          f"0 dominance violations, in {elapsed:.2f}s")


def test_c4_hs_beats_baselines_across_builtin_scenarios():
    started = time.perf_counter()
    seeds = list(range(30))
    algorithms = ["hs", "random", "ga", "foa"]
    ga_foa_wins = 0
    lines = []
    for k in (1, 2, 3, 4):
        spec = builtin_scenario(k)
        table = compare_algorithms(spec, algorithms, seeds)
        means = {row.algorithm: row.mean_cost_s for row in table.rows}
        win = table.win_rates[("hs", "random")]
        assert means["hs"] <= means["random"], f"scenario {k}: hs mean above random"
        assert win >= 0.90, f"scenario {k}: hs-vs-random win rate {win}"
        ga_foa_wins += means["hs"] <= means["ga"] and means["hs"] <= means["foa"]
        lines.append(f"builtin:{k} win={win:.2f} hs={means['hs']:.4f} rnd={means['random']:.4f} "
                     f"ga={means['ga']:.4f} foa={means['foa']:.4f}")
    elapsed = time.perf_counter() - started
    assert ga_foa_wins >= 3
    assert elapsed < 600.0
    print("\nPASS criterion 4: HS at or below random on 4/4 scenarios (win rate >= 0.90) and "
          f"at or below GA+FOA on {ga_foa_wins}/4, in {elapsed:.1f}s")
    for line in lines:
        print("  " + line)


def test_c5_hs_trace_is_monotone_for_1000_runs():
    violations = 0
    for seed in range(1_000):
        problem_seed = 520_000 + seed % 50  # 50 problems x 20 seeds
        rng = random.Random(problem_seed)
        t = make_topology(rng, 3, 8)
        d = DataItem(0, float(rng.randint(20, 100)), rng.randrange(3), 3)
        problem = PlacementProblem(t, d, CostModel(t).objective(d))
        result = hs_optimize(problem, 40, random.Random(seed))
        if any(later > earlier for earlier, later in zip(result.trace, result.trace[1:])):
            violations += 1
    assert violations == 0
    print("\nPASS criterion 5: 1000 HS traces non-increasing at every exercise")


def test_c6_compare_outputs_are_byte_identical(tmp_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        argv = [
            "compare", "--scenario", "builtin:1",
            "--algo", "hs", "--algo", "random", "--algo", "ga", "--algo", "foa",
            "--seeds", "1", "--out", str(out), "--threads", threads,
        ]
        assert main(argv) == 0
        outs.append(out)

    names = sorted(p.name for p in outs[0].iterdir())
    assert names  # comparison, win rates, three plots
    for other in outs[1:]:
        assert sorted(p.name for p in other.iterdir()) == names
        match, mismatch, errors = filecmp.cmpfiles(outs[0], other, names, shallow=False)
        assert mismatch == [] and errors == []
    print(f"\nPASS criterion 6: {len(names)} compare outputs byte-identical across reruns "
          "and across --threads 1 vs 8")


def test_c7_capacity_conservation_on_every_builtin_scenario():
    for k in (1, 2, 3, 4):
        result = run_trial_detailed(builtin_scenario(k), "hs", 11)
        topology = result.final_topology
        for cloud in topology.clouds:
            assert cloud.used_capacity <= cloud.total_capacity
        assert validate_topology(topology) == []
        placed_bytes = sum(d.size * len(a) for d, a in result.placements if a is not None)
        used_bytes = sum(c.used_capacity for c in topology.clouds)
        assert used_bytes == placed_bytes  # exact: integral byte sizes
    print("\nPASS criterion 7: all four builtin trials conserve capacity exactly, "
          "no cloud over its total")


def test_c8_metric_models_are_monotone():
    increasing_checks = 0
    delay_checks = 0
    for seed in range(10_000):
        rng = random.Random(600_000 + seed)
        n = rng.randint(3, 8)
        t = make_topology(rng, 2, n)
        model = CostModel(t)
        d = DataItem(0, float(rng.randint(20, 100)), rng.randrange(2), 1)
        r = rng.randint(1, n - 1)
        ids = rng.sample(range(n), r + 1)
        smaller = AllocationVector(tuple(ids[:r]))
        larger = AllocationVector(tuple(ids))

        assert placement_energy(d, larger) > placement_energy(d, smaller)
        increasing_checks += 1

        requester = rng.randrange(2)
        assert model.access_delay(d, larger, requester) <= model.access_delay(d, smaller, requester)
        delay_checks += 1
    assert increasing_checks == delay_checks == 10_000
    print("\nPASS criterion 8: energy strictly increasing and access delay min-monotone "
          "over 10000 instances")
