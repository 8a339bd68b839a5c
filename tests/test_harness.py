import gc
import math
import os
import random
import time
import weakref
from collections import Counter
from operator import attrgetter

import pytest

from replica_harmony import harness
from replica_harmony.cost import CostModel, EnergyParams
from replica_harmony.errors import ConfigError, MalformedInput
from replica_harmony.harness import (
    ALGORITHMS,
    CSV_HEADER,
    Experiment,
    RunReport,
    RunTotals,
    TimestepRecord,
    TrialOptions,
    build_experiment,
    check_summary,
    compare_algorithms,
    comparison_table,
    fan_out,
    recompute_totals,
    report_from_csv,
    report_to_csv,
    run_grids,
    run_trial,
    run_trial_detailed,
    seed_mean,
    totals_to_dict,
    win_rate,
)
from replica_harmony.model import LinkMatrix, MiniCloud, Topology, json_text
from replica_harmony.optimize import PlacementProblem, exhaustive_best
from replica_harmony.scenario import ScenarioSpec, builtin_scenario
from replica_harmony.seeding import derive_seed

from conftest import committed


def small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="small",
        num_gateways=4,
        num_clouds=6,
        timesteps=30,
        arrival_probability=0.3,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_run_trial_shape_and_totals():
    spec = small_spec()
    report = run_trial(spec, "hs", 1)
    assert report.scenario == "small"
    assert report.algorithm == "hs"
    assert report.seed == 1
    assert len(report.series) == 30
    assert [rec.timestep for rec in report.series] == list(range(1, 31))
    assert report.totals == recompute_totals(report.series)
    assert report.totals.placed + report.totals.failures == sum(
        rec.placed + rec.failures for rec in report.series
    )


def test_run_trial_deterministic_despite_wall_clock():
    spec = small_spec()
    first = run_trial(spec, "ga", 5)
    second = run_trial(spec, "ga", 5)
    assert first == second


def test_run_trial_rejects_unknown_algorithm():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        run_trial(small_spec(), "annealing", 0)


def test_run_trial_empty_workload():
    report = run_trial(small_spec(arrival_probability=0.0), "hs", 2)
    assert len(report.series) == 30
    assert report.totals.placed == 0
    assert report.totals.failures == 0
    assert report.totals.mean_cost_s == 0.0
    assert report.totals.energy_j == 0.0
    assert all(rec.placed == 0 and rec.mean_cost_s == 0.0 for rec in report.series)


def test_workload_is_algorithm_independent():
    spec = small_spec()
    data_hs = [d for d, _ in run_trial_detailed(spec, "hs", 3).placements]
    data_rnd = [d for d, _ in run_trial_detailed(spec, "random", 3).placements]
    assert data_hs == data_rnd
    assert run_trial(spec, "hs", 3) != run_trial(spec, "hs", 4)


def test_capacity_accounting_with_forced_failures():
    # tiny capacities: ~270 arrivals of >= 2 x 20 bytes cannot all fit in
    # 6 clouds of <= 600 bytes
    spec = small_spec(capacity_range_bytes=(300.0, 600.0))
    result = run_trial_detailed(spec, "hs", 7)
    assert result.report.totals.failures > 0
    assert result.report.totals.placed > 0
    placed_bytes = sum(d.size * len(a) for d, a in result.placements if a is not None)
    used_bytes = sum(c.used_capacity for c in result.final_topology.clouds)
    assert used_bytes == placed_bytes
    for cloud in result.final_topology.clouds:
        assert cloud.used_capacity <= cloud.total_capacity
    assert result.report.totals.placed + result.report.totals.failures == len(result.placements)


def test_exhaustive_algorithm_runs():
    report = run_trial(small_spec(timesteps=10), "exhaustive", 1)
    hs = run_trial(small_spec(timesteps=10), "hs", 1)
    assert report.totals.mean_cost_s <= hs.totals.mean_cost_s


def test_exercises_drawn_from_spec_range():
    # the per-datum draw from the spec range is the harness's; a one-value
    # range is the same as a fixed exercise count
    fixed = run_trial(small_spec(timesteps=10), "hs", 1, TrialOptions(exercises=3))
    drawn = run_trial(small_spec(timesteps=10, exercises_range=(3, 3)), "hs", 1)
    assert drawn == fixed
    assert drawn != run_trial(small_spec(timesteps=10), "hs", 1)


def test_trial_options_override_budget():
    spec = small_spec(timesteps=10)
    fat = run_trial(spec, "random", 1, TrialOptions(exercises=190))
    thin = run_trial(spec, "random", 1, TrialOptions(exercises=1))
    assert fat.totals.mean_cost_s <= thin.totals.mean_cost_s


@pytest.mark.parametrize("algorithm", ["hs", "random", "ga", "foa"])
def test_every_heuristic_spends_hms_plus_exercises(algorithm):
    experiment = build_experiment(small_spec(num_clouds=12), 0)
    datum = experiment.workload[0]
    problem = PlacementProblem(experiment.topology, datum, experiment.model.objective(datum))
    for hms in (2, 10, 40):
        for exercises in (1, 5, 10):
            result = harness._run_optimizer(algorithm, problem, experiment, 0, TrialOptions(hms, exercises))
            assert result.evaluations == hms + exercises, (hms, exercises)


def test_compare_single_cell_collapses_to_run_trial():
    spec = small_spec()
    table = compare_algorithms(spec, ["hs"], [4])
    report = run_trial(spec, "hs", 4)
    row = table.rows[0]
    assert row.algorithm == "hs"
    assert row.mean_cost_s == report.totals.mean_cost_s
    assert row.std_cost_s == 0.0
    assert row.mean_delay_s == report.totals.mean_delay_s
    assert row.mean_energy_j == report.totals.energy_j
    assert table.win_rates == {}


def test_run_grid_keys_are_algorithm_major():
    grid = run_grids([(small_spec(timesteps=5), [3, 1])], ["random", "hs"])[0]
    assert list(grid) == [("random", 3), ("random", 1), ("hs", 3), ("hs", 1)]
    assert grid[("hs", 1)] == run_trial(small_spec(timesteps=5), "hs", 1)


@pytest.mark.parametrize("options", [TrialOptions(), TrialOptions(exercises=3)], ids=["drawn", "fixed"])
def test_shared_experiment_gives_the_same_reports(options):
    # tight capacities so the failure path runs too
    spec = small_spec(timesteps=12, capacity_range_bytes=(300.0, 600.0))
    experiment = build_experiment(spec, 6)
    assert len(experiment.exercises) == len(experiment.requesters) == len(experiment.workload)
    for algo in ALGORITHMS:
        shared = run_trial_detailed(spec, algo, 6, options, experiment)
        alone = run_trial_detailed(spec, algo, 6, options)
        assert shared.report == alone.report
        assert shared.placements == alone.placements
        assert shared.final_topology == alone.final_topology
    # trials never change the experiment they share: the model is a function
    # of the topology, and the exercises of the spec and seed; each trial's
    # capacity ledger is its own, so the shared topology still holds no byte
    inputs = attrgetter("spec", "root_seed", "topology", "workload", "requesters")
    assert inputs(experiment) == inputs(build_experiment(spec, 6))
    assert {c.used_capacity for c in experiment.topology.clouds} == {0.0}
    assert all(c.used_capacity > 0.0 for c in shared.final_topology.clouds)


@pytest.mark.parametrize("k", [1, 4])
def test_capacity_that_never_binds_is_invisible(k):
    # A metamorphic relation (Chen et al., "Metamorphic Testing: A Review of
    # Challenges and Opportunities", ACM Computing Surveys 51(1), 2018):
    # capacities ten times larger take the same one draw per cloud, so every
    # other draw is unchanged, and where no datum fails on either side every
    # algorithm must place the same data at the same costs.
    spec = builtin_scenario(k)._replace(timesteps=60)
    lo, hi = spec.capacity_range_bytes
    roomy = spec._replace(capacity_range_bytes=(10 * lo, 10 * hi))
    reports, roomy_reports = run_grids([(spec, [0, 1]), (roomy, [0, 1])], ALGORITHMS)
    for trial, report in reports.items():
        assert report.totals.failures == roomy_reports[trial].totals.failures == 0, trial
        assert report.series == roomy_reports[trial].series, trial


def exhaustive_trials(experiment: Experiment, topology: Topology, workload=None, requesters=None):
    """The exhaustive trial of the experiment, and the one with its topology,
    and its workload and requesters where given, replaced."""
    e = experiment
    workload = e.workload if workload is None else workload
    requesters = e.requesters if requesters is None else requesters
    changed = Experiment(e.spec, e.root_seed, topology, workload, CostModel(topology), requesters)
    return [run_trial_detailed(e.spec, "exhaustive", e.root_seed, experiment=x) for x in (e, changed)]


def placed_sets(trial, label=lambda c: c) -> list:
    return [None if vector is None else sorted(map(label, vector)) for _, vector in trial.placements]


# Relabelling relations hold for the exact solver, whose answer does not
# depend on the names of the clouds or gateways: a heuristic's draws index
# the feasible ids, so relabelling moves them. The trial reads cloud ids as
# positions in its capacity ledger and cost tables, which these guard.
@pytest.mark.parametrize("k", [1, 4])
def test_relabelling_the_clouds_keeps_every_exhaustive_series(k):
    spec = builtin_scenario(k)._replace(timesteps=60)
    for seed in (0, 1):
        experiment = build_experiment(spec, seed)
        t = experiment.topology
        old = list(range(t.num_clouds))  # new cloud i is the drawn cloud old[i]
        random.Random(seed).shuffle(old)
        assert old != sorted(old)
        clouds = tuple(t.clouds[o]._replace(id=i) for i, o in enumerate(old))
        gw, cc = t.links
        links = LinkMatrix([[row[o] for o in old] for row in gw], [[cc[a][b] for b in old] for a in old])
        trial, relabelled = exhaustive_trials(experiment, Topology(t.gateways, clouds, links))
        assert relabelled.report.series == trial.report.series, seed
        assert placed_sets(relabelled, old.__getitem__) == placed_sets(trial), seed


@pytest.mark.parametrize("k", [1, 4])
def test_relabelling_the_gateways_keeps_every_exhaustive_series(k):
    spec = builtin_scenario(k)._replace(timesteps=60)
    for seed in (0, 1):
        experiment = build_experiment(spec, seed)
        t = experiment.topology
        old = list(range(t.num_gateways))  # new gateway i is the drawn gateway old[i]
        random.Random(seed).shuffle(old)
        assert old != sorted(old)
        new = {o: i for i, o in enumerate(old)}
        gateways = tuple(t.gateways[o]._replace(id=i) for i, o in enumerate(old))
        links = LinkMatrix([t.links.gw_to_cloud[o] for o in old], t.links.cloud_to_cloud)
        workload = tuple(d._replace(source_gateway=new[d.source_gateway]) for d in experiment.workload)
        requesters = tuple(new[g] for g in experiment.requesters)
        trial, relabelled = exhaustive_trials(experiment, Topology(gateways, t.clouds, links), workload, requesters)
        assert relabelled.report.series == trial.report.series, seed
        assert placed_sets(relabelled) == placed_sets(trial), seed


@pytest.mark.parametrize("k", [1, 4])
def test_a_dominated_cloud_keeps_every_exhaustive_series(k):
    # the added cloud waits 1e4 s, writes and reads at 1e4 ms/B over 1 B/s
    # links and never fills, so any vector holding it costs thousands of
    # seconds more than one that does not
    spec = builtin_scenario(k)._replace(timesteps=60)
    for seed in (0, 1):
        experiment = build_experiment(spec, seed)
        t = experiment.topology
        n = t.num_clouds
        clouds = t.clouds + (MiniCloud(n, 1e4, 1e4, 1e4, 1e12),)
        gw, cc = t.links
        links = LinkMatrix([row + (1.0,) for row in gw], [row + (1.0,) for row in cc] + [(1.0,) * n + (0.0,)])
        trial, widened = exhaustive_trials(experiment, Topology(t.gateways, clouds, links))
        assert widened.report.series == trial.report.series, seed
        assert placed_sets(widened) == placed_sets(trial), seed


def test_more_capacity_can_place_fewer_data():
    # Online greedy placement is not monotone in capacity. With 200 bytes
    # more, cloud 0 still has room at the 48th datum, which takes clouds
    # {0, 4} in place of {2, 4}, and the next datum, which failed before,
    # fits on {0, 2, 4}; what those fill leaves three later data without
    # room, so the exact per-datum rule places 51 data where it placed 53.
    # On this spec, at seeds 0-19, 200 bytes more on one cloud placed fewer
    # data in 12 of 160 cases.
    spec = ScenarioSpec("tight", 22, 8, timesteps=40, capacity_range_bytes=(800.0, 2000.0))
    experiment = build_experiment(spec, 14)
    t = experiment.topology
    roomier = t._replace(clouds=(t.clouds[0]._replace(total_capacity=t.clouds[0].total_capacity + 200.0),)
                         + t.clouds[1:])
    trial, more_room = exhaustive_trials(experiment, roomier)
    assert [x.report.totals.placed for x in (trial, more_room)] == [53, 51]
    assert trial.report.totals.failures == 44


# seeds 0, stride, 2 * stride: stride 2 leaves gaps in the seed list
@pytest.mark.parametrize("stride", [1, 2])
def test_run_grid_builds_one_experiment_per_seed(monkeypatch, stride):
    calls = []
    original = harness.generate_topology

    def counting(spec, rng):
        calls.append(spec.name)
        return original(spec, rng)

    monkeypatch.setattr(harness, "generate_topology", counting)
    run_grids([(small_spec(timesteps=5), [0, stride, 2 * stride])], ["hs", "random", "ga", "foa"])[0]
    assert len(calls) == 3


@pytest.mark.parametrize("stride", [1, 2])
def test_run_grid_frees_each_experiment_before_the_next(monkeypatch, stride):
    previous = []
    original = harness.build_experiment

    def tracked(spec, seed):
        gc.collect()
        assert all(ref() is None for ref in previous), "the last seed's experiment is alive"
        experiment = original(spec, seed)
        previous.append(weakref.ref(experiment))
        return experiment

    monkeypatch.setattr(harness, "build_experiment", tracked)
    run_grids([(small_spec(timesteps=5), [0, stride, 2 * stride])], ["hs", "random"])[0]
    assert len(previous) == 3


# a fan-out forks min(workers, units, CPUs) - 1 children, never more processes than CPUs
CPUS = len(os.sched_getaffinity(0))
TWO = min(2, CPUS)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch) -> list:
    """The pids os.fork returns in this process from now on."""
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def where(unit):
    """The unit, the process that ran it and the CPUs that process may use."""
    return unit, os.getpid(), os.sched_getaffinity(0)


def test_fan_out_stripes_units_over_workers():
    mask = os.sched_getaffinity(0)
    results = fan_out(where, range(5), 2)
    assert [unit for unit, _, _ in results] == list(range(5))
    # unit i runs on worker i % 2, and this process is worker 0
    assert [pid == os.getpid() for _, pid, _ in results] == [True, TWO == 1, True, TWO == 1, True]
    assert len({pid for _, pid, _ in results}) == TWO
    if TWO == CPUS == 2:
        # two workers fill a 2-CPU mask, so each runs on a CPU of its own
        assert sorted(cpus for _, _, cpus in results[:2]) == [{cpu} for cpu in sorted(mask)]
    assert os.sched_getaffinity(0) == mask
    assert_no_child_left()


@pytest.mark.parametrize("mask_size", [2, 4])
def test_fan_out_pins_workers_only_when_they_fill_the_mask(monkeypatch, mask_size):
    # pinned where the workers take every CPU of the mask; with CPUs to
    # spare, concurrent jobs pinned to the same ones would share them
    pins = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(mask_size)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append(set(cpus)))
    results = fan_out(lambda unit: list(pins), range(3), TWO)
    if TWO == 1:
        assert results == [[]] * 3 and pins == []
    elif mask_size == 2:
        # each worker's pin, then this process restores its mask
        assert results == [[{0}], [{1}], [{0}]]
        assert pins == [{0}, {0, 1}]
    else:
        assert results == [[]] * 3 and pins == []
    assert_no_child_left()


def test_a_failed_fork_closes_its_pipe_and_reaps_the_forked_workers(monkeypatch):
    # worker 1 forks; worker 2's fork fails as it does when the process limit is reached
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(len(forks))
        if len(forks) > 1:
            raise BlockingIOError("fork refused")
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    monkeypatch.setattr(os, "fork", fork)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="fork refused"):
        fan_out(abs, [-1, -2, -3, -4], 3)
    assert forks == [0, 1]
    assert len(os.listdir("/proc/self/fd")) == fds
    assert_no_child_left()


def test_fan_out_at_one_worker_runs_every_unit_here():
    mask = os.sched_getaffinity(0)
    assert fan_out(where, range(3), 1) == [(unit, os.getpid(), mask) for unit in range(3)]


@pytest.mark.parametrize("failing", [{1}, {1, 2}, {0, 1}, {3, 4}], ids=str)
def test_fan_out_raises_the_lowest_failing_unit(failing):
    def run(unit):
        if unit in failing:
            raise KeyError(unit)
        return unit

    with pytest.raises(KeyError) as caught:
        fan_out(run, range(5), 2)
    assert caught.value.args == (min(failing),)
    assert_no_child_left()


PARENT = os.getpid()


def dies_in_a_child(unit):
    """Units 0-2 as the serial run gives them; unit 3 kills the forked worker running it."""
    if unit == 3 and os.getpid() != PARENT:
        os._exit(3)
    return unit


def test_fan_out_reports_a_worker_that_sends_nothing():
    if TWO == 1:
        assert fan_out(dies_in_a_child, range(4), 2) == [0, 1, 2, 3]
        return
    with pytest.raises(RuntimeError, match="worker 1 sent no readable results"):
        fan_out(dies_in_a_child, range(4), 2)
    assert_no_child_left()


def test_a_unit_that_raises_wins_over_a_worker_that_died():
    # this process fails at unit 2; worker 1 has run unit 1 and dies at unit 3
    def run(unit):
        if unit == 2:
            raise KeyError(unit)
        return dies_in_a_child(unit)

    with pytest.raises(KeyError) as caught:
        fan_out(run, range(4), 2)
    assert caught.value.args == (2,)
    assert_no_child_left()


@pytest.mark.parametrize("raising", [None, 2, 4], ids=["alone", "earlier-unit-raises", "later-unit-raises"])
def test_fan_out_reports_a_result_that_does_not_pickle_at_its_unit(raising):
    # unit 3's result does not pickle; in a child that fails the job at unit 3
    def run(unit):
        if unit == raising:
            raise KeyError(unit)
        return (lambda: unit) if unit == 3 else unit

    if TWO == 1:
        if raising is None:
            assert fan_out(run, range(5), 2)[:3] == [0, 1, 2]
            return
        expected = pytest.raises(KeyError)
    elif raising == 2:
        expected = pytest.raises(KeyError)
    else:
        expected = pytest.raises(RuntimeError, match="worker 1 could not send unit 3: .*lambda")
    with expected as caught:
        fan_out(run, range(5), 2)
    if caught.type is KeyError:
        assert caught.value.args == (raising,)
    assert_no_child_left()


@pytest.mark.skipif(CPUS < 2, reason="one CPU runs every unit here, so unit 0 would wait for unit 3 forever")
def test_a_worker_keeps_running_its_share_while_its_results_wait(tmp_path):
    # Worker 1 runs units 1 and 3, while this process, worker 0, waits in
    # unit 0 for unit 3. Unit 1's result outgrows a pipe buffer, so a worker
    # that sent each result as its unit ended would block and never run unit 3.
    ran = tmp_path / "unit 3 ran"
    big = bytes(256 * 1024)

    def run(unit):
        if unit == 0:
            deadline = time.monotonic() + 20
            while not ran.exists():
                assert time.monotonic() < deadline, "unit 3 did not run while unit 0 waited"
                time.sleep(0.005)
        elif unit == 1:
            return big
        elif unit == 3:
            ran.touch()
        return unit

    assert fan_out(run, range(4), 2) == [0, big, 2, 3]
    assert_no_child_left()


def test_workers_give_the_same_reports():
    spec = small_spec(timesteps=12, capacity_range_bytes=(300.0, 600.0))
    other = small_spec(timesteps=8, capacity_range_bytes=(300.0, 600.0))
    grids = [(spec, [0, 1, 2]), (other, [4])]
    serial = run_grids(grids, ALGORITHMS)
    parallel = run_grids(grids, ALGORITHMS, workers=2)
    assert parallel == serial
    assert [list(reports) for reports in parallel] == [list(reports) for reports in serial]
    table = comparison_table(ALGORITHMS, [0, 1, 2], parallel[0])
    assert table == compare_algorithms(spec, ALGORITHMS, [0, 1, 2])
    assert_no_child_left()


@pytest.mark.parametrize("seeds", [[0, 1, 2], [5]], ids=["3seeds", "1seed"])
def test_compare_fans_its_seeds_out_over_the_cpus(monkeypatch, seeds):
    # one (spec, seed) unit per seed, so min(CPUs, seeds) processes: a
    # single seed runs here
    spec = small_spec(timesteps=12, capacity_range_bytes=(300.0, 600.0))
    algos = ["hs", "random", "exhaustive"]
    mask = os.sched_getaffinity(0)
    forks = counting_forks(monkeypatch)
    table = compare_algorithms(spec, algos, seeds)
    assert len(forks) == min(CPUS, len(seeds)) - 1
    assert_no_child_left()
    assert os.sched_getaffinity(0) == mask
    assert table == comparison_table(algos, seeds, run_grids([(spec, seeds)], algos)[0])
    assert len(forks) == min(CPUS, len(seeds)) - 1  # run_grids defaults to one worker


def count_derived_labels(monkeypatch) -> Counter:
    """Count each harness.derive_seed call by its label (the part after the scenario name)."""
    labels = Counter()
    original = harness.derive_seed

    def counting(root_seed, name, label, *rest):
        labels[label] += 1
        return original(root_seed, name, label, *rest)

    monkeypatch.setattr(harness, "derive_seed", counting)
    return labels


def data_per_seed(spec, seeds) -> int:
    return sum(len(build_experiment(spec, seed).workload) for seed in seeds)


def test_exhaustive_run_derives_no_optimizer_or_exercise_seed(monkeypatch):
    spec = small_spec(timesteps=12, capacity_range_bytes=(300.0, 600.0))
    data = data_per_seed(spec, [0, 1])
    labels = count_derived_labels(monkeypatch)
    reports = run_grids([(spec, [0, 1])], ["exhaustive"])[0]
    assert sum(r.totals.failures for r in reports.values()) > 0  # failed data draw nothing either
    assert labels == {"topology": 2, "workload": 2, "requester": data}


def test_fixed_exercises_derive_no_exercise_seed(monkeypatch):
    spec = small_spec(timesteps=12)
    data = data_per_seed(spec, [0])
    labels = count_derived_labels(monkeypatch)
    run_grids([(spec, [0])], ["hs", "random", "exhaustive"], TrialOptions(exercises=3))[0]
    assert labels == {"topology": 1, "workload": 1, "requester": data, "opt": 2 * data}


def test_drawn_exercises_are_the_eager_draws_once_per_experiment(monkeypatch):
    spec = small_spec(timesteps=12)
    experiment = build_experiment(spec, 5)
    # the formula build_experiment drew every count with before they were drawn on first use
    eager = tuple(
        random.Random(derive_seed(5, spec.name, "exercises", d.id)).randint(*spec.exercises_range)
        for d in experiment.workload
    )
    assert experiment.exercises == eager
    data = len(experiment.workload)
    labels = count_derived_labels(monkeypatch)
    run_grids([(spec, [5])], ["hs", "random"])[0]
    assert labels == {"topology": 1, "workload": 1, "requester": data, "exercises": data, "opt": 2 * data}


def test_failed_data_derive_no_optimizer_seed(monkeypatch):
    # tight capacities, so some data fail before any optimizer runs
    spec = small_spec(timesteps=12, capacity_range_bytes=(300.0, 600.0))
    labels = count_derived_labels(monkeypatch)
    reports = run_grids([(spec, [0, 1])], ["hs"])[0]
    placed = sum(r.totals.placed for r in reports.values())
    assert sum(r.totals.failures for r in reports.values()) > 0
    assert labels["opt"] == placed


def test_trial_rejects_an_experiment_of_another_scenario_or_seed():
    spec = small_spec(timesteps=4)
    others = [
        build_experiment(small_spec(name="other", timesteps=2), 0),  # another scenario
        build_experiment(small_spec(timesteps=2), 0),  # same name, other spec
        build_experiment(spec, 5),  # another seed
    ]
    for experiment in others:
        with pytest.raises(ConfigError, match="experiment"):
            run_trial(spec, "hs", 0, experiment=experiment)
    assert run_trial(spec, "hs", 0, experiment=build_experiment(spec, 0)) == run_trial(spec, "hs", 0)


def test_win_rate_pairs_only_shared_seeds():
    def fake(cost):
        return RunReport("s", "x", 0, (), RunTotals(cost, 0.0, 0.0, 1, 0))

    a = {0: fake(1.0), 1: fake(2.0), 2: fake(3.0)}
    b = {1: fake(2.0), 2: fake(1.0), 5: fake(9.0)}
    assert win_rate(a, b) == (0.25, 2)
    assert win_rate(b, a) == (0.75, 2)
    rate, paired = win_rate(a, {7: fake(1.0)})
    assert paired == 0 and math.isnan(rate)


def test_compare_win_rates_are_complementary():
    table = compare_algorithms(small_spec(timesteps=20), ["hs", "random"], [0, 1, 2, 3])
    total = table.win_rates[("hs", "random")] + table.win_rates[("random", "hs")]
    assert total == 1.0


def test_compare_rejects_empty_inputs():
    with pytest.raises(ConfigError, match="at least one algorithm and one seed"):
        compare_algorithms(small_spec(), [], [1])
    with pytest.raises(ConfigError, match="at least one algorithm and one seed"):
        compare_algorithms(small_spec(), ["hs"], [])
    with pytest.raises(ValueError):
        compare_algorithms(small_spec(), ["hs", "random"], [1, 2, 1])


def test_energy_cannot_rank_algorithms_that_place_the_same_data():
    # placement_energy depends only on a datum's size and replica count, so
    # with no failures every algorithm's energy is the same float, bit for bit
    table = compare_algorithms(small_spec(), ALGORITHMS, [0, 1, 2])
    assert all(row.failures == 0 and row.placed > 0 for row in table.rows)
    assert len({row.mean_energy_j.hex() for row in table.rows}) == 1
    assert len({row.mean_cost_s for row in table.rows}) > 1


def test_run_grid_rejects_repeated_seeds_before_any_trial(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "build_experiment", no_trials)
    with pytest.raises(ConfigError, match="repeat"):
        run_grids([(small_spec(), [3, 1, 3])], ["hs"])[0]
    with pytest.raises(ConfigError, match="repeat"):
        run_grids([(small_spec(), [3])], ["hs", "random", "hs"])[0]
    with pytest.raises(ConfigError, match="at least one algorithm and one seed"):
        run_grids([(small_spec(), [])], ["hs"])[0]


def test_run_grids_checks_every_grid_before_any_trial(trials):
    # at 4 replicas, 4 gateways and 30 timesteps, 1-byte data sum to 4.8e306 J and 1000-byte data overflow
    small = small_spec(data_size_range_bytes=(1, 1))
    big = small_spec(name="big", data_size_range_bytes=(1000, 1000))
    with pytest.raises(ConfigError, match="unknown algorithm 'nope'"):
        run_grids([(small, [0, 1])], ["hs", "nope"])
    with pytest.raises(ConfigError, match="energy overflows"):
        run_grids([(small, [0]), (big, [0])], ["hs"], TrialOptions(energy=EnergyParams(e_write=1e304)))
    with pytest.raises(ConfigError, match="--threads"):
        run_grids([(small, [0])], ["hs"], workers=0)
    assert trials == []


def test_check_totals_rejects_tampered_totals():
    report = run_trial(small_spec(), "hs", 2)
    check_summary(report, json_text(totals_to_dict(report)))
    cost = report.totals.mean_cost_s
    tampers = [{"mean_cost_s": cost + 1.0}, {"mean_cost_s": cost * (1 + 1e-10)}]
    tampers.append({"placed": report.totals.placed + 1})
    for change in tampers:
        tampered = report._replace(totals=report.totals._replace(**change))
        with pytest.raises(MalformedInput, match="not the summary run writes"):
            check_summary(report, json_text(totals_to_dict(tampered)))


def test_float_totals_add_left_to_right_on_every_python():
    # Python 3.12's sum() compensates: 1.0 + 1e-16 + 1e-16 would come out
    # one ulp above the left-to-right sum, and so would every byte after it
    series = [TimestepRecord(t, cost, 0.0, cost, 1, 0) for t, cost in enumerate((1.0, 1e-16, 1e-16), 1)]
    want = (1.0 + 1e-16 + 1e-16) / 3
    totals = recompute_totals(series)
    assert (totals.mean_cost_s, totals.energy_j) == (want, 1.0 + 1e-16 + 1e-16)
    assert seed_mean([1.0, 1e-16, 1e-16]) == want


def test_best_allocation_bounds_every_placement_where_capacity_binds():
    # replay each trial's placements from the empty topology: at every datum
    # the solver on the faced feasible set is a lower bound on the placed
    # vector's cost, and exhaustive trials place exactly the enumeration's answer
    spec = small_spec(capacity_range_bytes=(300.0, 600.0))
    experiment = build_experiment(spec, 7)
    model = experiment.model
    placed = failed = walked = 0
    for algorithm in ("hs", "random", "ga", "foa", "exhaustive"):
        trial = run_trial_detailed(spec, algorithm, 7, experiment=experiment)
        current = experiment.topology
        for d, vector in trial.placements:
            room = [c.id for c in current.clouds if c.total_capacity - c.used_capacity >= d.size]
            if vector is None:
                assert len(room) < d.replica_count, (algorithm, d.id)
                failed += 1
                continue
            assert len(room) >= d.replica_count, (algorithm, d.id)
            problem = PlacementProblem(current, d, model.objective(d))
            assert list(problem.feasible_clouds) == room
            best, cost = model.best_allocation(d, problem.feasible_clouds, d.replica_count)
            assert cost.hex() == model.total(d, best).hex()
            assert cost <= model.total(d, vector), (algorithm, d.id)
            if algorithm == "exhaustive":
                oracle = exhaustive_best(problem)
                assert (vector, model.total(d, vector).hex()) == (oracle.best, oracle.best_cost.hex())
                assert (best, cost.hex()) == (oracle.best, oracle.best_cost.hex())
            walked += d.replica_count > 1 and len(room) < spec.num_clouds
            placed += 1
            current = committed(current, d, vector)
        assert current == trial.final_topology
    # the solver walked past full clouds, and some data found too few clouds with room
    assert placed > 50 and walked > 30 and failed > 0, (placed, walked, failed)


def test_csv_round_trip():
    report = run_trial(small_spec(), "foa", 3)
    text = report_to_csv(report)
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert len(text.splitlines()) == 1 + len(report.series)
    parsed = report_from_csv(text)
    assert parsed == report


def test_csv_header_is_the_documented_contract():
    assert ",".join(CSV_HEADER) == (
        "timestep,scenario,algorithm,seed,mean_cost_s,mean_delay_s,energy_j,placed,failures"
    )


def test_csv_parser_rejects_garbage():
    with pytest.raises(MalformedInput, match="unexpected CSV header"):
        report_from_csv("nope\n1,2\n")
    with pytest.raises(MalformedInput, match="no timestep rows"):
        report_from_csv(",".join(CSV_HEADER) + "\n")


def test_algorithm_registry():
    assert ALGORITHMS == ("hs", "random", "ga", "foa", "exhaustive")


def test_builtin_trial_hs_beats_random_on_paired_seeds():
    # directional check at reduced scale; the acceptance suite runs the full one
    spec = builtin_scenario(1)
    wins = 0
    seeds = range(5)
    for seed in seeds:
        hs = run_trial(spec, "hs", seed)
        rnd = run_trial(spec, "random", seed)
        wins += hs.totals.mean_cost_s < rnd.totals.mean_cost_s
    assert wins >= 4
