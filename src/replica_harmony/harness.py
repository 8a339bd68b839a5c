"""Trial runner: per-timestep allocation of arriving data plus aggregation.

An Experiment holds what (spec, root_seed) fixes for every algorithm: the
topology, the workload, the cost tables, and the per-datum exercise counts
and requesters. A trial walks the workload in arrival order; each datum
gets a placement problem against the current capacities, one optimizer run
with a per-datum derived seed, and an all-or-nothing capacity commit.
Infeasible data are counted as failures and skipped, never dropped
silently.

Seed hygiene: the experiment derives from (root_seed, scenario) only, so
every algorithm sees the same one and run_grids builds it once per seed; the
optimizer stream adds the algorithm name and datum id.

Baselines are budget-matched: a datum allowing E exercises grants every
algorithm HMS + E objective evaluations.
"""

import csv
import io
import json
import math
import os
import random
import sys
from functools import cached_property, partial, reduce
from operator import add, itemgetter
from statistics import mean, pstdev
from typing import NamedTuple

from .cost import CostModel, EnergyParams, placement_energy
from .errors import ConfigError, Infeasible, MalformedInput
from .model import AllocationVector, CapacityLedger, DataItem, Topology, checked, commit_placement, json_doc, json_text
from .optimize import (
    HMS,
    OptResult,
    PlacementProblem,
    foa_optimize,
    ga_optimize,
    hs_optimize,
    random_search,
)
from .scenario import ScenarioSpec, generate_topology, generate_workload
from .seeding import derive_seed

ALGORITHMS = ("hs", "random", "ga", "foa", "exhaustive")


class TimestepRecord(NamedTuple):
    timestep: int
    mean_cost_s: float
    mean_delay_s: float
    energy_j: float
    placed: int
    failures: int


# a trial CSV row: the timestep, the trial it belongs to, then the rest of the record
CSV_HEADER = ("timestep", "scenario", "algorithm", "seed", *TimestepRecord._fields[1:])


class RunTotals(NamedTuple):
    mean_cost_s: float
    mean_delay_s: float
    energy_j: float
    placed: int
    failures: int


class RunReport(NamedTuple):
    scenario: str
    algorithm: str
    seed: int
    series: tuple[TimestepRecord, ...]
    totals: RunTotals


def float_sum(xs) -> float:
    """xs added left to right, as sum() did before Python 3.12 compensated float sums."""
    return reduce(add, xs, 0.0)


def recompute_totals(series) -> RunTotals:
    """Totals are a pure function of the series; placements weight the means."""
    placed = sum(rec.placed for rec in series)
    cost = float_sum(rec.mean_cost_s * rec.placed for rec in series)
    delay = float_sum(rec.mean_delay_s * rec.placed for rec in series)
    return RunTotals(
        mean_cost_s=cost / placed if placed else 0.0,
        mean_delay_s=delay / placed if placed else 0.0,
        energy_j=float_sum(rec.energy_j for rec in series),
        placed=placed,
        failures=sum(rec.failures for rec in series),
    )


@checked
class TrialOptions(NamedTuple):
    memory_size_hms: int = HMS
    exercises: int | None = None  # fixed count; None draws per datum from the spec range
    energy: EnergyParams = EnergyParams()

    def __post_init__(self):
        if self.memory_size_hms < 2:
            raise ConfigError("memory size (--hms) must be >= 2")
        if self.exercises is not None and self.exercises < 1:
            raise ConfigError("exercises must be >= 1")


class Experiment:
    """What (spec, root_seed) fixes for every algorithm.

    exercises and requesters hold one entry per datum, indexed by its
    position in the workload. The exercise counts are drawn on first use,
    so a run that never reads one (exhaustive, or a fixed
    TrialOptions.exercises used in place of the drawn count) draws none.
    """

    def __init__(self, spec: ScenarioSpec, root_seed: int, topology: Topology,
                 workload: tuple[DataItem, ...], model: CostModel, requesters: tuple[int, ...]):
        self.spec = spec
        self.root_seed = root_seed
        self.topology = topology
        self.workload = workload
        self.model = model
        self.requesters = requesters

    @cached_property
    def exercises(self) -> tuple[int, ...]:
        """Each datum's exercise count, from its own stream."""
        spec = self.spec
        return tuple(
            random.Random(derive_seed(self.root_seed, spec.name, "exercises", d.id)).randint(*spec.exercises_range)
            for d in self.workload
        )


def draw_scenario(spec: ScenarioSpec, root_seed: int) -> tuple[Topology, tuple[DataItem, ...]]:
    """The topology and workload that (spec, root_seed) names, for any integer seed, each from its own
    stream and both sized by the spec alone."""
    topology = generate_topology(spec, random.Random(derive_seed(root_seed, spec.name, "topology")))
    workload = generate_workload(spec, random.Random(derive_seed(root_seed, spec.name, "workload")))
    return topology, tuple(workload)


def build_experiment(spec: ScenarioSpec, root_seed: int) -> Experiment:
    """Draw the experiment; each datum's requester stream is its own."""
    topology, workload = draw_scenario(spec, root_seed)
    model = CostModel(topology)
    requesters = tuple(
        random.Random(derive_seed(root_seed, spec.name, "requester", d.id)).randrange(spec.num_gateways)
        for d in workload
    )
    return Experiment(spec, root_seed, topology, workload, model, requesters)


class TrialResult(NamedTuple):
    report: RunReport
    final_topology: Topology
    placements: tuple[tuple[DataItem, AllocationVector | None], ...]


def _run_optimizer(
    algorithm: str, problem: PlacementProblem, experiment: Experiment, index: int, options: TrialOptions
) -> OptResult:
    """One optimizer run on the problem of the experiment's datum at index: exhaustive
    reads no seed or exercise count, and every heuristic draws from its own "opt"
    stream and spends hms + exercises evaluations."""
    if algorithm == "exhaustive":
        model = experiment.model
        best, cost = model.best_allocation(problem.datum, problem.feasible_clouds, problem.replica_count)
        return OptResult(best, cost, (cost,), 0)
    rng = random.Random(derive_seed(experiment.root_seed, experiment.spec.name, "opt", algorithm, problem.datum.id))
    hms = options.memory_size_hms
    budget = hms + (experiment.exercises[index] if options.exercises is None else options.exercises)
    if algorithm == "hs":
        return hs_optimize(problem, budget, rng, hms)
    if algorithm == "random":
        return random_search(problem, budget, rng)
    if algorithm == "ga":
        return ga_optimize(problem, budget, rng)
    # foa: _check_trial admits no other name
    return foa_optimize(problem, budget, rng)


def _check_trial(spec: ScenarioSpec, algorithm: str, options: TrialOptions) -> None:
    """ConfigError unless the algorithm is known and the trial's energy sums to a float."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; valid: {', '.join(ALGORITHMS)}")
    # the largest datum's energy, once per gateway and timestep, must sum to a float
    r = min(spec.policy.max_replicas, spec.num_clouds)
    largest = DataItem(0, spec.data_size_range_bytes[1], 0, r)
    worst = placement_energy(largest, AllocationVector.unchecked(tuple(range(r))), options.energy)
    if not math.isfinite(worst * spec.num_gateways * spec.timesteps):
        raise ConfigError("energy overflows a float: lower the energy coefficients or data_size_range_bytes")


def run_trial_detailed(
    spec: ScenarioSpec,
    algorithm: str,
    root_seed: int,
    options: TrialOptions = TrialOptions(),
    experiment: Experiment | None = None,
) -> TrialResult:
    """One algorithm on the experiment of (spec, root_seed), built here when omitted;
    a passed experiment must be the one (spec, root_seed) names."""
    _check_trial(spec, algorithm, options)
    if experiment is None:
        experiment = build_experiment(spec, root_seed)
    elif experiment.spec != spec or experiment.root_seed != root_seed:
        raise ConfigError(f"the experiment is scenario {experiment.spec.name!r} seed {experiment.root_seed}, "
                          f"not scenario {spec.name!r} seed {root_seed}")
    model = experiment.model
    workload = experiment.workload
    ledger = CapacityLedger(experiment.topology)

    series: list[TimestepRecord] = []
    placements: list[tuple[DataItem, AllocationVector | None]] = []
    index = 0
    for timestep in range(1, spec.timesteps + 1):
        cost_sum = 0.0
        delay_sum = 0.0
        energy_sum = 0.0
        placed = 0
        failures = 0
        while index < len(workload) and workload[index].arrival_timestep == timestep:
            datum = workload[index]
            try:
                problem = PlacementProblem(ledger, datum, model.objective(datum))
                result = _run_optimizer(algorithm, problem, experiment, index, options)
                commit_placement(ledger, datum, result.best)
            except Infeasible:  # CapacityExceeded is a bug: the problem offers only clouds with room
                failures += 1
                placements.append((datum, None))
            else:
                cost_sum += result.best_cost
                delay_sum += model.access_delay(datum, result.best, experiment.requesters[index])
                energy_sum += placement_energy(datum, result.best, options.energy)
                placed += 1
                placements.append((datum, result.best))
            index += 1
        mean_cost = cost_sum / placed if placed else 0.0
        mean_delay = delay_sum / placed if placed else 0.0
        series.append(TimestepRecord(timestep, mean_cost, mean_delay, energy_sum, placed, failures))

    report = RunReport(
        scenario=spec.name,
        algorithm=algorithm,
        seed=root_seed,
        series=tuple(series),
        totals=recompute_totals(series),
    )
    return TrialResult(report, ledger.topology(), tuple(placements))


def run_trial(
    spec: ScenarioSpec,
    algorithm: str,
    root_seed: int,
    options: TrialOptions = TrialOptions(),
    experiment: Experiment | None = None,
) -> RunReport:
    return run_trial_detailed(spec, algorithm, root_seed, options, experiment).report


class ComparisonRow(NamedTuple):
    algorithm: str
    mean_cost_s: float
    std_cost_s: float
    mean_delay_s: float
    std_delay_s: float
    mean_energy_j: float
    std_energy_j: float
    placed: int
    failures: int


class ComparisonTable(NamedTuple):
    rows: tuple[ComparisonRow, ...]
    # (a, b) -> fraction of paired seeds where a's total mean cost beats b's;
    # ties count 0.5
    win_rates: dict[tuple[str, str], float]


def run_grids(grids, algorithms, options: TrialOptions = TrialOptions(), workers: int = 1) -> list[dict]:
    """Every (algorithm, seed) trial of each (spec, seeds) grid: one report
    dict per grid, keyed (algorithm, seed) algorithm-major in argument order.

    The workers and every grid are checked before any trial runs. Each (spec, seed) pair is
    one unit of fan_out: every algorithm runs on that seed's one Experiment.
    """
    algorithms = list(algorithms)
    grids = [(spec, list(seeds)) for spec, seeds in grids]
    if workers < 1:
        raise ConfigError("workers (--threads) must be >= 1")
    if len(set(algorithms)) != len(algorithms):
        raise ConfigError(f"algorithms {algorithms} repeat an algorithm")
    for spec, seeds in grids:
        if not algorithms or not seeds:
            raise ConfigError("need at least one algorithm and one seed")
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"seeds {seeds} repeat a seed")
        for algorithm in algorithms:
            _check_trial(spec, algorithm, options)
    units = [(spec, seed) for spec, seeds in grids for seed in seeds]
    done = iter(fan_out(partial(_run_seed, algorithms, options), units, workers))
    results = []
    for _, seeds in grids:
        reports = {}
        for _ in seeds:
            reports.update(next(done))
        results.append({(algo, seed): reports[(algo, seed)] for algo in algorithms for seed in seeds})
    return results


def _run_seed(algorithms, options, unit) -> dict[tuple[str, int], RunReport]:
    # The experiment lives only in this frame, so the next seed's is built
    # after this one has been freed.
    spec, seed = unit
    experiment = build_experiment(spec, seed)
    return {(algo, seed): run_trial(spec, algo, seed, options, experiment) for algo in algorithms}


def fan_out(run, units, workers: int = 1) -> list:
    """[run(unit) for unit in units], spread over up to `workers` processes.

    The process count is min(workers, len(units), the CPUs this process
    may run on). At 1, where os.fork is missing, or while other threads
    are alive, the units run here, in order. Otherwise the process forks
    one child per extra worker and unit i goes to worker i % count, this
    process being worker 0. When the workers fill the affinity mask, each
    pins itself to one CPU of it: two unpinned CPU-bound processes can
    share one CPU for the whole job. With CPUs to spare the scheduler
    places them, so concurrent jobs do not pile onto the same CPUs.

    A worker stops at its first failing unit. Once every child has been
    reaped, the exception of the lowest failing unit index is raised, the
    one a serial run would raise; a worker that died without sending its
    results fails the job only if no unit raised.
    """
    units = list(units)
    count = min(workers, len(units), _cpu_count())
    # a fork copies only the calling thread, so another thread's locks could stay held in the child
    threading = sys.modules.get("threading")
    alone = threading is None or threading.active_count() == 1
    if count > 1 and hasattr(os, "fork") and alone:
        return _forked(run, units, count)
    return [run(unit) for unit in units]


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(run, units, worker: int, count: int) -> tuple[dict, tuple[int, Exception] | None]:
    """Run every count-th unit from index worker: ({index: result}, the first failure or None)."""
    done = {}
    for i in range(worker, len(units), count):
        try:
            done[i] = run(units[i])
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _forked(run, units, count: int) -> list:
    import pickle  # only a fan-out over processes needs it, so serial runs never import it

    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    cpus = sorted(mask) if len(mask) == count else None
    children = []  # (worker, pid, read end of its pipe)
    done: dict = {}
    failures = []
    dead = []
    try:
        for worker in range(1, count):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no child to hand the pipe to; the finally reaps the ones forked
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child(run, units, worker, count, cpus, write_fd)
            os.close(write_fd)
            children.append((worker, pid, read_fd))
        _pin(cpus, 0)
        share, failure = _run_share(run, units, 0, count)
        done.update(share)
        failures.append(failure)
    finally:
        if cpus:
            os.sched_setaffinity(0, mask)
        for worker, pid, read_fd in children:
            with open(read_fd, "rb") as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            try:
                sent, failure = pickle.loads(payload)
                done.update((i, pickle.loads(result)) for i, result in sent.items())
            except Exception as exc:  # the child died before it sent its results
                error = f"worker {worker} sent no readable results (wait status {status}): {exc!r}"
                dead.append(RuntimeError(error))
                continue
            failures.append(failure)
    failures = [failure for failure in failures if failure is not None]
    if failures:
        raise min(failures, key=itemgetter(0))[1]
    if dead:
        raise dead[0]
    return [done[i] for i in range(len(units))]


def _pin(cpus, worker: int) -> None:
    if cpus:
        os.sched_setaffinity(0, {cpus[worker]})


def _child(run, units, worker: int, count: int, cpus, write_fd: int) -> None:
    """A forked worker's whole life: pin, run its share, pickle it into the pipe, os._exit.

    Each result is pickled on its own, so one that does not pickle fails
    the job at its own unit index.
    """
    import pickle

    try:
        _pin(cpus, worker)
        # sent whole at the share's end: worker 0 reads the pipes only after its own share,
        # so a result sent as its unit ended could fill the 64 KiB pipe and stall this worker
        share, failure = _run_share(run, units, worker, count)
        sent = {}
        for i, result in share.items():
            try:
                sent[i] = pickle.dumps(result)
            except Exception as exc:
                failure = (i, RuntimeError(f"worker {worker} could not send unit {i}: {exc!r}"))
                break
        try:
            payload = pickle.dumps((sent, failure))
        except Exception as exc:  # the failing unit's exception does not pickle
            index = failure[0]
            error = RuntimeError(f"worker {worker} could not send unit {index}: {exc!r}")
            payload = pickle.dumps((sent, (index, error)))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def win_rate(a_by_seed, b_by_seed) -> tuple[float, int]:
    """(rate, paired) over the seeds both seed -> RunReport maps hold.

    rate is the fraction of paired seeds where a's total mean cost beats
    b's, ties counting 0.5; NaN when no seed is shared. The partial scores
    are multiples of 0.5, so the rate does not depend on the seed order.
    """
    paired = sorted(set(a_by_seed) & set(b_by_seed))
    score = 0.0
    for seed in paired:
        ca = a_by_seed[seed].totals.mean_cost_s
        cb = b_by_seed[seed].totals.mean_cost_s
        score += 1.0 if ca < cb else 0.5 if ca == cb else 0.0
    return (score / len(paired) if paired else math.nan), len(paired)


def seed_mean(xs: list[float]) -> float:
    """The mean over seeds in comparison.csv and the plots; the exact statistics.mean if float_sum overflows."""
    total = float_sum(xs)
    return total / len(xs) if math.isfinite(total) else mean(xs)


def summary_row(algorithm: str, reports) -> ComparisonRow:
    """Mean and population std of the totals of one algorithm's reports."""
    costs = [r.totals.mean_cost_s for r in reports]
    delays = [r.totals.mean_delay_s for r in reports]
    energies = [r.totals.energy_j for r in reports]
    return ComparisonRow(
        algorithm=algorithm,
        mean_cost_s=seed_mean(costs),
        std_cost_s=pstdev(costs),
        mean_delay_s=seed_mean(delays),
        std_delay_s=pstdev(delays),
        mean_energy_j=seed_mean(energies),
        std_energy_j=pstdev(energies),
        placed=sum(r.totals.placed for r in reports),
        failures=sum(r.totals.failures for r in reports),
    )


def compare_algorithms(
    spec: ScenarioSpec,
    algorithms,
    seeds,
    options: TrialOptions = TrialOptions(),
) -> ComparisonTable:
    """The table of every (algorithm, seed) trial on spec; the seeds fan out
    over the CPUs this process may run on, with the serial run's reports."""
    algorithms = list(algorithms)
    seeds = list(seeds)
    reports = run_grids([(spec, seeds)], algorithms, options, _cpu_count())[0]
    return comparison_table(algorithms, seeds, reports)


def comparison_table(algorithms, seeds, reports) -> ComparisonTable:
    """The table of one grid's run_grids reports for (algorithms, seeds)."""
    by_seed = {algo: {seed: reports[(algo, seed)] for seed in seeds} for algo in algorithms}
    return ComparisonTable(
        rows=tuple(summary_row(algo, list(by_seed[algo].values())) for algo in algorithms),
        win_rates={
            (a, b): win_rate(by_seed[a], by_seed[b])[0]
            for a in algorithms
            for b in algorithms
            if a != b
        },
    )


# --- serialization -----------------------------------------------------------

def csv_text(header, rows) -> str:
    """The CSV text of a header and rows; csv quotes any cell that needs it.

    Floats are written by repr, so each value reads back exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def report_to_csv(report: RunReport) -> str:
    trial = (report.scenario, report.algorithm, report.seed)
    return csv_text(CSV_HEADER, ((rec.timestep, *trial, *rec[1:]) for rec in report.series))


def _check_amount(where: str, value) -> None:
    """MalformedInput unless value is a float in [0, the largest float] or an
    int in [0, 2**53], a bound that keeps counts exact as floats and sums of them finite."""
    limit = 2**53 if type(value) is int else sys.float_info.max
    if not (type(value) in (int, float) and 0 <= value <= limit):
        raise MalformedInput(f"{where} must be in [0, {limit:.6g}], got {value!r:.40}")


def report_from_csv(text: str) -> RunReport:
    """The trial a CSV holds; MalformedInput says what is wrong with it. The
    text must be what report_to_csv writes for the trial, byte for byte."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # a cell over the csv module's field size limit
        raise MalformedInput(str(exc)) from None
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise MalformedInput("unexpected CSV header")
    if len(rows) < 2:
        raise MalformedInput("CSV holds no timestep rows")
    series = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_HEADER):
            raise MalformedInput(f"line {line} has {len(row)} cells, not {len(CSV_HEADER)}")
        try:
            seed = int(row[3])
            record = TimestepRecord(int(row[0]), *map(float, row[4:7]), int(row[7]), int(row[8]))
        except ValueError as exc:
            raise MalformedInput(f"line {line}: {exc}") from None
        for name, value in zip(TimestepRecord._fields, record):
            _check_amount(f"line {line} {name}", value)
        series.append(record)
    if [rec.timestep for rec in series] != list(range(1, len(series) + 1)):
        raise MalformedInput("timesteps do not run 1..T in order")
    series = tuple(series)
    totals = recompute_totals(series)
    if not all(map(math.isfinite, json_doc(totals).values())):
        raise MalformedInput("the series' totals overflow a float")
    report = RunReport(rows[1][1], rows[1][2], seed, series, totals)
    # one contract, as for the summary: a cell of another trial, or one that int() or float()
    # reads but run never writes (1_0, " 0"), makes the text differ from what run writes
    if report_to_csv(report) != text:
        raise MalformedInput(f"not the CSV run writes for the values it holds, trial {report[:3]}")
    return report


def totals_to_dict(report: RunReport) -> dict:
    return {
        "scenario": report.scenario,
        "algorithm": report.algorithm,
        "seed": report.seed,
        "totals": json_doc(report.totals),
    }


def check_summary(report: RunReport, text: str) -> None:
    """Raise MalformedInput unless text is the JSON summary run writes for
    report, up to layout and key order: every key, type and value must match."""
    try:
        same = json_text(json.loads(text)) == json_text(totals_to_dict(report))
    except (ValueError, RecursionError) as exc:  # not JSON, nested too deep, or an int too long
        raise MalformedInput(f"not a JSON summary: {exc}") from None
    if not same:
        trial = (report.scenario, report.algorithm, report.seed)
        raise MalformedInput(f"not the summary run writes for trial {trial} of its CSV")
