#!/usr/bin/env python3
"""End-to-end benchmark of the replica-harmony command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.

Each workload is one ``replica-harmony`` CLI job.  With ``--trace 0`` the
benchmark runs that job again and again, one at a time, each in a fresh
child process, for ``--seconds``: a job starts only while the previous job's
duration still fits in what is left.  This is a closed loop: the
next job starts when the last one has ended, and inside a job the next
trial starts when one of the job's workers frees up.

The host this benchmark was written on is a shared virtual machine whose
speed drifts by tens of percent within seconds and from one minute to the
next, so right before each job the benchmark also times PROBE, a fixed
pure-Python workload in a fresh interpreter.  The probe is the same code on
every commit; its time over REFERENCE_PROBE_S says how slow the host was
when the job ran, and the job's times are scaled by it to the reference host
speed.  The metrics are medians over the jobs of a run:

    trials_per_s = trials / wall time after set-up * slowdown
    setup_s      = set-up time / slowdown
    peak_rss_mib = peak resident memory

The unscaled medians go to standard error.

With ``--trace 1`` it runs the job once untraced and once with the layer
tracer of ``tracing.py`` (plus once traced at ``--threads 1`` when the
workload uses more workers, because the per-layer self times assume one
thread), and prints the per-layer metrics.

Every job's output files are checked.  At the default seed their SHA-256
digests must equal those pinned in ``digests.json``; at any other seed every
job of a run must write the same bytes as the run's first job, which in a
traced run is the untraced one.  In every compare job all algorithms must
have faced the same number of data items.  A trial fails when its job exits
non-zero or one of the files it contributes to fails a check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (counted in trials) and ``metrics``.
A human summary goes to standard error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
BASELINE = HERE / "baseline.json"

DEFAULT_SEED = 0
RUN_LIMIT_S = 170.0  # a job still running then is killed and its trials fail
WORKERS = min(2, os.cpu_count() or 1)
PLOT_METRICS = ("cost", "delay", "energy")

# Scenario files handed to the CLI; keys missing here take the CLI defaults.
SCENARIO_FILES = {
    # The sizes of builtin:1..4 (and builtin:2 for oracle) over 20 and 100
    # instead of 500 timesteps, so that a job lasts well under a second and
    # a run takes the median of many jobs.
    **{
        f"paper-{k}": {"name": f"paper-{k}", "num_gateways": g, "num_clouds": c, "timesteps": 20}
        for k, (g, c) in enumerate(((22, 8), (25, 10), (32, 15), (40, 25)), start=1)
    },
    "oracle": {"name": "oracle", "num_gateways": 25, "num_clouds": 10, "timesteps": 100},
    # Wide and shallow: generation and cost-table set-up are O(G*C + C^2)
    # per trial while only ~120 data items are placed.
    "wide-setup": {"name": "wide-setup", "num_gateways": 400, "num_clouds": 120, "timesteps": 3},
}

HEURISTICS = ("hs", "random", "ga", "foa")

# Host-speed probe: dict, list, sort and float work with the character of
# the program's hot loop, in a fresh interpreter like a job's.
# REFERENCE_PROBE_S is its typical time on the machine in baseline.json.
PROBE = """
import random
rng = random.Random(1)
table = {}
total = 0.0
for i in range(40_000):
    row = sorted((rng.random(), i * 0.5, -0.25 * i))
    table[i % 251] = row
    total += sum(row) / (1 + len(table) % 7)
"""
REFERENCE_PROBE_S = 0.12


@dataclass(frozen=True)
class Workload:
    command: str  # "run" or "compare"
    scenarios: tuple[str, ...]  # builtin:k, or a key of SCENARIO_FILES
    algorithms: tuple[str, ...]
    seeds_per_job: int
    workers: int

    def seeds(self, base: int) -> list[int]:
        """Trial seeds of a job; consecutive base seeds never share one."""
        return [base * self.seeds_per_job + i for i in range(self.seeds_per_job)]


# Each workload makes a different layer its largest cost, so a gain in one
# layer shows on one workload and leaves the others flat; BENCHMARK.json
# says why each was chosen and baseline.json which layers dominate it and
# which layer should move what.
WORKLOADS = {
    "paper-grid": Workload(
        "compare", tuple(f"paper-{k}" for k in range(1, 5)), HEURISTICS, 1, WORKERS
    ),
    "oracle": Workload("run", ("oracle",), ("exhaustive",), 1, 1),
    "wide-setup": Workload("compare", ("wide-setup",), ("hs", "random"), 2, 1),
}


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for the "end_to_end" or "per_layer" list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class Job:
    trials: list[tuple[str, str, int]]  # (scenario slug, algorithm, seed)
    exit_code: int
    setup_s: float
    wall_s: float  # from the end of set-up to the exit of the process
    peak_rss_mib: float
    digests: dict[str, str]
    data_items: int
    failed: set
    trace: dict | None


def probe() -> float:
    """Seconds to start an interpreter, run PROBE in it and reap it."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE], check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def slug(scenario_name: str) -> str:
    return scenario_name.replace(":", "-").replace("/", "-")


def write_scenario_files(directory: Path, workload: Workload) -> None:
    for name in workload.scenarios:
        if name in SCENARIO_FILES:
            (directory / f"{name}.json").write_text(json.dumps(SCENARIO_FILES[name], indent=2))


def job_argv(workload: Workload, seed: int, spec_dir: Path, out_dir: Path, workers: int) -> list[str]:
    argv = [workload.command]
    for name in workload.scenarios:
        source = name if name.startswith("builtin:") else str(spec_dir / f"{name}.json")
        argv += ["--scenario", source]
    for algo in workload.algorithms:
        argv += ["--algo", algo]
    seeds = ",".join(str(s) for s in workload.seeds(seed))
    if workload.seeds_per_job == 1:
        seeds += ","  # a lone number would be read as a seed count
    return argv + ["--seeds", seeds, "--threads", str(workers), "--out", str(out_dir)]


def run_job(
    workload: Workload, seed: int, work: Path, index: int, traced: bool, workers: int, deadline: float
) -> Job:
    """Spawn one CLI job, wait for it, and collect its timings and outputs."""
    out_dir = work / f"out{index}"
    stamp = work / f"stamp{index}.json"
    trace_path = work / f"trace{index}.json"
    argv = job_argv(workload, seed, work, out_dir, workers)
    env = {k: v for k, v in os.environ.items() if k != "REPLICA_HARMONY_SEED"}
    with open(work / f"stderr{index}.txt", "w") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "job.py"), str(stamp), str(trace_path) if traced else "-", *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        watchdog = threading.Timer(max(1.0, deadline - spawned), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)

    trials = [
        (slug(SCENARIO_FILES.get(s, {}).get("name", s)), algo, trial_seed)
        for s in workload.scenarios
        for algo in workload.algorithms
        for trial_seed in workload.seeds(seed)
    ]
    setup_end = json.loads(stamp.read_text())["setup_end"] if stamp.exists() else spawned
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*"))
        if p.is_file()
    }
    failed: set = set()
    data_items = 0
    if proc.returncode != 0:
        log(f"job {index} exited with {proc.returncode}: {(work / f'stderr{index}.txt').read_text()[-400:]}")
        failed.update(trials)
    else:
        data_items = check_outputs(workload, out_dir, digests, trials, failed)
    trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
    shutil.rmtree(out_dir, ignore_errors=True)
    return Job(
        trials=trials,
        exit_code=proc.returncode,
        setup_s=setup_end - spawned,
        wall_s=ended - setup_end,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        digests=digests,
        data_items=data_items,
        failed=failed,
        trace=trace,
    )


def expected_files(workload: Workload, trials) -> dict[str, list]:
    """Output file name -> the trials whose results it holds."""
    files: dict[str, list] = {}
    if workload.command == "run":
        for trial in trials:
            scenario, algo, seed = trial
            for ext in ("csv", "json"):
                files[f"trial_{scenario}_{algo}_seed{seed}.{ext}"] = [trial]
    else:
        files["comparison.csv"] = list(trials)
        files["win_rates.csv"] = list(trials)
        for scenario in sorted({t[0] for t in trials}):
            for metric in PLOT_METRICS:
                files[f"plot_{scenario}_{metric}.csv"] = [t for t in trials if t[0] == scenario]
    return files


def check_outputs(workload: Workload, out_dir: Path, digests, trials, failed: set) -> int:
    """Check that the job wrote every expected file and that its totals are
    consistent; mark the trials of a bad file as failed.  Returns the number
    of data items the job's trials placed or failed."""
    expected = expected_files(workload, trials)
    for name in set(expected) - set(digests):
        log(f"missing output file {name}")
        failed.update(expected[name])
    for name in set(digests) - set(expected):
        log(f"unexpected output file {name}")
        failed.update(trials)

    # (scenario slug, algorithm) -> placed + failures over the job's seeds
    handled: dict[tuple[str, str], int] = {}
    if workload.command == "run":
        for scenario, algo, seed in trials:
            path = out_dir / f"trial_{scenario}_{algo}_seed{seed}.json"
            if path.exists():
                totals = json.loads(path.read_text())["totals"]
                key = (scenario, algo)
                handled[key] = handled.get(key, 0) + totals["placed"] + totals["failures"]
    elif "comparison.csv" in digests:
        with open(out_dir / "comparison.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                key = (slug(row["scenario"]), row["algorithm"])
                handled[key] = int(row["placed"]) + int(row["failures"])
    for scenario in {t[0] for t in trials}:
        counts = {handled.get((scenario, algo)) for algo in workload.algorithms}
        if len(counts) != 1 or None in counts:
            log(f"algorithms on {scenario} handled different data counts: {sorted(counts, key=str)}")
            failed.update(t for t in trials if t[0] == scenario)
    return sum(handled.values())


def compare_digests(job: Job, reference: dict[str, str], trials_of) -> None:
    for name, digest in job.digests.items():
        if reference.get(name) != digest:
            log(f"output {name} differs from the reference bytes")
            job.failed.update(trials_of.get(name, job.trials))


def load_pinned(workload_name: str) -> dict[str, str] | None:
    return json.loads(DIGESTS.read_text()).get(workload_name)


def trace_metrics(workload_name: str, untraced: Job, traced: Job, layer_job: Job, units) -> dict:
    metrics = tracing.layer_metrics(layer_job.trace)
    workers = WORKLOADS[workload_name].workers
    metrics["harness.fanout_utilization"] = tracing.fanout_utilization(traced.trace, workers)
    metrics["trace_overhead_ratio"] = traced.wall_s / untraced.wall_s

    # The layers baseline.json records as dominant must each take more self
    # time than every other layer: dominant_margin is the smallest of them
    # over the largest of the rest, so it exceeds 1 exactly when they do.
    dominant = json.loads(BASELINE.read_text())["workloads"][workload_name]["dominant_layers"]
    times = {k: v for k, v in metrics.items() if units[k] == "s"}
    rest = max(v for k, v in times.items() if k not in dominant)
    metrics["dominant_margin"] = min(times[k] for k in dominant) / rest

    main_s = tracing.main_seconds(layer_job.trace)
    ranked = sorted(times.items(), key=lambda kv: -kv[1])
    log(
        f"traced main() {main_s:.3f} s, {sum(times.values()):.3f} s of it in layer self time, "
        "the rest tracer bookkeeping; largest shares of the layer self time: "
        + ", ".join(f"{k} {v / sum(times.values()):.1%}" for k, v in ranked[:6])
    )
    verdict = "confirmed" if metrics["dominant_margin"] > 1 else "NOT confirmed"
    log(f"dominant layers {', '.join(dominant)}: margin {metrics['dominant_margin']:.3f}, {verdict}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "replica_harmony" / "cli.py").is_file():
        log(f"error: no replica_harmony sources under {ROOT / 'src'}")
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    write_scenario_files(work, workload)
    pinned = load_pinned(args.workload) if args.seed == DEFAULT_SEED else None

    jobs: list[Job] = []
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if args.trace:
        untraced = run_job(workload, args.seed, work, 0, False, workload.workers, deadline)
        traced = run_job(workload, args.seed, work, 1, True, workload.workers, deadline)
        jobs = [untraced, traced]
        layer_job = traced
        if workload.workers > 1:
            layer_job = run_job(workload, args.seed, work, 2, True, 1, deadline)
            jobs.append(layer_job)
    else:
        probes: list[float] = []
        last_s = 0.0
        while not jobs or time.perf_counter() - started + last_s <= args.seconds:
            job_start = time.perf_counter()
            probes.append(probe())
            jobs.append(run_job(workload, args.seed, work, len(jobs), False, workload.workers, deadline))
            last_s = time.perf_counter() - job_start

    reference = pinned if pinned is not None else jobs[0].digests
    trials_of = expected_files(workload, jobs[0].trials)
    for job in jobs:
        if job.exit_code == 0:
            compare_digests(job, reference, trials_of)

    attempted = sum(len(job.trials) for job in jobs)
    failed = sum(len(job.failed) for job in jobs)
    if args.trace:
        units = metric_units("per_layer")
        correct = failed == 0 and all(j.trace is not None for j in jobs[1:])
        metrics = trace_metrics(args.workload, untraced, traced, layer_job, units) if correct else {}
    else:
        correct = failed == 0
        slowdown = [p / REFERENCE_PROBE_S for p in probes]
        good = [(j, f) for j, f in zip(jobs, slowdown) if not j.failed]
        metrics = {
            "trials_per_s": statistics.median(len(j.trials) / j.wall_s * f for j, f in good) if good else 0.0,
            "setup_s": statistics.median(j.setup_s / f for j, f in zip(jobs, slowdown)),
            "peak_rss_mib": statistics.median(j.peak_rss_mib for j in jobs),
        }
        units = metric_units("end_to_end")
        walls = sorted(j.wall_s for j in jobs)
        log(
            f"{args.workload}: {len(jobs)} jobs of {len(jobs[0].trials)} trials, "
            f"{jobs[0].data_items} data items, {workload.workers} worker(s); "
            f"job wall after set-up min/median/max {walls[0]:.3f}/{statistics.median(walls):.3f}/{walls[-1]:.3f} s; "
            f"failed_trials_ratio {failed / attempted:.3f}"
            + (" (pinned digests)" if pinned is not None else " (digests of the first job)")
        )
        log(
            f"probe min/median/max {min(probes):.4f}/{statistics.median(probes):.4f}/{max(probes):.4f} s "
            f"against {REFERENCE_PROBE_S} s; unscaled trials_per_s "
            f"{statistics.median(len(j.trials) / j.wall_s for j, _ in good) if good else 0.0:.6g}, "
            f"setup_s {statistics.median(j.setup_s for j in jobs):.6g}"
        )
    for name, value in metrics.items():
        log(f"  {name} = {value:.6g} {units[name]}")
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
