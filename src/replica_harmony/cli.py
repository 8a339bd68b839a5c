"""Command-line interface.

Subcommands: generate (topology + workload files), run (trial CSV/JSON
reports), compare (comparison table, win rates, plot data), report
(rankings from a directory of run outputs). All randomness flows from the
seed flags, REPLICA_HARMONY_SEED, or a scenario file's seed field, in that
order of precedence; identical invocations produce identical bytes.
--threads N runs the (scenario, seed) units of run and compare on up to N
processes, one per CPU, with the same output bytes (harness.fan_out); at 1
they run in this process. The first main() call in a process freezes the
heap the imports built (gc.freeze), so the full collections CPython runs at
exit skip it.

Exit codes, one error class each: 0 ok, 2 ConfigError (bad options or
input files), 3 Infeasible, 4 MalformedInput (a bad trial file for report)
or an OSError, 5 anything else (an internal error).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .cost import EnergyParams
from .errors import ConfigError, Infeasible, MalformedInput
from .harness import (
    ALGORITHMS,
    ComparisonRow,
    TrialOptions,
    check_summary,
    comparison_table,
    csv_text,
    draw_scenario,
    field_values,
    report_from_csv,
    report_to_csv,
    seed_mean,
    summary_row,
    totals_to_dict,
    win_rate,
)
# perfbench/tracing.py looks up cli._run_many by name
from .harness import run_grids as _run_many
from .model import dataclass_from_json, json_doc, json_text, topology_to_json
from .scenario import ScenarioSpec, builtin_scenario

EXIT_OK = 0
EXIT_INTERNAL = 5
# the error class behind each other exit code; any other exception is internal
ERROR_EXITS = ((ConfigError, 2), (Infeasible, 3), ((MalformedInput, OSError), 4))

SEED_ENV_VAR = "REPLICA_HARMONY_SEED"

# a comparison.csv row's cells after the scenario
_row_values = field_values(ComparisonRow)

# plot metric -> the TimestepRecord field its curve averages over seeds
PLOT_FIELDS = {"cost": "mean_cost_s", "delay": "mean_delay_s", "energy": "energy_j"}


def resolve_scenario(source: str) -> ScenarioSpec:
    """builtin:k shorthand or a path to a ScenarioSpec JSON file."""
    if source.startswith("builtin:"):
        try:
            k = int(source.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad builtin scenario {source!r}; valid: builtin:1..builtin:4")
        return builtin_scenario(k)
    return _read_json(source, ScenarioSpec)


def _read_json(path: str, cls):
    """The dataclass cls that a JSON input file holds; a ConfigError names the file."""
    # ValueError covers ConfigError, UnicodeDecodeError, JSONDecodeError and an int over 4,300 digits
    try:
        return dataclass_from_json(cls, json.loads(Path(path).read_text()))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _env_seed(default: int) -> int:
    """REPLICA_HARMONY_SEED as an integer, or default when it is unset."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def resolve_seeds(raw: str | None, base: int) -> list[int]:
    """A bare count N means seeds base..base+N-1; a comma list is explicit."""
    if raw is None:
        return [base]
    try:
        if "," in raw:
            return [int(part) for part in raw.split(",") if part.strip() != ""]
        count = int(raw)
    except ValueError:
        raise ConfigError(f"--seeds must be a count or a comma list of integers, got {raw!r}") from None
    if count < 1:
        raise ConfigError("seed count must be >= 1")
    return list(range(base, base + count))


def _thread_count(raw: str) -> int:
    """--threads value: an integer >= 1, else an argparse error naming the flag."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return value


def _trial_options(args) -> TrialOptions:
    return TrialOptions(
        memory_size_hms=args.hms,
        exercises=args.exercises,
        energy=_read_json(args.energy_params, EnergyParams) if args.energy_params else EnergyParams(),
    )


def _slug(scenario_name: str) -> str:
    return scenario_name.replace(":", "-").replace("/", "-")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="\n")


def cmd_generate(args) -> int:
    spec = resolve_scenario(args.scenario)
    seed = args.seed if args.seed is not None else _env_seed(spec.seed)
    out = Path(args.out)

    topology, workload = draw_scenario(spec, seed)
    slug = _slug(spec.name)
    _write(out / f"topology_{slug}_seed{seed}.json", topology_to_json(topology))
    _write(
        out / f"workload_{slug}_seed{seed}.json",
        json_text({"scenario": spec.name, "seed": seed, "items": json_doc(workload)}),
    )
    print(f"wrote topology and workload for {spec.name} (seed {seed}) to {out}")
    return EXIT_OK


def cmd_run(args) -> int:
    spec = resolve_scenario(args.scenario)
    seeds = resolve_seeds(args.seeds, _env_seed(spec.seed))
    options = _trial_options(args)
    out = Path(args.out)

    (reports,) = _run_many([(spec, seeds)], args.algo, options, args.threads)
    slug = _slug(spec.name)
    for (algo, seed), report in reports.items():
        stem = f"trial_{slug}_{algo}_seed{seed}"
        _write(out / f"{stem}.csv", report_to_csv(report))
        _write(out / f"{stem}.json", json_text(totals_to_dict(report)))
    print(f"wrote {2 * len(reports)} files to {out}")
    return EXIT_OK


def _plot_csv(reports, algorithms, seeds, metric) -> str:
    """Per-timestep curve per algorithm, averaged over seeds; energy cumulative."""
    name = PLOT_FIELDS[metric]
    rows = []
    timesteps = len(next(iter(reports.values())).series)
    running = {algo: 0.0 for algo in algorithms}
    for i in range(timesteps):
        cells = [i + 1]
        for algo in algorithms:
            value = seed_mean([getattr(reports[(algo, s)].series[i], name) for s in seeds])
            if metric == "energy":
                running[algo] += value
                value = running[algo]
            cells.append(value)
        rows.append(cells)
    return csv_text(("timestep", *algorithms), rows)


def cmd_compare(args) -> int:
    if len(args.algo) < 2:
        raise ConfigError("compare needs at least two --algo entries")
    specs = [resolve_scenario(source) for source in args.scenario]
    slugs = [_slug(spec.name) for spec in specs]
    if len(set(slugs)) != len(slugs):
        raise ConfigError(f"scenarios {[spec.name for spec in specs]} repeat a plot file name")
    options = _trial_options(args)
    out = Path(args.out)

    # every scenario's trials run, in one fan-out, before any file is written,
    # so a failing one leaves none
    grids = [(spec, resolve_seeds(args.seeds, _env_seed(spec.seed))) for spec in specs]
    comparison_rows = []
    win_rows = []
    plots = {}
    for (spec, seeds), slug, reports in zip(grids, slugs, _run_many(grids, args.algo, options, args.threads)):
        table = comparison_table(spec, args.algo, seeds, reports)
        comparison_rows += [(spec.name, *_row_values(row)) for row in table.rows]
        win_rows += [(spec.name, a, b, rate) for (a, b), rate in sorted(table.win_rates.items())]
        for metric in PLOT_FIELDS:
            plots[f"plot_{slug}_{metric}.csv"] = _plot_csv(reports, list(args.algo), seeds, metric)

    for name, text in plots.items():
        _write(out / name, text)
    header = ("scenario", *(f.name for f in fields(ComparisonRow)))
    _write(out / "comparison.csv", csv_text(header, comparison_rows))
    _write(out / "win_rates.csv", csv_text(("scenario", "algorithm_a", "algorithm_b", "win_rate"), win_rows))
    print(f"wrote comparison, win rates, and plot data to {out}")
    return EXIT_OK


def _parse_file(path: Path, parse):
    """parse(the text of path); a malformed or non-UTF-8 file is a MalformedInput naming it."""
    try:
        return parse(path.read_text())
    except (MalformedInput, UnicodeDecodeError) as exc:
        raise MalformedInput(f"{path.name}: {exc}") from None


def cmd_report(args) -> int:
    directory = Path(args.dir)
    csv_paths = sorted(directory.glob("trial_*.csv"))
    if not csv_paths:
        raise ConfigError(f"no trial CSV files in {directory}")

    by_scenario: dict[str, dict[str, list]] = {}
    trial_files: dict[tuple[str, str, int], str] = {}
    for path in csv_paths:
        report = _parse_file(path, report_from_csv)
        trial = (report.scenario, report.algorithm, report.seed)
        if trial in trial_files:
            raise MalformedInput(f"{trial_files[trial]} and {path.name} both hold trial {trial}")
        trial_files[trial] = path.name
        summary_path = path.with_suffix(".json")
        if summary_path.exists():
            _parse_file(summary_path, lambda text: check_summary(report, text))
        by_algo = by_scenario.setdefault(report.scenario, {})
        by_algo.setdefault(report.algorithm, []).append(report)

    for scenario in sorted(by_scenario):
        by_algo = by_scenario[scenario]
        print(f"scenario {scenario} ({sum(map(len, by_algo.values()))} trials)")
        rows = [summary_row(algo, rs) for algo, rs in by_algo.items()]
        for label, attr in (
            ("mean cost (s)", "mean_cost_s"),
            ("mean delay (s)", "mean_delay_s"),
            ("energy (J)", "mean_energy_j"),
        ):
            ranked = sorted((getattr(row, attr), row.algorithm) for row in rows)
            print(f"  {label}: " + "  ".join(f"{algo}={value:.6g}" for value, algo in ranked))
        algos = sorted(by_algo)
        for i, a in enumerate(algos):
            for b in algos[i + 1 :]:
                rate, paired = win_rate(
                    {r.seed: r for r in by_algo[a]}, {r.seed: r for r in by_algo[b]}
                )
                if paired:
                    print(f"  win rate {a} vs {b} on cost: {rate:.3f} ({paired} paired seeds)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replica-harmony",
        description="Replica placement experiments over simulated mini clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trial_flags(p):
        p.add_argument("--algo", action="append", choices=ALGORITHMS, help="repeatable")
        p.add_argument("--seeds", help="count (e.g. 30) or explicit comma list (e.g. 3,7,11)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--hms", type=int, default=TrialOptions.memory_size_hms, help="harmony memory size")
        p.add_argument("--exercises", type=int, help="fixed exercises per datum")
        p.add_argument("--energy-params", help="JSON file with e_uplink/e_intercloud/e_write")
        p.add_argument(
            "--threads", type=_thread_count, default=1,
            help="worker processes (>= 1), at most one per CPU and per (scenario, seed); default 1",
        )

    p_gen = sub.add_parser("generate", help="write topology and workload files")
    p_gen.add_argument("--scenario", required=True, help="builtin:1..4 or a spec JSON path")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run trials, write CSV + JSON reports")
    p_run.add_argument("--scenario", required=True, help="builtin:1..4 or a spec JSON path")
    add_trial_flags(p_run)
    p_run.set_defaults(func=cmd_run, default_algos=["hs"])

    p_cmp = sub.add_parser("compare", help="run the algorithm comparison")
    p_cmp.add_argument(
        "--scenario", action="append", required=True, help="repeatable; builtin:1..4 or a path"
    )
    add_trial_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare, default_algos=["hs", "random", "ga", "foa"])

    p_rep = sub.add_parser("report", help="summarize a directory of run outputs")
    p_rep.add_argument("dir", help="directory holding trial_*.csv files")
    p_rep.set_defaults(func=cmd_report)

    return parser


@functools.cache
def _freeze_heap_once() -> None:
    """Move the heap built so far, mostly the imports, to the permanent
    generation, which no later full collection walks: not even the ones
    CPython runs while the process exits."""
    # cached, so a long-lived caller does not freeze new garbage on every
    # call; gc.get_freeze_count() cannot tell, as Python 3.12 starts with
    # objects frozen (375 on 3.12.1)
    gc.freeze()


def main(argv=None) -> int:
    _freeze_heap_once()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    if getattr(args, "algo", None) is None and hasattr(args, "default_algos"):
        args.algo = list(args.default_algos)
    try:
        return args.func(args)
    except Exception as exc:
        code = next((code for kind, code in ERROR_EXITS if isinstance(exc, kind)), EXIT_INTERNAL)
        # an internal error is shown with its class, which names the bug
        print(f"error: {exc!r}" if code == EXIT_INTERNAL else f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
