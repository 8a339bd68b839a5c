import csv
import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import replica_harmony
from replica_harmony import cli, harness
from replica_harmony.cli import main, resolve_seeds
from replica_harmony.errors import (
    CapacityExceeded,
    ConfigError,
    Infeasible,
    InvalidAllocation,
    MalformedInput,
)
from replica_harmony.harness import (
    ALGORITHMS,
    CSV_HEADER,
    build_experiment,
    compare_algorithms,
    csv_text,
    run_trial,
)
from replica_harmony.model import (
    AllocationVector,
    Policy,
    json_doc,
    topology_from_json,
    topology_to_json,
    validate_topology,
)
from replica_harmony.optimize import OptResult
from replica_harmony.scenario import (
    ScenarioSpec,
    builtin_scenario,
    scenario_from_json,
    scenario_to_json,
)

from test_harness import TWO, assert_no_child_left


def write_tiny_scenario(path, name="tiny", **overrides):
    spec = ScenarioSpec(
        name=name,
        num_gateways=3,
        num_clouds=5,
        timesteps=12,
        arrival_probability=0.4,
        **overrides,
    )
    path.write_text(scenario_to_json(spec))
    return spec


def test_resolve_seeds():
    assert resolve_seeds(None, 7) == [7]
    assert resolve_seeds("3", 10) == [10, 11, 12]
    assert resolve_seeds("4,8,15", 0) == [4, 8, 15]


def test_generate_writes_deterministic_files(tmp_path):
    out = tmp_path / "gen"
    argv = ["generate", "--scenario", "builtin:1", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0
    topo_path = out / "topology_builtin-1_seed7.json"
    work_path = out / "workload_builtin-1_seed7.json"
    assert topo_path.exists() and work_path.exists()

    topology = topology_from_json(topo_path.read_text())
    assert validate_topology(topology) == []
    assert topology.num_gateways == 22

    items = json.loads(work_path.read_text())["items"]
    assert items and all(20 <= d["size_bytes"] <= 100 for d in items)

    before = (topo_path.read_bytes(), work_path.read_bytes())
    assert main(argv) == 0
    assert (topo_path.read_bytes(), work_path.read_bytes()) == before


# SHA-256 of the files `generate --scenario builtin:k --seed 7` wrote before
# the topology and workload formats were read and written by the dataclass codec
GENERATE_DIGESTS = {
    "topology_builtin-1_seed7.json": "0594b278f0c13ce5d3cb0370fd89e957fbfed65c8cafb9bf9f2c8ddf462dc5a0",
    "workload_builtin-1_seed7.json": "806012aa8dccc0d35e1c139df52c64d08e7eea53e9bf3eb15c608229e25dba81",
    "topology_builtin-2_seed7.json": "252157f676fc75f61e9982e318e1abc6ae8f2aa699b04a7466598169115eb0bd",
    "workload_builtin-2_seed7.json": "693ae3fb430dd172400f37aff21407d1c5619e59f401541d61a3cf0bbb2b59ac",
    "topology_builtin-3_seed7.json": "4049f7fa6d35ed901a42d283d78381650affd0628557ab4e0b3d4bd135500ee2",
    "workload_builtin-3_seed7.json": "2a830c5e7f129d8dd7e984d9cdc74f9d5d0086b99e1569285dd536f3aa6677cc",
    "topology_builtin-4_seed7.json": "78da90db0580f4c86ab62b029dcb54504825b6e8b79aa516787323238f2e458f",
    "workload_builtin-4_seed7.json": "80629db0429ff181f8673adfa63b167a701f47bc8ff9c596bb4397e5325bc449",
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_generate_output_digests(tmp_path, k):
    out = tmp_path / "gen"
    assert main(["generate", "--scenario", f"builtin:{k}", "--seed", "7", "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == {name: digest for name, digest in GENERATE_DIGESTS.items() if f"builtin-{k}_" in name}


def test_generate_unknown_builtin(tmp_path, capsys):
    code = main(["generate", "--scenario", "builtin:9", "--out", str(tmp_path)])
    assert code == 2
    assert "1..4" in capsys.readouterr().err


def test_generate_missing_spec_file(tmp_path):
    code = main(["generate", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 4


def test_run_writes_one_report_per_seed(tmp_path):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    out = tmp_path / "runs"
    argv = [
        "run", "--scenario", str(spec_path), "--algo", "hs", "--seeds", "3",
        "--out", str(out),
    ]
    assert main(argv) == 0
    csvs = sorted(p.name for p in out.glob("trial_*.csv"))
    assert csvs == [
        "trial_tiny_hs_seed0.csv",
        "trial_tiny_hs_seed1.csv",
        "trial_tiny_hs_seed2.csv",
    ]
    assert len(list(out.glob("trial_*.json"))) == 3

    summary = json.loads((out / "trial_tiny_hs_seed0.json").read_text())
    assert summary["scenario"] == "tiny"
    assert summary["algorithm"] == "hs"
    assert set(summary["totals"]) == {"mean_cost_s", "mean_delay_s", "energy_j", "placed", "failures"}

    before = (out / "trial_tiny_hs_seed1.csv").read_bytes()
    assert main(argv) == 0
    assert (out / "trial_tiny_hs_seed1.csv").read_bytes() == before


def test_run_respects_env_seed(tmp_path, monkeypatch):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    monkeypatch.setenv("REPLICA_HARMONY_SEED", "50")
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--seeds", "2",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("trial_*.csv")) == [
        "trial_tiny_hs_seed50.csv",
        "trial_tiny_hs_seed51.csv",
    ]


def test_generate_seed_precedence_flag_env_spec(tmp_path, monkeypatch):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path, seed=7)

    def written_seed(out, *extra):
        assert main(["generate", "--scenario", str(spec_path), "--out", str(tmp_path / out), *extra]) == 0
        return json.loads(next((tmp_path / out).glob("workload_*.json")).read_text())["seed"]

    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    assert written_seed("spec") == 7
    monkeypatch.setenv("REPLICA_HARMONY_SEED", "0")
    assert written_seed("env") == 0
    assert written_seed("flag", "--seed", "3") == 3


def test_run_and_compare_seed_precedence_env_spec(tmp_path, monkeypatch):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path, seed=7)

    def trial_csvs(out, *extra):
        assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--out",
                     str(tmp_path / out), *extra]) == 0
        return sorted(p.name for p in (tmp_path / out).glob("trial_*.csv"))

    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    assert trial_csvs("spec") == ["trial_tiny_hs_seed7.csv"]
    assert trial_csvs("count", "--seeds", "2") == ["trial_tiny_hs_seed7.csv", "trial_tiny_hs_seed8.csv"]

    # compare takes each scenario's own seed
    other = dataclasses.replace(builtin_scenario(1), name="other", timesteps=5)
    other_path = tmp_path / "other.json"
    other_path.write_text(scenario_to_json(other))
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(spec_path), "--scenario", str(other_path),
                 "--algo", "hs", "--algo", "random", "--out", str(out)]) == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2]
            for line in (out / "comparison.csv").read_text().splitlines()[1:]}
    tiny = scenario_from_json(spec_path.read_text())
    assert rows[("tiny", "hs")] == repr(run_trial(tiny, "hs", 7).totals.mean_cost_s)
    assert rows[("other", "hs")] == repr(run_trial(other, "hs", 0).totals.mean_cost_s)

    monkeypatch.setenv("REPLICA_HARMONY_SEED", "0")
    assert trial_csvs("env") == ["trial_tiny_hs_seed0.csv"]


@pytest.mark.parametrize(
    "flags",
    [["--exercises", "0"], ["--exercises", "-5"], ["--hms", "1"], ["--hms", "0"]],
)
def test_out_of_range_trial_option_is_a_config_error(tmp_path, capsys, flags):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    for algo in ALGORITHMS:
        argv = ["run", "--scenario", str(spec_path), "--algo", algo, *flags, "--out", str(tmp_path / "out")]
        assert main(argv) == 2, algo
        assert "must be >= " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_budget_flag_is_gone(tmp_path, capsys, command):
    # every algorithm spends HMS + exercises evaluations; no flag sets the
    # baselines' budget apart from HS's
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    argv = [command, "--scenario", str(spec_path), "--algo", "hs", "--algo", "random",
            "--budget", "30", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "--budget" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, bad",
    [
        ("gw_rate_range_bytes_per_s", [0.0, 5000.0]),
        ("cloud_rate_range_bytes_per_s", [0.0, 5000.0]),
        ("capacity_range_bytes", [-200.0, -100.0]),
        ("data_size_range_bytes", [-100, -20]),
        ("rw_delay_range_ms_per_byte", [-70.0, -20.0]),
        ("waiting_time_range_s", [-1.0, -0.1]),
        ("exercises_range", [0, 3]),
        # an int no float can hold, and rates whose per-byte times overflow
        ("data_size_range_bytes", [20, 10**400]),
        ("gw_rate_range_bytes_per_s", [1e-320, 1e-320]),
    ],
)
def test_out_of_range_spec_is_a_config_error(tmp_path, capsys, field, bad):
    spec_path = tmp_path / "bad.json"
    doc = json_doc(write_tiny_scenario(spec_path))
    doc[field] = bad
    spec_path.write_text(json.dumps(doc))
    for command in ("generate", "run"):
        assert main([command, "--scenario", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_threads_below_one_is_a_config_error(tmp_path, capsys, command, threads):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    argv = [command, "--scenario", str(spec_path), "--algo", "hs", "--algo", "random",
            "--threads", threads, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--scenario", "--energy-params"])
def test_json_syntax_error_names_the_file(tmp_path, capsys, flag):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    bad_path = tmp_path / "broken.json"
    bad_path.write_text('{"name": "tiny",,}')
    if flag == "--scenario":
        argv = ["run", "--scenario", str(bad_path)]
    else:
        argv = ["run", "--scenario", str(spec_path), "--energy-params", str(bad_path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert str(bad_path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _edited(doc, drop=(), **changes):
    return {**{k: v for k, v in doc.items() if k not in drop}, **changes}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: _edited(d, drop=["name"]), "missing required key name"),
        (lambda d: [d], "document must be a JSON object"),
        (lambda d: _edited(d, policy={"min_replicas": 2}), "missing required key policy.max_replicas"),
        (lambda d: _edited(d, policy={}), "missing required key policy.max_replicas"),
        (lambda d: _edited(d, policy=[2, 4]), "policy must be a JSON object"),
        (lambda d: _edited(d, policy={"min_replicas": 2, "max_replicas": 4, "max": 5}),
         "unknown key policy.max;"),
        (lambda d: _edited(d, data_size_range_bytes=5), "data_size_range_bytes must be a list of 2"),
        (lambda d: _edited(d, data_size_range_bytes=[20, 5, 9]), "data_size_range_bytes must be a list of 2"),
        (lambda d: _edited(d, data_size_range_bytes=[20.5, 100]), "data_size_range_bytes must be an integer"),
        (lambda d: _edited(d, seed=None), "seed must be an integer"),
        (lambda d: _edited(d, timestep=20), "unknown key timestep;"),
        (lambda d: _edited(d, arival_probability=0.5), "unknown key arival_probability;"),
        (lambda d: _edited(d, timesteps=2.7), "timesteps must be an integer"),
        (lambda d: _edited(d, num_gateways=True), "num_gateways must be an integer"),
        (lambda d: _edited(d, num_clouds="4"), "num_clouds must be an integer"),
        (lambda d: _edited(d, name=3), "name must be a string"),
        (lambda d: _edited(d, name="lab\x00east"), "name must be printable"),
        (lambda d: _edited(d, name="lab\neast"), "name must be printable"),
        (lambda d: _edited(d, arrival_probability=float("nan")), "arrival_probability must be a finite"),
        (lambda d: _edited(d, capacity_range_bytes=[1, float("inf")]), "capacity_range_bytes must be a finite"),
        (lambda d: "[" * 200_000, "maximum recursion depth exceeded"),
        (lambda d: '{"seed": ' + "1" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ],
    ids=[
        "no-name", "list", "policy-no-max", "policy-empty", "policy-list", "policy-unknown",
        "scalar-range", "long-range", "fractional-range", "null-seed", "typo-timestep",
        "typo-arrival", "fractional-timesteps", "bool-gateways", "string-clouds", "number-name",
        "nul-name", "newline-name",
        "nan", "infinite", "deep", "long-int",
    ],
)
def test_malformed_spec_is_a_config_error(tmp_path, capsys, edit, message):
    spec_path = tmp_path / "bad.json"
    doc = edit(json_doc(write_tiny_scenario(spec_path)))
    # a str is the file's text itself
    spec_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    for command in ("generate", "run"):
        assert main([command, "--scenario", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err and str(spec_path) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1e-6, 5e-7, 2e-7], "document must be a JSON object"),
        ({"e_uplnk": 5}, "unknown key e_uplnk;"),
        ({"e_write": "x"}, "e_write must be a finite number"),
        ("[" * 200_000, "maximum recursion depth exceeded"),
    ],
    ids=["list", "typo", "string", "deep"],
)
def test_malformed_energy_params_is_a_config_error(tmp_path, capsys, doc, message):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    params_path = tmp_path / "energy.json"
    # a str is the file's text itself
    params_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = ["run", "--scenario", str(spec_path), "--energy-params", str(params_path),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and str(params_path) in err
    assert not (tmp_path / "out").exists()


def test_overflowing_energy_params_are_a_config_error(tmp_path, capsys):
    # finite coefficients whose energy for this spec's data overflows a float
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    params_path = tmp_path / "energy.json"
    params_path.write_text(json.dumps({"e_write": 1e307}))
    argv = ["run", "--scenario", str(spec_path), "--energy-params", str(params_path),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "energy coefficients" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "error, code",
    [
        (ConfigError, 2),
        (Infeasible, 3),
        (MalformedInput, 4),
        (OSError, 4),
        (InvalidAllocation, 5),
        (CapacityExceeded, 5),
        (ValueError, 5),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
)
def test_each_exit_code_has_one_error_class(tmp_path, capsys, monkeypatch, error, code):
    # the table in README "Exit codes"
    def stub(args):
        raise error("stub failure")

    monkeypatch.setattr(cli, "cmd_report", stub)
    assert main(["report", str(tmp_path)]) == code
    assert "stub failure" in capsys.readouterr().err


def test_capacity_failure_at_the_commit_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # PlacementProblem offers only clouds with room for the datum, so an
    # optimizer answer naming a full cloud is a bug, never a counted failure
    def first_clouds(problem, params):
        best = AllocationVector(tuple(range(problem.replica_count)))
        return OptResult(best, problem.objective(best), (), 1)

    monkeypatch.setattr(replica_harmony.harness, "hs_optimize", first_clouds)
    spec_path = tmp_path / "tight.json"
    # every cloud holds one datum, and every datum takes two clouds
    spec = write_tiny_scenario(spec_path, data_size_range_bytes=(60, 60), capacity_range_bytes=(100.0, 100.0),
                               policy=Policy(2, 2))
    with pytest.raises(CapacityExceeded):
        run_trial(spec, "hs", 0)
    assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--out", str(tmp_path / "out")]) == 5
    assert "CapacityExceeded" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_internal_value_error_exits_5(tmp_path, capsys, monkeypatch):
    def broken(problem, params):
        raise ValueError("not the user's fault")

    monkeypatch.setattr(replica_harmony.harness, "hs_optimize", broken)
    assert main(["run", "--scenario", "builtin:1", "--algo", "hs", "--out", str(tmp_path / "out")]) == 5
    assert "not the user's fault" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_repeated_seeds_are_a_config_error(tmp_path, capsys, command):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    argv = [command, "--scenario", str(spec_path), "--algo", "hs", "--algo", "random",
            "--seeds", "3,3", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "repeat" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_repeated_algorithm_is_a_config_error(tmp_path, capsys, command):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    argv = [command, "--scenario", str(spec_path), "--algo", "hs", "--algo", "random",
            "--algo", "hs", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "repeat" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_writes_nothing_when_a_later_scenario_fails(tmp_path, capsys):
    # one cloud cannot hold the policy's two replicas, so the second scenario is infeasible
    write_tiny_scenario(tmp_path / "ok.json", name="ok")
    bad = ScenarioSpec(name="bad", num_gateways=2, num_clouds=1, timesteps=3)
    (tmp_path / "bad.json").write_text(scenario_to_json(bad))
    argv = ["compare", "--scenario", str(tmp_path / "ok.json"), "--scenario", str(tmp_path / "bad.json"),
            "--algo", "hs", "--algo", "random", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "replicas" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_rejects_scenarios_that_share_a_file_name(tmp_path, capsys):
    # "lab:1" and "lab/1" both write plot_lab-1_<metric>.csv
    write_tiny_scenario(tmp_path / "colon.json", name="lab:1")
    write_tiny_scenario(tmp_path / "slash.json", name="lab/1")
    argv = ["compare", "--scenario", str(tmp_path / "colon.json"), "--scenario", str(tmp_path / "slash.json"),
            "--algo", "hs", "--algo", "random", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "repeat" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", ["x", "1,two", "2.5", ","])
def test_unreadable_seed_list_is_a_config_error(tmp_path, seeds):
    argv = ["run", "--scenario", "builtin:1", "--seeds", seeds, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert not (tmp_path / "out").exists()


def test_non_integer_env_seed_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPLICA_HARMONY_SEED", "seven")
    assert main(["run", "--scenario", "builtin:1", "--out", str(tmp_path / "out")]) == 2
    assert "REPLICA_HARMONY_SEED" in capsys.readouterr().err


def test_generate_writes_the_experiment_run_simulates(tmp_path, monkeypatch):
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    spec_path = tmp_path / "tiny.json"
    spec = write_tiny_scenario(spec_path, seed=7)
    assert main(["generate", "--scenario", str(spec_path), "--out", str(tmp_path / "gen")]) == 0
    experiment = build_experiment(spec, 7)
    topology_text = (tmp_path / "gen" / "topology_tiny_seed7.json").read_text()
    assert topology_text == topology_to_json(experiment.topology)
    items = json.loads((tmp_path / "gen" / "workload_tiny_seed7.json").read_text())["items"]
    assert items and items == [
        {"id": d.id, "size_bytes": d.size, "source_gateway": d.source_gateway,
         "replica_count": d.replica_count, "arrival_timestep": d.arrival_timestep}
        for d in experiment.workload
    ]


# SHA-256 of the files `run --algo exhaustive` wrote for this command before
# the exact solver replaced subset enumeration
EXHAUSTIVE_DIGESTS = {
    "trial_builtin-2_exhaustive_seed0.csv": "a6364ae184009a555aed932fbbf59fab8c2d10f13f8c96f5aae804aa63b93f01",
    "trial_builtin-2_exhaustive_seed0.json": "94bffcb86d65acd68f465b164324f8d75ff5d601747d625ea1fbe203d8acf35e",
    "trial_builtin-2_exhaustive_seed1.csv": "548e8ae0185418c08cd7c696c49b16ccdbb71cf4a1485be3c2843dd1673643d5",
    "trial_builtin-2_exhaustive_seed1.json": "96e4f2b2cb95d8aba705a22b5015999b71ba2b486b670c7c3e62b3a53e8e2dc6",
}


def test_run_exhaustive_output_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    spec_path = tmp_path / "builtin2.json"
    spec_path.write_text(scenario_to_json(dataclasses.replace(builtin_scenario(2), timesteps=20)))
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(spec_path), "--algo", "exhaustive", "--seeds", "2",
                 "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == EXHAUSTIVE_DIGESTS


# captured before trials shared one experiment per (scenario, seed)
COMPARE_DIGESTS = {
    "comparison.csv": "bef42c6a07082064a10453f557477e3cdd0fa461b1d60ca18a95b41e30e5a404",
    "plot_builtin-1_cost.csv": "2362a7ce7673e91d872b9f93424b61a22bb1f99411174a5f0b6e0f5c50bdc661",
    "plot_builtin-1_delay.csv": "029ef477f6e4963f4466120b822ed6fa951bc673866edf3a2a23dff15e7ef2b8",
    "plot_builtin-1_energy.csv": "2fd401640ed678623d779b919f776b9a3f65f92338bdad4b25ae5e9ae8995bb4",
    "win_rates.csv": "e9fca7bef8b8296244348ffcbd70b5af59f276128089e7b499e6ae2867d04f48",
}
# about a quarter of the data fail as Infeasible (hs: 126 placed, 41 failed)
TIGHT_SPEC = {"name": "tight", "num_gateways": 22, "num_clouds": 8, "timesteps": 40,
              "capacity_range_bytes": [800, 2000]}
TIGHT_DIGESTS = {
    "comparison.csv": "8c281f79d0dcc6fb05f72c6cf8389efa7f507cbe4a08f0b643b00a1847460392",
    "plot_tight_cost.csv": "f20b2346b016ff1942e628644567ea93dce1cff8c364c8a1ca4fddcdc1127509",
    "plot_tight_delay.csv": "fab1a7e499c920191a996b148eeb4c643013f18f540b1862eb5f2cdb56bd769e",
    "plot_tight_energy.csv": "5d06401604f96c934ca54f5142523a8a90f96ceeaf180bfea3289044bf53201e",
    "win_rates.csv": "1196f1aa150ae03305b6be4c7e453dafc147208fd9475292eb60e9f2e096e78a",
}
FIXED_EXERCISE_DIGESTS = {
    "trial_builtin-2_foa_seed0.csv": "9e8f799b31a651d56189d199fc83b61d779141e042a18acbcca221d0e8d5b35f",
    "trial_builtin-2_foa_seed0.json": "14461477d8e702fb3a911056205a2af2ea3b0f4253b19210b1c909c3385907ba",
    "trial_builtin-2_foa_seed1.csv": "031fc068709a1ec485bb9d667adb18dc34d88b89ca3dad161cc27bc1ccb7e989",
    "trial_builtin-2_foa_seed1.json": "340d9b433560adf8090dbba765f19aa3d37d079677c00bdd1598efc690c48bc2",
    "trial_builtin-2_hs_seed0.csv": "bcaa65d755d012fd02d0fa4f952a1c09d8f4f3a7d4d2595edfe3bc23cbee381d",
    "trial_builtin-2_hs_seed0.json": "f1eb443d4fa4a3306963cb8446e0722d3007b6ea10f30179c81c5237b1050d4a",
    "trial_builtin-2_hs_seed1.csv": "a427b144af77886a728639897c04fa604e3d6c16fbcdfa3b1699fbe0a249d31f",
    "trial_builtin-2_hs_seed1.json": "b4fe6315a51228211c03d13dfc658180e428446c81d9a1b3d3978b4a1d918cc6",
}
FOUR_ALGOS = ["--algo", "hs", "--algo", "random", "--algo", "ga", "--algo", "foa"]


def _output_digests(tmp_path, spec_text, argv):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text)
    out = tmp_path / "out"
    assert main([argv[0], "--scenario", str(spec_path), *argv[1:], "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize(
    "spec_text, digests",
    [
        (scenario_to_json(dataclasses.replace(builtin_scenario(1), timesteps=20)), COMPARE_DIGESTS),
        (json.dumps(TIGHT_SPEC), TIGHT_DIGESTS),
    ],
    ids=["builtin1", "tight"],
)
def test_compare_output_digests(tmp_path, monkeypatch, spec_text, digests):
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    argv = ["compare", *FOUR_ALGOS, "--seeds", "0,1", "--threads", "2"]
    assert _output_digests(tmp_path, spec_text, argv) == digests


def test_run_fixed_exercises_output_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    spec_text = scenario_to_json(dataclasses.replace(builtin_scenario(2), timesteps=20))
    argv = ["run", "--algo", "hs", "--algo", "foa", "--exercises", "3", "--seeds", "2"]
    assert _output_digests(tmp_path, spec_text, argv) == FIXED_EXERCISE_DIGESTS


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


@pytest.mark.parametrize("command, seeds", [("compare", "0,1"), ("run", "0,1,2")])
def test_threads_write_the_same_bytes(tmp_path, monkeypatch, command, seeds):
    # compare: 2 scenarios x 2 seeds, run: 3 seeds, so every job has more
    # (scenario, seed) units than workers
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    write_tiny_scenario(tmp_path / "a.json", name="a")
    write_tiny_scenario(tmp_path / "b.json", name="b")
    scenarios = ["--scenario", str(tmp_path / "a.json")]
    if command == "compare":
        scenarios += ["--scenario", str(tmp_path / "b.json")]
    forks = counting_forks(monkeypatch)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        argv = [command, *scenarios, "--algo", "hs", "--algo", "random", "--seeds", seeds,
                "--threads", threads, "--out", str(out)]
        assert main(argv) == 0
        assert_no_child_left()
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert len(forks) == TWO - 1


@pytest.mark.parametrize(
    "failing", [{1}, {2}, {1, 2}, {0, 1}], ids=lambda seeds: "seeds" + "".join(map(str, sorted(seeds)))
)
@pytest.mark.parametrize(
    "error, code, shown",
    [(lambda seed: ConfigError(f"seed {seed} fails"), 2, str), (CapacityExceeded, 5, repr)],
    ids=["config", "capacity"],
)
def test_a_failing_unit_fails_the_job_as_a_serial_run_does(tmp_path, capsys, monkeypatch, failing, error, code,
                                                           shown):
    # at --threads 2, seeds 0 and 2 run in this process and seed 1 in a child;
    # the earliest failing seed's error is the one reported
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    original = harness.build_experiment

    def failing_seeds(spec, seed):
        if seed in failing:
            raise error(seed)
        return original(spec, seed)

    monkeypatch.setattr(harness, "build_experiment", failing_seeds)
    write_tiny_scenario(tmp_path / "tiny.json")
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        argv = ["run", "--scenario", str(tmp_path / "tiny.json"), "--algo", "hs", "--seeds", "0,1,2",
                "--threads", threads, "--out", str(out)]
        results.append((main(argv), capsys.readouterr().err))
        assert not out.exists()
        assert_no_child_left()
    assert results[0] == results[1]
    assert results[0] == (code, f"error: {shown(error(min(failing)))}\n")


def test_run_rejects_bad_algorithm(tmp_path):
    code = main(["run", "--scenario", "builtin:1", "--algo", "nosuch", "--out", str(tmp_path)])
    assert code == 2


def test_run_rejects_bad_seed_count(tmp_path):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    code = main(["run", "--scenario", str(spec_path), "--algo", "hs", "--seeds", "0",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_compare_emits_tables_and_plots(tmp_path):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    out = tmp_path / "cmp"
    argv = [
        "compare", "--scenario", str(spec_path), "--scenario", "builtin:1",
        "--algo", "hs", "--algo", "random", "--seeds", "2", "--out", str(out),
    ]
    assert main(argv) == 0
    plots = sorted(p.name for p in out.glob("plot_*.csv"))
    assert plots == [
        "plot_builtin-1_cost.csv",
        "plot_builtin-1_delay.csv",
        "plot_builtin-1_energy.csv",
        "plot_tiny_cost.csv",
        "plot_tiny_delay.csv",
        "plot_tiny_energy.csv",
    ]
    for name in plots:
        header = (out / name).read_text().splitlines()[0]
        assert header == "timestep,hs,random"

    comparison = (out / "comparison.csv").read_text().splitlines()
    assert comparison[0].startswith("scenario,algorithm,mean_cost_s")
    assert len(comparison) == 1 + 2 * 2  # two scenarios x two algorithms

    win_rates = (out / "win_rates.csv").read_text().splitlines()
    assert win_rates[0] == "scenario,algorithm_a,algorithm_b,win_rate"
    assert len(win_rates) == 1 + 2 * 2

    # energy plots are cumulative: the last row dominates the first
    rows = (out / "plot_tiny_energy.csv").read_text().splitlines()
    first = float(rows[1].split(",")[1])
    last = float(rows[-1].split(",")[1])
    assert last >= first


def test_every_csv_quotes_a_scenario_name_that_needs_it(tmp_path, capsys):
    name = 'lab,"east"'
    spec_path = tmp_path / "lab.json"
    write_tiny_scenario(spec_path, name=name)
    algos = ["--algo", "hs", "--algo", "random", "--seeds", "2"]
    assert main(["compare", "--scenario", str(spec_path), *algos, "--out", str(tmp_path / "cmp")]) == 0
    assert main(["run", "--scenario", str(spec_path), *algos, "--out", str(tmp_path / "runs")]) == 0
    paths = sorted((tmp_path / "cmp").glob("*.csv")) + sorted((tmp_path / "runs").glob("*.csv"))
    assert len(paths) == 2 + 3 + 4  # comparison, win rates, plots; four trials
    for path in paths:
        with path.open(newline="") as f:
            header, *rows = csv.reader(f)
        assert rows and all(len(row) == len(header) for row in rows), path.name
        if "scenario" in header:
            assert {row[header.index("scenario")] for row in rows} == {name}, path.name
    capsys.readouterr()
    assert main(["report", str(tmp_path / "runs")]) == 0
    assert f"scenario {name} (4 trials)" in capsys.readouterr().out


def test_compare_needs_two_algorithms(tmp_path, capsys):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    code = main(["compare", "--scenario", str(spec_path), "--algo", "hs",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "two" in capsys.readouterr().err


def test_report_prints_rankings(tmp_path, capsys):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--algo", "random",
                 "--seeds", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "scenario tiny (4 trials)" in text
    assert "mean cost (s):" in text
    assert "win rate hs vs random on cost:" in text


def test_report_win_rate_matches_compare(tmp_path, capsys):
    spec_path = tmp_path / "tiny.json"
    spec = write_tiny_scenario(spec_path)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--algo", "random",
                 "--seeds", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    rate = compare_algorithms(spec, ["hs", "random"], range(4)).win_rates[("hs", "random")]
    assert f"win rate hs vs random on cost: {rate:.3f} (4 paired seeds)" in text


def test_report_pairs_only_shared_seeds(tmp_path, capsys):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    out = tmp_path / "runs"
    for algo, seeds in (("hs", "0,1"), ("random", "1,2")):
        assert main(["run", "--scenario", str(spec_path), "--algo", algo, "--seeds", seeds,
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "scenario tiny (4 trials)" in text
    assert "win rate hs vs random on cost:" in text
    assert "(1 paired seeds)" in text


def test_report_empty_directory(tmp_path, capsys):
    code = main(["report", str(tmp_path)])
    assert code == 2
    assert "no trial CSV" in capsys.readouterr().err


def test_report_detects_tampered_summary(tmp_path, capsys):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--out", str(out)]) == 0
    summary_path = next(out.glob("trial_*.json"))
    doc = json.loads(summary_path.read_text())
    doc["totals"]["mean_cost_s"] += 0.5
    summary_path.write_text(json.dumps(doc))
    assert main(["report", str(out)]) == 4
    assert summary_path.name in capsys.readouterr().err


def _drop_totals(doc):
    del doc["totals"]


def _drop_placed(doc):
    del doc["totals"]["placed"]


def _add_unknown(doc):
    doc["totals"]["median_cost_s"] = 1.0


def _stringify_cost(doc):
    doc["totals"]["mean_cost_s"] = str(doc["totals"]["mean_cost_s"])


def _float_placed(doc):
    doc["totals"]["placed"] = float(doc["totals"]["placed"])


def _nudge_cost(doc):
    cost = doc["totals"]["mean_cost_s"]
    doc["totals"]["mean_cost_s"] = cost * (1 + 1e-13)
    assert doc["totals"]["mean_cost_s"] != cost


@pytest.mark.parametrize(
    "tamper",
    [
        _drop_totals, _drop_placed, _add_unknown, _stringify_cost,
        lambda doc: doc.update(scenario="elsewhere"),
        lambda doc: doc.update(algorithm="ga"),
        lambda doc: doc.update(seed=99),
        _float_placed,
        _nudge_cost,
        lambda doc: "[" * 200_000,
    ],
    ids=["no-totals", "missing-key", "unknown-key", "non-number", "other-scenario",
         "other-algorithm", "other-seed", "float-placed", "nudged-cost", "deep"],
)
def test_report_rejects_malformed_summary(tmp_path, capsys, tamper):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--out", str(out)]) == 0
    summary_path = next(out.glob("trial_*.json"))
    doc = json.loads(summary_path.read_text())
    # a tamper edits doc in place, or returns the file's new text
    summary_path.write_text(tamper(doc) or json.dumps(doc))
    assert main(["report", str(out)]) == 4
    assert summary_path.name in capsys.readouterr().err


def test_report_accepts_a_summary_in_any_layout(tmp_path, capsys):
    # only keys, types and values must match the summary run writes
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--out", str(out)]) == 0
    summary_path = next(out.glob("trial_*.json"))
    doc = json.loads(summary_path.read_text())
    doc["totals"] = dict(reversed(doc["totals"].items()))
    summary_path.write_text(json.dumps(dict(reversed(doc.items()))))
    assert main(["report", str(out)]) == 0
    assert "scenario tiny (1 trials)" in capsys.readouterr().out


def _set_cell(column, value):
    def tamper(text):
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[column] = value
        return "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"

    return tamper


def _short_row(text):
    lines = text.splitlines()
    return "\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]) + "\n"


@pytest.mark.parametrize(
    "tamper",
    [
        lambda text: text.replace("timestep,", "step,", 1),
        _short_row,
        lambda text: text.replace(",0\n", ",zero\n", 1),
        lambda text: text.splitlines()[0] + "\n",
        lambda text: text.replace(",0\n", ",0,99\n", 1),
        _set_cell(CSV_HEADER.index("mean_cost_s"), "nan"),
        _set_cell(CSV_HEADER.index("mean_delay_s"), "inf"),
        _set_cell(CSV_HEADER.index("mean_cost_s"), "-1.0"),
        _set_cell(CSV_HEADER.index("placed"), "-5"),
        _set_cell(CSV_HEADER.index("scenario"), "x" * 200_000),
    ],
    ids=["header", "short-row", "non-number", "header-only", "long-row",
         "nan-cost", "inf-delay", "negative-cost", "negative-placed", "oversized-cell"],
)
def test_report_rejects_malformed_trial_csv(tmp_path, capsys, tamper):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--out", str(out)]) == 0
    csv_path = next(out.glob("trial_*.csv"))
    csv_path.write_text(tamper(csv_path.read_text()))
    # with no summary to disagree with, the CSV alone must be rejected
    csv_path.with_suffix(".json").unlink()
    capsys.readouterr()
    assert main(["report", str(out)]) == 4
    assert csv_path.name in capsys.readouterr().err


def test_report_rejects_repeated_timestep_without_summary(tmp_path, capsys):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--out", str(out)]) == 0
    csv_path = next(out.glob("trial_*.csv"))
    text = csv_path.read_text()
    csv_path.write_text(text + text.splitlines()[-1] + "\n")
    csv_path.with_suffix(".json").unlink()
    capsys.readouterr()
    assert main(["report", str(out)]) == 4
    err = capsys.readouterr().err
    assert csv_path.name in err and "1..T" in err


def test_report_means_do_not_overflow(tmp_path, capsys):
    # two valid trials whose cost sum overflows a float; their mean does not
    for seed in (0, 1):
        row = (1, "big", "hs", seed, 1e308, 1.0, 1.0, 1, 0)
        (tmp_path / f"trial_big_hs_seed{seed}.csv").write_text(csv_text(CSV_HEADER, [row]))
    assert main(["report", str(tmp_path)]) == 0
    assert "mean cost (s): hs=1e+308" in capsys.readouterr().out


def test_plot_means_do_not_overflow_where_the_table_does_not(tmp_path):
    # one 1e308-second datum per seed: the two costs overflow as a sum, not
    # as a mean, and the one-timestep plot point is comparison.csv's mean
    spec = ScenarioSpec(
        name="ovf", num_gateways=1, num_clouds=3, timesteps=1, arrival_probability=1.0,
        gw_rate_range_bytes_per_s=(2e-306, 2e-306), cloud_rate_range_bytes_per_s=(2e-306, 2e-306),
        data_size_range_bytes=(100, 100), rw_delay_range_ms_per_byte=(0.0, 0.0),
        waiting_time_range_s=(0.0, 0.0),
    )
    spec_path = tmp_path / "ovf.json"
    spec_path.write_text(scenario_to_json(spec))
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(spec_path), "--seeds", "2", "--out", str(out)]) == 0
    table = {row["algorithm"]: row["mean_cost_s"] for row in csv.DictReader((out / "comparison.csv").open())}
    [point] = csv.DictReader((out / "plot_ovf_cost.csv").open())
    assert table == {algo: point[algo] for algo in table}
    assert set(table.values()) == {"1e+308"}


def test_report_rejects_two_files_for_one_trial(tmp_path, capsys):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    out = tmp_path / "runs"
    assert main(["run", "--scenario", str(spec_path), "--algo", "hs", "--algo", "random",
                 "--out", str(out)]) == 0
    original = out / "trial_tiny_hs_seed0.csv"
    copy = out / "trial_tiny_hs_seed0_copy.csv"
    copy.write_text(original.read_text())
    capsys.readouterr()
    assert main(["report", str(out)]) == 4
    captured = capsys.readouterr()
    assert original.name in captured.err and copy.name in captured.err
    assert captured.out == ""


def test_custom_energy_params_change_energy_only(tmp_path):
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    params_path = tmp_path / "energy.json"
    params_path.write_text(json.dumps({"e_uplink": 2e-6, "e_intercloud": 1e-6, "e_write": 4e-7}))

    out_a = tmp_path / "default"
    out_b = tmp_path / "custom"
    base = ["run", "--scenario", str(spec_path), "--algo", "hs", "--out"]
    assert main(base + [str(out_a)]) == 0
    assert main(base + [str(out_b), "--energy-params", str(params_path)]) == 0

    default = json.loads((out_a / "trial_tiny_hs_seed0.json").read_text())["totals"]
    custom = json.loads((out_b / "trial_tiny_hs_seed0.json").read_text())["totals"]
    assert custom["energy_j"] == default["energy_j"] * 2
    assert custom["mean_cost_s"] == default["mean_cost_s"]


def test_help_exits_zero():
    assert main(["--help"]) == 0


ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter without site, whose .pth files may import a
# watched module (threading, say) before the package does: imports the
# package from src/, counts the children os.fork makes, runs each argv and
# prints the exit codes, which of the watched modules got loaded, the fork
# count, and the collector's freeze count at the start and after each call.
PROBE = """
import gc, json, os, sys
sys.path.insert(0, sys.argv[1])
from replica_harmony import cli
forks = []
fork = os.fork
def counting_fork():
    pid = fork()
    forks.append(pid)
    return pid
os.fork = counting_fork
codes, frozen = [], [gc.get_freeze_count()]
for argv in sys.argv[2:]:
    codes.append(cli.main(json.loads(argv)))
    frozen.append(gc.get_freeze_count())
watched = ("_hashlib", "ssl", "pickle", "threading")
print(json.dumps({"codes": codes, "loaded": [m for m in watched if m in sys.modules],
                  "forks": len(forks), "frozen": frozen}))
"""


def run_probe(tmp_path, argvs) -> dict:
    probe = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE, str(ROOT / "src"), *map(json.dumps, argvs)],
        capture_output=True, text=True, check=True, cwd=tmp_path, timeout=120,
    )
    return json.loads(probe.stdout.splitlines()[-1])


def probe_argvs(tmp_path, *flags) -> list:
    """A run and a compare of a tiny scenario, each with flags."""
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    return [
        ["run", "--scenario", str(spec_path), "--algo", "hs", *flags, "--out", str(tmp_path / "run")],
        ["compare", "--scenario", str(spec_path), "--algo", "hs", "--algo", "random",
         "--seeds", "2", *flags, "--out", str(tmp_path / "compare")],
    ]


def test_run_and_compare_never_load_openssl(tmp_path, monkeypatch):
    # seeding hashes with CPython's built-in SHA-256: hashlib would map
    # OpenSSL's libcrypto into every job for the same digest
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    result = run_probe(tmp_path, probe_argvs(tmp_path))
    frozen = result.pop("frozen")
    assert result["codes"] == [0, 0]
    assert "_hashlib" not in result["loaded"] and "ssl" not in result["loaded"]
    # The first cli.main call freezes the import-time heap, so the collections
    # CPython runs at exit skip it; the second freezes nothing more. A frozen
    # object can still be freed (compare drops a few of abc's cached weak
    # references), so the count may fall; a second freeze would raise it by
    # what the first job left alive.
    startup, first, second = frozen
    assert startup < first and second <= first, frozen


def test_serial_run_and_compare_never_fork_or_import_pickle(tmp_path, monkeypatch):
    # at --threads 1 the units run in the job's own process, so a one-worker
    # job pays for neither a child nor the pickle or threading import
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    result = run_probe(tmp_path, probe_argvs(tmp_path, "--threads", "1"))
    assert (result["codes"], result["loaded"], result["forks"]) == ([0, 0], [], 0)


def test_threads_beyond_the_units_and_cpus_fork_no_more(tmp_path, monkeypatch):
    # a 2-unit job at --threads 64 makes min(CPUs, 2) workers: this process and at most one child
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path)
    argv = ["run", "--scenario", str(spec_path), "--algo", "hs", "--seeds", "2", "--threads", "64",
            "--out", str(tmp_path / "run")]
    result = run_probe(tmp_path, [argv])
    assert (result["codes"], result["forks"]) == ([0], TWO - 1)
    assert result["loaded"] == (["pickle"] if TWO == 2 else [])


def perfbench_tracing():
    """perfbench/tracing.py, loaded without installing its wrappers."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_tracer_names_resolve():
    # the benchmark's layer tracer wraps these names on the imported package;
    # one that no longer resolves breaks its traced runs
    tracing = perfbench_tracing()
    modules = {name: getattr(replica_harmony, name) for name in tracing.MODULES}
    for module, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"
    for module, cls, method, *_ in tracing.METHODS:
        assert callable(getattr(getattr(modules[module], cls), method, None)), f"{cls}.{method}"


# evaluations per datum at --hms 4 --exercises 3: each heuristic spends the
# HS budget (GA's population and FOA's forest are capped by it); the exact
# solver makes none
@pytest.mark.parametrize(
    "algo,evals",
    [("hs", 4 + 3), ("random", 4 + 3), ("ga", 4 + 3), ("foa", 4 + 3), ("exhaustive", 0)],
    ids=["hs", "random", "ga", "foa", "exhaustive"],
)
def test_perfbench_tracer_counts_every_evaluation(tmp_path, monkeypatch, algo, evals):
    # A traced benchmark job must still see each evaluation as a
    # CostModel.total call. The tracer rewrites package globals for the rest
    # of its process, so the job runs in a child process.
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    spec_path = tmp_path / "tiny.json"
    write_tiny_scenario(spec_path, capacity_range_bytes=(1e9, 2e9))
    out = tmp_path / "out"
    trace_path = tmp_path / "trace.json"
    argv = ["run", "--scenario", str(spec_path), "--algo", algo, "--hms", "4",
            "--exercises", "3", "--out", str(out)]
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "job.py"), str(tmp_path / "stamp.json"),
         str(trace_path), *argv],
        check=True, cwd=tmp_path, timeout=120,
    )
    layers = json.loads(trace_path.read_text())["layers"]
    totals = json.loads((out / f"trial_tiny_{algo}_seed0.json").read_text())["totals"]
    assert totals["placed"] > 0
    assert totals["failures"] == 0
    assert layers.get("cost.eval", {"calls": 0})["calls"] == evals * totals["placed"]
    assert layers["model.commit"]["calls"] == totals["placed"]


def test_perfbench_traced_compare_sees_every_hook(tmp_path, monkeypatch):
    # The tracer's hooks: generate_topology, CostModel.__init__,
    # PlacementProblem(topology, datum, objective) opening each datum,
    # CostModel.total on vectors with .clouds, and the harness committing
    # through commit_placement. A job run in a child process, since the
    # tracer rewrites package globals, must see each of them.
    monkeypatch.delenv("REPLICA_HARMONY_SEED", raising=False)
    spec_path = tmp_path / "tiny.json"
    # little capacity, so that some data fail as well
    write_tiny_scenario(spec_path, capacity_range_bytes=(150.0, 400.0))
    out = tmp_path / "out"
    stamp_path, trace_path = tmp_path / "stamp.json", tmp_path / "trace.json"
    argv = ["compare", "--scenario", str(spec_path), "--algo", "hs", "--algo", "random",
            "--seeds", "0,1", "--out", str(out)]
    job = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "job.py"), str(stamp_path), str(trace_path), *argv],
        cwd=tmp_path, timeout=120,
    )
    assert job.returncode == 0
    assert json.loads(stamp_path.read_text())["exit_code"] == 0
    trace = json.loads(trace_path.read_text())
    metrics = perfbench_tracing().layer_metrics(trace)
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    placed = sum(int(row["placed"]) for row in rows)
    failures = sum(int(row["failures"]) for row in rows)
    assert placed > 0 and failures > 0
    assert metrics["cost.evals"] > 0
    assert metrics["harness.place_samples"] == placed + failures
    assert metrics["model.commit_calls"] == placed
    assert metrics["optimize.infeasible"] == failures
    # one topology and one cost model per seed
    assert trace["layers"]["cost.setup"]["calls"] == 2
    assert trace["layers"]["scenario.generate"]["calls"] == 2 * 2
