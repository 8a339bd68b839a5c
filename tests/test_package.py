import ast
import pickle
import sys
from pathlib import Path

import replica_harmony
from replica_harmony import errors
from replica_harmony.cost import EnergyParams
from replica_harmony.harness import ALGORITHMS, TrialOptions, build_experiment, run_trial
from replica_harmony.model import AllocationVector, LinkMatrix, Policy
from replica_harmony.scenario import builtin_scenario

PACKAGE_DIR = Path(replica_harmony.__file__).parent

# CPython's built-in SHA-2 module is _sha256 up to 3.11 and _sha2 from 3.12;
# sys.stdlib_module_names lists only the running interpreter's spelling
BUILTIN_SHA2 = frozenset({"_sha256", "_sha2"})


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    stdlib = sys.stdlib_module_names | BUILTIN_SHA2
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in stdlib:
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
    assert outside == []


def test_no_module_imports_dataclasses():
    # every record is a NamedTuple: importing dataclasses, with the inspect,
    # ast and dis it imports, and building records through it took about 40%
    # of the time every job spends importing the package
    importers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_only_config_errors_exit_2():
    # cli.main maps ConfigError to exit 2; a ValueError from anywhere else is
    # an internal error, so the CLI boundary neither catches nor raises one
    trees = {name: ast.parse((PACKAGE_DIR / name).read_text()) for name in ("cli.py", "scenario.py", "model.py")}
    main = next(node for node in ast.walk(trees["cli.py"])
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(handler.type) for handler in ast.walk(main)
              if isinstance(handler, ast.ExceptHandler) and handler.type is not None]
    assert caught and not any("ValueError" in text for text in caught)
    raised = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc and "ValueError" in ast.unparse(node.exc)]
    assert raised == []


def test_only_the_cli_touches_the_garbage_collector():
    # cli.main freezes the import-time heap once per process; the library
    # entry points (run_grids, compare_algorithms) leave the collector alone
    users = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if "gc" in names:
                users.append(path.name)
    assert users == ["cli.py"]


def test_the_package_reads_no_environment():
    # seeds come from the flags or the scenario file, so the command line and
    # the files it names are every input of a job
    readers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            if {"environ", "environb", "getenv", "getenvb"} & set(names):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_each_file_format_has_one_writer():
    # every CSV goes through harness.csv_text and every JSON file through
    # model.json_text, so quoting and number formatting are decided once
    sites = {"csv.writer": [], "json.dumps": []}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        # ast.walk visits an outer function before the functions inside it,
        # so each node ends up owned by its innermost function
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, f"{path.stem}.{func.name}") for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in sites:
                sites[ast.unparse(node.func)].append(owner.get(node, f"{path.stem}:{node.lineno}"))
    assert sites == {"csv.writer": ["harness.csv_text"], "json.dumps": ["model.json_text"]}

    cli = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    joins = [node.lineno for node in ast.walk(cli)
             if isinstance(node, ast.Attribute) and node.attr == "join"
             and isinstance(node.value, ast.Constant) and node.value.value == ","]
    assert joins == []


def test_only_the_optimizer_dispatch_names_an_algorithm():
    # the trial loop treats every algorithm alike: in harness.py an algorithm's
    # name is spelled only where ALGORITHMS lists it and where _run_optimizer
    # dispatches on it
    sites = set()
    for stmt in ast.parse((PACKAGE_DIR / "harness.py").read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            owner = stmt.name
        elif isinstance(stmt, ast.Assign):
            owner = ast.unparse(stmt.targets[0])
        else:
            owner = f"harness:{stmt.lineno}"
        sites.update(owner for node in ast.walk(stmt)
                     if isinstance(node, ast.Constant) and node.value in ALGORITHMS)
    assert sites == {"ALGORITHMS", "_run_optimizer"}


def test_heuristics_draw_only_from_the_stream_they_are_passed():
    # every search is (problem, budget, rng): the caller seeds the one stream
    # a run draws from, so optimize.py never builds a generator of its own
    tree = ast.parse((PACKAGE_DIR / "optimize.py").read_text())
    built = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) in ("random.Random", "Random")]
    assert built == []


def test_unit_bearing_json_keys_are_declared_once():
    # a field whose name lacks its unit has its JSON key in model.JSON_KEYS,
    # and the codec in model.py reads and writes every file by that one spelling
    source = "".join(path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py")))
    keys = ("read_delay_ms_per_byte", "write_delay_ms_per_byte", "total_capacity_bytes", "used_capacity_bytes")
    assert {key: source.count(key) for key in keys} == dict.fromkeys(keys, 1)


def test_allocation_rules_are_spelled_in_model_py():
    # model.check_allocation and model.check_distinct own the cloud-id rules;
    # CostModel.total repeats neither in its hot loop
    phrases = ("out of range [0,", "duplicate cloud ids")
    sites = {phrase: [] for phrase in phrases}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((node, f"{path.stem}.{func.name}") for node in ast.walk(func))
        for node in ast.walk(tree):
            for phrase in phrases:
                if isinstance(node, ast.Constant) and phrase in str(node.value):
                    sites[phrase].append(owner.get(node, f"{path.stem}:{node.lineno}"))
    assert sites == {
        "out of range [0,": ["model.check_allocation"],
        "duplicate cloud ids": ["model.check_distinct"],
    }


def test_capacities_are_read_only_in_model_py():
    # a trial's CapacityLedger is the one reader of the clouds' capacities
    # and does the one subtraction that says which clouds have room
    readers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("used_capacity", "total_capacity"):
                readers.append(path.name)
    assert set(readers) == {"model.py"}


def test_every_error_survives_pickling():
    # a fan-out worker sends its failing unit's exception to the parent by pickle
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.ReplicaHarmonyError)]
    assert errors.CapacityExceeded in classes
    samples = [errors.CapacityExceeded(3), errors.CapacityExceeded(4, "cloud 4 is full")]
    samples += [cls("a message") for cls in classes if cls is not errors.CapacityExceeded]
    for exc in samples:
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc)
        assert repr(copy) == repr(exc) and str(copy) == str(exc)
        assert vars(copy) == vars(exc)


def test_records_survive_pickling():
    # a fan-out worker sends its reports by pickle, and a record that checks
    # its fields rebuilds through its constructor
    spec = builtin_scenario(1)._replace(timesteps=3)
    experiment = build_experiment(spec, 0)
    samples = [spec, Policy(1, 3), EnergyParams(e_write=0.0), TrialOptions(exercises=3),
               experiment.topology, experiment.topology.links, LinkMatrix(((1, 2),), ((0,),)),
               AllocationVector((2, 0)), run_trial(spec, "hs", 0)]
    for record in samples:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record and repr(copy) == repr(record)
