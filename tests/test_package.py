import ast
import pickle
import sys
from pathlib import Path

import replica_harmony
from replica_harmony import errors
from replica_harmony.harness import ALGORITHMS

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
    # entry points (run_grid, compare_algorithms) leave the collector alone
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


def test_unit_bearing_json_keys_are_declared_once():
    # a field whose name lacks its unit declares its JSON key in its metadata,
    # and the codec in model.py reads and writes every file by that one spelling
    source = "".join(path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py")))
    keys = ("read_delay_ms_per_byte", "write_delay_ms_per_byte", "total_capacity_bytes", "used_capacity_bytes")
    assert {key: source.count(key) for key in keys} == dict.fromkeys(keys, 1)


def test_allocation_rules_are_spelled_in_model_py():
    # model.check_allocation and model.check_distinct own the cloud-id rules;
    # only CostModel.total repeats the range check, inline in its hot loop
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
        "out of range [0,": ["cost.total", "model.check_allocation"],
        "duplicate cloud ids": ["model.check_distinct"],
    }


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
