import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import qschur
from qschur import schur

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(qschur.__path__, "qschur.")
    if info.name != "qschur.__main__"
)


@pytest.mark.parametrize("name", ["qschur", *MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_submodules_export_only_their_own_definitions(name):
    # each function and class has one home module; only the package
    # root gathers names from the others
    module = importlib.import_module(name)
    foreign = []
    for x in getattr(module, "__all__", ()):
        obj = inspect.unwrap(getattr(module, x))
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ != name:
            foreign.append(x)
    assert foreign == []


def test_the_walk_sees_the_modules():
    assert "qschur.suites" in MODULES and "qschur.laurent" in MODULES


# The scripts and the benchmark import library names, and the
# benchmark's worker reads cache tables; they are parsed here, never
# run, so a change that would break one of them fails.
ROOT = Path(__file__).resolve().parents[1]
READERS = sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")])
WORKER = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))


def _qschur_imports(tree: ast.AST) -> dict:
    """Local name -> object for every name a file takes from qschur."""
    out = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.module
            and node.module.split(".")[0] == "qschur"
        ):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                out[alias.asname or alias.name] = getattr(module, alias.name)
    return out


@pytest.mark.parametrize("path", READERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_and_benchmark_imports_resolve(path):
    _qschur_imports(ast.parse(path.read_text(encoding="utf-8")))


def test_the_reader_walk_sees_the_scripts():
    names = {f"{p.parent.name}/{p.name}" for p in READERS}
    assert {"scripts/depth_study.py", "perfbench/worker.py", "perfbench/selftest.py"} <= names


def test_the_benchmark_worker_imports_resolve():
    names = _qschur_imports(WORKER)
    assert "general_product" in names and "schur" in names


def test_the_benchmark_worker_caches_keep_cache_info():
    names = _qschur_imports(WORKER)
    (table,) = [
        node.value
        for node in ast.walk(WORKER)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CACHES" for t in node.targets)
    ]
    assert table.values
    for value in table.values:
        assert isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
        fn = getattr(names[value.value.id], value.attr)
        assert hasattr(fn, "cache_info"), ast.unparse(value)


@pytest.mark.parametrize("fn", [schur.general_product, schur.force_oracle_product])
def test_the_benchmark_worker_passes_the_oracle_cap_positionally(fn):
    # perfbench/worker.py calls fn(left, right, ORACLE_CAP)
    inspect.signature(fn).bind("left", "right", 7)
