import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qschur
from qschur import schur, suites

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


# A public name stays in the library only while the library, the scripts,
# the benchmark or an installed command read it; reference code that only
# the tests read lives under tests/.
READ_BY_TESTS_ONLY = {
    # criterion 8 counts double cosets by filtering S_r with it, which
    # building them from matrices would make circular
    "qschur.hecke.distinguished_reps",
}


def _reads(tree: ast.AST) -> set[str]:
    """Every name a file loads, takes as an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def _entry_points() -> set[str]:
    """The functions that the console scripts in pyproject.toml call,
    from lines `name = "module:function"` of its [project.scripts]
    table (tomllib is not in the standard library before 3.11)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    return {line.rpartition(":")[2].strip('" ') for line in table.splitlines() if "=" in line}


def _public_names(name: str) -> set[str]:
    """A module's `__all__`, and every public function and class it
    defines, listed there or not."""
    module = importlib.import_module(name)
    out = set(getattr(module, "__all__", ()))
    for x, obj in vars(module).items():
        obj = inspect.unwrap(obj)
        if not x.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj)):
            if obj.__module__ == name:
                out.add(x)
    return out


def test_every_public_name_has_a_reader_outside_the_tests():
    paths = [*ROOT.glob("src/qschur/*.py"), *READERS]
    read = set().union(*(_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in paths))
    read |= _entry_points()
    unread = {f"{name}.{x}" for name in MODULES for x in _public_names(name) if x not in read}
    assert unread == READ_BY_TESTS_ONLY


def _unread_private_definitions(tree: ast.Module, others: set[str]) -> list[str]:
    """The module-level private functions and classes of a file that
    neither the rest of the file outside their own body nor ``others``
    read: a helper whose last caller went, or one only recursion reads."""
    reads = [_reads(node) for node in tree.body]
    unread = []
    for k, node in enumerate(tree.body):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        private = node.name.startswith("_") and not node.name.startswith("__")
        if private and node.name not in others.union(*reads[:k], *reads[k + 1 :]):
            unread.append(node.name)
    return unread


def test_every_private_definition_has_a_reader_outside_its_body():
    library = sorted(ROOT.glob("src/qschur/*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in [*library, *READERS]}
    reads = {p: _reads(tree) for p, tree in trees.items()}
    unread = [
        f"{path.stem}.{name}"
        for path in library
        for name in _unread_private_definitions(
            trees[path], set().union(*(r for p, r in reads.items() if p != path))
        )
    ]
    assert unread == []


def test_the_private_walk_sees_stranded_helpers():
    tree = ast.parse(
        "def _used(): pass\ndef _stranded(): pass\n"
        "def _recursive(k): return _recursive(k - 1)\nclass _Kept: pass\n"
        "def f(): return _used()\n"
    )
    assert _unread_private_definitions(tree, {"_Kept"}) == ["_stranded", "_recursive"]


def test_the_public_walk_sees_names_outside_all():
    assert "run_closure" in _public_names("qschur.suites") and "run_closure" not in suites.__all__
    assert "main" in _public_names("qschur.cli") and _entry_points() == {"main"}


@pytest.mark.parametrize("fn", [schur.general_product, schur.force_oracle_product])
def test_the_benchmark_worker_passes_the_oracle_cap_positionally(fn):
    # perfbench/worker.py calls fn(left, right, ORACLE_CAP)
    inspect.signature(fn).bind("left", "right", 7)


# perfbench/ stays out: the bare `import qschur` in its worker is the
# import cost that the benchmark measures.
SOURCES = sorted(
    [*ROOT.glob("src/qschur/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("scripts/*.py")]
)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by imports, at module level or inside a function, that
    the file never reads; a name listed in `__all__` counts as read."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_import_walk_sees_every_tree():
    names = {str(p.relative_to(ROOT)) for p in SOURCES}
    assert {"src/qschur/schur.py", "tests/test_exports.py", "scripts/depth_study.py"} <= names
    assert _unused_imports(ast.parse("import a.b\nfrom c import d as e\n__all__ = ['e']")) == ["a"]
    nested = "def f():\n    import os\n    from sys import argv\n    return argv\n"
    assert _unused_imports(ast.parse(nested)) == ["os"]


def _import_roots(tree: ast.AST) -> list[str]:
    """Top-level names of the modules a file imports by absolute name."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


def _foreign_imports(tree: ast.AST) -> list[str]:
    """Top-level names of the modules a file imports that are neither in
    the standard library nor qschur itself."""
    return [
        r for r in _import_roots(tree) if r not in sys.stdlib_module_names and r != "qschur"
    ]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/qschur/*.py")), ids=lambda p: p.name)
def test_the_library_imports_only_the_standard_library(path):
    # numpy, sympy and the test tools are installed but are not
    # runtime dependencies
    assert _foreign_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_only_laurent_imports_fractions():
    # exact linear algebra runs over Z and Z[eps]; the one rational value
    # in the package is what the public LaurentPoly.evaluate returns
    importers = [
        path.name
        for path in sorted(ROOT.glob("src/qschur/*.py"))
        if "fractions" in _import_roots(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert importers == ["laurent.py"]


def test_the_dependency_walk_sees_nested_imports():
    tree = ast.parse(
        "import os.path\nfrom . import laurent\n"
        "def f():\n    import numpy.linalg\n    from sympy import Poly\n"
    )
    assert _foreign_imports(tree) == ["numpy", "sympy"]


def _loaded_by_a_bare_import(modules):
    code = f"import sys, qschur\nprint([m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return res.stdout.strip()


def test_importing_the_package_leaves_the_process_pool_unloaded():
    # only a stratum that fans out across processes imports the pool, so
    # a bare import (every CLI call) does not load multiprocessing
    assert _loaded_by_a_bare_import(("concurrent.futures", "multiprocessing")) == "[]"


def test_importing_the_package_leaves_dataclasses_and_inspect_unloaded():
    # RunConfig is a NamedTuple: dataclasses would pull in inspect, ast,
    # dis and tokenize on every CLI call
    assert _loaded_by_a_bare_import(("dataclasses", "inspect")) == "[]"
