"""Only `laurent` and its own tests see how a LaurentPoly is stored.

The packed form (lowest exponent, packed slots, slot width, coefficient
bound) and the sparse term dict may change without notice; every other
file goes through the public methods.  The files are parsed, never run.
"""

import ast
from pathlib import Path

import pytest

from qschur import laurent
from qschur.laurent import LaurentPoly

ROOT = Path(__file__).resolve().parents[1]
OWNERS = {ROOT / "src" / "qschur" / "laurent.py", ROOT / "tests" / "test_laurent.py"}
FILES = sorted(
    p
    for pattern in ("src/qschur/*.py", "tests/*.py", "scripts/*.py", "perfbench/*.py")
    for p in ROOT.glob(pattern)
    if p not in OWNERS
)
# the slots and private methods of the class, and the module's private
# helpers
PRIVATE_ATTRS = {
    name
    for name in [*LaurentPoly.__slots__, *vars(LaurentPoly)]
    if name.startswith("_") and not name.startswith("__")
}
PRIVATE_HELPERS = {name for name in vars(laurent) if name.startswith("_") and not name.startswith("__")}


def _private_reads(tree: ast.AST) -> list[str]:
    """Private LaurentPoly attributes a file reads, and private laurent
    names it imports or takes from the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_ATTRS:
            out.append(node.attr)
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE_HELPERS:
            if isinstance(node.value, ast.Name) and node.value.id == "laurent":
                out.append(f"laurent.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("laurent"):
            out += [f"laurent.{a.name}" for a in node.names if a.name in PRIVATE_HELPERS]
    return out


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_file_reads_the_laurent_representation(path):
    assert _private_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_representation_walk_sees_every_kind_of_read():
    assert {"_packed", "_terms", "_width"} <= PRIVATE_ATTRS
    assert ROOT / "src" / "qschur" / "schur.py" in FILES and not OWNERS & set(FILES)
    tree = ast.parse(
        "from qschur.laurent import ONE, _slots\n"
        "from . import laurent\n"
        "p._packed + q.to_pairs()\n"
        "laurent._pack([1], 64)\n"
    )
    assert _private_reads(tree) == ["laurent._slots", "_packed", "laurent._pack"]
