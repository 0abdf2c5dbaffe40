"""Every name a package module imports is used in that module.

The scan reads each `src/mbirnet/*.py` with the standard `ast` module.  The
package `__init__` is left out: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mbirnet"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line, `from __future__` left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported_names(tree).items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_modules():
    assert {"linops.py", "solver.py", "prox.py"} <= {p.name for p in MODULES}


def test_scan_catches_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from typing import Optional, Sequence\n"
              "from .linops import ShapeError as SE\n"
              "def f(x: Sequence) -> Optional[int]:\n"
              "    return math.floor(x[0])\n")
    assert unused_imports(source) == ["line 4: SE"]
