"""Every name a package module imports is used in that module, and every
module-level name a package module defines is used somewhere in the package.

The scans read each `src/mbirnet/*.py` with the standard `ast` module.  The
package `__init__` is left out of both as a module that imports or defines:
its imports are the public re-exports, and a re-export counts as a use.
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


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Module-level function, class and constant name -> its line, dunders left out."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {name: line for name, line in names.items() if not name.startswith("__")}


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in a module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def dead_names(sources: dict[str, str]) -> list[str]:
    """`module:line: name` for each name that a module other than `__init__`
    defines and that no module of `sources` (`__init__` included) uses."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    return [f"{module}:{line}: {name}" for module, tree in trees.items()
            if module != "__init__"
            for name, line in defined_names(tree).items() if name not in used]


def test_no_dead_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_names(sources) == []


def test_scan_catches_a_dead_name():
    sources = {
        "__init__": "from .a import public\n",
        "a": ("LIMIT = 3\n"
              "_UNUSED = 4\n"
              "def public(x):\n"
              "    return _helper(x) + LIMIT\n"
              "def _helper(x):\n"
              "    return x\n"
              "def _dead(x):\n"
              "    return x\n"
              "class Spare:\n"
              "    pass\n"),
        "b": "from . import a\nSIZE = a.LIMIT\nprint(SIZE)\n",
    }
    assert dead_names(sources) == ["a:2: _UNUSED", "a:7: _dead", "a:9: Spare"]
