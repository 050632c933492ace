"""Every module-level function and class of lndkit has a user: a reference
elsewhere in the package, an export from `lndkit/__init__.py`, or a
mention in the benchmark harness (`perfbench/*.py`)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lndkit"


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(trees):
    """(module, name) of every top-level def and class."""
    return [(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _referenced(trees):
    """Names used as a name or an attribute anywhere in the package."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _exported(trees):
    return {alias.asname or alias.name
            for node in trees["__init__.py"].body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_no_dead_symbols():
    trees = _trees()
    used = _referenced(trees) | _exported(trees)
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    dead = [f"{module}:{name}" for module, name in _definitions(trees)
            if name not in used
            and not re.search(rf"\b{re.escape(name)}\b", bench)]
    assert dead == []


def _imported(tree):
    """Names a module's import statements bind, `from __future__` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_no_unused_imports():
    # __init__.py imports in order to re-export
    unused = []
    for module, tree in _trees().items():
        if module == "__init__.py":
            continue
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}:{name}" for name in _imported(tree) if name not in loaded]
    assert unused == []
