"""Every module-level function and class of lndkit has a user: an import,
a load at module level or of a global, or an attribute elsewhere in the
package, an export from `lndkit/__init__.py`, or a mention in the
benchmark harness (`perfbench/*.py`).  A function's local variable of the
same name is no user."""

import ast
import re
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lndkit"


def _sources():
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _trees():
    return {name: ast.parse(source) for name, source in _sources().items()}


def _definitions(trees):
    """(module, name) of every top-level def and class."""
    return [(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _global_loads(table):
    """Names that a scope, or any scope inside it, reads from module level:
    every name read at module level, and every global read elsewhere."""
    module = table.get_type() == "module"
    names = {symbol.get_name() for symbol in table.get_symbols()
             if symbol.is_referenced() and (module or symbol.is_global())}
    for child in table.get_children():
        names |= _global_loads(child)
    return names


def _referenced(sources):
    """Names imported, read from module level or taken as an attribute
    anywhere in the given module sources."""
    names = set()
    for module, source in sources.items():
        names |= _global_loads(symtable.symtable(source, module, "exec"))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_a_local_of_the_same_name_is_no_user():
    source = ("def rank():\n    pass\n\n"
              "def slice_search():\n    rank = 1\n    return rank\n")
    assert "rank" not in _referenced({"m.py": source})
    assert "rank" in _referenced({"m.py": source + "\nrank()\n"})
    assert "rank" in _referenced({"m.py": source + "\ndef f():\n    return rank()\n"})
    assert "rank" in _referenced({"n.py": "from .m import rank\n"})
    assert "rank" in _referenced({"n.py": "from . import m\nm.rank\n"})


def _exported(trees):
    return {alias.asname or alias.name
            for node in trees["__init__.py"].body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_no_dead_symbols():
    trees = _trees()
    used = _referenced(_sources()) | _exported(trees)
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
