"""The library has no runtime dependencies: every import in lndkit's
modules, at module level or inside a function, names the package itself
or a module of the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lndkit"


def _imported(tree):
    """Top-level module names of the absolute imports in a module; a
    relative import (`from .x import y`) is the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_imports_are_stdlib_or_the_package():
    foreign = [f"{path.name}: {name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for name in _imported(ast.parse(path.read_text(encoding="utf-8")))
               if name != "lndkit" and name not in sys.stdlib_module_names]
    assert foreign == []
