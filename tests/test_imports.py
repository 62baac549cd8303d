"""Source hygiene: no library module imports a name it never uses, and no
module imports inside a function body.

No linter ships with the toolchain, so these stdlib ``ast`` scans stand in
for one.  ``__init__`` is exempt from the first: its imports are the
package's exports.  The second keeps import cycles out: a module that
needs another at call time imports it at the top, or the two share a
lower module.
"""

import ast
from pathlib import Path

import pytest

ALL_SOURCES = sorted((Path(__file__).parents[1] / "src" / "contana")
                     .glob("*.py"))
SOURCES = [p for p in ALL_SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by import statements that no other node of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_name():
    source = ("from .errors import DomainError, ShapeError\n"
              "import numpy as np\n"
              "raise ShapeError(np.pi)\n")
    assert unused_imports(source) == [(1, "DomainError")]


def nested_imports(source: str) -> list:
    """Lines of the import statements inside a function body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, functions) for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert nested_imports(path.read_text()) == []


def test_scan_flags_a_nested_import():
    source = ("import math\n"
              "def f():\n"
              "    def g():\n"
              "        from .catalog import cantor_stage_cover\n"
              "    import os\n"
              "    return math.pi\n")
    assert nested_imports(source) == [4, 5]
