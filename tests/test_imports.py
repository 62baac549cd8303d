"""Source hygiene: no library module imports a name it never uses, no
module imports inside a function body, only ``function_model`` tells
the function kinds apart, and no CLI default is a number of its own.

No linter ships with the toolchain, so these stdlib ``ast`` scans stand in
for one.  ``__init__`` is exempt from the first: its imports are the
package's exports.  The second keeps import cycles out: a module that
needs another at call time imports it at the top, or the two share a
lower module.  The third keeps every per-kind fact in one module, so that
a new fact or a new kind changes that module only.  The fourth keeps each
CLI default where the library keeps it (``AnalysisSettings``,
``ORACLE_POINTS``, ``DEFAULT_MAX_INTERVALS``), so the two cannot drift
apart.
"""

import ast
from pathlib import Path

import pytest

from contana import function_model

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


#: the names of function_model's kind constants (SQRT ... PWL)
KIND_CONSTANTS = {name for name, value in vars(function_model).items()
                  if isinstance(value, str) and value in function_model._KINDS}


def kind_reads(source: str) -> list:
    """Lines that tell function kinds apart: a comparison with a ``.kind``,
    a read of a spec's knot arrays (``_kx``, ``_ky``, ``_views``), or an
    import of a kind constant or a private name from ``function_model``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            if any(isinstance(side, ast.Attribute) and side.attr == "kind"
                   for side in (node.left, *node.comparators)):
                lines.add(node.lineno)
        elif isinstance(node, ast.Attribute):
            if node.attr in ("_kx", "_ky", "_views"):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "function_model":
                lines.update(alias.lineno for alias in node.names
                             if alias.name in KIND_CONSTANTS
                             or alias.name.startswith("_"))
    return sorted(lines)


@pytest.mark.parametrize(
    "path", [p for p in ALL_SOURCES if p.name != "function_model.py"],
    ids=lambda p: p.name)
def test_only_function_model_reads_the_kind(path):
    assert kind_reads(path.read_text()) == []


def test_scan_flags_a_kind_read():
    source = ("from .function_model import (\n"
              "    CANTOR_DEPTH,\n"
              "    SQRT,\n"
              "    _horner,\n"
              "    evaluate,\n"
              ")\n"
              "def g(f):\n"
              "    if f.kind in ('poly', 'pwl'):\n"
              "        return f._kx\n"
              "    raise ValueError(f'no {f.kind}')\n")
    assert kind_reads(source) == [3, 4, 8, 9]


REPORT_CLI = Path(__file__).parents[1] / "src" / "contana" / "report_cli.py"


def numeric_defaults(source: str, function: str) -> list:
    """Lines of ``function`` that pass a numeric literal as ``default=``."""
    def numeric(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return (isinstance(node, ast.Constant)
                and type(node.value) in (int, float, complex))
    body = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return sorted(keyword.value.lineno for node in ast.walk(body)
                  if isinstance(node, ast.Call) for keyword in node.keywords
                  if keyword.arg == "default" and numeric(keyword.value))


def test_cli_defaults_come_from_the_library():
    assert numeric_defaults(REPORT_CLI.read_text(), "build_parser") == []


def test_scan_flags_a_numeric_default():
    source = ("def build_parser():\n"
              "    p.add_argument('--grid', default=4001)\n"
              "    p.add_argument('--shift', default=-0.5)\n"
              "    p.add_argument('--epsilon', default=defaults.epsilon)\n"
              "    p.add_argument('--json', default=None)\n"
              "    p.add_argument('--quiet', default=False)\n")
    assert numeric_defaults(source, "build_parser") == [2, 3]
