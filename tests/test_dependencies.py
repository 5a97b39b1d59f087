"""Dependency rules, checked on the source text with ``ast``.

The package imports only the standard library, numpy, scipy and itself,
so installing numpy and scipy is enough to run it.  The tests never import
mpmath: high-precision reference values are baked into the test files as
decimal strings, so the suite does not depend on it either.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "riskrev"}


def _imported_roots(path: Path) -> set:
    """Top-level names of every absolute import in ``path``, including
    ``__import__("x")`` and ``importlib.import_module("x")`` with a literal name."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("__import__", "import_module") and isinstance(node.args[0].value, str):
                roots.add(node.args[0].value.split(".")[0])
    return roots


def test_package_imports_only_stdlib_numpy_scipy_and_itself():
    sources = sorted((ROOT / "src" / "riskrev").glob("*.py"))
    assert len(sources) >= 7
    found = {path.name: _imported_roots(path) - PACKAGE_ALLOWED for path in sources}
    assert {name: roots for name, roots in found.items() if roots} == {}


def test_tests_do_not_import_mpmath():
    sources = sorted((ROOT / "tests").rglob("*.py"))
    assert len(sources) >= 9
    assert [path.name for path in sources if "mpmath" in _imported_roots(path)] == []


def test_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os.path, mpmath as mp\n"
        "from sympy import Symbol\n"
        "from . import sibling\n"
        "import importlib\n"
        "importlib.import_module('pandas.core')\n"
        "__import__('torch')\n"
    )
    assert _imported_roots(probe) == {"os", "mpmath", "sympy", "importlib", "pandas", "torch"}
