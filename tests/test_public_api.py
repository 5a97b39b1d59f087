"""The public API: ``from riskrev import *`` binds every exported name, and
``__all__`` lists each name that ``riskrev/__init__.py`` imports exactly once.

Both lists in ``__init__`` are kept by hand, so a name removed from one and
not the other, or listed twice, fails here rather than at a user's import.
"""

import ast
from pathlib import Path

import riskrev


def _imported_names() -> list:
    """Names bound by the ``from ... import`` statements of ``riskrev/__init__.py``, in order."""
    tree = ast.parse(Path(riskrev.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from riskrev import *", namespace)
    assert [name for name in riskrev.__all__ if name not in namespace] == []


def test_all_names_each_import_exactly_once():
    imported = _imported_names()
    assert len(imported) == len(set(imported))
    assert len(riskrev.__all__) == len(set(riskrev.__all__))
    assert sorted(riskrev.__all__) == sorted(imported)
