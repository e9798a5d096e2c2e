"""Every import in the library is used: a stdlib stand-in for a linter's
unused-import rule, run over ``src/qeuler/*.py``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "qeuler").glob("*.py"))


def unused_imports(source):
    """Names a module imports but never reads, nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "euler_numbers.py", "zeta.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_rule_flags_an_unused_import():
    source = "import math\nimport cmath\nfrom fractions import Fraction as F\nx = cmath.pi\n"
    assert unused_imports(source) == [(1, "math"), (3, "F")]
    assert unused_imports("from os import sep\n__all__ = ['sep']\n") == []
