"""Stdlib stand-ins for two linter rules, run over ``src/qeuler/*.py``:
every import in the library is used, and every module-level private
name is read by some module of the library.  Also the rule of
``code_tokens.py``, which counts the library's code tokens."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from code_tokens import code_tokens

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
            used.update(all_names(tree, node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def all_names(tree, value):
    """The names of the ``__all__`` expression ``value``: a literal list, or
    an expression over the module-level literals of ``tree``, such as a
    list comprehension over a table of exports."""
    literals = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                literals[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:  # not a literal
                pass
    return eval(compile(ast.Expression(value), "<__all__>", "eval"),  # noqa: S307
                {"__builtins__": {}, **literals})


def _top_level(body):
    """The module-level statements of ``body``, those under an ``if`` or
    ``try`` included."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            yield from _top_level(node.body + node.orelse + getattr(node, "finalbody", []))
        else:
            yield node


def unread_private_names(sources):
    """(module, line, name) of the module-level private defs, classes and
    assignments of ``sources`` (module -> source text) that no module of
    ``sources`` reads, by an ast ``Name`` or ``Attribute`` or as an import
    alias; a name in a docstring or a comment is not a read."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in _top_level(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = node.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted((module, line, name) for (module, name), line in defined.items()
                  if name not in read)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "euler_numbers.py", "zeta.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_rule_flags_an_unused_import():
    source = "import math\nimport cmath\nfrom fractions import Fraction as F\nx = cmath.pi\n"
    assert unused_imports(source) == [(1, "math"), (3, "F")]
    assert unused_imports("from os import sep\n__all__ = ['sep']\n") == []
    table = "_T = {'os': ('sep',)}\n__all__ = [n for ns in _T.values() for n in ns] + ['v']\n"
    assert unused_imports("from os import sep\n" + table) == []
    assert unused_imports("from os import sep, getcwd\n" + table) == [(1, "getcwd")]


def test_no_unread_private_name():
    assert unread_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_rule_flags_an_unread_private_name():
    sources = {
        "a.py": ("def _dead():\n    return 1\n\n\ndef _used():\n    return 2\n\n\n"
                 "_LIMIT = 3\n_seen = []\nif True:\n    _gated = 4\n"),
        "b.py": ('"""_LIMIT and _dead named in a docstring."""\n'
                 "from a import _used\nimport a\n\nx = a._seen  # _gated\n"),
    }
    assert unread_private_names(sources) == [("a.py", 1, "_dead"), ("a.py", 9, "_LIMIT"),
                                             ("a.py", 12, "_gated")]
    assert unread_private_names({"c.py": "_x = 1\nprint(_x)\n__all__ = []\n"}) == []


def test_code_tokens_skip_layout_comments_and_docstrings():
    source = ('def f(x):\n    """Doc."""\n    # note\n    return x + 1  # why\n\n\n'
              '"""A bare string statement."""\ny = "s" "t"\n')
    # def f ( x ) : return x + 1, then y = "s" "t"
    assert code_tokens(source) == 14
