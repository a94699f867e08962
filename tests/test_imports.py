"""Every name a stepcheck module imports is used in that module, and
every private module-level name is read by some stepcheck module.

``__init__.py`` is left out of the first check: its imports are the
package's public API.
"""
import ast
from pathlib import Path

import pytest

import stepcheck

SOURCES = sorted(Path(stepcheck.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "import os\nfrom sys import argv, path as p\nprint(argv)\n"
    assert unused_imports(source) == ["os (line 1)", "p (line 2)"]


def _bound(statement) -> list:
    """The names a module-level statement defines or assigns."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _read(node):
    """The name ``node`` reads, or None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def unread_private_names(sources: dict) -> list:
    """The private module-level names in ``sources`` (file name ->
    source) that no source reads: functions, classes and assignments
    whose names start with ``_``, dunders aside.  A read from within the
    statement that defines the name, such as a recursive call, does not
    count."""
    defined = []
    read = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            own = _bound(statement)
            defined += [(module, statement.lineno, name) for name in own
                        if name.startswith("_") and not name.endswith("__")]
            read |= {_read(node) for node in ast.walk(statement)} - set(own)
    return [f"{module}:{line} {name}" for module, line, name in sorted(defined)
            if name not in read]


def test_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_reported():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "def _walk(n):\n"
                 "    return _walk(n + 1) if n < _LIMIT else n\n"
                 "class _Unused:\n"
                 "    pass\n"
                 "def _helper():\n"
                 "    return 1\n"),
        "b.py": "from .a import _helper\nprint(_helper())\n",
    }
    assert unread_private_names(sources) == ["a.py:2 _walk", "a.py:4 _Unused"]
