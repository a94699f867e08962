"""Every name a stepcheck module imports is used in that module, every
private module-level name is read by some stepcheck module, and every
parameter of a private function or method is read in its body.  No
function recurses over a term: those that refer to their own names are
listed.  No module outside ``StepLTS`` builds transition triples, and
none but ``cli.py`` imports ``gc``.  Every private name and every
stepcheck class member that README.md names in backticks is defined,
and the README's model and library examples run.

``__init__.py`` is left out of the first check: its imports are the
package's public API.
"""
import ast
import contextlib
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import stepcheck
from stepcheck import cli
from stepcheck.dsl import parse_model

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


def unread_parameters(source: str) -> list:
    """The parameters that the private functions and methods of
    ``source`` (names starting with ``_``, dunders aside) never read in
    their bodies, nested functions included."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not node.name.endswith("__")):
            continue
        args = node.args
        params = [a for a in (*args.posonlyargs, *args.args, args.vararg,
                              *args.kwonlyargs, args.kwarg) if a is not None]
        read = {_read(n) for statement in node.body
                for n in ast.walk(statement)}
        unread += [f"{node.name}({a.arg}) (line {node.lineno})"
                   for a in params if a.arg not in read]
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_an_unread_parameter_is_reported():
    source = ("def _walk(term, prepared, *blocked, depth=0):\n"
              "    def visit(t):\n"
              "        return t, prepared\n"
              "    return visit(term)\n"
              "class _Box:\n"
              "    def _get(self, key):\n"
              "        return 1\n"
              "    def __repr__(self):\n"
              "        return 'box'\n"
              "def walk(term):\n"
              "    return 1\n")
    assert unread_parameters(source) == [
        "_walk(blocked) (line 1)", "_walk(depth) (line 1)",
        "_get(self) (line 6)", "_get(key) (line 6)"]


def self_referring_functions(source: str) -> list:
    """The functions and methods of ``source`` whose bodies refer to their
    own names: as a bare name, called or passed on as in ``map(f, …)``,
    or as ``self.<name>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(isinstance(n, ast.Name) and n.id == node.name
               or (isinstance(n, ast.Attribute) and n.attr == node.name
                   and isinstance(n.value, ast.Name) and n.value.id == "self")
               for statement in node.body for n in ast.walk(statement)):
            found.append(node.name)
    return found


# The recursions whose depth is not a whole term's depth.  ``_raw``
# enters a sequence only on its left, so a sequence's length is no limit
# to it, but it enters both sides of a ``||``, so a chain of about 500
# parallel operands is; the parser's ``atom`` enters the brackets and
# prefixes of the source.  ``cli.main`` reports either depth as an
# error.  Every pass over a whole term folds it with ``ProcessTerm.fold``
# or walks it with ``terms._walk``.
RECURSIVE = ["dsl.py:atom", "semantics.py:_raw"]


def test_only_listed_functions_recurse():
    assert sorted(f"{p.name}:{name}" for p in SOURCES for name in
                  self_referring_functions(p.read_text(encoding="utf-8"))
                  ) == RECURSIVE


def test_a_self_referring_function_is_reported():
    source = ("def canon(term):\n"
              "    return tuple(map(canon, term.children()))\n"
              "def _seq(left, right):\n"
              "    return _seq(right, left) if left else right\n"
              "class Parser:\n"
              "    def atom(self):\n"
              "        return self.atom()\n"
              "    def term(self, other):\n"
              "        return other.term\n"
              "def walk(term):\n"
              "    return term\n")
    assert sorted(self_referring_functions(source)) == [
        "_seq", "atom", "canon"]


def triple_uses(source: str) -> list:
    """The places in ``source``, outside the ``StepLTS`` class, that read
    ``.transitions`` or call ``StepLTS(``: both build (source, label,
    target) triples, which an LTS holds only as its integer columns."""
    found = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == "StepLTS":
            continue
        if isinstance(node, ast.Attribute) and node.attr == "transitions":
            found.append(f".transitions (line {node.lineno})")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "StepLTS"):
            found.append(f"StepLTS( (line {node.lineno})")
        stack += ast.iter_child_nodes(node)
    return found


def test_no_module_builds_transition_triples():
    assert [f"{p.name}: {use}" for p in SOURCES
            for use in triple_uses(p.read_text(encoding="utf-8"))] == []


def test_a_transition_triple_use_is_reported():
    source = ("class StepLTS:\n"
              "    def copy(self):\n"
              "        return StepLTS(self.transitions)\n"
              "def edges(lts):\n"
              "    return list(lts.transitions)\n"
              "def build(triples):\n"
              "    return StepLTS(0, 1, triples, ('s',))\n")
    assert sorted(triple_uses(source)) == [
        ".transitions (line 5)", "StepLTS( (line 7)"]


def imports_gc(source: str) -> bool:
    """Whether ``source`` imports the ``gc`` module, or a name from it."""
    return any(
        isinstance(node, ast.Import) and any(
            alias.name == "gc" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "gc"
        for node in ast.walk(ast.parse(source)))


def test_only_the_cli_touches_the_collector():
    # the library never changes its caller's garbage collector; only
    # ``cli.main`` sets a threshold for the run of one command
    assert [p.name for p in SOURCES
            if imports_gc(p.read_text(encoding="utf-8"))] == ["cli.py"]


def test_a_gc_import_is_reported():
    assert imports_gc("def f():\n    import os, gc\n")
    assert imports_gc("from gc import collect\n")
    assert not imports_gc("import gcd\nfrom os import gc\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def _defined(sources: dict) -> tuple:
    """The names that ``sources`` (file name -> source) define at module
    level or in a class body, and each class's members by class name, a
    class's bases within ``sources`` included."""
    names, members, bases = set(), {}, {}
    for source in sources.values():
        for statement in ast.parse(source).body:
            names.update(_bound(statement))
            if isinstance(statement, ast.ClassDef):
                members[statement.name] = {
                    name for node in statement.body for name in _bound(node)}
                names |= members[statement.name]
                bases[statement.name] = [
                    b.id for b in statement.bases if isinstance(b, ast.Name)]
    for cls in members:
        stack = list(bases[cls])
        while stack:
            base = stack.pop()
            if base in members:
                members[cls] |= members[base]
                stack += bases[base]
    return names, members


def undefined_readme_names(readme: str, sources: dict) -> list:
    """The backticked names in ``readme`` that ``sources`` do not define:
    each ``_private`` name, called or not, and each ``Class.member`` whose
    class ``sources`` define.  File names, test paths and other modules'
    names are no such names."""
    names, members = _defined(sources)
    missing = []
    for span in re.findall(r"`([^`\n]+)`", readme):
        private = re.fullmatch(r"(_\w+)(\(.*\))?", span)
        if private and private[1] not in names:
            missing.append(span)
        qualified = re.fullmatch(r"([A-Za-z]\w*)\.(\w+)(\(.*\))?", span)
        if (qualified and qualified[1] in members
                and qualified[2] not in members[qualified[1]]):
            missing.append(span)
    return sorted(set(missing))


def test_readme_names_only_defined_code():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert undefined_readme_names(
        README.read_text(encoding="utf-8"), sources) == []


def test_an_undefined_readme_name_is_reported():
    sources = {"a.py": ("class Box:\n"
                        "    size: int\n"
                        "    _lid: int\n"
                        "    def get(self):\n"
                        "        return 1\n"
                        "class Crate(Box):\n"
                        "    pass\n"
                        "def _walk(n):\n"
                        "    return n\n")}
    readme = ("`_walk`, `_walk(term)` and `_lid` exist, `_gone` and "
              "`_gone(t)` do "
              "not; `Box.size`, `Box.get()` and `Crate.get` exist, "
              "`Box.put` and `Crate.lid` do not.  `semantics.py`, "
              "`tests/test_a.py::TestX`, `dataclasses.replace` and "
              "`Other.thing` are skipped.")
    assert undefined_readme_names(readme, sources) == [
        "Box.put", "Crate.lid", "_gone", "_gone(t)"]


def readme_block(section: str, language: str) -> str:
    """The first ``language`` code block under the README heading
    ``## section``."""
    text = README.read_text(encoding="utf-8")
    rest = text[text.index(f"\n## {section}\n"):]
    return re.search(rf"```{language}\n(.*?)```", rest, re.S)[1]


def test_readme_model_is_whole(tmp_path):
    source = readme_block("The model language", "text")
    assert parse_model(source).validate() == []
    path = tmp_path / "readme.aptc"
    path.write_text(source)
    for flags, code in (([], 0), (["--round-mode", "overlap"], 1)):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", str(path), *flags]) == code


def test_readme_library_example_runs():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(readme_block("Library API", "python"), {})
    assert "ABA = A2 . ABA1" in out.getvalue()


def test_readme_quick_start_runs_from_a_checkout():
    # each command of the block in sh, after the line that sets MODEL, with
    # ``stepcheck`` and ``python3`` run as ``python -m stepcheck`` and this
    # interpreter, from the repository root with PYTHONPATH=src
    setup, *commands = [line for line in readme_block(
        "Quick start", "sh").replace("\\\n", "").splitlines() if line]
    prelude = ('stepcheck() { "$PYTHON" -m stepcheck "$@"; }\n'
               'python3() { "$PYTHON" "$@"; }\n')
    env = dict(os.environ, PYTHONPATH="src", PYTHON=sys.executable)
    runs = [subprocess.run(["sh", "-c", f"{prelude}{setup}\n{command}\n"],
                           cwd=README.parent, env=env, capture_output=True,
                           text=True, timeout=120)
            for command in commands]
    assert [r.returncode for r in runs] == [0, 1, 0, 0]
    assert all(r.stdout and not r.stderr for r in runs)


# tokens that hold no code of their own
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def lines_of_code(path) -> int:
    r"""The lines of a Python file, or of every ``*.py`` file directly in a
    directory, that hold code: docstrings, comments and blank lines are
    left out, and a string over several lines counts each of them.  From
    the repository root::

        PYTHONPATH=src:tests python -c \
            "import test_imports as t; print(t.lines_of_code('src/stepcheck'))"
    """
    path = Path(path)
    total = 0
    for file in sorted(path.glob("*.py")) if path.is_dir() else [path]:
        source = file.read_text(encoding="utf-8")
        # each docstring's start -> its end
        docstrings = {
            (doc.lineno, doc.col_offset): (doc.end_lineno, doc.end_col_offset)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
            for doc in node.body[:1]}
        lines, skip_to = set(), (0, 0)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            skip_to = docstrings.get(tok.start, skip_to)
            if tok.type not in _NOT_CODE and tok.start >= skip_to:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        total += len(lines)
    return total


def test_lines_of_code_leave_out_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""A module\n'
        'docstring."""\n'
        "import os  # a comment\n"
        "\n"
        "# a comment line\n"
        "def f(x):\n"
        '    """A docstring."""\n'
        '    s = """a string\n'
        '    over two lines"""\n'
        "    return s\n"
        "\n"
        'class C: "its docstring"; y = 1\n')
    (tmp_path / "b.py").write_text("x = (1,\n     2)\n")
    (tmp_path / "c.txt").write_text("x = 1\n")
    assert lines_of_code(tmp_path / "a.py") == 6
    assert lines_of_code(tmp_path) == 8
