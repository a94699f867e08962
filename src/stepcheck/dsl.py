"""Text frontend: a small declaration language for step-semantics models.

Declarations
------------
    domain D = { d1, d2 }
    process NAME { X = term  ... }
    comm A, B [-> result]
    conflict a # b
    set I = { a, b }
    system S = term
    check [name:] LEFT ~bb RIGHT [key=value ...]

Terms use `+` (alternative), `||` / `<>` (parallel), `.` (sequence, binds
tightest), `sum v in D . body`, `@Base` (shadow), `hide {..}|SET in body`,
`block {..}|SET in body`, `theta body`, `delta`, and `NAME(args)` actions.
Line comments start with `//`.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .model import CheckGoal, Model, RELATIONS
from .terms import (
    Act,
    ActionLabel,
    Alt,
    CommEntry,
    CommTable,
    ConflictElim,
    ConflictRelation,
    DataDomain,
    Deadlock,
    Encaps,
    Hide,
    Par,
    ProcessTerm,
    RecursiveSpec,
    Seq,
    Shadow,
    Sum,
    Var,
    WholePar,
    term_to_str,
)

KEYWORDS = frozenset({
    "domain", "process", "comm", "conflict", "set", "system", "check",
    "sum", "in", "hide", "block", "theta", "delta",
})

RELATION_SYMBOLS = {sym: name for name, sym in RELATIONS.items()}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ResolutionError(Exception):
    def __init__(self, message: str, identifier: str):
        super().__init__(message)
        self.identifier = identifier


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class Token:
    kind: str    # name | symbol | eof
    text: str
    line: int
    col: int


_SYMBOLS = (*RELATION_SYMBOLS, "->", "||", "<>",
            "{", "}", "(", ")", "=", ".", "+", ",", "#", "@", ":")


# Tried at each position in this order, so a name wins over a symbol and
# the symbols keep their order; a comment advances no column.
_TOKEN = re.compile("|".join((
    r"(?P<newline>\n)", r"(?P<blank>[ \t\r]+)", r"(?P<comment>//[^\n]*)",
    r"(?P<name>\w+)", f"(?P<symbol>{'|'.join(map(re.escape, _SYMBOLS))})")))


def tokenize(source: str):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind, text, pos = match.lastgroup, match.group(), match.end()
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind in ("name", "symbol"):
            tokens.append(Token(kind, text, line, col))
        if kind != "comment":
            col += len(text)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

# During parsing every plain identifier becomes a _Name; a resolution pass
# afterwards turns them into Var (equation names) or Act (everything else).


@dataclass(frozen=True, eq=False)
class _Name(ProcessTerm):
    name: str
    args: tuple = ()


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_symbol(self, sym) -> Token:
        tok = self.peek()
        if tok.kind != "symbol" or tok.text != sym:
            self.error(f"expected {sym!r}")
        return self.next()

    def expect_name(self, what="identifier") -> Token:
        tok = self.peek()
        if tok.kind != "name":
            self.error(f"expected {what}")
        if tok.text in KEYWORDS:
            article = "an" if what[0] in "aeiou" else "a"
            self.error(f"{tok.text!r} is a keyword, not {article} {what}")
        if tok.text[0].isdigit():
            self.error(f"{what} cannot start with a digit")
        return self.next()

    def expect_keyword(self, kw):
        if self.peek().kind != "name" or self.peek().text != kw:
            self.error(f"expected {kw!r}")
        return self.next()

    # -- declarations -----------------------------------------------------

    def model(self):
        """The declarations, each read past its keyword by the keyword's
        ``<keyword>_decl`` method."""
        decls = {"domains": {}, "processes": {}, "equations": set(),
                 "comms": {}, "conflicts": set(),
                 "sets": {}, "systems": {}, "checks": []}
        while True:
            tok = self.peek()
            read = (tok.kind == "name" and tok.text in KEYWORDS
                    and getattr(self, f"{tok.text}_decl", None))
            if not read:
                self.error("expected top-level declaration")
            self.next()
            read(decls)
            if self.peek().kind == "eof":
                return decls

    def name_list(self, close, what="identifier"):
        """The comma-separated ``what`` names after an opening bracket, up
        to the symbol ``close``, which is consumed."""
        names = [self.expect_name(what).text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect_name(what).text)
        self.expect_symbol(close)
        return names

    def declared_name(self, what, taken):
        """The name of a ``what`` declaration, rejected when ``taken``
        holds it already."""
        tok = self.expect_name(f"{what} name")
        if tok.text in taken:
            raise ParseError(f"{what} {tok.text} declared twice",
                             tok.line, tok.col)
        return tok.text

    def built(self, tok, make, *args):
        """``make(*args)``; a ``ValueError`` it raises is a parse error at
        ``tok``."""
        try:
            return make(*args)
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def domain_decl(self, decls):
        tok = self.peek()
        name = self.declared_name("domain", decls["domains"])
        self.expect_symbol("=")
        self.expect_symbol("{")
        decls["domains"][name] = self.built(
            tok, DataDomain, name, tuple(self.name_list("}")))

    def process_decl(self, decls):
        name = self.declared_name("process", decls["processes"])
        self.expect_symbol("{")
        equations = {}
        while not (self.peek().kind == "symbol" and self.peek().text == "}"):
            var = self.declared_name("equation", decls["equations"])
            decls["equations"].add(var)
            self.expect_symbol("=")
            equations[var] = self.term()
        self.expect_symbol("}")
        if not equations:
            self.error(f"process {name} has no equations")
        decls["processes"][name] = RecursiveSpec(name, equations,
                                                 next(iter(equations)))

    def comm_decl(self, decls):
        tok = self.expect_name("action name")
        self.expect_symbol(",")
        b = self.expect_name("action name").text
        result = None
        if self.peek().text == "->":
            self.next()
            result = self.expect_name("result name").text
        entry = CommEntry(tok.text, b, result)
        # the table's rule, checked against the one entry this one could
        # repeat, so that a model's comms are checked in linear time
        earlier = decls["comms"].get(entry.pair())
        self.built(tok, CommTable, (earlier, entry) if earlier else (entry,))
        decls["comms"][entry.pair()] = entry

    def conflict_decl(self, decls):
        tok = self.expect_name("action name")
        self.expect_symbol("#")
        other = self.expect_name("action name").text
        pair = frozenset((tok.text, other))
        if pair in decls["conflicts"]:
            raise ParseError(f"conflict {tok.text} # {other} declared twice",
                             tok.line, tok.col)
        # the relation's rule, checked on this pair alone, so that a
        # model's conflicts are checked in linear time
        self.built(tok, ConflictRelation, frozenset((pair,)))
        decls["conflicts"].add(pair)

    def set_decl(self, decls):
        name = self.declared_name("set", decls["sets"])
        self.expect_symbol("=")
        self.expect_symbol("{")
        decls["sets"][name] = frozenset(self.name_list("}"))

    def system_decl(self, decls):
        name = self.declared_name("system", decls["systems"])
        self.expect_symbol("=")
        decls["systems"][name] = self.term()

    def check_decl(self, decls):
        first = self.expect_name("process or system name")
        name = None   # named after parsing, once every explicit name is known
        if self.peek().text == ":":
            self.next()
            name = first.text
            if any(goal.name == name for goal in decls["checks"]):
                raise ParseError(f"check {name} declared twice",
                                 first.line, first.col)
            first = self.expect_name("process or system name")
        left = first.text
        tok = self.peek()
        if tok.kind != "symbol" or tok.text not in RELATION_SYMBOLS:
            *syms, last = RELATION_SYMBOLS
            self.error(f"expected a relation ({', '.join(syms)} or {last})")
        relation = RELATION_SYMBOLS[self.next().text]
        right = self.expect_name("process or system name").text
        overrides = {}
        # option keys may shadow keywords: `key =` never starts a declaration
        while (self.peek().kind == "name"
               and self.tokens[self.pos + 1].text == "="):
            if self.peek().text in overrides:
                self.error(f"option {self.peek().text} given twice")
            key = self.next().text
            self.next()  # '='
            if self.peek().kind == "name" and self.peek().text.isdigit():
                overrides[key] = self.next().text   # e.g. max_states=500
            else:
                overrides[key] = self.expect_name("option value").text
        decls["checks"].append(CheckGoal(name, left, right, relation, overrides))

    # -- terms ------------------------------------------------------------
    # alt > par > seq > atom (loosest to tightest)

    def term(self):
        branches = [self.par_term()]
        while self.peek().text == "+":
            self.next()
            branches.append(self.par_term())
        if len(branches) == 1:
            return branches[0]
        return Alt(tuple(branches))

    def par_term(self):
        left = self.seq_term()
        while self.peek().text in ("||", "<>"):
            op = self.next().text
            right = self.seq_term()
            left = Par(left, right) if op == "||" else WholePar(left, right)
        return left

    def seq_term(self):
        parts = [self.atom()]
        while self.peek().text == ".":
            self.next()
            parts.append(self.atom())
        return functools.reduce(lambda right, left: Seq(left, right),
                                reversed(parts))

    def atom(self):
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.term()
            self.expect_symbol(")")
            return inner
        if tok.text == "@":
            self.next()
            return Shadow(self.expect_name("shadow base").text)
        if tok.kind != "name":
            self.error("expected a term")
        if tok.text == "delta":
            self.next()
            return Deadlock()
        if tok.text == "sum":
            self.next()
            binder = self.expect_name("binder").text
            self.expect_keyword("in")
            domain = self.expect_name("domain name").text
            self.expect_symbol(".")
            return Sum(binder, domain, self.par_term())
        if tok.text in ("hide", "block"):
            self.next()
            names = self.name_set_ref()
            self.expect_keyword("in")
            body = self.term()
            return (Hide if tok.text == "hide" else Encaps)(names, body)
        if tok.text == "theta":
            self.next()
            return ConflictElim(self.atom())
        name = self.expect_name("action or process name").text
        args = ()
        if self.peek().text == "(":
            self.next()
            args = tuple(self.name_list(")", "data constant"))
        return _Name(name, args)

    def name_set_ref(self):
        if self.peek().text == "{":
            self.next()
            return frozenset(self.name_list("}"))
        # a set's name, a string until resolution makes it the set
        return self.expect_name("set name").text


# ---------------------------------------------------------------------------
# Resolution: _Name -> Var | Act, a set name -> its frozenset


def _resolve_term(equation_names, system_names, sets, term, kids):
    """``term`` over its resolved children ``kids``, with a name resolved
    to a process variable or an action and a set name to its set."""
    if isinstance(term, _Name):
        if term.name in system_names:
            raise ResolutionError(
                f"system {term.name} is named inside a term; a term may "
                f"name only processes and actions", term.name)
        if term.name in equation_names:
            if term.args:
                raise ResolutionError(
                    f"process {term.name} does not take data arguments",
                    term.name)
            return Var(term.name)
        return Act(ActionLabel(term.name, term.args))
    if isinstance(term, (Hide, Encaps)) and isinstance(term.names, str):
        if term.names not in sets:
            raise ResolutionError(
                f"unknown action set {term.names}", term.names)
        return type(term)(sets[term.names], kids[0])
    return term.rebuild(kids)


def _name_checks(goals) -> tuple:
    """Name the i-th check, if unnamed, by the first free ``check<n>``
    with n >= i, so an auto name never collides with an explicit one."""
    taken = {goal.name for goal in goals}
    for n, goal in enumerate(goals, start=1):
        if goal.name is None:
            while f"check{n}" in taken:
                n += 1
            goal.name = f"check{n}"
            taken.add(goal.name)
    return tuple(goals)


def parse_model(source: str) -> Model:
    decls = _Parser(tokenize(source)).model()
    equation_names = decls["equations"]
    system_names = set(decls["systems"])
    clash = sorted(system_names & equation_names)
    if clash:
        raise ResolutionError(
            f"system {clash[0]} is named like an equation", clash[0])
    sets = decls["sets"]
    resolve = functools.partial(_resolve_term, equation_names, system_names, sets)
    processes = []
    for spec in decls["processes"].values():
        equations = {name: rhs.fold(resolve)
                     for name, rhs in spec.equations.items()}
        processes.append(RecursiveSpec(spec.name, equations, spec.entry))
    systems = {name: t.fold(resolve) for name, t in decls["systems"].items()}
    model = Model(
        domains=tuple(decls["domains"].values()),
        processes=tuple(processes),
        comms=CommTable(tuple(decls["comms"].values())),
        conflicts=ConflictRelation(frozenset(decls["conflicts"])),
        action_sets=dict(sets),
        systems=systems,
        checks=_name_checks(decls["checks"]),
    )
    known = equation_names | system_names
    for goal in model.checks:
        for side in (goal.left, goal.right):
            if side not in known:
                raise ResolutionError(
                    f"check {goal.name} refers to unknown process or "
                    f"system {side}", side)
    return model


# ---------------------------------------------------------------------------
# Rendering (round-trips through parse_model)


def render_model(model: Model) -> str:
    """One block of lines per declaration kind, and one per process, in
    declaration order; the nonempty blocks are separated by a blank line."""
    blocks = [
        [f"domain {d.name} = {{ {', '.join(d.values)} }}"
         for d in model.domains],
        *([f"process {spec.name} {{",
           *(f"    {name} = {term_to_str(rhs)}"
             for name, rhs in spec.equations.items()),
           "}"] for spec in model.processes),
        [f"comm {e.a}, {e.b}" + (f" -> {e.result}" if e.result is not None
                                 else "") for e in model.comms.entries],
        [f"conflict {a} # {b}"
         for a, b in sorted(map(sorted, model.conflicts.pairs))],
        [f"set {name} = {{ {', '.join(sorted(values))} }}"
         for name, values in model.action_sets.items()],
        [f"system {name} = {term_to_str(term)}"
         for name, term in model.systems.items()],
        [f"check {goal.name}: {goal.left} {RELATIONS[goal.relation]} "
         f"{goal.right}" + "".join(f" {k}={v}" for k, v in goal.overrides.items())
         for goal in model.checks],
    ]
    return "\n\n".join("\n".join(block) for block in blocks if block) + "\n"
