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


def tokenize(source: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("name", source[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token("symbol", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
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

    def at_keyword(self, kw) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == kw

    def expect_keyword(self, kw):
        if not self.at_keyword(kw):
            self.error(f"expected {kw!r}")
        return self.next()

    # -- declarations -----------------------------------------------------

    def model(self):
        decls = {"domains": [], "processes": [], "comms": [],
                 "conflicts": [], "sets": {}, "systems": {}, "checks": []}
        if self.peek().kind == "eof":
            self.error("expected top-level declaration")
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name":
                self.error("expected top-level declaration")
            if tok.text == "domain":
                self.domain_decl(decls)
            elif tok.text == "process":
                self.process_decl(decls)
            elif tok.text == "comm":
                self.comm_decl(decls)
            elif tok.text == "conflict":
                self.conflict_decl(decls)
            elif tok.text == "set":
                self.set_decl(decls)
            elif tok.text == "system":
                self.system_decl(decls)
            elif tok.text == "check":
                self.check_decl(decls)
            else:
                self.error("expected top-level declaration")
        return decls

    def name_list_in_braces(self):
        self.expect_symbol("{")
        names = [self.expect_name().text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect_name().text)
        self.expect_symbol("}")
        return names

    def domain_decl(self, decls):
        self.next()
        name = self.expect_name("domain name").text
        self.expect_symbol("=")
        values = self.name_list_in_braces()
        decls["domains"].append(DataDomain(name, tuple(values)))

    def process_decl(self, decls):
        self.next()
        name = self.expect_name("process name").text
        self.expect_symbol("{")
        equations = {}
        entry = None
        while not (self.peek().kind == "symbol" and self.peek().text == "}"):
            var_tok = self.expect_name("equation name")
            if var_tok.text in equations:
                raise ParseError(f"equation {var_tok.text} repeated",
                                 var_tok.line, var_tok.col)
            self.expect_symbol("=")
            equations[var_tok.text] = self.term()
            if entry is None:
                entry = var_tok.text
        self.expect_symbol("}")
        if entry is None:
            self.error(f"process {name} has no equations")
        decls["processes"].append(RecursiveSpec(name, equations, entry))

    def comm_decl(self, decls):
        self.next()
        a = self.expect_name("action name").text
        self.expect_symbol(",")
        b = self.expect_name("action name").text
        result = None
        if self.peek().text == "->":
            self.next()
            result = self.expect_name("result name").text
        decls["comms"].append(CommEntry(a, b, result))

    def conflict_decl(self, decls):
        self.next()
        a = self.expect_name("action name").text
        self.expect_symbol("#")
        b = self.expect_name("action name").text
        decls["conflicts"].append(frozenset((a, b)))

    def set_decl(self, decls):
        self.next()
        tok = self.expect_name("set name")
        if tok.text in decls["sets"]:
            raise ParseError(f"set {tok.text} declared twice",
                             tok.line, tok.col)
        self.expect_symbol("=")
        decls["sets"][tok.text] = frozenset(self.name_list_in_braces())

    def system_decl(self, decls):
        self.next()
        tok = self.expect_name("system name")
        if tok.text in decls["systems"]:
            raise ParseError(f"system {tok.text} declared twice",
                             tok.line, tok.col)
        self.expect_symbol("=")
        decls["systems"][tok.text] = self.term()

    def check_decl(self, decls):
        self.next()
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
               and self.pos + 1 < len(self.tokens)
               and self.tokens[self.pos + 1].text == "="):
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
        return self.alt_term()

    def alt_term(self):
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
        left = self.atom()
        if self.peek().text == ".":
            self.next()
            return Seq(left, self.seq_term())
        return left

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
            body = self.alt_term()
            return (Hide if tok.text == "hide" else Encaps)(names, body)
        if tok.text == "theta":
            self.next()
            return ConflictElim(self.atom())
        name = self.expect_name("action or process name").text
        args = ()
        if self.peek().text == "(":
            self.next()
            parts = [self.expect_name("data constant").text]
            while self.peek().text == ",":
                self.next()
                parts.append(self.expect_name("data constant").text)
            self.expect_symbol(")")
            args = tuple(parts)
        return _Name(name, args)

    def name_set_ref(self):
        if self.peek().text == "{":
            return frozenset(self.name_list_in_braces())
        tok = self.expect_name("set name")
        return _SetRef(tok.text, tok.line, tok.col)


@dataclass(frozen=True)
class _SetRef:
    name: str
    line: int
    col: int


# ---------------------------------------------------------------------------
# Resolution: _Name -> Var | Act, _SetRef -> frozenset


def _resolve_term(term, equation_names, system_names, sets):
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
    if isinstance(term, (Hide, Encaps)):
        names = term.names
        if isinstance(names, _SetRef):
            if names.name not in sets:
                raise ResolutionError(
                    f"unknown action set {names.name}", names.name)
            names = sets[names.name]
        term = type(term)(frozenset(names), term.body)
    return term.rebuild(tuple(
        _resolve_term(k, equation_names, system_names, sets)
        for k in term.children()))


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
    equation_names = set()
    for spec in decls["processes"]:
        equation_names.update(spec.equations)
    system_names = set(decls["systems"])
    clash = sorted(system_names & equation_names)
    if clash:
        raise ResolutionError(
            f"system {clash[0]} is named like an equation", clash[0])
    sets = decls["sets"]
    processes = []
    for spec in decls["processes"]:
        equations = {name: _resolve_term(rhs, equation_names, system_names,
                                         sets)
                     for name, rhs in spec.equations.items()}
        processes.append(RecursiveSpec(spec.name, equations, spec.entry))
    comms = CommTable(tuple(decls["comms"]))
    systems = {name: _resolve_term(t, equation_names, system_names, sets)
               for name, t in decls["systems"].items()}
    model = Model(
        domains=tuple(decls["domains"]),
        processes=tuple(processes),
        comms=comms,
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
    lines = []
    for d in model.domains:
        lines.append(f"domain {d.name} = {{ {', '.join(d.values)} }}")
    if model.domains:
        lines.append("")
    for spec in model.processes:
        lines.append(f"process {spec.name} {{")
        for name, rhs in spec.equations.items():
            lines.append(f"    {name} = {term_to_str(rhs)}")
        lines.append("}")
        lines.append("")
    for e in model.comms.entries:
        arrow = f" -> {e.result}" if e.result is not None else ""
        lines.append(f"comm {e.a}, {e.b}{arrow}")
    if model.comms.entries:
        lines.append("")
    for pair in sorted(model.conflicts.pairs, key=sorted):
        a, b = sorted(pair)
        lines.append(f"conflict {a} # {b}")
    if model.conflicts.pairs:
        lines.append("")
    for name, values in model.action_sets.items():
        lines.append(f"set {name} = {{ {', '.join(sorted(values))} }}")
    if model.action_sets:
        lines.append("")
    for name, term in model.systems.items():
        lines.append(f"system {name} = {term_to_str(term)}")
    if model.systems:
        lines.append("")
    for goal in model.checks:
        opts = "".join(f" {k}={v}" for k, v in goal.overrides.items())
        lines.append(f"check {goal.name}: {goal.left} "
                     f"{RELATIONS[goal.relation]} {goal.right}{opts}")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"
