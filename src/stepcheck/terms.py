"""Process terms, labels, and recursive specifications.

Ground terms are the currency of the whole toolkit: data sums are expanded
eagerly into finite alternatives, so every downstream pass works on finite,
sum-free terms.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError, MISSING, dataclass, fields, replace
from typing import Mapping, NamedTuple, Optional, Union

TAU_NAME = "tau"
DELTA_NAME = "delta"
RESERVED_NAMES = frozenset({TAU_NAME, DELTA_NAME})


class SpecError(Exception):
    """Raised for structurally unusable specifications."""


class UnknownDomainError(SpecError):
    pass


# ---------------------------------------------------------------------------
# Records


def record(cls=None, /, *, init=True, eq=True, frozen=False):
    """``dataclass`` with the options ``init``, ``eq`` and ``frozen``,
    whose methods are the ones of ``_Record``, written once, in place of
    code that ``dataclass`` generates and compiles for each class.

    ``dataclass(cls, init=False, repr=False, eq=False)`` registers the
    fields, which generates no code, so ``dataclasses.fields``,
    ``replace``, ``is_dataclass`` and ``__match_args__`` work as on any
    dataclass.  A method that the class defines itself is kept.  Every
    field is shown, compared and hashed; a field takes a default or a
    default factory and no other option.
    """
    def wrap(cls):
        if cls.__doc__ is None:
            # ``dataclass`` would ask ``inspect`` for a signature to show
            cls.__doc__ = f"{cls.__name__}({', '.join(cls.__annotations__)})"
        dataclass(cls, init=False, repr=False, eq=False)
        cls._record_defaults = {
            f.name: f.default_factory if f.default is MISSING
            else (lambda default=f.default: default)
            for f in fields(cls) if f.default is not MISSING
            or f.default_factory is not MISSING}
        methods = ["__repr__"]
        if init:
            methods.append("__init__")
        if eq:
            methods.append("__eq__")
            # a mutable record that compares by value is unhashable
            if "__hash__" not in vars(cls):
                cls.__hash__ = _Record.__hash__ if frozen else None
        if frozen:
            methods += ("__setattr__", "__delattr__")
        for name in methods:
            if name not in vars(cls):
                setattr(cls, name, vars(_Record)[name])
        return cls
    return wrap if cls is None else wrap(cls)


def _field_values(record) -> tuple:
    # a dataclass's __match_args__ names its fields in declaration order
    return tuple(getattr(record, f) for f in record.__match_args__)


def _bind(cls, args, kwargs) -> tuple:
    """The field values, in order, of the record ``cls(*args, **kwargs)``:
    the arguments by position, then by keyword, then the defaults."""
    names = cls.__match_args__
    if not kwargs and len(args) == len(names):
        return args
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} "
                        f"arguments but {len(args)} were given")
    values = list(args)
    defaults = cls._record_defaults
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name]())
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__qualname__}() got an unexpected or "
                        f"repeated argument {next(iter(kwargs))!r}")
    return tuple(values)


class _Record:
    """The methods that ``record`` gives its classes; never a base."""

    def __init__(self, *args, **kwargs):
        cls = type(self)
        vars(self).update(zip(cls.__match_args__, _bind(cls, args, kwargs)))
        post_init = getattr(cls, "__post_init__", None)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return type(self).__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__match_args__) + ")"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _field_values(self) == _field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_field_values(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@record(frozen=True)
class DataDomain:
    """A finite, ordered set of data constants."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"domain {self.name} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"domain {self.name} repeats a value")


# The labels are named tuples, so they hash and compare in C; each checks
# its fields in ``__new__``.


class _ActionLabelFields(NamedTuple):
    name: str
    args: tuple[str, ...] = ()


class ActionLabel(_ActionLabelFields):
    """An atomic action, optionally instantiated with data constants."""

    __slots__ = ()

    def __new__(cls, name: str, args: tuple = ()):
        if not name:
            raise ValueError("action name must be non-empty")
        if name in RESERVED_NAMES and args:
            raise ValueError(f"{name} carries no arguments")
        return super().__new__(cls, name, args)

    def pretty(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(self.args)})"


class _CommResultLabelFields(NamedTuple):
    participants: tuple[str, ...]
    name: Optional[str] = None


class CommResultLabel(_CommResultLabelFields):
    """The label of a synchronized (fused) occurrence of several actions."""

    __slots__ = ()

    def __new__(cls, participants: tuple, name: Optional[str] = None):
        if len(participants) < 2:
            raise ValueError("a communication needs at least two participants")
        if tuple(sorted(participants)) != tuple(participants):
            raise ValueError("participants must be sorted")
        return super().__new__(cls, participants, name)

    def pretty(self) -> str:
        if self.name is not None:
            return self.name
        return f"c({','.join(self.participants)})"


Label = Union[ActionLabel, CommResultLabel]


# ---------------------------------------------------------------------------
# Abstract syntax


# Every node is hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", 2006): constructing one returns the single instance with
# its class and field values, so structurally equal terms are the same
# object, and the node classes compare and hash by identity.  The table
# lives for the process and is never evicted.
_INTERNED: dict = {}


class _Interning(type):
    """Metaclass of the term nodes: binds the arguments to the fields and
    looks the node up, and constructs it only if it is new; a new node is
    interned once its ``__init__`` and ``__post_init__`` have accepted
    it."""

    def __call__(cls, *args, **kwargs):
        values = _bind(cls, args, kwargs)
        key = (cls, *values)
        term = _INTERNED.get(key)
        if term is None:
            term = _INTERNED[key] = super().__call__(*values)
        return term


class ProcessTerm(metaclass=_Interning):
    """Base class for all term nodes.  Instances are immutable and
    interned: ``==`` and ``hash`` are identity.

    ``children()`` gives the direct subterms, left to right, and
    ``rebuild(kids)`` the same node over new subterms; ``fold`` and
    ``_walk`` go through this pair.  A leaf has no children.
    """

    __slots__ = ()

    # copies and unpickled terms are rebuilt through the constructor, so
    # they come back as the interned instance
    def __reduce__(self):
        return type(self), _field_values(self)

    # a term is immutable, so a deep copy is the term itself, at any depth
    def __deepcopy__(self, memo):
        return self

    def children(self) -> tuple:
        return ()

    def rebuild(self, kids) -> "ProcessTerm":
        return self

    def fold(self, node, memo=None, children=None):
        """``node(t, kids)`` of this term, where ``kids`` lists the
        results for ``t.children()``, or for ``children(t)`` when
        ``children`` is given, computed the same way.

        Every distinct subterm that it enters is folded once, bottom-up
        and left to right in post-order, with an explicit stack, so a
        term's depth is no limit.  Results are kept in ``memo`` (a fresh
        dict unless one is given), and a subterm already in it is not
        entered.
        """
        if memo is None:
            memo = {}
        stack = [self]
        while stack:
            t = stack.pop()
            kids = t.children() if children is None else children(t)
            pending = [k for k in kids if k not in memo]
            if pending:
                stack += (t, *reversed(pending))
            elif t not in memo:
                memo[t] = node(t, [memo[k] for k in kids])
        return memo[self]


class _Binary(ProcessTerm):
    __slots__ = ()

    def children(self) -> tuple:
        return (self.left, self.right)

    def rebuild(self, kids) -> ProcessTerm:
        return type(self)(*kids)


class _Unary(ProcessTerm):
    __slots__ = ()

    def children(self) -> tuple:
        return (self.body,)

    def rebuild(self, kids) -> ProcessTerm:
        return replace(self, body=kids[0])


@record(frozen=True, eq=False)
class Deadlock(ProcessTerm):
    pass


@record(frozen=True, eq=False)
class Act(ProcessTerm):
    label: ActionLabel


@record(frozen=True, eq=False)
class Shadow(ProcessTerm):
    """Placeholder that only fires fused with a concurrent base action."""

    base: str


@record(frozen=True, eq=False)
class Var(ProcessTerm):
    name: str


@record(frozen=True, eq=False)
class Seq(_Binary):
    left: ProcessTerm
    right: ProcessTerm


@record(frozen=True, eq=False)
class Alt(ProcessTerm):
    branches: tuple[ProcessTerm, ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("alternative needs at least one branch")

    def children(self) -> tuple:
        return self.branches

    def rebuild(self, kids) -> ProcessTerm:
        return Alt(tuple(kids))


@record(frozen=True, eq=False)
class Par(_Binary):
    left: ProcessTerm
    right: ProcessTerm


@record(frozen=True, eq=False)
class WholePar(_Binary):
    """System-level parallel composition; semantically identical to Par."""

    left: ProcessTerm
    right: ProcessTerm


@record(frozen=True, eq=False)
class Sum(_Unary):
    binder: str
    domain: str
    body: ProcessTerm


@record(frozen=True, eq=False)
class Hide(_Unary):
    names: frozenset
    body: ProcessTerm


@record(frozen=True, eq=False)
class Encaps(_Unary):
    names: frozenset
    body: ProcessTerm


@record(frozen=True, eq=False)
class ConflictElim(_Unary):
    body: ProcessTerm


def _walk(term, equations=None):
    """Every subterm of `term`, itself first, in left-to-right preorder,
    each with the tuple of the sum binders in scope there.

    Given an equation map (name -> term), the walk also enters, right
    after each variable, the equation of that variable, once per name.
    """
    stack = [(term, ())]
    entered = set()
    while stack:
        t, binders = stack.pop()
        yield t, binders
        if isinstance(t, Sum):
            binders += (t.binder,)
        if (equations is not None and isinstance(t, Var)
                and t.name in equations and t.name not in entered):
            entered.add(t.name)
            stack.append((equations[t.name], ()))
        else:
            stack += [(k, binders) for k in reversed(t.children())]


@record
class RecursiveSpec:
    """A guarded equation system with a distinguished entry variable."""

    name: str
    equations: dict  # variable name -> ProcessTerm, insertion-ordered
    entry: str


@record(frozen=True)
class CommEntry:
    a: str
    b: str
    result: Optional[str] = None

    def pair(self) -> frozenset:
        return frozenset((self.a, self.b))


@record(frozen=True)
class CommTable:
    """The communication function: unordered action-name pairs -> result.
    Each pair relates two distinct actions and is declared once."""

    entries: tuple[CommEntry, ...] = ()

    def __post_init__(self):
        pairs = set()
        for e in self.entries:
            if e.a == e.b:
                raise ValueError(
                    f"comm {e.a}, {e.b} pairs an action with itself")
            if e.pair() in pairs:
                raise ValueError(f"comm {e.a}, {e.b} declared twice")
            pairs.add(e.pair())

    def mapping(self) -> dict:
        return {e.pair(): CommResultLabel(tuple(sorted((e.a, e.b))), e.result)
                for e in self.entries}

    def action_names(self) -> frozenset:
        names = set()
        for e in self.entries:
            names.add(e.a)
            names.add(e.b)
        return frozenset(names)


@record(frozen=True)
class ConflictRelation:
    pairs: frozenset = frozenset()  # of frozenset name pairs

    def __post_init__(self):
        for p in self.pairs:
            if len(p) != 2:
                raise ValueError("conflict pairs must relate two distinct actions")


# ---------------------------------------------------------------------------
# Pretty printing (also the DSL's term syntax)

_PREC_ALT = 0
_PREC_PAR = 1
_PREC_SEQ = 2
_PREC_ATOM = 3


# term -> (text, precedence); like the intern table, it lives for the
# process, so each interned term is rendered once
_RENDERED: dict = {}


def term_to_str(term: ProcessTerm, prec: int = _PREC_ALT) -> str:
    # ``_text`` written out: most calls find the text, and this keeps
    # their path to one lookup
    s, p = _RENDERED.get(term) or term.fold(_render, _RENDERED)
    return "(" + s + ")" if p < prec else s


def _text(rendered, prec) -> str:
    """A (text, precedence) pair as text in a context of precedence
    ``prec``, bracketed as ``term_to_str`` brackets it."""
    s, p = rendered
    return "(" + s + ")" if p < prec else s


def _render(term, kids):
    """The (text, precedence) of ``term``, given those of its children."""
    if isinstance(term, Deadlock):
        return "delta", _PREC_ATOM
    if isinstance(term, Act):
        return term.label.pretty(), _PREC_ATOM
    if isinstance(term, Shadow):
        return "@" + term.base, _PREC_ATOM
    if isinstance(term, Var):
        return term.name, _PREC_ATOM
    if isinstance(term, Seq):
        lhs = _text(kids[0], _PREC_ATOM)
        rhs = _text(kids[1], _PREC_SEQ)
        return lhs + " . " + rhs, _PREC_SEQ
    if isinstance(term, Alt):
        return " + ".join(_text(k, _PREC_PAR) for k in kids), _PREC_ALT
    if isinstance(term, (Par, WholePar)):
        op = " || " if isinstance(term, Par) else " <> "
        lhs = _text(kids[0], _PREC_SEQ)
        rhs = _text(kids[1], _PREC_SEQ)
        return lhs + op + rhs, _PREC_PAR
    if isinstance(term, Sum):
        return (f"sum {term.binder} in {term.domain} . "
                + _text(kids[0], _PREC_SEQ)), _PREC_ALT
    if isinstance(term, Hide):
        return ("hide " + _names_to_str(term.names) + " in "
                + _text(kids[0], _PREC_ALT)), _PREC_ALT
    if isinstance(term, Encaps):
        return ("block " + _names_to_str(term.names) + " in "
                + _text(kids[0], _PREC_ALT)), _PREC_ALT
    if isinstance(term, ConflictElim):
        return "theta " + _text(kids[0], _PREC_ATOM), _PREC_ALT
    raise TypeError(f"not a term: {term!r}")


def _names_to_str(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


# ---------------------------------------------------------------------------
# Sum elaboration


def substitute(term: ProcessTerm, binder: str, value: str) -> ProcessTerm:
    """Replace data-variable `binder` with constant `value` in action args."""
    def node(t, kids):
        if isinstance(t, Act) and binder in t.label.args:
            args = tuple(value if a == binder else a for a in t.label.args)
            return Act(ActionLabel(t.label.name, args))
        if isinstance(t, Sum) and t.binder == binder:
            return t
        return t.rebuild(kids)
    return term.fold(node)


def elaborate_sums(term: ProcessTerm, domains: Mapping[str, DataDomain]) -> ProcessTerm:
    """Expand every data sum into a finite alternative, in domain order."""
    def node(t, kids):
        if not isinstance(t, Sum):
            return t.rebuild(kids)
        if t.domain not in domains:
            raise UnknownDomainError(f"unknown domain {t.domain}")
        return Alt(tuple(substitute(kids[0], t.binder, v)
                         for v in domains[t.domain].values))
    return term.fold(node)


# ---------------------------------------------------------------------------
# Alphabet


@record(frozen=True)
class AlphabetInfo:
    actions: frozenset  # of ActionLabel, ground, without tau/delta
    shadow_bases: frozenset  # of base names


def alphabet(spec: RecursiveSpec, domains: Mapping[str, DataDomain]) -> AlphabetInfo:
    """All ground action labels of the elaborated equations, plus shadow bases."""
    subterms = [t for rhs in spec.equations.values()
                for t, _ in _walk(elaborate_sums(rhs, domains))]
    return AlphabetInfo(
        frozenset(t.label for t in subterms if isinstance(t, Act)
                  and t.label.name not in RESERVED_NAMES),
        frozenset(t.base for t in subterms if isinstance(t, Shadow)))


def names_written(term, equations=None) -> tuple:
    """The action names and the shadow bases written in ``term`` and,
    given an equation map, in the equations it reaches, as two
    frozensets; names under a nested wrapper are included."""
    subterms = [t for t, _ in _walk(term, equations)]
    return (frozenset(t.label.name for t in subterms if isinstance(t, Act)),
            frozenset(t.base for t in subterms if isinstance(t, Shadow)))


# ---------------------------------------------------------------------------
# Guardedness


def unguarded_vars(term) -> frozenset:
    """Variables reachable from the root without an intervening action prefix."""
    return term.fold(_guarding)[1]


def _guarding(term, kids) -> tuple:
    """Whether every run of ``term`` performs at least one action before
    it ends, and the variables reachable from its root without an
    intervening action prefix, given those of its children."""
    if isinstance(term, Var):
        return False, frozenset((term.name,))
    if isinstance(term, Seq) and kids[0][0]:
        return kids[0]
    guards = [g for g, _ in kids]
    # an action, shadow or deadlock guards; an alternative when every
    # branch does, and another composite when one part does
    guarded = all(guards) if isinstance(term, Alt) else not kids or any(guards)
    return guarded, frozenset().union(*(names for _, names in kids))


def guardedness_check(spec: RecursiveSpec) -> tuple[bool, tuple[str, ...]]:
    """Check that every variable occurrence is action-guarded.

    Returns (ok, offending equation names).
    """
    offenders = tuple(name for name, rhs in spec.equations.items()
                      if unguarded_vars(rhs))
    return (not offenders, offenders)


# ---------------------------------------------------------------------------
# Validation


@record(frozen=True)
class Violation:
    kind: str
    subject: str
    message: str

    def __str__(self):
        return f"{self.kind}({self.subject}): {self.message}"


def validate_terms(terms: dict, domains, known) -> list[Violation]:
    """Violations in named terms (equations or systems) over the domain
    sequence ``domains``, where ``known`` holds the process names."""
    domain_map = {d.name: d for d in domains}
    constants = {v for d in domain_map.values() for v in d.values}
    return [v for name, term in terms.items()
            for v in _validate_term(term, name, known, domain_map, constants)]


def _validate_term(rhs, eq_name, known, domain_map, constants):
    out = []
    for term, binders in _walk(rhs):
        if isinstance(term, Var):
            if term.name not in known:
                out.append(Violation("unbound-variable", term.name,
                                     f"{term.name} used in {eq_name} but never defined"))
        elif isinstance(term, Act):
            if term.label.name in RESERVED_NAMES:
                out.append(Violation("reserved-name", term.label.name,
                                     f"{term.label.name} may not be declared by the user"))
            for a in term.label.args:
                if a not in constants and a not in binders:
                    out.append(Violation(
                        "unknown-constant", a,
                        f"argument {a} of {term.label.pretty()} in {eq_name} "
                        "is neither a domain constant nor a bound sum variable"))
        elif isinstance(term, Shadow):
            if not term.base:
                out.append(Violation("bad-shadow", "@", "empty shadow base"))
        elif isinstance(term, Sum):
            if term.domain not in domain_map:
                out.append(Violation("unknown-domain", term.domain,
                                     f"sum in {eq_name} ranges over undeclared domain"))
            if term.binder in binders:
                out.append(Violation("rebinding", term.binder,
                                     f"sum binder {term.binder} shadows an enclosing binder"))
    return out
