"""Operational step semantics: from system expressions to finite step LTSs.

Transition labels are multisets of labels executed simultaneously; the
empty multiset (all contributions hidden) is the silent step tau.
"""
from __future__ import annotations

import functools
import itertools
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import field
from operator import eq, itemgetter, sub
from typing import NamedTuple, Optional

from .model import Model
from .terms import (
    Act,
    ActionLabel,
    Alt,
    CommResultLabel,
    ConflictElim,
    Deadlock,
    Encaps,
    Hide,
    Label,
    Par,
    ProcessTerm,
    Seq,
    Shadow,
    Sum,
    Var,
    WholePar,
    elaborate_sums,
    names_written,
    record,
    term_to_str,
)


class SemanticsError(Exception):
    pass


class StateBudgetExceeded(SemanticsError):
    def __init__(self, max_states, frontier, depth):
        super().__init__(
            f"state budget of {max_states} states exceeded at BFS depth "
            f"{depth} ({frontier} states still on the frontier)")
        self.max_states = max_states
        self.frontier = frontier
        self.depth = depth


class UnguardedRecursion(SemanticsError):
    def __init__(self, name):
        super().__init__(f"unguarded recursion through {name} during unfolding")
        self.name = name


# each policy field of Config -> (its check option key, its allowed values)
POLICIES = {
    "comm_policy": ("comm", ("binary", "chained")),
    "step_mode": ("step", ("interleave", "step")),
    "round_mode": ("round", ("overlap", "barrier")),
    "shadow_policy": ("shadow", ("strict", "loose")),
}


@record(frozen=True)
class Config:
    comm_policy: str = "chained"
    step_mode: str = "step"
    round_mode: str = "overlap"
    shadow_policy: str = "strict"
    max_states: int = 100000

    def __post_init__(self):
        for name, (_, allowed) in POLICIES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"bad {name} {getattr(self, name)}")
        if self.max_states < 1:
            raise ValueError("max_states must be positive")


# ---------------------------------------------------------------------------
# Canonical terms and states


@record(frozen=True, eq=False)
class _Terminated(ProcessTerm):
    def __repr__(self):
        return "TERM"


TERM = _Terminated()


# term -> its canonical form; like the intern table, it lives for the
# process, so the equations that every prepared system canonicalizes
# again are folded once
_CANONICAL: dict = {}


def canon(term: ProcessTerm) -> ProcessTerm:
    """Behavioral canonical form used for state memoization: the children
    made canonical, then the node rebuilt through the constructors below.
    A sequence's children are the leaves of its tree of sequences, so a
    chain nested either way is right-associated in one pass."""
    return term.fold(_canon, _CANONICAL, _seq_leaves)


def _leaves(term, kind) -> list:
    """The terms that the largest tree of ``kind`` nodes at ``term`` joins,
    left to right: a sequence's parts, or a parallel composition's
    components."""
    leaves, stack = [], [term]
    while stack:
        t = stack.pop()
        if isinstance(t, kind):
            stack += (t.right, t.left)
        else:
            leaves.append(t)
    return leaves


def _seq_leaves(term):
    """The leaves of the tree of sequences at ``term``; the children of a
    term that is no sequence."""
    return _leaves(term, Seq) if isinstance(term, Seq) else term.children()


def _canon(term, kids):
    if isinstance(term, Seq):
        return functools.reduce(lambda rest, part: _seq(part, rest),
                                reversed(kids[:-1]), kids[-1])
    if isinstance(term, Alt):
        return _alt(kids)
    if isinstance(term, (Par, WholePar)):
        return _par(*kids)
    if isinstance(term, (Hide, Encaps, ConflictElim)):
        return _wrap(term, *kids)
    return term.rebuild(kids)


# The four constructors of canonical terms take canonical parts.  Generation
# builds every successor through them, so no term is made canonical twice.


def _seq(left, right):
    """A terminated left operand drops; a sequence on the left
    right-associates along its spine."""
    if left is TERM:
        return right
    parts = [left]
    while isinstance(parts[-1], Seq):
        parts[-1:] = parts[-1].children()
    return functools.reduce(lambda rest, part: Seq(part, rest),
                            reversed(parts), right)


def _alt(branches):
    """Nested alternatives flatten; the branches are de-duplicated and
    sorted by their text, and a single branch stands alone."""
    flat = []
    for b in branches:
        flat.extend(b.branches if isinstance(b, Alt) else (b,))
    uniq = sorted(dict.fromkeys(flat), key=term_to_str)
    return uniq[0] if len(uniq) == 1 else Alt(tuple(uniq))


def _par(left, right):
    """A terminated side drops."""
    if left is TERM:
        return right
    if right is TERM:
        return left
    return Par(left, right)


def _wrap(wrapper, body):
    """``wrapper``'s hide, block or theta over ``body``: it vanishes over a
    terminated body or with no names, merges with a wrapper of its kind
    directly below, and theta over theta is one theta."""
    if body is TERM:
        return body
    if isinstance(wrapper, ConflictElim):
        return body if isinstance(body, ConflictElim) else ConflictElim(body)
    names = frozenset(wrapper.names)
    if type(body) is type(wrapper):
        names |= body.names
        body = body.body
    return type(wrapper)(names, body) if names else body


class SystemState(NamedTuple):
    """A named tuple, so states hash and compare in C."""

    components: tuple  # of canonical ProcessTerm
    rounds: Optional[tuple] = None  # per-component, barrier mode only

    def pretty(self) -> str:
        parts = " <> ".join(
            "TERM" if c is TERM else term_to_str(c) for c in self.components)
        if self.rounds is not None:
            parts += " @" + ",".join(str(r) for r in self.rounds)
        return parts


# ``SystemState(components, rounds)`` without the named tuple's
# Python-level ``__new__``: ``_new_tuple(SystemState, (components, rounds))``
_new_tuple = tuple.__new__


# ---------------------------------------------------------------------------
# Events


class Event(NamedTuple):
    label: Optional[Label]  # None = silent contribution
    fused: bool


def _event_key(e: Event):
    return (e.label is not None, e.label.pretty() if e.label else "", e.fused)


def step_label(events) -> tuple:
    """Final LTS label: the sorted multiset of visible labels (empty = tau)."""
    return sorted_label(e.label for e in events if e.label is not None)


def sorted_label(labels) -> tuple:
    """``labels`` as a step label: sorted by their text."""
    return tuple(sorted(labels, key=lambda l: l.pretty()))


def label_key(label: tuple) -> tuple:
    """The sort key of a step label: its labels' texts."""
    return tuple(l.pretty() for l in label)


def label_str(label: tuple) -> str:
    if not label:
        return "tau"
    return "{" + ",".join(l.pretty() for l in label) + "}"


# ---------------------------------------------------------------------------
# System preparation


@record(frozen=True)
class PreparedSystem:
    """Everything step generation reads about one system, built once."""

    components: tuple         # initial component terms, canonical
    entries: tuple            # per-component entry variable name or None
    wrappers: tuple           # top-level hide/block/theta nodes, outermost first
    split: tuple              # the wrappers as (per step, per state)
    equations: dict           # name -> canonical, ground ProcessTerm
    comm: dict                # frozenset pair -> CommResultLabel
    gamma_components: dict    # action name -> frozenset of its component
    conflicts: frozenset      # of frozenset pairs
    shadow_bases: frozenset   # in the components and the equations they reach
    groups: tuple             # of component positions (_fusion_groups)
    config: Config
    _moves_cache: dict = field(default_factory=dict)
    _step_cache: dict = field(default_factory=dict)
    _group_cache: dict = field(default_factory=dict)
    # barrier: (rounds, terminated positions) -> round-ending picks -> the
    # rounds after them (``_successors``)
    _rounds_cache: dict = field(default_factory=lambda: defaultdict(dict))

    def initial_state(self) -> SystemState:
        rounds = None
        if self.config.round_mode == "barrier":
            rounds = (0,) * len(self.components)
        return SystemState(self.components, rounds)


def prepare_system(system: ProcessTerm, model: Model, config: Config) -> PreparedSystem:
    domains = model.domain_map()
    equations = {name: canon(elaborate_sums(rhs, domains))
                 for name, rhs in model.equations().items()}
    comm = model.comms.mapping()
    conflicts = model.conflicts.pairs
    term = canon(elaborate_sums(system, domains))
    wrappers = []
    while isinstance(term, (Hide, Encaps, ConflictElim)):
        wrappers.append(term)
        term = term.body
    components = tuple(_leaves(term, Par))
    gamma_components = _gamma_components(comm)
    alphabets = [names_written(c, equations) for c in components]
    groups = _fusion_groups([names | bases for names, bases in alphabets],
                            gamma_components)
    return PreparedSystem(
        components=components,
        entries=tuple(c.name if isinstance(c, Var) else None
                      for c in components),
        wrappers=tuple(wrappers),
        split=_split_wrappers(wrappers, conflicts),
        equations=equations,
        comm=comm,
        gamma_components=gamma_components,
        conflicts=conflicts,
        shadow_bases=frozenset().union(*(bases for _, bases in alphabets)),
        groups=groups,
        config=config,
    )


def _split_wrappers(wrappers, conflicts) -> tuple:
    """``wrappers`` (outermost first) as (per step, per state).

    A theta over declared conflicts compares the steps a state has, so
    when one is present every wrapper is applied per state.  Otherwise
    each hide and block changes or drops a step on its own and is applied
    per step, and a theta, with no conflicts the identity, is left out.
    Hide and block act on each event alone, so applying them per state
    instead gives the same steps.
    """
    if conflicts and any(isinstance(w, ConflictElim) for w in wrappers):
        return (), tuple(wrappers)
    return tuple(w for w in wrappers if not isinstance(w, ConflictElim)), ()


def _connected(keyed, items=None) -> tuple:
    """The indices of ``keyed``, a sequence of key sets, partitioned so
    that two indices share a part when their key sets meet, directly or
    through other indices; given ``items``, each index is replaced by its
    item.  The parts come ordered by their first index, each with its
    indices in order.

    One union-find pass: each key remembers the first index that holds
    it, and a later index that holds it joins that index's part.
    """
    parent = list(range(len(keyed)))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    first = {}   # key -> the first index that holds it
    for i, keys in enumerate(keyed):
        for key in keys:
            j = first.setdefault(key, i)
            if j != i:
                a, b = root(i), root(j)
                if a != b:
                    # the smaller index stays the root
                    parent[max(a, b)] = min(a, b)
    parts = {}
    for i in range(len(keyed)):
        parts.setdefault(root(i), []).append(i if items is None else items[i])
    return tuple(map(tuple, parts.values()))


def _gamma_components(comm: dict) -> dict:
    """Each action name of a gamma pair -> the names that gamma pairs
    connect it to, itself included."""
    pairs = list(comm)
    comp: dict = {}
    for part in _connected(pairs):
        names = frozenset().union(*(pairs[i] for i in part))
        comp.update(dict.fromkeys(names, names))
    return comp


def _fusion_groups(alphabets, gamma_components) -> tuple:
    """The component positions, partitioned so that two components share a
    group when their alphabets meet: when they hold one name (an action
    name or a shadow base) or names of one gamma component.

    A move fuses only with moves that offer one of its names or a name of
    its gamma component, so no fusion crosses a group.  The same holds for
    the names that the components' moves offer in one state, so
    ``_group_part`` splits a group by their ``_fusion_keys``, which
    ``_moves`` keeps per term.  The groups come ordered by their first
    position, each with its positions in order.
    """
    return _connected([_fusion_keys(alphabet, gamma_components)
                       for alphabet in alphabets])


def _fusion_keys(names, gamma_components) -> frozenset:
    """The fusion keys of ``names``, action names and shadow bases: each
    name's gamma component, or the name itself when no gamma pair holds
    it.  Two sets of names can fuse only when their keys meet."""
    return frozenset(gamma_components.get(n, n) for n in names)


# ---------------------------------------------------------------------------
# Raw moves of a single component term


def _raw(term: ProcessTerm, prepared: PreparedSystem, stack=frozenset()):
    """All (occurrence multiset, successor) moves of a component term.

    An occurrence is an ``ActionLabel`` or a ``Shadow``, left unresolved so
    that communication and shadow fusion can span sibling components, or an
    ``Event`` already resolved below a hide/block/theta boundary.
    """
    if term is TERM or isinstance(term, Deadlock):
        return ()
    if isinstance(term, Act):
        return (((term.label,), TERM),)
    if isinstance(term, Shadow):
        return (((term,), TERM),)
    if isinstance(term, Var):
        if term.name in stack:
            raise UnguardedRecursion(term.name)
        if term.name not in prepared.equations:
            raise SemanticsError(f"unknown process {term.name}")
        return _raw(prepared.equations[term.name], prepared,
                    stack | {term.name})
    if isinstance(term, Seq):
        return tuple((occs, _seq(left2, term.right))
                     for occs, left2 in _raw(term.left, prepared, stack))
    if isinstance(term, Alt):
        return tuple(move for b in term.branches
                     for move in _raw(b, prepared, stack))
    if isinstance(term, Par):
        # each side moves or stays, and not both stay: every move has an
        # occurrence, so only that pair has none.  Identical operands give
        # identical moves, each kept once: n copies of an action in
        # parallel have n moves, not 2^n - 1
        sides = [_raw(side, prepared, stack) + (((), side),)
                 for side in (term.left, term.right)]
        return tuple(dict.fromkeys(
            (o1 + o2, _par(left2, right2))
            for (o1, left2), (o2, right2) in itertools.product(*sides)
            if o1 or o2))
    if isinstance(term, (Hide, Encaps, ConflictElim)):
        # resolved and wrapped as at the top level, so an operator means
        # the same wherever it is
        per_step, per_state = _split_wrappers((term,), prepared.conflicts)
        pairs = _apply_wrappers(
            [(events, succ) for occs, succ in _raw(term.body, prepared, stack)
             for events, _ in _resolved(occs, per_step, prepared)],
            per_state, prepared.conflicts)
        return tuple(dict.fromkeys(
            (events, _wrap(term, succ)) for events, succ in pairs))
    if isinstance(term, Sum):
        raise SemanticsError("sum must be elaborated before generation")
    raise TypeError(f"not a term: {term!r}")


def _apply_wrappers(pairs, wrappers, conflicts):
    """``wrappers`` (outermost first), each a hide, block or theta,
    applied from the innermost out to a list of (events, successor)
    pairs."""
    for wrapper in reversed(wrappers):
        if isinstance(wrapper, Hide):
            pairs = [(tuple(Event(None, e.fused)
                            if _label_hidden(e.label, wrapper.names) else e
                            for e in events), succ)
                     for events, succ in pairs]
        elif isinstance(wrapper, Encaps):
            pairs = [(events, succ) for events, succ in pairs
                     if not _blocked(events, wrapper.names)]
        else:
            pairs = apply_theta(pairs, conflicts)
    return pairs


def _resolved(occs, per_step, prepared) -> tuple:
    """The steps an occurrence tuple resolves into (``_resolve_uncached``),
    after the per-step wrappers ``per_step``, each with its ``step_label``.

    Memoized per prepared system by (occurrence tuple, wrappers); the
    result is a tuple, since every caller with that key shares it.
    """
    key = (occs, per_step)
    steps = prepared._step_cache.get(key)
    if steps is None:
        pairs = _apply_wrappers(
            [(events, None) for events in _resolve_uncached(occs, prepared)],
            per_step, prepared.conflicts)
        steps = prepared._step_cache[key] = tuple(
            (events, step_label(events)) for events, _ in pairs)
    return steps


def _label_hidden(label, names) -> bool:
    if label is None:
        return False
    if isinstance(label, ActionLabel):
        return label.name in names
    # a communication is hidden by its result name or by all participants
    if label.pretty() in names:
        return True
    return all(p in names for p in label.participants)


def _blocked(events, names) -> bool:
    """True when the step contains an unfused occurrence of a blocked action."""
    return any(isinstance(e.label, ActionLabel) and not e.fused
               and e.label.name in names for e in events)


# ---------------------------------------------------------------------------
# Fusion resolution


def _resolve_uncached(occs, prepared):
    """All ways to resolve an occurrence multiset into a resolved step, as
    the step mode permits them: under interleave, single events only.

    The actions are fused by the shadow matchings, then by the groupings
    of the comm policy: ``_binary_matchings`` or ``_chained_groupings``.
    Under the strict shadow policy a way that leaves an action of a shadow
    base unfused is left out.
    """
    done = tuple(o for o in occs if isinstance(o, Event))
    shadows = [o for o in occs if isinstance(o, Shadow)]
    acts = [o for o in occs if isinstance(o, ActionLabel)]
    must_fuse = frozenset()
    if prepared.config.shadow_policy == "strict":
        must_fuse = prepared.shadow_bases

    results = set()
    for matched in _shadow_matchings(shadows, acts):
        rest = [i for i in range(len(acts)) if i not in matched]
        if prepared.config.comm_policy == "binary":
            groupings = _binary_matchings(rest, acts, prepared.comm)
        else:
            groupings = _chained_groupings(rest, acts,
                                           prepared.gamma_components)
        for groups in groupings:
            grouped = {i for g in groups for i in g}
            unfused = [i for i in rest if i not in grouped]
            if any(acts[i].name in must_fuse for i in unfused):
                continue
            events = list(done)
            events += [Event(acts[i], True) for i in matched]
            events += [Event(_comm_label(g, acts, prepared), True)
                       for g in groups]
            events += [Event(acts[i], False) for i in unfused]
            if prepared.config.step_mode == "interleave" and len(events) != 1:
                continue
            results.add(tuple(sorted(events, key=_event_key)))
    return sorted(results, key=lambda evs: tuple(map(_event_key, evs)))


def _shadow_matchings(shadows, acts):
    """Assignments of every shadow to a distinct matching action occurrence."""
    for picks in itertools.product(*(
            [i for i, a in enumerate(acts) if a.name == shadow.base]
            for shadow in shadows)):
        if len(set(picks)) == len(picks):
            yield frozenset(picks)


def _binary_matchings(idxs, acts, comm):
    """All sets of disjoint gamma pairs over the occurrence indices, each
    a tuple of pairs in the order of ``idxs``.  Each related pair, in
    that order, extends every matching so far that leaves both free."""
    matchings = [((), frozenset())]     # (pairs, their indices)
    for k, i in enumerate(idxs):
        for j in idxs[k + 1:]:
            if frozenset((acts[i].name, acts[j].name)) in comm:
                matchings += [(m + ((i, j),), used | {i, j})
                              for m, used in matchings
                              if i not in used and j not in used]
    return [m for m, _ in matchings]


def _chained_groupings(idxs, acts, gamma_components):
    """Chained fusion: a group is a whole component of the gamma graph.

    A component fuses only when every one of its action names is on offer;
    partial relays stay unfused (and are then typically blocked by the
    encapsulation set).
    """
    by_comp: dict = {}
    for i in idxs:
        comp = gamma_components.get(acts[i].name)
        if comp is not None:
            by_comp.setdefault(comp, []).append(i)
    options = []
    for comp, members in sorted(by_comp.items(), key=lambda kv: sorted(kv[0])):
        by_name: dict = {}
        for i in members:
            by_name.setdefault(acts[i].name, []).append(i)
        picks = [None]
        if set(by_name) == set(comp):
            picks += [tuple(sorted(p)) for p in itertools.product(
                *[by_name[n] for n in sorted(comp)])]
        options.append(picks)
    for combo in itertools.product(*options):
        yield tuple(g for g in combo if g is not None)


def _comm_label(group, acts, prepared) -> CommResultLabel:
    names = tuple(sorted(acts[i].name for i in group))
    if len(names) == 2:
        declared = prepared.comm.get(frozenset(names))
        if declared is not None:
            return declared
    return CommResultLabel(names)


# ---------------------------------------------------------------------------
# Theta (conflict elimination)


def apply_theta(steps, conflicts):
    """Drop, among a state's enabled steps, conflict losers.

    A step carries the names of its actions and the participants of its
    communications.  For each conflict pair a # b with a < b, a step that
    carries b is removed when another step carries a, and a step that
    carries both a and b is also removed when another step carries b.
    """
    if not conflicts:
        return list(steps)
    # a step derived in two ways is still one step, not its own rival
    steps = list(dict.fromkeys(steps))
    names = [_step_names(events) for events, _ in steps]
    carriers = Counter(n for step_names in names for n in step_names)
    pairs = [sorted(pair) for pair in conflicts]

    def loses(own):
        def elsewhere(x):
            return carriers[x] > (x in own)
        return any(b in own and (elsewhere(a) or a in own and elsewhere(b))
                   for a, b in pairs)

    return [s for s, own in zip(steps, names) if not loses(own)]


def _step_names(events) -> frozenset:
    names = set()
    for e in events:
        if isinstance(e.label, ActionLabel):
            names.add(e.label.name)
        elif isinstance(e.label, CommResultLabel):
            names.update(e.label.participants)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Step generation


def _moves(term, prepared):
    """The local moves of a top-level component, with what they offer.

    A pair ``(moves, keys)``: ``moves`` is ``_raw(term)``, its
    ``(occs, succ)`` moves, and ``keys`` the ``_fusion_keys`` of the
    action names and the shadow bases that those moves offer to fusion.
    Memoized per term, so splitting a group in a state maps no name.
    """
    entry = prepared._moves_cache.get(term)
    if entry is None:
        moves = _raw(term, prepared)
        entry = prepared._moves_cache[term] = (moves, _fusion_keys(
            {o.name if isinstance(o, ActionLabel) else o.base
             for occs, _ in moves for o in occs if not isinstance(o, Event)},
            prepared.gamma_components))
    return entry


def _combinations(comps, positions, prepared):
    """Every combination of the moves of the components ``comps[i]``, for
    ``i`` in ``positions``, that moves: each component idle or given one
    move, and not every component idle.

    A combination is a pair ``(picks, occs)``: ``picks`` holds ``(i,
    move)`` pairs with ``move`` from ``_moves(comps[i])``, at most one per
    component, and ``occs`` the occurrences of those moves, in order.  The
    combinations come in the lexicographic order of the components'
    choices, taken in the order of ``positions``: at each position, the
    moves from the last to the first, then idle.
    """
    choices = [[(i, move)
                for move in reversed(_moves(comps[i], prepared)[0])]
               + [None] for i in positions]
    picked = (tuple(pick for pick in choice if pick is not None)
              for choice in itertools.product(*choices))
    return [(picks, tuple(o for _, move in picks for o in move[0]))
            for picks in picked if picks]


def _group_part(comps, positions, prepared):
    """The resolved combinations of the components ``comps[i]``, for ``i``
    in ``positions``: one ``(picks, steps)`` entry per combination with
    steps, ``()`` when no combination has steps.

    The positions are first split by ``_connected`` over the fusion keys
    that ``_moves`` keeps for their components' terms.  When that gives
    two or more sub-groups, the part is their ``_parts``, each sub-group's
    read from or stored in ``PreparedSystem._group_cache`` under its own
    key.  Otherwise the part is every combination of ``_combinations``
    that has steps, in walk order, with ``picks`` its ``(i, move)`` pairs
    and ``steps`` its ``_resolved`` steps after the per-step wrappers.
    """
    subgroups = _connected(
        [_moves(comps[i], prepared)[1] for i in positions], positions)
    if len(subgroups) > 1:
        return _parts(comps, subgroups, prepared)
    per_step = prepared.split[0]
    part = []
    for picks, occs in _combinations(comps, positions, prepared):
        steps = _resolved(occs, per_step, prepared)
        if steps:
            part.append((picks, steps))
    return tuple(part)


def _parts(comps, groups, prepared):
    """The ``_part_product`` of the parts of ``groups``, tuples of
    positions in ``comps`` that no fusion joins, leaving out each part
    with no entry; ``()`` when every part has none.

    Each part is read from ``PreparedSystem._group_cache``, keyed by the
    group's positions and their terms, or made by ``_group_part`` and
    stored there.  A part whose positions cover every component is made
    and not stored: its key is the state's own components, and with
    every position movable (no round set, none terminated) the state is
    the only one with that key, which a generation expands once.
    """
    cache = prepared._group_cache
    product = ()
    for positions in groups:
        if len(positions) == len(comps):
            part = _group_part(comps, positions, prepared)
        else:
            key = (positions, tuple(map(comps.__getitem__, positions)))
            part = cache.get(key)
            if part is None:
                part = cache[key] = _group_part(comps, positions, prepared)
        if part:
            product = (_part_product(product, part, prepared) if product
                       else part)
    return product


def _part_product(part, more_part, prepared):
    """The entries of two parts of components that no fusion joins, taken
    together: each entry of ``part`` with each entry of ``more_part``,
    then alone; after those, each entry of ``more_part`` alone.

    An entry taken with another makes the moves of both, and its steps
    are the ``_step_product`` of theirs.  Under interleave a step moves
    one part only, so the product is the two parts in turn.
    """
    if prepared.config.step_mode == "interleave":
        return [*part, *more_part]
    events_read = bool(prepared.split[1])
    product = []
    for entry in part:
        picks, steps = entry
        product += [
            (picks + more, _step_product(steps, more_steps, events_read))
            for more, more_steps in more_part]
        product.append(entry)
    product += more_part
    return product


def _step_product(steps, more_steps, events_read):
    """The steps of two moving parts of different groups taken together:
    each label is the ``_merge_labels`` of the parts' labels, and each
    event tuple the ``_event_key``-sorted merge of theirs when
    ``events_read``, else False."""
    return [
        (events_read and tuple(sorted(events + more_events, key=_event_key)),
         more_label if not label else label if not more_label
         else _merge_labels(label, more_label))
        for events, label in steps for more_events, more_label in more_steps]


# the merge reads the two labels alone, so, like ``_CANONICAL``, its
# cache lives for the process and every prepared system shares it
@functools.cache
def _merge_labels(label, more_label) -> tuple:
    """Two step labels as the label of their union."""
    return sorted_label(label + more_label)


def _group_steps(state, prepared):
    """The ``(picks, steps)`` entries of ``state``: the ``_part_product``
    of its fusion groups' parts (``_group_part``).

    No fusion or shadow match crosses a group (``_fusion_groups``),
    and hide and block act per event, so a state's resolved steps are the
    products of its groups' resolved steps.  ``_parts`` reads each group's
    part from ``PreparedSystem._group_cache``, keyed by the group's movable
    positions and their terms; on a miss, ``_group_part`` splits the
    group by what its components offer in this state.  A product step's
    label is the merge of its parts' labels; its events, the
    ``_event_key``-sorted merge of theirs, are built only for the
    per-state wrappers, which alone read them.  Under interleave no entry
    takes a moving part from two groups.
    """
    comps, rounds = state
    # barrier rounds are normalized to 0 over the live entried components
    # and are 0 for the others, so a component at round 0 may move; with
    # no round set and no component terminated, every position may
    free = TERM not in comps and not (rounds and any(rounds))
    return _parts(comps, prepared.groups if free else [
        tuple(i for i in group if comps[i] is not TERM
              and not (rounds and rounds[i])) for group in prepared.groups],
        prepared)


def _successors(state, prepared):
    """The (label, successor state) steps the configuration permits, each
    once, in the order they are made: unsorted.

    The resolved steps come from ``_group_steps``, and the per-state
    wrappers then apply through ``_apply_wrappers`` as in ``_raw``.  Under
    barrier, an entry changes the state's rounds only when one of its
    picks re-enters its position's entry equation or terminates; the new
    rounds are computed once per distinct set of such picks, given the
    state's rounds and terminated positions, and kept in
    ``PreparedSystem._rounds_cache``.
    """
    comps, rounds = state
    # an entried component re-enters its entry when it is back at its
    # initial term, the entry variable; the test is per position
    initial, entries = prepared.components, prepared.entries
    per_state = prepared.split[1]
    if rounds is not None:
        dead = tuple(i for i, c in enumerate(comps) if c is TERM)
        next_rounds = prepared._rounds_cache[rounds, dead]
    out = []
    for picks, steps in _group_steps(state, prepared):
        new_comps = list(comps)
        ends = ()   # the picks that re-enter or terminate
        for i, move in picks:
            succ = new_comps[i] = move[1]
            if succ is TERM or succ is initial[i] and entries[i]:
                ends += ((i, succ),)
        rounds2 = rounds
        # a state's rounds are normalized already: only ``ends`` changes them
        if ends and rounds is not None:
            rounds2 = next_rounds.get(ends) or next_rounds.setdefault(
                ends, _next_rounds(rounds, dead, ends, entries))
        succ = _new_tuple(SystemState, (tuple(new_comps), rounds2))
        if per_state:
            out += [(events, succ) for events, _ in steps]
        elif len(steps) == 1:
            out.append((steps[0][1], succ))
        else:
            out += [(label, succ) for _, label in steps]
    if per_state:
        out = [(step_label(events), succ) for events, succ in
               _apply_wrappers(out, per_state, prepared.conflicts)]
    return list(dict.fromkeys(out)) if len(out) > 1 else out


def _next_rounds(rounds, dead, ends, entries) -> tuple:
    """The barrier rounds after a move from a state with ``rounds`` and
    the terminated positions ``dead``, whose ``(position, successor)``
    picks ``ends`` each re-enter their entry or terminate.

    A re-entry ends its position's round.  Rounds only mean anything for
    live, entried components: they are normalized to a least round of 0
    over those, and are 0 for the others.
    """
    rl = list(rounds)
    for i, succ in ends:
        rl[i] += succ is not TERM
    live = [i for i, entry in enumerate(entries) if entry is not None
            and i not in dead and (i, TERM) not in ends]
    lo = min((rl[i] for i in live), default=0)
    return tuple(rl[i] - lo if i in live else 0 for i in range(len(rl)))


def enabled_steps(state: SystemState, prepared: PreparedSystem):
    """All (label, successor state) steps the configuration permits,
    sorted by label key and successor name: the ``_successors`` of
    ``state``, sorted."""
    out = _successors(state, prepared)
    out.sort(key=lambda ls: (label_key(ls[0]), ls[1].pretty()))
    return out


# ---------------------------------------------------------------------------
# The LTS


@record(frozen=True, init=False)
class StepLTS:
    """A step LTS, its transitions held as integer columns.

    Transition i goes from ``sources[i]`` by ``labels[label_ids[i]]`` to
    ``targets[i]``; a label may stand in ``labels`` more than once.  The
    columns are grouped by source, in increasing order, so state s's
    transitions are those from ``offsets[s]`` to ``offsets[s + 1]``.
    ``transitions`` is the tuple of (source, label, target) triples, built
    on demand.  The constructor takes them in that form, in any order,
    and keeps the order of each source's transitions; it rejects a state
    outside ``range(num_states)``.  Equality compares ``transitions``.
    """

    initial: int
    num_states: int
    transitions: tuple
    state_names: tuple

    def __init__(self, initial, num_states, transitions, state_names):
        def state(role, s):
            if s not in range(num_states):
                raise ValueError(f"{role} {s} is not a state: the LTS's "
                                 f"states are 0 to {num_states - 1}")
            return s
        state("initial state", initial)
        ids = {}
        sources, label_ids, targets = array("i"), array("i"), array("i")
        for s, a, t in sorted(transitions, key=itemgetter(0)):
            sources.append(state("source", s))
            label_ids.append(ids.setdefault(a, len(ids)))
            targets.append(state("target", t))
        vars(self).update(vars(self.from_columns(
            initial, num_states, state_names, sources, label_ids, targets,
            tuple(ids))))

    @classmethod
    def from_columns(cls, initial, num_states, state_names, sources,
                     label_ids, targets, labels) -> StepLTS:
        """The LTS of the given columns (``array("i")``), grouped by
        source in increasing order, and label table."""
        lts = cls.__new__(cls)
        vars(lts).update(
            initial=initial, num_states=num_states, state_names=state_names,
            sources=sources, label_ids=label_ids, targets=targets,
            labels=labels, offsets=array("i", map(
                bisect_left, itertools.repeat(sources),
                range(num_states + 1))))
        return lts

    @property
    def transitions(self) -> tuple:
        return tuple(zip(self.sources,
                         map(self.labels.__getitem__, self.label_ids),
                         self.targets))

    def deadlock_states(self) -> tuple:
        offsets = self.offsets
        return tuple(itertools.compress(range(self.num_states), map(
            eq, offsets, itertools.islice(offsets, 1, None))))


def generate_lts(system: ProcessTerm, model: Model,
                 config: Config = Config()) -> StepLTS:
    """Breadth-first closure of enabled steps with canonical memoization.

    States are numbered as a breadth-first loop over ``enabled_steps``
    numbers them, with one sort per state over only the new successors:
    each of a state's ``_successors`` is looked up in the state index
    once, and the ones not yet numbered are sorted by (label key,
    successor name) and numbered in that order, which is their order in
    the sorted steps; a stable sort of a subsequence keeps the order it
    has in the sort of the whole.  The state's
    row is then sorted by (label key, destination index), stably, and
    appended to the columns; states are expanded in index order, so the
    transitions come sorted by (source, label key, destination).

    One memo per call holds each label's sort key and its id in the label
    table; ids are given in order of first appearance over the sorted
    rows.  The sort never reads an id: labels of one key, such as an
    action ``c`` and the result of ``comm a, b -> c``, keep the order
    the steps give them.

    Each state's name is rendered once per call: a successor not yet
    numbered is rendered when its source is expanded, once however many
    of that source's steps reach it, and the name is kept in ``names``
    when the state is numbered.
    """
    prepared = prepare_system(system, model, config)
    label_memo = {}   # label -> [its key, its id or -1 until it has one, it]
    labels = []   # the label table
    init = prepared.initial_state()
    index = {init: 0}
    order = [init]     # a state's index is its place here
    names = [init.pretty()]   # the name of order[i]
    sources, label_ids, targets = array("i"), array("i"), array("i")
    by_first_two = itemgetter(0, 1)   # (label key, name or destination)
    # order[src] is at BFS depth ``depth`` while src < level_end
    depth, level_end = 0, 1
    for src, state in enumerate(order):   # order grows during the walk
        if src == level_end:
            depth, level_end = depth + 1, len(order)
        row, fresh = [], []
        rendered = {}   # a new successor of this state -> its name
        for label, succ in _successors(state, prepared):
            entry = label_memo.get(label)
            if entry is None:
                entry = label_memo[label] = [label_key(label), -1, label]
            dst = index.get(succ)
            if dst is None:
                name = rendered.get(succ) or rendered.setdefault(
                    succ, succ.pretty())
                fresh.append((entry[0], name, entry, succ))
            else:
                row.append((entry[0], dst, entry))
        if len(fresh) > 1:
            fresh.sort(key=by_first_two)
        for key, name, entry, succ in fresh:
            dst = index.get(succ)
            if dst is None:
                if len(order) >= config.max_states:
                    raise StateBudgetExceeded(
                        config.max_states, len(order) - src - 1, depth + 1)
                dst = index[succ] = len(order)
                order.append(succ)
                names.append(name)
            row.append((key, dst, entry))
        row.sort(key=by_first_two)
        for _, dst, entry in row:
            if entry[1] < 0:
                entry[1] = len(labels)
                labels.append(entry[2])
            label_ids.append(entry[1])
            targets.append(dst)
        sources.extend(itertools.repeat(src, len(row)))
    return StepLTS.from_columns(
        0, len(order), tuple(names),
        sources, label_ids, targets, tuple(labels))


def prune_dead(lts: StepLTS) -> StepLTS:
    """Least-fixpoint removal of states from which deadlock is inevitable,
    then of the states no longer reachable; ``lts`` itself when nothing
    is removed.

    One pass first finds the common case: initial state 0, every state
    with a step, and every other state with a predecessor of smaller
    index, as breadth-first numbering gives.  Then no state is dead, and
    each is reachable through ever smaller predecessors, so ``lts`` is
    returned as it is.
    """
    if lts.initial == 0:
        has_step = [False] * lts.num_states
        has_earlier = has_step[:]
        for s, t in zip(lts.sources, lts.targets):
            has_step[s] = True
            if s < t:
                has_earlier[t] = True
        if all(has_step) and all(has_earlier[1:]):
            return lts
    keep = _prune(lts)
    if len(keep) == lts.num_states:
        return lts   # every state is kept: nothing to prune
    remap = {s: i for i, s in enumerate(keep)}
    kept = [s in remap and t in remap
            for s, t in zip(lts.sources, lts.targets)]
    return StepLTS.from_columns(
        remap[lts.initial], len(keep),
        tuple(lts.state_names[s] for s in keep),
        array("i", map(remap.__getitem__,
                       itertools.compress(lts.sources, kept))),
        array("i", itertools.compress(lts.label_ids, kept)),
        array("i", map(remap.__getitem__,
                       itertools.compress(lts.targets, kept))),
        lts.labels)


def _prune(lts: StepLTS) -> list:
    """The states ``prune_dead`` keeps, in order: the live states reachable
    from the initial one, which is kept even when dead."""
    offsets, targets = lts.offsets, lts.targets
    pred = [[] for _ in range(lts.num_states)]
    for s, t in zip(lts.sources, targets):
        pred[t].append(s)
    # live[s]: steps of s not known to lead to a dead state; 0 = dead
    live = list(map(sub, itertools.islice(offsets, 1, None), offsets))
    queue = [s for s, n in enumerate(live) if not n]
    while queue:
        for s in pred[queue.pop()]:
            live[s] -= 1
            if not live[s]:
                queue.append(s)
    # an initially dead LTS prunes to its initial state, with no steps
    seen = {lts.initial}
    queue = [lts.initial]
    while queue:
        s = queue.pop()
        for t in targets[offsets[s]:offsets[s + 1]]:
            if live[t] and t not in seen:
                seen.add(t)
                queue.append(t)
    return sorted(seen)
