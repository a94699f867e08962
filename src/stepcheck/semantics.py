"""Operational step semantics: from system expressions to finite step LTSs.

Transition labels are multisets of labels executed simultaneously; the
empty multiset (all contributions hidden) is the silent step tau.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
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


@dataclass(frozen=True, eq=False)
class _Terminated(ProcessTerm):
    def __repr__(self):
        return "TERM"


TERM = _Terminated()


def canon(term: ProcessTerm) -> ProcessTerm:
    """Behavioral canonical form used for state memoization: the children
    made canonical, then the node rebuilt through the constructors below."""
    kids = tuple(map(canon, term.children()))
    if isinstance(term, Seq):
        return _seq(*kids)
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
    if isinstance(left, Seq):
        return Seq(left.left, _seq(left.right, right))
    return Seq(left, right)


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


# ---------------------------------------------------------------------------
# Events


class Event(NamedTuple):
    label: Optional[Label]  # None = silent contribution
    fused: bool


def _event_key(e: Event):
    return (e.label is not None, e.label.pretty() if e.label else "", e.fused)


def step_label(events) -> tuple:
    """Final LTS label: the sorted multiset of visible labels (empty = tau)."""
    labels = [e.label for e in events if e.label is not None]
    return tuple(sorted(labels, key=lambda l: l.pretty()))


def _label_key(label: tuple) -> tuple:
    """The sort key of a step label: its labels' texts."""
    return tuple(l.pretty() for l in label)


def label_str(label: tuple) -> str:
    if not label:
        return "tau"
    return "{" + ",".join(l.pretty() for l in label) + "}"


# ---------------------------------------------------------------------------
# System preparation


class _Rendered(dict):
    """A memo that renders each missing key once, with ``render``."""

    __slots__ = ("render",)

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        value = self[key] = self.render(key)
        return value


@dataclass(frozen=True)
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
    blocked: frozenset        # top-level block sets no hide or theta precedes
    groups: tuple             # of component positions (_fusion_groups)
    config: Config
    _moves_cache: dict = field(default_factory=dict)
    _step_cache: dict = field(default_factory=dict)
    _group_cache: dict = field(default_factory=dict)
    # each state's name and each label's sort key, rendered once
    _names: dict = field(default_factory=lambda: _Rendered(SystemState.pretty))
    _label_keys: dict = field(default_factory=lambda: _Rendered(_label_key))

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
    components = tuple(_flatten_par(term))
    split = _split_wrappers(wrappers, conflicts)
    # the block sets a step meets before anything can change it: walking
    # out from the components, stop at a hide (it may hide a blocked
    # action) and at the per-state wrappers (a step that block drops may
    # still eliminate a sibling under a theta with conflicts)
    blocked = frozenset()
    for wrapper in reversed(split[0]):
        if isinstance(wrapper, Hide):
            break
        blocked |= wrapper.names
    gamma_components = _gamma_components(comm)
    alphabets = [_alphabet(c, equations) for c in components]
    groups = _fusion_groups([names | bases for names, bases in alphabets],
                            gamma_components)
    return PreparedSystem(
        components=components,
        entries=tuple(c.name if isinstance(c, Var) else None
                      for c in components),
        wrappers=tuple(wrappers),
        split=split,
        equations=equations,
        comm=comm,
        gamma_components=gamma_components,
        conflicts=conflicts,
        shadow_bases=frozenset().union(*(bases for _, bases in alphabets)),
        blocked=blocked,
        groups=groups,
        config=config,
    )


def _split_wrappers(wrappers, conflicts) -> tuple:
    """``wrappers`` (outermost first) as (per step, per state).

    Walking out from the components, each hide and block up to the first
    theta over declared conflicts changes or drops a step on its own, so it
    is applied per step.  That theta compares the steps a state has, so it
    and every wrapper outside it are applied per state.  A theta with no
    conflicts is the identity and is left out.
    """
    if not conflicts:
        return tuple(w for w in wrappers
                     if not isinstance(w, ConflictElim)), ()
    cut = 0
    for i, wrapper in enumerate(wrappers):
        if isinstance(wrapper, ConflictElim):
            cut = i + 1
    return tuple(wrappers[cut:]), tuple(wrappers[:cut])


def _flatten_par(term):
    if isinstance(term, Par):
        return _flatten_par(term.left) + _flatten_par(term.right)
    return [term]


def _connected(keyed) -> tuple:
    """The indices of ``keyed``, a sequence of key sets, partitioned so
    that two indices share a part when their key sets meet, directly or
    through other indices.  The parts come ordered by their first index,
    each with its indices in order."""
    merged = []   # (keys, indices) per part found so far
    for i, keys in enumerate(keyed):
        keys = set(keys)
        indices = [i]
        apart = []
        for other_keys, other in merged:
            if keys.isdisjoint(other_keys):
                apart.append((other_keys, other))
            else:
                keys |= other_keys
                indices += other
        merged = apart + [(keys, indices)]
    return tuple(sorted(tuple(sorted(indices)) for _, indices in merged))


def _gamma_components(comm: dict) -> dict:
    """Each action name of a gamma pair -> the names that gamma pairs
    connect it to, itself included."""
    pairs = list(comm)
    comp: dict = {}
    for part in _connected(pairs):
        names = frozenset().union(*(pairs[i] for i in part))
        comp.update(dict.fromkeys(names, names))
    return comp


def _alphabet(term, equations) -> tuple:
    """The action names and the shadow bases of ``term`` and of the
    equations it reaches, names under a nested wrapper included."""
    names: set = set()
    bases: set = set()
    seen: set = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Act):
            names.add(t.label.name)
        elif isinstance(t, Shadow):
            bases.add(t.base)
        elif isinstance(t, Var):
            if t.name not in seen and t.name in equations:
                seen.add(t.name)
                stack.append(equations[t.name])
        else:
            stack.extend(t.children())
    return frozenset(names), frozenset(bases)


def _fusion_groups(alphabets, gamma_components) -> tuple:
    """The component positions, partitioned so that two components share a
    group when their alphabets meet: when they hold one name (an action
    name or a shadow base) or names of one gamma component.

    A move fuses only with moves that offer one of its names or a name of
    its gamma component, and a need of ``_moves`` waits only for such
    names, so no fusion and no need crosses a group.  The groups come
    ordered by their first position, each with its positions in order.
    """
    return _connected([{gamma_components.get(n, n) for n in alphabet}
                       for alphabet in alphabets])


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
        lmoves = _raw(term.left, prepared, stack)
        rmoves = _raw(term.right, prepared, stack)
        out = []
        for occs, left2 in lmoves:
            out.append((occs, _par(left2, term.right)))
        for occs, right2 in rmoves:
            out.append((occs, _par(term.left, right2)))
        for (o1, left2), (o2, right2) in itertools.product(lmoves, rmoves):
            out.append((o1 + o2, _par(left2, right2)))
        return tuple(out)
    if isinstance(term, (Hide, Encaps, ConflictElim)):
        steps = _steps(_raw(term.body, prepared, stack),
                       _split_wrappers((term,), prepared.conflicts), prepared)
        return tuple(dict.fromkeys(
            (events, _wrap(term, succ)) for events, _, succ in steps))
    if isinstance(term, Sum):
        raise SemanticsError("sum must be elaborated before generation")
    raise TypeError(f"not a term: {term!r}")


def _steps(moves, split, prepared):
    """Resolve each (occurrences, successor) move into its steps, then
    apply the wrappers of ``split`` (``_split_wrappers``) from the
    innermost out: the per-step ones through ``_resolved``'s memo, then
    the per-state ones.  Returns (events, label, successor) triples.

    A nested wrapper (``_raw``) and the top-level ones (``enabled_steps``)
    both come through here, so an operator means the same wherever it is.
    """
    per_step, per_state = split
    steps = [(events, label, succ) for occs, succ in moves
             for events, label in _resolved(occs, per_step, prepared)]
    if per_state:
        pairs = [(events, succ) for events, _, succ in steps]
        for wrapper in reversed(per_state):
            pairs = _apply_wrapper(wrapper, pairs, prepared.conflicts)
        steps = [(events, step_label(events), succ) for events, succ in pairs]
    return steps


def _resolved(occs, per_step, prepared) -> tuple:
    """The steps an occurrence tuple resolves into (``_resolve_uncached``),
    after the per-step wrappers ``per_step``, each with its ``step_label``.

    Memoized per prepared system by (occurrence tuple, wrappers); the
    result is a tuple, since every caller with that key shares it.
    """
    key = (occs, per_step)
    steps = prepared._step_cache.get(key)
    if steps is None:
        pairs = [(events, None) for events in _resolve_uncached(occs, prepared)]
        for wrapper in reversed(per_step):
            pairs = _apply_wrapper(wrapper, pairs, prepared.conflicts)
        steps = prepared._step_cache[key] = tuple(
            (events, step_label(events)) for events, _ in pairs)
    return steps


def _apply_wrapper(wrapper, steps, conflicts):
    """One hide, block or theta applied to a list of (events, successor)."""
    if isinstance(wrapper, Hide):
        return [(tuple(Event(None, e.fused)
                       if _label_hidden(e.label, wrapper.names) else e
                       for e in events), succ)
                for events, succ in steps]
    if isinstance(wrapper, Encaps):
        return [(events, succ) for events, succ in steps
                if not _blocked(events, wrapper.names)]
    return apply_theta(steps, conflicts)


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
    the step mode permits them: under interleave, single events only."""
    done = tuple(o for o in occs if isinstance(o, Event))
    shadows = [o for o in occs if isinstance(o, Shadow)]
    acts = [o for o in occs if isinstance(o, ActionLabel)]

    results = set()
    for matched in _shadow_matchings(shadows, acts):
        rest = [i for i in range(len(acts)) if i not in matched]
        for groups in _comm_groupings(rest, acts, prepared):
            grouped = {i for g in groups for i in g}
            unfused = [i for i in rest if i not in grouped]
            if prepared.config.shadow_policy == "strict" and any(
                    acts[i].name in prepared.shadow_bases for i in unfused):
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
    if not shadows:
        yield frozenset()
        return
    first, rest = shadows[0], shadows[1:]
    for i, a in enumerate(acts):
        if a.name != first.base:
            continue
        for sub in _shadow_matchings(rest, acts):
            if i in sub:
                continue
            yield sub | {i}


def _comm_groupings(idxs, acts, prepared):
    if prepared.config.comm_policy == "binary":
        yield from _binary_matchings(tuple(idxs), acts, prepared.comm)
    else:
        yield from _chained_groupings(idxs, acts, prepared.gamma_components)


def _binary_matchings(idxs, acts, comm):
    """All sets of disjoint gamma pairs over the occurrence indices."""
    if not idxs:
        yield ()
        return
    first, rest = idxs[0], idxs[1:]
    # first stays unmatched
    for sub in _binary_matchings(rest, acts, comm):
        yield sub
    for j in rest:
        if frozenset((acts[first].name, acts[j].name)) in comm:
            remaining = tuple(k for k in rest if k != j)
            for sub in _binary_matchings(remaining, acts, comm):
                yield ((first, j),) + sub


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
        if set(by_name) == set(comp):
            picks = [tuple(sorted(p)) for p in itertools.product(
                *[by_name[n] for n in sorted(comp)])]
            options.append([None] + picks)
        else:
            options.append([None])
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
    """The local moves of a top-level component, with what each offers.

    One ``(occs, succ, names, bases, needs)`` entry per move of
    ``_raw(term)``: the action names and shadow bases the move offers to
    fusion, and the needs of its occurrences.  A need
    ``(base, any_of, all_of)`` is met in a combination that offers a
    shadow on ``base``, one of the names ``any_of`` or all of the names
    ``all_of``.  Without that, fusion yields no step, or only steps
    that a top-level block drops.  A move whose events, resolved below
    this level, hold an unfused action of a top-level block set is left
    out: nothing can fuse it now, so the block drops every step it is in.
    """
    moves = prepared._moves_cache.get(term)
    if moves is not None:
        return moves
    blocked = prepared.blocked
    strict = prepared.config.shadow_policy == "strict"
    moves = []
    for occs, succ in _raw(term, prepared):
        if _blocked([o for o in occs if isinstance(o, Event)], blocked):
            continue
        names = frozenset(o.name for o in occs if isinstance(o, ActionLabel))
        bases = frozenset(o.base for o in occs if isinstance(o, Shadow))
        # a shadow fuses only with an action of its base name
        needs = [(None, frozenset((b,)), frozenset()) for b in bases]
        for n in names:
            if not (strict and n in prepared.shadow_bases or n in blocked):
                continue
            # unfused, it is discarded or blocked: it needs its shadow or a
            # gamma rescue (its whole component, or any binary partner)
            if prepared.config.comm_policy == "chained":
                rescue = (frozenset(),
                          prepared.gamma_components.get(n, frozenset()))
            else:
                rescue = (frozenset(x for pair in prepared.comm if n in pair
                                    for x in pair if x != n), frozenset())
            needs.append((n,) + rescue)
        moves.append((occs, succ, names, bases, tuple(needs)))
    moves = tuple(moves)
    prepared._moves_cache[term] = moves
    return moves


def _combinations(comps, positions, prepared):
    """Combinations of the moves of the components ``comps[i]``, for ``i``
    in ``positions``, whose steps can survive fusion and block.

    A combination is a pair ``(picks, occs)``: ``picks`` holds ``(i,
    move)`` pairs with ``move`` from ``_moves(comps[i])``, at most one per
    component, and ``occs`` the occurrences of those moves, in order.
    Components are walked in the order of ``positions``, each skipped or
    given one move, and a prefix is abandoned once one of its needs can be
    met neither by the prefix nor by any later component.  The
    combinations come in walk order: at each position, the moves from the
    last to the first, then the skip.  So the last combination, ``((),
    ())``, skips every component.
    """
    local = [_moves(comps[i], prepared) for i in positions]
    m = len(local)
    s_names = [frozenset()] * (m + 1)   # offered by components p and later
    s_bases = [frozenset()] * (m + 1)
    for p in range(m - 1, -1, -1):
        s_names[p] = s_names[p + 1].union(*(move[2] for move in local[p]))
        s_bases[p] = s_bases[p + 1].union(*(move[3] for move in local[p]))

    def unmet(pending, names, bases, p):
        """In one pass, the pending needs the prefix does not meet, or None
        when one of them is met neither by it nor by components p on."""
        later_names, later_bases = s_names[p], s_bases[p]
        kept = []
        for need in pending:
            base, any_of, all_of = need
            if (base in bases or not any_of.isdisjoint(names)
                    or all_of and all_of <= names):
                continue
            if not (base in later_bases or not any_of.isdisjoint(later_names)
                    or all_of and all_of <= names | later_names):
                return None
            kept.append(need)
        return tuple(kept)

    combos = []
    stack = [(0, (), frozenset(), frozenset(), ())]
    while stack:
        p, picks, names, bases, pending = stack.pop()
        if pending:
            pending = unmet(pending, names, bases, p)
            if pending is None:
                continue
        if p == m:
            combos.append((picks, tuple(
                o for _, move in picks for o in move[0])))
            continue
        stack.append((p + 1, picks, names, bases, pending))
        i = positions[p]
        for move in local[p]:
            stack.append((p + 1, picks + ((i, move),), names | move[2],
                          bases | move[3], pending + move[4]))
    return combos


def _group_combinations(state, prepared):
    """The combinations of ``_combinations`` over the components of
    ``state`` that may move, less the one that skips them all.

    No need crosses a fusion group (``_fusion_groups``), so a combination
    survives exactly when each group's part of it does.  Each group's part
    comes from ``PreparedSystem._group_cache``, keyed by the group's
    movable positions and their terms, so it is walked once per key; the
    state's combinations are the product of the parts over
    ``prepared.groups``.  With one group that can move, the product comes
    in its walk order; with more, in another order, which ``enabled_steps``
    shows only where two steps tie on both label text and successor name.
    """
    comps, rounds = state.components, state.rounds
    combos = None
    for group in prepared.groups:
        # barrier rounds are normalized to 0 over the live entried
        # components and are 0 for the others, so a component at round 0
        # may move
        positions = tuple(i for i in group if comps[i] is not TERM
                          and not (rounds and rounds[i]))
        key = (positions, tuple(map(comps.__getitem__, positions)))
        part = prepared._group_cache.get(key)
        if part is None:
            part = prepared._group_cache[key] = tuple(
                _combinations(comps, positions, prepared))
        combos = part if combos is None else [
            (picks + more, occs + more_occs)
            for picks, occs in combos for more, more_occs in part]
    return combos[:-1]   # less the one that skips every group


def enabled_steps(state: SystemState, prepared: PreparedSystem):
    """All (label, successor state) steps the configuration permits,
    sorted by label key and successor name.

    The combinations of moves come from ``_group_combinations``, and the
    sort keys from ``prepared``'s render memos.
    """
    comps = state.components
    n = len(comps)
    entries = prepared.entries
    moves = []
    for picks, occs in _group_combinations(state, prepared):
        new_comps = list(comps)
        for i, move in picks:
            new_comps[i] = move[1]
        rounds2 = state.rounds
        if rounds2 is not None:
            rl = list(rounds2)
            for i, move in picks:
                succ = move[1]
                if isinstance(succ, Var) and succ.name == entries[i]:
                    rl[i] += 1
            # rounds only mean anything for live, entried components;
            # normalize over those and zero the rest
            live = [i for i in range(n)
                    if new_comps[i] is not TERM and entries[i] is not None]
            lo = min((rl[i] for i in live), default=0)
            rounds2 = tuple(rl[i] - lo if i in live else 0 for i in range(n))
        moves.append((occs, SystemState(tuple(new_comps), rounds2)))

    out = list(dict.fromkeys(
        (label, succ) for _, label, succ in _steps(moves, prepared.split,
                                                   prepared)))
    names, label_keys = prepared._names, prepared._label_keys
    out.sort(key=lambda ls: (label_keys[ls[0]], names[ls[1]]))
    return out


# ---------------------------------------------------------------------------
# The LTS


@dataclass(frozen=True)
class StepLTS:
    initial: int
    num_states: int
    transitions: tuple   # of (src, label tuple, dst)
    state_names: tuple

    def outgoing(self):
        out = [[] for _ in range(self.num_states)]
        for s, a, t in self.transitions:
            out[s].append((a, t))
        return out

    def deadlock_states(self) -> tuple:
        has_out = [False] * self.num_states
        for s, _, _ in self.transitions:
            has_out[s] = True
        return tuple(i for i in range(self.num_states) if not has_out[i])


def generate_lts(system: ProcessTerm, model: Model,
                 config: Config = Config()) -> StepLTS:
    """Breadth-first closure of enabled steps with canonical memoization.

    Each distinct state's name and each label's sort key is rendered once
    per call, in the prepared system's memos, and every sort reads them.
    """
    prepared = prepare_system(system, model, config)
    names, label_keys = prepared._names, prepared._label_keys
    init = prepared.initial_state()
    index = {init: 0}
    order = [init]     # a state's index is its place here
    transitions = []
    # order[src] is at BFS depth ``depth`` while src < level_end
    depth, level_end = 0, 1
    for src, state in enumerate(order):   # order grows during the walk
        if src == level_end:
            depth, level_end = depth + 1, len(order)
        for label, succ in enabled_steps(state, prepared):
            dst = index.get(succ)
            if dst is None:
                if len(order) >= config.max_states:
                    raise StateBudgetExceeded(
                        config.max_states, len(order) - src - 1, depth + 1)
                dst = index[succ] = len(order)
                order.append(succ)
            transitions.append((src, label, dst))
    transitions.sort(key=lambda t: (t[0], label_keys[t[1]], t[2]))
    return StepLTS(
        initial=0,
        num_states=len(order),
        transitions=tuple(transitions),
        state_names=tuple(names[state] for state in order),
    )


def prune_dead(lts: StepLTS) -> StepLTS:
    """Least-fixpoint removal of states from which deadlock is inevitable,
    then of the states no longer reachable; ``lts`` itself when nothing
    is removed."""
    out = lts.outgoing()
    # live[s]: transitions of s not known to lead to a dead state; 0 = dead
    live = [len(row) for row in out]
    preds = [[] for _ in range(lts.num_states)]
    for s, _, t in lts.transitions:
        preds[t].append(s)
    queue = [s for s, n in enumerate(live) if not n]
    while queue:
        for s in preds[queue.pop()]:
            live[s] -= 1
            if not live[s]:
                queue.append(s)
    # restrict to live states reachable from the initial one, which is kept
    # even when dead: an initially dead LTS prunes to it, with no steps
    seen = {lts.initial}
    queue = [lts.initial]
    while queue:
        for _, t in out[queue.pop()]:
            if live[t] and t not in seen:
                seen.add(t)
                queue.append(t)
    if len(seen) == lts.num_states:
        return lts   # every state is kept: nothing to prune
    keep = sorted(seen)
    remap = {s: i for i, s in enumerate(keep)}
    transitions = tuple(
        (remap[s], a, remap[t]) for s, a, t in lts.transitions
        if s in remap and t in remap)
    return StepLTS(
        initial=remap[lts.initial],
        num_states=len(keep),
        transitions=transitions,
        state_names=tuple(lts.state_names[s] for s in keep),
    )
