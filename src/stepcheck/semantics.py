"""Operational step semantics: from system expressions to finite step LTSs.

Transition labels are multisets of labels executed simultaneously; the
empty multiset (all contributions hidden) is the silent step tau.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

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
    def __init__(self, max_states, frontier):
        super().__init__(
            f"state budget of {max_states} states exceeded "
            f"({frontier} states still on the frontier)")
        self.max_states = max_states
        self.frontier = frontier


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


@dataclass(frozen=True)
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
    uniq = sorted(set(flat), key=term_to_str)
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


@dataclass(frozen=True)
class SystemState:
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


@dataclass(frozen=True)
class Event:
    label: Optional[Label]  # None = silent contribution
    fused: bool


def _event_key(e: Event):
    return (e.label is not None, e.label.pretty() if e.label else "", e.fused)


def step_label(events) -> tuple:
    """Final LTS label: the sorted multiset of visible labels (empty = tau)."""
    labels = [e.label for e in events if e.label is not None]
    return tuple(sorted(labels, key=lambda l: l.pretty()))


def label_str(label: tuple) -> str:
    if not label:
        return "tau"
    return "{" + ",".join(l.pretty() for l in label) + "}"


# ---------------------------------------------------------------------------
# System preparation


@dataclass(frozen=True)
class PreparedSystem:
    """Everything step generation reads about one system, built once."""

    components: tuple         # initial component terms, canonical
    entries: tuple            # per-component entry variable name or None
    wrappers: tuple           # top-level hide/block/theta nodes, outermost first
    equations: dict           # name -> canonical, ground ProcessTerm
    comm: dict                # frozenset pair -> CommResultLabel
    gamma_components: dict    # action name -> frozenset of its component
    conflicts: frozenset      # of frozenset pairs
    shadow_bases: frozenset   # in the components and the equations they reach
    blocked: frozenset        # top-level block sets no hide or theta precedes
    config: Config
    _raw_cache: dict = field(default_factory=dict)
    _moves_cache: dict = field(default_factory=dict)

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
    # the block sets a step meets before anything can change it: walking
    # out from the components, stop at a hide (it may hide a blocked
    # action) and at a theta with conflicts (a step that block drops may
    # still eliminate a sibling); a theta without conflicts is the identity
    blocked = frozenset()
    for wrapper in reversed(wrappers):
        if isinstance(wrapper, Encaps):
            blocked |= wrapper.names
        elif isinstance(wrapper, Hide) or conflicts:
            break
    return PreparedSystem(
        components=components,
        entries=tuple(c.name if isinstance(c, Var) else None
                      for c in components),
        wrappers=tuple(wrappers),
        equations=equations,
        comm=comm,
        gamma_components=_gamma_components(comm),
        conflicts=conflicts,
        shadow_bases=_collect_shadow_bases(components, equations),
        blocked=blocked,
        config=config,
    )


def _flatten_par(term):
    if isinstance(term, Par):
        return _flatten_par(term.left) + _flatten_par(term.right)
    return [term]


def _gamma_components(comm: dict) -> dict:
    adj: dict = {}
    for pair in comm:
        a, b = sorted(pair)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    comp: dict = {}
    for start in sorted(adj):
        if start in comp:
            continue
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        fs = frozenset(seen)
        for x in seen:
            comp[x] = fs
    return comp


def _collect_shadow_bases(terms, equations) -> frozenset:
    """Shadow bases in the given terms and the equations they reach."""
    bases: set = set()
    seen: set = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, Shadow):
            bases.add(t.base)
        elif isinstance(t, Var):
            if t.name not in seen and t.name in equations:
                seen.add(t.name)
                stack.append(equations[t.name])
        else:
            stack.extend(t.children())
    return frozenset(bases)


# ---------------------------------------------------------------------------
# Raw moves of a single component term


def _raw(term: ProcessTerm, prepared: PreparedSystem, stack=frozenset()):
    """All (occurrence multiset, successor) moves of a component term.

    An occurrence is an ``ActionLabel`` or a ``Shadow``, left unresolved so
    that communication and shadow fusion can span sibling components, or an
    ``Event`` already resolved below a hide/block/theta boundary.
    """
    if term in prepared._raw_cache:
        return prepared._raw_cache[term]
    moves = _raw_uncached(term, prepared, stack)
    prepared._raw_cache[term] = moves
    return moves


def _raw_uncached(term, prepared, stack):
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
        steps = _steps(_raw(term.body, prepared, stack), (term,), prepared)
        return tuple(dict.fromkeys(
            (events, _wrap(term, succ)) for events, succ in steps))
    if isinstance(term, Sum):
        raise SemanticsError("sum must be elaborated before generation")
    raise TypeError(f"not a term: {term!r}")


def _steps(moves, wrappers, prepared):
    """Resolve each (occurrences, successor) move into its steps, then
    apply ``wrappers`` (outermost first) from the innermost out.

    A nested wrapper (``_raw``) and the top-level ones (``enabled_steps``)
    both come through here, so an operator means the same wherever it is.
    """
    steps = [(events, succ) for occs, succ in moves
             for events in _resolve(occs, prepared)]
    for wrapper in reversed(wrappers):
        steps = _apply_wrapper(wrapper, steps, prepared.conflicts)
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


def _resolve(occs, prepared: PreparedSystem):
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
    ``all_of``.  Without that, ``_resolve`` yields no step, or only steps
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


def _combinations(local):
    """Combinations of local moves whose steps can survive fusion and block.

    ``local[p]`` holds the ``_moves`` of the ``p``-th allowed component.  A
    combination is a tuple of ``(p, move)`` pairs, at most one per
    component and at least one in all.  Components are walked in order,
    each skipped or given one move, and a prefix is abandoned once one of
    its needs can be met neither by the prefix nor by any later component.
    The combinations come in walk order; ``enabled_steps`` does not depend
    on it, since theta's removals do not and its output is sorted.
    """
    m = len(local)
    s_names = [frozenset()] * (m + 1)   # offered by components p and later
    s_bases = [frozenset()] * (m + 1)
    for p in range(m - 1, -1, -1):
        s_names[p] = s_names[p + 1].union(*(move[2] for move in local[p]))
        s_bases[p] = s_bases[p + 1].union(*(move[3] for move in local[p]))

    def met(need, names, bases):
        base, any_of, all_of = need
        return (base in bases or not any_of.isdisjoint(names)
                or bool(all_of) and all_of <= names)

    combos = []
    stack = [(0, (), frozenset(), frozenset(), ())]
    while stack:
        p, picks, names, bases, pending = stack.pop()
        if pending:
            names_later = names | s_names[p]
            bases_later = bases | s_bases[p]
            if not all(met(need, names_later, bases_later)
                       for need in pending):
                continue
            pending = tuple(need for need in pending
                            if not met(need, names, bases))
        if p == m:
            if picks:
                combos.append(picks)
            continue
        stack.append((p + 1, picks, names, bases, pending))
        for move in local[p]:
            stack.append((p + 1, picks + ((p, move),), names | move[2],
                          bases | move[3], pending + move[4]))
    return combos


def enabled_steps(state: SystemState, prepared: PreparedSystem):
    """All (label, successor state) steps the configuration permits."""
    comps = state.components
    n = len(comps)
    entries = prepared.entries

    # barrier rounds are normalized to 0 over the live entried components
    # and are 0 for the others, so a component at round 0 may move
    rounds = state.rounds or (0,) * n
    allowed = [i for i in range(n) if comps[i] is not TERM and not rounds[i]]

    local = [_moves(comps[i], prepared) for i in allowed]
    moves = []
    for combo in _combinations(local):
        new_comps = list(comps)
        for p, move in combo:
            new_comps[allowed[p]] = move[1]
        rounds2 = state.rounds
        if rounds2 is not None:
            rl = list(rounds2)
            for p, move in combo:
                entry = entries[allowed[p]]
                if entry is not None and move[1] == Var(entry):
                    rl[allowed[p]] += 1
            # rounds only mean anything for live, entried components;
            # normalize over those and zero the rest
            live = [i for i in range(n)
                    if new_comps[i] is not TERM and entries[i] is not None]
            lo = min((rl[i] for i in live), default=0)
            rounds2 = tuple(rl[i] - lo if i in live else 0 for i in range(n))
        moves.append((tuple(o for _, move in combo for o in move[0]),
                      SystemState(tuple(new_comps), rounds2)))

    out = []
    seen = set()
    for events, succ in _steps(moves, prepared.wrappers, prepared):
        label = step_label(events)
        key = (label, succ)
        if key not in seen:
            seen.add(key)
            out.append((label, succ))
    out.sort(key=lambda ls: (tuple(l.pretty() for l in ls[0]),
                             ls[1].pretty()))
    return out


# ---------------------------------------------------------------------------
# The LTS


@dataclass(frozen=True)
class StepLTS:
    initial: int
    num_states: int
    transitions: tuple   # of (src, label tuple, dst)
    state_names: tuple
    initial_dead: bool = False

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
    """Breadth-first closure of enabled steps with canonical memoization."""
    prepared = prepare_system(system, model, config)
    init = prepared.initial_state()
    index = {init: 0}
    names = [init.pretty()]
    order = [init]
    transitions = []
    head = 0
    while head < len(order):
        state = order[head]
        src = index[state]
        head += 1
        for label, succ in enabled_steps(state, prepared):
            if succ not in index:
                if len(order) >= config.max_states:
                    raise StateBudgetExceeded(config.max_states,
                                              len(order) - head)
                index[succ] = len(order)
                names.append(succ.pretty())
                order.append(succ)
            transitions.append((src, label, index[succ]))
    return StepLTS(
        initial=0,
        num_states=len(order),
        transitions=tuple(sorted(
            transitions,
            key=lambda t: (t[0], tuple(l.pretty() for l in t[1]), t[2]))),
        state_names=tuple(names),
    )


def prune_dead(lts: StepLTS) -> StepLTS:
    """Least-fixpoint removal of states from which deadlock is inevitable."""
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
    if not live[lts.initial]:
        return StepLTS(
            initial=0, num_states=1, transitions=(),
            state_names=(lts.state_names[lts.initial],),
            initial_dead=True)
    # restrict to live states reachable from the initial one
    seen = {lts.initial}
    queue = [lts.initial]
    while queue:
        for _, t in out[queue.pop()]:
            if live[t] and t not in seen:
                seen.add(t)
                queue.append(t)
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
