"""Equivalence checking on step LTSs.

Strong step bisimulation and (rooted) branching bisimulation via
signature-based partition refinement, weak trace inclusion via a
subset construction, minimization, divergence detection and bounded
counter monitoring.  Deadlock states are ``StepLTS.deadlock_states``.
"""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import field
from itertools import count, islice
from operator import add
from typing import Optional

from .semantics import StepLTS, label_str
from .terms import record

TAU: tuple = ()


@record(frozen=True)
class TraceCounterexample:
    """A weak trace one side admits and the other does not."""

    trace: tuple          # of non-tau step labels
    side: str             # "left" or "right": who admits the trace

    def pretty(self) -> str:
        shown = " ".join(label_str(l) for l in self.trace) or "<empty>"
        return f"trace {shown} is possible on the {self.side} side only"


@record(frozen=True)
class StepCounterexample:
    """A distinguishing position reached by replaying matched steps."""

    trace: tuple          # labels replayed from the initial states
    reason: str

    def pretty(self) -> str:
        shown = " ".join(label_str(l) for l in self.trace) or "<initial states>"
        return f"after {shown}: {self.reason}"


@record
class Verdict:
    holds: bool
    relation: str
    counterexample: Optional[object] = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.holds

    def pretty(self) -> str:
        status = "holds" if self.holds else "fails"
        line = f"{self.relation} {status}"
        if self.counterexample is not None:
            line += f": {self.counterexample.pretty()}"
        return line


# ---------------------------------------------------------------------------
# Disjoint union helper: LTSs in one arena


class _Arena:
    """The states of one or more LTSs, numbered in one range, and their
    moves.

    ``moves[s]`` holds the label ids of state s's moves, each times the
    number of states, and ``succ[s]`` their targets, in the same order;
    both are tuples of int objects shared between the rows.
    """

    __slots__ = ("moves", "succ")

    def __init__(self, moves, succ):
        self.moves, self.succ = moves, succ

    def __len__(self):
        return len(self.succ)


def _union(*ltss):
    """The states of ``ltss`` in one arena, those of each LTS after those
    of the ones before it.

    The labels are numbered in order of first appearance in the LTSs'
    label tables, tau as 0.  Each table is mapped to these ids once, and
    each state's moves are read from the columns through the offsets, so
    no label is hashed per transition.  Returns the arena, the labels by
    id, and each LTS's initial state in the arena.
    """
    n = sum(lts.num_states for lts in ltss)
    states = list(range(n))
    ids = {TAU: 0}
    moves, succ, initials = [], [], []
    for lts in ltss:
        base = len(succ)
        scaled = [ids.setdefault(a, len(ids)) * n for a in lts.labels]
        ms = list(map(scaled.__getitem__, lts.label_ids))
        ts = list(map(states[base:base + lts.num_states].__getitem__,
                      lts.targets))
        for lo, hi in zip(lts.offsets, islice(lts.offsets, 1, None)):
            moves.append(tuple(ms[lo:hi]))
            succ.append(tuple(ts[lo:hi]))
        initials.append(base + lts.initial)
    return (_Arena(moves, succ), tuple(ids), *initials)


# ---------------------------------------------------------------------------
# Partition refinement
#
# Block ids are below the number of states, so a (label id, block) move of
# a signature is the one integer ``label id * len(out) + block``: the
# arena's scaled label id plus the target's block.


def _sccs(out):
    """The tau successors of each state of the arena ``out``, and the SCCs
    of its tau steps (iterative Tarjan), each after all it reaches."""
    succ = [[t for m, t in zip(ms, ts) if not m]
            for ms, ts in zip(out.moves, out.succ)]
    n = len(succ)
    index = [0] * n     # visit order from 1; 0: not visited, n + 1: emitted
    low = [0] * n
    order = count(1)
    stack, sccs = [], []
    for root in range(n):
        if index[root]:
            continue
        index[root] = low[root] = next(order)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not index[w]:
                    index[w] = low[w] = next(order)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = n + 1
                    sccs.append(comp)
    return succ, sccs


def _signatures(out, block, tau_sccs):
    """Each state's branching signature, its (label, block) moves, given
    ``tau_sccs``, what ``_sccs`` returns for ``out``.

    A tau step that stays in its block is inert: as a move it is the one
    integer ``block``, and the state also gets the moves of its target.
    States on one tau cycle are branching bisimilar, so every round of
    refinement keeps each tau SCC in one block, and the inert steps' SCCs
    are the tau SCCs.  Those come sinks first, so each SCC unions its own
    moves with the signatures of the SCCs it reaches by inert steps.
    """
    moves, succ, at = out.moves, out.succ, block.__getitem__
    taus, sccs = tau_sccs
    sig = [None] * len(block)
    for comp in sccs:
        b = block[comp[0]]
        acc = set()
        for u in comp:
            acc.update(map(add, moves[u], map(at, succ[u])))
            for t in taus[u]:
                if sig[t] is not None and at(t) == b:   # None: t in comp
                    acc |= sig[t]
        acc.discard(b)
        acc = frozenset(acc)
        for u in comp:
            sig[u] = acc
    return sig


def _splits(out, block, size, dirty, tau_sccs):
    """Re-sign the ``dirty`` states; the parts that leave their blocks.

    After round 0 a strong round re-signs the predecessors of the states
    that moved in the round before.  Each of them has a move into a block
    that is new since then, and no other state has one, so the untouched
    rest of a block, ``size`` less its dirty states, is a part of its own
    and keeps the block.  A block with no rest keeps it for its largest
    part.  Every other part leaves.
    """
    moves, succ, at = out.moves, out.succ, block.__getitem__
    sigs = _signatures(out, block, tau_sccs) if tau_sccs else None
    touched = {}
    for s in dirty:
        key = (sigs[s] if tau_sccs
               else frozenset(map(add, moves[s], map(at, succ[s]))))
        touched.setdefault(block[s], {}).setdefault(key, []).append(s)
    parts = []
    for b, groups in touched.items():
        groups = list(groups.values())
        if size[b] > sum(map(len, groups)):
            parts += groups
        elif len(groups) > 1:
            keep = max(groups, key=len)
            parts += (g for g in groups if g is not keep)
    return parts


def _refine(out, tau_sccs):
    """Signature refinement to strong bisimilarity, or with ``tau_sccs``,
    what ``_sccs`` returns for ``out``, to branching bisimilarity.

    Yields every state's block after each round; the last round is
    stable.  The rounds alternate between two lists.  Resumed after round
    k, the generator brings the list of round k - 1 up to date on the
    states that moved in round k, and round k + 1 writes its splits into
    that list.  So the list yielded for round k - 1 still holds that round
    while round k is read, with no copy: a round costs time in proportion
    to the states it re-signs and those that moved.

    Block ids are stable: a block that splits keeps its id for one part,
    and each other part takes the next free id, so every id names a
    nonempty block and is below ``len(out)``.  A strong signature can then
    change only if a successor moved, so each strong round re-signs only
    the predecessors of the states that moved in the round before.
    Branching signatures follow inert closures, which any split can
    change, so every branching round re-signs every state, in the order of
    ``tau_sccs``.  A round computes all its splits against the ids of the
    round before.  The partitions are those of re-signing every state in
    every round, but their ids are not numbered by first appearance.
    """
    total = len(out)
    block, older = [0] * total, [0] * total
    size = [total]      # states per block id
    if not tau_sccs:
        pred = [[] for _ in range(total)]
        for s, ts in enumerate(out.succ):
            for t in ts:
                pred[t].append(s)
    dirty = range(total)
    while True:
        parts = _splits(out, block, size, dirty, tau_sccs)
        for part in parts:
            size[block[part[0]]] -= len(part)
            new = len(size)
            size.append(len(part))
            for s in part:
                older[s] = new
        block, older = older, block
        yield block
        if not parts:
            return
        for part in parts:      # older: from round k - 1 to round k
            for s in part:
                older[s] = block[s]
        if not tau_sccs:
            dirty = {p for part in parts for s in part for p in pred[s]}


def _unmatched(out, labels, block, p, q, tau_sccs=None):
    """The label of the least (label, block) move that only one of the
    states p (the left side) and q (the right) has, over ``block``
    renumbered by first appearance, and that side; None if there is none.

    Only p and q are signed, each as ``_signatures`` signs it: with
    ``tau_sccs``, with the moves of the states it reaches by inert tau
    steps, less the inert step itself.
    """
    first = {b: i for i, b in enumerate(dict.fromkeys(block))}
    moves, succ = out.moves, out.succ

    def at(s):
        return first[block[s]]

    def signature(s):
        b = at(s)
        reached, stack = {s}, [s]
        while tau_sccs and stack:
            for t in tau_sccs[0][stack.pop()]:
                if t not in reached and at(t) == b:
                    reached.add(t)
                    stack.append(t)
        sig = {m for u in reached for m in map(add, moves[u], map(at, succ[u]))}
        if tau_sccs:
            sig.discard(b)
        return sig

    left, right = signature(p), signature(q)
    total = len(out)
    move = min(left ^ right, default=None,
               key=lambda m: (label_str(labels[m // total]), m % total))
    if move is None:
        return None
    return labels[move // total], "left" if move in left else "right"


def _explain(out, labels, p, q, tau_sccs, prev):
    """Why states p (left) and q (right) differ, split in the round after
    the one whose blocks are ``prev``, or in round 0 if ``prev`` is None:
    a move one side has and the other cannot match at the round before
    (Cleaveland 1990).
    """
    a, side = _unmatched(out, labels, prev or [0] * len(out), p, q, tau_sccs)
    if prev is None:
        return StepCounterexample(
            (), f"step {label_str(a)} is enabled on the {side} side only")
    other = "right" if side == "left" else "left"
    return StepCounterexample(
        (a,), f"the {other} side cannot match step {label_str(a)}")


# ---------------------------------------------------------------------------
# Bisimulation checks


def _bisim(left, right, name, inert, rooted=False):
    """Refine the union of ``left`` and ``right`` until their initial
    states split or the partition is stable.

    A failed check names a counterexample, for a branching check a weak
    trace one side only has if there is one; a check that holds reports
    its number of blocks.  A rooted check also compares the initial
    states' own moves over the stable blocks.
    """
    out, labels, p, q = _union(left, right)
    tau_sccs = _sccs(out) if inert else None
    prev = None         # the blocks of the round before
    for block in _refine(out, tau_sccs):
        if block[p] != block[q]:
            # prefer a weak-trace counterexample: concrete and easy to read
            cx = tau_sccs and _trace_counterexample(out, labels, p, q)
            return Verdict(False, name, cx or _explain(
                out, labels, p, q, tau_sccs, prev))
        prev = block
    # root condition: every initial move must be matched immediately
    unmatched = _unmatched(out, labels, block, p, q) if rooted else None
    if unmatched is not None:
        a, side = unmatched
        return Verdict(False, name, StepCounterexample(
            (), f"root condition: initial step {label_str(a)} "
                f"on the {side} side has no immediate match"))
    return Verdict(True, name, details={"blocks": len(set(block))})


def strong_step_bisim(left: StepLTS, right: StepLTS) -> Verdict:
    return _bisim(left, right, "strong step bisimulation", False)


def branching_bisim(left: StepLTS, right: StepLTS,
                    rooted: bool = False) -> Verdict:
    name = ("rooted " if rooted else "") + "branching bisimulation"
    return _bisim(left, right, name, True, rooted)


def rooted_branching_bisim(left: StepLTS, right: StepLTS) -> Verdict:
    return branching_bisim(left, right, rooted=True)


# ---------------------------------------------------------------------------
# Minimization (quotient)


def minimize(lts: StepLTS, relation: str = "branching") -> StepLTS:
    """Quotient of the LTS under strong or branching bisimilarity.

    The branching quotient drops inert tau steps; the strong quotient
    keeps every step.  Blocks are numbered in the order a breadth-first
    walk from the initial state reaches them, and the transitions are
    sorted by (source, label text, target), labels of one text in their
    order in ``lts``'s label table.
    """
    if relation not in ("strong", "branching"):
        raise ValueError(f"unknown relation {relation}")
    out, _, _ = _union(lts)
    tau_sccs = _sccs(out) if relation == "branching" else None
    block = deque(_refine(out, tau_sccs), maxlen=1).pop()   # the stable one

    # renumber blocks by first reachable representative
    queue = deque([lts.initial])
    seen = {lts.initial}
    reps: dict = {}     # block -> the first of its states reached
    while queue:
        s = queue.popleft()
        reps.setdefault(block[s], s)
        for t in out.succ[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    order = {b: i for i, b in enumerate(reps)}
    # each label once, ranked by its text; labels of one text keep their
    # order of first appearance
    labels = sorted(dict.fromkeys(lts.labels), key=label_str)
    rank = {a: r for r, a in enumerate(labels)}
    ranks = [rank[a] for a in lts.labels]
    edges = set()
    for s, i, t in zip(lts.sources, lts.label_ids, lts.targets):
        s, t = order.get(block[s]), order.get(block[t])
        if s is None or t is None:
            continue  # unreachable
        if not (tau_sccs and s == t and lts.labels[i] == TAU):
            edges.add((s, ranks[i], t))
    names = tuple(lts.state_names[reps[b]] for b in order)
    columns = zip(*sorted(edges)) if edges else ((), (), ())
    return StepLTS.from_columns(
        order[block[lts.initial]], len(order), names,
        *(array("i", c) for c in columns), tuple(labels))


# ---------------------------------------------------------------------------
# Weak traces


def _tau_closure(states, out):
    closure = set(states)
    stack = list(states)
    moves, succ = out.moves, out.succ
    while stack:
        s = stack.pop()
        for m, t in zip(moves[s], succ[s]):
            if not m and t not in closure:
                closure.add(t)
                stack.append(t)
    return frozenset(closure)


def _weak_trace(out, labels, p, q, side="left"):
    """A shortest weak (tau-abstracted) trace of state ``p`` that state
    ``q`` lacks, both states of the union ``out``, as a counterexample
    whose ``side`` admits it; or None."""
    moves, succ, n = out.moves, out.succ, len(out)
    start = (_tau_closure({p}, out), _tau_closure({q}, out))
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (ls, rs), trace = queue.popleft()
        after: dict = {}    # scaled label id -> targets
        for s in ls:
            for m, t in zip(moves[s], succ[s]):
                if m:
                    after.setdefault(m, set()).add(t)
        # prefer small steps: counterexamples read best with singleton labels
        for m in sorted(after, key=lambda m: (len(labels[m // n]),
                                              label_str(labels[m // n]))):
            longer = trace + (labels[m // n],)
            nl = _tau_closure(after[m], out)
            nr_core = {t for s in rs for m2, t in zip(moves[s], succ[s])
                       if m2 == m}
            if not nr_core:
                return TraceCounterexample(longer, side)
            nr = _tau_closure(nr_core, out)
            nxt = (nl, nr)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, longer))
    return None


def _trace_counterexample(out, labels, p, q):
    """A shortest weak trace that only one of the states ``p`` (the left
    side) and ``q`` (the right) has, p's first, or None."""
    return (_weak_trace(out, labels, p, q)
            or _weak_trace(out, labels, q, p, "right"))


def weak_trace_inclusion(left: StepLTS, right: StepLTS) -> Verdict:
    """Every weak (tau-abstracted) trace of `left` is a trace of `right`.

    On failure the counterexample is a shortest left-only trace.
    """
    cx = _weak_trace(*_union(left, right))
    return Verdict(cx is None, "weak trace inclusion", cx)


def weak_traces_equal(left: StepLTS, right: StepLTS) -> Verdict:
    """`left` and `right` have the same weak traces; on failure the
    counterexample is a shortest trace of one side only, left's first."""
    cx = _trace_counterexample(*_union(left, right))
    return Verdict(cx is None, "weak trace equivalence", cx)


# ---------------------------------------------------------------------------
# Analyses


def divergences(lts: StepLTS) -> tuple:
    """States lying on a cycle of tau steps."""
    taus, sccs = _sccs(_union(lts)[0])
    return tuple(sorted(s for comp in sccs for s in comp
                        if len(comp) > 1 or s in taus[s]))


def counter_monitor(lts: StepLTS, inc, dec, lo: int, hi: int) -> Verdict:
    """Check that a counter driven by the step labels stays within [lo, hi].

    The counter starts at 0.  `inc` and `dec` are predicates on individual
    labels; a step's net effect is the number of increment labels minus
    the number of decrement labels it carries.
    """
    name = f"counter stays in [{lo}, {hi}]"
    if not lo <= 0 <= hi:
        return Verdict(False, name, StepCounterexample(
            (), f"counter starts at 0, outside [{lo}, {hi}]"))
    out, labels, init = _union(lts)
    moves, succ, n = out.moves, out.succ, len(out)
    seen = {(init, 0)}
    queue = deque([((init, 0), ())])
    while queue:
        (s, c), trace = queue.popleft()
        for m, t in zip(moves[s], succ[s]):
            a = labels[m // n]
            c2 = c + sum(1 for l in a if inc(l)) - sum(1 for l in a if dec(l))
            if c2 < lo or c2 > hi:
                return Verdict(False, name, StepCounterexample(
                    trace + (a,),
                    f"counter reaches {c2}, outside [{lo}, {hi}]"))
            if (t, c2) not in seen:
                seen.add((t, c2))
                queue.append(((t, c2), trace + (a,)))
    return Verdict(True, name)


# ---------------------------------------------------------------------------
# Dispatch


def check_relation(relation: str, left: StepLTS, right: StepLTS) -> Verdict:
    if relation == "strong-step-bisim":
        return strong_step_bisim(left, right)
    if relation == "branching-bisim":
        return branching_bisim(left, right)
    if relation == "rooted-branching-bisim":
        return rooted_branching_bisim(left, right)
    if relation == "weak-trace-inclusion":
        return weak_trace_inclusion(left, right)
    raise ValueError(f"unknown relation {relation}")
