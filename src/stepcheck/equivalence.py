"""Equivalence checking on step LTSs.

Strong step bisimulation and (rooted) branching bisimulation via
signature-based partition refinement, weak trace inclusion via a
subset construction, minimization, divergence detection and bounded
counter monitoring.  Deadlock states are ``StepLTS.deadlock_states``.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from .semantics import StepLTS, label_str

TAU: tuple = ()


@dataclass(frozen=True)
class TraceCounterexample:
    """A weak trace one side admits and the other does not."""

    trace: tuple          # of non-tau step labels
    side: str             # "left" or "right": who admits the trace

    def pretty(self) -> str:
        shown = " ".join(label_str(l) for l in self.trace) or "<empty>"
        return f"trace {shown} is possible on the {self.side} side only"


@dataclass(frozen=True)
class StepCounterexample:
    """A distinguishing position reached by replaying matched steps."""

    trace: tuple          # labels replayed from the initial states
    reason: str

    def pretty(self) -> str:
        shown = " ".join(label_str(l) for l in self.trace) or "<initial states>"
        return f"after {shown}: {self.reason}"


@dataclass
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
# Disjoint union helper: both LTSs in one arena


def _union(left: StepLTS, right: StepLTS):
    n = left.num_states
    out = [[] for _ in range(n + right.num_states)]
    for s, a, t in left.transitions:
        out[s].append((a, t))
    for s, a, t in right.transitions:
        out[n + s].append((a, n + t))
    return out, left.initial, n + right.initial, n + right.num_states


# ---------------------------------------------------------------------------
# Partition refinement


def _sccs(succ):
    """SCCs of the graph ``succ`` (iterative Tarjan), each after all it reaches."""
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
    return sccs


def _branching_signatures(out, block):
    """Each state's (label, block) moves, also those after inert tau steps.

    Inert tau steps stay in their block.  Their SCCs come sinks first, so
    each SCC unions its own moves with the signatures of the SCCs it reaches.
    """
    inert = [[t for a, t in row if a == TAU and block[t] == block[s]]
             for s, row in enumerate(out)]
    sig = [None] * len(out)
    for comp in _sccs(inert):
        acc = set()
        for u in comp:
            b = block[u]
            acc.update((a, block[t]) for a, t in out[u]
                       if a != TAU or block[t] != b)
            for t in inert[u]:
                if sig[t] is not None:      # None: t is in this SCC
                    acc |= sig[t]
        acc = frozenset(acc)
        for u in comp:
            sig[u] = acc
    return sig


def _refine(out, total, inert):
    """Signature refinement to strong bisimilarity, or with ``inert`` branching.

    Returns the final block of every state and the blocks after each
    round, which the counterexample replays.
    """
    block = [0] * total
    n_blocks = min(total, 1)
    history = []
    while True:
        sigs = {}
        # number each key as it is built: a list of keys costs more in GC
        if inert:
            new = [sigs.setdefault(key, len(sigs))
                   for key in zip(block, _branching_signatures(out, block))]
        else:
            new = [sigs.setdefault(
                       (b, frozenset((a, block[t]) for a, t in row)), len(sigs))
                   for b, row in zip(block, out)]
        history.append(new)
        if len(sigs) == n_blocks:
            return new, history
        block, n_blocks = new, len(sigs)


# ---------------------------------------------------------------------------
# Strong step bisimulation


def strong_step_bisim(left: StepLTS, right: StepLTS) -> Verdict:
    out, init_l, init_r, total = _union(left, right)
    block, history = _refine(out, total, False)
    holds = block[init_l] == block[init_r]
    verdict = Verdict(holds, "strong step bisimulation",
                      details={"blocks": len(set(block))})
    if not holds:
        verdict.counterexample = _strong_counterexample(
            out, init_l, init_r, history)
    return verdict


def _strong_counterexample(out, init_l, init_r, history):
    """Replay the refinement: find the earliest split and a move that causes it."""
    # depth k = first refinement round at which the pair separates
    def split_round(p, q):
        for k, blocks in enumerate(history):
            if blocks[p] != blocks[q]:
                return k
        return None

    trace = []
    p, q = init_l, init_r
    for _ in range(len(history) + 1):
        k = split_round(p, q)
        if k is None:
            break
        if k == 0:
            # round 0 splits by the set of enabled step labels
            lp = frozenset(a for a, _ in out[p])
            lq = frozenset(a for a, _ in out[q])
            a = min(lp ^ lq, key=label_str)
            side = "left" if a in lp else "right"
            return StepCounterexample(
                tuple(trace),
                f"step {label_str(a)} is enabled on the {side} side only")
        # find a move of p that q cannot match at round k-1
        prev = history[k - 1]
        for a, t in sorted(out[p], key=lambda at: (label_str(at[0]), at[1])):
            matches = [t2 for a2, t2 in out[q]
                       if a2 == a and prev[t2] == prev[t]]
            if not matches:
                return StepCounterexample(
                    tuple(trace) + (a,),
                    f"the right side cannot match step {label_str(a)}")
            bad = [t2 for t2 in matches if split_round(t, t2) is not None]
            if bad:
                trace.append(a)
                p, q = t, bad[0]
                break
        else:
            return StepCounterexample(tuple(trace), "states are distinguishable")
    return StepCounterexample(tuple(trace), "states are distinguishable")


# ---------------------------------------------------------------------------
# Branching bisimulation


def branching_bisim(left: StepLTS, right: StepLTS,
                    rooted: bool = False) -> Verdict:
    out, init_l, init_r, total = _union(left, right)
    block, _ = _refine(out, total, True)
    name = ("rooted " if rooted else "") + "branching bisimulation"
    if block[init_l] == block[init_r]:
        if rooted:
            # root condition: every initial move must be matched immediately
            sig_l = frozenset((a, block[t]) for a, t in out[init_l])
            sig_r = frozenset((a, block[t]) for a, t in out[init_r])
            if sig_l != sig_r:
                only = sorted(sig_l ^ sig_r, key=lambda x: (label_str(x[0]), x[1]))
                a, _ = only[0]
                side = "left" if (a, _) in sig_l else "right"
                return Verdict(False, name, StepCounterexample(
                    (), f"root condition: initial step {label_str(a)} "
                        f"on the {side} side has no immediate match"))
        return Verdict(True, name, details={"blocks": len(set(block))})
    # prefer a weak-trace counterexample: concrete and easy to read
    traces = weak_traces_equal(left, right)
    if not traces.holds:
        return Verdict(False, name, traces.counterexample)
    return Verdict(False, name, StepCounterexample(
        (), "initial states fall into different branching classes"))


def rooted_branching_bisim(left: StepLTS, right: StepLTS) -> Verdict:
    return branching_bisim(left, right, rooted=True)


# ---------------------------------------------------------------------------
# Minimization (quotient)


def minimize(lts: StepLTS, relation: str = "branching") -> StepLTS:
    """Quotient of the LTS under strong or branching bisimilarity.

    The branching quotient drops inert tau steps; the strong quotient
    keeps every step.
    """
    out = lts.outgoing()
    if relation not in ("strong", "branching"):
        raise ValueError(f"unknown relation {relation}")
    drop_inert = relation == "branching"
    block, _ = _refine(out, lts.num_states, drop_inert)

    # renumber blocks by first reachable representative
    order: dict = {}
    queue = deque([lts.initial])
    seen = {lts.initial}
    reps: dict = {}
    while queue:
        s = queue.popleft()
        b = block[s]
        if b not in order:
            order[b] = len(order)
            reps[b] = s
        for _, t in out[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    transitions = set()
    for s, a, t in lts.transitions:
        if block[s] not in order or block[t] not in order:
            continue  # unreachable
        if drop_inert and a == TAU and block[s] == block[t]:
            continue
        transitions.add((order[block[s]], a, order[block[t]]))
    names = [""] * len(order)
    for b, i in order.items():
        names[i] = lts.state_names[reps[b]]
    return StepLTS(
        initial=order[block[lts.initial]],
        num_states=len(order),
        transitions=tuple(sorted(
            transitions,
            key=lambda tr: (tr[0], label_str(tr[1]), tr[2]))),
        state_names=tuple(names),
        initial_dead=lts.initial_dead,
    )


# ---------------------------------------------------------------------------
# Weak traces


def _tau_closure(states, out):
    closure = set(states)
    stack = list(states)
    while stack:
        s = stack.pop()
        for a, t in out[s]:
            if a == TAU and t not in closure:
                closure.add(t)
                stack.append(t)
    return frozenset(closure)


def weak_trace_inclusion(left: StepLTS, right: StepLTS) -> Verdict:
    """Every weak (tau-abstracted) trace of `left` is a trace of `right`.

    On failure the counterexample is a shortest left-only trace.
    """
    out_l = left.outgoing()
    out_r = right.outgoing()
    start = (_tau_closure({left.initial}, out_l),
             _tau_closure({right.initial}, out_r))
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (ls, rs), trace = queue.popleft()
        moves: dict = {}
        for s in ls:
            for a, t in out_l[s]:
                if a != TAU:
                    moves.setdefault(a, set()).add(t)
        # prefer small steps: counterexamples read best with singleton labels
        for a in sorted(moves, key=lambda a: (len(a), label_str(a))):
            nl = _tau_closure(moves[a], out_l)
            nr_core = {t for s in rs for a2, t in out_r[s] if a2 == a}
            if not nr_core:
                return Verdict(
                    False, "weak trace inclusion",
                    TraceCounterexample(trace + (a,), "left"))
            nr = _tau_closure(nr_core, out_r)
            nxt = (nl, nr)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, trace + (a,)))
    return Verdict(True, "weak trace inclusion")


def weak_traces_equal(left: StepLTS, right: StepLTS) -> Verdict:
    a = weak_trace_inclusion(left, right)
    if not a.holds:
        return a
    b = weak_trace_inclusion(right, left)
    if not b.holds:
        return Verdict(False, "weak trace inclusion",
                       TraceCounterexample(b.counterexample.trace, "right"))
    return Verdict(True, "weak trace inclusion")


# ---------------------------------------------------------------------------
# Analyses


def divergences(lts: StepLTS) -> tuple:
    """States lying on a cycle of tau steps."""
    taus = [[t for a, t in row if a == TAU] for row in lts.outgoing()]
    return tuple(sorted(s for comp in _sccs(taus) for s in comp
                        if len(comp) > 1 or s in taus[s]))


def counter_monitor(lts: StepLTS, inc, dec, lo: int, hi: int) -> Verdict:
    """Check that a counter driven by the step labels stays within [lo, hi].

    `inc` and `dec` are predicates on individual labels; a step's net effect
    is the number of increment labels minus the number of decrement labels
    it carries.
    """
    out = lts.outgoing()
    seen = {(lts.initial, 0)}
    queue = deque([((lts.initial, 0), ())])
    while queue:
        (s, c), trace = queue.popleft()
        for a, t in out[s]:
            delta = sum(1 for l in a if inc(l)) - sum(1 for l in a if dec(l))
            c2 = c + delta
            if c2 < lo or c2 > hi:
                return Verdict(
                    False, f"counter stays in [{lo}, {hi}]",
                    StepCounterexample(
                        trace + (a,),
                        f"counter reaches {c2}, outside [{lo}, {hi}]"))
            if (t, c2) not in seen:
                seen.add((t, c2))
                queue.append(((t, c2), trace + (a,)))
    return Verdict(True, f"counter stays in [{lo}, {hi}]")


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
