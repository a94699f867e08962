from dataclasses import replace
from unittest import mock

from hypothesis import given, settings, strategies as st

import stepcheck as sc
from stepcheck import equivalence
from stepcheck.dsl import parse_model
from stepcheck.equivalence import (
    TAU,
    StepCounterexample,
    TraceCounterexample,
    branching_bisim,
    counter_monitor,
    divergences,
    minimize,
    rooted_branching_bisim,
    strong_step_bisim,
    weak_trace_inclusion,
    weak_traces_equal,
)
from stepcheck.semantics import (
    Config,
    StepLTS,
    generate_lts,
    label_str,
    prune_dead,
)
from stepcheck.terms import ActionLabel, Var


def lts_of(source, system="P", **cfg):
    model = parse_model(source)
    term = model.systems.get(system, Var(system))
    return generate_lts(term, model, Config(**cfg))


LOOP_A = "process P { P = a . P }"
LOOP_B = "process P { P = b . P }"


class TestStrong:
    def test_reflexive(self, ws_model):
        lts = generate_lts(Var("WSOA"), ws_model, Config())
        assert strong_step_bisim(lts, lts).holds

    def test_label_mismatch(self):
        verdict = strong_step_bisim(lts_of(LOOP_A), lts_of(LOOP_B))
        assert not verdict.holds
        cx = verdict.counterexample
        assert isinstance(cx, StepCounterexample)
        assert "a" in cx.reason or "{a}" in cx.reason

    def test_distinguishes_depth(self):
        one = lts_of("process P { P = a . delta }")
        two = lts_of("process P { P = a . a . delta }")
        verdict = strong_step_bisim(one, two)
        assert not verdict.holds

    def test_counterexample_replays(self):
        left = lts_of("process P { P = a . b . delta + a . c . delta }")
        right = lts_of("process P { P = a . (b . delta + c . delta) }")
        verdict = strong_step_bisim(left, right)
        assert not verdict.holds
        # every label on the counterexample trace is an actual step label
        cx = verdict.counterexample
        labels = {a for _, a, _ in left.transitions}
        assert all(step in labels for step in cx.trace)

    def test_split_after_one_round_names_the_step(self):
        # both sides offer {a} first, so the split comes at round 1: the
        # answer names the step whose targets differ, not "distinguishable"
        left = lts_of("process P { P = a . b . delta + a . c . delta }")
        right = lts_of("process P { P = a . (b . delta + c . delta) }")
        cx = strong_step_bisim(left, right).counterexample
        assert cx.pretty() == "after {a}: the right side cannot match step {a}"

    def test_unmatched_move_of_the_right_side_is_named(self):
        # the right side's {a} into c . delta has no match on the left
        left = lts_of("process P { P = a . b . delta }")
        right = lts_of("process P { P = a . b . delta + a . c . delta }")
        cx = strong_step_bisim(left, right).counterexample
        assert cx.pretty() == "after {a}: the left side cannot match step {a}"


class TestBranching:
    def test_inert_tau_is_ignored(self):
        silent = lts_of("process P { P = a . Q\n Q = b . P }\n"
                        "system S = hide {b} in P", "S")
        loop = lts_of("process P { P = a . P }", "P")
        assert branching_bisim(silent, loop).holds
        assert strong_step_bisim(silent, loop).holds is False

    def test_tau_guarding_a_choice_is_not_inert(self):
        left = lts_of("process P { P = a . delta + b . delta }")
        right = lts_of("process P { P = a . delta + c . b . delta }\n"
                       "system S = hide {c} in P", "S")
        assert not branching_bisim(left, right).holds

    def test_rooted_rejects_initial_tau(self, ws_model):
        hidden = generate_lts(ws_model.systems["AbstractA"], ws_model, Config())
        ref = generate_lts(Var("ABA_REF"), ws_model, Config())
        assert branching_bisim(hidden, ref).holds
        verdict = rooted_branching_bisim(hidden, ref)
        assert not verdict.holds
        assert "root condition" in verdict.counterexample.reason

    def test_failure_gives_trace_counterexample(self):
        verdict = branching_bisim(lts_of(LOOP_A), lts_of(LOOP_B))
        assert not verdict.holds
        assert isinstance(verdict.counterexample, TraceCounterexample)

    def test_equal_weak_traces_explained_by_the_split_round(self):
        left = lts_of("process P { P = a . b . delta + a . c . delta }")
        right = lts_of("process P { P = a . (b . delta + c . delta) }")
        verdict = branching_bisim(left, right)
        assert not verdict.holds
        assert (verdict.counterexample.pretty()
                == "after {a}: the right side cannot match step {a}")


class TestMinimize:
    def test_quotient_is_branching_equivalent(self, ws_model):
        lts = prune_dead(generate_lts(
            ws_model.systems["Sys"], ws_model, Config(round_mode="barrier")))
        small = minimize(lts, "branching")
        assert branching_bisim(lts, small).holds
        assert small.num_states < lts.num_states

    def test_idempotent(self, ws_model):
        lts = generate_lts(Var("WSOA"), ws_model, Config())
        once = minimize(lts, "branching")
        twice = minimize(once, "branching")
        assert once.num_states == twice.num_states
        assert len(once.transitions) == len(twice.transitions)

    def test_tau_self_loop_dropped(self):
        lts = lts_of("process P { P = a . P }\nsystem S = hide {a} in P", "S")
        small = minimize(lts, "branching")
        assert small.num_states == 1 and small.transitions == ()

    def test_strong_quotient_keeps_tau(self):
        lts = lts_of("process P { P = a . P }\nsystem S = hide {a} in P", "S")
        small = minimize(lts, "strong")
        assert len(small.transitions) == 1
        assert small.transitions[0][1] == TAU


class TestWeakTraces:
    def test_inclusion_of_subset_behavior(self):
        sub = lts_of("process P { P = a . delta }")
        sup = lts_of("process P { P = a . delta + b . delta }")
        assert weak_trace_inclusion(sub, sup).holds
        back = weak_trace_inclusion(sup, sub)
        assert not back.holds
        assert back.counterexample.trace == ((ActionLabel("b"),),)

    def test_empty_behavior_included_in_anything(self):
        empty = lts_of("process P { P = delta }")
        assert weak_trace_inclusion(empty, lts_of(LOOP_A)).holds

    def test_equality_both_directions(self, ws_model):
        cfg = Config(round_mode="barrier")
        sys_lts = prune_dead(generate_lts(
            ws_model.systems["Sys"], ws_model, cfg))
        spec = generate_lts(Var("SPEC"), ws_model, cfg)
        assert weak_traces_equal(sys_lts, spec).holds

    def test_shortest_counterexample(self):
        left = lts_of("process P { P = a . a . a . delta }")
        right = lts_of("process P { P = a . a . delta }")
        verdict = weak_trace_inclusion(left, right)
        assert len(verdict.counterexample.trace) == 3


class TestAnalyses:
    def test_divergence_from_hidden_loop(self):
        lts = lts_of("process P { P = hide {a} in a . P }", "P")
        assert len(divergences(lts)) == 1

    def test_no_divergence_without_tau_cycle(self):
        assert divergences(lts_of(LOOP_A)) == ()

    def test_deadlock_detection_binary_policy(self, ws_model):
        cfg = Config(comm_policy="binary", round_mode="barrier")
        lts = generate_lts(ws_model.systems["Sys"], ws_model, cfg)
        assert lts.deadlock_states() != ()

    def test_no_deadlock_chained_barrier(self, ws_model):
        cfg = Config(comm_policy="chained", round_mode="barrier")
        lts = generate_lts(ws_model.systems["Sys"], ws_model, cfg)
        assert prune_dead(lts).deadlock_states() == ()


class TestCounterMonitor:
    @staticmethod
    def _inc(label):
        return isinstance(label, ActionLabel) and label.name == "a"

    @staticmethod
    def _dec(label):
        return isinstance(label, ActionLabel) and label.name == "b"

    def test_alternation_within_bounds(self):
        lts = lts_of("process P { P = a . b . P }")
        assert counter_monitor(lts, self._inc, self._dec, 0, 1).holds

    def test_violation_reports_trace(self):
        lts = lts_of("process P { P = a . a . b . b . P }")
        verdict = counter_monitor(lts, self._inc, self._dec, 0, 1)
        assert not verdict.holds
        assert "2" in verdict.counterexample.reason


# ---------------------------------------------------------------------------
# Differential tests: the refinement engine, divergences and prune_dead
# against the straightforward loops they replaced.


def reference_blocks(out, total, inert):
    """Signature refinement that rebuilds each state's inert-tau closure."""
    block = [0] * total
    history = []
    while True:
        sigs = {}
        new_block = [0] * total
        for s in range(total):
            closure = [s]
            if inert:
                for u in closure:
                    for a, t in out[u]:
                        if a == TAU and block[t] == block[s] and t not in closure:
                            closure.append(t)
            sig = frozenset((a, block[t]) for u in closure for a, t in out[u]
                            if not (inert and a == TAU and block[t] == block[s]))
            new_block[s] = sigs.setdefault((block[s], sig), len(sigs))
        history.append(new_block)
        if len(set(new_block)) == len(set(block)):
            return new_block, history
        block = new_block


def reference_divergences(lts):
    """States that reach themselves by one or more tau steps, by DFS each."""
    out = lts.outgoing()
    result = []
    for s in range(lts.num_states):
        stack = [t for a, t in out[s] if a == TAU]
        seen = set()
        while stack:
            u = stack.pop()
            if u == s:
                result.append(s)
                break
            if u not in seen:
                seen.add(u)
                stack.extend(t for a, t in out[u] if a == TAU)
    return tuple(result)


def reference_prune_dead(lts):
    """The fixpoint loop: mark states whose successors are all dead until stable."""
    out = lts.outgoing()
    dead = [False] * lts.num_states
    changed = True
    while changed:
        changed = False
        for s in range(lts.num_states):
            if not dead[s] and all(dead[t] for _, t in out[s]):
                dead[s] = changed = True
    if dead[lts.initial]:
        return StepLTS(initial=0, num_states=1, transitions=(),
                       state_names=(lts.state_names[lts.initial],),
                       initial_dead=True)
    keep = set()
    stack = [lts.initial]
    while stack:
        s = stack.pop()
        if s not in keep:
            keep.add(s)
            stack.extend(t for _, t in out[s] if not dead[t])
    keep = sorted(keep)
    remap = {s: i for i, s in enumerate(keep)}
    return StepLTS(
        initial=remap[lts.initial], num_states=len(keep),
        transitions=tuple((remap[s], a, remap[t]) for s, a, t in lts.transitions
                          if s in remap and t in remap),
        state_names=tuple(lts.state_names[s] for s in keep))


def renamed(block):
    """Block numbers replaced by their order of first appearance."""
    first = {}
    return [first.setdefault(b, len(first)) for b in block]


_A, _B = ActionLabel("a"), ActionLabel("b")
# tau is listed three times so that tau cycles and self-loops are common
_LABELS = (TAU, TAU, TAU, (_A,), (_B,), (_A, _B))


@st.composite
def random_lts(draw):
    """A small LTS with tau cycles, multi-event labels and unreachable states."""
    n = draw(st.integers(1, 9))
    state = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(state, st.sampled_from(_LABELS), state),
                          max_size=3 * n))
    return StepLTS(
        initial=draw(state), num_states=n,
        transitions=tuple(sorted(set(edges), key=repr)),
        state_names=tuple(f"s{i}" for i in range(n)))


class TestRefinementDifferential:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(random_lts(), random_lts(), st.booleans())
    def test_partition_matches_reference(self, left, right, inert):
        out, _, _, total = equivalence._union(left, right)
        block, history = equivalence._refine(out, total, inert)
        ref_block, ref_history = reference_blocks(out, total, inert)
        assert renamed(block) == renamed(ref_block)
        assert len(history) == len(ref_history)
        assert ([renamed(b) for b in history]
                == [renamed(b) for b in ref_history])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(random_lts(), st.sampled_from(("strong", "branching")))
    def test_minimize_matches_reference(self, lts, relation):
        quotient = minimize(lts, relation)
        with mock.patch.object(equivalence, "_refine", reference_blocks):
            assert quotient == minimize(lts, relation)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(random_lts())
    def test_divergences_match_reference(self, lts):
        assert divergences(lts) == reference_divergences(lts)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(random_lts())
    def test_prune_dead_matches_reference(self, lts):
        assert prune_dead(lts) == reference_prune_dead(lts)


UNEXPLAINED = ("states are distinguishable",
               "initial states fall into different branching classes")


@st.composite
def lts_pair(draw):
    """Two random LTSs, or one and a copy with a transition added or removed.

    The copies tend to split after round 0, where a step is unmatched.
    """
    left = draw(random_lts())
    if draw(st.booleans()):
        return left, draw(random_lts())
    state = st.integers(0, left.num_states - 1)
    edge = draw(st.tuples(state, st.sampled_from(_LABELS), state))
    return left, replace(left, transitions=tuple(
        sorted(set(left.transitions) ^ {edge}, key=repr)))


def claimed_move(cx, moves):
    """The label and the side a step counterexample says only one side has."""
    for side, other in (("left", "right"), ("right", "left")):
        for a, _ in moves[side]:
            if (cx.trace == () and cx.reason
                    == f"step {label_str(a)} is enabled on the {side} side only"):
                return a, side, other
            if (cx.trace == (a,) and cx.reason
                    == f"the {other} side cannot match step {label_str(a)}"):
                return a, side, other
    raise AssertionError(f"no move of either side fits {cx.pretty()!r}")


class TestExplanation:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(lts_pair())
    def test_strong_counterexample_is_sound(self, pair):
        left, right = pair
        verdict = strong_step_bisim(left, right)
        if verdict.holds:
            return
        out, p, q, total = equivalence._union(left, right)
        block, _ = reference_blocks(out, total, False)
        moves = {"left": out[p], "right": out[q]}
        a, side, other = claimed_move(verdict.counterexample, moves)
        targets = [t for b, t in moves[other] if b == a]
        if not verdict.counterexample.trace:
            assert not targets
        else:
            assert any(all(block[t] != block[u] for u in targets)
                       for b, t in moves[side] if b == a)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(lts_pair())
    def test_every_failure_is_explained(self, pair):
        left, right = pair
        for check in (strong_step_bisim, branching_bisim,
                      rooted_branching_bisim):
            verdict = check(left, right)
            if not verdict.holds:
                assert not any(u in verdict.pretty() for u in UNEXPLAINED)
