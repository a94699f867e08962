import functools
import itertools
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import stepcheck as sc
from stepcheck import equivalence
from stepcheck.composition import _relabel
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
    sorted_label,
)
from stepcheck.terms import ActionLabel, CommResultLabel, Var

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import families  # noqa: E402


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

    # the trace counterexample is searched on the check's own union
    @pytest.mark.parametrize("left, right, side", [
        (LOOP_A, LOOP_B, "left"),
        ("process P { P = a . delta }",
         "process P { P = a . delta + b . delta }", "right"),
        ("process P { P = a . b . delta + a . c . delta }",
         "process P { P = a . (b . delta + c . delta) }", None),
    ], ids=["left", "right", "equal-traces"])
    def test_failure_builds_one_union(self, left, right, side):
        left, right = lts_of(left), lts_of(right)
        with mock.patch.object(equivalence, "_union",
                               wraps=equivalence._union) as union:
            verdict = branching_bisim(left, right)
        assert not verdict.holds and union.call_count == 1
        assert getattr(verdict.counterexample, "side", None) == side

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

    def test_labels_of_one_text_keep_their_table_order(self):
        # the action c and the result of comm a, b -> c both read {c}; the
        # two dead ends are one block, so only the labels order the steps
        c = (ActionLabel("c"),)
        comm = (CommResultLabel(("a", "b"), "c"),)
        for first, second in ((c, comm), (comm, c)):
            lts = StepLTS(0, 3, ((0, first, 1), (0, second, 2)),
                          ("s0", "s1", "s2"))
            for relation in ("strong", "branching"):
                assert minimize(lts, relation).transitions == (
                    (0, first, 1), (0, second, 1))


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

    def test_equality_is_named_weak_trace_equivalence(self):
        hidden = lts_of("process P { P = hide {b} in b . a . P }")
        assert (weak_traces_equal(lts_of(LOOP_A), hidden).pretty()
                == "weak trace equivalence holds")
        assert weak_traces_equal(lts_of(LOOP_A), lts_of(LOOP_B)).pretty() == (
            "weak trace equivalence fails: "
            "trace {a} is possible on the left side only")

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

    # the counter starts at 0: a range without 0 fails before any step
    @pytest.mark.parametrize("source, lo, hi", [
        ("process P { P = delta }", 1, 3),
        (LOOP_A, 1, 1),
        (LOOP_A, -2, -1),
    ], ids=["no-steps", "loop", "below"])
    def test_range_without_the_start_fails_at_once(self, source, lo, hi):
        verdict = counter_monitor(lts_of(source), self._inc, self._dec, lo, hi)
        assert verdict.pretty() == (
            f"counter stays in [{lo}, {hi}] fails: after <initial states>: "
            f"counter starts at 0, outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Differential tests: the refinement engine, divergences and prune_dead
# against the straightforward loops they replaced.


def arena_rows(out):
    """The moves of the arena ``out`` as rows of (label id, target) pairs."""
    n = len(out)
    return [[(m // n, t) for m, t in zip(ms, ts)]
            for ms, ts in zip(out.moves, out.succ)]


def reference_blocks(out, inert):
    """Signature refinement that rebuilds each state's inert-tau closure;
    yields the blocks after each round.

    ``out`` is an arena, as ``equivalence._union`` builds it, or integer
    rows: (label id, target) moves, tau as 0."""
    if isinstance(out, equivalence._Arena):
        out = arena_rows(out)
    total = len(out)
    block = [0] * total
    while True:
        sigs = {}
        new_block = [0] * total
        for s in range(total):
            closure = [s]
            if inert:
                for u in closure:
                    for a, t in out[u]:
                        if a == 0 and block[t] == block[s] and t not in closure:
                            closure.append(t)
            sig = frozenset((a, block[t]) for u in closure for a, t in out[u]
                            if not (inert and a == 0 and block[t] == block[s]))
            new_block[s] = sigs.setdefault((block[s], sig), len(sigs))
        yield new_block
        if len(set(new_block)) == len(set(block)):
            return
        block = new_block


def refine_rounds(out, tau_sccs, refine=None):
    """The blocks that ``equivalence._refine`` (or ``refine``) yields for
    ``out``, round by round, as the run yields them.

    Each round but the last splits a block, and there are at most
    ``len(out)`` blocks, so a run ends within ``len(out)`` rounds; one
    that reaches round ``len(out) + 1`` fails the test instead of running
    on."""
    rounds = (refine or equivalence._refine)(out, tau_sccs)
    for k, block in enumerate(rounds):
        if k == len(out):
            pytest.fail(f"refinement of {len(out)} states is not stable "
                        f"after {k} rounds")
        yield block


@pytest.fixture(autouse=True, scope="module")
def bounded_refinement():
    """Every run of ``equivalence._refine`` in this file, also one that
    ``minimize`` or a check makes, goes through ``refine_rounds``: a
    refinement that never stabilizes fails its test instead of running
    on.  A test's own patch of ``_refine`` takes its place while it lasts."""
    bounded = functools.partial(refine_rounds, refine=equivalence._refine)
    with mock.patch.object(equivalence, "_refine", bounded):
        yield


def outgoing(lts):
    """Each state's (label, target) moves."""
    out = [[] for _ in range(lts.num_states)]
    for s, a, t in lts.transitions:
        out[s].append((a, t))
    return out


def reference_divergences(lts):
    """States that reach themselves by one or more tau steps, by DFS each."""
    out = outgoing(lts)
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
    out = outgoing(lts)
    dead = [False] * lts.num_states
    changed = True
    while changed:
        changed = False
        for s in range(lts.num_states):
            if not dead[s] and all(dead[t] for _, t in out[s]):
                dead[s] = changed = True
    if dead[lts.initial]:
        return StepLTS(initial=0, num_states=1, transitions=(),
                       state_names=(lts.state_names[lts.initial],))
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


def lts_from(initial, num_states, edges):
    return StepLTS(initial=initial, num_states=num_states,
                   transitions=tuple(sorted(edges)),
                   state_names=tuple(f"s{i}" for i in range(num_states)))


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


@st.composite
def long_lts(draw):
    """A tau chain or cycle of up to 40 states with a few visible steps and
    random extra edges, so that refinement runs for many rounds."""
    n = draw(st.integers(2, 40))
    steps = dict.fromkeys(range(n - 1 + draw(st.booleans())), TAU)
    for s, a in draw(st.lists(st.tuples(st.sampled_from(sorted(steps)),
                                        st.sampled_from(_LABELS[3:])),
                              min_size=1, max_size=3)):
        steps[s] = a
    state = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(state, st.sampled_from(_LABELS), state),
                          max_size=3))
    edges = {(s, a, (s + 1) % n) for s, a in steps.items()} | set(extra)
    return StepLTS(
        initial=draw(state), num_states=n,
        transitions=tuple(sorted(edges, key=repr)),
        state_names=tuple(f"s{i}" for i in range(n)))


class TestRefinementDifferential:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(random_lts(), random_lts(), st.booleans())
    def test_partition_matches_reference(self, left, right, inert):
        out, _, _, _ = equivalence._union(left, right)
        history = [b[:] for b in refine_rounds(
            out, equivalence._sccs(out) if inert else None)]
        ref_history = list(reference_blocks(out, inert))
        block, ref_block = history[-1], ref_history[-1]
        assert renamed(block) == renamed(ref_block)
        assert len(history) == len(ref_history)
        assert ([renamed(b) for b in history]
                == [renamed(b) for b in ref_history])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(long_lts(), long_lts(), st.booleans())
    def test_long_refinement_matches_reference(self, left, right, inert):
        out, _, _, _ = equivalence._union(left, right)
        history = [b[:] for b in refine_rounds(
            out, equivalence._sccs(out) if inert else None)]
        ref_history = list(reference_blocks(out, inert))
        block, ref_block = history[-1], ref_history[-1]
        assert renamed(block) == ref_block
        assert [renamed(b) for b in history] == ref_history

    def test_chain_splits_one_state_per_round(self):
        # s0 -tau-> ... -tau-> s39 -a-> s40: round 0 splits off s39 and
        # s40, each later round the next state back, and round 39 is stable
        out, _, _ = equivalence._union(lts_from(
            0, 41, {(s, TAU, s + 1) for s in range(39)} | {(39, (_A,), 40)}))
        history = [b[:] for b in refine_rounds(out, None)]
        block = history[-1]
        assert len(set(block)) == 41 and len(history) == 40
        assert ([renamed(b) for b in history]
                == list(reference_blocks(out, False)))

    # while round k's list is read, the list of round k - 1 still holds
    # that round: an explanation signs it without running the rounds again
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(st.tuples(random_lts(), random_lts()),
                     st.tuples(long_lts(), long_lts())), st.booleans())
    def test_round_before_holds_while_the_next_is_read(self, pair, inert):
        out, _, _, _ = equivalence._union(*pair)
        ref_history = [renamed(b) for b in reference_blocks(out, inert)]
        prev = None
        for k, block in enumerate(refine_rounds(
                out, equivalence._sccs(out) if inert else None)):
            assert renamed(block) == ref_history[k]
            if prev is not None:
                assert renamed(prev) == ref_history[k - 1]
            prev = block

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(long_lts(), st.sampled_from(("strong", "branching")))
    def test_long_minimize_matches_reference(self, lts, relation):
        quotient = minimize(lts, relation)
        with mock.patch.object(equivalence, "_refine", reference_blocks):
            assert quotient == minimize(lts, relation)

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

    # LTSs that the one-pass check of ``prune_dead`` must pass on to the
    # full algorithm: every state has a step, but the 2 <-> 3 cycle is
    # unreachable; numbered breadth first from state 0, but the initial
    # state is 1, from which state 0 cannot be reached; one deadlock
    @example(lts_from(0, 4, {(0, TAU, 1), (1, TAU, 0), (2, TAU, 3),
                             (3, TAU, 2)}))
    @example(lts_from(1, 4, {(0, TAU, 1), (1, TAU, 2), (2, TAU, 3),
                             (3, TAU, 2)}))
    @example(lts_from(0, 3, {(0, TAU, 1), (0, (_A,), 2), (1, TAU, 0)}))
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(random_lts())
    def test_prune_dead_matches_reference(self, lts):
        assert prune_dead(lts) == reference_prune_dead(lts)


def tau_chain(end, n=2000):
    """s0 -tau-> ... -tau-> s(n-1), which loops on {end}."""
    return lts_from(0, n, {(s, TAU, s + 1) for s in range(n - 1)}
                    | {(n - 1, (ActionLabel(end),), n - 1)})


class TestRefinementMemory:
    # two chains split one state per round, about 2 000 rounds over 4 000
    # states: memory is linear in the states only if no round is kept
    @pytest.mark.parametrize("end, text", [
        ("a", "strong step bisimulation holds"),
        ("b", "strong step bisimulation fails: after tau: the right side "
              "cannot match step tau"),
    ], ids=["holds", "fails"])
    def test_chain_check_peaks_under_8_mb(self, end, text):
        left, right = tau_chain("a"), tau_chain(end)
        tracemalloc.start()
        try:
            verdict = strong_step_bisim(left, right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.pretty() == text
        assert peak < 8_000_000


class Counted:
    """``equivalence._refine``, counting its calls and the rounds they yield."""

    def __init__(self):
        self.calls = self.rounds = 0
        self.refine = equivalence._refine

    def __call__(self, out, inert):
        self.calls += 1
        for block in refine_rounds(out, inert, self.refine):
            self.rounds += 1
            yield block


def split_round(left, right, inert):
    """The first round of the reference engine that splits the initial states."""
    out, _, p, q = equivalence._union(left, right)
    return next(k for k, block in enumerate(reference_blocks(out, inert))
                if block[p] != block[q])


# a hidden x between a and b: two rounds, the first splitting after a
HIDDEN = "process P { P = a . x . b . P }\nsystem S = hide {x} in P"
SKIPPED = "process P { P = a . b . P }"


class TestRunContract:
    # a failed check stops at the round k that splits the initial states;
    # its explanation reads round k - 1, which the same run still holds
    def test_failed_chain_check_runs_k_plus_1_rounds(self):
        left, right = tau_chain("a", 50), tau_chain("b", 50)
        k = split_round(left, right, False)
        refine = Counted()
        with mock.patch.object(equivalence, "_refine", refine):
            verdict = strong_step_bisim(left, right)
        assert not verdict.holds and k == 49
        assert refine.calls == 1 and refine.rounds == k + 1

    def test_split_at_round_0_runs_one_round(self):
        refine = Counted()
        with mock.patch.object(equivalence, "_refine", refine):
            verdict = strong_step_bisim(lts_of(LOOP_A), lts_of(LOOP_B))
        assert verdict.pretty() == (
            "strong step bisimulation fails: after <initial states>: step "
            "{a} is enabled on the left side only")
        assert (refine.calls, refine.rounds) == (1, 1)

    # the tau SCCs are found once per run of the rounds, not once per round
    @pytest.mark.parametrize("left, right, holds, calls", [
        ((HIDDEN, "S"), (SKIPPED,), True, 1),
        ((HIDDEN, "S"), (LOOP_A,), False, 1),     # a trace counterexample
    ], ids=["holds", "trace"])
    def test_branching_check_finds_tau_sccs_once_per_run(
            self, left, right, holds, calls):
        refine = Counted()
        with mock.patch.object(equivalence, "_refine", refine), \
                mock.patch.object(equivalence, "_sccs",
                                  wraps=equivalence._sccs) as sccs:
            verdict = branching_bisim(lts_of(*left), lts_of(*right))
        assert verdict.holds is holds and refine.rounds >= 2
        assert refine.calls == sccs.call_count == calls

    def test_explanation_signs_the_round_before_once(self):
        # equal weak traces: the explanation signs the round before the
        # split, which the run still holds, over the run's tau SCCs
        left = lts_of("process P { P = a . b . delta + a . c . delta }")
        right = lts_of("process P { P = a . (b . delta + c . delta) }")
        refine = Counted()
        with mock.patch.object(equivalence, "_refine", refine), \
                mock.patch.object(equivalence, "_sccs",
                                  wraps=equivalence._sccs) as sccs:
            verdict = branching_bisim(left, right)
        k = split_round(left, right, True)
        assert isinstance(verdict.counterexample, StepCounterexample)
        assert refine.calls == 1 and refine.rounds == k + 1
        assert sccs.call_count == 1

    @pytest.mark.parametrize("check", [
        strong_step_bisim, branching_bisim, rooted_branching_bisim])
    def test_only_a_check_that_holds_reports_blocks(self, check):
        loop = lts_of(LOOP_A)
        assert check(loop, loop).details == {"blocks": 1}
        assert check(loop, lts_of(LOOP_B)).details == {}

    def test_failed_root_condition_reports_no_blocks(self):
        # an initial inert tau: branching bisimilar, but not rooted
        hidden = lts_of("process P { P = x . a . P }\n"
                        "system S = hide {x} in P", "S")
        assert branching_bisim(hidden, lts_of(LOOP_A)).details == {"blocks": 1}
        verdict = rooted_branching_bisim(hidden, lts_of(LOOP_A))
        assert "root condition" in verdict.pretty()
        assert verdict.details == {}


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
        out, labels, p, q = equivalence._union(left, right)
        *_, block = reference_blocks(out, False)
        moves = {side: [(labels[a], t) for a, t in arena_rows(out)[s]]
                 for side, s in (("left", p), ("right", q))}
        a, side, other = claimed_move(verdict.counterexample, moves)
        targets = [t for b, t in moves[other] if b == a]
        if not verdict.counterexample.trace:
            assert not targets
        else:
            assert any(all(block[t] != block[u] for u in targets)
                       for b, t in moves[side] if b == a)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(lts_pair())
    def test_counterexamples_match_reference_engine(self, pair):
        # the explanation breaks ties by block number, so this pins the
        # numbering it reads as well as the partitions
        left, right = pair
        for check in (strong_step_bisim, branching_bisim,
                      rooted_branching_bisim):
            verdict = check(left, right)
            with mock.patch.object(equivalence, "_refine", reference_blocks):
                ref = check(left, right)
            assert verdict.pretty() == ref.pretty()
            assert verdict.details == ref.details

    def test_root_condition_breaks_ties_by_first_appearance(self):
        # the initial states differ only in where their {a} steps lead: the
        # {a, b} ending (block 1 by first appearance) or the {b} ending,
        # whose block is the largest; the least block decides the side
        def side(x, y):
            edges = {(1, (_A, _B), 0), (2, (_B,), 0), (3, (_B,), 0),
                     (4, (_B,), 0), (5, TAU, 6), (6, TAU, 5),
                     (5, (_A,), x), (6, (_A,), y)}
            return StepLTS(initial=5, num_states=7,
                           transitions=tuple(sorted(edges, key=repr)),
                           state_names=tuple(f"s{i}" for i in range(7)))
        verdict = rooted_branching_bisim(side(2, 1), side(1, 2))
        assert verdict.pretty() == (
            "rooted branching bisimulation fails: after <initial states>: "
            "root condition: initial step {a} on the right side has no "
            "immediate match")
        with mock.patch.object(equivalence, "_refine", reference_blocks):
            assert rooted_branching_bisim(side(2, 1), side(1, 2)) == verdict

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(lts_pair())
    def test_every_failure_is_explained(self, pair):
        left, right = pair
        for check in (strong_step_bisim, branching_bisim,
                      rooted_branching_bisim):
            verdict = check(left, right)
            if not verdict.holds:
                assert not any(u in verdict.pretty() for u in UNEXPLAINED)


def reference_unmatched(out, labels, block, p, q, inert):
    """``equivalence._unmatched`` by signing every state of the arena, as
    ``reference_blocks`` signs it, over ``block`` renamed."""
    rows, block = arena_rows(out), renamed(block)
    sigs = []
    for s in range(len(rows)):
        closure = [s]
        if inert:
            for u in closure:
                for a, t in rows[u]:
                    if a == 0 and block[t] == block[s] and t not in closure:
                        closure.append(t)
        sigs.append({(a, block[t]) for u in closure for a, t in rows[u]
                     if not (inert and a == 0 and block[t] == block[s])})
    only = sigs[p] ^ sigs[q]
    if not only:
        return None
    a, b = min(only, key=lambda m: (label_str(labels[m[0]]), m[1]))
    return labels[a], "left" if (a, b) in sigs[p] else "right"


class Rows(list):
    """An arena's rows that record which states are read."""

    def __init__(self, rows, read):
        super().__init__(rows)
        self.read = read

    def __getitem__(self, s):
        self.read.add(s)
        return super().__getitem__(s)


class TestUnmatched:
    # the explanation and the root condition sign only the two states
    # they compare, and what those reach by inert tau steps
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(lts_pair(), st.tuples(long_lts(), long_lts())),
           st.booleans())
    def test_matches_signing_every_state(self, pair, inert):
        out, labels, p, q = equivalence._union(*pair)
        tau_sccs = equivalence._sccs(out) if inert else None
        rounds = [[0] * len(out)] + [
            b[:] for b in refine_rounds(out, tau_sccs)]
        for block in rounds:
            assert (equivalence._unmatched(out, labels, block, p, q, tau_sccs)
                    == reference_unmatched(out, labels, block, p, q, inert))

    @pytest.mark.parametrize("inert", [False, True])
    def test_signs_only_the_two_states(self, inert):
        # the initial states are the loops at the chains' ends, which reach
        # no other state by a tau step
        out, labels, p, q = equivalence._union(
            replace(tau_chain("a"), initial=1999),
            replace(tau_chain("b", 10), initial=9))
        tau_sccs = equivalence._sccs(out) if inert else None
        *_, block = refine_rounds(out, tau_sccs)
        read = set()
        spy = equivalence._Arena(Rows(out.moves, read), Rows(out.succ, read))
        unmatched = equivalence._unmatched(spy, labels, block, p, q, tau_sccs)
        assert read == {p, q}
        assert unmatched == ((ActionLabel("a"),), "left") == reference_unmatched(
            out, labels, block, p, q, inert)


# ---------------------------------------------------------------------------
# The LTS's integer columns against plain transition tuples


def reference_minimize(lts, relation):
    """``minimize`` on plain transition tuples: the reference refinement's
    blocks, numbered in the order a breadth-first walk from the initial
    state reaches them, each named by the first of its states reached."""
    out = outgoing(lts)
    ids = {TAU: 0}
    rows = [[(ids.setdefault(a, len(ids)), t) for a, t in row] for row in out]
    *_, block = reference_blocks(rows, relation == "branching")
    first = {}      # block -> the first of its states reached
    queue, seen = [lts.initial], {lts.initial}
    for s in queue:
        first.setdefault(block[s], s)
        for _, t in out[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    order = {b: i for i, b in enumerate(first)}
    edges = {(order[block[s]], a, order[block[t]])
             for s, a, t in lts.transitions
             if block[s] in order and block[t] in order
             and not (relation == "branching" and a == TAU
                      and block[s] == block[t])}
    return StepLTS(
        initial=order[block[lts.initial]], num_states=len(order),
        transitions=tuple(sorted(
            edges, key=lambda e: (e[0], label_str(e[1]), e[2]))),
        state_names=tuple(lts.state_names[s] for s in first.values()))


def plain(lts):
    return lts.initial, lts.num_states, lts.transitions, lts.state_names


def merged(label):
    """``label`` with b read as a, so that two labels of an LTS can become
    one."""
    return [_A if l == _B else l for l in label]


class TestCompactLTS:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(random_lts(), st.data())
    def test_columns_match_plain_tuples(self, lts, data):
        # random_lts's transitions are not sorted by source, nor are the
        # shuffled ones: the constructor groups them by source and keeps
        # each source's order; _relabel only rewrites the label table,
        # which may then hold a label twice
        shuffled = tuple(data.draw(st.permutations(lts.transitions)))
        by_source = tuple(sorted(lts.transitions, key=lambda tr: tr[0]))
        relabeled = tuple((s, sorted_label(merged(a)), t)
                          for s, a, t in lts.transitions)
        variants = [
            lts, replace(lts, transitions=shuffled),
            StepLTS(lts.initial, lts.num_states, by_source, lts.state_names),
            _relabel(lts, merged)]
        for x, triples in zip(variants, (lts.transitions, shuffled,
                                         by_source, relabeled)):
            assert x.transitions == tuple(
                sorted(triples, key=lambda tr: tr[0]))
            assert x.deadlock_states() == tuple(
                s for s in range(x.num_states)
                if all(s != src for src, _, _ in triples))
            assert prune_dead(x) == reference_prune_dead(x)
            for relation in ("strong", "branching"):
                assert minimize(x, relation) == reference_minimize(x, relation)
        for x, y in itertools.product(variants, repeat=2):
            assert (x == y) == (plain(x) == plain(y))

    @pytest.mark.parametrize("initial, edge, message", [
        (0, (0, (_B,), -1), "target -1"),
        (0, (0, (_B,), 2), "target 2"),
        (0, (2, (_B,), 1), "source 2"),
        (-1, (0, (_B,), 1), "initial state -1"),
    ])
    def test_a_state_outside_the_range_is_rejected(self, initial, edge,
                                                   message):
        # a target of -1 would be read as the last state, and one of 2
        # would make minimize fail with an IndexError
        with pytest.raises(ValueError) as error:
            StepLTS(initial, 2, ((0, (_A,), 1), edge), ("s0", "s1"))
        assert str(error.value) == (
            f"{message} is not a state: the LTS's states are 0 to 1")

    def test_generated_transitions_take_under_20_bytes_each(self):
        # three 4-byte columns and the offsets; a tuple per transition
        # took about 81 bytes
        model = parse_model(families.render(families.tau_chain(70, 2), 1))
        tracemalloc.start()
        try:
            lts = generate_lts(model.systems["S"], model)
            names = lts.state_names     # the names are not the transitions
            with_lts = tracemalloc.get_traced_memory()[0]
            count = len(lts.transitions)
            del lts
            held = with_lts - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(names) == 4900 and count == 14700
        assert held < 20 * count
