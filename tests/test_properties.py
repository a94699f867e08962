"""Randomized property suites over small generated models.

Each property runs on at least 150 seeded random cases; across the suites
well over 1000 cases are exercised per test run.
"""
import itertools
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import stepcheck as sc
from stepcheck import semantics
from stepcheck.dsl import parse_model, render_model
from stepcheck.equivalence import (
    branching_bisim,
    minimize,
    rooted_branching_bisim,
    strong_step_bisim,
)
from stepcheck.model import Model
from stepcheck.semantics import (
    POLICIES,
    TERM,
    Config,
    Event,
    SystemState,
    _alt,
    _blocked,
    _flatten_par,
    _label_hidden,
    _par,
    _raw,
    _resolve_uncached,
    _resolved,
    _seq,
    _wrap,
    apply_theta,
    canon,
    enabled_steps,
    generate_lts,
    prepare_system,
)
from stepcheck.terms import (
    Act,
    ActionLabel,
    Alt,
    CommEntry,
    CommResultLabel,
    CommTable,
    ConflictElim,
    ConflictRelation,
    DataDomain,
    Deadlock,
    Encaps,
    Hide,
    Par,
    RecursiveSpec,
    Seq,
    Shadow,
    Var,
    WholePar,
    guardedness_check,
    term_to_str,
)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import families  # noqa: E402


CASES = 150
ACTIONS = ["a", "b", "c", "d", "e"]


def rand_cont(rng, variables, depth):
    """A continuation: anything, guardedness is supplied by the caller."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return Var(rng.choice(variables)) if rng.random() < 0.7 else Deadlock()
    if roll < 0.55:
        return Act(ActionLabel(rng.choice(ACTIONS)))
    if roll < 0.8:
        return Seq(Act(ActionLabel(rng.choice(ACTIONS))),
                   rand_cont(rng, variables, depth - 1))
    # parallel subterms are kept finite so the state space stays small
    tail = Par(rand_finite(rng, depth - 1), rand_finite(rng, depth - 1))
    return Seq(tail, Var(rng.choice(variables))) if rng.random() < 0.5 else tail


def rand_finite(rng, depth):
    head = Act(ActionLabel(rng.choice(ACTIONS)))
    if depth <= 0 or rng.random() < 0.5:
        return head
    return Seq(head, rand_finite(rng, depth - 1))


def rand_branch(rng, variables, depth):
    """A guarded branch: starts with an action."""
    head = Act(ActionLabel(rng.choice(ACTIONS)))
    if depth <= 0 or rng.random() < 0.4:
        return Seq(head, Var(rng.choice(variables)))
    return Seq(head, rand_cont(rng, variables, depth - 1))


def rand_model(rng, n_eqs=None):
    n = n_eqs or rng.randint(1, 3)
    variables = [f"X{i}" for i in range(n)]
    equations = {}
    for v in variables:
        branches = [rand_branch(rng, variables, 2)
                    for _ in range(rng.randint(1, 2))]
        equations[v] = branches[0] if len(branches) == 1 else Alt(
            tuple(branches))
    spec = RecursiveSpec("X0", equations, "X0")
    comms = ()
    if rng.random() < 0.4:
        x, y = rng.sample(ACTIONS, 2)
        comms = (CommEntry(x, y),)
    return Model(processes=(spec,), comms=CommTable(comms))


def lts(model, term, **cfg):
    return generate_lts(term, model, Config(max_states=3000, **cfg))


class TestHiding:
    def test_hiding_is_idempotent(self):
        rng = random.Random(101)
        for _ in range(CASES):
            m = rand_model(rng)
            names = frozenset(rng.sample(ACTIONS, rng.randint(1, 3)))
            once = lts(m, Hide(names, Var("X0")))
            twice = lts(m, Hide(names, Hide(names, Var("X0"))))
            assert strong_step_bisim(once, twice).holds

    def test_empty_hide_and_block_are_identities(self):
        rng = random.Random(102)
        for _ in range(CASES):
            m = rand_model(rng)
            plain = lts(m, Var("X0"))
            hidden = lts(m, Hide(frozenset(), Var("X0")))
            blocked = lts(m, Encaps(frozenset(), Var("X0")))
            assert strong_step_bisim(plain, hidden).holds
            assert strong_step_bisim(plain, blocked).holds


class TestStepModes:
    def test_interleave_equals_singleton_steps(self):
        rng = random.Random(103)
        for _ in range(CASES):
            m = rand_model(rng)
            full = lts(m, Var("X0"), step_mode="step")
            inter = lts(m, Var("X0"), step_mode="interleave")
            singles = {(full.state_names[s], sc.label_str(a),
                        full.state_names[t])
                       for s, a, t in full.transitions if len(a) == 1}
            via_inter = {(inter.state_names[s], sc.label_str(a),
                          inter.state_names[t])
                         for s, a, t in inter.transitions}
            # interleave reaches a subset of states, so compare what it saw
            assert via_inter <= singles


class TestRelations:
    def test_strong_implies_branching(self):
        rng = random.Random(104)
        hits = 0
        for _ in range(CASES):
            a = lts(rand_model(rng), Var("X0"))
            b = lts(rand_model(rng), Var("X0"))
            if strong_step_bisim(a, b).holds:
                hits += 1
                assert branching_bisim(a, b).holds
                assert rooted_branching_bisim(a, b).holds
        # self-comparison always qualifies; make sure the premise fired
        m = rand_model(rng)
        x = lts(m, Var("X0"))
        assert strong_step_bisim(x, x).holds and branching_bisim(x, x).holds

    def test_minimize_preserves_verdict_and_is_idempotent(self):
        rng = random.Random(105)
        for _ in range(CASES):
            m = rand_model(rng)
            names = frozenset(rng.sample(ACTIONS, 2))
            full = lts(m, Hide(names, Var("X0")))
            small = minimize(full, "branching")
            assert branching_bisim(full, small).holds
            again = minimize(small, "branching")
            assert again.num_states == small.num_states
            assert len(again.transitions) == len(small.transitions)


class TestShadowAxiom:
    def test_parallel_shadow_is_absorbed(self):
        rng = random.Random(106)
        for _ in range(CASES):
            name = rng.choice(ACTIONS)
            src_shadowed = (f"process P {{ P = {name} . delta <> @{name} . delta }}")
            src_plain = f"process P {{ P = {name} . delta }}"
            a = lts(parse_model(src_shadowed), Var("P"))
            b = lts(parse_model(src_plain), Var("P"))
            assert strong_step_bisim(a, b).holds


class TestGuardedness:
    def test_rejects_unguarded_equations(self):
        rng = random.Random(107)
        for _ in range(CASES):
            variables = ["X0", "X1"]
            equations = {
                "X0": Var(rng.choice(variables)),   # unguarded by construction
                "X1": rand_branch(rng, variables, 2),
            }
            ok, offenders = guardedness_check(
                RecursiveSpec("X0", equations, "X0"))
            assert not ok and "X0" in offenders


class TestDslRoundTrip:
    def test_parse_render_parse_fixpoint(self):
        rng = random.Random(108)
        for _ in range(CASES):
            m = rand_model(rng)
            text = render_model(m)
            again = parse_model(text)
            assert again.equations() == m.equations()
            assert render_model(again) == text


def reference_steps(state, prepared):
    """Every subset of components times the product of their moves, each
    combination resolved, then the top-level wrappers from the innermost
    out: the literal reading of the step semantics that ``enabled_steps``
    must agree with."""
    ctx = prepared
    config = ctx.config
    comps = state.components
    n = len(comps)
    if config.round_mode == "barrier":
        rounds = state.rounds
        tracked = [r for i, r in enumerate(rounds)
                   if comps[i] is not TERM and prepared.entries[i] is not None]
        floor = min(tracked) if tracked else 0
        allowed = [i for i in range(n) if comps[i] is not TERM
                   and (prepared.entries[i] is None or rounds[i] == floor)]
    else:
        allowed = [i for i in range(n) if comps[i] is not TERM]
    local = {i: _raw(comps[i], ctx) for i in allowed}
    candidates = []
    for size in range(1, len(allowed) + 1):
        for subset in itertools.combinations(allowed, size):
            for choice in itertools.product(*[local[i] for i in subset]):
                occs = tuple(o for occs_i, _ in choice for o in occs_i)
                for events in _resolve_uncached(occs, ctx):
                    if config.step_mode == "interleave" and len(events) != 1:
                        continue
                    new_comps = list(comps)
                    for i, (_, succ) in zip(subset, choice):
                        new_comps[i] = succ
                    rounds2 = state.rounds
                    if rounds2 is not None:
                        rl = list(rounds2)
                        for i, (_, succ) in zip(subset, choice):
                            entry = prepared.entries[i]
                            if entry is not None and succ == Var(entry):
                                rl[i] += 1
                        live = [i for i in range(n)
                                if new_comps[i] is not TERM
                                and prepared.entries[i] is not None]
                        lo = min((rl[i] for i in live), default=0)
                        rounds2 = tuple(
                            rl[i] - lo if i in live else 0 for i in range(n))
                    candidates.append(
                        (events, SystemState(tuple(new_comps), rounds2)))
    for wrapper in reversed(prepared.wrappers):
        candidates = reference_wrap(wrapper, candidates, ctx.conflicts)
    out = []
    seen = set()
    for events, succ in candidates:
        label = reference_label(events)
        if (label, succ) not in seen:
            seen.add((label, succ))
            out.append((label, succ))
    out.sort(key=lambda ls: (tuple(l.pretty() for l in ls[0]),
                             ls[1].pretty()))
    return out


def reference_wrap(wrapper, candidates, conflicts):
    """One hide, block or theta over a list of (events, successor)."""
    if isinstance(wrapper, Hide):
        return [(tuple(Event(None, e.fused)
                       if _label_hidden(e.label, wrapper.names) else e
                       for e in ev), st)
                for ev, st in candidates]
    if isinstance(wrapper, Encaps):
        return [(ev, st) for ev, st in candidates
                if not _blocked(ev, wrapper.names)]
    return apply_theta(candidates, conflicts)


def reference_label(events):
    labels = [e.label for e in events if e.label is not None]
    return tuple(sorted(labels, key=lambda l: l.pretty()))


STEP_ACTIONS = ["a", "b", "c", "d"]


def rand_names(rng):
    return frozenset(rng.sample(STEP_ACTIONS, rng.randint(1, 3)))


def rand_wrapper(rng, body):
    kind = rng.choice(("hide", "block", "theta"))
    if kind == "hide":
        return Hide(rand_names(rng), body)
    if kind == "block":
        return Encaps(rand_names(rng), body)
    return ConflictElim(body)


def rand_prefix(rng, depth=1):
    """A finite first move: actions, shadows, parallel pairs, wrappers."""
    roll = rng.random()
    if roll < 0.35:
        return Act(ActionLabel(rng.choice(STEP_ACTIONS)))
    if roll < 0.55 or depth < 0:
        return Shadow(rng.choice(STEP_ACTIONS))
    if roll < 0.8 or depth == 0:
        return Par(Act(ActionLabel(rng.choice(STEP_ACTIONS))),
                   rand_prefix(rng, -1))
    return rand_wrapper(rng, rand_prefix(rng, depth - 1))


def rand_system(rng):
    """A model and a system of 2-4 components with random wrappers."""
    specs, comps = [], []
    for k in range(rng.randint(2, 4)):
        names = [f"P{k}_{j}" for j in range(rng.randint(1, 2))]
        equations = {}
        for name in names:
            branches = []
            for _ in range(rng.randint(1, 2)):
                head = rand_prefix(rng)
                if rng.random() < 0.15:
                    branches.append(head)   # terminates
                else:
                    branches.append(Seq(head, Var(rng.choice(names))))
            equations[name] = (branches[0] if len(branches) == 1
                               else Alt(tuple(branches)))
        specs.append(RecursiveSpec(f"P{k}", equations, names[0]))
        comp = Var(names[0])
        comps.append(rand_wrapper(rng, comp) if rng.random() < 0.25 else comp)
    pairs = list(itertools.combinations(STEP_ACTIONS, 2))
    comms = tuple(CommEntry(x, y, rng.choice((None, f"g{x}{y}")))
                  for x, y in rng.sample(pairs, rng.randint(0, 3)))
    conflicts = frozenset(frozenset(p)
                          for p in rng.sample(pairs, rng.randint(0, 2)))
    model = Model(processes=tuple(specs), comms=CommTable(comms),
                  conflicts=ConflictRelation(conflicts))
    system = comps[0]
    for comp in comps[1:]:
        system = Par(system, comp)
    for _ in range(rng.randint(0, 3)):
        system = rand_wrapper(rng, system)
    return model, system


class TestStepEnumeration:
    def test_pruned_enumeration_equals_reference(self):
        rng = random.Random(109)
        states = 0
        for _ in range(CASES):
            model, system = rand_system(rng)
            config = Config(
                comm_policy=rng.choice(("chained", "binary")),
                shadow_policy=rng.choice(("strict", "loose")),
                round_mode=rng.choice(("overlap", "barrier")),
                step_mode=rng.choice(("step", "step", "interleave")))
            prepared = prepare_system(system, model, config)
            frontier = [prepared.initial_state()]
            seen = set(frontier)
            while frontier and len(seen) < 40:
                state = frontier.pop()
                expected = reference_steps(state, prepared)
                assert enabled_steps(state, prepared) == expected, (
                    system, config, state.pretty())
                states += 1
                for _, succ in expected:
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
        assert states > 3 * CASES

    def test_block_outside_hide_keeps_the_hidden_step(self):
        # the block sees a already hidden, so P's move stays as a tau step
        model = parse_model("process P { P = a . P }\n"
                            "process Q { Q = b . Q }\n"
                            "system S = block {a} in hide {a} in (P <> Q)")
        prepared = prepare_system(model.systems["S"], model, Config())
        state = prepared.initial_state()
        steps = enabled_steps(state, prepared)
        assert steps == reference_steps(state, prepared)
        assert [label for label, _ in steps].count(()) == 1

    # the conflict a # b makes theta compare the steps of a state, so it
    # and every wrapper outside it apply per state, the rest per step
    WRAPPED = {
        "hide outside theta": "hide {a} in theta (P <> Q)",
        "theta outside hide": "theta (hide {a} in (P <> Q))",
        "block outside theta": "block {c} in theta (P <> Q <> R)",
        "block inside theta": "hide {b} in theta (block {c} in (P <> Q <> R))",
    }

    @pytest.mark.parametrize("system", WRAPPED.values(), ids=WRAPPED.keys())
    @pytest.mark.parametrize("step_mode", ["step", "interleave"])
    def test_wrappers_around_theta_with_conflicts(self, system, step_mode):
        model = parse_model("process P { P = a . c . P + b . P }\n"
                            "process Q { Q = b . d . Q }\n"
                            "process R { R = c . R + d . R }\n"
                            "conflict a # b\n"
                            f"system S = {system}")
        prepared = prepare_system(model.systems["S"], model,
                                  Config(step_mode=step_mode))
        assert prepared.split[1], "theta is applied per state"
        frontier = [prepared.initial_state()]
        seen = set(frontier)
        while frontier:
            state = frontier.pop()
            expected = reference_steps(state, prepared)
            assert expected
            assert enabled_steps(state, prepared) == expected
            for _, succ in expected:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        assert len(seen) > 1


POLICY_COMBINATIONS = list(itertools.product(
    *(allowed for _, allowed in POLICIES.values())))
RENAMED = dict(zip(STEP_ACTIONS, ("e", "f", "g", "h")))


def renamed(term):
    """``term`` with every action, shadow base and hidden or blocked name
    moved from a-d to e-h, and every process name prefixed with R."""
    if isinstance(term, Act):
        return Act(ActionLabel(RENAMED[term.label.name], term.label.args))
    if isinstance(term, Shadow):
        return Shadow(RENAMED[term.base])
    if isinstance(term, Var):
        return Var("R" + term.name)
    if isinstance(term, (Hide, Encaps)):
        return type(term)(frozenset(RENAMED[n] for n in term.names),
                          renamed(term.body))
    return term.rebuild(tuple(map(renamed, term.children())))


def rand_grouped_system(rng):
    """A system of two or more fusion groups: one or two components of a
    ``rand_system`` beside their copy on the names e-h, in the original
    or a shuffled order, under that system's top-level wrappers widened
    to both alphabets.  The model holds both copies' equations,
    communications and conflicts."""
    model, system = rand_system(rng)
    wrappers = []
    while isinstance(system, (Hide, Encaps, ConflictElim)):
        wrappers.append(system)
        system = system.body
    comps = _flatten_par(system)[:rng.randint(1, 2)]
    comps += [renamed(c) for c in comps]
    if rng.random() < 0.5:
        rng.shuffle(comps)   # the groups' positions interleave
    system = comps[0]
    for comp in comps[1:]:
        system = Par(system, comp)
    for wrapper in reversed(wrappers):
        if isinstance(wrapper, ConflictElim):
            system = ConflictElim(system)
        else:
            names = wrapper.names | {RENAMED[n] for n in wrapper.names}
            system = type(wrapper)(frozenset(names), system)
    specs = tuple(RecursiveSpec(
        "R" + spec.name,
        {"R" + name: renamed(rhs) for name, rhs in spec.equations.items()},
        "R" + spec.entry) for spec in model.processes)
    comms = tuple(CommEntry(RENAMED[e.a], RENAMED[e.b],
                            e.result and "g" + RENAMED[e.a] + RENAMED[e.b])
                  for e in model.comms.entries)
    conflicts = frozenset(frozenset(RENAMED[n] for n in pair)
                          for pair in model.conflicts.pairs)
    return Model(
        processes=model.processes + specs,
        comms=CommTable(model.comms.entries + comms),
        conflicts=ConflictRelation(model.conflicts.pairs | conflicts)), system


def live_groups(state, prepared) -> int:
    """How many fusion groups hold a component that may move in ``state``."""
    rounds = state.rounds or (0,) * len(state.components)
    return sum(any(state.components[i] is not TERM and not rounds[i]
                   for i in group) for group in prepared.groups)


class TestGroupedEnumeration:
    """Step enumeration over two or more fusion groups, each group's
    combinations taken from its memo, against ``reference_steps``."""

    @pytest.mark.parametrize("policies", POLICY_COMBINATIONS, ids="-".join)
    def test_grouped_enumeration_equals_reference(self, policies):
        rng = random.Random("grouped " + " ".join(policies))
        states = grouped = 0
        for _ in range(CASES // 3):
            model, system = rand_grouped_system(rng)
            prepared = prepare_system(system, model, Config(*policies))
            assert len(prepared.groups) >= 2
            frontier = [prepared.initial_state()]
            seen = set(frontier)
            while frontier and len(seen) < 25:
                state = frontier.pop()
                expected = reference_steps(state, prepared)
                assert enabled_steps(state, prepared) == expected, (
                    system, policies, state.pretty())
                states += 1
                grouped += live_groups(state, prepared) >= 2
                for _, succ in expected:
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
        # 151 to 295 of the 173 to 309 states per combination
        assert grouped >= 100


class TestGroupMemo:
    """Every state's combinations come through the group memo, a state
    with one group that can move included: each group's walk runs once
    per distinct (positions, terms) key."""

    @pytest.mark.parametrize("round_mode", ["overlap", "barrier"])
    def test_one_walk_per_key(self, round_mode):
        model = parse_model(families.render(families.ws_pair(2), seed=1))
        walk = semantics._combinations
        keys = []

        def counted(comps, positions, prepared):
            keys.append((tuple(positions),
                         tuple(comps[i] for i in positions)))
            return walk(comps, positions, prepared)

        with mock.patch.object(semantics, "_combinations", counted):
            generate_lts(model.systems["Sys"], model,
                         Config(round_mode=round_mode))
        distinct = len(set(keys))
        assert distinct and len(keys) == distinct, (
            f"{len(keys)} walks for {distinct} keys")


def groups_of(source, system="S"):
    model = parse_model(source)
    return prepare_system(model.systems[system], model, Config()).groups


class TestFusionGroups:
    def test_comm_partners_share_a_group(self):
        assert groups_of("process P { P = a . P }\n"
                         "process Q { Q = b . Q }\n"
                         "process R { R = c . R }\n"
                         "comm a, b\n"
                         "system S = P <> R <> Q") == ((0, 2), (1,))

    def test_a_chained_gamma_chain_shares_a_group(self):
        # P and Q share no name and no comm pair; b links them
        assert groups_of("process P { P = a . P }\n"
                         "process Q { Q = c . Q }\n"
                         "comm a, b\n"
                         "comm b, c\n"
                         "system S = P <> Q") == ((0, 1),)

    def test_a_shadow_shares_a_group_with_its_action(self):
        assert groups_of("process P { P = @x . P }\n"
                         "process Q { Q = x . Q }\n"
                         "process R { R = y . R }\n"
                         "system S = P <> Q <> R") == ((0, 1), (2,))

    def test_a_shared_name_shares_a_group(self):
        assert groups_of("process P { P = a . P }\n"
                         "process Q { Q = b . a . Q }\n"
                         "system S = P <> Q") == ((0, 1),)

    @pytest.mark.parametrize("wrapper", ["hide {a} in", "block {a} in"])
    def test_names_under_a_nested_wrapper_count(self, wrapper):
        assert groups_of("process P { P = c . P1\n"
                         f"  P1 = {wrapper} (a . b . P1) }}\n"
                         "process Q { Q = a . Q }\n"
                         "system S = P <> Q") == ((0, 1),)

    def test_a_delta_component_sits_alone(self):
        assert groups_of("process P { P = a . P }\n"
                         "process Q { Q = a . Q }\n"
                         "system S = P <> delta <> Q") == ((0, 2), (1,))

    def test_disjoint_alphabets_give_separate_groups(self):
        assert groups_of("process P { P = a . b . P }\n"
                         "process Q { Q = c . Q }\n"
                         "process R { R = d . R + e . R }\n"
                         "system S = P <> Q <> R") == ((0,), (1,), (2,))


def uncached_pipeline(occs, per_step, prepared):
    """``_resolve_uncached``, then the per-step wrappers from the
    innermost out, each step with its label."""
    steps = [(events, None) for events in _resolve_uncached(occs, prepared)]
    for wrapper in reversed(per_step):
        steps = reference_wrap(wrapper, steps, prepared.conflicts)
    return tuple((events, reference_label(events)) for events, _ in steps)


class TestResolveMemo:
    """``_resolved`` answers from its per-system memo exactly what the
    uncached pipeline computes, for every (occurrence tuple, per-step
    wrappers) key that step enumeration meets, and hands out tuples that
    no caller can change."""

    @settings(derandomize=True, max_examples=CASES, deadline=None,
              database=None)
    @given(rng=st.randoms(use_true_random=False),
           policies=st.sampled_from(list(itertools.product(
               *(allowed for _, allowed in POLICIES.values())))))
    def test_memo_equals_uncached_resolver(self, rng, policies):
        model, system = rand_system(rng)
        prepared = prepare_system(system, model, Config(*policies))
        met = []

        def checked(occs, per_step, prepared):
            steps = _resolved(occs, per_step, prepared)
            assert isinstance(steps, tuple)
            assert steps == uncached_pipeline(occs, per_step, prepared)
            met.append((occs, per_step))
            return steps

        frontier = [prepared.initial_state()]
        seen = set(frontier)
        with mock.patch.object(semantics, "_resolved", checked):
            while frontier and len(seen) < 40:
                for _, succ in enabled_steps(frontier.pop(), prepared):
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
        # only a system without a single step meets no key
        assert met or not enabled_steps(prepared.initial_state(), prepared)
        assert set(prepared._step_cache) == set(met)
        for occs, per_step in dict.fromkeys(met):
            again = _resolved(occs, per_step, prepared)
            assert isinstance(again, tuple)
            assert again is prepared._step_cache[occs, per_step]
            assert again == uncached_pipeline(occs, per_step, prepared)


class TestWrapperPlacement:
    """A system means the same whether its hide/block/theta wrappers sit at
    top level or under a parallel composition.  Barrier rounds track only
    top-level components, so the property is stated for overlap rounds."""

    @settings(derandomize=True, max_examples=CASES, deadline=None,
              database=None)
    @given(rng=st.randoms(use_true_random=False),
           comm=st.sampled_from(("chained", "binary")),
           shadow=st.sampled_from(("strict", "loose")),
           step=st.sampled_from(("step", "interleave")))
    def test_system_equals_system_beside_delta(self, rng, comm, shadow, step):
        model, system = rand_system(rng)
        config = Config(comm_policy=comm, shadow_policy=shadow,
                        step_mode=step, round_mode="overlap",
                        max_states=3000)
        alone = generate_lts(system, model, config)
        beside = generate_lts(WholePar(Deadlock(), system), model, config)
        assert strong_step_bisim(alone, beside).holds


def reference_theta(steps, conflicts):
    """Theta as a loop over ordered pairs of distinct steps: for each
    conflict a # b met across the pair, the step holding the larger name
    of the two is removed."""
    if not conflicts:
        return list(steps)
    steps = list(dict.fromkeys(steps))
    names = []
    for events, _ in steps:
        own = set()
        for e in events:
            if isinstance(e.label, ActionLabel):
                own.add(e.label.name)
            elif isinstance(e.label, CommResultLabel):
                own.update(e.label.participants)
        names.append(own)
    removed = set()
    for i in range(len(steps)):
        for j in range(len(steps)):
            if i == j:
                continue
            for pair in sorted(conflicts, key=sorted):
                a, b = sorted(pair)
                for x, y in ((a, b), (b, a)):
                    if x in names[i] and y in names[j]:
                        loser = max(x, y)
                        if loser in names[i]:
                            removed.add(i)
                        else:
                            removed.add(j)
    return [s for k, s in enumerate(steps) if k not in removed]


def rand_event(rng):
    roll = rng.random()
    if roll < 0.5:
        return Event(ActionLabel(rng.choice(STEP_ACTIONS)), rng.random() < 0.3)
    if roll < 0.85:
        pair = tuple(sorted(rng.sample(STEP_ACTIONS, 2)))
        return Event(CommResultLabel(pair, rng.choice((None, "g"))), True)
    return Event(None, rng.random() < 0.5)   # hidden


class TestThetaDifferential:
    def test_counting_rule_equals_pairwise_loop(self):
        rng = random.Random(113)
        pairs = list(itertools.combinations(STEP_ACTIONS, 2))
        pruned = 0
        for _ in range(20 * CASES):
            # a small pool of event tuples and successors, so that steps
            # repeat and the same events reach different successors
            pool = [tuple(rand_event(rng) for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 4))]
            steps = [(rng.choice(pool), rng.choice(("s0", "s1", "s2")))
                     for _ in range(rng.randint(0, 6))]
            conflicts = frozenset(frozenset(p) for p in
                                  rng.sample(pairs, rng.randint(0, 3)))
            expected = reference_theta(steps, conflicts)
            assert apply_theta(steps, conflicts) == expected, (
                steps, conflicts)
            pruned += len(expected) < len(set(steps))
        assert pruned > 5 * CASES


def reference_canon(term):
    """The canonical form as one recursive rewrite: every node's children
    made canonical, then the node normalised, re-normalising a sequence
    after each re-association."""
    def key(t):
        return "\x00" if t is TERM else term_to_str(t)

    if isinstance(term, Seq):
        left = reference_canon(term.left)
        right = reference_canon(term.right)
        if left is TERM:
            return right
        if isinstance(left, Seq):
            return reference_canon(Seq(left.left, Seq(left.right, right)))
        return Seq(left, right)
    if isinstance(term, Alt):
        flat = []
        for b in term.branches:
            cb = reference_canon(b)
            flat.extend(cb.branches if isinstance(cb, Alt) else (cb,))
        uniq = sorted(set(flat), key=key)
        return uniq[0] if len(uniq) == 1 else Alt(tuple(uniq))
    if isinstance(term, (Par, WholePar)):
        left = reference_canon(term.left)
        right = reference_canon(term.right)
        if left is TERM:
            return right
        if right is TERM:
            return left
        return Par(left, right)
    if isinstance(term, (Hide, Encaps)):
        body = reference_canon(term.body)
        names = frozenset(term.names)
        if type(body) is type(term):
            names |= body.names
            body = body.body
        if not names or body is TERM:
            return body
        return type(term)(names, body)
    if isinstance(term, ConflictElim):
        body = reference_canon(term.body)
        if isinstance(body, ConflictElim) or body is TERM:
            return body
        return ConflictElim(body)
    return term.rebuild(tuple(map(reference_canon, term.children())))


_LEAVES = st.sampled_from((
    Act(ActionLabel("a")), Act(ActionLabel("b")), Act(ActionLabel("c", ("d1",))),
    Var("X"), Deadlock(), Shadow("a")))
_NAMES = st.frozensets(st.sampled_from(("a", "b", "c")), max_size=2)


def _wrappers(body):
    """Hide, block (both possibly with no names) and theta over ``body``."""
    return st.one_of(st.builds(Hide, _NAMES, body),
                     st.builds(Encaps, _NAMES, body),
                     st.builds(ConflictElim, body))


def _nodes(kids):
    return st.one_of(
        st.builds(Seq, kids, kids),
        st.builds(lambda a, b, c: Seq(Seq(a, b), c), kids, kids, kids),
        st.lists(kids, min_size=1, max_size=4).map(lambda bs: Alt(tuple(bs))),
        st.builds(lambda b: Alt((b, b)), kids),
        st.builds(Par, kids, kids),
        st.builds(WholePar, kids, kids),
        _wrappers(kids),
        _wrappers(_wrappers(kids)),
    )


RAW_TERMS = st.recursive(_LEAVES, _nodes, max_leaves=10)
CANONICAL = RAW_TERMS.map(reference_canon)


class TestCanonDifferential:
    """``canon`` and the four constructors it shares with generation
    against the canonical form written as one recursive rewrite."""

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(RAW_TERMS)
    def test_canon_equals_reference(self, term):
        assert canon(term) == reference_canon(term)

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(st.one_of(st.just(TERM), CANONICAL),
           st.one_of(st.just(TERM), CANONICAL),
           _wrappers(st.just(Deadlock())),
           st.lists(CANONICAL, min_size=1, max_size=3))
    def test_constructors_on_canonical_parts(self, left, right, wrapper,
                                             branches):
        assert _seq(left, right) == reference_canon(Seq(left, right))
        assert _par(left, right) == reference_canon(Par(left, right))
        # also over its own kind, which the wrapper merges with
        for body in (left, reference_canon(wrapper.rebuild((left,)))):
            assert (_wrap(wrapper, body)
                    == reference_canon(wrapper.rebuild((body,))))
        assert _alt(branches) == reference_canon(Alt(tuple(branches)))
