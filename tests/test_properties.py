"""Randomized property suites over small generated models.

Each property runs on at least 150 seeded random cases; across the suites
well over 1000 cases are exercised per test run.
"""
import contextlib
import functools
import io
import itertools
import random
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import stepcheck as sc
from stepcheck import cli, semantics
from stepcheck.composition import strip_shadows
from stepcheck.dsl import parse_model, render_model
from stepcheck.equivalence import (
    branching_bisim,
    minimize,
    rooted_branching_bisim,
    strong_step_bisim,
)
from stepcheck.model import RELATIONS, CheckGoal, Model
from stepcheck.semantics import (
    POLICIES,
    TERM,
    Config,
    Event,
    SystemState,
    _alt,
    _binary_matchings,
    _blocked,
    _label_hidden,
    _leaves,
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
    sorted_label,
    step_label,
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
    Sum,
    UnknownDomainError,
    Var,
    WholePar,
    elaborate_sums,
    guardedness_check,
    names_written,
    substitute,
    term_to_str,
    unguarded_vars,
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


class TestRandomModelsThroughCli:
    """Well-formed random systems, rendered to text, round-trip through
    the parser and end in a verdict or a one-line error from the CLI."""

    def test_verdict_or_one_line(self, tmp_path):
        rng = random.Random(110)
        path = tmp_path / "random.aptc"
        codes = set()
        for _ in range(30):
            model, system = rand_system(rng)
            model.systems["S"] = system
            model.checks = (CheckGoal(
                "c", "S", rng.choice(("S", "P0_0", "P1_0")),
                rng.choice(list(RELATIONS))),)
            text = render_model(model)
            assert render_model(parse_model(text)) == text
            path.write_text(text)
            for command in (["check"], ["lts", "--system", "S"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = cli.main([command[0], str(path), *command[1:],
                                     "--max-states", "300"])
                assert code in (0, 1, 2), text
                assert "Traceback" not in err.getvalue()
                if code == 2:
                    assert err.getvalue().count("\n") == 1, err.getvalue()
                codes.add(code)
        assert codes >= {0, 1}


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

    @pytest.mark.parametrize("step_mode", ["step", "interleave"])
    def test_barrier_re_entry_is_per_position(self, step_mode):
        # P and Q swap terms, so in Q <> P each position holds the term
        # that the other position started from: Q's move b . P re-enters
        # position 0's entry P, and would not re-enter position 1's
        model = parse_model("process P { P = a . Q }\n"
                            "process Q { Q = b . P }\n"
                            "system S = P <> Q")
        prepared = prepare_system(model.systems["S"], model, Config(
            round_mode="barrier", step_mode=step_mode))
        frontier = [prepared.initial_state()]
        seen = set(frontier)
        while frontier:
            state = frontier.pop()
            steps = enabled_steps(state, prepared)
            assert steps == reference_steps(state, prepared), state.pretty()
            for _, succ in steps:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        assert {"Q <> P @0,0", "P <> Q @1,0"} <= {s.pretty() for s in seen}


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
    comps = _leaves(system, Par)[:rng.randint(1, 2)]
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

    @pytest.mark.parametrize("round_mode", ["overlap", "barrier"])
    @pytest.mark.parametrize("system", ["S", "SR"])
    def test_ring_splits_its_group(self, system, round_mode):
        """``ring(9)`` is one static group whose state keys never repeat;
        split by what its components offer, its sub-groups' keys do."""
        model = parse_model(families.render(families.ring(9), seed=1))
        walk, resolver = semantics._combinations, semantics._resolve_uncached
        keys, runs = [], []

        def counted(comps, positions, prepared):
            keys.append((tuple(positions),
                         tuple(comps[i] for i in positions)))
            return walk(comps, positions, prepared)

        def resolving(occs, prepared):
            runs.append(occs)
            return resolver(occs, prepared)

        with mock.patch.multiple(semantics, _combinations=counted,
                                 _resolve_uncached=resolving):
            lts = generate_lts(model.systems[system], model,
                               Config(round_mode=round_mode))
        distinct = len(set(keys))
        assert distinct and len(keys) == distinct, (
            f"{len(keys)} walks for {distinct} keys")
        # walked whole, the group would walk once per state (126 under
        # overlap, 67 under barrier); split, its sub-groups' walks meet 27
        # occurrence tuples under either round mode, each resolved once
        assert len(keys) <= {"overlap": 27, "barrier": 18}[round_mode]
        assert len(runs) == len(set(runs)) <= 27
        assert lts.num_states == {"overlap": 126, "barrier": 67}[round_mode]

    @pytest.mark.parametrize("system", ["S", "SR"])
    def test_ring_stores_no_whole_state_key(self, system):
        """A key that covers every component is the state's own
        components, which no later state of the generation repeats under
        overlap: only the sub-groups' parts are stored, one per walk."""
        model = parse_model(families.render(families.ring(9), seed=1))
        prepare, walk = semantics.prepare_system, semantics._combinations
        prepared, walks = [], []

        def preparing(*args):
            prepared.append(prepare(*args))
            return prepared[-1]

        def counted(comps, positions, prepared):
            walks.append(positions)
            return walk(comps, positions, prepared)

        with mock.patch.multiple(semantics, prepare_system=preparing,
                                 _combinations=counted):
            generate_lts(model.systems[system], model, Config())
        (cache,) = [p._group_cache for p in prepared]
        assert not [positions for positions, _ in cache
                    if len(positions) == 9]
        assert len(cache) == len(walks) == 27

    def test_ring_13_generation_peaks_under_3_mb(self):
        # 5.9 MB when every state's part was stored under its whole key
        model = parse_model(families.render(families.ring(13), seed=1))
        tracemalloc.start()
        try:
            lts = generate_lts(model.systems["S"], model, Config())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lts.num_states == 1716
        assert peak < 3_000_000

    @pytest.mark.parametrize("round_mode", ["overlap", "barrier"])
    def test_resolved_meets_group_local_tuples(self, round_mode):
        """Every occurrence tuple that reaches ``_resolved`` from
        ``enabled_steps`` is the occurrences of one group's combination,
        and the resolver runs at most once per such tuple."""
        model = parse_model(families.render(families.ws_pair(2), seed=1))
        walk, memo = semantics._combinations, semantics._resolved
        raw, resolver = semantics._raw, semantics._resolve_uncached
        group_local = set()   # the occurrences of one group's combinations
        met = []              # tuples _resolved meets outside _raw
        runs = []             # tuples the resolver runs on
        depth = [0]           # open _raw calls

        def walking(comps, positions, prepared):
            assert any(set(positions) <= set(g) for g in prepared.groups)
            combos = walk(comps, positions, prepared)
            group_local.update(occs for _, occs in combos)
            return combos

        def raw_nested(term, prepared, stack=frozenset()):
            depth[0] += 1
            try:
                return raw(term, prepared, stack)
            finally:
                depth[0] -= 1

        def meeting(occs, per_step, prepared):
            if not depth[0]:
                met.append(occs)
            return memo(occs, per_step, prepared)

        def resolving(occs, prepared):
            runs.append(occs)
            return resolver(occs, prepared)

        with mock.patch.multiple(semantics, _combinations=walking,
                                 _raw=raw_nested, _resolved=meeting,
                                 _resolve_uncached=resolving):
            generate_lts(model.systems["Sys"], model,
                         Config(round_mode=round_mode))
        assert met and set(met) <= group_local
        assert len(runs) == len(set(runs)) <= len(group_local)


class TestInterleaveAcrossGroups:
    """Under interleave a step moves one group: the product of the
    groups' steps never joins two moving parts."""

    @pytest.mark.parametrize("round_mode", ["overlap", "barrier"])
    @pytest.mark.parametrize("system", ["P <> Q", "theta (P <> Q)"])
    def test_one_event_per_step(self, round_mode, system):
        model = parse_model("process P { P = a . b . P }\n"
                            "process Q { Q = c . d . Q }\n"
                            "conflict a # c\n"
                            f"system S = {system}")
        prepared = prepare_system(model.systems["S"], model, Config(
            step_mode="interleave", round_mode=round_mode))
        assert prepared.groups == ((0,), (1,))
        frontier = [prepared.initial_state()]
        seen = set(frontier)
        while frontier:
            state = frontier.pop()
            steps = enabled_steps(state, prepared)
            assert steps and all(len(label) == 1 for label, _ in steps)
            assert steps == reference_steps(state, prepared)
            for _, succ in steps:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        assert len(seen) > 2


# the reference's idle entry: it moves no component and makes one step,
# with no events and the empty label
IDLE = ((), (((), ()),))


def reference_part_product(parts, prepared):
    """The entries of ``parts`` taken together, read off the lexicographic
    product of the parts with an explicit idle entry appended to each,
    less the entry in which every part idles; under interleave, less
    every entry in which two parts move.

    An entry in which one part moves is that part's entry.  One in which
    several move makes all their moves, and its steps merge one step of
    each: the labels by ``sorted_label``, the events in ``_event_key``
    order when a per-state wrapper reads them, else False."""
    events_read = bool(prepared.split[1])
    interleave = prepared.config.step_mode == "interleave"
    product = []
    for combo in itertools.product(*[(*part, IDLE) for part in parts]):
        moving = [entry for entry in combo if entry[0]]
        if not moving or interleave and len(moving) > 1:
            continue
        if len(moving) == 1:
            product.append(moving[0])
            continue
        picks = tuple(pick for picks, _ in combo for pick in picks)
        steps = [(events_read and tuple(sorted(
                      (e for events, _ in choice for e in events),
                      key=semantics._event_key)),
                  sorted_label(a for _, label in choice for a in label))
                 for choice in itertools.product(
                     *(steps for _, steps in combo))]
        product.append((picks, steps))
    return product


def entries(product):
    """Product entries with their steps as tuples, for comparison."""
    return [(picks, tuple(steps)) for picks, steps in product]


def rand_part(rng, k):
    """A part of 1 to 3 entries whose picks name part ``k``, each with 1
    or 2 steps of 1 or 2 events."""
    part = []
    for j in range(rng.randint(1, 3)):
        steps = []
        for _ in range(rng.randint(1, 2)):
            events = tuple(sorted((rand_event(rng)
                                   for _ in range(rng.randint(1, 2))),
                                  key=semantics._event_key))
            steps.append((events, step_label(events)))
        part.append((tuple((k, (j, m)) for m in range(rng.randint(1, 2))),
                     tuple(steps)))
    return tuple(part)


PRODUCT_MODEL = parse_model("process P { P = a . b . P }\n"
                            "conflict a # b\n"
                            "system S = P\n"
                            "system T = theta (P)")


class TestPartProduct:
    """The order contract of the product of parts: the lexicographic
    product of the parts, each with an idle entry last, less the entry
    in which every part idles."""

    @settings(derandomize=True, max_examples=CASES, deadline=None,
              database=None)
    @given(rng=st.randoms(use_true_random=False),
           step_mode=st.sampled_from(("interleave", "step")),
           system=st.sampled_from(("S", "T")))
    def test_folded_product_equals_reference(self, rng, step_mode, system):
        # T's theta over a declared conflict reads the product's events
        prepared = prepare_system(PRODUCT_MODEL.systems[system],
                                  PRODUCT_MODEL, Config(step_mode=step_mode))
        parts = [rand_part(rng, k) for k in range(rng.randint(2, 3))]
        product = functools.reduce(
            lambda part, more: semantics._part_product(part, more, prepared),
            parts)
        assert entries(product) == entries(
            reference_part_product(parts, prepared))

    @settings(derandomize=True, max_examples=CASES, deadline=None,
              database=None)
    @given(rng=st.randoms(use_true_random=False),
           policies=st.sampled_from(POLICY_COMBINATIONS))
    def test_group_steps_equal_reference(self, rng, policies):
        """A state's entries are the reference product of its groups'
        parts, each over the group's movable positions."""
        model, system = rand_grouped_system(rng)
        prepared = prepare_system(system, model, Config(*policies))
        frontier = [prepared.initial_state()]
        seen = set(frontier)
        while frontier and len(seen) < 15:
            state = frontier.pop()
            comps, rounds = state.components, state.rounds
            parts = [semantics._group_part(comps, tuple(
                i for i in group if comps[i] is not TERM
                and not (rounds and rounds[i])), prepared)
                for group in prepared.groups]
            assert entries(semantics._group_steps(state, prepared)) == (
                entries(reference_part_product(parts, prepared)))
            for _, succ in enabled_steps(state, prepared):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)


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


def reference_connected(keyed) -> list:
    """The indices of ``keyed`` partitioned as ``_connected`` promises, by
    a closure loop: each index's part grows by every index whose keys
    meet the part's keys, until none does."""
    parts, placed = [], set()
    for i in range(len(keyed)):
        if i in placed:
            continue
        part, keys = {i}, set(keyed[i])
        grown = True
        while grown:
            grown = False
            for j, other in enumerate(keyed):
                if j not in part and not keys.isdisjoint(other):
                    part.add(j)
                    keys |= other
                    grown = True
        placed |= part
        parts.append(tuple(sorted(part)))
    return parts


@st.composite
def late_chains(draw):
    """Key sets that form chains of shared keys, each chain joined to
    the one before it only by a later index, so parts found apart merge
    late; shuffled, with empty sets mixed in."""
    keyed, key = [], 0
    for _ in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(1, 4))):
            keyed.append({key, key + 1})
            key += 1
        key += 1
    joins = draw(st.lists(st.integers(0, key), max_size=3))
    keyed += [{a, b} for a, b in zip(joins, joins[1:])]
    keyed += [set()] * draw(st.integers(0, 2))
    return draw(st.permutations(keyed))


class TestConnected:
    """``_connected``, the one union-find pass behind the gamma
    components, the fusion groups and a group's split in a state."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(
        st.lists(st.sets(st.integers(0, 6), max_size=3), max_size=12),
        late_chains()))
    def test_against_a_closure_loop(self, keyed):
        expected = reference_connected(keyed)
        assert semantics._connected(keyed) == tuple(expected)
        items = [f"p{i}" for i in range(len(keyed))]
        assert semantics._connected(keyed, items) == tuple(
            tuple(items[i] for i in part) for part in expected)


def split_of(source, config=Config()):
    """The sub-groups that the one fusion group of ``S`` splits into in its
    initial state: the positions of the group-memo keys other than the
    whole group's, or the whole group alone when it does not split."""
    model = parse_model(source)
    prepared = prepare_system(model.systems["S"], model, config)
    (group,) = prepared.groups
    enabled_steps(prepared.initial_state(), prepared)
    subgroups = sorted(positions for positions, _ in prepared._group_cache
                       if positions != group)
    return tuple(subgroups) or (group,)


class TestSplitKeys:
    """On a group-memo miss a group splits by the names its components'
    moves offer now, under the key rule of ``_fusion_groups``."""

    def test_a_shadow_stays_with_its_action(self):
        # R offers x only after y, so it sits alone at first
        assert split_of("process P { P = @x . P }\n"
                        "process Q { Q = x . Q }\n"
                        "process R { R = y . x . R }\n"
                        "system S = P <> Q <> R") == ((0, 1), (2,))

    def test_a_chained_gamma_component_stays_together(self):
        # a, b and c are one gamma component; T offers a only after d
        assert split_of("process P { P = a . P }\n"
                        "process Q { Q = b . Q }\n"
                        "process R { R = c . R }\n"
                        "process T { T = d . a . T }\n"
                        "comm a, b\n"
                        "comm b, c\n"
                        "system S = P <> Q <> R <> T") == ((0, 1, 2), (3,))

    @pytest.mark.parametrize("wrapper", ["hide {z} in", "block {z} in"])
    def test_resolved_events_sit_alone(self, wrapper):
        # P's x is resolved below its wrapper, so it cannot fuse with Q's x
        assert split_of(f"process P {{ P = {wrapper} (x . P) }}\n"
                        "process Q { Q = x . Q }\n"
                        "system S = P <> Q") == ((0,), (1,))

    def test_a_connected_group_is_walked_whole(self):
        assert split_of("process P { P = a . b . P }\n"
                        "process Q { Q = a . b . Q }\n"
                        "system S = P <> Q") == ((0, 1),)

    @pytest.mark.parametrize("step_mode", ["interleave", "step"])
    def test_interleave_joins_no_two_subgroups(self, step_mode):
        model = parse_model("process P { P = a . x . P }\n"
                            "process Q { Q = x . Q }\n"
                            "process R { R = b . y . R }\n"
                            "process T { T = y . T }\n"
                            "comm a, b\n"
                            "system S = P <> Q <> R <> T")
        prepared = prepare_system(model.systems["S"], model,
                                  Config(step_mode=step_mode))
        state = prepared.initial_state()
        steps = enabled_steps(state, prepared)
        assert steps == reference_steps(state, prepared)
        subgroups = ((0, 2), (1,), (3,))
        # the whole group covers every component: its part is not stored
        cache = prepared._group_cache
        assert {positions for positions, _ in cache} == set(subgroups)
        part = semantics._group_steps(state, prepared)
        joined = [picks for picks, _ in part
                  if sum(any(i in sub for i, _ in picks)
                         for sub in subgroups) > 1]
        if step_mode == "interleave":
            assert not joined
            assert all(len(label) == 1 for label, _ in steps)
        else:
            assert joined


def rand_pairwise_system(rng):
    """A model and a system of one fusion group: 3 or 4 components that
    talk pairwise, in a chain or a ring.

    Component k sends ``s<k>`` to the next one's receive ``r<k+1>`` and may
    have a local action ``l<k>``; a receiver may also shadow its sender's send,
    and a move may be resolved below a nested hide or block.  Each
    component cycles through its names, so whether a state's offers
    connect the whole group depends on the state: the group splits in
    some states and stays whole in others.
    """
    n = rng.randint(3, 4)
    names = [[f"l{k}"] for k in range(n)]
    shadows = [[] for _ in range(n)]
    comms = []
    for k in range(n if rng.random() < 0.5 else n - 1):
        j = (k + 1) % n
        names[k].append(f"s{k}")
        names[j].append(f"r{j}")
        comms.append(CommEntry(f"s{k}", f"r{j}", rng.choice((None, f"c{k}"))))
        if rng.random() < 0.4:
            shadows[j].append(f"s{k}")
    all_names = sorted(x for own in names for x in own)

    def head(k, name):
        roll = rng.random()
        if roll < 0.15:
            return Par(Act(ActionLabel(name)), Act(ActionLabel(f"l{k}")))
        if roll < 0.25:
            return rng.choice((Hide, Encaps))(
                frozenset((f"l{k}",)), Act(ActionLabel(name)))
        return Act(ActionLabel(name))

    specs, comps = [], []
    for k in range(n):
        # the local action, first in names[k], is kept in 2 of 5 components
        heads = [head(k, name) for name in names[k]
                 if name[0] != "l" or rng.random() >= 0.6]
        heads += [Shadow(base) for base in shadows[k]]
        rng.shuffle(heads)
        eqs = [f"P{k}_{j}" for j in range(len(heads))]
        equations = {}
        for j, h in enumerate(heads):
            body = Seq(h, Var(eqs[(j + 1) % len(eqs)]))
            if rng.random() < 0.5:
                extra = Act(ActionLabel(rng.choice(names[k])))
                body = Alt((body, Seq(extra, Var(rng.choice(eqs)))))
            equations[eqs[j]] = body
        specs.append(RecursiveSpec(f"P{k}", equations, eqs[0]))
        comps.append(Var(eqs[0]))
    pairs = list(itertools.combinations(all_names, 2))
    conflicts = frozenset(frozenset(p)
                          for p in rng.sample(pairs, rng.randint(0, 2)))
    model = Model(processes=tuple(specs), comms=CommTable(tuple(comms)),
                  conflicts=ConflictRelation(conflicts))
    system = comps[0]
    for comp in comps[1:]:
        system = Par(system, comp)
    if rng.random() < 0.5:
        system = Encaps(frozenset(x for x in all_names if x[0] in "sr"),
                        system)
    if rng.random() < 0.3:
        system = ConflictElim(system)
    if rng.random() < 0.3:
        system = Hide(frozenset(rng.sample(all_names, 2)), system)
    return model, system


class TestMoveRules:
    """``_raw`` and the ``_moves`` memo against the rules they implement."""

    def test_par_moves_one_side_or_both(self):
        """A parallel pair's moves: each side moves or stays, and not both
        stay, in the order of the product of the sides' moves, each
        distinct move once."""
        rng = random.Random(131)
        for _ in range(CASES):
            model, system = rand_system(rng)
            prepared = prepare_system(system, model,
                                      Config(*rng.choice(POLICY_COMBINATIONS)))
            x, y = rand_prefix(rng), rand_prefix(rng)
            xs = _raw(x, prepared) + (((), x),)
            ys = _raw(y, prepared) + (((), y),)
            product = [(o1 + o2, _par(x2, y2))
                       for o1, x2 in xs for o2, y2 in ys][:-1]
            assert _raw(Par(x, y), prepared) == tuple(
                dict.fromkeys(product)), (x, y)

    def test_offers_are_the_moves_names_and_bases(self):
        """Each memo entry holds the term's ``_raw`` moves and, as its
        offers, the fusion keys of the action names and shadow bases in
        their occurrences, each name mapped to its gamma component: an
        event resolved below a nested wrapper offers nothing."""
        rng = random.Random(137)
        entries = with_events = 0
        for _ in range(CASES):
            model, system = rand_system(rng)
            prepared = prepare_system(system, model,
                                      Config(*rng.choice(POLICY_COMBINATIONS)))
            frontier = [prepared.initial_state()]
            seen = set(frontier)
            while frontier and len(seen) < 40:
                for _, succ in enabled_steps(frontier.pop(), prepared):
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
            for term, (moves, offers) in prepared._moves_cache.items():
                occs = [o for move_occs, _ in moves for o in move_occs]
                assert moves == _raw(term, prepared)
                gamma = prepared.gamma_components
                assert offers == {gamma.get(n, n) for n in (
                    {o.name for o in occs if isinstance(o, ActionLabel)}
                    | {o.base for o in occs if isinstance(o, Shadow)})}
                entries += 1
                with_events += any(isinstance(o, Event) for o in occs)
        assert entries >= 3 * CASES and with_events >= CASES // 2


def closure_names(term, equations):
    """The action names and shadow bases of ``term`` and of the equations
    it reaches: each term read by recursion over ``children``, the
    reached equations by a closure loop over the variables met."""
    names, bases, met = set(), set(), set()

    def read(t):
        if isinstance(t, Act):
            names.add(t.label.name)
        elif isinstance(t, Shadow):
            bases.add(t.base)
        elif isinstance(t, Var) and t.name in equations:
            met.add(t.name)
        for kid in t.children():
            read(kid)

    read(term)
    done = set()
    while met - done:
        for name in met - done:
            done.add(name)
            read(equations[name])
    return frozenset(names), frozenset(bases)


# the fusion groups and shadow bases of every system of the models whose
# LTSs tests/test_fingerprints.py pins; no policy changes them
PINNED_GROUPS = {
    ("ws_pair(1)", "Sys"): (((0, 1, 2, 3),), ["A1x0", "A6x0", "B1x0", "B4x0"]),
    ("ws_pair(1)", "Spec"): (((0,),), []),
    ("ws_pair(2)", "Sys"): (
        ((0, 1, 2, 3), (4, 5, 6, 7)),
        ["A1x0", "A1x1", "A6x0", "A6x1", "B1x0", "B1x1", "B4x0", "B4x1"]),
    ("ws_pair(2)", "Spec"): (((0,), (1,)), []),
    ("ring(7)", "S"): (((0, 1, 2, 3, 4, 5, 6),), []),
    ("ring(7)", "SR"): (((0, 1, 2, 3, 4, 5, 6),), []),
    ("tau_chain(12, 2)", "SPEC"): (((0,), (1,)), []),
    ("tau_chain(12, 2)", "SR"): (((0,), (1,)), []),
    ("tau_chain(12, 2)", "S"): (((0,), (1,)), []),
    ("bundled", "Sys"): (((0, 1, 2, 3),), ["A1", "A6", "B1", "B4"]),
    ("bundled", "AbstractA"): (((0,),), []),
    ("bundled", "AbstractB"): (((0,),), []),
}


class TestNamesWritten:
    """``names_written``, the one walk behind a component's alphabet."""

    @pytest.mark.parametrize("make, seed", [(rand_system, 211),
                                            (rand_pairwise_system, 223)])
    def test_against_a_closure_loop(self, make, seed):
        rng = random.Random(seed)
        for _ in range(CASES):
            model, system = make(rng)
            prepared = prepare_system(system, model, Config())
            for equations in (model.equations(), prepared.equations):
                for component in prepared.components:
                    assert (names_written(component, equations)
                            == closure_names(component, equations))
            assert prepared.shadow_bases == frozenset().union(*(
                closure_names(c, prepared.equations)[1]
                for c in prepared.components))

    def test_without_equations_a_variable_is_a_leaf(self):
        term = Seq(Act(ActionLabel("a")), Par(Shadow("b"), Var("P")))
        equations = {"P": Seq(Act(ActionLabel("c")), Var("P"))}
        assert names_written(term) == ({"a"}, {"b"})
        assert names_written(term, equations) == ({"a", "c"}, {"b"})

    def test_pinned_groups_and_shadow_bases(self):
        models = {
            "ws_pair(1)": families.ws_pair(1),
            "ws_pair(2)": families.ws_pair(2),
            "ring(7)": families.ring(7),
            "tau_chain(12, 2)": families.tau_chain(12, 2),
        }
        models = {name: parse_model(families.render(decls, seed=1))
                  for name, decls in models.items()}
        models["bundled"] = sc.load_bundled_model()
        for policies in POLICY_COMBINATIONS:
            found = {}
            for name, model in models.items():
                for system_name, system in model.systems.items():
                    prepared = prepare_system(system, model, Config(*policies))
                    found[name, system_name] = (
                        prepared.groups, sorted(prepared.shadow_bases))
            assert found == PINNED_GROUPS, policies


class TestSplitEnumeration:
    """A static group split on a memo miss by what its components offer,
    against ``reference_steps``."""

    @pytest.mark.parametrize("policies", POLICY_COMBINATIONS, ids="-".join)
    def test_split_enumeration_equals_reference(self, policies):
        rng = random.Random("split " + " ".join(policies))
        connected = semantics._connected
        splits = []

        def splitting(keyed, items=None):
            parts = connected(keyed, items)
            splits.append(len(parts) > 1)
            return parts

        states = split_states = whole_states = 0
        for _ in range(CASES // 3):
            model, system = rand_pairwise_system(rng)
            prepared = prepare_system(system, model, Config(*policies))
            assert max(map(len, prepared.groups)) >= 3
            frontier = [prepared.initial_state()]
            seen = set(frontier)
            while frontier and len(seen) < 25:
                state = frontier.pop()
                expected = reference_steps(state, prepared)
                splits.clear()
                with mock.patch.object(semantics, "_connected", splitting):
                    steps = enabled_steps(state, prepared)
                assert steps == expected, (system, policies, state.pretty())
                states += 1
                split_states += any(splits)
                whole_states += bool(splits) and not any(splits)
                for _, succ in expected:
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
        # 305 to 577 split misses and 11 to 60 whole ones per combination
        assert split_states >= 250 and whole_states >= 8, (
            states, split_states, whole_states)


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


def reference_binary_matchings(idxs, acts, comm):
    """The recursive enumeration that ``_binary_matchings`` replaced: the
    first index unmatched, or paired with each later one it relates to."""
    if not idxs:
        yield ()
        return
    first, rest = idxs[0], idxs[1:]
    yield from reference_binary_matchings(rest, acts, comm)
    for j in rest:
        if frozenset((acts[first].name, acts[j].name)) in comm:
            remaining = tuple(k for k in rest if k != j)
            for sub in reference_binary_matchings(remaining, acts, comm):
                yield ((first, j),) + sub


class TestBinaryMatchings:
    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(st.lists(st.sampled_from("abcd"), max_size=8),
           st.sets(st.frozensets(st.sampled_from("abcd"), min_size=2,
                                 max_size=2)),
           st.frozensets(st.integers(0, 7)))
    def test_matchings_equal_the_recursive_version(self, names, comm, keep):
        acts = [ActionLabel(n) for n in names]
        idxs = tuple(i for i in range(len(acts)) if i in keep)
        matchings = _binary_matchings(idxs, acts, comm)
        assert len(set(matchings)) == len(matchings)
        assert sorted(matchings) == sorted(
            reference_binary_matchings(idxs, acts, comm))


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


# Recursive references for the passes that fold a term.


def reference_substitute(term, binder, value):
    if isinstance(term, Act):
        if binder in term.label.args:
            args = tuple(value if a == binder else a for a in term.label.args)
            return Act(ActionLabel(term.label.name, args))
        return term
    if isinstance(term, Sum) and term.binder == binder:
        return term
    return term.rebuild(tuple(reference_substitute(k, binder, value)
                              for k in term.children()))


def reference_elaborate(term, domains):
    if isinstance(term, Sum):
        if term.domain not in domains:
            raise UnknownDomainError(term.domain)
        body = reference_elaborate(term.body, domains)
        return Alt(tuple(reference_substitute(body, term.binder, v)
                         for v in domains[term.domain].values))
    return term.rebuild(tuple(reference_elaborate(k, domains)
                              for k in term.children()))


def reference_render(term, prec=0):
    """``term``'s text in a context of precedence ``prec``: 0 alternative,
    1 parallel, 2 sequence, 3 atom."""
    kids = term.children()
    if isinstance(term, Act):
        text, own = term.label.pretty(), 3
    elif isinstance(term, Var):
        text, own = term.name, 3
    elif isinstance(term, Shadow):
        text, own = "@" + term.base, 3
    elif isinstance(term, Deadlock):
        text, own = "delta", 3
    elif isinstance(term, Seq):
        text, own = (reference_render(kids[0], 3) + " . "
                     + reference_render(kids[1], 2)), 2
    elif isinstance(term, Alt):
        text, own = " + ".join(reference_render(k, 1) for k in kids), 0
    elif isinstance(term, (Par, WholePar)):
        op = " || " if isinstance(term, Par) else " <> "
        text, own = (reference_render(kids[0], 2) + op
                     + reference_render(kids[1], 2)), 1
    elif isinstance(term, Sum):
        text, own = (f"sum {term.binder} in {term.domain} . "
                     + reference_render(kids[0], 2)), 0
    elif isinstance(term, ConflictElim):
        text, own = "theta " + reference_render(kids[0], 3), 0
    else:
        keyword = "hide" if isinstance(term, Hide) else "block"
        names = "{" + ", ".join(sorted(term.names)) + "}"
        text, own = (f"{keyword} {names} in "
                     + reference_render(kids[0], 0)), 0
    return f"({text})" if own < prec else text


def reference_strip(term):
    if isinstance(term, Shadow):
        return None
    kids = term.children()
    if not kids:
        return term
    kept = tuple(k for k in map(reference_strip, kids) if k is not None)
    if not kept:
        return None
    if len(kept) == 1 and (len(kids) > 1 or isinstance(term, Alt)):
        return kept[0]
    return term.rebuild(kept)


def reference_guards(term):
    if isinstance(term, Var):
        return False
    if isinstance(term, Alt):
        return all(map(reference_guards, term.branches))
    kids = term.children()
    return not kids or any(map(reference_guards, kids))


def reference_unguarded(term):
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, Seq) and reference_guards(term.left):
        return reference_unguarded(term.left)
    return frozenset().union(*map(reference_unguarded, term.children()))


# RAW_TERMS under data sums over D or the undeclared Z; a binder may be
# bound twice, and d1 is both a constant and a binder
SUM_DOMAINS = {"D": DataDomain("D", ("d1", "d2"))}
SUMMED_TERMS = st.recursive(
    st.one_of(RAW_TERMS, st.just(Act(ActionLabel("c", ("x", "d1"))))),
    lambda kids: st.one_of(
        st.builds(Sum, st.sampled_from(("x", "d1")),
                  st.sampled_from(("D", "D", "D", "Z")), kids),
        st.builds(Seq, kids, kids),
        st.builds(Par, kids, kids)),
    max_leaves=4)


class TestFoldDifferential:
    """The passes that fold a term against their recursive references."""

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(SUMMED_TERMS, st.sampled_from(("x", "d1")))
    def test_substitute_equals_reference(self, term, binder):
        assert (substitute(term, binder, "d2")
                == reference_substitute(term, binder, "d2"))

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(SUMMED_TERMS)
    def test_elaborate_sums_equals_reference(self, term):
        try:
            expected = reference_elaborate(term, SUM_DOMAINS)
        except UnknownDomainError:
            with pytest.raises(UnknownDomainError):
                elaborate_sums(term, SUM_DOMAINS)
        else:
            assert elaborate_sums(term, SUM_DOMAINS) == expected

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(SUMMED_TERMS, st.sampled_from(range(4)))
    def test_term_to_str_equals_reference(self, term, prec):
        assert term_to_str(term, prec) == reference_render(term, prec)

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(SUMMED_TERMS)
    def test_strip_shadows_equals_reference(self, term):
        assert strip_shadows(term) == reference_strip(term)

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(SUMMED_TERMS)
    def test_unguarded_vars_equals_reference(self, term):
        assert unguarded_vars(term) == reference_unguarded(term)


class TestDeepTerms:
    """A term's depth is no limit: a 10 000-long sequence, nested to
    the right as the parser builds it or to the left, passes through
    ``canon``, ``_seq``, ``elaborate_sums`` and ``term_to_str``."""

    A = Act(ActionLabel("a"))
    B = Act(ActionLabel("b"))

    @staticmethod
    def chain(parts, nested):
        if nested == "right":
            return functools.reduce(lambda rest, p: Seq(p, rest),
                                    reversed(parts))
        return functools.reduce(Seq, parts)

    @pytest.mark.parametrize("nested", ["right", "left"])
    def test_elaborate_sums(self, nested):
        body = self.chain([Act(ActionLabel("a", ("x",)))] * 10_000, nested)
        assert elaborate_sums(Sum("x", "D", body), SUM_DOMAINS) == Alt(tuple(
            self.chain([Act(ActionLabel("a", (v,)))] * 10_000, nested)
            for v in ("d1", "d2")))

    def test_canon(self):
        term = self.chain([Alt((self.A, self.A))] * 10_000, "right")
        assert canon(term) is self.chain([self.A] * 10_000, "right")

    def test_canon_of_a_left_nested_chain(self):
        # 10 000 links over distinct actions, none of them canonical yet;
        # re-associating the chain at every node took 2.7 s at 1 000
        parts = [Act(ActionLabel(f"left{i}")) for i in range(10_001)]
        term = self.chain(parts, "left")
        start = time.perf_counter()
        result = canon(term)
        assert time.perf_counter() - start < 2
        assert result is self.chain(parts, "right")

    def test_seq(self):
        right = self.chain([self.A] * 10_000, "right")
        assert _seq(right, self.B) is self.chain(
            [self.A] * 10_000 + [self.B], "right")
        left = self.chain([self.A] * 10_000, "left")
        assert _seq(left, self.B) is Seq(left.left, Seq(self.A, self.B))

    # every suffix's text is kept, so the texts of an n-long chain take
    # about 2n² bytes: 3 000 is past the interpreter's recursion limit
    # and keeps them near 20 MB
    @pytest.mark.parametrize("nested", ["right", "left"])
    def test_term_to_str(self, nested):
        text = term_to_str(self.chain([self.A] * 3_000, nested))
        if nested == "right":
            assert text == " . ".join(["a"] * 3_000)
        else:
            assert text == "(" * 2_998 + "a . a" + ") . a" * 2_998
