import pytest

import stepcheck as sc
from stepcheck import semantics
from stepcheck.dsl import parse_model
from stepcheck.equivalence import strong_step_bisim
from stepcheck.semantics import (
    Config,
    StateBudgetExceeded,
    UnguardedRecursion,
    canon,
    generate_lts,
    label_str,
    prune_dead,
)
from stepcheck.terms import (
    Act,
    ActionLabel,
    Alt,
    Hide,
    Par,
    Seq,
    Var,
    WholePar,
)


def lts_of(source, system="S", **cfg):
    model = parse_model(source)
    term = model.systems.get(system, Var(system))
    return generate_lts(term, model, Config(**cfg))


def visible_labels(lts):
    return {label_str(a) for _, a, _ in lts.transitions}


class TestCanon:
    def test_alt_flattens_sorts_dedupes(self):
        a, b = Act(ActionLabel("a")), Act(ActionLabel("b"))
        t = Alt((Alt((b, a)), a))
        assert canon(t) == Alt((a, b))

    def test_singleton_alt_unwraps(self):
        a = Act(ActionLabel("a"))
        assert canon(Alt((a, a))) == a

    def test_seq_right_associates(self):
        a, b, c = (Act(ActionLabel(n)) for n in "abc")
        assert canon(Seq(Seq(a, b), c)) == Seq(a, Seq(b, c))

    def test_whole_par_collapses_to_par(self):
        a, b = Act(ActionLabel("a")), Act(ActionLabel("b"))
        assert canon(WholePar(a, b)) == Par(a, b)

    def test_nested_hide_merges(self):
        a = Act(ActionLabel("a"))
        t = Hide(frozenset({"x"}), Hide(frozenset({"y"}), a))
        assert canon(t) == Hide(frozenset({"x", "y"}), a)

    def test_empty_hide_vanishes(self):
        a = Act(ActionLabel("a"))
        assert canon(Hide(frozenset(), a)) == a


class TestBasicSteps:
    def test_sequence_then_termination(self):
        lts = lts_of("process P { P = a . b . delta }", "P")
        assert lts.num_states == 3
        assert lts.deadlock_states() == (2,)

    def test_choice_branches(self):
        lts = lts_of("process P { P = a . P + b . P }", "P")
        assert visible_labels(lts) == {"{a}", "{b}"}
        assert lts.num_states == 1

    def test_parallel_step_mode_allows_simultaneity(self):
        lts = lts_of("process P { P = a . delta || b . delta }", "P")
        assert "{a,b}" in visible_labels(lts)
        assert "{a}" in visible_labels(lts)

    def test_interleave_mode_forbids_simultaneity(self):
        lts = lts_of("process P { P = a . delta || b . delta }", "P",
                     step_mode="interleave")
        assert visible_labels(lts) == {"{a}", "{b}"}

    def test_deadlock_constant_has_no_moves(self):
        lts = lts_of("process P { P = delta }", "P")
        assert lts.num_states == 1 and lts.transitions == ()


class TestCommunication:
    PAIR = """
process P { P = a . delta }
process Q { Q = b . delta }
comm a, b -> ab
system S = block {a, b} in (P <> Q)
"""

    def test_binary_fusion(self):
        lts = lts_of(self.PAIR, comm_policy="binary")
        assert visible_labels(lts) == {"{ab}"}

    def test_encapsulation_blocks_unfused_halves(self):
        lts = lts_of(self.PAIR)
        assert all("{a}" != label_str(a) for _, a, _ in lts.transitions)

    def test_chained_fusion_needs_whole_component(self):
        # gamma chains a-b and b-c into one component {a, b, c}
        src = """
process P { P = a . delta }
process Q { Q = b . delta }
comm a, b
comm b, c
system S = block {a, b, c} in (P <> Q)
"""
        lts = lts_of(src, comm_policy="chained")
        # c is never offered: nothing can fuse, the system is stuck
        assert lts.transitions == ()

    def test_chained_fusion_fires_when_complete(self):
        src = """
process P { P = a . delta }
process Q { Q = b . delta }
process R { R = c . delta }
comm a, b
comm b, c
system S = block {a, b, c} in (P <> Q <> R)
"""
        lts = lts_of(src, comm_policy="chained")
        assert visible_labels(lts) == {"{c(a,b,c)}"}


class TestHiding:
    def test_hidden_step_is_tau(self):
        lts = lts_of("process P { P = a . delta }\n"
                     "system S = hide {a} in P")
        assert [label_str(a) for _, a, _ in lts.transitions] == ["tau"]

    def test_partially_hidden_step_keeps_residue(self):
        lts = lts_of("process P { P = a . delta || b . delta }\n"
                     "system S = hide {a} in P")
        assert "{b}" in visible_labels(lts)
        assert "{a,b}" not in visible_labels(lts)

    def test_hidden_loop_stays_finite(self):
        lts = lts_of("process P { P = hide {a} in a . P }", "P")
        assert lts.num_states <= 2
        assert all(a == () for _, a, _ in lts.transitions)


WRAPPER_ORDER_MODEL = """
process P { P = a . delta }
process Q { Q = b . delta }
process R { R = delta }
conflict a # b
"""


class TestWrapperOrder:
    """hide, block and theta apply in the order written, at top level and
    nested under a parallel composition alike."""

    @pytest.mark.parametrize("system, labels", [
        ("block {a} in hide {a} in P", {"tau"}),
        ("theta (block {a} in (P <> Q))", {"{b}"}),
    ], ids=["block-over-hide", "theta-over-block"])
    def test_top_level_equals_nested(self, system, labels):
        model = parse_model(WRAPPER_ORDER_MODEL
                            + f"system S = {system}\n"
                            + f"system N = R <> ({system})\n")
        top = generate_lts(model.systems["S"], model, Config())
        nested = generate_lts(model.systems["N"], model, Config())
        assert visible_labels(top) == labels
        assert strong_step_bisim(top, nested).holds

    # a theta over declared conflicts puts every top-level wrapper per
    # state; otherwise each hide and block is per step and theta is dropped
    @pytest.mark.parametrize("system, conflicts, per_step, per_state", [
        ("theta (hide {a} in (P <> Q))", True, "", "01"),
        ("hide {a} in theta (P <> Q)", True, "", "01"),
        ("hide {b} in theta (block {a} in (P <> Q))", True, "", "012"),
        ("theta (block {a} in theta (P <> Q))", True, "", "012"),
        ("block {a} in hide {b} in (P <> Q)", True, "01", ""),
        ("theta (hide {a} in (P <> Q))", False, "1", ""),
        ("hide {b} in theta (block {a} in (P <> Q))", False, "02", ""),
    ])
    def test_top_level_split(self, system, conflicts, per_step, per_state):
        source = WRAPPER_ORDER_MODEL + f"system S = {system}\n"
        if not conflicts:
            source = source.replace("conflict a # b\n", "")
        model = parse_model(source)
        prepared = semantics.prepare_system(model.systems["S"], model,
                                            Config())
        assert prepared.split == tuple(
            tuple(prepared.wrappers[int(i)] for i in positions)
            for positions in (per_step, per_state))

    def test_interleave_also_restricts_what_theta_sees(self):
        # {c, g} has two events: under interleave no theta may let it
        # eliminate {g}, whether the theta is at top level or nested
        src = """
        process P { P = d . delta }
        process Q { Q = c . delta }
        process W { W = (b || @c) . delta }
        process R { R = delta }
        comm b, d -> g
        conflict b # d
        system S = theta (block {b, c, d} in (P <> Q <> W))
        system N = R <> (theta (block {b, c, d} in (P <> Q <> W)))
        """
        top = lts_of(src, "S", step_mode="interleave")
        nested = lts_of(src, "N", step_mode="interleave")
        assert "{g}" in {label_str(a) for s, a, _ in top.transitions
                         if s == top.initial}
        assert strong_step_bisim(top, nested).holds

    def test_step_derived_twice_is_not_its_own_rival(self):
        # {g} holds both sides of a # b and comes from either b of P
        src = """
        process P { P = (b || b) . delta }
        process Q { Q = a . delta + c . (@a || @b) . delta }
        process R { R = delta }
        comm a, b -> g
        conflict a # b
        system S = theta (P <> Q)
        system N = R <> (theta (P <> Q))
        """
        top = lts_of(src, "S")
        nested = lts_of(src, "N")
        assert "{g}" in visible_labels(top)
        assert strong_step_bisim(top, nested).holds


class TestShadows:
    BASE = """
process P { P = a . delta }
process Q { Q = @a . b . delta }
system S = P <> Q
"""

    def test_shadow_fuses_with_base(self):
        lts = lts_of(self.BASE)
        assert "{a}" in visible_labels(lts)

    def test_strict_policy_forbids_lone_base(self):
        lts = lts_of(self.BASE, shadow_policy="strict")
        # every a-step must carry the fusion: b is only reachable after it
        first = {label_str(a) for s, a, _ in lts.transitions if s == 0}
        assert first == {"{a}"}

    def test_loose_policy_allows_lone_base(self):
        lts = lts_of(self.BASE, shadow_policy="loose")
        assert lts.num_states > lts_of(self.BASE).num_states

    def test_standalone_shadow_never_fires(self):
        lts = lts_of("process Q { Q = @a . b . delta }", "Q")
        assert lts.transitions == ()

    def test_shadow_axiom(self):
        with_shadow = lts_of("process P { P = a . delta <> @a . delta }", "P")
        plain = lts_of("process P { P = a . delta }", "P")
        assert sc.strong_step_bisim(with_shadow, plain).holds


class TestRounds:
    RACE = """
process P { P = a . P }
process Q { Q = b . Q }
system S = P <> Q
"""

    def test_overlap_lets_components_race(self):
        lts = lts_of(self.RACE, round_mode="overlap")
        assert lts.num_states == 1  # both loop in place, no round tracking

    def test_barrier_keeps_components_in_lockstep(self):
        lts = lts_of(self.RACE, round_mode="barrier")
        # after a alone, P is one round ahead: only b (or nothing) may move
        by_src = {}
        for s, a, t in lts.transitions:
            by_src.setdefault(s, set()).add(label_str(a))
        for s, a, t in lts.transitions:
            if label_str(a) == "{a}" and s == 0:
                assert by_src[t] == {"{b}"}

    def test_barrier_allows_joint_step(self):
        lts = lts_of(self.RACE, round_mode="barrier")
        assert "{a,b}" in visible_labels(lts)


class TestErrors:
    def test_unguarded_recursion_detected(self):
        with pytest.raises(UnguardedRecursion):
            lts_of("process P { P = P }", "P")

    def test_state_budget(self):
        src = "process P { P = a . (P || P) }"
        with pytest.raises(StateBudgetExceeded):
            lts_of(src, "P", max_states=20)

    def test_state_budget_reports_the_bfs_depth(self):
        # a chain of five states: the fourth state found is at depth 3
        src = "process P { P = a . b . c . d . e . P }"
        with pytest.raises(StateBudgetExceeded) as info:
            lts_of(src, "P", max_states=3)
        assert (info.value.max_states, info.value.depth,
                info.value.frontier) == (3, 3, 0)
        assert lts_of(src, "P", max_states=5).num_states == 5


class TestPruneDead:
    def test_removes_doomed_branch(self):
        lts = lts_of("process P { P = a . P + b . delta }", "P")
        pruned = prune_dead(lts)
        assert visible_labels(pruned) == {"{a}"}

    def test_initially_dead_system_flagged(self):
        pruned = prune_dead(lts_of("process P { P = delta }", "P"))
        assert pruned.num_states == 1 and pruned.transitions == ()

    def test_live_lts_unchanged(self):
        lts = lts_of("process P { P = a . P }", "P")
        pruned = prune_dead(lts)
        assert pruned.num_states == lts.num_states
        assert pruned.transitions == lts.transitions

    def test_nothing_to_prune_returns_the_input(self):
        # every state live and reachable, as on two hidden cycles side by side
        lts = lts_of("process P { P = a . t . P }\n"
                     "process Q { Q = b . t . t . Q }\n"
                     "system S = hide {t} in (P <> Q)")
        assert lts.num_states == 6
        assert prune_dead(lts) is lts


class TestBundledOrchestration:
    def test_wsoa_state_count(self, ws_model):
        # entry, post-A1, five positions of the (A3.A4 || A5) diamond, post-A6
        lts = generate_lts(Var("WSOA"), ws_model,
                           Config(step_mode="interleave"))
        assert lts.num_states == 8

    def test_wsoa_diamond_commutes(self, ws_model):
        lts = generate_lts(Var("WSOA"), ws_model, Config())
        assert "{A3,A5}" in {label_str(a) for _, a, _ in lts.transitions}


class TestDeterminism:
    def test_generation_is_reproducible(self, ws_model):
        cfg = Config(round_mode="barrier")
        a = generate_lts(ws_model.systems["Sys"], ws_model, cfg)
        b = generate_lts(ws_model.systems["Sys"], ws_model, cfg)
        assert a == b


class TestResolveOnce:
    @pytest.mark.parametrize("round_mode", ["overlap", "barrier"])
    def test_each_occurrence_tuple_resolved_once_per_system(
            self, ws_model, monkeypatch, round_mode):
        met = {"strict": [], "loose": []}        # keys passed to _resolved
        resolved = {"strict": [], "loose": []}   # tuples actually resolved
        memos = {}
        memo, uncached = semantics._resolved, semantics._resolve_uncached

        def meeting(occs, per_step, prepared):
            met[prepared.config.shadow_policy].append((occs, per_step))
            memos[prepared.config.shadow_policy] = prepared._step_cache
            return memo(occs, per_step, prepared)

        def resolving(occs, prepared):
            resolved[prepared.config.shadow_policy].append(occs)
            return uncached(occs, prepared)

        monkeypatch.setattr(semantics, "_resolved", meeting)
        monkeypatch.setattr(semantics, "_resolve_uncached", resolving)
        for shadow in ("strict", "loose"):
            generate_lts(ws_model.systems["Sys"], ws_model,
                         Config(round_mode=round_mode, shadow_policy=shadow))
        for shadow in ("strict", "loose"):
            keys = set(met[shadow])
            assert len(met[shadow]) > len(keys)
            # one resolution per distinct key, and none for a key not met
            assert len(resolved[shadow]) == len(keys)
            assert set(resolved[shadow]) == {occs for occs, _ in keys}
            assert set(memos[shadow]) == keys
        # the second system meets tuples the first one resolved, and
        # resolves them again under its own shadow policy
        assert set(resolved["strict"]) & set(resolved["loose"])
        assert memos["strict"] is not memos["loose"]

    def test_shadow_policy_changes_what_one_tuple_resolves_to(self, ws_model):
        # why the memo lives on the prepared system: shared between two
        # configs, it would hand one of them the other's steps
        prepared = {shadow: semantics.prepare_system(
            ws_model.systems["Sys"], ws_model, Config(shadow_policy=shadow))
            for shadow in ("strict", "loose")}
        occs = (ActionLabel(min(prepared["strict"].shadow_bases)),)
        assert semantics._resolved(occs, (), prepared["strict"]) == ()
        assert semantics._resolved(occs, (), prepared["loose"]) == (
            ((semantics.Event(occs[0], False),), occs),)


class TestRenderOnce:
    @pytest.mark.parametrize("round_mode", ["overlap", "barrier"])
    def test_each_state_name_rendered_once_per_generation(
            self, ws_model, monkeypatch, round_mode):
        rendered = []
        pretty = semantics.SystemState.pretty

        def counting(state):
            rendered.append(state)
            return pretty(state)

        monkeypatch.setattr(semantics.SystemState, "pretty", counting)
        config = Config(round_mode=round_mode)
        for _ in range(2):
            rendered.clear()
            lts = generate_lts(ws_model.systems["Sys"], ws_model, config)
            assert len(rendered) == len(set(rendered)) == lts.num_states
            assert sorted(lts.state_names) == sorted(map(pretty, rendered))


class TestSharedLabelMerge:
    """``_merge_labels`` is one cache for the process: a generation reuses
    the merges that an earlier one made, whatever its config."""

    # two loops that no fusion joins: every step that moves both is a merge
    LOOPS = """
process P { P = a . P }
process Q { Q = b . Q + c . Q }
system S = P <> Q
"""

    @pytest.fixture
    def merges(self, monkeypatch):
        """The cached function, emptied, and a list that a spy in its
        place fills with each call's (label, more label, merge)."""
        cached = semantics._merge_labels
        cached.cache_clear()
        calls = []

        def spy(label, more_label):
            merged = cached(label, more_label)
            calls.append((label, more_label, merged))
            return merged

        monkeypatch.setattr(semantics, "_merge_labels", spy)
        return cached, calls

    @staticmethod
    def pairs(cached, calls) -> set:
        """The pairs that ``calls`` merged, after checking that each
        merge is the union's label and the one the cache holds."""
        for label, more_label, merged in calls:
            assert merged == semantics.sorted_label(label + more_label)
            assert merged is cached(label, more_label)
        return {(label, more_label) for label, more_label, _ in calls}

    def test_a_second_generation_merges_no_pair_again(self, ws_model,
                                                       merges):
        cached, calls = merges
        system = ws_model.systems["Sys"]
        generate_lts(system, ws_model, Config())
        first = self.pairs(cached, calls)
        assert first
        assert cached.cache_info().misses == len(first)
        calls.clear()
        generate_lts(system, ws_model, Config())
        assert self.pairs(cached, calls) == first
        assert cached.cache_info().misses == len(first)

    def test_a_barrier_generation_reuses_the_overlap_merges(self, merges):
        cached, calls = merges
        model = parse_model(self.LOOPS)
        generate_lts(model.systems["S"], model, Config(round_mode="overlap"))
        overlap = self.pairs(cached, calls)
        calls.clear()
        generate_lts(model.systems["S"], model, Config(round_mode="barrier"))
        barrier = self.pairs(cached, calls)
        assert overlap & barrier
        assert cached.cache_info().misses == len(overlap | barrier)
