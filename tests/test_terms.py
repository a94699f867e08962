import dataclasses

import pytest

from stepcheck.dsl import _Name, parse_model
from stepcheck.semantics import TERM
from stepcheck.terms import (
    Act,
    ActionLabel,
    Alt,
    CommEntry,
    CommTable,
    ConflictElim,
    DataDomain,
    Deadlock,
    Encaps,
    Hide,
    Par,
    ProcessTerm,
    RecursiveSpec,
    Seq,
    Shadow,
    Sum,
    UnknownDomainError,
    Var,
    WholePar,
    alphabet,
    elaborate_sums,
    guardedness_check,
    substitute,
    term_to_str,
    unguarded_vars,
    validate_spec,
)


def act(name, *args):
    return Act(ActionLabel(name, tuple(args)))


NODES = [
    Deadlock(), act("a"), Shadow("a"), Var("P"), TERM, _Name("a", ("d1",)),
    Seq(act("a"), Var("P")),
    Alt((act("a"), act("b"), Var("P"))),
    Par(act("a"), act("b")),
    WholePar(Var("P"), Var("Q")),
    Sum("x", "D", act("a", "x")),
    Hide(frozenset({"a"}), Var("P")),
    Encaps(frozenset({"a"}), Var("P")),
    ConflictElim(Var("P")),
]


def node_classes(cls=ProcessTerm):
    for sub in cls.__subclasses__():
        if dataclasses.is_dataclass(sub):
            yield sub
        yield from node_classes(sub)


class TestChildren:
    def test_every_node_class_has_a_sample(self):
        assert set(node_classes()) <= {type(t) for t in NODES}

    def test_rebuild_of_children_is_identity(self):
        for t in NODES:
            assert t.rebuild(t.children()) == t

    def test_rebuild_takes_new_children(self):
        for t in NODES:
            kids = tuple(Var(f"K{i}") for i in range(len(t.children())))
            rebuilt = t.rebuild(kids)
            assert type(rebuilt) is type(t) and rebuilt.children() == kids

    def test_leaves_have_no_children(self):
        leaves = [t for t in NODES if not t.children()]
        assert {type(t) for t in leaves} == {
            Deadlock, Act, Shadow, Var, type(TERM), _Name}


class TestLabels:
    def test_action_pretty(self):
        assert ActionLabel("A1", ("d1",)).pretty() == "A1(d1)"
        assert ActionLabel("A2").pretty() == "A2"

    def test_tau_takes_no_arguments(self):
        with pytest.raises(ValueError):
            ActionLabel("tau", ("d1",))


class TestPrinting:
    def test_precedence(self):
        t = Alt((Seq(act("a"), act("b")), Par(act("c"), act("d"))))
        assert term_to_str(t) == "a . b + c || d"

    def test_seq_binds_tighter_than_par(self):
        t = Seq(Par(act("a"), act("b")), act("c"))
        assert term_to_str(t) == "(a || b) . c"

    def test_hide_parenthesized_in_sequence(self):
        t = Seq(Hide(frozenset({"a"}), act("a")), act("b"))
        assert term_to_str(t) == "(hide {a} in a) . b"

    def test_shadow_and_deadlock(self):
        assert term_to_str(Seq(Shadow("A1"), Deadlock())) == "@A1 . delta"


class TestSums:
    DOMS = {"D": DataDomain("D", ("d1", "d2"))}

    def test_substitute_touches_only_args(self):
        t = Seq(act("A1", "d"), Var("d"))
        out = substitute(t, "d", "d1")
        assert out == Seq(act("A1", "d1"), Var("d"))

    def test_elaboration_is_ordered_alt(self):
        t = Sum("d", "D", Seq(act("A1", "d"), Var("X")))
        out = elaborate_sums(t, self.DOMS)
        assert out == Alt((Seq(act("A1", "d1"), Var("X")),
                           Seq(act("A1", "d2"), Var("X"))))

    def test_unknown_domain(self):
        with pytest.raises(UnknownDomainError):
            elaborate_sums(Sum("d", "E", act("A1", "d")), self.DOMS)

    def test_nested_binders(self):
        from stepcheck.semantics import canon
        t = Sum("d", "D", Sum("e", "D", act("pair", "d", "e")))
        out = canon(elaborate_sums(t, self.DOMS))
        labels = {term_to_str(b) for b in out.branches}
        assert labels == {"pair(d1,d1)", "pair(d1,d2)",
                          "pair(d2,d1)", "pair(d2,d2)"}


class TestAlphabet:
    def test_collects_actions_and_shadow_bases(self):
        spec = RecursiveSpec("P", {
            "P": Seq(Shadow("A1"), Seq(act("B", "d1"), Var("P"))),
        }, "P")
        info = alphabet(spec, {})
        assert info.shadow_bases == frozenset({"A1"})
        assert info.actions == frozenset({ActionLabel("B", ("d1",))})


class TestGuardedness:
    def test_rejects_self_reference(self):
        spec = RecursiveSpec("P", {"P": Var("P")}, "P")
        ok, offenders = guardedness_check(spec)
        assert not ok and offenders == ("P",)

    def test_alt_requires_all_branches_guarded(self):
        t = Alt((Seq(act("a"), Var("P")), Var("P")))
        assert unguarded_vars(t) == frozenset({"P"})

    def test_sequence_guard_carries_over(self):
        t = Seq(act("a"), Var("P"))
        assert unguarded_vars(t) == frozenset()

    def test_accepts_guarded_loop(self):
        spec = RecursiveSpec("P", {"P": Seq(act("a"), Var("P"))}, "P")
        ok, offenders = guardedness_check(spec)
        assert ok and offenders == ()


class TestValidation:
    def test_unbound_variable_reported(self):
        spec = RecursiveSpec("P", {"P": Seq(act("a"), Var("Q"))}, "P")
        kinds = {v.kind for v in validate_spec(spec, (), CommTable())}
        assert "unbound-variable" in kinds

    def test_self_communication_rejected(self):
        comms = CommTable((CommEntry("a", "a"),))
        spec = RecursiveSpec("P", {"P": act("a")}, "P")
        kinds = {v.kind for v in validate_spec(spec, (), comms)}
        assert "self-communication" in kinds

    def test_clean_spec_has_no_violations(self, ws_model):
        assert ws_model.validate() == []

    def test_gamma_violation_reported_once_per_model(self):
        model = parse_model("""
            process P { P = a . P }
            process Q { Q = b . Q }
            process R { R = c . R }
            comm a, a
        """)
        kinds = [v.kind for v in model.validate()]
        assert kinds == ["self-communication"]

    def test_system_terms_are_validated(self):
        model = parse_model("""
            domain D = { x }
            process P { P = a . P }
            system S1 = sum d in Z . b(d)
            system S2 = sum d in D . sum d in D . b(d)
            system S3 = P || b(y)
            system S4 = tau . P
        """)
        found = {(v.kind, v.subject) for v in model.validate()}
        assert found == {("unknown-domain", "Z"), ("rebinding", "d"),
                         ("unknown-constant", "y"), ("reserved-name", "tau")}


class TestCommTable:
    def test_mapping_uses_declared_result(self):
        table = CommTable((CommEntry("a", "b", "cab"),))
        (label,) = table.mapping().values()
        assert label.pretty() == "cab"
        assert label.participants == ("a", "b")
