import copy
import dataclasses
import pickle

import pytest

from stepcheck.dsl import ParseError, _Name, parse_model
from stepcheck.model import Model
from stepcheck.semantics import _CANONICAL, TERM, _alt, _par, _seq, _wrap, canon
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
)
from stepcheck.terms import _INTERNED, _PREC_SEQ, _RENDERED


def act(name, *args):
    return Act(ActionLabel(name, tuple(args)))


def chain(n):
    """``a . a . … . a`` with n + 1 actions, built bottom-up."""
    t = act("a")
    for _ in range(n):
        t = Seq(act("a"), t)
    return t


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

    def test_fold_visits_each_subterm_once_in_post_order(self):
        a, b = act("a"), act("b")
        shared = Seq(a, b)
        twice = Seq(Var("X"), Var("X"))
        term = Alt((shared, Par(shared, a), twice))
        seen = []

        def size(t, kids):   # a shared subterm counts at each occurrence
            seen.append(t)
            return 1 + sum(kids)
        assert term.fold(size) == 12
        assert seen == [a, b, shared, Par(shared, a), Var("X"), twice, term]
        # a subterm in the memo is not entered
        seen.clear()
        assert term.fold(size, {shared: 0}) == 6
        assert seen == [a, Par(shared, a), Var("X"), twice, term]


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
        kinds = {v.kind for v in Model(processes=(spec,)).validate()}
        assert "unbound-variable" in kinds

    def test_self_communication_rejected(self):
        # the table refuses it, for a library caller and the parser alike
        with pytest.raises(ValueError) as library:
            CommTable((CommEntry("a", "a"),))
        with pytest.raises(ParseError) as text:
            parse_model("process P { P = a . P }\ncomm a, a")
        assert text.value.message == str(library.value) == (
            "comm a, a pairs an action with itself")

    def test_violations_come_process_by_process(self):
        # a process's entry, then its equations; then systems
        model = Model(
            processes=(RecursiveSpec("P", {"P1": Var("Q")}, "P"),
                       RecursiveSpec("R", {"R": act("tau")}, "Z")),
            systems={"S": Sum("d", "D", act("a", "d"))})
        assert [(v.kind, v.subject) for v in model.validate()] == [
            ("missing-entry", "P"), ("unbound-variable", "Q"),
            ("missing-entry", "Z"), ("reserved-name", "tau"),
            ("unknown-domain", "D")]

    def test_repeated_equation_is_named(self):
        # only a library caller can build it: the parser refuses it
        model = Model(processes=(
            RecursiveSpec("P", {"P": Seq(act("a"), Var("Q"))}, "P"),
            RecursiveSpec("Q", {"Q": Seq(act("b"), Var("Q")),
                                "P": act("c")}, "Q")))
        assert list(map(str, model.validate())) == [
            "duplicate-equation(P): equation name P declared twice"]

    def test_clean_spec_has_no_violations(self, ws_model):
        assert ws_model.validate() == []

    def test_gamma_fault_is_one_parse_error(self):
        # the first fault ends the parse: the self pair, not the repeat
        with pytest.raises(ParseError) as exc:
            parse_model("""
                process P { P = a . P }
                process Q { Q = b . Q }
                comm a, b
                comm a, a
                comm b, a
            """)
        assert (exc.value.line, exc.value.col) == (5, 22)

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


class TestInterning:
    """Equal structure is one object, whichever path builds it."""

    def test_every_node_class_interns(self):
        samples = {type(t): t for t in NODES}
        classes = list(node_classes())
        assert _Name in classes and type(TERM) in classes
        for cls in classes:
            t = samples[cls]
            values = {f.name: getattr(t, f.name)
                      for f in dataclasses.fields(cls)}
            assert cls(*values.values()) is t
            assert cls(**values) is t
            assert dataclasses.replace(t) is t
            assert t.rebuild(t.children()) is t
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__

    def test_parsed_terms_are_shared(self):
        m = parse_model("""
            process P { P = a . P + b . (c || d) }
            process Q { Q = a . P + b . (c || d) }
            system S = hide { a } in (P <> Q)
        """)
        p_rhs = m.equations()["P"]
        assert m.equations()["Q"] is p_rhs
        assert p_rhs is Alt((Seq(act("a"), Var("P")),
                             Seq(act("b"), Par(act("c"), act("d")))))
        assert m.systems["S"] is Hide(frozenset({"a"}),
                                      WholePar(Var("P"), Var("Q")))

    def test_sum_paths_intern(self):
        doms = {"D": DataDomain("D", ("d1", "d2"))}
        body = Seq(act("A", "d"), Var("X"))
        assert substitute(body, "d", "d1") is Seq(act("A", "d1"), Var("X"))
        assert substitute(act("B"), "d", "d1") is act("B")
        assert elaborate_sums(Sum("d", "D", body), doms) is Alt((
            Seq(act("A", "d1"), Var("X")), Seq(act("A", "d2"), Var("X"))))

    def test_canonical_constructors_intern(self):
        a, b = act("a"), act("b")
        assert _seq(Seq(a, b), a) is Seq(a, Seq(b, a))
        assert _seq(TERM, b) is b
        assert _alt((b, Alt((a, b)))) is Alt((a, b))
        assert _par(a, b) is Par(a, b)
        assert _wrap(Hide(frozenset({"a"}), a),
                     Hide(frozenset({"b"}), b)) is Hide(frozenset("ab"), b)
        assert _wrap(ConflictElim(a), ConflictElim(b)) is ConflictElim(b)
        assert canon(WholePar(Seq(Seq(a, b), a), b)) is Par(
            Seq(a, Seq(b, a)), b)

    def test_copies_and_pickles_are_the_same_object(self):
        terms = NODES + [Alt((Seq(act("a", "d1"), Var("P")),
                              Hide(frozenset({"a"}), TERM)))]
        for t in terms:
            assert copy.copy(t) is t
            assert copy.deepcopy(t) is t
            assert copy.deepcopy({"t": [t]})["t"][0] is t
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(t, protocol)) is t
        # a copy does not descend into the term, at any depth; pickle
        # still recurses
        deep = chain(5_000)
        assert copy.copy(deep) is deep
        assert copy.deepcopy(deep) is deep
        assert copy.deepcopy({"t": [deep]})["t"][0] is deep

    def test_failed_construction_leaves_no_entry(self):
        size = len(_INTERNED)
        with pytest.raises(ValueError):
            Alt(())
        with pytest.raises(ValueError):
            Alt(branches=())
        assert len(_INTERNED) == size
        assert (Alt, ()) not in _INTERNED

    def test_each_term_is_rendered_once(self):
        t = Seq(Par(act("r1"), act("r2")), Var("R"))
        assert t not in _RENDERED
        text = term_to_str(t)
        assert _RENDERED[t] == (text, _PREC_SEQ)
        assert term_to_str(t) is text
        assert term_to_str(t.left, _PREC_SEQ) == "(r1 || r2)"

    def test_each_term_is_made_canonical_once(self):
        t = Seq(Seq(act("c1"), act("c2")), Var("C"))
        assert t not in _CANONICAL
        assert canon(t) is Seq(act("c1"), Seq(act("c2"), Var("C")))
        assert _CANONICAL[t] is canon(t)
        # the leaves of a tree of sequences are folded, not the sequences
        # inside it, so a chain nested to the left is not made canonical
        # once per link
        assert _CANONICAL[t.left.left] is t.left.left
        assert t.left not in _CANONICAL

    def test_deep_sequence_hashes_without_recursion(self):
        t = chain(10_000)
        assert chain(10_000) is t and chain(10_000) == t
        assert hash(chain(10_000)) == hash(t)
        assert {t: "deep"}[chain(10_000)] == "deep"
