import copy
import dataclasses
import pickle

import pytest

from stepcheck import composition, dsl, equivalence, model, semantics, terms
from stepcheck.composition import AbDef, WscContract
from stepcheck.dsl import ParseError, Token, _Name, parse_model
from stepcheck.equivalence import StepCounterexample, TraceCounterexample, Verdict
from stepcheck.model import CheckGoal, Model
from stepcheck.semantics import (
    _CANONICAL,
    TERM,
    Config,
    PreparedSystem,
    StepLTS,
    _alt,
    _par,
    _seq,
    _wrap,
    canon,
)
from stepcheck.terms import (
    Act,
    ActionLabel,
    AlphabetInfo,
    Alt,
    CommEntry,
    CommTable,
    ConflictElim,
    ConflictRelation,
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
    Violation,
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


# ---------------------------------------------------------------------------
# The record contract: every class of ``src/stepcheck`` declared with
# ``dataclasses`` options keeps what the library's callers read of it


LTS = StepLTS(0, 2, ((0, (ActionLabel("a"),), 1),), ("s0", "s1"))
PAIRS = frozenset({frozenset({"a", "b"})})   # its order varies by hash seed
SPEC = RecursiveSpec("P", {"P": Seq(act("a", "d1"), Var("P"))}, "P")
_ACT = "Act(label=ActionLabel(name='a', args=('d1',)))"
_CONFIG = ("Config(comm_policy='chained', step_mode='step', "
           "round_mode='overlap', shadow_policy='strict', max_states=100000)")
_LTS = ("StepLTS(initial=0, num_states=2, transitions=((0, "
        "(ActionLabel(name='a', args=()),), 1),), state_names=('s0', 's1'))")
_SPEC = ("RecursiveSpec(name='P', equations={'P': Seq(left=" + _ACT
         + ", right=Var(name='P'))}, entry='P')")

# (sample, its repr)
RECORDS = [
    (DataDomain("D", ("d1", "d2")), "DataDomain(name='D', values=('d1', 'd2'))"),
    (Deadlock(), "Deadlock()"),
    (act("a", "d1"), _ACT),
    (Shadow("b"), "Shadow(base='b')"),
    (Var("P"), "Var(name='P')"),
    (Seq(act("a", "d1"), Var("P")), f"Seq(left={_ACT}, right=Var(name='P'))"),
    (Alt((act("a", "d1"), Var("P"))),
     f"Alt(branches=({_ACT}, Var(name='P')))"),
    (Par(act("a", "d1"), Deadlock()), f"Par(left={_ACT}, right=Deadlock())"),
    (WholePar(Var("P"), Var("Q")),
     "WholePar(left=Var(name='P'), right=Var(name='Q'))"),
    (Sum("x", "D", act("a", "x")), "Sum(binder='x', domain='D', body="
     "Act(label=ActionLabel(name='a', args=('x',))))"),
    (Hide(frozenset({"a"}), Var("P")),
     "Hide(names=frozenset({'a'}), body=Var(name='P'))"),
    (Encaps(frozenset({"a"}), Var("P")),
     "Encaps(names=frozenset({'a'}), body=Var(name='P'))"),
    (ConflictElim(Var("P")), "ConflictElim(body=Var(name='P'))"),
    (_Name("a", ("d1",)), "_Name(name='a', args=('d1',))"),
    (TERM, "TERM"),
    (SPEC, _SPEC),
    (CommEntry("a", "b", "c"), "CommEntry(a='a', b='b', result='c')"),
    (CommTable((CommEntry("a", "b"),)),
     "CommTable(entries=(CommEntry(a='a', b='b', result=None),))"),
    (ConflictRelation(PAIRS), f"ConflictRelation(pairs={PAIRS!r})"),
    (AlphabetInfo(frozenset({ActionLabel("a")}), frozenset({"b"})),
     "AlphabetInfo(actions=frozenset({ActionLabel(name='a', args=())}), "
     "shadow_bases=frozenset({'b'}))"),
    (Violation("unbound-variable", "Q", "Q used in P but never defined"),
     "Violation(kind='unbound-variable', subject='Q', "
     "message='Q used in P but never defined')"),
    (AbDef("AB", "WSO", frozenset({"x"}), LTS, None),
     "AbDef(name='AB', source='WSO', internal=frozenset({'x'}), "
     f"lts={_LTS}, spec=None, notes=())"),
    (WscContract("C", (("a", "b"),), SPEC),
     f"WscContract(name='C', pairs=(('a', 'b'),), protocol={_SPEC})"),
    (TraceCounterexample(((ActionLabel("a"),),), "left"),
     "TraceCounterexample(trace=((ActionLabel(name='a', args=()),),), "
     "side='left')"),
    (StepCounterexample((), "why"), "StepCounterexample(trace=(), reason='why')"),
    (Verdict(True, "strong step bisimulation", details={"blocks": 1}),
     "Verdict(holds=True, relation='strong step bisimulation', "
     "counterexample=None, details={'blocks': 1})"),
    (CheckGoal("c", "P", "Q", "branching-bisim"),
     "CheckGoal(name='c', left='P', right='Q', relation='branching-bisim', "
     "overrides={})"),
    (Model(), "Model(domains=(), processes=(), comms=CommTable(entries=()), "
     "conflicts=ConflictRelation(pairs=frozenset()), action_sets={}, "
     "systems={}, checks=())"),
    (Config(), _CONFIG),
    (PreparedSystem((Var("P"),), ("P",), (), ((), ()), {}, {}, {},
                    frozenset(), frozenset(), ((0,),), Config()),
     "PreparedSystem(components=(Var(name='P'),), entries=('P',), "
     "wrappers=(), split=((), ()), equations={}, comm={}, "
     "gamma_components={}, conflicts=frozenset(), shadow_bases=frozenset(), "
     f"groups=((0,),), config={_CONFIG}, _moves_cache={{}}, "
     "_step_cache={}, _group_cache={}, "
     "_rounds_cache=defaultdict(<class 'dict'>, {}))"),
    (LTS, _LTS),
]
MUTABLE = {RecursiveSpec, AbDef, WscContract, Verdict, CheckGoal, Model}


def record_classes() -> set:
    """The classes of stepcheck's modules that ``dataclasses`` knows."""
    return {v for m in (terms, dsl, model, semantics, equivalence, composition)
            for v in vars(m).values() if isinstance(v, type)
            and v.__module__ == m.__name__ and dataclasses.is_dataclass(v)}


def hash_of(value):
    try:
        return hash(value)
    except TypeError:
        return "unhashable"


def values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


records = pytest.mark.parametrize(
    "sample, text", RECORDS, ids=[type(s).__name__ for s, _ in RECORDS])


class TestRecords:
    def test_every_record_class_has_a_sample(self):
        # one token is built per source token, so it is a named tuple
        assert record_classes() - {Token} == {type(s) for s, _ in RECORDS}

    @records
    def test_repr(self, sample, text):
        assert repr(sample) == text

    @records
    def test_fields_are_the_annotations_in_order(self, sample, text):
        names = tuple(f.name for f in dataclasses.fields(sample))
        assert names == tuple(type(sample).__annotations__)
        assert type(sample).__match_args__ == names
        assert dataclasses.is_dataclass(sample)

    @records
    def test_replace_keeps_the_value(self, sample, text):
        same = dataclasses.replace(sample, **{
            f.name: getattr(sample, f.name)
            for f in dataclasses.fields(sample)})
        assert dataclasses.replace(sample) == sample == same
        assert type(same) is type(sample) and values(same) == values(sample)
        if isinstance(sample, ProcessTerm):
            assert same is sample
        else:
            assert same is not sample

    @records
    def test_equality_and_hash(self, sample, text):
        cls = type(sample)
        if isinstance(sample, ProcessTerm):
            assert cls.__eq__ is object.__eq__
            assert hash(sample) == object.__hash__(sample)
        elif cls in MUTABLE:
            assert cls.__hash__ is None and hash_of(sample) == "unhashable"
        else:
            # a value record hashes as the tuple of its compare fields
            assert hash_of(sample) == hash_of(values(sample))
        assert sample.__eq__(values(sample)) is NotImplemented
        assert sample != values(sample)

    @records
    def test_frozen_records_refuse_assignment(self, sample, text):
        if type(sample) in MUTABLE:
            return
        fields = dataclasses.fields(sample)
        for name in [f.name for f in fields[:1]] + ["extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sample, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(sample, name)
        assert values(sample) == tuple(
            getattr(sample, f.name) for f in fields)

    def test_mutable_records_take_assignment(self):
        verdict = Verdict(True, "branching bisimulation")
        verdict.relation = "rooted branching bisimulation"
        assert verdict == Verdict(True, "rooted branching bisimulation")
        model = Model()
        model.checks = (CheckGoal("c", "P", "Q", "branching-bisim"),)
        assert len(model.checks) == 1 and Model().checks == ()

    def test_value_records_compare_their_fields(self):
        assert Config() == Config("chained", "step")
        assert Config() != Config(step_mode="interleave")
        assert hash(Config()) == hash(Config(max_states=100000))
        assert CommEntry("a", "b") != CommEntry("a", "b", "c")
        assert LTS == StepLTS(0, 2, LTS.transitions, LTS.state_names)
        assert LTS != StepLTS(1, 2, LTS.transitions, LTS.state_names)

    def test_replace_changes_the_named_fields(self):
        assert dataclasses.replace(Config(), step_mode="interleave") == \
            Config(step_mode="interleave")
        assert dataclasses.replace(
            Seq(act("a"), Var("P")), right=Var("Q")) is Seq(act("a"), Var("Q"))
        lts = dataclasses.replace(LTS, transitions=())
        assert (lts.initial, lts.transitions, lts.num_states) == (0, (), 2)
        assert list(lts.offsets) == [0, 0, 0]
        with pytest.raises(ValueError):
            dataclasses.replace(Config(), max_states=0)
        with pytest.raises(TypeError):
            dataclasses.replace(Config(), steps="step")

    def test_arguments_bind_by_position_keyword_and_default(self):
        assert CommEntry("a", b="b") == CommEntry(b="b", a="a", result=None)
        assert _Name("a") is _Name(name="a", args=())
        assert Verdict(False, "r", None, {}) == Verdict(False, "r")
        # a default factory makes a fresh value for each record
        assert Model().systems is not Model().systems
        assert Verdict(True, "r").details is not Verdict(True, "r").details
        for call in (lambda: Var(), lambda: Var("P", "Q"),
                     lambda: Var("P", name="Q"), lambda: Var(label="P"),
                     lambda: Config("chained", "step", "overlap", "strict",
                                    10, 11),
                     lambda: CommEntry("a"), lambda: Model(nope=1)):
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("call", [
        lambda: Config(step_mode="x"),
        lambda: Config(max_states=0),
        lambda: Alt(()),
        lambda: CheckGoal("c", "P", "Q", "bisim"),
        lambda: DataDomain("D", ()),
        lambda: CommTable((CommEntry("a", "a"),)),
        lambda: ConflictRelation(frozenset({frozenset({"a"})})),
    ], ids=["config", "budget", "alt", "goal", "domain", "comm", "conflict"])
    def test_post_init_validates(self, call):
        with pytest.raises(ValueError):
            call()
