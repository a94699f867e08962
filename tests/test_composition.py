import json

import pytest

import stepcheck as sc
from stepcheck.cli import main
from stepcheck.composition import (
    CompositionError,
    WscContract,
    ab_name,
    assemble_system,
    correspondence_check,
    default_internal,
    derive_ab,
    side_lts,
    strip_shadows,
    verify_system,
    wsc_conformance,
)
from stepcheck.equivalence import branching_bisim, strong_step_bisim
from stepcheck.semantics import Config, generate_lts, prune_dead
from stepcheck.terms import (
    Act,
    ActionLabel,
    RecursiveSpec,
    Seq,
    Shadow,
    Var,
    term_to_str,
)

BARRIER = Config(round_mode="barrier")


def contract(*pairs):
    names = ["~".join(sorted(p)) for p in pairs]
    eqs = {}
    for i, label in enumerate(names):
        var = "C" if i == 0 else f"C{i}"
        nxt = "C" if i == len(names) - 1 else f"C{i + 1}"
        eqs[var] = Seq(Act(ActionLabel(label)), Var(nxt))
    return WscContract("wsc", tuple(pairs), RecursiveSpec("C", eqs, "C"))


class TestClassification:
    def test_ab_naming(self):
        assert ab_name("WSOA") == "ABA"
        assert ab_name("WSOB") == "ABB"
        assert ab_name("Other") == "AB_Other"


class TestDeriveAb:
    def test_default_internal_sets(self, ws_model):
        specs = {p.name: p for p in ws_model.processes}
        assert default_internal(ws_model, specs["WSOA"]) == frozenset(
            {"A1", "A3", "A4", "A6"})
        assert default_internal(ws_model, specs["WSOB"]) == frozenset(
            {"B1", "B4"})

    def test_aba_is_two_state_loop(self, ws_model):
        ab = derive_ab(ws_model, "WSOA")
        assert ab.name == "ABA"
        assert ab.lts.num_states == 2
        assert ab.spec is not None
        printed = {n: term_to_str(rhs) for n, rhs in ab.spec.equations.items()}
        assert printed == {"ABA": "A2 . ABA1", "ABA1": "A5 . ABA"}

    def test_abb_is_b2_b3_loop(self, ws_model):
        ab = derive_ab(ws_model, "WSOB")
        printed = {n: term_to_str(rhs) for n, rhs in ab.spec.equations.items()}
        assert printed == {"ABB": "B2 . ABB1", "ABB1": "B3 . ABB"}

    def test_behavior_free_of_internal_labels(self, ws_model):
        ab = derive_ab(ws_model, "WSOA")
        for _, label, _ in ab.lts.transitions:
            for l in label:
                assert l.name not in ab.internal

    def test_data_folding_noted(self, ws_model):
        ab = derive_ab(ws_model, "WSOA")
        assert any("A1" in note for note in ab.notes)

    def test_empty_internal_preserves_behavior(self, ws_model):
        ab = derive_ab(ws_model, "WSOA", internal=frozenset())
        plain = generate_lts(Var("WSOA"), ws_model, Config())
        assert strong_step_bisim(ab.lts, plain).holds

    def test_unknown_process_rejected(self, ws_model):
        with pytest.raises(CompositionError):
            derive_ab(ws_model, "NOPE")


class TestStripShadows:
    def test_shadow_sequence_contracts(self):
        t = Seq(Shadow("A1"), Seq(Act(ActionLabel("a")), Var("P")))
        assert strip_shadows(t) == Seq(Act(ActionLabel("a")), Var("P"))

    def test_pure_shadow_term_becomes_none(self):
        assert strip_shadows(Shadow("A1")) is None


class TestCorrespondence:
    def test_aba_matches_wsa(self, ws_model):
        ab = derive_ab(ws_model, "WSOA")
        verdict = correspondence_check(
            ws_model, ab, "WSA", {"A2": "WA2", "A5": "WA5"})
        assert verdict.holds

    def test_abb_matches_wsb(self, ws_model):
        ab = derive_ab(ws_model, "WSOB")
        verdict = correspondence_check(
            ws_model, ab, "WSB", {"B2": "WB2", "B3": "WB3"})
        assert verdict.holds

    def test_default_rename_from_comm_table(self, ws_model):
        ab = derive_ab(ws_model, "WSOA")
        assert correspondence_check(ws_model, ab, "WSA").holds

    def test_swapped_mapping_fails(self, ws_model):
        ab = derive_ab(ws_model, "WSOA")
        verdict = correspondence_check(
            ws_model, ab, "WSA", {"A2": "WA5", "A5": "WA2"})
        assert not verdict.holds


class TestAssembly:
    def test_assembled_term_matches_declared_system(self, ws_model):
        term = assemble_system(
            ws_model, ("WSOA", "WSA", "WSB", "WSOB"),
            hide_set=ws_model.action_sets["I"],
            block_set=ws_model.action_sets["H"])
        assert term == ws_model.systems["Sys"]

    def test_default_block_set_is_comm_alphabet(self, ws_model):
        term = assemble_system(ws_model, ("WSOA", "WSA"))
        assert term.names == ws_model.comms.action_names()


class TestVerifySystem:
    def test_theorem_holds_chained_strict_barrier(self, ws_model):
        verdict = verify_system(
            ws_model, ws_model.systems["Sys"], "SPEC", BARRIER)
        assert verdict.holds

    def test_overlap_refutes_sequentiality(self, ws_model):
        verdict = verify_system(
            ws_model, ws_model.systems["Sys"], "SPEC",
            Config(round_mode="overlap"))
        assert not verdict.holds

    def test_binary_policy_fails(self, ws_model):
        verdict = verify_system(
            ws_model, ws_model.systems["Sys"], "SPEC",
            Config(comm_policy="binary", round_mode="barrier"))
        assert not verdict.holds


DEAD_SYSTEM = """
process P { P = a . P }
process SPEC { SPEC = delta }
process SPEC2 { SPEC2 = d . SPEC2 }
system Sys = block {a} in P
check dead: Sys ~bb SPEC
check moves: Sys ~bb SPEC2
"""


def cli_verdicts(argv, capsys):
    """{check name: (holds, counterexample text or None)} from check --json."""
    main(["check", *argv, "--json"])
    return {entry["check"]: (entry["holds"],
                             entry.get("counterexample", {}).get("detail"))
            for entry in json.loads(capsys.readouterr().out)}


def library_verdict(model, system, spec, config=Config()):
    verdict = verify_system(model, system, spec, config)
    cx = verdict.counterexample
    return verdict.holds, None if cx is None else cx.pretty()


class TestCliAgreesWithLibrary:
    def test_side_rule(self, ws_model):
        system = ws_model.systems["Sys"]
        pruned = prune_dead(generate_lts(system, ws_model, BARRIER))
        assert side_lts(ws_model, "Sys", BARRIER) == pruned
        assert side_lts(ws_model, system, BARRIER) == pruned
        assert side_lts(ws_model, "SPEC", BARRIER) == generate_lts(
            Var("SPEC"), ws_model, BARRIER)

    def test_initially_dead_system(self, tmp_path, capsys):
        path = tmp_path / "dead.aptc"
        path.write_text(DEAD_SYSTEM)
        model = sc.parse_model(DEAD_SYSTEM)
        dead = side_lts(model, "Sys")
        assert dead.num_states == 1 and dead.transitions == ()
        cli = cli_verdicts([str(path)], capsys)
        system = model.systems["Sys"]
        assert cli["dead"] == library_verdict(model, system, "SPEC") == (
            True, None)
        assert cli["moves"] == library_verdict(model, system, "SPEC2")
        assert cli["moves"] == (
            False, "trace {d} is possible on the right side only")

    @pytest.mark.parametrize("round_mode", ["barrier", "overlap"])
    def test_bundled_theorem(self, ws_model, capsys, round_mode):
        cli = cli_verdicts([str(sc.bundled_model_path()), "--name", "theorem",
                            "--round-mode", round_mode], capsys)
        config = Config(comm_policy="chained", shadow_policy="strict",
                        round_mode=round_mode)
        library = library_verdict(ws_model, ws_model.systems["Sys"], "SPEC",
                                  config)
        assert cli["theorem"] == library
        assert library[0] == (round_mode == "barrier")


class TestConformance:
    def test_contract_order_holds(self, ws_model):
        system = assemble_system(ws_model, ("WSOA", "WSA", "WSB", "WSOB"))
        verdict = wsc_conformance(
            ws_model, system, contract(("WA2", "WB2"), ("WA5", "WB3")),
            BARRIER)
        assert verdict.holds

    def test_reversed_contract_fails(self, ws_model):
        system = assemble_system(ws_model, ("WSOA", "WSA", "WSB", "WSOB"))
        verdict = wsc_conformance(
            ws_model, system, contract(("WA5", "WB3"), ("WA2", "WB2")),
            BARRIER)
        assert not verdict.holds
