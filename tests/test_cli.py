import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stepcheck as sc
from stepcheck import cli, composition, equivalence
from stepcheck.cli import main
from stepcheck.dsl import (
    ParseError,
    ResolutionError,
    parse_model,
    render_model,
    tokenize,
)

MODEL_PATH = str(sc.bundled_model_path())

FAILING = """
process P { P = a . P }
process Q { Q = b . Q }
check bad: P ~sb Q
"""


@pytest.fixture
def failing_model(tmp_path):
    path = tmp_path / "failing.aptc"
    path.write_text(FAILING)
    return str(path)


class TestCheck:
    def test_all_bundled_checks_pass(self, capsys):
        assert main(["check", MODEL_PATH, "--round-mode", "barrier"]) == 0
        out = capsys.readouterr().out
        assert out.count("holds") == 3

    def test_failing_check_exits_1(self, failing_model, capsys):
        assert main(["check", failing_model]) == 1
        out = capsys.readouterr().out
        assert "FAILS" in out

    def test_single_named_check(self, capsys):
        assert main(["check", MODEL_PATH, "--name", "ab_a"]) == 0
        out = capsys.readouterr().out
        assert "ab_a" in out and "ab_b" not in out

    def test_unknown_check_exits_2(self, capsys):
        assert main(["check", MODEL_PATH, "--name", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self, capsys):
        env = dict(os.environ)
        src = str(Path(sc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "stepcheck", "check", MODEL_PATH, "--json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main(["check", MODEL_PATH, "--json"]) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_json_output_is_stable(self, capsys):
        main(["check", MODEL_PATH, "--json"])
        first = capsys.readouterr().out
        main(["check", MODEL_PATH, "--json"])
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert [e["check"] for e in data] == ["ab_a", "ab_b", "theorem"]
        assert all(e["holds"] for e in data)

    def test_json_counterexample(self, failing_model, capsys):
        main(["check", failing_model, "--json"])
        data = json.loads(capsys.readouterr().out)
        assert not data[0]["holds"]
        assert data[0]["counterexample"]["detail"]

    def test_check_overrides_apply(self, capsys):
        # the theorem's own options pin barrier mode, so no flag is needed
        assert main(["check", MODEL_PATH, "--name", "theorem"]) == 0

    def test_explicit_flag_beats_check_option(self, capsys):
        code = main(["check", MODEL_PATH, "--name", "theorem",
                     "--round-mode", "overlap"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("A1") >= 2  # two requests outstanding at once

    def test_max_states_check_option(self, tmp_path, capsys):
        path = tmp_path / "budget.aptc"
        path.write_text("process P { P = a . b . P }\n"
                        "check roomy: P ~sb P max_states=500\n"
                        "check tight: P ~sb P max_states=1\n")
        assert main(["check", str(path), "--name", "roomy"]) == 0
        assert main(["check", str(path), "--name", "tight"]) == 2
        assert "state budget of 1 states" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "lts"])
    def test_state_budget_error_names_the_bfs_depth(self, tmp_path, capsys,
                                                    command):
        path = tmp_path / "budget.aptc"
        path.write_text("process P { P = a . (b . P || c . P) }\n"
                        "check c: P ~sb P\n")
        args = [command, str(path), "--max-states", "4"]
        assert main(args + (["--system", "P"] if command == "lts" else [])) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: state budget of 4 states exceeded at BFS depth 2 "
            "(2 states still on the frontier)\n")
        assert captured.out == ""

    def test_a_checks_ltss_are_freed_before_the_next_check(
            self, tmp_path, monkeypatch, capsys):
        # the report keeps each side's state count, not its LTS
        made, alive = [], []
        side_lts = composition.side_lts

        def spy(model, name, config):
            if len(made) == 2:      # the second check's first side
                alive.extend(ref() is not None for ref in made)
            lts = side_lts(model, name, config)
            made.append(weakref.ref(lts))
            return lts

        monkeypatch.setattr(composition, "side_lts", spy)
        path = tmp_path / "two.aptc"
        path.write_text("process P { P = a . b . P }\nprocess Q { Q = a . Q }\n"
                        "check first: P ~sb P\ncheck second: P ~bb Q\n")
        assert main(["check", str(path)]) == 1
        assert alive == [False, False] and len(made) == 4
        out = capsys.readouterr().out
        assert "first: P vs P (strong-step-bisim) holds [2/2 states" in out
        assert "second: P vs Q (branching-bisim) FAILS [2/1 states" in out

    @pytest.mark.parametrize("text, extra, code, generates", [
        ("process P { P = a . P }\ncheck good: P ~sb P\n", [], 0, True),
        (FAILING, [], 1, True),
        ("process P { P = a . }\n", [], 2, False),
        ("process P { P = a . (b . P || c . P) }\ncheck c: P ~sb P\n",
         ["--max-states", "4"], 2, True),
    ], ids=["holds", "fails", "model error", "state budget"])
    def test_the_collector_threshold_is_restored(
            self, tmp_path, monkeypatch, capsys, text, extra, code,
            generates):
        # the threshold is raised while the command generates, and put
        # back as it was however the command ends
        during = []
        side_lts = composition.side_lts

        def spy(model, name, config):
            during.append(gc.get_threshold())
            return side_lts(model, name, config)

        monkeypatch.setattr(composition, "side_lts", spy)
        path = tmp_path / "m.aptc"
        path.write_text(text)
        before = gc.get_threshold()
        gc.set_threshold(123, 4, 5)
        try:
            assert main(["check", str(path), *extra]) == code
            assert gc.get_threshold() == (123, 4, 5)
        finally:
            gc.set_threshold(*before)
        assert bool(during) == generates
        assert set(during) <= {(cli._GC_THRESHOLD, 4, 5)}

    def test_rooted_runs_only_the_rooted_check(self, monkeypatch, capsys):
        calls = []
        plain = equivalence.branching_bisim

        def counting(left, right, rooted=False):
            calls.append(rooted)
            return plain(left, right, rooted=rooted)

        monkeypatch.setattr(equivalence, "branching_bisim", counting)
        assert main(["check", MODEL_PATH, "--rooted", "--name", "ab_a"]) == 1
        assert calls == [True]
        out = capsys.readouterr().out
        assert "root condition" in out
        assert "(rooted-branching-bisim) FAILS" in out


# Failed checks that no weak trace explains, so that the explanation signs
# the round before the split: L0 and R0 are ROADMAP item 7's pair at n = 3,
# with equal weak traces; B and C split at round 4, PA and PB at round 0.
EXPLAINED = """
process L {
    L0 = a . L0 + b . L0 + a . L1
    L1 = a . L2 + b . L2
    L2 = a . L3 + b . L3
    L3 = a . L0 + b . L0 + c . LX
    LX = d . L0 + e . L0
}
process R {
    R0 = a . R0 + b . R0 + a . R1
    R1 = a . R2 + b . R2
    R2 = a . R3 + b . R3
    R3 = a . R0 + b . R0 + c . RD + c . RE
    RD = d . R0
    RE = e . R0
}
process LATE {
    B = a . x . x . x . b
    C = a . x . x . x . c
}
process LOOPS {
    PA = a . PA
    PB = b . PB
}
check nfa_bb: L0 ~bb R0
check nfa_sb: L0 ~sb R0
check nfa_rbb: L0 ~rbb R0
check nfa_tr: L0 ~tr R0
check late: B ~sb C
check first: PA ~sb PB
"""

UNMATCHED_A = "after {a}: the right side cannot match step {a}"
ENABLED_A = "after <initial states>: step {a} is enabled on the left side only"
# check, left, right, relation, states each side, counterexample detail
# and trace, or None for a check that holds
EXPLAINED_CHECKS = [
    ("nfa_bb", "L0", "R0", "branching-bisim", 5, 6, (UNMATCHED_A, ["{a}"])),
    ("nfa_sb", "L0", "R0", "strong-step-bisim", 5, 6,
     (UNMATCHED_A, ["{a}"])),
    ("nfa_rbb", "L0", "R0", "rooted-branching-bisim", 5, 6,
     (UNMATCHED_A, ["{a}"])),
    ("nfa_tr", "L0", "R0", "weak-trace-inclusion", 5, 6, None),
    ("late", "B", "C", "strong-step-bisim", 6, 6, (UNMATCHED_A, ["{a}"])),
    ("first", "PA", "PB", "strong-step-bisim", 1, 1, (ENABLED_A, [])),
]


class TestExplanationOutput:
    @pytest.fixture
    def explained_model(self, tmp_path):
        path = tmp_path / "explained.aptc"
        path.write_text(EXPLAINED)
        return str(path)

    def test_text(self, explained_model, capsys):
        assert main(["check", explained_model]) == 1
        out = re.sub(r", \d+\.\d\ds\]", ", _s]", capsys.readouterr().out)
        assert out == (
            "nfa_bb: L0 vs R0 (branching-bisim) FAILS [5/6 states, _s]\n"
            f"  {UNMATCHED_A}\n"
            "nfa_sb: L0 vs R0 (strong-step-bisim) FAILS [5/6 states, _s]\n"
            f"  {UNMATCHED_A}\n"
            "nfa_rbb: L0 vs R0 (rooted-branching-bisim) FAILS "
            "[5/6 states, _s]\n"
            f"  {UNMATCHED_A}\n"
            "nfa_tr: L0 vs R0 (weak-trace-inclusion) holds [5/6 states, _s]\n"
            "late: B vs C (strong-step-bisim) FAILS [6/6 states, _s]\n"
            f"  {UNMATCHED_A}\n"
            "first: PA vs PB (strong-step-bisim) FAILS [1/1 states, _s]\n"
            f"  {ENABLED_A}\n")

    def test_json(self, explained_model, capsys):
        assert main(["check", explained_model, "--json"]) == 1
        expected = []
        for check, left, right, relation, ls, rs, cx in EXPLAINED_CHECKS:
            record = {"check": check, "holds": cx is None, "left": left,
                      "left_states": ls, "relation": relation,
                      "right": right, "right_states": rs}
            if cx is not None:
                record["counterexample"] = {
                    "detail": cx[0], "kind": "StepCounterexample",
                    "trace": cx[1]}
            expected.append(record)
        assert capsys.readouterr().out == (
            json.dumps(expected, indent=2, sort_keys=True) + "\n")


class TestLts:
    def test_dot_export(self, capsys):
        assert main(["lts", MODEL_PATH, "--system", "WSOA"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and "->" in out

    def test_json_export_schema(self, capsys):
        main(["lts", MODEL_PATH, "--system", "Sys", "--format", "json",
              "--round-mode", "barrier", "--prune-dead", "--minimize"])
        data = json.loads(capsys.readouterr().out)
        assert data["initial"] == 0
        assert len(data["states"]) == 2
        assert len(data["transitions"]) == 4
        labels = {tuple(t["label"]) for t in data["transitions"]}
        assert labels == {("A1(d1)",), ("A1(d2)",), ("B4(d1)",), ("B4(d2)",)}

    def test_json_state_names(self, capsys):
        # each state entry carries its system state, in state order
        main(["lts", MODEL_PATH, "--system", "Sys", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert [s["id"] for s in data["states"]] == list(range(18))
        assert [s["name"] for s in data["states"]] == [
            "WSOA <> WSA <> WSB <> WSOB",
            "WSOA <> WSA <> WSB1 <> WSOB1",
            "WSOA1 <> WSA1 <> WSB <> WSOB",
            "WSOA1 <> WSA1 <> WSB1 <> WSOB1",
            "WSOA2 <> WSA2 <> WSB2 <> WSOB2",
            "(A4 || A5) . WSOA3 <> WSA2 <> WSB2 <> WSOB2",
            "A3 . A4 . WSOA3 <> WSA3 <> WSB3 <> WSOB3",
            "A4 . WSOA3 <> WSA3 <> WSB3 <> WSOB3",
            "A5 . WSOA3 <> WSA2 <> WSB2 <> WSOB2",
            "WSOA3 <> WSA3 <> WSB3 <> WSOB3",
            "A3 . A4 . WSOA3 <> WSA3 <> WSB <> WSOB",
            "A4 . WSOA3 <> WSA3 <> WSB <> WSOB",
            "WSOA3 <> WSA3 <> WSB <> WSOB",
            "WSOA <> WSA <> WSB3 <> WSOB3",
            "A3 . A4 . WSOA3 <> WSA3 <> WSB1 <> WSOB1",
            "A4 . WSOA3 <> WSA3 <> WSB1 <> WSOB1",
            "WSOA3 <> WSA3 <> WSB1 <> WSOB1",
            "WSOA1 <> WSA1 <> WSB3 <> WSOB3",
        ]
        # a minimized state is named after one state of its block, and
        # barrier states carry their round counters
        main(["lts", MODEL_PATH, "--system", "Sys", "--format", "json",
              "--round-mode", "barrier", "--prune-dead", "--minimize"])
        data = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in data["states"]] == [
            "WSOA <> WSA <> WSB <> WSOB @0,0,0,0",
            "WSOA1 <> WSA1 <> WSB <> WSOB @0,0,0,0",
        ]

    def test_tau_label_in_json(self, tmp_path, capsys):
        path = tmp_path / "m.aptc"
        path.write_text("process P { P = a . P }\nsystem S = hide {a} in P")
        main(["lts", str(path), "--system", "S", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["transitions"][0]["label"] == ["tau"]

    def test_unknown_system_exits_2(self, capsys):
        assert main(["lts", MODEL_PATH, "--system", "NOPE"]) == 2


class TestDeriveAb:
    def test_text_output(self, capsys):
        assert main(["derive-ab", MODEL_PATH, "--wso", "WSOA"]) == 0
        out = capsys.readouterr().out
        assert "ABA = A2 . ABA1" in out
        assert "ABA1 = A5 . ABA" in out

    def test_internal_set_name(self, capsys):
        assert main(["derive-ab", MODEL_PATH, "--wso", "WSOB",
                     "--internal", "IB", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["internal"] == ["B1", "B4"]
        assert data["equations"] == {"ABB": "B2 . ABB1", "ABB1": "B3 . ABB"}

    def test_internal_comma_list(self, capsys):
        assert main(["derive-ab", MODEL_PATH, "--wso", "WSOB",
                     "--internal", "B1,B4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["states"] == 2

    @pytest.mark.parametrize("internal, unused", [
        ("IAA", "IAA"),              # a mistyped set name
        ("B1,B44, B4", "B44"),       # a list with one mistyped member
    ])
    def test_internal_name_the_model_never_uses_exits_2(
            self, capsys, internal, unused):
        assert main(["derive-ab", MODEL_PATH, "--wso", "WSOB",
                     "--internal", internal]) == 2
        assert capsys.readouterr().err == (
            f"error: --internal {internal} is no declared set, and the "
            f"model uses no action {unused}\n")


class TestErrors:
    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent.aptc"]) == 2

    def test_model_without_checks_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nochecks.aptc"
        path.write_text("process P { P = a . P }\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the model declares no checks\n"
        assert captured.out == ""

    # a term's depth is no limit: every pass over a term folds it with an
    # explicit stack
    @pytest.mark.parametrize("body, equations", [
        (" . ".join(["a"] * 3000), ""),
        (" . ".join(["Q"] * 3000), "\n    Q = a\n"),
    ], ids=["actions", "calls"])
    def test_deep_sequence_holds(self, tmp_path, capsys, body, equations):
        path = tmp_path / "deep.aptc"
        path.write_text(f"process P {{ P = {body} . P{equations} }}\n"
                        "check deep: P ~sb P\n")
        assert main(["check", str(path)]) == 0
        assert "deep: P vs P (strong-step-bisim) holds" in (
            capsys.readouterr().out)

    # the components of a system are gathered by a loop, however many
    def test_wide_system_gives_its_lts(self, tmp_path, capsys):
        n = 1200
        path = tmp_path / "wide.aptc"
        path.write_text(
            "".join(f"process P{i} {{ P{i} = a{i} . P{i} }}\n"
                    for i in range(n))
            + "system S = " + " <> ".join(f"P{i}" for i in range(n)))
        assert main(["lts", str(path), "--system", "S", "--format", "json",
                     "--step-mode", "interleave"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["states"]) == 1 and len(data["transitions"]) == n

    # the parser still descends into brackets by recursion
    def test_deep_nesting_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "deep.aptc"
        path.write_text("process P { P = " + "(" * 1500 + "a" + ")" * 1500
                        + " . P }\ncheck deep: P ~sb P\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_set_name_exits_2(self, tmp_path, capsys):
        path = tmp_path / "set.aptc"
        path.write_text("process P { P = hide X in a . P }\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown action set X\n"

    # a state's steps are enumerated before the budget is checked, and
    # the moves of a parallel term recurse per operand: whichever ends
    # the run, it ends in one line
    def test_wide_parallel_term_exits_2_without_traceback(
            self, tmp_path, capsys):
        path = tmp_path / "wide.aptc"
        path.write_text("process P { P = "
                        + " || ".join(f"a{i}" for i in range(2000))
                        + " }\ncheck wide: P ~sb P\n")
        assert main(["check", str(path), "--max-states", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    # n identical operands have n + 1 states and n moves each, not 2^n
    def test_identical_parallel_operands_end_in_the_budget(
            self, tmp_path, capsys):
        path = tmp_path / "same.aptc"
        path.write_text("process P { P = " + " || ".join(["a"] * 300)
                        + " }\ncheck same: P ~sb P\n")
        start = time.monotonic()
        assert main(["check", str(path), "--max-states", "50"]) == 2
        assert time.monotonic() - start < 2
        assert capsys.readouterr().err.startswith(
            "error: state budget of 50 states exceeded")

    # each violation is named with its subject, as ``Violation`` prints it
    @pytest.mark.parametrize("decl, violation", [
        ("system S = sum d in Z . b(d)",
         "unknown-domain(Z): sum in S ranges over undeclared domain"),
        ("process Q { Q = sum v in Nope . b(v) . Q }",
         "unknown-domain(Nope): sum in Q ranges over undeclared domain"),
        ("system S = P <> b(y)",
         "unknown-constant(y): argument y of b(y) in S is neither a domain "
         "constant nor a bound sum variable"),
    ], ids=["system", "process", "constant"])
    def test_system_over_unknown_domain_exits_2(self, tmp_path, capsys,
                                                decl, violation):
        path = tmp_path / "domain.aptc"
        path.write_text(f"process P {{ P = a . P }}\n{decl}\n"
                        "check c: P ~sb P\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: model is not well-formed: {violation}\n")

    def test_system_named_in_a_term_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nested.aptc"
        path.write_text("process P { P = a . P }\n"
                        "system S = P\nsystem T = S <> P\n"
                        "check c: T ~sb P\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: system S is named inside a term; a term may name only "
            "processes and actions\n")

    # an unknown --wso is named before an --internal name nothing uses
    @pytest.mark.parametrize("internal", [[], ["--internal", "IAA"]],
                             ids=["alone", "with-internal"])
    def test_unknown_wso_exits_2(self, capsys, internal):
        assert main(["derive-ab", MODEL_PATH, "--wso", "Nope",
                     *internal]) == 2
        assert capsys.readouterr().err == "error: no process named Nope\n"

    @pytest.mark.parametrize("option, message", [
        ("max_states=abc", "error: check c: bad option max_states=abc "
         "(max_states takes a positive integer)\n"),
        ("round=nope", "error: check c: bad option round=nope "
         "(round takes overlap or barrier)\n"),
        ("step=foo", "error: check c: bad option step=foo "
         "(step takes interleave or step)\n"),
        ("steps=step", "error: check c: unknown option steps=step (the "
         "options are comm, step, round, shadow, max_states)\n"),
        ("round=barrier round=overlap",
         "error: 2:32: option round given twice\n"),
    ])
    def test_bad_check_option_value_is_named(self, tmp_path, capsys,
                                             option, message):
        path = tmp_path / "option.aptc"
        path.write_text(f"process P {{ P = a . P }}\ncheck c: P ~sb P {option}\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == message

    def test_check_options_are_read_before_any_check_runs(
            self, tmp_path, monkeypatch, capsys):
        calls = []
        side_lts = composition.side_lts

        def spy(model, name, config):
            calls.append(name)
            return side_lts(model, name, config)

        monkeypatch.setattr(composition, "side_lts", spy)
        path = tmp_path / "later.aptc"
        path.write_text("process P { P = a . P }\nprocess Q { Q = a . Q }\n"
                        "check first: P ~bb Q\n"
                        "check second: P ~bb Q comm=bogus\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: check second: bad option comm=bogus "
            "(comm takes binary or chained)\n")
        assert calls == []

    @pytest.mark.parametrize("twice, message", [
        ("set I = { a }", "error: 3:5: set I declared twice\n"),
        ("system I = P", "error: 3:8: system I declared twice\n"),
        ("check I: P ~bb P", "error: 3:7: check I declared twice\n"),
        ("domain D = { d }", "error: 3:8: domain D declared twice\n"),
        ("process Q { Q = b . Q }", "error: 3:9: process Q declared twice\n"),
        ("conflict a # b", "error: 3:10: conflict a # b declared twice\n"),
        ("comm a, b\ncomm b, a", "error: 3:6: comm b, a declared twice\n"),
        ("comm a, a", "error: 2:6: comm a, a pairs an action with itself\n"),
        ("process Q { P = b . P }",
         "error: 2:13: equation P declared twice\n"),
    ])
    def test_declared_twice_exits_2(self, tmp_path, capsys, twice, message):
        path = tmp_path / "twice.aptc"
        path.write_text(f"process P {{ P = a . P }}\n{twice}\n{twice}\n"
                        "check P ~sb P\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == message

    def test_unnamed_check_skips_an_explicit_name(self, tmp_path, capsys):
        path = tmp_path / "names.aptc"
        path.write_text("process P { P = a . P }\n"
                        "check P ~sb P\ncheck check1: P ~bb P\n")
        assert main(["check", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [entry["check"] for entry in data] == ["check2", "check1"]

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.aptc"
        path.write_text("process {")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err


SILENT_LOOP = """
process P {
    P = a . L
    L = t . M + b . P
    M = u . L
}
process Q { Q = a . b . Q }
system S = hide {t, u} in P
check loop: S ~bb Q
check strict: S ~sb Q
"""


class TestSilentLoop:
    def test_tau_cycle_without_visible_action_is_inert(self, tmp_path, capsys):
        # L and M form a tau cycle that the branching check must contract
        path = tmp_path / "silent.aptc"
        path.write_text(SILENT_LOOP)
        assert main(["check", str(path), "--json"]) == 1
        data = {e["check"]: e for e in json.loads(capsys.readouterr().out)}
        assert data["loop"]["holds"]
        assert (data["loop"]["left_states"], data["loop"]["right_states"]) == (3, 2)
        assert not data["strict"]["holds"]


MODEL_TOKENS = tuple(t.text for t in tokenize(sc.bundled_model_path().read_text())
                     if t.kind != "eof")
# unknown names, a huge number, stray braces and a sum over an unknown domain
REPLACEMENTS = ("Nope", "zz", "999999", "{", "}", "sum x in Nope .")
COMMANDS = (("check",), ("lts", "--system", "Sys"),
            ("derive-ab", "--wso", "WSOA"), ("derive-ab", "--wso", "Nope"))


@st.composite
def mutant(draw):
    """The bundled model's tokens with one or two dropped, doubled or replaced."""
    tokens = list(MODEL_TOKENS)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(
            ("", f"{tokens[i]} {tokens[i]}", *REPLACEMENTS)))
    return " ".join(tokens)


class TestFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(mutant())
    def test_every_input_ends_in_a_verdict_or_one_line(self, tmp_path_factory,
                                                       text):
        path = tmp_path_factory.getbasetemp() / "mutant.aptc"
        path.write_text(text)
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], str(path), *command[1:],
                             "--max-states", "300"])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert err.getvalue().count("\n") == 1
        try:
            model = parse_model(text)
        except (ParseError, ResolutionError):
            return
        rendered = render_model(model)
        assert render_model(parse_model(rendered)) == rendered
