import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stepcheck as sc
from stepcheck import equivalence
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


class TestErrors:
    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent.aptc"]) == 2

    def test_deep_sequence_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "deep.aptc"
        path.write_text("process P { P = " + " . ".join(["a"] * 1500)
                        + " . P }\ncheck deep: P ~sb P\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_system_over_unknown_domain_exits_2(self, tmp_path, capsys):
        path = tmp_path / "domain.aptc"
        path.write_text("process P { P = a . P }\n"
                        "system S = sum d in Z . b(d)\n"
                        "check c: S ~sb P\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown-domain" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_system_named_in_a_term_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nested.aptc"
        path.write_text("process P { P = a . P }\n"
                        "system S = P\nsystem T = S <> P\n"
                        "check c: T ~sb P\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: system S is named inside a term; a term may name only "
            "processes and actions\n")

    def test_unknown_wso_exits_2(self, capsys):
        assert main(["derive-ab", MODEL_PATH, "--wso", "Nope"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("option, message", [
        ("max_states=abc", "error: bad max_states abc\n"),
        ("round=nope", "error: bad round_mode nope\n"),
    ])
    def test_bad_check_option_value_is_named(self, tmp_path, capsys,
                                             option, message):
        path = tmp_path / "option.aptc"
        path.write_text(f"process P {{ P = a . P }}\ncheck c: P ~sb P {option}\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("twice, message", [
        ("set I = { a }", "error: 3:5: set I declared twice\n"),
        ("system I = P", "error: 3:8: system I declared twice\n"),
        ("check I: P ~bb P", "error: 3:7: check I declared twice\n"),
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
