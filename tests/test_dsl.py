import pytest

import stepcheck as sc
from stepcheck.dsl import ParseError, ResolutionError, parse_model, render_model
from stepcheck.terms import Act, ActionLabel, Alt, Hide, Par, Seq, Sum, Var, WholePar

MINI = """
domain D = { d1, d2 }

process P {
    P = sum d in D . a(d) . Q
    Q = b . P + c . P
}

comm b, c -> bc

set I = { a, b }

system S = hide I in (P || P)

check main: S ~bb P comm=binary
"""


class TestParsing:
    def test_minimal_model(self):
        m = parse_model(MINI)
        assert [d.name for d in m.domains] == ["D"]
        assert m.processes[0].entry == "P"
        assert m.action_sets["I"] == frozenset({"a", "b"})
        assert m.checks[0].relation == "branching-bisim"
        assert m.checks[0].overrides == {"comm": "binary"}

    def test_operator_precedence(self):
        m = parse_model("process P { P = a . b + c || d . P }")
        rhs = m.processes[0].equations["P"]
        assert isinstance(rhs, Alt)
        assert rhs.branches[0] == Seq(Act(ActionLabel("a")),
                                      Act(ActionLabel("b")))
        assert isinstance(rhs.branches[1], Par)

    def test_sequence_is_right_associative(self):
        m = parse_model("process P { P = a . b . P }")
        rhs = m.processes[0].equations["P"]
        assert rhs == Seq(Act(ActionLabel("a")),
                          Seq(Act(ActionLabel("b")), Var("P")))

    def test_whole_par_operator(self):
        m = parse_model("process P { P = a . P }\nsystem S = P <> P")
        assert isinstance(m.systems["S"], WholePar)

    def test_equation_names_become_variables(self):
        m = parse_model("process P { P = a . P }")
        rhs = m.processes[0].equations["P"]
        assert rhs.right == Var("P")
        assert rhs.left == Act(ActionLabel("a"))

    def test_hide_with_set_reference(self):
        m = parse_model("process P { P = a . P }\n"
                        "set I = { a }\n"
                        "system S = hide I in P")
        assert m.systems["S"] == Hide(frozenset({"a"}), Var("P"))

    def test_sum_body_extends_over_sequence(self):
        m = parse_model("domain D = { d1 }\n"
                        "process P { P = sum d in D . a(d) . b . P }")
        rhs = m.processes[0].equations["P"]
        assert isinstance(rhs, Sum)
        assert isinstance(rhs.body, Seq)

    def test_numeric_check_option(self):
        m = parse_model("process P { P = a . P }\n"
                        "check c: P ~sb P max_states=500 round=barrier")
        assert m.checks[0].overrides == {"max_states": "500",
                                         "round": "barrier"}
        assert parse_model(render_model(m)).checks[0].overrides == \
            m.checks[0].overrides

    def test_option_value_still_rejects_mixed_digits(self):
        with pytest.raises(ParseError):
            parse_model("process P { P = a . P }\ncheck P ~sb P comm=5x")

    def test_comments_ignored(self):
        m = parse_model("// a comment\nprocess P { P = a . P } // tail\n")
        assert m.processes[0].name == "P"


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse_model("")
        assert exc.value.line == 1 and exc.value.col == 1
        assert "top-level declaration" in exc.value.message

    def test_position_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_model("process P {\n  P = a .\n}")
        assert exc.value.line == 3

    def test_keyword_not_an_identifier(self):
        with pytest.raises(ParseError):
            parse_model("process hide { X = a . X }")

    def test_keyword_error_takes_a_before_a_consonant(self):
        with pytest.raises(ParseError) as exc:
            parse_model("domain in = { d1 }")
        assert exc.value.message == "'in' is a keyword, not a domain name"

    def test_keyword_error_takes_an_before_a_vowel(self):
        with pytest.raises(ParseError) as exc:
            parse_model("comm hide, b")
        assert exc.value.message == "'hide' is a keyword, not an action name"

    def test_unknown_character(self):
        with pytest.raises(ParseError) as exc:
            parse_model("process P { P = a ? P }")
        assert "?" in exc.value.message

    def test_missing_relation(self):
        with pytest.raises(ParseError):
            parse_model("process P { P = a . P }\ncheck P = P")


class TestResolutionErrors:
    def test_unknown_set(self):
        with pytest.raises(ResolutionError) as exc:
            parse_model("process P { P = hide J in a . P }")
        assert exc.value.identifier == "J"

    def test_check_refers_to_unknown_name(self):
        with pytest.raises(ResolutionError):
            parse_model("process P { P = a . P }\ncheck P ~bb Q")

    def test_process_takes_no_arguments(self):
        with pytest.raises(ResolutionError):
            parse_model("process P { P = a . P }\nsystem S = P(d1)")

    @pytest.mark.parametrize("source", [
        "system S = P\nsystem T = S <> P",
        "system T = hide {a} in (P || S)\nsystem S = P",
        "process Q { Q = S . Q }\nsystem S = P",
    ], ids=["in a system", "declared later", "in an equation"])
    def test_a_system_named_in_a_term(self, source):
        with pytest.raises(ResolutionError) as exc:
            parse_model("process P { P = a . P }\n" + source)
        assert exc.value.identifier == "S"
        assert str(exc.value).startswith("system S is named inside a term")

    def test_a_system_named_like_an_equation(self):
        with pytest.raises(ResolutionError) as exc:
            parse_model("process P { P = a . P }\n"
                        "system P = block {a} in P\ncheck c: P ~sb P")
        assert exc.value.identifier == "P"
        assert str(exc.value) == "system P is named like an equation"


class TestRoundTrip:
    def test_bundled_model_round_trips(self, ws_model):
        text = render_model(ws_model)
        again = parse_model(text)
        assert render_model(again) == text
        assert again.equations() == ws_model.equations()
        assert again.systems == ws_model.systems
        assert [c.__dict__ for c in again.checks] == [
            c.__dict__ for c in ws_model.checks]

    def test_mini_model_round_trips(self):
        m = parse_model(MINI)
        assert parse_model(render_model(m)).equations() == m.equations()


class TestBundledModel:
    def test_ships_expected_declarations(self, ws_model):
        names = {p.name for p in ws_model.processes}
        assert {"WSOA", "WSA", "WSOB", "WSB", "SPEC"} <= names
        assert set(ws_model.systems) == {"Sys", "AbstractA", "AbstractB"}
        assert [c.name for c in ws_model.checks] == ["ab_a", "ab_b", "theorem"]
        assert len(ws_model.comms.entries) == 6
