import random
import sys
import time
from pathlib import Path

import pytest

import stepcheck as sc
from stepcheck.dsl import (
    _SYMBOLS,
    ParseError,
    ResolutionError,
    Token,
    parse_model,
    render_model,
    tokenize,
)
from stepcheck.terms import (
    Act,
    ActionLabel,
    Alt,
    CommEntry,
    CommTable,
    ConflictRelation,
    DataDomain,
    Hide,
    Par,
    Seq,
    Sum,
    Var,
    WholePar,
)

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


ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import workloads  # noqa: E402


def reference_tokenize(source: str):
    """The lexer as a loop over characters: the reference ``tokenize``
    must agree with on tokens, error texts and positions."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("name", source[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token("symbol", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def lexed(lexer, source):
    """The tokens of ``source``, or its parse error's text and position."""
    try:
        return lexer(source)
    except ParseError as exc:
        return str(exc), exc.message, exc.line, exc.col


# Every symbol, blanks, comment starts, digits, non-ASCII letters and
# digits, and characters the language does not know.
PIECES = [*_SYMBOLS, " ", "\t", "\r", "\n", "//", "/", "a", "b", "_", "x1",
          "0", "9", "\u00e9", "\u00df", "\u00b2", "\u0663", "~", "-", ">",
          "<", "|", "?", "$", "\x0b", "\u00a0"]


class TestTokenizeDifferential:
    def test_model_texts_and_sources(self):
        texts = [sc.bundled_model_path().read_text(encoding="utf-8"),
                 (ROOT / "README.md").read_text(encoding="utf-8")]
        texts += [p.read_text(encoding="utf-8")
                  for p in sorted((ROOT / "tests").glob("*.py"))]
        texts += ["\n\n".join(w.decls) + "\n"
                  for w in workloads.WORKLOADS.values()]
        for text in texts:
            assert lexed(tokenize, text) == lexed(reference_tokenize, text)

    def test_random_strings(self):
        rng = random.Random(124)
        for _ in range(10_000):
            text = "".join(rng.choice(PIECES)
                           for _ in range(rng.randint(0, 25)))
            assert lexed(tokenize, text) == lexed(reference_tokenize, text)


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

    @pytest.mark.parametrize("source, line, col, message", [
        ("process P { P = a . P }\nconflict a # a", 2, 10,
         "conflict pairs must relate two distinct actions"),
        ("process P { P = a . P }\ndomain D = { x, x }", 2, 8,
         "domain D repeats a value"),
        # either order declares the same pair; the error is at the repeat
        ("process P { P = a . b . P }\nconflict a # b\nconflict a # b", 3, 10,
         "conflict a # b declared twice"),
        ("process P { P = a . b . P }\nconflict a # b\nconflict b # a", 3, 10,
         "conflict b # a declared twice"),
        # comm pairs follow the same rule
        ("process P { P = a . P }\ncomm a, a", 2, 6,
         "comm a, a pairs an action with itself"),
        ("process P { P = a . b . P }\ncomm a, b\ncomm a, b -> c", 3, 6,
         "comm a, b declared twice"),
        ("process P { P = a . b . P }\ncomm a, b -> c\ncomm b, a", 3, 6,
         "comm b, a declared twice"),
        # an equation name is declared once, in its process or another
        ("process P { P = a . P\n  P = b . P }", 2, 3,
         "equation P declared twice"),
        ("process P { P = a . Q }\nprocess Q { Q = b . P  P = c . Q }", 2, 24,
         "equation P declared twice"),
    ], ids=["conflict", "domain", "conflict-twice", "conflict-reversed",
            "comm-self", "comm-twice", "comm-reversed", "equation-twice",
            "equation-elsewhere"])
    def test_a_bad_declaration_names_its_position(self, source, line, col,
                                                  message):
        with pytest.raises(ParseError) as exc:
            parse_model(source)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert exc.value.message == message

    def test_the_dataclasses_still_check_library_callers(self):
        with pytest.raises(ValueError):
            ConflictRelation(frozenset({frozenset({"a"})}))
        with pytest.raises(ValueError):
            DataDomain("D", ("x", "x"))

    @pytest.mark.parametrize("entries, message", [
        ((("a", "a"),), "comm a, a pairs an action with itself"),
        ((("a", "b"), ("a", "b", "c")), "comm a, b declared twice"),
        ((("a", "b", "c"), ("b", "a")), "comm b, a declared twice"),
    ], ids=["self", "twice", "reversed"])
    def test_the_comm_table_checks_library_callers(self, entries, message):
        with pytest.raises(ValueError) as exc:
            CommTable(tuple(CommEntry(*e) for e in entries))
        assert str(exc.value) == message

    def test_comm_pairs_are_checked_in_linear_time(self, monkeypatch):
        # each comm is checked against the one entry it could repeat, not
        # against every comm before it
        checked = []
        post_init = CommTable.__post_init__
        monkeypatch.setattr(CommTable, "__post_init__", lambda table: (
            checked.append(len(table.entries)), post_init(table)))
        n = 300
        model = parse_model("process P { P = a0 . P }\n" + "".join(
            f"comm a{i}, b{i}\n" for i in range(n)))
        assert len(model.comms.entries) == n
        assert sum(checked) <= 3 * n

    def test_8000_conflicts_parse_in_under_half_a_second(self):
        # each pair is checked against the set of those before it, and the
        # relation is built once
        source = "process P { P = a0 . P }\n" + "".join(
            f"conflict a{i} # b{i}\n" for i in range(8000))
        start = time.perf_counter()
        model = parse_model(source)
        assert time.perf_counter() - start < 0.5
        assert len(model.conflicts.pairs) == 8000


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


    def test_rendered_text(self):
        m = parse_model("""
            // declarations of every kind, out of their rendered order
            check c1: S ~bb P max_states=500 comm=binary
            system S = hide { b, a } in (P || Q)
            set I = { b, a }
            conflict b # a
            comm b, c
            comm a, c -> ac
            process Q { Q = c . Q }
            process P { P = (sum d in D . a(d) . P) + b . X  X = delta }
            domain E = { e1 }
            domain D = { d1, d2 }
        """)
        assert render_model(m) == (
            "domain E = { e1 }\n"
            "domain D = { d1, d2 }\n"
            "\n"
            "process Q {\n"
            "    Q = c . Q\n"
            "}\n"
            "\n"
            "process P {\n"
            "    P = (sum d in D . a(d) . P) + b . X\n"
            "    X = delta\n"
            "}\n"
            "\n"
            "comm b, c\n"
            "comm a, c -> ac\n"
            "\n"
            "conflict a # b\n"
            "\n"
            "set I = { a, b }\n"
            "\n"
            "system S = hide {a, b} in P || Q\n"
            "\n"
            "check c1: S ~bb P max_states=500 comm=binary\n")


class TestBundledModel:
    def test_ships_expected_declarations(self, ws_model):
        names = {p.name for p in ws_model.processes}
        assert {"WSOA", "WSA", "WSOB", "WSB", "SPEC"} <= names
        assert set(ws_model.systems) == {"Sys", "AbstractA", "AbstractB"}
        assert [c.name for c in ws_model.checks] == ["ab_a", "ab_b", "theorem"]
        assert len(ws_model.comms.entries) == 6
