from __future__ import annotations

import re
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termstrat import (
    AmbiguousIdent,
    App,
    ArityError,
    ParseError,
    Rule,
    RuleSet,
    Signature,
    Symbol,
    UnboundSVar,
    UnknownSymbol,
    load_theory,
    parse_proof,
    parse_strategy,
    parse_term,
    print_term,
)
from termstrat.errors import ParseArityError
from termstrat.lex import Lexer
from termstrat.terms import parse_term_tokens
from termstrat.theory import _term
from test_terms import term_exprs

PUNCTUATION = ("=>", "(", ")", ",", ";", ".", ":", "=", "/")
PIECES = (
    tuple("abzAZ019_")
    + PUNCTUATION
    + (">", "#", "\n", "\t", "\r", " ", "é", "٣")
)


# Runs of blanks between tokens; a comment runs to the end of its line.
BLANKS = (" ", "\n", "\t", "  ", "# c\n", "#\n", "\r\n")
blanks = st.lists(st.sampled_from(BLANKS), max_size=3).map("".join)
some_blanks = st.lists(st.sampled_from(BLANKS), min_size=1, max_size=3).map("".join)


Tok = namedtuple("Tok", "kind text line col")


def tokens_of(text: str, line: int = 1) -> list:
    """Each token but the end: its kind ("ident", "num" or the punctuation
    itself), its text, and where `Lexer.position` places it."""
    lexer = Lexer(text, line)
    out = []
    for i, tok in enumerate(lexer.tokens[:-1]):
        kind = "num" if tok[0].isdigit() else "ident" if tok[0].isalpha() else tok
        out.append(Tok(kind, tok, *lexer.position(i)))
    return out


def position_of(text: str, offset: int, line: int = 1) -> tuple[int, int]:
    """(line, col) of `text[offset]`, counted one character at a time."""
    col = 1
    for c in text[:offset]:
        line, col = (line + 1, 1) if c == "\n" else (line, col + 1)
    return line, col


def first_stray(text: str, line: int = 1):
    """(line, col, char) of the first character outside every token class."""
    col, in_comment, in_ident, prev = 1, False, False, ""
    for c in text:
        if c == "\n":
            line, col, in_comment, in_ident, prev = line + 1, 1, False, False, c
            continue
        if not in_comment:
            if c.isascii() and c.isalpha():
                in_ident = True
            elif c.isascii() and c.isdigit():
                pass
            elif c == "_":
                if not in_ident:
                    return line, col, c
            else:
                in_ident = False
                if c == "#":
                    in_comment = True
                elif not (c.isspace() or c in "(),;.:=/" or (c == ">" and prev == "=")):
                    return line, col, c
        col += 1
        prev = c
    return None


class TestTokenizer:
    @given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join), st.integers(1, 50))
    @settings(max_examples=300, deadline=None)
    def test_tokens_sit_where_reported(self, text, k):
        # `Lexer(text, line=k)` reads `text` as starting on line k, as
        # `load_theory` does for each line of a file.
        stray = first_stray(text, k)
        if stray is not None:
            line, col, c = stray
            with pytest.raises(ParseError) as exc:
                Lexer(text, k)
            assert (exc.value.line, exc.value.col) == (line, col)
            assert repr(c) in str(exc.value)
            return
        lines = text.split("\n")
        toks = tokens_of(text, k)
        for tok in toks:
            assert lines[tok.line - k][tok.col - 1 :].startswith(tok.text)
            if tok.kind == "ident":
                assert re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok.text)
            elif tok.kind == "num":
                assert re.fullmatch(r"[0-9]+", tok.text)
            else:
                assert tok.kind == tok.text and tok.text in PUNCTUATION
        kept = "".join(
            c for c in re.sub(r"#[^\n]*", "", text) if not c.isspace()
        )
        assert "".join(tok.text for tok in toks) == kept

    @given(data=st.data(), k=st.integers(1, 50))
    @settings(max_examples=300, deadline=None)
    def test_reader_errors_sit_where_reported(self, rex, data, k):
        """Errors the readers raise, at a token placed at a known offset."""
        term = lambda: print_term(data.draw(term_exprs(rex.signature)))
        b = lambda: data.draw(blanks)
        kind = data.draw(st.sampled_from(["close", "arity", "trailing", "end"]))
        if kind == "close":
            culprit = data.draw(st.sampled_from(["a", "=>", ".", ":"]))
            head = b() + "h(" + b() + term() + b() + "," + b() + term() + data.draw(some_blanks)
            text, message = head + culprit + b(), f"expected ')', found '{culprit}'"
        elif kind == "arity":
            head = b() + "h(" + b() + term() + "," + b()
            text = head + "f(" + b() + term() + "," + term() + b() + "))" + b()
            message = "f expects 1 argument(s), got 2"
        elif kind == "trailing":
            culprit = data.draw(st.sampled_from([")", ",", "a", "=>"]))
            head = b() + term() + data.draw(some_blanks)
            text, message = head + culprit + b(), f"unexpected trailing input: '{culprit}'"
        else:  # the end of input sits at a trailing comment's '#'
            head = b() + "g(" + b() + term() + b()
            text = head + data.draw(st.sampled_from(["", "#", "# c"]))
            message = "expected ')', found end of input"
        lexer = Lexer(text, k)
        with pytest.raises(ParseError) as exc:
            _, i = parse_term_tokens(lexer, rex.signature, 0)
            lexer.expect_end(i)
        assert exc.value.args[0] == message
        assert (exc.value.line, exc.value.col) == position_of(text, len(head), k)
        with pytest.raises(ParseError) as exc:  # the same text, read as a proof from line 1
            parse_proof(text, rex.rules, rex.signature)
        assert exc.value.args[0] == message
        assert (exc.value.line, exc.value.col) == position_of(text, len(head))

    def test_non_ascii_letters_and_digits_rejected(self):
        for text, col in (("aé", 2), ("1٣", 2), ("x\n  é", 3)):
            with pytest.raises(ParseError) as exc:
                Lexer(text)
            assert exc.value.col == col

    def test_end_after_trailing_comment(self, rex):
        with pytest.raises(ParseError) as exc:
            parse_term("f(a # c", rex.signature)
        assert (exc.value.line, exc.value.col) == (1, 5)


class TestArityAtHead:
    def test_term(self, rex):
        with pytest.raises(ArityError) as exc:
            parse_term("g(h(a))", rex.signature)
        assert (exc.value.line, exc.value.col) == (1, 3)

    def test_proof(self, rex):
        with pytest.raises(ArityError) as exc:
            parse_proof("r1 ; g(r2)", rex.rules, rex.signature)
        assert (exc.value.line, exc.value.col) == (1, 8)

    def test_strategy(self, rex):
        with pytest.raises(ParseError) as exc:
            parse_strategy("try(id,id)", rex.rules, rex.signature)
        assert (exc.value.line, exc.value.col) == (1, 1)

    def test_nullary_parens(self, rex):
        assert parse_term("a()", rex.signature) == parse_term("a", rex.signature)
        for text in ("id()", "fail()", "r1(a)"):
            with pytest.raises(ParseError) as exc:
                parse_strategy(text, rex.rules, rex.signature)
            assert exc.value.col == len(text.split("(")[0]) + 1


# A signature and rule set that both name q.  `load_theory` rejects such a
# theory, so they are built through the API, where they can still clash.
AMBIGUOUS = (
    Signature([Symbol("a", 0), Symbol("b", 0), Symbol("q", 0)]),
    RuleSet([Rule.make("q", App(Symbol("a", 0)), App(Symbol("b", 0)))]),
)
# Malformed inputs to the four grammars; each row pins the exception class,
# message and line:col of the reader before positions were computed lazily.
ERROR_TABLE = [
    ("term", "f(a", ParseError, "expected ')', found end of input", (1, 4)),
    ("term", "f(a,b)", ParseArityError, "f expects 1 argument(s), got 2", (1, 1)),
    ("term", "h(a b)", ParseError, "expected ')', found 'b'", (1, 5)),
    ("term", "g(a) b", ParseError, "unexpected trailing input: 'b'", (1, 6)),
    ("term", "k(a)", UnknownSymbol, "undeclared symbol 'k'", (1, 1)),
    ("term", "plus(7,0)", UnknownSymbol, "undeclared numeral constant '7'", (1, 6)),
    ("term", "f(\n  é)", ParseError, "unexpected character 'é'", (2, 3)),
    ("term", "", ParseError, "expected a term, found end of input", (1, 1)),
    ("term", "g(,)", ParseError, "expected a term, found ','", (1, 3)),
    ("term", "f(a # c", ParseError, "expected ')', found end of input", (1, 5)),
    ("proof", "r1 ; ", ParseError, "expected a proof term, found end of input", (1, 6)),
    ("proof", "(r1 ; r2\n", ParseArityError, "r2 expects 1 argument(s), got 0", (1, 7)),
    ("proof", "(r1 ; r1\n", ParseError, "expected ')', found end of input", (2, 1)),
    ("proof", "a(r1)", ParseArityError, "a expects 0 argument(s), got 1", (1, 1)),
    ("proof", "zz(r1)", UnknownSymbol, "'zz' is neither a rule label nor a symbol", (1, 1)),
    ("proof", "r2(a) r1", ParseError, "unexpected trailing input: 'r1'", (1, 7)),
    ("proof", "h(r1,\n  7)", UnknownSymbol, "'7' is neither a rule label nor a symbol", (2, 3)),
    ("proof", "r1 ;\n\n  ; r1", ParseError, "expected a proof term, found ';'", (3, 3)),
    ("ambiguous", "f(q)", AmbiguousIdent, "'q' is both a rule label and a symbol", (1, 3)),
    ("strategy", "seq(id)", ParseArityError, "seq expects 2 argument(s), got 1", (1, 1)),
    ("strategy", "mu id . id", ParseError, "'id' is reserved and cannot be bound by mu", (1, 7)),
    ("strategy", "mu X X", ParseError, "expected '.', found 'X'", (1, 6)),
    ("strategy", "try(zz)", UnboundSVar,
     "'zz' is not a bound variable, rule label, or named strategy", (1, 5)),
    ("strategy", "occurs(f(a,b))", ParseArityError, "f expects 1 argument(s), got 2", (1, 8)),
    ("strategy", "first(id,\n id", ParseError, "expected ')', found end of input", (2, 4)),
    ("strategy", "id id", ParseError, "unexpected trailing input: 'id'", (1, 4)),
    ("strategy", "try", ParseError, "expected '(', found end of input", (1, 4)),
    ("theory", "sig a/0\nsig b", ParseError, "expected '/', found end of input", (2, 6)),
    ("theory", "sig a/0\nrule r : a =>   \n", ParseError,
     "expected a term, found end of input", (2, 17)),
    ("theory", "sig a/0\n\n# c\nfoo", ParseError,
     "expected sig, rule, or strat, found 'foo'", (4, 1)),
    ("theory", "sig a/0\nrule r : x => a", ParseError,
     "rule r: left-hand side is a bare variable", (2, 16)),
    ("theory", "sig a/0\nstrat s = id\nstrat s = fail", ParseError,
     "name s already declared", (3, 7)),
    ("theory", "sig a/0 a/1", ParseError, "symbol a already declared as a/0", (1, 9)),
    ("theory", "sig a/0\n  sig # nothing", ParseError,
     "expected at least one name/arity pair", (2, 7)),
    ("theory", "sig a/0\nrule r : a => a\nrule r : a => a", ParseError,
     "name r already declared", (3, 6)),
    ("theory", "sig a/0 f/1\nstrat s = occurs(f(a,a))", ParseArityError,
     "f expects 1 argument(s), got 2", (2, 18)),
    # The line readers of `load_theory`, one row per check, pinned before they read by index.
    ("theory", "sig f/x", ParseError, "expected arity, found 'x'", (1, 7)),
    ("theory", "sig f 1", ParseError, "expected '/', found '1'", (1, 7)),
    ("theory", "sig a/", ParseError, "expected arity, found end of input", (1, 7)),
    ("theory", "sig a/0\nrule", ParseError, "expected rule label, found end of input", (2, 5)),
    ("theory", "sig a/0\nrule 1 : a => a", ParseError, "expected rule label, found '1'", (2, 6)),
    ("theory", "sig a/0\nrule r a => a", ParseError, "expected ':', found 'a'", (2, 8)),
    ("theory", "sig a/0\nrule r : a a", ParseError, "expected '=>', found 'a'", (2, 12)),
    ("theory", "sig a/0\nrule r : a => y", ParseError,
     "rule r: right-hand side has unbound variable(s) y", (2, 16)),
    ("theory", "sig a/0\nrule r : a => a a", ParseError,
     "unexpected trailing input: 'a'", (2, 17)),
    ("theory", "strat", ParseError, "expected strategy name, found end of input", (1, 6)),
    ("theory", "strat id = fail", ParseError, "'id' is reserved", (1, 7)),
    ("theory", "strat 1 = id", ParseError, "expected strategy name, found '1'", (1, 7)),
    ("theory", "strat s id", ParseError, "expected '=', found 'id'", (1, 9)),
    ("theory", "strat s =", ParseError, "expected a strategy, found end of input", (1, 10)),
    ("theory", "sig a/0\nrule r : a => a\nstrat r = id", ParseError,
     "name r already declared", (3, 7)),
    ("theory", "sig a/0 b/0\nstrat s = fail\nrule s : a => b", ParseError,
     "name s already declared", (3, 6)),
    ("theory", "sig a/0 b/0\nrule id : a => b", ParseError, "'id' is reserved", (2, 6)),
    ("theory", "sig a/0 b/0\nrule fail : b => a k(", ParseError, "'fail' is reserved", (2, 6)),
    ("theory", "sig a/0\nrule mu : a => a", ParseError, "'mu' is reserved", (2, 6)),
    ("theory", "strat s = mu 1 . id", ParseError,
     "expected recursion variable, found '1'", (1, 14)),
    ("theory", "(foo", ParseError, "expected declaration keyword, found '('", (1, 1)),
    ("theory", "42 x", ParseError, "expected declaration keyword, found '42'", (1, 1)),
    # Symbols, rule labels and strategy names share one namespace.
    ("theory", "sig a/0 b/0\nrule a : a => b", ParseError, "name a already declared", (2, 6)),
    ("theory", "sig a/0 b/0\nrule r : a => b\nsig r/0", ParseError,
     "name r already declared", (3, 5)),
    ("theory", "sig a/0 f/1\nstrat f = id", ParseError, "name f already declared", (2, 7)),
    # A variable is never spelled like a rule label, which a proof reads as the rule.
    ("theory", "sig a/0 f/1\nrule x : f(x) => x", ParseError,
     "'x' is a rule label, not a variable", (2, 12)),
    ("theory", "sig a/0 f/1\nrule r : f(a) => a\nrule q : f(x) => r", ParseError,
     "'r' is a rule label, not a variable", (3, 18)),
    ("theory", "sig a/0 f/1\nrule r : f(x) => x\nrule x : a => a", ParseError,
     "name x already declared", (3, 6)),
    ("theory", "sig a/0 f/1\nrule r : f(x) => x\nstrat s = occurs(f(r))", ParseError,
     "'r' is a rule label, not a variable", (3, 20)),
    ("theory", "sig a/0 f/1\nstrat s = occurs(f(x))\nrule x : a => a", ParseError,
     "name x already declared", (3, 6)),
    ("theory", "sig a/0 f/1 h/2\nrule r : a => a\nrule x : h(y,x) => r", ParseError,
     "'x' is a rule label, not a variable", (3, 14)),
    ("strategy", "try(occurs(g(r2)))", ParseError, "'r2' is a rule label, not a variable", (1, 14)),
    ("theory term", "f(r1)", ParseError, "'r1' is a rule label, not a variable", (1, 3)),
    ("theory term", "h(x,\n  g(r3))", ParseError, "'r3' is a rule label, not a variable", (2, 5)),
    # An application is read by `parse_tree` alone; the count is checked at the close.
    ("term", "f()", ParseArityError, "f expects 1 argument(s), got 0", (1, 1)),
    ("term", "h(a,)", ParseError, "expected a term, found ')'", (1, 5)),
    ("term", ")", ParseError, "expected a term, found ')'", (1, 1)),
    ("term", "g(a,", ParseError, "expected a term, found end of input", (1, 5)),
    ("term", "f(a)(b)", ParseError, "unexpected trailing input: '('", (1, 5)),
]


class TestErrorTable:
    @pytest.mark.parametrize(
        "grammar, text, cls, message, position",
        ERROR_TABLE,
        ids=[f"{row[0]}-{n}" for n, row in enumerate(ERROR_TABLE)],
    )
    def test_error(self, rex, grammar, text, cls, message, position):
        with pytest.raises(ParseError) as exc:
            if grammar == "term":
                parse_term(text, rex.signature)
            elif grammar == "proof":
                parse_proof(text, rex.rules, rex.signature)
            elif grammar == "ambiguous":
                sig, rules = AMBIGUOUS
                parse_proof(text, rules, sig)
            elif grammar == "strategy":
                parse_strategy(text, rex.rules, rex.signature)
            elif grammar == "theory term":  # `--term`, `--from` and `--to`
                _term(text, rex)
            else:
                load_theory(text)
        assert type(exc.value) is cls
        assert exc.value.args[0] == message
        assert (exc.value.line, exc.value.col) == position
