from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termstrat import ArityError, ParseError, parse_proof, parse_strategy, parse_term
from termstrat.lex import Lexer

PUNCTUATION = ("=>", "(", ")", ",", ";", ".", ":", "=", "/")
PIECES = (
    tuple("abzAZ019_")
    + PUNCTUATION
    + (">", "#", "\n", "\t", "\r", " ", "é", "٣")
)


def tokens_of(text: str) -> list:
    lexer = Lexer(text)
    out = []
    while lexer.peek().kind != "end":
        out.append(lexer.next())
    return out


def first_stray(text: str):
    """(line, col, char) of the first character outside every token class."""
    line, col, in_comment, in_ident, prev = 1, 1, False, False, ""
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
    @given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_tokens_sit_where_reported(self, text):
        stray = first_stray(text)
        if stray is not None:
            line, col, c = stray
            with pytest.raises(ParseError) as exc:
                Lexer(text)
            assert (exc.value.line, exc.value.col) == (line, col)
            assert repr(c) in str(exc.value)
            return
        lines = text.split("\n")
        toks = tokens_of(text)
        for tok in toks:
            assert lines[tok.line - 1][tok.col - 1 :].startswith(tok.text)
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
