"""The shared text front end for term, rule, proof, and strategy syntax.

Tokens: identifiers ([A-Za-z][A-Za-z0-9_]*), numerals ([0-9]+), and the
punctuation used by the concrete grammars.  `#` starts a comment running to
end of line.  Whitespace separates tokens and is otherwise insignificant.

Every grammar builds on `Lexer.application`, which reads `head` or
`head(arg, ...)`, and on `Lexer.check_arity`, which reports a wrong argument
count at the head's line and column.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseArityError, ParseError

# One alternative per token class; the first that matches at a position wins.
_TOKEN_RE = re.compile(
    r"""
      (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<num>[0-9]+)
    | (?P<punct>=>|[(),;.:=/])
    | (?P<newline>\n)
    | (?P<space>[^\S\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # "ident", "num", the punctuation text itself, or "end"
    text: str
    line: int
    col: int


class Lexer:
    """Cursor over the token stream of a piece of source text."""

    def __init__(self, text: str, line: int = 1):
        self._tokens = _tokenize(text, line)
        self._index = 0

    def peek(self) -> Token:
        return self._tokens[self._index]

    def next(self) -> Token:
        tok = self._tokens[self._index]
        if tok.kind != "end":
            self._index += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"'{kind}'"
            raise ParseError(f"expected {want}, found {_describe(tok)}", tok.line, tok.col)
        return self.next()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input: {_describe(tok)}", tok.line, tok.col)

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def head(self, what: str) -> Token:
        """Consume the head of an application: an identifier or numeral."""
        tok = self.peek()
        if tok.kind != "ident" and tok.kind != "num":
            raise ParseError(f"expected {what}, found {_describe(tok)}", tok.line, tok.col)
        return self.next()

    def application(
        self, what: str, parse_arg, parens: bool = False
    ) -> tuple[Token, list | None]:
        """Parse `head` or `head(arg, ...)`; the head is an identifier or numeral.

        `parse_arg` parses one argument from this lexer.  The argument list
        is None when no parentheses follow the head, so `a` and `a()` can be
        told apart; with `parens` the parentheses are required.
        """
        head = self.head(what)
        if parens:
            self.expect("(")
        elif not self.accept("("):
            return head, None
        args = []
        if not self.accept(")"):
            args.append(parse_arg())
            while self.accept(","):
                args.append(parse_arg())
            self.expect(")")
        return head, args

    @staticmethod
    def check_arity(head: Token, expected: int, args: list | None) -> None:
        """Raise ParseArityError at `head` unless `args` has `expected` entries."""
        got = len(args) if args else 0
        if got != expected:
            raise ParseArityError(
                f"{head.text} expects {expected} argument(s), got {got}", head.line, head.col
            )


def _describe(tok: Token) -> str:
    if tok.kind == "end":
        return "end of input"
    return f"'{tok.text}'"


def _tokenize(text: str, line: int) -> list[Token]:
    tokens = []
    line_start = 0  # offset of the current line's first character
    end = len(text)  # the end token's offset: a trailing comment keeps it at '#'
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start()
        if kind == "ident" or kind == "num":
            tokens.append(Token(kind, m.group(), line, start - line_start + 1))
        elif kind == "punct":
            punct = m.group()
            tokens.append(Token(punct, punct, line, start - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = start + 1
        elif kind == "comment":
            if m.end() == len(text):
                end = start
        elif kind == "bad":
            raise ParseError(
                f"unexpected character {m.group()!r}", line, start - line_start + 1
            )
    tokens.append(Token("end", "", line, end - line_start + 1))
    return tokens
