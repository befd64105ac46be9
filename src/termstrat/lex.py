"""The shared text front end for term, rule, proof, and strategy syntax.

Tokens: identifiers ([A-Za-z][A-Za-z0-9_]*), numerals ([0-9]+), and the
punctuation used by the concrete grammars.  `#` starts a comment running to
end of line.  Whitespace separates tokens and is otherwise insignificant.

Every grammar is read by `parse_tree`, one loop over a stack of open frames,
so nesting depth is bounded by memory, not by the recursion limit.
`application` reads `head` or opens `head(arg, ...)`, and `check_arity`
reports a wrong argument count at the head's line and column.
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
        if self._tokens[self._index].kind == kind:  # not `peek`: a call per token costs
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self._tokens[self._index]
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

    @staticmethod
    def check_arity(head: Token, expected: int, args: list | None) -> None:
        """Raise ParseArityError at `head` unless `args` has `expected` entries."""
        got = len(args) if args else 0
        if got != expected:
            raise ParseArityError(
                f"{head.text} expects {expected} argument(s), got {got}", head.line, head.col
            )


def parse_tree(lexer: Lexer, operand):
    """Read one tree by a loop over a stack of open frames.

    A frame is a tuple `(read, build, head, sep, close, args)`: `read`
    reads its operands, separated by `sep` tokens; after the last one the
    `close` token, if any, is expected, and `build(head, args)` makes the
    node.  `operand(lexer)`, like `read`, returns a node or the frame it
    opened; a `read` of None is `operand`, so that no reader refers to
    itself and a parse leaves no reference cycle behind.
    """
    frames: list[tuple] = []
    while True:
        t = ((frames[-1][0] if frames else None) or operand)(lexer)
        if type(t) is tuple:
            frames.append(t)
            continue
        while frames:  # hand `t` to the open frames until one wants another operand
            _, build, head, sep, close, args = frames[-1]
            args.append(t)
            if lexer.accept(sep):
                break
            if close is not None:
                lexer.expect(close)
            frames.pop()
            t = build(head, args)
        else:
            return t


def application(lexer: Lexer, what: str, build, read, parens: bool = False):
    """Read `head`, or `head(` and open the frame of its arguments.

    `build(head, None)` makes a head without parentheses, told apart from
    `head()`; `parens` requires them.
    """
    head = lexer.next()
    if head.kind != "ident" and head.kind != "num":
        raise ParseError(f"expected {what}, found {_describe(head)}", head.line, head.col)
    if parens:
        lexer.expect("(")
    elif not lexer.accept("("):
        return build(head, None)
    if lexer.accept(")"):
        return build(head, [])
    return read, build, head, ",", ")", []


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
