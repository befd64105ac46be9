"""The shared text front end for term, rule, proof, and strategy syntax.

Tokens: identifiers ([A-Za-z][A-Za-z0-9_]*), numerals ([0-9]+), and the
punctuation used by the concrete grammars.  `#` starts a comment running to
end of line.  Whitespace separates tokens and is otherwise insignificant.

A text is scanned once, by one `findall` that also skips whitespace and
comments, into `Lexer.tokens`: each token's text, then "" for the end of
input.  No positions are kept; a token's `line:col` is worked out from the
text only when it is asked for, which in practice means an error.

Every grammar is read by `parse_tree`, one loop over a stack of open frames,
so nesting depth is bounded by memory, not by the recursion limit.  It reads
every application, `head` or `head(arg, ...)`, itself, with one call of the
grammar's `build` per node.  Every reader, the line-oriented theory reader
included, indexes `tokens`: it takes the index of its first token and
returns the index after what it read.  `expect` and `name` check one token,
and the error methods report at an index.  `check_arity` reports a wrong
argument count at the head's line and column.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseArityError, ParseError

# Skip whitespace and comments, then read one token.  A character no token
# starts with takes the rest of the text with it, so a stray character is
# the last token; at the end of the text the group is empty.
_TOKEN_RE = re.compile(
    r"\s*(?:\#[^\n]*\s*)*([A-Za-z][A-Za-z0-9_]*|[0-9]+|=>|[(),;.:=/]|.+)?", re.DOTALL
)
_STARTS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789(),;.:=/")
# The tokens that are not names or numerals, the end of input included.
_PUNCTUATION = frozenset(("=>", *"(),;.:=/", ""))


class Lexer:
    """The tokens of a piece of source text, `tokens`, read by index.

    A reader takes the index of its first token and returns the index after
    what it read; the methods below check or report the token at an index.
    `line` is the line number the text starts on.
    """

    def __init__(self, text: str, line: int = 1):
        self.text = text
        self.line = line
        self.tokens = _tokenize(text, line)

    def position(self, i: int) -> tuple[int, int]:
        """The line and column of token `i`, from a second scan of the text."""
        text = self.text
        if i < len(self.tokens) - 1:
            offset = next(islice(_TOKEN_RE.finditer(text), i, None)).start(1)
        else:  # the end, or the comment that runs to it
            offset = text.find("#", text.rfind("\n") + 1)
            if offset < 0:
                offset = len(text)
        return _line_col(text, self.line, offset)

    def expect(self, i: int, token: str) -> int:
        """The index after token `i`, which must be `token`."""
        if self.tokens[i] != token:
            raise self.expected(i, f"'{token}'")
        return i + 1

    def name(self, i: int, what: str) -> str:
        """Token `i`, which must be an identifier, described as `what`."""
        text = self.tokens[i]
        if not text[:1].isalpha():
            raise self.expected(i, what)
        return text

    def expect_end(self, i: int) -> None:
        if self.tokens[i]:
            raise self.error(f"unexpected trailing input: {_describe(self.tokens[i])}", i)

    def error(self, message: str, i: int, cls=ParseError) -> ParseError:
        """A `cls` carrying `message` at token `i`."""
        return cls(message, *self.position(i))

    def expected(self, i: int, what: str) -> ParseError:
        return self.error(f"expected {what}, found {_describe(self.tokens[i])}", i)

    def check_arity(self, head: int, expected: int, args: list | None) -> None:
        """Raise ParseArityError at token `head` unless `args` has `expected` entries."""
        got = len(args) if args else 0
        if got != expected:
            message = f"{self.tokens[head]} expects {expected} argument(s), got {got}"
            raise self.error(message, head, ParseArityError)


def parse_tree(lexer: Lexer, build, what: str, i: int, operand=None) -> tuple:
    """Read one tree from token `i` by a loop over a stack of open frames.

    An application, `head`, `head()` or `head(arg, ...)`, is read here, by
    the one loop every grammar shares: its head is a name or a numeral, and
    `build(head, args)`, the only call it makes per application, makes its
    node from the head's index and the list of its arguments, or None for
    `args` when no parentheses follow the head.  `build` checks the count.
    Where no application starts, the error names the tree as `what`.

    `operand(i)`, if given, reads the grammar's own tokens first: it
    returns a node, a frame it opened, or None to leave an application at
    `i` to this loop, and the index after what it read.  A frame is a tuple
    `(read, build, head, sep, close, args)`: `read` reads its operands,
    separated by `sep` tokens; after the last one the `close` token, if
    any, is expected, and `build(head, args)` makes the node.  A `read` of
    None is `operand`, so that no reader refers to itself and a parse
    leaves no reference cycle behind; an application's arguments are read
    that way.  Returns the tree and the index after it.
    """
    tokens = lexer.tokens
    frames: list[tuple] = []
    while True:
        read = (frames[-1][0] if frames else None) or operand
        if read is None:
            t = None
        else:
            t, i = read(i)
            if type(t) is tuple:
                frames.append(t)
                continue
        if t is None:  # an application
            if tokens[i] in _PUNCTUATION:
                raise lexer.expected(i, what)
            if tokens[i + 1] != "(":
                t = build(i, None)
                i += 1
            elif tokens[i + 2] != ")":
                frames.append((None, build, i, ",", ")", []))
                i += 2
                continue
            else:
                t = build(i, [])
                i += 3
        while frames:  # hand `t` to the open frames until one wants another operand
            _, make, head, sep, close, args = frames[-1]
            args.append(t)
            if tokens[i] == sep:
                i += 1
                break
            if close is not None:
                if tokens[i] != close:
                    raise lexer.expected(i, f"'{close}'")
                i += 1
            frames.pop()
            t = make(head, args)
        else:
            return t, i


def _describe(text: str) -> str:
    return f"'{text}'" if text else "end of input"


def _line_col(text: str, line: int, offset: int) -> tuple[int, int]:
    return line + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset)


def _tokenize(text: str, line: int) -> list[str]:
    tokens = _TOKEN_RE.findall(text)
    # The end is matched once or twice: after trailing blanks, and empty.
    if len(tokens) > 1 and not tokens[-2]:
        tokens.pop()
    if len(tokens) > 1 and tokens[-2][0] not in _STARTS:
        stray = tokens[-2]
        raise ParseError(
            f"unexpected character {stray[0]!r}", *_line_col(text, line, len(text) - len(stray))
        )
    return tokens
