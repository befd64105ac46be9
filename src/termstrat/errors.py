"""Exception types shared across the engine."""

from __future__ import annotations


class TermstratError(Exception):
    """Base class for every error raised by this package."""


class ParseError(TermstratError):
    """Malformed input text; carries the offending line and column."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        msg = self.args[0]
        if self.line is not None:
            return f"{self.line}:{self.col}: {msg}"
        return msg


class UnknownSymbol(ParseError):
    """An applied identifier is not declared in the signature."""


class UnboundSVar(ParseError):
    """A strategy variable occurs outside any enclosing mu binder."""


class AmbiguousIdent(ParseError):
    """An identifier names both a rule label and a function symbol."""


class ArityError(TermstratError):
    """A symbol, rule, or proof constructor applied to the wrong number of arguments."""


class ParseArityError(ParseError, ArityError):
    """A wrong argument count in input text, reported at the head symbol."""


class InvalidPosition(TermstratError):
    """A position that does not denote a node of the term at hand."""


class UnknownLabel(TermstratError):
    """A rule label that does not occur in the ambient rule set."""


class StepMismatch(TermstratError):
    """A recorded step label does not validate against the term it is applied to."""


class ComposeError(TermstratError):
    """Sequential composition of proofs whose intermediate terms differ."""

    def __init__(self, left_target, right_source):
        super().__init__(
            f"cannot chain: left side ends at {left_target} "
            f"but right side starts at {right_source}"
        )
        self.left_target = left_target
        self.right_source = right_source


class FuelExhausted(TermstratError):
    """Evaluation or exploration hit its fuel bound before finishing.

    Deliberately distinct from strategy failure (stk): running out of fuel
    signals a nontermination cutoff, not a negative answer.
    """


class Fuel:
    """A run's budget: `spend` takes one unit, or raises FuelExhausted when none is left."""

    __slots__ = ("left", "message")

    def __init__(self, amount: int, message: str):
        self.left = amount
        self.message = message

    def spend(self) -> None:
        if self.left < 1:
            raise FuelExhausted(self.message)
        self.left -= 1
