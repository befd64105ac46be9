"""The theory file format: signature, rules, and named strategies together.

Line-oriented; `#` starts a comment, blank lines are skipped.  Three kinds
of declaration, freely interleaved, each referencing earlier lines only:

    sig <name>/<arity> <name>/<arity> ...
    rule <label> : <term> => <term>
    strat <name> = <strategy-expr>

Symbols, rule labels and strategy names share one namespace: a name is
declared once, and a rule label or strategy name is never a strategy keyword.
Each clash is rejected at the name, before the rest of its line is read: a
label or strategy name by `_declare`, a symbol by `_sig_line`.
Diagnostics carry the 1-based line and column of the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lex import Lexer
from .rules import Rule, RuleSet
from .strategies import _KEYWORDS, parse_strategy_tokens
from .terms import Signature, Symbol, parse_term_tokens


@dataclass
class Theory:
    """Everything a command needs: symbols, rules, and strategy aliases."""

    signature: Signature = field(default_factory=Signature)
    rules: RuleSet = field(default_factory=RuleSet)
    strategies: dict = field(default_factory=dict)


def load_theory(text: str) -> Theory:
    """Parse a whole theory file; any defect aborts with line:col."""
    th = Theory()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        lexer = Lexer(raw, line=lineno)
        if not lexer.tokens[0]:
            continue
        head = lexer.name(0, "declaration keyword")
        if head == "sig":
            i = _sig_line(lexer, th, 1)
        elif head == "rule":
            i = _rule_line(lexer, th, 1)
        elif head == "strat":
            i = _strat_line(lexer, th, 1)
        else:
            raise lexer.error(f"expected sig, rule, or strat, found '{head}'", 0)
        lexer.expect_end(i)
    return th


def _sig_line(lexer: Lexer, th: Theory, i: int) -> int:
    tokens = lexer.tokens
    if not tokens[i][:1].isalnum():
        raise lexer.error("expected at least one name/arity pair", i)
    while tokens[i][:1].isalnum():
        name = i
        if tokens[i] in th.rules or tokens[i] in th.strategies:
            raise lexer.error(f"name {tokens[i]} already declared", i)
        i = lexer.expect(i + 1, "/")
        if not tokens[i].isdigit():
            raise lexer.expected(i, "arity")
        try:
            th.signature.add(Symbol(tokens[name], int(tokens[i])))
        except ValueError as e:
            raise lexer.error(str(e), name) from e
        i += 1
    return i


def _declare(lexer: Lexer, th: Theory, i: int, what: str) -> str:
    """Token `i`, a new rule label or strategy name described as `what`:
    not a strategy keyword, and not yet a symbol, rule label or strategy name."""
    name = lexer.name(i, what)
    if name in _KEYWORDS:
        raise lexer.error(f"{name!r} is reserved", i)
    if name in th.signature or name in th.rules or name in th.strategies:
        raise lexer.error(f"name {name} already declared", i)
    return name


def _rule_line(lexer: Lexer, th: Theory, i: int) -> int:
    """Parse `<label> : <term> => <term>` from token `i` into `th.rules`;
    returns the index after it."""
    label = _declare(lexer, th, i, "rule label")
    lhs, i = parse_term_tokens(lexer, th.signature, lexer.expect(i + 1, ":"))
    rhs, i = parse_term_tokens(lexer, th.signature, lexer.expect(i, "=>"))
    try:
        rule = Rule.make(label, lhs, rhs)
    except ValueError as e:
        raise lexer.error(str(e), i) from e
    th.rules.add(rule)
    return i


def _strat_line(lexer: Lexer, th: Theory, i: int) -> int:
    name = _declare(lexer, th, i, "strategy name")
    expr, i = parse_strategy_tokens(
        lexer, th.rules, th.signature, th.strategies, lexer.expect(i + 1, "=")
    )
    th.strategies[name] = expr
    return i
