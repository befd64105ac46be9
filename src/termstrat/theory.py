"""The theory file format: signature, rules, and named strategies together.

Line-oriented; `#` starts a comment, blank lines are skipped.  Three kinds
of declaration, freely interleaved, each referencing earlier lines only:

    sig <name>/<arity> <name>/<arity> ...
    rule <label> : <term> => <term>
    strat <name> = <strategy-expr>

Rule labels and strategy names share one namespace: a name is declared once,
and is never a strategy keyword.
Diagnostics carry the 1-based line and column of the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lex import Lexer
from .rules import RuleSet, parse_rule_line
from .strategies import _KEYWORDS, parse_strategy_tokens
from .terms import Signature, Symbol


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
            if lexer.tokens[1] in _KEYWORDS:
                raise lexer.error(f"{lexer.tokens[1]!r} is reserved", 1)
            if lexer.tokens[1] in th.strategies:
                raise lexer.error(f"name {lexer.tokens[1]} already declared", 1)
            rule, i = parse_rule_line(lexer, th.signature, 1)
            try:
                th.rules.add(rule)
            except ValueError as e:
                raise lexer.error(str(e), 0) from e
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
        i = lexer.expect(i + 1, "/")
        if not tokens[i].isdigit():
            raise lexer.expected(i, "arity")
        try:
            th.signature.add(Symbol(tokens[name], int(tokens[i])))
        except ValueError as e:
            raise lexer.error(str(e), name) from e
        i += 1
    return i


def _strat_line(lexer: Lexer, th: Theory, i: int) -> int:
    name = lexer.name(i, "strategy name")
    if name in _KEYWORDS:
        raise lexer.error(f"{name!r} is reserved", i)
    if name in th.strategies or name in th.rules:
        raise lexer.error(f"name {name} already declared", i)
    expr, i = parse_strategy_tokens(
        lexer, th.rules, th.signature, th.strategies, lexer.expect(i + 1, "=")
    )
    th.strategies[name] = expr
    return i
