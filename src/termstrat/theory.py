"""The theory file format: signature, rules, and named strategies together.

Line-oriented; `#` starts a comment, blank lines are skipped.  Three kinds
of declaration, freely interleaved, each referencing earlier lines only:

    sig <name>/<arity> <name>/<arity> ...
    rule <label> : <term> => <term>
    strat <name> = <strategy-expr>

Diagnostics carry the 1-based line and column of the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError
from .lex import Lexer
from .rules import RuleSet, parse_rule_line
from .strategies import _KEYWORDS, StrategyExpr, parse_strategy_tokens
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
        if lexer.peek().kind == "end":
            continue
        head = lexer.expect("ident", "declaration keyword")
        if head.text == "sig":
            _sig_line(lexer, th)
        elif head.text == "rule":
            rule = parse_rule_line(lexer, th.signature)
            try:
                th.rules.add(rule)
            except ValueError as e:
                raise ParseError(str(e), head.line, head.col) from e
        elif head.text == "strat":
            _strat_line(lexer, th)
        else:
            raise ParseError(
                f"expected sig, rule, or strat, found '{head.text}'",
                head.line,
                head.col,
            )
        lexer.expect_end()
    return th


def _sig_line(lexer: Lexer, th: Theory) -> None:
    saw_any = False
    while lexer.peek().kind in ("ident", "num"):
        tok = lexer.next()
        lexer.expect("/")
        arity_tok = lexer.expect("num", "arity")
        try:
            th.signature.add(Symbol(tok.text, int(arity_tok.text)))
        except ValueError as e:
            raise ParseError(str(e), tok.line, tok.col) from e
        saw_any = True
    if not saw_any:
        raise lexer.error("expected at least one name/arity pair")


def _strat_line(lexer: Lexer, th: Theory) -> None:
    tok = lexer.expect("ident", "strategy name")
    name = tok.text
    if name in _KEYWORDS:
        raise ParseError(f"{name!r} is reserved", tok.line, tok.col)
    if name in th.strategies or name in th.rules:
        raise ParseError(
            f"name {name} already declared", tok.line, tok.col
        )
    lexer.expect("=")
    expr: StrategyExpr = parse_strategy_tokens(
        lexer, th.rules, th.signature, th.strategies
    )
    th.strategies[name] = expr
