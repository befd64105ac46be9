"""The theory file format: signature, rules, and named strategies together.

Line-oriented; `#` starts a comment, blank lines are skipped.  Three kinds
of declaration, freely interleaved, each referencing earlier lines only:

    sig <name>/<arity> <name>/<arity> ...
    rule <label> : <term> => <term>
    strat <name> = <strategy-expr>

Symbols, rule labels and strategy names share one namespace: a name is
declared once, and a rule label or strategy name is never a strategy keyword.
Each clash is rejected at the name, before the rest of its line is read: a
label or strategy name by `_declare`, a symbol by `_sig_line`.  A variable
is never spelled like a rule label, which a proof would read as the rule:
`_declare` rejects a label spelled like an earlier variable (of a rule or
of an `occurs` pattern), and a term read against the theory (`_term`, a
rule side, a pattern) rejects the variable.
Diagnostics carry the 1-based line and column of the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lex import Lexer
from .rules import Rule, RuleSet
from .strategies import _KEYWORDS, parse_strategy_tokens
from .terms import Signature, Symbol, Term, parse_term_tokens


@dataclass
class Theory:
    """Everything a command needs: symbols, rules, and strategy aliases."""

    signature: Signature = field(default_factory=Signature)
    rules: RuleSet = field(default_factory=RuleSet)
    strategies: dict = field(default_factory=dict)
    # The variables of its rules and `occurs` patterns: no later rule label
    # may be spelled like one.
    _variables: set = field(default_factory=set, init=False, repr=False, compare=False)


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
    not a strategy keyword, and not yet a symbol, rule label or strategy
    name.  A rule label is not yet a variable either."""
    name = lexer.name(i, what)
    if name in _KEYWORDS:
        raise lexer.error(f"{name!r} is reserved", i)
    if (
        name in th.signature
        or name in th.rules
        or name in th.strategies
        or what == "rule label" and name in th._variables
    ):
        raise lexer.error(f"name {name} already declared", i)
    return name


def _rule_line(lexer: Lexer, th: Theory, i: int) -> int:
    """Parse `<label> : <term> => <term>` from token `i` into `th.rules`;
    returns the index after it.  No variable of the rule is spelled like
    its label or an earlier one."""
    label = _declare(lexer, th, i, "rule label")
    labels = _Labels(th.rules._by_label, label)
    lhs, i = parse_term_tokens(lexer, th.signature, lexer.expect(i + 1, ":"), labels)
    rhs, i = parse_term_tokens(lexer, th.signature, lexer.expect(i, "=>"), labels)
    try:
        rule = Rule.make(label, lhs, rhs)
    except ValueError as e:
        raise lexer.error(str(e), i) from e
    th.rules.add(rule)
    th._variables.update(rule.params)
    return i


class _Labels:
    """The labels `by_label` holds and one more, `label`, as a container:
    the names a variable of the rule `label` may not take."""

    __slots__ = ("by_label", "label")

    def __init__(self, by_label: dict, label: str):
        self.by_label = by_label
        self.label = label

    def __contains__(self, name: str) -> bool:
        return name == self.label or name in self.by_label


def _term(text: str, th: Theory) -> Term:
    """`text` read as a term of `th`: a term of its signature in which no
    variable is spelled like a rule label."""
    lexer = Lexer(text)
    t, i = parse_term_tokens(lexer, th.signature, 0, th.rules._by_label)
    lexer.expect_end(i)
    return t


def _strat_line(lexer: Lexer, th: Theory, i: int) -> int:
    name = _declare(lexer, th, i, "strategy name")
    expr, i = parse_strategy_tokens(
        lexer, th.rules, th.signature, th.strategies, lexer.expect(i + 1, "="), th._variables
    )
    th.strategies[name] = expr
    return i
