"""Strategy combinators with explicit failure, evaluated over terms.

A strategy applied to a term either produces a term (`Value`) or fails
(`STK`).  Failure is data, not an exception: combinators like `First` and
`Not` branch on it.  Running out of fuel is the opposite: it means the
evaluation was cut off before reaching an answer, raises `FuelExhausted`,
and is never converted into failure.

Recursion is written with `mu`; `repeat(s)` costs one unit, then its
unfolding `mu X . try(seq(s, X))`.  Evaluation is one loop over a stack of
frames that spends one unit of fuel per turn, so any divergent strategy
(say `repeat(id)`) exhausts any finite budget.  Tail positions push no
frame and a `try` on a `try` replaces it, so only fuel bounds the depth.

Concrete syntax:

    s := id | fail | <rule-label> | seq(s,s) | first(s,s) | try(s)
       | not(s) | ifTE(s,s,s) | repeat(s) | occurs(<term>) | mu X . s | X

The parser and printer keep their own stacks, so the nesting depth of an
expression is bounded by memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

from .errors import Fuel, FuelExhausted, UnboundSVar
from .lex import Lexer, parse_tree
from .rules import RuleSet
from .terms import (
    App,
    Signature,
    Term,
    TreeNode,
    _instantiate,
    _program,
    _run,
    parse_term_tokens,
    print_tree,
    tree_node,
    variables,
)


@tree_node
class Id(TreeNode):
    """Always succeeds with the term unchanged."""


@tree_node
class Fail(TreeNode):
    """Always fails."""


@tree_node
class RuleRef(TreeNode):
    """Apply the named rule at the root; fails when the rule does not match."""

    label: str


@tree_node
class Seq(TreeNode):
    """Apply s1, then s2 to its result; failure anywhere is the result."""

    s1: StrategyExpr
    s2: StrategyExpr


@tree_node
class First(TreeNode):
    """Apply s1; on failure (and only then) apply s2 to the original term."""

    s1: StrategyExpr
    s2: StrategyExpr


@tree_node
class Try(TreeNode):
    """Apply s, or leave the term unchanged when s fails."""

    s: StrategyExpr


@tree_node
class Not(TreeNode):
    """Succeed (with the term unchanged) exactly when s fails."""

    s: StrategyExpr


@tree_node
class IfTE(TreeNode):
    """Run cond as a test; pick then_s or else_s, both on the original term."""

    cond: StrategyExpr
    then_s: StrategyExpr
    else_s: StrategyExpr


@tree_node
class Repeat(TreeNode):
    """Apply s until it fails; succeeds with the last good term."""

    s: StrategyExpr


@tree_node
class Mu(TreeNode):
    """Bind `var` to this whole expression inside `body`."""

    var: str
    body: StrategyExpr


@tree_node
class SVar(TreeNode):
    """A recursion variable bound by an enclosing mu."""

    var: str


@tree_node
class Occurs(TreeNode):
    """Succeed (term unchanged) when some subterm matches `pattern`."""

    pattern: Term


StrategyExpr = (
    Id | Fail | RuleRef | Seq | First | Try | Not | IfTE | Repeat | Mu | SVar | Occurs
)


@dataclass(frozen=True)
class Value:
    """Successful outcome carrying the resulting term."""

    term: Term


@dataclass(frozen=True)
class Stk:
    """The failure outcome.  Use the STK constant."""

    def __repr__(self) -> str:
        return "Stk"


STK = Stk()

EvalResult = Value | Stk


def eval_strategy(
    s: StrategyExpr, t: Term, rs: RuleSet, fuel: int = 10000
) -> EvalResult:
    """Evaluate a closed strategy expression on `t`.

    Raises FuelExhausted when `fuel` combinator evaluations are not enough,
    UnknownLabel for a rule reference outside `rs`, and UnboundSVar for a
    free recursion variable, each when the loop reaches it.
    """
    budget = Fuel(fuel, "strategy evaluation ran out of fuel")
    rules = rs._by_label
    # The enclosing mus, innermost first, as a chain of (var, mu, enclosing)
    # tuples; the enclosing chain is also the one the mu was defined in.
    env = None
    # Frames (node, term, env): a node waiting on its first operand, with
    # the term and environment it was entered with.
    stack: list = []
    # An outcome `r` is a term, or None for failure; the Value or STK is
    # built when no frame is left.  Each turn does `budget.spend()` inline,
    # then tests the node's kind in the order loops meet the kinds.
    while True:
        if budget.left < 1:
            raise FuelExhausted(budget.message)
        budget.left -= 1
        kind = type(s)
        if kind is RuleRef:
            rule = rules.get(s.label) or rs.lookup(s.label)
            bindings = _run(rule.program, t)
            r = None if bindings is None else _instantiate(bindings, rule.build)
        elif kind is SVar:
            # Unfolding runs the body in the chain that starts at its binder.
            while env is not None and env[0] != s.var:
                env = env[2]
            if env is None:
                raise UnboundSVar(f"strategy variable {s.var} is not bound")
            s = env[1].body
            continue
        elif kind is Try:
            if stack and type(stack[-1][0]) is Try:
                stack.pop()  # the try below could only ever pass a value on
            stack.append((s, t, env))
            s = s.s
            continue
        elif kind is Seq or kind is First:
            stack.append((s, t, env))
            s = s.s1
            continue
        elif kind is Mu:
            env = (s.var, s, env)
            s = s.body
            continue
        elif kind is Repeat:
            # No name the parser reads has a quote, so none captures X.
            s = Mu("repeat'", Try(Seq(s.s, SVar("repeat'"))))
            continue
        elif kind is Not:
            stack.append((s, t, env))
            s = s.s
            continue
        elif kind is IfTE:
            stack.append((s, t, env))
            s = s.cond
            continue
        elif kind is Id:
            r = t
        elif kind is Fail:
            r = None
        elif kind is Occurs:
            r = t if check_invariant(s.pattern, t) else None
        else:
            raise TypeError(f"not a strategy expression: {s!r}")
        # Hand the outcome `r` to the frames until one has an operand to run.
        while stack:
            node, t, env = stack.pop()
            kind = type(node)
            if kind is Seq:
                if r is not None:
                    s, t = node.s2, r
                    break
            elif kind is Try:
                if r is None:
                    r = t
            elif kind is First:
                if r is None:
                    s = node.s2
                    break
            elif kind is Not:
                r = t if r is None else None
            else:  # IfTE
                s = node.else_s if r is None else node.then_s
                break
        else:
            return STK if r is None else Value(r)


def check_invariant(g: Term, t: Term) -> bool:
    """True iff some subterm of `t`, tried in preorder, matches the pattern `g`."""
    program = _program(g)
    stack = [t]
    while stack:
        sub = stack.pop()
        if _run(program, sub) is not None:
            return True
        if type(sub) is App:
            stack += reversed(sub.args)
    return False


def invariant_strategy(g: Term) -> StrategyExpr:
    """Succeeds (term unchanged) while the pattern `g` still occurs.

    The persistent-check idiom: keep the term when the wanted pattern is
    present, fail the moment it disappears.
    """
    return First(Occurs(g), Fail())


def forbidden_strategy(g: Term) -> StrategyExpr:
    """Fails exactly when the unwanted pattern `g` occurs somewhere in t."""
    return IfTE(Occurs(g), Fail(), Id())


# Keyword -> (constructor, arity).  `mu X . s` has its own syntax; it is
# listed so that `mu` is reserved like the others.
_KEYWORDS = {
    "id": (Id, 0),
    "fail": (Fail, 0),
    "seq": (Seq, 2),
    "first": (First, 2),
    "try": (Try, 1),
    "not": (Not, 1),
    "ifTE": (IfTE, 3),
    "repeat": (Repeat, 1),
    "occurs": (Occurs, 1),
    "mu": (Mu, 2),
}
_SPELLING = {ctor: keyword for keyword, (ctor, _) in _KEYWORDS.items()}


def parse_strategy(
    text: str, rs: RuleSet, sig: Signature, named: dict | None = None
) -> StrategyExpr:
    """Parse one strategy expression.

    Bare identifiers resolve, in order, to: an enclosing mu binding, a rule
    label in `rs`, a name in `named` (spliced in place).  Anything else
    raises UnboundSVar.  No variable of an `occurs` pattern may be spelled
    like a rule label in `rs`.
    """
    lexer = Lexer(text)
    s, i = parse_strategy_tokens(lexer, rs, sig, named or {}, 0)
    lexer.expect_end(i)
    return s


def parse_strategy_tokens(
    lexer: Lexer, rs: RuleSet, sig: Signature, named: dict, i: int, seen: set | None = None
) -> tuple[StrategyExpr, int]:
    """Parse one strategy expression from token `i`; returns it and the index
    after it.  The variables of its `occurs` patterns join `seen`, if given."""
    # The variables of the enclosing mus, counted: each mu frame adds its own
    # and removes it when its body is read, so a mu chain parses in linear time.
    bound: Counter = Counter()
    tokens = lexer.tokens

    def build(head: int, args: list) -> StrategyExpr:
        ctor, arity = _KEYWORDS[tokens[head]]
        lexer.check_arity(head, arity, args)
        return ctor(*args)

    def close_mu(var: str, args: list) -> Mu:
        bound[var] -= 1
        return Mu(var, args[0])

    def read_term(i: int) -> tuple:
        pattern, i = parse_term_tokens(lexer, sig, i, rs._by_label)
        if seen is not None:
            seen.update(variables(pattern))
        return pattern, i

    def operand(i: int) -> tuple:
        name = tokens[i]
        ctor, arity = _KEYWORDS.get(name, (None, 0))
        if ctor is Mu:
            var = lexer.name(i + 1, "recursion variable")
            if var in _KEYWORDS:
                raise lexer.error(f"{var!r} is reserved and cannot be bound by mu", i + 2)
            i = lexer.expect(i + 2, ".")
            bound[var] += 1
            return (None, close_mu, var, None, None, []), i
        if arity:  # an application, which `parse_tree` reads, but for an `occurs` pattern
            if tokens[i + 1] != "(":
                raise lexer.expected(i + 1, "'('")
            if ctor is Occurs and tokens[i + 2] != ")":
                return (read_term, build, i, ",", ")", []), i + 2
            return None, i
        if not name[:1].isalpha():
            raise lexer.expected(i, "a strategy")
        if ctor is not None:
            return ctor(), i + 1
        if bound[name]:
            return SVar(name), i + 1
        if name in rs:
            return RuleRef(name), i + 1
        if name in named:
            return named[name], i + 1
        raise lexer.error(
            f"{name!r} is not a bound variable, rule label, or named strategy", i, UnboundSVar
        )

    return parse_tree(lexer, build, "a strategy", i, operand)


def print_strategy(s: StrategyExpr) -> str:
    """Canonical text form; parses back to the same expression."""
    return print_tree(s, _strategy_items)


def _strategy_items(s: StrategyExpr) -> list:
    """The print items of one strategy node for `print_tree`."""
    match s:
        case RuleRef(label=name) | SVar(var=name):
            return [name]
        case Mu(var=x, body=body):
            return [f"mu {x} . ", body]
    keyword = _SPELLING.get(type(s))
    if keyword is None:
        raise TypeError(f"not a strategy expression: {s!r}")
    items = [keyword + "("]
    for f in fields(s):
        items += (getattr(s, f.name), ",")
    items[-1] = ")" if len(items) > 1 else keyword
    return items
