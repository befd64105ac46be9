"""Proof terms for rewriting: each one encodes a multi-step rewrite.

A proof term is built from embedded terms (reflexivity), congruence
(rewriting inside arguments), transitivity (chaining), and replacement
(applying a labeled rule, possibly rewriting its arguments at the same
time).  `infer` reconstructs the sequent [source] -> [target] a proof
justifies; `from_derivation` / `to_derivation` convert between proofs and
step sequences.

Concrete syntax:

    pt := "(" pt ")" | ident | ident "(" pt ("," pt)* ")" | pt ";" pt

`;` has lowest precedence and associates left.  An identifier names a rule
(replacement) or a symbol (congruence / embedded term); one that names both
is rejected as ambiguous.  Congruence nodes whose children are all embedded
terms collapse to a single embedded term, so plain terms parse as
themselves.  Parsing, printing, `infer` and both conversions keep their
own stacks, so nesting depth is bounded by memory, not by the recursion
limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .ars import Derivation
from .errors import (
    AmbiguousIdent,
    ArityError,
    ComposeError,
    TermstratError,
    UnknownSymbol,
)
from .lex import Lexer, parse_tree
from .rules import Rule, RuleSet, StepLabel, rewrite_at
from .terms import (
    App,
    Position,
    Signature,
    Symbol,
    Term,
    TreeNode,
    Var,
    _build_program,
    _instantiate,
    print_term,
    print_tree,
    subterm_at,
    subterms,
    tree_node,
)


@tree_node
class Embed(TreeNode):
    """A term as its own (zero-step) proof: t : [t] -> [t]."""

    term: Term


@tree_node
class Cong(TreeNode):
    """Rewrite inside the arguments of `symbol`, one proof per argument.

    At least one argument proof must be a non-Embed; use the `cong` factory
    when children might all be embedded terms.
    """

    symbol: Symbol
    args: tuple = ()

    def __post_init__(self):
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.symbol.arity:
            raise ArityError(
                f"{self.symbol.name} expects {self.symbol.arity} argument(s), "
                f"got {len(self.args)}"
            )
        if all(isinstance(a, Embed) for a in self.args):
            raise ValueError(
                f"congruence over {self.symbol.name} with only embedded "
                "arguments; use the cong factory to normalize"
            )


@tree_node
class Trans(TreeNode):
    """Chain two proofs; the first one's target must be the second's source."""

    first: ProofTerm
    second: ProofTerm


@tree_node
class Repl(TreeNode):
    """Apply the rule named `rule_label`, one proof per rule parameter."""

    rule_label: str
    args: tuple = ()

    def __post_init__(self):
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))


ProofTerm = Embed | Cong | Trans | Repl


def cong(symbol, args) -> ProofTerm:
    """Congruence node, collapsed to Embed when no argument rewrites."""
    args = tuple(args)
    if all(isinstance(a, Embed) for a in args):
        return Embed(App(symbol, tuple(a.term for a in args)))
    return Cong(symbol, args)


@dataclass(frozen=True)
class Sequent:
    """What a proof term proves: source rewrites (in many steps) to target."""

    source: Term
    target: Term

    def __str__(self) -> str:
        return f"[{print_term(self.source)}] -> [{print_term(self.target)}]"


# Pushed under the two operands of a `Trans` in `infer`'s walk: join their pairs.
_JOIN = object()


def infer(pi: ProofTerm, rs: RuleSet) -> Sequent:
    """The unique sequent `pi` proves, by structural rules.

    A term proves [t] -> [t].  A congruence proves f applied to the
    argument sources rewrites to f applied to the argument targets.  A
    chain composes, provided the intermediates agree (ComposeError with
    both otherwise).  A replacement of rule l: lhs => rhs instantiates lhs
    with the argument sources and rhs with the argument targets.

    One post-order walk on an explicit stack, operands left to right, so
    depth is not bounded by the recursion limit and the first error wins.
    The walk keeps plain (source, target) pairs and builds one `Sequent`
    at the end.  A replacement without arguments is looked up once per
    label, and equal rule sides are shared for the call, so on a chain of
    such replacements the middle terms compare by identity.  A rule's right
    side is built by its build program, and its left side is compiled per
    replacement, as `apply_subst` compiles its term.  A proof that
    shares a node in several places (as `parse_proof`'s leaves do) is
    checked once per place it occurs.
    """
    done: list = []  # (source, target) of the finished subproofs, in post-order
    leaves: dict = {}  # label -> the pair of an argument-free replacement
    canon: dict = {}  # rule side -> the equal side shared for this call
    # Subproofs to visit; under the operands of a node lies what combines
    # their pairs once they are done: `_JOIN` for a chain, `(symbol,)` for a
    # congruence and `(rule,)` for a replacement.
    stack: list = [pi]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Repl:
            args = node.args
            if not args:
                pair = leaves.get(node.rule_label)
                if pair is not None:
                    done.append(pair)
                    continue
            rule = rs.lookup(node.rule_label)
            if len(args) != len(rule.params):
                raise ArityError(
                    f"rule {node.rule_label} has {len(rule.params)} parameter(s), "
                    f"got {len(args)} argument(s)"
                )
            if args:
                stack.append((rule,))
                stack += reversed(args)
            else:
                pair = canon.setdefault(rule.lhs, rule.lhs), canon.setdefault(rule.rhs, rule.rhs)
                done.append(pair)
                leaves[node.rule_label] = pair
        elif node is _JOIN:
            (source, left), (right, target) = done[-2:]
            if left is not right and left != right:
                raise ComposeError(left, right)
            done[-2:] = [(source, target)]
        elif kind is Trans:
            stack += (_JOIN, node.second, node.first)
        elif kind is Embed:
            done.append((node.term, node.term))
        elif kind is Cong:
            stack.append((node.symbol,))
            stack += reversed(node.args)
        elif kind is not tuple:
            raise TypeError(f"not a proof term: {node!r}")
        else:
            head = node[0]
            if type(head) is Symbol:
                n = len(done) - head.arity
                sources, targets = zip(*done[n:])
                done[n:] = [(App._unchecked(head, sources), App._unchecked(head, targets))]
            else:
                n = len(done) - len(head.params)
                sources, targets = zip(*done[n:])
                done[n:] = [
                    (
                        _instantiate(dict(zip(head.params, sources)), _build_program(head.lhs)),
                        _instantiate(dict(zip(head.params, targets)), head.build),
                    )
                ]
    return Sequent(*done[0])


def check(pi: ProofTerm, t: Term, t2: Term, rs: RuleSet) -> bool:
    """True iff `pi` proves exactly [t] -> [t2]."""
    return infer(pi, rs) == Sequent(t, t2)


def from_derivation(d: Derivation, rs: RuleSet) -> ProofTerm:
    """Encode a step sequence as a proof term.

    Each step becomes a replacement wrapped in congruences along its
    position; steps chain left-associatively.  The empty derivation encodes
    as its source term.  The rule set fixes replacement argument order
    (rule parameter order, which the name-sorted bindings do not retain).
    """
    if not d.steps:
        return Embed(d.source)

    def step_proof(source: Term, label: StepLabel) -> ProofTerm:
        rule = rs.lookup(label.rule_label)
        pi: ProofTerm = Repl(
            label.rule_label,
            tuple(Embed(label.subst.get(x)) for x in rule.params),
        )
        subterm_at(source, label.position)  # InvalidPosition for a hand-built step
        path = label.position.path
        context = [source]
        for child in path[:-1]:
            context.append(context[-1].args[child - 1])
        for node, child in zip(reversed(context), reversed(path)):
            args = [Embed(arg) for arg in node.args]
            args[child - 1] = pi
            pi = Cong(node.symbol, tuple(args))
        return pi

    return reduce(Trans, (step_proof(s.source, s.label) for s in d.steps))


def to_derivation(pi: ProofTerm, rs: RuleSet) -> Derivation:
    """Flatten a proof into one sequence of single steps.

    Parallel rewrites are serialized left to right: congruence arguments in
    order, and for a replacement the argument rewrites fire first (at every
    occurrence of the matching parameter), then the rule itself at the top.
    The result replays to the same sequent the proof infers.  `infer`
    checks the proof first, so each step fires at a position whose path is
    not checked again.
    """
    source = t = infer(pi, rs).source
    steps = []
    for path, rule in _firings(pi, rs):
        # `infer` accepted `pi`, so every listed rule matches where it fires,
        # and each step starts at the last one's target: they chain.
        step = rewrite_at(t, rule, Position._unchecked(path))
        steps.append(step)
        t = step.target
    return Derivation._unchecked(source, tuple(steps))


def _firings(pi: ProofTerm, rs: RuleSet):
    """Yield the (absolute path, rule) pairs `to_derivation` fires, in order.

    The walk keeps its own stack, as `infer` does, so the depth of `pi` is
    not bounded by the recursion limit.  Each rule's parameter occurrences
    are found once per call: a replacement pushes each argument once per
    occurrence of its parameter in the left-hand side, under the rule.
    """
    # label -> the rule, and the (argument index, occurrence path) pairs of
    # its replacements in the order they are pushed
    plans: dict = {}
    stack: list = [(pi, ())]
    while stack:
        node, path = stack.pop()
        kind = type(node)
        if kind is Rule:
            yield path, node
        elif kind is Trans:
            stack += ((node.second, path), (node.first, path))
        elif kind is Cong:
            args = node.args
            for i in range(len(args), 0, -1):
                stack.append((args[i - 1], path + (i,)))
        elif kind is Repl:
            plan = plans.get(node.rule_label)
            if plan is None:
                plan = plans[node.rule_label] = _plan(rs.lookup(node.rule_label))
            rule, pushes = plan
            stack.append((rule, path))
            args = node.args
            stack += [(args[k], path + occ) for k, occ in pushes]


def _plan(rule: Rule) -> tuple:
    """`rule`, and where `_firings` pushes a replacement's arguments: one
    (argument index, path) pair per parameter occurrence in the left-hand
    side, last parameter and last occurrence first."""
    occs: dict = {x: [] for x in rule.params}
    for pos, sub in subterms(rule.lhs):
        if type(sub) is Var and sub.name in occs:
            occs[sub.name].append(pos.path)
    pushes = [
        (k, occ) for k in reversed(range(len(rule.params))) for occ in reversed(occs[rule.params[k]])
    ]
    return rule, pushes


def apply_proof_set(proofs, t: Term, rs: RuleSet) -> set:
    """Targets of all member proofs whose inferred source is `t`.

    Members that fail inference or start elsewhere are skipped.
    """
    out: set[Term] = set()
    for pi in proofs:
        try:
            seq = infer(pi, rs)
        except TermstratError:
            continue
        if seq.source == t:
            out.add(seq.target)
    return out


def parse_proof(text: str, rs: RuleSet, sig: Signature) -> ProofTerm:
    """The proof term `text` spells, checked against `rs` and `sig`.

    A replacement without arguments (`p` or `p()`) is built once per label
    and shared wherever it occurs, after its arity is checked at each head,
    so a parsed proof may share leaves; `==`, hashing, printing, pickling
    and copying treat it as the tree it spells.
    """
    lexer = Lexer(text)
    tokens = lexer.tokens
    rules = rs._by_label
    symbols = sig._by_name
    leaves: dict = {}  # label -> the one argument-free replacement of this parse

    def build(head: int, args: list | None) -> ProofTerm:
        # None for `args` means no parentheses followed the head.
        name = tokens[head]
        rule = rules.get(name)
        if rule is not None:
            lexer.check_arity(head, len(rule.params), args)
            if args:
                return Repl(name, tuple(args))
            leaf = leaves.get(name)
            if leaf is None:
                leaf = leaves[name] = Repl(name)
            return leaf
        sym = symbols.get(name)
        if sym is not None:
            lexer.check_arity(head, sym.arity, args)
            return cong(sym, args or ())
        if args or name[0].isdigit():
            raise lexer.error(f"{name!r} is neither a rule label nor a symbol", head, UnknownSymbol)
        return Embed(Var(name))

    def chain(i: int) -> tuple:  # each argument, and the whole text, is a `;` chain
        return (operand, _join, None, ";", None, []), i

    def operand(i: int) -> tuple:
        name = tokens[i]
        leaf = leaves.get(name)
        if leaf is not None and tokens[i + 1] != "(":
            return leaf, i + 1  # `build` checked this label: no arguments, no clash
        if name == "(":
            return (None, _join, None, None, ")", []), i + 1
        if name in rules and name in symbols:
            raise lexer.error(f"{name!r} is both a rule label and a symbol", i, AmbiguousIdent)
        return None, i  # an application, which `parse_tree` reads

    pi, i = parse_tree(lexer, build, "a proof term", 0, chain)
    lexer.expect_end(i)
    return pi


def _join(head, operands: list) -> ProofTerm:
    """The operands of a `;` chain, composed left-associatively."""
    return reduce(Trans, operands)


def print_proof(pi: ProofTerm) -> str:
    """Canonical text form; parses back to the same proof term."""
    return print_tree(pi, _proof_items)


def _proof_items(pi: ProofTerm) -> list:
    """The print items of one proof node for `print_tree`.

    A `;` chain prints flat down its left spine; a right operand that is
    itself a chain is parenthesised.
    """
    kind = type(pi)
    if kind is Trans:
        right = pi.second
        return [pi.first, " ; (", right, ")"] if type(right) is Trans else [pi.first, " ; ", right]
    if kind is Embed:
        return [pi.term]
    if kind is not Cong and kind is not Repl:
        raise TypeError(f"not a proof term: {pi!r}")
    name = pi.symbol.name if kind is Cong else pi.rule_label
    if not pi.args:
        return [name]
    items = [name + "("]
    for a in pi.args:
        items += (a, ",")
    items[-1] = ")"
    return items
