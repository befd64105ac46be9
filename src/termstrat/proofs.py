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
themselves.
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
from .lex import Lexer
from .rules import Rule, RuleSet, StepLabel, rewrite_at
from .terms import (
    App,
    Position,
    Signature,
    Substitution,
    Symbol,
    Term,
    Var,
    apply_subst,
    print_term,
    subterm_at,
    subterms,
)


@dataclass(frozen=True)
class Embed:
    """A term as its own (zero-step) proof: t : [t] -> [t]."""

    term: Term


@dataclass(frozen=True)
class Cong:
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


@dataclass(frozen=True)
class Trans:
    """Chain two proofs; the first one's target must be the second's source."""

    first: ProofTerm
    second: ProofTerm


@dataclass(frozen=True)
class Repl:
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


def infer(pi: ProofTerm, rs: RuleSet) -> Sequent:
    """The unique sequent `pi` proves, by structural rules.

    A term proves [t] -> [t].  A congruence proves f applied to the
    argument sources rewrites to f applied to the argument targets.  A
    chain composes, provided the intermediates agree (ComposeError with
    both otherwise).  A replacement of rule l: lhs => rhs instantiates lhs
    with the argument sources and rhs with the argument targets.
    """
    match pi:
        case Embed(term=t):
            return Sequent(t, t)
        case Cong(symbol=f, args=args):
            seqs = [infer(a, rs) for a in args]
            return Sequent(
                App(f, tuple(s.source for s in seqs)),
                App(f, tuple(s.target for s in seqs)),
            )
        case Trans():
            first, *rest = _chain(pi)
            seq = infer(first, rs)
            for part in rest:
                nxt = infer(part, rs)
                if seq.target != nxt.source:
                    raise ComposeError(seq.target, nxt.source)
                seq = Sequent(seq.source, nxt.target)
            return seq
        case Repl(rule_label=label, args=args):
            rule = rs.lookup(label)
            if len(args) != len(rule.params):
                raise ArityError(
                    f"rule {label} has {len(rule.params)} parameter(s), "
                    f"got {len(args)} argument(s)"
                )
            if not args:
                return Sequent(rule.lhs, rule.rhs)
            seqs = [infer(a, rs) for a in args]
            src = Substitution.of(dict(zip(rule.params, (s.source for s in seqs))))
            tgt = Substitution.of(dict(zip(rule.params, (s.target for s in seqs))))
            return Sequent(apply_subst(src, rule.lhs), apply_subst(tgt, rule.rhs))
    raise TypeError(f"not a proof term: {pi!r}")


def _chain(pi: Trans) -> list:
    """The operands of the `;` chain `pi`, found by a loop down its left spine.

    A parenthesised right operand is itself a chain and is returned whole.
    """
    rights = []
    while isinstance(pi, Trans):
        pi, right = pi.first, pi.second
        rights.append(right)
    return [pi, *reversed(rights)]


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
    The result replays to the same sequent the proof infers.
    """
    source = t = infer(pi, rs).source
    steps = []
    for path, rule in _firings(pi, rs):
        # `infer` accepted `pi`, so every listed rule matches where it fires.
        step = rewrite_at(t, rule, Position(path))
        steps.append(step)
        t = step.target
    return Derivation(source, tuple(steps))


def _firings(pi: ProofTerm, rs: RuleSet):
    """Yield the (absolute path, rule) pairs `to_derivation` fires, in order.

    The walk keeps its own stack, so `to_derivation` recurses no deeper
    than `infer` does.
    """
    stack: list = [(pi, ())]
    while stack:
        node, path = stack.pop()
        match node:
            case Rule():
                yield path, node
            case Trans(first=a, second=b):
                stack += [(b, path), (a, path)]
            case Cong(args=args):
                for i in range(len(args), 0, -1):
                    stack.append((args[i - 1], path + (i,)))
            case Repl(rule_label=label, args=args):
                rule = rs.lookup(label)
                stack.append((rule, path))
                for x, a in reversed(list(zip(rule.params, args))):
                    occs = [p.path for p, s in subterms(rule.lhs) if s == Var(x)]
                    stack += [(a, path + occ) for occ in reversed(occs)]


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
    lexer = Lexer(text)
    pi = _parse_seq(lexer, rs, sig)
    lexer.expect_end()
    return pi


def _parse_seq(lexer: Lexer, rs: RuleSet, sig: Signature) -> ProofTerm:
    left = _parse_atom(lexer, rs, sig)
    while lexer.accept(";"):
        left = Trans(left, _parse_atom(lexer, rs, sig))
    return left


def _parse_atom(lexer: Lexer, rs: RuleSet, sig: Signature) -> ProofTerm:
    if lexer.accept("("):
        inner = _parse_seq(lexer, rs, sig)
        lexer.expect(")")
        return inner
    tok = lexer.peek()
    if tok.text in rs and sig.lookup(tok.text) is not None:
        raise AmbiguousIdent(
            f"{tok.text!r} is both a rule label and a symbol", tok.line, tok.col
        )
    head, args = lexer.application("a proof term", lambda: _parse_seq(lexer, rs, sig))
    name = head.text
    if name in rs:
        lexer.check_arity(head, len(rs.lookup(name).params), args)
        return Repl(name, tuple(args or ()))
    sym = sig.lookup(name)
    if sym is not None:
        lexer.check_arity(head, sym.arity, args)
        return cong(sym, args or ())
    if args or head.kind == "num":
        raise UnknownSymbol(
            f"{name!r} is neither a rule label nor a symbol", head.line, head.col
        )
    return Embed(Var(name))


def print_proof(pi: ProofTerm) -> str:
    """Canonical text form; parses back to the same proof term."""
    match pi:
        case Embed(term=t):
            return print_term(t)
        case Cong(symbol=f, args=args):
            return f"{f.name}({','.join(print_proof(a) for a in args)})"
        case Repl(rule_label=label, args=args):
            if not args:
                return label
            return f"{label}({','.join(print_proof(a) for a in args)})"
        case Trans():
            return " ; ".join(
                f"({print_proof(p)})" if isinstance(p, Trans) else print_proof(p)
                for p in _chain(pi)
            )
    raise TypeError(f"not a proof term: {pi!r}")
