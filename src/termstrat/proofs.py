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

from .ars import Derivation
from .errors import (
    AmbiguousIdent,
    ArityError,
    ComposeError,
    TermstratError,
    UnknownSymbol,
)
from .lex import Lexer
from .rules import RuleSet, StepLabel, apply_step
from .terms import (
    App,
    Position,
    Signature,
    Substitution,
    Symbol,
    Term,
    Var,
    apply_subst,
    match,
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
        case Trans(first=a, second=b):
            sa = infer(a, rs)
            sb = infer(b, rs)
            if sa.target != sb.source:
                raise ComposeError(sa.target, sb.source)
            return Sequent(sa.source, sb.target)
        case Repl(args=args):
            rule = _rule_of(pi, rs)
            seqs = [infer(a, rs) for a in args]
            src = Substitution.of(dict(zip(rule.params, (s.source for s in seqs))))
            tgt = Substitution.of(dict(zip(rule.params, (s.target for s in seqs))))
            return Sequent(apply_subst(src, rule.lhs), apply_subst(tgt, rule.rhs))
    raise TypeError(f"not a proof term: {pi!r}")


def _rule_of(pi: Repl, rs: RuleSet):
    """The rule `pi` applies, once its argument count matches the parameters."""
    rule = rs.lookup(pi.rule_label)
    if len(pi.args) != len(rule.params):
        raise ArityError(
            f"rule {pi.rule_label} has {len(rule.params)} parameter(s), "
            f"got {len(pi.args)} argument(s)"
        )
    return rule


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
        path = label.position.path
        for depth in range(len(path) - 1, -1, -1):
            node = subterm_at(source, Position(path[:depth]))
            child = path[depth]
            pi = Cong(
                node.symbol,
                tuple(
                    pi if i == child - 1 else Embed(arg)
                    for i, arg in enumerate(node.args)
                ),
            )
        return pi

    proofs = [step_proof(s.source, s.label) for s in d.steps]
    out = proofs[0]
    for pi in proofs[1:]:
        out = Trans(out, pi)
    return out


def to_derivation(pi: ProofTerm, rs: RuleSet) -> Derivation:
    """Flatten a proof into one sequence of single steps.

    Parallel rewrites are serialized left to right: congruence arguments in
    order, and for a replacement the argument rewrites fire first (at every
    occurrence of the matching parameter), then the rule itself at the top.
    The result replays to the same sequent the proof infers.
    """
    match pi:
        case Embed(term=t):
            return Derivation(t)
        case Trans(first=a, second=b):
            return to_derivation(a, rs).compose(to_derivation(b, rs))
        case Cong(symbol=f, args=args):
            subs = [to_derivation(a, rs) for a in args]
            d = Derivation(App(f, tuple(s.source for s in subs)))
            for i, sub in enumerate(subs, start=1):
                d = _replay_inside(d, Position((i,)), sub, rs)
            return d
        case Repl(rule_label=label, args=args):
            rule = _rule_of(pi, rs)
            subs = [to_derivation(a, rs) for a in args]
            src = Substitution.of(dict(zip(rule.params, (s.source for s in subs))))
            d = Derivation(apply_subst(src, rule.lhs))
            occurrences = {
                x: [p for p, s in subterms(rule.lhs) if s == Var(x)]
                for x in rule.params
            }
            for x, sub in zip(rule.params, subs):
                for occ in occurrences[x]:
                    d = _replay_inside(d, occ, sub, rs)
            sigma = match(rule.lhs, d.target)
            step = apply_step(d.target, StepLabel(Position(), label, sigma), rs)
            return d.then(step)
    raise TypeError(f"not a proof term: {pi!r}")


def _replay_inside(d: Derivation, at: Position, inner: Derivation, rs: RuleSet) -> Derivation:
    """Extend `d` by firing each step of `inner` under position `at`."""
    for step in inner.steps:
        shifted = StepLabel(
            Position(at.path + step.label.position.path),
            step.label.rule_label,
            step.label.subst,
        )
        d = d.then(apply_step(d.target, shifted, rs))
    return d


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
        case Trans(first=a, second=b):
            right = print_proof(b)
            if isinstance(b, Trans):
                right = f"({right})"
            return f"{print_proof(a)} ; {right}"
    raise TypeError(f"not a proof term: {pi!r}")
