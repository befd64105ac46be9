"""Labeled rewrite rules, rule sets, and single rewrite steps.

A step is identified by a `StepLabel` (where, which rule, which bindings);
`RewriteStep` packages a label with its source and target terms.  Step
enumeration (`all_redexes`) is deterministic: positions in lexicographic
order, rules in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import is_not

from .errors import FuelExhausted, StepMismatch, UnknownLabel
from .terms import (
    App,
    Position,
    Substitution,
    Term,
    TreeNode,
    Var,
    _build_program,
    _instantiate,
    _program,
    _run as _match,  # the one name every rule match here calls: tests count it
    print_term,
    replace_at,
    subterm_at,
    tree_node,
    variables,
)


@dataclass(frozen=True)
class Rule:
    """A labeled rule l => r with the variables of l as parameters.

    `params` is the variable tuple of the left-hand side in first-occurrence
    order; it fixes the argument order used by proof-term replacements.
    `program` and `build`, set when the rule is built and not fields, are
    the lhs compiled into the match program (`terms._program`) every match
    runs, and the rhs compiled into the build program
    (`terms._build_program`) every instance of it is built by.
    """

    label: str
    lhs: Term
    rhs: Term
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "program", _program(self.lhs))
        object.__setattr__(self, "build", _build_program(self.rhs))

    @classmethod
    def make(cls, label: str, lhs: Term, rhs: Term) -> Rule:
        if isinstance(lhs, Var):
            raise ValueError(f"rule {label}: left-hand side is a bare variable")
        params = variables(lhs)
        extra = set(variables(rhs)) - set(params)
        if extra:
            raise ValueError(
                f"rule {label}: right-hand side has unbound variable(s) "
                f"{', '.join(sorted(extra))}"
            )
        return cls(label, lhs, rhs, params)

    def __str__(self) -> str:
        return f"{self.label}: {print_term(self.lhs)} => {print_term(self.rhs)}"


class RuleSet:
    """An ordered collection of rules with pairwise distinct labels."""

    def __init__(self, rules=()):
        self._rules: list[Rule] = []
        self._by_label: dict[str, Rule] = {}
        # head-symbol name -> the rules whose lhs has that head, in
        # declaration order: the only rules that can match such a node
        self._by_head: dict[str, list[Rule]] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> None:
        if rule.label in self._by_label:
            raise ValueError(f"duplicate rule label {rule.label}")
        if not isinstance(rule.lhs, App):
            raise ValueError(f"rule {rule.label}: left-hand side is a bare variable")
        self._rules.append(rule)
        self._by_label[rule.label] = rule
        self._by_head.setdefault(rule.lhs.symbol.name, []).append(rule)

    def lookup(self, label: str) -> Rule:
        rule = self._by_label.get(label)
        if rule is None:
            raise UnknownLabel(f"no rule labeled {label}")
        return rule

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return f"RuleSet([{', '.join(r.label for r in self)}])"


@dataclass(frozen=True)
class StepLabel:
    """What happened in one step: where, which rule, which bindings."""

    position: Position
    rule_label: str
    subst: Substitution

    def __str__(self) -> str:
        return f"({self.position},{self.rule_label},{self.subst})"


@tree_node
class RewriteStep(TreeNode):
    """One rewrite `source -> target` justified by `label`."""

    source: Term
    label: StepLabel
    target: Term

    def __str__(self) -> str:
        return print_term(self.source) + _shown_step(self)


def _step_text(position: str, rule_label: str, target: str) -> str:
    """What one step adds to its derivation's line, from the texts of its
    position, rule label and target."""
    return f" -[{position},{rule_label}]-> {target}"


def _shown_step(step: RewriteStep) -> str:
    """`_step_text` of a step."""
    return _step_text(str(step.label.position), step.label.rule_label, print_term(step.target))


def rewrite_at(t: Term, rule: Rule, p: Position) -> RewriteStep | None:
    """Apply `rule` at position `p` of `t`, or None when the lhs does not match."""
    bindings = _match(rule.program, subterm_at(t, p))
    if bindings is None:
        return None
    label = StepLabel(p, rule.label, Substitution.of(bindings))
    return RewriteStep(t, label, _fire(t, p, rule, bindings))


def _fire(t: Term, p: Position, rule: Rule, bindings: dict) -> Term:
    """The target of firing `rule` at `p` in `t` with the bindings its
    match found.  Only the path to `p` and the right-hand side's own nodes
    are built; every other node is shared with `t` or the rule."""
    return replace_at(t, p, _instantiate(bindings, rule.build))


def all_redexes(t: Term, rs: RuleSet) -> list[StepLabel]:
    """Every (position, rule, substitution) triple applicable to `t`.

    Ordered by position (lexicographic), then by rule declaration order.
    """
    return [_label(*redex) for redex in _redexes(t, rs)]


def _label(path: tuple, rule: Rule, bindings: dict) -> StepLabel:
    """The label of a redex `_redexes` yields."""
    return StepLabel(Position._unchecked(path), rule.label, Substitution.of(bindings))


def _redexes(t: Term, rs: RuleSet, innermost: bool = False, backward: bool = False):
    """Yield `(path, rule, bindings)` for the redexes of `t`, from one
    depth-first walk: the path is a tuple of child indices, and the
    bindings are the plain dict the match found, ready for `_fire`.

    By default every redex, in preorder (lexicographic positions).  With
    `innermost`, the walk is postorder and yields only redexes with no
    redex strictly below them: a node is matched only when none of its
    subterms held one.  `backward` visits children right to left.  At
    each node the rules indexed under its head are tried in declaration
    order.  The walk keeps one mutable path and copies it only for a
    redex it yields; it is lazy, so a caller can stop at the first.
    """
    by_head = rs._by_head
    path: list[int] = []
    # (node, its index in its parent or 0 at the root, leaving it?)
    stack = [(t, 0, False)]
    below = [False]  # per open node: a redex was found under it
    while stack:
        node, i, leaving = stack.pop()
        if leaving:
            found = below.pop()
            match_here = innermost and not found
        else:
            if i:
                path.append(i)
            found = False
            args = node.args if isinstance(node, App) else ()
            if args:
                stack.append((node, i, True))
                below.append(False)
                n = len(args)
                if n == 1:  # the common case; a zip per node costs twice as much
                    stack.append((args[0], 1, False))
                elif backward:
                    stack.extend(zip(args, range(1, n + 1), repeat(False)))
                else:
                    stack.extend(zip(reversed(args), range(n, 0, -1), repeat(False)))
                match_here = not innermost
            else:
                match_here = leaving = True  # a leaf is left as soon as entered
        if match_here and isinstance(node, App):
            for rule in by_head.get(node.symbol.name, ()):
                bindings = _match(rule.program, node)
                if bindings is not None:
                    found = True
                    yield tuple(path), rule, bindings
        if leaving:
            if found:
                below[-1] = True
            if i:
                path.pop()


def _normalize_rightmost_innermost(t: Term, rs: RuleSet, fuel: int, single=False):
    """Rewrite `t` rightmost-innermost to its normal form in one post-order pass.

    Returns the set of normal forms `normal_forms_under` gives for `fuel`,
    or raises FuelExhausted with `_out_of_fuel(t)`, or returns None when the
    search must decide.  A node's children are normalized right to left, then
    the rules indexed under its head are tried in declaration order; a rewrite
    puts a cursor on the stack that runs the rule's build program (see
    `terms._build_program`) with the bindings its match found, so the instance
    is normalized in its place as it is built.  This fires exactly the steps
    that repeating `_redexes(innermost=True, backward=True)` from the root
    would fire.  A variable op stands for its bound subterm, which is normal,
    since every proper subterm of an innermost redex is; each other node of
    the instance is built once, from its normalized children, and the rules
    under its head are tried at once.  A cursor that meets a match is put back
    under the new rule's cursor, to resume from the next op.  Nodes known to
    be normal are remembered by identity, so no subterm of the input is
    walked twice; a node of the input is rebuilt only when one of its
    children changed.

    While a position is being normalized nothing outside it changes, so a
    redex that comes back at the same position means the whole term came
    back: the run cycles, and the term before step `now` is the one before
    step `first`, the step at which the redex was first seen there.  Each
    position that has been rewritten keeps its redexes and those steps, in
    the `seen` dict that goes with the root, the last op, of each program
    run there.  The search closes the cycle with no normal form after a step
    `j`, `first <= j <= now - 1`, so the pass sees it by step `2 * fuel` when
    `j <= fuel`; only for a fuel in that window does the search decide.  A
    run that ends never revisits a term, so the search would reach its
    normal form alone after the same number of steps.

    With `single`, the pass returns None instead at the first step whose
    redex is not the only innermost one of the whole term.  It is the only
    one when no later rule matches at its node and every subterm still
    waiting on the stack is normal: those are the unvisited left siblings
    along the path, nodes of the input or whole subtrees left in the cursors
    (see `_waiting`), while the ancestors have a redex below them and the
    finished subterms are normal.  The waiting subterms are walked with the
    memo of normal nodes, so each node of the input is still walked once.
    Only the stack above `checked`, its height at the last step, needs
    walking: below it sit ancestors, subterms found normal then, and
    cursors whose waiting subtrees were, and popping those pushes nothing
    new until the next step.
    """
    by_head = rs._by_head
    make = App._unchecked
    budget = 2 * max(fuel, 0)
    normal: dict[int, Term] = {}  # id -> node; holding the node keeps its id unique
    done: list[Term] = []  # normal forms of finished subterms, right to left
    # Work to do: a node of the input, to normalize; `(node,)` under its
    # children, to rebuild it from theirs; or a cursor `[build, pc, bindings,
    # seen]` that runs a right-hand side's build program from op `pc`.
    # `seen` maps each redex at the position of a rewritten one to the step
    # it was first seen at, and is None elsewhere.
    stack: list = [t]
    steps = 0
    checked = 0  # with `single`: no redex waits in stack[:checked]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is list:
            ops, pc, bindings, seen = item
            end = len(ops)
            while pc < end:
                op = ops[pc]
                pc += 1
                if type(op) is Var:
                    done.append(bindings.get(op.name, op))  # a subterm of the redex: normal
                    continue
                n = len(op.args)
                if n == 1:
                    node = make(op.symbol, (done.pop(),))
                elif n:
                    kids = done[-n:]
                    del done[-n:]
                    kids.reverse()
                    node = make(op.symbol, tuple(kids))
                elif id(op) in normal:
                    done.append(op)
                    continue
                else:
                    node = op
                rules = by_head.get(node.symbol.name)
                if rules:
                    break
                normal[id(node)] = node
                done.append(node)
            else:
                continue
            if pc < end:  # the cursor resumes once this node is normal
                item[1] = pc
                stack.append(item)
                seen = None
        elif kind is tuple:
            node = item[0]
            n = len(node.args)
            if n == 1:
                kid = done.pop()
                if kid is not node.args[0]:
                    node = make(node.symbol, (kid,))
            else:
                kids = done[-n:]
                del done[-n:]
                kids.reverse()
                if any(map(is_not, kids, node.args)):
                    node = make(node.symbol, tuple(kids))
            rules, seen = by_head.get(node.symbol.name, ()), None
        else:
            node = item
            if id(node) in normal or type(node) is Var:
                done.append(node)
                continue
            if node.args:
                stack.append((node,))
                stack += node.args
                continue
            rules, seen = by_head.get(node.symbol.name, ()), None
        for rule in rules:
            bindings = _match(rule.program, node)
            if bindings is not None:
                if single:
                    for later in rules[rules.index(rule) + 1 :]:
                        if _match(later.program, node) is not None:
                            return None
                    waiting = _waiting(stack[checked:])
                    if waiting and not _all_normal(waiting, by_head, normal):
                        return None
                    checked = len(stack)
                steps += 1
                if steps > budget:
                    raise FuelExhausted(_out_of_fuel(t))
                seen = seen or {}  # a position's dict is never empty
                first = seen.setdefault(node, steps)
                if first != steps:
                    if fuel < first:
                        raise FuelExhausted(_out_of_fuel(t))
                    return set() if steps - 1 <= fuel else None
                stack.append([rule.build, 0, bindings, seen])
                break
        else:
            normal[id(node)] = node
            done.append(node)
    if steps > max(fuel, 0):
        raise FuelExhausted(_out_of_fuel(t))
    return {done[0]}


def _waiting(items: list) -> list:
    """The subterms that wait in `items`, a slice of the pass's stack: each
    node of the input, and each whole subtree left in a cursor's program
    that a node holding an earlier value takes, built from the cursor's
    bindings.  Such a subtree is built again when the cursor reaches it."""
    out = []
    for item in items:
        kind = type(item)
        if kind is list:
            ops, pc, bindings, _ = item
            if pc == len(ops) - 1:  # only the root is left, which takes every value
                continue
            # per value made from op `pc` on: the span of ops that built it
            # whole, or None when it holds a value made before `pc`
            spans: list = []
            for k in range(pc, len(ops)):
                n = 0 if type(ops[k]) is Var else len(ops[k].args)
                taken = spans[max(len(spans) - n, 0) :]
                del spans[max(len(spans) - n, 0) :]
                if len(taken) == n and None not in taken:
                    spans.append((taken[0][0] if n else k, k + 1))
                else:
                    out += (_instantiate(bindings, ops[a:b]) for a, b in filter(None, taken))
                    spans.append(None)
        elif kind is not tuple:
            out.append(item)
    return out


def _out_of_fuel(t: Term) -> str:
    """The message of a normal-form search from `t` that runs out of fuel."""
    return f"normal-form search from {print_term(t)} ran out of fuel"


def _all_normal(terms: list, by_head: dict, normal: dict) -> bool:
    """Whether no rule matches anywhere in `terms`, recording their nodes in
    the pass's memo `normal`.  Nodes are recorded before their subterms are
    walked, so on False the memo is wrong, and the pass is abandoned."""
    while terms:
        node = terms.pop()
        if type(node) is Var or id(node) in normal:
            continue
        for rule in by_head.get(node.symbol.name, ()):
            if _match(rule.program, node) is not None:
                return False
        normal[id(node)] = node
        terms += node.args
    return True


def apply_step(t: Term, label: StepLabel, rs: RuleSet) -> RewriteStep:
    """Replay a recorded step on `t`; the recorded bindings must agree exactly.

    The step returned carries `label` itself."""
    rule = rs.lookup(label.rule_label)
    try:
        bindings = _match(rule.program, subterm_at(t, label.position))
    except Exception as e:
        raise StepMismatch(f"cannot replay {label} on {print_term(t)}: {e}") from e
    if bindings is None:
        raise StepMismatch(
            f"rule {label.rule_label} does not match "
            f"{print_term(subterm_at(t, label.position))} "
            f"at {label.position} in {print_term(t)}"
        )
    found = Substitution.of(bindings)
    if found != label.subst:
        raise StepMismatch(
            f"recorded bindings {label.subst} disagree with match {found} "
            f"for {label.rule_label} at {label.position} in {print_term(t)}"
        )
    return RewriteStep(t, label, _fire(t, label.position, rule, bindings))
