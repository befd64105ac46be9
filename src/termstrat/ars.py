"""Derivations, traced objects, and strategies over the rewriting relation.

Two views of a strategy live here.  An abstract strategy is a set of
derivations, queried through membership and bounded enumeration (the set is
usually infinite, so it is never materialized).  An intensional strategy is
a function from traced objects to the steps it allows next; `extension`
turns the latter into the former, prefix-closed by construction.

All exploration is deterministic: candidate steps are always fired in
(position, rule, bindings) order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

from .errors import ComposeError, Fuel
from .rules import (
    RewriteStep,
    RuleSet,
    StepLabel,
    _fire,
    _label,
    _normalize_rightmost_innermost,
    _out_of_fuel,
    _redexes,
    _shown_step,
    apply_step,
)
from .terms import Position, Term, print_term


@dataclass(frozen=True)
class Derivation:
    """A composable sequence of rewrite steps starting at `source`.

    Empty derivations are allowed; then the target is the source itself.
    """

    source: Term
    steps: tuple = ()

    def __post_init__(self):
        if not isinstance(self.steps, tuple):
            object.__setattr__(self, "steps", tuple(self.steps))
        prev = self.source
        for step in self.steps:
            if step.source != prev:
                raise ComposeError(prev, step.source)
            prev = step.target

    @property
    def target(self) -> Term:
        return self.steps[-1].target if self.steps else self.source

    def __len__(self) -> int:
        return len(self.steps)

    @classmethod
    def _unchecked(cls, source: Term, steps: tuple) -> Derivation:
        """A derivation whose steps are known to chain: no re-validation."""
        d = object.__new__(cls)
        object.__setattr__(d, "source", source)
        object.__setattr__(d, "steps", steps)
        return d

    def then(self, step: RewriteStep) -> Derivation:
        if step.source != self.target:
            raise ComposeError(self.target, step.source)
        return Derivation._unchecked(self.source, self.steps + (step,))

    def compose(self, other: Derivation) -> Derivation:
        if other.source != self.target:
            raise ComposeError(self.target, other.source)
        return Derivation._unchecked(self.source, self.steps + other.steps)

    def prefix(self, n: int) -> Derivation:
        return Derivation._unchecked(self.source, self.steps[:n])

    def labels(self) -> tuple:
        return tuple(step.label for step in self.steps)

    def __str__(self) -> str:
        return print_derivation(self)


def print_derivation(d: Derivation) -> str:
    """One-line text form; an empty derivation prints as its source term."""
    return print_term(d.source) + "".join(map(_shown_step, d.steps))


def derivation_to_json(d: Derivation) -> list:
    """JSON-ready form: one object per step, terms as canonical strings."""
    return [_step_json(step) for step in d.steps]


def _step_json(step: RewriteStep, show=print_term) -> dict:
    return {
        "source": show(step.source),
        "position": str(step.label.position),
        "rule": step.label.rule_label,
        "subst": {n: show(t) for n, t in step.label.subst.items()},
        "target": show(step.target),
    }


@dataclass(frozen=True)
class TracedObject:
    """A term together with the history that produced it.

    `trace` holds (object, step label) pairs in firing order; the empty
    trace denotes an initial object.  Extending through `step` keeps the
    replay invariant by construction; `is_valid` re-checks a trace that was
    assembled by hand.
    """

    trace: tuple = ()
    current: Term = None

    def __post_init__(self):
        if not isinstance(self.trace, tuple):
            object.__setattr__(self, "trace", tuple(self.trace))
        if self.current is None:
            raise ValueError("traced object needs a current term")

    @classmethod
    def of_derivation(cls, d: Derivation) -> TracedObject:
        return cls(tuple((s.source, s.label) for s in d.steps), d.target)

    def step(self, label: StepLabel, rs: RuleSet) -> TracedObject:
        fired = apply_step(self.current, label, rs)
        return TracedObject(self.trace + ((self.current, label),), fired.target)

    def is_valid(self, rs: RuleSet) -> bool:
        objs = [obj for obj, _ in self.trace] + [self.current]
        labels = [lab for _, lab in self.trace]
        for here, lab, there in zip(objs, labels, objs[1:]):
            try:
                fired = apply_step(here, lab, rs)
            except Exception:
                return False
            if fired.target != there:
                return False
        return True

    def __len__(self) -> int:
        return len(self.trace)


def traced(t: Term) -> TracedObject:
    """The initial traced object: empty history, current term `t`."""
    return TracedObject((), t)


def _label_key(label: StepLabel):
    # Bindings are compared, and printed, only on a tie no valid label makes.
    return (label.position.path, label.rule_label, label.subst)


@dataclass(frozen=True, eq=False)
class IntensionalStrategy:
    """A function from traced objects to the set of steps allowed next.

    An empty choice means the strategy is undefined there (it stops).  The
    `memoryless` flag records that `choose` ignores the trace; exploration
    uses it to deduplicate states.  The rule set is carried along so chosen
    labels can be fired.
    """

    choose: Callable[[TracedObject], frozenset]
    memoryless: bool
    rules: RuleSet

    def sorted_choice(self, tr: TracedObject) -> list[StepLabel]:
        return sorted(self.choose(tr), key=_label_key)

    def _steps(self, tr: TracedObject) -> list[RewriteStep]:
        """The steps allowed at `tr`, fired in `sorted_choice` order; each
        chosen label is replayed, and so checked, through `apply_step`."""
        return [apply_step(tr.current, lab, self.rules) for lab in self.sorted_choice(tr)]


class AbstractStrategy(ABC):
    """A set of derivations, seen through membership and bounded listing."""

    @abstractmethod
    def contains(self, d: Derivation) -> bool: ...

    @abstractmethod
    def enumerate(self, source: Term, max_len: int) -> set: ...


class DerivationSet(AbstractStrategy):
    """An explicitly given finite derivation set."""

    def __init__(self, derivations=()):
        self._members = frozenset(derivations)

    def contains(self, d: Derivation) -> bool:
        return d in self._members

    def enumerate(self, source: Term, max_len: int) -> set:
        return {
            d for d in self._members if d.source == source and len(d) <= max_len
        }


class Extension(AbstractStrategy):
    """The derivation set generated by an intensional strategy.

    A derivation belongs iff every step of it is among the strategy's
    choices at the traced prefix reaching that step.  The set is closed
    under taking prefixes by definition.
    """

    def __init__(self, zeta: IntensionalStrategy):
        self.zeta = zeta

    def contains(self, d: Derivation) -> bool:
        tr = traced(d.source)
        for step in d.steps:
            if step.label not in self.zeta.choose(tr):
                return False
            if apply_step(tr.current, step.label, self.zeta.rules) != step:
                return False
            tr = TracedObject(tr.trace + ((tr.current, step.label),), step.target)
        return True

    def enumerate(self, source: Term, max_len: int) -> set:
        steps: list[RewriteStep] = []
        out = [Derivation(source)]
        for n, step in self._walk(source, max_len):
            steps[n - 1 :] = [step]
            out.append(Derivation._unchecked(source, tuple(steps)))
        return set(out)

    def _walk(self, source: Term, max_len: int, view=None):
        """Walk the derivation tree from `source` depth first, in preorder.

        Yields (n, v) for each derivation of length 1 <= n <= max_len: `v`
        is the view of its last step, and the derivation extends the last
        one yielded at n - 1.  Each node is `[term or traced object,
        children or None]`; its (v, node) children are found, fired and
        viewed when the walk first expands it, in the strategy's order, or
        sorted by `v` when a `view` is given.  One loop over a stack of
        child iterators walks every strategy.

        A memoryless strategy has one node per distinct term, keyed by the
        term's value and looked up once per fired step; any other has a
        fresh node per prefix, traced one pair per step.  A built-in
        strategy's node holds its term, and is expanded from one `find`
        walk of it; `view(t, path, rule, bindings, target)` sees each fired
        step, with the node's term as `target`, so the views of steps that
        reach one term share its object.  By default the view is the
        `RewriteStep`.  Any other strategy takes no `view`: its steps come
        from `_steps`, in its order, and are their own views.
        """
        zeta = self.zeta
        builtin = isinstance(zeta, _Builtin)
        root = [source if builtin else traced(source), None]
        nodes = {source: root} if zeta.memoryless else None  # term -> its node
        if builtin:
            view = view or _step
            find = zeta.find

            def expand(node: list) -> list[tuple]:
                t = node[0]
                kids = []
                for path, rule, bindings in find(t):
                    target = _fire(t, Position._unchecked(path), rule, bindings)
                    kid = nodes.get(target)
                    if kid is None:
                        kid = nodes[target] = [target, None]
                    kids.append((view(t, path, rule, bindings, kid[0]), kid))
                if view is not _step:
                    kids.sort(key=itemgetter(0))
                node[1] = kids
                return kids
        else:
            assert view is None, "only a built-in strategy's walk takes a view"

            def expand(node: list) -> list[tuple]:
                tr = node[0]
                kids = []
                for step in zeta._steps(tr):
                    if nodes is None:
                        kid = [TracedObject(tr.trace + ((tr.current, step.label),), step.target), None]
                    else:
                        kid = nodes.get(step.target)
                        if kid is None:
                            kid = nodes[step.target] = [TracedObject((), step.target), None]
                    kids.append((step, kid))
                node[1] = kids
                return kids

        stack = [iter(expand(root))] if max_len > 0 else []
        while stack:
            kid = next(stack[-1], None)
            if kid is None:
                stack.pop()
                continue
            n = len(stack)
            yield n, kid[0]
            if n < max_len:
                node = kid[1]
                stack.append(iter(expand(node) if node[1] is None else node[1]))


def _step(t: Term, path: tuple, rule, bindings: dict, target: Term) -> RewriteStep:
    """The step a walk fired, labelled."""
    return RewriteStep(t, _label(path, rule, bindings), target)


def extension(zeta: IntensionalStrategy, a: Term, max_len: int) -> set:
    """All derivations from `a` of length <= max_len that `zeta` generates."""
    return Extension(zeta).enumerate(a, max_len)


def apply_abstract(strategy: AbstractStrategy, a: Term, max_len: int) -> set:
    """Targets of the strategy's derivations from `a`, window-bounded."""
    return {d.target for d in strategy.enumerate(a, max_len)}


def memoryless(f: Callable[[Term], frozenset], rs: RuleSet) -> IntensionalStrategy:
    """Lift a per-term step chooser into a history-ignoring strategy."""
    return IntensionalStrategy(lambda tr: f(tr.current), True, rs)


def all_steps(rs: RuleSet) -> IntensionalStrategy:
    """The universal strategy: every redex is allowed at every point."""
    return _Builtin.make(rs, lambda t: sorted(_redexes(t, rs), key=_redex_key))


def innermost(rs: RuleSet) -> IntensionalStrategy:
    """Allow exactly the redexes at maximal positions in the prefix order.

    Maximal means no other redex sits strictly below; several incomparable
    positions can qualify at once.  One postorder walk finds them: a node
    is matched only when no redex turned up beneath it.  While every choice
    is a single redex, `normal_forms_under` runs it as rightmost-innermost
    in one pass.
    """
    return _Builtin.make(
        rs, lambda t: sorted(_redexes(t, rs, innermost=True), key=_redex_key), single=True
    )


def rightmost_innermost(rs: RuleSet) -> IntensionalStrategy:
    """Pick at most one innermost redex: rightmost position, first rule.

    Innermost positions are pairwise prefix-incomparable, so the rightmost
    one is the lexicographic maximum of their paths; when several rules
    apply there, declaration order in `rs` decides.  The postorder walk
    runs right to left, so the first redex it meets is that one, and the
    walk stops there.
    """
    return _Builtin.make(
        rs,
        lambda t: list(islice(_redexes(t, rs, innermost=True, backward=True), 1)),
        single=False,
    )


def _redex_key(redex: tuple):
    # The `_label_key` of the redex's label: one rule matches once at a path.
    return redex[0], redex[1].label


@dataclass(frozen=True, eq=False)
class _Builtin(IntensionalStrategy):
    """The strategies `all_steps`, `innermost` and `rightmost_innermost`
    return.  `find(t)` lists the redexes `(path, rule, bindings)` allowed
    at `t` in `sorted_choice` order, from one walk of `t`; `choose` labels
    them, and `_steps` and `Extension._walk` fire them with the bindings
    their match found, with no second match.

    `normal_forms_under` runs the last two in one bottom-up pass instead of
    step by step; `single` is None for `all_steps`, and True for
    `innermost`, whose pass must also check that each step it fires is the
    only one the strategy allows there.
    """

    find: Callable[[Term], list] = None
    single: bool | None = None

    @classmethod
    def make(cls, rs: RuleSet, find, single=None) -> _Builtin:
        def choose(tr: TracedObject) -> frozenset:
            return frozenset(_label(*redex) for redex in find(tr.current))

        return cls(choose, True, rs, find, single)

    def _steps(self, tr: TracedObject) -> list[RewriteStep]:
        t = tr.current
        steps = []
        for path, rule, bindings in self.find(t):
            label = _label(path, rule, bindings)
            steps.append(RewriteStep(t, label, _fire(t, label.position, rule, bindings)))
        return steps


def bounded(k: int, base: IntensionalStrategy) -> IntensionalStrategy:
    """Defer to `base` while the trace is shorter than k-1, else stop.

    The cutoff is exactly |trace| < k-1, which caps generated derivations
    at length k-1 (not k); see the package docs on bounded strategies.
    """
    if k < 1:
        raise ValueError("bound must be at least 1")

    def choose(tr: TracedObject) -> frozenset:
        if len(tr) < k - 1:
            return base.choose(tr)
        return frozenset()

    return IntensionalStrategy(choose, False, base.rules)


def is_prefix_closed(ds) -> bool:
    """True iff every prefix of every member is itself a member.

    By induction on length it is enough that each nonempty member's prefix
    one step shorter is a member, so each member is hashed twice, not once
    per prefix.
    """
    members = set(ds)
    return all(d.prefix(len(d) - 1) in members for d in members if d.steps)


def normal_forms_under(zeta: IntensionalStrategy, a: Term, fuel: int) -> set:
    """Terms the strategy can reach from `a` and then offers no step at.

    Breadth-first over traced objects; each fired step costs one unit of
    fuel, and running out with work left raises FuelExhausted.  Memoryless
    strategies are deduplicated on the current term, so a cycle closes
    with no normal form, and carry no trace.  Each state re-walks its term
    for the strategy's steps (`_steps`: the built-in strategies fire the
    redexes the walk found, any other strategy's labels are replayed
    through `apply_step`) and rebuilds the path to each rewritten position.

    A strategy made by `rightmost_innermost` runs one bottom-up pass first,
    which visits each node of `a` once and then only the nodes its rewrites
    create, so its cost is their sum, not the term size times the steps.
    The pass returns the normal forms or raises FuelExhausted itself, and
    returns None only when the search must decide: for a fuel inside the
    window where a cycle it found may or may not close.  Results and errors
    are the same either way.

    A strategy made by `innermost` runs the same pass, which also checks
    that each step it fires is the only one `innermost` allows there: no
    other innermost redex, and no second rule at the same one.  While that
    holds the search would take the same single path.  At the first term
    where `innermost` allows two or more steps the pass returns None, and
    the search runs from the start.
    """
    if isinstance(zeta, _Builtin) and zeta.single is not None:
        forms = _normalize_rightmost_innermost(a, zeta.rules, fuel, zeta.single)
        if forms is not None:
            return forms
    spend = Fuel(fuel, _out_of_fuel(a)).spend
    normals: set[Term] = set()
    frontier = deque([traced(a)])
    seen = {a} if zeta.memoryless else None
    while frontier:
        tr = frontier.popleft()
        steps = zeta._steps(tr)
        if not steps:
            normals.add(tr.current)
            continue
        for step in steps:
            spend()
            if seen is not None:
                if step.target in seen:
                    continue
                seen.add(step.target)
                trace = ()  # the strategy ignores it
            else:
                trace = tr.trace + ((tr.current, step.label),)
            frontier.append(TracedObject(trace, step.target))
    return normals
