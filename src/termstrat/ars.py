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
from operator import is_not, itemgetter

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
from .terms import App, Term, Var, _build_program, _instantiate, _run, print_term


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

    def _walk(self, source: Term, max_len: int, view=None, table=None):
        """Walk the derivation tree from `source` depth first, in preorder.

        Yields (n, v) for each derivation of length 1 <= n <= max_len: `v`
        is the view of its last step, and the derivation extends the last
        one yielded at n - 1.  Each node is `[term or traced object,
        children or None]`; its (v, node) children are found, fired and
        viewed when the walk first expands it, in the strategy's order, or
        sorted by `v` when a `view` is given.  One loop over a stack of
        child iterators walks every strategy.

        A built-in strategy is walked through one `_Table`, `table` (which
        then holds `source`) or a new one.  The table holds each distinct
        term and subterm the walk meets as one node, with that node's
        redexes and text, each computed once from its children's.  A node
        is expanded once, and its steps fire through the table, so each
        builds only the rewritten path and the right-hand side's new
        nodes, and its target is found by identity.
        `view(t, path, rule, bindings, target)` sees each fired step; by
        default it is the `RewriteStep`.  Any other strategy takes no
        `view`: its steps come from `_steps`, in its order, and are their
        own views.  A memoryless one has one node per distinct term, looked
        up once per fired step; any other has a fresh node per prefix,
        traced one pair per step.
        """
        zeta = self.zeta
        if isinstance(zeta, _Builtin):
            if table is None:
                table = _Table(zeta)
                source = table.intern(source)
            root = [source, None]
            nodes = {id(source): root}  # id(term) -> its node
            view = view or _step

            def expand(node: list) -> list[tuple]:
                t = node[0]
                kids = []
                for path, rule, bindings in table.redexes(t):
                    if path:
                        path = _tuple_path(path)
                    target = _fire(t, path, rule, bindings, None, table)
                    kid = nodes.get(id(target))
                    if kid is None:
                        kid = nodes[id(target)] = [target, None]
                    kids.append((view(t, path, rule, bindings, target), kid))
                if view is not _step:
                    kids.sort(key=itemgetter(0))
                node[1] = kids
                return kids
        else:
            assert view is None, "only a built-in strategy's walk takes a view"
            root = [traced(source), None]
            terms = {source: root} if zeta.memoryless else None  # term -> its node

            def expand(node: list) -> list[tuple]:
                tr = node[0]
                kids = []
                for step in zeta._steps(tr):
                    if terms is None:
                        kid = [TracedObject(tr.trace + ((tr.current, step.label),), step.target), None]
                    else:
                        kid = terms.get(step.target)
                        if kid is None:
                            kid = terms[step.target] = [TracedObject((), step.target), None]
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


def _tuple_path(path) -> tuple:
    """The tuple of child indices of a `_Table` path: `()` at the node
    itself, and `(i, rest)` for `rest` in its i-th child."""
    out = []
    while path:
        i, path = path
        out.append(i)
    return tuple(out)


class _Table:
    """One node per distinct term that one walk meets, with its redexes and
    its text.

    A node is keyed by its symbol's name and its children's identities, a
    variable by its name apart from every symbol, so the terms built
    through the table (`app`, `leaf`, `intern`) are one object per value, and a
    memo keyed by node is sound for the table's life: the table holds
    every node it made, so no id is reused.  A node's redexes are the
    strategy's `at` of the node and its children's redexes, and its text
    is `print_term`'s, built from its children's texts; each is computed
    once, when first asked for, children first.  Paths are relative to
    the node, as nested pairs (see `_tuple_path`), so a parent adds one
    step to each of its children's redexes in constant time.
    """

    def __init__(self, zeta: _Builtin):
        self._at = zeta.at
        self._nodes: dict = {}  # key -> node
        self._redexes: dict[int, list] = {}  # id(node) -> its redexes
        self._texts: dict[int, str] = {}  # id(node) -> its text, or "" if too long
        self._long: dict[int, str] = {}  # id(node) -> its text, too long, once asked for

    def app(self, symbol, args: tuple, like: App | None = None) -> App:
        """The table's node for `App(symbol, args)`, whose args are its nodes.
        A new one is `like` itself when `like` already has these args."""
        key = (symbol.name, *map(id, args))
        node = self._nodes.get(key)
        if node is None:
            if like is None or any(map(is_not, args, like.args)):
                like = App._unchecked(symbol, args)
            node = self._nodes[key] = like
        return node

    def leaf(self, t: Term) -> Term:
        """The table's node for `t`, a constant or a variable."""
        key = (None, t.name) if type(t) is Var else (t.symbol.name,)
        return self._nodes.setdefault(key, t)

    def intern(self, t: Term) -> Term:
        """The table's node equal to `t`; the nodes of `t` it lacks join it."""
        return _instantiate({}, _build_program(t), self)

    def redexes(self, t: Term) -> list:
        """The redexes `(path, rule, bindings)` the strategy allows at `t`, a
        node of the table, in its `find` order.  They are kept for `t` and
        for each of its subterms that lacked them, computed children first."""
        memo = self._redexes
        got = memo.get(id(t))
        if got is not None:
            return got
        at = self._at
        stack = [t]
        while stack:
            node = stack[-1]
            if id(node) in memo:  # a child that occurs twice
                stack.pop()
            elif type(node) is Var:
                memo[id(stack.pop())] = []
            else:
                below = [memo.get(id(arg)) for arg in node.args]
                if None in below:
                    stack += [arg for arg, got in zip(node.args, below) if got is None]
                else:
                    memo[id(stack.pop())] = at(node, below)
        return memo[id(t)]

    def text(self, t: Term) -> str:
        """`print_term(t)` for `t`, a node of the table.  It is kept for `t`
        and for each of its subterms that lacked it, built children first
        from their texts.  A text longer than `_KEPT` characters is kept as
        "", and printed whole and kept apart when first asked for, so the
        texts of a deep term's subterms cost linear memory, not quadratic."""
        texts = self._texts
        got = texts.get(id(t))
        if got is None:
            stack = [t]
            while stack:
                node = stack[-1]
                if id(node) in texts:  # a child that occurs twice
                    stack.pop()
                elif type(node) is Var:
                    texts[id(stack.pop())] = node.name
                else:
                    kids = [texts.get(id(arg)) for arg in node.args]
                    if None in kids:
                        stack += [arg for arg, text in zip(node.args, kids) if text is None]
                        continue
                    text = f"{node.symbol.name}({','.join(kids)})" if kids else node.symbol.name
                    long = "" in kids or len(text) > _KEPT
                    texts[id(stack.pop())] = "" if long else text
            got = texts[id(t)]
        if not got:
            got = self._long.get(id(t))
            if got is None:
                got = self._long[id(t)] = print_term(t)
        return got


# The longest text a `_Table` keeps.  The kept texts of a tower such as
# `s(s(...))` total about `_KEPT ** 2 / 6` bytes: 2.8 MB at 4096, 45 MB at
# 16384.  Terms whose texts all fit are built by joins alone.
_KEPT = 4096


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

    def at(node: Term, below: list) -> list:
        return sorted(_matches(node, rs), key=_redex_key) + _shifted(below)

    return _Builtin.make(rs, lambda t: sorted(_redexes(t, rs), key=_redex_key), at)


def innermost(rs: RuleSet) -> IntensionalStrategy:
    """Allow exactly the redexes at maximal positions in the prefix order.

    Maximal means no other redex sits strictly below; several incomparable
    positions can qualify at once.  One postorder walk finds them: a node
    is matched only when no redex turned up beneath it.  While every choice
    is a single redex, `normal_forms_under` runs it as rightmost-innermost
    in one pass.
    """

    def at(node: Term, below: list) -> list:
        return _shifted(below) or sorted(_matches(node, rs), key=_redex_key)

    return _Builtin.make(
        rs, lambda t: sorted(_redexes(t, rs, innermost=True), key=_redex_key), at, single=True
    )


def rightmost_innermost(rs: RuleSet) -> IntensionalStrategy:
    """Pick at most one innermost redex: rightmost position, first rule.

    Innermost positions are pairwise prefix-incomparable, so the rightmost
    one is the lexicographic maximum of their paths; when several rules
    apply there, declaration order in `rs` decides.  The postorder walk
    runs right to left, so the first redex it meets is that one, and the
    walk stops there.
    """

    def at(node: Term, below: list) -> list:
        for i in range(len(below), 0, -1):
            if below[i - 1]:
                (path, rule, bindings), = below[i - 1]
                return [((i, path), rule, bindings)]
        return _matches(node, rs, first=True)

    return _Builtin.make(
        rs,
        lambda t: list(islice(_redexes(t, rs, innermost=True, backward=True), 1)),
        at,
        single=False,
    )


def _redex_key(redex: tuple):
    # The `_label_key` of the redex's label: one rule matches once at a path.
    return redex[0], redex[1].label


def _matches(node: Term, rs: RuleSet, first: bool = False) -> list:
    """The redexes `((), rule, bindings)` at `node` itself: the rules indexed
    under its head that match it, in declaration order, or the first one."""
    out = []
    for rule in rs._by_head.get(node.symbol.name, ()):
        bindings = _run(rule.program, node)
        if bindings is not None:
            out.append(((), rule, bindings))
            if first:
                break
    return out


def _shifted(below: list) -> list:
    """The redexes of a node's children, `below`, in child order, with
    paths from the node."""
    return [
        ((i, path), rule, bindings)
        for i, redexes in enumerate(below, 1)
        for path, rule, bindings in redexes
    ]


@dataclass(frozen=True, eq=False)
class _Builtin(IntensionalStrategy):
    """The strategies `all_steps`, `innermost` and `rightmost_innermost`
    return.  `find(t)` lists the redexes `(path, rule, bindings)` allowed
    at `t` in `sorted_choice` order; `choose` labels them, and `_steps`
    fires them with the bindings their match found, with no second match.
    `at(node, below)` lists the same redexes of an application node from
    its children's lists `below`, with paths as a `_Table` keeps them.

    `normal_forms_under` runs the last two in one bottom-up pass instead of
    step by step; `single` is None for `all_steps`, and True for
    `innermost`, whose pass must also check that each step it fires is the
    only one the strategy allows there.
    """

    find: Callable[[Term], list] = None
    at: Callable[[Term, list], list] = None
    single: bool | None = None

    @classmethod
    def make(cls, rs: RuleSet, find, at, single=None) -> _Builtin:
        def choose(tr: TracedObject) -> frozenset:
            return frozenset(_label(*redex) for redex in find(tr.current))

        return cls(choose, True, rs, find, at, single)

    def _steps(self, tr: TracedObject) -> list[RewriteStep]:
        t = tr.current
        return [_fire(t, path, rule, bindings) for path, rule, bindings in self.find(t)]


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
