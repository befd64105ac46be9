"""Seeded generators and independent oracles shared across the test files.

Oracles here deliberately reimplement behavior with the dumbest possible
algorithm (recursive scans, explicit worklists) so package results are
checked against something that cannot share their bugs.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

from termstrat import (
    App,
    ArityError,
    ComposeError,
    Cong,
    Derivation,
    Embed,
    Fail,
    First,
    Id,
    IfTE,
    Mu,
    Not,
    Occurs,
    ProofTerm,
    Repeat,
    Repl,
    Rule,
    RuleRef,
    RuleSet,
    SVar,
    Seq,
    Signature,
    StrategyExpr,
    Substitution,
    Term,
    Trans,
    Try,
    UnknownLabel,
    Var,
    all_redexes,
    apply_step,
    apply_subst,
    load_theory,
    variables,
)

# Small theories whose redexes overlap, sit side by side or tie at a node.
TOWER = load_theory("sig a/0 f/1\nrule u : f(x) => x\n")
CYCLE = load_theory("sig a/0 b/0 plus/2\nrule comm : plus(x,y) => plus(y,x)\nrule ab : a => b\n")
PAR = load_theory("sig a/0 b/0 g/1 h/2\nrule ab : a => b\nrule split : g(x) => h(a,a)\n")
# Two rules at one node, declared against the order of their labels.
DUO = load_theory("sig a/0 b/0 f/1\nrule rb : f(x) => b\nrule ra : f(x) => a\nrule ab : a => b\n")


def symbols_of(sig: Signature) -> list:
    return sorted(sig, key=lambda s: s.name)


def ground_terms(sig: Signature, max_depth: int) -> list[Term]:
    """Every ground term of depth <= max_depth, in sorted printed order."""
    syms = symbols_of(sig)
    acc: set[Term] = {App(s) for s in syms if s.arity == 0}
    for _ in range(max_depth - 1):
        new = set(acc)
        for s in syms:
            if s.arity == 1:
                new |= {App(s, (t,)) for t in acc}
            elif s.arity == 2:
                new |= {App(s, (t1, t2)) for t1 in acc for t2 in acc}
        acc = new
    return sorted(acc, key=str)


def random_ground_term(rng: random.Random, sig: Signature, max_depth: int) -> Term:
    syms = symbols_of(sig)
    consts = [s for s in syms if s.arity == 0]
    if max_depth <= 1:
        return App(rng.choice(consts))
    sym = rng.choice(syms)
    return App(
        sym,
        tuple(random_ground_term(rng, sig, max_depth - 1) for _ in range(sym.arity)),
    )


def random_pattern(
    rng: random.Random, sig: Signature, max_depth: int, var_names=("x", "y")
) -> Term:
    """A term that may contain variables from `var_names` at its leaves."""
    if max_depth <= 1 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Var(rng.choice(var_names))
        consts = [s for s in symbols_of(sig) if s.arity == 0]
        return App(rng.choice(consts))
    sym = rng.choice(symbols_of(sig))
    return App(
        sym,
        tuple(
            random_pattern(rng, sig, max_depth - 1, var_names)
            for _ in range(sym.arity)
        ),
    )


def random_rules(rng: random.Random, sig: Signature, count: int) -> RuleSet:
    """`count` rules over `sig`, labeled r0, r1, ...: each left side drawn
    by `random_pattern`, and each right side, over the variables of its
    left, of one of five shapes: a variable, a constant, a nested pattern,
    a pair of one variable twice, or a pair of two left sides instantiated,
    so that both siblings hold redexes, drawn twice as often as each other
    shape.  `sig` needs a binary symbol."""
    consts = [s for s in symbols_of(sig) if s.arity == 0]
    pair = next(s for s in symbols_of(sig) if s.arity == 2)
    lhss = []
    while len(lhss) < count:
        lhs = random_pattern(rng, sig, rng.randint(1, 2))
        if type(lhs) is not Var:
            lhss.append(lhs)

    def leaf(params):  # one of the variables, or a constant when there are none
        return Var(rng.choice(params)) if params else App(rng.choice(consts))

    rules = []
    for k, lhs in enumerate(lhss):
        params = variables(lhs)
        shape = rng.choice(["variable", "constant", "nested", "repeated", "siblings", "siblings"])
        if shape == "variable":
            rhs = leaf(params)
        elif shape == "constant":
            rhs = App(rng.choice(consts))
        elif shape == "nested":
            rhs = random_pattern(rng, sig, 3, params) if params else random_ground_term(rng, sig, 3)
        elif shape == "repeated":
            x = leaf(params)
            rhs = App(pair, (x, x))
        else:
            rhs = App(pair, tuple(
                apply_subst(Substitution.of({v: leaf(params) for v in variables(p)}), p)
                for p in (rng.choice(lhss), rng.choice(lhss))
            ))
        rules.append(Rule.make(f"r{k}", lhs, rhs))
    return RuleSet(rules)


def random_strategy(
    rng: random.Random,
    labels: tuple,
    sig: Signature,
    depth: int,
    bound: tuple = (),
) -> StrategyExpr:
    atoms = ["id", "fail", "rule", "rule"] + (["svar"] if bound else [])
    if depth <= 0:
        kind = rng.choice(atoms)
    else:
        kind = rng.choice(
            atoms
            + ["seq", "first", "try", "not", "ifTE", "repeat", "mu", "occurs"] * 2
        )
    sub = lambda b=bound: random_strategy(rng, labels, sig, depth - 1, b)
    match kind:
        case "id":
            return Id()
        case "fail":
            return Fail()
        case "rule":
            return RuleRef(rng.choice(labels))
        case "svar":
            return SVar(rng.choice(bound))
        case "seq":
            return Seq(sub(), sub())
        case "first":
            return First(sub(), sub())
        case "try":
            return Try(sub())
        case "not":
            return Not(sub())
        case "ifTE":
            return IfTE(sub(), sub(), sub())
        case "repeat":
            return Repeat(sub())
        case "occurs":  # no variable is spelled like a rule label
            return Occurs(random_pattern(rng, sig, 2, tuple(v for v in "xy" if v not in labels)))
        case "mu":
            var = f"X{len(bound)}"
            return Mu(var, sub(bound + (var,)))
    raise AssertionError(kind)


def random_proof(
    rng: random.Random, rs: RuleSet, sig: Signature, depth: int
) -> ProofTerm:
    """A syntactically well-formed proof term; it need not infer."""
    rules = sorted(rs, key=lambda r: r.label)

    def emb() -> ProofTerm:
        if rng.random() < 0.2:
            return Embed(Var(rng.choice(("x", "y"))))
        return Embed(random_ground_term(rng, sig, rng.randint(1, 2)))

    def non_embed(d: int) -> ProofTerm:
        kinds = ["repl"] if d <= 0 else ["repl", "repl", "cong", "trans"]
        match rng.choice(kinds):
            case "repl":
                rule = rng.choice(rules)
                return Repl(rule.label, tuple(go(d - 1) for _ in rule.params))
            case "trans":
                return Trans(go(d - 1), go(d - 1))
            case _:
                sym = rng.choice([s for s in symbols_of(sig) if s.arity >= 1])
                hole = rng.randrange(sym.arity)
                return Cong(
                    sym,
                    tuple(
                        non_embed(d - 1) if i == hole else go(d - 1)
                        for i in range(sym.arity)
                    ),
                )

    def go(d: int) -> ProofTerm:
        if d <= 0 or rng.random() < 0.3:
            return emb()
        return non_embed(d)

    return go(depth)


def brute_derivations(
    t: Term, rs: RuleSet, max_len: int, innermost: bool = False
) -> list[Derivation]:
    """The full derivation tree from t, plainly, without the strategy layer;
    with `innermost`, only steps at positions with no redex strictly below."""
    out = [Derivation(t)]
    frontier = [Derivation(t)]
    while frontier:
        d = frontier.pop()
        if len(d) >= max_len:
            continue
        labs = all_redexes(d.target, rs)
        if innermost:
            labs = [
                lab for lab in labs if not any(o.position.is_below(lab.position) for o in labs)
            ]
        for lab in labs:
            d2 = d.then(apply_step(d.target, lab, rs))
            out.append(d2)
            frontier.append(d2)
    return out


def bfs_reachable(t: Term, rs: RuleSet, k: int) -> set[Term]:
    """Terms reachable from t in at most k single steps."""
    seen = {t}
    frontier = {t}
    for _ in range(k):
        nxt: set[Term] = set()
        for u in frontier:
            for lab in all_redexes(u, rs):
                nxt.add(apply_step(u, lab, rs).target)
        frontier = nxt - seen
        seen |= nxt
    return seen


def naive_match(pattern: Term, subject: Term) -> dict | None:
    """Independent recursive matcher used as the matching oracle."""

    def go(p: Term, s: Term, env: dict) -> dict | None:
        if isinstance(p, Var):
            if p.name in env:
                return env if env[p.name] == s else None
            return {**env, p.name: s}
        if isinstance(s, Var) or p.symbol != s.symbol:
            return None
        for pa, sa in zip(p.args, s.args):
            env = go(pa, sa, env)
            if env is None:
                return None
        return env

    return go(pattern, subject, {})


def naive_subterms(t: Term) -> list[Term]:
    out = [t]
    if isinstance(t, App):
        for a in t.args:
            out.extend(naive_subterms(a))
    return out


def naive_occurs(g: Term, t: Term) -> bool:
    return any(naive_match(g, s) is not None for s in naive_subterms(t))


def naive_instantiate(env: dict, u: Term) -> Term:
    """`u` with each variable bound in `env` replaced, by plain recursion."""
    if isinstance(u, Var):
        return env.get(u.name, u)
    return App(u.symbol, tuple(naive_instantiate(env, a) for a in u.args))


def reference_infer(pi: ProofTerm, rs: RuleSet) -> tuple:
    """The (source, target) pair `pi` proves, by plain recursion over the
    node types, as the oracle for `infer`.

    Errors come in the order of a left-to-right walk: an unknown label or a
    wrong argument count at a replacement before its arguments are looked
    at, and a chain's `ComposeError` after both of its operands.
    """
    rules = {r.label: r for r in rs}

    def go(p) -> tuple:
        match p:
            case Embed(term=t):
                return t, t
            case Trans(first=a, second=b):
                source, left = go(a)
                right, target = go(b)
                if left != right:
                    raise ComposeError(left, right)
                return source, target
            case Cong(symbol=f, args=args):
                pairs = [go(a) for a in args]
                return App(f, tuple(s for s, _ in pairs)), App(f, tuple(t for _, t in pairs))
            case Repl(rule_label=label, args=args):
                if label not in rules:
                    raise UnknownLabel(label)
                rule = rules[label]
                if len(args) != len(rule.params):
                    raise ArityError(label)
                pairs = [go(a) for a in args]
                sources = dict(zip(rule.params, (s for s, _ in pairs)))
                targets = dict(zip(rule.params, (t for _, t in pairs)))
                return naive_instantiate(sources, rule.lhs), naive_instantiate(targets, rule.rhs)
        raise TypeError(p)

    return go(pi)


def trans_depth(pi: ProofTerm) -> int:
    match pi:
        case Trans(first=a, second=b):
            return 1 + max(trans_depth(a), trans_depth(b))
        case Cong(args=args) | Repl(args=args):
            return max((trans_depth(a) for a in args), default=0)
        case _:
            return 0


REF_EXHAUSTED = "exhausted"


def reference_eval(s: StrategyExpr, t: Term, rs: RuleSet, fuel: int):
    """Big-step strategy evaluation as plain recursion: (outcome, fuel spent).

    The outcome is the resulting term, None for stk, or REF_EXHAUSTED.  Every
    node evaluated costs one unit; `repeat(s)` costs one unit and then runs
    as its unfolding `mu X . try(seq(s, X))`, with an `X` no input can name.
    Rules apply through `naive_match`, `occurs` through `naive_occurs`.
    """

    class Exhausted(Exception):
        pass

    left = fuel

    def go(s: StrategyExpr, t: Term, env: dict):
        nonlocal left
        if left == 0:
            raise Exhausted
        left -= 1
        match s:
            case Id():
                return t
            case Fail():
                return None
            case RuleRef(label=label):
                rule = rs.lookup(label)
                env_m = naive_match(rule.lhs, t)
                return None if env_m is None else naive_instantiate(env_m, rule.rhs)
            case Seq(s1=s1, s2=s2):
                r = go(s1, t, env)
                return None if r is None else go(s2, r, env)
            case First(s1=s1, s2=s2):
                r = go(s1, t, env)
                return go(s2, t, env) if r is None else r
            case Try(s=inner):
                r = go(inner, t, env)
                return t if r is None else r
            case Not(s=inner):
                return t if go(inner, t, env) is None else None
            case IfTE(cond=c, then_s=a, else_s=b):
                return go(a if go(c, t, env) is not None else b, t, env)
            case Repeat(s=inner):
                x = "repeat'"
                return go(Mu(x, Try(Seq(inner, SVar(x)))), t, env)
            case Mu(var=x, body=body):
                return go(body, t, {**env, x: (s, env)})
            case SVar(var=x):
                mu, defenv = env[x]
                return go(mu.body, t, {**defenv, x: (mu, defenv)})
            case Occurs(pattern=g):
                return t if naive_occurs(g, t) else None
        raise AssertionError(s)

    try:
        result = go(s, t, {})
    except Exhausted:
        return REF_EXHAUSTED, fuel
    return result, fuel - left


def generated_repr(x) -> str:
    """What the dataclass-generated `__repr__` prints, recursively."""
    if type(x) is tuple:
        items = [generated_repr(v) for v in x]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    if dataclasses.is_dataclass(x):
        shown = (f for f in dataclasses.fields(x) if f.repr)
        inner = ", ".join(f"{f.name}={generated_repr(getattr(x, f.name))}" for f in shown)
        return f"{type(x).__qualname__}({inner})"
    return repr(x)


def node_key(x):
    """A nested tuple equal for two trees exactly when the dataclass-generated
    `__eq__`, applied recursively, calls them equal."""
    if type(x) is tuple:
        return tuple(node_key(v) for v in x)
    if dataclasses.is_dataclass(x):
        compared = (f for f in dataclasses.fields(x) if f.compare)
        return (type(x).__name__, *(node_key(getattr(x, f.name)) for f in compared))
    return x


def check_node_methods(a, b, same) -> None:
    """`==`, `hash`, `repr`, pickle and deepcopy of the step, proof or
    strategy nodes `a` and `b`, against the generated methods; `same`
    equals `a`."""
    assert same is not a and same == a and not same != a and hash(same) == hash(a)
    assert (a == b) == (node_key(a) == node_key(b)) == (not a != b)
    assert a != b or hash(a) == hash(b)
    assert repr(a) == generated_repr(a)
    for back in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert back is not a and back == a and node_key(back) == node_key(a)


def check_deep_node(parse, printer, text: str, other: str, shown: str) -> None:
    """`==`, `hash`, `repr`, pickle and deepcopy of the deep node that
    `parse(text)` gives, at the default recursion limit.  `other` parses to
    an unequal node of the same shape; `shown` is the expected `repr`."""
    node, same, different = parse(text), parse(text), parse(other)
    assert node is not same and node == same and not node != same
    assert node != different and not node == different
    assert "_hash" not in vars(node)  # hashed on first use, not when built
    assert hash(node) == hash(same) and "_hash" in vars(node)
    assert repr(node) == shown
    data = pickle.dumps(node)
    assert b"_hash" not in data
    for back in (pickle.loads(data), copy.deepcopy(node)):
        assert back is not node and back == node and hash(back) == hash(node)
        assert printer(back) == text
