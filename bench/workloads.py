"""Seeded op generators for the four workloads.

An op is one termstrat CLI command (argv for ``termstrat.cli.main``) or one
documented API call sequence (argv[0] == "roundtrip").  Ops come in blocks
of BLOCK; block ``i`` of a workload depends only on (workload, seed, i),
never on the program.  Within a block the mix of families is fixed and
sizes are stratified (one per equal slice of the size range), so
every block asks for about the same work and runs of different seeds
agree closely.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

import oracle

PEANO = "bench/theories/peano.trs"
TOWER = "bench/theories/tower.trs"
BLOCK = 20
WORKLOADS = ("normalize", "derive", "eval", "proof")

# Largest sizes; each stays well below the depth at which the seed runs
# out of Python stack (see bench/NOTES.md), so no op fails at the seed.
MAX_SUM = 220  # normalize: printing s^n(0) overflows from n = 248
MAX_REPEAT = 250  # eval: repeat(u) on f^n(a) overflows from n = 328
MAX_PRINT = 180  # eval: printing a tower overflows from about 250 deep
MAX_FUEL = 1200  # eval: flip with fuel F overflows from F = 1810
MAX_CHAIN = 800  # proof: infer on a p ; q chain overflows from 990 steps
MAX_ROUNDTRIP = 500  # proof: to_derivation overflows from 989 steps


class Op(NamedTuple):
    family: str
    argv: tuple
    size: int  # the op's size parameter, for the latency/size slope
    spec: tuple  # what the oracle needs


def digest(stdout: str) -> str:
    """How worker and oracle compare an op's stdout."""
    return hashlib.blake2b(stdout.encode("utf-8"), digest_size=16).hexdigest()


def block(workload: str, seed: int, index: int, catalog: dict | None = None) -> list[Op]:
    """Block ``index`` of the op stream; ``catalog`` is derive's (see below)."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "derive":
        ops = _derive(rng, catalog)
    else:
        ops = {"normalize": _normalize, "eval": _eval, "proof": _proof}[workload](rng)
    assert len(ops) == BLOCK
    rng.shuffle(ops)
    return ops


def strata(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """k integers in [lo, hi], one from each of k equal slices.  Slices
    alternate between offsets u and 1 - u, with u drawn from the middle
    of the slice, so every block asks for nearly the same sizes and the
    latency percentiles do not hinge on the draw."""
    width = (hi - lo + 1) / k
    u = 0.4 + 0.2 * rng.random()
    return [lo + int(width * (i + (u if i % 2 == 0 else 1 - u))) for i in range(k)]


# ---------------------------------------------------------------------------
# normalize


def _jitter(rng: random.Random, x: float, share: float) -> int:
    """``x`` moved by up to ``share`` of itself either way."""
    return round(x * (1 + share * (2 * rng.random() - 1)))


def _peano_op(family: str, t, mode: str) -> Op:
    argv = ("normalize", "--file", PEANO, "--term", oracle.show(t))
    if mode != "all":
        argv += ("--intensional", mode)
    return Op(family, argv, oracle.peano_value(t), (t, mode))


def _num(n: int):
    t = ("0",)
    for _ in range(n):
        t = ("s", t)
    return t


def _chain3(rng: random.Random, n: int, left_nested: bool):
    """Three numerals of about n/3 each, summing to n."""
    a, b = _jitter(rng, n / 3, 0.1), _jitter(rng, n / 3, 0.1)
    a, b, c = _num(a), _num(b), _num(n - a - b)
    return ("plus", ("plus", a, b), c) if left_nested else ("plus", a, ("plus", b, c))


def _normalize(rng: random.Random) -> list[Op]:
    ops = []
    # Two numerals of about n/2 each, rightmost-innermost: cost grows ~n^3.
    for n in strata(rng, 12, 20, MAX_SUM):
        a = _jitter(rng, n / 2, 0.05)
        ops.append(_peano_op("sum2", ("plus", _num(a), _num(n - a)), "rightmost-innermost"))
    # Three numerals nested either way, innermost or rightmost-innermost.
    for i, n in enumerate(strata(rng, 6, 45, MAX_SUM - 10)):
        mode = "innermost" if i // 2 % 2 else "rightmost-innermost"
        ops.append(_peano_op("chain3", _chain3(rng, n, i % 2 == 0), mode))
    # Every redex allowed: breadth-first over all interleavings, small sums.
    for i, n in enumerate(strata(rng, 2, 9, 30)):
        ops.append(_peano_op("chain3-all", _chain3(rng, n, i % 2 == 0), "all"))
    return ops


# ---------------------------------------------------------------------------
# derive
#
# The listing derive prints grows steeply and unevenly with the term and
# the depth, so ops are drawn from classes by the size of that listing (an
# input property the oracle computes; it sets an op's cost more closely
# than the number of derivations does).  The catalog is computed once per
# run, outside the timed region, and passed to the worker.
DERIVE_CLASSES = {"light": (8_000, 20_000), "medium": (70_000, 130_000), "heavy": (400_000, 550_000)}
# (class, --json) -> ops per block; with 4 innermost ops the latency ranks
# are: innermost 1-4, light 5-12, medium 13-19, heavy 20, so p50 and p90
# fall inside the light and medium groups rather than between groups.
DERIVE_MIX = {
    ("light", False): 5, ("light", True): 3,
    ("medium", False): 5, ("medium", True): 2,
    ("heavy", False): 1,
}
DERIVE_DEPTHS = range(4, 9)


def _shapes(leaves: int) -> list:
    """Every binary plus-tree with ``leaves`` numeral slots (None)."""
    if leaves == 1:
        return [None]
    return [
        ("plus", left, right)
        for k in range(1, leaves)
        for left in _shapes(k)
        for right in _shapes(leaves - k)
    ]


def _fill(shape, values: list):
    if shape is None:
        return _num(values.pop())
    left = _fill(shape[1], values)
    return ("plus", left, _fill(shape[2], values))


def derive_terms() -> list:
    """Nested plus terms with 2-4 numerals of value 0-3, in a fixed order."""
    out = []
    for leaves in (2, 3, 4):
        for shape in _shapes(leaves):
            for code in range(4 ** leaves):
                values = [(code >> (2 * i)) & 3 for i in range(leaves)]
                out.append(_fill(shape, values))
    return out


def derive_catalog() -> dict:
    """Class name -> [(term text, depth, derivations)] for every-redex
    derive ops, sorted by the size of their listing."""
    th = oracle.load(PEANO)
    memo: dict = {}
    catalog: dict = {name: [] for name in DERIVE_CLASSES}
    for t in derive_terms():
        for depth in DERIVE_DEPTHS:
            n, chars = oracle.derive_size(th, t, depth, False, memo)
            for name, (lo, hi) in DERIVE_CLASSES.items():
                if lo <= chars <= hi:
                    catalog[name].append((chars, oracle.show(t), depth, n))
    return {name: [e[1:] for e in sorted(entries)] for name, entries in catalog.items()}


def _derive_op(text: str, depth: int, size: int, innermost: bool, as_json: bool) -> Op:
    argv = ("derive", "--file", PEANO, "--term", text, "--depth", str(depth))
    if innermost:
        argv += ("--intensional", "innermost")
    if as_json:
        argv += ("--json",)
    family = "innermost" if innermost else ("json" if as_json else "text")
    return Op(family, argv, size, (text, depth, innermost, as_json))


def _derive(rng: random.Random, catalog: dict) -> list[Op]:
    ops = []
    for (name, as_json), k in DERIVE_MIX.items():
        entries = catalog[name]  # sorted by listing size
        for i in strata(rng, k, 0, len(entries) - 1):
            text, depth, n = entries[i]
            ops.append(_derive_op(text, depth, n, False, as_json))
    th = oracle.load(PEANO)
    terms = derive_terms()
    for depth in strata(rng, 4, 4, 8):
        t = rng.choice(terms)
        n = oracle.derive_size(th, t, depth, True, {})[0]
        ops.append(_derive_op(oracle.show(t), depth, n, True, False))
    return ops


# ---------------------------------------------------------------------------
# eval


def _eval_op(family: str, strategy: str, term: str, size: int, spec: tuple, fuel: int | None = None) -> Op:
    argv = ("eval", "--file", TOWER, "--strategy", strategy, "--term", term)
    if fuel is not None:
        argv += ("--fuel", str(fuel))
    return Op(family, argv, size, spec)


def _word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("fg") for _ in range(n))


def _eval(rng: random.Random) -> list[Op]:
    ops = []
    for n in strata(rng, 4, 20, MAX_REPEAT):
        ops.append(_eval_op("rep", "repeat(u)", oracle.tower("f" * n), n, ("rep", "f" * n)))
    for n in strata(rng, 3, 20, MAX_REPEAT - 30):
        w = _word(rng, n)
        ops.append(_eval_op("peel", "peel", oracle.tower(w), n, ("peel", w)))
    for n in strata(rng, 2, 20, MAX_REPEAT):
        ops.append(_eval_op("mu", "mu X . first(seq(u,X),id)", oracle.tower("f" * n), n, ("mu", "f" * n)))
    for i, n in enumerate(strata(rng, 3, 10, MAX_PRINT)):
        has_g = i != 1
        word = "f" * n + ("g" if has_g else "")
        ops.append(_eval_op("occ", "ifTE(occurs(g(x)),u,w)", oracle.tower(word), n, ("occ", n, has_g)))
    for i, n in enumerate(strata(rng, 2, 10, MAX_PRINT)):
        w, base = _word(rng, n), "ab"[i]
        ops.append(_eval_op("not", "not(occurs(b))", oracle.tower(w, base), n, ("not", w, base)))
    n = rng.randint(10, MAX_PRINT)
    ops.append(_eval_op("seq", "seq(w,v)", oracle.tower("f" * n), n, ("seq", n)))
    w = _word(rng, rng.randint(10, MAX_REPEAT - 30))
    ops.append(_eval_op("stk", "seq(peel,fail)", oracle.tower(w), len(w), ("stk", w)))
    # Exact fuel: the budget repeat(u) needs, and one unit less.
    for slack, n in zip((0, -1), strata(rng, 2, 20, MAX_REPEAT)):
        fuel = oracle.strategy_cost("rep", "f" * n) + slack
        ops.append(_eval_op("fuel", "repeat(u)", oracle.tower("f" * n), n, ("fuel", n, fuel), fuel))
    # A strategy that never fails runs until the stated fuel is gone.
    for fuel in strata(rng, 2, 50, MAX_FUEL):
        ops.append(_eval_op("div", "flip", "a", fuel, ("div",), fuel))
    return ops


# ---------------------------------------------------------------------------
# proof

GROUND = ("a", "b")


def random_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return (rng.choice(GROUND),)
    sym = rng.choice("ffgghh")
    if sym == "h":
        left = random_term(rng, depth - 1)
        right = left if rng.random() < 0.3 else random_term(rng, depth - 1)
        return ("h", left, right)
    return (sym, random_term(rng, depth - 1))


def random_proof(rng: random.Random, th: oracle.Theory, t, budget: int):
    """A proof tree whose source is the ground term ``t``."""
    if budget <= 0 or rng.random() < 0.15:
        return ("embed", t)
    if rng.random() < 0.15:
        first = random_proof(rng, th, t, budget // 2)
        mid = oracle.infer(th, first)[1]
        return ("trans", first, random_proof(rng, th, mid, budget // 2))
    rules = [r for r in th.rules if oracle.match(r[1], t, {}) is not None]
    if rules and rng.random() < 0.6:
        label, lhs, _, params = rng.choice(rules)
        binds = oracle.match(lhs, t, {})
        share = budget // max(1, len(params)) - 1
        return ("repl", label, tuple(random_proof(rng, th, binds[x], share) for x in params))
    if len(t) == 1:
        return ("embed", t)
    share = budget // (len(t) - 1) - 1
    return ("cong", t[0], tuple(random_proof(rng, th, a, share) for a in t[1:]))


def _check_op(family: str, text: str, size: int, spec: tuple, src: str | None, tgt: str | None) -> Op:
    argv = ("check-proof", "--file", TOWER, "--proof", text)
    if src is not None:
        argv += ("--from", src)
    if tgt is not None:
        argv += ("--to", tgt)
    return Op(family, argv, size, spec)


def roundtrip_argv(text: str) -> tuple:
    """The API sequence parse_proof, to_derivation, from_derivation, infer
    and print_proof on ``text``; the worker runs it like a command."""
    return ("roundtrip", "--file", TOWER, "--proof", text)


def _proof(rng: random.Random) -> list[Op]:
    th = oracle.load(TOWER)
    ops = []
    for n in strata(rng, 8, 20, MAX_CHAIN):
        ops.append(_check_op("chain", oracle.chain_text(n), n, ("chain",), "a", oracle.chain_target(n)))
    for n in strata(rng, 2, 20, MAX_CHAIN):
        wrong = "a" if oracle.chain_target(n) == "b" else "b"
        ops.append(_check_op("mismatch", oracle.chain_text(n), n, ("chain",), "a", wrong))
    n = rng.randint(20, MAX_CHAIN)
    k = rng.randint(1, n - 1)
    steps = oracle.chain_text(n).split(" ; ")
    broken = " ; ".join(steps[:k] + [steps[k - 1]] + steps[k:])
    ops.append(_check_op("broken", broken, n + 1, ("broken",), "a", None))
    for budget in strata(rng, 5, 20, 200):
        tree = random_proof(rng, th, random_term(rng, 6), budget)
        src, tgt = (oracle.show(x) for x in oracle.infer(th, tree))
        text = oracle.proof_text(tree)
        ops.append(_check_op("cong", text, oracle.proof_size(tree), ("tree", tree), src, tgt))
    for n in strata(rng, 2, 20, MAX_ROUNDTRIP):
        ops.append(Op("rt-chain", roundtrip_argv(oracle.chain_text(n)), n, ("rt-chain", n)))
    for budget in strata(rng, 2, 20, 200):
        tree = random_proof(rng, th, random_term(rng, 6), budget)
        argv = roundtrip_argv(oracle.proof_text(tree))
        ops.append(Op("rt-tree", argv, oracle.proof_size(tree), ("rt-tree", tree)))
    return ops


# ---------------------------------------------------------------------------
# traced runs

TRACE_BLOCKS = {"normalize": 2, "derive": 2, "eval": 15, "proof": 10}


def coverage() -> list[Op]:
    """One small op of each kind.  Every traced run ends with these, so
    each span runs on every workload and no layer's time is a structural
    zero; they are a small share of any workload's traced time."""
    derive_term = ("plus", _num(2), ("plus", _num(1), _num(1)))
    n = oracle.derive_size(oracle.load(PEANO), derive_term, 3, False, {})[0]
    tree = ("repl", "sw", (("cong", "f", (("repl", "p", ()),)), ("repl", "u", (("repl", "q", ()),))))
    return [
        _peano_op("cover", ("plus", _num(10), _num(10)), "rightmost-innermost"),
        _derive_op(oracle.show(derive_term), 3, n, False, False),
        _eval_op("cover", "repeat(u)", oracle.tower("f" * 10), 10, ("rep", "f" * 10)),
        _check_op("cover", oracle.chain_text(10), 10, ("chain",), "a", oracle.chain_target(10)),
        Op("cover", roundtrip_argv(oracle.proof_text(tree)), oracle.proof_size(tree), ("rt-tree", tree)),
    ]


def trace_ops(workload: str, seed: int, catalog: dict | None = None) -> list[Op]:
    """The traced run's fixed op list: the first blocks, then coverage()."""
    ops = [op for i in range(TRACE_BLOCKS[workload]) for op in block(workload, seed, i, catalog)]
    return ops + coverage()


# ---------------------------------------------------------------------------
# oracle dispatch


def expected(op: Op, theories: dict) -> tuple[int, str]:
    """The oracle's (exit code, stdout) for ``op``."""
    th = theories.get(op.argv[2])
    if th is None:
        th = theories[op.argv[2]] = oracle.load(op.argv[2])
    if op.argv[0] == "normalize":
        t, mode = op.spec
        return oracle.expect_normalize(th, t, mode)
    if op.argv[0] == "derive":
        text, depth, innermost, as_json = op.spec
        return oracle.expect_derive(th, th.term(text), depth, innermost, as_json)
    if op.argv[0] == "eval":
        return oracle.expect_eval(op.spec)
    kind = op.spec[0]
    if kind == "chain":
        argv = dict(zip(op.argv[5::2], op.argv[6::2]))
        n = op.size
        out = f"a -> {oracle.chain_target(n)}\n"
        return (0 if argv.get("--to") == oracle.chain_target(n) else 1), out
    if kind == "broken":
        return 2, ""
    if kind == "tree":
        argv = dict(zip(op.argv[5::2], op.argv[6::2]))
        return oracle.expect_check(th, op.spec[1], argv.get("--from"), argv.get("--to"))
    if kind == "rt-chain":
        n = op.spec[1]
        return 0, f"a -> {oracle.chain_target(n)}\nsteps: {n}\n{oracle.chain_text(n)}\n"
    return oracle.expect_roundtrip(th, op.spec[1])
