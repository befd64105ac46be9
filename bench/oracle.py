"""Independent oracles for the benchmark's ops.

Nothing here imports termstrat or shares code with it, so a defect in the
program cannot hide in its own judge.  Terms are plain tuples
``(symbol, arg1, ..., argk)``; pattern variables are bare strings.

Every ``expect_*`` function returns ``(exit_code, stdout)``: what the
termstrat command (or the documented API sequence) must print for the op.
Where a closed form exists it is used (Peano sums, tower reductions,
parity of ``p ; q`` chains); elsewhere a naive tuple-term rewriter
enumerates the answer.
"""

from __future__ import annotations

import json
import re

FUEL = 10000  # termstrat's default --fuel

# ---------------------------------------------------------------------------
# Theory files and terms


class Theory:
    """Symbols and rules of a theory file, read by a parser of our own."""

    def __init__(self, text: str):
        self.arity: dict[str, int] = {}
        self.rules: list[tuple] = []  # (label, lhs, rhs, params)
        for raw in text.splitlines():
            words = raw.split("#", 1)[0].split()
            if not words:
                continue
            if words[0] == "sig":
                for decl in words[1:]:
                    name, arity = decl.split("/")
                    self.arity[name] = int(arity)
            elif words[0] == "rule":
                label, body = " ".join(words[1:]).split(":", 1)
                lhs, rhs = body.split("=>")
                lhs_t, rhs_t = self.term(lhs), self.term(rhs)
                self.rules.append((label.strip(), lhs_t, rhs_t, variables(lhs_t)))
        self.by_label = {r[0]: r for r in self.rules}

    def term(self, text: str):
        tokens = re.findall(r"[A-Za-z0-9_]+|[(),]", text)
        pos = 0

        def parse():
            nonlocal pos
            name = tokens[pos]
            pos += 1
            if pos < len(tokens) and tokens[pos] == "(":
                pos += 1
                args = [parse()]
                while tokens[pos] == ",":
                    pos += 1
                    args.append(parse())
                pos += 1  # ")"
                return (name, *args)
            return (name,) if name in self.arity else name

        t = parse()
        if pos != len(tokens):
            raise ValueError(f"trailing input in {text!r}")
        return t


def load(path: str) -> Theory:
    with open(path, encoding="utf-8") as fh:
        return Theory(fh.read())


def variables(t) -> tuple:
    """Variables of a pattern in first-occurrence (preorder) order."""
    out: list[str] = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            if x not in out:
                out.append(x)
        else:
            stack.extend(reversed(x[1:]))
    return tuple(out)


def show(t) -> str:
    if isinstance(t, str):
        return t
    if len(t) == 1:
        return t[0]
    return f"{t[0]}({','.join(show(a) for a in t[1:])})"


def numeral(n: int) -> str:
    return "s(" * n + "0" + ")" * n


def tower(word: str, base: str = "a") -> str:
    """``word`` read outside-in over ``base``: tower("fg") is f(g(a))."""
    return "".join(c + "(" for c in word) + base + ")" * len(word)


def match(pat, t, binds: dict) -> dict | None:
    if isinstance(pat, str):
        if pat in binds:
            return binds if binds[pat] == t else None
        return {**binds, pat: t}
    if isinstance(t, str) or t[0] != pat[0] or len(t) != len(pat):
        return None
    for p, s in zip(pat[1:], t[1:]):
        binds = match(p, s, binds)
        if binds is None:
            return None
    return binds


def subst(t, binds: dict):
    if isinstance(t, str):
        return binds.get(t, t)
    return (t[0], *(subst(a, binds) for a in t[1:]))


def at(t, pos: tuple):
    for i in pos:
        t = t[i]
    return t


def replace(t, pos: tuple, s):
    if not pos:
        return s
    i = pos[0]
    return t[:i] + (replace(t[i], pos[1:], s),) + t[i + 1:]


def show_pos(pos: tuple) -> str:
    return ".".join(map(str, pos)) if pos else "e"


def redexes(th: Theory, t, pos: tuple = ()) -> list:
    """(position, rule, bindings) in preorder, rules in declaration order."""
    out = []
    for rule in th.rules:
        binds = match(rule[1], t, {})
        if binds is not None:
            out.append((pos, rule, binds))
    if not isinstance(t, str):
        for i in range(1, len(t)):
            out.extend(redexes(th, t[i], pos + (i,)))
    return out


def innermost_only(found: list) -> list:
    poss = [r[0] for r in found]
    return [
        r for r in found
        if not any(len(q) > len(r[0]) and q[: len(r[0])] == r[0] for q in poss)
    ]


def fire(t, redex):
    pos, rule, binds = redex
    return replace(t, pos, subst(rule[2], binds))


# ---------------------------------------------------------------------------
# normalize: Peano sums


def peano_value(t) -> int:
    """The number a ground Peano term denotes."""
    if t[0] == "0":
        return 0
    if t[0] == "s":
        return 1 + peano_value(t[1])
    return peano_value(t[1]) + peano_value(t[2])


def innermost_steps(t) -> int:
    """Steps an innermost strategy fires on a Peano term (closed form).

    plus(X, Y) with both arguments normal takes value(X) + 1 steps, and
    innermost normalizes both arguments first.
    """
    if t[0] == "0":
        return 0
    if t[0] == "s":
        return innermost_steps(t[1])
    return innermost_steps(t[1]) + innermost_steps(t[2]) + peano_value(t[1]) + 1


def all_steps_fired(th: Theory, t) -> int:
    """Steps a breadth-first search over every redex fires (deduplicated)."""
    seen = {t}
    frontier = [t]
    fired = 0
    while frontier:
        nxt = []
        for u in frontier:
            for r in redexes(th, u):
                fired += 1
                v = fire(u, r)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return fired


def expect_normalize(th: Theory, t, mode: str) -> tuple[int, str]:
    fired = all_steps_fired(th, t) if mode == "all" else innermost_steps(t)
    if fired > FUEL:
        return 2, ""
    return 0, numeral(peano_value(t)) + "\n"


# ---------------------------------------------------------------------------
# derive: naive enumeration of the derivation tree


def _choices(th: Theory, t, innermost: bool) -> list:
    found = redexes(th, t)
    return innermost_only(found) if innermost else found


def derive_size(th: Theory, t, depth: int, innermost: bool, memo: dict) -> tuple[int, int]:
    """(derivations, characters of their text listing) that derive prints
    for ``t``: ``t`` alone, or ``t``, a step to some allowed redex's
    target and a derivation from there."""
    key = (t, depth, innermost)
    if key not in memo:
        count, chars = 1, len(show(t)) + 1
        if depth > 0:
            for r in _choices(th, t, innermost):
                c, ch = derive_size(th, fire(t, r), depth - 1, innermost, memo)
                arrow = len(f" -[{show_pos(r[0])},{r[1][0]}]-> ")
                count += c
                chars += c * (len(show(t)) + arrow) + ch
        memo[key] = (count, chars)
    return memo[key]


def expect_derive(th: Theory, t, depth: int, innermost: bool, as_json: bool) -> tuple[int, str]:
    names: dict = {}

    def name(u) -> str:
        s = names.get(u)
        if s is None:
            s = names[u] = show(u)
        return s

    rows = []  # (printed line, steps) per derivation
    stack = [(t, name(t), (), depth)]
    while stack:
        u, line, steps, left = stack.pop()
        rows.append((line, steps))
        if left == 0:
            continue
        for r in _choices(th, u, innermost):
            v = fire(u, r)
            step = (u, r[0], r[1][0], r[2], v)
            stack.append((v, f"{line} -[{show_pos(r[0])},{r[1][0]}]-> {name(v)}", steps + (step,), left - 1))
    rows.sort(key=lambda row: row[0])
    if not as_json:
        return 0, "".join(line + "\n" for line, _ in rows)
    doc = [
        [
            {
                "source": name(src),
                "position": show_pos(pos),
                "rule": label,
                "subst": {x: name(binds[x]) for x in sorted(binds)},
                "target": name(tgt),
            }
            for src, pos, label, binds, tgt in steps
        ]
        for _, steps in rows
    ]
    return 0, json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# eval: closed forms for strategies on towers
#
# Fuel is one unit per combinator evaluation; repeat(s) unfolds as
# mu X . try(seq(s, X)).  So repeat(u) on f^n(a) costs 2 to enter, 4 per
# step (try, seq, u, X) and 3 for the failing last round: 4n + 5.


def strategy_cost(family: str, word: str) -> int:
    if family in ("rep", "mu"):
        return 4 * len(word) + 5
    if family == "peel":  # first(u, v) costs 2 on f, 3 on g
        return 7 + 5 * word.count("f") + 6 * word.count("g")
    raise ValueError(family)


def expect_eval(spec: tuple) -> tuple[int, str]:
    family = spec[0]
    if family in ("rep", "mu", "peel"):
        return (0, "value: a\n") if strategy_cost(family, spec[1]) <= FUEL else (2, "")
    if family == "fuel":  # repeat(u) on f^n(a) with a stated budget
        _, n, fuel = spec
        return (0, "value: a\n") if strategy_cost("rep", "f" * n) <= fuel else (2, "")
    if family == "occ":  # ifTE(occurs(g(x)), u, w) on f^n(g(a)) or f^n(a)
        _, n, has_g = spec
        if has_g:
            return 0, f"value: {tower('f' * (n - 1) + 'g')}\n"
        return 0, f"value: {tower('g' + 'f' * (n - 1))}\n"
    if family == "not":  # not(occurs(b)) on a tower over a or over b
        _, word, base = spec
        return (0, f"value: {tower(word, base)}\n") if base == "a" else (1, "stk\n")
    if family == "seq":  # seq(w, v) on f^n(a)
        return 0, f"value: {tower('f' * (spec[1] - 1))}\n"
    if family == "stk":  # seq(peel, fail)
        return 1, "stk\n"
    if family == "div":  # flip never fails, so any budget runs out
        return 2, ""
    raise ValueError(family)


# ---------------------------------------------------------------------------
# proof: parity of p ; q chains, and a tuple-term reading of proof terms
#
# Proof trees are ("embed", term), ("cong", f, args), ("repl", label, args)
# or ("trans", first, second).


def chain_text(n: int) -> str:
    return " ; ".join("p" if i % 2 == 0 else "q" for i in range(n))


def chain_target(n: int) -> str:
    """p ; q ; p ; ... of length n, read from a."""
    return "b" if n % 2 else "a"


class ComposeMismatch(Exception):
    pass


def infer(th: Theory, tree) -> tuple:
    kind = tree[0]
    if kind == "embed":
        return tree[1], tree[1]
    if kind == "cong":
        ends = [infer(th, a) for a in tree[2]]
        return (tree[1], *(s for s, _ in ends)), (tree[1], *(t for _, t in ends))
    if kind == "trans":
        s1, t1 = infer(th, tree[1])
        s2, t2 = infer(th, tree[2])
        if t1 != s2:
            raise ComposeMismatch
        return s1, t2
    label, lhs, rhs, params = th.by_label[tree[1]]
    ends = [infer(th, a) for a in tree[2]]
    src = subst(lhs, {x: s for x, (s, _) in zip(params, ends)})
    tgt = subst(rhs, {x: t for x, (_, t) in zip(params, ends)})
    return src, tgt


def proof_text(tree, nested: bool = False) -> str:
    kind = tree[0]
    if kind == "embed":
        return show(tree[1])
    if kind == "trans":
        text = f"{proof_text(tree[1])} ; {proof_text(tree[2], True)}"
        return f"({text})" if nested else text
    if kind == "repl" and not tree[2]:
        return tree[1]
    return f"{tree[1]}({','.join(proof_text(a, True) for a in tree[2])})"


def proof_size(tree) -> int:
    if tree[0] == "embed":
        return 1
    if tree[0] == "trans":
        return 1 + proof_size(tree[1]) + proof_size(tree[2])
    return 1 + sum(proof_size(a) for a in tree[2])


def sequentialize(th: Theory, tree) -> list:
    """Single steps (position, label) in the order the proof fires them:
    congruence arguments left to right; for a replacement, each argument's
    steps at every occurrence of its parameter, then the rule at the top."""
    kind = tree[0]
    if kind == "embed":
        return []
    if kind == "trans":
        return sequentialize(th, tree[1]) + sequentialize(th, tree[2])
    if kind == "cong":
        return [
            ((i,) + pos, label)
            for i, arg in enumerate(tree[2], start=1)
            for pos, label in sequentialize(th, arg)
        ]
    _, lhs, _, params = th.by_label[tree[1]]
    occurrences = _var_positions(lhs)
    out = []
    for x, arg in zip(params, tree[2]):
        inner = sequentialize(th, arg)
        for occ in occurrences[x]:
            out.extend((occ + pos, label) for pos, label in inner)
    out.append(((), tree[1]))
    return out


def _var_positions(t, pos: tuple = ()) -> dict:
    out: dict = {}
    if isinstance(t, str):
        out[t] = [pos]
        return out
    for i, a in enumerate(t[1:], start=1):
        for x, ps in _var_positions(a, pos + (i,)).items():
            out.setdefault(x, []).extend(ps)
    return out


def expect_check(th: Theory, tree, from_t: str | None, to_t: str | None) -> tuple[int, str]:
    """check-proof --proof <tree> [--from F] [--to T]."""
    try:
        src, tgt = infer(th, tree)
    except ComposeMismatch:
        return 2, ""
    out = f"{show(src)} -> {show(tgt)}\n"
    if (from_t is not None and from_t != show(src)) or (to_t is not None and to_t != show(tgt)):
        return 1, out
    return 0, out


def expect_roundtrip(th: Theory, tree) -> tuple[int, str]:
    """parse_proof -> to_derivation -> from_derivation -> infer, print_proof.

    The rebuilt proof chains one step proof per single step: the rule
    applied to its bound values, wrapped in congruences along the step's
    position with the untouched siblings embedded.
    """
    src, tgt = infer(th, tree)
    cur = src
    parts = []
    steps = sequentialize(th, tree)
    for pos, label in steps:
        _, lhs, rhs, params = th.by_label[label]
        binds = match(lhs, at(cur, pos), {})
        text = label if not params else f"{label}({','.join(show(binds[x]) for x in params)})"
        for depth in range(len(pos) - 1, -1, -1):
            node = at(cur, pos[:depth])
            args = [text if i == pos[depth] else show(node[i]) for i in range(1, len(node))]
            text = f"{node[0]}({','.join(args)})"
        parts.append(text)
        cur = replace(cur, pos, subst(rhs, binds))
    if cur != tgt:
        raise AssertionError("oracle sequentialization does not reach the inferred target")
    rebuilt = " ; ".join(parts) if parts else show(src)
    return 0, f"{show(src)} -> {show(tgt)}\nsteps: {len(steps)}\n{rebuilt}\n"
