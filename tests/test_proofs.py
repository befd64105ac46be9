from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termstrat import (
    AmbiguousIdent,
    ArityError,
    ComposeError,
    Cong,
    Derivation,
    Embed,
    ParseError,
    Position,
    ROOT,
    Repl,
    Rule,
    RuleSet,
    Sequent,
    Signature,
    StepLabel,
    Substitution,
    Symbol,
    TermstratError,
    Trans,
    UnknownLabel,
    UnknownSymbol,
    Var,
    apply_proof_set,
    apply_step,
    check,
    cong,
    from_derivation,
    infer,
    load_theory,
    parse_proof,
    parse_strategy,
    parse_term,
    positions,
    print_derivation,
    print_proof,
    print_term,
    replace_at,
    rewrite_at,
    to_derivation,
)
import termstrat.terms
from termstrat.errors import ParseArityError
from termstrat.terms import App, _flatten
from termstrat.theory import _term
from gen import (
    brute_derivations,
    check_deep_node,
    check_node_methods,
    random_ground_term,
    random_pattern,
    random_proof,
    reference_infer,
    symbols_of,
)

REPO = Path(__file__).resolve().parent.parent


DEEP = 10_000
FLIP = load_theory("sig a/0 b/0 f/1 g/2\nrule p : a => b\nrule q : b => a\n")
# p ; (q ; (p ; ... (p ; q))), DEEP operands: right-nested, printed as it reads.
RIGHT_CHAIN = " ; (".join(["p", "q"] * (DEEP // 2 - 1) + ["p"]) + " ; q" + ")" * (DEEP - 2)
# The operands of p ; q ; p ; ... ; q, which reads as a left-deep Trans.
CHAIN = ["p", "q"] * (DEEP // 2)
# Nullary p/q as in FLIP, a tower rule, and the nonlinear eqv and dup.
KNOT = load_theory(
    "sig a/0 b/0 f/1 g/2\n"
    "rule p : a => b\nrule q : b => a\nrule u : f(x) => x\n"
    "rule eqv : g(x,x) => x\nrule dup : f(x) => g(x,x)\n"
)
# Operands of a KNOT chain: the forms the parser accepts, then wrong counts.
KNOT_OPERANDS = ("p", "q", "p()", "a", "b", "f(p)", "g(q,b)", "dup(a)", "u(f(q))", "eqv(p)")
KNOT_WRONG = ("p(a)", "q(b)", "dup", "eqv()")


def t(rex, text):
    return parse_term(text, rex.signature)


def pp(rex, text):
    return parse_proof(text, rex.rules, rex.signature)


def repl(label):
    return f"Repl(rule_label='{label}', args=())"


class TestConstruction:
    def test_cong_all_embed_rejected(self, rex):
        f = rex.signature.lookup("f")
        with pytest.raises(ValueError):
            Cong(f, (Embed(t(rex, "a")),))

    def test_cong_factory_normalizes(self, rex):
        f = rex.signature.lookup("f")
        assert cong(f, [Embed(t(rex, "a"))]) == Embed(t(rex, "f(a)"))

    def test_cong_factory_keeps_active_children(self, rex):
        f = rex.signature.lookup("f")
        node = cong(f, [Repl("r1", ())])
        assert node == Cong(f, (Repl("r1", ()),))

    def test_cong_arity_checked(self, rex):
        h = rex.signature.lookup("h")
        with pytest.raises(ArityError):
            Cong(h, (Repl("r1", ()),))


class TestInfer:
    def test_reflexivity(self, rex):
        term = t(rex, "a")
        assert infer(Embed(term), rex.rules) == Sequent(term, term)

    def test_replacement(self, rex):
        seq = infer(Repl("r3", (Embed(t(rex, "a")),)), rex.rules)
        assert seq == Sequent(t(rex, "f(a)"), t(rex, "g(a)"))

    def test_transitivity_chain(self, rex):
        pi = Trans(
            Repl("r3", (Embed(t(rex, "a")),)),
            Repl("r2", (Embed(t(rex, "a")),)),
        )
        assert infer(pi, rex.rules) == Sequent(t(rex, "f(a)"), t(rex, "a"))

    def test_transitivity_mismatch(self, rex):
        with pytest.raises(ComposeError) as exc:
            infer(Trans(Repl("r1", ()), Repl("r1", ())), rex.rules)
        assert exc.value.left_target == t(rex, "b")
        assert exc.value.right_source == t(rex, "a")
        assert str(exc.value) == "cannot chain: left side ends at b but right side starts at a"

    def test_congruence(self, rex):
        h = rex.signature.lookup("h")
        pi = Cong(h, (Repl("r1", ()), Embed(t(rex, "b"))))
        assert infer(pi, rex.rules) == Sequent(t(rex, "h(a,b)"), t(rex, "h(b,b)"))

    def test_replacement_with_rewriting_arguments(self, rex):
        pi = Repl("r2", (Repl("r1", ()),))
        assert infer(pi, rex.rules) == Sequent(t(rex, "g(a)"), t(rex, "b"))

    def test_unknown_label(self, rex):
        with pytest.raises(UnknownLabel):
            infer(Repl("zz", ()), rex.rules)

    def test_replacement_arity(self, rex):
        with pytest.raises(ArityError):
            infer(Repl("r2", ()), rex.rules)

    def test_replacement_agrees_with_root_rewrite(self, rex):
        rng = random.Random(5)
        for _ in range(50):
            arg = random_ground_term(rng, rex.signature, 3)
            seq = infer(Repl("r3", (Embed(arg),)), rex.rules)
            step = rewrite_at(seq.source, rex.rules.lookup("r3"), ROOT)
            assert step is not None and step.target == seq.target


def agrees_with_reference(pi, rs) -> None:
    """`infer` gives `reference_infer`'s pair, or raises the same class
    (for `ComposeError`, with the same two terms)."""
    try:
        want = reference_infer(pi, rs)
    except TermstratError as error:
        with pytest.raises(TermstratError) as got:
            infer(pi, rs)
        assert type(got.value) is type(error)
        if type(error) is ComposeError:
            assert got.value.left_target == error.left_target
            assert got.value.right_source == error.right_source
        return
    seq = infer(pi, rs)
    assert (seq.source, seq.target) == want


def random_dag(rng, th, steps: int):
    """A proof built bottom-up from a pool: each new node takes its operands
    from the pool, so one node object may sit in several places.  A
    replacement now and then gets one argument too many or too few."""
    rules = sorted(th.rules, key=lambda r: r.label)
    symbols = [s for s in symbols_of(th.signature) if s.arity >= 1]
    pool = [Repl(r.label) for r in rules if not r.params]
    pool += [Embed(random_ground_term(rng, th.signature, 2)) for _ in range(2)]
    for _ in range(steps):
        kind = rng.choice(("trans", "trans", "cong", "repl"))
        if kind == "trans":
            node = Trans(rng.choice(pool), rng.choice(pool))
        elif kind == "cong":
            sym = rng.choice(symbols)
            node = cong(sym, [rng.choice(pool) for _ in range(sym.arity)])
        else:
            rule = rng.choice(rules)
            n = len(rule.params) + (rng.choice((-1, 1)) if rng.random() < 0.15 else 0)
            node = Repl(rule.label, tuple(rng.choice(pool) for _ in range(max(n, 0))))
        pool.append(node)
    return pool[-1]


def chain_operands(pi, n: int) -> list:
    """The `n` operands of the left-nested chain `pi`, in order."""
    ops = []
    while len(ops) < n - 1:
        pi, right = pi.first, pi.second
        ops.append(right)
    return [pi, *reversed(ops)]


class TestAgainstReference:
    """`infer` against `gen.reference_infer`, a plain recursive checker."""

    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_infer_agrees(self, data, rex, peano):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        kind = data.draw(st.sampled_from(("tree", "dag", "chain")))
        if kind == "chain":
            self.check_mixed_chain(rng)
            return
        th = data.draw(st.sampled_from([rex, peano, KNOT]))
        if kind == "tree":
            pi = random_proof(rng, th.rules, th.signature, 4)
        else:
            pi = random_dag(rng, th, rng.randint(1, 10))
        agrees_with_reference(pi, th.rules)

    @staticmethod
    def check_mixed_chain(rng):
        # A parsed chain shares its argument-free replacements; the same
        # chain with some operands built apart must infer the same.
        n = rng.randint(1, 12)
        texts = [rng.choice(KNOT_OPERANDS) for _ in range(n)]
        if rng.random() < 0.2:
            texts[rng.randrange(n)] = rng.choice(KNOT_WRONG)
        text = " ; ".join(texts)
        if any(x in KNOT_WRONG for x in texts):
            with pytest.raises(ParseArityError):
                parse_proof(text, KNOT.rules, KNOT.signature)
            return
        parsed = parse_proof(text, KNOT.rules, KNOT.signature)
        agrees_with_reference(parsed, KNOT.rules)
        mixed = []
        for op, x in zip(chain_operands(parsed, n), texts):
            draw = rng.random()
            if draw < 0.45:
                mixed.append(op)
            elif draw < 0.9:
                mixed.append(parse_proof(x, KNOT.rules, KNOT.signature))
            else:  # a replacement with one argument too many, which no parse gives
                mixed.append(Repl(rng.choice("pq"), (Embed(t(KNOT, "a")),)))
        agrees_with_reference(reduce(Trans, mixed), KNOT.rules)
        k = rng.randrange(n)  # and grouped to the right from operand k
        if k:
            agrees_with_reference(Trans(reduce(Trans, mixed[:k]), reduce(Trans, mixed[k:])), KNOT.rules)


class TestWorkCounts:
    """What the checker does on a parsed DEEP-operand `p ; q` chain."""

    TEXT = " ; ".join(CHAIN)

    def test_parse_builds_one_replacement_per_label(self, monkeypatch):
        built = []
        monkeypatch.setattr(Repl, "__post_init__", lambda self: built.append(self))
        pi = parse_proof(self.TEXT, FLIP.rules, FLIP.signature)
        assert [x.rule_label for x in built] == ["p", "q"]
        assert {id(op) for op in chain_operands(pi, DEEP)} == {id(x) for x in built}

    def test_infer_compares_middles_by_identity(self, monkeypatch):
        pi = parse_proof(self.TEXT, FLIP.rules, FLIP.signature)
        calls = [0]
        real = App.__eq__

        def counted(a, b):
            calls[0] += 1
            return real(a, b)

        monkeypatch.setattr(App, "__eq__", counted)
        seq = infer(pi, FLIP.rules)
        # One each where the second rule's sides join the first one's.
        assert calls[0] <= 2
        monkeypatch.undo()
        assert seq == Sequent(t(FLIP, "a"), t(FLIP, "a"))

    def test_to_derivation_builds_no_checked_position(self, monkeypatch):
        pi = parse_proof(self.TEXT, FLIP.rules, FLIP.signature)
        created = [0]

        def counted(self):
            created[0] += 1

        monkeypatch.setattr(Position, "__post_init__", counted)
        d = to_derivation(pi, FLIP.rules)
        assert len(d) == DEEP and created[0] == 0


class TestCheck:
    def test_reflexive(self, rex):
        assert check(Embed(t(rex, "a")), t(rex, "a"), t(rex, "a"), rex.rules)

    def test_nullary_replacement(self, rex):
        assert check(Repl("r1", ()), t(rex, "a"), t(rex, "b"), rex.rules)

    def test_target_mismatch(self, rex):
        assert not check(Repl("r1", ()), t(rex, "a"), t(rex, "a"), rex.rules)


class TestFromDerivation:
    def test_empty_maps_to_embedded_term(self, rex):
        term = t(rex, "f(a)")
        assert from_derivation(Derivation(term), rex.rules) == Embed(term)

    def test_single_root_step(self, rex):
        d = Derivation(t(rex, "a")).then(
            apply_step(t(rex, "a"), StepLabel(ROOT, "r1", Substitution()), rex.rules)
        )
        assert from_derivation(d, rex.rules) == Repl("r1", ())

    def test_single_deep_step_wraps_congruences(self, rex):
        term = t(rex, "f(g(a))")
        d = Derivation(term).then(
            apply_step(term, StepLabel(Position((1, 1)), "r1", Substitution()), rex.rules)
        )
        f = rex.signature.lookup("f")
        g = rex.signature.lookup("g")
        assert from_derivation(d, rex.rules) == Cong(f, (Cong(g, (Repl("r1", ()),)),))

    def test_two_steps_chain_with_trans(self, rex):
        term = t(rex, "f(a)")
        step1 = rewrite_at(term, rex.rules.lookup("r3"), ROOT)
        step2 = rewrite_at(step1.target, rex.rules.lookup("r2"), ROOT)
        d = Derivation(term).then(step1).then(step2)
        assert from_derivation(d, rex.rules) == Trans(
            Repl("r3", (Embed(t(rex, "a")),)),
            Repl("r2", (Embed(t(rex, "a")),)),
        )

    def test_sibling_arguments_embedded(self, rex):
        term = t(rex, "h(a,b)")
        d = Derivation(term).then(
            apply_step(term, StepLabel(Position((1,)), "r1", Substitution()), rex.rules)
        )
        h = rex.signature.lookup("h")
        assert from_derivation(d, rex.rules) == Cong(
            h, (Repl("r1", ()), Embed(t(rex, "b")))
        )


class TestToDerivation:
    def test_embedded_term_is_empty_derivation(self, rex):
        term = t(rex, "f(g(b))")
        d = pp(rex, "f(g(b))")
        assert d == Embed(term)
        assert to_derivation(d, rex.rules) == Derivation(term)

    def test_congruence_lifts_position(self, rex):
        d = to_derivation(pp(rex, "f(r1)"), rex.rules)
        assert print_derivation(d) == "f(a) -[1,r1]-> f(b)"

    def test_replacement_arguments_first(self, rex):
        d = to_derivation(Repl("r2", (Repl("r1", ()),)), rex.rules)
        assert print_derivation(d) == "g(a) -[1,r1]-> g(b) -[e,r2]-> b"

    def test_parallel_congruence_left_to_right(self, rex):
        d = to_derivation(pp(rex, "h(r1,r1)"), rex.rules)
        assert print_derivation(d) == "h(a,a) -[1,r1]-> h(b,a) -[2,r1]-> h(b,b)"

    def test_nonlinear_replacement_replays_every_occurrence(self):
        th = load_theory(
            "sig a/0 b/0 g/1 h/2\n"
            "rule r1 : a => b\n"
            "rule nl : h(x,x) => g(x)\n"
        )
        d = to_derivation(Repl("nl", (Repl("r1", ()),)), th.rules)
        assert (
            print_derivation(d)
            == "h(a,a) -[1,r1]-> h(b,a) -[2,r1]-> h(b,b) -[e,nl]-> g(b)"
        )
        seq = infer(Repl("nl", (Repl("r1", ()),)), th.rules)
        assert (seq.source, seq.target) == (d.source, d.target)

    def test_agrees_with_infer_on_enumerated_proofs(self, rex):
        rng = random.Random(11)
        for _ in range(60):
            start = random_ground_term(rng, rex.signature, 3)
            ds = brute_derivations(start, rex.rules, 3)
            d = rng.choice(ds)
            pi = from_derivation(d, rex.rules)
            replay = to_derivation(pi, rex.rules)
            seq = infer(pi, rex.rules)
            assert replay.source == seq.source and replay.target == seq.target

    def test_compose_error_propagates(self, rex):
        with pytest.raises(ComposeError):
            to_derivation(Trans(Repl("r1", ()), Repl("r1", ())), rex.rules)
        cases = {
            # in the middle of a left-nested chain
            "f(r1) ; r3(b) ; r2(a) ; r1": ("g(b)", "g(a)"),
            # inside a parenthesised right operand
            "r3(a) ; (r2(a) ; r2(a)) ; r1": ("a", "g(a)"),
        }
        for text, (left, right) in cases.items():
            pi = pp(rex, text)
            for convert in (infer, to_derivation):
                with pytest.raises(ComposeError) as exc:
                    convert(pi, rex.rules)
                assert exc.value.left_target == t(rex, left)
                assert exc.value.right_source == t(rex, right)

    def test_long_chain_round_trip(self):
        # A fresh interpreter, so the recursion limit is the default one.
        script = (
            "import sys\n"
            "from termstrat import (from_derivation, infer, load_theory,\n"
            "    parse_proof, print_proof, to_derivation)\n"
            "th = load_theory('sig a/0 b/0\\nrule p : a => b\\nrule q : b => a\\n')\n"
            "pi = parse_proof(sys.stdin.read(), th.rules, th.signature)\n"
            "assert pi.second is pi.first.first.second  # the parse shares its leaves\n"
            "shared = print_proof(pi)\n"
            "seq = infer(pi, th.rules)\n"
            "d = to_derivation(pi, th.rules)\n"
            "back = from_derivation(d, th.rules)\n"
            "assert infer(back, th.rules) == seq\n"
            "print(len(d), seq)\n"
            "print(shared)\n"
            "print(print_proof(back), end='')\n"
        )
        text = " ; ".join(["p", "q"] * 5000)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=text,
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        counts, shared, printed = proc.stdout.split("\n", 2)
        assert counts == "10000 [a] -> [a]"
        assert shared == text
        assert printed == text


class TestApplyProofSet:
    def test_single_rule(self, rex):
        got = apply_proof_set({Repl("r1", ())}, t(rex, "a"), rex.rules)
        assert got == {t(rex, "b")}

    def test_reflexive_member(self, rex):
        got = apply_proof_set({Embed(t(rex, "a"))}, t(rex, "a"), rex.rules)
        assert got == {t(rex, "a")}

    def test_source_mismatch_skipped(self, rex):
        assert apply_proof_set({Repl("r1", ())}, t(rex, "b"), rex.rules) == set()

    def test_failing_members_skipped(self, rex):
        proofs = {
            Trans(Repl("r1", ()), Repl("r1", ())),
            Repl("zz", ()),
            Repl("r1", ()),
        }
        assert apply_proof_set(proofs, t(rex, "a"), rex.rules) == {t(rex, "b")}


class TestParsePrint:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_open_terms_read_back(self, rex, peano, data):
        # A variable spelled like a rule label would print in a proof as the
        # rule, so the readers that hold a theory reject it, and every proof
        # over the open terms they accept reads back as itself.  Each draw
        # reads an open term and the same term with one subterm such a
        # variable.
        th = data.draw(st.sampled_from([rex, peano]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        term = random_pattern(rng, th.signature, 3)
        label = rng.choice([r.label for r in th.rules])
        clashing = replace_at(term, rng.choice(positions(term)), Var(label))
        for t in (term, clashing):
            try:
                read = _term(print_term(t), th)
            except ParseError as e:
                assert t is clashing
                assert e.args[0] == f"{label!r} is a rule label, not a variable"
                continue
            assert read == t
            for d in brute_derivations(t, th.rules, 2):
                pi = from_derivation(d, th.rules)
                back = parse_proof(print_proof(pi), th.rules, th.signature)
                assert back == pi
                assert infer(back, th.rules) == infer(pi, th.rules) == Sequent(d.source, d.target)
            assert t is term

    def test_sequences_parse(self, rex):
        pi = pp(rex, "r1 ; r1")
        assert pi == Trans(Repl("r1", ()), Repl("r1", ()))

    def test_congruence_over_label(self, rex):
        f = rex.signature.lookup("f")
        assert pp(rex, "f(r1)") == Cong(f, (Repl("r1", ()),))

    def test_plain_term_collapses(self, rex):
        assert pp(rex, "f(g(a))") == Embed(t(rex, "f(g(a))"))

    def test_sequence_left_associative(self, rex):
        pi = pp(rex, "r1 ; r1 ; r1")
        assert pi == Trans(Trans(Repl("r1", ()), Repl("r1", ())), Repl("r1", ()))

    def test_grouping_parens(self, rex):
        pi = pp(rex, "r1 ; (r1 ; r1)")
        assert pi == Trans(Repl("r1", ()), Trans(Repl("r1", ()), Repl("r1", ())))
        with pytest.raises(ParseError) as exc:
            pp(rex, "(r1, r1)")
        assert str(exc.value) == "1:4: expected ')', found ','"

    def test_sequence_inside_arguments(self, rex):
        g = rex.signature.lookup("g")
        pi = pp(rex, "g(r1 ; r1)")
        assert pi == Cong(g, (Trans(Repl("r1", ()), Repl("r1", ())),))

    def test_replacement_arity_at_parse_time(self, rex):
        with pytest.raises(ArityError):
            pp(rex, "r2")
        with pytest.raises(ArityError):
            pp(rex, "r1(a)")

    def test_unknown_head_rejected(self, rex):
        with pytest.raises(UnknownSymbol):
            pp(rex, "zz(a)")

    def test_bare_unknown_ident_is_variable(self, rex):
        assert pp(rex, "x") == Embed(parse_term("x", rex.signature))

    def test_ambiguous_ident(self):
        # `load_theory` rejects a label that is also a symbol; the API does not.
        a, b, q = Symbol("a", 0), Symbol("b", 0), Symbol("q", 0)
        rules = RuleSet([Rule.make("q", App(a), App(b))])
        with pytest.raises(AmbiguousIdent):
            parse_proof("q", rules, Signature([a, b, q]))

    def test_print_forms(self, rex):
        assert print_proof(pp(rex, "r3(a) ; r2(a)")) == "r3(a) ; r2(a)"
        assert print_proof(pp(rex, "f(g(r1))")) == "f(g(r1))"
        assert print_proof(pp(rex, "r1 ; (r1 ; r1)")) == "r1 ; (r1 ; r1)"
        assert print_proof(pp(rex, "r1 ; r1 ; r1")) == "r1 ; r1 ; r1"

    @pytest.mark.parametrize(
        "text, printed, sequent",
        [
            (
                "f(" * DEEP + "p" + ")" * DEEP,
                "f(" * DEEP + "p" + ")" * DEEP,
                ("f(" * DEEP + "a" + ")" * DEEP, "f(" * DEEP + "b" + ")" * DEEP),
            ),
            ("(" * DEEP + "p" + ")" * DEEP, "p", ("a", "b")),
            (RIGHT_CHAIN, RIGHT_CHAIN, ("a", "a")),
        ],
        ids=["congruence", "parentheses", "right-nested-chain"],
    )
    def test_at_depth(self, text, printed, sequent):
        pi = parse_proof(text, FLIP.rules, FLIP.signature)
        assert print_proof(pi) == printed
        seq = infer(pi, FLIP.rules)
        assert (print_term(seq.source), print_term(seq.target)) == sequent

    def test_roundtrip_generated(self, rex):
        rng = random.Random(23)
        for _ in range(80):
            pi = random_proof(rng, rex.rules, rex.signature, 4)
            assert pp(rex, print_proof(pi)) == pi


class TestNodeMethods:
    """Equality, hashing, `repr` and pickling, written once for proof and
    strategy nodes on explicit stacks."""

    def test_agree_with_the_generated_ones(self, rex):
        rng = random.Random(29)
        proofs = [random_proof(rng, rex.rules, rex.signature, 2) for _ in range(200)]
        for a, b in zip(proofs, proofs[1:]):
            check_node_methods(a, b, pp(rex, print_proof(a)))
        assert sum(a == b for a, b in zip(proofs, proofs[1:])) > 0
        # A label the parser would reject with either argument count.
        check_node_methods(Repl("r2", ()), Repl("r2", (Embed(t(rex, "a")),)), Repl("r2", ()))

    @pytest.mark.parametrize(
        "text, other, shown",
        [
            (
                " ; ".join(CHAIN),
                " ; ".join(CHAIN[:-1] + ["p"]),
                "Trans(first=" * (DEEP - 1)
                + repl("p")
                + "".join(f", second={repl(x)})" for x in CHAIN[1:]),
            ),
            (
                "f(" * DEEP + "p" + ")" * DEEP,
                "f(" * DEEP + "q" + ")" * DEEP,
                "Cong(symbol=Symbol(name='f', arity=1), args=(" * DEEP + repl("p") + ",))" * DEEP,
            ),
            (
                "g(p," + "f(" * DEEP + "a" + ")" * DEEP + ")",
                "g(p," + "f(" * DEEP + "b" + ")" * DEEP + ")",
                f"Cong(symbol=Symbol(name='g', arity=2), args=({repl('p')}, Embed(term="
                + "App(symbol=Symbol(name='f', arity=1), args=(" * DEEP
                + "App(symbol=Symbol(name='a', arity=0), args=())"
                + ",))" * DEEP
                + ")))",
            ),
        ],
        ids=["chain", "congruence", "embedded-term"],
    )
    def test_at_depth(self, text, other, shown):
        check_deep_node(
            lambda s: parse_proof(s, FLIP.rules, FLIP.signature), print_proof, text, other, shown
        )

    def test_unequal_chains_stop_at_the_first_difference(self, monkeypatch):
        # Two DEEP-operand chains that differ in their first operand: `==`
        # stops at the first item of each walk, and once both hashes are
        # cached it walks neither.
        def chain(first):
            return parse_proof(" ; ".join([first, *CHAIN[1:]]), FLIP.rules, FLIP.signature)

        a, b = chain("p"), chain("q")
        assert len(_flatten(a)) == 4 * DEEP - 1
        items = [0]
        real = termstrat.terms._flat

        def counted(node):
            for item in real(node):
                items[0] += 1
                yield item

        monkeypatch.setattr(termstrat.terms, "_flat", counted)
        assert a != b and not a == b
        assert 0 < items[0] <= 4
        assert hash(a) != hash(b)
        items[0] = 0
        assert a != b and not a == b and items[0] == 0

    def test_a_term_is_one_item(self, rex):
        # Below a proof node a term is not spread out: `==` and hash use its
        # own, and pickling leaves it to the term's own codec.
        rng = random.Random(37)
        terms = [random_ground_term(rng, rex.signature, 5) for _ in range(100)]
        terms += [Var("x"), t(rex, "f(" * DEEP + "x" + ")" * DEEP)]
        for term in terms:
            assert len(_flatten(Embed(term))) == 2

    def test_embedded_terms_built_apart(self):
        def proof(leaf, depth=DEEP):
            term = parse_term("f(" * depth + leaf + ")" * depth, FLIP.signature)
            return Cong(FLIP.signature.lookup("g"), (Repl("p"), Embed(term)))

        a, same = proof("a"), proof("a")
        assert a.args[1].term is not same.args[1].term
        assert a == same and not a != same and hash(a) == hash(same)
        for other in (proof("b"), proof("a", DEEP - 1)):
            assert a != other and not a == other

    def test_pickles_cross_processes(self):
        # String hashes differ between processes, so a pickle that carried a
        # cached hash would load with the wrong one.
        term = "f(" * DEEP + "a" + ")" * DEEP
        texts = (term, f"g(p,{term})", f"seq(p,occurs({term}))")
        script = (
            "import pickle, sys\n"
            "from termstrat import load_theory, parse_proof, parse_strategy, parse_term\n"
            "th = load_theory('sig a/0 b/0 f/1 g/2\\nrule p : a => b\\nrule q : b => a\\n')\n"
            "term, proof, strategy = sys.argv[1:]\n"
            "sys.stdout.buffer.write(pickle.dumps((parse_term(term, th.signature),\n"
            "    parse_proof(proof, th.rules, th.signature),\n"
            "    parse_strategy(strategy, th.rules, th.signature))))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        proc = subprocess.run(
            [sys.executable, "-c", script, *texts],
            cwd=REPO,
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        local = (
            parse_term(texts[0], FLIP.signature),
            parse_proof(texts[1], FLIP.rules, FLIP.signature),
            parse_strategy(texts[2], FLIP.rules, FLIP.signature),
        )
        for back, here in zip(pickle.loads(proc.stdout), local, strict=True):
            assert back is not here and back == here and hash(back) == hash(here)
            assert {here: "found"}.get(back) == "found"
