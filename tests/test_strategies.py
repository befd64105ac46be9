from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termstrat import (
    App,
    Fail,
    First,
    FuelExhausted,
    Id,
    IfTE,
    Mu,
    Not,
    Occurs,
    ParseError,
    Repeat,
    RuleRef,
    STK,
    SVar,
    Seq,
    Try,
    UnboundSVar,
    UnknownLabel,
    Value,
    check_invariant,
    eval_strategy,
    forbidden_strategy,
    invariant_strategy,
    load_theory,
    parse_strategy,
    parse_term,
    print_strategy,
)
from gen import (
    REF_EXHAUSTED,
    check_deep_node,
    check_node_methods,
    random_strategy,
    reference_eval,
)
from test_terms import term_exprs


def t(rex, text):
    return parse_term(text, rex.signature)


def ev(rex, s, term, fuel=10000):
    return eval_strategy(s, term, rex.rules, fuel)


def strat_exprs(labels, patterns):
    leaves = st.sampled_from(
        [Id(), Fail()]
        + [RuleRef(l) for l in labels]
        + [Occurs(p) for p in patterns]
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, inner).map(lambda p: Seq(*p)),
            st.tuples(inner, inner).map(lambda p: First(*p)),
            inner.map(Try),
            inner.map(Not),
            st.tuples(inner, inner, inner).map(lambda p: IfTE(*p)),
            inner.map(Repeat),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@pytest.fixture(scope="module")
def rex_exprs(rex):
    labels = tuple(r.label for r in rex.rules)
    patterns = [t(rex, "a"), t(rex, "g(x)"), t(rex, "h(x,x)")]
    return strat_exprs(labels, patterns), term_exprs(rex.signature)


class TestBasicCombinators:
    def test_id(self, rex):
        term = t(rex, "f(a)")
        assert ev(rex, Id(), term) == Value(term)

    def test_fail(self, rex):
        assert ev(rex, Fail(), t(rex, "a")) == STK

    def test_rule_at_root(self, rex):
        assert ev(rex, RuleRef("r1"), t(rex, "a")) == Value(t(rex, "b"))

    def test_rule_no_match_is_failure(self, rex):
        assert ev(rex, RuleRef("r1"), t(rex, "b")) == STK

    def test_rule_does_not_descend(self, rex):
        assert ev(rex, RuleRef("r1"), t(rex, "f(a)")) == STK

    def test_rule_instantiates(self, rex):
        assert ev(rex, RuleRef("ps"), t(rex, "plus(s(0),0)")) == Value(
            t(rex, "s(plus(0,0))")
        )

    def test_unknown_label(self, rex):
        with pytest.raises(UnknownLabel):
            ev(rex, RuleRef("zz"), t(rex, "a"))

    def test_seq_chains(self, rex):
        s = Seq(RuleRef("r3"), RuleRef("r2"))
        assert ev(rex, s, t(rex, "f(a)")) == Value(t(rex, "a"))

    def test_seq_absorbs_failure(self, rex):
        assert ev(rex, Seq(Fail(), Id()), t(rex, "a")) == STK
        assert ev(rex, Seq(RuleRef("r1"), RuleRef("r1")), t(rex, "a")) == STK

    def test_first_prefers_left(self, rex):
        s = First(RuleRef("r1"), Id())
        assert ev(rex, s, t(rex, "a")) == Value(t(rex, "b"))

    def test_first_falls_back_on_original(self, rex):
        s = First(RuleRef("r1"), RuleRef("r3"))
        assert ev(rex, s, t(rex, "f(a)")) == Value(t(rex, "g(a)"))

    def test_try_keeps_term_on_failure(self, rex):
        term = t(rex, "f(g(a))")
        assert ev(rex, Try(Fail()), term) == Value(term)

    def test_not_inverts(self, rex):
        term = t(rex, "a")
        assert ev(rex, Not(Id()), term) == STK
        assert ev(rex, Not(Fail()), term) == Value(term)

    def test_ifte_both_branches_see_original(self, rex):
        s = IfTE(RuleRef("r1"), RuleRef("r1"), Id())
        assert ev(rex, s, t(rex, "a")) == Value(t(rex, "b"))
        term = t(rex, "b")
        assert ev(rex, s, term) == Value(term)

    def test_ifte_discards_condition_result(self, rex):
        s = IfTE(Seq(RuleRef("r3"), RuleRef("r2")), Id(), Fail())
        term = t(rex, "f(a)")
        assert ev(rex, s, term) == Value(term)


class TestRecursion:
    def test_repeat_until_failure(self, rex):
        assert ev(rex, Repeat(RuleRef("r1")), t(rex, "a")) == Value(t(rex, "b"))

    def test_repeat_zero_iterations(self, rex):
        term = t(rex, "b")
        assert ev(rex, Repeat(RuleRef("r1")), term) == Value(term)

    def test_repeat_id_diverges(self, rex):
        with pytest.raises(FuelExhausted):
            ev(rex, Repeat(Id()), t(rex, "a"), fuel=100)

    def test_fuel_not_conflated_with_failure(self, rex):
        assert ev(rex, Fail(), t(rex, "a"), fuel=100) == STK
        with pytest.raises(FuelExhausted):
            ev(rex, Repeat(Try(Id())), t(rex, "a"), fuel=100)

    def test_mu_unfolds(self, rex):
        s = Mu("X", First(Seq(RuleRef("r2"), SVar("X")), Id()))
        assert ev(rex, s, t(rex, "g(g(a))")) == Value(t(rex, "a"))

    def test_nested_mu_shadowing_is_lexical(self, rex):
        inner = Mu("X", Try(Seq(RuleRef("r2"), SVar("X"))))
        outer = Mu("X", Seq(Try(Seq(RuleRef("r3"), inner)), SVar("X")))
        with pytest.raises(FuelExhausted):
            ev(rex, outer, t(rex, "f(a)"), fuel=200)

    def test_nested_repeat(self, rex):
        s = Repeat(Seq(Repeat(RuleRef("r2")), RuleRef("r3")))
        assert ev(rex, s, t(rex, "f(a)")) == Value(t(rex, "g(a)"))

    def test_unbound_svar(self, rex):
        with pytest.raises(UnboundSVar):
            ev(rex, SVar("X"), t(rex, "a"))

    def test_repeat_binds_no_variable(self, rex):
        with pytest.raises(UnboundSVar):
            ev(rex, Repeat(SVar("__repeat")), t(rex, "a"), fuel=50)

    def test_repeat_divergence_is_bounded_by_fuel(self, rex):
        with pytest.raises(FuelExhausted):
            ev(rex, Repeat(Id()), t(rex, "a"))

    @pytest.mark.parametrize("n, spent", [(1, 18), (5, 62), (50, 557)])
    def test_repeat_exact_cost(self, rex, n, spent):
        # Charged as mu X . try(seq(first(r3,r2), X)): 11 units per f
        # (two successful attempts), 7 for the mu and the final attempt.
        assert spent == 11 * n + 7
        unwrap = Repeat(First(RuleRef("r3"), RuleRef("r2")))
        term = t(rex, "f(" * n + "a" + ")" * n)
        assert ev(rex, unwrap, term, fuel=spent) == Value(t(rex, "a"))
        with pytest.raises(FuelExhausted):
            ev(rex, unwrap, term, fuel=spent - 1)


class TestOccursAndIdioms:
    def test_check_invariant_nested(self, rex):
        assert check_invariant(t(rex, "g(x)"), t(rex, "f(g(a))"))

    def test_check_invariant_absent(self, rex):
        assert not check_invariant(t(rex, "b"), t(rex, "f(g(a))"))

    def test_variable_pattern_always_present(self, rex):
        assert check_invariant(t(rex, "x"), t(rex, "plus(0,s(0))"))

    def test_invariant_strategy_matches_predicate(self, rex):
        term = t(rex, "f(g(a))")
        assert ev(rex, invariant_strategy(t(rex, "g(x)")), term) == Value(term)
        assert ev(rex, invariant_strategy(t(rex, "b")), term) == STK

    def test_forbidden_strategy(self, rex):
        term = t(rex, "f(g(a))")
        assert ev(rex, forbidden_strategy(t(rex, "b")), term) == Value(term)
        assert ev(rex, forbidden_strategy(t(rex, "g(x)")), term) == STK

    def test_forbidden_is_negated_invariant(self, rex):
        for text in ("a", "b", "f(g(a))", "h(a,b)", "plus(0,0)"):
            term = t(rex, text)
            for pattern in ("a", "g(x)", "h(x,x)", "x"):
                g = t(rex, pattern)
                assert ev(rex, forbidden_strategy(g), term) == ev(
                    rex, Not(invariant_strategy(g)), term
                )

    def test_occurs_nonlinear_pattern(self, rex):
        s = Occurs(t(rex, "h(x,x)"))
        assert ev(rex, s, t(rex, "f(h(a,a))")) != STK
        assert ev(rex, s, t(rex, "f(h(a,b))")) == STK


class TestParsePrint:
    def test_repeat_first(self, rex):
        got = parse_strategy("repeat(first(r1,r2))", rex.rules, rex.signature)
        assert got == Repeat(First(RuleRef("r1"), RuleRef("r2")))

    def test_unbound_name(self, rex):
        with pytest.raises(UnboundSVar):
            parse_strategy("X", rex.rules, rex.signature)

    def test_mu_binds(self, rex):
        got = parse_strategy("mu X . try(seq(r1,X))", rex.rules, rex.signature)
        assert got == Mu("X", Try(Seq(RuleRef("r1"), SVar("X"))))

    def test_mu_scope_does_not_leak(self, rex):
        with pytest.raises(UnboundSVar):
            parse_strategy("seq(mu X . X,X)", rex.rules, rex.signature)

    def test_occurs_takes_a_term(self, rex):
        got = parse_strategy("occurs(h(x,x))", rex.rules, rex.signature)
        assert got == Occurs(t(rex, "h(x,x)"))

    def test_named_aliases_splice(self, rex):
        named = {"step": First(RuleRef("r3"), RuleRef("r2"))}
        got = parse_strategy("repeat(step)", rex.rules, rex.signature, named)
        assert got == Repeat(named["step"])

    def test_bound_var_shadows_label(self, rex):
        got = parse_strategy("mu r1 . r1", rex.rules, rex.signature)
        assert got == Mu("r1", SVar("r1"))

    def test_reserved_mu_variable(self, rex):
        with pytest.raises(ParseError):
            parse_strategy("mu id . id", rex.rules, rex.signature)

    def test_wrong_arity(self, rex):
        with pytest.raises(ParseError):
            parse_strategy("seq(r1)", rex.rules, rex.signature)
        with pytest.raises(ParseError):
            parse_strategy("try(r1,r2)", rex.rules, rex.signature)

    def test_print_forms(self, rex):
        assert print_strategy(Repeat(First(RuleRef("r1"), Id()))) == "repeat(first(r1,id))"
        assert (
            print_strategy(Mu("X", IfTE(Occurs(t(rex, "a")), SVar("X"), Fail())))
            == "mu X . ifTE(occurs(a),X,fail)"
        )

    def test_roundtrip_examples(self, rex):
        for text in (
            "id",
            "fail",
            "r1",
            "seq(first(r1,r2),not(try(r3)))",
            "ifTE(occurs(g(x)),repeat(r2),id)",
            "mu X . try(seq(first(r3,r2),X))",
        ):
            expr = parse_strategy(text, rex.rules, rex.signature)
            assert print_strategy(expr) == text
            assert parse_strategy(text, rex.rules, rex.signature) == expr


    @pytest.mark.parametrize(
        "text",
        [
            "try(" * 10_000 + "r1" + ")" * 10_000,
            "seq(id," * 10_000 + "r1" + ")" * 10_000,
            "".join(f"mu X{i} . " for i in range(10_000)) + "X0",
            "occurs(" + "f(" * 10_000 + "a" + ")" * 10_000 + ")",
        ],
        ids=["try", "seq", "mu-chain", "occurs"],
    )
    def test_roundtrip_at_depth(self, rex, text):
        assert print_strategy(parse_strategy(text, rex.rules, rex.signature)) == text


class TestNodeMethods:
    """Equality, hashing, `repr` and pickling of strategy nodes, which share
    their methods with proof nodes."""

    def test_agree_with_the_generated_ones(self, rex):
        rng = random.Random(31)
        labels = tuple(r.label for r in rex.rules)
        exprs = [random_strategy(rng, labels, rex.signature, 2) for _ in range(200)]
        for a, b in zip(exprs, exprs[1:]):
            same = parse_strategy(print_strategy(a), rex.rules, rex.signature)
            check_node_methods(a, b, same)
        assert sum(a == b for a, b in zip(exprs, exprs[1:])) > 0

    @pytest.mark.parametrize(
        "text, other, shown",
        [
            (
                "try(" * 10_000 + "r1" + ")" * 10_000,
                "try(" * 10_000 + "r2" + ")" * 10_000,
                "Try(s=" * 10_000 + "RuleRef(label='r1')" + ")" * 10_000,
            ),
            (
                "seq(id," * 10_000 + "r1" + ")" * 10_000,
                "seq(id," * 10_000 + "r2" + ")" * 10_000,
                "Seq(s1=Id(), s2=" * 10_000 + "RuleRef(label='r1')" + ")" * 10_000,
            ),
        ],
        ids=["try", "seq"],
    )
    def test_at_depth(self, rex, text, other, shown):
        parse = lambda s: parse_strategy(s, rex.rules, rex.signature)
        check_deep_node(parse, print_strategy, text, other, shown)


EXHAUSTED = "fuel exhausted"


def outcome(rex, s, term, fuel):
    """The result of `s` on `term` within `fuel`, or EXHAUSTED."""
    try:
        return ev(rex, s, term, fuel)
    except FuelExhausted:
        return EXHAUSTED


def cost(rex, s, term, cap):
    """The exact fuel `s` spends on `term`, or None when it needs more than `cap`."""
    if outcome(rex, s, term, cap) == EXHAUSTED:
        return None
    lo, hi = 0, cap  # runs out at lo, finishes at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outcome(rex, s, term, mid) == EXHAUSTED:
            lo = mid
        else:
            hi = mid
    return hi


class TestLaws:
    """Algebraic laws with exact fuel offsets.

    Each combinator node costs one unit of fuel, so both sides of a law are
    compared at budgets that differ by the nodes one side adds; running out
    of fuel is an outcome that must agree too, never a discarded example.
    """

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_try_fail_is_identity(self, rex, rex_exprs, data):
        _, terms = rex_exprs
        term = data.draw(terms)
        assert ev(rex, Try(Fail()), term) == Value(term)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_first_fail_left_unit(self, rex, rex_exprs, data):
        exprs, terms = rex_exprs
        s, term = data.draw(exprs), data.draw(terms)
        # First and Fail add one unit each.
        assert outcome(rex, First(Fail(), s), term, 402) == outcome(rex, s, term, 400)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_first_fail_right_unit(self, rex, rex_exprs, data):
        exprs, terms = rex_exprs
        s, term = data.draw(exprs), data.draw(terms)
        base = outcome(rex, s, term, 400)
        # First adds one unit; Fail runs only after s fails.
        extra = 2 if base == STK else 1
        assert outcome(rex, First(s, Fail()), term, 400 + extra) == base

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_seq_id_units(self, rex, rex_exprs, data):
        exprs, terms = rex_exprs
        s, term = data.draw(exprs), data.draw(terms)
        base = outcome(rex, s, term, 400)
        assert outcome(rex, Seq(Id(), s), term, 402) == base
        # The trailing Id runs only after s succeeds.
        extra = 2 if isinstance(base, Value) else 1
        assert outcome(rex, Seq(s, Id()), term, 400 + extra) == base

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_double_negation(self, rex, rex_exprs, data):
        exprs, terms = rex_exprs
        s, term = data.draw(exprs), data.draw(terms)
        base = outcome(rex, s, term, 400)
        want = base if base in (STK, EXHAUSTED) else Value(term)
        assert outcome(rex, Not(Not(s)), term, 402) == want

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_seq_stk_absorption(self, rex, rex_exprs, data):
        exprs, terms = rex_exprs
        s1, s2, term = data.draw(exprs), data.draw(exprs), data.draw(terms)
        seq = Seq(s1, s2)
        c1 = cost(rex, s1, term, 400)
        if c1 is None:
            assert outcome(rex, seq, term, 401) == EXHAUSTED
            return
        first = ev(rex, s1, term, c1)
        if first == STK:
            # stk absorbs: s2 never runs, and Seq adds exactly one unit.
            assert outcome(rex, seq, term, c1 + 1) == STK
            assert outcome(rex, seq, term, c1) == EXHAUSTED
            return
        c2 = cost(rex, s2, first.term, 400)
        if c2 is None:
            assert outcome(rex, seq, term, c1 + 401) == EXHAUSTED
            return
        assert outcome(rex, seq, term, c1 + c2 + 1) == ev(rex, s2, first.term, c2)
        assert outcome(rex, seq, term, c1 + c2) == EXHAUSTED

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_repeat_postcondition(self, rex, rex_exprs, data):
        exprs, terms = rex_exprs
        s, term = data.draw(exprs), data.draw(terms)
        result = outcome(rex, Repeat(s), term, 600)
        if result != EXHAUSTED:
            # The last attempt of s failed within the budget left after the
            # repeat and mu units and the attempt's try and seq units.
            assert ev(rex, s, result.term, 596) == STK
            return
        # Repeat(s) costs 4 + c0 when s fails at cost c0, and 3 + c0 plus
        # the cost of Repeat(s) on the result when s succeeds.
        c0 = cost(rex, s, term, 596)
        if c0 is None:
            return
        first = ev(rex, s, term, c0)
        assert first != STK
        assert outcome(rex, Repeat(s), first.term, 597 - c0) == EXHAUSTED

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_repeat_fixpoint(self, rex, rex_exprs, data):
        exprs, terms = rex_exprs
        s, term = data.draw(exprs), data.draw(terms)
        unfolded = Try(Seq(s, Repeat(s)))
        spent = cost(rex, Repeat(s), term, 600)
        # Repeat(s) costs 1 more than its unfolding when s succeeds first,
        # 2 more when s fails at once.
        if spent is None:
            assert outcome(rex, unfolded, term, 598) == EXHAUSTED
            return
        extra = 2 if ev(rex, s, term, spent) == STK else 1
        assert cost(rex, unfolded, term, 600) == spent - extra
        assert ev(rex, unfolded, term, spent - extra) == ev(rex, Repeat(s), term, spent)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fuel_monotonicity(self, rex, rex_exprs, data):
        exprs, terms = rex_exprs
        s, term = data.draw(exprs), data.draw(terms)
        n = data.draw(st.integers(min_value=1, max_value=300))
        small = outcome(rex, s, term, n)
        if small == EXHAUSTED:
            assert outcome(rex, s, term, n // 2) == EXHAUSTED
        else:
            assert ev(rex, s, term, fuel=2 * n) == small
            assert ev(rex, s, term, fuel=10 * n) == small


TOWER_TEXT = """\
sig a/0 f/1
rule u : f(x) => x
"""


# Tower loops, each with the constant c of its cost 4n+c on f^n(a).
UNWRAP = {"mu X . first(seq(u,X),id)": 5, "repeat(u)": 5, "mu X . try(seq(u,X))": 4}


def tower(th, n):
    """f^n(a), built without the parser."""
    term = App(th.signature.lookup("a"))
    for _ in range(n):
        term = App(th.signature.lookup("f"), (term,))
    return term


class TestReference:
    """The evaluator against `gen.reference_eval`, a plain recursive one."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_reference(self, rex, rex_exprs, data):
        exprs, terms = rex_exprs
        labels = tuple(r.label for r in rex.rules)
        # The random strategies of gen.py add mu and bound variables.
        with_mu = st.integers(0, 2**32).map(
            lambda seed: random_strategy(random.Random(seed), labels, rex.signature, 4)
        )
        s, term = data.draw(st.one_of(exprs, with_mu)), data.draw(terms)
        want, spent = reference_eval(s, term, rex.rules, 400)
        if want == REF_EXHAUSTED:
            assert outcome(rex, s, term, 400) == EXHAUSTED
            return
        assert outcome(rex, s, term, 400) == (STK if want is None else Value(want))
        assert cost(rex, s, term, 400) == spent

    @pytest.mark.parametrize(
        "text, want",
        [
            # The inner X shadows the outer one, and `mu X . X` diverges.
            ("mu X . first(seq(r1, mu X . X), id)", REF_EXHAUSTED),
            # X is unfolded under the inner Y, but its own Y is the outer one,
            # which returns b; the inner Y would unfold X forever.
            ("mu Y . first(not(r1), mu X . first(seq(r1, mu Y . X), Y))", "b"),
        ],
        ids=["shadowed", "lexical"],
    )
    def test_scoping(self, rex, text, want):
        s = parse_strategy(text, rex.rules, rex.signature)
        term = parse_term("a", rex.signature)
        got, spent = reference_eval(s, term, rex.rules, 400)
        if want == REF_EXHAUSTED:
            assert got == REF_EXHAUSTED
            assert outcome(rex, s, term, 400) == EXHAUSTED
            return
        assert got == parse_term(want, rex.signature)
        assert outcome(rex, s, term, 400) == Value(got)
        assert cost(rex, s, term, 400) == spent

    @pytest.mark.parametrize("text", list(UNWRAP))
    @pytest.mark.parametrize("n", [0, 1, 7, 200])
    def test_unwrap_cost(self, text, n):
        # mu first: per f, first, seq, u and X; at the end first, seq, the
        # failing u, id and the mu.  mu try: per f, try, seq, u and X; at the
        # end try, seq, the failing u and the mu.  repeat: one unit, then
        # the mu try.
        th = load_theory(TOWER_TEXT)
        s = parse_strategy(text, th.rules, th.signature)
        term, a = tower(th, n), tower(th, 0)
        spent = 4 * n + UNWRAP[text]
        assert reference_eval(s, term, th.rules, spent) == (a, spent)
        assert eval_strategy(s, term, th.rules, spent) == Value(a)
        with pytest.raises(FuelExhausted):
            eval_strategy(s, term, th.rules, spent - 1)

    @pytest.mark.parametrize("text", list(UNWRAP))
    def test_depth_is_bounded_by_fuel_only(self, text):
        # 10^5 levels are far past the recursion limit.
        n = 100_000
        th = load_theory(TOWER_TEXT)
        s = parse_strategy(text, th.rules, th.signature)
        term, a = tower(th, n), tower(th, 0)
        spent = 4 * n + UNWRAP[text]
        assert eval_strategy(s, term, th.rules, spent) == Value(a)
        with pytest.raises(FuelExhausted):
            eval_strategy(s, term, th.rules, spent - 1)

    @pytest.mark.parametrize("text", ["repeat(id)", "mu X . try(seq(id,X))"])
    def test_loop_runs_in_constant_space(self, text):
        # Each iteration pushes a try frame onto the previous one, which it
        # replaces; keeping them all would take megabytes.
        th = load_theory(TOWER_TEXT)
        s = parse_strategy(text, th.rules, th.signature)
        tracemalloc.start()
        try:
            with pytest.raises(FuelExhausted):
                eval_strategy(s, tower(th, 0), th.rules, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
