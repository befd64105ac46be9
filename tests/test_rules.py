from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import termstrat.terms
from termstrat import (
    App,
    InvalidPosition,
    Position,
    ROOT,
    RewriteStep,
    Rule,
    RuleSet,
    StepMismatch,
    StepLabel,
    Substitution,
    UnknownLabel,
    all_redexes,
    apply_step,
    innermost,
    apply_subst,
    load_theory,
    parse_term,
    positions,
    print_term,
    rewrite_at,
    rightmost_innermost,
    subterm_at,
    traced,
)
from gen import (
    check_deep_node,
    check_node_methods,
    ground_terms,
    naive_match,
    random_ground_term,
    random_pattern,
)


def t(rex, text):
    return parse_term(text, rex.signature)


class TestRule:
    def test_params_in_first_occurrence_order(self, rex):
        rule = Rule.make("sw", t(rex, "h(y,x)"), t(rex, "h(x,y)"))
        assert rule.params == ("y", "x")

    def test_nonlinear_lhs_params_deduplicated(self, rex):
        rule = Rule.make("dd", t(rex, "h(x,x)"), t(rex, "x"))
        assert rule.params == ("x",)

    def test_bare_variable_lhs_rejected(self, rex):
        with pytest.raises(ValueError):
            Rule.make("bad", t(rex, "x"), t(rex, "a"))

    def test_unbound_rhs_variable_rejected(self, rex):
        with pytest.raises(ValueError):
            Rule.make("bad", t(rex, "f(x)"), t(rex, "h(x,z)"))

    def test_rhs_may_drop_variables(self, rex):
        rule = Rule.make("drop", t(rex, "h(x,y)"), t(rex, "x"))
        assert rule.params == ("x", "y")

    def test_str(self, rex):
        assert str(rex.rules.lookup("r2")) == "r2: g(x) => x"


class TestRuleSet:
    def test_order_preserved(self, rex):
        assert [r.label for r in rex.rules] == ["r1", "r2", "r3", "p0", "ps"]

    def test_duplicate_label_rejected(self, rex):
        rs = RuleSet([rex.rules.lookup("r1")])
        with pytest.raises(ValueError):
            rs.add(Rule.make("r1", t(rex, "g(x)"), t(rex, "x")))

    def test_lookup_unknown(self, rex):
        with pytest.raises(UnknownLabel):
            rex.rules.lookup("zz")

    def test_contains(self, rex):
        assert "r1" in rex.rules and "zz" not in rex.rules


class TestRewriteAt:
    def test_inner_unwrap(self, rex):
        step = rewrite_at(t(rex, "f(g(a))"), rex.rules.lookup("r2"), Position((1,)))
        assert step is not None
        assert step.target == t(rex, "f(a)")
        assert step.label.subst == Substitution.of({"x": t(rex, "a")})

    def test_deep_constant(self, rex):
        step = rewrite_at(t(rex, "f(g(a))"), rex.rules.lookup("r1"), Position((1, 1)))
        assert step is not None and step.target == t(rex, "f(g(b))")

    def test_no_match_is_none(self, rex):
        assert rewrite_at(t(rex, "f(g(a))"), rex.rules.lookup("r1"), ROOT) is None

    def test_invalid_position(self, rex):
        with pytest.raises(InvalidPosition):
            rewrite_at(t(rex, "a"), rex.rules.lookup("r1"), Position((1,)))

    def test_step_invariants(self, rex):
        term = t(rex, "plus(s(a),b)")
        rule = rex.rules.lookup("ps")
        step = rewrite_at(term, rule, ROOT)
        assert step is not None
        sigma = step.label.subst
        assert subterm_at(step.source, step.label.position) == apply_subst(sigma, rule.lhs)
        assert step.target == apply_subst(sigma, rule.rhs)

    def test_deterministic(self, rex):
        term = t(rex, "f(g(a))")
        rule = rex.rules.lookup("r2")
        assert rewrite_at(term, rule, Position((1,))) == rewrite_at(
            term, rule, Position((1,))
        )


class TestAllRedexes:
    def test_nested_unary_exact_list(self, rex):
        got = all_redexes(t(rex, "f(g(a))"), rex.rules)
        assert got == [
            StepLabel(ROOT, "r3", Substitution.of({"x": t(rex, "g(a)")})),
            StepLabel(Position((1,)), "r2", Substitution.of({"x": t(rex, "a")})),
            StepLabel(Position((1, 1)), "r1", Substitution()),
        ]

    def test_normal_form_empty(self, rex):
        assert all_redexes(t(rex, "b"), rex.rules) == []

    def test_bare_variable_empty(self, rex):
        assert all_redexes(t(rex, "x"), rex.rules) == []

    def test_completeness_against_double_loop(self, rex):
        rng = random.Random(17)
        sample = list(ground_terms(rex.signature, 2))
        sample += [random_ground_term(rng, rex.signature, 4) for _ in range(200)]
        for term in sample:
            expected = []
            for p in positions(term):
                for rule in rex.rules:
                    step = rewrite_at(term, rule, p)
                    if step is not None:
                        expected.append(step.label)
            assert all_redexes(term, rex.rules) == expected


def scan_redexes(term, rules) -> list:
    """Every node (preorder) times every rule (declaration order)."""
    out = []

    def go(sub, path):
        for rule in rules:
            env = naive_match(rule.lhs, sub)
            if env is not None:
                out.append(StepLabel(Position(path), rule.label, Substitution.of(env)))
        if isinstance(sub, App):
            for i, arg in enumerate(sub.args, 1):
                go(arg, path + (i,))

    go(term, ())
    return out


def filter_innermost(labels) -> frozenset:
    """The redexes with no other redex strictly below them."""
    pts = [lab.position for lab in labels]
    return frozenset(
        lab for lab in labels if not any(p.is_below(lab.position) for p in pts)
    )


def pick_rightmost(labels, rules) -> frozenset:
    """Greatest innermost path, then the first declared rule there."""
    inner = filter_innermost(labels)
    if not inner:
        return frozenset()
    rank = {rule.label: i for i, rule in enumerate(rules)}
    best = max(lab.position.path for lab in inner)
    at_best = [lab for lab in inner if lab.position.path == best]
    return frozenset({min(at_best, key=lambda lab: rank[lab.rule_label])})


class TestRedexSelection:
    """The indexed walk against the plain definitions it replaced."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_walk_agrees_with_scan(self, rex, peano, data):
        th = data.draw(st.sampled_from([rex, peano]))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        depth = data.draw(st.integers(1, 6))
        if data.draw(st.booleans()):
            term = random_ground_term(rng, th.signature, depth)
        else:
            term = random_pattern(rng, th.signature, depth)
        rules = list(th.rules)
        # Rules added after the first query must be seen by later ones.
        split = data.draw(st.integers(0, len(rules)))
        rs = RuleSet(rules[:split])
        inner, right = innermost(rs), rightmost_innermost(rs)
        for known in (rules[:split], rules):
            for rule in known[len(rs):]:
                rs.add(rule)
            want = scan_redexes(term, known)
            assert all_redexes(term, rs) == want
            assert inner.choose(traced(term)) == filter_innermost(want)
            assert right.choose(traced(term)) == pick_rightmost(want, known)


class TestApplyStep:
    def test_replay(self, rex):
        label = StepLabel(Position((1,)), "r2", Substitution.of({"x": t(rex, "a")}))
        step = apply_step(t(rex, "f(g(a))"), label, rex.rules)
        assert step.target == t(rex, "f(a)")

    def test_disagreeing_bindings(self, rex):
        label = StepLabel(Position((1,)), "r2", Substitution.of({"x": t(rex, "b")}))
        with pytest.raises(StepMismatch):
            apply_step(t(rex, "f(g(a))"), label, rex.rules)

    def test_unknown_label(self, rex):
        label = StepLabel(ROOT, "zz", Substitution())
        with pytest.raises(UnknownLabel):
            apply_step(t(rex, "a"), label, rex.rules)

    def test_position_missing(self, rex):
        label = StepLabel(Position((2, 1)), "r1", Substitution())
        with pytest.raises(StepMismatch):
            apply_step(t(rex, "f(a)"), label, rex.rules)

    def test_rule_not_matching(self, rex):
        label = StepLabel(ROOT, "r1", Substitution())
        with pytest.raises(StepMismatch):
            apply_step(t(rex, "b"), label, rex.rules)

    def test_str_forms(self, rex):
        label = StepLabel(Position((1,)), "r2", Substitution.of({"x": t(rex, "a")}))
        assert str(label) == "(1,r2,{x->a})"
        step = apply_step(t(rex, "f(g(a))"), label, rex.rules)
        assert str(step) == "f(g(a)) -[1,r2]-> f(a)"


DEEP = 10_000
FLIP = load_theory("sig a/0 b/0 f/1 g/2\nrule p : a => b\nrule q : b => a\n")


def first_step(text: str) -> RewriteStep:
    """The first step `all_redexes` lists for the FLIP term `text`."""
    term = parse_term(text, FLIP.signature)
    return apply_step(term, all_redexes(term, FLIP.rules)[0], FLIP.rules)


def tower(leaf: str) -> str:
    """The generated `repr` of f^DEEP(leaf)."""
    return (
        "App(symbol=Symbol(name='f', arity=1), args=(" * DEEP
        + f"App(symbol=Symbol(name='{leaf}', arity=0), args=())"
        + ",))" * DEEP
    )


class TestRewriteStepNode:
    """A step is a `TreeNode`: the codec and `repr` of proof and strategy
    nodes, with its source and target as single values."""

    def test_agree_with_the_generated_ones(self, rex):
        rng = random.Random(31)
        steps = []
        for _ in range(60):
            term = random_ground_term(rng, rex.signature, 4)
            steps += (apply_step(term, lab, rex.rules) for lab in all_redexes(term, rex.rules))
        assert len(steps) > 30
        for a, b in zip(steps, steps[1:]):
            copy = t(rex, print_term(a.source))
            check_node_methods(a, b, apply_step(copy, a.label, rex.rules))
        assert any(a == b for a, b in zip(steps, steps[1:]))

    def test_at_depth(self):
        path = "(" + ", ".join(["1"] * DEEP) + ")"
        shown = (
            f"RewriteStep(source={tower('a')}, label=StepLabel(position=Position(path={path}), "
            f"rule_label='p', subst=Substitution(pairs=())), target={tower('b')})"
        )
        text = "f(" * DEEP + "a" + ")" * DEEP
        other = "f(" * DEEP + "b" + ")" * DEEP
        check_deep_node(first_step, lambda step: print_term(step.source), text, other, shown)
        step = first_step(text)
        assert print_term(step.target) == other and str(step).endswith(f",p]-> {other}")

    def test_hash_flattens_once(self, monkeypatch):
        step = first_step("g(a,f(b))")
        flattened = []
        real = termstrat.terms._flatten
        monkeypatch.setattr(
            termstrat.terms, "_flatten", lambda node: flattened.append(node) or real(node)
        )
        assert hash(step) == hash(step) == hash(first_step("g(a,f(b))"))
        assert [node is step for node in flattened].count(True) == 1
