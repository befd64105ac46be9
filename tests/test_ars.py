from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import termstrat.ars
import termstrat.rules
from termstrat import (
    App,
    ComposeError,
    Derivation,
    DerivationSet,
    Extension,
    FuelExhausted,
    IntensionalStrategy,
    Position,
    ROOT,
    StepLabel,
    StepMismatch,
    Substitution,
    TracedObject,
    all_redexes,
    all_steps,
    apply_abstract,
    apply_step,
    bounded,
    derivation_to_json,
    extension,
    from_derivation,
    infer,
    innermost,
    is_prefix_closed,
    load_theory,
    memoryless,
    normal_forms_under,
    parse_term,
    print_derivation,
    print_term,
    rightmost_innermost,
    traced,
)
from gen import brute_derivations, random_ground_term, random_rules
from termstrat.ars import _Table, _tuple_path


def t(rex, text):
    return parse_term(text, rex.signature)


def deriv(rex, start, *moves):
    d = Derivation(t(rex, start))
    for pos, label in moves:
        lab = next(
            l
            for l in all_redexes(d.target, rex.rules)
            if l.position == Position(pos) and l.rule_label == label
        )
        d = d.then(apply_step(d.target, lab, rex.rules))
    return d


class TestDerivation:
    def test_empty_target_is_source(self, rex):
        term = t(rex, "f(a)")
        d = Derivation(term)
        assert d.target == term and len(d) == 0

    def test_then_chains(self, rex):
        d = deriv(rex, "f(a)", ((), "r3"), ((), "r2"))
        assert d.target == t(rex, "a") and len(d) == 2

    def test_then_rejects_gap(self, rex):
        d = Derivation(t(rex, "f(a)"))
        foreign = deriv(rex, "a", ((), "r1")).steps[0]
        with pytest.raises(ComposeError) as exc:
            d.then(foreign)
        assert exc.value.left_target == t(rex, "f(a)")
        assert exc.value.right_source == t(rex, "a")
        assert str(exc.value) == "cannot chain: left side ends at f(a) but right side starts at a"

    def test_compose(self, rex):
        d1 = deriv(rex, "f(a)", ((), "r3"))
        d2 = deriv(rex, "g(a)", ((), "r2"))
        whole = d1.compose(d2)
        assert whole.source == t(rex, "f(a)") and whole.target == t(rex, "a")

    def test_compose_mismatch(self, rex):
        d1 = deriv(rex, "f(a)", ((), "r3"))
        d2 = deriv(rex, "a", ((), "r1"))
        with pytest.raises(ComposeError):
            d1.compose(d2)

    def test_construction_validates_chaining(self, rex):
        s1 = deriv(rex, "a", ((), "r1")).steps[0]
        with pytest.raises(ComposeError):
            Derivation(t(rex, "b"), (s1,))

    def test_extending_checks_only_the_seam(self, monkeypatch):
        # A prefix is not validated again: `then` and `compose` compare one
        # step source with one target each, and `prefix` compares none.
        th = load_theory("sig a/0\nrule loop : a => a\n")
        a = parse_term("a", th.signature)
        step = apply_step(a, all_redexes(a, th.rules)[0], th.rules)
        calls = [0]
        real = App.__eq__

        def counted(self, other):
            calls[0] += 1
            return real(self, other)

        monkeypatch.setattr(App, "__eq__", counted)
        d = Derivation(a)
        for _ in range(10_000):
            d = d.then(step)
        assert len(d) == 10_000 and calls[0] == 10_000
        calls[0] = 0
        assert len(d.compose(d)) == 20_000 and calls[0] == 1
        calls[0] = 0
        assert len(d.prefix(5_000)) == 5_000 and calls[0] == 0

    def test_pickle_round_trip_at_depth(self):
        term = parse_term("f(" * 10_000 + "a" + ")" * 10_000, TOWER.signature)
        d = Derivation(term)
        for path in ((), (1,) * 5_000):
            lab = next(l for l in all_redexes(d.target, TOWER.rules) if l.position.path == path)
            d = d.then(apply_step(d.target, lab, TOWER.rules))
        hash(d.steps[0])  # a cached step hash must not be pickled
        back = pickle.loads(pickle.dumps(d))
        assert back == d and hash(back) == hash(d)
        assert print_term(back.target) == "f(" * 9_998 + "a" + ")" * 9_998

    def test_prefixes(self, rex):
        d = deriv(rex, "f(a)", ((), "r3"), ((), "r2"))
        assert d.prefix(0) == Derivation(t(rex, "f(a)"))
        assert d.prefix(1).target == t(rex, "g(a)")
        assert d.prefix(2) == d

    def test_print_empty(self, rex):
        assert print_derivation(Derivation(t(rex, "f(g(a))"))) == "f(g(a))"

    def test_print_steps(self, rex):
        d = deriv(rex, "f(g(a))", ((1, 1), "r1"), ((), "r3"))
        assert (
            print_derivation(d)
            == "f(g(a)) -[1.1,r1]-> f(g(b)) -[e,r3]-> g(g(b))"
        )

    def test_json_form(self, rex):
        d = deriv(rex, "f(a)", ((), "r3"))
        assert derivation_to_json(d) == [
            {
                "source": "f(a)",
                "position": "e",
                "rule": "r3",
                "subst": {"x": "a"},
                "target": "g(a)",
            }
        ]


class TestTracedObject:
    def test_initial(self, rex):
        term = t(rex, "a")
        tr = traced(term)
        assert tr.current == term and len(tr) == 0 and tr.is_valid(rex.rules)

    def test_step_extends(self, rex):
        tr = traced(t(rex, "a")).step(
            StepLabel(ROOT, "r1", Substitution()), rex.rules
        )
        assert tr.current == t(rex, "b") and len(tr) == 1
        assert tr.trace[0] == (t(rex, "a"), StepLabel(ROOT, "r1", Substitution()))
        assert tr.is_valid(rex.rules)

    def test_of_derivation(self, rex):
        d = deriv(rex, "f(a)", ((), "r3"), ((), "r2"))
        tr = TracedObject.of_derivation(d)
        assert tr.current == d.target and len(tr) == 2
        assert tr.is_valid(rex.rules)

    def test_hand_built_invalid_trace(self, rex):
        bad = TracedObject(
            ((t(rex, "a"), StepLabel(ROOT, "r1", Substitution())),), t(rex, "a")
        )
        assert not bad.is_valid(rex.rules)
        worse = TracedObject(
            ((t(rex, "b"), StepLabel(ROOT, "r1", Substitution())),), t(rex, "b")
        )
        assert not worse.is_valid(rex.rules)


class TestBuiltinStrategies:
    def test_innermost_picks_deepest(self, rex):
        choice = innermost(rex.rules).choose(traced(t(rex, "f(g(a))")))
        assert choice == {StepLabel(Position((1, 1)), "r1", Substitution())}

    def test_innermost_keeps_incomparable(self, rex):
        choice = innermost(rex.rules).choose(traced(t(rex, "h(a,a)")))
        assert choice == {
            StepLabel(Position((1,)), "r1", Substitution()),
            StepLabel(Position((2,)), "r1", Substitution()),
        }

    def test_innermost_empty_on_normal_form(self, rex):
        assert innermost(rex.rules).choose(traced(t(rex, "b"))) == frozenset()

    def test_innermost_maximality(self, rex):
        rng = random.Random(31)
        for _ in range(100):
            term = random_ground_term(rng, rex.signature, 4)
            redex_positions = [l.position for l in all_redexes(term, rex.rules)]
            for lab in innermost(rex.rules).choose(traced(term)):
                assert not any(p.is_below(lab.position) for p in redex_positions)

    def test_rightmost_picks_rightmost(self, rex):
        choice = rightmost_innermost(rex.rules).choose(traced(t(rex, "h(a,a)")))
        assert choice == {StepLabel(Position((2,)), "r1", Substitution())}

    def test_rightmost_unique_innermost(self, rex):
        choice = rightmost_innermost(rex.rules).choose(traced(t(rex, "f(g(a))")))
        assert choice == {StepLabel(Position((1, 1)), "r1", Substitution())}

    def test_rightmost_at_most_one(self, rex):
        rng = random.Random(37)
        for _ in range(100):
            term = random_ground_term(rng, rex.signature, 4)
            assert len(rightmost_innermost(rex.rules).choose(traced(term))) <= 1

    def test_rightmost_rule_order_tiebreak(self):
        th = load_theory(
            "sig a/0 b/0 c/0\n"
            "rule q1 : a => b\n"
            "rule q2 : a => c\n"
        )
        choice = rightmost_innermost(th.rules).choose(traced(parse_term("a", th.signature)))
        assert {lab.rule_label for lab in choice} == {"q1"}

    def test_all_steps_returns_every_redex(self, rex):
        term = t(rex, "f(g(a))")
        assert all_steps(rex.rules).choose(traced(term)) == frozenset(
            all_redexes(term, rex.rules)
        )

    def test_memoryless_ignores_history(self, rex):
        zeta = innermost(rex.rules)
        assert zeta.memoryless
        term = t(rex, "h(a,a)")
        with_history = traced(t(rex, "h(a,g(a))")).step(
            StepLabel(Position((2,)), "r2", Substitution.of({"x": t(rex, "a")})),
            rex.rules,
        )
        assert with_history.current == term
        assert zeta.choose(with_history) == zeta.choose(traced(term))

    def test_memoryless_lift_equals_all_steps(self, rex):
        lifted = memoryless(lambda u: frozenset(all_redexes(u, rex.rules)), rex.rules)
        rng = random.Random(41)
        for _ in range(40):
            term = random_ground_term(rng, rex.signature, 3)
            assert lifted.choose(traced(term)) == all_steps(rex.rules).choose(
                traced(term)
            )

    def test_bounded_cuts_at_trace_length(self, chain):
        a = parse_term("a", chain.signature)
        zeta = bounded(3, all_steps(chain.rules))
        assert not zeta.memoryless
        ds = extension(zeta, a, 10)
        assert max(len(d) for d in ds) == 2

    def test_bounded_one_allows_nothing(self, chain):
        a = parse_term("a", chain.signature)
        assert extension(bounded(1, all_steps(chain.rules)), a, 5) == {Derivation(a)}

    def test_bounded_subset_of_base(self, rex):
        base = all_steps(rex.rules)
        zeta = bounded(2, base)
        rng = random.Random(43)
        for _ in range(30):
            term = random_ground_term(rng, rex.signature, 3)
            for d in brute_derivations(term, rex.rules, 3):
                tr = TracedObject.of_derivation(d)
                assert zeta.choose(tr) <= base.choose(tr)

    def test_bounded_validates_k(self, rex):
        with pytest.raises(ValueError):
            bounded(0, all_steps(rex.rules))


class TestBuiltinFiring:
    """The built-in strategies fire the redexes their walk finds, with the
    bindings found; a strategy made of their chooser alone replays each
    label through `apply_step`.  The two must agree step for step."""

    @given(
        name=st.sampled_from(["rex", "peano", "TOWER", "CYCLE", "PAR", "DUO"]),
        make=st.sampled_from([all_steps, innermost, rightmost_innermost]),
        seed=st.integers(0, 2**32),
        depth=st.integers(1, 4),
    )
    # h(h(a,g(b)),h(g(b),g(a))): a run of 10 steps, and billions of
    # derivations of length 12 under all_steps.
    @example(name="PAR", make=all_steps, seed=0, depth=4)
    @settings(max_examples=150, deadline=None)
    def test_fires_what_replay_gives(self, rex, peano, name, make, seed, depth):
        th = {"rex": rex, "peano": peano}.get(name) or globals()[name]
        term = random_ground_term(random.Random(seed), th.signature, depth)
        zeta = make(th.rules)
        replay = IntensionalStrategy(zeta.choose, True, th.rules)
        steps = run_length(replay, term, 60)
        for d in extension(replay, term, 2):
            tr = traced(d.target)
            fired = zeta._steps(tr)
            want = [apply_step(d.target, lab, th.rules) for lab in zeta.sorted_choice(tr)]
            assert fired == want
            assert [step.label for step in fired] == zeta.sorted_choice(tr)
        for fuel in range(min(steps + 3, 4)):
            assert extension(zeta, term, fuel) == extension(replay, term, fuel)
        # Past fuel 3 the sets can grow exponentially.  Both strategies are
        # memoryless, so each set is fixed by the steps each distinct term
        # expands to: the walk's own expansion (its table's redexes, fired)
        # must equal the replay's, in order, at every term reachable within
        # the largest fuel, which checks every fuel at once.
        table, walk = _Table(zeta), Extension(zeta)._walk
        level, reached = [term], {term}
        for _ in range(steps + 3):
            later = []
            for u in level:
                want = replay._steps(traced(u))
                assert [step for _, step in walk(table.intern(u), 1, None, table)] == want
                for step in want:
                    if step.target not in reached:
                        reached.add(step.target)
                        later.append(step.target)
            level = later
        for fuel in range(steps + 3):
            assert nf_outcome(zeta, term, fuel) == nf_outcome(replay, term, fuel)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_table_agrees_with_unshared_code(self, rex, peano, data):
        # The walk's table shares each distinct subterm; judged node by node
        # against the plain code, which builds and walks each term whole.
        th = data.draw(st.sampled_from([rex, peano, TOWER, CYCLE, PAR, DUO]))
        zeta = data.draw(st.sampled_from([all_steps, innermost, rightmost_innermost]))(th.rules)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        term = random_ground_term(rng, th.signature, data.draw(st.integers(1, 4)))
        table = _Table(zeta)
        source = table.intern(term)
        walked = list(Extension(zeta)._walk(source, 3, None, table))
        expanded = [source] + [step.target for n, step in walked if n < 3]
        fired = {}  # id(source) -> {id(step): step}, in the walk's order
        for _, step in walked:
            fired.setdefault(id(step.source), {})[id(step)] = step
        for t in expanded:
            assert list(fired.get(id(t), {}).values()) == zeta._steps(traced(t))
        nodes = list(table._nodes.values())
        assert len(set(nodes)) == len(nodes)  # one node per distinct term
        held = {id(node) for node in nodes}
        assert all(id(arg) in held for node in nodes if type(node) is App for arg in node.args)
        for node in nodes:
            assert table.intern(parse_term(print_term(node), th.signature)) is node
            assert table.text(node) == print_term(node)
            redexes = [(_tuple_path(p), rule, b) for p, rule, b in table.redexes(node)]
            assert redexes == zeta.find(node)

    def test_table_prints_a_long_text_whole(self, peano):
        # A text longer than the table keeps below a node is printed whole
        # when first asked for, and kept for that node; the shorter texts
        # below it are kept.
        term = parse_term("s(" * 3000 + "plus(s(0),0)" + ")" * 3000, peano.signature)
        zeta = all_steps(peano.rules)
        table = _Table(zeta)
        steps = [step for _, step in Extension(zeta)._walk(table.intern(term), 2, None, table)]
        assert len(steps) == 2
        for t in (term, *(step.target for step in steps)):
            node = table.intern(t)
            assert table.text(node) == print_term(t)
            assert table.text(node) is table.text(node)
        assert len(table._long) == 3
        kept = [text for text in table._texts.values() if text]
        assert max(map(len, kept)) <= termstrat.ars._KEPT < len(print_term(term))


class TestExtension:
    def test_innermost_depth_one(self, rex):
        term = t(rex, "f(g(a))")
        got = extension(innermost(rex.rules), term, 1)
        assert got == {Derivation(term), deriv(rex, "f(g(a))", ((1, 1), "r1"))}

    def test_normal_form_only_empty(self, rex):
        term = t(rex, "b")
        for zeta in (all_steps(rex.rules), innermost(rex.rules)):
            assert extension(zeta, term, 5) == {Derivation(term)}

    def test_depth_zero(self, rex):
        term = t(rex, "f(g(a))")
        assert extension(all_steps(rex.rules), term, 0) == {Derivation(term)}

    def test_all_steps_equals_brute_tree(self, rex):
        rng = random.Random(47)
        for _ in range(20):
            term = random_ground_term(rng, rex.signature, 3)
            got = extension(all_steps(rex.rules), term, 3)
            assert got == set(brute_derivations(term, rex.rules, 3))

    def test_outputs_prefix_closed(self, rex):
        rng = random.Random(53)
        for zeta in (
            all_steps(rex.rules),
            innermost(rex.rules),
            rightmost_innermost(rex.rules),
            bounded(2, all_steps(rex.rules)),
        ):
            for _ in range(10):
                term = random_ground_term(rng, rex.signature, 3)
                assert is_prefix_closed(extension(zeta, term, 3))

    def test_every_step_is_a_choice_at_its_prefix(self, rex):
        zeta = innermost(rex.rules)
        term = t(rex, "plus(s(a),g(b))")
        for d in extension(zeta, term, 4):
            for i, step in enumerate(d.steps):
                tr = TracedObject.of_derivation(d.prefix(i))
                assert step.label in zeta.choose(tr)

    def test_contains_member(self, rex):
        ext = Extension(innermost(rex.rules))
        assert ext.contains(deriv(rex, "f(g(a))", ((1, 1), "r1")))

    def test_contains_rejects_other_strategy(self, rex):
        ext = Extension(innermost(rex.rules))
        assert not ext.contains(deriv(rex, "f(g(a))", ((), "r3")))

    def test_contains_rejects_forged_target(self, rex):
        from termstrat import RewriteStep

        good = deriv(rex, "a", ((), "r1")).steps[0]
        forged = RewriteStep(good.source, good.label, t(rex, "a"))
        d = Derivation(t(rex, "a"), (forged,))
        assert not Extension(all_steps(rex.rules)).contains(d)

    def test_coherence_with_proof_inference(self, rex):
        term = t(rex, "f(g(a))")
        for d in extension(all_steps(rex.rules), term, 3):
            seq = infer(from_derivation(d, rex.rules), rex.rules)
            assert (seq.source, seq.target) == (d.source, d.target)

    def test_memoryless_fires_each_distinct_step_once(self, peano, step_calls):
        term = parse_term(
            "plus(s(s(s(0))),plus(s(s(0)),plus(s(0),s(s(0)))))", peano.signature
        )
        ds = extension(all_steps(peano.rules), term, 10)
        pairs = {(step.source, step.label) for d in ds for step in d.steps}
        shared = {id(step) for d in ds for step in d.steps}
        assert len(ds) == 4025
        assert step_calls[0] == len(pairs) == len(shared) == 133

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_history_dependent_strategy_asked_at_every_prefix(self, rex, k):
        # k(k(a,a),a) reaches k(a,a) after one step and after two, so a
        # choice remembered per term would be wrong for `bounded`.
        kfst = load_theory("sig a/0 b/0 k/2\nrule ab : a => b\nrule fst : k(x,y) => x\n")
        zeta = bounded(k, all_steps(kfst.rules))
        term = parse_term("k(k(a,a),a)", kfst.signature)
        assert extension(zeta, term, 4) == naive_extension(zeta, term, 4)
        zeta = bounded(k, all_steps(rex.rules))
        rng = random.Random(59 + k)
        for _ in range(10):
            term = random_ground_term(rng, rex.signature, 3)
            assert extension(zeta, term, 4) == naive_extension(zeta, term, 4)

    def test_labels_differing_only_in_bindings(self, rex):
        # Ordered by their printed bindings, {x->a} before {x->b}; the
        # second does not replay, which is a StepMismatch, not a TypeError.
        def label(arg):
            return StepLabel(Position((1,)), "r2", Substitution.of({"x": t(rex, arg)}))

        zeta = memoryless(lambda _: frozenset({label("b"), label("a")}), rex.rules)
        term = t(rex, "f(g(a))")
        assert zeta.sorted_choice(traced(term)) == [label("a"), label("b")]
        with pytest.raises(StepMismatch):
            normal_forms_under(zeta, term, 10)
        with pytest.raises(StepMismatch):
            extension(zeta, term, 2)


class TestAbstractApplication:
    def test_empty_set(self, rex):
        assert apply_abstract(DerivationSet(), t(rex, "a"), 3) == set()

    def test_singleton_empty_derivation(self, rex):
        term = t(rex, "a")
        ds = DerivationSet([Derivation(term)])
        assert apply_abstract(ds, term, 3) == {term}

    def test_one_step_window(self, rex):
        term = t(rex, "f(a)")
        got = apply_abstract(Extension(all_steps(rex.rules)), term, 1)
        assert got == {t(rex, "f(a)"), t(rex, "g(a)"), t(rex, "f(b)")}

    def test_window_filters_length(self, rex):
        d2 = deriv(rex, "f(a)", ((), "r3"), ((), "r2"))
        ds = DerivationSet([d2, d2.prefix(1), d2.prefix(0)])
        assert apply_abstract(ds, t(rex, "f(a)"), 1) == {t(rex, "f(a)"), t(rex, "g(a)")}
        assert apply_abstract(ds, t(rex, "g(a)"), 2) == set()


class TestPrefixClosed:
    def test_closed_pair(self, rex):
        d = deriv(rex, "a", ((), "r1"))
        assert is_prefix_closed({Derivation(t(rex, "a")), d})

    def test_missing_intermediate(self, rex):
        d = deriv(rex, "f(a)", ((), "r3"), ((), "r2"))
        assert not is_prefix_closed({d})
        assert not is_prefix_closed({d, d.prefix(1)})
        assert is_prefix_closed({d, d.prefix(1), d.prefix(0)})

    def test_one_prefix_per_member(self, monkeypatch):
        th = load_theory("sig a/0\nrule loop : a => a\n")
        a = parse_term("a", th.signature)
        step = apply_step(a, all_redexes(a, th.rules)[0], th.rules)
        d = Derivation(a, (step,) * 200)
        members = [d.prefix(i) for i in range(201)]
        calls = [0]
        real = Derivation.prefix

        def counted(self, n):
            calls[0] += 1
            return real(self, n)

        monkeypatch.setattr(Derivation, "prefix", counted)
        assert is_prefix_closed(members) and calls[0] == 200
        assert not is_prefix_closed(members[:100] + members[101:])

    def test_empty_set_closed(self):
        assert is_prefix_closed(set())


class TestNormalForms:
    def test_peano_sum(self, rex):
        term = t(rex, "plus(s(s(0)),s(0))")
        got = normal_forms_under(rightmost_innermost(rex.rules), term, 100)
        assert got == {t(rex, "s(s(s(0)))")}

    def test_normal_form_is_its_own(self, rex):
        term = t(rex, "s(0)")
        for zeta in (all_steps(rex.rules), innermost(rex.rules)):
            assert normal_forms_under(zeta, term, 10) == {term}

    def test_constant_chain(self, rex):
        assert normal_forms_under(all_steps(rex.rules), t(rex, "a"), 10) == {
            t(rex, "b")
        }

    def test_confluent_here_despite_branching(self, rex):
        got = normal_forms_under(all_steps(rex.rules), t(rex, "f(g(a))"), 200)
        assert got == {t(rex, "b")}

    def test_fuel_exhaustion(self, rex):
        term = t(rex, "plus(s(0),0)")
        with pytest.raises(FuelExhausted):
            normal_forms_under(rightmost_innermost(rex.rules), term, 0)

    def test_pass_prints_only_when_out_of_fuel(self, peano, monkeypatch):
        # The out-of-fuel message names the start term; a run the pass
        # finishes never prints it, and one that runs out prints it once.
        calls = [0]
        real = termstrat.rules.print_term

        def counted(term):
            calls[0] += 1
            return real(term)

        monkeypatch.setattr(termstrat.rules, "print_term", counted)
        monkeypatch.setattr(termstrat.ars, "print_term", counted)
        term = t(peano, "plus(s(s(0)),s(0))")
        for zeta in (rightmost_innermost(peano.rules), innermost(peano.rules)):
            assert normal_forms_under(zeta, term, 100) == {t(peano, "s(s(s(0)))")}
        assert calls[0] == 0
        with pytest.raises(FuelExhausted) as exc:
            normal_forms_under(rightmost_innermost(peano.rules), term, 1)
        assert str(exc.value) == (
            "normal-form search from plus(s(s(0)),s(0)) ran out of fuel"
        )
        assert calls[0] == 1

    def test_cycle_with_memoryless_dedup_terminates(self):
        th = load_theory("sig a/0\nrule loop : a => a\n")
        a = parse_term("a", th.signature)
        assert normal_forms_under(all_steps(th.rules), a, 50) == set()

    def test_cycle_without_dedup_exhausts(self):
        th = load_theory("sig a/0\nrule loop : a => a\n")
        a = parse_term("a", th.signature)
        base = all_steps(th.rules)
        history_sensitive = IntensionalStrategy(base.choose, False, th.rules)
        with pytest.raises(FuelExhausted):
            normal_forms_under(history_sensitive, a, 50)

    @pytest.mark.parametrize("n", [25, 50])
    def test_rightmost_innermost_match_work_is_linear(self, peano, match_calls, n):
        # Each of the n `ps` steps tries p0 and ps at the one plus node; the
        # final `p0` step tries p0: 2n + 1.  Nothing is matched twice, and
        # no `s` node is matched at all.  Replaying each chosen step costs
        # n + 1 more; scanning every node with every rule about 4n^2.
        num = "s(" * n + "0" + ")" * n
        term = t(peano, f"plus({num},{num})")
        got = normal_forms_under(rightmost_innermost(peano.rules), term, 10 * n)
        assert got == {t(peano, "s(" * 2 * n + "0" + ")" * 2 * n)}
        assert match_calls[0] == 2 * n + 1

    def test_rightmost_innermost_builds_no_checked_node(self, peano, monkeypatch):
        # Every node the pass builds has its symbol's arity by construction,
        # so none goes through the checks of `App.__init__`.
        num = "s(" * 50 + "0" + ")" * 50
        term, want = t(peano, f"plus({num},{num})"), t(peano, "s(" * 100 + "0" + ")" * 100)
        calls, real = [0], App.__init__

        def counted(self, *args):
            calls[0] += 1
            real(self, *args)

        monkeypatch.setattr(App, "__init__", counted)
        assert normal_forms_under(rightmost_innermost(peano.rules), term, 500) == {want}
        assert calls[0] == 0
        App(term.symbol, term.args)
        assert calls[0] == 1

    def test_rightmost_innermost_cycle_found_early(self, match_calls):
        # plus(a,b) -ab-> plus(b,b) -comm-> plus(b,b): the pass stops when the
        # redex plus(b,b) comes back (3 matches).  Running the pass out to
        # twice the fuel would cost 2 * 10^4 matches.
        term = parse_term("plus(a,b)", CYCLE.signature)
        assert normal_forms_under(rightmost_innermost(CYCLE.rules), term, 10**4) == set()
        assert 0 < match_calls[0] <= 7

    def test_rightmost_innermost_cycle_decided_without_search(self, step_calls):
        # 51 steps normalize the sum, and the 52nd, a -> a, repeats the term:
        # the pass sees a come back at step 53, first seen at step 52.
        num = "s(" * 50 + "0" + ")" * 50
        term = parse_term(f"pair(a,plus({num},0))", LOOP.signature)
        assert normal_forms_under(rightmost_innermost(LOOP.rules), term, 52) == set()
        with pytest.raises(FuelExhausted):
            normal_forms_under(rightmost_innermost(LOOP.rules), term, 51)
        assert step_calls[0] == 0

    @pytest.mark.parametrize(
        "fuel, want, searched",
        [(1, None, 0), (2, set(), 2), (3, set(), 0)],
        ids=["exhausted", "searched", "decided"],
    )
    def test_rightmost_innermost_cycle_window(self, step_calls, fuel, want, searched):
        # f(a) -ab-> f(b) -back-> f(a): the term first repeats at step 2.  The
        # pass sees f(b) come back at the root at step 4, first seen at step 2,
        # so only fuel 2 is left to the search.
        zeta, term = rightmost_innermost(BACK.rules), parse_term("f(a)", BACK.signature)
        if want is None:
            with pytest.raises(FuelExhausted):
                normal_forms_under(zeta, term, fuel)
        else:
            assert normal_forms_under(zeta, term, fuel) == want
        assert step_calls[0] == searched

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rightmost_innermost_agrees_with_search(self, rex, peano, data):
        # rightmost_innermost(rs) runs a bottom-up pass; a strategy built
        # from its chooser alone runs the breadth-first search, step by step.
        th = data.draw(st.sampled_from([rex, peano, TOWER, CYCLE, LOOP, BACK]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        term = random_ground_term(rng, th.signature, data.draw(st.integers(1, 5)))
        fast = rightmost_innermost(th.rules)
        search = IntensionalStrategy(fast.choose, True, th.rules)
        steps = run_length(search, term, 60)
        for fuel in range(-1, steps + 3):
            assert nf_outcome(fast, term, fuel) == nf_outcome(search, term, fuel)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_innermost_agrees_with_search(self, rex, peano, data):
        # innermost(rs) runs the bottom-up pass while each step is its only
        # choice, and the search from the start once it is not; a strategy
        # built from its chooser alone always runs the search.
        th = data.draw(st.sampled_from([rex, peano, TOWER, CYCLE, LOOP, BACK, TWIN, PAR]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        term = random_ground_term(rng, th.signature, data.draw(st.integers(1, 5)))
        fast = innermost(th.rules)
        search = IntensionalStrategy(fast.choose, True, th.rules)
        steps = run_length(search, term, 60)
        for fuel in range(-1, steps + 3):
            assert nf_outcome(fast, term, fuel) == nf_outcome(search, term, fuel)

    @pytest.mark.parametrize("make", [rightmost_innermost, innermost], ids=["rightmost", "innermost"])
    @pytest.mark.parametrize("n", [50, 500])
    def test_pass_builds_two_nodes_per_step(self, peano, unchecked_builds, make, n):
        # Each of the n `ps` steps builds s(plus(x,y)), two nodes; the final
        # `p0` step builds none, and no node of the input is rebuilt.
        num = "s(" * n + "0" + ")" * n
        term, want = t(peano, f"plus({num},{num})"), t(peano, "s(" * 2 * n + "0" + ")" * 2 * n)
        unchecked_builds[0] = 0
        assert normal_forms_under(make(peano.rules), term, 10 * n) == {want}
        assert unchecked_builds[0] == 2 * n

    @pytest.mark.parametrize("make", [rightmost_innermost, innermost], ids=["rightmost", "innermost"])
    @pytest.mark.parametrize("fuel", range(8))
    def test_sibling_redexes_in_a_right_hand_side(self, make, fuel):
        # k -top-> h(b,g(g(g(a)))) -ga->^3 h(b,a) -bb-> h(b,a): the right
        # sibling's three steps come before the left one's, which repeats
        # the term at step 5.  Building the instance left to right would
        # fire bb at step 2.
        zeta, term = make(SIBLINGS.rules), parse_term("k", SIBLINGS.signature)
        search = IntensionalStrategy(zeta.choose, True, SIBLINGS.rules)
        assert nf_outcome(zeta, term, fuel) == nf_outcome(search, term, fuel)

    @given(seed=st.integers(0, 2**32), count=st.integers(3, 5), depth=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_random_rules_agree_with_search(self, seed, count, depth):
        # Right sides of every shape, siblings that both hold redexes
        # included, which the fixed theories above lack.
        rng = random.Random(seed)
        rules = random_rules(rng, SIBLINGS.signature, count)
        term = random_ground_term(rng, SIBLINGS.signature, depth)
        for make in (rightmost_innermost, innermost):
            fast = make(rules)
            search = IntensionalStrategy(fast.choose, True, rules)
            steps = run_length(search, term, 30)
            for fuel in range(-1, steps + 3):
                assert nf_outcome(fast, term, fuel) == nf_outcome(search, term, fuel)

    @pytest.mark.parametrize("n", [25, 50])
    def test_innermost_single_path_runs_the_pass(self, peano, match_calls, step_calls, n):
        # Each step is the only innermost redex, so the pass runs to the end:
        # the 2n + 1 matches of rightmost-innermost, plus `ps` tried after
        # `p0` matched at the last step.  The waiting left operand s^n(0)
        # has no node any rule is indexed under.
        num = "s(" * n + "0" + ")" * n
        term = t(peano, f"plus({num},{num})")
        got = normal_forms_under(innermost(peano.rules), term, 10 * n)
        assert got == {t(peano, "s(" * 2 * n + "0" + ")" * 2 * n)}
        assert step_calls[0] == 0
        assert match_calls[0] == 2 * n + 2

    @pytest.mark.parametrize(
        "theory, source, want",
        [
            ("peano", "plus(plus(N,N),plus(N,N))", {"s(s(s(s(s(s(s(s(s(s(s(s(0))))))))))))"}),
            ("TWIN", "f(f(a))", {"a", "b"}),
            ("PAR", "h(a,h(a,b))", {"h(b,h(b,b))"}),
            ("PAR", "g(h(b,h(b,a)))", {"h(b,b)"}),
        ],
        ids=["parallel-sums", "two-rules", "parallel-constants", "late"],
    )
    def test_innermost_several_choices_fall_back(self, peano, step_calls, theory, source, want):
        # Two innermost redexes (or two rules at one): the pass gives up
        # there and the search runs from the start.  In the last case the
        # pass first fires a -> b three levels down, then `split` at the
        # root, and gives up at h(a,a), whose left a waits on the stack.
        th = peano if theory == "peano" else globals()[theory]
        term = t(th, source.replace("N", "s(s(s(0)))"))
        fast = innermost(th.rules)
        search = IntensionalStrategy(fast.choose, True, th.rules)
        assert normal_forms_under(fast, term, 1000) == {t(th, w) for w in want}
        assert step_calls[0] > 0
        for fuel in range(-1, 12):
            assert nf_outcome(fast, term, fuel) == nf_outcome(search, term, fuel)


@pytest.fixture
def match_calls(monkeypatch):
    """A one-item list counting the calls to the matcher of `rules.py`,
    which the redex walk and the bottom-up pass call."""
    calls = [0]
    real = termstrat.rules._match

    def counted(pattern, subject):
        calls[0] += 1
        return real(pattern, subject)

    monkeypatch.setattr(termstrat.rules, "_match", counted)
    return calls


@pytest.fixture
def step_calls(monkeypatch):
    """A one-item list counting fired steps: calls to `_fire`, through
    which the built-in strategies fire the redexes they find, and
    `apply_step` fires every other strategy's labels.  The bottom-up pass
    fires none."""
    calls = [0]
    real = termstrat.rules._fire

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(termstrat.rules, "_fire", counted)
    monkeypatch.setattr(termstrat.ars, "_fire", counted)
    return calls


TOWER = load_theory("sig a/0 f/1\nrule u : f(x) => x\n")
CYCLE = load_theory("sig a/0 b/0 plus/2\nrule comm : plus(x,y) => plus(y,x)\nrule ab : a => b\n")
BACK = load_theory("sig a/0 b/0 f/1\nrule ab : a => b\nrule back : f(b) => f(a)\n")
TWIN = load_theory("sig a/0 b/0 f/1\nrule r1 : f(x) => a\nrule r2 : f(x) => b\n")
PAR = load_theory("sig a/0 b/0 g/1 h/2\nrule ab : a => b\nrule split : g(x) => h(a,a)\n")
# A right-hand side whose two siblings both hold redexes.
SIBLINGS = load_theory(
    "sig k/0 a/0 b/0 g/1 h/2\n"
    "rule top : k => h(b,g(g(g(a))))\nrule ga : g(a) => a\nrule bb : b => b\n"
)
# Two rules at one node, declared against the order of their labels.
DUO = load_theory("sig a/0 b/0 f/1\nrule rb : f(x) => b\nrule ra : f(x) => a\nrule ab : a => b\n")
LOOP = load_theory(
    "sig 0/0 s/1 plus/2 a/0 pair/2\n"
    "rule p0 : plus(0,y) => y\nrule ps : plus(s(x),y) => s(plus(x,y))\nrule loop : a => a\n"
)


def naive_extension(zeta, term, max_len):
    """The derivations of length <= max_len whose every step the strategy
    chooses at the traced prefix before it, built level by level."""
    level = [Derivation(term)]
    out = set(level)
    for _ in range(max_len):
        level = [
            Derivation(d.source, d.steps + (apply_step(d.target, lab, zeta.rules),))
            for d in level
            for lab in zeta.choose(TracedObject.of_derivation(d))
        ]
        out.update(level)
    return out


def run_length(zeta, term, cap):
    """Steps of a deterministic strategy from `term` until it stops or
    repeats a term, counting the step that repeats it; at most `cap`."""
    seen = {term}
    for n in range(cap):
        choice = zeta.sorted_choice(traced(term))
        if not choice:
            return n
        term = apply_step(term, choice[0], zeta.rules).target
        if term in seen:
            return n + 1
        seen.add(term)
    return cap


def nf_outcome(zeta, term, fuel):
    """The normal forms, or the message of the FuelExhausted raised instead."""
    try:
        return normal_forms_under(zeta, term, fuel)
    except FuelExhausted as e:
        return str(e)
