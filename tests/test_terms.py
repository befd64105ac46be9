from __future__ import annotations

import copy
import itertools
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from termstrat import (
    App,
    ArityError,
    InvalidPosition,
    ParseError,
    Position,
    ROOT,
    Signature,
    Substitution,
    Symbol,
    UnknownSymbol,
    Var,
    apply_subst,
    match,
    parse_term,
    positions,
    print_term,
    replace_at,
    subterm_at,
    subterms,
    variables,
)
from gen import naive_match


def t(rex, text):
    return parse_term(text, rex.signature)


def term_exprs(sig: Signature, var_names=("x", "y")):
    syms = sorted(sig, key=lambda s: s.name)
    leaves = st.sampled_from(
        [App(s) for s in syms if s.arity == 0] + [Var(v) for v in var_names]
    )
    unary = [s for s in syms if s.arity == 1]
    binary = [s for s in syms if s.arity == 2]

    def extend(inner):
        return st.one_of(
            st.tuples(st.sampled_from(unary), inner).map(
                lambda p: App(p[0], (p[1],))
            ),
            st.tuples(st.sampled_from(binary), inner, inner).map(
                lambda p: App(p[0], (p[1], p[2]))
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestConstruction:
    def test_symbol_validation(self):
        assert str(Symbol("f", 1)) == "f/1"
        assert Symbol("0", 0).name == "0"
        with pytest.raises(ValueError):
            Symbol("", 0)
        with pytest.raises(ValueError):
            Symbol("1bad", 0)
        with pytest.raises(ValueError):
            Symbol("f", -1)

    def test_var_validation(self):
        assert str(Var("x")) == "x"
        with pytest.raises(ValueError):
            Var("0")
        with pytest.raises(ValueError):
            Var("_x")

    def test_app_arity(self):
        f = Symbol("f", 1)
        assert App(f, (App(Symbol("a", 0)),)).symbol is f
        with pytest.raises(ArityError):
            App(f, ())

    def test_hash_is_structural_at_any_depth(self):
        s, zero = Symbol("s", 1), App(Symbol("0", 0))
        deep = []
        for _ in range(2):
            term = zero
            for _ in range(10_000):
                term = App(s, (term,))
            deep.append(term)
        assert deep[0] is not deep[1]
        assert hash(deep[0]) == hash(deep[1])
        assert print_term(deep[0]) == "s(" * 10_000 + "0" + ")" * 10_000

    def test_equality_at_any_depth(self):
        s, zero = Symbol("s", 1), App(Symbol("0", 0))
        deep = []
        for n in (10_000, 10_000, 9_999):
            term = zero
            for _ in range(n):
                term = App(s, (term,))
            deep.append(term)
        assert deep[0] is not deep[1]
        assert deep[0] == deep[1] and not deep[0] != deep[1]
        assert deep[0] != deep[2] and deep[0] != App(s, (Var("x"),))
        assert deep[0] != Var("x") and deep[0] != "s"

    def test_pickle_rebuilds_the_hash(self, rex):
        term = t(rex, "h(f(a),plus(s(0),x))")
        data = pickle.dumps(term)
        assert b"_hash" not in data
        back = pickle.loads(data)
        assert back == term and hash(back) == hash(term)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_repr_is_the_generated_one(self, rex, data):
        def generated(term):
            # what a dataclass `__repr__` prints, recursively
            if isinstance(term, Var):
                return repr(term)
            args = ", ".join(map(generated, term.args))
            comma = "," if len(term.args) == 1 else ""
            return f"App(symbol={term.symbol!r}, args=({args}{comma}))"

        term = data.draw(term_exprs(rex.signature))
        assert repr(term) == generated(term)
        assert repr(t(rex, "h(f(a),x)")) == (
            "App(symbol=Symbol(name='h', arity=2), args=("
            "App(symbol=Symbol(name='f', arity=1), args=("
            "App(symbol=Symbol(name='a', arity=0), args=()),)), Var(name='x')))"
        )

    def test_repr_at_any_depth(self, rex):
        term = t(rex, "f(" * 10_000 + "a" + ")" * 10_000)
        assert repr(term) == (
            "App(symbol=Symbol(name='f', arity=1), args=(" * 10_000
            + "App(symbol=Symbol(name='a', arity=0), args=())"
            + ",))" * 10_000
        )

    @pytest.mark.parametrize(
        "text",
        [
            "s(" * 10_000 + "0" + ")" * 10_000,
            "h(x," * 10_000 + "b" + ")" * 10_000,
            "h(" * 10_000 + "a" + ",y)" * 10_000,
        ],
        ids=["unary", "right-nested", "left-nested"],
    )
    def test_pickle_and_deepcopy_at_any_depth(self, rex, text):
        term = t(rex, text)
        data = pickle.dumps(term)
        assert b"_hash" not in data
        for back in (pickle.loads(data), copy.deepcopy(term)):
            assert back is not term and back == term and hash(back) == hash(term)
            assert print_term(back) == text

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_unchecked_app_is_the_checked_one(self, rex, data):
        term = data.draw(term_exprs(rex.signature))
        assume(type(term) is App)
        node = App._unchecked(term.symbol, term.args)
        assert type(node) is App and node is not term
        assert node == term and hash(node) == hash(term)
        for back in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
            assert back is not node and back == node and hash(back) == hash(node)

    def test_signature_rejects_conflicting_redeclaration(self):
        sig = Signature([Symbol("f", 1)])
        sig.add(Symbol("f", 1))
        with pytest.raises(ValueError):
            sig.add(Symbol("f", 2))


class TestPositions:
    def test_constant_has_only_root(self, rex):
        assert positions(t(rex, "a")) == [ROOT]

    def test_nested_unary(self, rex):
        assert positions(t(rex, "f(g(a))")) == [
            ROOT,
            Position((1,)),
            Position((1, 1)),
        ]

    def test_binary_with_var(self, rex):
        assert positions(t(rex, "h(x,b)")) == [ROOT, Position((1,)), Position((2,))]

    def test_count_equals_node_count(self, rex):
        term = t(rex, "h(f(g(a)),plus(0,s(0)))")
        assert len(positions(term)) == 8

    def test_lexicographic_order(self, rex):
        term = t(rex, "h(h(a,b),a)")
        paths = [p.path for p in positions(term)]
        assert paths == sorted(paths)

    def test_prefix_and_below(self):
        p, q = Position((1,)), Position((1, 2))
        assert p.is_prefix_of(q) and not q.is_prefix_of(p)
        assert q.is_below(p) and not p.is_below(q)
        assert not p.is_below(p)
        assert ROOT.is_prefix_of(p)

    def test_str_forms(self):
        assert str(ROOT) == "e"
        assert str(Position((1, 2))) == "1.2"

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            Position((0,))
        with pytest.raises(ValueError):
            Position((1, 0))
        with pytest.raises(ValueError):
            ROOT.child(0)
        with pytest.raises(ValueError):
            Position((2,)).child(-1)

    def test_child_extends_path(self):
        assert ROOT.child(2).child(1) == Position((2, 1))


class TestSubtermReplace:
    def test_root_is_identity(self, rex):
        term = t(rex, "f(g(a))")
        assert subterm_at(term, ROOT) == term

    def test_deep_subterm(self, rex):
        assert subterm_at(t(rex, "f(g(a))"), Position((1, 1))) == t(rex, "a")

    def test_invalid_position(self, rex):
        with pytest.raises(InvalidPosition):
            subterm_at(t(rex, "f(g(a))"), Position((2,)))

    def test_replace_deep(self, rex):
        got = replace_at(t(rex, "f(g(a))"), Position((1, 1)), t(rex, "b"))
        assert got == t(rex, "f(g(b))")

    def test_replace_root(self, rex):
        assert replace_at(t(rex, "a"), ROOT, t(rex, "f(b)")) == t(rex, "f(b)")

    def test_replace_invalid(self, rex):
        with pytest.raises(InvalidPosition):
            replace_at(t(rex, "f(a)"), Position((1, 1)), t(rex, "b"))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_replace_subterm_roundtrip(self, rex, data):
        term = data.draw(term_exprs(rex.signature))
        for p in positions(term):
            assert replace_at(term, p, subterm_at(term, p)) == term

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_positions_preserved_outside_replacement(self, rex, data):
        term = data.draw(term_exprs(rex.signature))
        repl = data.draw(term_exprs(rex.signature))
        p = data.draw(st.sampled_from(positions(term)))
        after = set(positions(replace_at(term, p, repl)))
        kept = {q for q in positions(term) if not q.is_below(p) and q != p}
        assert kept <= after


class TestMatch:
    def test_variable_matches_anything(self, rex):
        sigma = match(Var("x"), t(rex, "g(a)"))
        assert sigma == Substitution.of({"x": t(rex, "g(a)")})

    def test_nonlinear_agreeing(self, rex):
        sigma = match(t(rex, "h(x,x)"), t(rex, "h(a,a)"))
        assert sigma == Substitution.of({"x": t(rex, "a")})

    def test_nonlinear_conflicting(self, rex):
        assert match(t(rex, "h(x,x)"), t(rex, "h(a,b)")) is None

    def test_equal_symbols_need_not_be_identical(self):
        a = App(Symbol("a", 0))
        pattern = App(Symbol("f", 1), (Var("x"),))
        assert match(pattern, App(Symbol("f", 1), (a,))) == Substitution.of({"x": a})
        assert match(pattern, App(Symbol("g", 1), (a,))) is None
        assert match(pattern, App(Symbol("f", 2), (a, a))) is None

    def test_subject_vars_are_rigid(self, rex):
        assert match(t(rex, "a"), Var("x")) is None
        sigma = match(Var("y"), Var("x"))
        assert sigma is not None and sigma.get("y") == Var("x")

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_soundness(self, rex, data):
        pattern = data.draw(term_exprs(rex.signature))
        binding = {
            v: data.draw(term_exprs(rex.signature, var_names=("z",)))
            for v in variables(pattern)
        }
        subject = apply_subst(Substitution.of(binding), pattern)
        sigma = match(pattern, subject)
        assert sigma is not None
        assert apply_subst(sigma, pattern) == subject

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_naive_match(self, rex, data):
        # Patterns may be nonlinear or a variable; subjects may be open, and
        # are half the time an instance of the pattern, so that both
        # outcomes are common.  An instance is read back from its text, so
        # the occurrences of a repeated variable are equal, not identical.
        pattern = data.draw(term_exprs(rex.signature))
        if data.draw(st.booleans()):
            subject = data.draw(term_exprs(rex.signature, var_names=("x", "z")))
        else:
            binding = {
                v: data.draw(term_exprs(rex.signature, var_names=("x", "z")))
                for v in variables(pattern)
            }
            subject = t(rex, print_term(apply_subst(Substitution.of(binding), pattern)))
        want = naive_match(pattern, subject)
        assert match(pattern, subject) == (None if want is None else Substitution.of(want))

    def test_depth_ten_thousand(self, rex):
        # Pattern and subject 10^4 deep, at the default recursion limit; the
        # nonlinear pattern compares two equal 10^4-deep subterms.
        deep = lambda n, leaf: "f(" * n + leaf + ")" * n
        pattern = t(rex, deep(10_000, "h(x,x)"))
        assert match(pattern, t(rex, deep(10_000, "h(a,a)"))) == Substitution.of({"x": t(rex, "a")})
        assert match(pattern, t(rex, deep(10_000, "h(a,b)"))) is None
        assert match(pattern, t(rex, deep(9_999, "h(a,a)"))) is None
        a, b = deep(10_000, "a"), deep(10_000, "b")
        want = Substitution.of({"x": t(rex, a)})
        assert match(t(rex, "h(x,x)"), t(rex, f"h({a},{a})")) == want
        assert match(t(rex, "h(x,x)"), t(rex, f"h({a},{b})")) is None

    def test_most_generality_exhaustive_small_scale(self):
        sig = Signature(
            [Symbol("c", 0), Symbol("d", 0), Symbol("u", 1), Symbol("m", 2)]
        )

        def terms_upto(depth, leaves):
            acc = set(leaves)
            for _ in range(depth - 1):
                acc |= {App(sig.lookup("u"), (x,)) for x in acc} | {
                    App(sig.lookup("m"), (x, y)) for x in acc for y in acc
                }
            return acc

        consts = [App(sig.lookup("c")), App(sig.lookup("d"))]
        patterns = terms_upto(3, consts + [Var("x"), Var("y")])
        subjects = terms_upto(3, consts)
        for pattern in patterns:
            pvars = variables(pattern)
            for subject in subjects:
                candidates = []
                pieces = {s for _, s in subterms(subject)}
                for combo in itertools.product(sorted(pieces, key=str), repeat=len(pvars)):
                    sigma = Substitution.of(dict(zip(pvars, combo)))
                    if apply_subst(sigma, pattern) == subject:
                        candidates.append(sigma)
                got = match(pattern, subject)
                if got is None:
                    assert candidates == []
                else:
                    assert candidates == [got]


class TestSubstitution:
    def test_apply_nonlinear(self, rex):
        sigma = Substitution.of({"x": t(rex, "a")})
        assert apply_subst(sigma, t(rex, "h(x,x)")) == t(rex, "h(a,a)")

    def test_empty_is_identity(self, rex):
        term = t(rex, "f(g(x))")
        assert apply_subst(Substitution(), term) == term

    def test_unbound_unchanged(self, rex):
        sigma = Substitution.of({"x": t(rex, "a")})
        assert apply_subst(sigma, Var("y")) == Var("y")

    def test_simultaneous_not_sequential(self, rex):
        sigma = Substitution.of({"x": Var("y"), "y": t(rex, "a")})
        assert apply_subst(sigma, t(rex, "h(x,y)")) == App(
            rex.signature.lookup("h"), (Var("y"), t(rex, "a"))
        )

    def test_apply_at_depth(self, rex):
        pattern = t(rex, "h(x," * 10_000 + "f(y)" + ")" * 10_000)
        sigma = Substitution.of({"x": t(rex, "a"), "y": t(rex, "g(b)")})
        want = "h(a," * 10_000 + "f(g(b))" + ")" * 10_000
        assert print_term(apply_subst(sigma, pattern)) == want

    def test_canonical_equality(self, rex):
        s1 = Substitution((("x", t(rex, "a")), ("y", t(rex, "b"))))
        s2 = Substitution((("y", t(rex, "b")), ("x", t(rex, "a"))))
        assert s1 == s2 and hash(s1) == hash(s2)

    def test_duplicate_binding_rejected(self, rex):
        with pytest.raises(ValueError):
            Substitution((("x", t(rex, "a")), ("x", t(rex, "b"))))

    def test_str(self, rex):
        sigma = Substitution.of({"y": t(rex, "b"), "x": t(rex, "a")})
        assert str(sigma) == "{x->a,y->b}"


class TestVariables:
    def test_first_occurrence_order(self, rex):
        assert variables(t(rex, "h(y,h(x,y))")) == ("y", "x")

    def test_ground_term(self, rex):
        assert variables(t(rex, "f(a)")) == ()


class TestParsePrint:
    def test_structure(self, rex):
        f = rex.signature.lookup("f")
        g = rex.signature.lookup("g")
        a = rex.signature.lookup("a")
        assert t(rex, "f(g(a))") == App(f, (App(g, (App(a),)),))

    def test_arity_error(self, rex):
        with pytest.raises(ArityError):
            t(rex, "f(a,b)")
        with pytest.raises(ArityError):
            t(rex, "f")

    def test_undeclared_ident_is_var(self, rex):
        assert t(rex, "x") == Var("x")

    def test_nullary_parens_accepted(self, rex):
        assert t(rex, "a()") == t(rex, "a")
        assert print_term(t(rex, "a()")) == "a"

    def test_declared_numeral_constant(self, rex):
        assert t(rex, "0") == App(rex.signature.lookup("0"))

    def test_undeclared_numeral_rejected(self, rex):
        with pytest.raises(UnknownSymbol):
            t(rex, "7")

    def test_undeclared_head_rejected(self, rex):
        with pytest.raises(UnknownSymbol):
            t(rex, "q(a)")

    def test_whitespace_insignificant(self, rex):
        assert t(rex, " h( a , b ) ") == t(rex, "h(a,b)")

    def test_error_carries_position(self, rex):
        with pytest.raises(ParseError) as exc:
            t(rex, "f(a")
        assert exc.value.line == 1 and exc.value.col is not None

    def test_trailing_garbage_rejected(self, rex):
        with pytest.raises(ParseError):
            t(rex, "a b")

    def test_print_forms(self, rex):
        assert print_term(Var("x")) == "x"
        assert print_term(t(rex, "a")) == "a"
        assert print_term(t(rex, "f(g(a))")) == "f(g(a))"
        assert print_term(t(rex, "h(a,b)")) == "h(a,b)"
        assert print_term(t(rex, "h(f(x),h(a,g(b)))")) == "h(f(x),h(a,g(b)))"
        # runs of unary nodes, each closed by one item, over a variable or a pair
        assert print_term(t(rex, "g(f(x))")) == "g(f(x))"
        assert print_term(t(rex, "f(g(h(f(f(a)),g(x))))")) == "f(g(h(f(f(a)),g(x))))"

    @pytest.mark.parametrize("n", [50, 500])
    def test_constants_are_shared_per_read(self, rex, unchecked_builds, n):
        # plus, the 2n s nodes and one 0: a constant is built once per read
        # and shared, so the bottom-up pass meets each constant as one node.
        num = "s(" * n + "0" + ")" * n
        term = t(rex, f"plus({num},{num})")
        assert unchecked_builds[0] == 2 * n + 2
        zeros = []
        for arg in term.args:
            while arg.args:
                arg = arg.args[0]
            zeros.append(arg)
        assert zeros[0] is zeros[1] == t(rex, "0")
        assert t(rex, "0") is not zeros[0]  # shared within one read only

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, rex, data):
        term = data.draw(term_exprs(rex.signature))
        assert parse_term(print_term(term), rex.signature) == term

    @pytest.mark.parametrize(
        "text",
        [
            "s(" * 10_000 + "0" + ")" * 10_000,
            "h(a," * 10_000 + "b" + ")" * 10_000,
            "h(" * 10_000 + "a" + ",b)" * 10_000,
        ],
        ids=["unary", "right-nested", "left-nested"],
    )
    def test_roundtrip_at_depth(self, rex, text):
        assert print_term(t(rex, text)) == text
