from __future__ import annotations

import pytest

from termstrat import (
    Fail,
    First,
    ParseError,
    Repeat,
    RuleRef,
    UnboundSVar,
    UnknownSymbol,
    eval_strategy,
    load_theory,
    parse_term,
    print_strategy,
)
from termstrat.strategies import Value


class TestLoad:
    def test_rex_file(self):
        with open("docs/rex.trs") as fh:
            th = load_theory(fh.read())
        assert {s.name for s in th.signature} >= {"a", "b", "f", "g", "h"}
        assert [r.label for r in th.rules] == ["r1", "r2", "r3", "p0", "ps"]
        assert th.strategies["unwrap"] == Repeat(
            First(RuleRef("r3"), RuleRef("r2"))
        )

    def test_named_strategy_runs(self):
        with open("docs/rex.trs") as fh:
            th = load_theory(fh.read())
        term = parse_term("f(f(a))", th.signature)
        got = eval_strategy(th.strategies["unwrap"], term, th.rules)
        assert got == Value(parse_term("a", th.signature))

    def test_interleaving_allowed(self):
        th = load_theory(
            "sig a/0\n"
            "rule r : a => a\n"
            "sig b/0\n"
            "rule q : b => a\n"
            "strat s1 = first(r,q)\n"
            "sig c/1\n"
            "strat s2 = try(s1)\n"
        )
        assert [r.label for r in th.rules] == ["r", "q"]
        assert set(th.strategies) == {"s1", "s2"}

    def test_comments_and_blanks(self):
        th = load_theory("# header\n\nsig a/0\n  # indented comment\n\nrule r : a => a\n")
        assert [r.label for r in th.rules] == ["r"]

    def test_empty_text(self):
        th = load_theory("")
        assert list(th.signature) == [] and list(th.rules) == []


class TestOrderSensitivity:
    def test_rule_cannot_use_later_symbol(self):
        with pytest.raises(UnknownSymbol):
            load_theory("sig a/0\nrule r : a => wrap(a)\nsig wrap/1\n")

    def test_later_constant_reads_as_unbound_var(self):
        # A bare lowercase name falls back to a variable, so referencing a
        # constant declared further down trips the rhs-variable check instead.
        with pytest.raises(ParseError) as exc:
            load_theory("sig a/0\nrule r : a => b\nsig b/0\n")
        assert "unbound" in str(exc.value)

    def test_strat_cannot_use_later_rule(self):
        with pytest.raises(UnboundSVar):
            load_theory("sig a/0\nstrat s = r\nrule r : a => a\n")

    def test_strat_may_splice_earlier_strat(self):
        th = load_theory(
            "sig a/0 b/0\nrule r : a => b\nstrat s1 = try(r)\nstrat s2 = seq(s1,s1)\n"
        )
        from termstrat import Seq, Try

        assert th.strategies["s2"] == Seq(Try(RuleRef("r")), Try(RuleRef("r")))


class TestDiagnostics:
    def test_line_numbers_in_errors(self):
        with pytest.raises(ParseError) as exc:
            load_theory("sig a/0\nrule r : a =>\n")
        assert exc.value.line == 2

    def test_column_reported(self):
        with pytest.raises(UnknownSymbol) as exc:
            load_theory("sig a/0\nrule r : a => zap(a)\n")
        assert exc.value.line == 2 and exc.value.col == 15

    def test_unknown_head_keyword(self):
        with pytest.raises(ParseError) as exc:
            load_theory("sig a/0\nfoo bar\n")
        assert exc.value.line == 2

    def test_sig_needs_pairs(self):
        with pytest.raises(ParseError):
            load_theory("sig\n")

    def test_malformed_sig_pair(self):
        with pytest.raises(ParseError):
            load_theory("sig a/x\n")


class TestConflicts:
    def test_duplicate_rule_label(self):
        with pytest.raises(ParseError) as exc:
            load_theory("sig a/0 b/0\nrule r : a => b\nrule r : b => a\n")
        assert "r" in str(exc.value)

    def test_duplicate_strat_name(self):
        with pytest.raises(ParseError):
            load_theory("sig a/0\nrule r : a => a\nstrat s = r\nstrat s = id\n")

    def test_strat_name_collides_with_rule(self):
        with pytest.raises(ParseError):
            load_theory("sig a/0\nrule r : a => a\nstrat r = id\n")

    def test_rule_label_collides_with_strat(self):
        # Checked at the label, before the sides: the rule would otherwise
        # hide the strategy of the same name.
        with pytest.raises(ParseError) as exc:
            load_theory("sig a/0 b/0\nstrat s = fail\nrule s : a => b k(\n")
        assert exc.value.args[0] == "name s already declared"
        assert (exc.value.line, exc.value.col) == (3, 6)

    def test_strat_name_reserved(self):
        with pytest.raises(ParseError):
            load_theory("sig a/0\nstrat repeat = id\n")

    def test_sig_conflicting_arity(self):
        with pytest.raises(ParseError):
            load_theory("sig a/0\nsig a/1\n")

    def test_sig_same_decl_idempotent(self):
        th = load_theory("sig a/0\nsig a/0\n")
        assert [s.name for s in th.signature] == ["a"]


class TestStrategySection:
    def test_keywords_parse_inside_file(self):
        th = load_theory(
            "sig a/0 b/0\n"
            "rule r : a => b\n"
            "strat go = ifTE(r,id,fail)\n"
            "strat probe = occurs(b)\n"
        )
        from termstrat import IfTE, Id, Occurs

        assert th.strategies["go"] == IfTE(RuleRef("r"), Id(), Fail())
        assert th.strategies["probe"] == Occurs(parse_term("b", th.signature))

    def test_strat_line_at_depth(self):
        text = "mu X . " + "try(seq(r," * 10_000 + "X" + "))" * 10_000
        th = load_theory(f"sig a/0 b/0\nrule r : a => b\nstrat deep = {text}\n")
        assert print_strategy(th.strategies["deep"]) == text

    def test_mu_variable_stays_local(self):
        th = load_theory(
            "sig a/0 b/0\nrule r : a => b\nstrat s1 = mu X . try(seq(r,X))\n"
        )
        with pytest.raises(UnboundSVar):
            load_theory(
                "sig a/0 b/0\nrule r : a => b\n"
                "strat s1 = mu X . try(seq(r,X))\n"
                "strat s2 = X\n"
            )
        assert "s1" in th.strategies
