from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shlex
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gen import (
    CYCLE,
    DUO,
    REF_EXHAUSTED,
    bfs_reachable,
    brute_derivations,
    random_ground_term,
    random_pattern,
    random_proof,
    random_strategy,
    reference_eval,
    reference_infer,
    symbols_of,
)
from termstrat import (
    App,
    Derivation,
    Embed,
    Repl,
    Signature,
    Symbol,
    Trans,
    Var,
    all_redexes,
    all_steps,
    apply_step,
    derivation_to_json,
    extension,
    from_derivation,
    innermost,
    load_theory,
    parse_proof,
    parse_term,
    positions,
    print_derivation,
    print_proof,
    print_strategy,
    print_term,
    replace_at,
    rightmost_innermost,
    variables,
)
import termstrat.cli
from termstrat.cli import main
from termstrat.errors import ArityError, ComposeError, UnknownLabel

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "docs" / "examples"
DEEP = 10_000  # nesting far past the default recursion limit


def read_golden(path: Path):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0].startswith("# cmd: ") and lines[1].startswith("# exit: ")
    assert lines[2] == ""
    argv = shlex.split(lines[0][len("# cmd: ") :])
    assert argv[0] == "termstrat"
    return argv[1:], int(lines[1][len("# exit: ") :]), "\n".join(lines[3:])


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "termstrat", *args],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=30,
    )


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN_DIR.glob("*.txt")), ids=lambda p: p.stem
)
def test_golden_session(golden):
    args, want_exit, want_out = read_golden(golden)
    first = run_cli(args)
    assert first.returncode == want_exit, first.stderr
    assert first.stdout == want_out
    second = run_cli(args)
    assert second.stdout == first.stdout and second.returncode == first.returncode


def test_golden_corpus_present():
    assert len(list(GOLDEN_DIR.glob("*.txt"))) >= 12


class TestExitCodes:
    def test_missing_required_option(self):
        proc = run_cli(["eval", "--file", "docs/rex.trs", "--term", "a"])
        assert proc.returncode == 3 and "strategy" in proc.stderr

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]).returncode == 3

    def test_no_subcommand(self):
        assert run_cli([]).returncode == 3

    def test_unreadable_file(self):
        proc = run_cli(
            ["eval", "--file", "docs/no-such.trs", "--strategy", "id", "--term", "a"]
        )
        assert proc.returncode == 3 and "cannot read" in proc.stderr

    def test_theory_file_not_utf8(self, tmp_path):
        bad = tmp_path / "latin1.trs"
        bad.write_bytes(b"sig a/0\n# caf\xe9\n")
        proc = run_cli(
            ["eval", "--file", str(bad), "--strategy", "id", "--term", "a"]
        )
        assert proc.returncode == 3 and "cannot read" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_divergent_repeat_at_default_fuel(self):
        proc = run_cli(
            ["eval", "--file", "docs/rex.trs", "--strategy", "repeat(id)", "--term", "a"]
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_divergent_mu_in_tail_position(self):
        # Each unfolding is a tail call, so only fuel cuts the run short.
        proc = run_cli(
            [
                "eval", "--file", "docs/rex.trs",
                "--strategy", "mu X . seq(try(r1), X)", "--term", "a",
            ]
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_eval_reads_deep_term(self, tmp_path):
        tower = tmp_path / "tower.trs"
        tower.write_text("sig a/0 f/1\nrule u : f(x) => x\n")
        term = "f(" * 10_000 + "a" + ")" * 10_000
        proc = run_cli(
            ["eval", "--file", str(tower), "--strategy", "repeat(u)", "--term", term,
             "--fuel", "50000"]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "value: a\n"

    @pytest.mark.parametrize(
        "args, code, out",
        [
            (["eval", "--strategy", "try(" * DEEP + "p" + ")" * DEEP], 0, "value: b\n"),
            (["eval", "--strategy", "seq(id," * DEEP + "p" + ")" * DEEP], 0, "value: b\n"),
            (["eval", "--strategy", "".join(f"mu X{i} . " for i in range(DEEP)) + "p"],
             0, "value: b\n"),
            (["eval", "--strategy", "occurs(" + "f(" * DEEP + "a" + ")" * DEEP + ")"],
             1, "stk\n"),
            (["check-proof", "--proof", "f(" * DEEP + "p" + ")" * DEEP],
             0, "f(" * DEEP + "a" + ")" * DEEP + " -> " + "f(" * DEEP + "b" + ")" * DEEP + "\n"),
            (["check-proof", "--proof", "(" * DEEP + "p" + ")" * DEEP], 0, "a -> b\n"),
            (["check-proof", "--proof", " ; (".join(["p", "q"] * (DEEP // 2)) + ")" * (DEEP - 1)],
             0, "a -> a\n"),
            (["normalize", "--term", "f(" * DEEP + "a" + ")" * DEEP, "--intensional", "innermost"],
             0, "f(" * DEEP + "c" + ")" * DEEP + "\n"),
            (["derive", "--term", "f(" * DEEP + "a" + ")" * DEEP, "--depth", "1"],
             0, "f(" * DEEP + "a" + ")" * DEEP + "\n" + "f(" * DEEP + "a" + ")" * DEEP
             + " -[" + ".".join("1" * DEEP) + ",p]-> " + "f(" * DEEP + "b" + ")" * DEEP + "\n"),
        ],
        ids=["eval-try", "eval-seq", "eval-mu-chain", "eval-occurs", "proof-congruence",
             "proof-parentheses", "proof-right-nested", "normalize", "derive"],
    )
    def test_deep_input(self, tmp_path, args, code, out):
        theory = tmp_path / "deep.trs"
        theory.write_text("sig a/0 b/0 c/0 f/1\nrule p : a => b\nrule q : b => a\nrule r : b => c\n")
        if args[0] == "eval":
            args += ["--term", "a", "--fuel", str(10 * DEEP)]
        proc = run_cli([*args, "--file", str(theory)])
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout) == (code, out)

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "--strategy", "grow", "--term", "g(a)"],
            ["normalize", "--term", "g(a)"],
            ["derive", "--term", "g(a)", "--depth", "1"],
            ["check-proof", "--proof", "grow(a)"],
        ],
        ids=["eval", "normalize", "derive", "check-proof"],
    )
    def test_deep_rule_side(self, tmp_path, args):
        grow = tmp_path / "grow.trs"
        grow.write_text("sig a/0 f/1 g/1\nrule grow : g(x) => " + "f(" * DEEP + "x" + ")" * DEEP)
        proc = run_cli([*args, "--file", str(grow)])
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0
        assert "f(" * DEEP + "a" + ")" * DEEP in proc.stdout

    def test_theory_error_cites_location(self, tmp_path):
        bad = tmp_path / "bad.trs"
        bad.write_text("sig a/0\nrule r : a => zap(a)\n")
        proc = run_cli(
            ["eval", "--file", str(bad), "--strategy", "id", "--term", "a"]
        )
        assert proc.returncode == 3
        assert f"{bad}:2:15" in proc.stderr

    def test_term_parse_error(self):
        proc = run_cli(
            ["eval", "--file", "docs/rex.trs", "--strategy", "id", "--term", "f(a"]
        )
        assert proc.returncode == 3 and "error:" in proc.stderr

    def test_bad_strategy_expression(self):
        proc = run_cli(
            ["eval", "--file", "docs/rex.trs", "--strategy", "seq(r1", "--term", "a"]
        )
        assert proc.returncode == 3

    @pytest.mark.parametrize(
        "args",
        [
            ["--term", "a", "--depth", "-1"],
            ["--term", "plus(0", "--depth", "2"],
            ["--term", "zap(0)", "--depth", "2"],
            ["--term", "plus(p0,0)", "--depth", "2"],  # a variable spelled like a rule label
            ["--term", "plus(0,s(0,0))", "--depth", "2"],
            ["--file", "docs/no-such.trs", "--term", "a", "--depth", "2"],
        ],
        ids=["negative-depth", "unclosed", "undeclared", "label-as-variable", "arity", "missing-file"],
    )
    def test_derive_reports_errors_before_output(self, args):
        # Every error `derive` reports is raised before the walk starts, so
        # no partial listing comes before its message.
        proc = run_cli(["derive", "--file", "docs/rex.trs", *args])
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "error:" in proc.stderr

    def test_normalize_fuel_exhaustion(self, tmp_path):
        grow = tmp_path / "grow.trs"
        grow.write_text("sig a/0 f/1\nrule grow : a => f(a)\n")
        proc = run_cli(
            ["normalize", "--file", str(grow), "--term", "a", "--fuel", "5"]
        )
        assert proc.returncode == 2 and proc.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["derive", "--file", "docs/rex.trs", "--term", "a", "--depth", "1"],
            ["check-proof", "--file", "docs/rex.trs", "--proof", "r1"],
        ],
        ids=["derive", "check-proof"],
    )
    def test_fuel_only_where_read(self, args):
        proc = run_cli([*args, "--fuel", "5"])
        assert proc.returncode == 3 and "--fuel" in proc.stderr

    def test_check_proof_long_chain(self, tmp_path):
        flip = tmp_path / "flip.trs"
        flip.write_text("sig a/0 b/0\nrule p : a => b\nrule q : b => a\n")
        proof = " ; ".join(["p", "q"] * 1000)
        proc = run_cli(["check-proof", "--file", str(flip), "--proof", proof])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "a -> a\n"

    def test_normalize_prints_deep_result(self):
        num = "s(" * 130 + "0" + ")" * 130
        proc = run_cli(
            [
                "normalize", "--file", "docs/peano.trs",
                "--term", f"plus({num},{num})",
                "--intensional", "rightmost-innermost",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "s(" * 260 + "0" + ")" * 260 + "\n"

    @pytest.mark.parametrize(
        "fuel, code, out",
        [(None, 2, ""), ("20000", 0, "s(" * DEEP + "0" + ")" * DEEP + "\n")],
        ids=["default-fuel", "enough-fuel"],
    )
    def test_normalize_rightmost_innermost_long_run(self, fuel, code, out):
        # 10^4 `ps` steps and one `p0`: one more than the default fuel.
        term = "plus(" + "s(" * DEEP + "0" + ")" * DEEP + ",0)"
        args = ["normalize", "--file", "docs/peano.trs", "--term", term,
                "--intensional", "rightmost-innermost"]
        proc = run_cli(args + (["--fuel", fuel] if fuel else []))
        assert (proc.returncode, proc.stdout) == (code, out)
        if code == 2:
            assert proc.stderr == f"error: normal-form search from {term} ran out of fuel\n"

    @pytest.mark.parametrize(
        "fuel, code, out",
        [(None, 2, ""), ("20000", 0, "s(" * DEEP + "0" + ")" * DEEP + "\n")],
        ids=["default-fuel", "enough-fuel"],
    )
    def test_normalize_innermost_long_run(self, fuel, code, out):
        # Every step is the only innermost redex, so this is the same run.
        term = "plus(" + "s(" * DEEP + "0" + ")" * DEEP + ",0)"
        args = ["normalize", "--file", "docs/peano.trs", "--term", term,
                "--intensional", "innermost"]
        proc = run_cli(args + (["--fuel", fuel] if fuel else []))
        assert (proc.returncode, proc.stdout) == (code, out)
        if code == 2:
            assert proc.stderr == f"error: normal-form search from {term} ran out of fuel\n"

    @pytest.mark.parametrize("fuel, code", [("2", 0), ("1", 2)])
    def test_normalize_rightmost_innermost_cycle(self, tmp_path, fuel, code):
        # plus(a,b) -> plus(b,b) -> plus(b,b): the second step closes a cycle.
        comm = tmp_path / "comm.trs"
        comm.write_text("sig a/0 b/0 plus/2\nrule comm : plus(x,y) => plus(y,x)\nrule ab : a => b\n")
        proc = run_cli(
            ["normalize", "--file", str(comm), "--term", "plus(a,b)",
             "--intensional", "rightmost-innermost", "--fuel", fuel]
        )
        assert (proc.returncode, proc.stdout) == (code, "")
        assert "Traceback" not in proc.stderr

    def test_normalize_pure_cycle_closes_empty(self, tmp_path):
        # A self-loop dedups away under a memoryless strategy: the reachable
        # set is finite and contains no normal form, so output is empty.
        loop = tmp_path / "loop.trs"
        loop.write_text("sig a/0\nrule swap : a => a\n")
        proc = run_cli(
            ["normalize", "--file", str(loop), "--term", "a", "--fuel", "5"]
        )
        assert proc.returncode == 0 and proc.stdout == ""


# An 11-ary symbol, so that position 1.10 prints before 1.2 but follows it by
# path, and rule labels and symbols that are prefixes of each other.
PREFIXES = """\
sig a/0 ab/0 c/0 u/1 k/11
rule r : a => ab
rule r1 : a => c
rule r11 : ab => c
rule ru : u(x) => x
"""
PREFIX_TERMS = (
    "u(k(c,a,c,c,c,c,c,c,c,a,c))",
    "k(c,ab,c,c,c,c,c,c,c,ab,a)",
    "u(k(a,c,c,c,c,c,c,c,c,c,u(ab)))",
)

PEANO_10 = "plus(s(s(s(0))),plus(s(s(0)),plus(s(0),s(s(0)))))"


class TestDeriveOutput:
    """`derive` walks the derivation tree; its output must equal the
    per-derivation formulas applied to the same extension."""

    @pytest.mark.parametrize("mode", ["innermost", "rightmost-innermost", "all"])
    # Under CYCLE `comm` brings terms back, and the walk merges them; under
    # DUO two rules fire at one redex.
    @pytest.mark.parametrize("theory", ["rex", "peano", "prefixes", "CYCLE", "DUO"])
    def test_equals_per_derivation_printing(self, capsys, tmp_path, theory, mode):
        path = REPO / "docs" / f"{theory}.trs"
        fixed = ()
        if theory == "prefixes":
            path = tmp_path / "prefixes.trs"
            path.write_text(PREFIXES, encoding="utf-8")
            fixed = PREFIX_TERMS
        elif theory in ("CYCLE", "DUO"):
            path = tmp_path / f"{theory}.trs"
            path.write_text(theory_text({"CYCLE": CYCLE, "DUO": DUO}[theory]), encoding="utf-8")
        th = load_theory(path.read_text(encoding="utf-8"))
        zeta = {"innermost": innermost, "rightmost-innermost": rightmost_innermost}.get(
            mode, all_steps
        )(th.rules)
        rng = random.Random(f"{theory}:{mode}")
        for depth in range(5):
            terms = [parse_term(text, th.signature) for text in fixed]
            for _ in range(6):
                term = random_ground_term(rng, th.signature, 5)
                while not 2 <= len(all_redexes(term, th.rules)) <= 6:  # a tree, not too wide
                    term = random_ground_term(rng, th.signature, 5)
                terms.append(term)
            for term in terms:
                ds = extension(zeta, term, depth)
                text = "".join(line + "\n" for line in sorted(map(print_derivation, ds)))
                ordered = sorted(ds, key=print_derivation)
                doc = json.dumps([derivation_to_json(d) for d in ordered], indent=2) + "\n"
                argv = ["derive", "--file", str(path), "--term", print_term(term)]
                argv += ["--depth", str(depth), "--intensional", mode]
                assert main(argv) == 0
                assert capsys.readouterr().out == text
                assert main([*argv, "--json"]) == 0
                assert capsys.readouterr().out == doc

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_renders_each_distinct_step_once(self, capsys, monkeypatch, json_flag):
        # 4025 derivations, but 133 distinct fired steps (see test_ars.py)
        # and 60 distinct terms: the walk expands each term a derivation
        # shorter than 10 reaches, and reaches no other, from one redex walk
        # of it.  Each distinct term printed is printed once: the 60 in text
        # mode, and with `--json` also the 18 terms among the bindings that
        # are not among them.
        path = REPO / "docs" / "peano.trs"
        th = load_theory(path.read_text(encoding="utf-8"))
        expanded = bfs_reachable(parse_term(PEANO_10, th.signature), th.rules, 9)
        calls = {"_step_text": 0, "_redexes": 0, "print_term": 0}

        def counter(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counter(termstrat.cli, "_step_text")
        counter(termstrat.ars, "_redexes")
        counter(termstrat.cli, "print_term")
        argv = ["derive", "--file", str(path), "--term", PEANO_10]
        assert main([*argv, "--depth", "10", *json_flag]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out) if json_flag else out.splitlines()) == 4025
        assert calls["_step_text"] == 133
        assert calls["_redexes"] == len(expanded) == 60
        assert calls["print_term"] == (78 if json_flag else 60)

    def test_deep_term_costs_its_rewritten_paths(self, capsys, monkeypatch, unchecked_builds):
        # Each step of `plus(s^k(0),s^k(0))` rewrites at the root or just
        # below: the nodes `derive` builds past the read's 2k + 2, the
        # theory's included, do not grow with k.  It prints the 4 distinct
        # terms once each, and expands the three terms before the last one
        # by a redex walk each; each print and each walk visits the whole
        # term, so that work is O(k), as each of the 4 output lines is.
        path = str(REPO / "docs" / "peano.trs")
        real_walk, real_print = termstrat.ars._redexes, termstrat.cli.print_term
        added = []
        for k in (50, 500):
            calls = {"walks": 0, "prints": 0}

            def walked(*args, **kwargs):
                calls["walks"] += 1
                return real_walk(*args, **kwargs)

            def printed(t):
                calls["prints"] += 1
                return real_print(t)

            monkeypatch.setattr(termstrat.ars, "_redexes", walked)
            monkeypatch.setattr(termstrat.cli, "print_term", printed)
            unchecked_builds[0] = 0
            num = "s(" * k + "0" + ")" * k
            assert main(["derive", "--file", path, "--term", f"plus({num},{num})", "--depth", "3"]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 4
            added.append((unchecked_builds[0] - (2 * k + 2), calls["prints"], calls["walks"]))
        assert added[0] == added[1] == (15, 4, 3)


def theory_text(th) -> str:
    """The text of a theory file that loads as `th`."""
    rules = "".join(f"rule {r.label} : {print_term(r.lhs)} => {print_term(r.rhs)}\n" for r in th.rules)
    return f"sig {' '.join(map(str, th.signature))}\n{rules}"


class TestDirectEntry:
    def test_eval_value(self, capsys):
        code = main(
            [
                "eval",
                "--file",
                str(REPO / "docs" / "rex.trs"),
                "--strategy",
                "first(r1,id)",
                "--term",
                "b",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "value: b\n"

    def test_check_proof_source_mismatch(self, capsys):
        code = main(
            [
                "check-proof",
                "--file",
                str(REPO / "docs" / "rex.trs"),
                "--proof",
                "r1",
                "--from",
                "b",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "a -> b\n"
        assert "expected source" in captured.err

    @pytest.mark.parametrize("flag", ["--from", "--to"])
    def test_check_proof_empty_expected_term(self, capsys, flag):
        argv = ["check-proof", "--file", str(REPO / "docs" / "rex.trs"), "--proof", "r1"]
        code = main([*argv, flag, ""])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: 1:1: expected a term, found end of input\n"

    def test_chain_error_exit_two(self, capsys):
        code = main(
            [
                "check-proof",
                "--file",
                str(REPO / "docs" / "rex.trs"),
                "--proof",
                "r1 ; r1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert (
            captured.err
            == "error: cannot chain: left side ends at b but right side starts at a\n"
        )

    @pytest.mark.parametrize("argv", [["--help"], ["derive", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("usage: termstrat") and captured.err == ""

    def test_usage_error_in_subcommand(self, capsys):
        code = main(["derive", "--file", str(REPO / "docs" / "rex.trs"), "--term", "a"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("usage: termstrat derive ")
        assert captured.err.endswith(
            "termstrat derive: error: the following arguments are required: --depth\n"
        )

    @pytest.mark.parametrize(
        "error", [UnknownLabel("unknown rule label 'zz'"), ArityError("r1 takes 0")]
    )
    def test_inference_error_exit_two(self, capsys, monkeypatch, error):
        def infer(proof, rs):
            raise error

        monkeypatch.setattr(termstrat.cli, "infer", infer)
        code = main(["check-proof", "--file", str(REPO / "docs" / "rex.trs"), "--proof", "r1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {error}\n"

    def test_proof_arity_is_a_parse_error(self, capsys):
        # A ParseArityError is also an ArityError; it still exits 3.
        code = main(["check-proof", "--file", str(REPO / "docs" / "peano.trs"), "--proof", "ps(0)"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: 1:1: ps expects 2 argument(s), got 1\n"

    def test_rule_reusing_strategy_name(self, capsys, tmp_path):
        theory = tmp_path / "clash.trs"
        theory.write_text("sig a/0 b/0\nstrat s = fail\nrule s : a => b\n")
        code = main(["eval", "--file", str(theory), "--strategy", "s", "--term", "a"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {theory}:3:6: name s already declared\n"

    def test_one_process_answers_like_fresh_ones(self, capsys):
        # Calls in one process, a usage error among them, leave nothing behind.
        rex = str(REPO / "docs" / "rex.trs")
        runs = [
            ["eval", "--file", rex, "--term", "a"],
            ["eval", "--file", rex, "--strategy", "first(r1,id)", "--term", "a"],
            ["normalize", "--file", rex, "--term", "f(a)", "--intensional", "innermost"],
            ["frobnicate"],
            ["check-proof", "--file", rex, "--proof", "r1"],
        ]
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = run_cli(argv)
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            )


# Symbols and labels a random theory draws from; no name is both, and no
# name is the proof variable x or y.
SYMBOLS = (Symbol("a", 0), Symbol("b", 0), Symbol("c", 0), Symbol("f", 1), Symbol("g", 1), Symbol("h", 2))
LABELS = ("p", "q", "r1", "r2", "r3")


def random_theory(rng) -> str:
    """The text of a theory over some of SYMBOLS (a constant and a symbol
    with arguments among them) with up to five rules."""
    syms = random_symbols(rng)
    sig = Signature(syms)
    lines = ["sig " + " ".join(str(s) for s in syms)]
    for label in rng.sample(LABELS, rng.randint(1, 5)):
        lines.append(random_rule_line(rng, sig, label))
    return "\n".join(lines) + "\n"


def random_symbols(rng) -> list:
    """Some of SYMBOLS, a constant and a symbol with arguments among them."""
    syms = [SYMBOLS[0], SYMBOLS[rng.randrange(3, 6)]]
    return syms + [s for s in SYMBOLS if s not in syms and rng.random() < 0.5]


def random_rule_line(rng, sig, label, var_names=("x", "y")) -> str:
    """`rule <label> : <lhs> => <rhs>` with random sides over `sig`."""
    lhs = random_pattern(rng, sig, rng.randint(1, 3), var_names)
    while type(lhs) is not App:
        lhs = random_pattern(rng, sig, rng.randint(1, 3), var_names)
    params = variables(lhs)
    rhs = (
        random_pattern(rng, sig, rng.randint(1, 3), params)
        if params
        else random_ground_term(rng, sig, rng.randint(1, 2))
    )
    return f"rule {label} : {print_term(lhs)} => {print_term(rhs)}"


def run_main(argv) -> tuple:
    """`main(argv)` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def free_names(th) -> list:
    """The names x, y and z, less any spelled like a rule label or a symbol
    of `th`, so that a term read against `th` takes them as variables."""
    return [v for v in ("x", "y", "z") if v not in th.rules and v not in th.signature]


def random_checkable(rng, th):
    """A proof for `th`: a random tree, the proof of a derivation from an
    open term, or a `;` chain of argument-free replacements and constants."""
    rs, sig = th.rules, th.signature
    kind = rng.choice(("tree", "derivation", "chain"))
    if kind == "tree":
        return random_proof(rng, rs, sig, 3)
    if kind == "derivation":
        start = random_pattern(rng, sig, 3, free_names(th))
        return from_derivation(rng.choice(brute_derivations(start, rs, 3)), rs)
    leaves = [Repl(r.label) for r in rs if not r.params]
    leaves += [Embed(App(s)) for s in symbols_of(sig) if s.arity == 0]
    return reduce(Trans, [rng.choice(leaves) for _ in range(rng.randint(1, 8))])


class TestCheckProofAgainstReference:
    """`check-proof` run in process on a random theory and a printed random
    proof, judged by `gen.reference_infer`."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_check_proof(self, data, tmp_path_factory):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        text = random_theory(rng)
        th = load_theory(text)
        path = tmp_path_factory.getbasetemp() / "random.trs"
        path.write_text(text)
        pi = random_checkable(rng, th)
        argv = ["check-proof", "--file", str(path), "--proof", print_proof(pi)]
        wrong = False  # whether --from or --to names another term
        try:
            want = reference_infer(pi, th.rules)
        except ComposeError as error:
            want = error
        else:
            for flag, end in zip(("--from", "--to"), want):
                draw = rng.random()
                if draw < 0.4:
                    continue
                term = end if draw < 0.7 else random_pattern(rng, th.signature, 3, free_names(th))
                argv += [flag, print_term(term)]
                wrong = wrong or term != end
        code, out, err = run_main(argv)
        assert code in range(4)
        assert any(line.startswith("error: ") for line in err.splitlines()) == (code in (2, 3))
        if isinstance(want, ComposeError):
            assert (code, out) == (2, "")
            assert err == (
                f"error: cannot chain: left side ends at {print_term(want.left_target)} "
                f"but right side starts at {print_term(want.right_source)}\n"
            )
        else:
            assert out == f"{print_term(want[0])} -> {print_term(want[1])}\n"
            assert code == (1 if wrong else 0)


# The pool of rule labels and strategy names: strategy keywords, the symbol
# names of the theory at hand, names that are prefixes of each other, and x,
# which rules also use as a variable.
KEYWORD_NAMES = ("id", "try", "mu")
PLAIN_NAMES = ("r", "r1", "r12", "p", "pq", "q", "x")


def random_declarations(rng, clashing: bool) -> tuple:
    """The text of a random theory with rules and strategies, and its
    declarations in order as `(kind, name, line, col)`.

    Without `clashing` every label and strategy name is a distinct plain
    name, and no variable is named like one.  With it, a name may also be
    a keyword, a symbol or an earlier name, a later `sig` line may declare
    a constant named like an earlier label or strategy, and a rule's
    variables may be named like its label or an earlier one.  Each
    variable of a rule is a declaration `("var", name, line, col)` after
    the rule's.
    """
    syms = random_symbols(rng)
    sig = Signature(syms)
    lines = ["sig " + " ".join(str(s) for s in syms)]
    decls = [("sig", s.name, 1, lines[0].index(f" {s}") + 2) for s in syms]
    count = rng.randint(1, 5)
    if clashing:
        others = KEYWORD_NAMES + tuple(s.name for s in syms)
        names = [rng.choice(PLAIN_NAMES if rng.random() < 0.8 else others) for _ in range(count)]
    else:
        names = rng.sample(PLAIN_NAMES, count)
    extra = rng.randrange(count) if clashing and rng.random() < 0.3 else None
    earlier = []  # the labels and strategy names declared so far
    for k, name in enumerate(names):
        if earlier and rng.random() < 0.3:
            lines.append(f"strat {name} = first({rng.choice(earlier)},id)")
            decls.append(("strat", name, len(lines), 7))
        else:
            if not clashing:
                var_names = tuple(v for v in ("x", "y") if v not in names)
            elif rng.random() < 0.3:
                var_names = ("x", "y", rng.choice([*earlier, name]))
            else:
                var_names = ("x", "y")
            lines.append(random_rule_line(rng, sig, name, var_names))
            decls.append(("rule", name, len(lines), 6))
            for m in list(re.finditer(r"\w+", lines[-1]))[2:]:
                if m.group() not in sig:
                    decls.append(("var", m.group(), len(lines), m.start() + 1))
        earlier.append(name)
        if k == extra:
            constant = rng.choice(earlier if rng.random() < 0.5 else ("r", "p", "d"))
            lines.append(f"sig {constant}/0")
            decls.append(("sig", constant, len(lines), 5))
    return "\n".join(lines) + "\n", decls


def first_clash(decls) -> tuple | None:
    """The line, column and message of the first declaration that reuses a
    name, names a label or strategy like a keyword, names a label like an
    earlier rule's variable, or names a variable like a label; None if
    there is none."""
    symbols, declared, labels, variables = set(), set(), set(), set()
    for kind, name, line, col in decls:
        if kind == "var":
            if name in labels:
                return line, col, f"{name!r} is a rule label, not a variable"
            variables.add(name)
            continue
        if kind != "sig" and name in KEYWORD_NAMES:
            return line, col, f"{name!r} is reserved"
        if (
            name in declared
            and (kind != "sig" or name not in symbols)
            or kind == "rule"
            and name in variables
        ):
            return line, col, f"name {name} already declared"
        declared.add(name)
        if kind == "sig":
            symbols.add(name)
        elif kind == "rule":
            labels.add(name)
    return None


class TestTheoryViewsAgree:
    """A random theory judged through `cli.main`, run in process: it loads
    exactly when no name is declared twice or a label or strategy is named
    like a keyword, and a theory that loads reads its own output back."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_load_derive_check_proof(self, data, tmp_path_factory):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        text, decls = random_declarations(rng, clashing=True)
        path = tmp_path_factory.getbasetemp() / "named.trs"
        path.write_text(text)
        clash = first_clash(decls)
        if clash is not None:
            line, col, message = clash
            argv = ["derive", "--file", str(path), "--term", "a", "--depth", "1"]
            assert run_main(argv) == (3, "", f"error: {path}:{line}:{col}: {message}\n")
            return
        th = load_theory(text)
        # An open term, with no variable spelled like a rule label.
        term = random_pattern(rng, th.signature, 3, free_names(th))
        shown = print_term(term)
        argv = ["derive", "--file", str(path), "--term", shown, "--depth", "1"]
        code, out, err = run_main(argv)
        steps = [apply_step(term, label, th.rules) for label in all_redexes(term, th.rules)]
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == shown
        assert sorted(out.splitlines()[1:]) == sorted(map(str, steps))
        for d in [Derivation(term), *(Derivation(term, (step,)) for step in steps)]:
            proof = from_derivation(d, th.rules)
            assert parse_proof(print_proof(proof), th.rules, th.signature) == proof
            argv = ["check-proof", "--file", str(path), "--proof", print_proof(proof)]
            assert run_main(argv) == (0, f"{shown} -> {print_term(d.target)}\n", "")
        # The same term with one subterm a variable spelled like a rule label,
        # which a proof would read as the rule: rejected at that variable.
        label = rng.choice([r.label for r in th.rules])
        bad = print_term(replace_at(term, rng.choice(positions(term)), Var(label)))
        col = next(m.start() for m in re.finditer(r"\w+", bad) if m.group() == label) + 1
        message = f"error: 1:{col}: '{label}' is a rule label, not a variable\n"
        argv = ["derive", "--file", str(path), "--term", bad, "--depth", "1"]
        assert run_main(argv) == (3, "", message)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_eval(self, data, tmp_path_factory):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        text, _ = random_declarations(rng, clashing=False)
        path = tmp_path_factory.getbasetemp() / "plain.trs"
        path.write_text(text)
        th = load_theory(text)
        s = random_strategy(rng, tuple(r.label for r in th.rules), th.signature, 3)
        term = random_ground_term(rng, th.signature, 3)
        argv = ["eval", "--file", str(path), "--strategy", print_strategy(s)]
        argv += ["--term", print_term(term), "--fuel", "200"]
        want, _ = reference_eval(s, term, th.rules, 200)
        if want == REF_EXHAUSTED:
            expected = (2, "", "error: strategy evaluation ran out of fuel\n")
        elif want is None:
            expected = (1, "stk\n", "")
        else:
            expected = (0, f"value: {print_term(want)}\n", "")
        assert run_main(argv) == expected

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_derive(self, data, tmp_path_factory):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        text, _ = random_declarations(rng, clashing=False)
        path = tmp_path_factory.getbasetemp() / "derive.trs"
        path.write_text(text)
        th = load_theory(text)
        term = random_ground_term(rng, th.signature, 3)
        depth = rng.randint(0, 3)
        mode = rng.choice(("all", "innermost"))
        ds = brute_derivations(term, th.rules, depth, innermost=mode == "innermost")
        ds.sort(key=print_derivation)
        argv = ["derive", "--file", str(path), "--term", print_term(term), "--depth", str(depth)]
        argv += ["--intensional", mode]
        listing = "".join(print_derivation(d) + "\n" for d in ds)
        assert run_main(argv) == (0, listing, "")
        doc = json.dumps([derivation_to_json(d) for d in ds], indent=2) + "\n"
        assert run_main([*argv, "--json"]) == (0, doc, "")

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_normalize(self, data, tmp_path_factory):
        # Judged only when the terms reachable in 6 steps are all there are:
        # no step leaves them, so 7 steps reach the same set.  The search
        # then fires every redex of each of them once, `spent` steps in all.
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        text, _ = random_declarations(rng, clashing=False)
        path = tmp_path_factory.getbasetemp() / "normalize.trs"
        path.write_text(text)
        th = load_theory(text)
        term = random_ground_term(rng, th.signature, 3)
        reachable = bfs_reachable(term, th.rules, 6)
        steps = (apply_step(u, lab, th.rules) for u in reachable for lab in all_redexes(u, th.rules))
        assume(all(step.target in reachable for step in steps))
        redexes = {u: len(all_redexes(u, th.rules)) for u in reachable}
        spent = sum(redexes.values())
        forms = sorted(print_term(u) for u, count in redexes.items() if not count)
        argv = ["normalize", "--file", str(path), "--term", print_term(term), "--fuel"]
        assert run_main([*argv, str(spent)]) == (0, "".join(f + "\n" for f in forms), "")
        if spent:
            code, out, err = run_main([*argv, str(spent - 1)])
            assert (code, out) == (2, "") and err.startswith("error: ")
