"""Command-line front end.

Four batch commands over a theory file:

    eval         apply a strategy expression to a term
    normalize    collect normal forms under a built-in strategy
    derive       list the bounded derivation tree a strategy generates
    check-proof  infer (and optionally check) the sequent of a proof term

Exit codes, all chosen in `main`: 0 success / strategy value, 1 failure
result (`stk`) or sequent mismatch, 2 fuel exhausted (`FuelExhausted`) or
another library error, such as an inference error (`ComposeError`,
`UnknownLabel`, `ArityError`), 3 a usage error or a `ParseError` (an
unreadable theory file, malformed input, a name clash in the theory, or a
wrong argument count in input text).  `--help` exits 0.  Every library
error is printed as `error: ` followed by its own text.
All collection output is sorted on the printed form, so identical inputs
give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii as _quote

from .ars import (
    Extension,
    _step,
    _step_json,
    _Table,
    all_steps,
    innermost,
    normal_forms_under,
    rightmost_innermost,
)
from .errors import ParseError, TermstratError
from .proofs import infer, parse_proof
from .rules import _step_text
from .strategies import STK, eval_strategy, parse_strategy
from .terms import _path_text, print_term
from .theory import Theory, _term, load_theory

# --intensional name -> the strategy it builds from a rule set, in usage order
_INTENSIONAL = {
    "innermost": innermost,
    "rightmost-innermost": rightmost_innermost,
    "all": all_steps,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termstrat",
        description="Strategic term rewriting: evaluate, normalize, derive, check proofs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--file", required=True, help="theory file (sig/rule/strat lines)")

    def fuel(p):
        p.add_argument("--fuel", type=int, default=10000, help="evaluation budget (default 10000)")

    p_eval = sub.add_parser("eval", help="apply a strategy to a term")
    common(p_eval)
    fuel(p_eval)
    p_eval.add_argument("--strategy", required=True, help="strategy expression or declared name")
    p_eval.add_argument("--term", required=True)

    p_norm = sub.add_parser("normalize", help="normal forms under a built-in strategy")
    common(p_norm)
    fuel(p_norm)
    p_norm.add_argument("--term", required=True)
    p_norm.add_argument("--intensional", choices=_INTENSIONAL, default="all")

    p_der = sub.add_parser("derive", help="list the bounded derivation tree")
    common(p_der)
    p_der.add_argument("--term", required=True)
    p_der.add_argument("--depth", type=int, required=True, help="maximum derivation length")
    p_der.add_argument("--intensional", choices=_INTENSIONAL, default="all")
    p_der.add_argument("--json", action="store_true", help="emit a JSON array instead of text")

    p_chk = sub.add_parser("check-proof", help="infer the sequent of a proof term")
    common(p_chk)
    p_chk.add_argument("--proof", required=True)
    p_chk.add_argument("--from", dest="from_term", help="expected source term")
    p_chk.add_argument("--to", dest="to_term", help="expected target term")
    return parser


def _load(path: str) -> Theory:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})")
    try:
        return load_theory(text)
    except ParseError as e:
        raise ParseError(f"{path}:{e}") from e


def cmd_eval(ns, th: Theory) -> int:
    term = _term(ns.term, th)
    strat = parse_strategy(ns.strategy, th.rules, th.signature, th.strategies)
    result = eval_strategy(strat, term, th.rules, ns.fuel)
    if result == STK:
        print("stk")
        return 1
    print(f"value: {print_term(result.term)}")
    return 0


def cmd_normalize(ns, th: Theory) -> int:
    term = _term(ns.term, th)
    zeta = _INTENSIONAL[ns.intensional](th.rules)
    for line in sorted(print_term(t) for t in normal_forms_under(zeta, term, ns.fuel)):
        print(line)
    return 0


def cmd_derive(ns, th: Theory) -> int:
    term = _term(ns.term, th)
    if ns.depth < 0:
        raise ParseError("--depth must be nonnegative")
    zeta = _INTENSIONAL[ns.intensional](th.rules)
    table = _Table(zeta)  # each distinct subterm's text is built once, here
    show = table.text

    def view(t, path, rule, bindings, target):
        text = _step_text(_path_text(path), rule.label, show(target))
        if not ns.json:
            return text
        return text, _json_item(_step(t, path, rule, bindings, target), show)

    # Walk order is sorted order: texts of siblings differ before either ends.
    term = table.intern(term)
    path = ["" if ns.json else show(term)]  # path[n]: the last output of length n
    lines = path[:]
    for n, v in Extension(zeta)._walk(term, ns.depth, view, table):
        path[n:] = [path[n - 1] + (v[1] if ns.json else v)]
        lines.append(path[-1])
    if ns.json:
        items = ["[" + line[1:] + "\n  ]" if line else "[]" for line in lines]
        print("[\n  " + ",\n  ".join(items) + "\n]")
    else:
        print("\n".join(lines))
    return 0


def _json_item(step, show) -> str:
    """A step's JSON object as `derive --json` prints it after another: the
    bytes of `json.dumps(obj, indent=2)` two levels down, with each string
    written by the C encoder (`indent` would select the pure-Python one)."""
    fields = []
    for key, value in _step_json(step, show).items():
        if type(value) is dict:
            pairs = [f"{_quote(n)}: {_quote(t)}" for n, t in value.items()]
            value = "{\n        " + ",\n        ".join(pairs) + "\n      }" if pairs else "{}"
        else:
            value = _quote(value)
        fields.append(f"{_quote(key)}: {value}")
    return ",\n    {\n      " + ",\n      ".join(fields) + "\n    }"


def cmd_check_proof(ns, th: Theory) -> int:
    proof = parse_proof(ns.proof, th.rules, th.signature)
    expect_from = None if ns.from_term is None else _term(ns.from_term, th)
    expect_to = None if ns.to_term is None else _term(ns.to_term, th)
    seq = infer(proof, th.rules)
    print(f"{print_term(seq.source)} -> {print_term(seq.target)}")
    if expect_from is not None and seq.source != expect_from:
        print(f"mismatch: expected source {ns.from_term}", file=sys.stderr)
        return 1
    if expect_to is not None and seq.target != expect_to:
        print(f"mismatch: expected target {ns.to_term}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "normalize": cmd_normalize,
    "derive": cmd_derive,
    "check-proof": cmd_check_proof,
}


def main(argv=None) -> int:
    """Run one command; the only place an outcome becomes an exit code."""
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as e:
        code = int(e.code or 0)
        return 3 if code == 2 else code  # argparse's usage error is 2; 2 means fuel here
    try:
        return _COMMANDS[ns.command](ns, _load(ns.file))
    except TermstratError as e:  # a ParseArityError is a ParseError, so it exits 3
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, ParseError) else 2


if __name__ == "__main__":
    sys.exit(main())
