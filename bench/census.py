"""Cross-check against the ROADMAP baseline and list the depth limits.

    python3 bench/census.py

Runs single ops, in-process as the worker does, at and past the sizes the
workloads stay below, and prints for each its input family, size, the
oracle's verdict and the latency.  An op that raises is shown with the
exception and the termstrat module holding most of its traceback.  The
output at the seed is recorded in bench/NOTES.md; the benchmark itself
does not run this.
"""

from __future__ import annotations

import os

import oracle
import worker
from workloads import PEANO, TOWER, Op, digest, expected, roundtrip_argv


def sum2(n: int) -> Op:
    term = f"plus({oracle.numeral(n)},{oracle.numeral(n)})"
    t = oracle.load(PEANO).term(term)
    argv = ("normalize", "--file", PEANO, "--term", term, "--intensional", "rightmost-innermost")
    return Op("normalize plus(s^n(0),s^n(0)) rightmost-innermost", argv, n, (t, "rightmost-innermost"))


def eval_op(family: str, strategy: str, word: str, spec: tuple, base: str = "a") -> Op:
    argv = ("eval", "--file", TOWER, "--strategy", strategy, "--term", oracle.tower(word, base))
    return Op(family, argv, len(word), spec)


def chain(n: int) -> Op:
    argv = ("check-proof", "--file", TOWER, "--proof", oracle.chain_text(n), "--from", "a",
            "--to", oracle.chain_target(n))
    return Op("check-proof p ; q ; ... chain", argv, n, ("chain",))


ROADMAP_TERM = "plus(s(s(s(0))),plus(s(s(0)),plus(s(0),s(s(0)))))"


def cases() -> list[Op]:
    return [
        *(sum2(n) for n in (50, 100, 110, 124)),
        Op("derive ROADMAP term, every redex", ("derive", "--file", PEANO, "--term", ROADMAP_TERM, "--depth", "10"),
           10, (ROADMAP_TERM, 10, False, False)),
        *(eval_op("eval repeat(u) on f^n(a)", "repeat(u)", "f" * n, ("rep", "f" * n)) for n in (250, 327, 328, 400)),
        eval_op("eval flip (divergent), default fuel", "flip", "", ("div",)),
        *(eval_op("eval not(occurs(b)) on f^n(a), printed", "not(occurs(b))", "f" * n, ("not", "f" * n, "a"))
          for n in (180, 248, 249, 1000)),
        *(chain(n) for n in (800, 1200)),
        *(Op("API round trip of a p ; q chain", roundtrip_argv(oracle.chain_text(n)), n, ("rt-chain", n))
          for n in (500, 988, 989, 1200)),
    ]


def main() -> None:
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    theories: dict = {}
    print(f"{'family':52s} {'size':>5s}  {'outcome':28s} {'ms':>8s}")
    for op in cases():
        latency, code, got, error = worker.run_op(op)
        want_code, want_out = expected(op, theories)
        if error:
            outcome = f"{error} (oracle: exit {want_code})"
        else:
            outcome = "ok" if (code, got) == (want_code, digest(want_out)) else f"WRONG exit {code}"
        if op.argv[0] == "derive":
            outcome += f", {want_out.count(chr(10))} derivations"
        print(f"{op.family:52s} {op.size:5d}  {outcome:28s} {latency * 1000:8.1f}")


if __name__ == "__main__":
    main()
