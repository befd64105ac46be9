"""Self-test of the benchmark: generators, oracles and the metric set.

    python3 -m pytest bench -q

It lives with the benchmark, outside the repository's test paths, so the
main suite does not run it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture(scope="module")
def catalog():
    os.chdir(ROOT)
    return workloads.derive_catalog()


@pytest.fixture(scope="module")
def peano():
    return oracle.load(os.path.join(ROOT, workloads.PEANO))


@pytest.fixture(scope="module")
def tower():
    return oracle.load(os.path.join(ROOT, workloads.TOWER))


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_blocks_are_deterministic_per_seed(workload, catalog):
    first = [workloads.block(workload, 7, i, catalog) for i in range(2)]
    again = [workloads.block(workload, 7, i, catalog) for i in range(2)]
    other = [workloads.block(workload, 8, i, catalog) for i in range(2)]
    assert first == again
    assert first != other
    assert all(len(b) == workloads.BLOCK for b in first)
    assert workloads.trace_ops(workload, 7, catalog) == workloads.trace_ops(workload, 7, catalog)


def test_catalog_classes_hold_their_sizes(catalog, peano):
    for name, (lo, hi) in workloads.DERIVE_CLASSES.items():
        assert catalog[name], name
        for text, depth, n in catalog[name][:: max(1, len(catalog[name]) // 10)]:
            code, out = oracle.expect_derive(peano, peano.term(text), depth, False, False)
            assert out.count("\n") == n
            assert lo <= len(out) <= hi


def test_strata_cover_the_range():
    for seed in range(20):
        xs = workloads.strata(random.Random(seed), 10, 1, 100)
        assert [(x - 1) // 10 for x in xs] == list(range(10))


# -- oracles against hand-checked cases ---------------------------------------


def test_peano_closed_forms(peano):
    t = peano.term("plus(s(s(0)),s(0))")
    assert oracle.expect_normalize(peano, t, "rightmost-innermost") == (0, "s(s(s(0)))\n")
    assert oracle.innermost_steps(t) == 3
    # plus(s(0),0) takes 2 steps to s(0); then plus(s(0),s(0)) takes 2 more
    assert oracle.innermost_steps(peano.term("plus(plus(s(0),0),s(0))")) == 4
    # plus(s(0),0) -> s(plus(0,0)) -> s(0)
    assert oracle.all_steps_fired(peano, peano.term("plus(s(0),0)")) == 2


def test_derive_enumeration(peano):
    t = peano.term("plus(s(0),0)")
    assert oracle.expect_derive(peano, t, 2, False, False) == (0, (
        "plus(s(0),0)\n"
        "plus(s(0),0) -[e,ps]-> s(plus(0,0))\n"
        "plus(s(0),0) -[e,ps]-> s(plus(0,0)) -[1,p0]-> s(0)\n"
    ))
    assert oracle.derive_size(peano, t, 2, False, {}) == (3, 100)
    code, text = oracle.expect_derive(peano, peano.term("plus(0,0)"), 1, True, True)
    assert json.loads(text) == [[], [
        {"source": "plus(0,0)", "position": "e", "rule": "p0", "subst": {"y": "0"}, "target": "0"},
    ]]
    # redexes at the root and at 1.1: innermost allows only the lower one
    t = peano.term("plus(s(plus(0,0)),0)")
    assert oracle.derive_size(peano, t, 1, True, {})[0] == 2
    assert oracle.derive_size(peano, t, 1, False, {})[0] == 3


def test_tower_closed_forms():
    # repeat(u) on f(f(a)): repeat, mu; twice try, seq, u, X; try, seq, u
    assert oracle.strategy_cost("rep", "ff") == 13
    assert oracle.strategy_cost("peel", "fg") == 18
    assert oracle.expect_eval(("fuel", 2, 12)) == (2, "")
    assert oracle.expect_eval(("fuel", 2, 13)) == (0, "value: a\n")
    assert oracle.expect_eval(("occ", 2, True)) == (0, "value: f(g(a))\n")
    assert oracle.expect_eval(("occ", 2, False)) == (0, "value: g(f(a))\n")
    assert oracle.expect_eval(("seq", 3)) == (0, "value: f(f(a))\n")
    assert oracle.expect_eval(("not", "fg", "a")) == (0, "value: f(g(a))\n")
    assert oracle.expect_eval(("not", "fg", "b")) == (1, "stk\n")
    assert oracle.expect_eval(("div",)) == (2, "")


def test_proof_oracles(tower):
    assert oracle.chain_text(3) == "p ; q ; p"
    assert oracle.chain_target(3) == "b"
    p, q = ("repl", "p", ()), ("repl", "q", ())
    cong = ("trans", ("cong", "h", (p, ("cong", "f", (q,)))),
            ("repl", "sw", (("embed", ("b",)), ("embed", ("f", ("a",))))))
    assert oracle.proof_text(cong) == "h(p,f(q)) ; sw(b,f(a))"
    assert oracle.expect_check(tower, cong, "h(a,f(b))", None) == (0, "h(a,f(b)) -> h(f(a),b)\n")
    assert oracle.expect_check(tower, cong, None, "a") == (1, "h(a,f(b)) -> h(f(a),b)\n")
    assert oracle.expect_check(tower, ("trans", p, p), None, None) == (2, "")
    twice = ("repl", "eqv", (("trans", p, q),))
    assert oracle.proof_text(twice) == "eqv((p ; q))"
    assert oracle.expect_roundtrip(tower, twice) == (0, (
        "h(a,a) -> a\n"
        "steps: 5\n"
        "h(p,a) ; h(q,a) ; h(a,p) ; h(a,q) ; eqv(a)\n"
    ))


# -- the metric set -----------------------------------------------------------


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.per_layer_units()


def _bench(args: list, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    proc = _bench(["--workload", "eval", "--seed", "3", "--seconds", "1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(kind)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "eval", "--seed", "1", "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
