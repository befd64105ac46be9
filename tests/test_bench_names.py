"""The names the benchmark's tracer rebinds still exist.

`bench/tracer.py` looks each traced function and method up by name, so a
deleted or renamed one would otherwise fail only a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import termstrat
from termstrat.lex import Lexer

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (termstrat.load_theory, termstrat.parse_term, Lexer.__init__)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        th = termstrat.load_theory("sig a/0 f/1\nrule r : f(x) => x")
        termstrat.parse_term("f(a)", th.signature)
    finally:
        tracer.uninstall()
    assert (termstrat.load_theory, termstrat.parse_term, Lexer.__init__) == originals
    assert tracer.calls["theory.load_theory"] == 1
    assert tracer.calls["lex.Lexer"] == 3
    assert tracer.calls["terms.parse_term"] >= 1
