"""Spans and work counters around termstrat's layers, from outside.

``Tracer.install`` rebinds each traced function in the modules that
import it (and the ``termstrat`` package namespace), and a few methods on
their classes; nothing under ``src/`` changes.  A function's own module
keeps the original, so recursion inside a module adds no frames.

A span has a name, a start, an end and a parent (the span open around
it).  Spans are folded into per-name totals as they close, so memory
stays flat however many there are: self time is a span's duration minus
the time its child spans cover.  A span that an exception escapes, when
no span inside it saw the same exception, is where that exception
started; it counts as ``<module>.failed``.
"""

from __future__ import annotations

import itertools
import operator
import time

import termstrat
from termstrat import ars, cli, lex, proofs, rules, strategies, terms, theory

MODULES = (lex, terms, rules, ars, strategies, proofs, theory, cli)
MODULE_NAMES = ("lex", "terms", "rules", "ars", "strategies", "proofs", "theory", "cli")

# span name -> (defining module, function names)
FUNCTION_SPANS = {
    "theory.load_theory": (theory, ("load_theory",)),
    "terms.parse_term": (terms, ("parse_term", "parse_term_tokens")),
    "terms.print_term": (terms, ("print_term",)),
    "terms.match": (terms, ("match",)),
    "terms.replace_at": (terms, ("replace_at",)),
    "terms.apply_subst": (terms, ("apply_subst",)),
    "rules.all_redexes": (rules, ("all_redexes",)),
    "rules.apply_step": (rules, ("apply_step",)),
    "ars.normal_forms_under": (ars, ("normal_forms_under",)),
    "ars.extension": (ars, ("extension",)),
    "ars.print_derivation": (ars, ("print_derivation",)),
    "strategies.parse_strategy": (strategies, ("parse_strategy",)),
    "strategies.eval_strategy": (strategies, ("eval_strategy",)),
    "proofs.parse_proof": (proofs, ("parse_proof",)),
    "proofs.infer": (proofs, ("infer",)),
    "proofs.to_derivation": (proofs, ("to_derivation",)),
    "proofs.from_derivation": (proofs, ("from_derivation",)),
    "proofs.print_proof": (proofs, ("print_proof",)),
}

# span name -> (class, method)
METHOD_SPANS = {
    "lex.Lexer": (lex.Lexer, "__init__"),
    "ars.sorted_choice": (ars.IntensionalStrategy, "sorted_choice"),
    "ars.TracedObject.step": (ars.TracedObject, "step"),
    "ars.Derivation.then": (ars.Derivation, "then"),
}

# counter name -> (class, method) pairs whose calls it counts
METHOD_COUNTERS = {
    "terms.Position.created": ((terms.Position, "__post_init__"),),
    "terms.hash.calls": ((terms.App, "__hash__"), (terms.Var, "__hash__")),
    "terms.eq.calls": ((terms.App, "__eq__"), (terms.Var, "__eq__")),
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.failed: dict[str, int] = {m: 0 for m in MODULE_NAMES}
        self.hits = itertools.count()  # match calls that found a substitution
        self.derivations = 0  # derivations extension returned
        self._counters = {name: itertools.count() for name in METHOD_COUNTERS}
        self._counters["terms.subterms.nodes"] = itertools.count()
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._undo: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for name, (home, attrs) in FUNCTION_SPANS.items():
            for attr in attrs:
                self._rebind_imports(home, attr, self.span(name, getattr(home, attr)))
        self._rebind(cli, "main", self.span("cli.main", cli.main))
        nodes = self._counters["terms.subterms.nodes"]
        original = terms.subterms

        def subterms(t):
            # zip pulls a count per node yielded; no Python frame per node
            return map(operator.itemgetter(0), zip(original(t), nodes))

        self._rebind_imports(terms, "subterms", subterms)
        for name, (cls, attr) in METHOD_SPANS.items():
            self._rebind(cls, attr, self.span(name, cls.__dict__[attr]))
        for name, targets in METHOD_COUNTERS.items():
            for cls, attr in targets:
                self._rebind(cls, attr, _counted(self._counters[name], cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind_imports(self, home, attr: str, new) -> None:
        original = getattr(home, attr)
        for module in (termstrat, *MODULES):
            if module is not home and module.__dict__.get(attr) is original:
                self._rebind(module, attr, new)

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn):
        module = name.split(".", 1)[0]
        stack, self_s, calls, failed = self._stack, self.self_s, self.calls, self.failed
        now = time.perf_counter
        hits = self.hits if name == "terms.match" else None
        count_derivations = name == "ars.extension"

        def wrapper(*args, **kwargs):
            stack.append([now(), 0.0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                if "_trace_origin" not in e.__dict__:
                    e._trace_origin = name
                    failed[module] += 1
                raise
            finally:
                start, covered = stack.pop()
                spent = now() - start
                self_s[name] = self_s.get(name, 0.0) + spent - covered
                calls[name] = calls.get(name, 0) + 1
                if stack:
                    stack[-1][1] += spent
            if hits is not None and result is not None:
                next(hits)
            if count_derivations:
                self.derivations += len(result)
            return result

        return wrapper

    def counts(self) -> dict[str, int]:
        """Work counts; equal for two runs of the same ops."""
        out = {name: _read(c) for name, c in self._counters.items()}
        out["terms.match.hits"] = _read(self.hits)
        out["ars.extension.derivations"] = self.derivations
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        return out


def _counted(counter, fn):
    def wrapper(*args):
        next(counter)
        return fn(*args)

    return wrapper


def _read(counter) -> int:
    """Current value of an itertools.count, without advancing it."""
    return int(repr(counter)[len("count("):-1])
