from __future__ import annotations

import sys

import pytest

from termstrat import Theory, load_theory

REX_TEXT = """\
sig a/0 b/0 f/1 g/1 h/2
sig 0/0 s/1 plus/2
rule r1 : a => b
rule r2 : g(x) => x
rule r3 : f(x) => g(x)
rule p0 : plus(0,y) => y
rule ps : plus(s(x),y) => s(plus(x,y))
"""

PEANO_TEXT = """\
sig 0/0 s/1 plus/2
rule p0 : plus(0,y) => y
rule ps : plus(s(x),y) => s(plus(x,y))
"""

CHAIN_TEXT = """\
sig a/0 b/0 c/0 d/0
rule c1 : a => b
rule c2 : b => c
rule c3 : c => d
"""


_RECURSION_LIMIT = sys.getrecursionlimit()


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    """Fail a test that leaves the recursion limit changed: depth must be
    bounded by the code, not by `sys.setrecursionlimit`."""
    yield
    limit = sys.getrecursionlimit()
    if limit != _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)  # so later tests are judged alone
        pytest.fail(f"recursion limit changed from {_RECURSION_LIMIT} to {limit}")


@pytest.fixture(scope="session")
def rex() -> Theory:
    return load_theory(REX_TEXT)


@pytest.fixture(scope="session")
def peano() -> Theory:
    return load_theory(PEANO_TEXT)


@pytest.fixture(scope="session")
def chain() -> Theory:
    return load_theory(CHAIN_TEXT)


@pytest.fixture
def unchecked_builds(monkeypatch):
    """A one-item list counting the nodes built by `App._unchecked`, which
    builds every node whose arity is known: the readers', the pass's and
    instantiation's."""
    from termstrat import App

    calls = [0]
    real = App._unchecked.__func__

    def counted(cls, symbol, args):
        calls[0] += 1
        return real(cls, symbol, args)

    monkeypatch.setattr(App, "_unchecked", classmethod(counted))
    return calls
