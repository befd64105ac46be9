"""First-order terms over a user signature: positions, substitutions, matching.

Everything here is an immutable value and every operation is a pure
function, so the whole module is safe to use concurrently without locks.

Concrete syntax (round-trips through `parse_term` / `print_term`):

    term := ident | ident "(" term ("," term)* ")"

Identifiers not declared in the signature are variables.  Nullary symbols
print without parentheses; `a()` is accepted on input.  Nonnegative integer
literals (`0`, `42`) are allowed as declared constant names but never as
variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import starmap, zip_longest
from operator import eq

from .errors import ArityError, InvalidPosition, UnknownSymbol
from .lex import Lexer, parse_tree

NAME_RE = re.compile(r"(?:[A-Za-z][A-Za-z0-9_]*|[0-9]+)\Z")
VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Symbol:
    """A function symbol with a fixed arity."""

    name: str
    arity: int

    def __post_init__(self):
        if not NAME_RE.match(self.name):
            raise ValueError(f"bad symbol name {self.name!r}")
        if self.arity < 0:
            raise ValueError(f"negative arity for {self.name}")

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Signature:
    """A finite set of symbols with pairwise distinct names."""

    def __init__(self, symbols=()):
        self._by_name: dict[str, Symbol] = {}
        for sym in symbols:
            self.add(sym)

    def add(self, sym: Symbol) -> None:
        old = self._by_name.get(sym.name)
        if old is not None and old != sym:
            raise ValueError(f"symbol {sym.name} already declared as {old}")
        self._by_name[sym.name] = sym

    def lookup(self, name: str) -> Symbol | None:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __repr__(self) -> str:
        return f"Signature([{', '.join(str(s) for s in self)}])"


@dataclass(frozen=True)
class Var:
    """A variable occurrence."""

    name: str

    def __post_init__(self):
        if not VAR_RE.match(self.name):
            raise ValueError(f"bad variable name {self.name!r}")

    def __str__(self) -> str:
        return self.name


class TreeNode:
    """Base of `App`, `RewriteStep`, and the proof and strategy nodes.

    A field, named in `__match_args__`, holds a node, a tuple of nodes, or a
    value such as a symbol or a name.  Pickling, copying, and the `==` and
    hash that `App` does not write itself, go through `_flatten`, where a
    term inside another node is one value with its own `==` and hash; `repr`
    has its own stack.  So the depth of a tree or term is not bounded by the
    recursion limit.  A node's hash is computed on first use and kept in the
    instance: building a node costs what the dataclass does.  `==` compares
    two cached hashes first, then the two flattenings item by item as they
    are produced, so it stops at the first difference.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        h, k = getattr(self, "_hash", None), getattr(other, "_hash", None)
        if h is not None and k is not None and h != k:
            return False
        # Compared as the two walks go, so the first difference ends both;
        # `self` pads the shorter one, as no item is the root itself.
        return all(starmap(eq, zip_longest(_flat(self), _flat(other), fillvalue=self)))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(_flatten(self))
            # Set as an attribute: writing `__dict__` makes later reads slower.
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        # The text the generated `__repr__` gives, from an explicit stack.
        parts = []
        stack = [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                parts.append(item)
                continue
            if type(item) is tuple:
                items = ["("]
                for k, v in enumerate(item):
                    items += (", ", _shown(v)) if k else (_shown(v),)
                items.append(",)" if len(item) == 1 else ")")
            else:
                items = [type(item).__qualname__ + "("]
                for k, f in enumerate(type(item).__match_args__):
                    items += (", " if k else "", f + "=", _shown(getattr(item, f)))
                items.append(")")
            stack += reversed(items)
        return "".join(parts)

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy `_hash`.
        return _rebuild, (_flatten(self),)

    def __deepcopy__(self, memo):
        # A new node, sharing the values it holds whole, such as a proof's terms.
        return _rebuild(_flatten(self))


# The decorator of the other `TreeNode`s: a frozen dataclass on `TreeNode`'s methods.
tree_node = dataclass(frozen=True, eq=False, repr=False)


def _flatten(node: TreeNode) -> tuple:
    """`node` as a post-order tuple of values and steps `(make, n)`.

    A step applies `make` to the last `n` finished values.  Tuple fields
    are spread out, so every tuple in the list is a step.  Below a root
    that is not an `App`, a term is one value.  Two trees are equal exactly
    when their lists are.
    """
    return tuple(_flat(node))


def _flat(node: TreeNode):
    """Yield the items of `_flatten(node)` one by one."""
    stack: list = [node]
    whole = type(node) is not App
    while stack:
        item = stack.pop()
        if not isinstance(item, TreeNode) or whole and type(item) is App:
            yield item
            continue
        kind = type(item)
        todo = []
        for f in kind.__match_args__:
            v = getattr(item, f)
            todo += (*v, (_tuple, len(v))) if type(v) is tuple else (v,)
        todo.append((kind, len(kind.__match_args__)))
        stack += reversed(todo)


def _rebuild(flat: tuple) -> TreeNode:
    """The node `_flatten` gave `flat` for."""
    done: list = []
    for item in flat:
        if type(item) is tuple:
            make, n = item
            n = len(done) - n
            done[n:] = [make(*done[n:])]
        else:
            done.append(item)
    return done[0]


def _tuple(*values) -> tuple:
    return values


def _shown(value):
    """`value` if `TreeNode.__repr__` expands it, else its text."""
    return value if type(value) is tuple or isinstance(value, TreeNode) else repr(value)


@dataclass(frozen=True, slots=True, repr=False)
class App(TreeNode):
    """A symbol applied to exactly `symbol.arity` argument terms."""

    symbol: Symbol
    args: tuple = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, symbol: Symbol, args=()):
        # Written by hand, and slotted, so that caching the hash costs no
        # more time or memory than the generated `__init__` plus
        # `__post_init__` did.  The children's hashes are already cached,
        # so hashing `args` is O(arity).
        if not isinstance(args, tuple):
            args = tuple(args)
        if len(args) != symbol.arity:
            raise ArityError(
                f"{symbol.name} expects {symbol.arity} argument(s), "
                f"got {len(args)}"
            )
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((symbol.name, args)))

    @classmethod
    def _unchecked(cls, symbol: Symbol, args: tuple) -> App:
        """The `App(symbol, args)` of a tuple `args` known to hold
        `symbol.arity` terms: nothing is checked or converted."""
        node = object.__new__(cls)
        _set_symbol(node, symbol)
        _set_args(node, args)
        _set_hash(node, hash((symbol.name, args)))
        return node

    def __eq__(self, other) -> bool:
        # Written by hand, on an explicit stack of argument tuples, so that
        # the depth of a term is not bounded by the recursion limit.
        # Identical pairs are skipped; unequal cached hashes or symbols end
        # the walk at once.
        if self is other:
            return True
        if type(other) is not App:
            return NotImplemented
        if self._hash != other._hash or (
            self.symbol is not other.symbol and self.symbol != other.symbol
        ):
            return False
        if not self.args:  # equal constants, the common case in rule sides
            return True
        stack = [(self.args, other.args)]
        while stack:
            xs, ys = stack.pop()
            for x, y in zip(xs, ys):
                if x is y:
                    continue
                if type(x) is not App or type(y) is not App:
                    if x != y:
                        return False
                elif x._hash != y._hash or (x.symbol is not y.symbol and x.symbol != y.symbol):
                    return False
                elif x.args:
                    stack.append((x.args, y.args))
        return True

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return print_term(self)


# The slots' own setters, which the frozen `__setattr__` does not guard.
_set_symbol, _set_args, _set_hash = App.symbol.__set__, App.args.__set__, App._hash.__set__

Term = Var | App


@dataclass(frozen=True, order=True)
class Position:
    """A path of 1-based child indices; the empty path is the root.

    The derived total order is lexicographic on paths; the prefix (partial)
    order is available through `is_prefix_of`.
    """

    path: tuple = ()

    def __post_init__(self):
        if not isinstance(self.path, tuple):
            object.__setattr__(self, "path", tuple(self.path))
        if any(i < 1 for i in self.path):
            raise ValueError(f"position indices are 1-based: {self.path}")

    @classmethod
    def _unchecked(cls, path: tuple) -> Position:
        """A position whose `path` is known to be a tuple of indices >= 1."""
        pos = object.__new__(cls)
        object.__setattr__(pos, "path", path)
        return pos

    def child(self, i: int) -> Position:
        """The position one level down at index `i`; only `i` is checked."""
        if i < 1:
            raise ValueError(f"position indices are 1-based: {self.path + (i,)}")
        return Position._unchecked(self.path + (i,))

    @property
    def is_root(self) -> bool:
        return not self.path

    def is_prefix_of(self, other: Position) -> bool:
        return other.path[: len(self.path)] == self.path

    def is_below(self, other: Position) -> bool:
        """Strictly deeper than `other`, i.e. `other` is a proper prefix."""
        return len(self.path) > len(other.path) and other.is_prefix_of(self)

    def __str__(self) -> str:
        return _path_text(self.path)


def _path_text(path: tuple) -> str:
    """The text of the position with `path`: `e` at the root."""
    return ".".join(map(str, path)) if path else "e"


ROOT = Position()


@dataclass(frozen=True)
class Substitution:
    """A finite map from variable names to terms, applied simultaneously.

    Stored as name-sorted pairs so equal maps compare and hash equal.
    """

    pairs: tuple = ()

    def __post_init__(self):
        pairs = tuple(sorted(self.pairs, key=lambda p: p[0]))
        names = [n for n, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError(f"variable bound twice: {names}")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def of(cls, mapping: dict) -> Substitution:
        """The substitution of a dict, whose keys are unique: only sorted."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "pairs", tuple(sorted(mapping.items())))
        return sub

    def get(self, name: str) -> Term | None:
        for n, t in self.pairs:
            if n == name:
                return t
        return None

    def items(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        inner = ",".join(f"{n}->{t}" for n, t in self.pairs)
        return "{" + inner + "}"

    def __lt__(self, other: Substitution) -> bool:
        return str(self) < str(other)


def subterms(t: Term):
    """Yield (position, subterm) pairs in preorder (lexicographic positions)."""
    stack = [(ROOT, t)]
    while stack:
        pos, sub = stack.pop()
        yield pos, sub
        if isinstance(sub, App):
            for i in range(len(sub.args), 0, -1):
                stack.append((pos.child(i), sub.args[i - 1]))


def positions(t: Term) -> list[Position]:
    """All valid positions of `t`, root included, in lexicographic order."""
    return [pos for pos, _ in subterms(t)]


def subterm_at(t: Term, p: Position) -> Term:
    """The subterm of `t` rooted at `p`; the root position is the identity."""
    cur = t
    for i in p.path:
        if not isinstance(cur, App) or i > len(cur.args):
            raise InvalidPosition(f"no position {p} in {t}")
        cur = cur.args[i - 1]
    return cur


def replace_at(t: Term, p: Position, s: Term) -> Term:
    """`t` with the subterm at `p` replaced by `s`; all other nodes unchanged.

    Only the nodes on the path to `p` are rebuilt.
    """
    path = p.path
    spine = []
    cur = t
    for depth, i in enumerate(path):
        if not isinstance(cur, App) or i > len(cur.args):
            raise InvalidPosition(f"no position {Position(path[depth:])} in {cur}")
        spine.append(cur)
        cur = cur.args[i - 1]
    for node, i in zip(reversed(spine), reversed(path)):
        s = App._unchecked(node.symbol, node.args[: i - 1] + (s,) + node.args[i:])
    return s


def variables(t: Term) -> tuple:
    """Variable names of `t` in first-occurrence (preorder) order."""
    seen: list[str] = []
    for _, sub in subterms(t):
        if isinstance(sub, Var) and sub.name not in seen:
            seen.append(sub.name)
    return tuple(seen)


def match(pattern: Term, subject: Term) -> Substitution | None:
    """Syntactic matching: the unique substitution with sigma(pattern) = subject.

    Returns None when no such substitution exists.  Variables of the subject
    are treated as constants; repeated pattern variables must map to
    identical subterms.  Compiled per call; a `Rule` compiles its lhs once.
    """
    bindings = _run(_program(pattern), subject)
    return None if bindings is None else Substitution.of(bindings)


def _program(pattern: Term) -> tuple:
    """`pattern` compiled to the match program `_run` runs: `(name, arity,
    tests, binds)`.  The subject must be an application of a symbol of that
    `name` and `arity`, whose arguments are register 0.  A test `(reg, i,
    name, arity)` requires the same of the `i`-th term of register `reg`
    and makes its arguments the next register; a binding `(var, reg, i)`
    binds `var` to that term, which must equal any earlier binding of
    `var`.  A variable pattern has `name` None and binds the whole subject.
    """
    if type(pattern) is Var:
        return None, 0, (), ((pattern.name, None, None),)
    tests, binds = [], []
    stack = [(0, pattern)]
    while stack:
        reg, node = stack.pop()
        for i, arg in enumerate(node.args):
            if type(arg) is Var:
                binds.append((arg.name, reg, i))
            else:
                tests.append((reg, i, arg.symbol.name, arg.symbol.arity))
                stack.append((len(tests), arg))
    return pattern.symbol.name, pattern.symbol.arity, tuple(tests), tuple(binds)


def _run(program: tuple, subject: Term) -> dict | None:
    """The bindings, as a dict of names to terms, under which the pattern
    compiled to `program` is `subject`, or None.  Symbols are compared by
    name and arity, so equal symbols need not be identical."""
    name, arity, tests, binds = program
    if type(subject) is not App or (sym := subject.symbol).name != name or sym.arity != arity:
        # Only a variable pattern, with no root symbol, binds any subject.
        return None if name is not None else {binds[0][0]: subject}
    regs = [subject.args]
    for reg, i, name, arity in tests:
        node = regs[reg][i]
        if type(node) is not App or (sym := node.symbol).name != name or sym.arity != arity:
            return None
        regs.append(node.args)
    bindings = {}
    for var, reg, i in binds:
        value = regs[reg][i]
        bound = bindings.setdefault(var, value)
        if bound is not value and bound != value:
            return None
    return bindings


def apply_subst(subst: Substitution, t: Term) -> Term:
    """Simultaneously replace every bound variable; unbound ones stay as-is.
    Compiled per call; a `Rule` compiles its rhs once."""
    return _instantiate(dict(subst.pairs), _build_program(t))


def _build_program(t: Term) -> tuple:
    """`t` compiled to the build program `_instantiate` and the bottom-up
    pass run: the nodes of `t` in post-order, children right to left.

    Each op makes one value.  A variable makes its binding, a constant
    itself, and an application with arguments a new node of its symbol,
    from the last `len(args)` values made, the rightmost made first.
    """
    ops = []
    stack = [t]
    while stack:  # preorder, children left to right: the program reversed
        node = stack.pop()
        ops.append(node)
        if type(node) is App:
            stack += reversed(node.args)
    ops.reverse()
    return tuple(ops)


def _instantiate(bindings: dict, build: tuple) -> Term:
    """The term the build program `build` (see `_build_program`) makes
    under `bindings`, a plain dict of names to terms; an unbound variable
    stays itself.

    One loop over the program, so the depth of the term is not bounded by
    the interpreter's recursion limit.
    """
    if len(build) == 1:  # a variable or a constant, as `u : f(x) => x`
        op = build[0]
        return bindings.get(op.name, op) if type(op) is Var else op
    done = []  # the values made so far
    for op in build:
        if type(op) is Var:
            done.append(bindings.get(op.name, op))
            continue
        n = len(op.args)
        if not n:
            done.append(op)
            continue
        if n == 1:
            kids = (done.pop(),)
        else:
            kids = done[-n:]
            del done[-n:]
            kids.reverse()
            kids = tuple(kids)
        done.append(App._unchecked(op.symbol, kids))
    return done[0]


def parse_term(text: str, sig: Signature) -> Term:
    lexer = Lexer(text)
    t, i = parse_term_tokens(lexer, sig, 0)
    lexer.expect_end(i)
    return t


def parse_term_tokens(lexer: Lexer, sig: Signature, i: int, reserved=()) -> tuple[Term, int]:
    """Parse one term from token `i`; returns it and the index after it.

    Read by `parse_tree`, so the depth of the term is not bounded by the
    interpreter's recursion limit, with one call of `build` per node.  Each
    application is checked against `sig` when its closing parenthesis has
    been read.  Each constant is built once per read and shared wherever it
    occurs, so the bottom-up pass, which remembers normal nodes by
    identity, tries its rules once.  A variable must not be spelled like a
    name `in reserved`: a reader that holds a theory passes its rule
    labels, which a proof reads as rules.
    """
    tokens = lexer.tokens
    symbols = sig._by_name
    constants: dict[str, App] = {}  # name -> the one node of that constant in this read

    def build(head: int, args: list | None) -> Term:
        # None for `args` means no parentheses followed the head.
        name = tokens[head]
        sym = symbols.get(name)
        if sym is None:
            if args is not None:
                raise lexer.error(f"undeclared symbol {name!r}", head, UnknownSymbol)
            if name[0].isdigit():
                raise lexer.error(f"undeclared numeral constant {name!r}", head, UnknownSymbol)
            if name in reserved:
                raise lexer.error(f"{name!r} is a rule label, not a variable", head)
            return Var(name)
        if args:
            if len(args) == sym.arity:
                return App._unchecked(sym, tuple(args))
        elif not sym.arity:
            node = constants.get(name)
            if node is None:
                node = constants[name] = App._unchecked(sym, ())
            return node
        lexer.check_arity(head, sym.arity, args)  # raises: the count is wrong

    return parse_tree(lexer, build, "a term", i)


def print_term(t: Term) -> str:
    """Canonical text form; `parse_term(print_term(t), sig)` gives back `t`."""
    return print_tree(t, None)


def print_tree(root, expand) -> str:
    """The text of a term, or of a tree with terms in it.

    Built on an explicit stack of items, so depth is not bounded by the
    interpreter's recursion limit.  Strings and terms print as themselves;
    another node is replaced by `expand(node)`, its items in print order.
    A run of unary applications, such as a numeral, prints its heads at
    once and leaves one item for all its closing parentheses.
    """
    parts = []
    stack = [root]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            parts.append(item)
        elif kind is App:
            args = item.args
            if len(args) == 1:
                k = 0
                while True:
                    parts.append(item.symbol.name + "(")
                    k += 1
                    item = args[0]
                    if type(item) is not App or len(args := item.args) != 1:
                        break
                stack += (")" * k, item)
            elif not args:
                parts.append(item.symbol.name)
            else:
                parts.append(item.symbol.name + "(")
                stack.append(")")
                for k in range(len(args) - 1, 0, -1):
                    stack.append(args[k])
                    stack.append(",")
                stack.append(args[0])
        elif kind is Var:
            parts.append(item.name)
        else:
            stack.extend(reversed(expand(item)))
    return "".join(parts)
