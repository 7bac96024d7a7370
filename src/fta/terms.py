"""Ranked terms, positions, and the position algebra.

A term is an immutable tree: either a variable leaf ``x1, x2, ...``, a
state leaf (an already-computed automaton state, rendered ``@q``), or an
operation symbol applied to exactly as many children as its arity.

A position addresses a subtree by the sequence of 1-based child indices
on the path from the root.  The root is the empty sequence, rendered
``ε`` and accepted on input as ``ε``, ``e`` or the empty string; other
positions are rendered dot-separated (``2.1.1``).

Concrete term syntax::

    term := var | const | symbol '(' term (',' term)* ')'

Whitespace is insignificant and ``#`` starts a comment running to the
end of the line.  Variables are ``x`` followed by a positive integer;
that namespace is reserved and may not be used for symbol names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    ArityMismatchError,
    InvalidPositionError,
    TermSyntaxError,
    UnknownSymbolError,
)

_VAR_RE = re.compile(r"x([1-9][0-9]*)\Z")
_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class Signature:
    """Operation symbols with fixed arities.

    Symbol names must be unique, must not collide with the variable
    namespace, and at least one symbol must be nullary (a constant).
    """

    symbols: tuple[tuple[str, int], ...]

    def __init__(self, symbols: Iterable[tuple[str, int]]):
        object.__setattr__(self, "symbols", tuple((str(n), int(a)) for n, a in symbols))
        seen = set()
        for name, arity in self.symbols:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad symbol name {name!r}")
            if _VAR_RE.match(name):
                raise ValueError(f"symbol name {name!r} collides with the variable namespace")
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol {name!r}")
            seen.add(name)
        if not any(a == 0 for _, a in self.symbols):
            raise ValueError("signature needs at least one nullary symbol")
        object.__setattr__(self, "_arities", dict(self.symbols))

    @property
    def constants(self) -> tuple[str, ...]:
        """Nullary symbols, in declaration order."""
        return tuple(n for n, a in self.symbols if a == 0)

    def arity(self, name: str) -> int | None:
        """Arity of ``name``, or None if the symbol is not declared."""
        return self._arities.get(name)


@dataclass(frozen=True)
class Var:
    """Variable leaf ``x<index>``."""

    index: int


@dataclass(frozen=True)
class Node:
    """Operation symbol applied to children (none for constants)."""

    symbol: str
    children: tuple["Term", ...] = ()


@dataclass(frozen=True)
class StateLeaf:
    """Leaf standing for an already-computed automaton state."""

    state: str


Term = Union[Var, Node, StateLeaf]


@dataclass(frozen=True)
class Position:
    """Path from the root as a sequence of 1-based child indices."""

    indices: tuple[int, ...] = ()

    def __init__(self, indices: Iterable[int] = ()):
        ix = tuple(int(i) for i in indices)
        if any(i < 1 for i in ix):
            raise InvalidPositionError(f"child indices must be positive: {ix}")
        object.__setattr__(self, "indices", ix)

    @classmethod
    def parse(cls, text: str) -> "Position":
        text = text.strip()
        if text in ("", "e", "ε"):
            return ROOT
        parts = text.split(".")
        if not all(p.isdigit() and int(p) >= 1 for p in parts):
            raise InvalidPositionError(f"bad position {text!r}")
        return cls(int(p) for p in parts)

    def __str__(self) -> str:
        return ".".join(str(i) for i in self.indices) if self.indices else "ε"

    def __repr__(self) -> str:
        return f"Position({self})"

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def order_key(self) -> tuple[int, tuple[int, ...]]:
        """Sort key giving the length-then-lexicographic order."""
        return (len(self.indices), self.indices)

    def is_prefix_of(self, other: "Position") -> bool:
        """Reflexive prefix relation: every position extends the root."""
        return self.indices == other.indices[: len(self.indices)]

    def parent(self) -> "Position":
        if not self.indices:
            raise InvalidPositionError("the root has no parent")
        return Position(self.indices[:-1])

    def suffix_after(self, prefix: "Position") -> "Position":
        """The remainder of this position below ``prefix``."""
        if not prefix.is_prefix_of(self):
            raise InvalidPositionError(f"{prefix} is not a prefix of {self}")
        return Position(self.indices[len(prefix.indices):])


ROOT = Position(())


class PositionSet:
    """Immutable set of positions with length-then-lexicographic iteration."""

    __slots__ = ("_set", "_sorted")

    def __init__(self, items: Iterable[Position] = ()):
        frozen = frozenset(items)
        object.__setattr__(self, "_set", frozen)
        object.__setattr__(self, "_sorted", tuple(sorted(frozen, key=lambda p: p.order_key)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PositionSet is immutable")

    def __contains__(self, p: Position) -> bool:
        return p in self._set

    def __iter__(self) -> Iterator[Position]:
        return iter(self._sorted)

    def __len__(self) -> int:
        return len(self._set)

    def __bool__(self) -> bool:
        return bool(self._set)

    def __eq__(self, other) -> bool:
        if isinstance(other, PositionSet):
            return self._set == other._set
        if isinstance(other, (set, frozenset)):
            return self._set == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(p) for p in self._sorted) + "}"

    def render(self) -> str:
        return " ".join(str(p) for p in self._sorted)


# ---------------------------------------------------------------------------
# parsing / printing


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "(),":
            toks.append((ch, ch, i))
            i += 1
        elif ch == "@":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise TermSyntaxError("'@' must be followed by a state name",
                                      len(text[:i].encode("utf-8")))
            toks.append(("state", text[i + 1:j], i))
            i = j
        elif ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        else:
            raise TermSyntaxError(f"unexpected character {ch!r}",
                                  len(text[:i].encode("utf-8")))
    return toks


class _TermParser:
    def __init__(self, text: str, sig: Signature, allow_state_leaves: bool):
        self.text = text
        self.sig = sig
        self.allow_state_leaves = allow_state_leaves
        self.toks = _tokenize(text)
        self.i = 0

    def _byte(self, char_index: int) -> int:
        return len(self.text[:char_index].encode("utf-8"))

    def _fail(self, cls, message: str, char_index: int):
        raise cls(message, self._byte(char_index))

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _take(self, expected: str):
        tok = self._peek()
        if tok is None:
            self._fail(TermSyntaxError, f"expected {expected}, found end of input", len(self.text))
        self.i += 1
        return tok

    def term(self) -> Term:
        kind, value, at = self._take("a term")
        if kind == "state":
            if not self.allow_state_leaves:
                self._fail(TermSyntaxError, f"state leaf @{value} not allowed here", at)
            return StateLeaf(value)
        if kind != "name":
            self._fail(TermSyntaxError, f"expected a term, found {value!r}", at)
        m = _VAR_RE.match(value)
        if m:
            return Var(int(m.group(1)))
        arity = self.sig.arity(value)
        if arity is None:
            self._fail(UnknownSymbolError, f"unknown symbol {value!r}", at)
        nxt = self._peek()
        if arity == 0:
            if nxt is not None and nxt[0] == "(":
                self._fail(ArityMismatchError, f"{value} is a constant and takes no arguments", at)
            return Node(value)
        if nxt is None or nxt[0] != "(":
            self._fail(ArityMismatchError, f"{value} expects {arity} arguments", at)
        self._take("'('")
        args = [self.term()]
        while True:
            tok = self._take("',' or ')'")
            if tok[0] == ")":
                break
            if tok[0] != ",":
                self._fail(TermSyntaxError, f"expected ',' or ')', found {tok[1]!r}", tok[2])
            args.append(self.term())
        if len(args) != arity:
            self._fail(ArityMismatchError,
                       f"{value} expects {arity} arguments, got {len(args)}", at)
        return Node(value, tuple(args))


def parse_term(text: str, sig: Signature, *, allow_state_leaves: bool = False) -> Term:
    """Parse ``text`` into a term over ``sig``.

    Errors report a byte offset.  ``allow_state_leaves`` additionally
    admits ``@state`` leaves, giving the mixed-term syntax that
    partial runs print.
    """
    parser = _TermParser(text, sig, allow_state_leaves)
    if parser._peek() is None:
        raise TermSyntaxError("empty input", 0)
    t = parser.term()
    trailing = parser._peek()
    if trailing is not None:
        parser._fail(TermSyntaxError, f"unexpected trailing input {trailing[1]!r}", trailing[2])
    return t


def render_term(t: Term) -> str:
    """Canonical prefix notation; inverse of :func:`parse_term`."""
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, StateLeaf):
        return f"@{t.state}"
    if not t.children:
        return t.symbol
    return t.symbol + "(" + ",".join(render_term(c) for c in t.children) + ")"


# ---------------------------------------------------------------------------
# position algebra


def positions(t: Term) -> PositionSet:
    """All positions of ``t``; one per node, prefix-closed."""
    acc = []
    stack: list[tuple[Term, tuple[int, ...]]] = [(t, ())]
    while stack:
        node, path = stack.pop()
        acc.append(Position(path))
        if isinstance(node, Node):
            for i, child in enumerate(node.children, 1):
                stack.append((child, path + (i,)))
    return PositionSet(acc)


def subterm_at(t: Term, p: Position) -> Term:
    """The subtree of ``t`` rooted at ``p``."""
    node = t
    for depth, i in enumerate(p.indices):
        if not isinstance(node, Node) or i > len(node.children):
            raise InvalidPositionError(
                f"{p} is not a position of the term (stuck at {Position(p.indices[:depth])})"
            )
        node = node.children[i - 1]
    return node


def replace_at(t: Term, p: Position, replacement: Term) -> Term:
    """A copy of ``t`` with the subtree at ``p`` replaced."""
    if not p.indices:
        return replacement
    if not isinstance(t, Node) or p.indices[0] > len(t.children):
        raise InvalidPositionError(f"{p} is not a position of the term")
    i = p.indices[0]
    children = list(t.children)
    children[i - 1] = replace_at(children[i - 1], Position(p.indices[1:]), replacement)
    return Node(t.symbol, tuple(children))


def depth(t: Term) -> int:
    """0 for leaves, else one more than the deepest child."""
    if isinstance(t, (Var, StateLeaf)) or not t.children:
        return 0
    return 1 + max(depth(c) for c in t.children)


def variables(t: Term) -> frozenset[int]:
    """Indices of the variables occurring in ``t``."""
    acc: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            acc.add(node.index)
        elif isinstance(node, Node):
            stack.extend(node.children)
    return frozenset(acc)


def variable_positions(t: Term) -> dict[int, tuple[Position, ...]]:
    """Leaf positions of each variable, in iteration order."""
    acc: dict[int, list[Position]] = {}
    for p in positions(t):
        node = subterm_at(t, p)
        if isinstance(node, Var):
            acc.setdefault(node.index, []).append(p)
    return {v: tuple(ps) for v, ps in acc.items()}


def node_count(t: Term) -> int:
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Node):
            stack.extend(node.children)
    return count


def substitute(t: Term, binding: Mapping[int, Term]) -> Term:
    """Simultaneous single-pass substitution of variables.

    Unbound variables stay; variables inside replacement terms are not
    substituted again.
    """
    if isinstance(t, Var):
        return binding.get(t.index, t)
    if isinstance(t, StateLeaf) or not t.children:
        return t
    return Node(t.symbol, tuple(substitute(c, binding) for c in t.children))


def independent(p: Position, q: Position) -> bool:
    """True iff neither position is a prefix of the other.

    Independent positions address disjoint subtree occurrences.
    """
    return not (p.is_prefix_of(q) or q.is_prefix_of(p))


def ind_positions(t: Term, p: Position) -> PositionSet:
    """All positions of ``t`` independent of ``p``."""
    pos = positions(t)
    if p not in pos:
        raise InvalidPositionError(f"{p} is not a position of the term")
    return PositionSet(q for q in pos if independent(p, q))


def is_prefix_closed(ps: Iterable[Position]) -> bool:
    """True iff the set contains every prefix of each member."""
    s = set(ps)
    return all(p.indices == () or p.parent() in s for p in s)


def is_prefix_determined(ps: Iterable[Position], qs: Iterable[Position]) -> bool:
    """True iff the set contains every extension (within ``qs``) of each member."""
    s = set(ps)
    return all(q in s for p in s for q in qs if p.is_prefix_of(q))

