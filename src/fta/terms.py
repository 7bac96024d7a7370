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
from functools import cached_property
from types import MappingProxyType
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
    """Operation symbol applied to children (none for constants).  Equality
    and hashing compare the compiled arrays and ``repr`` shows the
    rendered term, so none of them recurses."""

    symbol: str
    children: tuple["Term", ...] = ()

    def _arrays(self) -> tuple:
        term = compile_term(self)
        return term.kinds, term.labels, term.children

    def __eq__(self, other) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self is other or self._arrays() == other._arrays()

    def __hash__(self) -> int:
        return hash(self._arrays())

    def __repr__(self) -> str:
        return f"<Node {render_term(self)}>"


@dataclass(frozen=True)
class StateLeaf:
    """Leaf standing for an already-computed automaton state."""

    state: str


Term = Union[Var, Node, StateLeaf]


@dataclass(frozen=True)
class Position:
    """Path from the root as a sequence of 1-based child indices; its
    hash is computed once, so a deep position is not walked again."""

    indices: tuple[int, ...] = ()

    def __init__(self, indices: Iterable[int] = ()):
        ix = tuple(int(i) for i in indices)
        if any(i < 1 for i in ix):
            raise InvalidPositionError(f"child indices must be positive: {ix}")
        object.__setattr__(self, "indices", ix)
        object.__setattr__(self, "_hash", hash(ix))

    @classmethod
    def _trusted(cls, indices: tuple[int, ...]) -> "Position":
        """A position from indices already known to be valid."""
        p = object.__new__(cls)
        object.__setattr__(p, "indices", indices)
        object.__setattr__(p, "_hash", hash(indices))
        return p

    def __hash__(self) -> int:
        return self._hash

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
        """Parse one term.  Operations whose arguments are still being
        read wait on an explicit stack as ``[symbol, arity, offset, args]``,
        so nesting depth is not limited by the interpreter's stack."""
        open_nodes: list[list] = []
        while True:
            kind, value, at = self._take("a term")
            if kind == "state":
                if not self.allow_state_leaves:
                    self._fail(TermSyntaxError, f"state leaf @{value} not allowed here", at)
                done: Term = StateLeaf(value)
            elif kind != "name":
                self._fail(TermSyntaxError, f"expected a term, found {value!r}", at)
            elif m := _VAR_RE.match(value):
                done = Var(int(m.group(1)))
            else:
                arity = self.sig.arity(value)
                if arity is None:
                    self._fail(UnknownSymbolError, f"unknown symbol {value!r}", at)
                nxt = self._peek()
                if arity == 0:
                    if nxt is not None and nxt[0] == "(":
                        self._fail(ArityMismatchError,
                                   f"{value} is a constant and takes no arguments", at)
                    done = Node(value)
                else:
                    if nxt is None or nxt[0] != "(":
                        self._fail(ArityMismatchError, f"{value} expects {arity} arguments", at)
                    self._take("'('")
                    open_nodes.append([value, arity, at, []])
                    continue
            # ``done`` is complete: hand it to the innermost open operation,
            # closing every operation that ends here.
            while open_nodes:
                symbol, arity, at, args = open_nodes[-1]
                args.append(done)
                tok = self._take("',' or ')'")
                if tok[0] == ",":
                    break
                if tok[0] != ")":
                    self._fail(TermSyntaxError, f"expected ',' or ')', found {tok[1]!r}", tok[2])
                if len(args) != arity:
                    self._fail(ArityMismatchError,
                               f"{symbol} expects {arity} arguments, got {len(args)}", at)
                open_nodes.pop()
                done = Node(symbol, tuple(args))
            else:
                return done


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
    out: list[str] = []
    todo: list[Term | str] = [t]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(f"x{item.index}")
        elif isinstance(item, StateLeaf):
            out.append(f"@{item.state}")
        elif not item.children:
            out.append(item.symbol)
        else:
            out.append(item.symbol + "(")
            todo.append(")")
            kids = item.children
            for i in range(len(kids) - 1, 0, -1):
                todo.append(kids[i])
                todo.append(",")
            todo.append(kids[0])
    return "".join(out)


# ---------------------------------------------------------------------------
# compiled form


class CompiledTerm:
    """A term flattened into post-order arrays.

    Node ids number the nodes in post-order: every child before its
    parent, siblings left to right, the root last.  Evaluating nodes in
    id order is therefore the order of a recursive bottom-up evaluation.
    For node i, ``kinds[i]`` is its class (:class:`Var`,
    :class:`StateLeaf` or :class:`Node`), ``labels[i]`` its variable
    index, state or symbol, ``children[i]`` the ids of its children and
    ``sizes[i]`` its subtree's node count, so that subtree is the ids
    ``i - sizes[i] + 1`` to ``i``.  The position table, its inverse and
    the variables below each node are built on first use.
    """

    def __init__(self, t: Term):
        kinds: list[type] = []
        labels: list[object] = []
        children: list[tuple[int, ...]] = []
        sizes: list[int] = []
        finished: list[int] = []  # ids whose parent is not finished yet
        todo: list[tuple[Term, bool]] = [(t, False)]
        while todo:
            node, expanded = todo.pop()
            if isinstance(node, Node):
                n = len(node.children)
                if n and not expanded:
                    todo.append((node, True))
                    todo.extend((c, False) for c in reversed(node.children))
                    continue
                kind, label = Node, node.symbol
                kids = tuple(finished[len(finished) - n:])
                del finished[len(finished) - n:]
            else:
                kind, label = (Var, node.index) if isinstance(node, Var) else (StateLeaf, node.state)
                kids = ()
            # the subtree starts where its first child's subtree starts
            sizes.append(len(kinds) - kids[0] + sizes[kids[0]] if kids else 1)
            finished.append(len(kinds))
            kinds.append(kind)
            labels.append(label)
            children.append(kids)
        self.kinds = tuple(kinds)
        self.labels = tuple(labels)
        self.children = tuple(children)
        self.sizes = tuple(sizes)
        self.root = len(kinds) - 1
        self.variables = frozenset(v for k, v in zip(kinds, labels) if k is Var)

    @cached_property
    def positions(self) -> tuple[Position, ...]:
        """Position of each node, by node id; each built once."""
        paths: list = [None] * len(self.kinds)
        paths[self.root] = ROOT
        for i in range(self.root, -1, -1):  # parents before children
            above = paths[i].indices
            for j, k in enumerate(self.children[i], 1):
                paths[k] = Position._trusted(above + (j,))
        return tuple(paths)

    @cached_property
    def node_of(self) -> Mapping[Position, int]:
        """Node id of each position."""
        return MappingProxyType({p: i for i, p in enumerate(self.positions)})

    @cached_property
    def position_set(self) -> PositionSet:
        return PositionSet(self.positions)

    def independent(self, i: int, j: int) -> bool:
        """True iff neither node lies in the other's subtree, that is
        iff their subtrees' id ranges are disjoint."""
        return j <= i - self.sizes[i] or i <= j - self.sizes[j]

    @cached_property
    def variables_at(self) -> tuple[frozenset[int], ...]:
        """Variables of the subtree at each node, by node id."""
        acc: list[frozenset[int]] = []
        for kind, label, kids in zip(self.kinds, self.labels, self.children):
            acc.append(frozenset((label,)) if kind is Var
                       else frozenset().union(*(acc[k] for k in kids)))
        return tuple(acc)


def compile_term(t: Term) -> CompiledTerm:
    """The compiled form of ``t``: built on first use and kept with ``t``,
    so every later query on the same term object reuses it."""
    compiled = t.__dict__.get("_compiled")
    if compiled is None:
        compiled = CompiledTerm(t)
        object.__setattr__(t, "_compiled", compiled)
    return compiled


# ---------------------------------------------------------------------------
# position algebra


def positions(t: Term) -> PositionSet:
    """All positions of ``t``; one per node, prefix-closed."""
    return compile_term(t).position_set


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
    path = []
    node = t
    for level, i in enumerate(p.indices):
        if not isinstance(node, Node) or i > len(node.children):
            rest = Position(p.indices[level:])
            raise InvalidPositionError(f"{rest} is not a position of the term")
        path.append(node)
        node = node.children[i - 1]
    for parent, i in zip(reversed(path), reversed(p.indices)):
        children = list(parent.children)
        children[i - 1] = replacement
        replacement = Node(parent.symbol, tuple(children))
    return replacement


def depth(t: Term) -> int:
    """0 for leaves, else one more than the deepest child."""
    deepest = 0
    todo = [(t, 0)]
    while todo:
        node, d = todo.pop()
        deepest = max(deepest, d)
        if isinstance(node, Node):
            todo.extend((c, d + 1) for c in node.children)
    return deepest


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
    term = compile_term(t)
    done: list[Term] = []
    for kind, label, kids in zip(term.kinds, term.labels, term.children):
        if kind is Var:
            done.append(binding.get(label, Var(label)))
        elif kind is StateLeaf:
            done.append(StateLeaf(label))
        else:
            done.append(Node(label, tuple(done[k] for k in kids)))
    return done[term.root]


def independent(p: Position, q: Position) -> bool:
    """True iff neither position is a prefix of the other.

    Independent positions address disjoint subtree occurrences.
    """
    return not (p.is_prefix_of(q) or q.is_prefix_of(p))


def ind_positions(t: Term, p: Position) -> PositionSet:
    """All positions of ``t`` independent of ``p``."""
    term = compile_term(t)
    node = term.node_of.get(p)
    if node is None:
        raise InvalidPositionError(f"{p} is not a position of the term")
    return PositionSet(q for i, q in enumerate(term.positions) if term.independent(node, i))


def is_prefix_closed(ps: Iterable[Position]) -> bool:
    """True iff the set contains every prefix of each member."""
    s = set(ps)
    return all(p.indices == () or p.parent() in s for p in s)


def is_prefix_determined(ps: Iterable[Position], qs: Iterable[Position]) -> bool:
    """True iff the set contains every extension (within ``qs``) of each member.

    One pass over ``qs``: a q must be in ``ps`` when some prefix of it
    is, and each prefix's verdict is worked out once, from its parent's.
    """
    inside = {p.indices for p in ps}
    covered = {(): () in inside}  # by index tuple: does some prefix lie in ``ps``?
    for q in qs:
        ix, above = q.indices, []
        while ix not in covered:
            above.append(ix)
            ix = ix[:-1]
        verdict = covered[ix]
        for ix in reversed(above):
            verdict = covered[ix] = verdict or ix in inside
        if verdict and q.indices not in inside:
            return False
    return True
