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
from typing import Callable, Iterable, Iterator, Mapping, Union

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
        object.__setattr__(self, "_constants", tuple(n for n, a in self.symbols if a == 0))

    @property
    def constants(self) -> tuple[str, ...]:
        """Nullary symbols, in declaration order; listed once, when the
        signature is made, since every run's assignment is checked
        against them."""
        return self._constants

    def arity(self, name: str) -> int | None:
        """Arity of ``name``, or None if the symbol is not declared."""
        return self._arities.get(name)


def _without_analysis(t: "Term") -> dict:
    """What copying or pickling a term keeps: its fields, its text and
    its compiled form, but not its analysis (see
    :func:`fta.essential.analysis`), which belongs to the original term
    object; so a copy starts with none."""
    state = dict(t.__dict__)
    state.pop("_analysis", None)
    return state


@dataclass(frozen=True)
class Var:
    """Variable leaf ``x<index>``."""

    index: int

    __getstate__ = _without_analysis


@dataclass(frozen=True)
class Node:
    """Operation symbol applied to children (none for constants).  Equality
    and hashing compare the compiled arrays and ``repr`` shows the
    rendered term, so none of them recurses.

    A term :func:`parse_term` made, and a copy or pickle of any node,
    holds only its compiled form (:func:`compile_term`) until
    ``children`` is first read; then the whole tree below it is built
    from that form (:meth:`CompiledTerm.tree`).  So copying, pickling
    and rebuilding never recurse, however deep the term."""

    symbol: str
    children: tuple["Term", ...]

    def __init__(self, symbol: str, children: tuple["Term", ...] = ()):
        # written straight into the instance dict, past the frozen
        # dataclass's slower object.__setattr__
        fields = self.__dict__
        fields["symbol"] = symbol
        fields["children"] = children

    def __getattr__(self, name: str):
        """``children``, those of a copy built from the compiled form,
        when first read; only a missing attribute comes here."""
        term = self.__dict__.get("_compiled")
        if name != "children" or term is None:
            raise AttributeError(name)
        children = self.__dict__["children"] = term.tree().children
        return children

    def __getstate__(self) -> dict:
        """The fields, text and compiled form, made here if missing, but
        neither the analysis nor ``children``, which the copy builds
        from the compiled form when first read."""
        compile_term(self)
        state = _without_analysis(self)
        state.pop("children", None)
        return state

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

    __getstate__ = _without_analysis


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
        if not all(p.isdecimal() and int(p) >= 1 for p in parts):
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


ROOT = Position(())


class PositionSet(frozenset):
    """Frozen set of positions that iterates, and prints, in
    length-then-lexicographic order.  Set operations such as ``|``,
    ``&`` and ``-`` give plain frozensets."""

    __slots__ = ("_sorted",)

    def __new__(cls, items: Iterable[Position] = ()):
        return cls._in_order(sorted(set(items), key=lambda p: p.order_key))

    @classmethod
    def _in_order(cls, ordered: list[Position]) -> "PositionSet":
        """A set of positions already distinct and in iteration order."""
        ps = frozenset.__new__(cls, ordered)
        object.__setattr__(ps, "_sorted", tuple(ordered))
        return ps

    def __setattr__(self, name, value):
        raise AttributeError("PositionSet is immutable")

    def __reduce__(self):
        """Copies and pickles are rebuilt in order, never by setting
        attributes."""
        return self._in_order, (list(self._sorted),)

    def __iter__(self) -> Iterator[Position]:
        return iter(self._sorted)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(p) for p in self._sorted) + "}"


# ---------------------------------------------------------------------------
# parsing / printing


def _byte_offset(text: str, i: int) -> int:
    """Length in UTF-8 bytes of ``text[:i]``.  A command-line byte that
    is not UTF-8 arrives as a lone surrogate and counts as that one byte;
    any other lone surrogate counts as its three-byte form."""
    try:
        return len(text[:i].encode("utf-8", "surrogateescape"))
    except UnicodeEncodeError:
        return len(text[:i].encode("utf-8", "surrogatepass"))


#: A well-formed token: punctuation, a name, or ``@`` and a state name.
_WELL_FORMED_RE = re.compile(r"[(),]|@?\w+")
#: One match per token or comment; whitespace matches nothing and is
#: skipped.  A token is the group: a well-formed one or any other single
#: character (a lexical error); a comment, ``#`` to the end of the line,
#: leaves the group empty.
_TOKEN_RE = re.compile(rf"#[^\n]*|({_WELL_FORMED_RE.pattern}|\S)")
#: ASCII name characters, punctuation and ASCII whitespace.
_PLAIN = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_(), \t\n\r\x0b\x0c"


def _tokens(text: str) -> list[str]:
    """The tokens :data:`_TOKEN_RE` scans in ``text``, without comments.
    A text of :data:`_PLAIN` characters alone, as generated and written
    terms are, is split by string methods instead, which is faster and
    gives the same tokens: each run of name characters is one, and so
    is each punctuation mark."""
    if text.isascii() and not text.encode().translate(None, _PLAIN):
        return text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
    toks = _TOKEN_RE.findall(text)
    return list(filter(None, toks)) if "#" in text else toks  # comments left empty tokens


def _syntax_error(text: str, toks: list[str], cls: type, message: str,
                  index: int) -> TermSyntaxError:
    """The error of a parse of ``text`` that failed at token ``index``
    of ``toks``: the text's first lexical error if it has one, since the
    whole text counts as tokenized first, else ``cls(message)`` at that
    token.  Token offsets are found only here, by scanning the text
    again."""
    starts = [m.start(1) for m in _TOKEN_RE.finditer(text) if m.start(1) >= 0]
    for tok, at in zip(toks, starts):
        if tok == "@":
            return TermSyntaxError("'@' must be followed by a state name", _byte_offset(text, at))
        if not _WELL_FORMED_RE.fullmatch(tok):
            return TermSyntaxError(f"unexpected character {tok!r}", _byte_offset(text, at))
    return cls(message, _byte_offset(text, starts[index] if index < len(starts) else len(text)))


def parse_term(text: str, sig: Signature, *, allow_state_leaves: bool = False) -> Term:
    """Parse ``text`` into a term over ``sig``.

    Errors report a byte offset.  ``allow_state_leaves`` additionally
    admits ``@state`` leaves, giving the mixed-term syntax that
    partial runs print.  The tokens come from one scan of the whole
    text (:func:`_tokens`), so a lexical error wins over an earlier
    syntax error.  Operations whose arguments are still being read wait
    on an explicit stack, so nesting depth is not limited by the
    interpreter's stack.  Nodes are numbered in the order they are
    finished, which is post-order, and only their compiled form
    (:func:`compile_term`) is filled in as they are: an operation's
    node objects are built when its ``children`` are first read (see
    :class:`Node`), which runs, analyses, equality, hashing and
    :func:`render_term` never do.  All leaves of one variable, and of
    one constant, are one object.  The term keeps its canonical text,
    the tokens joined, for :func:`render_term`.
    """
    toks = _tokens(text)
    if not toks:
        raise TermSyntaxError("empty input", 0)
    toks.append("")  # end of input: the lookahead never runs past it
    arities = sig._arities
    kinds: list[type] = []
    labels: list[object] = []
    children: list[tuple[int, ...]] = []
    sizes: list[int] = []
    ids: list[int] = []  # finished nodes whose parent is not finished yet
    # operations whose arguments are being read: (symbol, arity, token
    # index, len(ids) and n when opened, n being the id of its first node)
    opened: list[tuple[str, int, int, int, int]] = []
    leaves: dict[str, tuple[type, object]] = {}  # by token: (kind, label)
    i = n = 0  # n: nodes finished, so the id of the next one
    while True:
        tok = toks[i]
        i += 1
        arity = arities.get(tok)
        if arity:
            if toks[i] != "(":
                raise _syntax_error(text, toks, ArityMismatchError,
                                    f"{tok} expects {arity} arguments", i - 1)
            i += 1
            opened.append((tok, arity, i - 2, len(ids), n))
            continue
        leaf = leaves.get(tok)
        if leaf is None:
            if arity == 0:
                leaf = (Node, tok)
            elif m := _VAR_RE.match(tok):
                leaf = (Var, int(m.group(1)))
            elif tok[:1] == "@" and len(tok) > 1 and allow_state_leaves:
                leaf = (StateLeaf, tok[1:])
            elif not tok or tok in "(),":
                found = repr(tok) if tok else "end of input"
                raise _syntax_error(text, toks, TermSyntaxError,
                                    f"expected a term, found {found}", i - 1)
            elif tok[0] == "@":
                raise _syntax_error(text, toks, TermSyntaxError,
                                    f"state leaf {tok} not allowed here", i - 1)
            else:
                raise _syntax_error(text, toks, UnknownSymbolError,
                                    f"unknown symbol {tok!r}", i - 1)
            leaves[tok] = leaf
        if arity == 0 and toks[i] == "(":
            raise _syntax_error(text, toks, ArityMismatchError,
                                f"{tok} is a constant and takes no arguments", i - 1)
        kind, label = leaf
        ids.append(n)
        n += 1
        kinds.append(kind)
        labels.append(label)
        children.append(())
        sizes.append(1)
        # a node is finished: close every operation that ends after it
        while opened:
            tok = toks[i]
            i += 1
            if tok == ",":
                break
            if tok != ")":
                found = repr(tok) if tok else "end of input"
                raise _syntax_error(text, toks, TermSyntaxError,
                                    f"expected ',' or ')', found {found}", i - 1)
            symbol, arity, at, first, start = opened.pop()
            if len(ids) - first != arity:
                raise _syntax_error(text, toks, ArityMismatchError,
                                    f"{symbol} expects {arity} arguments, got {len(ids) - first}",
                                    at)
            children.append(tuple(ids[first:]))
            del ids[first:]
            ids.append(n)
            sizes.append(n + 1 - start)  # its subtree is the ids start..n
            n += 1
            kinds.append(Node)
            labels.append(symbol)
        else:
            if toks[i]:
                raise _syntax_error(text, toks, TermSyntaxError,
                                    f"unexpected trailing input {toks[i]!r}", i)
            break
    variables = frozenset(label for kind, label in leaves.values() if kind is Var)
    if children[-1]:  # an operation: its children are built when first read
        node = object.__new__(Node)
        node.__dict__["symbol"] = labels[-1]
    else:
        node = kinds[-1](labels[-1])
    object.__setattr__(node, "_text", "".join(toks))
    object.__setattr__(node, "_compiled", CompiledTerm(kinds, labels, children, sizes, variables))
    return node


def render_term(t: Term) -> str:
    """Canonical prefix notation; inverse of :func:`parse_term`.  A term
    :func:`parse_term` made returns the text it keeps (its tokens
    joined); any other term is rendered by a walk of its tree."""
    text = t.__dict__.get("_text")
    if text is not None:
        return text
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
    """A term flattened into post-order arrays.  It keeps no reference
    to the term's nodes, so a term holding its compiled form makes no
    reference cycle.

    Node ids number the nodes in post-order: every child before its
    parent, siblings left to right, the root last.  Evaluating nodes in
    id order is therefore the order of a recursive bottom-up evaluation.
    For node i, ``kinds[i]`` is its class (:class:`Var`,
    :class:`StateLeaf` or :class:`Node`), ``labels[i]`` its variable
    index, state or symbol, ``children[i]`` the ids of its children and
    ``sizes[i]`` its subtree's node count, so that subtree is the ids
    ``i - sizes[i] + 1`` to ``i``; ``variables`` holds the indices of
    the variables that occur.  :meth:`node_at` finds a position's
    node, and :meth:`position_of` a node's position, by walking
    ``children`` down from the root.  Each node's position and name, the
    breadth-first order, the variables below each node and the nodes
    above each variable are built whole on first use and stored once.
    """

    def __init__(self, kinds: list[type], labels: list[object],
                 children: list[tuple[int, ...]], sizes: list[int], variables: frozenset[int]):
        self.kinds = tuple(kinds)
        self.labels = tuple(labels)
        self.children = tuple(children)
        self.sizes = tuple(sizes)
        self.root = len(kinds) - 1
        self.variables = variables

    def __reduce__(self):
        """Copies and pickles keep the arrays; the tables built on first
        use are built again, so a deep term's position table, whose size
        is nodes times depth, is never copied."""
        return CompiledTerm, (self.kinds, self.labels, self.children, self.sizes, self.variables)

    def tree(self, binding: Mapping[int, Term] | None = None) -> Term:
        """The term, built bottom-up from the arrays: every leaf of one
        label is one object, and a variable ``binding`` binds is its term."""
        leaves = {(Var, v): u for v, u in (binding or {}).items()}
        made: list[Term] = []  # by node id
        for kind, label, kids in zip(self.kinds, self.labels, self.children):
            if kids:
                made.append(Node(label, tuple([made[k] for k in kids])))
            else:
                leaf = leaves.get((kind, label))
                if leaf is None:
                    leaf = leaves[kind, label] = kind(label)
                made.append(leaf)
        return made[-1]

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
    def names(self) -> tuple[str, ...]:
        """Rendered position of each node (its ``str``), by node id; each
        built once, from its parent's, so all of them take time
        proportional to their total length."""
        names: list = [None] * len(self.kinds)
        names[self.root] = "ε"
        for i in range(self.root, -1, -1):  # parents before children
            above = "" if i == self.root else names[i] + "."
            for j, k in enumerate(self.children[i], 1):
                names[k] = f"{above}{j}"
        return tuple(names)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Node ids in the length-then-lexicographic order of their
        positions, which is breadth first, children left to right."""
        order = [self.root]
        for i in order:  # visits the ids appended while it runs
            order.extend(self.children[i])
        return tuple(order)

    def position_set(self, keep: Callable[[int], bool] | None = None) -> PositionSet:
        """The positions of the nodes that ``keep`` accepts, or of every
        node; taken in :attr:`order`, they need no sorting."""
        positions = self.positions
        return PositionSet._in_order([positions[i] for i in self.order if keep is None or keep(i)])

    def node_at(self, p: Position) -> int:
        """Node id of the position ``p``, one step down per index."""
        node = self.root
        for i in p.indices:
            kids = self.children[node]
            if i > len(kids):
                raise InvalidPositionError(f"{p} is not a position of the term")
            node = kids[i - 1]
        return node

    def position_of(self, i: int) -> Position:
        """Position of node ``i``, one step down per level from the root
        into the child whose id range holds ``i``."""
        node, indices = self.root, []
        while node != i:
            for j, k in enumerate(self.children[node], 1):
                if k - self.sizes[k] < i <= k:
                    indices.append(j)
                    node = k
                    break
        return Position._trusted(tuple(indices))

    def independent(self, i: int, j: int) -> bool:
        """True iff neither node lies in the other's subtree, that is
        iff their subtrees' id ranges are disjoint."""
        return j <= i - self.sizes[i] or i <= j - self.sizes[j]

    @cached_property
    def variables_at(self) -> tuple[frozenset[int], ...]:
        """Variables of the subtree at each node, by node id.  Sets are
        shared: every leaf of one variable gets the same set, and a node
        whose children add nothing to one child's set gets that set
        itself, as on chains and single-child nodes."""
        leaf: dict[int, frozenset[int]] = {}
        acc: list[frozenset[int]] = []
        for kind, label, kids in zip(self.kinds, self.labels, self.children):
            if kind is Var:
                found = leaf.get(label)
                if found is None:
                    found = leaf[label] = frozenset((label,))
            else:
                found = acc[kids[0]] if kids else frozenset()
                for k in kids[1:]:
                    other = acc[k]
                    if not other <= found:
                        found = other if found <= other else found | other
            acc.append(found)
        return tuple(acc)

    @cached_property
    def above(self) -> dict[int, tuple[tuple[int, type, object, tuple[int, ...]], ...]]:
        """By variable, in ascending id order, the id, kind, label and
        child ids of each node whose subtree holds it, its own leaves too:
        the nodes to evaluate again when that variable alone changes."""
        records = list(zip(range(len(self.kinds)), self.kinds, self.labels, self.children))
        at = self.variables_at
        return {v: tuple([r for r in records if v in at[r[0]]]) for v in self.variables}


def compile_term(t: Term) -> CompiledTerm:
    """The compiled form of ``t``, kept with ``t`` so every later query
    on the same term object reuses it.  :func:`parse_term` attaches it
    as it parses; any other term is walked here once, on first use."""
    compiled = t.__dict__.get("_compiled")
    if compiled is None:
        made, todo = [], [t]  # pre-order, last child first: reversed, post-order
        while todo:
            node = todo.pop()
            made.append(node)
            if isinstance(node, Node):
                todo.extend(node.children)
        kinds: list[type] = []
        labels: list[object] = []
        children: list[tuple[int, ...]] = []
        sizes: list[int] = []
        finished: list[int] = []  # ids whose parent is not reached yet
        for node in reversed(made):
            if isinstance(node, Node):
                kind, label, n = Node, node.symbol, len(node.children)
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
        variables = frozenset(v for k, v in zip(kinds, labels) if k is Var)
        compiled = CompiledTerm(kinds, labels, children, sizes, variables)
        object.__setattr__(t, "_compiled", compiled)
    return compiled


# ---------------------------------------------------------------------------
# position algebra


def positions(t: Term) -> PositionSet:
    """All positions of ``t``; one per node, prefix-closed."""
    return compile_term(t).position_set()


def _path_to(t: Term, p: Position) -> list[Term]:
    """The nodes of ``t`` from the root down to the one at ``p``, both
    included."""
    path = [t]
    for i in p.indices:
        node = path[-1]
        if not isinstance(node, Node) or i > len(node.children):
            raise InvalidPositionError(f"{p} is not a position of the term")
        path.append(node.children[i - 1])
    return path


def subterm_at(t: Term, p: Position) -> Term:
    """The subtree of ``t`` rooted at ``p``."""
    return _path_to(t, p)[-1]


def replace_at(t: Term, p: Position, replacement: Term) -> Term:
    """A copy of ``t`` with the subtree at ``p`` replaced."""
    path = _path_to(t, p)
    for parent, i in zip(reversed(path[:-1]), reversed(p.indices)):
        children = list(parent.children)
        children[i - 1] = replacement
        replacement = Node(parent.symbol, tuple(children))
    return replacement


def variables(t: Term) -> frozenset[int]:
    """Indices of the variables occurring in ``t``, read from its
    compiled form."""
    return compile_term(t).variables


def node_count(t: Term) -> int:
    """Number of nodes of ``t``, read from its compiled form."""
    return len(compile_term(t).kinds)


def substitute(t: Term, binding: Mapping[int, Term]) -> Term:
    """Simultaneous single-pass substitution of variables.

    Unbound variables stay; variables inside replacement terms are not
    substituted again.
    """
    return compile_term(t).tree(binding)


def ind_positions(t: Term, p: Position) -> PositionSet:
    """All positions of ``t`` independent of ``p``."""
    term = compile_term(t)
    node = term.node_at(p)
    return term.position_set(lambda i: term.independent(node, i))
