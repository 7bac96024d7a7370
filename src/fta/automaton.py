"""Complete deterministic bottom-up tree automata.

An automaton has a finite state set, a subset of final states and, for
every symbol of arity n, a transition table defined on all n-tuples of
states (a single-valued total function).  Runs label every position of
a term with a state, starting from the leaves: variable leaves through
an assignment (variable -> constant), constant leaves directly.

File format (line oriented, ``#`` comments)::

    signature: 0/0 1/0 g/1 f1/2 f2/2
    states: q0 q1
    final: q1
    rule: 0 -> q0
    rule: g(q0) -> q1
    rule: f1(q0,q1) -> q0
    ...

Assignments map variable indices to nullary symbols and are written
``x1=0,x2=1`` on the command line.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

from .errors import (
    AutomatonSyntaxError,
    EnumerationBudgetExceeded,
    FtaError,
    UnboundVariableError,
    UnknownSymbolError,
    ValidationError,
)
from .terms import (
    CompiledTerm,
    Node,
    Signature,
    StateLeaf,
    Term,
    Var,
    compile_term,
)

#: Default cap on exhaustive searches (assignments or candidate pairs
#: per query).  Exceeding it raises, it never truncates silently.
DEFAULT_BUDGET = 2 ** 20

Assignment = dict[int, str]

_STATE_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_RULE_RE = re.compile(r"([A-Za-z0-9_]+)\s*(?:\((.*)\))?\Z")


@dataclass(frozen=True)
class Automaton:
    """States, final states and the transition tables over a signature.

    ``rules`` maps ``(symbol, argument-state-tuple)`` to the resulting
    state; constants use the empty tuple.  The rules passed in are a
    mapping or ``((symbol, args), target)`` pairs, in which a key given
    again with another target is nondeterministic; ``rules`` is a
    read-only dict of them.  Construction raises
    :class:`ValidationError`, with the defects that
    :func:`parse_automaton` lists for a file declaring the same states,
    final states and rules, unless the automaton is complete and
    deterministic over distinct declared states.
    """

    signature: Signature
    states: tuple[str, ...]
    final: frozenset[str]
    rules: Mapping[tuple[str, tuple[str, ...]], str] = field(repr=False)

    def __post_init__(self):
        given = self.rules
        rules, defects = _assemble(self.signature, self.states, self.final,
                                   given.items() if isinstance(given, Mapping) else given)
        if defects:
            raise ValidationError(defects)
        object.__setattr__(self, "rules", MappingProxyType(rules))

    def __reduce__(self):
        """Copies and pickles are rebuilt from a plain dict of the rules
        (a read-only mapping does not pickle), without the compiled form
        (see :func:`compile_automaton`), which is made again on first use."""
        return Automaton, (self.signature, self.states, self.final, dict(self.rules))


class CompiledAutomaton:
    """An automaton with integer states and one transition dict per
    symbol.

    ``names[i]`` is the state with id i, in declaration order, and
    ``ids`` is the inverse.  The rule
    ``f(q1,...,qn) -> q`` maps, in ``tables[f]``, the index of the
    argument ids a1..an in base ``len(names)`` with the digits a1+1,
    ..., an+1 (bijective numeration) to q's id, so argument tuples of
    every length have their own index and a constant's rule has index 0.
    The automaton is complete, so only a node whose symbol or arity the
    signature does not have finds no rule: a ``LookupError`` from
    ``tables``.
    """

    def __init__(self, aut: Automaton):
        self.names = aut.states
        self.ids = ids = {q: i for i, q in enumerate(self.names)}
        self.base = base = len(self.names)
        self.tables: dict[str, dict[int, int]] = {}
        for (symbol, args), target in aut.rules.items():
            index = 0
            for q in args:
                index = index * base + ids[q] + 1
            self.tables.setdefault(symbol, {})[index] = ids[target]

    def state_ids(self, gamma: Mapping[int, str], term: CompiledTerm,
                  row: Sequence[int] | None = None,
                  nodes: Sequence[int] | None = None) -> list[int]:
        """The state id at every node of ``term``, by node id, for the
        run under ``gamma`` (see :func:`run`, which also checks
        ``gamma``).

        Given ``row``, the state ids of another run of ``term``, only
        ``nodes`` (ascending ids) are evaluated again, in a copy of it.
        A subtree's state depends only on its own variables, so the
        nodes above every variable on which the two runs' assignments
        differ are all that can change; ``gamma`` need bind only those
        variables."""
        tables, base, ids = self.tables, self.base, self.ids
        if row is None:
            kinds = term.kinds
            states = [0] * len(kinds)
            todo = zip(range(len(kinds)), kinds, term.labels, term.children)
        else:
            states = list(row)
            todo = map(term.records.__getitem__, nodes)
        for i, kind, label, kids in todo:
            if kind is Node:
                index = 0
                for k in kids:
                    index = index * base + states[k] + 1
                try:
                    state = tables[label][index]
                except LookupError:
                    raise _no_transition(label, tuple(self.names[states[k]] for k in kids)) from None
            elif kind is Var:
                c = gamma.get(label)
                if c is None:
                    raise UnboundVariableError(f"x{label} is not bound by the assignment")
                state = tables[c][0]
            else:
                state = ids.get(label)
                if state is None:
                    raise FtaError(f"@{label} is not a state of the automaton")
            states[i] = state
        return states


def compile_automaton(aut: Automaton) -> CompiledAutomaton:
    """The compiled form of ``aut``: built on first use and kept with
    ``aut``, so every later run with the same automaton object reuses it."""
    compiled = aut.__dict__.get("_compiled")
    if compiled is None:
        compiled = CompiledAutomaton(aut)
        object.__setattr__(aut, "_compiled", compiled)
    return compiled


@dataclass(frozen=True)
class RunTrace:
    """The state at every node of a term, for one run.

    ``ids`` holds the state of each node by its id in the term's
    compiled form (:class:`fta.terms.CompiledTerm`), as state ids of the
    automaton's compiled form (:class:`CompiledAutomaton`, whose
    ``names`` maps them back).  ``states`` holds the same states as
    names, by node id, made from ``ids`` when first read, so a caller
    that reads only ``result`` and ``ids``, as the analysis of a term
    does (:class:`fta.essential.Analysis`), never pays for names.
    Two traces are equal, and hash alike, when their results, ids and
    state names are.  Attributes cannot be set.
    """

    result: str
    ids: tuple[int, ...]
    _names: tuple[str, ...]

    def __init__(self, result: str, ids: tuple[int, ...], _names: tuple[str, ...]):
        # written straight into the instance dict, as fta.terms.Node is,
        # past the frozen dataclass's slower object.__setattr__
        fields = self.__dict__
        fields["result"] = result
        fields["ids"] = ids
        fields["_names"] = _names

    @cached_property
    def states(self) -> tuple[str, ...]:
        return tuple(map(self._names.__getitem__, self.ids))


def _lhs(symbol: str, args: tuple[str, ...]) -> str:
    return symbol if not args else f"{symbol}({','.join(args)})"


def _no_transition(symbol: str, args: tuple[str, ...]) -> FtaError:
    return FtaError(f"no transition for {_lhs(symbol, args)}")


# ---------------------------------------------------------------------------
# parsing / validation


def parse_automaton(text: str) -> tuple[Signature, Automaton]:
    """Parse the file format above and check the automaton it declares.

    Raises :class:`AutomatonSyntaxError` for malformed lines and
    :class:`ValidationError` (carrying the defect list) for incomplete,
    nondeterministic or otherwise ill-formed automata: the rules go to
    :class:`Automaton` in file order, whose construction assembles them
    and lists the defects in one pass.
    """
    header: dict[str, list] = {}  # the signature, states and final lines, by key
    rules: list[tuple[tuple[str, tuple[str, ...]], str]] = []

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise AutomatonSyntaxError("expected 'key: value'", line_no)
        key, rest = key.strip(), rest.strip()
        if key in header:
            raise AutomatonSyntaxError(f"duplicate {key} line", line_no)
        if key == "signature":
            header[key] = []
            for tok in rest.split():
                name, sep2, arity = tok.partition("/")
                if not sep2 or not arity.isdecimal():
                    raise AutomatonSyntaxError(f"bad symbol declaration {tok!r}", line_no)
                header[key].append((name, int(arity)))
        elif key == "states":
            header[key] = rest.split()
            for q in header[key]:
                if not _STATE_RE.match(q):
                    raise AutomatonSyntaxError(f"bad state name {q!r}", line_no)
        elif key == "final":
            header[key] = rest.split()
        elif key == "rule":
            lhs_text, sep2, target = rest.partition("->")
            if not sep2:
                raise AutomatonSyntaxError("rule needs '->'", line_no)
            m = _RULE_RE.match(lhs_text.strip())
            if not m:
                raise AutomatonSyntaxError(f"bad rule left-hand side {lhs_text.strip()!r}", line_no)
            symbol, argtext = m.group(1), m.group(2)
            args = tuple(map(str.strip, argtext.split(","))) if argtext else ()
            target = target.strip()
            if not target or len(target.split()) != 1:
                raise AutomatonSyntaxError(f"bad rule target {target!r}", line_no)
            rules.append(((symbol, args), target))
        else:
            raise AutomatonSyntaxError(f"unknown directive {key!r}", line_no)

    for key in ("signature", "states", "final"):
        if key not in header:
            raise AutomatonSyntaxError(f"missing '{key}:' line")
    sig_pairs, states, final = header["signature"], header["states"], header["final"]

    try:
        sig = Signature(sig_pairs)
    except ValueError as exc:
        raise AutomatonSyntaxError(str(exc)) from None

    return sig, Automaton(sig, tuple(states), frozenset(final), rules)


def _assemble(sig: Signature, states: Sequence[str], final: Iterable[str],
              rules: Iterable[tuple[tuple[str, tuple[str, ...]], str]]
              ) -> tuple[dict[tuple[str, tuple[str, ...]], str], list[str]]:
    """The rule mapping that ``rules``, ``((symbol, args), target)`` pairs
    in file order, assemble into, and the defects of the automaton with
    the declared ``states``, the ``final`` states and that mapping.

    The defects are, in order: duplicate state declarations; each rule
    not kept, by the first check it fails (unknown symbol, arity,
    undeclared state, another target than the kept rule's); the final
    states outside Q, sorted; and, symbol by symbol, each argument tuple
    of the distinct states, in declaration order, without a rule.  The
    rules each symbol keeps are counted as they are, so a symbol of
    arity n is complete iff it keeps |Q|^n, and only an incomplete
    symbol's tuples are walked.  A symbol with more than :data:`DEFAULT_BUDGET` tuples,
    or of a higher arity (so one tuple is that long), gets one defect
    with the count instead.
    """
    distinct = tuple(dict.fromkeys(states))
    state_set = set(distinct)
    defects = [] if len(distinct) == len(states) else ["duplicate state declarations"]
    arities = dict(sig.symbols)
    assembled: dict[tuple[str, tuple[str, ...]], str] = {}
    counts = dict.fromkeys(arities, 0)  # kept rules per symbol
    for key, target in rules:
        symbol, args = key
        arity = arities.get(symbol)
        if arity is None:
            defects.append(f"unknown symbol in rule: {symbol}")
        elif len(args) != arity:
            defects.append(f"rule arity mismatch: {_lhs(symbol, args)} (arity {arity})")
        elif target not in state_set or not state_set.issuperset(args):
            defects.append(f"unknown state in rule: {_lhs(symbol, args)} -> {target}")
        elif key not in assembled:
            assembled[key] = target
            counts[symbol] += 1
        elif assembled[key] != target:
            defects.append(f"nondeterministic: {_lhs(symbol, args)} -> {assembled[key]} / {target}")
    defects.extend(f"final state not in Q: {q}" for q in sorted(set(final) - state_set))
    n = len(distinct)
    for symbol, arity in sig.symbols:
        have = counts[symbol]
        if not _exceeds(n, arity, have):
            continue  # all n^arity tuples have a rule
        if arity > DEFAULT_BUDGET or _exceeds(n, arity, DEFAULT_BUDGET):
            defects.append(f"missing: all but {have} of the {n}^{arity} rules for {symbol}")
            continue
        for combo in product(distinct, repeat=arity):
            if (symbol, combo) not in assembled:
                defects.append(f"missing: {_lhs(symbol, combo)}")
    return assembled, defects


def _exceeds(base: int, exponent: int, bound: int) -> bool:
    """Whether ``base ** exponent > bound``, without building a power
    much larger than ``bound``."""
    if base > 1 and exponent > bound.bit_length():
        return True  # base ** exponent >= 2 ** exponent > bound
    return base ** exponent > bound


def render_automaton(aut: Automaton) -> str:
    """Canonical file-format text; round-trips with :func:`parse_automaton`.

    The rules are printed ordered by the symbol's declaration and then
    by the declaration of each argument state.
    """
    sig = aut.signature
    symbols = {name: i for i, (name, _) in enumerate(sig.symbols)}
    order = {q: i for i, q in enumerate(aut.states)}
    keys = sorted(aut.rules, key=lambda key: (symbols[key[0]], [order[q] for q in key[1]]))
    lines = [
        "signature: " + " ".join(f"{n}/{a}" for n, a in sig.symbols),
        "states: " + " ".join(aut.states),
        "final: " + " ".join(q for q in aut.states if q in aut.final),
        *(f"rule: {_lhs(*key)} -> {aut.rules[key]}" for key in keys),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# assignments


def check_assignment(sig: Signature, gamma: Mapping[int, str]) -> None:
    """Every assignment image must be a nullary symbol of ``sig``."""
    constants = sig.constants
    for v, c in gamma.items():
        if c not in constants:
            kind = "a symbol" if sig.arity(c) is None else "nullary"
            raise UnknownSymbolError(f"assignment value {c!r} for x{v} is not {kind}")


def parse_assignment(text: str, sig: Signature) -> Assignment:
    """Parse ``x1=0,x2=1`` (commas or whitespace between bindings)."""
    gamma: Assignment = {}
    for part in re.split(r"[,\s]+", text.strip()):
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep:
            raise UnknownSymbolError(f"bad assignment binding {part!r}")
        m = re.match(r"x([1-9][0-9]*)\Z", name.strip())
        if not m:
            raise UnknownSymbolError(f"{name.strip()!r} is not a variable")
        v = int(m.group(1))
        if v in gamma:
            raise UnknownSymbolError(f"x{v} is bound twice")
        gamma[v] = value.strip()
    check_assignment(sig, gamma)
    return gamma


def render_assignment(gamma: Mapping[int, str]) -> str:
    if not gamma:
        return "(empty)"
    return " ".join(f"x{v}={gamma[v]}" for v in sorted(gamma))


def enumerate_assignments(var_indices, sig: Signature, *,
                          budget: int = DEFAULT_BUDGET) -> Iterator[Assignment]:
    """All assignments of constants to ``var_indices``, odometer order.

    Variables ascend by index; the highest index cycles fastest and the
    constants cycle in declaration order, so the first assignment maps
    everything to the first constant.  Yields exactly
    ``len(constants) ** len(var_indices)`` assignments; if that exceeds
    ``budget`` the error is raised before any work is done.
    """
    vs = sorted(var_indices)
    consts = sig.constants
    count = len(consts) ** len(vs)
    if count > budget:
        raise EnumerationBudgetExceeded(count, budget)
    for values in product(consts, repeat=len(vs)):
        yield dict(zip(vs, values))


# ---------------------------------------------------------------------------
# runs


def run(aut: Automaton, gamma: Mapping[int, str], t: Term) -> RunTrace:
    """Bottom-up run of ``aut`` over ``t`` under ``gamma``.

    ``gamma`` must bind every variable of ``t``; bindings for other
    variables are ignored (runs only depend on the variables that occur).
    The nodes of ``t``'s compiled form are evaluated in id order, which
    is post-order, so the first error met is the one a recursive
    evaluation would meet.  Each node's state is one lookup in the
    compiled automaton's tables (:class:`CompiledAutomaton`); the trace
    names the states only when they are read (see :class:`RunTrace`).

    A variable leaf bound to the constant c gets the state of the leaf c.
    So fixing some variables of ``t`` to constants needs no substituted
    copy: the state at each position of the fixed term is the state that
    ``t``'s run has there under any assignment extending those values.
    """
    check_assignment(aut.signature, gamma)
    term = compile_term(t)
    compiled = compile_automaton(aut)
    ids = tuple(compiled.state_ids(gamma, term))
    return RunTrace(compiled.names[ids[-1]], ids, compiled.names)


def partial_run(aut: Automaton, gamma: Mapping[int, str], t: Term) -> Term:
    """Reduce ``t`` as far as the (possibly partial) ``gamma`` allows.

    Turns every bound variable into its constant's state leaf (see
    :func:`run`) and collapses every node whose children are all state
    leaves into its state leaf, to fixpoint.  A total assignment yields
    a single state leaf equal to the run result; unbound variables block
    reduction above them.  One bottom-up pass reaches the fixpoint, and
    the result is independent of collapse order.
    """
    check_assignment(aut.signature, gamma)
    term = compile_term(t)
    compiled = compile_automaton(aut)
    tables, base, names = compiled.tables, compiled.base, compiled.names
    done: list[int | Term] = []  # a collapsed subtree's state id, else its term
    for kind, label, kids in zip(term.kinds, term.labels, term.children):
        if kind is Node:
            index = 0
            for k in kids:
                a = done[k]
                if type(a) is not int:
                    break
                index = index * base + a + 1
            else:  # every child collapsed
                try:  # no rule for a symbol or arity the signature lacks
                    done.append(tables[label][index])
                except LookupError:
                    raise _no_transition(label, tuple(names[done[k]] for k in kids)) from None
                continue
            args = tuple([StateLeaf(names[b]) if type(b) is int else b
                          for b in [done[k] for k in kids]])
            # ``a`` is the first child that did not collapse; if it and the
            # rest are state leaves, a state the automaton lacks blocks the node
            if type(a) is StateLeaf and all(type(b) is StateLeaf for b in args):
                raise _no_transition(label, tuple(b.state for b in args))
            done.append(Node(label, args))
        elif kind is Var and label not in gamma:
            done.append(Var(label))
        elif kind is Var:
            done.append(tables[gamma[label]][0])
        else:  # a state the automaton lacks has no id, so it stays a leaf
            done.append(compiled.ids.get(label, StateLeaf(label)))
    out = done[term.root]
    return StateLeaf(names[out]) if type(out) is int else out


def canonical_ground(aut: Automaton) -> dict[str, Term]:
    """A minimal-depth ground representative for every reachable state.

    The states present are those a ground term reaches: every state a
    constant's rule gives, and every state a rule gives from states
    present.  A state only a state leaf reaches is absent.

    The search goes in rounds.  In each round, every rule whose
    arguments all have representatives and whose target has none
    offers its symbol over the arguments' representatives, and each
    target keeps the least offer by (render length, text).  Round 0
    chooses the constants' states; a rule first offers in the round
    after its last argument is chosen, so, by induction, round L
    chooses terms of depth L and no term of a lower depth reaches a
    state first chosen in round L.  A representative is the shortest
    of its round's offers, not always the shortest term of its depth:
    an argument's shorter but deeper term is never offered.  Only the
    winners are built as terms.
    """
    texts: dict[str, str] = {}  # state -> its representative's text
    chosen: dict[str, Term] = {}
    while True:
        offers: dict[str, tuple[tuple[int, str], str, tuple[str, ...]]] = {}
        for (symbol, args), target in aut.rules.items():
            if target in texts or not texts.keys() >= set(args):
                continue
            text = _lhs(symbol, tuple(texts[q] for q in args))
            key = (len(text), text)
            if target not in offers or key < offers[target][0]:
                offers[target] = (key, symbol, args)
        if not offers:
            break
        for target, ((_, text), symbol, args) in offers.items():
            texts[target] = text
            chosen[target] = Node(symbol, tuple(chosen[q] for q in args))
    return {q: chosen[q] for q in aut.states if q in chosen}
