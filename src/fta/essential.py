"""Essential and fictive subtree analysis, and separability.

A subtree occurrence at position p is essential for a term and an
automaton when two assignments that agree outside the subtree's
variables give the subtree different states *and* the whole term
different states.  Positions that are not essential are fictive: the
automaton's final verdict never hinges on them in that sense.

Witness searches enumerate canonical assignment order (see
:func:`fta.automaton.enumerate_assignments`): outer assignment first,
then the first, then the second inner assignment.  The first satisfying
triple is returned, which makes every answer reproducible.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping

from .automaton import (
    DEFAULT_BUDGET,
    Assignment,
    Automaton,
    enumerate_assignments,
    run,
)
from .errors import (
    EnumerationBudgetExceeded,
    InvalidPositionError,
    NotEssentialError,
    NotIndependentError,
)
from .terms import (
    Position,
    PositionSet,
    Term,
    Var,
    compile_term,
    subterm_at,
    variables,
)

__all__ = [
    "WitnessPair",
    "EssentialityReport",
    "SeparabilityResult",
    "is_essential_subtree",
    "essential_positions",
    "essential_vars",
    "is_separable",
]


def _read_only(mapping: Mapping) -> Mapping:
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True)
class WitnessPair:
    """Two assignments certifying that a subtree occurrence is essential.

    The assignments agree on every variable outside the subtree,
    disagree on the subtree's state (``sub_states``) and on the whole
    term's state (``root_states``).  Both are read-only.
    """

    position: Position
    gamma1: Mapping[int, str]
    gamma2: Mapping[int, str]
    sub_states: tuple[str, str]
    root_states: tuple[str, str]

    def __post_init__(self):
        object.__setattr__(self, "gamma1", _read_only(self.gamma1))
        object.__setattr__(self, "gamma2", _read_only(self.gamma2))

    def verify(self, aut: Automaton, t: Term) -> bool:
        """Re-run both assignments and re-check every invariant."""
        inner = variables(subterm_at(t, self.position))
        outer = variables(t) - inner
        if any(self.gamma1.get(v) != self.gamma2.get(v) for v in outer):
            return False
        tr1 = run(aut, self.gamma1, t)
        tr2 = run(aut, self.gamma2, t)
        return (
            (tr1.per_position[self.position], tr2.per_position[self.position]) == self.sub_states
            and (tr1.result, tr2.result) == self.root_states
            and self.sub_states[0] != self.sub_states[1]
            and self.root_states[0] != self.root_states[1]
        )


@dataclass(frozen=True)
class EssentialityReport:
    """Partition of a term's positions into essential and fictive."""

    essential_positions: PositionSet
    fictive_positions: PositionSet
    essential_vars: frozenset[int]
    witnesses: Mapping[Position, WitnessPair]

    def __post_init__(self):
        object.__setattr__(self, "witnesses", _read_only(self.witnesses))


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    witness: Mapping[int, str] | None

    def __post_init__(self):
        if self.witness is not None:
            object.__setattr__(self, "witness", _read_only(self.witness))


class RunStore:
    """Node states of one term's run under each total assignment, each
    made on first use, so every assignment is run at most once.  Every
    analysis of the package reads its runs here (see :func:`run_store`);
    only the exhaustive re-checks call :func:`fta.automaton.run`
    themselves, so they check the store independently.

    An assignment is numbered in mixed radix: each variable contributes
    the index of its constant, the lowest variable being the most
    significant digit, so numbers follow canonical enumeration order.
    """

    def __init__(self, aut: Automaton, t: Term):
        self.aut = aut
        self.term = compile_term(t)
        self._t = weakref.ref(t)  # the term keeps the store, not the reverse
        self.consts = aut.signature.constants
        k = len(self.consts)
        self.weight = {v: k ** e for e, v in enumerate(sorted(self.term.variables,
                                                              reverse=True))}
        self._by_number: dict[int, tuple[str, ...]] = {}

    def numbers(self, budget: int) -> range:
        """Every assignment's number, in canonical order; raises before
        any run when there are more than ``budget``."""
        count = len(self.consts) ** len(self.weight)
        if count > budget:
            raise EnumerationBudgetExceeded(count, budget)
        return range(count)

    def assignment(self, number: int, order: Iterable[int]) -> Assignment:
        k = len(self.consts)
        return {v: self.consts[number // self.weight[v] % k] for v in order}

    def __getitem__(self, number: int) -> tuple[str, ...]:
        row = self._by_number.get(number)
        if row is None:
            row = self._by_number[number] = run(self.aut, self.assignment(number, self.weight),
                                                self._t()).states
        return row


def run_store(aut: Automaton, t: Term) -> RunStore:
    """The run store of ``t`` for ``aut``.  Like the compiled form it is
    kept with the term object; it is replaced when another automaton
    object asks."""
    store = t.__dict__.get("_runs")
    if store is None or store.aut is not aut:
        store = RunStore(aut, t)
        object.__setattr__(t, "_runs", store)
    return store


def _witness_at(store: RunStore, p: Position, budget: int,
                fixed: Mapping[int, str] | None = None,
                top: int | None = None) -> WitnessPair | None:
    """Canonical-first witness search, factored by the subtree's variables.

    The search space is: assignments to the variables outside the
    subtree, crossed with ordered pairs of assignments to the subtree's
    variables.  A subtree without variables always gets the same state,
    so it can never be essential and the search is skipped.  Each total
    assignment's states are read from ``store``.  Outer variables bound
    by ``fixed`` stay fixed (see :func:`fta.automaton.run`) and only the
    ones it leaves free are enumerated.  The "root" state is the one at
    node ``top``, the compiled term's root unless given.

    Within one outer assignment the inner assignments are grouped by
    (subtree state, root state), keeping each group's first member in
    canonical order.  The first pair of the double loop over them is
    then the first member of the earliest group that has a group
    differing in both states, paired with the earliest member of such a
    group, so the search is linear in the inner assignments.
    """
    term = store.term
    node = term.node_of[p]
    inner = sorted(term.variables_at[node])
    if not inner:
        return None
    fixed = fixed or {}
    outer = sorted(term.variables - set(inner) - set(fixed))
    k = len(store.consts)
    total_pairs = k ** (len(outer) + 2 * len(inner))
    if total_pairs > budget:
        raise EnumerationBudgetExceeded(total_pairs, budget)

    weight = store.weight
    inner_numbers = [sum(weight[v] * i for v, i in zip(inner, digits))
                     for digits in product(range(k), repeat=len(inner))]
    order = [*fixed, *outer, *inner]
    base = sum(weight[v] * store.consts.index(c) for v, c in fixed.items())
    root = term.root if top is None else top
    for digits in product(range(k), repeat=len(outer)):
        start = base + sum(weight[v] * i for v, i in zip(outer, digits))
        first: dict[tuple[str, str], int] = {}
        for number in inner_numbers:
            states = store[start + number]
            first.setdefault((states[node], states[root]), start + number)
        for (sub1, root1), n1 in first.items():
            partners = [(n2, sub2, root2) for (sub2, root2), n2 in first.items()
                        if sub2 != sub1 and root2 != root1]
            if partners:
                n2, sub2, root2 = min(partners)
                return WitnessPair(p, store.assignment(n1, order), store.assignment(n2, order),
                                   (sub1, sub2), (root1, root2))
    return None


def is_essential_subtree(aut: Automaton, t: Term, p: Position, *,
                         budget: int = DEFAULT_BUDGET) -> WitnessPair | None:
    """Witness that the subtree occurrence at ``p`` is essential, or None."""
    store = run_store(aut, t)
    if p not in store.term.node_of:
        raise InvalidPositionError(f"{p} is not a position of the term")
    return _witness_at(store, p, budget)


def essential_in_subterm(aut: Automaton, t: Term, top: Position, p: Position, *,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the subtree at ``p`` is essential for the subterm of ``t``
    at ``top``, a prefix of ``p``: the verdict, and the budget check, of
    ``is_essential_subtree(aut, subterm_at(t, top), p.suffix_after(top))``.

    It is read from ``t``'s run store and makes no run of its own once
    the store holds every assignment: the subterm's run is ``t``'s run
    at the subterm's node ids, whatever the variables outside the
    subterm are, so those stay at the first constant.
    """
    store = run_store(aut, t)
    term = store.term
    node, inner = term.node_of.get(top), term.node_of.get(p)
    if node is None or inner is None or not node - term.sizes[node] < inner <= node:
        raise InvalidPositionError(f"{top} is not a prefix of {p} in the term")
    outside = term.variables - term.variables_at[node]
    return _witness_at(store, p, budget, dict.fromkeys(outside, store.consts[0]), node) is not None


def essential_positions(aut: Automaton, t: Term, *,
                        budget: int = DEFAULT_BUDGET) -> EssentialityReport:
    """Classify every position of ``t`` as essential or fictive.

    The budget applies to each positional query separately.  The
    essential variables are read from the verdicts: if the root flips
    when only v changes, every leaf holding v flips too, so v is
    essential exactly when its leaf occurrences are essential positions
    (a pair witnessing such a leaf differs in v alone).
    """
    store = run_store(aut, t)
    term = store.term
    witnesses = {p: w for p in term.position_set
                 if (w := _witness_at(store, p, budget)) is not None}
    ess = PositionSet(witnesses)
    fict = PositionSet(p for p in term.position_set if p not in witnesses)
    evars = frozenset(term.labels[i] for p in ess if term.kinds[i := term.node_of[p]] is Var)
    return EssentialityReport(ess, fict, evars, witnesses)


def essential_vars(aut: Automaton, t: Term, *,
                   budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """Variables whose value alone can flip the term's resulting state.

    A variable is essential when two assignments differing only there
    produce different states at the root.  It suffices to compare each
    assignment with the one that gives the variable the next constant.
    """
    store = run_store(aut, t)
    numbers = store.numbers(budget)
    k = len(store.consts)
    root = store.term.root
    return frozenset(
        v for v, w in store.weight.items()
        if any(store[n][root] != store[n + w][root] for n in numbers if n // w % k < k - 1)
    )


def is_separable(aut: Automaton, t: Term, ys: Iterable[Position],
                 zs: Iterable[Position] | None = None, *,
                 budget: int = DEFAULT_BUDGET) -> SeparabilityResult:
    """Can the ``ys`` stay essential after fixing the other set's variables?

    Searches for an assignment to D = (variables under ``zs``) minus
    (variables under ``ys``) that leaves every position of ``ys``
    essential once D is fixed; the first such assignment in canonical
    order is the witness.  Each one is checked on ``t`` itself with D
    bound (see :func:`fta.automaton.run`).  When ``zs`` is omitted it
    defaults to all positions independent of some member of ``ys``, so
    D is every variable occurring outside the ``ys``; the explicit form
    additionally requires ``zs`` to be essential and independent of
    ``ys``.
    """
    store = run_store(aut, t)
    term = store.term
    ys = sorted(set(ys), key=lambda p: p.order_key)
    for y in ys:
        if y not in term.node_of:
            raise InvalidPositionError(f"{y} is not a position of the term")
    for y in ys:
        if _witness_at(store, y, budget) is None:
            raise NotEssentialError(f"position {y} is not essential")
    y_vars = set().union(*(term.variables_at[term.node_of[y]] for y in ys))
    if zs is None:
        z_vars = term.variables if ys else frozenset()
    else:
        zs = sorted(set(zs), key=lambda p: p.order_key)
        for z in zs:
            if z not in term.node_of:
                raise InvalidPositionError(f"{z} is not a position of the term")
        if not all(term.independent(term.node_of[y], term.node_of[z]) for y in ys for z in zs):
            raise NotIndependentError("sets not independent")
        for z in zs:
            if _witness_at(store, z, budget) is None:
                raise NotEssentialError(f"position {z} is not essential")
        z_vars = set().union(*(term.variables_at[term.node_of[z]] for z in zs))
    domain = z_vars - y_vars

    for gamma in enumerate_assignments(domain, aut.signature, budget=budget):
        if all(_witness_at(store, y, budget, gamma) is not None for y in ys):
            return SeparabilityResult(True, gamma)
    return SeparabilityResult(False, None)
