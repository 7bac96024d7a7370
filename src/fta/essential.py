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
from typing import Iterable, Iterator, Mapping, Sequence

from .automaton import (
    DEFAULT_BUDGET,
    Assignment,
    Automaton,
    compile_automaton,
    run,
)
from .errors import (
    EnumerationBudgetExceeded,
    NotEssentialError,
    NotIndependentError,
)
from .terms import (
    Position,
    PositionSet,
    Term,
    Var,
    compile_term,
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
    """A read-only copy of ``mapping``.  It does not pickle, so each value
    holding one copies and pickles through its constructor, from plain
    dicts (``__reduce__``)."""
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

    def __reduce__(self):
        return WitnessPair, (self.position, dict(self.gamma1), dict(self.gamma2),
                             self.sub_states, self.root_states)

    def verify(self, aut: Automaton, t: Term) -> bool:
        """Re-run both assignments and re-check every invariant."""
        term = compile_term(t)
        node = term.node_at(self.position)
        outer = term.variables - term.variables_at[node]
        if any(self.gamma1.get(v) != self.gamma2.get(v) for v in outer):
            return False
        tr1 = run(aut, self.gamma1, t)
        tr2 = run(aut, self.gamma2, t)
        return (
            (tr1.states[node], tr2.states[node]) == self.sub_states
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

    def __reduce__(self):
        return EssentialityReport, (self.essential_positions, self.fictive_positions,
                                    self.essential_vars, dict(self.witnesses))


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    witness: Mapping[int, str] | None

    def __post_init__(self):
        if self.witness is not None:
            object.__setattr__(self, "witness", _read_only(self.witness))

    def __reduce__(self):
        return SeparabilityResult, (self.separable,
                                    None if self.witness is None else dict(self.witness))


class Analysis:
    """The runs of one term under one automaton, and every search that
    reads them (see :func:`analysis`).  Only it runs assignments for the
    package's analyses, each at most once, and only it checks a search
    against its budget, before the search makes any run; the exhaustive
    re-checks make their own runs, so they check it independently.

    A run's state ids by node id, its row, are kept under its
    assignment's number in mixed radix: each variable contributes the
    index of its constant, the lowest variable being the most
    significant digit, so numbers follow canonical order.  The first
    row is a run of the term (:attr:`fta.automaton.RunTrace.ids`); each
    later one evaluates again only the nodes that can differ from the
    row made last (see :meth:`_run`).
    """

    def __init__(self, aut: Automaton, t: Term):
        self.aut = aut
        self.term = compile_term(t)
        self._t = weakref.ref(t)  # the term keeps its analysis, not the reverse
        self._consts = aut.signature.constants
        k = len(self._consts)
        self._weight = {v: k ** e for e, v in enumerate(sorted(self.term.variables, reverse=True))}
        self._rows: dict[int, Sequence[int]] = {}
        self._last = -1  # the number of the row made last
        self._numbers: dict[frozenset[int], list[int]] = {}  # inner sets' only: see witness
        self._above: dict[int, list[int]] = {}  # by variable: the nodes over it, see _run

    def _afford(self, digits: int, budget: int) -> int:
        """How many assignments ``digits`` variables have, if ``budget`` allows."""
        count = len(self._consts) ** digits
        if count > budget:
            raise EnumerationBudgetExceeded(count, budget)
        return count

    def _assignment(self, number: int, order: Iterable[int]) -> Assignment:
        k = len(self._consts)
        return {v: self._consts[number // self._weight[v] % k] for v in order}

    def _run(self, number: int) -> Sequence[int]:
        """The row of assignment ``number``, which ``self._rows`` lacks.

        The first row is a run of the term.  Every later one starts from
        the row made last and evaluates again only the nodes above the
        variables whose constants differ between the two numbers
        (:meth:`fta.automaton.CompiledAutomaton.state_ids`); the ids of
        the nodes over each variable are listed, ascending, on first
        need, and merged when several variables change."""
        last = self._last
        if last < 0:
            row = run(self.aut, self._assignment(number, self._weight), self._t()).ids
        else:
            consts, k = self._consts, len(self._consts)
            gamma, a, b = {}, number, last
            for v in self._weight:  # the last digit first, up to the last that differs
                if a == b:
                    break
                a, da = divmod(a, k)
                b, db = divmod(b, k)
                if da != db:
                    gamma[v] = consts[da]
            above = self._above
            if not above:
                at = self.term.variables_at
                for v in self._weight:
                    above[v] = [i for i, vs in enumerate(at) if v in vs]
            nodes = (above[next(iter(gamma))] if len(gamma) == 1
                     else sorted(set().union(*[above[v] for v in gamma])))
            row = compile_automaton(self.aut).state_ids(gamma, self.term, self._rows[last], nodes)
        self._rows[number] = row
        self._last = number
        return row

    def _numbering(self, vs: Iterable[int]) -> Iterator[int]:
        """The numbers of the assignments to ``vs`` that give every other
        variable the first constant, lazily, in canonical order: each
        variable adds the weight of its constant's index."""
        k, weight = len(self._consts), self._weight
        return map(sum, product(*[[weight[v] * i for i in range(k)] for v in sorted(vs)]))

    def witness(self, node: int, budget: int, fixed: frozenset[int] = frozenset(),
                base: int = 0, top: int = -1) -> tuple[int, int, int, int, int, int] | None:
        """Canonical-first witness search at node ``node``, factored by
        the subtree's variables: the two assignments' numbers, then
        their states at ``node`` and at ``top``, or None.

        The search space is: assignments to the variables outside the
        subtree, crossed with ordered pairs of assignments to the
        subtree's variables.  A subtree without variables always gets
        the same state, so it can never be essential and the search is
        skipped.  Outer variables in ``fixed`` keep their constants in
        the assignment numbered ``base``, which binds no other, and only
        the rest are enumerated (see :func:`fta.automaton.run`).  The
        "root" state is the one at node ``top``, by default the root.

        Within one outer assignment the inner assignments are grouped by
        (subtree state, root state), keeping each group's first member
        in canonical order.  The first pair of the double loop over them
        is then the first member of the earliest group that has a group
        differing in both states, paired with the earliest member of
        such a group, so the search is linear in the inner assignments.
        Outer assignments are numbered as they are reached; the inner
        ones, read once per outer assignment, are kept per set of
        variables, so a set met again at another node costs nothing.
        """
        term = self.term
        inner = term.variables_at[node]
        if not inner:
            return None
        outer = term.variables - inner - fixed
        self._afford(len(outer) + 2 * len(inner), budget)

        inner_numbers = self._numbers.get(inner)
        if inner_numbers is None:
            inner_numbers = self._numbers[inner] = list(self._numbering(inner))
        get, make = self._rows.get, self._run
        for start in self._numbering(outer):
            start += base
            first: dict[tuple[int, int], int] = {}
            for number in inner_numbers:
                number += start
                states = get(number) or make(number)
                first.setdefault((states[node], states[top]), number)
            for (sub1, root1), n1 in first.items():
                partners = [(n2, sub2, root2) for (sub2, root2), n2 in first.items()
                            if sub2 != sub1 and root2 != root1]
                if partners:
                    n2, sub2, root2 = min(partners)
                    return n1, n2, sub1, sub2, root1, root2
        return None

    def witness_pair(self, node: int, p: Position, budget: int) -> WitnessPair | None:
        """The search at ``node`` (see :meth:`witness`), as a witness at
        its position ``p``."""
        found = self.witness(node, budget)
        if found is None:
            return None
        n1, n2, sub1, sub2, root1, root2 = found
        names = compile_automaton(self.aut).names
        inner = self.term.variables_at[node]
        order = [*sorted(self.term.variables - inner), *sorted(inner)]
        return WitnessPair(p, self._assignment(n1, order), self._assignment(n2, order),
                           (names[sub1], names[sub2]), (names[root1], names[root2]))

    def _varying(self) -> list[bool]:
        """By node id, whether the node's state differs between two of
        the runs kept so far."""
        return [len(set(column)) > 1 for column in zip(*self._rows.values())]

    def matching(self, candidates: list[int], budget: int) -> tuple[list[int], bool]:
        """The ``candidates`` (node ids) whose subtree gets the whole
        term's state under every assignment, in order, and whether the
        root state varies (exact only if some candidate is left)."""
        if not candidates:
            return [], False
        get, make = self._rows.get, self._run
        roots = set()
        for number in range(self._afford(len(self._weight), budget)):
            states = get(number) or make(number)
            root = states[-1]
            roots.add(root)
            candidates = [i for i in candidates if states[i] == root]
            if not candidates:
                break
        return candidates, len(roots) > 1

    def first_state(self, node: int) -> str:
        """The state at ``node`` under the first canonical assignment."""
        return compile_automaton(self.aut).names[(self._rows.get(0) or self._run(0))[node]]

    def essential_vars(self, budget: int) -> frozenset[int]:
        """See :func:`essential_vars`."""
        numbers = range(self._afford(len(self._weight), budget))
        k, get, make = len(self._consts), self._rows.get, self._run
        return frozenset(v for v, w in self._weight.items() if any(
            (get(n) or make(n))[-1] != (get(n + w) or make(n + w))[-1]
            for n in numbers if n // w % k < k - 1))

    def separating(self, nodes: list[int], domain: frozenset[int],
                   budget: int) -> Assignment | None:
        """The first assignment to ``domain``, in canonical order, under
        which each of ``nodes`` has a witness with ``domain`` fixed, or
        None; ``budget`` caps the assignments."""
        self._afford(len(domain), budget)
        for base in self._numbering(domain):
            if all(self.witness(i, budget, domain, base) is not None for i in nodes):
                return self._assignment(base, sorted(domain))
        return None


def analysis(aut: Automaton, t: Term) -> Analysis:
    """The analysis of ``t`` for ``aut``, kept with the term object like
    its compiled form, and replaced when another automaton object asks.
    A copy of a term starts with none."""
    found = t.__dict__.get("_analysis")
    if found is None or found.aut is not aut:
        found = Analysis(aut, t)
        object.__setattr__(t, "_analysis", found)
    return found


def is_essential_subtree(aut: Automaton, t: Term, p: Position, *,
                         budget: int = DEFAULT_BUDGET) -> WitnessPair | None:
    """Witness that the subtree occurrence at ``p`` is essential, or None."""
    found = analysis(aut, t)
    return found.witness_pair(found.term.node_at(p), p, budget)


def essential_positions(aut: Automaton, t: Term, *,
                        budget: int = DEFAULT_BUDGET) -> EssentialityReport:
    """Classify every position of ``t`` as essential or fictive.

    The root is searched first, and its search runs every total
    assignment.  A node is essential only if its state and the root's
    both differ between two runs, so if the root has no witness every
    position is fictive; otherwise a node whose state is the same in
    every run is fictive without a search, and the others are searched
    in position order.  The budget is still checked for each position,
    through the root's search: it charges k^(2n) for k constants and n
    variables, which bounds every other node's k^(n + inner).

    The essential variables are read from the verdicts: if the root
    flips when only v changes, every leaf holding v flips too, so v is
    essential exactly when its leaf occurrences are essential positions
    (a pair witnessing such a leaf differs in v alone).
    """
    found = analysis(aut, t)
    term = found.term
    root, *rest = term.order
    witnesses = {}
    if (w := found.witness_pair(root, term.positions[root], budget)) is not None:
        witnesses[root] = w
        varying = found._varying()
        for i in rest:
            if varying[i] and (w := found.witness_pair(i, term.positions[i], budget)) is not None:
                witnesses[i] = w
    ess = term.position_set(witnesses.__contains__)
    fict = term.position_set(lambda i: i not in witnesses)
    evars = frozenset(term.labels[i] for i in witnesses if term.kinds[i] is Var)
    return EssentialityReport(ess, fict, evars, {w.position: w for w in witnesses.values()})


def essential_vars(aut: Automaton, t: Term, *,
                   budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """Variables whose value alone can flip the term's resulting state.

    A variable is essential when two assignments differing only there
    produce different states at the root.  It suffices to compare each
    assignment with the one that gives the variable the next constant.
    """
    return analysis(aut, t).essential_vars(budget)


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
    found = analysis(aut, t)
    term = found.term
    ys = sorted(set(ys), key=lambda p: p.order_key)
    y_nodes = [term.node_at(y) for y in ys]
    for y, i in zip(ys, y_nodes):
        if found.witness(i, budget) is None:
            raise NotEssentialError(f"position {y} is not essential")
    y_vars = set().union(*(term.variables_at[i] for i in y_nodes))
    if zs is None:
        z_vars = term.variables if ys else frozenset()
    else:
        zs = sorted(set(zs), key=lambda p: p.order_key)
        z_nodes = [term.node_at(z) for z in zs]
        if not all(term.independent(i, j) for i in y_nodes for j in z_nodes):
            raise NotIndependentError("sets not independent")
        for z, j in zip(zs, z_nodes):
            if found.witness(j, budget) is None:
                raise NotEssentialError(f"position {z} is not essential")
        z_vars = set().union(*(term.variables_at[j] for j in z_nodes))

    gamma = found.separating(y_nodes, frozenset(z_vars - y_vars), budget)
    return SeparabilityResult(gamma is not None, gamma)
