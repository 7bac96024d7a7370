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

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Mapping

from .automaton import (
    DEFAULT_BUDGET,
    Assignment,
    Automaton,
    RunTrace,
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
    independent,
    positions,
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
    "sets_independent",
    "is_separable",
]


@dataclass(frozen=True)
class WitnessPair:
    """Two assignments certifying that a subtree occurrence is essential.

    The assignments agree on every variable outside the subtree,
    disagree on the subtree's state (``sub_states``) and on the whole
    term's state (``root_states``).
    """

    position: Position
    gamma1: Assignment
    gamma2: Assignment
    sub_states: tuple[str, str]
    root_states: tuple[str, str]

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
    witnesses: dict[Position, WitnessPair]


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    witness: Assignment | None


class _RunCache:
    """Memoizes run traces of one term, keyed by assignment values."""

    MAX_ENTRIES = 1 << 14

    def __init__(self, aut: Automaton, t: Term):
        self.aut = aut
        self.t = t
        self.vars = tuple(sorted(variables(t)))
        self._cache: dict[tuple[str, ...], RunTrace] = {}

    def trace(self, gamma: Mapping[int, str]) -> RunTrace:
        key = tuple(gamma[v] for v in self.vars)
        tr = self._cache.get(key)
        if tr is None:
            tr = run(self.aut, gamma, self.t)
            if len(self._cache) < self.MAX_ENTRIES:
                self._cache[key] = tr
        return tr


def _witness_at(aut: Automaton, t: Term, p: Position, budget: int,
                trace: Callable[[Mapping[int, str]], RunTrace],
                fixed: Assignment | None = None) -> WitnessPair | None:
    """Canonical-first witness search, factored by the subtree's variables.

    The search space is: assignments to the variables outside the
    subtree, crossed with ordered pairs of assignments to the subtree's
    variables.  A subtree without variables always gets the same state,
    so it can never be essential and the search is skipped.  ``trace``
    runs ``t``; it is asked for each total assignment once.  Outer
    variables bound by ``fixed`` stay fixed (see :func:`fta.automaton.run`)
    and only the ones it leaves free are enumerated.
    """
    inner = sorted(variables(subterm_at(t, p)))
    if not inner:
        return None
    fixed = fixed or {}
    outer = sorted(variables(t) - set(inner) - set(fixed))
    consts = aut.signature.constants
    n_inner = len(consts) ** len(inner)
    n_outer = len(consts) ** len(outer)
    total_pairs = n_outer * n_inner * n_inner
    if total_pairs > budget:
        raise EnumerationBudgetExceeded(total_pairs, budget)

    for outer_values in product(consts, repeat=len(outer)):
        base = fixed | dict(zip(outer, outer_values))
        evaluated = []
        for inner_values in product(consts, repeat=len(inner)):
            gamma = dict(base)
            gamma.update(zip(inner, inner_values))
            tr = trace(gamma)
            evaluated.append((gamma, tr.per_position[p], tr.result))
        for gamma1, sub1, root1 in evaluated:
            for gamma2, sub2, root2 in evaluated:
                if sub1 != sub2 and root1 != root2:
                    return WitnessPair(p, gamma1, gamma2, (sub1, sub2), (root1, root2))
    return None


def is_essential_subtree(aut: Automaton, t: Term, p: Position, *,
                         budget: int = DEFAULT_BUDGET) -> WitnessPair | None:
    """Witness that the subtree occurrence at ``p`` is essential, or None."""
    if p not in positions(t):
        raise InvalidPositionError(f"{p} is not a position of the term")
    return _witness_at(aut, t, p, budget, lambda gamma: run(aut, gamma, t))


def essential_positions(aut: Automaton, t: Term, *,
                        budget: int = DEFAULT_BUDGET) -> EssentialityReport:
    """Classify every position of ``t`` as essential or fictive.

    The budget applies to each positional query separately.  The
    essential variables are read from the verdicts: if the root flips
    when only v changes, every leaf holding v flips too, so v is
    essential exactly when its leaf occurrences are essential positions
    (a pair witnessing such a leaf differs in v alone).
    """
    trace = _RunCache(aut, t).trace
    ess: list[Position] = []
    fict: list[Position] = []
    witnesses: dict[Position, WitnessPair] = {}
    for p in positions(t):
        w = _witness_at(aut, t, p, budget, trace)
        if w is None:
            fict.append(p)
        else:
            ess.append(p)
            witnesses[p] = w
    evars = frozenset(leaf.index for p in ess if isinstance(leaf := subterm_at(t, p), Var))
    return EssentialityReport(PositionSet(ess), PositionSet(fict), evars, witnesses)


def essential_vars(aut: Automaton, t: Term, *,
                   budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """Variables whose value alone can flip the term's resulting state.

    A variable is essential when two assignments differing only there
    produce different states at the root.
    """
    vs = sorted(variables(t))
    consts = aut.signature.constants
    count = len(consts) ** len(vs)
    if count > budget:
        raise EnumerationBudgetExceeded(count, budget)
    roots = {
        values: run(aut, dict(zip(vs, values)), t).result
        for values in product(consts, repeat=len(vs))
    }
    result = set()
    for i, v in enumerate(vs):
        for values, root in roots.items():
            if any(
                roots[values[:i] + (c,) + values[i + 1:]] != root
                for c in consts
                if c != values[i]
            ):
                result.add(v)
                break
    return frozenset(result)


def sets_independent(t: Term, ys: Iterable[Position], zs: Iterable[Position]) -> bool:
    """True iff every position of one set is independent of every position
    of the other."""
    pos = positions(t)
    ys, zs = list(ys), list(zs)
    for p in (*ys, *zs):
        if p not in pos:
            raise InvalidPositionError(f"{p} is not a position of the term")
    return all(independent(y, z) for y in ys for z in zs)


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
    pos = positions(t)
    ys = sorted(set(ys), key=lambda p: p.order_key)
    for y in ys:
        if y not in pos:
            raise InvalidPositionError(f"{y} is not a position of the term")
    trace = _RunCache(aut, t).trace
    for y in ys:
        if _witness_at(aut, t, y, budget, trace) is None:
            raise NotEssentialError(f"position {y} is not essential")
    y_vars = set().union(*(variables(subterm_at(t, y)) for y in ys))
    if zs is None:
        z_vars = variables(t) if ys else frozenset()
    else:
        zs = sorted(set(zs), key=lambda p: p.order_key)
        if not sets_independent(t, ys, zs):
            raise NotIndependentError("sets not independent")
        for z in zs:
            if _witness_at(aut, t, z, budget, trace) is None:
                raise NotEssentialError(f"position {z} is not essential")
        z_vars = set().union(*(variables(subterm_at(t, z)) for z in zs))
    domain = z_vars - y_vars

    for gamma in enumerate_assignments(domain, aut.signature, budget=budget):
        if all(_witness_at(aut, t, y, budget, trace, gamma) is not None for y in ys):
            return SeparabilityResult(True, gamma)
    return SeparabilityResult(False, None)
