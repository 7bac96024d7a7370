"""Automaton-aware term pruning.

Two reductions are combined, both preserving every run result:

* freezing: a maximal fictive subtree whose variables occur nowhere
  else is replaced by a minimal ground term with the same state (for
  the first canonical assignment of its variables; fictiveness plus
  variable locality makes the choice irrelevant to the root state);
* truncation: when some proper essential subtree gets the same state as
  the whole term under every assignment, running over that subtree
  alone suffices, so it can replace the whole term.

Soundness never rests on the argument alone: reductions can be
re-checked exhaustively against the original term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import (
    DEFAULT_BUDGET,
    Automaton,
    canonical_ground,
    enumerate_assignments,
    run,
)
from .errors import FtaError, PremiseViolatedError
from .essential import EssentialityReport, essential_positions, run_store
from .terms import (
    Position,
    PositionSet,
    Term,
    Var,
    compile_term,
    ind_positions,
    node_count,
    replace_at,
    subterm_at,
    variables,
)

__all__ = [
    "ReductionReport",
    "runs_equal_all",
    "determining_subtree",
    "fictive_from_determining",
    "freeze_fictive",
    "check_reduction",
    "cost_report",
]


@dataclass(frozen=True)
class ReductionReport:
    """A pruned term, with the essentiality report of the original term
    that the frozen positions were chosen from."""

    original_nodes: int
    reduced_nodes: int
    determining_position: Position | None
    frozen_positions: PositionSet
    reduced_term: Term
    essentiality: EssentialityReport


def runs_equal_all(aut: Automaton, t: Term, t2: Term, *,
                   budget: int = DEFAULT_BUDGET) -> bool:
    """True iff every total assignment gives both terms the same state."""
    joint = variables(t) | variables(t2)
    for gamma in enumerate_assignments(joint, aut.signature, budget=budget):
        if run(aut, gamma, t).result != run(aut, gamma, t2).result:
            return False
    return True


def determining_subtree(aut: Automaton, t: Term, *,
                        budget: int = DEFAULT_BUDGET) -> Position | None:
    """Proper position whose subtree is essential and matches the whole
    term's state under every assignment; None when no such position
    exists.  Chosen for maximal savings: smallest subtree first, ties
    broken by the lexicographically least position.

    A matching subtree's state is the root's and depends only on its own
    variables, so it is essential exactly when the root state is not
    constant; one pass over the assignments decides both conditions.
    """
    term = compile_term(t)
    # every node but the root; equal sizes keep id order, which is the
    # lexicographic order of positions neither of which extends the other
    candidates = sorted(range(term.root), key=term.sizes.__getitem__)
    matching, root_varies = _matching_nodes(aut, t, candidates, budget)
    return term.positions[matching[0]] if matching and root_varies else None


def _matching_nodes(aut: Automaton, t: Term, candidates: list[int],
                    budget: int) -> tuple[list[int], bool]:
    """The ``candidates`` (node ids of ``t``'s compiled form) whose
    subtree gets the whole term's state under every assignment, in
    order, and whether the root state varies (exact only if some
    candidate is left).  The run of ``t`` under each assignment gives
    every candidate its subtree's state."""
    if not candidates:
        return [], False
    store = run_store(aut, t)
    roots = set()
    for number in store.numbers(budget):
        states = store[number]
        root = states[-1]
        roots.add(root)
        candidates = [i for i in candidates if states[i] == root]
        if not candidates:
            break
    return candidates, len(roots) > 1


def fictive_from_determining(aut: Automaton, t: Term, p: Position, *,
                             budget: int = DEFAULT_BUDGET) -> PositionSet:
    """Positions provably fictive given a determining subtree at ``p``.

    Requires the subtree at ``p`` to be essential and to match the whole
    term's state under every assignment (else PremiseViolatedError); as
    in :func:`determining_subtree`, one pass checks both, after a
    subtree without variables is rejected.
    The claim covers every position independent of ``p`` that brings at
    least one new variable and shares none with the subtree at ``p``:
    a witness for such a position would have to agree on the subtree's
    variables, forcing equal subtree states and hence equal root states.
    Positions that share variables with the subtree at ``p`` are not
    claimed; a shared variable can flip the subtree and the root
    together, making such a position genuinely essential.
    """
    term = compile_term(t)
    others = ind_positions(t, p)  # rejects a position ``t`` does not have
    p_vars = term.variables_at[term.node_of[p]]
    if not p_vars:
        raise PremiseViolatedError(f"position {p} is not essential")
    matching, root_varies = _matching_nodes(aut, t, [term.node_of[p]], budget)
    if not matching:
        raise PremiseViolatedError(
            f"the subtree at {p} does not match the term's state everywhere"
        )
    if not root_varies:
        raise PremiseViolatedError(f"position {p} is not essential")
    return PositionSet(q for q in others
                       if (q_vars := term.variables_at[term.node_of[q]]) and not q_vars & p_vars)


def freeze_fictive(aut: Automaton, t: Term, *,
                   budget: int = DEFAULT_BUDGET, check: bool = False) -> ReductionReport:
    """Prune ``t`` without changing any run result.

    Every maximal fictive position whose variables occur only inside its
    subtree is frozen: the variables are fixed to the first constants
    and the resulting ground subtree is replaced by its state's minimal
    ground representative.  Every such state is read from the run of
    ``t`` under the first canonical assignment (see
    :func:`fta.automaton.run`).  If a determining subtree exists and is
    smaller than the frozen term, it becomes the reduced term instead.
    With ``check=True`` the reduction is re-verified exhaustively.
    """
    report = essential_positions(aut, t, budget=budget)
    term = compile_term(t)
    sizes = term.sizes
    var_leaves = [(v, i) for i, (kind, v) in enumerate(zip(term.kinds, term.labels)) if kind is Var]
    first_leaf, last_leaf = dict(reversed(var_leaves)), dict(var_leaves)  # by variable
    reps = None  # representatives, built once a subtree can be frozen
    store = run_store(aut, t)
    below_fictive = bytearray(len(term.kinds))

    frozen: list[Position] = []
    pruned = t
    for p in report.fictive_positions:  # shallowest first
        node = term.node_of[p]
        if below_fictive[node]:
            continue  # not maximal
        first = node - sizes[node] + 1  # the subtree's ids are first..node
        below_fictive[first:node] = b"\1" * (node - first)
        if not all(first <= first_leaf[v] and last_leaf[v] <= node
                   for v in term.variables_at[node]):
            continue  # a variable occurs outside the subtree
        if reps is None:
            reps = canonical_ground(aut)
        state = store[0][node]
        if node_count(reps[state]) >= sizes[node]:
            continue  # representative would not shrink the term
        pruned = replace_at(pruned, p, reps[state])
        frozen.append(p)

    determining = determining_subtree(aut, t, budget=budget)
    reduced = pruned
    if determining is not None and sizes[term.node_of[determining]] < node_count(pruned):
        reduced = subterm_at(t, determining)

    result = ReductionReport(
        original_nodes=len(term.kinds),
        reduced_nodes=node_count(reduced),
        determining_position=determining,
        frozen_positions=PositionSet(frozen),
        reduced_term=reduced,
        essentiality=report,
    )
    if check:
        check_reduction(aut, t, result, budget=budget)
    return result


def check_reduction(aut: Automaton, original: Term, report: ReductionReport, *,
                    budget: int = DEFAULT_BUDGET) -> int:
    """Exhaustively re-check a reduction; returns the number of
    assignments compared.  Raises on any mismatch."""
    if not runs_equal_all(aut, original, report.reduced_term, budget=budget):
        raise FtaError("reduction changed a run result; this is a bug")
    joint = variables(original) | variables(report.reduced_term)
    return len(aut.signature.constants) ** len(joint)


def cost_report(t: Term, t2: Term) -> tuple[int, int, float]:
    """(original node count, reduced node count, fraction saved)."""
    original = node_count(t)
    reduced = node_count(t2)
    return (original, reduced, 1.0 - reduced / original)

