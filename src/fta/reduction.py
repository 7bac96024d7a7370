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
from .essential import EssentialityReport, analysis, essential_positions
from .terms import (
    Position,
    PositionSet,
    Term,
    Var,
    compile_term,
    node_count,
    render_term,
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
    matching, root_varies = analysis(aut, t).matching(candidates, budget)
    return term.position_of(matching[0]) if matching and root_varies else None


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
    node = term.node_at(p)
    p_vars = term.variables_at[node]
    if not p_vars:
        raise PremiseViolatedError(f"position {p} is not essential")
    matching, root_varies = analysis(aut, t).matching([node], budget)
    if not matching:
        raise PremiseViolatedError(
            f"the subtree at {p} does not match the term's state everywhere"
        )
    if not root_varies:
        raise PremiseViolatedError(f"position {p} is not essential")
    at = term.variables_at
    return term.position_set(lambda i: at[i] and not at[i] & p_vars and term.independent(node, i))


def freeze_fictive(aut: Automaton, t: Term, *,
                   budget: int = DEFAULT_BUDGET) -> ReductionReport:
    """Prune ``t`` without changing any run result.

    Every maximal fictive position whose variables occur only inside its
    subtree is frozen: the variables are fixed to the first constants
    and the resulting ground subtree is replaced by its state's minimal
    ground representative.  Every such state is read from the run of
    ``t`` under the first canonical assignment (see
    :func:`fta.automaton.run`); a subtree is left as it is when its
    representative would not shrink it, as for every leaf, which is
    skipped before its state is read, or when its state has none (a
    state only a state leaf reaches).  If a determining subtree exists
    and is smaller than the frozen term, it becomes the reduced term
    instead.
    :func:`check_reduction` re-verifies the result exhaustively.
    """
    report = essential_positions(aut, t, budget=budget)
    term = compile_term(t)
    sizes = term.sizes
    var_leaves = [(v, i) for i, (kind, v) in enumerate(zip(term.kinds, term.labels)) if kind is Var]
    first_leaf, last_leaf = dict(reversed(var_leaves)), dict(var_leaves)  # by variable
    reps = None  # representatives, built once a subtree can be frozen
    below_fictive = bytearray(len(term.kinds))

    frozen: set[int] = set()
    pruned, pruned_nodes = t, len(term.kinds)
    for node in term.order:  # shallowest first
        p = term.positions[node]
        if below_fictive[node] or p in report.essential_positions:
            continue  # essential, or not maximal
        if sizes[node] == 1:
            continue  # a leaf: no representative is smaller
        first = node - sizes[node] + 1  # the subtree's ids are first..node
        below_fictive[first:node] = b"\1" * (node - first)
        if not all(first <= first_leaf[v] and last_leaf[v] <= node
                   for v in term.variables_at[node]):
            continue  # a variable occurs outside the subtree
        if reps is None:
            reps = canonical_ground(aut)
        rep = reps.get(analysis(aut, t).first_state(node))
        if rep is None or (saved := sizes[node] - node_count(rep)) <= 0:
            continue  # no representative (a state leaf's state), or none smaller
        pruned, pruned_nodes = replace_at(pruned, p, rep), pruned_nodes - saved
        frozen.add(node)

    determining = determining_subtree(aut, t, budget=budget)
    reduced, reduced_nodes = pruned, pruned_nodes
    if determining is not None and (size := sizes[term.node_at(determining)]) < pruned_nodes:
        reduced, reduced_nodes = subterm_at(t, determining), size

    return ReductionReport(
        original_nodes=len(term.kinds),
        reduced_nodes=reduced_nodes,
        determining_position=determining,
        frozen_positions=term.position_set(frozen.__contains__),
        reduced_term=reduced,
        essentiality=report,
    )


def check_reduction(aut: Automaton, original: Term, report: ReductionReport, *,
                    budget: int = DEFAULT_BUDGET) -> int:
    """Exhaustively re-check a reduction's run results, then its node
    counts; returns the number of assignments compared, or raises FtaError."""
    reduced = report.reduced_term
    if not runs_equal_all(aut, original, reduced, budget=budget):
        raise FtaError(f"pruning to {render_term(reduced)} changed a run result")
    counts = report.original_nodes, report.reduced_nodes
    if counts != (node_count(original), node_count(reduced)) or counts[1] > counts[0]:
        raise FtaError(f"inconsistent node accounting: {counts[0]} -> {counts[1]}")
    return len(aut.signature.constants) ** len(variables(original) | variables(reduced))

