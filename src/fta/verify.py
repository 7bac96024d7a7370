"""Executable property suite for the essentiality theory.

Seven properties are checked per (automaton, term) instance:

1. essential-prefix-closed: the essential position set contains every
   prefix of each of its members.
2. ind-prefix-determined: every set of positions independent of a fixed
   position is prefix determined w.r.t. the term's positions.
3. fictive-prefix-determined: the fictive position set is prefix
   determined w.r.t. the term's positions.
4. determining-implies-fictive: when a determining subtree exists, the
   positions it certifies as prunable are indeed fictive.
5. separable-strong-chain: a separable essential position stays
   essential in every subterm along the one-level-at-a-time chain up to
   the root; every essential position is separable on its own.
6. oracle-agreement: the factored essentiality search agrees with the
   enumeration oracle, :func:`essential_by_definition`.
7. prune-soundness: pruning preserves every run result and its node
   accounting is consistent (:func:`fta.reduction.check_reduction`).

All seven hold for linear terms (no repeated variables) over any
complete deterministic automaton; the bundled generator only produces
such terms, so suite failures on generated instances indicate bugs.
Property 2 holds on every term: a child's subtree id range lies inside
its parent's, so each child of a node independent of p is independent
of p too: p2 checks that nesting edge by edge, and a failure names an
edge of a wrong compiled form.
On terms where one variable occurs at several independent positions,
properties 1, 3 and 5 can have genuine counterexamples (a repeated
variable couples subtrees that are positionally independent); the suite
then reports honest findings rather than bugs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .automaton import (
    DEFAULT_BUDGET,
    Automaton,
    enumerate_assignments,
    parse_automaton,
    render_automaton,
    run,
)
from .errors import EnumerationBudgetExceeded, FtaError
from .essential import analysis
from .generate import DEFAULT_SIGNATURE, GenParams, SplitMix64, random_automaton, random_term
from .reduction import check_reduction, fictive_from_determining, freeze_fictive
from .terms import (
    PositionSet,
    Term,
    compile_term,
    parse_term,
    render_term,
)

PROPERTY_NAMES = (
    "essential-prefix-closed",
    "ind-prefix-determined",
    "fictive-prefix-determined",
    "determining-implies-fictive",
    "separable-strong-chain",
    "oracle-agreement",
    "prune-soundness",
)


@dataclass
class PropertyFailure:
    """One counterexample, serialized so it can be replayed exactly."""

    prop: str
    detail: str
    automaton_text: str
    term_text: str
    seed: int | None = None

    def to_dict(self) -> dict:
        """The failure without its property name, which callers key by."""
        return {"detail": self.detail, "automaton": self.automaton_text,
                "term": self.term_text, "seed": self.seed}

    def to_json(self) -> str:
        payload = {"property": self.prop, **self.to_dict()}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class PropertyOutcome:
    name: str
    instances_checked: int = 0
    failures: list[PropertyFailure] = field(default_factory=list)
    budget_exceeded: int = 0


@dataclass
class PropertyReport:
    outcomes: dict[str, PropertyOutcome]

    @property
    def total_failures(self) -> int:
        return sum(len(o.failures) for o in self.outcomes.values())

    @property
    def total_budget_exceeded(self) -> int:
        return sum(o.budget_exceeded for o in self.outcomes.values())

    def merge(self, other: "PropertyReport") -> None:
        for name, o in other.outcomes.items():
            mine = self.outcomes[name]
            mine.instances_checked += o.instances_checked
            mine.failures.extend(o.failures)
            mine.budget_exceeded += o.budget_exceeded


def essential_by_definition(aut: Automaton, t: Term, *,
                            budget: int = DEFAULT_BUDGET) -> PositionSet:
    """Essential positions of ``t`` from its runs under every total
    assignment: a node whose state, or the root's, never changes is
    dropped, and the rest are decided over buckets of those runs.

    Keeps none of the factored-search structure: each assignment of
    :func:`fta.automaton.enumerate_assignments` is run once, by this
    function itself, never read from :class:`fta.essential.Analysis`.
    A position is essential only if its state and the root's both
    differ between two runs, so the dropped nodes need no buckets.
    For each distinct set of subtree variables, the runs are put once in
    buckets by their values outside those variables, so a bucket holds
    exactly the runs that agree outside the subtree at every position
    with that set.  At each position, a bucket is decided by a double
    loop over its distinct (subtree state, root state) pairs, of which
    there are at most |Q|²; a bucket of one run, or of one distinct
    pair, has no pair that differs.  So the work is O(n·N) plus at most
    |Q|⁴ pair checks per bucket.  The budget still counts all N² pairs,
    up front.  Used as the independent oracle for
    :func:`fta.essential.essential_positions`.
    """
    term = compile_term(t)
    vs = term.variables
    count = len(aut.signature.constants) ** len(vs)
    if count * count > budget:
        raise EnumerationBudgetExceeded(count * count, budget)
    runs = [(gamma, run(aut, gamma, t).ids)
            for gamma in enumerate_assignments(vs, aut.signature, budget=budget)]
    varying = [len(set(column)) > 1 for column in zip(*[states for _, states in runs])]
    if not varying[-1]:
        return PositionSet()
    partitions: dict[frozenset[int], list[list[tuple[int, ...]]]] = {}  # by inner variables

    def essential(node: int) -> bool:
        if not varying[node]:
            return False
        inner = term.variables_at[node]
        buckets = partitions.get(inner)
        if buckets is None:
            outer = sorted(vs - inner)
            by_outer: dict[tuple[str, ...], list[tuple[int, ...]]] = {}
            for gamma, states in runs:
                by_outer.setdefault(tuple([gamma[v] for v in outer]), []).append(states)
            buckets = partitions[inner] = [rows for rows in by_outer.values() if len(rows) > 1]
        for rows in buckets:
            pairs = {(states[node], states[-1]) for states in rows}
            if len(pairs) > 1 and any(sub1 != sub2 and root1 != root2
                                      for sub1, root1 in pairs for sub2, root2 in pairs):
                return True
        return False

    return term.position_set(essential)


def verify_properties(aut: Automaton, t: Term, *, budget: int = DEFAULT_BUDGET,
                      seed: int | None = None) -> PropertyReport:
    """Run all seven properties on one instance.

    Properties 1, 2, 3 and 6 read the term by node id: its positions,
    their rendered names and its (parent, child) edges come from its
    compiled form.
    """
    term = compile_term(t)
    paths = term.positions

    # One reduction backs properties 1 and 3-7; it exceeds the budget
    # exactly when its essentiality report does.
    reduction = None
    red_error: EnumerationBudgetExceeded | None = None
    try:
        reduction = freeze_fictive(aut, t, budget=budget)
    except EnumerationBudgetExceeded as exc:
        red_error = exc

    def need_reduction():
        if reduction is None:
            raise red_error
        return reduction

    def p1():
        """A child is essential only under an essential parent; the
        children come parent by parent in breadth-first order, which
        is the order of their positions."""
        ess = need_reduction().essentiality.essential_positions
        bad = [term.names[k] for j in term.order if paths[j] not in ess
               for k in term.children[j] if paths[k] in ess]
        return [f"essential positions not prefix closed at: {', '.join(bad)}"] if bad else []

    def p2():
        """Ind(p) is prefix determined for every p when each child's
        subtree id range lies inside its parent's, below the parent's
        own id; each edge that breaks this is reported, parents in order."""
        sizes = term.sizes
        return [f"subtree ids of {term.names[k]} not inside those of its parent {term.names[j]}"
                for j in term.order for k in term.children[j]
                if k >= j or k - sizes[k] < j - sizes[j]]

    def p3():
        """The term's positions are prefix closed, so the fictive set is
        prefix determined iff no fictive node has a child that is not."""
        fict = need_reduction().essentiality.fictive_positions
        if any(paths[j] in fict and paths[k] not in fict
               for j, kids in enumerate(term.children) for k in kids):
            return ["fictive positions not prefix determined"]
        return []

    def p4():
        red = need_reduction()
        det = red.determining_position
        if det is None:
            return []
        claim = fictive_from_determining(aut, t, det, budget=budget)
        return [
            f"claimed-fictive position {q} is essential (determining subtree {det})"
            for q in claim
            if q not in red.essentiality.fictive_positions
        ]

    def p5():
        """Every essential position p is separable on its own: with the
        default ``zs``, ``is_separable(aut, t, [p])`` fixes exactly the
        variables outside p (each such leaf is independent of p), so it
        is separable iff p is essential, its witness is the ``gamma1``
        of p's witness restricted to them, and it enumerates no more
        than the search at p, within a budget the report already met.
        Within the subterm at each proper prefix of p, found by one walk
        down, p's verdict is a search in the whole term's analysis with
        the subterm's node as the root and the variables outside it at
        the first constants (they cannot change the subterm's run), so
        p5 makes no runs and builds no witness.
        """
        rep = need_reduction().essentiality
        found = analysis(aut, t)
        details = []
        for p in rep.essential_positions:
            path = [term.root]
            for i in p.indices:
                path.append(term.children[path[-1]][i - 1])
            # path[0] is the whole term, where the report already found p essential
            for top in reversed(path[1:]):
                outside = term.variables - term.variables_at[top]
                if found.witness(path[-1], budget, outside, 0, top) is None:
                    details.append(f"separable position {p} is not essential"
                                   f" within the subtree at {term.positions[top]}")
        return details

    def p6():
        search = need_reduction().essentiality.essential_positions
        oracle = essential_by_definition(aut, t, budget=budget)
        differ = search ^ oracle
        return [
            f"essentiality of {term.names[i]}: search says {p in search},"
            f" enumeration says {p in oracle}"
            for i in term.order if (p := paths[i]) in differ
        ]

    def p7():
        try:
            check_reduction(aut, t, need_reduction(), budget=budget)
        except EnumerationBudgetExceeded:
            raise
        except FtaError as exc:
            return [str(exc)]
        return []

    outcomes = {}
    texts = None  # the instance's automaton and term text, rendered for the first failure
    for name, check in zip(PROPERTY_NAMES, (p1, p2, p3, p4, p5, p6, p7)):
        outcome = outcomes[name] = PropertyOutcome(name, 1)
        try:
            details = check()
        except EnumerationBudgetExceeded:
            outcome.budget_exceeded = 1
            continue
        if details and texts is None:
            texts = render_automaton(aut), render_term(t)
        for detail in details:
            outcome.failures.append(PropertyFailure(name, detail, *texts, seed))
    return PropertyReport(outcomes)


def check_random_instances(*, seed: int, count: int,
                           max_depth: int = 4, var_pool: int = 4,
                           max_states: int = 3,
                           budget: int = DEFAULT_BUDGET) -> PropertyReport:
    """Run the suite over ``count`` seeded random instances, all arguments checked first."""
    if count < 0:
        raise ValueError("count must be >= 0")
    params = GenParams(DEFAULT_SIGNATURE, max_depth, var_pool, max_states)
    report = PropertyReport({name: PropertyOutcome(name) for name in PROPERTY_NAMES})
    rng = SplitMix64(seed)
    for _ in range(count):
        drawn = replace(params, state_count=1 + rng.below(max_states))
        t = random_term(replace(drawn, seed=rng.next_u64()))
        aut = random_automaton(replace(drawn, seed=rng.next_u64()))
        report.merge(verify_properties(aut, t, budget=budget, seed=seed))
    return report


def replay_failure(artifact_json: str, *, budget: int = DEFAULT_BUDGET) -> PropertyReport:
    """Re-run the suite on a serialized failure artifact."""
    try:
        payload = json.loads(artifact_json)
    except json.JSONDecodeError as exc:
        raise FtaError(f"replay artifact is not JSON: {exc}") from None
    for key in ("automaton", "term"):
        if not isinstance(payload, dict) or not isinstance(payload.get(key), str):
            raise FtaError(f"replay artifact has no {key!r} string")
    sig, aut = parse_automaton(payload["automaton"])
    t = parse_term(payload["term"], sig)
    return verify_properties(aut, t, budget=budget, seed=payload.get("seed"))
