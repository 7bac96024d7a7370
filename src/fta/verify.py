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
6. oracle-agreement: the factored essentiality search agrees with a
   direct double loop over the pairs of once-run total assignments that
   agree outside the subtree.
7. prune-soundness: pruning preserves every run result and its node
   accounting is consistent.

All seven hold for linear terms (no repeated variables) over any
complete deterministic automaton; the bundled generator only produces
such terms, so suite failures on generated instances indicate bugs.
On terms where one variable occurs at several independent positions,
properties 1, 3 and 5 can have genuine counterexamples (a repeated
variable couples subtrees that are positionally independent); the suite
then reports honest findings rather than bugs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from .automaton import (
    DEFAULT_BUDGET,
    Automaton,
    parse_automaton,
    render_automaton,
    run,
)
from .errors import EnumerationBudgetExceeded, FtaError
from .essential import essential_in_subterm
from .generate import DEFAULT_SIGNATURE, GenParams, SplitMix64, random_automaton, random_term
from .reduction import cost_report, fictive_from_determining, freeze_fictive, runs_equal_all
from .terms import (
    Position,
    PositionSet,
    Signature,
    Term,
    compile_term,
    is_prefix_closed,
    is_prefix_determined,
    ind_positions,
    parse_term,
    positions,
    render_term,
    variables,
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

    @classmethod
    def empty(cls) -> "PropertyReport":
        return cls({name: PropertyOutcome(name) for name in PROPERTY_NAMES})

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
    """Essential positions of ``t`` by a direct double loop over pairs
    of total assignments.

    Keeps none of the factored-search structure: each total assignment
    is run once, by this function itself (it never reads the run store).
    At every position the runs are put in buckets by their values
    outside the subtree, and the double loop runs inside each bucket, so
    it sees exactly the pairs that agree outside the subtree.  The budget
    still counts all pairs.  Used as the independent oracle for
    :func:`fta.essential.essential_positions`.
    """
    vs = sorted(variables(t))
    consts = aut.signature.constants
    count = len(consts) ** len(vs)
    if count * count > budget:
        raise EnumerationBudgetExceeded(count * count, budget)
    runs = [(values, run(aut, dict(zip(vs, values)), t).states)
            for values in product(consts, repeat=len(vs))]
    term = compile_term(t)

    def essential(p: Position) -> bool:
        node = term.node_of[p]
        inner = term.variables_at[node]
        outer_idx = [i for i, v in enumerate(vs) if v not in inner]
        buckets: dict[tuple[str, ...], list[tuple[str, str]]] = {}
        for values, states in runs:
            buckets.setdefault(tuple(values[i] for i in outer_idx), []).append(
                (states[node], states[-1]))
        return any(
            sub1 != sub2 and root1 != root2
            for pairs in buckets.values()
            for sub1, root1 in pairs
            for sub2, root2 in pairs
        )

    return PositionSet(p for p in positions(t) if essential(p))


def verify_properties(aut: Automaton, t: Term, *, budget: int = DEFAULT_BUDGET,
                      seed: int | None = None) -> PropertyReport:
    """Run all seven properties on one instance."""
    report = PropertyReport.empty()
    pos = positions(t)

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
        rep = need_reduction().essentiality
        if not is_prefix_closed(rep.essential_positions):
            bad = [
                str(p) for p in rep.essential_positions
                if p.indices and p.parent() not in rep.essential_positions
            ]
            return [f"essential positions not prefix closed at: {', '.join(bad)}"]
        return []

    def p2():
        return [
            f"independent positions of {p} not prefix determined"
            for p in pos
            if not is_prefix_determined(ind_positions(t, p), pos)
        ]

    def p3():
        rep = need_reduction().essentiality
        if not is_prefix_determined(rep.fictive_positions, pos):
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
        The verdict within each subterm is read from the whole term's run
        store, so p5 makes no runs.
        """
        rep = need_reduction().essentiality
        details = []
        for p in rep.essential_positions:
            # cut 0 is the whole term, where the report already found p essential
            for cut in range(len(p.indices), 0, -1):
                prefix = Position(p.indices[:cut])
                if not essential_in_subterm(aut, t, prefix, p, budget=budget):
                    details.append(
                        f"separable position {p} is not essential within the subtree at {prefix}"
                    )
        return details

    def p6():
        rep = need_reduction().essentiality
        oracle = essential_by_definition(aut, t, budget=budget)
        return [
            f"essentiality of {p}: search says {p in rep.essential_positions},"
            f" enumeration says {p in oracle}"
            for p in pos
            if (p in rep.essential_positions) != (p in oracle)
        ]

    def p7():
        red = need_reduction()
        details = []
        if not runs_equal_all(aut, t, red.reduced_term, budget=budget):
            details.append(f"pruning to {render_term(red.reduced_term)} changed a run result")
        original, reduced, saved = cost_report(t, red.reduced_term)
        if not (0.0 <= saved <= 1.0) or reduced > original:
            details.append(f"inconsistent node accounting: {original} -> {reduced}")
        return details

    texts = None  # the instance's automaton and term text, rendered for the first failure
    for name, check in zip(PROPERTY_NAMES, (p1, p2, p3, p4, p5, p6, p7)):
        outcome = report.outcomes[name]
        outcome.instances_checked += 1
        try:
            details = check()
        except EnumerationBudgetExceeded:
            outcome.budget_exceeded += 1
            continue
        if details and texts is None:
            texts = render_automaton(aut), render_term(t)
        for detail in details:
            outcome.failures.append(PropertyFailure(name, detail, *texts, seed))
    return report


def check_random_instances(*, seed: int, count: int,
                           signature: Signature = DEFAULT_SIGNATURE,
                           max_depth: int = 4, var_pool: int = 4,
                           max_states: int = 3,
                           budget: int = DEFAULT_BUDGET) -> PropertyReport:
    """Run the suite over ``count`` seeded random instances."""
    report = PropertyReport.empty()
    rng = SplitMix64(seed)
    for _ in range(count):
        state_count = 1 + rng.below(max_states)
        term_seed = rng.next_u64()
        aut_seed = rng.next_u64()
        t = random_term(GenParams(signature, max_depth, var_pool, state_count, term_seed))
        aut = random_automaton(GenParams(signature, max_depth, var_pool, state_count, aut_seed))
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
