"""Randomized algebraic laws.

Hypothesis builds arbitrary terms here, including nonlinear ones
(repeated variables), so these laws are the ones that hold for every
term; the properties that need linearity live in the
seeded suite (fta.verify) and its tests.
"""

from itertools import product

import hypothesis.strategies as st
from hypothesis import given, settings

from fta import (
    DEFAULT_SIGNATURE,
    Automaton,
    EnumerationBudgetExceeded,
    FtaError,
    GenParams,
    Node,
    Position,
    RunTrace,
    SplitMix64,
    StateLeaf,
    UnboundVariableError,
    Var,
    check_assignment,
    essential_by_definition,
    essential_positions,
    essential_vars,
    is_essential_subtree,
    is_prefix_closed,
    is_prefix_determined,
    is_separable,
    depth,
    enumerate_assignments,
    freeze_fictive,
    ind_positions,
    node_count,
    parse_term,
    partial_run,
    positions,
    random_automaton,
    random_term,
    render_term,
    replace_at,
    run,
    substitute,
    subterm_at,
    variables,
    verify_properties,
)
from fta.essential import essential_in_subterm

SIG = DEFAULT_SIGNATURE


def leaves(max_var=3):
    return st.one_of(
        st.integers(1, max_var).map(Var),
        st.sampled_from(["0", "1"]).map(Node),
    )


def terms(max_leaves=10, max_var=3):
    return st.recursive(
        leaves(max_var),
        lambda ch: st.one_of(
            st.builds(lambda a: Node("g", (a,)), ch),
            st.builds(lambda a, b: Node("f1", (a, b)), ch, ch),
            st.builds(lambda a, b: Node("f2", (a, b)), ch, ch),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def nonlinear_terms(draw, max_leaves=8, max_var=2):
    """Terms in which some variable occurs at two independent leaves:
    one leaf on each side of a binary node is replaced by that variable,
    and the node is wrapped in up to two unary symbols."""
    halves = [draw(terms(max_leaves // 2, max_var)) for _ in range(2)]
    v = Var(draw(st.integers(1, max_var)))
    for i, half in enumerate(halves):
        leaf = draw(st.sampled_from(
            [p for p in positions(half) if node_count(subterm_at(half, p)) == 1]
        ))
        halves[i] = replace_at(half, leaf, v)
    t = Node(draw(st.sampled_from(["f1", "f2"])), tuple(halves))
    for _ in range(draw(st.integers(0, 2))):
        t = Node("g", (t,))
    return t


def linear_terms():
    """Terms without repeated variables, as the seeded generator draws them."""
    return st.builds(lambda seed: random_term(GenParams(seed=seed)), st.integers(0, 2 ** 32))


def chains(levels=2000):
    """Deep terms: a spine of ``levels`` nodes, each a ``g`` or a binary
    node whose other child is a leaf, over at most three variables."""
    def build(seed):
        rng = SplitMix64(seed)
        leaf = [Var(1), Var(2), Var(3), Node("0"), Node("1")]
        t = leaf[rng.below(3)]
        for _ in range(levels):
            kind = rng.below(4)
            other = leaf[rng.below(len(leaf))]
            t = (Node("g", (t,)) if kind == 0 else
                 Node("f1" if kind == 1 else "f2", (t, other) if kind < 3 else (other, t)))
        return t
    return st.builds(build, st.integers(0, 2 ** 32))


def automata():
    return st.builds(
        lambda seed, states: random_automaton(GenParams(seed=seed, state_count=states)),
        st.integers(0, 2 ** 32),
        st.integers(1, 3),
    )


@given(terms())
def test_parse_render_round_trip(t):
    assert parse_term(render_term(t), SIG) == t


@given(terms())
def test_positions_prefix_closed_and_counted(t):
    pos = positions(t)
    assert is_prefix_closed(pos)
    assert len(pos) == node_count(t)


@given(terms())
def test_independent_sets_prefix_determined(t):
    pos = positions(t)
    for p in pos:
        assert is_prefix_determined(ind_positions(t, p), pos)


@given(terms())
def test_depth_bound_with_equality_somewhere(t):
    d = depth(t)
    gaps = [depth(subterm_at(t, p)) + len(p) for p in positions(t)]
    assert all(g <= d for g in gaps)
    assert d in gaps


@given(terms(), st.dictionaries(st.integers(1, 3), terms(max_leaves=4), max_size=3))
def test_substitution_is_simultaneous(t, binding):
    out = substitute(t, binding)
    expected_vars = (variables(t) - set(binding)) | frozenset(
        v for b, img in binding.items() if b in variables(t) for v in variables(img)
    )
    assert variables(out) == expected_vars


@given(terms())
def test_substitution_identity_laws(t):
    assert substitute(t, {}) == t
    assert substitute(t, {v: Var(v) for v in variables(t)}) == t
    swapped = substitute(t, {1: Var(2), 2: Var(1)})
    assert substitute(swapped, {1: Var(2), 2: Var(1)}) == t


@settings(max_examples=50, deadline=None)
@given(automata(), terms(max_leaves=8), st.integers(0, 2 ** 32))
def test_partial_run_is_confluent(aut, t, order_seed):
    gamma = {}  # leave everything unbound except what substitution fixed
    expected = partial_run(aut, gamma, t)

    rng = SplitMix64(order_seed)
    current = t
    while True:
        candidates = [
            p for p in positions(current)
            if isinstance(subterm_at(current, p), Node)
            and all(isinstance(c, StateLeaf) for c in subterm_at(current, p).children)
        ]
        if not candidates:
            break
        p = candidates[rng.below(len(candidates))]
        node = subterm_at(current, p)
        state = aut.step(node.symbol, tuple(c.state for c in node.children))
        current = replace_at(current, p, StateLeaf(state))
    assert current == expected


@settings(max_examples=50, deadline=None)
@given(automata(), terms(max_leaves=8), st.data())
def test_partial_run_total_equals_run(aut, t, data):
    gamma = {v: data.draw(st.sampled_from(SIG.constants)) for v in variables(t)}
    assert partial_run(aut, gamma, t) == StateLeaf(run(aut, gamma, t).result)


@settings(max_examples=40, deadline=None)
@given(automata(), terms(max_leaves=8))
def test_freeze_is_sound_even_with_repeated_variables(aut, t):
    report = freeze_fictive(aut, t, check=True)
    assert report.reduced_nodes <= report.original_nodes


@settings(max_examples=30, deadline=None)
@given(automata(), terms(max_leaves=7, max_var=3))
def test_search_agrees_with_enumeration_oracle(aut, t):
    oracle = essential_by_definition(aut, t)
    for p in positions(t):
        fast = is_essential_subtree(aut, t, p) is not None
        assert (p in oracle) == fast


@settings(max_examples=30, deadline=None)
@given(automata(), terms(max_leaves=7, max_var=3))
def test_witnesses_self_verify(aut, t):
    report = essential_positions(aut, t)
    for w in report.witnesses.values():
        assert w.verify(aut, t)
    assert set(report.essential_positions) | set(report.fictive_positions) == positions(t)


@settings(max_examples=40, deadline=None)
@given(automata(), nonlinear_terms())
def test_essential_vars_read_from_leaf_verdicts(aut, t):
    # a variable is essential exactly when its leaf occurrences are
    assert essential_positions(aut, t).essential_vars == essential_vars(aut, t)


def assert_essential_positions_separable_alone(aut, t):
    # verify's p5 relies on this instead of calling is_separable
    report = essential_positions(aut, t)
    for p, w in report.witnesses.items():
        outer = variables(t) - variables(subterm_at(t, p))
        result = is_separable(aut, t, [p])
        assert result.separable
        assert result.witness == {v: w.gamma1[v] for v in outer}


@settings(max_examples=40, deadline=None)
@given(automata(), linear_terms())
def test_essential_position_separable_alone_on_linear_terms(aut, t):
    assert_essential_positions_separable_alone(aut, t)


@settings(max_examples=40, deadline=None)
@given(automata(), nonlinear_terms())
def test_essential_position_separable_alone_on_nonlinear_terms(aut, t):
    assert_essential_positions_separable_alone(aut, t)


def separable_by_definition(aut, t, ys):
    """The first assignment to the variables outside the ``ys`` that
    keeps every y essential in the substituted term, or None."""
    y_vars = set().union(*(variables(subterm_at(t, y)) for y in ys))
    for gamma in enumerate_assignments(variables(t) - y_vars, aut.signature):
        fixed = substitute(t, {v: Node(c) for v, c in gamma.items()})
        if all(is_essential_subtree(aut, fixed, y) is not None for y in ys):
            return gamma
    return None


def assert_separable_by_definition(aut, t, data):
    essential = list(essential_positions(aut, t).essential_positions)
    if not essential:
        return  # no set to separate
    ys = data.draw(st.lists(st.sampled_from(essential), min_size=1, max_size=3, unique=True))
    result = is_separable(aut, t, ys)
    assert result.witness == separable_by_definition(aut, t, ys)
    assert result.separable == (result.witness is not None)


@settings(max_examples=40, deadline=None)
@given(automata(), linear_terms(), st.data())
def test_separable_matches_substitution_on_linear_terms(aut, t, data):
    assert_separable_by_definition(aut, t, data)


@settings(max_examples=40, deadline=None)
@given(automata(), nonlinear_terms(), st.data())
def test_separable_matches_substitution_on_nonlinear_terms(aut, t, data):
    assert_separable_by_definition(aut, t, data)


def partial_assignments():
    return st.dictionaries(st.integers(1, 4), st.sampled_from(SIG.constants))


@settings(max_examples=100, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms()), partial_assignments())
def test_partial_run_matches_substitution(aut, t, gamma):
    fixed = substitute(t, {v: Node(c) for v, c in gamma.items()})
    assert partial_run(aut, gamma, t) == partial_run(aut, {}, fixed)


def run_by_recursion(aut, gamma, t):
    """Reference for ``run``: recursive bottom-up evaluation, returning
    the root state and the state at each position in post-order."""
    check_assignment(aut.signature, gamma)
    per = {}

    def ev(node, path):
        if isinstance(node, Var):
            c = gamma.get(node.index)
            if c is None:
                raise UnboundVariableError(f"x{node.index} is not bound by the assignment")
            state = aut.step(c, ())
        elif isinstance(node, StateLeaf):
            if node.state not in aut.states:
                raise FtaError(f"@{node.state} is not a state of the automaton")
            state = node.state
        else:
            args = tuple(ev(c, path + (i,)) for i, c in enumerate(node.children, 1))
            state = aut.step(node.symbol, args)
        per[Position(path)] = state
        return state

    return ev(t, ()), per


def outcome(f):
    try:
        return f()
    except FtaError as exc:
        return type(exc), str(exc)


def mixed_terms():
    """Terms whose leaves include state leaves, some of them unknown."""
    state_leaves = st.sampled_from(["q0", "q1", "q2", "q9"]).map(StateLeaf)
    return st.recursive(
        st.one_of(leaves(), state_leaves),
        lambda ch: st.one_of(
            st.builds(lambda a: Node("g", (a,)), ch),
            st.builds(lambda a, b: Node("f1", (a, b)), ch, ch),
        ),
        max_leaves=10,
    )


@settings(max_examples=200, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms(), mixed_terms()),
       st.dictionaries(st.integers(1, 4), st.sampled_from(SIG.constants)), st.data())
def test_run_matches_recursive_reference(aut, t, gamma, data):
    # some automata lose transitions, some assignments leave variables unbound
    dropped = data.draw(st.lists(st.sampled_from(sorted(aut.rules)), max_size=3))
    aut = Automaton(aut.signature, aut.states, aut.final,
                    {k: v for k, v in aut.rules.items() if k not in dropped})
    expected = outcome(lambda: run_by_recursion(aut, gamma, t))
    got = outcome(lambda: run(aut, gamma, t))
    if isinstance(got, RunTrace):
        got = got.result, dict(got.per_position)
        assert got == expected
        assert list(got[1]) == list(expected[1])  # post-order, as the recursion fills it
    assert got == expected


def witness_by_double_loop(aut, t, p):
    """Reference for the witness search: the first pair of a plain
    double loop over the inner assignments of each outer assignment."""
    inner = sorted(variables(subterm_at(t, p)))
    if not inner:
        return None
    outer = sorted(variables(t) - set(inner))
    consts = aut.signature.constants
    for outer_values in product(consts, repeat=len(outer)):
        evaluated = []
        for inner_values in product(consts, repeat=len(inner)):
            gamma = dict(zip(outer, outer_values)) | dict(zip(inner, inner_values))
            tr = run(aut, gamma, t)
            evaluated.append((gamma, tr.per_position[p], tr.result))
        for gamma1, sub1, root1 in evaluated:
            for gamma2, sub2, root2 in evaluated:
                if sub1 != sub2 and root1 != root2:
                    return gamma1, gamma2, (sub1, sub2), (root1, root2)
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 4),
       st.one_of(linear_terms(), nonlinear_terms(max_var=3)))
def test_grouped_witness_search_returns_first_pair_of_double_loop(seed, states, t):
    aut = random_automaton(GenParams(seed=seed, state_count=states))
    for p in positions(t):
        w = is_essential_subtree(aut, t, p)
        got = None if w is None else (w.gamma1, w.gamma2, w.sub_states, w.root_states)
        assert got == witness_by_double_loop(aut, t, p)


# ---------------------------------------------------------------------------
# the verify properties' fast paths against references kept here


def ind_positions_by_definition(t, p):
    return {q for q in positions(t) if not (p.is_prefix_of(q) or q.is_prefix_of(p))}


def prefix_determined_by_definition(ps, qs):
    return all(q in ps for p in ps for q in qs if p.is_prefix_of(q))


def assert_position_algebra_by_definition(t, data):
    pos = list(positions(t))
    picks = pos if len(pos) <= 40 else data.draw(
        st.lists(st.sampled_from(pos), min_size=1, max_size=4))
    for p in picks:
        assert ind_positions(t, p) == ind_positions_by_definition(t, p)
    # arbitrary sets: ``qs`` not prefix closed, ``ps`` not a subset of it
    outside = [Position((9,)), Position((1, 9)), Position((2, 1, 9))]
    for _ in range(4):
        qs = set(data.draw(st.lists(st.sampled_from(pos), max_size=12)))
        ps = set(data.draw(st.lists(st.sampled_from(pos + outside), max_size=6)))
        if data.draw(st.booleans()):  # often determined: close ps downwards within qs
            ps |= {q for q in qs if any(p.is_prefix_of(q) for p in ps)}
        assert is_prefix_determined(ps, qs) == prefix_determined_by_definition(ps, qs)
    p = data.draw(st.sampled_from(pos))
    assert is_prefix_determined(ind_positions(t, p), pos)


@settings(max_examples=60, deadline=None)
@given(st.one_of(linear_terms(), nonlinear_terms()), st.data())
def test_position_algebra_matches_definition(t, data):
    assert_position_algebra_by_definition(t, data)


@settings(max_examples=5, deadline=None)
@given(chains(), st.data())
def test_position_algebra_matches_definition_on_deep_chains(t, data):
    assert_position_algebra_by_definition(t, data)


def essential_by_all_pairs(aut, t):
    """Reference for the oracle: every pair of total assignments at every
    position, filtered by agreement outside the subtree."""
    vs = sorted(variables(t))
    runs = [(values, run(aut, dict(zip(vs, values)), t))
            for values in product(aut.signature.constants, repeat=len(vs))]
    essential = set()
    for p in positions(t):
        inner = variables(subterm_at(t, p))
        outer_idx = [i for i, v in enumerate(vs) if v not in inner]
        evaluated = [(values, tr.per_position[p], tr.result) for values, tr in runs]
        if any(sub1 != sub2 and root1 != root2
               for values1, sub1, root1 in evaluated
               for values2, sub2, root2 in evaluated
               if all(values1[i] == values2[i] for i in outer_idx)):
            essential.add(p)
    return essential


@settings(max_examples=40, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms()))
def test_bucketed_oracle_matches_all_pairs(aut, t):
    assert essential_by_definition(aut, t) == essential_by_all_pairs(aut, t)


@settings(max_examples=3, deadline=None)
@given(automata(), chains())
def test_bucketed_oracle_matches_all_pairs_on_chains(aut, t):
    assert essential_by_definition(aut, t) == essential_by_all_pairs(aut, t)


def verdict(f):
    try:
        return f()
    except EnumerationBudgetExceeded as exc:
        return exc.required, exc.cap


def subterm_verdict_by_definition(aut, t, top, p, budget):
    sub = subterm_at(t, top)
    return verdict(lambda: is_essential_subtree(aut, sub, p.suffix_after(top),
                                                budget=budget) is not None)


def p5_by_definition(aut, t, budget):
    """p5's outcome (budget exceeded, failure count) from fresh subterms."""
    try:
        ess = essential_positions(aut, t, budget=budget).essential_positions
        failures = sum(
            not is_essential_subtree(aut, subterm_at(t, Position(p.indices[:cut])),
                                     Position(p.indices[cut:]), budget=budget)
            for p in ess for cut in range(len(p), 0, -1))
    except EnumerationBudgetExceeded:
        return 1, 0
    return 0, failures


BUDGETS = st.sampled_from([2, 4, 8, 16, 64, 256, 2 ** 20])


@settings(max_examples=60, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms(max_var=3)), BUDGETS)
def test_p5_reads_the_store_like_fresh_subterms(aut, t, budget):
    for p in positions(t):
        for cut in range(len(p), 0, -1):
            top = Position(p.indices[:cut])
            got = verdict(lambda: essential_in_subterm(aut, t, top, p, budget=budget))
            assert got == subterm_verdict_by_definition(aut, t, top, p, budget)
    outcome = verify_properties(aut, t, budget=budget).outcomes["separable-strong-chain"]
    assert (outcome.budget_exceeded, len(outcome.failures)) == p5_by_definition(aut, t, budget)


@settings(max_examples=5, deadline=None)
@given(automata(), chains(), BUDGETS, st.data())
def test_p5_reads_the_store_like_fresh_subterms_on_deep_chains(aut, t, budget, data):
    pos = list(positions(t))
    for _ in range(3):
        p = data.draw(st.sampled_from(pos[-60:]))  # deep, so its subterms stay small
        top = Position(p.indices[:data.draw(st.integers(len(p) - 40, len(p)))])
        got = verdict(lambda: essential_in_subterm(aut, t, top, p, budget=budget))
        assert got == subterm_verdict_by_definition(aut, t, top, p, budget)
