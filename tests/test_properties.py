"""Randomized algebraic laws.

Hypothesis builds arbitrary terms here, including nonlinear ones
(repeated variables), so these laws are the ones that hold for every
term; the properties that need linearity live in the
seeded suite (fta.verify) and its tests.
"""

import copy
import pickle
import re
from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from fta import (
    DEFAULT_SIGNATURE,
    ArityMismatchError,
    Automaton,
    EnumerationBudgetExceeded,
    FtaError,
    GenParams,
    Node,
    Position,
    PositionSet,
    RunTrace,
    Signature,
    SplitMix64,
    StateLeaf,
    TermSyntaxError,
    UnboundVariableError,
    ValidationError,
    Var,
    canonical_ground,
    check_assignment,
    check_reduction,
    essential_by_definition,
    essential_positions,
    essential_vars,
    is_essential_subtree,
    is_separable,
    enumerate_assignments,
    fictive_from_determining,
    freeze_fictive,
    ind_positions,
    node_count,
    parse_term,
    parse_automaton,
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
from fta.essential import Analysis
from fta.terms import compile_term

from conftest import (SAMPLE_AUTOMATON, assert_names_and_order, is_prefix, prefix_closed,
                      prefix_determined_by_definition, state_at)
from reference_parsers import automaton_defects, lhs, parse_term_by_characters

SIG = DEFAULT_SIGNATURE


def leaves(max_var=3, constants=("0", "1")):
    return st.one_of(
        st.integers(1, max_var).map(Var),
        st.sampled_from(constants).map(Node),
    )


def terms(max_leaves=10, max_var=3, constants=("0", "1")):
    return st.recursive(
        leaves(max_var, constants),
        lambda ch: st.one_of(
            st.builds(lambda a: Node("g", (a,)), ch),
            st.builds(lambda a, b: Node("f1", (a, b)), ch, ch),
            st.builds(lambda a, b: Node("f2", (a, b)), ch, ch),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def nonlinear_terms(draw, max_leaves=8, max_var=2, constants=("0", "1")):
    """Terms in which some variable occurs at two independent leaves:
    one leaf on each side of a binary node is replaced by that variable,
    and the node is wrapped in up to two unary symbols."""
    halves = [draw(terms(max_leaves // 2, max_var, constants)) for _ in range(2)]
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


def term_texts():
    """Arbitrary text, and renders of terms with term syntax and
    arbitrary characters spliced in."""
    pieces = st.lists(st.characters() | st.sampled_from(
        ["(", ")", ",", "@", "@q0", "#", "x", "x1", "0", "g", "f1", " ", "\t", "\n", "é", "²"]),
        max_size=4).map("".join)
    spliced = st.builds(lambda text, at, extra: text[:at] + extra + text[at:],
                        terms().map(render_term), st.integers(0, 60), pieces)
    return st.one_of(st.text(), spliced)


@settings(max_examples=300)
@given(term_texts(), st.booleans())
def test_parse_term_returns_a_term_or_a_located_error(text, allow):
    try:
        t = parse_term(text, SIG, allow_state_leaves=allow)
    except TermSyntaxError as exc:
        assert 0 <= exc.offset <= len(text.encode("utf-8", "surrogatepass"))
    else:
        assert parse_term(render_term(t), SIG, allow_state_leaves=allow) == t


@given(terms())
def test_parse_render_round_trip(t):
    assert parse_term(render_term(t), SIG) == t


def unicode_term_texts():
    """:func:`term_texts` with more characters spliced in: Unicode
    spaces, letters and digits, lone surrogates, '@' and '#'."""
    pieces = st.lists(st.characters(categories=["L", "N", "Zs", "Cs"]) | st.sampled_from(
        ["\x1c", "\x85", "\u00a0", "\u2028", "\u3000", "\ud800", "\udcff", "ß", "٣", "Ⅻ",
         "@", "#", "\n"]), max_size=4).map("".join)
    return st.builds(lambda text, at, extra: text[:at] + extra + text[at:],
                     term_texts(), st.integers(0, 60), pieces)


@settings(max_examples=500)
@given(unicode_term_texts(), st.booleans())
@example("f1(x1,0) # é\n", False)
@example("g(@q0 $)", True)
@example("f1(0,g(0)) \u3000", False)
def test_parser_matches_the_character_loop_reference(text, allow):
    try:
        built, canonical = parse_term_by_characters(text, SIG, allow)
    except TermSyntaxError as expected:
        with pytest.raises(TermSyntaxError) as got:
            parse_term(text, SIG, allow_state_leaves=allow)
        assert type(got.value) is type(expected)
        assert (str(got.value), got.value.offset) == (str(expected), expected.offset)
        return
    t = parse_term(text, SIG, allow_state_leaves=allow)
    assert render_term(t) == canonical
    assert t == built
    ours, walked = compile_term(t), compile_term(built)
    for field in ("kinds", "labels", "children", "sizes", "root", "variables"):
        assert getattr(ours, field) == getattr(walked, field), field


@given(terms())
def test_positions_prefix_closed_and_counted(t):
    pos = positions(t)
    assert prefix_closed(pos)
    assert len(pos) == node_count(t)


@given(terms())
def test_independent_sets_prefix_determined(t):
    pos = positions(t)
    for p in pos:
        assert prefix_determined_by_definition(ind_positions(t, p), pos)


def assert_iterates_in_order(ps):
    items = list(ps)
    assert items == sorted(set(items), key=lambda p: p.order_key)
    assert len(ps) == len(items) and all(p in ps for p in items)


@settings(max_examples=100, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms()), st.integers(0, 2 ** 16))
# frozen at 2 and 1.2, which post-order numbers the other way round
@example(random_automaton(GenParams(seed=71, state_count=2)),
         parse_term("f2(f2(f1(f1(x4,1),x1),g(f1(x3,0))),g(f1(x2,f1(0,0))))", SIG), 0)
def test_position_sets_iterate_in_order(aut, t, pick):
    """Sets made from node ids in breadth-first order skip the sort."""
    pos = list(positions(t))
    p = pos[pick % len(pos)]
    report = freeze_fictive(aut, t)
    sets = [positions(t), ind_positions(t, p), report.essentiality.essential_positions,
            report.essentiality.fictive_positions, report.frozen_positions,
            essential_by_definition(aut, t)]
    if report.determining_position is not None:
        sets.append(fictive_from_determining(aut, t, report.determining_position))
    for ps in sets:
        assert_iterates_in_order(ps)


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
        state = aut.rules[(node.symbol, tuple(c.state for c in node.children))]
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
    report = freeze_fictive(aut, t)
    check_reduction(aut, t, report)
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


def step_by_dict(aut, symbol, args):
    """Reference for one transition: a lookup of the (symbol, argument
    states) key in the rule mapping."""
    state = aut.rules.get((symbol, args))
    if state is None:
        lhs = symbol if not args else f"{symbol}({','.join(args)})"
        raise FtaError(f"no transition for {lhs}")
    return state


def run_by_recursion(aut, gamma, t):
    """Reference for ``run``: recursive bottom-up evaluation over the rule
    mapping, returning the root state and the state at each position in
    post-order."""
    check_assignment(aut.signature, gamma)
    per = {}

    def ev(node, path):
        if isinstance(node, Var):
            c = gamma.get(node.index)
            if c is None:
                raise UnboundVariableError(f"x{node.index} is not bound by the assignment")
            state = step_by_dict(aut, c, ())
        elif isinstance(node, StateLeaf):
            if node.state not in aut.states:
                raise FtaError(f"@{node.state} is not a state of the automaton")
            state = node.state
        else:
            args = tuple(ev(c, path + (i,)) for i, c in enumerate(node.children, 1))
            state = step_by_dict(aut, node.symbol, args)
        per[Position(path)] = state
        return state

    return ev(t, ()), per


def partial_run_by_recursion(aut, gamma, t):
    """Reference for ``partial_run``: recursive collapse over the rule
    mapping."""
    check_assignment(aut.signature, gamma)

    def ev(node):
        if isinstance(node, Var):
            return StateLeaf(step_by_dict(aut, gamma[node.index], ())) if node.index in gamma else node
        if isinstance(node, StateLeaf):
            return node
        args = tuple(ev(c) for c in node.children)
        if all(isinstance(a, StateLeaf) for a in args):
            return StateLeaf(step_by_dict(aut, node.symbol, tuple(a.state for a in args)))
        return Node(node.symbol, args)

    return ev(t)


def outcome(f):
    try:
        return f()
    except FtaError as exc:
        return type(exc), str(exc)


#: A state that no automaton has.
UNKNOWN = "q9"

WITH_H3 = Signature([*SIG.symbols, ("h", 3)])


def complete_automata():
    """Random automata with 1-4 states, over the signature or over it
    with the ternary symbol h."""
    return st.builds(
        lambda sig, seed, states: random_automaton(
            GenParams(signature=sig, seed=seed, state_count=states)),
        st.sampled_from([SIG, WITH_H3]), st.integers(0, 2 ** 32), st.integers(1, 4))


@st.composite
def automaton_parts(draw):
    """Signature, declared states, final states and rules, in file
    order, of a complete random automaton whose rules are thinned,
    repeated with the same or another target, and joined by rules of an
    unknown symbol, a wrong arity or an unknown state; some final states
    are not declared and some states are declared twice."""
    aut = random_automaton(GenParams(seed=draw(st.integers(0, 2 ** 32)),
                                     state_count=draw(st.integers(1, 3))))
    states = list(aut.states)
    rules = [(symbol, args, target) for (symbol, args), target in aut.rules.items()
             if draw(st.integers(0, 5))]
    any_state = st.sampled_from([*states, "q9"])
    for symbol, args, target in draw(st.lists(st.sampled_from(rules), max_size=3)) if rules else ():
        rules.append((symbol, args, draw(st.sampled_from([target, *states]))))
    rules += draw(st.lists(st.tuples(st.sampled_from(["0", "g", "f1", "h"]),
                                     st.lists(any_state, max_size=3).map(tuple), any_state),
                           max_size=3))
    rules = draw(st.permutations(rules))
    final = draw(st.lists(st.sampled_from([*states, "q7"]), max_size=3, unique=True))
    states += draw(st.lists(st.sampled_from(states), max_size=1))
    return aut.signature, states, final, rules


def automaton_text(sig, states, final, rules):
    """The file declaring ``sig``, ``states``, ``final`` and ``rules``,
    ``(symbol, args, target)`` triples, in that order."""
    return "".join([
        "signature: " + " ".join(f"{n}/{a}" for n, a in sig.symbols) + "\n",
        "states: " + " ".join(states) + "\n",
        "final: " + " ".join(final) + "\n",
        *(f"rule: {lhs(symbol, args)} -> {target}\n" for symbol, args, target in rules),
    ])


def defects_or(build):
    """What ``build()`` returns, or the defects it is refused with."""
    try:
        return build()
    except ValidationError as exc:
        return exc.defects


@settings(max_examples=300, deadline=None)
@given(automaton_parts())
def test_automaton_parser_matches_full_validation(parts):
    """``parse_automaton`` lists the defects, in order, that assembling
    the rules and walking every argument tuple lists, and the
    :class:`fta.Automaton` constructor lists the same for the same
    declarations and rule pairs.  Given a mapping, the constructor
    lists what parsing its rules in mapping order does."""
    sig, states, final, rules = parts
    assembly, checks, assembled = automaton_defects(sig, states, final, rules)
    parsed = defects_or(lambda: parse_automaton(automaton_text(sig, states, final, rules))[1])
    pairs = [((symbol, args), target) for symbol, args, target in rules]
    built = defects_or(lambda: Automaton(sig, tuple(states), frozenset(final), pairs))
    if assembly + checks:
        assert parsed == built == assembly + checks
    else:
        assert parsed == built and built.rules == assembled

    first = {}
    for symbol, args, target in rules:
        first.setdefault((symbol, args), target)
    kept = [(symbol, args, target) for (symbol, args), target in first.items()]
    assert defects_or(lambda: Automaton(sig, tuple(states), frozenset(final), first)) == \
        defects_or(lambda: parse_automaton(automaton_text(sig, states, final, kept))[1])


def mixed_terms():
    """Terms whose leaves include state leaves, some of them unknown to
    the automaton, and whose nodes sometimes have the wrong arity."""
    state_leaves = st.sampled_from(["q0", "q1", "q2", "q3", UNKNOWN]).map(StateLeaf)
    return st.recursive(
        st.one_of(leaves(), state_leaves),
        lambda ch: st.one_of(
            st.builds(lambda a: Node("g", (a,)), ch),
            st.builds(lambda a, b: Node("f1", (a, b)), ch, ch),
            st.builds(lambda a, b: Node("g", (a, b)), ch, ch),
        ),
        max_leaves=10,
    )


def at(aut, text, gamma):
    """An example for the run test: ``text`` may hold state leaves."""
    return example(aut, parse_term(text, SIG, allow_state_leaves=True), gamma)


TWO = random_automaton(GenParams(seed=0, state_count=2))


@settings(max_examples=300, deadline=None)
@given(complete_automata(),
       st.one_of(linear_terms(), nonlinear_terms(), mixed_terms(),
                 st.builds(lambda *args: Node("h", args), *[mixed_terms()] * 3)),
       st.dictionaries(st.integers(1, 4), st.sampled_from(SIG.constants)))
# every error path
@at(TWO, f"g(@{UNKNOWN})", {})
@at(TWO, f"f1(g(@{UNKNOWN}),@q1)", {})
@at(TWO, "f1(x1,g(x2))", {2: "1"})
@example(TWO, Node("g", (Node("0"), Node("1"))), {})
@example(TWO, Node("h", (Var(1), Node("0"), Var(2))), {1: "1", 2: "0"})
def test_run_matches_recursive_reference(aut, t, gamma):
    # some assignments leave variables unbound
    expected = outcome(lambda: run_by_recursion(aut, gamma, t))
    got = outcome(lambda: run(aut, gamma, t))
    if isinstance(got, RunTrace):
        names = aut.states
        assert tuple(names[i] for i in got.ids) == got.states
        got = got.result, dict(zip(compile_term(t).positions, got.states))
        assert got == expected
        assert list(got[1]) == list(expected[1])  # post-order, as the recursion fills it
    assert got == expected
    assert outcome(lambda: partial_run(aut, gamma, t)) == outcome(
        lambda: partial_run_by_recursion(aut, gamma, t))


def canonical_ground_by_layers(aut):
    """Reference for :func:`fta.canonical_ground`: layer L tries every
    tuple, of each declared symbol's arity, over the declared states
    reached so far, of which the deepest was reached in layer L-1, and
    looks each up in ``aut.rules`` by name."""
    chosen = {}  # state -> (depth, term)
    layer = 0
    while True:
        candidates = {}
        ready = [q for q in aut.states if q in chosen]
        for symbol, arity in aut.signature.symbols:
            for combo in product(ready, repeat=arity):
                if max((chosen[q][0] for q in combo), default=-1) != layer - 1:
                    continue
                state = aut.rules.get((symbol, combo))
                if state is None or state in chosen:
                    continue
                term = Node(symbol, tuple(chosen[q][1] for q in combo))
                key = (len(render_term(term)), render_term(term))
                if state not in candidates or key < candidates[state][0]:
                    candidates[state] = (key, term)
        if not candidates:
            break
        for state, (_, term) in candidates.items():
            chosen[state] = (layer, term)
        layer += 1
    return {q: chosen[q][1] for q in aut.states if q in chosen}


@st.composite
def ground_automata(draw):
    """Complete automata from :func:`complete_automata` with their
    declarations shuffled; some have one more state, which only the
    rules reading it give, so no ground term reaches it."""
    aut = draw(complete_automata())
    states, rules = list(aut.states), dict(aut.rules)
    if draw(st.booleans()):
        unreached = f"q{len(states)}"
        states.append(unreached)
        rng = SplitMix64(draw(st.integers(0, 2 ** 32)))
        for symbol, arity in aut.signature.symbols:
            for combo in product(states, repeat=arity):
                if unreached in combo:
                    rules[(symbol, combo)] = states[rng.below(len(states))]
    return Automaton(aut.signature, tuple(draw(st.permutations(states))), aut.final, rules)


@settings(max_examples=300, deadline=None)
@given(ground_automata())
def test_canonical_ground_matches_layered_reference(aut):
    assert list(canonical_ground(aut).items()) == list(canonical_ground_by_layers(aut).items())


@given(st.one_of(terms(), nonlinear_terms(), mixed_terms()))
def test_position_names_and_order(t):
    assert_names_and_order(t)


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
            evaluated.append((gamma, state_at(aut, gamma, t, p), run(aut, gamma, t).result))
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
    return {q for q in positions(t) if not (is_prefix(p, q) or is_prefix(q, p))}


def assert_position_algebra_by_definition(t, data):
    pos = list(positions(t))
    picks = pos if len(pos) <= 40 else data.draw(
        st.lists(st.sampled_from(pos), min_size=1, max_size=4))
    for p in picks:
        assert ind_positions(t, p) == ind_positions_by_definition(t, p)
    p = data.draw(st.sampled_from(pos))
    assert prefix_determined_by_definition(ind_positions(t, p), pos)


@settings(max_examples=60, deadline=None)
@given(st.one_of(linear_terms(), nonlinear_terms()), st.data())
def test_position_algebra_matches_definition(t, data):
    assert_position_algebra_by_definition(t, data)


@settings(max_examples=5, deadline=None)
@given(chains(), st.data())
def test_position_algebra_matches_definition_on_deep_chains(t, data):
    assert_position_algebra_by_definition(t, data)


def assert_nested(term):
    """The compiled form's nesting invariant, by definition: the ids of
    each child's subtree lie among those of its parent's, below the
    parent's own id."""
    ids = [set(range(i - size + 1, i + 1)) for i, size in enumerate(term.sizes)]
    for j, kids in enumerate(term.children):
        for k in kids:
            assert ids[k] <= ids[j] - {j}


@settings(max_examples=60, deadline=None)
@given(st.one_of(terms(), nonlinear_terms()), automata(), st.data())
def test_every_compiled_form_nests_its_subtrees(t, aut, data):
    """Compiled forms from parse_term, from compile_term on a built
    tree and of partial_run's results keep the invariant, so p2 reports
    nothing on any of them (a budget of one run skips the properties
    that enumerate)."""
    built = compile_term(t)
    gamma = {v: data.draw(st.sampled_from(SIG.constants))
             for v in sorted(built.variables) if data.draw(st.booleans())}
    reduced = partial_run(aut, gamma, t)
    for made in (t, parse_term(render_term(t), SIG), reduced,
                 parse_term(render_term(reduced), SIG, allow_state_leaves=True)):
        assert_nested(compile_term(made))
        report = verify_properties(aut, made, budget=1)
        assert report.outcomes["ind-prefix-determined"].failures == []


def essential_by_all_pairs(aut, t):
    """Reference for the oracle: every pair of total assignments at every
    position, filtered by agreement outside the subtree.  Each position's
    variables come from one walk over the term's own nodes, and each
    run's states are read by position once."""
    vs = sorted(variables(t))
    paths = compile_term(t).positions  # by node id
    runs = [(values, dict(zip(paths, tr.states)), tr.result)
            for values in product(aut.signature.constants, repeat=len(vs))
            for tr in [run(aut, dict(zip(vs, values)), t)]]
    walk = [((), t)]  # parents before children, by index path
    for ix, sub in walk:
        if isinstance(sub, Node):
            walk.extend((ix + (i,), c) for i, c in enumerate(sub.children, 1))
    inner_vars = {}
    for ix, sub in reversed(walk):  # children before parents
        kids = sub.children if isinstance(sub, Node) else ()
        inner_vars[ix] = frozenset({sub.index} if isinstance(sub, Var) else ()).union(
            *(inner_vars[ix + (i,)] for i in range(1, len(kids) + 1)))
    position = {p.indices: p for p in paths}
    essential = set()
    for ix, inner in inner_vars.items():
        p = position[ix]
        outer_idx = [i for i, v in enumerate(vs) if v not in inner]
        evaluated = [(values, states[p], root) for values, states, root in runs]
        if any(sub1 != sub2 and root1 != root2
               for values1, sub1, root1 in evaluated
               for values2, sub2, root2 in evaluated
               if all(values1[i] == values2[i] for i in outer_idx)):
            essential.add(p)
    return essential


#: The README's boolean automaton.
BOOLEAN = parse_automaton(SAMPLE_AUTOMATON)[1]


@settings(max_examples=40, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms()))
# a bucket key that forgets which outer variable holds which constant
# makes the oracle call 2.1 essential here; the search says fictive
@example(BOOLEAN, parse_term("f2(f1(x1,g(x2)),f1(x3,0))", SIG))
def test_bucketed_oracle_matches_all_pairs(aut, t):
    assert essential_by_definition(aut, t) == essential_by_all_pairs(aut, t)


@settings(max_examples=3, deadline=None)
@given(automata(), chains())
def test_bucketed_oracle_matches_all_pairs_on_chains(aut, t):
    assert essential_by_definition(aut, t) == essential_by_all_pairs(aut, t)


#: The default signature with a third constant, so a bucket of the
#: oracle holds 3^m runs and up to 4 states give up to 16 distinct pairs.
THREE_CONSTANTS = Signature([("0", 0), ("1", 0), ("2", 0), ("g", 1), ("f1", 2), ("f2", 2)])


def three_constant_automata():
    return st.builds(
        lambda seed, states: random_automaton(
            GenParams(signature=THREE_CONSTANTS, seed=seed, state_count=states)),
        st.integers(0, 2 ** 32), st.integers(1, 4))


def three_constant_terms():
    """Linear terms as the seeded generator draws them, with up to four
    variables, and non-linear ones with up to three."""
    return st.one_of(
        st.builds(lambda seed: random_term(GenParams(signature=THREE_CONSTANTS, seed=seed)),
                  st.integers(0, 2 ** 32)),
        nonlinear_terms(max_var=3, constants=THREE_CONSTANTS.constants))


@settings(max_examples=60, deadline=None)
@given(three_constant_automata(), three_constant_terms())
def test_oracle_over_three_constants(aut, t):
    """Off the default signature the bucketed oracle still sees exactly
    the pairs that agree outside each subtree, and the search agrees
    with it (p6)."""
    assert essential_by_definition(aut, t) == essential_by_all_pairs(aut, t)
    p6 = verify_properties(aut, t).outcomes["oracle-agreement"]
    assert (p6.failures, p6.budget_exceeded) == ([], 0)


def assert_rows_are_runs(aut, t, data):
    """Every row the analysis makes, asked for in a shuffled order, is
    the run of its assignment: the first made by a run, every later one
    by evaluating again, from the row made last, only the nodes above
    the variables that changed.  Numbers are mixed radix, the lowest
    variable the most significant digit."""
    consts, vs = aut.signature.constants, sorted(variables(t))
    found = Analysis(aut, t)
    numbers = data.draw(st.permutations(range(len(consts) ** len(vs))))
    for number in numbers:
        gamma, rest = {}, number
        for v in reversed(vs):
            rest, digit = divmod(rest, len(consts))
            gamma[v] = consts[digit]
        assert list(found._run(number)) == list(run(aut, gamma, t).ids)


@settings(max_examples=60, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms(max_var=3), terms(max_leaves=8)),
       st.data())
def test_rows_are_runs_in_any_order(aut, t, data):
    assert_rows_are_runs(aut, t, data)


@settings(max_examples=40, deadline=None)
@given(three_constant_automata(), three_constant_terms(), st.data())
def test_rows_are_runs_in_any_order_over_three_constants(aut, t, data):
    assert_rows_are_runs(aut, t, data)


def verdict(f):
    try:
        return f()
    except EnumerationBudgetExceeded as exc:
        return exc.required, exc.cap


def p5_by_definition(aut, t, budget):
    """p5's outcome (budget exceeded, failure details) from fresh
    subterms: p must stay essential within the subterm at each proper
    prefix, searched on that subterm object as a term of its own."""
    try:
        ess = essential_positions(aut, t, budget=budget).essential_positions
        details = [
            f"separable position {p} is not essential within the subtree at {top}"
            for p in ess for cut in range(len(p), 0, -1)
            for top in [Position(p.indices[:cut])]
            if is_essential_subtree(aut, subterm_at(t, top), Position(p.indices[cut:]),
                                    budget=budget) is None]
    except EnumerationBudgetExceeded:
        return 1, []
    return 0, details


def p2_by_definition(t):
    """Whether every Ind(p) is prefix determined, from the position algebra."""
    pos = positions(t)
    return all(prefix_determined_by_definition(ind_positions(t, p), pos) for p in pos)


def assert_p2_p5_by_definition(aut, t, budget):
    """verify's p2 passes iff every Ind(p) is prefix determined, and p5
    gives the by-definition details, in order; returns p5's."""
    outcomes = verify_properties(aut, t, budget=budget).outcomes
    p2, p5 = outcomes["ind-prefix-determined"], outcomes["separable-strong-chain"]
    assert (p2.budget_exceeded, not p2.failures) == (0, p2_by_definition(t))
    expected = p5_by_definition(aut, t, budget)
    assert (p5.budget_exceeded, [f.detail for f in p5.failures]) == expected
    return expected[1]


BUDGETS = st.sampled_from([2, 4, 8, 16, 64, 256, 2 ** 20])


@settings(max_examples=60, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms(max_var=3)), BUDGETS)
def test_p2_and_p5_match_their_definitions(aut, t, budget):
    assert_p2_p5_by_definition(aut, t, budget)


@settings(max_examples=8, deadline=None)
@given(automata(), chains(levels=100), BUDGETS)
def test_p2_and_p5_match_their_definitions_on_deep_chains(aut, t, budget):
    assert_p2_p5_by_definition(aut, t, budget)


def p1_p3_p6_by_definition(aut, t, budget):
    """p1's, p3's and p6's outcomes (budget exceeded, failure details)
    from the position algebra: parents by dropping the last index, prefix
    determination by its definition and the positions in the order of
    ``positions(t)``."""
    try:
        rep = essential_positions(aut, t, budget=budget)
    except EnumerationBudgetExceeded:
        return [(1, [])] * 3
    ess, pos = rep.essential_positions, positions(t)
    bad = [str(p) for p in ess if p.indices and Position(p.indices[:-1]) not in ess]
    p1 = [f"essential positions not prefix closed at: {', '.join(bad)}"] if bad else []
    p3 = ([] if prefix_determined_by_definition(rep.fictive_positions, pos)
          else ["fictive positions not prefix determined"])
    try:
        oracle = essential_by_definition(aut, t, budget=budget)
    except EnumerationBudgetExceeded:
        return [(0, p1), (0, p3), (1, [])]
    return [(0, p1), (0, p3), (0, [
        f"essentiality of {p}: search says {p in ess}, enumeration says {p in oracle}"
        for p in pos if (p in ess) != (p in oracle)])]


def assert_p1_p3_p6_by_definition(aut, t, budget):
    outcomes = verify_properties(aut, t, budget=budget).outcomes
    assert [(outcomes[name].budget_exceeded, [f.detail for f in outcomes[name].failures])
            for name in ("essential-prefix-closed", "fictive-prefix-determined",
                         "oracle-agreement")] == p1_p3_p6_by_definition(aut, t, budget)


@settings(max_examples=60, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms(max_var=3)), BUDGETS)
def test_p1_p3_and_p6_match_their_definitions(aut, t, budget):
    assert_p1_p3_p6_by_definition(aut, t, budget)


@settings(max_examples=8, deadline=None)
@given(automata(), chains(levels=100), BUDGETS)
def test_p1_p3_and_p6_match_their_definitions_on_deep_chains(aut, t, budget):
    assert_p1_p3_p6_by_definition(aut, t, budget)


def test_p5_matches_its_definition_on_genuine_failures(aut, sig):
    # x1 at 1.1 and at 2 couples the two sides of the root (README)
    t = parse_term("f2(f1(x1,g(x1)),x1)", sig)
    assert assert_p2_p5_by_definition(aut, t, 2 ** 20) == [
        f"separable position {p} is not essential within the subtree at 1"
        for p in ("1.1", "1.2", "1.2.1")]


def report_by_position(aut, t, budget):
    """What the report should hold, from one search per position, each
    on a freshly parsed copy of ``t`` (so no run is shared): its
    witnesses, or the first budget error in position order."""
    text = render_term(t)
    witnesses = {}
    for p in positions(t):
        w = verdict(lambda: is_essential_subtree(aut, parse_term(text, aut.signature), p,
                                                 budget=budget))
        if isinstance(w, tuple):
            return w
        if w is not None:
            witnesses[p] = w
    return witnesses


def assert_report_matches_fresh_searches(aut, t):
    report = essential_positions(aut, t)
    witnesses = report_by_position(aut, t, 2 ** 20)
    assert dict(report.witnesses) == witnesses
    assert report.essential_positions == set(witnesses)
    assert report.fictive_positions == set(positions(t)) - set(witnesses)
    assert report.essential_vars == {
        v.index for p in witnesses if isinstance(v := subterm_at(t, p), Var)}
    # one below the largest pair count, the first search over the budget
    # raises, with the count a fresh search at that position needs
    k, n = len(aut.signature.constants), len(variables(t))
    inner = [len(variables(subterm_at(t, p))) for p in positions(t)]
    largest = max((k ** (n + i) for i in inner if i), default=None)
    if largest is not None:
        fresh = parse_term(render_term(t), aut.signature)
        got = verdict(lambda: essential_positions(aut, fresh, budget=largest - 1))
        assert got == report_by_position(aut, t, largest - 1) == (largest, largest - 1)


@settings(max_examples=60, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms(max_var=3), terms(max_leaves=8)))
def test_report_matches_fresh_searches_at_each_position(aut, t):
    assert_report_matches_fresh_searches(aut, t)


@settings(max_examples=40, deadline=None)
@given(three_constant_automata(), st.one_of(
    three_constant_terms(), terms(max_leaves=8, constants=THREE_CONSTANTS.constants)))
def test_report_matches_fresh_searches_over_three_constants(aut, t):
    """A state that changes only at the third constant still gets its
    node searched."""
    assert_report_matches_fresh_searches(aut, t)


COMPILED_FIELDS = ("kinds", "labels", "children", "sizes", "root", "variables",
                   "variables_at", "positions", "names", "order")


def assert_parser_compiles_as_the_walk(built):
    """The compiled form that parsing ``built``'s text attaches equals
    the one :func:`compile_term` walks ``built`` itself for."""
    parsed = parse_term(render_term(built), SIG, allow_state_leaves=True)
    assert "_compiled" in vars(parsed)
    ours, walked = compile_term(parsed), compile_term(built)
    for field in COMPILED_FIELDS:
        assert getattr(ours, field) == getattr(walked, field), field


@settings(max_examples=200, deadline=None)
@given(st.one_of(terms(), nonlinear_terms(), mixed_terms()))
def test_parser_compiles_as_the_walk(t):
    try:
        assert_parser_compiles_as_the_walk(t)
    except ArityMismatchError:
        assume(False)  # mixed_terms() also builds nodes of the wrong arity


@settings(max_examples=2, deadline=None)
@given(chains(levels=3000))
def test_parser_compiles_as_the_walk_on_deep_chains(t):
    assert_parser_compiles_as_the_walk(t)


@settings(max_examples=100, deadline=None)
@given(st.one_of(linear_terms(), nonlinear_terms(), terms(), chains(levels=150)))
def test_variables_at_is_the_variables_of_each_subterm(t):
    term = compile_term(t)
    for i, p in enumerate(term.positions):
        assert term.variables_at[i] == variables(subterm_at(t, p))


def terms_with_state_leaves():
    state_leaves = st.sampled_from(["q0", "q_1", "Q2", "7"]).map(StateLeaf)
    return st.recursive(
        st.one_of(leaves(), state_leaves),
        lambda ch: st.one_of(
            st.builds(lambda a: Node("g", (a,)), ch),
            st.builds(lambda a, b: Node("f1", (a, b)), ch, ch),
        ),
        max_leaves=10,
    )


GAPS = st.lists(st.sampled_from([" ", "\t", "\n", "  # note\n", "#(x1,@q0)\n"]),
                max_size=2).map("".join)


@settings(max_examples=200, deadline=None)
@given(terms_with_state_leaves(), st.data())
def test_kept_text_is_the_walked_rendering(t, data):
    canonical = render_term(t)  # built, not parsed: rendered by a walk
    tokens = re.findall(r"[(),]|@?\w+", canonical)
    text = "".join(data.draw(GAPS) + tok for tok in tokens) + data.draw(GAPS)
    parsed = parse_term(text, SIG, allow_state_leaves=True)
    assert parsed == t
    assert render_term(parsed) == canonical == render_term(substitute(parsed, {}))


def tree_nodes(t):
    """Every node object of ``t``'s tree, with its position, walked."""
    todo = [((), t)]
    while todo:
        ix, node = todo.pop()
        yield Position(ix), node
        if isinstance(node, Node):
            todo.extend((ix + (i,), c) for i, c in enumerate(node.children, 1))


@settings(max_examples=100, deadline=None)
@given(st.one_of(terms(), nonlinear_terms(), terms_with_state_leaves(), chains(levels=150),
                 terms(max_leaves=8, constants=THREE_CONSTANTS.constants)))
def test_parsed_tree_is_built_on_first_read_as_compiled(t):
    """Runs, analyses, rendering, equality and hashing of a parsed term
    build no node below its root.  Reading ``children`` builds the tree
    the compiled form describes, once, with one object per leaf label."""
    aut = random_automaton(GenParams(seed=node_count(t), signature=THREE_CONSTANTS))
    parsed = parse_term(render_term(t), THREE_CONSTANTS, allow_state_leaves=True)
    gamma = dict.fromkeys(variables(t), "1")
    if not any(isinstance(node, StateLeaf) for _, node in tree_nodes(t)):
        run(aut, gamma, parsed), partial_run(aut, {}, parsed), essential_positions(aut, parsed)
    assert parsed == t and hash(parsed) == hash(t) and render_term(parsed) == render_term(t)
    if isinstance(parsed, Node):
        assert "children" not in vars(parsed) or not compile_term(t).children[-1]
        assert parsed.children is parsed.children
    leaves = {}
    for p, node in tree_nodes(parsed):
        sub = subterm_at(t, p)
        assert node == sub and hash(node) == hash(sub) and render_term(node) == render_term(sub)
        if not isinstance(node, Node) or not node.children:
            label = (type(node), render_term(node))
            assert leaves.setdefault(label, node) is node


DUPLICATES = [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]


def mappings_of(value):
    """The mappings among ``value``'s fields and those of the values it holds."""
    for f in fields(value):
        held = getattr(value, f.name)
        if isinstance(held, Mapping):
            yield held
        elif is_dataclass(held):
            yield from mappings_of(held)


@settings(max_examples=40, deadline=None)
@given(automata(), st.one_of(linear_terms(), nonlinear_terms()))
def test_result_values_copy_and_pickle(aut, t):
    """A copy or pickle round trip of an automaton or a result is an
    equal value of the same type whose mappings are still read-only, and
    a copied automaton answers queries as the original does."""
    report = essential_positions(aut, t)
    reduction = freeze_fictive(aut, t)
    values = [aut, report, reduction, *report.witnesses.values(),
              *(is_separable(aut, t, [p]) for p in report.essential_positions)]
    for value in values:
        for duplicate in DUPLICATES:
            copied = duplicate(value)
            assert type(copied) is type(value) and copied == value
            for mapping in mappings_of(copied):
                with pytest.raises(TypeError):
                    mapping[next(iter(mapping), 0)] = None
    for duplicate in DUPLICATES:
        copied = duplicate(aut)
        assert vars(copied).keys().isdisjoint({"_ids", "_tables"})  # made again on first use
        assert essential_positions(copied, t) == report
        assert freeze_fictive(copied, t) == reduction
