from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings

from fta import (
    Automaton,
    FtaError,
    Position,
    PremiseViolatedError,
    ROOT,
    Signature,
    check_reduction,
    determining_subtree,
    essential_by_definition,
    essential_positions,
    fictive_from_determining,
    freeze_fictive,
    node_count,
    parse_term,
    positions,
    runs_equal_all,
    subterm_at,
    verify_properties,
)

from fta.essential import analysis
from fta.terms import compile_term

from conftest import P, PS
from test_properties import automata, nonlinear_terms


class TestRunsEqualAll:
    def test_determining_subtree_equivalence(self, aut, term):
        assert runs_equal_all(aut, term, subterm_at(term, P("1")))

    def test_non_equivalent_subtree(self, aut, term):
        # first distinguishing assignment is x1=0,x2=0,x3=1,x4=1
        assert not runs_equal_all(aut, term, subterm_at(term, P("2.1")))

    def test_reflexive(self, aut, term):
        assert runs_equal_all(aut, term, term)


class TestDeterminingSubtree:
    def test_sample(self, aut, term):
        assert determining_subtree(aut, term) == P("1")

    def test_no_proper_equivalent(self, sig, aut):
        assert determining_subtree(aut, parse_term("g(x1)", sig)) is None

    def test_single_node_term(self, sig, aut):
        assert determining_subtree(aut, parse_term("1", sig)) is None

    def test_double_negation_collapses(self, sig, aut):
        assert determining_subtree(aut, parse_term("g(g(x1))", sig)) == P("1.1")

    def test_constant_root_has_none(self, sig, aut):
        # the subtree at 1.1 matches the root under every assignment, but
        # the root is constantly q0, so no subtree is essential
        t = parse_term("g(g(f1(x1,0)))", sig)
        assert runs_equal_all(aut, t, subterm_at(t, P("1.1")))
        assert determining_subtree(aut, t) is None

    def test_deep_chain_builds_no_position_table(self, sig, aut):
        # f1(1, x1) gets x1's state and g negates, so under an even
        # number of g's the leaf x1 gets the root's state
        levels = 4000
        t = parse_term("g(" * levels + "f1(1,x1)" + ")" * levels, sig)
        assert determining_subtree(aut, t) == Position([1] * levels + [2])
        assert "positions" not in vars(compile_term(t))

    def test_single_node_term_never_enumerates(self, sig, aut):
        # two assignments would exceed the budget, but a one-node term
        # has no proper position to test
        assert determining_subtree(aut, parse_term("x1", sig), budget=1) is None


def determining_by_definition(aut, t):
    """Smallest proper subtree (ties: least indices) that matches the
    whole term under every assignment and is essential by the oracle."""
    oracle = essential_by_definition(aut, t)
    matching = [
        p for p in positions(t)
        if p != ROOT
        and runs_equal_all(aut, t, subterm_at(t, p))
        and p in oracle
    ]
    return min(matching, key=lambda p: (node_count(subterm_at(t, p)), p.indices),
               default=None)


@settings(max_examples=60, deadline=None)
@given(automata(), nonlinear_terms())
def test_determining_subtree_matches_definition_on_nonlinear_terms(aut, t):
    assert determining_subtree(aut, t) == determining_by_definition(aut, t)


class TestFictiveFromDetermining:
    def test_claim_set(self, aut, term):
        claim = fictive_from_determining(aut, term, P("1"))
        assert claim == PS("2.1", "2.1.1", "2.1.1.1", "2.1.1.2",
                           "2.1.1.2.1", "2.1.1.2.2")

    def test_claims_are_fictive(self, aut, term):
        claim = fictive_from_determining(aut, term, P("1"))
        fictive = essential_positions(aut, term).fictive_positions
        assert set(claim) <= set(fictive)

    def test_shared_variable_positions_not_claimed(self, aut, term):
        # position 2 repeats x1 and x2, so it can flip together with the
        # subtree at 1 and is genuinely essential; it must not be claimed
        claim = fictive_from_determining(aut, term, P("1"))
        assert P("2") not in claim
        assert P("2.2") not in claim

    def test_premises_checked(self, sig, aut, term):
        with pytest.raises(PremiseViolatedError):
            fictive_from_determining(aut, term, P("2.1"))
        with pytest.raises(PremiseViolatedError):
            fictive_from_determining(aut, term, P("1.1"))
        # 1.1 matches the root, but the root is constantly q0
        with pytest.raises(PremiseViolatedError, match="not essential"):
            fictive_from_determining(aut, parse_term("g(g(f1(x1,0)))", sig), P("1.1"))
        # a ground subtree is rejected before the two assignments are counted
        with pytest.raises(PremiseViolatedError, match="not essential"):
            fictive_from_determining(aut, parse_term("f1(x1,g(0))", sig), P("2"), budget=1)


class TestFreezeFictive:
    def test_sample_reduction(self, sig, aut, term):
        rep = freeze_fictive(aut, term)
        check_reduction(aut, term, rep)
        assert rep.reduced_term == parse_term("g(f1(x1,x2))", sig)
        assert rep.original_nodes == 16
        assert rep.reduced_nodes == 4
        assert rep.determining_position == P("1")
        assert rep.frozen_positions == PS("2.1")

    def test_ground_freeze(self, sig, aut):
        t = parse_term("f1(g(x1),g(0))", sig)
        rep = freeze_fictive(aut, t)
        check_reduction(aut, t, rep)
        # g(0) freezes to the q1 representative "1"; the determining
        # subtree g(x1) is smaller still and wins
        assert rep.frozen_positions == PS("2")
        assert rep.determining_position == P("1")
        assert rep.reduced_term == parse_term("g(x1)", sig)

    def test_freeze_only_without_determining(self, sig, aut):
        # the f1(x3,0) branch is constantly q0 and x3 is local, so it
        # freezes; the negated root matches no proper subtree
        t = parse_term("g(f2(f1(x1,x2),f1(x3,0)))", sig)
        rep = freeze_fictive(aut, t)
        check_reduction(aut, t, rep)
        assert rep.frozen_positions == PS("1.2")
        assert rep.reduced_term == parse_term("g(f2(f1(x1,x2),0))", sig)
        assert rep.determining_position is None

    def test_identity_when_nothing_applies(self, sig, aut):
        t = parse_term("g(x1)", sig)
        rep = freeze_fictive(aut, t)
        check_reduction(aut, t, rep)
        assert rep.reduced_term == t
        assert rep.frozen_positions == set()
        assert rep.reduced_nodes == rep.original_nodes == 2

    def test_shared_variables_block_freezing(self, sig, aut):
        # x1 occurs both inside the fictive branch and outside it, so the
        # branch must not freeze; truncation to an x1 leaf is still sound
        t = parse_term("f2(f1(x1,g(x1)),x1)", sig)
        rep = freeze_fictive(aut, t)
        check_reduction(aut, t, rep)
        assert rep.frozen_positions == set()
        assert rep.reduced_term == parse_term("x1", sig)
        assert runs_equal_all(aut, t, rep.reduced_term)

    def test_constant_root_freezes_whole_term(self, sig, aut):
        t = parse_term("f1(x1,0)", sig)
        rep = freeze_fictive(aut, t)
        check_reduction(aut, t, rep)
        assert rep.reduced_term == parse_term("0", sig)
        assert rep.frozen_positions == {ROOT}

    def test_state_leaf_whose_state_no_ground_term_reaches(self):
        # only @q2 reaches q2, so q2 has no ground representative and the
        # fictive @q2 leaf is left as it is; the determining x1 still wins
        sig = Signature([("0", 0), ("1", 0), ("g", 1), ("f1", 2)])
        rules = {("0", ()): "q0", ("1", ()): "q1",
                 ("g", ("q0",)): "q1", ("g", ("q1",)): "q0", ("g", ("q2",)): "q0"}
        for a, b in product(("q0", "q1", "q2"), repeat=2):
            rules[("f1", (a, b))] = "q1" if (a, b) in (("q2", "q1"), ("q1", "q1")) else "q0"
        aut = Automaton(sig, ("q0", "q1", "q2"), frozenset({"q1"}), rules)  # complete
        t = parse_term("f1(@q2,x1)", sig, allow_state_leaves=True)
        rep = freeze_fictive(aut, t)
        check_reduction(aut, t, rep)
        assert rep.reduced_term == parse_term("x1", sig)
        assert rep.determining_position == P("2")
        assert rep.frozen_positions == set()
        assert (rep.original_nodes, rep.reduced_nodes) == (3, 1)
        report = verify_properties(aut, t)
        assert report.total_failures == report.total_budget_exceeded == 0

    @pytest.mark.parametrize("text, essential, fictive, runs", [
        ("0", "", "ε", 0),  # a one-node ground term
        ("g(f2(x1,f1(x1,x2)))", "ε 1 1.1 1.2 1.2.1", "1.2.2", 4),  # a maximal fictive x2 leaf
    ])
    def test_a_fictive_leaf_stays(self, sig, aut, text, essential, fictive, runs):
        """No representative is smaller than a leaf, so a fictive leaf is
        left as it is before its state is read: the ground leaf's term
        makes no run at all."""
        t = parse_term(text, sig)
        rep = freeze_fictive(aut, t)
        check_reduction(aut, t, rep)
        assert (rep.essentiality.essential_positions, rep.essentiality.fictive_positions) == (
            PS(*essential.split()), PS(*fictive.split()))
        assert rep.frozen_positions == set()
        assert rep.reduced_term == t and rep.determining_position is None
        assert len(analysis(aut, t)._rows) == runs

    def test_soundness_check_counts_assignments(self, aut, term):
        rep = freeze_fictive(aut, term)
        assert check_reduction(aut, term, rep) == 16

    def test_soundness_check_catches_a_wrong_term(self, sig, aut, term):
        # not(x1 or x2) for the reduction's not(x1 and x2)
        rep = replace(freeze_fictive(aut, term), reduced_term=parse_term("g(f2(x1,x2))", sig))
        with pytest.raises(FtaError, match="^reduction changed a run result; this is a bug$"):
            check_reduction(aut, term, rep)


class TestNodeCounts:
    """The node counts a reduction reports are those of its terms."""

    def test_sample(self, aut, term):
        rep = freeze_fictive(aut, term)
        assert rep.reduced_term == subterm_at(term, P("1"))
        assert (rep.original_nodes, rep.reduced_nodes) == (16, 4) == (
            node_count(term), node_count(rep.reduced_term))

    def test_identity(self, sig, aut):
        t = parse_term("g(f1(x1,x2))", sig)
        rep = freeze_fictive(aut, t)
        assert rep.reduced_term == t
        assert rep.original_nodes == rep.reduced_nodes == node_count(t) == 4

    def test_leaf(self, sig, aut):
        t = parse_term("g(f1(x1,0))", sig)
        rep = freeze_fictive(aut, t)
        assert rep.reduced_term == parse_term("1", sig)
        assert (rep.original_nodes, rep.reduced_nodes) == (4, 1)
