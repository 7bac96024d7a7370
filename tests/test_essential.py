import pytest

from fta import (
    EnumerationBudgetExceeded,
    InvalidPositionError,
    NotEssentialError,
    NotIndependentError,
    ROOT,
    determining_subtree,
    essential_positions,
    essential_vars,
    freeze_fictive,
    is_essential_subtree,
    is_prefix_closed,
    is_separable,
    parse_automaton,
    parse_term,
    positions,
    run,
    sets_independent,
)

from conftest import P, PS, SAMPLE_AUTOMATON, SAMPLE_TERM

# Frozen from an independent enumeration of all assignment pairs over
# the boolean semantics of the sample automaton (q0=0, q1=1; g=not,
# f1=and, f2=or): root value is not(x1 and x2) for every assignment.
ESSENTIAL = PS("ε", "1", "2", "1.1", "2.2", "1.1.1", "1.1.2",
               "2.2.1", "2.2.1.1", "2.2.1.2")
FICTIVE = PS("2.1", "2.1.1", "2.1.1.1", "2.1.1.2", "2.1.1.2.1", "2.1.1.2.2")


class TestWitnessSearch:
    def test_canonical_first_witness(self, aut, term):
        w = is_essential_subtree(aut, term, P("1.1"))
        assert w is not None
        assert w.gamma1 == {1: "0", 2: "0", 3: "0", 4: "0"}
        assert w.gamma2 == {1: "1", 2: "1", 3: "0", 4: "0"}
        assert w.sub_states == ("q0", "q1")
        assert w.root_states == ("q1", "q0")
        assert w.verify(aut, term)

    def test_fictive_position(self, aut, term):
        assert is_essential_subtree(aut, term, P("2.1")) is None

    def test_ground_subtree_never_essential(self, sig, aut):
        t = parse_term("1", sig)
        assert is_essential_subtree(aut, t, ROOT) is None

    def test_invalid_position(self, aut, term):
        with pytest.raises(InvalidPositionError):
            is_essential_subtree(aut, term, P("4.4"))

    def test_witnesses_self_verify(self, aut, term):
        rep = essential_positions(aut, term)
        for p, w in rep.witnesses.items():
            assert w.position == p
            assert w.verify(aut, term)

    def test_witness_states_differ_along_root_path(self, aut, term):
        # with at most one variable occurrence per leaf inside the
        # subtree's ancestors, a witness pair keeps its disagreement at
        # every prefix of its position
        w = is_essential_subtree(aut, term, P("1.1"))
        tr1 = run(aut, w.gamma1, term)
        tr2 = run(aut, w.gamma2, term)
        for cut in range(len(w.position.indices) + 1):
            q = P(".".join(map(str, w.position.indices[:cut])) or "ε")
            assert tr1.per_position[q] != tr2.per_position[q]


class TestReport:
    def test_partition(self, aut, term):
        rep = essential_positions(aut, term)
        assert rep.essential_positions == ESSENTIAL
        assert rep.fictive_positions == FICTIVE
        assert set(rep.essential_positions) | set(rep.fictive_positions) == positions(term)
        assert not (set(rep.essential_positions) & set(rep.fictive_positions))

    def test_prefix_closed_on_sample(self, aut, term):
        rep = essential_positions(aut, term)
        assert is_prefix_closed(rep.essential_positions)

    def test_essential_vars_included(self, aut, term):
        rep = essential_positions(aut, term)
        assert rep.essential_vars == {1, 2}

    def test_ground_term_all_fictive(self, sig, aut):
        rep = essential_positions(aut, parse_term("1", sig))
        assert rep.essential_positions == set()
        assert rep.fictive_positions == {ROOT}

    def test_essential_vars_have_essential_leaf_occurrences(self, aut, term):
        # a root-flipping toggle forces different leaf states, so every
        # leaf occurrence of an essential variable is itself essential
        from fta import Var, subterm_at
        rep = essential_positions(aut, term)
        for p in positions(term):
            leaf = subterm_at(term, p)
            if isinstance(leaf, Var) and leaf.index in rep.essential_vars:
                assert p in rep.essential_positions


class TestEssentialVars:
    def test_sample(self, aut, term):
        assert essential_vars(aut, term) == {1, 2}

    def test_unary(self, sig, aut):
        assert essential_vars(aut, parse_term("g(x1)", sig)) == {1}

    def test_ground(self, sig, aut):
        assert essential_vars(aut, parse_term("f2(0,1)", sig)) == frozenset()

    def test_suppressed_variable(self, sig, aut):
        # f1(x1, 0) is constantly q0, so x1 cannot matter
        assert essential_vars(aut, parse_term("f1(x1,0)", sig)) == frozenset()


class TestSetsIndependent:
    def test_examples(self, term):
        assert sets_independent(term, PS("1.1"), PS("2.1", "2.2"))
        assert not sets_independent(term, PS("1"), PS("1.1"))
        assert sets_independent(term, set(), PS("1", "2"))

    def test_membership_required(self, term):
        with pytest.raises(InvalidPositionError):
            sets_independent(term, PS("8"), PS("1"))


class TestSeparability:
    def test_sample_singleton(self, aut, term):
        result = is_separable(aut, term, PS("1.1"))
        assert result.separable
        assert result.witness == {3: "0", 4: "0"}

    def test_not_essential_rejected(self, aut, term):
        with pytest.raises(NotEssentialError):
            is_separable(aut, term, PS("2.1"))

    def test_explicit_dependent_sets_rejected(self, aut, term):
        with pytest.raises(NotIndependentError):
            is_separable(aut, term, PS("1"), PS("1.1"))

    def test_explicit_fictive_wrt_rejected(self, aut, term):
        with pytest.raises(NotEssentialError):
            is_separable(aut, term, PS("1.1"), PS("2.1"))

    def test_empty_domain_degenerates(self, aut, term):
        # every variable of the term occurs under position 2, so there
        # is nothing to fix and the empty assignment is the witness
        result = is_separable(aut, term, PS("2"))
        assert result.separable and result.witness == {}

    def test_explicit_sets(self, aut, term):
        result = is_separable(aut, term, PS("1.1"), PS("2.2"))
        assert result.separable and result.witness == {}

    def test_not_separable(self, sig, aut):
        # each leaf is separable alone, but x3 picks which one the root reads
        t = parse_term("f2(f1(x1,x3),f1(x2,g(x3)))", sig)
        assert is_separable(aut, t, PS("1.1")).separable
        assert is_separable(aut, t, PS("2.1")).separable
        result = is_separable(aut, t, PS("1.1", "2.1"))
        assert not result.separable
        assert result.witness is None

    def test_substituted_term_keeps_set_essential(self, aut, term):
        from fta import Node, substitute
        result = is_separable(aut, term, PS("1.1"))
        fixed = substitute(term, {v: Node(c) for v, c in result.witness.items()})
        assert is_essential_subtree(aut, fixed, P("1.1")) is not None


class TestBudget:
    def test_wide_term_fails_fast(self, sig, aut):
        text = "x1"
        for i in range(2, 26):
            text = f"f1(x{i},{text})"
        t = parse_term(text, sig)
        with pytest.raises(EnumerationBudgetExceeded):
            essential_positions(aut, t)
        with pytest.raises(EnumerationBudgetExceeded):
            is_essential_subtree(aut, t, ROOT)

    def test_custom_budget(self, aut, term):
        with pytest.raises(EnumerationBudgetExceeded):
            is_essential_subtree(aut, term, P("1.1"), budget=16)
        assert is_essential_subtree(aut, term, P("1.1"), budget=64) is not None


@pytest.mark.parametrize("read", [
    lambda aut, t: aut.rules,
    lambda aut, t: run(aut, {1: "0", 2: "1", 3: "1", 4: "0"}, t).per_position,
    lambda aut, t: essential_positions(aut, t).witnesses,
    lambda aut, t: is_essential_subtree(aut, t, P("1.1")).gamma1,
    lambda aut, t: is_essential_subtree(aut, t, P("1.1")).gamma2,
    lambda aut, t: is_separable(aut, t, PS("1.1")).witness,
], ids=["rules", "per_position", "witnesses", "gamma1", "gamma2", "separable_witness"])
def test_values_are_read_only(aut, term, read):
    mapping = read(aut, term)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = mapping[key]


class TestRunsOncePerAssignment:
    @pytest.fixture()
    def runs(self, monkeypatch):
        import fta.essential
        import fta.reduction
        calls = []
        real = fta.essential.run

        def counting(aut, gamma, t):
            calls.append(tuple(sorted(gamma.items())))
            return real(aut, gamma, t)

        monkeypatch.setattr(fta.essential, "run", counting)
        monkeypatch.setattr(fta.reduction, "run", counting)
        return calls

    def test_essential_positions(self, sig, aut, runs):
        # a term of its own: the session's term may already hold its runs
        t = parse_term(SAMPLE_TERM, sig)
        essential_positions(aut, t)
        assert len(runs) == len(set(runs)) == 2 ** 4
        runs.clear()
        essential_positions(aut, t)
        assert runs == []

    def test_freeze_fictive(self, sig, aut, runs):
        freeze_fictive(aut, parse_term(SAMPLE_TERM, sig))
        assert len(runs) == len(set(runs)) == 2 ** 4

    def test_alternating_automata_get_their_own_runs(self, sig, aut):
        # f1 and f2 swap meanings: conjunction becomes disjunction
        text = SAMPLE_AUTOMATON.replace("f1(", "f0(").replace("f2(", "f1(").replace("f0(", "f2(")
        other = parse_automaton(text)[1]

        def answers(a, t):
            rep = essential_positions(a, t)
            return (rep.essential_positions, rep.witnesses, essential_vars(a, t),
                    determining_subtree(a, t), freeze_fictive(a, t).reduced_term)

        t = parse_term(SAMPLE_TERM, sig)
        for a in (aut, other, aut, other):
            assert answers(a, t) == answers(a, parse_term(SAMPLE_TERM, sig))
        assert answers(aut, t) != answers(other, t)

    def test_is_separable_on_more_assignments_than_fit_a_bounded_cache(self, sig, aut, runs):
        # 15 variables: x15 selects which half the root reads, so the two
        # leaves f2(x1,x2) and f2(x8,x9) are not separable together, and
        # every one of the 2**15 assignments is asked for
        def half(a):
            rest = f"x{a + 6}"
            for v in range(a + 5, a + 1, -1):
                rest = f"f2(x{v},{rest})"
            return f"f1(f2(x{a},x{a + 1}),{rest})"
        t = parse_term(f"f2(f1({half(1)},x15),f1({half(8)},g(x15)))", sig)
        assert not is_separable(aut, t, PS("1.1.1", "2.1.1")).separable
        assert len(runs) == len(set(runs)) == 2 ** 15
