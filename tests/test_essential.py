import copy
import gc
import pickle
import sys
import threading
import weakref
from dataclasses import replace
from itertools import product

import pytest

from fta import (
    EnumerationBudgetExceeded,
    InvalidPositionError,
    NotEssentialError,
    NotIndependentError,
    Position,
    ROOT,
    determining_subtree,
    essential_positions,
    essential_vars,
    fictive_from_determining,
    freeze_fictive,
    ind_positions,
    is_essential_subtree,
    is_separable,
    parse_automaton,
    parse_term,
    positions,
    run,
    variables,
    verify_properties,
)
from fta.essential import Analysis, WitnessPair, analysis
from fta.terms import compile_term

from conftest import P, PS, SAMPLE_AUTOMATON, SAMPLE_TERM, is_prefix, prefix_closed, state_at

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

    def test_witness_must_agree_outside_its_subtree(self, aut, term):
        w = is_essential_subtree(aut, term, P("1.1"))
        assert w.verify(aut, term)
        moved = replace(w, gamma2={**w.gamma2, 3: "1"})  # x3 occurs only outside 1.1
        assert not moved.verify(aut, term)

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
        for cut in range(len(w.position.indices) + 1):
            q = Position(w.position.indices[:cut])
            assert state_at(aut, w.gamma1, term, q) != state_at(aut, w.gamma2, term, q)


class TestPositionLookup:
    """Every query finds its positions by walking the compiled term, so
    a position the term lacks gets one wording, wherever it is given."""

    @pytest.mark.parametrize("query", [
        lambda aut, t, p: is_essential_subtree(aut, t, p),
        lambda aut, t, p: is_separable(aut, t, [p]),
        lambda aut, t, p: is_separable(aut, t, PS("1.1"), [p]),
        lambda aut, t, p: ind_positions(t, p),
        lambda aut, t, p: fictive_from_determining(aut, t, p),
    ], ids=["is_essential_subtree", "is_separable-ys", "is_separable-zs", "ind_positions",
            "fictive_from_determining"])
    @pytest.mark.parametrize("missing", ["3", "1.1.1.1", "2.1.1.2.2.1"])
    def test_missing_position_message(self, aut, term, query, missing):
        with pytest.raises(InvalidPositionError,
                           match=f"^{missing.replace('.', '[.]')} is not a position of the term$"):
            query(aut, term, P(missing))

    def test_separable_order_of_checks(self, aut, term):
        # 2.1 is fictive and 1 contains 1.1; each set is looked up whole
        # before it is checked, the ys before the zs
        with pytest.raises(InvalidPositionError, match="^2.1.1.1.1 is not a position"):
            is_separable(aut, term, PS("2.1", "2.1.1.1.1"))
        with pytest.raises(InvalidPositionError, match="^9.9 is not a position"):
            is_separable(aut, term, PS("1.1"), PS("1", "9.9"))
        with pytest.raises(InvalidPositionError, match="^2.1.1.1.1 is not a position"):
            is_separable(aut, term, PS("1.1"), PS("2.1", "2.1.1.1.1"))
        with pytest.raises(NotEssentialError, match="^position 2.1 is not essential$"):
            is_separable(aut, term, PS("2.1"), PS("9.9"))

    @pytest.mark.parametrize("query", [
        lambda aut, t, p: is_essential_subtree(aut, t, p) is not None,
        lambda aut, t, p: is_separable(aut, t, [p]).separable,
        lambda aut, t, p: is_essential_subtree(aut, t, p).verify(aut, t),
    ], ids=["is_essential_subtree", "is_separable", "WitnessPair.verify"])
    def test_one_position_builds_no_position_table(self, sig, aut, query):
        depth = 3000
        t = parse_term("g(" * depth + "x1" + ")" * depth, sig)
        assert query(aut, t, Position([1] * depth))
        assert "positions" not in vars(compile_term(t))


class TestReport:
    def test_partition(self, aut, term):
        rep = essential_positions(aut, term)
        assert rep.essential_positions == ESSENTIAL
        assert rep.fictive_positions == FICTIVE
        assert set(rep.essential_positions) | set(rep.fictive_positions) == positions(term)
        assert not (set(rep.essential_positions) & set(rep.fictive_positions))

    def test_prefix_closed_on_sample(self, aut, term):
        rep = essential_positions(aut, term)
        assert prefix_closed(rep.essential_positions)

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


def sets_independent(ys, zs):
    """Reference: no position of one set is a prefix of one of the other."""
    return all(not (is_prefix(y, z) or is_prefix(z, y)) for y in ys for z in zs)


class TestSetsIndependent:
    """``is_separable`` with explicit ``zs`` rejects sets that are not
    independent; it decides that from subtree id ranges."""

    def test_examples(self, aut, term):
        assert sets_independent(PS("1.1"), PS("2.1", "2.2"))
        assert not sets_independent(PS("1"), PS("1.1"))
        assert sets_independent(set(), PS("1", "2"))
        assert is_separable(aut, term, set(), PS("1", "2")).separable
        for ys, zs in ((PS("1.1"), PS("2.2", "1")), (PS("2.2.1"), PS("1.1", "2"))):
            assert not sets_independent(ys, zs)
            with pytest.raises(NotIndependentError):
                is_separable(aut, term, ys, zs)

    def test_membership_required(self, aut, term):
        with pytest.raises(InvalidPositionError):
            is_separable(aut, term, PS("1.1"), PS("8"))

    def test_every_pair_of_essential_positions(self, aut, term):
        essential = list(essential_positions(aut, term).essential_positions)
        for y in essential:
            for z in essential:
                if sets_independent({y}, {z}):
                    is_separable(aut, term, {y}, {z})
                else:
                    with pytest.raises(NotIndependentError):
                        is_separable(aut, term, {y}, {z})


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

    # The sample term has 2 constants and 4 variables.  A witness search
    # at a node charges 2 ** (outer + 2 * inner), a pass over every total
    # assignment 2 ** 4, and separability's loop 2 ** |D|.  With some ys
    # that loop never charges more than their own searches, so it is
    # pinned with none, where D is empty.
    @pytest.mark.parametrize("query, count", [
        # 1.1 = f1(x1,x2): x3, x4 outside, x1, x2 inside
        (lambda aut, t, b: is_essential_subtree(aut, t, P("1.1"), budget=b), 2 ** (2 + 2 * 2)),
        # the root: nothing outside, all four inside
        (lambda aut, t, b: essential_positions(aut, t, budget=b), 2 ** (0 + 2 * 4)),
        (lambda aut, t, b: essential_vars(aut, t, budget=b), 2 ** 4),
        (lambda aut, t, b: determining_subtree(aut, t, budget=b), 2 ** 4),
        (lambda aut, t, b: fictive_from_determining(aut, t, P("1"), budget=b), 2 ** 4),
        # the y check at 1.1, before the loop over x3, x4
        (lambda aut, t, b: is_separable(aut, t, PS("1.1"), budget=b), 2 ** (2 + 2 * 2)),
        (lambda aut, t, b: is_separable(aut, t, PS("1.1"), PS("2.2.1.1"), budget=b),
         2 ** (2 + 2 * 2)),
        # the y check at the leaf 2.2.1.1 = x2 passes with 2 ** (3 + 2),
        # and the z check at 1.1 charges more
        (lambda aut, t, b: is_separable(aut, t, PS("2.2.1.1"), PS("1.1"), budget=b),
         2 ** (2 + 2 * 2)),
        (lambda aut, t, b: is_separable(aut, t, [], budget=b), 2 ** 0),
        (lambda aut, t, b: is_separable(aut, t, [], [], budget=b), 2 ** 0),
    ], ids=["is_essential_subtree", "essential_positions", "essential_vars",
            "determining_subtree", "fictive_from_determining",
            "is_separable-y", "is_separable-y-explicit", "is_separable-z",
            "is_separable-gamma", "is_separable-gamma-explicit"])
    def test_charge_is_pinned(self, aut, term, query, count):
        query(aut, term, count)
        with pytest.raises(EnumerationBudgetExceeded) as raised:
            query(aut, term, count - 1)
        assert (raised.value.required, raised.value.cap) == (count, count - 1)


@pytest.mark.parametrize("read", [
    lambda aut, t: aut.rules,
    lambda aut, t: essential_positions(aut, t).witnesses,
    lambda aut, t: is_essential_subtree(aut, t, P("1.1")).gamma1,
    lambda aut, t: is_essential_subtree(aut, t, P("1.1")).gamma2,
    lambda aut, t: is_separable(aut, t, PS("1.1")).witness,
], ids=["rules", "witnesses", "gamma1", "gamma2", "separable_witness"])
def test_values_are_read_only(aut, term, read):
    mapping = read(aut, term)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = mapping[key]


class TestRunsOncePerAssignment:
    @pytest.fixture()
    def rows(self, monkeypatch):
        # the assignment numbers of the rows the analysis makes, and the
        # assignments it and the reduction run through ``run``
        import fta.essential
        import fta.reduction
        made, runs = [], []
        real_row, real_run = Analysis._run, fta.essential.run

        def making(self, number):
            made.append(number)
            return real_row(self, number)

        def counting(aut, gamma, t):
            runs.append(tuple(sorted(gamma.items())))
            return real_run(aut, gamma, t)

        monkeypatch.setattr(Analysis, "_run", making)
        monkeypatch.setattr(fta.essential, "run", counting)
        monkeypatch.setattr(fta.reduction, "run", counting)
        return made, runs

    def test_essential_positions(self, sig, aut, rows):
        # a term of its own: the session's term may already hold its runs
        made, runs = rows
        t = parse_term(SAMPLE_TERM, sig)
        essential_positions(aut, t)
        assert len(made) == len(set(made)) == 2 ** 4
        assert len(runs) == 1  # the first row; the others re-evaluate from it
        made.clear(), runs.clear()
        essential_positions(aut, t)
        assert made == runs == []

    def test_freeze_fictive(self, sig, aut, rows):
        made, runs = rows
        freeze_fictive(aut, parse_term(SAMPLE_TERM, sig))
        assert len(made) == len(set(made)) == 2 ** 4
        assert len(runs) == 1

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

    def test_verify_properties(self, sig, aut, monkeypatch):
        # the analysis makes every assignment's row once, the first by a
        # run, the oracle and p7's runs_equal_all run their own, and p5
        # reads the analysis
        import fta.essential
        import fta.reduction
        import fta.verify
        counts = dict.fromkeys(("fta.essential", "fta.reduction", "fta.verify"), 0)
        made = []
        real_row = Analysis._run

        def making(self, number):
            made.append(number)
            return real_row(self, number)

        monkeypatch.setattr(Analysis, "_run", making)

        def counting(real, name):
            def wrapped(aut, gamma, t):
                counts[name] += 1
                return real(aut, gamma, t)
            return wrapped

        for module in (fta.essential, fta.reduction, fta.verify):
            monkeypatch.setattr(module, "run", counting(module.run, module.__name__))
        report = verify_properties(aut, parse_term(SAMPLE_TERM, sig))
        assert report.total_failures == report.total_budget_exceeded == 0
        n = 2 ** 4
        assert len(made) == len(set(made)) == n
        assert counts == {"fta.essential": 1, "fta.reduction": 2 * n, "fta.verify": n}

    def test_is_separable_on_more_assignments_than_fit_a_bounded_cache(self, sig, aut, rows):
        # 15 variables: x15 selects which half the root reads, so the two
        # leaves f2(x1,x2) and f2(x8,x9) are not separable together, and
        # every one of the 2**15 assignments is asked for
        def half(a):
            rest = f"x{a + 6}"
            for v in range(a + 5, a + 1, -1):
                rest = f"f2(x{v},{rest})"
            return f"f1(f2(x{a},x{a + 1}),{rest})"
        t = parse_term(f"f2(f1({half(1)},x15),f1({half(8)},g(x15)))", sig)
        made, runs = rows
        assert not is_separable(aut, t, PS("1.1.1", "2.1.1")).separable
        assert len(made) == len(set(made)) == 2 ** 15
        assert len(runs) == 1


class TestSearchesBuildOnlyWhatTheyAnswer:
    @pytest.fixture()
    def built(self, monkeypatch):
        """Counts the witness pairs constructed."""
        count = [0]
        real = WitnessPair.__post_init__

        def counting(self):
            count[0] += 1
            real(self)

        monkeypatch.setattr(WitnessPair, "__post_init__", counting)
        return count

    def test_verify_properties_builds_only_the_reported_witnesses(self, sig, aut, built):
        t = parse_term(SAMPLE_TERM, sig)
        verify_properties(aut, t)
        assert built[0] == len(ESSENTIAL)  # one per essential position, for the report

    def test_is_separable_builds_no_witness(self, sig, aut, built):
        assert is_separable(aut, parse_term(SAMPLE_TERM, sig), [P("1.1")]).separable
        assert built[0] == 0

    def test_one_position_numbers_only_what_it_enumerates(self, sig, aut):
        # the deepest leaf of an 18-variable comb: the first of its
        # 2 ** 17 outer assignments already gives the pair
        text = "x1"
        for i in range(2, 19):
            text = f"f2(x{i},{text})"
        t = parse_term(text, sig)
        assert is_essential_subtree(aut, t, Position((2,) * 17)) is not None
        found = analysis(aut, t)
        assert len(found._rows) == 2
        assert sum(map(len, found._numbers.values())) == 2


class TestReportSearchesOnlyWhereAStateVaries:
    @pytest.fixture()
    def searches(self, monkeypatch):
        """Counts the witness searches made."""
        count = [0]
        real = Analysis.witness

        def counting(self, *args, **kwargs):
            count[0] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Analysis, "witness", counting)
        return count

    @staticmethod
    def varying(aut, t):
        """By node id, whether the node's state differs between two total
        assignments, from ``run`` alone."""
        vs = sorted(variables(t))
        rows = [run(aut, dict(zip(vs, values)), t).states
                for values in product(aut.signature.constants, repeat=len(vs))]
        return [len(set(column)) > 1 for column in zip(*rows)]

    # f1 is a conjunction and f2 a disjunction: f1(x1,0) is q0 under every
    # assignment, and f2(x1,f1(x2,0)) follows x1 while its f1 stays q0
    @pytest.mark.parametrize("text, count", [
        ("f1(x1,0)", 1), ("f2(x1,f1(x2,0))", 3), (SAMPLE_TERM, 16)])
    def test_searches_the_root_then_each_varying_node(self, sig, aut, searches, text, count):
        t = parse_term(text, sig)
        *below, root = self.varying(aut, t)
        report = essential_positions(aut, t)
        assert searches[0] == (1 + sum(below) if root else 1) == count
        assert report.essential_positions == {
            p for p in positions(t) if is_essential_subtree(aut, t, p) is not None}


def test_a_queried_term_is_freed_without_the_cycle_collector(sig, aut):
    # the compiled form and the analysis stay with the term, so neither
    # may refer back to it: the term must go when its last reference does
    gc.disable()
    try:
        t = parse_term(SAMPLE_TERM, sig)
        results = [essential_positions(aut, t), freeze_fictive(aut, t), verify_properties(aut, t),
                   run(aut, {1: "0", 2: "1", 3: "1", 4: "0"}, t), positions(t)]
        dead = weakref.ref(t)
        del t, results
        assert dead() is None
    finally:
        gc.enable()


def test_a_shallow_copy_gets_its_own_analysis(sig, aut):
    # the copy shares the original's attributes, the analysis among them
    t = parse_term(SAMPLE_TERM, sig)
    # the search at 1.1 finds its witness under the first of the four
    # assignments to x3, x4, so rows are still to be made
    is_essential_subtree(aut, t, P("1.1"))
    assert len(analysis(aut, t)._rows) < 2 ** 4
    c = copy.copy(t)
    del t
    assert essential_positions(aut, c).essential_positions == ESSENTIAL


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)),
], ids=["copy", "deepcopy", "pickle"])
def test_a_queried_term_copies_and_pickles_without_its_analysis(sig, aut, duplicate):
    t = parse_term(SAMPLE_TERM, sig)
    report = essential_positions(aut, t)
    c = duplicate(t)
    assert c == t and "_compiled" in c.__dict__ and "_analysis" not in c.__dict__
    assert essential_positions(aut, c) == report


def test_threads_querying_one_term_get_the_single_thread_report(sig, aut):
    # each fresh term is shared by four threads released together, with
    # a tiny switch interval so that they interleave inside the analysis
    text = "x1"
    for v in range(2, 10):
        text = f"f2(g(f1(x{v},{text})),g(x{v}))"
    expected = essential_positions(aut, parse_term(text, sig))
    reports, errors = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            t = parse_term(text, sig)
            barrier = threading.Barrier(4)

            def query():
                barrier.wait()
                try:
                    reports.append(essential_positions(aut, t))
                except Exception as e:
                    errors.append(e)

            threads = [threading.Thread(target=query) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(reports) == 160 and all(r == expected for r in reports)
