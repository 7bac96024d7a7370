import json
import sys
import time
from dataclasses import replace

import pytest

from fta import (
    PROPERTY_NAMES,
    EnumerationBudgetExceeded,
    GenParams,
    check_random_instances,
    essential_by_definition,
    is_essential_subtree,
    parse_term,
    positions,
    random_term,
    replay_failure,
    verify_properties,
)

import fta.verify
from fta.terms import PositionSet, compile_term
from conftest import P, SAMPLE_TERM


class TestSuiteOnSample:
    def test_all_properties_pass(self, aut, term):
        report = verify_properties(aut, term)
        assert tuple(report.outcomes) == PROPERTY_NAMES
        assert report.total_failures == 0
        assert report.total_budget_exceeded == 0
        for outcome in report.outcomes.values():
            assert outcome.instances_checked == 1

    def test_ground_term_vacuous(self, sig, aut):
        report = verify_properties(aut, parse_term("f2(0,1)", sig))
        assert report.total_failures == 0


class TestOracle:
    def test_matches_search_on_sample(self, aut, term):
        oracle = essential_by_definition(aut, term)
        for p in positions(term):
            fast = is_essential_subtree(aut, term, p) is not None
            assert (p in oracle) == fast

    def test_known_verdicts(self, aut, term):
        oracle = essential_by_definition(aut, term)
        assert P("1.1") in oracle
        assert P("2.1") not in oracle

    def test_budget_counts_pairs_of_total_assignments(self, aut, term):
        # four variables over two constants: 16 assignments, 256 pairs
        assert essential_by_definition(aut, term, budget=256)
        with pytest.raises(EnumerationBudgetExceeded) as info:
            essential_by_definition(aut, term, budget=255)
        assert (info.value.required, info.value.cap) == (256, 255)


class TestRandomBatch:
    def test_zero_failures(self):
        report = check_random_instances(seed=3, count=40)
        assert report.total_failures == 0
        for outcome in report.outcomes.values():
            assert outcome.instances_checked == 40

    def test_deterministic(self):
        a = check_random_instances(seed=12, count=10)
        b = check_random_instances(seed=12, count=10)
        assert [o.instances_checked for o in a.outcomes.values()] == \
            [o.instances_checked for o in b.outcomes.values()]
        assert a.total_failures == b.total_failures == 0

    def test_count_zero_is_empty(self):
        report = check_random_instances(seed=1, count=0)
        assert report.total_failures == 0
        assert all(o.instances_checked == 0 for o in report.outcomes.values())


class TestRepeatedVariables:
    """A variable occurring at several independent positions couples
    subtrees that are positionally independent; prefix-closure of the
    essential set then has genuine counterexamples, which the suite must
    surface as reproducible findings (not crash, not hide)."""

    TERM = "f2(f1(x1,g(x1)),x1)"

    def test_counterexample_is_reported(self, sig, aut):
        t = parse_term(self.TERM, sig)
        report = verify_properties(aut, t)
        names_failing = {n for n, o in report.outcomes.items() if o.failures}
        assert "essential-prefix-closed" in names_failing
        # pruning and the oracle stay correct regardless
        assert not report.outcomes["oracle-agreement"].failures
        assert not report.outcomes["prune-soundness"].failures
        assert not report.outcomes["ind-prefix-determined"].failures

    def test_failures_replay_identically(self, sig, aut):
        t = parse_term(self.TERM, sig)
        report = verify_properties(aut, t)
        failure = report.outcomes["essential-prefix-closed"].failures[0]
        blob = failure.to_json()
        replayed = replay_failure(blob)
        again = replayed.outcomes["essential-prefix-closed"].failures[0]
        assert again.detail == failure.detail
        assert again.to_json() == blob
        # artifacts serialize deterministically
        assert json.loads(blob)["term"] == self.TERM


class TestBudgetHandling:
    def test_budget_recorded_not_fatal(self, sig, aut):
        text = "x1"
        for i in range(2, 26):
            text = f"f1(x{i},{text})"
        t = parse_term(text, sig)
        report = verify_properties(aut, t)
        assert report.total_failures == 0
        assert {name: o.budget_exceeded for name, o in report.outcomes.items()} == {
            name: int(name != "ind-prefix-determined") for name in PROPERTY_NAMES
        }


class TestPruneSoundness:
    """p7 re-checks the reduction it is given, so a wrong one is reported."""

    @staticmethod
    def tamper(monkeypatch, **changes):
        made = fta.verify.freeze_fictive
        monkeypatch.setattr(fta.verify, "freeze_fictive",
                            lambda *args, **kwargs: replace(made(*args, **kwargs), **changes))

    def details(self, aut, term):
        return [f.detail for f in verify_properties(aut, term).outcomes["prune-soundness"].failures]

    def test_a_changed_run_result(self, monkeypatch, sig, aut, term):
        # not(x1 or x2), of 4 nodes like the reduction's not(x1 and x2)
        self.tamper(monkeypatch, reduced_term=parse_term("g(f2(x1,x2))", sig))
        assert self.details(aut, term) == ["pruning to g(f2(x1,x2)) changed a run result"]

    @pytest.mark.parametrize("counts", [(16, 5), (15, 4), (3, 4)])
    def test_inconsistent_node_accounting(self, monkeypatch, aut, term, counts):
        self.tamper(monkeypatch, original_nodes=counts[0], reduced_nodes=counts[1])
        assert self.details(aut, term) == [
            f"inconsistent node accounting: {counts[0]} -> {counts[1]}"]


def test_p2_reports_each_child_outside_its_parents_id_range(sig, aut):
    # p2 cannot fail on a compiled form that parse_term made, so break
    # one: 2.2 (ids 10..13) shrinks to its own id and 2.1.1 (ids 4..8)
    # to 5..8, so 2.2.1 and 2.1.1.1 fall outside their parents' ranges;
    # each broken edge is reported once, parents in breadth-first order
    t = parse_term(SAMPLE_TERM, sig)  # not the shared term: its analysis would keep the break
    term = compile_term(t)
    sizes = list(term.sizes)
    sizes[term.node_at(P("2.2"))] = 1
    sizes[term.node_at(P("2.1.1"))] = 4
    term.sizes = tuple(sizes)
    failures = verify_properties(aut, t).outcomes["ind-prefix-determined"].failures
    assert [f.detail for f in failures] == [
        "subtree ids of 2.2.1 not inside those of its parent 2.2",
        "subtree ids of 2.1.1.1 not inside those of its parent 2.1.1"]


def test_p6_reports_each_disagreement_in_position_order(monkeypatch, sig, aut):
    # the oracle cannot disagree with the search, so make it: it calls
    # every position but the root essential
    t = parse_term(SAMPLE_TERM, sig)
    everywhere_but_root = PositionSet(p for p in positions(t) if p.indices)
    monkeypatch.setattr(fta.verify, "essential_by_definition",
                        lambda aut, t, budget: everywhere_but_root)
    failures = verify_properties(aut, t).outcomes["oracle-agreement"].failures
    assert [f.detail for f in failures] == [
        "essentiality of ε: search says True, enumeration says False",
        *(f"essentiality of {p}: search says False, enumeration says True"
          for p in ("2.1", "2.1.1", "2.1.1.1", "2.1.1.2", "2.1.1.2.1", "2.1.1.2.2"))]


def test_a_deep_chain_verifies_in_bounded_time(sig, aut):
    # p2 checks each (parent, child) edge once and p5 reads ancestors
    # from node ids: a 400-level chain takes about half a second on one
    # core, and the largest of seed 42's hundred draws at depth 32 (4783
    # nodes) a tenth of that.  An independence test per pair of nodes
    # would take seconds on the draw, and time cubic in depth several
    # on the chain.  A line tracer (tools/linecov.py) slows them about
    # sixfold.
    chain = parse_term("g(" * 400 + "x1" + ")" * 400, sig)
    drawn = random_term(GenParams(max_depth=32, state_count=3, seed=3603187163996649229))
    for t in (chain, drawn):
        start = time.perf_counter()
        report = verify_properties(aut, t)
        assert time.perf_counter() - start < (4.0 if sys.gettrace() is None else 30.0)
        assert report.total_failures == report.total_budget_exceeded == 0
