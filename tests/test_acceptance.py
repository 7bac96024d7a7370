"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

from fta import (
    EnumerationBudgetExceeded,
    GenParams,
    SplitMix64,
    check_random_instances,
    determining_subtree,
    essential_by_definition,
    essential_positions,
    freeze_fictive,
    ind_positions,
    is_essential_subtree,
    node_count,
    parse_term,
    positions,
    random_automaton,
    random_term,
    replay_failure,
    run,
    runs_equal_all,
    subterm_at,
    verify_properties,
)
from fta.cli import main as cli_main

import pytest

from conftest import P, PS, prefix_closed, state_at

G1 = {1: "0", 2: "0", 3: "0", 4: "1"}
G2 = {1: "0", 2: "0", 3: "1", 4: "1"}
G3 = {1: "0", 2: "1", 3: "1", 4: "0"}
G4 = {1: "1", 2: "1", 3: "1", 4: "0"}


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_position_algebra(term):
    expected = PS(
        "ε", "1", "2", "1.1", "1.1.1", "1.1.2", "2.1", "2.1.1", "2.1.1.1",
        "2.1.1.2", "2.1.1.2.1", "2.1.1.2.2", "2.2", "2.2.1", "2.2.1.1", "2.2.1.2",
    )
    assert positions(term) == expected
    assert len(positions(term)) == 16
    assert ind_positions(term, P("2")) == PS("1", "1.1", "1.1.1", "1.1.2")

    elapsed = _best_of(lambda: (positions(term), ind_positions(term, P("2"))))
    assert elapsed < 0.001
    print(f"\nACCEPTANCE 1 position algebra reproduction: PASS ({elapsed * 1e6:.0f} us)")


def test_criterion_2_run_table(aut, term):
    for pos_text, state in [("1.1", "q0"), ("2.2.1", "q0"), ("1", "q1"),
                            ("2.2", "q1"), ("2.1.1.2", "q0"), ("2.1.1", "q0"),
                            ("2.1", "q1"), ("2", "q1"), ("ε", "q1")]:
        assert state_at(aut, G1, term, P(pos_text)) == state
    for pos_text, state in [("2.1.1.2", "q1"), ("2.1.1", "q1"), ("2.1", "q0"),
                            ("2", "q1"), ("ε", "q1")]:
        assert state_at(aut, G2, term, P(pos_text)) == state
    assert run(aut, G3, term).result == "q1"
    assert run(aut, G4, term).result == "q0"

    elapsed = _best_of(lambda: (run(aut, G1, term), run(aut, G2, term),
                                run(aut, G3, term), run(aut, G4, term)))
    assert elapsed < 0.001
    print(f"\nACCEPTANCE 2 run-table reproduction: PASS ({elapsed * 1e6:.0f} us)")


def test_criterion_3_essentiality_verdicts(aut, term):
    start = time.perf_counter()
    witness = is_essential_subtree(aut, term, P("1.1"))
    fictive = is_essential_subtree(aut, term, P("2.1"))
    report = essential_positions(aut, term)
    det = determining_subtree(aut, term)
    equal = runs_equal_all(aut, term, subterm_at(term, P("1")))
    elapsed = time.perf_counter() - start

    assert witness is not None and witness.verify(aut, term)
    assert fictive is None
    assert prefix_closed(report.essential_positions)
    assert det == P("1")
    assert equal
    assert elapsed < 0.050
    print(f"\nACCEPTANCE 3 essentiality verdicts: PASS ({elapsed * 1e3:.1f} ms)")


def test_criterion_4_property_suite_500_instances(sig, aut):
    start = time.perf_counter()
    report = check_random_instances(seed=20240501, count=500)
    elapsed = time.perf_counter() - start

    assert report.total_failures == 0
    for outcome in report.outcomes.values():
        assert outcome.instances_checked == 500
    assert elapsed < 300.0

    # failure artifacts replay byte-identically (forced via a term with
    # repeated variables, where prefix closure genuinely fails)
    forced = verify_properties(aut, parse_term("f2(f1(x1,g(x1)),x1)", sig))
    failure = forced.outcomes["essential-prefix-closed"].failures[0]
    blob = failure.to_json()
    replayed = replay_failure(blob).outcomes["essential-prefix-closed"].failures[0]
    assert replayed.to_json() == blob
    print(f"\nACCEPTANCE 4 property suite, 500 seeded instances: PASS ({elapsed:.1f} s)")


def test_criterion_5_oracle_equivalence():
    rng = SplitMix64(77)
    discrepancies = 0
    checked = 0
    for _ in range(100):
        states = 1 + rng.below(3)
        t = random_term(GenParams(seed=rng.next_u64(), var_pool=3, state_count=states))
        aut = random_automaton(GenParams(seed=rng.next_u64(), state_count=states))
        oracle = essential_by_definition(aut, t)
        for p in positions(t):
            fast = is_essential_subtree(aut, t, p) is not None
            slow = p in oracle
            checked += 1
            if fast != slow:
                discrepancies += 1
    assert discrepancies == 0
    print(f"\nACCEPTANCE 5 oracle equivalence, 100 instances"
          f" ({checked} positions): PASS")


def test_criterion_6_pruning_soundness(aut, term):
    rng = SplitMix64(9000)
    violations = 0
    for _ in range(200):
        states = 1 + rng.below(3)
        t = random_term(GenParams(seed=rng.next_u64(), state_count=states))
        a = random_automaton(GenParams(seed=rng.next_u64(), state_count=states))
        report = freeze_fictive(a, t)
        if not runs_equal_all(a, t, report.reduced_term):
            violations += 1
        assert report.original_nodes == node_count(t)
        assert 1 <= report.reduced_nodes == node_count(report.reduced_term) <= node_count(t)
    assert violations == 0

    sample = freeze_fictive(aut, term)
    assert (sample.original_nodes, sample.reduced_nodes) == (16, 4)
    assert node_count(sample.reduced_term) == 4
    print("\nACCEPTANCE 6 pruning soundness, 200 instances + exact 75% sample: PASS")


def test_criterion_7_budget_behavior(sig, aut, tmp_path):
    text = "x1"
    for i in range(2, 26):
        text = f"f1(x{i},{text})"
    t = parse_term(text, sig)
    with pytest.raises(EnumerationBudgetExceeded):
        essential_positions(aut, t)

    from conftest import SAMPLE_AUTOMATON
    path = tmp_path / "boolean.fta"
    path.write_text(SAMPLE_AUTOMATON, encoding="utf-8")
    assert cli_main(["essential", str(path), "-t", text]) == 3
    print("\nACCEPTANCE 7 budget behavior (25 variables, exit 3): PASS")
