import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from fta import (
    Automaton,
    AutomatonSyntaxError,
    FtaError,
    InvalidPositionError,
    Node,
    Position,
    StateLeaf,
    UnboundVariableError,
    UnknownSymbolError,
    Signature,
    ValidationError,
    Var,
    canonical_ground,
    enumerate_assignments,
    EnumerationBudgetExceeded,
    freeze_fictive,
    parse_assignment,
    parse_automaton,
    partial_run,
    render_assignment,
    render_automaton,
    parse_term,
    render_term,
    run,
    subterm_at,
)

from fta.automaton import compile_automaton

from conftest import P, SAMPLE_AUTOMATON, state_at

G1 = {1: "0", 2: "0", 3: "0", 4: "1"}
G2 = {1: "0", 2: "0", 3: "1", 4: "1"}
G3 = {1: "0", 2: "1", 3: "1", 4: "0"}
G4 = {1: "1", 2: "1", 3: "1", 4: "0"}


class TestParsing:
    def test_sample_file(self, sig, aut):
        assert aut.states == ("q0", "q1")
        assert aut.final == {"q1"}
        assert len(aut.rules) == 12
        assert Automaton(sig, aut.states, aut.final, aut.rules) == aut

    def test_missing_rule_is_incomplete(self):
        text = SAMPLE_AUTOMATON.replace("rule: f1(q1,q0) -> q0\n", "")
        with pytest.raises(ValidationError) as exc:
            parse_automaton(text)
        assert "missing: f1(q1,q0)" in exc.value.defects

    def test_conflicting_duplicate_is_nondeterministic(self):
        text = SAMPLE_AUTOMATON + "rule: g(q0) -> q0\n"
        with pytest.raises(ValidationError) as exc:
            parse_automaton(text)
        assert any(d.startswith("nondeterministic: g(q0)") for d in exc.value.defects)

    def test_unknown_state_in_rule(self):
        text = SAMPLE_AUTOMATON + "rule: g(q7) -> q0\n"
        with pytest.raises(ValidationError) as exc:
            parse_automaton(text)
        assert any("unknown state" in d for d in exc.value.defects)

    def test_round_trip(self, sig, aut):
        sig2, aut2 = parse_automaton(render_automaton(aut))
        assert sig2 == sig
        assert aut2.rules == aut.rules
        assert aut2.final == aut.final

    def test_a_state_declared_twice_is_refused(self, aut):
        with pytest.raises(ValidationError) as exc:
            Automaton(aut.signature, ("q0", "q0", "q1"), aut.final, aut.rules)
        assert exc.value.defects == ["duplicate state declarations"]

    @pytest.mark.parametrize("arity", ["²", "-1", "a", ""])
    def test_arity_must_be_decimal_digits(self, arity):
        with pytest.raises(AutomatonSyntaxError, match=f"bad symbol declaration 'g/{arity}'"):
            parse_automaton(f"signature: 0/0 g/{arity}\nstates: q\nfinal: q\nrule: 0 -> q\n")

    def test_comments_ignored(self):
        text = "# header\n" + SAMPLE_AUTOMATON.replace(
            "final: q1", "final: q1  # accepting")
        _, aut = parse_automaton(text)
        assert aut.final == {"q1"}


HEADER = "signature: 0/0 g/1\nstates: q0 q1\nfinal: q1\n"


class TestInputErrors:
    """Every input error of the readers, by its exact message."""

    @pytest.mark.parametrize("text, message", [
        (HEADER + "rule 0 -> q0\n", "line 4: expected 'key: value'"),
        (HEADER + "signature: 0/0\n", "line 4: duplicate signature line"),
        (HEADER + "states: q0\n", "line 4: duplicate states line"),
        (HEADER + "final: q0\n", "line 4: duplicate final line"),
        ("signature: 0/0\nstates: q-0\nfinal:\n", "line 2: bad state name 'q-0'"),
        (HEADER + "rule: 0 q0\n", "line 4: rule needs '->'"),
        (HEADER + "rule: (q0) -> q1\n", "line 4: bad rule left-hand side '(q0)'"),
        (HEADER + "rule: 0 -> q0 q1\n", "line 4: bad rule target 'q0 q1'"),
        (HEADER + "rule: 0 ->\n", "line 4: bad rule target ''"),
        (HEADER + "bogus: 1\n", "line 4: unknown directive 'bogus'"),
        ("states: q0\nfinal: q0\n", "missing 'signature:' line"),
        ("signature: 0/0\nfinal: q0\n", "missing 'states:' line"),
        ("signature: 0/0\nstates: q0\n", "missing 'final:' line"),
        ("signature: 0/0 g-/1\nstates: q0\nfinal: q0\n", "bad symbol name 'g-'"),
        ("signature: 0/0 x1/1\nstates: q0\nfinal: q0\n",
         "symbol name 'x1' collides with the variable namespace"),
        ("signature: 0/0 0/0\nstates: q0\nfinal: q0\n", "duplicate symbol '0'"),
        ("signature: g/1\nstates: q0\nfinal: q0\n", "signature needs at least one nullary symbol"),
    ])
    def test_automaton_file(self, text, message):
        with pytest.raises(AutomatonSyntaxError) as exc:
            parse_automaton(text)
        assert str(exc.value) == message

    def test_assignment(self, sig):
        assert parse_assignment("x1=0,", sig) == {1: "0"}
        with pytest.raises(UnknownSymbolError) as exc:
            parse_assignment("x1", sig)
        assert str(exc.value) == "bad assignment binding 'x1'"

    def test_value_constructors(self):
        with pytest.raises(ValueError) as exc:
            Signature([("0", 0), ("g", -1)])
        assert str(exc.value) == "negative arity for 'g'"
        with pytest.raises(InvalidPositionError) as exc:
            Position((0,))
        assert str(exc.value) == "child indices must be positive: (0,)"
        assert (Node("0") == Var(1)) is False


def defects(*args) -> list[str]:
    """The defects the :class:`Automaton` constructor refuses ``args`` with."""
    with pytest.raises(ValidationError) as exc:
        Automaton(*args)
    return exc.value.defects


class TestConstructorChecks:
    def test_final_outside_states(self, sig, aut):
        assert "final state not in Q: q2" in defects(sig, aut.states, frozenset({"q2"}), aut.rules)

    def test_missing_constant_rule(self, sig, aut):
        rules = dict(aut.rules)
        del rules[("1", ())]
        assert defects(sig, aut.states, aut.final, rules) == ["missing: 1"]

    def test_symbol_with_too_many_tuples_to_list_gets_a_count(self):
        # 2^21 argument tuples exceed DEFAULT_BUDGET; a rule over an
        # undeclared state fills none of them
        sig = Signature([("0", 0), ("h", 21)])
        bad_args = ("q0",) * 20 + ("q9",)
        rules = {("0", ()): "q0", ("h", ("q0",) * 21): "q1", ("h", bad_args): "q0"}
        assert defects(sig, ("q0", "q1"), frozenset({"q1"}), rules) == [
            f"unknown state in rule: h({','.join(bad_args)}) -> q0",
            "missing: all but 1 of the 2^21 rules for h",
        ]

    def test_one_state_and_a_higher_arity_than_the_budget_gets_a_count(self):
        # the one missing tuple would be 2^20 + 1 states long
        sig = Signature([("0", 0), ("h", 2 ** 20 + 1)])
        assert defects(sig, ("q0",), frozenset({"q0"}), {("0", ()): "q0"}) == [
            "missing: all but 0 of the 1^1048577 rules for h"]

    def test_rule_pairs_in_order_keep_a_repeated_key(self, sig, aut):
        pairs = [*aut.rules.items(), (("g", ("q0",)), "q0")]
        assert defects(sig, aut.states, aut.final, pairs) == ["nondeterministic: g(q0) -> q1 / q0"]
        assert Automaton(sig, aut.states, aut.final, list(aut.rules.items())) == aut


class TestRun:
    @pytest.mark.parametrize("gamma,expected", [
        (G1, {"1.1": "q0", "2.2.1": "q0", "1": "q1", "2.2": "q1",
              "2.1.1.2": "q0", "2.1.1": "q0", "2.1": "q1", "2": "q1", "ε": "q1"}),
        (G2, {"2.1.1.2": "q1", "2.1.1": "q1", "2.1": "q0", "2": "q1", "ε": "q1"}),
        (G3, {"ε": "q1"}),
        (G4, {"ε": "q0"}),
    ])
    def test_published_state_table(self, aut, term, gamma, expected):
        for pos_text, state in expected.items():
            assert state_at(aut, gamma, term, P(pos_text)) == state
        assert run(aut, gamma, term).result == expected["ε"]

    def test_deterministic(self, aut, term):
        assert run(aut, G1, term) == run(aut, G1, term)

    def test_trace_is_a_value(self, sig, aut, term):
        trace = run(aut, G1, term)
        assert trace != run(aut, G2, term)
        assert trace != run(aut, G1, parse_term("g(x1)", sig))
        assert trace != (trace.result, trace.states)
        again = run(aut, G1, term)
        assert trace == again and hash(trace) == hash(again)
        assert len({trace, again, run(aut, G2, term)}) == 2
        names = compile_automaton(aut).names
        assert repr(trace) == f"RunTrace(result='q1', ids={trace.ids!r}, _names={names!r})"
        for attr in ("result", "ids", "_names", "states", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(trace, attr, None)
            with pytest.raises(FrozenInstanceError):
                delattr(trace, attr)
        # the same state names, declared in another order, give other ids
        other = run(Automaton(sig, aut.states[::-1], aut.final, aut.rules), G1, term)
        assert (other.result, other.states) == (trace.result, trace.states) and other != trace

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda trace: pickle.loads(pickle.dumps(trace)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_trace_copies_and_pickles_after_it_is_read(self, aut, term, duplicate):
        trace = run(aut, G1, term)
        assert trace.states[0] == "q0"
        copied = duplicate(trace)
        assert copied == trace and copied.states == trace.states

    def test_names_made_only_when_read(self, aut, term):
        trace = run(aut, G1, term)
        names = compile_automaton(aut).names
        assert trace.result == names[trace.ids[-1]] == "q1"
        assert "states" not in trace.__dict__  # reading the result and ids named no node
        assert trace.states == tuple(names[i] for i in trace.ids)
        assert trace.states is trace.states  # made once

    def test_compositional(self, sig, aut, term):
        trace = run(aut, G1, term)
        left = run(aut, G1, subterm_at(term, P("1"))).result
        right = run(aut, G1, subterm_at(term, P("2"))).result
        assert trace.result == aut.rules[("f1", (left, right))]

    def test_locality_extra_bindings_ignored(self, aut, term):
        extended = G3 | {9: "1"}
        assert run(aut, extended, term) == run(aut, G3, term)

    def test_unbound_variable(self, aut, term):
        with pytest.raises(UnboundVariableError):
            run(aut, {1: "0", 2: "0", 3: "0"}, term)

    def test_bad_assignment_value(self, aut, term):
        with pytest.raises(UnknownSymbolError):
            run(aut, G1 | {4: "g"}, term)

    def test_state_leaf_input(self, sig, aut):
        t = parse_term("f1(@q1,1)", sig, allow_state_leaves=True)
        assert run(aut, {}, t).result == "q1"
        bad = parse_term("g(@q9)", sig, allow_state_leaves=True)
        with pytest.raises(FtaError):
            run(aut, {}, bad)


class TestTermsTheAutomatonHasNoRuleFor:
    """The errors a complete automaton still meets: symbols, arities
    and state leaves that the term has and the automaton does not."""

    def test_symbol_outside_the_signature(self, sig, aut):
        t = parse_term("f1(h(x1),0)", Signature([*sig.symbols, ("h", 1)]))
        for evaluate in (run, partial_run):
            with pytest.raises(FtaError, match=r"^no transition for h\(q0\)$"):
                evaluate(aut, {1: "0"}, t)

    def test_wrong_arity(self, aut):
        with pytest.raises(FtaError, match=r"^no transition for g\(q0,q1\)$"):
            run(aut, {}, Node("g", (Node("0"), Node("1"))))

    def test_state_leaf_outside_the_states(self, sig, aut):
        t = parse_term("g(@zz)", sig, allow_state_leaves=True)
        with pytest.raises(FtaError, match=r"^@zz is not a state of the automaton$"):
            run(aut, {}, t)
        with pytest.raises(FtaError, match=r"^no transition for g\(zz\)$"):
            partial_run(aut, {}, t)


class TestPartialRun:
    def test_total_assignment_collapses_fully(self, aut, term):
        out = partial_run(aut, G3, term)
        assert out == StateLeaf("q1")
        assert render_term(out) == "@q1"

    def test_unbound_variable_blocks(self, sig, aut):
        t = parse_term("f1(x1,0)", sig)
        out = partial_run(aut, {}, t)
        assert out == parse_term("f1(x1,@q0)", sig, allow_state_leaves=True)

    def test_bound_variable_beside_unbound(self, sig, aut):
        out = partial_run(aut, {2: "1"}, parse_term("f1(x1,x2)", sig))
        assert render_term(out) == "f1(x1,@q1)"

    def test_subterm_fully_bound(self, aut, term):
        sub = subterm_at(term, P("2.1"))
        assert partial_run(aut, {3: "0", 4: "1"}, sub) == StateLeaf("q1")

    def test_matches_run_on_total(self, aut, term):
        assert partial_run(aut, G1, term) == StateLeaf(run(aut, G1, term).result)


class TestEnumerateAssignments:
    def test_single_variable(self, sig):
        assert list(enumerate_assignments({1}, sig)) == [{1: "0"}, {1: "1"}]

    def test_empty_set_has_one_assignment(self, sig):
        assert list(enumerate_assignments(set(), sig)) == [{}]

    def test_four_variables_sixteen_assignments(self, sig):
        got = list(enumerate_assignments({1, 2, 3, 4}, sig))
        assert len(got) == 16
        assert len({tuple(sorted(g.items())) for g in got}) == 16
        assert got[0] == {1: "0", 2: "0", 3: "0", 4: "0"}
        # odometer: the highest index cycles fastest
        assert got[1] == {1: "0", 2: "0", 3: "0", 4: "1"}

    def test_budget_checked_up_front(self, sig):
        gen = enumerate_assignments(set(range(1, 26)), sig, budget=2 ** 20)
        with pytest.raises(EnumerationBudgetExceeded):
            next(gen)


class TestAssignmentText:
    def test_parse_and_render(self, sig):
        gamma = parse_assignment("x2=1, x1=0", sig)
        assert gamma == {1: "0", 2: "1"}
        assert render_assignment(gamma) == "x1=0 x2=1"
        assert render_assignment({}) == "(empty)"

    def test_rejects_non_nullary_value(self, sig):
        with pytest.raises(UnknownSymbolError):
            parse_assignment("x1=g", sig)

    def test_rejects_bad_variable(self, sig):
        with pytest.raises(UnknownSymbolError):
            parse_assignment("y1=0", sig)

    @pytest.mark.parametrize("text", ["x1=0,x1=1", "x1=0 x2=1 x1=0"])
    def test_rejects_variable_bound_twice(self, sig, text):
        with pytest.raises(UnknownSymbolError, match="^x1 is bound twice$"):
            parse_assignment(text, sig)


def one_state_with_h40(sig) -> Automaton:
    """The complete one-state automaton over ``sig`` and ``h/40``."""
    wide_sig = Signature([*sig.symbols, ("h", 40)])
    return Automaton(wide_sig, ("q0",), frozenset({"q0"}),
                     {(symbol, ("q0",) * arity): "q0" for symbol, arity in wide_sig.symbols})


class TestCanonicalGround:
    def test_sample(self, aut):
        reps = canonical_ground(aut)
        assert {q: render_term(t) for q, t in reps.items()} == {"q0": "0", "q1": "1"}

    def test_every_constant_state_present(self, sig, aut):
        reps = canonical_ground(aut)
        for c in sig.constants:
            assert aut.rules[(c, ())] in reps

    def test_unreachable_state_absent(self, sig):
        rules = {}
        for symbol, arity in sig.symbols:
            if arity == 0:
                rules[(symbol, ())] = "q0"
        for symbol, arity in sig.symbols:
            if arity > 0:
                from itertools import product
                for combo in product(("q0", "q1"), repeat=arity):
                    rules[(symbol, combo)] = "q0"
        sink = Automaton(sig, ("q0", "q1"), frozenset({"q0"}), rules)
        reps = canonical_ground(sink)
        assert "q1" not in reps and "q0" in reps

    def test_representatives_evaluate_to_their_state(self, aut):
        for state, rep in canonical_ground(aut).items():
            assert run(aut, {}, rep).result == state

    def test_symbol_of_high_arity_is_counted_not_searched_for(self, sig, aut):
        # the argument tuples of h over two states number 2**40
        wide_sig = Signature([*sig.symbols, ("h", 40)])
        rules = dict(aut.rules) | {("h", ("q1",) * 40): "q0"}
        assert defects(wide_sig, aut.states, aut.final, rules) == [
            "missing: all but 1 of the 2^40 rules for h"]

    def test_one_state_with_a_symbol_of_high_arity(self, sig):
        one = one_state_with_h40(sig)
        wide_sig = one.signature
        assert {q: render_term(t) for q, t in canonical_ground(one).items()} == {"q0": "0"}
        report = freeze_fictive(one, parse_term(f"f2(x2,h({','.join(['x1'] * 40)}))", wide_sig))
        assert render_term(report.reduced_term) == "0"
        assert f"rule: h({','.join(['q0'] * 40)}) -> q0" in render_automaton(one)
        assert parse_automaton(render_automaton(one)) == (wide_sig, one)


class TestCompiledAutomaton:
    def test_state_ids_in_declaration_order(self, aut):
        compiled = compile_automaton(aut)
        assert compiled.names == ("q0", "q1")
        assert compile_automaton(aut) is compiled
        # f1(q1,q1) -> q1 and f1(q0,q1) -> q0, with the constants' states first
        assert run(aut, {}, Node("f1", (Node("1"), Node("1")))).ids == (1, 1, 1)
        assert run(aut, {}, Node("f1", (Node("0"), Node("1")))).ids == (0, 1, 0)

    def test_rule_of_high_arity_gets_a_sparse_table(self, sig):
        # the argument ids of h(q0,...,q0) have index 40 in base 1
        one = one_state_with_h40(sig)
        assert compile_automaton(one).tables["h"] == {40: 0}
        assert run(one, {}, Node("h", (Node("1"),) * 40)).result == "q0"
        with pytest.raises(FtaError, match=r"^no transition for h\(q0,q0,"):
            run(one, {}, Node("h", (Node("0"),) * 39))
