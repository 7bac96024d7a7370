"""Self-tests of the benchmark: input determinism, the reference checker
and the tracer.  Run with ``python3 -m pytest perfbench``."""

import copy
import json
import sys

import pytest

import run as bench
from reference import Tree, check_answer, evaluate, parse, render
from tracer import Tracer
from workloads import (WORKLOADS, automaton_text, boolean_automaton, chain_term,
                       prepare)

cli = bench.load_fta()

import fta  # noqa: E402  (loaded from the checkout by load_fta)

TERM = "f1(g(f1(x1,x2)),f2(g(f1(x3,f1(x4,x3))),g(f1(x2,x1))))"


@pytest.fixture()
def aut_file(tmp_path):
    path = tmp_path / "boolean.fta"
    path.write_text(automaton_text(boolean_automaton()), encoding="utf-8")
    return str(path)


def answer(argv):
    code, out = bench.call(cli, argv)
    return code, json.loads(out)


def check(kind, payload, code=0, arg=None):
    return check_answer(kind, boolean_automaton(), Tree(parse(TERM)), arg, code,
                        json.dumps(payload))


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    a = prepare(name, 11, 0.2, tmp_path / "a")
    b = prepare(name, 11, 0.2, tmp_path / "b")
    a.write_files()
    b.write_files()
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for fname in files_a:
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
    assert a.digest == b.digest
    assert prepare(name, 12, 0.2, tmp_path / "c").digest != a.digest


@pytest.mark.parametrize("name", WORKLOADS)
def test_real_answers_pass_the_checker(tmp_path, name):
    workload = prepare(name, 3, 0.2, tmp_path)
    workload.write_files()
    ops = workload.ops[:12]
    results = [(i, *bench.call(cli, op.argv)) for i, op in enumerate(ops)]
    assert bench.check_results(workload, results) == (0, [])


def test_suite_matches_verify_random():
    """The suite draws the instances ``fta verify --random`` checks."""
    from workloads import gen_suite

    seen = []
    original = fta.verify.verify_properties

    def spy(aut, t, **kwargs):
        seen.append((fta.render_automaton(aut), fta.render_term(t)))
        return original(aut, t, **kwargs)

    fta.verify.verify_properties = spy
    try:
        fta.check_random_instances(seed=5, count=6)
    finally:
        fta.verify.verify_properties = original
    drawn = [(a_text, t_text) for _, _, a_text, t_text, _, _ in gen_suite(5, 6)]
    assert sorted(seen) == sorted(drawn)


def test_timed_loop_scales_by_calibration(tmp_path):
    class HalfSpeed(bench.Speed):
        def measure(self):
            return 2 * bench.CAL_REF_S

    workload = prepare("big", 3, 0.2, tmp_path)
    workload.write_files()
    results, latencies, busy = bench.timed_loop(cli, workload.ops, HalfSpeed(), count=5)
    assert [idx for idx, _, _ in results] == [0, 1, 2, 3, 4]
    assert sum(latencies) == pytest.approx(busy / 2)


def test_deep_chain_probe_passes_shallow_chains(tmp_path):
    assert bench.deep_chain_probe(cli, tmp_path, (5, 50)) == [(5, None), (50, None)]


def test_reference_handles_deep_terms():
    text = render(chain_term(5001))  # g^5001(f1(x1,f2(x2,0))): an odd number of negations
    assert render(parse(text)) == text
    tree = Tree(parse(text))
    assert evaluate(boolean_automaton(), tree, {1: "0", 2: "1"})[tree.root] == "q1"


# ---------------------------------------------------------------------------
# the checker rejects planted wrong answers


def test_flipped_position_verdicts_are_rejected(aut_file):
    code, ess = answer(["essential", aut_file, "-t", TERM, "--position", "1.1", "--json"])
    assert code == 0 and check("essential_at", ess, 0, "1.1") is None
    flipped = dict(ess, verdict="fictive", witnesses=None)
    assert "essential" in check("essential_at", flipped, 1, "1.1")

    code, fict = answer(["essential", aut_file, "-t", TERM, "--position", "2.1", "--json"])
    assert code == 1 and check("essential_at", fict, 1, "2.1") is None
    w = dict(ess["witnesses"][0], position="2.1")
    assert check("essential_at", dict(fict, verdict="essential", witnesses=[w]), 0, "2.1")


def test_flipped_report_verdict_is_rejected(aut_file):
    code, rep = answer(["essential", aut_file, "-t", TERM, "--json"])
    assert code == 0 and check("essential", rep) is None
    bad = copy.deepcopy(rep)
    bad["positions"]["essential"].remove("1.1")
    bad["positions"]["fictive"].append("1.1")
    bad["witnesses"] = [w for w in bad["witnesses"] if w["position"] != "1.1"]
    assert "reported fictive but is essential" in check("essential", bad)


@pytest.mark.parametrize("corrupt", [
    lambda w: w["gamma2"].update(x3="1" if w["gamma2"]["x3"] == "0" else "0"),
    lambda w: w.update(sub_states=w["sub_states"][::-1]),
    lambda w: w.update(gamma2=dict(w["gamma1"])),
])
def test_corrupted_witness_is_rejected(aut_file, corrupt):
    code, ess = answer(["essential", aut_file, "-t", TERM, "--position", "1.1", "--json"])
    bad = copy.deepcopy(ess)
    corrupt(bad["witnesses"][0])
    assert check("essential_at", bad, 0, "1.1") is not None


def test_unsound_reduction_is_rejected(aut_file):
    code, rep = answer(["prune", aut_file, "-t", TERM, "--json"])
    assert code == 0 and check("prune", rep) is None
    assert rep["report"]["reduced_term"] == "g(f1(x1,x2))"
    bad = copy.deepcopy(rep)
    bad["report"]["reduced_term"] = "g(f2(x1,x2))"
    assert "changes a run result" in check("prune", bad)
    bad["report"]["reduced_term"] = "f1(x1,x2)"
    assert "node accounting" in check("prune", bad)


def test_wrong_runs_and_suite_failures_are_rejected(aut_file):
    gamma = {1: "0", 2: "1", 3: "1", 4: "0"}
    code, r = answer(["run", aut_file, "-t", TERM, "--assign", "x1=0,x2=1,x3=1,x4=0",
                      "--trace", "--json"])
    assert check("run", r, arg=gamma) is None
    assert check("run", dict(r, verdict="q0"), arg=gamma)
    assert check("run", dict(r, report=dict(r["report"], **{"2.1": "q9"})), arg=gamma)
    code, p = answer(["run", aut_file, "-t", TERM, "--assign", "x3=0,x4=1", "--json"])
    assert check("partial", p, arg={3: "0", 4: "1"}) is None
    assert check("partial", p, arg={3: "1", 4: "1"})
    code, v = answer(["verify", aut_file, "-t", TERM, "--json"])
    assert check("verify", v) is None
    assert check("verify", dict(v, verdict="fail"))
    assert check("verify", v, code=1)


# ---------------------------------------------------------------------------
# tracer


def test_tracer_counts_equal_plain_call_counts(aut_file):
    """Span counts match a sys.setprofile count of the original functions."""
    targets = {fta.automaton.run.__code__: "automaton.run",
               fta.terms.variables.__code__: "terms.variables",
               fta.terms.subterm_at.__code__: "terms.subterm_at",
               fta.terms.positions.__code__: "terms.positions",
               fta.essential.essential_positions.__code__: "essential.essential_positions",
               fta.cli.main.__code__: "cli.main"}
    plain = dict.fromkeys(targets.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in targets:
            plain[targets[frame.f_code]] += 1

    tracer = Tracer()
    with tracer:
        sys.setprofile(profile)
        try:
            for argv in (["essential", aut_file, "-t", "f1(x1,f2(x2,g(x3)))", "--json"],
                         ["prune", aut_file, "-t", TERM, "--json"]):
                bench.call(cli, argv)
        finally:
            sys.setprofile(None)
    stats = tracer.aggregate()
    assert {name: stats[name]["calls"] for name in plain} == plain
    assert plain["automaton.run"] > 0 and plain["cli.main"] == 2
    assert fta.essential.run is fta.automaton.run  # bindings restored


def test_tracer_self_time_excludes_children(aut_file):
    tracer = Tracer()
    with tracer:
        bench.call(cli, ["essential", aut_file, "-t", TERM, "--json"])
    stats = tracer.aggregate()
    main = stats["cli.main"]
    assert 0 < main["self_s"] < main["total_s"]
    assert stats["essential.essential_positions"]["calls"] == 1
