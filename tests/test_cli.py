import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fta.cli import RESTORE_OR_ESCAPE, build_parser, main

from conftest import SAMPLE_AUTOMATON, SAMPLE_TERM
from reference_parsers import build_cli_parser

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def aut_file(tmp_path):
    path = tmp_path / "boolean.fta"
    path.write_text(SAMPLE_AUTOMATON, encoding="utf-8")
    return str(path)


def wide_term(n=25):
    text = "x1"
    for i in range(2, n + 1):
        text = f"f1(x{i},{text})"
    return text


def fta_process(argv, **env):
    """``python -m fta.cli argv`` in a new process, with ``env`` added to
    the environment; stdout and stderr are kept as bytes."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fta.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, check=False)


@pytest.mark.parametrize("encoding", ["ascii", "utf-8"])
def test_a_stdout_escapes_what_its_encoding_cannot_hold(encoding, aut_file, capsys):
    """ε and → reach an ASCII stdout as backslash escapes, and the command
    keeps its own exit code; a UTF-8 stdout gets the text unchanged."""
    for argv in (["run", "--trace", "--assign", "x1=0,x2=1,x3=1,x4=0"],
                 ["essential"], ["prune"]):
        argv = [*argv, aut_file, "-t", SAMPLE_TERM]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "ε" in text or "→" in text
        done = fta_process(argv, PYTHONIOENCODING=encoding)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == text.encode(encoding, "backslashreplace")


def restored_or_escaped(text: str) -> bytes:
    """``text`` as an ASCII stream with the ``surrogateescape`` handler
    shows it once ``main`` has taken it over: a lone surrogate
    U+DC80-U+DCFF becomes its byte, any other non-ASCII character a
    backslash escape."""
    return b"".join(c.encode("ascii", "surrogateescape") if "\udc80" <= c <= "\udcff"
                    else c.encode("ascii", "backslashreplace") for c in text)


def test_a_surrogateescape_stdout_keeps_bytes_and_escapes_the_rest(aut_file, tmp_path):
    """A stdout with ``surrogateescape`` writes an undecodable argument
    byte back (here in a failure directory's name) and escapes ε and →,
    where it raised ``UnicodeEncodeError``; the command keeps its own
    exit code."""
    failure_dir = str(tmp_path / "d\udcff")  # the shell's $'d\xff'
    for argv, code in ((["essential", aut_file, "-t", SAMPLE_TERM], 0),
                       (["prune", aut_file, "-t", SAMPLE_TERM], 0),
                       (["verify", aut_file, "-t", "f2(f1(x1,g(x1)),x1)",
                         "--failure-dir", failure_dir], 1)):
        out = io.StringIO()  # unlike the capture, it holds lone surrogates
        with contextlib.redirect_stdout(out):
            assert main(argv) == code
        text = out.getvalue()
        assert "ε" in text or "→" in text or "\udcff" in text
        done = fta_process(argv, PYTHONIOENCODING="ascii:surrogateescape")
        assert (done.returncode, done.stderr) == (code, b"")
        assert done.stdout == restored_or_escaped(text)


def test_a_replaced_stdout_that_cannot_encode_the_output_is_an_io_error(aut_file, tmp_path,
                                                                        capsys):
    """A replaced stdout is left alone, so a strict UTF-8 one cannot
    write a lone surrogate (here in a failure directory's name): the
    command ends with one ``error:`` line and exit code 2, the I/O code."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = main(["verify", aut_file, "-t", "f2(f1(x1,g(x1)),x1)",
                     "--failure-dir", str(tmp_path / "d\udcff")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_the_stdout_error_handler_restores_escaped_bytes_and_escapes_the_rest():
    """In process, where stdout is always captured: the handler ``main``
    gives a ``surrogateescape`` stdout, on ASCII and on UTF-8, and not
    for decoding."""
    text = "ε\udcff→\ud800x"
    assert text.encode("ascii", RESTORE_OR_ESCAPE) == b"\\u03b5\xff\\u2192\\ud800x"
    assert text.encode("utf-8", RESTORE_OR_ESCAPE) == "ε".encode() + b"\xff" + "→".encode() + (
        b"\\ud800x")
    with pytest.raises(UnicodeDecodeError):
        b"\xff".decode("ascii", RESTORE_OR_ESCAPE)


CLI_ARGV = [
    [], ["--help"], ["bogus"], ["--json", "check", "a.fta"],
    ["check", "--help"], ["check", "a.fta"], ["check"], ["check", "a.fta", "-t", "x1"],
    ["check", "--json", "--max-assignments", "7", "a.fta"],
    ["run", "--help"], ["run", "a.fta"], ["run", "-t", "x1"],
    ["run", "a.fta", "-t", "x1", "-f", "t.txt"], ["run", "-f", "t.txt", "a.fta"],
    ["run", "a.fta", "--term", "x1", "--assign", "x1=0", "--trace", "--json",
     "--max-assignments", "5"],
    ["run", "a.fta", "--te", "x1", "--max-assignments", "0"],
    ["run", "a.fta", "-t", "x1", "--max-assignments", "many"],
    ["essential", "--help"], ["essential", "a.fta", "--term-file", "t.txt"],
    ["essential", "a.fta", "-t", "x1", "--position", "1.2", "--json"],
    ["separable", "--help"], ["separable", "a.fta", "-t", "x1"],
    ["separable", "a.fta", "-t", "x1", "--set", "1,2", "--wrt", "3"],
    ["prune", "--help"], ["prune", "a.fta", "-t", "x1", "--verify", "--json"],
    ["prune", "a.fta", "-f", "t.txt", "--position", "1"],
    ["verify", "--help"], ["verify"], ["verify", "a.fta", "-t", "x1"],
    ["verify", "-f", "t.txt", "a.fta", "--json"], ["verify", "-t", "x1", "-f", "t.txt"],
    ["verify", "--random", "--seed", "3", "--count", "0", "--max-depth", "2",
     "--max-vars", "1", "--max-states", "1", "--failure-dir", "d",
     "--max-assignments", "9"],
    ["verify", "--rand", "--replay", "r.json"], ["verify", "--count", "-1"],
    ["verify", "--max-states", "0"], ["verify", "--seed", "x"],
    ["verify", "--random", "--max-depth", "65"],
    ["verify", "a.fta", "b.fta"],
]


def parse_outcome(build, argv):
    """The namespace (``None`` on exit), stdout, stderr and exit code of
    parsing ``argv`` with the parser ``build()`` makes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = vars(build().parse_args(argv)), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv", CLI_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_the_parser_matches_the_reference(argv, monkeypatch):
    """Help, usage errors and namespaces (each command's function
    included) are those of the parser before the subcommand table."""
    monkeypatch.setenv("COLUMNS", "80")
    assert parse_outcome(build_parser, argv) == parse_outcome(build_cli_parser, argv)


@pytest.mark.parametrize("command", [
    lambda aut, bad: ["check", bad],
    lambda aut, bad: ["run", aut, "-f", bad],
    lambda aut, bad: ["verify", "--replay", bad],
], ids=["check", "run", "verify-replay"])
def test_non_utf8_file_is_input_error(command, aut_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main(command(aut_file, str(bad))) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_non_utf8_byte_in_term_is_input_error(aut_file, capsys):
    # the shell's $'g( #\xff': the undecodable byte arrives as a lone surrogate
    assert main(["run", aut_file, "-t", "g( #\udcff"]) == 2
    assert capsys.readouterr().err == "error: expected a term, found end of input (byte 5)\n"


def test_a_byte_order_mark_is_read_past(aut_file, tmp_path, capsys, monkeypatch):
    """An automaton, term file or failure artifact that starts with a
    UTF-8 byte-order mark reads as the same file without it."""
    monkeypatch.chdir(tmp_path)
    term_file = tmp_path / "readme.term"
    term_file.write_text(SAMPLE_TERM + "\n", encoding="utf-8")
    assert main(["verify", aut_file, "-t", "f2(f1(x1,g(x1)),x1)",
                 "--failure-dir", "artifacts"]) == 1
    artifact = sorted((tmp_path / "artifacts").glob("*.json"))[0]
    capsys.readouterr()

    def with_mark(path):
        copy = tmp_path / f"marked-{Path(path).name}"
        copy.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        return str(copy)

    total = "x1=0,x2=1,x3=1,x4=0"
    for argv, code in ((["check", aut_file], 0),
                       (["run", aut_file, "-f", str(term_file), "--assign", total], 0),
                       (["verify", "--replay", str(artifact)], 1)):
        assert main(argv) == code
        plain = capsys.readouterr()
        marked = [with_mark(a) if a in (aut_file, str(term_file), str(artifact)) else a
                  for a in argv]
        assert main(marked) == code
        assert capsys.readouterr() == plain and plain.err == ""


class TestCheck:
    def test_ok(self, aut_file, capsys):
        assert main(["check", aut_file]) == 0
        assert capsys.readouterr().out.strip() == "complete deterministic: 2 states, 12 rules"

    def test_missing_rule(self, tmp_path, capsys):
        path = tmp_path / "bad.fta"
        path.write_text(SAMPLE_AUTOMATON.replace("rule: f1(q1,q0) -> q0\n", ""))
        assert main(["check", str(path)]) == 1
        assert "missing: f1(q1,q0)" in capsys.readouterr().out

    def test_nonexistent_path(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.fta")]) == 2

    def test_incomplete_symbol_of_high_arity_is_counted_not_listed(self, tmp_path, capsys):
        # listing h's 2^30 missing argument tuples would not end
        path = tmp_path / "h30.fta"
        path.write_text("signature: 0/0 h/30\nstates: q0 q1\nfinal: q1\nrule: 0 -> q0\n")
        start = time.perf_counter()
        assert main(["check", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "missing: all but 0 of the 2^30 rules for h\n"

    def test_duplicate_state_declaration_lists_each_missing_tuple_once(self, tmp_path, capsys):
        path = tmp_path / "dup.fta"
        path.write_text("signature: 0/0 g/1\nstates: q0 q0 q1\nfinal: q1\nrule: 0 -> q0\n")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == (
            "duplicate state declarations\nmissing: g(q0)\nmissing: g(q1)\n")

    def test_final_states_outside_q_in_the_same_order_under_every_hash_seed(self, tmp_path):
        path = tmp_path / "finals.fta"
        path.write_text("signature: 0/0\nstates: q0\nfinal: qa qb qc qd\nrule: 0 -> q0\n")
        outputs = set()
        for seed in ("1", "2", "3", "4"):
            done = fta_process(["check", str(path)], PYTHONHASHSEED=seed)
            assert done.returncode == 1, done.stderr
            outputs.add(done.stdout.decode())
        assert outputs == {"".join(f"final state not in Q: {q}\n" for q in ("qa", "qb", "qc", "qd"))}

    def test_json_mode(self, aut_file, capsys):
        assert main(["check", "--json", aut_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "check"
        assert payload["verdict"] == "ok"
        assert payload["report"] == {"states": 2, "rules": 12}


class TestRun:
    def test_total_assignment(self, aut_file, capsys):
        assert main(["run", aut_file, "-t", SAMPLE_TERM,
                     "--assign", "x1=0,x2=1,x3=1,x4=0"]) == 0
        assert capsys.readouterr().out.strip() == "q1"

    def test_other_assignment(self, aut_file, capsys):
        assert main(["run", aut_file, "-t", SAMPLE_TERM,
                     "--assign", "x1=1,x2=1,x3=1,x4=0"]) == 0
        assert capsys.readouterr().out.strip() == "q0"

    def test_fully_bound_subterm(self, aut_file, capsys):
        assert main(["run", aut_file, "-t", "g(f1(x3,f1(x4,x3)))",
                     "--assign", "x3=0,x4=1"]) == 0
        assert capsys.readouterr().out.strip() == "q1"

    def test_partial_assignment_prints_mixed_term(self, aut_file, capsys):
        assert main(["run", aut_file, "-t", "f1(x1,0)"]) == 0
        assert capsys.readouterr().out.strip() == "f1(x1,@q0)"

    def test_trace(self, aut_file, capsys):
        assert main(["run", aut_file, "-t", "g(0)", "--trace"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "q1"
        assert out[1:] == ["ε q1", "1 q0"]

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_trace_with_a_partial_assignment_is_refused(self, aut_file, capsys, mode):
        # a mixed term has no state at its unbound leaves, so nothing to trace
        argv = ["run", aut_file, "-t", SAMPLE_TERM, "--assign", "x1=0", "--trace", *mode]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: --trace needs every variable bound; unbound: x2 x3 x4\n")

    def test_unknown_assignment_symbol(self, aut_file, capsys):
        assert main(["run", aut_file, "-t", "g(x1)", "--assign", "x1=q"]) == 2

    def test_variable_bound_twice(self, aut_file, capsys):
        assert main(["run", aut_file, "-t", "g(x1)", "--assign", "x1=0,x1=1"]) == 2
        assert capsys.readouterr().err == "error: x1 is bound twice\n"

    def test_term_from_file(self, aut_file, tmp_path, capsys):
        tf = tmp_path / "term.txt"
        tf.write_text("g(1)  # negated\n")
        assert main(["run", aut_file, "-f", str(tf)]) == 0
        assert capsys.readouterr().out.strip() == "q0"

    def test_syntax_error_exit(self, aut_file, capsys):
        assert main(["run", aut_file, "-t", "f1(x1"]) == 2


class TestDeepChain:
    """A unary chain far deeper than the interpreter's recursion limit."""

    DEPTH = 3000

    @pytest.fixture()
    def chain_file(self, tmp_path):
        path = tmp_path / "chain.term"
        path.write_text("g(" * self.DEPTH + "f1(x1,x2)" + ")" * self.DEPTH, encoding="utf-8")
        return str(path)

    def test_total_run_with_trace(self, aut_file, chain_file, capsys):
        assert main(["run", aut_file, "-f", chain_file, "--assign", "x1=1,x2=1", "--trace"]) == 0
        out = capsys.readouterr().out.splitlines()
        # f1(1,1) is q1, negated an even number of times
        assert out[:3] == ["q1", "ε q1", "1 q0"]
        below = ".".join(["1"] * self.DEPTH)
        assert len(out) == 1 + self.DEPTH + 3
        assert out[-3:] == [f"{below} q1", f"{below}.1 q1", f"{below}.2 q1"]

    def test_partial_run(self, aut_file, chain_file, capsys):
        assert main(["run", aut_file, "-f", chain_file, "--assign", "x1=1"]) == 0
        expected = "g(" * self.DEPTH + "f1(@q1,x2)" + ")" * self.DEPTH
        assert capsys.readouterr().out.strip() == expected

    def test_prune(self, aut_file, chain_file, capsys):
        assert main(["prune", aut_file, "-f", chain_file, "--verify"]) == 0
        below = ".".join(["1"] * self.DEPTH)
        assert capsys.readouterr().out.splitlines() == [
            f"determining: {below} | reduced: f1(x1,x2) | nodes 3003→3 (99.9% saved)",
            "soundness: OK (4 assignments)",
        ]

    def test_essential(self, aut_file, chain_file, capsys):
        assert main(["essential", aut_file, "-f", chain_file]) == 0
        out = capsys.readouterr().out.splitlines()
        # every position is essential; an even number of negations leaves
        # the root with the state of f1(x1,x2)
        paths = [".".join(["1"] * n) for n in range(1, self.DEPTH + 1)]
        below = paths[-1]
        assert out[:3] == [
            "essential positions: " + " ".join(["ε", *paths, f"{below}.1", f"{below}.2"]),
            "fictive positions: ",
            "essential variables: x1 x2",
        ]
        assert len(out) == 3 + self.DEPTH + 3
        assert out[3] == "witness ε: gamma1 x1=0 x2=0 | gamma2 x1=1 x2=1 | sub q0,q1 | root q0,q1"
        assert out[4] == "witness 1: gamma1 x1=0 x2=0 | gamma2 x1=1 x2=1 | sub q1,q0 | root q0,q1"
        assert out[-2:] == [
            f"witness {below}.1: gamma1 x1=0 x2=1 | gamma2 x1=1 x2=1 | sub q0,q1 | root q0,q1",
            f"witness {below}.2: gamma1 x1=1 x2=0 | gamma2 x1=1 x2=1 | sub q0,q1 | root q0,q1",
        ]

    def test_essential_json(self, aut_file, chain_file, capsys):
        assert main(["essential", aut_file, "-f", chain_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        paths = [".".join(["1"] * n) for n in range(1, self.DEPTH + 1)]
        below = paths[-1]
        essential = ["ε", *paths, f"{below}.1", f"{below}.2"]
        assert payload["positions"] == {"essential": essential, "fictive": [],
                                        "essential_vars": ["x1", "x2"]}
        assert [w["position"] for w in payload["witnesses"]] == essential
        assert payload["witnesses"][-1] == {
            "position": f"{below}.2", "gamma1": {"x1": "1", "x2": "0"},
            "gamma2": {"x1": "1", "x2": "1"}, "sub_states": ["q0", "q1"],
            "root_states": ["q0", "q1"]}


class TestEssential:
    def test_essential_position(self, aut_file, capsys):
        assert main(["essential", aut_file, "-t", SAMPLE_TERM, "--position", "1.1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "essential"
        assert out[1] == "gamma1: x1=0 x2=0 x3=0 x4=0"
        assert out[2] == "gamma2: x1=1 x2=1 x3=0 x4=0"
        assert out[3] == "subtree states: q0 q1"
        assert out[4] == "root states: q1 q0"

    def test_fictive_position(self, aut_file, capsys):
        assert main(["essential", aut_file, "-t", SAMPLE_TERM, "--position", "2.1"]) == 1
        assert capsys.readouterr().out.strip() == "fictive"

    def test_full_report(self, aut_file, capsys):
        assert main(["essential", aut_file, "-t", SAMPLE_TERM]) == 0
        out = capsys.readouterr().out
        assert "essential positions: ε 1 2 1.1 2.2" in out
        assert "fictive positions: 2.1 2.1.1" in out
        assert "essential variables: x1 x2" in out

    def test_json_report(self, aut_file, capsys):
        assert main(["essential", "--json", aut_file, "-t", SAMPLE_TERM]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["positions"]["essential"][:3] == ["ε", "1", "2"]
        assert payload["positions"]["essential_vars"] == ["x1", "x2"]
        assert len(payload["witnesses"]) == 10

    def test_budget_exit_code(self, aut_file, capsys):
        assert main(["essential", aut_file, "-t", wide_term()]) == 3

    def test_bad_position_is_input_error(self, aut_file):
        assert main(["essential", aut_file, "-t", SAMPLE_TERM, "--position", "9.9"]) == 2


@pytest.mark.parametrize("command, message", [
    (lambda aut, sup: ["essential", aut, "-t", SAMPLE_TERM, "--position", "²"],
     "error: bad position '²'"),
    (lambda aut, sup: ["essential", aut, "-t", SAMPLE_TERM, "--position", "1.²"],
     "error: bad position '1.²'"),
    (lambda aut, sup: ["separable", aut, "-t", SAMPLE_TERM, "--set", "²"],
     "error: bad position '²'"),
    (lambda aut, sup: ["separable", aut, "-t", SAMPLE_TERM, "--set", "1.1", "--wrt", "²"],
     "error: bad position '²'"),
    (lambda aut, sup: ["check", sup], "error: line 1: bad symbol declaration 'g/²'"),
], ids=["essential", "essential-nested", "separable-set", "separable-wrt", "check"])
def test_superscript_digits_are_input_errors(command, message, aut_file, tmp_path, capsys):
    sup = tmp_path / "sup.fta"
    sup.write_text("signature: 0/0 g/²\nstates: q\nfinal: q\nrule: 0 -> q\n",
                   encoding="utf-8")
    assert main(command(aut_file, str(sup))) == 2
    err = capsys.readouterr().err
    assert err == message + "\n"
    assert "Traceback" not in err


#: Commands whose last option is given the value "--", and that option.
DOUBLE_DASH_VALUES = [
    (["essential", "AUT", "--term=--"], "--term"),
    (["essential", "AUT", "--term-file=--"], "--term-file"),
    (["run", "AUT", "-t=--"], "--term"),
    (["run", "AUT", "--term-file=--"], "--term-file"),
    (["verify", "AUT", "--term=--"], "--term"),
    (["essential", "AUT", "-t", "x1", "--position=--"], "--position"),
    (["separable", "AUT", "-t", "x1", "--set=--"], "--set"),
    (["separable", "AUT", "-t", "x1", "--set", "ε", "--wrt=--"], "--wrt"),
    (["verify", "--replay=--"], "--replay"),
    (["essential", "AUT", "-t", "x1", "--max-assignments=--"], "--max-assignments"),
    (["verify", "--random", "--seed=--"], "--seed"),
    (["verify", "--random", "--count=--"], "--count"),
    (["verify", "--random", "--max-depth=--"], "--max-depth"),
    (["run", "AUT", "-t", "x1", "--assign=--"], "--assign"),
]


@pytest.mark.parametrize("argv, option", DOUBLE_DASH_VALUES,
                         ids=[" ".join(argv) for argv, _ in DOUBLE_DASH_VALUES])
def test_an_option_given_the_value_double_dash_lacks_its_value(argv, option, aut_file, capsys):
    """argparse drops a "--" that is an option's own value and stores an
    empty list, unconverted: that is one error line and exit 2, as a
    missing value is, never a traceback or a run without the option."""
    assert main([aut_file if a == "AUT" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: argument {option}: expected one argument\n")


class TestSeparable:
    def test_separable_singleton(self, aut_file, capsys):
        assert main(["separable", aut_file, "-t", SAMPLE_TERM, "--set", "1.1"]) == 0
        assert capsys.readouterr().out.strip() == "separable: x3=0 x4=0"

    def test_not_essential_precondition(self, aut_file, capsys):
        assert main(["separable", aut_file, "-t", SAMPLE_TERM, "--set", "2.1"]) == 4
        assert "position 2.1 is not essential" in capsys.readouterr().err

    def test_not_independent_precondition(self, aut_file, capsys):
        assert main(["separable", aut_file, "-t", SAMPLE_TERM,
                     "--set", "1", "--wrt", "1.1"]) == 4
        assert "sets not independent" in capsys.readouterr().err

    def test_not_separable(self, aut_file, capsys):
        # x3 picks which of 1.1 and 2.1 the root reads
        assert main(["separable", aut_file, "-t", "f2(f1(x1,x3),f1(x2,g(x3)))",
                     "--set", "1.1,2.1"]) == 1
        assert capsys.readouterr().out.strip() == "not separable"


class TestPrune:
    def test_sample(self, aut_file, capsys):
        assert main(["prune", aut_file, "-t", SAMPLE_TERM]) == 0
        out = capsys.readouterr().out
        assert "determining: 1 | reduced: g(f1(x1,x2)) | nodes 16→4 (75.0% saved)" in out

    def test_verify_flag(self, aut_file, capsys):
        assert main(["prune", aut_file, "-t", SAMPLE_TERM, "--verify"]) == 0
        assert "soundness: OK (16 assignments)" in capsys.readouterr().out

    def test_no_reduction(self, aut_file, capsys):
        assert main(["prune", aut_file, "-t", "g(x1)"]) == 0
        assert capsys.readouterr().out.strip() == "no reduction"

    def test_json(self, aut_file, capsys):
        assert main(["prune", "--json", aut_file, "-t", SAMPLE_TERM]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["original_nodes"] == 16
        assert payload["report"]["reduced_nodes"] == 4
        assert payload["report"]["saved_fraction"] == 0.75
        assert payload["positions"]["determining"] == "1"


class TestVerify:
    def test_instance(self, aut_file, capsys):
        assert main(["verify", aut_file, "-t", SAMPLE_TERM]) == 0
        out = capsys.readouterr().out
        assert "all properties passed" in out
        assert out.count("1 checked, 0 failures") == 7

    def test_random(self, capsys):
        assert main(["verify", "--random", "--seed", "42", "--count", "25"]) == 0
        out = capsys.readouterr().out
        assert out.count("25 checked, 0 failures") == 7

    def test_count_zero(self, capsys):
        assert main(["verify", "--random", "--count", "0"]) == 0

    def test_missing_inputs(self, capsys):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("sources, message", [
        (["AUT", "-t", "x1", "--random"], "--random cannot be combined with an automaton or a term"),
        (["AUT", "--random"], "--random cannot be combined with an automaton or a term"),
        (["-t", "x1", "--random"], "--random cannot be combined with an automaton or a term"),
        (["-f", "t.txt", "--random"], "--random cannot be combined with an automaton or a term"),
        (["AUT", "-t", "x1", "--replay", "r.json"],
         "--replay cannot be combined with an automaton or a term"),
        (["AUT", "--replay", "r.json"], "--replay cannot be combined with an automaton or a term"),
        (["-f", "t.txt", "--replay", "r.json"],
         "--replay cannot be combined with an automaton or a term"),
        (["--random", "--replay", "r.json"], "--random and --replay cannot be combined"),
        (["AUT", "-t", "x1", "--random", "--replay", "r.json"],
         "--random and --replay cannot be combined"),
    ], ids=["aut-term-random", "aut-random", "term-random", "file-random", "aut-term-replay",
            "aut-replay", "file-replay", "random-replay", "aut-term-random-replay"])
    def test_sources_of_instances_are_not_combined(self, aut_file, tmp_path, capsys, monkeypatch,
                                                   sources, message):
        """A given instance is never dropped for drawn or replayed ones,
        nor --random for --replay: one error line and exit 2, before
        any file is read (r.json does not exist) or artifact written."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = ["verify", *[aut_file if a == "AUT" else a for a in sources]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("options, artifact", [
        (["--random", "--max-depth", "-1"], None),
        (["--random", "--max-vars", "-1"], None),
        (["--random", "--max-states", "0"], None),
        ([], "not json"),
        ([], json.dumps({"term": "x1"})),
        ([], json.dumps({"automaton": SAMPLE_AUTOMATON})),
        (["--random", "--count", "-1"], None),
    ], ids=["max-depth", "max-vars", "max-states", "not-json", "no-automaton", "no-term",
            "count"])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, options, artifact):
        if artifact is not None:
            path = tmp_path / "artifact.json"
            path.write_text(artifact, encoding="utf-8")
            options = ["--replay", str(path)]
        try:
            rc = main(["verify", *options])
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err
        assert "Traceback" not in err

    def test_max_depth_is_at_most_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--random", "--max-depth", "65"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --max-depth: must be at most 64\n")

    def test_failure_artifacts_and_replay(self, aut_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["verify", aut_file, "-t", "f2(f1(x1,g(x1)),x1)",
                   "--failure-dir", str(tmp_path / "artifacts")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "failure artifacts:" in out
        artifacts = sorted((tmp_path / "artifacts").glob("*.json"))
        assert artifacts
        rc2 = main(["verify", "--replay", str(artifacts[0])])
        assert rc2 == 1
        out = capsys.readouterr().out
        assert "failures" in out and "failure artifacts:" not in out
        assert any(line.startswith("FAIL separable-strong-chain: ") for line in out.splitlines())
