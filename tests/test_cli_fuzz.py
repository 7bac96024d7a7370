"""A fuzz guard for the command line.

Whatever the automaton file, term, positions, assignment and budget,
``fta.cli.main`` returns an exit code from 0 to 4 and lets no exception
out; under ``--json`` a verdict (exit 0 or 1) is printed as one JSON
object.  The files are generated automata and terms, and mutations of
them; ``verify --random`` gets extreme generator flags.
"""

import contextlib
import io
import json

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from fta import (
    DEFAULT_SIGNATURE,
    FtaError,
    GenParams,
    parse_term,
    positions,
    random_automaton,
    random_term,
    render_automaton,
    render_term,
    variables,
)
from fta.cli import main

#: Lines a mutated automaton file may gain: defects, syntax errors and
#: declarations of symbols of an arity too high to list.
EXTRA_LINES = [
    "states: q0 q0 q1", "final: q7", "rule: g(q9) -> q0", "rule: g(q0) -> q1",
    "rule: f1(q0) -> q0", "rule: h(q0) -> q0", "rule: 0 -> q1", "rule: 0 q0",
    "signature: 0/0 h/40", "signature: x1/0", "bogus: line", "rule: g( -> q0", "",
]

#: Characters a mutated term or argument is made of.
TERM_CHARS = "x0123456789gf12()@,# \n-=.eε"


def mutated(text: str, draw) -> str:
    """``text`` with a few slices deleted or replaced by short noise."""
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 4)))
        text = text[:start] + draw(st.text(TERM_CHARS, max_size=3)) + text[end:]
    return text


@st.composite
def automaton_files(draw) -> bytes:
    aut = random_automaton(GenParams(seed=draw(st.integers(0, 2 ** 32)),
                                     state_count=draw(st.integers(1, 3))))
    lines = render_automaton(aut).splitlines()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and at < len(lines):
            del lines[at]
        else:
            lines.insert(at, draw(st.sampled_from(EXTRA_LINES)))
    data = "\n".join(lines).encode("utf-8")
    return data + b"\xff" if draw(st.integers(0, 19)) == 0 else data


@st.composite
def terms(draw) -> str:
    t = random_term(GenParams(seed=draw(st.integers(0, 2 ** 32)),
                              max_depth=draw(st.integers(0, 5)),
                              var_pool=draw(st.integers(0, 6))))
    text = render_term(t)
    return mutated(text, draw) if draw(st.integers(0, 3)) == 0 else text


def parsed(text: str):
    """The term ``text`` over the default signature, or None."""
    try:
        return parse_term(text, DEFAULT_SIGNATURE)
    except FtaError:
        return None


def position_list(draw, t) -> str:
    """Comma-separated positions of the term ``t``, or noise when ``t``
    did not parse and now and then when it did."""
    if t is None or draw(st.integers(0, 3)) == 0:
        one = st.text("0123456789.eε ", max_size=6)
    else:
        one = st.sampled_from([str(p) for p in positions(t)])
    return ",".join(draw(st.lists(one, max_size=3)))


def assignment(draw, t) -> str:
    """Bindings of some of the term ``t``'s variables, sometimes mutated."""
    vs = [1, 2] if t is None else sorted(variables(t))
    bound = draw(st.lists(st.sampled_from(vs), unique=True)) if vs else []
    text = ",".join(f"x{v}={draw(st.sampled_from(['0', '1']))}" for v in bound)
    return mutated(text, draw) if draw(st.integers(0, 4)) == 0 else text


@st.composite
def command_lines(draw, automaton: str, failures: str) -> list[str]:
    """One command line over the automaton file at ``automaton``."""
    budget = f"--max-assignments={draw(st.integers(1, 2 ** 12))}"
    command = draw(st.sampled_from(["check", "run", "essential", "separable", "prune",
                                    "verify", "random"]))
    if command == "check":
        argv = ["check", automaton]
    elif command == "random":
        argv = ["verify", "--random", f"--seed={draw(st.integers(-2 ** 70, 2 ** 70))}",
                f"--count={draw(st.integers(0, 2))}",
                f"--max-depth={draw(st.sampled_from([0, 1, 3, 8, 16]))}",
                f"--max-vars={draw(st.sampled_from([0, 1, 6, 1000]))}",
                f"--max-states={draw(st.sampled_from([1, 2, 7, 50]))}",
                f"--failure-dir={failures}"]
    else:
        text = draw(terms())
        t = parsed(text)
        argv = [command, automaton, f"--term={text}"]
        if command == "run":
            argv.append(f"--assign={assignment(draw, t)}")
            argv += ["--trace"] if draw(st.booleans()) else []
        elif command == "essential" and draw(st.booleans()):
            argv.append(f"--position={position_list(draw, t).partition(',')[0]}")
        elif command == "separable":
            argv.append(f"--set={position_list(draw, t)}")
            if draw(st.booleans()):
                argv.append(f"--wrt={position_list(draw, t)}")
        elif command == "prune" and draw(st.booleans()):
            argv.append("--verify")
        elif command == "verify":
            argv.append(f"--failure-dir={failures}")
    return argv + [budget] + (["--json"] if draw(st.booleans()) else [])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_command_ends_with_an_exit_code(tmp_path, data):
    automaton = tmp_path / "automaton.fta"
    automaton.write_bytes(data.draw(automaton_files()))
    argv = data.draw(command_lines(str(automaton), str(tmp_path / "failures")))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in range(5)
    if "--json" in argv and code in (0, 1):
        assert isinstance(json.loads(out.getvalue()), dict)
        assert out.getvalue().count("\n") == 1
