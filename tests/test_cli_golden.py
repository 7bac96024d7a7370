"""Byte-for-byte CLI outputs, pinned against recorded golden data.

``cli_golden.json`` holds input files and, for each command, its exit
code, stderr and stdout (in full, or as a SHA-256 digest and length when
longer than ``INLINE_MAX`` characters).  The commands cover the README's
examples at three budgets, text and ``--json``, and big-term commands
like those of the benchmark's ``big`` workload: traced and partial runs
of non-linear terms and of a 300-level chain, ``essential --position``
and ``prune --verify``.

The data was recorded from the code before a change whose output must
not move; regenerate it only for a declared output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from fta.cli import main

DATA = Path(__file__).with_name("cli_golden.json")
INLINE_MAX = 2000

README_TERM = "f1(g(f1(x1,x2)),f2(g(f1(x3,f1(x4,x3))),g(f1(x2,x1))))"
README_TERM_FILE = """\
# the README's 16-node term, spread over lines
f1( g(f1(x1, x2)),      # left: depends on x1, x2
    f2( g(f1(x3, f1(x4,x3))),
        g(f1(x2,x1)) ) )
"""
BOOLEAN = """\
signature: 0/0 1/0 g/1 f1/2 f2/2
states: q0 q1
final: q1
rule: 0 -> q0
rule: 1 -> q1
rule: g(q0) -> q1
rule: g(q1) -> q0
rule: f1(q0,q0) -> q0
rule: f1(q0,q1) -> q0
rule: f1(q1,q0) -> q0
rule: f1(q1,q1) -> q1
rule: f2(q0,q0) -> q0
rule: f2(q0,q1) -> q1
rule: f2(q1,q0) -> q1
rule: f2(q1,q1) -> q1
"""
BUDGETS = (None, 256, 100)


def _readme_commands() -> list[list[str]]:
    t = ["-t", README_TERM]
    commands = [
        ["check", "boolean.fta"],
        ["run", "boolean.fta", *t, "--assign", "x1=0,x2=1,x3=1,x4=0"],
        ["run", "boolean.fta", *t, "--assign", "x1=0,x2=1,x3=1,x4=0", "--trace"],
        ["run", "boolean.fta", *t, "--assign", "x3=0,x4=1"],
        ["run", "boolean.fta", "-f", "readme.term", "--assign", "x2=1"],
        ["essential", "boolean.fta", *t, "--position", "1.1"],
        ["essential", "boolean.fta", *t, "--position", "2.1"],
        ["essential", "boolean.fta", *t],
        ["essential", "boolean.fta", "-f", "readme.term"],
        ["separable", "boolean.fta", *t, "--set", "1.1"],
        ["separable", "boolean.fta", *t, "--set", "1.1", "--wrt", "2.2"],
        ["prune", "boolean.fta", *t, "--verify"],
        ["prune", "boolean.fta", "-f", "readme.term"],
        ["verify", "boolean.fta", *t],
        ["verify", "boolean.fta", "-t", "f2(f1(x1,g(x1)),x1)"],
    ]
    out = []
    for budget in BUDGETS:
        extra = [] if budget is None else ["--max-assignments", str(budget)]
        for argv in commands:
            out += [argv + extra, argv + extra + ["--json"]]
    return out + [
        ["verify", "--random", "--seed", "42", "--count", "500"],
        ["run", "boolean.fta", "-t", "f1(x1,@q0)"],
        ["essential", "boolean.fta", *t, "--position", "3"],
        ["run", "boolean.fta", *t, "--assign", "x1=2"],
        ["check", "missing.fta"],
        # verify refuses to choose between the sources of its instances
        ["verify", "boolean.fta", *t, "--random", "--count", "2"],
        ["verify", "-f", "readme.term", "--replay", "missing.json", "--json"],
        ["verify", "--random", "--replay", "missing.json"],
    ]


def _random_automaton(rng: random.Random, n: int) -> str:
    states = [f"q{i}" for i in range(n)]
    lines = ["signature: 0/0 1/0 g/1 f1/2 f2/2", "states: " + " ".join(states),
             "final: " + " ".join(q for q in states if rng.random() < 0.5)]
    for c in ("0", "1"):
        lines.append(f"rule: {c} -> {rng.choice(states)}")
    for a in states:
        lines.append(f"rule: g({a}) -> {rng.choice(states)}")
    for f in ("f1", "f2"):
        for a in states:
            for b in states:
                lines.append(f"rule: {f}({a},{b}) -> {rng.choice(states)}")
    return "\n".join(lines) + "\n"


def _nonlinear_term(rng: random.Random, size: int, n_vars: int) -> tuple[str, list[str]]:
    """A random term of ``size`` nodes over x1..x<n_vars>, rendered, and
    the names of its positions."""
    names: list[str] = []

    def build(n: int, path: str) -> str:
        names.append(path or "ε")
        down = path + "." if path else ""
        if n == 1:
            return f"x{rng.randint(1, n_vars)}" if rng.random() < 0.75 else rng.choice("01")
        if n == 2 or rng.random() < 0.15:
            return f"g({build(n - 1, down + '1')})"
        left = rng.randint(1, n - 2)
        f = rng.choice(("f1", "f2"))
        return f"{f}({build(left, down + '1')},{build(n - 1 - left, down + '2')})"

    return build(size, ""), names


def _big_files_and_commands(rng: random.Random):
    files: dict[str, str] = {}
    commands: list[list[str]] = []
    for k, (size, n_vars, n_states) in enumerate(
            [(60, 2, 2), (100, 3, 3), (160, 4, 2), (250, 3, 4)]):
        aut, term = f"big{k}.fta", f"big{k}.term"
        files[aut] = _random_automaton(rng, n_states)
        files[term], names = _nonlinear_term(rng, size, n_vars)
        total = ",".join(f"x{v}={rng.choice('01')}" for v in range(1, n_vars + 1))
        partial = ",".join(f"x{v}={rng.choice('01')}" for v in range(2, n_vars + 1))
        commands += [
            ["run", aut, "-f", term, "--assign", total, "--trace", "--json"],
            ["run", aut, "-f", term, "--assign", partial, "--json"],
            ["run", aut, "-f", term, "--assign", partial],
            ["prune", aut, "-f", term, "--verify", "--json"],
            ["prune", aut, "-f", term, "--verify"],
            ["essential", aut, "-f", term, "--json"],
        ]
        for name in rng.sample(names, 3):
            commands += [["essential", aut, "-f", term, "--position", name, "--json"],
                         ["essential", aut, "-f", term, "--position", name]]
    files["chain300.term"] = "g(" * 300 + "f1(x1,f2(x2,0))" + ")" * 300
    for assign in ("x1=0,x2=1", "x1=1,x2=0"):
        commands.append(["run", "boolean.fta", "-f", "chain300.term", "--assign", assign,
                         "--trace", "--json"])
    commands += [
        ["run", "boolean.fta", "-f", "chain300.term", "--assign", "x2=1", "--json"],
        ["run", "big1.fta", "-f", "chain300.term", "--assign", "x1=1", "--json"],
        ["essential", "boolean.fta", "-f", "chain300.term", "--position",
         ".".join(["1"] * 300) + ".2", "--json"],
        ["prune", "boolean.fta", "-f", "chain300.term", "--verify", "--json"],
    ]
    return files, commands


def _cases():
    files = {"boolean.fta": BOOLEAN, "readme.term": README_TERM_FILE}
    big_files, big_commands = _big_files_and_commands(random.Random("cli-golden"))
    files.update(big_files)
    return files, _readme_commands() + big_commands


def _write(files: dict[str, str], directory: Path) -> None:
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def _call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stderr": err.getvalue(), **_stdout_record(out.getvalue())}


def _stdout_record(text: str) -> dict:
    if len(text) <= INLINE_MAX:
        return {"stdout": text}
    return {"stdout_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "stdout_len": len(text), "stdout_head": text[:200]}


def record(directory: Path) -> dict:
    """Run every golden command in ``directory`` and return the data."""
    files, commands = _cases()
    _write(files, directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        cases = [{"argv": argv, **_call(argv)} for argv in commands]
    finally:
        os.chdir(cwd)
    return {"files": files, "cases": cases}


# absent only before the first recording; test_golden_cases_are_current then fails
GOLDEN = (json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists()
          else {"files": {}, "cases": []})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write(GOLDEN["files"], directory)
    return directory


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"])[:80])
def test_output_matches_golden(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert _call(case["argv"]) == {key: value for key, value in case.items() if key != "argv"}


def test_golden_cases_are_current():
    """The recorded inputs are the ones the generator makes, so
    re-recording changes outputs only."""
    files, commands = _cases()
    assert GOLDEN["files"] == files
    assert [c["argv"] for c in GOLDEN["cases"]] == commands


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = record(Path(tmp))
    DATA.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{len(data['cases'])} cases written to {DATA}", file=sys.stderr)
