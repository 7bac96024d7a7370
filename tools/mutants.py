"""Check that the tests catch a fixed list of deliberate bugs.

Usage::

    python tools/mutants.py

Each mutant is one exact source edit of a file of ``src/fta`` (its old
text, which must occur exactly once, and its new text) and the tests
that must catch it.  Per mutant, the package is copied to a temporary
directory, the edit is applied to the copy, and only the named tests
run, with the copy first on ``PYTHONPATH``, a fixed Hypothesis seed
and no example database (pytest runs in the temporary directory).
The mutant is killed when every named test fails.  One line per mutant
reports ``killed``, ``SURVIVED`` (a named test passed) or ``STALE``
(the old text is not in the file once, or pytest could not run the
tests); the exit status is 1 if any mutant is not killed.  It needs
nothing beyond the standard library and pytest, and is not part of the
test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fta"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/fta
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository


P2_TEST = "tests/test_verify.py::test_p2_reports_each_child_outside_its_parents_id_range"
NESTING_TEST = "tests/test_properties.py::test_every_compiled_form_nests_its_subtrees"
ROWS_TESTS = ("tests/test_properties.py::test_rows_are_runs_in_any_order",
              "tests/test_properties.py::test_rows_are_runs_in_any_order_over_three_constants")
SPLIT_TEST = "tests/test_terms.py::test_split_tokens_are_the_scanned_ones"

MUTANTS = (
    Mutant("p2-never-reports", "verify.py",
           "if k >= j or k - sizes[k] < j - sizes[j]]",
           "if k > k or k - sizes[k] < k - sizes[k]]",
           (P2_TEST,)),
    Mutant("p2-comparison-reversed", "verify.py",
           "k - sizes[k] < j - sizes[j]]",
           "k - sizes[k] > j - sizes[j]]",
           (P2_TEST, NESTING_TEST, "tests/test_verify.py::TestSuiteOnSample::test_all_properties_pass")),
    Mutant("parse-term-wrong-size", "terms.py",
           "sizes.append(n + 1 - start)",
           "sizes.append(n - start)",
           (NESTING_TEST,)),
    Mutant("varying-reads-two-constants-rows", "essential.py",
           "zip(*self._rows.values())",
           "zip(*[row for n, row in self._rows.items()"
           " if all(n // w % len(self._consts) < 2 for w in self._weight.values())])",
           ("tests/test_properties.py::test_report_matches_fresh_searches_over_three_constants",)),
    Mutant("rows-skip-a-node", "automaton.py",
           "todo = map(term.records.__getitem__, nodes)",
           "todo = map(term.records.__getitem__, nodes[1:])",
           ROWS_TESTS),
    Mutant("rows-merge-one-variable-too-few", "essential.py",
           "sorted(set().union(*[above[v] for v in gamma]))",
           "sorted(set().union(*[above[v] for v in list(gamma)[1:]]))",
           ROWS_TESTS),
    Mutant("state-leaf-takes-split-path", "terms.py",
           '_PLAIN = b"ABC',
           '_PLAIN = b"@ABC',
           (SPLIT_TEST,)),
    Mutant("comment-takes-split-path", "terms.py",
           '_PLAIN = b"ABC',
           '_PLAIN = b"#ABC',
           (SPLIT_TEST,)),
    Mutant("plus-takes-split-path", "terms.py",
           '_PLAIN = b"ABC',
           '_PLAIN = b"+ABC',
           (SPLIT_TEST,)),
)


def failed_tests(output: str, shown: dict[str, str]) -> set[str]:
    """The tests that pytest's ``-rfE`` summary lists as failed or in
    error, given each test's id as pytest shows it; a test id names
    each of its parametrized cases."""
    failed = set()
    for line in output.splitlines():
        for status in ("FAILED ", "ERROR "):
            if line.startswith(status):
                node = line[len(status):]
                failed.update(t for s, t in shown.items()
                              if node.startswith(s) and node[len(s):len(s) + 1] in ("", " ", "["))
    return failed


def check(m: Mutant) -> tuple[str, str]:
    """The mutant's verdict and what it rests on."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "fta"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / m.file
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            return "STALE", f"old text occurs {text.count(m.old)} times in {m.file}"
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
             "--hypothesis-seed=0", *[str(ROOT / t) for t in m.tests]],
            cwd=tmp, env=env, capture_output=True, text=True)
        # pytest shows each test id relative to the directory it runs in
        shown = {os.path.relpath(ROOT / t, tmp): t for t in m.tests}
    if proc.returncode not in (0, 1):
        tail = proc.stdout.strip().splitlines()[-1:] or ["no output"]
        return "STALE", f"pytest exited {proc.returncode}: {tail[0]}"
    survivors = [t for t in m.tests if t not in failed_tests(proc.stdout, shown)]
    if survivors:
        return "SURVIVED", "passed: " + ", ".join(survivors)
    return "killed", f"{len(m.tests)} of {len(m.tests)} tests fail"


def main() -> int:
    bad = 0
    for m in MUTANTS:
        verdict, why = check(m)
        bad += verdict != "killed"
        print(f"{verdict:8} {m.name} ({m.file}): {why}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
