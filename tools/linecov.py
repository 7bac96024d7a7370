"""List every statement of ``src/fta`` that the test suite never executes.

Usage::

    python tools/linecov.py [extra pytest arguments]

It needs nothing beyond the standard library and pytest: pytest runs
in this process under a ``sys.settrace`` (and ``threading.settrace``)
hook that records the lines executed in ``src/fta``.
``tests/test_cli_fuzz.py`` draws random inputs, so it is left out and
the output is stable.  Each statement no traced line falls in is
printed as ``file:line statement``; the exit status is pytest's.  The
suite runs about 2.5 times slower under the hook than without it.

A statement counts as executed when a line it spans, outside the
statements nested in it, is.  Docstrings and other bare constants,
``global``/``nonlocal`` declarations and ``try`` headers compile to no
line of their own, so they are not listed.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fta"

_NO_LINE = (ast.Global, ast.Nonlocal, ast.Try)


def _statements(tree: ast.AST):
    """Each statement that compiles to a line of its own, with the lines
    it spans outside the statements nested in it."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_LINE):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler, ast.match_case)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        yield node, own


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # so pytest reads its test paths from pyproject.toml
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    package = str(PACKAGE)
    hits: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        lines = hits.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    class Retrace:
        """A test can take the hook away (Python drops a hook that
        raises, and a library may set its own); name the test and put
        the hook back before the next one."""

        @staticmethod
        def pytest_runtest_teardown(item):
            if sys.gettrace() is not trace:
                print(f"\nlinecov: tracing was lost in {item.nodeid}", file=sys.stderr)
                sys.settrace(trace)

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--ignore", "tests/test_cli_fuzz.py", *argv], plugins=[Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        executed = hits.get(str(path), set())
        for node, own in sorted(_statements(ast.parse(source)), key=lambda s: s[0].lineno):
            if not own & executed:
                print(f"{path.relative_to(ROOT)}:{node.lineno} {lines[node.lineno - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
