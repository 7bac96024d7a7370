"""Modules of the package use each other only through public names, use
every name they import, and import nothing outside the standard
library.  Runs are made, and budgets checked, only where the design
says."""

import ast
import sys
from pathlib import Path

import pytest

import fta

MODULES = sorted(Path(fta.__file__).parent.glob("*.py"))


def test_no_private_names_imported_across_modules():
    offences = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fta")):
                offences += [f"{path.name}:{node.lineno} imports {alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert offences == []


def test_the_automaton_does_not_know_positions():
    """Runs give states by node id, so ``fta.automaton`` imports nothing
    of the position layer."""
    path = Path(fta.__file__).parent / "automaton.py"
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported & {"Position", "PositionSet", "positions"} == set()


def test_runtime_imports_only_the_standard_library():
    offences = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offences += [f"{path.name}:{node.lineno} imports {name}" for name in names
                         if name.split(".")[0] not in sys.stdlib_module_names]
    assert offences == []


def test_every_imported_name_is_used():
    """``__init__.py`` imports to export, and ``from __future__`` names
    features, so both are exempt."""
    offences = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            offences += [f"{path.name}:{node.lineno} imports {name} unused" for name in bound
                         if name not in used]
    assert offences == []


def functions_using(is_use) -> set[str]:
    """``module.function`` (``module.Class.method`` for a method) of each
    top-level function or method of the package whose body, nested
    functions included, holds a node that ``is_use`` accepts.  A node
    outside every function counts as ``module`` (``module.Class`` in a
    class body)."""
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{d.name}" if isinstance(d, ast.FunctionDef) else top.name, d)
                        for d in top.body]
            else:
                defs = [(top.name if isinstance(top, ast.FunctionDef) else None, top)]
            found |= {".".join(filter(None, (path.stem, name)))
                      for name, d in defs if any(map(is_use, ast.walk(d)))}
    return found


def calls(name: str):
    def is_call(node) -> bool:
        return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                      getattr(node.func, "attr", None))
    return is_call


# the exhaustive re-checks: they must not read the analysis they check
RECHECKS = {"essential.WitnessPair.verify", "reduction.runs_equal_all",
            "reduction.check_reduction", "verify.essential_by_definition"}


def test_only_the_analysis_and_the_rechecks_make_runs():
    """Every analysis reads its runs from ``essential.Analysis``, and the
    exhaustive re-checks make their own, so they check it independently."""
    assert functions_using(calls("run")) == {
        "essential.Analysis._run", "cli.cmd_run", "essential.WitnessPair.verify",
        "reduction.runs_equal_all", "verify.essential_by_definition"}
    assert functions_using(calls("analysis")) & RECHECKS == set()
    assert functions_using(calls("Analysis")) == {"essential.analysis"}


def test_only_the_analysis_and_the_enumerations_check_budgets():
    def raises_budget(node) -> bool:
        return isinstance(node, ast.Raise) and calls("EnumerationBudgetExceeded")(node.exc)
    assert functions_using(raises_budget) == {
        "essential.Analysis._afford", "automaton.enumerate_assignments",
        "verify.essential_by_definition"}


def test_only_bounded_walks_take_products_of_states_or_constants():
    """``itertools.product`` grows as a power of its input, so only walks
    whose size is checked against a budget or :func:`fta.automaton._exceeds`
    beforehand, or that build a complete automaton, call it.  Everything
    else reads the rules an automaton has.  The analysis numbers
    assignments in one lazy helper, whose callers check their budget
    before they enumerate, and the exhaustive re-checks enumerate through
    :func:`fta.automaton.enumerate_assignments`."""
    assert functions_using(calls("product")) == {
        "automaton._assemble", "automaton.enumerate_assignments",
        "essential.Analysis._numbering", "generate.random_automaton"}


#: The start of each kind of automaton defect message.
DEFECT_PREFIXES = ("unknown symbol in rule", "rule arity mismatch", "unknown state in rule",
                   "nondeterministic:", "final state not in Q", "missing:")


@pytest.mark.parametrize("prefix", DEFECT_PREFIXES)
def test_each_defect_message_is_built_in_one_function(prefix):
    """The :class:`fta.Automaton` constructor lists an automaton's
    defects, for itself and for parsing, through one function, so each
    message has one wording."""
    def starts_message(node) -> bool:
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith(prefix))
    places = functions_using(starts_message)
    assert len(places) == 1, places
