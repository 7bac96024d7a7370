"""Modules of the package use each other only through public names, use
every name they import, and import nothing outside the standard
library."""

import ast
import sys
from pathlib import Path

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
