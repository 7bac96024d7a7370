"""Modules of the package use each other only through public names, and
the runtime imports nothing outside the standard library."""

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
