"""Modules of the package use each other only through public names."""

import ast
from pathlib import Path

import fta


def test_no_private_names_imported_across_modules():
    offences = []
    for path in sorted(Path(fta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fta")):
                offences += [f"{path.name}:{node.lineno} imports {alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert offences == []
