"""No function of the package calls itself, so no input is too deep."""

import ast
from pathlib import Path

import fta


def self_calls(tree):
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                yield fn.name, node.lineno
            elif (isinstance(f, ast.Attribute) and f.attr == fn.name
                  and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                yield fn.name, node.lineno


def test_no_function_calls_itself():
    offences = []
    for path in sorted(Path(fta.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offences += [f"{path.name}:{line} {name} calls itself" for name, line in self_calls(tree)]
    assert offences == []


def test_detects_direct_and_method_self_calls():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n    def m(self):\n        return self.m()\n"
        "class E(Exception):\n    def __init__(self):\n        super().__init__()\n"
    )
    assert [name for name, _ in self_calls(ast.parse(source))] == ["f", "m"]
