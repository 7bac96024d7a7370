"""No function of the package calls itself, so no input is too deep."""

import ast
import copy
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

import fta
from fta import DEFAULT_SIGNATURE, Node, Var, freeze_fictive, parse_automaton, parse_term, render_term

from conftest import SAMPLE_AUTOMATON


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


LEVELS = 5000


def hand_built_chain():
    t = Var(1)
    for _ in range(LEVELS):
        t = Node("g", (t,))
    return t


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_deep_terms_copy_and_pickle(duplicate):
    parsed = parse_term("g(" * LEVELS + "x1" + ")" * LEVELS, DEFAULT_SIGNATURE)
    built = hand_built_chain()
    small = parse_term("f1(g(x1),x2)", DEFAULT_SIGNATURE)
    report = replace(freeze_fictive(parse_automaton(SAMPLE_AUTOMATON)[1], small),
                     reduced_term=built)
    for t in (parsed, built):
        copied = duplicate(t)
        assert copied == t and hash(copied) == hash(t)
        assert render_term(copied) == render_term(t)
    copied = duplicate(report)
    assert copied == report and render_term(copied.reduced_term) == render_term(built)
