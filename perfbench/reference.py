"""Independent reference checker for the answers of the ``fta`` CLI.

Nothing here calls into ``fta``.  Terms are parsed, rendered and
evaluated by the code below, bottom-up over the automaton's rule table,
and every loop is iterative so deep terms cannot exhaust the stack.

Terms are nested tuples: a variable ``x3`` is the int ``3``, a state
leaf ``@q`` is ``("@", "q")`` and an operation is ``(symbol, children)``
with ``children`` a tuple (empty for constants).

Each ``check_*`` function returns ``None`` when the answer is right and
a one-line reason when it is wrong.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property

ROOT_NAME = "ε"

_TOKEN_RE = re.compile(r"\s*(?:(@?[A-Za-z0-9_]+)|([(),]))")
_VAR_RE = re.compile(r"x([1-9][0-9]*)\Z")


@dataclass(frozen=True)
class RefAutomaton:
    """A complete deterministic automaton as a plain rule table."""

    states: tuple[str, ...]
    final: frozenset[str]
    consts: tuple[str, ...]
    rules: dict  # (symbol, tuple of argument states) -> state


# ---------------------------------------------------------------------------
# terms


def parse(text: str):
    """Parse term text (including ``@q`` state leaves) into nested tuples."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad term text at {pos}")
        tokens.append(m.group(1) or m.group(2))
        pos = m.end()
    frames: list[tuple[str, list]] = []
    result = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        i += 1
        if tok == ",":
            continue
        if tok == ")":
            sym, kids = frames.pop()
            item = (sym, tuple(kids))
        elif tok == "(":
            raise ValueError("unexpected '('")
        elif i < len(tokens) and tokens[i] == "(":
            frames.append((tok, []))
            i += 1
            continue
        elif tok.startswith("@"):
            item = ("@", tok[1:])
        else:
            m = _VAR_RE.match(tok)
            item = int(m.group(1)) if m else (tok, ())
        if frames:
            frames[-1][1].append(item)
        elif result is None:
            result = item
        else:
            raise ValueError("trailing input")
    if result is None or frames:
        raise ValueError("incomplete term")
    return result


def render(term) -> str:
    """Prefix notation, byte-compatible with the CLI's rendering."""
    out = []
    stack = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, int):
            out.append(f"x{item}")
        elif item[0] == "@":
            out.append("@" + item[1])
        else:
            sym, kids = item
            if not kids:
                out.append(sym)
                continue
            out.append(sym + "(")
            stack.append(")")
            for k, kid in enumerate(reversed(kids)):
                stack.append(kid)
                if k < len(kids) - 1:
                    stack.append(",")
    return "".join(out)


def position_name(path: tuple[int, ...]) -> str:
    return ".".join(map(str, path)) if path else ROOT_NAME


class Tree:
    """A term flattened in post-order: every node's children precede it."""

    def __init__(self, term):
        self.text = render(term)
        self.labels: list = []  # int (variable), ("@", q) or symbol
        self.kids: list[tuple[int, ...]] = []
        self.paths: list[tuple[int, ...]] = []
        self.vars_below: list[frozenset[int]] = []
        done: list[int] = []
        stack = [(term, (), False)]
        while stack:
            node, path, expanded = stack.pop()
            compound = not isinstance(node, int) and node[0] != "@"
            if compound and not expanded:
                stack.append((node, path, True))
                for j in range(len(node[1]), 0, -1):
                    stack.append((node[1][j - 1], path + (j,), False))
                continue
            if compound:
                n = len(node[1])
                kids = tuple(done[len(done) - n:]) if n else ()
                del done[len(done) - n:]
                label = node[0]
                below = frozenset().union(*(self.vars_below[k] for k in kids))
            else:
                kids = ()
                label = node
                below = frozenset([node]) if isinstance(node, int) else frozenset()
            done.append(len(self.labels))
            self.labels.append(label)
            self.kids.append(kids)
            self.paths.append(path)
            self.vars_below.append(below)
        self.root = done[0]

    @cached_property
    def by_name(self) -> dict[str, int]:
        """Node of each position, by its rendered name."""
        return {position_name(p): i for i, p in enumerate(self.paths)}

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def variables(self) -> list[int]:
        return sorted(self.vars_below[self.root])


def evaluate(aut: RefAutomaton, tree: Tree, gamma: dict[int, str]) -> list[str]:
    """The state at every node under a total assignment."""
    rules = aut.rules
    states: list = []
    for label, kids in zip(tree.labels, tree.kids):
        if isinstance(label, int):
            states.append(rules[(gamma[label], ())])
        elif isinstance(label, tuple):
            states.append(label[1])
        else:
            states.append(rules[(label, tuple(states[k] for k in kids))])
    return states


def evaluate_all(aut: RefAutomaton, tree: Tree, vs: list[int]) -> list[list[str]]:
    """State vectors of every node over all assignments to ``vs``.

    Assignment ``a`` gives ``vs[d]`` the constant at digit ``d`` of ``a``
    written in base ``len(consts)``, most significant digit first.
    """
    rules, consts = aut.rules, aut.consts
    base = len(consts)
    count = base ** len(vs)
    column = {}
    for d, v in enumerate(vs):
        weight = base ** (len(vs) - 1 - d)
        column[v] = [rules[(consts[(a // weight) % base], ())] for a in range(count)]
    vecs: list[list[str]] = []
    for label, kids in zip(tree.labels, tree.kids):
        if isinstance(label, int):
            vec = column[label]
        elif isinstance(label, tuple):
            vec = [label[1]] * count
        elif not kids:
            vec = [rules[(label, ())]] * count
        elif len(kids) == 1:
            vec = [rules[(label, (a,))] for a in vecs[kids[0]]]
        elif len(kids) == 2:
            vec = [rules[(label, ab)] for ab in zip(vecs[kids[0]], vecs[kids[1]])]
        else:
            vec = [rules[(label, args)] for args in zip(*(vecs[k] for k in kids))]
        vecs.append(vec)
    return vecs


def partial(aut: RefAutomaton, tree: Tree, gamma: dict[int, str]):
    """Reduce as far as a partial assignment allows (mixed term)."""
    done: list = []
    for label, kids in zip(tree.labels, tree.kids):
        if isinstance(label, int):
            item = ("@", aut.rules[(gamma[label], ())]) if label in gamma else label
        elif isinstance(label, tuple):
            item = label
        else:
            args = [done[k] for k in kids]
            if all(not isinstance(a, int) and a[0] == "@" for a in args):
                item = ("@", aut.rules[(label, tuple(a[1] for a in args))])
            else:
                item = (label, tuple(args))
        done.append(item)
    return done[tree.root]


def essential_flags(aut: RefAutomaton, tree: Tree, nodes=None) -> dict[int, bool]:
    """Essentiality of ``nodes`` (default: all), by a search factored per
    outer assignment.

    A node is essential iff, for some assignment of the variables outside
    its subtree, two assignments of the inner variables give different
    states both at the node and at the root.
    """
    vs = tree.variables
    base = len(aut.consts)
    count = base ** len(vs)
    vecs = evaluate_all(aut, tree, vs)
    root = vecs[tree.root]
    inner_part = {}
    for d, v in enumerate(vs):
        weight = base ** (len(vs) - 1 - d)
        inner_part[v] = [((a // weight) % base) * weight for a in range(count)]
    flags = {}
    for node in range(len(tree)) if nodes is None else nodes:
        below = tree.vars_below[node]
        if not below:
            flags[node] = False
            continue
        inner = [0] * count
        for v in below:
            inner = [x + y for x, y in zip(inner, inner_part[v])]
        groups: dict[int, set] = {}
        for a, sub, top in zip(range(count), vecs[node], root):
            groups.setdefault(a - inner[a], set()).add((sub, top))
        flags[node] = any(_separates(g) for g in groups.values())
    return flags


def _separates(pairs) -> bool:
    return any(s1 != s2 and r1 != r2 for s1, r1 in pairs for s2, r2 in pairs)


def essential_variables(aut: RefAutomaton, tree: Tree) -> set[int]:
    """Variables whose value alone can change the root state."""
    vs = tree.variables
    base = len(aut.consts)
    root = evaluate_all(aut, tree, vs)[tree.root]
    result = set()
    for d, v in enumerate(vs):
        weight = base ** (len(vs) - 1 - d)
        for a, top in enumerate(root):
            digit = (a // weight) % base
            if any(root[a + (c - digit) * weight] != top for c in range(base) if c != digit):
                result.add(v)
                break
    return result


# ---------------------------------------------------------------------------
# answer checks


def _assignment(obj: dict) -> dict[int, str]:
    return {int(k[1:]): v for k, v in obj.items()}


def check_witness(aut: RefAutomaton, tree: Tree, node: int, w: dict) -> str | None:
    """A witness must agree outside the subtree and flip subtree and root."""
    name = position_name(tree.paths[node])
    if w.get("position") != name:
        return f"witness for {w.get('position')} reported at {name}"
    g1, g2 = _assignment(w["gamma1"]), _assignment(w["gamma2"])
    allvars = set(tree.variables)
    if not allvars <= set(g1) or not allvars <= set(g2):
        return f"witness at {name} does not bind every variable"
    if any(g1[v] != g2[v] for v in allvars - tree.vars_below[node]):
        return f"witness at {name} disagrees outside the subtree"
    s1, s2 = evaluate(aut, tree, g1), evaluate(aut, tree, g2)
    sub = (s1[node], s2[node])
    top = (s1[tree.root], s2[tree.root])
    if sub != tuple(w["sub_states"]) or top != tuple(w["root_states"]):
        return f"witness at {name} reports states the run does not give"
    if sub[0] == sub[1] or top[0] == top[1]:
        return f"witness at {name} does not flip both the subtree and the root"
    return None


def check_run(aut, tree, gamma, payload) -> str | None:
    states = evaluate(aut, tree, gamma)
    if payload["verdict"] != states[tree.root]:
        return f"run result {payload['verdict']}, expected {states[tree.root]}"
    trace = payload["report"]
    if trace is not None:
        expected = {position_name(p): s for p, s in zip(tree.paths, states)}
        if trace != expected:
            return "run trace differs from the reference run"
    return None


def check_partial(aut, tree, gamma, payload) -> str | None:
    expected = render(partial(aut, tree, gamma))
    if payload["verdict"] != expected:
        return f"partial run {payload['verdict'][:60]!r}, expected {expected[:60]!r}"
    return None


def check_essential_at(aut, tree, name, code, payload) -> str | None:
    node = tree.by_name[name]
    if payload["verdict"] == "essential" and code == 0:
        return check_witness(aut, tree, node, payload["witnesses"][0])
    if payload["verdict"] == "fictive" and code == 1:
        if essential_flags(aut, tree, [node])[node]:
            return f"position {name} reported fictive but is essential"
        return None
    return f"verdict {payload['verdict']!r} with exit code {code}"


def check_report(aut, tree, payload) -> str | None:
    pos = payload["positions"]
    ess, fict = set(pos["essential"]), set(pos["fictive"])
    if ess & fict or ess | fict != set(tree.by_name):
        return "essential and fictive positions do not partition the term"
    flags = essential_flags(aut, tree)
    for name in fict:
        if flags[tree.by_name[name]]:
            return f"position {name} reported fictive but is essential"
    witnesses = {w["position"]: w for w in payload["witnesses"]}
    if set(witnesses) != ess:
        return "witnesses do not match the essential positions"
    for name in ess:
        problem = check_witness(aut, tree, tree.by_name[name], witnesses[name])
        if problem:
            return problem
    evars = {int(x[1:]) for x in pos["essential_vars"]}
    if evars != essential_variables(aut, tree):
        return "essential variables differ from the reference"
    return None


def check_prune(aut, tree, payload) -> str | None:
    report = payload["report"]
    reduced = Tree(parse(report["reduced_term"]))
    if report["original_nodes"] != len(tree) or report["reduced_nodes"] != len(reduced):
        return "node accounting differs from the terms"
    if len(reduced) > len(tree):
        return "the reduced term is larger than the original"
    vs = sorted(set(tree.variables) | set(reduced.variables))
    if evaluate_all(aut, tree, vs)[tree.root] != evaluate_all(aut, reduced, vs)[reduced.root]:
        return "the reduced term changes a run result"
    return None


def check_verify(payload) -> str | None:
    if payload["verdict"] != "pass":
        return f"suite verdict {payload['verdict']!r}"
    for name, outcome in payload["report"]["properties"].items():
        if outcome["instances_checked"] != 1 or outcome["failures"] or outcome["budget_exceeded"]:
            return f"property {name} did not pass cleanly"
    if len(payload["report"]["properties"]) != 7:
        return "the suite did not report seven properties"
    return None


#: Exit codes that carry a verdict, per command kind; any other code fails.
VALID_EXIT = {
    "verify": {0},
    "run": {0},
    "partial": {0},
    "essential_at": {0, 1},
    "essential": {0},
    "prune": {0},
}


def check_answer(kind: str, aut: RefAutomaton, tree: Tree, arg,
                 code, out: str) -> str | None:
    """Check one command's exit code and JSON output against the reference.

    ``tree`` is the command's input term (``Tree(parse(text))``).
    """
    if code not in VALID_EXIT[kind]:
        return f"exit code {code}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "output is not one JSON object"
    if payload["inputs"]["term"] != tree.text:
        return "the echoed term differs from the input"
    if kind == "verify":
        return check_verify(payload)
    if kind == "run":
        return check_run(aut, tree, arg, payload)
    if kind == "partial":
        return check_partial(aut, tree, arg, payload)
    if kind == "essential_at":
        return check_essential_at(aut, tree, arg, code, payload)
    if kind == "essential":
        return check_report(aut, tree, payload)
    return check_prune(aut, tree, payload)
