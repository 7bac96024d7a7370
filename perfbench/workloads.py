"""Seeded inputs for the benchmark workloads.

Every workload turns ``--seed`` into a list of CLI commands plus the
automaton and term files they read.  The same seed always gives
byte-identical files and commands; :func:`prepare` returns a digest of
both so two runs can show they used the same inputs.

* ``suite``: ``fta verify AUT -t TERM`` per instance, drawn exactly as
  ``fta verify --random`` draws them (same splitmix64 sequence, depth
  at most 4, at most 4 variables, at most 3 states, default signature).
* ``wide``: ``fta essential AUT -t TERM`` (the full report) on linear
  terms with 7 to 10 variables, balanced or left-comb, over structured
  and random automata.  Enumeration is 2^variables, so this is the
  exponential wall.
* ``big``: non-linear terms of 60 to 250 nodes over 2 to 4 variables,
  each instance getting ``run`` (total and partial) and ``essential
  --position`` at three positions, those of at most 100 nodes also
  ``prune`` (see ``PRUNE_MAX_NODES``); every sixth instance is a deep
  unary chain that only gets the ``run`` commands.

Every run covers the same mix on every seed: wide and big cycle through
a fixed, seed-independent shuffle of their parameter grid, and suite
orders its draws by rank against seed 0's (see :func:`gen_suite`).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from reference import RefAutomaton, Tree, position_name, render

SYMBOLS = (("0", 0), ("1", 0), ("g", 1), ("f1", 2), ("f2", 2))
CONSTS = ("0", "1")
BINARY = ("f1", "f2")

#: Commands per second each workload completes at the seed commit on one
#: core; pools hold 1.25 times what a run of ``--seconds`` consumes.
SEED_RATE = {"suite": 75.0, "wide": 11.0, "big": 65.0}
POOL_FACTOR = 1.25

#: Deep chains stay below the depth at which the seed commit's recursive
#: ``run`` / ``render_term`` fail, so no timed command fails; chains up to
#: four times deeper are probed separately (see :func:`chain_commands`).
CHAIN_DEPTHS = (200, 300)
PROBE_DEPTHS = (300, 400, 600, 900, 1200)


@dataclass(frozen=True)
class Op:
    """One CLI command and what the reference checker needs for it."""

    argv: tuple[str, ...]
    kind: str
    instance: int
    arg: object = None


@dataclass(frozen=True)
class Instance:
    label: str
    aut: RefAutomaton
    term_text: str


@dataclass
class Workload:
    name: str
    instances: list[Instance]
    ops: list[Op]
    digest: str
    files: dict[Path, str]  # input file -> its text; see write_files

    def write_files(self) -> None:
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# automata


def automaton_text(aut: RefAutomaton) -> str:
    lines = [
        "signature: " + " ".join(f"{n}/{a}" for n, a in SYMBOLS),
        "states: " + " ".join(aut.states),
        "final: " + " ".join(q for q in aut.states if q in aut.final),
    ]
    for sym, arity in SYMBOLS:
        for combo in product(aut.states, repeat=arity):
            lhs = f"{sym}({','.join(combo)})" if combo else sym
            lines.append(f"rule: {lhs} -> {aut.rules[(sym, combo)]}")
    return "\n".join(lines) + "\n"


def _table(states, table) -> RefAutomaton:
    rules = {}
    for sym, arity in SYMBOLS:
        for combo in product(range(len(states)), repeat=arity):
            rules[(sym, tuple(states[i] for i in combo))] = states[table(sym, combo)]
    return RefAutomaton(tuple(states), frozenset([states[1]]), CONSTS, rules)


def boolean_automaton() -> RefAutomaton:
    """The README's automaton: g is not, f1 is and, f2 is or."""
    ops = {"0": lambda: 0, "1": lambda: 1, "g": lambda a: 1 - a,
           "f1": lambda a, b: a & b, "f2": lambda a, b: a | b}
    return _table(("q0", "q1"), lambda sym, args: ops[sym](*args))


def parity_automaton() -> RefAutomaton:
    """Parity: g is not, f1 is xor, f2 is xnor; every variable matters."""
    ops = {"0": lambda: 0, "1": lambda: 1, "g": lambda a: 1 - a,
           "f1": lambda a, b: a ^ b, "f2": lambda a, b: 1 - (a ^ b)}
    return _table(("q0", "q1"), lambda sym, args: ops[sym](*args))


def random_automaton(rng: random.Random, n_states: int) -> RefAutomaton:
    states = tuple(f"q{i}" for i in range(n_states))
    rules = {}
    for sym, arity in SYMBOLS:
        for combo in product(states, repeat=arity):
            rules[(sym, combo)] = states[rng.randrange(n_states)]
    final = frozenset(q for q in states if rng.random() < 0.5) or frozenset([states[0]])
    return RefAutomaton(states, final, CONSTS, rules)


# ---------------------------------------------------------------------------
# terms (nested tuples, see reference.py)


def linear_term(rng: random.Random, n_vars: int, comb: bool):
    """Linear term over x1..xn with 1-3 constant leaves and 0-2 unary g's."""
    leaves = list(range(1, n_vars + 1)) + [(rng.choice(CONSTS), ())
                                           for _ in range(rng.randint(1, 3))]
    rng.shuffle(leaves)
    n_nodes = 2 * len(leaves) - 1
    wrapped = set(rng.sample(range(n_nodes), rng.randint(0, 2)))
    counter = iter(range(n_nodes))

    def mark(t):
        return ("g", (t,)) if next(counter) in wrapped else t

    def balanced(items):
        if len(items) == 1:
            return mark(items[0])
        mid = len(items) // 2
        left, right = balanced(items[:mid]), balanced(items[mid:])
        return mark((rng.choice(BINARY), (left, right)))

    if not comb:
        return balanced(leaves)
    acc = mark(leaves[0])
    for leaf in leaves[1:]:
        acc = mark((rng.choice(BINARY), (acc, mark(leaf))))
    return acc


def nonlinear_term(rng: random.Random, size: int, n_vars: int):
    """Random term of exactly ``size`` nodes where every variable of
    x1..xn occurs at least twice."""
    while True:
        counts = [0] * (n_vars + 1)

        def leaf():
            if rng.random() < 0.75:
                v = rng.randint(1, n_vars)
                counts[v] += 1
                return v
            return (rng.choice(CONSTS), ())

        def build(n):
            if n == 1:
                return leaf()
            if n == 2 or rng.random() < 0.15:
                return ("g", (build(n - 1),))
            left = rng.randint(1, n - 2)
            return (rng.choice(BINARY), (build(left), build(n - 1 - left)))

        term = build(size)
        if min(counts[1:]) >= 2:
            return term


def chain_term(depth: int):
    term = ("f1", (1, ("f2", (2, ("0", ())))))
    for _ in range(depth):
        term = ("g", (term,))
    return term


# ---------------------------------------------------------------------------
# instance generators: each yields (label, automaton, automaton text, term
# text, term given as a file?, [(kind, arg)])


def _assign_text(gamma: dict[int, str]) -> str:
    return ",".join(f"x{v}={gamma[v]}" for v in sorted(gamma))


def _suite_draws(seed: int, count: int) -> list:
    """The first ``count`` instances ``fta verify --random --seed N`` checks,
    each as (cost key, automaton, term)."""
    from fta import DEFAULT_SIGNATURE, GenParams, SplitMix64, random_term
    from fta import node_count, random_automaton, variables

    rng = SplitMix64(seed)
    draws = []
    for k in range(count):
        state_count = 1 + rng.below(3)
        term_seed = rng.next_u64()
        aut_seed = rng.next_u64()
        t = random_term(GenParams(DEFAULT_SIGNATURE, 4, 4, state_count, term_seed))
        aut = random_automaton(GenParams(DEFAULT_SIGNATURE, 4, 4, state_count, aut_seed))
        draws.append(((len(variables(t)), node_count(t), state_count, k), aut, t))
    return draws


def gen_suite(seed: int, count: int):
    """The first ``count`` draws of ``fta verify --random --seed <seed>``,
    ordered by rank against the seed-0 stream.

    Cost per instance is mostly set by its variable count, size and state
    count (together they explain over 90 % of the variance).  Slot k of
    every pool gets the seed's draw whose rank by that key equals the rank
    of seed 0's draw k, so a run that covers part of the pool covers the
    same cost mix on every seed.  Seed 0 gets the plain stream.
    """
    from fta import render_automaton, render_term

    slots = [key[-1] for key, _, _ in sorted(_suite_draws(0, count), key=lambda d: d[0])]
    draws = sorted(_suite_draws(seed, count), key=lambda d: d[0])
    pool = [None] * count
    for slot, draw in zip(slots, draws):
        pool[slot] = draw
    for key, aut, t in pool:
        ref = RefAutomaton(aut.states, aut.final, aut.signature.constants, dict(aut.rules))
        label = "vars={} nodes={} states={}".format(*key[:3])
        yield label, ref, render_automaton(aut), render_term(t), False, [("verify", None)]


def _grid(name: str, *axes):
    """Every combination of the axes, in a fixed seed-independent shuffle,
    so any prefix of a pool mixes the cells evenly and identically."""
    cells = list(product(*axes))
    random.Random(f"{name}-grid").shuffle(cells)
    return cells


WIDE_GRID = _grid("wide", (7, 8, 9, 10), (False, True),
                  ("boolean", "parity", "random2", "random3", "random4"))


def gen_wide(seed: int, count: int):
    rng = random.Random(f"wide:{seed}")
    for i in range(count):
        n_vars, comb, kind = WIDE_GRID[i % len(WIDE_GRID)]
        if kind == "boolean":
            aut = boolean_automaton()
        elif kind == "parity":
            aut = parity_automaton()
        else:
            aut = random_automaton(rng, int(kind[-1]))
        term = linear_term(rng, n_vars, comb)
        label = f"vars={n_vars} {'comb' if comb else 'balanced'} {kind}"
        yield label, aut, automaton_text(aut), render(term), False, [("essential", None)]


BIG_GRID = _grid("big", (60, 100, 140, 180, 220, 250), (2, 3, 4), (2, 3, 4))

#: ``prune`` goes only to the terms of at most this many nodes (a third of
#: the ordinary instances).  Its cost grows with the square of the term
#: size and varies tenfold between terms of one size, so prunes of larger
#: terms made throughput move by a sixth between seeds; at a third of the
#: instances prunes stay about 6 % of the commands and p90 falls among
#: the other commands rather than on the edge of the prune distribution.
PRUNE_MAX_NODES = 100


def gen_big(seed: int, count: int):
    rng = random.Random(f"big:{seed}")
    for i in range(count):
        if i % 6 == 5:
            aut = random_automaton(rng, 2 + i // 6 % 3)
            depth = rng.randint(*CHAIN_DEPTHS)
            term = chain_term(depth)
            n_vars = 2
            label = f"chain depth={depth}"
        else:
            size, n_vars, n_states = BIG_GRID[(i - i // 6) % len(BIG_GRID)]
            aut = random_automaton(rng, n_states)
            term = nonlinear_term(rng, size, n_vars)
            label = f"nodes={size} vars={n_vars} states={n_states}"
        total = {v: rng.choice(CONSTS) for v in range(1, n_vars + 1)}
        unbound = rng.randint(1, n_vars)
        part = {v: c for v, c in total.items() if v != unbound}
        specs = [("run", total), ("partial", part)]
        if i % 6 != 5:
            names = [position_name(p) for p in Tree(term).paths]
            specs += [("essential_at", name) for name in rng.sample(names, 3)]
            if size <= PRUNE_MAX_NODES:
                specs.append(("prune", None))
        yield label, aut, automaton_text(aut), render(term), True, specs


GENERATORS = {"suite": gen_suite, "wide": gen_wide, "big": gen_big}
WORKLOADS = tuple(GENERATORS)


def pool_size(name: str, seconds: float) -> int:
    """Instances in the pool: POOL_FACTOR times what a run consumes at
    the seed commit's rate."""
    per_instance = {"suite": 1, "wide": 1, "big": 4.8}[name]
    return max(12, math.ceil(SEED_RATE[name] * seconds * POOL_FACTOR / per_instance))


def prepare(name: str, seed: int, seconds: float, directory: Path) -> Workload:
    """Generate the pool for ``name``, with its input files placed under
    ``directory``; nothing is written until :meth:`Workload.write_files`."""
    files: dict[Path, str] = {}
    digest = hashlib.sha256()
    instances: list[Instance] = []
    ops: list[Op] = []
    failure_dir = str(directory / "failures")
    aut_paths: dict[str, Path] = {}
    for k, (label, aut, aut_text, term_text, as_file, specs) in enumerate(
            GENERATORS[name](seed, pool_size(name, seconds))):
        aut_path = aut_paths.get(aut_text)
        if aut_path is None:
            aut_path = aut_paths[aut_text] = directory / f"a{len(aut_paths):05d}.fta"
            files[aut_path] = aut_text
            digest.update(aut_path.name.encode() + b"\0" + aut_text.encode() + b"\0")
        if as_file:
            term_path = directory / f"t{k:05d}.term"
            files[term_path] = term_text
            digest.update(term_path.name.encode() + b"\0" + term_text.encode() + b"\0")
            term_args = ("-f", str(term_path))
        else:
            term_args = ("-t", term_text)
        instances.append(Instance(label, aut, term_text))
        for kind, arg in specs:
            argv = _argv(kind, arg, str(aut_path), term_args, failure_dir)
            digest.update("\0".join(argv).replace(str(directory), "$DIR").encode() + b"\n")
            ops.append(Op(argv, kind, k, arg))
    return Workload(name, instances, ops, digest.hexdigest(), files)


def _argv(kind, arg, aut_path, term_args, failure_dir) -> tuple[str, ...]:
    if kind == "verify":
        return ("verify", aut_path, *term_args, "--json", "--failure-dir", failure_dir)
    if kind == "run":
        return ("run", aut_path, *term_args, "--assign", _assign_text(arg), "--trace", "--json")
    if kind == "partial":
        return ("run", aut_path, *term_args, "--assign", _assign_text(arg), "--json")
    if kind == "essential_at":
        return ("essential", aut_path, *term_args, "--position", arg, "--json")
    return (kind, aut_path, *term_args, "--json")


def chain_commands(directory: Path, depths) -> list[tuple]:
    """``run`` commands on unary chains of the given depths, over the
    boolean automaton, as (depth, argv, automaton, assignment, term text).

    Deep chains expose the seed commit's recursion limit in ``run``,
    ``render_term`` and the parser; they are run outside the timed loop.
    """
    aut = boolean_automaton()
    aut_path = directory / "chain.fta"
    aut_path.write_text(automaton_text(aut), encoding="utf-8")
    gamma = {1: "0", 2: "1"}
    commands = []
    for depth in depths:
        text = render(chain_term(depth))
        term_path = directory / f"chain{depth}.term"
        term_path.write_text(text, encoding="utf-8")
        argv = ("run", str(aut_path), "-f", str(term_path), "--assign", _assign_text(gamma),
                "--json")
        commands.append((depth, argv, aut, gamma, text))
    return commands

