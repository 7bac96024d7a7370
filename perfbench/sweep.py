"""Scaling sweep of the fta CLI (not gated; run it by hand).

Usage::

    python3 perfbench/sweep.py

Times ``fta essential`` (full report) and ``fta prune`` in-process
along three axes, each point the median of REPEATS runs on inputs drawn
from SEED:

* variables: linear terms with 4 to 11 variables, balanced and left-comb,
  over the README's boolean automaton and a random 2-state one;
* nodes: non-linear terms of 50 to 400 nodes over 3 variables;
* states: random automata with 2 to 5 states on an 8-variable balanced
  term.

Points where the default enumeration budget is hit (exit code 3) are
marked ``budget``.  A fourth axis runs ``fta run`` on unary chains of
growing depth and marks where the command fails.  Every answer is
checked with the reference checker.  The last line is JSON.
"""

import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run as bench
from reference import Tree, check_answer
from workloads import (automaton_text, boolean_automaton, linear_term, nonlinear_term,
                       random_automaton, render)

SEED = 0
REPEATS = 3
VARIABLES = range(4, 12)
NODES = (50, 100, 200, 300, 400)
STATES = (2, 3, 4, 5)
DEPTHS = (100, 200, 300, 320, 340, 400, 600, 900, 1200)


def measure(cli, directory, tag, aut, term, commands):
    """Median ms per command kind, or 'budget' / 'fail' markers."""
    aut_path = directory / f"{tag}.fta"
    aut_path.write_text(automaton_text(aut), encoding="utf-8")
    term_path = directory / f"{tag}.term"
    text = render(term)
    term_path.write_text(text, encoding="utf-8")
    point = {}
    for kind in commands:
        argv = (kind, str(aut_path), "-f", str(term_path), "--json")
        times, outcome = [], None
        for _ in range(REPEATS):
            t = time.perf_counter()
            code, out = bench.call(cli, argv)
            times.append(time.perf_counter() - t)
            if code == 3:
                outcome = "budget"
                break
            problem = check_answer(kind, aut, Tree(term), None, code, out)
            if problem:
                outcome = f"fail: {problem}"
                break
        point[kind] = outcome or round(statistics.median(times) * 1000, 3)
    return point


def main() -> int:
    cli = bench.load_fta()
    rng = random.Random(f"sweep:{SEED}")
    points = []

    def report(axis, value, detail, point):
        points.append({"axis": axis, "value": value, "detail": detail, **point})
        cells = "  ".join(f"{k} {v if isinstance(v, str) else f'{v:.1f} ms'}"
                          for k, v in point.items())
        print(f"{axis:9s} {value:>5}  {detail:22s} {cells}", flush=True)

    bench.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="sweep-", dir=bench.WORK) as tmp:
        tmp = Path(tmp)
        for n in VARIABLES:
            for comb in (False, True):
                term = linear_term(rng, n, comb)
                for label, aut in (("boolean", boolean_automaton()),
                                   ("random-2", random_automaton(rng, 2))):
                    report("variables", n, f"{'comb' if comb else 'balanced'} {label}",
                           measure(cli, tmp, "v", aut, term, ("essential", "prune")))
        for size in NODES:
            term = nonlinear_term(rng, size, 3)
            report("nodes", size, "3 vars random-2",
                   measure(cli, tmp, "n", random_automaton(rng, 2), term,
                           ("essential", "prune")))
        term = linear_term(rng, 8, False)
        for k in STATES:
            report("states", k, "8 vars balanced",
                   measure(cli, tmp, "s", random_automaton(rng, k), term,
                           ("essential", "prune")))
        for depth, problem in bench.deep_chain_probe(cli, tmp, DEPTHS):
            report("depth", depth, "unary chain", {"run": "ok" if problem is None
                                                   else f"fail: {problem}"})
    print(json.dumps({"seed": SEED, "repeats": REPEATS, "points": points}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
