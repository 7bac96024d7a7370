"""Seeded random terms and automata.

Randomness comes from an in-repo splitmix64 generator so that identical
seeds give bit-identical structures on every platform and Python
version.  Generated terms are linear: each pool variable occurs at most
once, which is the territory on which all seven verified properties
are guaranteed to hold (see :mod:`fta.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .automaton import Automaton
from .terms import Node, Signature, Term, Var

#: Two constants, a unary symbol and two binary symbols; the shape used
#: throughout the examples and the default for random instances.
DEFAULT_SIGNATURE = Signature((("0", 0), ("1", 0), ("g", 1), ("f1", 2), ("f2", 2)))

#: Deepest terms :func:`random_term` draws: over the default signature
#: they average about 9·(10/9)^d nodes at depth d, some 10,000 at 64.
MAX_DEPTH = 64

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15 per step, output
    z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9; z = (z ^ z>>27) *
    0x94D049BB133111EB; z ^ z>>31 (all mod 2**64)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw from range(n) (plain modulo; the tiny bias
        is irrelevant for test-case generation)."""
        return self.next_u64() % n


@dataclass(frozen=True)
class GenParams:
    """Knobs for the generators; equal params mean identical output."""

    signature: Signature = DEFAULT_SIGNATURE
    max_depth: int = 4
    var_pool: int = 4
    state_count: int = 2
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.max_depth <= MAX_DEPTH or self.var_pool < 0 or self.state_count < 1:
            raise ValueError(f"max_depth must be in 0..{MAX_DEPTH}, var_pool >= 0"
                             " and state_count >= 1")


def random_term(params: GenParams) -> Term:
    """Well-formed term of depth at most ``max_depth``.

    Leaves are constants or variables drawn without replacement from
    ``x1..x<var_pool>``, so no variable repeats.
    """
    rng = SplitMix64(params.seed)
    sig = params.signature
    consts = sig.constants
    ops = [(name, arity) for name, arity in sig.symbols if arity > 0]
    pool = list(range(1, params.var_pool + 1))

    # Pre-order: a node draws its own choices before its children's.
    # Operations still collecting children wait here as [symbol, arity,
    # children]; a node at stack height h has max_depth - h levels left.
    open_nodes: list[list] = []
    while True:
        depth_left = params.max_depth - len(open_nodes)
        leaf = depth_left <= 0 or not ops or rng.below(3) == 0
        if not leaf:
            symbol, arity = ops[rng.below(len(ops))]
            open_nodes.append([symbol, arity, []])
            continue
        if pool and rng.below(2) == 0:
            done: Term = Var(pool.pop(rng.below(len(pool))))
        else:
            done = Node(consts[rng.below(len(consts))])
        while open_nodes:
            symbol, arity, children = open_nodes[-1]
            children.append(done)
            if len(children) < arity:
                break
            open_nodes.pop()
            done = Node(symbol, tuple(children))
        else:
            return done


def random_automaton(params: GenParams) -> Automaton:
    """Complete deterministic automaton with ``state_count`` states and a
    nonempty final set over ``params.signature``."""
    rng = SplitMix64(params.seed)
    states = tuple(f"q{i}" for i in range(params.state_count))
    rules = {}
    for symbol, arity in params.signature.symbols:
        for combo in product(states, repeat=arity):
            rules[(symbol, combo)] = states[rng.below(len(states))]
    final = frozenset(q for q in states if rng.below(2) == 0)
    if not final:
        final = frozenset({states[rng.below(len(states))]})
    return Automaton(params.signature, states, final, rules)
