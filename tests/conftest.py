import pytest

from fta import Position, parse_automaton, parse_term, positions, run, subterm_at
from fta.terms import compile_term

# Two-state automaton over {0,1}: g negates, f1 is conjunction-like,
# f2 is disjunction-like; q1 is the only final state.
SAMPLE_AUTOMATON = """\
signature: 0/0 1/0 g/1 f1/2 f2/2
states: q0 q1
final: q1
rule: 0 -> q0
rule: 1 -> q1
rule: g(q0) -> q1
rule: g(q1) -> q0
rule: f1(q0,q0) -> q0
rule: f1(q0,q1) -> q0
rule: f1(q1,q0) -> q0
rule: f1(q1,q1) -> q1
rule: f2(q0,q0) -> q0
rule: f2(q0,q1) -> q1
rule: f2(q1,q0) -> q1
rule: f2(q1,q1) -> q1
"""

# 16-node term with four variables, two of which occur twice.
SAMPLE_TERM = "f1(g(f1(x1,x2)),f2(g(f1(x3,f1(x4,x3))),g(f1(x2,x1))))"


def P(text: str) -> Position:
    return Position.parse(text)


def PS(*texts: str) -> set:
    return {Position.parse(t) for t in texts}


def is_prefix(p: Position, q: Position) -> bool:
    """By definition: the indices of ``q`` begin with those of ``p``."""
    return p.indices == q.indices[:len(p.indices)]


def prefix_determined_by_definition(ps, qs) -> bool:
    """By definition: ``ps`` holds every member of ``qs`` that extends
    one of its own.  When ``qs`` is closed under prefixes, as a term's
    positions are, a member extends one of ``ps`` iff it is in ``ps`` or
    its parent extends one, so members are visited shortest first and
    each answer is kept for its children; any other ``qs`` is checked
    pair by pair."""
    inside = {p.indices for p in ps}
    members = {q.indices for q in qs}
    if not all(q[:-1] in members for q in members if q):
        return all(q in ps for p in ps for q in qs if is_prefix(p, q))
    extends = {}
    for q in sorted(members, key=len):  # parents first
        extends[q] = q in inside or bool(q) and extends[q[:-1]]
    return all(q in inside for q, e in extends.items() if e)


def prefix_closed(ps) -> bool:
    """By definition: every prefix of each member is a member."""
    s = set(ps)
    return all(Position(p.indices[:k]) in s for p in s for k in range(len(p.indices)))


def depth(t) -> int:
    """By definition: the length of the longest position of ``t``."""
    return max(map(len, positions(t)))


def state_at(aut, gamma, t, p: Position) -> str:
    """By definition: the state that the run of ``aut`` over ``t``
    under ``gamma`` has at ``p`` is the run's result on the subterm at
    ``p``."""
    return run(aut, gamma, subterm_at(t, p)).result


def assert_names_and_order(t):
    """Each node's name is the ``str`` of its position, and ``order``
    visits the nodes in the length-then-lexicographic order of theirs."""
    term = compile_term(t)
    assert term.names == tuple(str(p) for p in term.positions)
    assert [term.positions[i] for i in term.order] == list(positions(t))


@pytest.fixture(scope="session")
def sig_aut():
    return parse_automaton(SAMPLE_AUTOMATON)


@pytest.fixture(scope="session")
def sig(sig_aut):
    return sig_aut[0]


@pytest.fixture(scope="session")
def aut(sig_aut):
    return sig_aut[1]


@pytest.fixture(scope="session")
def term(sig):
    return parse_term(SAMPLE_TERM, sig)
