"""By-definition references for the term, automaton and command line
parsers.

``parse_term_by_characters`` is a character-at-a-time tokenizer and a
parse loop that builds every node through the public constructors, the
way the package parsed terms before it scanned tokens with one regular
expression.  ``automaton_defects`` assembles an automaton from
structured parts and lists its defects with the full ``product`` walk
over every argument tuple of every symbol.  ``build_cli_parser`` is
the command line parser as it was written before one table declared the
subcommands: two parent parsers for the common options and the term
source, and each subcommand's arguments spelled out.  The tests compare
the package's parsers with these.
"""

import argparse
import re
from itertools import product

from fta import (
    DEFAULT_BUDGET,
    ArityMismatchError,
    Node,
    StateLeaf,
    TermSyntaxError,
    UnknownSymbolError,
    Var,
)
from fta.cli import cmd_check, cmd_essential, cmd_prune, cmd_run, cmd_separable, cmd_verify

VAR_RE = re.compile(r"x([1-9][0-9]*)\Z")


def byte_offset(text, i):
    """Length in UTF-8 bytes of ``text[:i]``; a lone surrogate from a
    command-line byte counts as that byte, any other as three bytes."""
    try:
        return len(text[:i].encode("utf-8", "surrogateescape"))
    except UnicodeEncodeError:
        return len(text[:i].encode("utf-8", "surrogatepass"))


def tokenize(text):
    """``(kind, text, character index)`` per token, one character at a
    time: whitespace is ``str.isspace``, a name character is
    ``str.isalnum`` or ``_``."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "(),":
            toks.append((ch, ch, i))
            i += 1
        elif ch == "@":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise TermSyntaxError("'@' must be followed by a state name",
                                      byte_offset(text, i))
            toks.append(("state", text[i:j], i))
            i = j
        elif ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        else:
            raise TermSyntaxError(f"unexpected character {ch!r}", byte_offset(text, i))
    return toks


def parse_term_by_characters(text, sig, allow_state_leaves=False):
    """``(term, canonical text)``, or the error the package's parser
    must raise: the whole text is tokenized first, then parsed."""
    toks = tokenize(text)
    toks.append(("end", "", len(text)))

    def fail(cls, message, char_index):
        raise cls(message, byte_offset(text, char_index))

    if len(toks) == 1:
        fail(TermSyntaxError, "empty input", 0)
    open_nodes = []
    i = 0
    while True:
        kind, value, at = toks[i]
        i += 1
        if kind == "name":
            if m := VAR_RE.match(value):
                done = Var(int(m.group(1)))
            elif (arity := sig.arity(value)) is None:
                fail(UnknownSymbolError, f"unknown symbol {value!r}", at)
            elif arity == 0:
                if toks[i][0] == "(":
                    fail(ArityMismatchError, f"{value} is a constant and takes no arguments", at)
                done = Node(value)
            elif toks[i][0] != "(":
                fail(ArityMismatchError, f"{value} expects {arity} arguments", at)
            else:
                i += 1
                open_nodes.append([value, arity, at, []])
                continue
        elif kind == "state" and allow_state_leaves:
            done = StateLeaf(value[1:])
        elif kind == "state":
            fail(TermSyntaxError, f"state leaf {value} not allowed here", at)
        else:
            found = "end of input" if kind == "end" else repr(value)
            fail(TermSyntaxError, f"expected a term, found {found}", at)
        while open_nodes:
            symbol, arity, start, args = open_nodes[-1]
            args.append(done)
            kind, value, at = toks[i]
            i += 1
            if kind == ",":
                break
            if kind != ")":
                found = "end of input" if kind == "end" else repr(value)
                fail(TermSyntaxError, f"expected ',' or ')', found {found}", at)
            if len(args) != arity:
                fail(ArityMismatchError,
                     f"{symbol} expects {arity} arguments, got {len(args)}", start)
            open_nodes.pop()
            done = Node(symbol, tuple(args))
        else:
            kind, value, at = toks[i]
            if kind != "end":
                fail(TermSyntaxError, f"unexpected trailing input {value!r}", at)
            return done, "".join(tok[1] for tok in toks)


def lhs(symbol, args):
    return symbol if not args else f"{symbol}({','.join(args)})"


def automaton_defects(sig, states, final, rules):
    """Defects of the automaton with declared ``states`` (duplicates
    kept), ``final`` states and ``rules``, a list of ``(symbol, args,
    target)`` in file order: ``(assembly, checks, assembled)``, where
    ``assembly`` lists those met while the rules are assembled into
    ``assembled`` and ``checks`` the final states outside Q, sorted,
    then every argument tuple of the distinct ``states``, in declaration
    order, without a rule, found by walking them all."""
    assembly = []
    if len(set(states)) != len(states):
        assembly.append("duplicate state declarations")
    assembled = {}
    for symbol, args, target in rules:
        arity = sig.arity(symbol)
        if arity is None:
            assembly.append(f"unknown symbol in rule: {symbol}")
        elif len(args) != arity:
            assembly.append(f"rule arity mismatch: {lhs(symbol, args)} (arity {arity})")
        elif any(q not in states for q in (*args, target)):
            assembly.append(f"unknown state in rule: {lhs(symbol, args)} -> {target}")
        elif (symbol, args) not in assembled:
            assembled[(symbol, args)] = target
        elif assembled[(symbol, args)] != target:
            assembly.append(f"nondeterministic: {lhs(symbol, args)} -> "
                            f"{assembled[(symbol, args)]} / {target}")
    checks = [f"final state not in Q: {q}" for q in sorted(set(final) - set(states))]
    for symbol, arity in sig.symbols:
        for combo in product(dict.fromkeys(states), repeat=arity):
            if (symbol, combo) not in assembled:
                checks.append(f"missing: {lhs(symbol, combo)}")
    return assembly, checks, assembled


def _at_least(minimum: int, at_most: int | None = None):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}")
        return value
    return integer


def build_cli_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fta",
        description="Runs, essential-subtree analysis and pruning for "
                    "complete deterministic bottom-up tree automata.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--max-assignments", type=_at_least(1), default=DEFAULT_BUDGET,
                        metavar="N",
                        help="cap on each search, checked up front; a witness search "
                             "at a position counts k^(outer + 2*inner) candidate pairs")

    term_src = argparse.ArgumentParser(add_help=False)
    group = term_src.add_mutually_exclusive_group(required=True)
    group.add_argument("-t", "--term", help="term text")
    group.add_argument("-f", "--term-file", help="file containing the term")

    p = sub.add_parser("check", parents=[common],
                       help="validate completeness and determinism")
    p.add_argument("automaton")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", parents=[common, term_src],
                       help="run the automaton over a term")
    p.add_argument("automaton")
    p.add_argument("--assign", default="", metavar="x1=c,...",
                   help="assignment; partial assignments yield a mixed term")
    p.add_argument("--trace", action="store_true", help="print the state at every position")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("essential", parents=[common, term_src],
                       help="essential/fictive analysis")
    p.add_argument("automaton")
    p.add_argument("--position", metavar="P", help="classify one position only")
    p.set_defaults(func=cmd_essential)

    p = sub.add_parser("separable", parents=[common, term_src],
                       help="separability of a set of essential positions")
    p.add_argument("automaton")
    p.add_argument("--set", required=True, metavar="P1,P2,...",
                   help="positions that must stay essential")
    p.add_argument("--wrt", metavar="Q1,Q2,...",
                   help="independent essential positions to fix (default: all "
                        "positions independent of the set)")
    p.set_defaults(func=cmd_separable)

    p = sub.add_parser("prune", parents=[common, term_src],
                       help="freeze fictive subtrees / truncate to a determining subtree")
    p.add_argument("automaton")
    p.add_argument("--verify", action="store_true",
                   help="re-check the reduction exhaustively")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("verify", parents=[common],
                       help="run the property suite")
    p.add_argument("automaton", nargs="?")
    src = p.add_mutually_exclusive_group()
    src.add_argument("-t", "--term", help="term text")
    src.add_argument("-f", "--term-file", help="file containing the term")
    p.add_argument("--random", action="store_true", help="check seeded random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(0), default=100)
    p.add_argument("--max-depth", type=_at_least(0, 64), default=4)
    p.add_argument("--max-vars", type=_at_least(0), default=4)
    p.add_argument("--max-states", type=_at_least(1), default=3)
    p.add_argument("--failure-dir", default="fta-failures",
                   help="where failure artifacts are written")
    p.add_argument("--replay", metavar="FILE", help="re-run a failure artifact")
    p.set_defaults(func=cmd_verify)

    return parser
