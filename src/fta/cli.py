"""Command line interface.

Exit codes: 0 success / affirmative verdict, 1 negative verdict,
2 input error, 3 enumeration budget exceeded, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import codecs
import hashlib
import json
import sys
from pathlib import Path

from .automaton import (
    DEFAULT_BUDGET,
    parse_assignment,
    parse_automaton,
    partial_run,
    render_assignment,
    run,
)
from .errors import (
    EnumerationBudgetExceeded,
    FtaError,
    NotEssentialError,
    NotIndependentError,
    PremiseViolatedError,
    ValidationError,
)
from .essential import essential_positions, is_essential_subtree, is_separable
from .generate import MAX_DEPTH
from .reduction import check_reduction, freeze_fictive
from .terms import Position, compile_term, parse_term, render_term
from .verify import check_random_instances, replay_failure, verify_properties


def _assignment_json(gamma):
    return {f"x{v}": gamma[v] for v in sorted(gamma)}


def _witness_json(w, position_name):
    return {
        "position": position_name,
        "gamma1": _assignment_json(w.gamma1),
        "gamma2": _assignment_json(w.gamma2),
        "sub_states": list(w.sub_states),
        "root_states": list(w.root_states),
    }


def _emit(args, lines, *, inputs, verdict=None, witnesses=None,
          positions_out=None, report=None):
    if args.json:
        payload = {
            "command": args.cmd,
            "inputs": inputs,
            "verdict": verdict,
            "witnesses": witnesses,
            "positions": positions_out,
            "report": report,
        }
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _load_automaton(path: str):
    return parse_automaton(Path(path).read_text(encoding="utf-8"))


def _load(args):
    """The automaton, then the term, and the JSON ``inputs`` naming both."""
    sig, aut = _load_automaton(args.automaton)
    text = args.term
    if text is None:
        text = Path(args.term_file).read_text(encoding="utf-8")
    t = parse_term(text, sig)
    return aut, t, {"automaton": args.automaton, "term": render_term(t)}


def _witness_lines(w):
    return [
        f"gamma1: {render_assignment(w.gamma1)}",
        f"gamma2: {render_assignment(w.gamma2)}",
        f"subtree states: {w.sub_states[0]} {w.sub_states[1]}",
        f"root states: {w.root_states[0]} {w.root_states[1]}",
    ]


def cmd_check(args) -> int:
    inputs = {"automaton": args.automaton}
    try:
        _, aut = _load_automaton(args.automaton)
    except ValidationError as exc:
        _emit(args, exc.defects, inputs=inputs, verdict="defects", report=exc.defects)
        return 1
    line = f"complete deterministic: {len(aut.states)} states, {len(aut.rules)} rules"
    _emit(args, [line], inputs=inputs, verdict="ok",
          report={"states": len(aut.states), "rules": len(aut.rules)})
    return 0


def cmd_run(args) -> int:
    aut, t, inputs = _load(args)
    gamma = parse_assignment(args.assign, aut.signature) if args.assign else {}
    inputs["assign"] = _assignment_json(gamma)
    term = compile_term(t)
    if term.variables <= gamma.keys():
        trace = run(aut, gamma, t)
        lines = [trace.result]
        trace_json = None
        if args.trace:  # only the form that gets printed
            items = [(term.names[i], trace.states[i]) for i in term.order]
            if args.json:
                trace_json = dict(items)
            else:
                lines += [f"{name} {state}" for name, state in items]
        _emit(args, lines, inputs=inputs, verdict=trace.result, report=trace_json)
        return 0
    mixed = render_term(partial_run(aut, gamma, t))
    _emit(args, [mixed], inputs=inputs, verdict=mixed)
    return 0


def cmd_essential(args) -> int:
    aut, t, inputs = _load(args)
    if args.position is not None:
        p = Position.parse(args.position)
        inputs["position"] = str(p)
        w = is_essential_subtree(aut, t, p, budget=args.max_assignments)
        if w is None:
            _emit(args, ["fictive"], inputs=inputs, verdict="fictive")
            return 1
        _emit(args, ["essential"] + _witness_lines(w), inputs=inputs,
              verdict="essential", witnesses=[_witness_json(w, str(p))])
        return 0
    rep = essential_positions(aut, t, budget=args.max_assignments)
    essential = [str(p) for p in rep.essential_positions]
    fictive = [str(p) for p in rep.fictive_positions]
    witnesses = [rep.witnesses[p] for p in rep.essential_positions]
    lines = [
        f"essential positions: {' '.join(essential)}",
        f"fictive positions: {' '.join(fictive)}",
        "essential variables: "
        + (" ".join(f"x{v}" for v in sorted(rep.essential_vars)) or "(none)"),
    ]
    for name, w in zip(essential, witnesses):
        lines.append(
            f"witness {name}: gamma1 {render_assignment(w.gamma1)}"
            f" | gamma2 {render_assignment(w.gamma2)}"
            f" | sub {w.sub_states[0]},{w.sub_states[1]}"
            f" | root {w.root_states[0]},{w.root_states[1]}"
        )
    _emit(args, lines, inputs=inputs, verdict="report",
          witnesses=[_witness_json(w, name) for name, w in zip(essential, witnesses)],
          positions_out={
              "essential": essential,
              "fictive": fictive,
              "essential_vars": [f"x{v}" for v in sorted(rep.essential_vars)],
          })
    return 0


def cmd_separable(args) -> int:
    aut, t, inputs = _load(args)
    ys = [Position.parse(p) for p in args.set.split(",") if p.strip()]
    zs = None
    if args.wrt is not None:
        zs = [Position.parse(p) for p in args.wrt.split(",") if p.strip()]
    inputs["set"] = [str(p) for p in ys]
    inputs["wrt"] = None if zs is None else [str(p) for p in zs]
    result = is_separable(aut, t, ys, zs, budget=args.max_assignments)
    if result.separable:
        _emit(args, [f"separable: {render_assignment(result.witness)}"], inputs=inputs,
              verdict="separable", witnesses=_assignment_json(result.witness))
        return 0
    _emit(args, ["not separable"], inputs=inputs, verdict="not separable")
    return 1


def cmd_prune(args) -> int:
    aut, t, inputs = _load(args)
    rep = freeze_fictive(aut, t, budget=args.max_assignments)
    original, reduced = rep.original_nodes, rep.reduced_nodes
    saved = 1.0 - reduced / original
    frozen = [str(p) for p in rep.frozen_positions]
    reduced_text = render_term(rep.reduced_term)
    if reduced == original:
        lines = ["no reduction"]
    else:
        det = "none" if rep.determining_position is None else str(rep.determining_position)
        lines = [
            f"determining: {det}"
            f" | reduced: {reduced_text}"
            f" | nodes {original}→{reduced} ({saved * 100:.1f}% saved)"
        ]
        if frozen:
            lines.append(f"frozen positions: {' '.join(frozen)}")
    soundness = None
    if args.verify:
        checked = check_reduction(aut, t, rep, budget=args.max_assignments)
        lines.append(f"soundness: OK ({checked} assignments)")
        soundness = {"checked_assignments": checked}
    _emit(args, lines, inputs=inputs,
          verdict="reduced" if reduced < original else "no reduction",
          positions_out={
              "determining": None if rep.determining_position is None
              else str(rep.determining_position),
              "frozen": frozen,
          },
          report={"original_nodes": original, "reduced_nodes": reduced,
                  "saved_fraction": saved,
                  "reduced_term": reduced_text,
                  "soundness": soundness})
    return 0


def _report_lines(report):
    lines = []
    for name, outcome in report.outcomes.items():
        extra = (f", {outcome.budget_exceeded} budget-exceeded"
                 if outcome.budget_exceeded else "")
        lines.append(f"{name}: {outcome.instances_checked} checked,"
                     f" {len(outcome.failures)} failures{extra}")
    return lines


def _report_json(report):
    return {
        name: {
            "instances_checked": o.instances_checked,
            "failures": [f.to_dict() for f in o.failures],
            "budget_exceeded": o.budget_exceeded,
        }
        for name, o in report.outcomes.items()
    }


def _dump_failures(report, directory: str) -> list[str]:
    paths = []
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for outcome in report.outcomes.values():
        for failure in outcome.failures:
            blob = failure.to_json()
            digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
            path = out / f"{failure.prop}-{digest}.json"
            path.write_text(blob, encoding="utf-8")
            paths.append(str(path))
    return paths


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_verify(args) -> int:
    # the instance comes from exactly one source: one given, drawn (--random) or replayed
    replay = args.replay is not None
    if args.random and replay:
        return _usage_error("--random and --replay cannot be combined")
    if (args.random or replay) and any(
            a is not None for a in (args.automaton, args.term, args.term_file)):
        flag = "--random" if args.random else "--replay"
        return _usage_error(f"{flag} cannot be combined with an automaton or a term")
    inputs = {}
    if replay:
        blob = Path(args.replay).read_text(encoding="utf-8")
        report = replay_failure(blob, budget=args.max_assignments)
        inputs = {"replay": args.replay}
    elif args.random:
        report = check_random_instances(
            seed=args.seed, count=args.count, max_depth=args.max_depth,
            var_pool=args.max_vars, max_states=args.max_states,
            budget=args.max_assignments)
        inputs = {"seed": args.seed, "count": args.count}
    else:
        if args.automaton is None or (args.term is None and args.term_file is None):
            return _usage_error("need an automaton and a term, or --random/--replay")
        aut, t, inputs = _load(args)
        report = verify_properties(aut, t, budget=args.max_assignments)

    lines = _report_lines(report)
    artifact_paths = []
    if report.total_failures:
        if args.replay is None:
            artifact_paths = _dump_failures(report, args.failure_dir)
            lines.append("failure artifacts: " + " ".join(artifact_paths))
        for outcome in report.outcomes.values():
            lines.extend(f"FAIL {outcome.name}: {f.detail}" for f in outcome.failures)
    else:
        lines.append("all properties passed")
    _emit(args, lines, inputs=inputs,
          verdict="pass" if report.total_failures == 0 else "fail",
          report={"properties": _report_json(report), "artifacts": artifact_paths})
    if report.total_failures:
        return 1
    if report.total_budget_exceeded:
        return 3
    return 0


def _at_least(minimum: int, at_most: int | None = None):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fta",
        description="Runs, essential-subtree analysis and pruning for "
                    "complete deterministic bottom-up tree automata.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    commands = {}
    for name, func, help_text in (
            ("check", cmd_check, "validate completeness and determinism"),
            ("run", cmd_run, "run the automaton over a term"),
            ("essential", cmd_essential, "essential/fictive analysis"),
            ("separable", cmd_separable, "separability of a set of essential positions"),
            ("prune", cmd_prune,
             "freeze fictive subtrees / truncate to a determining subtree"),
            ("verify", cmd_verify, "run the property suite")):
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--max-assignments", type=_at_least(1), default=DEFAULT_BUDGET,
                       metavar="N",
                       help="cap on each search, checked up front; a witness search "
                            "at a position counts k^(outer + 2*inner) candidate pairs")
        if name != "check":
            # verify can draw its instances (--random) or replay one instead
            src = p.add_mutually_exclusive_group(required=name != "verify")
            src.add_argument("-t", "--term", help="term text")
            src.add_argument("-f", "--term-file", help="file containing the term")
        p.add_argument("automaton", nargs="?" if name == "verify" else None)

    p = commands["run"]
    p.add_argument("--assign", default="", metavar="x1=c,...",
                   help="assignment; partial assignments yield a mixed term")
    p.add_argument("--trace", action="store_true", help="print the state at every position")
    commands["essential"].add_argument("--position", metavar="P",
                                       help="classify one position only")
    p = commands["separable"]
    p.add_argument("--set", required=True, metavar="P1,P2,...",
                   help="positions that must stay essential")
    p.add_argument("--wrt", metavar="Q1,Q2,...",
                   help="independent essential positions to fix (default: all "
                        "positions independent of the set)")
    commands["prune"].add_argument("--verify", action="store_true",
                                   help="re-check the reduction exhaustively")
    p = commands["verify"]
    p.add_argument("--random", action="store_true", help="check seeded random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(0), default=100)
    p.add_argument("--max-depth", type=_at_least(0, MAX_DEPTH), default=4)
    p.add_argument("--max-vars", type=_at_least(0), default=4)
    p.add_argument("--max-states", type=_at_least(1), default=3)
    p.add_argument("--failure-dir", default="fta-failures",
                   help="where failure artifacts are written")
    p.add_argument("--replay", metavar="FILE", help="re-run a failure artifact")
    return parser


def _restore_or_escape(exc: UnicodeError) -> tuple[str | bytes, int]:
    """Codec error handler for encoding: a lone surrogate U+DC80–U+DCFF
    is written back as the byte it stands for, as ``surrogateescape``
    does, and any other character the encoding cannot hold is
    backslash-escaped, as ``backslashreplace`` does; one character per
    call."""
    if not isinstance(exc, UnicodeEncodeError):
        raise exc
    c = exc.object[exc.start]
    if "\udc80" <= c <= "\udcff":
        return bytes([ord(c) - 0xDC00]), exc.start + 1
    return c.encode("ascii", "backslashreplace").decode("ascii"), exc.start + 1


#: The name :func:`_restore_or_escape` is registered under.
RESTORE_OR_ESCAPE = "fta.surrogateescape-backslashreplace"
codecs.register_error(RESTORE_OR_ESCAPE, _restore_or_escape)

#: What the process's own stdout switches to, by its error handler, so
#: that it escapes what it cannot encode (ε, →), as stderr does.
_STDOUT_ERRORS = {"strict": "backslashreplace", "surrogateescape": RESTORE_OR_ESCAPE}


def main(argv=None) -> int:
    # a replaced stdout (StringIO, a capture) is left alone
    errors = sys.stdout is sys.__stdout__ and _STDOUT_ERRORS.get(getattr(sys.stdout, "errors", None))
    if errors:
        sys.stdout.reconfigure(errors=errors)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotEssentialError, NotIndependentError, PremiseViolatedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FtaError, OSError, UnicodeDecodeError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
