"""Command line interface.

Exit codes: 0 success / affirmative verdict, 1 negative verdict,
2 input error, 3 enumeration budget exceeded, 4 precondition violation.
"""

from __future__ import annotations

import argparse
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


def _emit(args, lines, *, command, inputs, verdict=None, witnesses=None,
          positions_out=None, report=None):
    if args.json:
        payload = {
            "command": command,
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
    text = Path(path).read_text(encoding="utf-8")
    return parse_automaton(text)


def _load_term(args, sig):
    if args.term is not None:
        return parse_term(args.term, sig)
    text = Path(args.term_file).read_text(encoding="utf-8")
    return parse_term(text, sig)


def _witness_lines(w):
    return [
        f"gamma1: {render_assignment(w.gamma1)}",
        f"gamma2: {render_assignment(w.gamma2)}",
        f"subtree states: {w.sub_states[0]} {w.sub_states[1]}",
        f"root states: {w.root_states[0]} {w.root_states[1]}",
    ]


def cmd_check(args) -> int:
    try:
        sig, aut = _load_automaton(args.automaton)
    except ValidationError as exc:
        _emit(args, exc.defects, command="check",
              inputs={"automaton": args.automaton},
              verdict="defects", report=exc.defects)
        return 1
    line = f"complete deterministic: {len(aut.states)} states, {len(aut.rules)} rules"
    _emit(args, [line], command="check", inputs={"automaton": args.automaton},
          verdict="ok", report={"states": len(aut.states), "rules": len(aut.rules)})
    return 0


def cmd_run(args) -> int:
    sig, aut = _load_automaton(args.automaton)
    t = _load_term(args, sig)
    gamma = parse_assignment(args.assign, sig) if args.assign else {}
    term = compile_term(t)
    inputs = {"automaton": args.automaton, "term": render_term(t),
              "assign": _assignment_json(gamma)}
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
        _emit(args, lines, command="run", inputs=inputs, verdict=trace.result,
              report=trace_json)
        return 0
    mixed = render_term(partial_run(aut, gamma, t))
    _emit(args, [mixed], command="run", inputs=inputs, verdict=mixed)
    return 0


def cmd_essential(args) -> int:
    sig, aut = _load_automaton(args.automaton)
    t = _load_term(args, sig)
    inputs = {"automaton": args.automaton, "term": render_term(t)}
    if args.position is not None:
        p = Position.parse(args.position)
        inputs["position"] = str(p)
        w = is_essential_subtree(aut, t, p, budget=args.max_assignments)
        if w is None:
            _emit(args, ["fictive"], command="essential", inputs=inputs, verdict="fictive")
            return 1
        _emit(args, ["essential"] + _witness_lines(w), command="essential",
              inputs=inputs, verdict="essential", witnesses=[_witness_json(w, str(p))])
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
    _emit(args, lines, command="essential", inputs=inputs, verdict="report",
          witnesses=[_witness_json(w, name) for name, w in zip(essential, witnesses)],
          positions_out={
              "essential": essential,
              "fictive": fictive,
              "essential_vars": [f"x{v}" for v in sorted(rep.essential_vars)],
          })
    return 0


def cmd_separable(args) -> int:
    sig, aut = _load_automaton(args.automaton)
    t = _load_term(args, sig)
    ys = [Position.parse(p) for p in args.set.split(",") if p.strip()]
    zs = None
    if args.wrt is not None:
        zs = [Position.parse(p) for p in args.wrt.split(",") if p.strip()]
    inputs = {"automaton": args.automaton, "term": render_term(t),
              "set": [str(p) for p in ys],
              "wrt": None if zs is None else [str(p) for p in zs]}
    result = is_separable(aut, t, ys, zs, budget=args.max_assignments)
    if result.separable:
        _emit(args, [f"separable: {render_assignment(result.witness)}"],
              command="separable", inputs=inputs, verdict="separable",
              witnesses=_assignment_json(result.witness))
        return 0
    _emit(args, ["not separable"], command="separable", inputs=inputs,
          verdict="not separable")
    return 1


def cmd_prune(args) -> int:
    sig, aut = _load_automaton(args.automaton)
    t = _load_term(args, sig)
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
    _emit(args, lines, command="prune",
          inputs={"automaton": args.automaton, "term": render_term(t)},
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


def cmd_verify(args) -> int:
    inputs = {}
    if args.replay is not None:
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
            print("error: need an automaton and a term, or --random/--replay",
                  file=sys.stderr)
            return 2
        sig, aut = _load_automaton(args.automaton)
        t = _load_term(args, sig)
        report = verify_properties(aut, t, budget=args.max_assignments)
        inputs = {"automaton": args.automaton, "term": render_term(t)}

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
    _emit(args, lines, command="verify", inputs=inputs,
          verdict="pass" if report.total_failures == 0 else "fail",
          report={"properties": _report_json(report), "artifacts": artifact_paths})
    if report.total_failures:
        return 1
    if report.total_budget_exceeded:
        return 3
    return 0


def _at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--max-depth", type=_at_least(0), default=4)
    p.add_argument("--max-vars", type=_at_least(0), default=4)
    p.add_argument("--max-states", type=_at_least(1), default=3)
    p.add_argument("--failure-dir", default="fta-failures",
                   help="where failure artifacts are written")
    p.add_argument("--replay", metavar="FILE", help="re-run a failure artifact")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotEssentialError, NotIndependentError, PremiseViolatedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FtaError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
