"""End-to-end benchmark of the fta CLI, with an optional traced run.

Usage::

    python3 perfbench/run.py --workload {suite,wide,big} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload is a closed loop with one client in this process: the next
command starts when the previous one returns.  A command is one call of
``fta.cli.main([...])`` with stdout captured.  Inputs are generated from
``--seed`` into a temporary directory under ``.perfbench_tmp/`` of the
checkout and removed afterwards.  Every answer is checked by
``reference.py`` after the timed phase.

``--trace 0`` runs the loop until its commands have taken ``--seconds``
and reports the end-to-end metrics and measured properties of the
inputs.  ``--trace 1`` runs a fixed prefix of the same commands three
times, untraced, traced (see ``tracer.py``) and untraced again, times
cold starts of the CLI, probes deep unary chains, reports the per-layer
metrics and writes the spans to ``.perfbench_out/``.

Timings are reported at a fixed machine speed.  The speed of a shared
machine drifts by a factor of up to two within minutes, so a fixed piece
of pure-Python work from ``reference.py`` (see :class:`Speed`) is timed
next to every block of commands, and each timing is scaled by
``CAL_REF_S`` over the calibration time measured around it.
``--workload all`` runs both modes of every workload in child processes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
COLD_RUNS = 15

#: Calibration: seconds the fixed work takes at the reported speed (its
#: median on the machine of trajectory.json's first point), and seconds
#: of commands between two calibrations.
CAL_REF_S = 0.0125
BLOCK_S = 0.25
WORKLOAD_NAMES = ("suite", "wide", "big")

#: Per-layer metrics: (traced function, statistics reported for it).
LAYER_STATS = (
    ("automaton.run", ("calls", "self_s", "raised")),
    ("automaton.parse_automaton", ("self_s",)),
    ("automaton.partial_run", ("self_s",)),
    ("automaton.canonical_ground", ("self_s",)),
    *((f"terms.{f}", ("calls", "self_s")) for f in (
        "parse_term", "render_term", "positions", "variables", "subterm_at", "substitute")),
    *((f"essential.{f}", ("calls", "total_s")) for f in (
        "essential_positions", "is_essential_subtree", "essential_vars", "is_separable")),
    *((f"reduction.{f}", ("calls", "total_s")) for f in (
        "freeze_fictive", "determining_subtree", "runs_equal_all")),
    *((f"verify.{f}", ("calls", "total_s")) for f in (
        "verify_properties", "essential_by_definition")),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "count", "raised": "count", "self_s": "s", "total_s": "s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the fta CLI.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_fta():
    """Import fta from this checkout's ``src``; exit if it is not there."""
    if not (SRC / "fta" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fta sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fta
    import fta.cli

    if Path(fta.__file__).resolve().parent != SRC / "fta":
        sys.exit(f"perfbench: imported fta from {fta.__file__}, not from {SRC}")
    return fta.cli


# ---------------------------------------------------------------------------
# one command


def call(cli, argv) -> tuple[object, str]:
    """Run one CLI command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed command, not a benchmark error
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def check_results(workload, results) -> tuple[int, list[str]]:
    """Check every answer once per distinct (command, exit code, output)."""
    from reference import Tree, check_answer, parse

    verdicts: dict = {}
    trees: dict[int, Tree] = {}
    failed = 0
    problems = []
    for idx, code, out in results:
        key = (idx, code, out)
        if key not in verdicts:
            op = workload.ops[idx]
            inst = workload.instances[op.instance]
            if op.instance not in trees:
                trees[op.instance] = Tree(parse(inst.term_text))
            try:
                verdicts[key] = check_answer(op.kind, inst.aut, trees[op.instance], op.arg,
                                             code, out)
            except Exception as exc:  # malformed output the checker cannot read
                verdicts[key] = f"unreadable answer ({type(exc).__name__}: {exc})"
            if verdicts[key] and len(problems) < 5:
                problems.append(f"{op.argv[0]} #{idx}: {verdicts[key]}")
        failed += verdicts[key] is not None
    return failed, problems


# ---------------------------------------------------------------------------
# machine speed, set-up, timed loop, cold starts


class Speed:
    """Times a fixed piece of pure-Python work: the reference evaluator
    under every assignment of an 8-variable term, over a 3-state
    automaton, both drawn from a fixed seed.  Nothing in it depends on
    fta, so a change to fta cannot change it."""

    def __init__(self):
        import random

        from reference import Tree, evaluate_all
        from workloads import linear_term, random_automaton

        rng = random.Random("calibration")
        tree = Tree(linear_term(rng, 8, False))
        aut = random_automaton(rng, 3)
        self._work = lambda: evaluate_all(aut, tree, list(range(1, 9)))
        self.samples: list[float] = []

    def measure(self) -> float:
        t = time.perf_counter()
        for _ in range(20):
            self._work()
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(seconds, before, after):
        """``seconds`` at the reported speed, given the calibrations taken
        just before and just after them."""
        return seconds * 2 * CAL_REF_S / (before + after)

    def scale_by_mean(self, seconds):
        """``seconds`` at the reported speed, given the mean of every
        calibration so far."""
        return seconds * CAL_REF_S / statistics.fmean(self.samples)


def set_up(cli, name, seed, seconds, tmp, speed):
    """Generate the inputs SETUP_REPEATS times, write them once, warm up.

    Returns the workload, set-up time in wall seconds and a line
    describing its parts.  Set-up time is the import of fta (paid once,
    from process start) plus the median generation plus warm-up.  Writing
    the input files is left out: its cost depends on what the filesystem
    did in the last minutes (on the machine of trajectory.json the same
    files took 0.07 s in one process and 1 s in the next), not on fta.
    The caller scales set-up time by the mean of every calibration in the
    process (:meth:`Speed.scale_by_mean`): the machine's speed flips
    between two levels several times a second, so the few calibrations
    taken here say less about the speed of a part than all of them.
    """
    from workloads import prepare

    import_s = time.perf_counter() - PROCESS_START
    speed.measure()
    gen_times, digests, workload = [], set(), None
    for _ in range(SETUP_REPEATS):
        workload = None  # each generation starts from the same, collected heap
        gc.collect()
        t = time.perf_counter()
        workload = prepare(name, seed, seconds, tmp / "inputs")
        gen_times.append(time.perf_counter() - t)
        digests.add(workload.digest)
        speed.measure()
    if len(digests) != 1:
        sys.exit("perfbench: the same seed produced different inputs")
    t = time.perf_counter()
    workload.write_files()
    write_s = time.perf_counter() - t
    t = time.perf_counter()
    call(cli, ("check", workload.ops[0].argv[1], "--json"))
    call(cli, workload.ops[0].argv)
    warm_s = time.perf_counter() - t
    parts = (f"set-up: import {import_s:.3f} s, generations "
             + ", ".join(f"{x:.3f}" for x in gen_times)
             + f" s, warm-up {warm_s:.3f} s; writing {len(workload.files)} files "
             f"{write_s:.3f} s (not counted)")
    return workload, import_s + statistics.median(gen_times) + warm_s, parts


def timed_loop(cli, ops, speed, seconds=math.inf, count=math.inf, tracer=None):
    """Closed loop over ``ops`` (cycling if exhausted) until the commands
    have run for ``seconds`` or ``count`` commands have run, calibrating
    after every BLOCK_S of commands.

    Returns (results, latencies, busy seconds): latencies are scaled by
    CAL_REF_S over the mean of the calibrations before and after their
    block; busy seconds are wall time.
    """
    results, latencies = [], []
    perf = time.perf_counter
    busy = 0.0
    i = 0
    before = speed.measure()
    while busy < seconds and i < count:
        block, block_end = [], min(busy + BLOCK_S, seconds)
        while busy < block_end and i < count:
            idx = i % len(ops)
            if tracer is not None:
                tracer.current_command = idx
            t = perf()
            code, out = call(cli, ops[idx].argv)
            latency = perf() - t
            busy += latency
            block.append(latency)
            results.append((idx, code, out))
            i += 1
        after = speed.measure()
        latencies += [speed.scale(x, before, after) for x in block]
        before = after
    return results, latencies, busy


def cold_starts(aut_path) -> tuple[list[float], int]:
    """Wall times of COLD_RUNS runs of ``python -m fta.cli check AUT``, each
    in a fresh interpreter, and how many gave a wrong answer.  One more
    run before them is not counted: it may write bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "fta.cli", "check", str(aut_path)]
    times, failed = [], 0
    for _ in range(COLD_RUNS + 1):
        t = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - t)
        failed += proc.returncode != 0 or not proc.stdout.startswith("complete deterministic")
    return times[1:], failed


def workload_properties(workload, results, latencies) -> list[str]:
    """Measured properties of the commands a run covered."""
    ops = [workload.ops[idx] for idx, _, _ in results]
    kinds = Counter(op.kind for op in ops)
    lines = ["command mix: " + ", ".join(f"{k} {v / len(ops):.1%}" for k, v in kinds.items())]
    if workload.name == "wide":
        counts = Counter()
        for idx, code, out in set(results):
            positions = json.loads(out)["positions"]
            counts["essential"] += len(positions["essential"])
            counts["fictive"] += len(positions["fictive"])
        total = sum(counts.values())
        lines.append(f"positions: {counts['essential'] / total:.1%} essential, "
                     f"{counts['fictive'] / total:.1%} fictive")
    if workload.name == "big":
        chains = sum(workload.instances[op.instance].label.startswith("chain") for op in ops)
        lines.append(f"deep-chain commands: {chains / len(ops):.1%}")
    if len(latencies) >= 100:
        cuts = statistics.quantiles(latencies, n=100)
        lines.append(f"latency skew: p50 {cuts[49] * 1000:.2f} ms, p99 {cuts[98] * 1000:.2f} ms, "
                     f"p99/p50 {cuts[98] / cuts[49]:.1f}")
    return lines


def deep_chain_probe(cli, tmp, depths=None) -> list[tuple[int, str | None]]:
    """Run ``fta run`` on unary chains of the given depths (by default
    PROBE_DEPTHS); returns (depth, the checker's objection or None)."""
    from reference import Tree, check_answer, parse
    from workloads import PROBE_DEPTHS, chain_commands

    outcomes = []
    for depth, argv, aut, gamma, text in chain_commands(tmp, depths or PROBE_DEPTHS):
        code, out = call(cli, argv)
        outcomes.append((depth, check_answer("run", aut, Tree(parse(text)), gamma, code, out)))
    return outcomes


# ---------------------------------------------------------------------------
# modes


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_end_to_end(cli, name, seed, seconds, tmp):
    speed = Speed()
    workload, unscaled_setup_s, setup_parts = set_up(cli, name, seed, seconds, tmp, speed)
    results, latencies, busy = timed_loop(cli, workload.ops, speed, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = check_results(workload, results)
    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8] if n >= 2 else latencies[0]
    info = [
        f"inputs: sha256 {workload.digest} ({len(workload.instances)} instances, "
        f"{len(workload.ops)} commands in the pool)",
        f"timed: {n} commands in {busy:.3f} s wall, {sum(latencies):.3f} s scaled; "
        f"{sum(x > p90 for x in latencies)} beyond p90"
        + ("" if n >= 100 else " (fewer than 100 samples: p90 is weak)"),
        f"pool passes: {n / len(workload.ops):.2f}",
        f"{setup_parts}; unscaled {unscaled_setup_s:.3f} s",
        f"calibration: {len(speed.samples)} samples, "
        f"median {statistics.median(speed.samples) * 1000:.2f} ms "
        f"(reference {CAL_REF_S * 1000:g} ms), unscaled {n / busy:.2f} commands/s",
    ]
    info += ["property: " + line for line in workload_properties(workload, results, latencies)]
    metrics = {
        "setup_s": metric(speed.scale_by_mean(unscaled_setup_s), "s"),
        "ops_per_s": metric(n / sum(latencies), "1/s"),
        "op_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": metric(p90 * 1000, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return info + problems, {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
    }


def trace_ops(name, seconds) -> int:
    """Commands in the traced prefix: about a third of a run's worth at
    the seed commit's rate, fixed by the workload and ``--seconds`` alone
    so exact counts repeat."""
    from workloads import SEED_RATE

    return max(10, math.ceil(SEED_RATE[name] * seconds / 3))


def run_traced(cli, name, seed, seconds, tmp):
    """Run the prefix untraced, traced and untraced again; the overhead
    compares the traced pass with the mean of the two untraced ones, so
    neither warm-up nor a drift of machine speed favours one side."""
    from tracer import Tracer

    speed = Speed()
    workload, _, _ = set_up(cli, name, seed, seconds, tmp, speed)
    k = trace_ops(name, seconds)
    tracer = Tracer()
    results, passes = [], []
    for traced in (False, True, False):
        with tracer if traced else contextlib.nullcontext():
            out, latencies, _ = timed_loop(cli, workload.ops, speed, count=k,
                                           tracer=tracer if traced else None)
        results += out
        passes.append(sum(latencies))
    untraced_s, traced_s = (passes[0] + passes[2]) / 2, passes[1]
    failed, problems = check_results(workload, results)
    colds, cold_failed = cold_starts(workload.ops[0].argv[1])
    chains = deep_chain_probe(cli, tmp)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}-seed{seed}.tsv.gz"
    tracer.write(span_file)
    stats = tracer.aggregate()
    metrics = {}
    for fname, wanted in LAYER_STATS:
        for stat in wanted:
            metrics[f"{fname}.{stat}"] = metric(stats[fname][stat], UNITS[stat])
    metrics["automaton.run.calls_per_op"] = metric(stats["automaton.run"]["calls"] / k, "calls/op")
    metrics["reduction.determining_subtree.calls_per_op"] = metric(
        stats["reduction.determining_subtree"]["calls"] / k, "calls/op")
    rea = stats["reduction.runs_equal_all"]
    metrics["reduction.runs_equal_all.true_ratio"] = metric(
        rea["returned_true"] / rea["calls"] if rea["calls"] else 0.0, "ratio")
    metrics["trace.overhead_frac"] = metric(traced_s / untraced_s - 1, "ratio")
    metrics["cli.cold_start_ms"] = metric(statistics.median(colds) * 1000, "ms")
    metrics["deep_chain.max_ok_depth"] = metric(
        max((depth for depth, problem in chains if problem is None), default=0), "levels")
    info = [
        f"inputs: sha256 {workload.digest}",
        f"traced prefix: {k} commands; scaled seconds untraced {passes[0]:.3f}, "
        f"traced {passes[1]:.3f}, untraced {passes[2]:.3f}; "
        f"{len(tracer)} spans written to {span_file.relative_to(ROOT)}",
    ]
    info += [f"deep-chain probe: depth {depth}: "
             + ("ok" if problem is None else f"fails ({problem})") for depth, problem in chains]
    return info + problems, {
        "correct": failed == 0 and cold_failed == 0,
        "attempted": 3 * k + len(colds),
        "failed": failed + cold_failed,
        "metrics": metrics,
    }


def run_all(seed, seconds) -> dict:
    """Both modes of every workload, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"perfbench: {name} --trace {trace} failed:\n{proc.stderr}")
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                print(line)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    if hasattr(os, "sched_setaffinity"):
        # One client on one CPU: moving between CPUs measurably adds noise.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cli = load_fta()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        WORK.mkdir(exist_ok=True)
        mode = run_traced if args.trace else run_end_to_end
        with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=WORK) as tmp:
            info, result = mode(cli, args.workload, args.seed, args.seconds, Path(tmp))
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        for line in info:
            print(f"  {line}")
        for key, m in result["metrics"].items():
            print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
