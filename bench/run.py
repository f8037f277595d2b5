"""Benchmark of curvelift, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload search_equiv --seed 1 --seconds 15 --trace 0

The untraced mode (--trace 0) prints the end-to-end metrics; the traced mode
(--trace 1) wraps curvelift's layers (see spans.py) and prints the per-layer
metrics.  Either way the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
report the run, one line per failed operation.  setup_s is timed on fresh
processes that run with --setup-only.  Results and span dumps are written
under .bench_out/ in the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 5  # fresh processes whose set-up time setup_s is the median of
TAIL_BEYOND = 10
MODULES = ("errors", "surfaces", "snf", "homology", "words", "hnn", "diagrams", "lifting", "moves", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    for layer in ("moves.canonical_key", "moves.applicable_moves", "moves.apply_move",
                  "moves.canonical_transform", "moves.invert_move", "lifting.lift_class",
                  "words.conjugacy_class_key", "diagrams.shadow_word", "snf.smith_normal_form",
                  "snf.AbelianGroup.from_relation_matrix", "homology.bundle_h1",
                  "words.dehn_reduce", "words.cyclic_dehn_reduce", "words.conjugate_classes_equal",
                  "hnn.britton_reduce", "diagrams.parse", "diagrams.validate"):
        add(f"{layer}.calls", "count")
        add(f"{layer}.s", "s")
    add("moves.canonical_key.distinct", "count")
    add("moves.canonical_key.distinct_ratio", "ratio", "higher")
    add("moves.applicable_moves.moves_out", "count")
    add("moves.apply_move.inapplicable", "count")
    add("moves.apply_move.applied_ratio", "ratio", "higher")
    add("moves.equivalent_bounded.s", "s")
    add("moves.certificate.moves", "count")
    add("snf.smith_normal_form.max_bits", "bits")
    add("words.dehn_reduce.letters_in", "count")
    add("hnn.britton_reduce.t_letters_in", "count")
    add("cli.interpreter_s", "s")
    add("cli.import_s", "s")
    add("cli.main_s", "s")
    add("trace.overhead", "ratio")
    add("trace.uncovered_s", "s")
    return out


class SetupError(Exception):
    pass


def import_curvelift():
    """Import curvelift from the checkout's src/ and return its modules as
    one namespace."""
    init = os.path.join(SRC, "curvelift", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no curvelift package at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("curvelift")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.dirname(init):
        raise SetupError(f"curvelift imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"curvelift.{m}") for m in MODULES})


def set_up(workload, seed):
    """Everything a run does before its first timed operation: the import,
    the inputs from the seed and the parsed fixtures."""
    import workloads as W

    cl = import_curvelift()
    os.makedirs(OUT_DIR, exist_ok=True)
    return cl, W.WORKLOADS[workload](cl, seed, {"root": ROOT, "out_dir": OUT_DIR})


def setup_seconds(workload, seed):
    """Median, over fresh processes, of the time from starting the process to
    the point where its first operation would be timed."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as child:
            ready = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
            code = child.wait(timeout=60)
        if ready.strip() != "ready" or code != 0:
            raise SetupError(f"set-up in a fresh process failed (exit {code})")
    return statistics.median(times)


def time_call(call):
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failed operation is timed and reported like any other
        out = exc
    return out, time.perf_counter() - t0


def comparable(out):
    return (type(out).__name__, str(out)) if isinstance(out, Exception) else out


class Results:
    """Outcomes of every operation attempt of a run."""

    def __init__(self, ops):
        self.ops = ops
        self.times = [[] for _ in ops]
        self.reference = [None] * len(ops)
        self.failures = [None] * len(ops)  # reason an op failed in its first attempt
        self.known = [False] * len(ops)  # its failure shows the op's known fault
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []

    def record(self, i, out, seconds):
        op = self.ops[i]
        self.attempted += 1
        self.times[i].append(seconds)
        if not self.times[i][:-1]:  # first attempt: full check
            self.reference[i] = comparable(out)
            if isinstance(out, Exception):
                reason = f"{type(out).__name__}: {out}"
            else:
                try:
                    reason = op.check(out)
                except Exception as exc:  # a check that cannot run is a wrong output
                    reason = f"check raised {type(exc).__name__}: {exc}"
            self.failures[i] = reason
            self.known[i] = reason is not None and op.fault is not None and op.fault.shows_in(out)
            if reason is not None and not self.known[i]:
                self.incorrect.append(f"{op.name}: {reason}")
        elif comparable(out) != self.reference[i]:
            self.incorrect.append(f"{op.name}: output differs from its first attempt")
            self.failures[i] = self.failures[i] or "output differs from its first attempt"
            self.known[i] = False
        if self.failures[i] is not None:
            self.failed += 1

    def report(self):
        """One line per failing operation, naming the fault it shows, and one
        line per known fault that no operation shows any more."""
        lines = [f"attempted {self.attempted}, failed {self.failed}"]
        for i, op in enumerate(self.ops):
            if self.failures[i] is not None:
                label = f"fault {op.fault.label}" if self.known[i] else "unexpected failure"
                lines.append(f"FAILED {op.name} x{len(self.times[i])} ({label}): {self.failures[i]}")
        faults = {op.fault for op in self.ops if op.fault is not None}
        shown = {op.fault for op, known in zip(self.ops, self.known) if known}
        lines += [f"MENDED no operation shows the fault {f.label}" for f in faults - shown]
        lines += [f"INCORRECT {reason}" for reason in self.incorrect]
        return lines


def round_order(ops):
    """Operation indices of one round.  Operation i is attempted
    ``ops[i].attempts`` times, its attempts spread evenly over the round, so
    that an operation's least time does not hang on one moment of the
    machine."""
    n = len(ops)
    return [i for _, i in sorted(((j + (i + 0.5) / n) / op.attempts, i)
                                 for i, op in enumerate(ops) for j in range(op.attempts))]


def run_round(ops, results, call_of=None):
    """Attempt every operation as often as round_order says; returns the
    summed time of the calls."""
    total = 0.0
    for i in round_order(ops):
        op = ops[i]
        out, seconds = time_call(call_of(i, op) if call_of else op.call)
        results.record(i, out, seconds)
        total += seconds
    return total


def run_rounds(ops, results, seconds, call_of=None):
    """Whole rounds until ``seconds`` have passed; returns the round times."""
    end = time.perf_counter() + seconds
    rounds = []
    while not rounds or time.perf_counter() < end:
        rounds.append(run_round(ops, results, call_of))
    return rounds


def best_times(results):
    """Each operation's least time over the rounds: the attempt the machine
    disturbed least."""
    return sorted(min(t) for t in results.times)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def subprocess_seconds(argv, env):
    """Median wall time of five runs of a Python child process."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracer, n_attempts, overhead, cli_figures):
    from spans import LayerStats

    def get(layer):
        return tracer.stats.get(layer) or LayerStats()

    values = {}
    for name, _, _ in per_layer_metrics():
        layer, _, quantity = name.rpartition(".")
        if quantity in ("calls", "s"):
            values[name] = get(layer).calls if quantity == "calls" else get(layer).self_s
    key = get("moves.canonical_key")
    apply = get("moves.apply_move")
    distinct = len(key.keys or ())
    values.update({
        "moves.certificate.moves": get("moves.equivalent_bounded").quantity,
        "moves.canonical_key.distinct": distinct,
        "moves.canonical_key.distinct_ratio": distinct / key.calls if key.calls else 0.0,
        "moves.applicable_moves.moves_out": get("moves.applicable_moves").quantity,
        "moves.apply_move.inapplicable": apply.quantity,
        "moves.apply_move.applied_ratio": (apply.calls - apply.quantity) / apply.calls if apply.calls else 0.0,
        "snf.smith_normal_form.max_bits": get("snf.smith_normal_form").quantity,
        "words.dehn_reduce.letters_in": get("words.dehn_reduce").quantity,
        "hnn.britton_reduce.t_letters_in": get("hnn.britton_reduce").quantity,
        "trace.overhead": overhead,
        "trace.uncovered_s": get("op").self_s / n_attempts,
        **cli_figures,
    })
    return values


def layer_shares(tracer):
    op = tracer.stats["op"]
    total = op.total_s or 1.0
    lines = []
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        label = "not covered by any span" if name == "op" else name
        lines.append(f"  {100 * st.self_s / total:6.2f}%  {label}  ({st.calls} calls)")
    return lines


def main(argv=None) -> int:
    import workloads as W
    from spans import Tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit: the process that setup_s times")
    args = parser.parse_args(argv)
    cl, prepared = set_up(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        if prepared.cleanup:
            prepared.cleanup()
        return 0

    ops = prepared.ops
    results = Results(ops)
    lines = [f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, "
             f"{len(round_order(ops))} attempts per round"]
    try:
        if not args.trace:
            rounds = run_rounds(ops, results, args.seconds)
            times = best_times(results)
            n = len(times)
            if n <= TAIL_BEYOND:
                raise SetupError("too few operations for a tail percentile")
            tail_index = n - TAIL_BEYOND - 1
            lines.append(f"{len(rounds)} rounds; an operation's time is its least over its attempts")
            lines.append(f"op_s_tail is p{100 * (tail_index + 1) / n:.1f} of {n} operations ({TAIL_BEYOND} beyond it)")
            peak = peak_rss_mb(children=args.workload == "cli")  # before the set-up processes, children too
            metrics = {
                "setup_s": setup_seconds(args.workload, args.seed),
                "ops_per_s": n / sum(times),
                "op_s_p50": statistics.median(times),
                "op_s_tail": times[tail_index],
                "peak_rss_mb": peak,
            }
            units = dict(END_TO_END)
        else:
            metrics, trace_lines = traced_run(args, Tracer, ops, results, prepared)
            lines += trace_lines
            units = {name: unit for name, unit, _ in per_layer_metrics()}
    finally:
        if prepared.cleanup:
            prepared.cleanup()

    lines += results.report()
    result = {
        "correct": not results.incorrect,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": lines, **result}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def traced_run(args, Tracer, ops, results, prepared):
    """Untraced rounds for half the time, then one traced round of the same
    operations; for cli both are in-process calls of cli.main."""
    lines = []
    cli_figures = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.main_s": 0.0}
    call_of = None
    if prepared.cli is not None:
        runner = prepared.cli
        run_rounds(ops, results, args.seconds / 2)  # the subprocess rounds, as untraced
        interpreter = subprocess_seconds(["-c", "pass"], runner.env)
        imported = subprocess_seconds(["-c", "import curvelift.cli"], runner.env)
        call_of = lambda i, op: op.in_process  # noqa: E731
        untraced = run_rounds(ops, results, 0, call_of)
        cli_figures = {
            "cli.interpreter_s": interpreter,
            "cli.import_s": imported - interpreter,
            "cli.main_s": statistics.mean(untraced) / len(round_order(ops)),
        }
    else:
        untraced = run_rounds(ops, results, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        def traced_call(i, op):
            inner = call_of(i, op) if call_of else op.call
            return lambda: tracer.run_op(i, inner)

        traced = run_round(ops, results, traced_call)
    finally:
        tracer.restore()
    overhead = traced / statistics.mean(untraced)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.tsv")
    tracer.dump(path)
    n = len(round_order(ops))
    lines.append(f"tracing overhead x{overhead:.3f}: {n / traced:.4g} ops/s traced against "
                 f"{n / statistics.mean(untraced):.4g} ops/s untraced; {len(tracer.span_start)} spans written to "
                 f"{os.path.relpath(path, ROOT)}" + (f", {tracer.dropped} more beyond the cap" if tracer.dropped else ""))
    lines.append("share of traced operation time, by layer self time:")
    lines += layer_shares(tracer)
    return layer_metrics(tracer, n, overhead, cli_figures), lines


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
