#!/usr/bin/env python3
"""Benchmark of the bcvgeo checker, driving `bcvgeo.cli.main(argv)` in-process.

One process, one closed-loop client: each op is one `cli.main` call and the
next op starts when it returns.  Every argv and input file comes from
--seed.  Every op's output is checked.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process

--trace 0 repeats the seed's list of ops in whole passes for about
--seconds of op time and prints the end-to-end metrics.  --trace 1 runs each
op of that list twice, untraced and traced, and prints the per-layer metrics
and the tracing overhead; its spans are written to
.perfbench/spans-<workload>-seed<n>.csv.gz.  The last line of output is one
JSON object {correct, attempted, failed, metrics}.  README.md lists the
workloads, metrics and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import PERIOD_S, REFERENCE_S, Sampler
from tracer import Tracer, layer_metrics
from workloads import KNOWN_DEFECT_RAISER, WORKLOADS, failure_problem

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 21
MIN_PASSES = 2
CHILD_TIMEOUT_S = 600


def import_bcvgeo():
    """Import bcvgeo afresh from the checkout's sources (a set-up step)."""
    for name in [n for n in sys.modules if n == "bcvgeo" or n.startswith("bcvgeo.")]:
        del sys.modules[name]
    cli = importlib.import_module("bcvgeo.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bcvgeo imported from {cli.__file__}, not from {SRC}")
    return cli


def fingerprint():
    import importlib.util

    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "BCV_THREADS": os.environ.get("BCV_THREADS"),
        "BCV_DISABLE_NUMBA": os.environ.get("BCV_DISABLE_NUMBA"),
    }


class Rec:
    """One executed op: exit code, latency, output, the first line of its
    stderr, and either the check of its output (exit 0) or what is wrong
    with its failure (None for the known defect)."""

    __slots__ = ("op", "rc", "t0", "t1", "latency", "text", "err", "outcome", "problem")

    @property
    def cause(self):
        """Exit code and stderr line, numbers masked, for grouping."""
        if self.rc == 0:
            return None
        return f"exit {self.rc}: " + re.sub(r"\d[\d.e+-]*", "#", self.err)


def execute(workload, op):
    cli = sys.modules["bcvgeo.cli"]
    out, err = io.StringIO(), io.StringIO()
    rec = Rec()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:   # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            rc = -1
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
    rec.t0, rec.t1 = t0, perf_counter()
    rec.latency = rec.t1 - t0
    rec.op, rec.rc, rec.text = op, rc, out.getvalue()
    rec.err = next(iter(err.getvalue().splitlines()), "no message")
    rec.outcome = workload.check(op, rec.text) if rc == 0 else None
    rec.problem = None if rc == 0 else failure_problem(op, rc, rec.text, rec.err)
    return rec


def measure(workload, seed, seconds, workdir):
    """Whole passes over the seed's ops, so that every pass has the same mix
    of op kinds and pairs: at least MIN_PASSES, and another one while more
    than half a pass of the `seconds` of op time is left.  Before, the first
    op of each kind runs once untimed, to finish lazy imports and first-use
    costs.  The SETUP_REPEATS set-ups are spread over the run, between ops,
    so that their median sees the same drift in machine speed as the ops
    do; set-up time is not op time.  The speed sampler runs throughout.

    Returns the ops, their executions (any warm-up first), the number of
    timed passes, the set-up intervals and the sampler."""
    setups = []
    busy = 0.0

    def catch_up_setups():
        due = min(SETUP_REPEATS, 1 + int(busy * (SETUP_REPEATS - 1) / seconds))
        while len(setups) < due:
            t0 = perf_counter()
            workload.setup(import_bcvgeo(), seed, workdir)
            setups.append((t0, perf_counter()))

    with Sampler() as sampler:
        catch_up_setups()
        ops = workload.ops(seed)
        runs = [[] for _ in ops]
        for i in first_of_each_kind(ops):
            runs[i].append(execute(workload, ops[i]))
        for passes in itertools.count(1):
            pass_s = 0.0
            for op, execs in zip(ops, runs):
                catch_up_setups()
                execs.append(execute(workload, op))
                pass_s += execs[-1].latency
                busy += execs[-1].latency
            if passes >= MIN_PASSES and busy + pass_s / 2 >= seconds:
                catch_up_setups()
                return ops, runs, passes, setups, sampler


def first_of_each_kind(ops):
    return sorted({op.kind: i for i, op in reversed(list(enumerate(ops)))}.values())


def tail(latencies):
    """Highest percentile with at least ten samples above it, or the median
    when that percentile would lie below it (21 samples or fewer)."""
    s = sorted(latencies)
    n = len(s)
    if n > 21:
        return s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    return statistics.median(s), f"p50 of {n}: too few samples for a higher percentile"


def problems_of(recs):
    """Completed ops whose output fails its check, and failed ops other than
    the known defect."""
    return [f"{r.op.argv}: {r.problem or r.outcome.problem}" for r in recs
            if r.problem or (r.outcome is not None and not r.outcome.ok)]


def repeat_problems(runs):
    """Every execution of an argv must give the first one's exit code and
    byte-identical output."""
    return [f"{execs[0].op.argv}: repeated argv gave different output"
            for execs in runs
            if any((r.rc, r.text) != (execs[0].rc, execs[0].text) for r in execs[1:])]


def worst_margin(recs):
    """(max_margin, argv): the worst residual/tolerance of the checked outputs."""
    worst = max((r for r in recs if r.rc == 0), key=lambda r: r.outcome.margin,
                default=None)
    return (worst.outcome.margin, worst.op.argv) if worst else (0.0, None)


def report(lines, metrics, correct, attempted, failed):
    for line in lines:
        print(line)
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} {value!r} {unit}{'  (' + note + ')' if note else ''}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


def run_untraced(workload, seed, seconds, workdir):
    ops, runs, passes, setup_spans, sampler = measure(workload, seed, seconds, workdir)
    recs = [execs[0] for execs in runs]   # one checked execution per op
    problems = problems_of(recs) + repeat_problems(runs)

    done = [r for r in recs if r.rc == 0]
    # every timed execution of a completed op (warm-ups are not timed),
    # at reference speed; the unscaled seconds are printed alongside
    timed = [r for execs in runs if execs[0].rc == 0 for r in execs[-passes:]]
    lat = [sampler.scaled(r.t0, r.t1) for r in timed]
    unscaled = [sampler.own(r.t0, r.t1) for r in timed]
    setups = [sampler.scaled(t0, t1) for t0, t1 in setup_spans]
    failed = len(recs) - len(done)
    p50 = statistics.median(lat) if lat else 0.0
    tail_s, tail_name = tail(lat) if lat else (0.0, "no completed ops")
    margin, margin_at = worst_margin(recs)
    if not done:
        problems.append("no op completed")
    unscaled_tail = tail(unscaled)[0] if unscaled else 0.0
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {SETUP_REPEATS} set-ups; unscaled "
                    f"{statistics.median(sampler.own(*t) for t in setup_spans):.4f} s"),
        # per second of completed ops, so that the ops of the known
        # theorem52 defect neither count nor cost
        "ops_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s",
                      f"{len(lat)} completed ops in {sum(lat):.3f} s; unscaled "
                      f"{sum(unscaled):.3f} s"),
        "latency_p50_s": (p50, "s", f"{len(lat)} completed ops; unscaled "
                                    f"{statistics.median(unscaled) if lat else 0.0:.4f} s"),
        "latency_tail_s": (tail_s, "s", f"{tail_name}; unscaled {unscaled_tail:.4f} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "this process"),
    }
    lines = [
        f"{len(ops)} ops, {passes} timed passes",
        f"fail_frac {failed / len(recs)!r} ratio  ({failed} of {len(recs)} attempted)",
        f"max_margin {margin!r} ratio  (worst residual/tolerance, at {margin_at})",
        "failure causes " + json.dumps(Counter(r.cause for r in recs if r.cause)),
        f"speed: {len(sampler.took)} calibration chunks, one per {PERIOD_S} s, "
        f"median {sampler.median():.6f} s against the reference {REFERENCE_S} s",
    ]
    return lines, metrics, problems, len(recs), failed


def run_traced(workload, seed, workdir):
    if os.environ.get("BCV_THREADS", "1") not in ("", "1"):
        raise SystemExit("perfbench: tracing needs BCV_THREADS unset or 1")
    cli = import_bcvgeo()
    workload.setup(cli, seed, workdir)
    ops = workload.ops(seed)
    tracer = Tracer()
    plain, traced = [], []
    # lazy imports inside the CLI happen here, not in the first traced op
    for i in first_of_each_kind(ops):
        execute(workload, ops[i])
    t_origin = perf_counter()
    # each op runs untraced and traced back to back, in alternating order,
    # so that drift in machine speed cancels in the overhead
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(execute(workload, op))
                continue
            tracer.install()
            tracer.begin_op(i)
            try:
                traced.append(execute(workload, op))
            finally:
                tracer.restore()

    # the exception classes each failed op raised through the traced
    # functions, innermost first
    raised = {}
    for (i, name, cls), _ in tracer.errors.items():
        raised.setdefault(i, []).append((name, cls))
    problems = problems_of(plain) + problems_of(traced)
    problems += [f"{a.op.argv}: traced output differs from untraced"
                 for a, b in zip(plain, traced) if (a.rc, a.text) != (b.rc, b.text)]
    problems += [f"{r.op.argv}: exit {r.rc} reads as the known defect, but "
                 f"{KNOWN_DEFECT_RAISER} was not raised through (saw {raised.get(i)})"
                 for i, r in enumerate(traced)
                 if r.rc != 0 and not r.problem and KNOWN_DEFECT_RAISER not in raised.get(i, ())]
    completed = {i for i, r in enumerate(traced) if r.rc == 0}
    failed = len(traced) - len(completed)
    samples = sum(traced[i].outcome.samples for i in completed)
    bytes_out = sum(len(r.text.encode("utf-8")) for r in traced)
    plain_s = sum(r.latency for r in plain)
    traced_s = sum(r.latency for r in traced)
    summary = tracer.summary(completed)
    m = layer_metrics(tracer, summary, samples, bytes_out, traced_s / plain_s - 1.0)
    m["fail_frac"] = (failed / len(traced), "ratio")
    m["max_margin"] = (worst_margin(traced)[0], "ratio")
    metrics = {k: (v, u, "") for k, (v, u) in m.items()}

    per_kind = {}
    tb_by_op, jets_by_op = summary["tb_by_op"], summary["jets_under_tb_by_op"]
    for i, r in enumerate(traced):
        calls, jets = per_kind.get(r.op.kind, (0, 0))
        per_kind[r.op.kind] = (calls + tb_by_op[i], jets + jets_by_op[i])
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.csv.gz"
    tracer.write(spans_path, t_origin)
    causes = Counter(
        f"{r.cause}; raised through "
        + ", ".join(f"{name} ({cls})" for name, cls in raised.get(i, ()))
        for i, r in enumerate(traced) if r.rc != 0)
    lines = [
        f"traced {len(ops)} ops; "
        f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s",
        "jets per tangential_bitension call by op kind " + json.dumps(
            {k: (j / c if c else None) for k, (c, j) in per_kind.items()}),
        "failure causes " + json.dumps(causes),
        f"{summary['spans']} spans written to {spans_path.relative_to(ROOT)}",
    ]
    return lines, metrics, problems, len(traced), failed


def run_all(args):
    """Each workload in its own process, relayed; then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        print(f"== {name}")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "bcvgeo" / "__init__.py").is_file():
        print(f"perfbench: no bcvgeo sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            lines, metrics, problems, attempted, failed = run_traced(
                workload, args.seed, Path(tmp))
        else:
            lines, metrics, problems, attempted, failed = run_untraced(
                workload, args.seed, args.seconds, Path(tmp))
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    head = [f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
            f"trace {args.trace}",
            f"why {workload.why}",
            "fingerprint " + json.dumps(fingerprint())]
    report(head + lines, metrics, not problems, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
