#!/usr/bin/env python3
"""Run one commdyn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cyclotomic-pairs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
src/.  With --trace 0 the closed loop (one client, one operation at a
time) runs whole rounds of the seeded stream for about --seconds and
reports the end-to-end metrics.  With --trace 1 round 0 runs once
untraced to warm up, then each of its operations runs once traced and
once untraced (for the tracing overhead), the layer microbenchmarks
follow, and the per-layer metrics are reported.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the
line before it records provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_SAMPLES = 3
# two rounds at least, so that the sample count behind the tail
# percentile does not halve when a round runs long
MIN_ROUNDS = 2
TRACE_ROUNDS = 1


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cyclotomic-pairs", "survey", "cli-requests"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs once and print the set-up time")
    return parser.parse_args(argv)


# -- set-up --------------------------------------------------------------------


def _build(workload: str, seed: int):
    """Import, generate the inputs and warm the caches; returns (inputs, round 0)."""
    from perfbench import workloads as w

    if workload == "cyclotomic-pairs":
        inputs = w.pairs_setup(seed)
    elif workload == "survey":
        inputs = w.survey_setup(seed)
    else:
        inputs = w.cli_setup(seed, ROOT)
    return inputs, make_round(workload, inputs, seed, 0)


def make_round(workload: str, inputs, seed: int, index: int, exit_codes=None):
    """Round `index` of the stream; cli requests replay in-process when
    `exit_codes` is a list, which then collects their exit codes."""
    from perfbench import workloads as w

    if workload == "cyclotomic-pairs":
        return w.pairs_round(inputs, seed, index)
    if workload == "survey":
        return w.survey_round(inputs, seed, index)
    reqs = w.cli_round(inputs, seed, index)
    return w.cli_ops(inputs, reqs) if exit_codes is None else _in_process_ops(reqs, exit_codes)


def _setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- the closed loop ---------------------------------------------------------------


def _execute(op, tally):
    start = time.perf_counter()
    try:
        result = op.run()
        raised = None
    except Exception as exc:  # an operation that raises is a failed operation
        result, raised = None, exc
    elapsed = time.perf_counter() - start
    try:
        ok = raised is None and bool(op.check(result))
    except Exception:  # a check that cannot read the result fails it
        ok = False
    tally["attempted"] += 1
    if not ok:
        if op.known_defect is not None and raised is None and op.known_defect(result):
            tally["known_defects"].append(op.label)
        else:
            tally["failed"] += 1
            tally["failures"].append(f"{op.label}: {raised!r}" if raised else op.label)
    return elapsed


def _new_tally():
    return {"attempted": 0, "failed": 0, "failures": [], "known_defects": []}


def tail_percentile(samples):
    """The highest integer percentile with at least 10 samples above it."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        value = xs[max(0, math.ceil(p * n / 100) - 1)]
        if sum(1 for x in xs if x > value) >= 10:
            return p, value
    return 50, statistics.median(xs)


def _reference_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast the machine runs now.

    Recorded next to the results only, to tell a slower machine from a
    slower program; no metric is derived from it."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _run_untraced(args):
    started = time.perf_counter()
    inputs, first = _build(args.workload, args.seed)
    setup = [time.perf_counter() - started]
    setup += [_setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    latencies, labels, tally = [], [], _new_tally()
    ops, index, round_times = first, 0, []
    start = time.perf_counter()
    reference = []
    while True:
        reference.append(_reference_seconds())
        times = [_execute(op, tally) for op in ops]
        latencies += times
        labels += [op.label for op in ops]
        round_times.append(sum(times))
        index += 1
        # whole rounds only, at least MIN_ROUNDS of them; then stop once
        # another round would end further past the deadline than this one
        # ends before it
        if index >= MIN_ROUNDS and (
                time.perf_counter() - start + round_times[-1] / 2 >= args.seconds):
            break
        ops = make_round(args.workload, inputs, args.seed, index)
    reference.append(_reference_seconds())

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-requests" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    n = tally["attempted"]
    pct, tail = tail_percentile(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (n / sum(latencies), "ops/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "success_ratio": ((n - tally["failed"]) / n, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    details = {
        "rounds": index, "round_seconds": round_times, "setup_samples": setup,
        "reference_loop_seconds": reference,
        "latency_samples": n, "tail_percentile": pct,
        "tail_operation": labels[min(range(n), key=lambda i: abs(latencies[i] - tail))],
        "fail_ratio": tally["failed"] / n,
        "fail_ratio_with_known_defects": (tally["failed"] + len(tally["known_defects"])) / n,
    }
    return tally, metrics, details


# -- traced run --------------------------------------------------------------------


def _in_process_ops(reqs, exit_codes):
    """cli requests replayed through commdyn.cli.main with output captured."""
    from perfbench import workloads as w

    def replay(req):
        import commdyn.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = commdyn.cli.main(list(req.argv))
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
            except Exception as exc:  # what a fresh process would die of
                code = f"exception {type(exc).__name__}"
                err.write("Traceback (in-process replay)\n")
        exit_codes.append(code)
        return code, out.getvalue(), err.getvalue()

    return [w.Op(req.kind, " ".join(req.argv), lambda r=req: replay(r),
                 lambda result, r=req: w.outcome_ok(r, *result),
                 known_defect=w.cli_known_defect(req))
            for req in reqs]


def _fresh_process_seconds(code: str, inner: bool, samples: int = 5) -> float:
    """Median wall time of `python -c code`, or the time it prints itself."""
    from perfbench.workloads import cli_env

    env = cli_env(ROOT)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        wall = time.perf_counter() - start
        times.append(float(proc.stdout.strip()) if inner else wall)
    return statistics.median(times)


def _cli_layer_metrics(exit_codes) -> dict:
    timer = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    out = {
        "cli.interpreter_start_s": (_fresh_process_seconds("pass", inner=False), "s"),
        "cli.import_s": (_fresh_process_seconds(timer.format("commdyn.cli"), inner=True), "s"),
        "cli.import_numpy_s": (_fresh_process_seconds(timer.format("numpy"), inner=True), "s"),
    }
    for code in range(5):
        out[f"cli.exit.{code}.count"] = (sum(1 for c in exit_codes if c == code), "count")
    out["cli.exit.other.count"] = (sum(1 for c in exit_codes if c not in range(5)), "count")
    return out


def _run_traced(args):
    from perfbench import micro
    from perfbench.tracer import Tracer

    inputs, _ = _build(args.workload, args.seed)
    exit_codes = [] if args.workload == "cli-requests" else None
    ops = [op for i in range(TRACE_ROUNDS)
           for op in make_round(args.workload, inputs, args.seed, i, exit_codes)]

    # a first untraced pass pays for first use (caches, lazy imports); then
    # each operation runs once traced and once untraced, alternating which
    # goes first, so that drift in machine speed cancels out of the
    # overhead ratio
    for op in ops:
        _execute(op, _new_tally())
    tracer, tally, traced_codes = Tracer(), _new_tally(), []
    traced = untraced = 0.0
    for i, op in enumerate(ops):
        for with_trace in ((True, False) if i % 2 else (False, True)):
            if with_trace:
                with tracer:
                    traced += _execute(op, tally)
                if exit_codes is not None:
                    traced_codes.append(exit_codes[-1])
            else:
                untraced += _execute(op, _new_tally())

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics["known_defect.count"] = (len(tally["known_defects"]), "count")
    metrics.update(_cli_layer_metrics(traced_codes))
    metrics.update(micro.run())
    details = {"trace_rounds": TRACE_ROUNDS, "traced_ops": tally["attempted"],
               "untraced_busy_s": untraced, "traced_busy_s": traced}
    return tally, metrics, details


# -- provenance and output ---------------------------------------------------------


def _provenance(args) -> dict:
    import numpy

    src = os.path.join(ROOT, "src", "commdyn")
    lines, digest = 0, hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                data = handle.read()
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "commdyn", "__init__.py")):
        print("perfbench: src/commdyn is missing; run from a commdyn source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    if args.setup_only:
        started = time.perf_counter()
        _build(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0

    tally, metrics, details = (_run_traced if args.trace else _run_untraced)(args)
    record = _provenance(args)
    record.update(details)
    record["failures"] = tally["failures"]
    record["known_defects"] = sorted(set(tally["known_defects"]))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
