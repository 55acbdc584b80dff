"""One benchmark process: set up a workload, then run timed passes over it.

Started by run.py, with the checkout root as working directory.  It prints
READY once set-up is done, and as its last line one JSON object with the
pass times, the set-up times and the checks.

With --setups N it also times N set-ups, from process start to READY,
each in a fresh process started with --setup-only, spread evenly between
its passes: on a shared host the
core's speed drifts over tens of seconds, so set-up samples taken across
the whole run are likelier to include a quiet spell than samples taken
back to back before it.

With --trace 1 the passes alternate: untraced, then traced through
wrappers on gexpect's public functions (see spans.py).  The per-layer
figures cover the set-up plus one traced pass (the median over traced
passes), and trace.overhead_s is best_pass() traced minus untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # so that each op has at least two plain repetitions
# One process, no worker threads: keep BLAS from starting its own.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def run_worker(argv, deadline: float | None = None, own_group: bool = False):
    """Run this script with `argv` until it ends.

    Returns (seconds from start to its READY line, its last line).  At
    `deadline` (time.monotonic()), or when this process is interrupted, it
    is killed, with every process it started when `own_group` is set.
    Raises WorkerError unless it printed READY and exited with status 0.
    """
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv],
                            stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=own_group)

    def kill():
        try:
            if own_group:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
        except ProcessLookupError:
            pass

    killer = None
    if deadline is not None:
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
        killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if killer is not None:
            killer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise WorkerError(f"worker exited with status {code} "
                          f"(READY {'seen' if first.strip() == 'READY' else 'missing'})")
    lines = rest.strip().splitlines()
    return ready, (lines[-1] if lines else "")


def _import_gexpect():
    sys.path.insert(0, str(ROOT / "src"))
    import gexpect
    from gexpect import (ambiguity, cli, cltlab, config, functionals, gfunc, pde,
                         reporting, suites, trees)

    if Path(gexpect.__file__).resolve().parent != ROOT / "src" / "gexpect":
        raise ImportError(f"gexpect imported from {gexpect.__file__}, not the checkout")
    return [gexpect, ambiguity, cli, cltlab, config, functionals, gfunc, pde,
            reporting, suites, trees]


def best_pass(passes) -> float:
    """Seconds of one pass with each op at its fastest repetition.

    `passes` holds one list of op times per pass.  On a shared host,
    other tenants slow a core by up to 2x in bursts of a few milliseconds,
    and their share of the time drifts over minutes.  Measured over ten
    seeds, the median pass moved 12-22% between runs and this sum 8-11%.
    The minimum also drops the first-touch cost of the first pass, so no
    warm-up pass is needed.
    """
    return sum(min(times) for times in zip(*passes))


def _run_pass(ops, tracer):
    """Run every op once; returns (op seconds, results, exceptions)."""
    seconds, results, errors = [], [], []
    for op in ops:
        op.reset()
        if tracer is not None:
            tracer.open(f"op.{op.name}")
        t0 = time.perf_counter()
        try:
            results.append(op.run())
            errors.append(None)
        except Exception as exc:  # an op that raises counts as failed; keep measuring
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            seconds.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.close()
    return seconds, results, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setups", type=int, default=0,
                        help="fresh-process set-ups to time between passes")
    args = parser.parse_args(argv)

    modules = _import_gexpect()
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.prepare(modules)
        tracer.install()
    out_dir = os.path.join(args.out, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, out_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    setup_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--setup-only",
                  "--out", os.path.join(args.out, "setup")]
    setups = []
    times = {"plain": [], "traced": []}
    first_outputs = None
    failures = []
    attempted = 0
    error_bar_max = 0.0
    start = time.perf_counter()
    index = 0
    if tracer is not None:
        tracer.uninstall()
    while True:
        elapsed = time.perf_counter() - start
        # Keep the set-ups taken in step with the share of the run gone by.
        if len(setups) < args.setups and len(setups) <= args.setups * elapsed / args.seconds:
            setups.append(run_worker(setup_argv)[0])
            continue
        if index >= MIN_PASSES and elapsed >= args.seconds:
            break
        mode = "traced" if tracer is not None and index % 2 == 1 else "plain"
        if tracer is not None and mode == "traced":
            tracer.phase = index
            tracer.install()
        seconds, results, errors = _run_pass(ops, tracer if mode == "traced" else None)
        if tracer is not None:
            tracer.uninstall()
        times[mode].append(seconds)
        outputs = [op.output(r) if e is None else None
                   for op, r, e in zip(ops, results, errors)]
        if first_outputs is None:
            first_outputs = outputs
        for op, r, e, out, ref in zip(ops, results, errors, outputs, first_outputs):
            attempted += 1
            reason = e
            if reason is None and out != ref:
                reason = "output differs from the first pass"
            if reason is None:
                reason = op.check(r, out)
                bar = op.error_bar(r, out)
                if bar is not None:
                    error_bar_max = max(error_bar_max, bar)
            if reason is not None:
                failures.append(f"pass {index} {op.name}: {reason}")
        index += 1

    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "times": times,
        "setups": setups,
        "attempted": attempted,
        "failed": len(failures),
        "error_bar_max": error_bar_max,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from spans import layer_metrics

        setup = [s for s in tracer.spans if s[7] == "setup"]
        traced = sorted({s[7] for s in tracer.spans if s[7] != "setup"})
        per_pass = [layer_metrics(setup + [s for s in tracer.spans if s[7] == p])
                    for p in traced]
        layers = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        layers["trace.overhead_s"] = best_pass(times["traced"]) - best_pass(times["plain"])
        layers["pde.error_bar_max"] = error_bar_max
        result["layers"] = layers
        result["bindings"] = tracer.binding_count()
        spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(spans_path)
        result["spans_file"] = spans_path
        result["span_count"] = len(tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
