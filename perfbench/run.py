"""gexpect benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload limits|large --seed N \\
        --seconds S --trace 0|1

With --trace 0 it times the workload untraced and prints the end-to-end
metrics: wall_s (seconds per pass, each op at its fastest repetition in
the run; the median pass is printed beside it), setup_s (seconds from
process start to the end of set-up, the fastest of several fresh
processes spread over the run; their median is printed beside it) and
peak_rss_mb (peak resident set of the process that ran the passes).
error_rate and error_bar_max are printed on the lines before the result;
the result's `attempted` and `failed` carry the error rate.  With --trace 1 it prints the per-layer metrics instead (see
spans.py and worker.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Outputs and traces go to
perfbench/out/.  Without the gexpect sources (src/gexpect) beside
perfbench/ it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170  # every process this script starts ends by then


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import SETUPS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = HERE.parent
    if not (root / "src" / "gexpect" / "__init__.py").is_file():
        print(f"no gexpect sources at {root / 'src' / 'gexpect'}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    from worker import WorkerError, best_pass, run_worker

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out_dir),
            "--setups", str(0 if args.trace else SETUPS[args.workload])]
    # On SIGTERM, unwind so that run_worker kills the worker's process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        line = run_worker(argv, time.monotonic() + DEADLINE_S, own_group=True)[1]
        worker = json.loads(line)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark did not complete: {exc}", file=sys.stderr)
        return 1
    setups = worker["setups"]

    import numpy

    passes = worker["times"]["plain"]
    walls = [sum(p) for p in passes]
    attempted, failed = worker["attempted"], worker["failed"]
    print(f"gexpect benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__}")
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]:.0f}={tail[1]:.4f} s" if tail else "p_tail=n/a (fewer than 11)"
    print(f"wall_s        best={best_pass(passes):.4f} s  median={statistics.median(walls):.4f} s"
          f"  {tail_text}  passes={len(walls)} ({', '.join(f'{w:.4f}' for w in walls)})"
          f"  ops={len(passes[0])}")
    if not args.trace:
        print(f"setup_s       fastest={min(setups):.4f} s  median={statistics.median(setups):.4f} s"
              f"  samples={len(setups)} ({', '.join(f'{s:.4f}' for s in setups)})")
        print(f"peak_rss_mb   {worker['peak_rss_mb']:.1f} MB")
    print(f"error_rate    {failed}/{attempted} = {failed / attempted:g}")
    print(f"error_bar_max {worker['error_bar_max']!r}"
          + ("" if worker["error_bar_max"] else " (no PDE in this workload)"))

    if args.trace:
        values = worker["layers"]
        print(f"spans: {worker['span_count']} in "
              f"{os.path.relpath(worker['spans_file'], root)} "
              f"({worker['bindings']} wrapped bindings)")
    else:
        values = {"wall_s": best_pass(passes), "setup_s": min(setups),
                  "peak_rss_mb": worker["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
