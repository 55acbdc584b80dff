"""Run the benchmark over several seeds and report how steady each metric is.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --workloads limits large \\
        --seeds 1 2 3 4 5 6 7 8 9 10

Runs `perfbench/run.py --trace 0` once per (workload, seed), one after the
other, with run_seconds from BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread: the interquartile distance as a share of the median, next to
the metric's bound.  The figures are also written to
perfbench/out/steadiness.json, and each run's output to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    report = {}
    worst = 0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            (out / f"steadiness-{workload}-seed{seed}.txt").write_text(proc.stdout)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                worst = 1
            line = [f"{workload} seed={seed} correct={result['correct']}"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
                line.append(f"{name}={values[name][-1]:.4f}")
            print(" ".join(line), flush=True)
        report[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            report[workload][name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "bound": bounds[name]}
            print(f"{workload:7s} {name:12s} median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
                  f"spread={spread:.4f} bound={bounds[name]} "
                  f"({spread / bounds[name]:.2f} of bound)", flush=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
