#!/usr/bin/env python3
"""Print the flagship convergence table straight from the library API.

Exact DP values of E[phi(S_n / sqrt(n))] for the two-variance family against
the solver value for the matching G-normal law, with the solver error bar.
"""

import numpy as np

from gexpect import IidRows, run_clt_experiment, symmetric_bernoulli_family
from gexpect.functionals import get


def main():
    family = symmetric_bernoulli_family((0.5, 1.0))
    spec = IidRows(family, (16, 64, 256))
    phis = [get(n) for n in ("positive_part", "sin", "excess_square")]
    report = run_clt_experiment(spec, phis, accuracy="default")
    header = f"{'functional':>14s} {'n':>4s} {'prelimit':>12s} {'limit':>12s} {'gap':>10s}"
    print(header)
    print("-" * len(header))
    for row in report.rows:
        print(f"{row['functional']:>14s} {row['n']:>4d} "
              f"{row['prelimit']:>12.6f} {row['limit']:>12.6f} {row['gap']:>10.2e}")
    print()
    for verdict in report.verdicts:
        print(verdict.line())


if __name__ == "__main__":
    main()
