"""The two benchmark workloads: inputs from a seed, timed operations, oracles.

Every workload is one closed-loop client: one process, no worker threads,
each operation starts when the previous one has returned.  The seed changes
values (variances, matrices, config seeds), never array or grid sizes.

An operation fails when it raises, exits non-zero (a hard verdict failed),
misses its oracle, or gives different output bytes on a later pass than on
the first.  Oracles use code independent of the path they check:

* DP on the symmetric three-point family with a convex functional: the
  classical value under the largest-variance member, by repeated
  ``np.convolve`` (a mean-preserving spread dominates in convex order).
* Quadratic functionals of a zero-mean iid sum: n times the largest member
  value of tr(A Sigma), because the cross terms of a martingale vanish.
* G-normal and G-Brownian values of convex data under a dominating
  covariance: classical normal closed forms, within a stated tolerance.
* ``cond_expect`` to the root of ``iid_level_tree(X, d)``: the lattice DP
  ``iid_sum_expect(X, d, phi)`` to 1e-10.

The oracles do not judge whether an error bar brackets the true gap when
a kink of the data falls off the grid; that known defect is out of scope.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
EXACT_RTOL = 1e-12  # exact DP against an independent exact computation
TREE_TOL = 1e-10
SUMMARY_MARK = "\0"  # joins a config's CSV and summary bytes in one output

# Fresh-process set-ups per run; setup_s is the fastest.  A `large`
# set-up builds the 265,720-node tree, so it takes fewer samples.
SETUPS = {"limits": 12, "large": 10}


@dataclass
class Op:
    """One timed operation.

    run() is the timed call; reset() runs, untimed, before it.
    output(result) is read after the pass and must be identical on every
    pass; None means the op left no output.  check(result, output) returns
    a failure reason or None.  error_bar(result, output) is the largest
    PDE error bar the operation reports, or None.
    """

    name: str
    run: Callable[[], object]
    output: Callable[[object], str | None]
    check: Callable[[object, str | None], str | None]
    error_bar: Callable[[object, str], float | None] = lambda result, output: None
    reset: Callable[[], None] = lambda: None


def build(name: str, seed: int, out_dir: str) -> list:
    """Set up a workload: make its inputs from `seed` and return its ops."""
    return {"limits": _limits, "large": _large}[name](seed, out_dir)


# ---- CLI workloads ------------------------------------------------------

def _write_config(out_dir: str, doc: dict) -> str:
    import yaml
    from gexpect import config

    path = os.path.join(out_dir, f"{doc['output']}.yaml")
    with open(path, "w") as handle:
        yaml.safe_dump(doc, handle, sort_keys=False)
    config.load_config(path)  # schema and semantic checks, as the CLI does
    return path


def _cli_op(out_dir: str, doc: dict, oracle=None, bar_column: bool = False) -> Op:
    """An op that runs one generated config through gexpect.cli.main."""
    from gexpect import cli

    path = _write_config(out_dir, doc)
    reports = [os.path.join(out_dir, doc["output"] + suffix)
               for suffix in (".csv", "_summary.txt")]

    def reset():  # so that a failed run cannot pass off an earlier report
        for report in reports:
            with contextlib.suppress(FileNotFoundError):
                os.remove(report)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--config", path, "--out", out_dir])

    def output(code):
        if code != 0:
            return None
        parts = []
        try:
            for report in reports:
                with open(report) as handle:
                    parts.append(handle.read())
        except OSError:
            return None
        return SUMMARY_MARK.join(parts)

    def check(code, text):
        if code != 0:
            return f"exit status {code}"
        if text is None:
            return "report files missing"
        return oracle(_csv_rows(text)) if oracle else None

    def error_bar(code, text):
        if not bar_column:
            return None
        return max(float(row["error_bar"]) for row in _csv_rows(text))

    return Op(doc["output"], run, output, check, error_bar, reset)


def _csv_rows(text: str) -> list:
    csv_text = text.split(SUMMARY_MARK, 1)[0]
    return list(csv.DictReader(io.StringIO(csv_text.split("\n", 1)[1])))


# A property suite draws every size (set dimension, support points,
# members, tree depth and branching) from its config seed, so these seeds
# are fixed: seeds drawn from --seed changed the work of a pass by up to
# 25% between seeds.
SUITES_CONFIG_SEED = 20191210
# One small config of each suite, so that the suites, expect_upper and
# g_eval layers are measured; they take about 5% of a limits pass.
SUITE_SLICE = [
    ("axioms", {"trials": 10, "pairs": 10, "tolerance": 1e-10}),
    ("tree-laws", {"trees": 5, "max_depth": 6, "max_children": 4, "max_members": 3,
                   "tolerance": 1e-10}),
    ("g-laws", {"trials": 50, "tolerance": 1e-10}),
    ("rosenthal", {"trees": 5, "p": 2.0, "max_depth": 5}),
]


def classical_sum_value(probs, n: int, phi, scale: float) -> float:
    """E[phi(scale * S_n)] for n iid steps on {-1, 0, 1} by repeated convolution."""
    dist = np.array([1.0])
    for _ in range(n):
        dist = np.convolve(dist, probs)
    return float(np.dot(dist, phi(scale * np.arange(-n, n + 1, dtype=float))))


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def _limits(seed: int, out_dir: str) -> list:
    from gexpect.functionals import get

    rng = np.random.default_rng(seed)
    lower = round(float(rng.uniform(0.25, 0.75)), 6)
    config_seed = int(rng.integers(0, 2**31 - 1))
    family = {"variances": [lower, 1.0], "step": 1.0}
    top = np.array([0.5, 0.0, 0.5])  # the variance-1 member dominates convex data
    closed = {"positive_part": INV_SQRT_2PI, "excess_square": 2.0 * INV_SQRT_2PI
              * math.exp(-0.5)}
    refs = {}

    def clt_oracle(rows):
        for row in rows:
            name, n = row["functional"], int(row["n"])
            if name not in closed:
                continue
            if (name, n) not in refs:
                refs[name, n] = classical_sum_value(top, n, get(name), 1.0 / math.sqrt(n))
            if not _close(float(row["prelimit"]), refs[name, n], EXACT_RTOL):
                return f"DP {name} n={n}: {row['prelimit']} != {refs[name, n]!r}"
            if abs(float(row["limit"]) - closed[name]) > 0.02:
                return f"limit {name}: {row['limit']} vs closed form {closed[name]!r}"
        return None

    def fdd_oracle(rows):
        for row in rows:
            n = int(row["n"])
            ref = (n - n // 2) / n  # E[(S_n - S_{n/2})^2] / n at unit variance
            if not _close(float(row["prelimit"]), ref, EXACT_RTOL):
                return f"DP n={n}: {row['prelimit']} != {ref!r}"
            if abs(float(row["limit"]) - 0.5) > 0.02:
                return f"limit {row['limit']} vs closed form 0.5"
        return None

    pde_refs = {"square": 1.0, "neg_square": -lower, "positive_part": INV_SQRT_2PI}

    def pde_oracle(rows):
        for row in rows:
            ref = pde_refs[row["functional"]]
            if abs(float(row["value"]) - ref) > 0.005:
                return f"{row['functional']}: {row['value']} vs closed form {ref!r}"
        return None

    docs = [
        *(({"kind": "clt", "seed": config_seed, "output": f"clt_{name}",
            "params": {"family": family, "functionals": [name],
                       "schedule": [16, 64, 256, 1024], "accuracy": "default",
                       "tolerance": 0.02}}, clt_oracle)
          for name in ("positive_part", "sin", "excess_square")),
        ({"kind": "fdd", "seed": config_seed, "output": "fdd",
          "params": {"family": family, "functional": "increment_square",
                     "times": [0.5, 1.0], "schedule": [16, 64, 256, 512],
                     "accuracy": "default", "tolerance": 0.02}}, fdd_oracle),
        ({"kind": "pde", "seed": config_seed, "output": "pde",
          "params": {"sigma_interval": [lower, 1.0], "horizon": 1.0,
                     "accuracy": "fine",
                     "cases": [{"functional": name, "reference": ref, "tolerance": 0.005}
                               for name, ref in pde_refs.items()]}}, pde_oracle),
        ({"kind": "iid-conditions", "seed": config_seed, "output": "iid_conditions",
          "params": {"family": family, "c_schedule": [1.0, 2.0, 4.0, 8.0],
                     "x_schedule": [0.5, 1.0, 1.5, 2.0, 4.0], "estimate_n": 256,
                     "tolerance": 0.02}}, None),
    ]
    suite_rng = np.random.default_rng(SUITES_CONFIG_SEED)
    docs += [({"kind": kind, "seed": int(suite_rng.integers(0, 2**31 - 1)),
               "output": kind.replace("-", "_"), "params": params}, None)
             for kind, params in SUITE_SLICE]
    return [_cli_op(out_dir, doc, oracle,
                    bar_column=doc["kind"] in ("clt", "fdd", "pde"))
            for doc, oracle in docs]


# ---- library-API workload -------------------------------------------------

def _value_op(name, run, ref, rtol=None, atol=None) -> Op:
    """An op returning one float, checked against a lazily computed reference."""
    cache = []

    def check(value, text):
        if not cache:
            cache.append(ref())
        expected = cache[0]
        ok = _close(value, expected, rtol) if rtol is not None else abs(value - expected) <= atol
        return None if ok else f"{value!r} vs oracle {expected!r}"

    return Op(name, run, repr, check)


def _estimate_op(name, run, ref: float, atol: float) -> Op:
    """An op returning a PdeEstimate, checked against a closed form."""

    def check(est, text):
        gap = abs(est.value - ref)
        return None if gap <= atol else f"{est.value!r} vs closed form {ref!r}"

    return Op(name, run, lambda est: repr((est.value, est.error_bar)), check,
              lambda est, text: est.error_bar)


def _large(seed: int, out_dir: str) -> list:
    from gexpect import ambiguity, pde, trees
    from gexpect.ambiguity import AmbiguitySet, DiscreteDistribution, LatticeSpec
    from gexpect.functionals import get
    from gexpect.gfunc import GFunction, SigmaInterval

    rng = np.random.default_rng(seed)
    lower = float(rng.uniform(0.25, 0.75))
    X = ambiguity.symmetric_bernoulli_family([lower, 1.0])
    top = np.array([0.5, 0.0, 0.5])
    ops = []

    n1 = 4096
    excess = get("excess_square")
    ops.append(_value_op(
        "sum_dp_1d", lambda: ambiguity.iid_sum_expect(X, n1, excess, scale=1 / 64),
        lambda: classical_sum_value(top, n1, excess, 1 / 64), rtol=EXACT_RTOL))

    # Five-point 2-d family: mass a/2 on each of (+-1, 0), b/2 on (0, +-1).
    n2 = 256
    support = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    axes = rng.uniform(0.1, 0.45, size=(3, 2))
    members = [DiscreteDistribution(support, [1 - a - b, a / 2, a / 2, b / 2, b / 2])
               for a, b in axes]
    Y = AmbiguitySet(LatticeSpec(2, 1.0, (0.0, 0.0)), members)
    off = float(rng.uniform(-0.5, 0.5))
    A = np.array([[1.0, off], [off, float(rng.uniform(0.5, 2.0))]])
    quad = lambda z: np.einsum("...i,ij,...j->...", z, A, z)
    ops.append(_value_op(
        "sum_dp_2d", lambda: ambiguity.iid_sum_expect(Y, n2, quad, scale=1 / 16),
        lambda: max(A[0, 0] * a + A[1, 1] * b for a, b in axes), rtol=1e-10))

    # 2-d G-normal; Theta = {top, s * top}, and top dominates convex data.
    c = float(rng.uniform(0.0, 0.5))
    top2 = np.array([[1.0, c], [c, 1.0]])
    G2 = GFunction.from_matrices([top2, float(rng.uniform(0.2, 0.8)) * top2])
    ridge = lambda p: np.maximum(p[..., 0] + p[..., 1], 0.0)
    ops.append(_estimate_op(
        "gnormal_2d", lambda: pde.gnormal_expect(G2, ridge, horizon=1.0, accuracy="default"),
        math.sqrt(2.0 + 2.0 * c) * INV_SQRT_2PI, 0.005))

    # p = 3 fdd: W1 + W2 + W3 = 3 W1 + 2 (W2 - W1) + (W3 - W2).
    times = (0.25, 0.5, 1.0)
    sig = SigmaInterval(float(rng.uniform(0.25, 0.75)), 1.0)
    ridge3 = lambda x1, x2, x3: np.maximum(x1 + x2 + x3, 0.0)
    var3 = 9 * times[0] + 4 * (times[1] - times[0]) + (times[2] - times[1])
    ops.append(_estimate_op(
        "fdd_p3", lambda: pde.gbm_fdd_expect(sig, times, ridge3, accuracy="fast"),
        math.sqrt(var3) * INV_SQRT_2PI, 0.02))

    depth = 11
    tree = trees.iid_level_tree(X, depth)
    scale = 1 / math.sqrt(depth)
    leaf_sums = trees.path_sums(tree, trees.MartingaleArray(tree))[depth][:, 0]
    for fname in ("positive_part", "sin", "excess_square"):
        phi = get(fname)
        leaf = trees.TreeRandomVariable(depth, phi(scale * leaf_sums))
        ops.append(_value_op(
            f"tree_{fname}",
            lambda leaf=leaf: float(trees.cond_expect(tree, leaf, 0).values[0]),
            lambda phi=phi: ambiguity.iid_sum_expect(X, depth, phi, scale=scale),
            atol=TREE_TOL))
    return ops
