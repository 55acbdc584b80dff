"""Acceptance gate: one test per shipped criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are fixed here, not calibrated at run time.
"""

import pathlib
import time

import numpy as np
import pytest

from gexpect import (GFunction, IidRows, SigmaInterval, check_iid_necessary_conditions,
                     estimate_limit_G, g_eval, gbm_fdd_expect, gbm_quadratic_identity,
                     gnormal_expect, iid_sum_expect, run_clt_experiment,
                     symmetric_bernoulli_family, two_point_sum_expect)
from gexpect.cli import main as cli_main
from gexpect.functionals import get, get_pair
from gexpect.suites import (axiom_suite, g_law_suite, rosenthal_suite,
                            tree_law_suite)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
HALF_NORMAL = 0.3989422804014327


def announce(num, name, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {flag} {name}: {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_axiom_suite():
    rng = np.random.default_rng(20260801)
    t0 = time.perf_counter()
    _, worst = axiom_suite(rng, trials=1000, pairs=10)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    announce(1, "axiom suite", ok,
             f"worst violation {worst:.2e} (tol 1e-10), {elapsed:.1f}s (< 10s)")


def test_criterion_02_operator_laws():
    rng = np.random.default_rng(20260802)
    t0 = time.perf_counter()
    _, worst = tree_law_suite(rng, trees=100, max_depth=6, max_children=4,
                              max_members=3)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    announce(2, "operator laws (a)-(g)", ok,
             f"worst violation {worst:.2e} (tol 1e-10), {elapsed:.1f}s (< 30s)")


def test_criterion_03_rosenthal():
    rng = np.random.default_rng(20260803)
    t0 = time.perf_counter()
    rows, failures, worst_ratio = rosenthal_suite(rng, trees=100, p=2.0, max_depth=5)
    elapsed = time.perf_counter() - t0
    finite = all(np.isfinite(r["second_ratio"]) for r in rows)
    ok = failures == 0 and finite and elapsed < 30.0
    announce(3, "Rosenthal oracles", ok,
             f"{failures} first-display failures / 100, max ratio "
             f"{worst_ratio:.3f}, {elapsed:.1f}s (< 30s)")


def test_criterion_04_g_calculus():
    rng = np.random.default_rng(20260804)
    _, worst = g_law_suite(rng, trials=1000)
    ok = worst <= 1e-10
    announce(4, "generator laws", ok, f"worst violation {worst:.2e} (tol 1e-10)")


def test_criterion_05_pde_closed_forms():
    si = SigmaInterval(0.5, 1.0)
    cases = [(get("square"), 1.0), (get("neg_square"), -0.5),
             (get("positive_part"), HALF_NORMAL)]
    t0 = time.perf_counter()
    results = [(phi.name, gnormal_expect(si, phi, horizon=1.0, accuracy="default"),
                truth) for phi, truth in cases]
    elapsed = time.perf_counter() - t0
    gaps = {name: abs(est.value - truth) for name, est, truth in results}
    brackets = {name: est.error_bar >= abs(est.value - truth)
                for name, est, truth in results}
    ok = all(g <= 0.005 for g in gaps.values()) and all(brackets.values()) \
        and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in gaps.items())
    announce(5, "PDE closed forms", ok,
             f"gaps {detail} (tol 5e-3), bars bracket: {all(brackets.values())}, "
             f"{elapsed:.1f}s (< 60s)")


def test_criterion_06_flagship_clt(bernoulli, flagship_limits):
    spec = IidRows(bernoulli, (16, 64, 256))
    rows = {}
    t0 = time.perf_counter()
    for name in ("positive_part", "sin", "excess_square"):
        phi = get(name)
        limit = flagship_limits[name]
        cells = []
        for n in spec.schedule:
            prelimit = iid_sum_expect(bernoulli, n, phi, scale=1 / np.sqrt(n))
            cells.append((n, abs(prelimit - limit.value), limit.error_bar))
        rows[name] = cells
    dp_elapsed = time.perf_counter() - t0
    final_ok = all(cells[-1][1] <= 0.02 for cells in rows.values())
    trend_ok = all(
        cells[i + 1][1] <= cells[i][1] + cells[i][2] + cells[i + 1][2]
        for cells in rows.values() for i in range(len(cells) - 1))
    ok = final_ok and trend_ok and dp_elapsed < 60.0
    detail = ", ".join(f"{k}={v[-1][1]:.2e}" for k, v in rows.items())
    announce(6, "flagship CLT regression", ok,
             f"final gaps {detail} (tol 0.02), monotone within bars: {trend_ok}, "
             f"DP {dp_elapsed:.1f}s (< 60s)")


def test_criterion_07_fdd_regression(bernoulli, sigma_half_one):
    psi = get_pair("increment_square")
    prelimit = two_point_sum_expect([bernoulli] * 256, 128, psi, 1 / 16)
    nested = gbm_fdd_expect(sigma_half_one, (0.5, 1.0), psi, accuracy="default")
    ok = abs(prelimit - 0.5) <= 0.01 and abs(prelimit - nested.value) <= 0.02
    announce(7, "FDD regression", ok,
             f"prelimit {prelimit:.6f} vs 0.5 (tol 0.01) and vs nested solver "
             f"{nested.value:.6f} (tol 0.02)")


def test_criterion_08_quadratic_identity(sigma_half_one):
    rng = np.random.default_rng(20260808)
    G2 = GFunction.from_matrices([np.diag([1.0, 1.0]), np.diag([0.5, 0.5]),
                                  np.array([[0.8, 0.3], [0.3, 0.6]])])
    worst = 0.0
    for _ in range(10):
        a = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.1, 1.0))
        est, ref = gbm_quadratic_identity(sigma_half_one, [[a]], t, accuracy="fast")
        worst = max(worst, abs(est.value - ref))
    for _ in range(10):
        M = rng.uniform(-1.5, 1.5, size=(2, 2))
        A = (M + M.T) / 2
        t = float(rng.uniform(0.1, 1.0))
        est, ref = gbm_quadratic_identity(G2, A, t, accuracy="fast")
        worst = max(worst, abs(est.value - ref))
    ok = worst <= 0.03
    announce(8, "quadratic identity", ok,
             f"20 sampled (A, t) in d=1,2; worst gap {worst:.2e} (tol 0.03)")


def test_criterion_09_iid_condition_block(bernoulli):
    block = check_iid_necessary_conditions(bernoulli, [1.0, 2.0, 4.0, 8.0],
                                           [0.5, 1.0, 1.5, 2.0, 4.0])
    stab = all(v == 1.0 for _, v in block.rows_second_moment)
    tails = all(v == 0.0 for x, v in block.rows_tail if x > 1.0)
    means = all(v == 0.0 for _, v in block.rows_trunc_mean)
    plus, minus = block.probes[0][0, 0], block.probes[1][0, 0]
    assert (plus, minus) == (1.0, -1.0)
    quad_exact = all(v == (1.0 if pi == 0 else -0.5)
                     for pi, c, v in block.rows_quadratic)
    exact_g = (quad_exact and g_eval(block.induced, [[1.0]]) == 1.0
               and g_eval(block.induced, [[-1.0]]) == -0.5)
    spec = IidRows(bernoulli, (256,))
    up = estimate_limit_G(spec, [[1.0]], 8.0, 256)
    lo = estimate_limit_G(spec, [[-1.0]], 8.0, 256)
    est_ok = abs(up - 1.0) <= 0.02 and abs(lo + 0.5) <= 0.02
    ok = stab and tails and means and exact_g and est_ok
    announce(9, "iid condition block", ok,
             f"capped moment at 1.0: {stab}, tail/means zero: {tails and means}, "
             f"generator exact: {exact_g}, estimates {up:.4f}/{lo:.4f} (tol 0.02)")


def test_criterion_10_determinism(tmp_path):
    cfg = str(CONFIG_DIR / "clt_bernoulli.yaml")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = cli_main(["--config", cfg, "--out", str(out1)])
    code2 = cli_main(["--config", cfg, "--out", str(out2)])
    same = (out1 / "clt_bernoulli.csv").read_bytes() == \
        (out2 / "clt_bernoulli.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and same
    announce(10, "determinism", ok,
             f"rerun byte-identical: {same}, exit codes {code1}/{code2}")
