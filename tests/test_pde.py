"""Monotone G-heat marches: closed forms, scheme guarantees, nesting."""

import ast
import math
import pathlib
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import (DomainError, GFunction, Grid, SigmaInterval, gbm_fdd_expect,
                     gbm_quadratic_identity, gnormal_expect, solve_gheat,
                     symmetric_bernoulli_family, two_point_sum_expect)
from gexpect import ambiguity, pde
from gexpect.ambiguity import evaluate
from gexpect.functionals import get, get_pair
from gexpect.pde import _check_stencil_2d, _march_1d, _march_2d

SI = SigmaInterval(0.5, 1.0)
HALF_NORMAL_MEAN = 0.3989422804014327  # E[Z+] for unit variance, oracle: 1/sqrt(2*pi)


def small_grid(G, half_width=4.0, h=0.1, horizon=1.0):
    return Grid.build(G.dimension, half_width, h, horizon, G.sigma_sq_max)


def cfl(dim, h, horizon, sigma_sq_max):
    """(tau, steps) of the CFL-limited march of `horizon` on spacing h."""
    grid = Grid.build(dim, 1.0, h, horizon, sigma_sq_max)
    return grid.time_step, grid.steps


def where_march_1d(u, lo, hi, h, tau, steps):
    """The 1-d march with the weight picked by np.where on the sign of the
    second difference, each weight sigma^2 kappa, kappa = tau / (2 h^2): the
    bit-for-bit reference for pde._march_1d."""
    u = np.array(u, dtype=float)
    kappa = 0.5 * tau / h ** 2
    for _ in range(steps):
        y = u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]
        u[..., 1:-1] += np.where(y >= 0.0, hi * kappa * y, lo * kappa * y)
    return u


def divided_march_1d(u, lo, hi, h, tau, steps):
    """The 1-d march that divides each second difference by h^2 and scales
    the generator by tau / 2 on every step: the rounding reference that
    where_march_1d's weights are checked against."""
    u = np.array(u, dtype=float)
    for _ in range(steps):
        d2 = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / h ** 2
        g = np.where(d2 >= 0.0, hi * d2, lo * d2)
        u[..., 1:-1] += 0.5 * tau * g
    return u


def fdd_deltas_widths(G, times):
    """The increments of `times`, each stage's half-width MARGIN_STDS
    sigma_max sqrt(delta_j), and L, their sum: the half-width that sets h."""
    deltas = [times[0]] + [t2 - t1 for t1, t2 in zip(times, times[1:])]
    sigma = math.sqrt(G.sigma_sq_max)
    widths = [pde.MARGIN_STDS * (sigma * math.sqrt(d)) for d in deltas]
    return deltas, widths, pde.MARGIN_STDS * (sigma * sum(math.sqrt(d) for d in deltas))


def fdd_nodes(p, accuracy):
    nodes = pde._preset_nodes(pde.NODES_FDD, accuracy)
    return (nodes // 2) | 1 if p == 3 else nodes


def dense_fdd_expect(G, times, phi, accuracy):
    """gbm_fdd_expect on the whole per-stage cube: stage j spans m_j whole
    spacings each side, w_j / h rounded up; the data are evaluated at the
    lattice values h * k, k the running sums of the stage offsets, on p
    meshgrids; every stage is marched by where_march_1d and read at its
    centre: the bit-for-bit reference for the streamed last stage."""
    G = pde.as_gfunction(G)
    lo, hi = pde._theta_1d_range(G)
    p = len(times)
    deltas, widths, L = fdd_deltas_widths(G, times)

    def march(grid):
        h = grid.spacing
        halves = [math.ceil(w / h - 1e-9) for w in widths]
        offsets = np.meshgrid(*(np.arange(-m, m + 1) for m in halves), indexing="ij")
        lattice = np.cumsum(offsets, axis=0)
        u = evaluate(phi, *(h * k[..., None] for k in lattice), what="initial data")
        data_max = float(np.max(np.abs(u)))
        for j in range(p - 1, -1, -1):
            stage = Grid.build(1, halves[j] * h, h, deltas[j], G.sigma_sq_max)
            u = where_march_1d(u, lo, hi, h, stage.time_step, stage.steps)[..., halves[j]]
        return [(float(u), data_max)]

    return pde._two_grid(G, times[-1], L, fdd_nodes(p, accuracy), march,
                         list(zip(deltas, widths)))[0]


def full_width_fdd_expect(G, times, phi, accuracy):
    """The nested solve with every stage on the whole [-L, L]: data on the
    p-cube of the axis, every stage marched by where_march_1d and read on
    its diagonal by einsum, and one tail term for [-L, L] over the whole
    horizon.  Its rim lies at least as far out as any per-stage rim."""
    G = pde.as_gfunction(G)
    lo, hi = pde._theta_1d_range(G)
    p = len(times)
    deltas, _, L = fdd_deltas_widths(G, times)

    def march(grid):
        mesh = np.meshgrid(*([grid.axis()] * p), indexing="ij")
        u = evaluate(phi, *(g[..., None] for g in mesh), what="initial data")
        data_max = float(np.max(np.abs(u)))
        for j in range(p - 1, -1, -1):
            stage = Grid.build(1, L, grid.spacing, deltas[j], G.sigma_sq_max)
            u = where_march_1d(u, lo, hi, grid.spacing, stage.time_step, stage.steps)
            if j:
                u = np.einsum("...ii->...i", u)
        return [(float(u[len(u) // 2]), data_max)]

    return pde._two_grid(G, times[-1], L, fdd_nodes(p, accuracy), march,
                         [(times[-1], L)])[0]


def alloc_march_2d(u, G, h, tau, steps):
    """The 2-d march on whole-array views, allocating every difference,
    weighted sum and maximum afresh each step, each member weighted by
    ((a - |c|) kappa, (b - |c|) kappa, |c| kappa), kappa = tau / (2 h^2):
    the bit-for-bit reference for pde._march_2d."""
    _check_stencil_2d(G, h, tau)
    u = np.array(u, dtype=float)
    kappa = 0.5 * tau / h ** 2
    coeffs = [(float(S[0, 0]), float(S[1, 1]), float(S[0, 1])) for S in G.theta]
    for _ in range(steps):
        cen = u[1:-1, 1:-1]
        xx = u[2:, 1:-1] + u[:-2, 1:-1] - 2.0 * cen
        yy = u[1:-1, 2:] + u[1:-1, :-2] - 2.0 * cen
        dd = u[2:, 2:] + u[:-2, :-2] - 2.0 * cen
        ad = u[2:, :-2] + u[:-2, 2:] - 2.0 * cen
        best = None
        for a, b, c in coeffs:
            cc = abs(c)
            cross = dd if c >= 0 else ad
            step = (a - cc) * kappa * xx + (b - cc) * kappa * yy + cc * kappa * cross
            best = step if best is None else np.maximum(best, step)
        u[1:-1, 1:-1] = cen + best
    return u


def divided_march_2d(u, G, h, tau, steps):
    """The 2-d march that divides each member's Laplacian by h^2 and scales
    the maximum by tau / 2 on every step: the rounding reference that
    alloc_march_2d's weights are checked against."""
    u = np.array(u, dtype=float)
    hh = h ** 2
    coeffs = [(float(S[0, 0]), float(S[1, 1]), float(S[0, 1])) for S in G.theta]
    for _ in range(steps):
        cen = u[1:-1, 1:-1]
        xx = u[2:, 1:-1] + u[:-2, 1:-1] - 2.0 * cen
        yy = u[1:-1, 2:] + u[1:-1, :-2] - 2.0 * cen
        dd = u[2:, 2:] + u[:-2, :-2] - 2.0 * cen
        ad = u[2:, :-2] + u[:-2, 2:] - 2.0 * cen
        best = None
        for a, b, c in coeffs:
            cc = abs(c)
            cross = dd if c >= 0 else ad
            lap = ((a - cc) * xx + (b - cc) * yy + cc * cross) / hh
            best = lap if best is None else np.maximum(best, lap)
        u[1:-1, 1:-1] = cen + 0.5 * tau * best
    return u


def test_linear_data_is_fixed_point():
    G = GFunction.from_interval(SI)
    grid = small_grid(G)
    field, _ = solve_gheat(G, lambda x: 2.0 * x, grid)
    axis = grid.axis()
    inner = slice(10, len(axis) - 10)
    assert np.allclose(field[inner], 2.0 * axis[inner], atol=1e-9)


def test_constant_data_preserved_exactly():
    G = GFunction.from_interval(SI)
    grid = small_grid(G)
    field, _ = solve_gheat(G, lambda x: np.full_like(x, 3.5), grid)
    assert np.all(field == 3.5)


def test_convex_square_flows_at_upper_variance():
    est = gnormal_expect(SI, lambda x: x * x, accuracy="default")
    assert est.value == pytest.approx(1.0, abs=0.005)
    assert est.error_bar >= abs(est.value - 1.0)


def test_concave_square_flows_at_lower_variance():
    est = gnormal_expect(SI, lambda x: -x * x, accuracy="default")
    assert est.value == pytest.approx(-0.5, abs=0.005)
    assert est.error_bar >= abs(est.value + 0.5)


def test_positive_part_closed_form():
    est = gnormal_expect(SI, lambda x: np.maximum(x, 0.0), accuracy="default")
    assert est.value == pytest.approx(HALF_NORMAL_MEAN, abs=0.005)
    assert est.error_bar >= abs(est.value - HALF_NORMAL_MEAN)


def test_sin_agrees_with_exact_dp(bernoulli):
    from gexpect import iid_sum_expect

    est = gnormal_expect(SI, np.sin, accuracy="default")
    dp = iid_sum_expect(bernoulli, 256, np.sin, scale=1 / 16)
    assert abs(est.value - dp) <= 0.02


def test_cfl_rejected_at_construction():
    with pytest.raises(DomainError, match="CFL"):
        Grid(1, 4.0, 0.1, 0.2, 1.0, 1.0)


@pytest.mark.parametrize("field", ["half_width", "spacing", "time_step", "horizon",
                                   "sigma_sq_max"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_grid_rejects_non_finite_field_by_name(field, bad):
    """A NaN sigma_sq_max made the CFL ratio NaN, and NaN > 1 is False."""
    good = {"dim": 1, "half_width": 4.0, "spacing": 0.1, "time_step": 0.004,
            "horizon": 1.0, "sigma_sq_max": 1.0}
    with pytest.raises(DomainError, match=f"^{field} must be"):
        Grid(**{**good, field: bad})


@pytest.mark.parametrize("field, args", [
    ("horizon", (1, 4.0, 0.1, math.inf, 1.0)),    # was OverflowError from math.ceil
    ("sigma_sq_max", (1, 4.0, 0.1, 1.0, math.nan)),  # was ValueError from math.ceil
    ("sigma_sq_max", (2, 4.0, 0.1, 1.0, math.inf)),  # was ZeroDivisionError
    ("spacing", (1, 4.0, 0.0, 1.0, 1.0)),         # was ZeroDivisionError
])
def test_grid_build_rejects_non_finite_field_by_name(field, args):
    with pytest.raises(DomainError, match=f"^{field} must be"):
        Grid.build(*args)


@pytest.mark.parametrize("field, call", [
    ("spacing", lambda: Grid.build(1, 1e201, 1e200, 1.0, 1.0)),
    ("spacing", lambda: Grid(1, 1e201, 1e200, 1.0, 1.0, 1.0)),
    ("half_width", lambda: pde._boundary_bound(GFunction.from_interval(SI), 1.0, 1e200,
                                               1.0, 1)),
], ids=["build", "grid", "boundary_bound"])
def test_finite_field_whose_square_overflows_rejected_by_name(field, call):
    """Float ** raised OverflowError: (34, 'Numerical result out of range')."""
    with pytest.raises(DomainError, match=f"^{field} is too large"):
        call()


def test_non_monotone_stencil_rejected():
    # PSD (det = 0.19) but |off-diagonal| exceeds the smaller diagonal entry
    G = GFunction.from_matrices([np.array([[2.0, 0.9], [0.9, 0.5]])])
    grid = small_grid(G, half_width=3.0, h=0.2)
    with pytest.raises(DomainError, match=r"needs \|c\| <= min\(a, b\)"):
        solve_gheat(G, lambda p: np.sum(p, axis=-1), grid)


def test_comparison_monotone_in_data():
    G = GFunction.from_interval(SI)
    grid = small_grid(G, half_width=3.0, h=0.1, horizon=0.5)
    rng = np.random.default_rng(2)
    axis = grid.axis()
    base = np.sin(axis) + rng.uniform(-0.2, 0.2, size=axis.shape)
    above = base + rng.uniform(0.0, 0.5, size=axis.shape)
    u1, _ = solve_gheat(G, lambda x: np.interp(x, axis, base), grid)
    u2, _ = solve_gheat(G, lambda x: np.interp(x, axis, above), grid)
    assert np.all(u1 <= u2 + 1e-12)


def test_solution_operator_subadditive_and_homogeneous():
    G = GFunction.from_interval(SI)
    grid = small_grid(G, half_width=3.0, h=0.1, horizon=0.5)
    f1 = lambda x: np.sin(1.3 * x)
    f2 = lambda x: np.maximum(x, 0.0) - 0.3 * x
    u1, _ = solve_gheat(G, f1, grid)
    u2, _ = solve_gheat(G, f2, grid)
    u12, _ = solve_gheat(G, lambda x: f1(x) + f2(x), grid)
    assert np.all(u12 <= u1 + u2 + 1e-8)
    u_scaled, _ = solve_gheat(G, lambda x: 2.5 * f1(x), grid)
    assert np.allclose(u_scaled, 2.5 * u1, atol=1e-8)


def test_classical_degeneracy_matches_trace():
    G = GFunction.from_matrices([np.array([[0.6, 0.2], [0.2, 0.9]])])
    est = gnormal_expect(G, lambda p: np.einsum("...i,...i->...", p, p),
                         accuracy="fast")
    assert est.value == pytest.approx(1.5, abs=0.01)


def test_2d_diagonal_theta_decomposes_into_1d():
    G = GFunction.from_matrices([np.diag([1.0, 1.0]), np.diag([0.5, 0.5])])
    est2 = gnormal_expect(G, lambda p: np.einsum("...i,...i->...", p, p),
                          accuracy="fast")
    est1 = gnormal_expect(SI, lambda x: x * x, accuracy="default")
    assert est2.value == pytest.approx(2.0 * est1.value, abs=0.02)


@pytest.mark.parametrize("A, match", [
    (np.eye(3), "must be 2x2"),                           # was numpy's ValueError from einsum
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),    # was raised after the march
    (np.array([[1.0, 0.0], [0.0, math.nan]]), "^matrix has non-finite"),
    (np.array([[math.inf, 0.0], [0.0, 1.0]]), "^matrix has non-finite"),
])
def test_quadratic_identity_checks_A_before_marching(A, match):
    G = GFunction.from_matrices([np.diag([1.0, 0.5])])
    with mock.patch.object(pde, "_march", side_effect=AssertionError("marched")), \
            pytest.raises(DomainError, match=match):
        gbm_quadratic_identity(G, A, 1.0)


def test_quadratic_identity_examples():
    est, ref = gbm_quadratic_identity(SI, [[1.0]], 1.0)
    assert ref == 1.0 and abs(est.value - ref) <= 0.01
    est, ref = gbm_quadratic_identity(SI, [[0.0]], 0.5)
    assert ref == 0.0 and abs(est.value) <= 1e-9
    G2 = GFunction.from_matrices([np.diag([1.0, 1.0]), np.diag([0.5, 0.5])])
    est, ref = gbm_quadratic_identity(G2, np.eye(2), 1.0)
    assert ref == 2.0 and abs(est.value - ref) <= 0.03


def test_fdd_increment_examples():
    est = gbm_fdd_expect(SI, (0.25, 1.0), lambda a, b: b - a, accuracy="fast")
    assert abs(est.value) <= 0.005
    est = gbm_fdd_expect(SI, (0.25, 1.0), lambda a, b: (b - a) ** 2, accuracy="fast")
    assert est.value == pytest.approx(0.75, abs=0.01)
    est = gbm_fdd_expect(SI, (0.5,), lambda a: a * a, accuracy="fast")
    assert est.value == pytest.approx(0.5, abs=0.01)


def test_fdd_arity_cap():
    with pytest.raises(DomainError, match="fdd arity cap"):
        gbm_fdd_expect(SI, (0.2, 0.4, 0.6, 0.8), lambda *a: 0.0)


def test_fdd_rejects_wrong_arity():
    with pytest.raises(DomainError, match="arity mismatch: expected 2, got 1"):
        gbm_fdd_expect(SI, (0.5, 1.0), get("square"), accuracy="fast")
    with pytest.raises(DomainError, match="arity mismatch: expected 1, got 2"):
        gbm_fdd_expect(SI, (0.5,), get_pair("increment"), accuracy="fast")


def test_fdd_three_marginals_smoke():
    est = gbm_fdd_expect(SI, (0.25, 0.5, 1.0), lambda a, b, c: c - a, accuracy="fast")
    assert abs(est.value) <= 0.05


def test_stability_two_step_convolution():
    """Running one horizon in two nested stages must match the single solve."""
    alpha, beta = 0.6, 0.8
    s = alpha ** 2 + beta ** 2
    phi = np.sin
    direct = gnormal_expect(SI, lambda x: phi(np.sqrt(s) * x), accuracy="default")
    t1 = alpha ** 2 / s
    nested = gbm_fdd_expect(SI, (t1, 1.0),
                            lambda x1, x2: phi(np.sqrt(s) * x2), accuracy="default")
    assert abs(direct.value - nested.value) <= 0.02
    assert abs(direct.value - nested.value) <= direct.error_bar + nested.error_bar + 0.01


def test_snapshots_and_field_rows_1d():
    from gexpect.pde import fields_rows

    G = GFunction.from_interval(SI)
    grid = small_grid(G, half_width=3.0, h=0.1, horizon=0.5)
    field, snaps = solve_gheat(G, lambda x: x * x, grid, snapshot_count=3)
    assert len(snaps) == 3
    times = [t for t, _ in snaps]
    assert times == sorted(set(times)) and times[-1] < 0.5
    rows = fields_rows(grid, field, snaps)
    n_axis = len(grid.axis())
    assert len(rows) == 4 * n_axis
    assert len({r["time"] for r in rows}) == 4
    assert rows[0]["y"] == ""
    # 10 steps leave room for 4 snapshots, 2 steps apart, and 2 steps for
    # 9: one before each step but the last
    short = small_grid(G, half_width=3.0, h=0.1, horizon=10 * grid.time_step)
    assert short.steps == 10
    for count, steps_at in ((4, [2, 4, 6, 8]), (9, list(range(1, 10))), (20, list(range(1, 10)))):
        _, snaps = solve_gheat(G, lambda x: x * x, short, snapshot_count=count)
        assert [t for t, _ in snaps] == [k * short.time_step for k in steps_at]
    with pytest.raises(DomainError):
        solve_gheat(G, lambda x: x * x, short, snapshot_count=-1)


def test_snapshots_2d():
    G = GFunction.from_matrices([np.diag([1.0, 0.5])])
    grid = small_grid(G, half_width=2.0, h=0.25, horizon=0.3)
    field, snaps = solve_gheat(G, lambda p: np.sum(np.square(p), axis=-1), grid,
                               snapshot_count=2)
    assert len(snaps) == 2
    times = [t for t, _ in snaps]
    assert times == sorted(set(times)) and times[-1] < 0.3
    n_axis = len(grid.axis())
    assert field.shape == (n_axis, n_axis)
    assert all(vals.shape == (n_axis, n_axis) for _, vals in snaps)


def test_richardson_brackets_on_smooth_and_kinked_data():
    for phi, truth in ((lambda x: x * x, 1.0),
                       (lambda x: np.maximum(x, 0.0), HALF_NORMAL_MEAN)):
        est = gnormal_expect(SI, phi, accuracy="fast")
        assert est.error_bar >= abs(est.value - truth)


MARCH_1D_DRAWS = (st.integers(0, 5_000),
                  st.sampled_from([(9,), (3, 7), (5, 7), (2, 3, 6), (2, 2, 3, 5)]),
                  st.sampled_from(["interval", "zero_lo", "equal"]))


def draw_march_1d(rng, shape, band):
    """(u, lo, hi, h, tau, steps): 1-3 batch axes or one row, sigma_ = 0 and
    sigma_ = sigma^-, data with +-0.0, a CFL-limited march."""
    u = rng.uniform(-2.0, 2.0, size=shape)
    special = rng.choice([0.0, -0.0, 1.0, -2.0], size=shape)
    u = np.where(rng.random(shape) < 0.5, special, u)
    hi = float(rng.uniform(0.2, 2.0))
    lo = {"interval": float(rng.uniform(0.0, hi)), "zero_lo": 0.0, "equal": hi}[band]
    h = float(rng.uniform(0.05, 0.5))
    return (u, lo, hi, h, *cfl(1, h, float(rng.uniform(0.5, 15.0)) * h * h / hi, hi))


@given(*MARCH_1D_DRAWS, st.sampled_from([5, 14, 25, pde.BLOCK_CELLS]))
@settings(max_examples=60)
def test_march_1d_bit_identical_to_where_form(seed, shape, band, block_cells):
    """The draws of draw_march_1d, and row blocks narrower than a row (5
    cells), of two rows with a partial last block (14), of three or four
    rows (25), or holding every row.  k1 steps and then k2 more give the
    same bytes as k1 + k2 steps."""
    rng = np.random.default_rng(seed)
    u, lo, hi, h, tau, steps = draw_march_1d(rng, shape, band)
    k1 = int(rng.integers(0, steps + 1))
    with mock.patch.object(pde, "BLOCK_CELLS", block_cells):
        got = _march_1d(u, lo, hi, h, tau, steps)
        split = _march_1d(_march_1d(u, lo, hi, h, tau, k1), lo, hi, h, tau, steps - k1)
    ref = where_march_1d(u, lo, hi, h, tau, steps)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert split.tobytes() == got.tobytes()


THETA_SIGNS = {"positive": (1,), "negative": (-1,), "zero": (0,), "mixed": (1, -1, 0),
               "single": (1,), "neg_zero": (-0.0,), "degenerate": (0, -0.0, 1)}
MARCH_2D_DRAWS = (st.integers(0, 5_000), st.sampled_from(sorted(THETA_SIGNS)),
                  st.sampled_from([(3, 3), (7, 7), (9, 14), (15, 6), (23, 11), (4, 30)]),
                  st.booleans())


def draw_march_2d(rng, signs, shape, wide):
    """(u, G, h, tau, steps): Theta with c > 0, c < 0, c = +-0.0, mixed
    signs, a single member, or degenerate members with a = 0 or b = 0; data
    with +-0.0 and +-1e-300; spacings h >= 1 as well as h < 1; a CFL-limited
    march."""
    mats = []
    members = 1 if signs == "single" else int(rng.integers(2, 4))
    for i in range(members):
        a, b = (float(x) for x in rng.uniform(0.1, 2.0, size=2))
        sign = THETA_SIGNS[signs][i % len(THETA_SIGNS[signs])]
        if signs == "degenerate" and sign != 1:
            a, b = (0.0, b) if rng.random() < 0.5 else (a, 0.0)
        mats.append(np.array([[a, 0.0], [0.0, b]]))
        mats[-1][0, 1] = mats[-1][1, 0] = sign * float(rng.uniform(0.0, min(a, b)))
    G = GFunction.from_matrices(mats)
    u = rng.uniform(-2.0, 2.0, size=shape)
    special = rng.choice([0.0, -0.0, 1.0, -2.0, 1e-300, -1e-300], size=shape)
    u = np.where(rng.random(shape) < 0.5, special, u)
    h = float(rng.uniform(1.0, 3.0) if wide else rng.uniform(0.05, 0.5))
    return (u, G, h, *cfl(2, h, float(rng.uniform(0.5, 15.0)) * h * h / G.sigma_sq_max,
                          G.sigma_sq_max))


@given(*MARCH_2D_DRAWS, st.booleans(), st.sampled_from([1, 5, 14, 25, pde.BLOCK_CELLS]))
@settings(max_examples=120, deadline=None)
def test_march_2d_bit_identical_to_allocating_form(seed, signs, shape, wide, fortran,
                                                   block_cells):
    """The draws of draw_march_2d, column-major input, and row tiles of one
    interior row (1 or 5 cells), of a few rows with a partial last tile (14
    or 25 on the narrower shapes), or holding every row.  k1 steps and then
    k2 more give the same bytes as k1 + k2 steps."""
    rng = np.random.default_rng(seed)
    u, G, h, tau, steps = draw_march_2d(rng, signs, shape, wide)
    if fortran:
        u = np.asfortranarray(u)
    k1 = int(rng.integers(0, steps + 1))
    with mock.patch.object(pde, "BLOCK_CELLS", block_cells):
        got = _march_2d(u, G, h, tau, steps)
        split = _march_2d(_march_2d(u, G, h, tau, k1), G, h, tau, steps - k1)
    ref = alloc_march_2d(u, G, h, tau, steps)
    assert got.tobytes() == ref.tobytes()
    assert split.tobytes() == got.tobytes()


# 8 steps eps max|u_0|: each form rounds a step by a few ulps of max|u| <=
# max|u_0|, and a monotone step that preserves constants does not enlarge a
# difference carried in from earlier steps; over 45,000 1-d and 126,000 2-d
# draws the largest gap seen was 2.0 and 0.625 steps eps max|u_0|
ROUNDING_ULPS_PER_STEP = 8


@given(*MARCH_1D_DRAWS)
@settings(max_examples=60)
def test_march_1d_within_rounding_of_divided_form(seed, shape, band):
    """Weights folded into the step move each node by at most
    ROUNDING_ULPS_PER_STEP * steps * eps * max|u_0| against the form that
    divides by h^2 and scales by tau / 2 on every step."""
    u, lo, hi, h, tau, steps = draw_march_1d(np.random.default_rng(seed), shape, band)
    gap = np.abs(_march_1d(u, lo, hi, h, tau, steps) - divided_march_1d(u, lo, hi, h, tau, steps))
    assert np.all(gap <= ROUNDING_ULPS_PER_STEP * steps * np.finfo(float).eps
                  * np.max(np.abs(u)))


@given(*MARCH_2D_DRAWS)
@settings(max_examples=120, deadline=None)
def test_march_2d_within_rounding_of_divided_form(seed, signs, shape, wide):
    """As the 1-d test, for the nine-point stencil's member weights."""
    u, G, h, tau, steps = draw_march_2d(np.random.default_rng(seed), signs, shape, wide)
    gap = np.abs(_march_2d(u, G, h, tau, steps) - divided_march_2d(u, G, h, tau, steps))
    assert np.all(gap <= ROUNDING_ULPS_PER_STEP * steps * np.finfo(float).eps
                  * np.max(np.abs(u)))


def test_march_2d_skipped_cross_term_changes_at_most_signs_of_zero():
    """Members with c = 0 skip the cross term |c| * cross, which is +-0.0.
    That is exact except where a node is -0.0 and the winning Laplacian is
    a signed zero, which needs a member with a = b = c = 0 or subnormal
    products: there the node may come out +0.0 rather than -0.0 or back.
    Every value still compares equal to the allocating form; 4 of these 40
    seeds flip a sign."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        G = GFunction.from_matrices([np.zeros((2, 2)),
                                     np.diag(rng.uniform(0.05, 2.0, 2))])
        u = rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324], size=(7, 9))
        tau, steps = cfl(2, 1.0, float(rng.uniform(0.5, 3.0)) / G.sigma_sq_max,
                         G.sigma_sq_max)
        got = _march_2d(u, G, 1.0, tau, steps)
        ref = alloc_march_2d(u, G, 1.0, tau, steps)
        assert np.array_equal(got, ref)
        differ = got.view(np.int64) != ref.view(np.int64)
        assert np.all(got[differ] == 0.0)


def test_stacked_gnormal_matches_separate_calls():
    """Every PdeEstimate field, by float.hex, in 1-d (one march per grid
    for the stack) and 2-d, including a scalar-only functional."""
    def hexes(est):
        return [float.hex(float(getattr(est, f.name))) for f in fields(est)]

    cases = [(SI, [lambda x: x * x, np.sin, lambda x: math.cos(x),
                   lambda x: np.maximum(x, 0.0)], "default"),
             (GFunction.from_matrices([np.diag([1.0, 0.5]),
                                       np.array([[0.6, 0.2], [0.2, 0.4]])]),
              [lambda p: np.einsum("...i,...i->...", p, p),
               lambda p: math.cos(p[0]) * p[1]], "fast")]
    for G, phis, accuracy in cases:
        stacked = gnormal_expect(G, phis, horizon=0.7, accuracy=accuracy)
        assert len(stacked) == len(phis)
        for phi, est in zip(phis, stacked):
            assert hexes(est) == hexes(gnormal_expect(G, phi, horizon=0.7,
                                                      accuracy=accuracy))


# every PdeEstimate field, in field order, by float.hex, as computed before
# the two-grid driver was shared; no committed report covers these
PINNED = {
    "gnormal_2d": ("0x1.6a87be742bdcfp-2", "0x1.78db92c38ab42p-15", "0x1.6a8d92726e0dfp-2",
                   "0x1.74ff908c40000p-16", "0x1.ec8cea033d8a0p-22", "0x1.01059f2e3382ep-4",
                   "0x1.414706f9c063ap+2", "0x1.8000000000000p+2"),
    "fdd_p1": ("0x1.3c6bea191ec69p-2", "0x1.7e32d94e7f71ap-14", "0x1.3c5ffd4d9bcd0p-2",
               "0x1.7d99705f32000p-15", "0x1.30023c78a3da8p-23", "0x1.7cbad13701bcap-5",
               "0x1.2971f372f95b6p+2", "0x1.8000000000000p+2"),
    # error_bar, boundary_bound and margin as the per-stage rims give them
    "fdd_p3": ("0x1.8d1d6840465e6p-1", "0x1.b84cc97242b0cp-7", "0x1.908de1c2cf8f2p-1",
               "0x1.b83cc14498600p-8", "0x1.0045d82b8e510p-19", "0x1.a389df3c2312ep-3",
               "0x1.47c3b666fb66cp+3", "0x1.8000000000000p+2"),
}


def test_2d_gnormal_and_fdd_estimates_pinned():
    G2 = GFunction.from_matrices([np.diag([1.0, 0.5]), np.array([[0.6, -0.2], [-0.2, 0.4]])])
    got = {
        "gnormal_2d": gnormal_expect(G2, lambda p: np.maximum(p[..., 0] + 0.5 * p[..., 1], 0.0),
                                     horizon=0.7, accuracy="fast"),
        "fdd_p1": gbm_fdd_expect(SI, (0.6,), lambda a: np.maximum(a, 0.0), accuracy="fast"),
        "fdd_p3": gbm_fdd_expect(SI, (0.25, 0.5, 1.0),
                                 lambda a, b, c: np.maximum(a + b + c, 0.0), accuracy="fast"),
    }
    for name, est in got.items():
        assert tuple(float.hex(float(getattr(est, f.name))) for f in fields(est)) == \
            PINNED[name], name


def estimate_hexes(est):
    return [float.hex(float(getattr(est, f.name))) for f in fields(est)]


# every PdeEstimate field, in field order, by float.hex, as computed by the
# 2-d march before it was cut into row tiles
PINNED_2D_DEFAULT = ["0x1.24710edd49df2p-2", "0x1.2ce8b42b9fa60p-14", "0x1.2467b4a4f33f8p-2",
                     "0x1.2b470ad3f4000p-15", "0x1.a047f67d85da1p-22", "0x1.21a1851ff630bp-5",
                     "0x1.0f876ccdf6cdap+2", "0x1.8000000000000p+2"]


def test_2d_gnormal_pinned_at_default_across_row_tiles():
    """One member with c > 0 and one with c < 0, at `default`: the fine
    grid has 241 nodes a side, so its 239 interior rows span two tiles."""
    assert 239 > pde.BLOCK_CELLS // 241
    G = GFunction.from_matrices([np.array([[1.0, 0.3], [0.3, 0.8]]),
                                 np.array([[0.6, -0.2], [-0.2, 0.9]])])
    est = gnormal_expect(G, lambda p: np.maximum(p[..., 0] - 0.5 * p[..., 1], 0.0),
                         horizon=0.5, accuracy="default")
    assert estimate_hexes(est) == PINNED_2D_DEFAULT


def kinked_product(*x):
    """prod_i (x_i - x_{i-1})+ with x_0 = 0, as (c - b)+ (b - a)+ a+ at p = 3."""
    out, prev = 1.0, 0.0
    for xi in x:
        out = out * np.maximum(xi - prev, 0.0)
        prev = xi
    return out


FDD_DATA = {
    "sin": lambda *x: np.sin(sum(k * xi for k, xi in enumerate(x, 1))),
    "kinked_product": kinked_product,
    # ignores every argument but the first: a broadcast result on open grids
    "first_square": lambda *x: x[0] * x[0],
    # raises TypeError on arrays: evaluated point by point
    "float_only": lambda *x: math.cos(sum(x)) * abs(x[-1]),
}


@pytest.mark.parametrize("name", sorted(FDD_DATA))
@pytest.mark.parametrize("block_cells", [1, 5, 100, pde.BLOCK_CELLS])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_streamed_fdd_bit_identical_to_dense_cube(p, block_cells, name):
    """Blocks of one row (1 and 5 cells), of several rows with a partial
    last block (100), or of every row; every PdeEstimate field by
    float.hex.  The node table is cut to 15 so that the cube stays small."""
    times = (0.25, 0.5, 1.0)[3 - p:]
    with mock.patch.dict(pde.NODES_FDD, {"fast": 15}), \
            mock.patch.object(pde, "BLOCK_CELLS", block_cells):
        got = gbm_fdd_expect(SI, times, FDD_DATA[name], accuracy="fast")
        ref = dense_fdd_expect(SI, times, FDD_DATA[name], "fast")
    assert estimate_hexes(got) == estimate_hexes(ref)


@pytest.mark.parametrize("name", ["sin", "kinked_product"])
def test_streamed_fdd_bit_identical_at_fast_preset(name):
    """p = 3 at the fast preset: the 101^3 fine cube streams in 32 blocks."""
    times = (0.25, 0.5, 1.0)
    got = gbm_fdd_expect(SI, times, FDD_DATA[name], accuracy="fast")
    assert estimate_hexes(got) == estimate_hexes(dense_fdd_expect(SI, times, FDD_DATA[name],
                                                                  "fast"))


@pytest.mark.parametrize("name", sorted(FDD_DATA))
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("margin", [pde.MARGIN_STDS, 3.0], ids=["shipped", "margin3"])
def test_per_stage_fdd_within_its_tail_of_full_width(margin, p, name):
    """The per-stage rims move each march value, coarse and fine, by at
    most the per-stage tail bound against the full-width solve; at p = 1
    the two are one solve, every field alike.  A stage of m nodes a side
    takes about m^2 / 32 steps at the shipped margin, so its rim reaches
    its centre only on the p = 2 fine grid; at 3 standard deviations,
    about m^2 / 8 steps, it does on the fine grid at p = 2 and 3."""
    times = (0.25, 0.5, 1.0)[3 - p:]
    with mock.patch.object(pde, "MARGIN_STDS", margin):
        got = gbm_fdd_expect(SI, times, FDD_DATA[name], accuracy="fast")
        ref = full_width_fdd_expect(SI, times, FDD_DATA[name], "fast")
    if p == 1:
        assert estimate_hexes(got) == estimate_hexes(ref)
    for value, full in ((got.value, ref.value), (got.coarse_value, ref.coarse_value)):
        assert abs(value - full) <= got.boundary_bound + 1e-12 * (1.0 + abs(full))


# max(a, b)+, a+ (b - a)+, cos 2a cos(b - a) and -|b - 2a| on times (0.5, 1)
BAR_AUDIT = {
    "max_plus": lambda a, b: np.maximum(np.maximum(a, b), 0.0),
    "kinked_product": lambda a, b: np.maximum(a, 0.0) * np.maximum(b - a, 0.0),
    "cos_product": lambda a, b: np.cos(2.0 * a) * np.cos(b - a),
    "neg_abs": lambda a, b: -np.abs(b - 2.0 * a),
}


@pytest.mark.parametrize("name", sorted(BAR_AUDIT))
def test_fdd_bar_brackets_dp_extrapolation(bernoulli, name):
    """Non-polynomial data, where no closed form exists: the exact
    two-checkpoint DP V_n on {-1, 0, 1} with variances {0.5, 1}, k1 = n / 2,
    converges like 1 / n, so 2 V_512 - V_256 is the reference that the
    `default` bar must bracket."""
    psi = BAR_AUDIT[name]
    dp = {n: two_point_sum_expect([bernoulli] * n, n // 2, psi, 1 / math.sqrt(n))
          for n in (256, 512)}
    est = gbm_fdd_expect(SI, (0.5, 1.0), psi, accuracy="default")
    assert abs(est.value - (2.0 * dp[512] - dp[256])) <= est.error_bar


def test_fdd_p3_working_set_is_one_state_plus_blocks(traced_peak_mib):
    """At the default preset the fine grid's per-stage data cube has
    61 x 61 x 85 nodes: it alone would take 2.4 MiB.  The streamed solve
    traces about 1.1 MiB."""
    psi = lambda a, b, c: np.maximum(c - b, 0.0) * np.maximum(b - a, 0.0)
    peak = traced_peak_mib(lambda: gbm_fdd_expect(SI, (0.25, 0.5, 1.0), psi))
    assert peak < 2.0


@pytest.mark.parametrize("G, phi", [
    (SI, lambda x: 3.0 * np.exp(-x * x)),
    (GFunction.from_matrices([np.diag([1.0, 0.5])]),
     lambda p: 3.0 * np.exp(-np.einsum("...i,...i->...", p, p))),
], ids=["1d", "2d"])
def test_gnormal_tail_bound_scales_initial_data(G, phi):
    """The bump peaks at 3 on the centre node, above its rim, and the march
    lowers it: the tail bound scales max |initial data| = 3, not the
    marched field's maximum."""
    G = pde.as_gfunction(G)
    est = gnormal_expect(G, phi, horizon=1.0, accuracy="fast")
    assert est.boundary_bound == pde._boundary_bound(G, 1.0, est.half_width, 3.0, G.dimension)


@pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0])
def test_horizon_not_positive_and_finite_rejected(horizon):
    with pytest.raises(DomainError, match="horizon must be positive and finite"):
        gnormal_expect(SI, np.sin, horizon=horizon, accuracy="fast")


def test_unknown_accuracy_preset_rejected():
    with pytest.raises(DomainError, match="unknown accuracy 'ultra'; presets are fast"):
        gnormal_expect(SI, np.sin, accuracy="ultra")
    with pytest.raises(DomainError, match="unknown accuracy 'ultra'; presets are fast"):
        gbm_fdd_expect(SI, (0.5, 1.0), lambda a, b: b - a, accuracy="ultra")


@pytest.mark.parametrize("solve", [
    lambda G: gnormal_expect(G, get("square"), accuracy="fast"),
    lambda G: gbm_fdd_expect(G, (0.5, 1.0), get_pair("increment_square"), accuracy="fast"),
], ids=["gnormal_expect", "gbm_fdd_expect"])
@pytest.mark.parametrize("G", [SigmaInterval(0.0, 0.0), GFunction.from_matrices([[[0.0]]])],
                         ids=["interval", "theta"])
def test_zero_upper_variance_rejected(solve, G):
    with pytest.raises(DomainError, match="upper variance is zero"):
        solve(G)


@pytest.mark.parametrize("G", [
    lambda: SigmaInterval(0.5, math.inf),
    lambda: GFunction.from_matrices([[[math.inf]]]),
    lambda: GFunction.from_matrices([[[math.nan]]]),
    lambda: GFunction.from_matrices([np.diag([1.0, math.nan])]),
], ids=["interval_infinite", "theta_infinite", "theta_nan", "theta_2d_nan"])
def test_non_finite_generator_rejected(G):
    """These were accepted: eigvalsh of [[nan]] is nan, and nan < -PSD_TOL
    is false; the march then ended in a plain ValueError."""
    with pytest.raises(DomainError, match="finite"):
        gnormal_expect(G(), np.sin, accuracy="fast")


OVERFLOWING = lambda x: 1e308 * np.cos(3.0 * x)  # finite data, overflowing differences
G1 = pde.as_gfunction(SI)


@pytest.mark.parametrize("solve", [
    lambda: gnormal_expect(SI, OVERFLOWING, accuracy="fast"),
    lambda: gbm_fdd_expect(SI, (1.0,), OVERFLOWING, accuracy="fast"),
    lambda: gbm_fdd_expect(SI, (0.5, 1.0), lambda a, b: OVERFLOWING(b), accuracy="fast"),
    lambda: solve_gheat(G1, OVERFLOWING, small_grid(G1), snapshot_count=2),
    lambda: gnormal_expect(GFunction.from_matrices([np.eye(2)]),
                           lambda p: OVERFLOWING(p[..., 0]), accuracy="fast"),
], ids=["gnormal_1d", "fdd_p1", "fdd_p2", "solve_gheat", "gnormal_2d"])
def test_march_overflow_rejected_by_every_solver(solve):
    """Every solver marches through pde._march, which checks the field;
    gbm_fdd_expect returned value=nan, error_bar=nan here."""
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DomainError, match="grid function has non-finite values"):
        solve()


def test_kernels_take_their_scratch_from_the_aligned_helper(monkeypatch):
    """The sum DP's block scratch, and each march's field copies and
    scratch, come from ambiguity._aligned: its calls are recorded while
    each kernel runs."""
    calls = []
    aligned = ambiguity._aligned

    def record(shape):
        calls.append(aligned(shape))
        return calls[-1]

    monkeypatch.setattr(ambiguity, "_aligned", record)
    monkeypatch.setattr(pde, "_aligned", record)

    n = 30
    steps = ambiguity._sum_steps([symmetric_bernoulli_family((0.5, 1.0))] * n)
    _, shapes = ambiguity._level_boxes(steps, 1)
    v = np.cos(np.arange(3 * ambiguity.BLOCK_CELLS // shapes[n][0] * shapes[n][0]))
    ambiguity._backward_sum(v.reshape(-1, shapes[n][0]),
                            [(steps[k - 1], shapes[k - 1]) for k in range(n, 0, -1)])
    assert [c.shape for c in calls] == [(ambiguity.BLOCK_CELLS,)] * 2

    calls.clear()
    u = np.sin(np.arange(160.0)).reshape(4, 40)
    out = _march_1d(u, 0.5, 1.0, 0.1, 0.004, 3)
    assert [c.shape for c in calls] == [u.shape, (u.size - 2,), (u.size - 2,)]
    assert out is calls[0]

    calls.clear()
    G = GFunction.from_matrices([np.eye(2), [[1.0, 0.3], [0.3, 1.0]],
                                 [[1.0, -0.3], [-0.3, 1.0]]])
    u = np.sin(np.arange(180.0)).reshape(12, 15)
    for count in (2, 3):
        out = _march_2d(u, G, 0.1, 0.002, count)
        fields = [c for c in calls if c.shape == u.shape]
        # xx, yy, both cross differences, twice, best, lap
        assert sorted(c.shape for c in calls if c.shape != u.shape) == [(10 * 15 - 2,)] * 7
        assert len(fields) == 2 and out is fields[count % 2]
        calls.clear()

    # two members with c > 0 share one cross-difference buffer
    G = GFunction.from_matrices([[[1.0, 0.3], [0.3, 1.0]], [[0.8, 0.2], [0.2, 0.9]]])
    _march_2d(u, G, 0.1, 0.002, 2)
    assert sorted(c.shape for c in calls if c.shape != u.shape) == [(10 * 15 - 2,)] * 5


def test_2d_gnormal_working_set(traced_peak_mib):
    """The `large` gnormal_2d shape at default: the fine grid has 241^2
    nodes, 0.44 MiB a field.  The data are evaluated into one stack, and
    the (N, N, 2) points are dropped before the march; with the points
    alive through the march this peaked at 4.42 MiB."""
    top = np.array([[1.0, 0.3], [0.3, 1.0]])
    G = GFunction.from_matrices([top, 0.5 * top])
    ridge = lambda p: np.maximum(p[..., 0] + p[..., 1], 0.0)
    peak = traced_peak_mib(lambda: gnormal_expect(G, ridge, horizon=1.0, accuracy="default"))
    assert peak < 4.0


def test_2d_gnormal_working_set_at_fine(traced_peak_mib):
    """The same shape at `fine`: 321^2 nodes on the fine grid, 0.79 MiB a
    field.  The march holds the field twice and scratch of one row tile
    (about BLOCK_CELLS cells) per difference and member; with scratch of
    field size it peaked at 6.27 MiB."""
    top = np.array([[1.0, 0.3], [0.3, 1.0]])
    G = GFunction.from_matrices([top, 0.5 * top])
    ridge = lambda p: np.maximum(p[..., 0] + p[..., 1], 0.0)
    peak = traced_peak_mib(lambda: gnormal_expect(G, ridge, horizon=1.0, accuracy="fine"))
    assert peak < 4.5


def test_march_kernels_called_only_from_march():
    """pde._march is the one path to the march kernels in the package."""
    kernels = {"_march_1d", "_march_2d", "_theta_1d_range"}
    callers = {name: set() for name in kernels}
    for path in pathlib.Path(pde.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in kernels:
                        callers[node.func.id].add(fn.name)
    assert callers == {name: {"_march"} for name in kernels}
