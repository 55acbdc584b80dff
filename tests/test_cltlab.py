"""Experiment drivers: hypothesis statistics, DP-vs-PDE regressions."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from gexpect import (AmbiguitySet, DiscreteDistribution, DomainError, GFunction,
                     HeterogeneousRows, IidRows, LatticeSpec, MartingaleArray, ResourceCapError,
                     TreeRows, check_iid_necessary_conditions, estimate_limit_G, g_eval,
                     iid_level_tree, iid_sum_expect, nested_expect, nested_product,
                     quadratic_characteristic, run_clt_experiment, run_fdd_experiment,
                     symmetric_bernoulli_family, truncate, two_point_sum_expect)
from gexpect import ambiguity
from gexpect.cltlab import _non_increasing, attach_condition_verdicts, fdd_checkpoints
from gexpect.functionals import get, get_pair
from gexpect.reporting import ExperimentReport

B = symmetric_bernoulli_family((0.5, 1.0))
IID = IidRows(B, (16, 64, 256))


# ---------------------------------------------------------------- oracles

def gaussian_quadrature_mean(fn, sigma_sq=1.0):
    """Classical N(0, sigma_sq) expectation by adaptive quadrature."""
    s = np.sqrt(sigma_sq)
    val, err = integrate.quad(
        lambda z: fn(s * z) * np.exp(-z * z / 2) / np.sqrt(2 * np.pi), -12, 12)
    assert err < 1e-7
    return val


def box_two_point_sum_expect(laws, k1, psi, scale):
    """The two-checkpoint DP over the whole box [lo_k, hi_k] of S_k, read on
    the diagonal at k1: the bit-for-bit reference for the banded kernel."""
    k2 = len(laws)
    lat = laws[0].lattice
    fn = psi.fn if hasattr(psi, "fn") else psi
    per_law = []
    lo = np.zeros(k2 + 1, dtype=np.int64)
    hi = np.zeros(k2 + 1, dtype=np.int64)
    for k, law in enumerate(laws, start=1):
        rows = []
        for i, dist in enumerate(law.members):
            keep = dist.probs > 0.0
            rows.append((law.member_coords(i)[keep][:, 0], dist.probs[keep]))
        per_law.append(rows)
        lo[k] = lo[k - 1] + min(int(c.min()) for c, _ in rows)
        hi[k] = hi[k - 1] + max(int(c.max()) for c, _ in rows)

    def phys(level, coords):
        return scale * (level * lat.origin[0] + lat.step * coords)

    x1 = phys(k1, np.arange(lo[k1], hi[k1] + 1, dtype=float))
    x2 = phys(k2, np.arange(lo[k2], hi[k2] + 1, dtype=float))
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    try:
        v = np.asarray(fn(X1, X2), dtype=float)
        if v.shape != X1.shape:
            raise ValueError
    except Exception:
        v = np.array([[float(fn(float(a), float(b))) for b in x2] for a in x1])

    def backward(v, k_from, k_to):
        for k in range(k_from, k_to, -1):
            prev_len = int(hi[k - 1] - lo[k - 1] + 1)
            best = None
            for coords, probs in per_law[k - 1]:
                acc = np.zeros(v.shape[:-1] + (prev_len,))
                for z, p in zip(coords, probs):
                    s = int(z + lo[k - 1] - lo[k])
                    acc += p * v[..., s:s + prev_len]
                best = acc if best is None else np.maximum(best, acc)
            v = best
        return v

    v = backward(v, k2, k1)
    v = np.einsum("ii->i", v)
    v = backward(v, k1, 0)
    return float(v[0])


SUPPORT_OFFSETS = [(-1, 2), (-1, 0, 1), (0, 3), (-2, 1), (-1, 1)]
PAIR_PSIS = {
    "smooth": lambda a, b: np.sin(a) * b + a * a,
    "scalar_only": lambda a, b: math.atan(a) - math.cos(b),
    "neg_zero": lambda a, b: np.where(b > a, -0.0, a * b),
    "increment_square": get_pair("increment_square"),
}


def random_lattice_laws(rng, n):
    """n draws from a pool of three laws on one shifted lattice, each with
    one to three members on an asymmetric integer support."""
    lat = LatticeSpec(1, float(rng.choice([0.25, 0.5, 1.0])),
                      (float(rng.choice([0.0, 0.5, -0.25])),))
    pool = []
    for _ in range(3):
        offsets = np.array(SUPPORT_OFFSETS[rng.integers(len(SUPPORT_OFFSETS))])
        support = (lat.origin[0] + lat.step * offsets)[:, None]
        members = []
        for _ in range(rng.integers(1, 4)):
            w = rng.integers(0, 4, size=len(offsets)).astype(float)
            w[rng.integers(len(offsets))] += 1.0
            members.append(DiscreteDistribution(support, w / w.sum()))
        pool.append(AmbiguitySet(lat, members))
    return [pool[i] for i in rng.integers(3, size=n)]


def series(spec):
    """Values of each condition series of spec, by verdict name."""
    return {name: values for name, values, _, _ in spec.condition_series()}


def trends(spec):
    """Pass flag of each condition trend of spec, by verdict name."""
    report = ExperimentReport("clt", ("n",))
    attach_condition_verdicts(report, spec)
    return {v.name: v.passed for v in report.verdicts}


def scan_time_change(variances, t):
    """Direct scan of the defining inequality for the checkpoint function."""
    prefix = np.concatenate([[0.0], np.cumsum(variances)])
    total = prefix[-1]
    if t >= 1.0:
        return len(variances)
    k = 0
    for i in range(len(variances) + 1):
        if prefix[i] / total <= t:
            k = i
    return k


# ----------------------------------------------------------- condition checks

def test_lindeberg_iid_rows_vanish_beyond_eps():
    spec = IidRows(B, (16, 64, 256))
    assert series(spec)["lindeberg[eps=0.1]"] == [0.0, 0.0, 0.0]
    assert all(trends(spec).values())


def test_lindeberg_persistent_macroscopic_jump():
    """One summand that survives normalisation keeps the statistic away
    from zero (its clipped term persists)."""
    lat = LatticeSpec(1, 1.0, (0.0,))
    jump = AmbiguitySet(lat, [DiscreteDistribution(np.array([[-16.0], [16.0]]),
                                                   np.array([0.5, 0.5]))])
    laws = tuple([jump] + [B] * 63)
    spec = HeterogeneousRows(laws, (16, 64))
    for n in spec.schedule:
        value, = spec.lindeberg(n, [0.25])
        scaled_jump_sq = 256.0 / (256.0 + n - 1)
        assert value >= scaled_jump_sq - 0.25 - 1e-12
        assert value >= 0.5


def test_p_moment_variant_rate():
    values = [IID.p_moment(n, 3.0) for n in IID.schedule]
    for n, value in zip(IID.schedule, values):
        assert value == pytest.approx(n ** -0.5, abs=1e-12)
    assert _non_increasing(values)


def test_p_moment_rejects_p_up_to_two():
    with pytest.raises(DomainError, match="p must exceed 2"):
        IID.p_moment(16, 2.0)


def test_drift_zero_for_symmetric_family():
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in series(IID)["drift"])


def test_ratio_alternating_variances():
    laws = tuple(symmetric_bernoulli_family((0.5, 1.0)) for _ in range(64))
    spec = HeterogeneousRows(laws, (16, 64), r_target=0.5)
    for ratio in series(spec)["ratio_r"]:
        assert ratio == pytest.approx(0.5, abs=1e-12)


def test_ratio_even_odd_blocks_tend_to_half():
    laws = []
    for k in range(127):
        if k % 2 == 0:
            laws.append(symmetric_bernoulli_family((1.0, 1.0)))  # lower = upper = 1
        else:
            laws.append(symmetric_bernoulli_family((0.0, 1.0)))  # lower = 0
    spec = HeterogeneousRows(tuple(laws), (7, 31, 127), r_target=0.5)
    ratios = series(spec)["ratio_r"]
    for n, ratio in zip(spec.schedule, ratios):
        assert ratio == pytest.approx(np.ceil(n / 2) / n, abs=1e-12)
    gaps = [abs(ratio - 0.5) for ratio in ratios]
    assert gaps == sorted(gaps, reverse=True)
    assert trends(spec)["ratio_r"]


def test_tree_martingale_mode_series(bernoulli):
    trees = tuple(iid_level_tree(bernoulli, n, scale=1 / np.sqrt(n))
                  for n in (2, 3, 4))
    spec = TreeRows(trees)
    assert spec.schedule == (2, 3, 4)
    assert all(spec.lindeberg(n, [0.6]) == [0.0] for n in spec.schedule)  # |Z|^2 <= 1/2 < eps
    assert all(spec.drift(n) == pytest.approx(0.0, abs=1e-12) for n in spec.schedule)
    for n in spec.schedule:
        for t, value in zip((0.5, 1.0), spec.quadratic(n, np.array([[1.0]]), [0.5, 1.0])):
            expected = np.floor(n * t) / n  # G(1) = 1, rho(t) = t
            assert value == pytest.approx(expected, abs=1e-12)


def test_quadratic_series_iid_matches_closed_form():
    for n in IID.schedule:
        for t, value in zip((0.25, 1.0), IID.quadratic(n, np.array([[-1.0]]), [0.25, 1.0])):
            expected = -0.5 * np.floor(n * t) / n
            assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("depths", [(2, 3), (2,)])
def test_tree_rows_condition_trends(depths):
    """Tree rows print the Lindeberg, drift and quadratic trends; they induce
    no generator, so the quadratic entries pin no target."""
    trees = tuple(iid_level_tree(B, n, scale=1 / np.sqrt(n)) for n in depths)
    report = ExperimentReport("clt", ("n",))
    attach_condition_verdicts(report, TreeRows(trees))
    assert [v.line().split(":")[0] for v in report.verdicts] == [
        "TREND lindeberg[eps=0.1]", "TREND lindeberg[eps=0.5]", "TREND drift",
        "TREND quadratic[plus]", "TREND quadratic[minus]"]
    assert [v.detail for v in report.verdicts[-2:]] == ["no target pinned"] * 2
    tree = trees[-1]
    assert report.verdicts[3].statistic == quadratic_characteristic(
        tree, MartingaleArray(tree), np.eye(1), tree.depth)


def test_tree_mode_rejected_by_sum_experiments(bernoulli):
    spec = TreeRows((iid_level_tree(bernoulli, 2),))
    with pytest.raises(DomainError, match="iid or heterogeneous"):
        run_clt_experiment(spec, [get("square")], accuracy="fast")
    with pytest.raises(DomainError, match="iid or heterogeneous"):
        run_fdd_experiment(spec, (0.5, 1.0), get_pair("increment"), accuracy="fast")


def test_heterogeneous_ratio_pipeline_end_to_end():
    """Sequence rows with a stable lower/upper variance ratio converge to the
    interval limit after self-normalisation."""
    laws = []
    for k in range(256):
        top = 1.0 if k % 2 == 0 else 0.5
        laws.append(symmetric_bernoulli_family((0.5 * top, top)))
    spec = HeterogeneousRows(tuple(laws), (16, 64, 256), r_target=0.5)
    assert all(r == pytest.approx(0.5, abs=1e-12) for r in series(spec)["ratio_r"])
    report = run_clt_experiment(spec, [get("positive_part")], accuracy="default")
    assert report.rows[-1]["gap"] <= 0.02
    assert report.rows[-1]["limit"] == pytest.approx(HALF_NORMAL, abs=0.005)
    assert report.hard_pass


# -------------------------------------------------------------- row kinds

def test_iid_and_heterogeneous_rows_agree_at_unit_upper_variance():
    """B's upper variance is exactly 1, so both kinds scale row n by 1/sqrt(n)."""
    het = HeterogeneousRows((B,) * 64, (4, 16, 64))
    iid = IidRows(B, (4, 16, 64))
    assert het.schedule == iid.schedule
    for stat in (lambda s, n: s.lindeberg(n, [0.1, 0.5]),
                 lambda s, n: [s.p_moment(n, 3.0)],
                 lambda s, n: [s.drift(n)],
                 lambda s, n: s.quadratic(n, np.array([[1.0]]), [0.25, 0.5, 1.0]),
                 lambda s, n: s.quadratic(n, np.array([[-1.0]]), [0.3, 1.0])):
        for n in iid.schedule:
            np.testing.assert_allclose(stat(het, n), stat(iid, n), rtol=0, atol=1e-12)
    assert iid.lindeberg(4, [0.1])[0] > 0.0  # 4 * (1/4 - 0.1)
    t_grid = np.linspace(0.0, 1.0, 129)
    for n in (4, 16, 64):
        assert het.checkpoints(n, t_grid) == iid.checkpoints(n, t_grid)


@pytest.mark.parametrize("make, message", [
    (lambda: IidRows(B, (16, 16)), "schedule must be strictly increasing"),
    (lambda: IidRows(B, (0, 4)), "row sizes must be positive"),
    (lambda: IidRows((B,), (4,)), "one AmbiguitySet"),
    (lambda: HeterogeneousRows((B,) * 3, (2, 4)), "a law per step"),
    (lambda: HeterogeneousRows((nested_product(B, B),) * 4, (4,)), "1-d"),
    (lambda: TreeRows(()), "at least one tree"),
    (lambda: TreeRows((iid_level_tree(B, 3), iid_level_tree(B, 2))),
     "schedule must be strictly increasing"),
], ids=["non_increasing_schedule", "row_size_zero", "iid_law_not_a_set",
        "too_few_heterogeneous_laws", "heterogeneous_law_2d", "empty_tree_rows",
        "non_increasing_tree_depths"])
def test_row_kind_constructor_rejects(make, message):
    with pytest.raises(DomainError, match=message):
        make()


TREE_ROWS = TreeRows((iid_level_tree(B, 2), iid_level_tree(B, 3)))


@pytest.mark.parametrize("call", [
    lambda: run_clt_experiment(TREE_ROWS, [get("square")], accuracy="fast"),
    lambda: run_fdd_experiment(TREE_ROWS, (0.5, 1.0), get_pair("increment"), accuracy="fast"),
    lambda: estimate_limit_G(TREE_ROWS, [[1.0]], 1.0, 2),
    lambda: TREE_ROWS.p_moment(2, 3.0),
    lambda: TREE_ROWS.checkpoints(2, [0.5]),
    lambda: TREE_ROWS.row_laws(2),
    lambda: TREE_ROWS.upper_variances(2),
    lambda: TREE_ROWS.lower_variances(2),
], ids=["clt", "fdd", "estimate_limit_G", "p_moments", "time_change", "row_laws",
        "upper_variances", "lower_variances"])
def test_tree_rows_rejected_by_law_only_paths(call):
    with pytest.raises(DomainError, match="iid or heterogeneous rows only"):
        call()


# ------------------------------------------------------------- time change

def test_time_change_uniform_boundary():
    spec = IidRows(B, (4,))
    assert spec.checkpoints(4, [0.5]) == [2]
    assert spec.checkpoints(4, [0.0, 1.0]) == [0, 4]


def test_time_change_endpoints_always_pinned():
    for n in (1, 5, 17):
        assert IidRows(B, (n,)).checkpoints(n, [0.0, 1.0]) == [0, n]


def test_time_change_geometric_matches_scan():
    laws = tuple(symmetric_bernoulli_family((min(1.0, 2.0 ** -k), min(1.0, 2.0 ** -k)))
                 for k in range(8))
    variances = [0.5 ** k for k in range(8)]
    # family variance = upper variance = 2^-k exactly
    spec = HeterogeneousRows(laws, (8,))
    t_grid = [float(t) for t in np.linspace(0, 1, 97)]
    assert spec.checkpoints(8, t_grid) == [scan_time_change(variances, t) for t in t_grid]


def test_time_change_zero_total_variance():
    from gexpect import point_mass

    spec = IidRows(point_mass(0.0), (4,))
    with pytest.raises(DomainError, match="zero total variance"):
        spec.checkpoints(4, [0.5])


# ------------------------------------------------------------ clt experiment

def test_clt_square_has_zero_gap_up_to_solver_error():
    report = run_clt_experiment(IID, [get("square")], accuracy="default")
    for row in report.rows:
        assert row["prelimit"] == pytest.approx(1.0, abs=1e-12)
        assert row["gap"] <= row["error_bar"]
    assert report.hard_pass


def test_clt_scale_consistency_identity_functionals():
    report = run_clt_experiment(IID, [get("identity"), get("neg_identity")],
                                accuracy="fast")
    for row in report.rows:
        assert row["prelimit"] == 0.0


def test_clt_flagship_positive_part(flagship_limits):
    report = run_clt_experiment(IID, [get("positive_part")], accuracy="default")
    final = report.rows[-1]
    assert final["n"] == 256
    assert abs(final["prelimit"] - HALF_NORMAL) <= 0.01
    assert final["gap"] <= 0.02


HALF_NORMAL = 0.3989422804014327


def test_clt_convex_concave_envelopes():
    """Convex data rides the top variance member, concave the bottom."""
    top = symmetric_bernoulli_family((1.0,))
    bottom = symmetric_bernoulli_family((0.5,))
    for name, single in (("positive_part", top), ("excess_square", top),
                         ("neg_square", bottom)):
        phi = get(name)
        for n in (16, 64):
            full = iid_sum_expect(B, n, phi, scale=1 / np.sqrt(n))
            classical = iid_sum_expect(single, n, phi, scale=1 / np.sqrt(n))
            assert full == pytest.approx(classical, abs=1e-12)


def test_clt_excess_square_limit_matches_quadrature(flagship_limits):
    oracle = gaussian_quadrature_mean(lambda z: max(z * z - 1.0, 0.0), sigma_sq=1.0)
    est = flagship_limits["excess_square"]
    assert abs(est.value - oracle) <= est.error_bar + 1e-4


def test_clt_growth_gate_rejects_unverified_power():
    from gexpect import TestFunction

    cubic = TestFunction(lambda s: s ** 3, growth="power", exponent=3.0, name="cubic")
    with pytest.raises(DomainError, match="verified moment"):
        run_clt_experiment(IID, [cubic], accuracy="fast")
    assert _non_increasing([IID.p_moment(n, 3.0) for n in IID.schedule])
    report = run_clt_experiment(IidRows(B, (4, 16)), [cubic],
                                accuracy="fast", verified_moment=3.0)
    assert len(report.rows) == 2


# ------------------------------------------------------------ fdd experiment

def test_two_point_dp_variance_additivity():
    value = two_point_sum_expect([B] * 256, 128, get_pair("increment_square"), 1 / 16)
    assert value == pytest.approx(0.5, abs=1e-12)


def test_two_point_dp_increment_mean_zero():
    value = two_point_sum_expect([B] * 64, 32, get_pair("increment"), 1 / 8)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_two_point_dp_rejects_wrong_arity():
    with pytest.raises(DomainError, match="arity mismatch: expected 2, got 1"):
        two_point_sum_expect([B] * 4, 2, get("square"), 0.5)


def test_two_point_dp_rejects_no_laws():
    with pytest.raises(DomainError, match="need at least one law"):
        two_point_sum_expect([], 0, get_pair("increment"), 1.0)


def test_two_point_cap():
    with pytest.raises(Exception, match="augmentation blowup"):
        two_point_sum_expect([B] * 64, 32, get_pair("increment"), 1 / 8, max_nodes=10)


def test_two_point_cap_counts_checkpoint_boxes():
    # [B] * 4 with k1 = 2: level boxes of 5 and 9 sums
    psi = get_pair("increment_square")
    assert two_point_sum_expect([B] * 4, 2, psi, 0.5, max_nodes=45) == pytest.approx(0.5)
    with pytest.raises(ResourceCapError, match="augmentation blowup: 5x9 checkpoint states"):
        two_point_sum_expect([B] * 4, 2, psi, 0.5, max_nodes=44)


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
def test_two_point_dp_rejects_scale(scale):
    with pytest.raises(DomainError, match="scale must be positive and finite"):
        two_point_sum_expect([B] * 4, 2, get_pair("increment_square"), scale)


@pytest.mark.parametrize("laws, k1, message", [
    ([B] * 4, -1, "checkpoint order violated"),
    ([B] * 4, 5, "checkpoint order violated"),
    ([nested_product(B, B)] * 2, 1, "1-d only"),
])
def test_two_point_dp_rejects_checkpoints_and_dimension(laws, k1, message):
    with pytest.raises(DomainError, match=message):
        two_point_sum_expect(laws, k1, get_pair("increment_square"), 0.5)


def test_two_point_dp_working_set(traced_peak_mib):
    """The `limits` fdd shape, n = 512 and k1 = 256: the last state is 513 x
    513 cells, 2 MiB.  psi sees views of the checkpoint positions, and the DP
    keeps two levels and block-sized scratch; this peaked at 10.7 MiB when
    the initial data were dense grids from np.repeat and an int64 gather,
    and at 6.7 MiB while the caller held the level-n data through the first
    phase, the kernel allocated its second level before the first step and
    a one-column view kept the phase buffer alive."""
    psi = get_pair("increment_square")
    peak = traced_peak_mib(lambda: two_point_sum_expect([B] * 512, 256, psi, 1 / 16))
    assert peak < 5.5


@given(st.integers(0, 5_000), st.integers(1, 40), st.data(), st.sampled_from(sorted(PAIR_PSIS)))
@settings(max_examples=40)
def test_two_point_band_bit_identical_to_box_dp(seed, n, data, psi_name):
    """Heterogeneous asymmetric laws on a shifted lattice, every k1 in 0..n."""
    k1 = data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)
    laws = random_lattice_laws(rng, n)
    scale = float(rng.uniform(0.1, 1.0))
    psi = PAIR_PSIS[psi_name]
    got = two_point_sum_expect(laws, k1, psi, scale)
    assert got.hex() == box_two_point_sum_expect(laws, k1, psi, scale).hex()


@given(st.integers(0, 5_000), st.integers(1, 24), st.data(), st.sampled_from([1, 5, 64]))
@settings(max_examples=30)
def test_two_point_dp_in_row_blocks_bit_identical_to_box_dp(seed, n, data, block):
    """The kernel split into blocks of S_k1 rows as small as one row."""
    k1 = data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)
    laws = random_lattice_laws(rng, n)
    psi = PAIR_PSIS["neg_zero"]
    with mock.patch.object(ambiguity, "BLOCK_CELLS", block):
        got = two_point_sum_expect(laws, k1, psi, 0.5)
    assert got.hex() == box_two_point_sum_expect(laws, k1, psi, 0.5).hex()


@given(st.integers(0, 5_000), st.integers(1, 6), st.data(), st.sampled_from(sorted(PAIR_PSIS)))
@settings(max_examples=20)
def test_two_point_dp_matches_nested_expectation(seed, n, data, psi_name):
    k1 = data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)
    laws = random_lattice_laws(rng, n)
    scale = float(rng.uniform(0.1, 1.0))
    psi = PAIR_PSIS[psi_name]
    fn = psi.fn if hasattr(psi, "fn") else psi
    # math.fsum rejects arrays, so nested_expect takes its pointwise path
    nested = nested_expect(laws, lambda *xs: float(
        fn(scale * math.fsum(xs[:k1]), scale * math.fsum(xs))))
    assert two_point_sum_expect(laws, k1, psi, scale) == pytest.approx(nested, abs=1e-12)


def test_fdd_experiment_increment_square():
    report = run_fdd_experiment(IID, (0.5, 1.0), get_pair("increment_square"),
                                accuracy="fast")
    final = report.rows[-1]
    assert abs(final["prelimit"] - 0.5) <= 0.01
    assert final["gap"] <= 0.02
    assert report.hard_pass


def test_fdd_product_checkpoint():
    report = run_fdd_experiment(IID, (0.5, 1.0), get_pair("product"), accuracy="fast")
    assert report.rows[-1]["gap"] <= 0.02


def test_fdd_rejects_t2_at_step_zero_before_the_solve():
    """t2 = 0.02 is step 0 of the row n = 16; the DP needs at least one step."""
    from gexpect import cltlab

    with mock.patch.object(cltlab, "gbm_fdd_expect") as solve, \
            pytest.raises(DomainError, match=r"t2 = 0\.02 falls at step 0 of the row n = 16"):
        run_fdd_experiment(IidRows(B, (16, 64)), (0.01, 0.02), get_pair("increment_square"),
                           accuracy="fast")
    solve.assert_not_called()


def test_fdd_first_checkpoint_at_step_zero_runs():
    spec = IidRows(B, (16,))
    assert fdd_checkpoints(spec, (0.05, 0.5)) == {16: [0, 8]}
    report = run_fdd_experiment(spec, (0.05, 0.5), get_pair("increment_square"),
                                accuracy="fast")
    # k1 = 0: the increment is the whole sum of 8 steps, second moment 8/16
    assert report.rows[0]["prelimit"] == pytest.approx(0.5, abs=1e-12)


def test_fdd_increment_stationarity():
    """Equal checkpoint gaps give equal second moments, exactly."""
    psi = get_pair("increment_square")
    a = two_point_sum_expect([B] * 256, 64, psi, 1 / 16)
    b = two_point_sum_expect([B] * 256, 0, psi, 1 / 16)
    k1, = IidRows(B, (256,)).checkpoints(256, [0.25])
    short = two_point_sum_expect([B] * (k1 + 192), k1, psi, 1 / 16)
    assert a == pytest.approx(short, abs=1e-12)  # both spans cover 192 steps
    assert b == pytest.approx(1.0, abs=1e-12)


def test_running_max_path_functional_trend(bernoulli):
    """The one path functional beyond marginals: the normalised running
    maximum rides the top-variance member (sup-norm is convex in the path)
    and increases along the schedule toward its limit, which is never
    asserted."""
    from gexpect import running_max_expect

    top = symmetric_bernoulli_family((1.0,))
    values = []
    for n in (4, 8, 16, 32):
        full = running_max_expect(bernoulli, n, scale=1 / np.sqrt(n),
                                  max_states=10 ** 6)
        classical = running_max_expect(top, n, scale=1 / np.sqrt(n),
                                       max_states=10 ** 6)
        assert full == classical
        values.append(full)
    assert values == sorted(values)
    assert values[-1] <= np.sqrt(np.pi / 2)  # the classical flat-top mean


# --------------------------------------------------- necessary conditions

def condition_rows(report, condition):
    """(probe, level, value) of each row of an iid-conditions report for one
    condition; there is at least one, so no check over them passes vacuously."""
    rows = [(row["probe"], row["level"], row["value"]) for row in report.rows
            if row["condition"] == condition]
    assert rows, condition
    return rows


def test_iid_conditions_on_bernoulli(bernoulli):
    report = check_iid_necessary_conditions(IidRows(bernoulli, (16,)), [1.0, 2.0, 4.0],
                                            [0.5, 1.0, 1.5, 2.0, 4.0])
    assert [v for *_, v in condition_rows(report, "capped_second_moment")] == [1.0, 1.0, 1.0]
    for _, x, v in condition_rows(report, "scaled_tail"):
        if x > 1.0:
            assert v == 0.0
    assert all(v == pytest.approx(0.0, abs=1e-12)
               for *_, v in condition_rows(report, "truncated_means"))
    verdicts = {v.name: v for v in report.verdicts}
    assert verdicts["quadratic_stabilized"].passed
    # G(+-1) of the generator induced at the largest level, written with repr
    assert verdicts["estimate_gap[plus]"].detail == "reference 1.0"
    assert verdicts["estimate_gap[minus]"].detail == "reference -0.5"


def test_iid_conditions_call_each_functional_once(bernoulli):
    """Capped moment and tail event each take the whole 3-point support in
    one call per level."""
    from gexpect import cltlab

    calls = []
    real = cltlab._sq_norm

    def counting(d):
        sq = real(d)
        return lambda z: calls.append(np.shape(z)) or sq(z)

    with mock.patch.object(cltlab, "_sq_norm", counting):
        check_iid_necessary_conditions(IidRows(bernoulli, (4,)), [1.0, 2.0], [0.5, 1.0, 2.0])
    assert calls == [(3,)] * 5


def test_iid_conditions_reject_non_finite_tail_level(bernoulli):
    with pytest.raises(DomainError, match="tail level must be finite"):
        check_iid_necessary_conditions(IidRows(bernoulli, (4,)), [1.0, 2.0], [1.0, math.inf])


@pytest.mark.parametrize("spec, c_schedule, x_schedule, message", [
    (IidRows(B, (4,)), [1.0], [1.0], "at least two truncation levels"),
    (IidRows(AmbiguitySet(LatticeSpec(3, 1.0, (0.0,) * 3), [DiscreteDistribution(
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [0.5, 0.5])]), (4,)), [1.0, 2.0], [1.0],
     "dimension cap: d <= 2"),
    (HeterogeneousRows((B,) * 4, (4,)), [1.0, 2.0], [1.0], "iid rows only"),
    (TreeRows((iid_level_tree(B, 2),)), [1.0, 2.0], [1.0], "iid rows only"),
], ids=["one_truncation_level", "law_3d", "heterogeneous_rows", "tree_rows"])
def test_iid_conditions_rejects(spec, c_schedule, x_schedule, message):
    with pytest.raises(DomainError, match=message):
        check_iid_necessary_conditions(spec, c_schedule, x_schedule)


def test_iid_conditions_point_mass():
    from gexpect import point_mass

    report = check_iid_necessary_conditions(IidRows(point_mass(0.0), (4,)), [1.0, 2.0],
                                            [1.0, 2.0])
    for condition in ("capped_second_moment", "scaled_tail", "truncated_means",
                      "truncated_quadratic"):
        assert all(v == 0.0 for *_, v in condition_rows(report, condition))


def test_iid_conditions_2d_product_matches_geval(bernoulli):
    from gexpect.cltlab import default_probes, member_second_moments

    other = symmetric_bernoulli_family((0.25, 1.0))
    joint = nested_product(bernoulli, other)
    report = check_iid_necessary_conditions(IidRows(joint, (4,)), [1.0, 2.0], [1.0, 2.0])
    # probes evaluated on the truncated joint law must equal the induced
    # support-function values once c covers the support
    induced = GFunction.from_matrices(member_second_moments(truncate(joint, 2.0)))
    probes = default_probes(2)
    for pi, c, v in condition_rows(report, "truncated_quadratic"):
        if c == 2.0:
            assert v == pytest.approx(g_eval(induced, probes[pi]), abs=1e-12)
    # the estimates are read at +-I, the first two probes
    verdicts = {v.name: v for v in report.verdicts}
    for name, A in (("plus", np.eye(2)), ("minus", -np.eye(2))):
        assert verdicts[f"estimate_gap[{name}]"].detail == f"reference {g_eval(induced, A)!r}"


def test_estimate_limit_g_probes(bernoulli):
    spec = IidRows(bernoulli, (256,))
    assert estimate_limit_G(spec, [[0.0]], 4.0, 64) == 0.0
    up = estimate_limit_G(spec, [[1.0]], 8.0, 256)
    lo = estimate_limit_G(spec, [[-1.0]], 8.0, 256)
    assert abs(up - 1.0) <= 0.02
    assert abs(lo + 0.5) <= 0.02


def test_estimate_limit_g_2d(bernoulli):
    joint = nested_product(bernoulli, bernoulli)
    spec = IidRows(joint, (16,))
    val = estimate_limit_G(spec, np.eye(2), 8.0, 16)
    assert val == pytest.approx(2.0, abs=1e-10)


# ----------------------------------------------------------------- reports

def test_clt_report_carries_condition_verdicts():
    report = run_clt_experiment(IidRows(B, (4, 16)), [get("square")],
                                accuracy="fast")
    names = {v.name for v in report.verdicts}
    assert any(n.startswith("lindeberg") for n in names)
    assert "drift" in names
    assert {"quadratic[plus]", "quadratic[minus]"} <= names
    quad = {v.name: v for v in report.verdicts}
    assert quad["quadratic[plus]"].statistic == pytest.approx(1.0, abs=1e-12)
    assert quad["quadratic[minus]"].statistic == pytest.approx(-0.5, abs=1e-12)


def test_unnamed_functional_verdict_named_like_its_rows():
    from gexpect import TestFunction

    square = TestFunction(lambda s: s * s, growth="quadratic")
    pair = TestFunction(lambda a, b: (b - a) ** 2, growth="quadratic", arity=2)
    spec = IidRows(B, (4, 8))
    for report, name in ((run_clt_experiment(spec, [square], accuracy="fast"), "phi"),
                         (run_fdd_experiment(spec, (0.5, 1.0), pair, accuracy="fast"), "psi")):
        assert {row["functional"] for row in report.rows} == {name}
        assert report.verdicts[0].name == f"final_gap[{name}]"


def test_soft_verdicts_never_fail_a_report():
    from gexpect.reporting import ExperimentReport

    rep = ExperimentReport("clt", ("n",))
    rep.add_verdict("trend", False, 1.0, hard=False)
    assert rep.hard_pass
    assert "TREND?" in rep.summary_text()
    rep.add_verdict("bound", False, 1.0)
    assert not rep.hard_pass


def pinned_condition_rows():
    """Row kinds whose condition verdicts are not all 0.0 or exact, by id."""
    # lower/upper variance ratio 0.5 over the first 16 steps, 0.3 over 64
    alternating = tuple(symmetric_bernoulli_family((0.5 * top, top))
                        for top in (1.0, 0.5) * 8)
    alternating += (symmetric_bernoulli_family((0.25, 1.0)),) * 48
    lat = LatticeSpec(1, 1.0, (0.0,))
    jump = AmbiguitySet(lat, [DiscreteDistribution(np.array([[-4.0], [4.0]]), [0.5, 0.5])])
    skew_support = np.array([[-1.0], [0.0], [2.0]])
    skewed = AmbiguitySet(lat, [DiscreteDistribution(skew_support, [0.5, 0.25, 0.25]),
                                DiscreteDistribution(skew_support, [0.4, 0.3, 0.3])])
    return {
        "heterogeneous_target": HeterogeneousRows(alternating, (16, 64), r_target=0.5),
        "heterogeneous_no_target": HeterogeneousRows(alternating, (16, 64)),
        "heterogeneous_jump": HeterogeneousRows((jump,) + (B,) * 63, (16, 64)),
        "iid_skewed": IidRows(skewed, (4, 16)),
    }


def test_condition_summaries_pinned():
    """Full clt and fdd summaries of heterogeneous rows (with and without a
    ratio target, and with a macroscopic first jump) and of a skewed iid
    family whose drift trend fails, equal the recorded text byte for byte."""
    import json
    import pathlib

    path = pathlib.Path(__file__).parent / "fixtures" / "condition_summaries.json"
    pinned = json.loads(path.read_text())
    got = {}
    for name, spec in pinned_condition_rows().items():
        got[f"clt/{name}"] = run_clt_experiment(
            spec, [get("positive_part"), get("sin")], accuracy="fast").summary_text()
        got[f"fdd/{name}"] = run_fdd_experiment(
            spec, (0.5, 1.0), get_pair("increment_square"), accuracy="fast").summary_text()
    assert got == pinned


def test_report_gap_trend_marked_in_rows(flagship_limits):
    report = run_clt_experiment(IID, [get("sin")], accuracy="default")
    gaps = [row["gap"] for row in report.rows]
    bars = [row["error_bar"] for row in report.rows]
    for i in range(len(gaps) - 1):
        assert gaps[i + 1] <= gaps[i] + bars[i] + bars[i + 1]
