"""Ambiguity-set calculus: trivial values, oracle cross-checks, axioms."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import (AmbiguitySet, DiscreteDistribution, DomainError, LatticeSpec,
                     ResourceCapError, SigmaInterval, capacity_lower, capacity_upper,
                     expect_lower, expect_upper, expect_upper_member, gbm_fdd_expect,
                     gnormal_expect, iid_sum_expect, independent_sum_expect, nested_expect,
                     nested_product, running_max_expect, symmetric_bernoulli_family,
                     truncate, two_point_sum_expect)
from gexpect import TestFunction as TF
from gexpect import ambiguity
from gexpect.ambiguity import evaluate

B = symmetric_bernoulli_family((0.5, 1.0))


# ---------------------------------------------------------------- oracles

def naive_sum_expect(X, n, g, scale=1.0):
    """Plain nested recursion over physical support tuples; no lattice DP."""

    def rec(total, i):
        if i == n:
            return float(g(scale * total))
        best = None
        for dist in X.members:
            acc = 0.0
            for z, p in zip(dist.support[:, 0], dist.probs):
                acc += p * rec(total + z, i + 1)
            best = acc if best is None else max(best, acc)
        return best

    return rec(0.0, 0)


def naive_running_max(X, n, scale=1.0):
    def rec(total, peak, i):
        if i == n:
            return scale * peak
        best = None
        for dist in X.members:
            acc = 0.0
            for z, p in zip(dist.support[:, 0], dist.probs):
                t = total + z
                acc += p * rec(t, max(peak, abs(t)), i + 1)
            best = acc if best is None else max(best, acc)
        return best

    return rec(0.0, 0.0, 0)


def set_running_max(X, n, scale=1.0):
    """Running-maximum DP over Python sets: a forward sweep collects the
    reachable (sum, running max) states of each level, a backward sweep takes
    the member maximum of member means summed in support order.  The
    bit-for-bit reference for running_max_expect."""
    lat = X.lattice
    rows = []
    for i, dist in enumerate(X.members):
        keep = dist.probs > 0.0
        rows.append((X.member_coords(i)[keep], dist.probs[keep]))

    def phys(level, s):
        return level * lat.origin[0] + s * lat.step

    levels = [{(0, 0.0)}]
    for k in range(1, n + 1):
        levels.append({(s + int(z), max(m, abs(phys(k, s + int(z)))))
                       for s, m in levels[-1] for coords, _ in rows for z in coords[:, 0]})
    values = {st: scale * st[1] for st in levels[n]}
    for k in range(n - 1, -1, -1):
        prev = {}
        for s, m in levels[k]:
            best = None
            for coords, probs in rows:
                acc = 0.0
                for z, p in zip(coords[:, 0], probs):
                    s2 = s + int(z)
                    acc += p * values[(s2, max(m, abs(phys(k + 1, s2))))]
                best = acc if best is None else max(best, acc)
            prev[(s, m)] = best
        values = prev
    return values[(0, 0.0)]


def loop_sum_expect(laws, g, scale=1.0):
    """The backward sum DP with one zero-started accumulator per member and
    level and a fresh array for every product and maximum: the bit-for-bit
    reference for the shared kernel."""
    lat = laws[0].lattice
    d, n = lat.dimension, len(laws)
    per_law = []
    for law in laws:
        rows = []
        for i, dist in enumerate(law.members):
            keep = dist.probs > 0.0
            rows.append((law.member_coords(i)[keep], dist.probs[keep]))
        per_law.append(rows)
    lo = np.zeros((n + 1, d), dtype=np.int64)
    hi = np.zeros((n + 1, d), dtype=np.int64)
    for k, rows in enumerate(per_law, start=1):
        lo[k] = lo[k - 1] + np.min([c.min(axis=0) for c, _ in rows], axis=0)
        hi[k] = hi[k - 1] + np.max([c.max(axis=0) for c, _ in rows], axis=0)
    axes = [np.arange(l, h + 1, dtype=float) for l, h in zip(lo[n], hi[n])]
    if d == 1:
        pts = scale * (n * lat.origin[0] + lat.step * axes[0])[:, None]
    else:
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        pts = scale * (mesh * lat.step + n * np.asarray(lat.origin))
    v = evaluate(g, pts)
    for k in range(n, 0, -1):
        prev_shape = tuple(int(h - l + 1) for l, h in zip(lo[k - 1], hi[k - 1]))
        best = None
        for coords, probs in per_law[k - 1]:
            acc = np.zeros(prev_shape)
            for z, p in zip(coords, probs):
                shift = z + lo[k - 1] - lo[k]
                idx = tuple(slice(int(s), int(s) + prev_shape[j]) for j, s in enumerate(shift))
                acc += p * v[idx]
            best = acc if best is None else np.maximum(best, acc)
        v = best
    return float(v.reshape(-1)[0])


def old_member_values(fn, support):
    """f on one member's (m, d) support, as expect_upper evaluated it before
    the union support: vectorised first, then point by point on any error."""
    d = support.shape[1]
    xs = support[:, 0] if d == 1 else support
    try:
        out = np.asarray(fn(xs), dtype=float)
        if out.shape != (support.shape[0],):
            raise ValueError
    except Exception:
        out = np.array([float(fn(float(z[0]) if d == 1 else z)) for z in support])
    return out


def union_coords(X):
    """The union of the member supports as sorted lattice coordinate tuples."""
    return sorted({tuple(int(c) for c in z)
                   for i in range(len(X.members)) for z in X.member_coords(i)})


def loop_expect_upper(X, f):
    """The per-member expect_upper loop: f on each member's own support (a
    value vector on the sorted union support is looked up by coordinate),
    one np.dot per member, the first maximum."""
    if not callable(f):
        table = dict(zip(union_coords(X), f))
    vals = np.empty(len(X.members))
    for i, dist in enumerate(X.members):
        if callable(f):
            values = old_member_values(f, dist.support)
        else:
            values = np.array([table[tuple(int(c) for c in z)] for z in X.member_coords(i)])
        vals[i] = float(np.dot(dist.probs, values))
    return float(vals[int(np.argmax(vals))])


# ------------------------------------------------------- basic expectations

def test_expect_upper_variance_examples():
    assert expect_upper(B, lambda x: x * x) == 1.0
    assert expect_upper(B, lambda x: x) == 0.0
    assert expect_upper(B, lambda x: -x * x) == -0.5


def test_expect_lower_examples():
    assert expect_lower(B, lambda x: x * x) == 0.5
    assert expect_lower(B, lambda x: x) == 0.0
    assert expect_lower(B, lambda x: np.full_like(x, 3.25)) == 3.25


def test_attaining_member_lowest_index_on_ties():
    value, idx = expect_upper_member(B, lambda x: x)  # every member has mean 0
    assert value == 0.0 and idx == 0
    value, idx = expect_upper_member(B, lambda x: x * x)
    assert value == 1.0 and idx == 1


def test_non_finite_test_value_rejected():
    blow_up = lambda x: np.where(np.asarray(x) >= 0, np.inf, 1.0)
    with pytest.raises(DomainError, match="non-finite test value"):
        expect_upper(B, blow_up)


def test_union_support_and_member_positions():
    lat = LatticeSpec(1, 1.0, (0.0,))
    X = AmbiguitySet(lat, [
        DiscreteDistribution(np.array([[2.0], [0.0]]), np.array([0.5, 0.5])),
        DiscreteDistribution(np.array([[-1.0], [2.0]]), np.array([0.25, 0.75]))])
    assert X.support[:, 0].tolist() == [-1.0, 0.0, 2.0]
    assert [pos.tolist() for pos in X.positions] == [[2, 1], [0, 2]]
    assert expect_upper_member(X, [10.0, 0.0, 4.0]) == (5.5, 1)
    assert expect_lower(X, [10.0, 0.0, 4.0]) == 2.0


def test_value_vector_checked():
    with pytest.raises(DomainError, match="value vector of shape"):
        expect_upper(B, np.zeros(4))
    with pytest.raises(DomainError, match="non-finite test value"):
        expect_upper(B, [0.0, np.nan, 1.0])
    with pytest.raises(DomainError, match="non-finite test value"):
        expect_lower(B, [0.0, 1.0, -np.inf])
    for bad in (np.zeros((2, 4)), np.zeros((3, 2)), 1.0):
        with pytest.raises(DomainError, match="value vector of shape"):
            expect_upper(B, bad)
    stack = np.zeros((2, 2, 3))
    stack[1, 0, 2] = np.nan
    with pytest.raises(DomainError, match="non-finite test value"):
        expect_upper(B, stack)
    stack[1, 0, 2] = -np.inf
    with pytest.raises(DomainError, match="non-finite test value"):
        expect_lower(B, stack)
    value, idx = expect_upper_member(B, np.zeros((2, 0, 3)))
    assert value.shape == idx.shape == (2, 0)


@pytest.mark.parametrize("points, value", [([[1.0, 2.0], [3.0, 5.0]], 8.5),
                                           ([[1.0, 2.0], [2.0, 3.0]], 4.0)])
def test_pointwise_2d_functional_on_a_d_by_d_grid(points, value):
    """z[0] * z[1] called on the (2, 2) array of both points pairs their
    coordinates wrongly, yet returns the shape of one value per point; the
    same holds on the (2, 2, 2) sum grid of the second set."""
    X = AmbiguitySet(LatticeSpec(2, 1.0, (0.0, 0.0)),
                     [DiscreteDistribution(np.array(points), np.array([0.5, 0.5]))])
    f = lambda z: z[0] * z[1]
    assert expect_upper(X, f) == value
    assert independent_sum_expect([X], f) == value


class RaisingOnArrays:
    """A vectorised functional with a bug: it raises RuntimeError on arrays,
    and counts the scalar calls that a fallback would make."""

    def __init__(self):
        self.array_calls = 0
        self.scalar_calls = 0

    def __call__(self, *args):
        if any(np.ndim(a) for a in args):
            self.array_calls += 1
            raise RuntimeError("bug inside the functional")
        self.scalar_calls += 1
        return 0.0


EVALUATOR_CALL_SITES = {
    "expect_upper": lambda f: expect_upper(B, f),
    "independent_sum_expect": lambda f: independent_sum_expect([B] * 3, f),
    "two_point_sum_expect": lambda f: two_point_sum_expect([B] * 4, 2, f, 0.5),
    "gnormal_expect": lambda f: gnormal_expect(SigmaInterval(0.5, 1.0), f, accuracy="fast"),
    "gbm_fdd_expect": lambda f: gbm_fdd_expect(SigmaInterval(0.5, 1.0), (0.5, 1.0), f,
                                               accuracy="fast"),
}


@pytest.mark.parametrize("site", sorted(EVALUATOR_CALL_SITES))
def test_error_inside_functional_propagates(site):
    f = RaisingOnArrays()
    with pytest.raises(RuntimeError, match="bug inside the functional"):
        EVALUATOR_CALL_SITES[site](f)
    assert (f.array_calls, f.scalar_calls) == (1, 0)


def test_evaluate_open_grid_matches_dense_grid():
    """An open grid gives the dense grid's values bit for bit, for a
    vectorised f, an f that ignores arguments (its result is broadcast) and
    a float-only f (point by point)."""
    x, y, z = (np.linspace(-1.0, 1.0, n) for n in (4, 3, 5))
    open_grid = (x[:, None, None, None], y[:, None, None], z[:, None])
    dense = [g[..., None] for g in np.meshgrid(x, y, z, indexing="ij")]
    for f in (lambda a, b, c: np.sin(a) * b - c, lambda a, b, c: a * a,
              lambda a, b, c: math.cos(a) + b * c):
        got = evaluate(f, *open_grid)
        assert got.shape == (4, 3, 5)
        assert got.tobytes() == evaluate(f, *dense).tobytes()


def test_evaluate_open_grid_keeps_the_extra_point_guard():
    """2-d points on an open (2, 2) grid: the first argument, whose first
    axis has length d = 2, gets the extra point, so z[0] * z[1] returns a
    wrong shape and is evaluated point by point; the second argument,
    broadcast along that axis, is left as it is."""
    z = np.array([[[1.0, 2.0]], [[3.0, 5.0]]])  # (2, 1) grid of points
    w = np.array([[[0.5, 1.0], [2.0, 4.0]]])  # (1, 2) grid of points
    f = lambda p, q: p[0] * p[1] + q[..., 0]
    want = [[1.0 * 2.0 + 0.5, 1.0 * 2.0 + 2.0], [3.0 * 5.0 + 0.5, 3.0 * 5.0 + 2.0]]
    assert evaluate(f, z, w).tolist() == want
    assert evaluate(f, np.broadcast_to(z, (2, 2, 2)), np.broadcast_to(w, (2, 2, 2))).tolist() \
        == want


def test_member_means_do_not_depend_on_the_layout_f_returns():
    """A strided view of the input and a fresh copy give the same bits: each
    member mean is one np.dot over a contiguous gather of the values (a
    strided np.dot sums in another order)."""
    lat = LatticeSpec(2, 0.25, (0.0, 0.0))
    support = lat.to_physical(np.array([[0, 1], [1, 3], [2, 2], [3, 7], [4, 5], [5, 11]]))
    X = AmbiguitySet(lat, [DiscreteDistribution(support, np.arange(1.0, 7.0) / 21.0)])
    view = expect_upper(X, lambda z: z[..., 1])
    assert view.hex() == expect_upper(X, lambda z: z[..., 1].copy()).hex()


def random_union_set(rng, dim):
    """One to four members on one shifted lattice, each on its own random
    subset of a 4^dim box, listed in random order, with zero probabilities."""
    lat = LatticeSpec(dim, float(rng.choice([0.25, 0.5, 1.0])),
                      tuple(float(o) for o in rng.choice([0.0, 0.5, -0.25], size=dim)))
    box = np.array(np.meshgrid(*[np.arange(-2, 2)] * dim, indexing="ij")).reshape(dim, -1).T
    members = []
    for _ in range(rng.integers(1, 5)):
        size = int(rng.integers(1, min(len(box), 7) + 1))
        coords = box[rng.choice(len(box), size=size, replace=False)]
        w = rng.integers(0, 4, size=size).astype(float)
        w[rng.integers(size)] += 1.0
        members.append(DiscreteDistribution(lat.to_physical(coords), w / w.sum()))
    return AmbiguitySet(lat, members)


UNION_FS = {
    1: {"smooth": lambda x: np.sin(3.0 * x) + x * x,
        "scalar_only": lambda x: math.atan(x) - 0.5 * math.cos(3.0 * x),
        "neg_zero": lambda x: np.where(x >= 0.0, -0.0, np.cos(x))},
    2: {"smooth": lambda z: np.sin(z[..., 0]) * z[..., 1] + z[..., 0] ** 2,
        "scalar_only": lambda z: math.atan(z[0]) - math.cos(z[1]),
        "neg_zero": lambda z: np.where(z[..., 0] + z[..., 1] >= 0.0, -0.0, z[..., 1] + 1.0)},
}


@given(st.integers(0, 10_000), st.sampled_from([1, 2]),
       st.sampled_from(["smooth", "scalar_only", "neg_zero", "values", "stack"]))
@settings(max_examples=60, deadline=None)
def test_expect_upper_bit_identical_to_member_loop(seed, dim, f_name):
    """Members on different, unsorted supports with zero probabilities, in
    1-d and 2-d; callables (vectorised, scalar-only, with -0.0 values),
    value vectors holding +-0.0, and stacks of them, each row of which
    gives the bits of its own vector.  In the stack case a one-point member
    leads the set and the first two rows are all -0.0 and all +0.0, so the
    -0.0 that np.dot gives a one-point member is checked."""
    rng = np.random.default_rng(seed)
    X = random_union_set(rng, dim)
    assert [tuple(c) for c in X.lattice.to_integer(X.support).tolist()] == union_coords(X)
    if f_name == "stack":
        X = AmbiguitySet(X.lattice, (DiscreteDistribution(X.support[-1:], [1.0]),) + X.members)
        stack = rng.uniform(-5.0, 5.0, size=(6, len(X.support)))
        stack[rng.random(stack.shape) < 0.3] = 0.0
        stack[rng.random(stack.shape) < 0.5] *= -1.0
        stack[:2] = [[-0.0], [0.0]]
        for got, f in ((expect_upper(X, stack), stack), (-expect_lower(X, stack), -stack)):
            assert got.shape == (6,)
            assert [v.hex() for v in got.tolist()] == [loop_expect_upper(X, row).hex()
                                                       for row in f]
            assert np.array_equal(expect_upper(X, f.reshape(2, 3, -1)).view(np.int64),
                                  got.reshape(2, 3).view(np.int64))
        return
    if f_name == "values":
        f = rng.uniform(-5.0, 5.0, size=len(X.support))
        zero = rng.random(len(f)) < 0.3
        f[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
        neg = -f
    else:
        f = UNION_FS[dim][f_name]
        neg = lambda z: -np.asarray(f(z), dtype=float)
    assert expect_upper(X, f).hex() == loop_expect_upper(X, f).hex()
    assert expect_lower(X, f).hex() == (-loop_expect_upper(X, neg)).hex()


def test_capacity_examples():
    assert capacity_upper(B, lambda x: abs(x) >= 1) == 1.0
    assert capacity_upper(B, lambda x: abs(x) >= 2) == 0.0
    assert capacity_lower(B, lambda x: abs(x) >= 1) == 0.5


# ----------------------------------------------------------------- truncate

def test_capacity_evaluates_the_event_once_per_union_point():
    lat = LatticeSpec(1, 1.0, (0.0,))
    unsorted = AmbiguitySet(lat, [
        DiscreteDistribution(np.array([[2.0], [-1.0]]), np.array([0.3, 0.7])),
        DiscreteDistribution(np.array([[1.0], [0.0], [-1.0]]), np.array([0.5, 0.2, 0.3]))])
    for X in (nested_product(B, B), unsorted):
        expected = max(float(dist.probs[np.sum(dist.support, axis=1) > 0.0].sum())
                       for dist in X.members)
        calls = []

        def event(z):
            calls.append(z)
            return float(np.sum(z)) > 0.0

        assert capacity_upper(X, event) == expected
        # one vectorised attempt (it returns a scalar), then one call per point
        assert len(calls) <= len(X.support) + 1

        lower = min(float(dist.probs[np.sum(dist.support, axis=1) > 0.0].sum())
                    for dist in X.members)
        calls.clear()

        def vectorised(z):
            calls.append(z)
            return (z if X.dim == 1 else np.sum(z, axis=-1)) > 0.0

        assert capacity_lower(X, vectorised) == lower
        assert len(calls) == 1


def test_truncate_clamps_and_merges():
    lat = LatticeSpec(1, 1.0, (0.0,))
    dist = DiscreteDistribution(np.array([[-2.0], [0.0], [2.0]]),
                                np.array([0.25, 0.5, 0.25]))
    X = AmbiguitySet(lat, [dist])
    Xc = truncate(X, 1.0)
    member = Xc.members[0]
    assert sorted(member.support[:, 0].tolist()) == [-1.0, 0.0, 1.0]
    assert np.allclose(sorted(member.probs.tolist()), [0.25, 0.25, 0.5])


def test_truncate_identity_inside_support():
    Xc = truncate(B, 1.0)
    for dist, original in zip(Xc.members, B.members):
        assert np.array_equal(np.sort(dist.support[:, 0]), np.sort(original.support[:, 0]))


def test_truncate_off_lattice_rejected():
    with pytest.raises(DomainError, match="truncation off-lattice"):
        truncate(B, 0.5)


# ------------------------------------------------------------------- nested

def test_nested_two_steps_square_of_sum():
    assert nested_expect([B, B], lambda a, b: (a + b) ** 2) == pytest.approx(2.0, abs=1e-12)


def test_nested_positive_part_single():
    assert nested_expect([B], lambda x: max(x, 0.0)) == pytest.approx(0.5, abs=1e-12)


def test_nested_matches_sum_dp_four_copies():
    f = lambda a, b, c, d: max(a + b + c + d, 0.0)
    nested = nested_expect([B] * 4, f)
    dp = iid_sum_expect(B, 4, lambda s: np.maximum(s, 0.0))
    assert nested == pytest.approx(dp, abs=1e-12)


def test_nested_cap():
    with pytest.raises(ResourceCapError, match="nesting too deep"):
        nested_expect([B] * 3, lambda *a: 0.0, cap=2)


def test_nested_arity_mismatch():
    f = TF(lambda a, b: a + b, arity=2)
    with pytest.raises(DomainError, match="arity mismatch"):
        nested_expect([B], f)


# ------------------------------------------------------------------ sum DP

def test_iid_sum_trivial_values():
    assert iid_sum_expect(B, 2, lambda s: s * s) == pytest.approx(2.0, abs=1e-12)
    for n in (1, 3, 7):
        assert iid_sum_expect(B, n, lambda s: s) == pytest.approx(0.0, abs=1e-12)


def test_iid_sum_clt_value():
    value = iid_sum_expect(B, 256, lambda s: np.maximum(s, 0.0), scale=1 / 16)
    assert value == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=0.01)


def test_iid_sum_matches_naive_recursion():
    g = lambda s: np.sin(s) + 0.2 * s * s
    for n in (1, 2, 3, 4):
        dp = iid_sum_expect(B, n, g, scale=0.5)
        assert dp == pytest.approx(naive_sum_expect(B, n, g, scale=0.5), abs=1e-12)


def test_sum_lattice_cap():
    with pytest.raises(ResourceCapError, match="lattice blowup"):
        iid_sum_expect(B, 64, lambda s: s, max_nodes=16)


def test_sum_dp_2d_working_set(traced_peak_mib):
    """The five-point 2-d family at n = 256: a level holds 513^2 cells, 2 MiB.
    The positions, 4 MiB, are built with no box-sized temporary, and the DP
    keeps two levels and block-sized scratch; this peaked at 12.2 MiB when
    the positions came from meshgrid and the DP kept four level buffers."""
    support = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    members = [DiscreteDistribution(support, [1 - a - b, a / 2, a / 2, b / 2, b / 2])
               for a, b in ((0.2, 0.3), (0.4, 0.1), (0.15, 0.35))]
    Y = AmbiguitySet(LatticeSpec(2, 1.0, (0.0, 0.0)), members)
    A = np.array([[1.0, 0.3], [0.3, 1.5]])
    quad = lambda z: np.einsum("...i,ij,...j->...", z, A, z)
    peak = traced_peak_mib(lambda: iid_sum_expect(Y, 256, quad, scale=1 / 16))
    assert peak < 8.5


def test_heterogeneous_sum_matches_nested():
    other = symmetric_bernoulli_family((0.25, 0.75))
    laws = [B, other, B]
    g = lambda s: np.maximum(s, 0.0) + 0.1 * s
    dp = independent_sum_expect(laws, g)
    nested = nested_expect(laws, lambda a, b, c: g(a + b + c))
    assert dp == pytest.approx(nested, abs=1e-12)


# -------------------------------------------------------------- running max

def test_running_max_single_step():
    assert running_max_expect(B, 1) == pytest.approx(1.0, abs=1e-12)


def test_running_max_point_mass_zero():
    lat = LatticeSpec(1, 1.0, (0.0,))
    X = AmbiguitySet(lat, [DiscreteDistribution(np.array([[0.0]]), np.array([1.0]))])
    assert running_max_expect(X, 5) == 0.0


def test_running_max_matches_enumeration():
    for n in (2, 3, 4):
        dp = running_max_expect(B, n, scale=1.0)
        assert dp == pytest.approx(naive_running_max(B, n), abs=1e-12)


def test_running_max_with_shifted_origin():
    lat = LatticeSpec(1, 0.5, (-0.5,))
    dist = DiscreteDistribution(np.array([[-1.0], [-0.5], [0.5]]),
                                np.array([0.3, 0.3, 0.4]))
    X = AmbiguitySet(lat, [dist, DiscreteDistribution(
        np.array([[-1.0], [-0.5], [0.5]]), np.array([0.1, 0.2, 0.7]))])
    for n in (1, 2, 3):
        assert running_max_expect(X, n, scale=2.0) == pytest.approx(
            naive_running_max(X, n, scale=2.0), abs=1e-12)


def test_running_max_requires_1d():
    X2 = nested_product(B, B)
    with pytest.raises(DomainError, match="1-d only"):
        running_max_expect(X2, 2)


@pytest.mark.parametrize("scale, message", [
    (np.inf, "scale must be positive and finite"),
    (np.nan, "scale must be positive and finite"),
    (1e308, "non-finite position"),  # 2e308 overflows at level 2
])
def test_running_max_rejects_non_finite_scale_and_positions(scale, message):
    with np.errstate(over="ignore"), pytest.raises(DomainError, match=message):
        running_max_expect(B, 2, scale=scale)


def test_running_max_state_cap():
    with pytest.raises(ResourceCapError, match="state blowup"):
        running_max_expect(B, 40, max_states=20)


def test_running_max_cap_counts_one_level_array():
    # n = 4 on B: peaks 0..4 times the 9 sums of level 4
    assert running_max_expect(B, 4, max_states=45) == set_running_max(B, 4)
    with pytest.raises(ResourceCapError, match="state blowup"):
        running_max_expect(B, 4, max_states=44)


SHIFTED = AmbiguitySet(LatticeSpec(1, 0.5, (-0.5,)), [
    DiscreteDistribution(np.array([[0.5], [-1.0], [-0.5]]), np.array([0.4, 0.3, 0.3])),
    DiscreteDistribution(np.array([[-1.0], [0.5], [-0.5]]), np.array([0.1, 0.7, 0.2]))])
SKEWED = AmbiguitySet(LatticeSpec(1, 1.0, (0.0,)), [
    DiscreteDistribution(np.array([[2.0], [-1.0], [0.0]]), np.array([0.25, 0.5, 0.25])),
    DiscreteDistribution(np.array([[-1.0], [2.0], [0.0]]), np.array([0.6, 0.0, 0.4]))])


@pytest.mark.parametrize("X, n", [(B, 20), (B, 24), (SHIFTED, 16), (SKEWED, 20),
                                  (symmetric_bernoulli_family((1.0,), step=0.25), 20)],
                         ids=["bernoulli_20", "bernoulli_24", "shifted_16", "skewed_20",
                              "quarter_step_20"])
def test_running_max_bit_identical_to_set_dp_fixed(X, n):
    for scale in (1.0, 1 / np.sqrt(n), 3.0):
        assert running_max_expect(X, n, scale=scale).hex() == set_running_max(X, n, scale).hex()


@given(st.integers(0, 10_000), st.sampled_from([1, 3, 6, 10]),
       st.sampled_from([1, 5, ambiguity.BLOCK_CELLS]))
@settings(max_examples=60, deadline=None)
def test_running_max_bit_identical_to_set_dp(seed, n, block):
    """Members on their own unsorted supports with zero probabilities, on
    lattices whose origin is or is not a multiple of the step, and levels
    split into blocks of peak rows."""
    rng = np.random.default_rng(seed)
    X = random_union_set(rng, 1)
    scale = float(rng.uniform(0.2, 1.5))
    with mock.patch.object(ambiguity, "BLOCK_CELLS", block):
        got = running_max_expect(X, n, scale=scale)
    assert got.hex() == set_running_max(X, n, scale).hex()


def test_sum_dp_reads_only_cells_a_step_wrote(nan_filled_empty):
    """With every np.empty array NaN-filled, the 2-d sum DP and the running
    maximum keep the bits of their references: no live cell reads a cell
    of the flat level buffers that no step (or tight copy) wrote.  The
    n = 24 draws end on 57 x 33 boxes and are copied tight 12 and 13 times."""
    for seed, n in ((1, 2), (2, 24), (6, 24)):
        laws = random_sum_laws(np.random.default_rng(seed), 2, n)
        g = SUM_GS[2]["smooth"]
        ref = loop_sum_expect(laws, g, 0.7)
        with nan_filled_empty():
            assert independent_sum_expect(laws, g, scale=0.7).hex() == ref.hex()
    rng = np.random.default_rng(20261020)
    for n in (1, 6, 16):
        X = random_union_set(rng, 1)
        ref = set_running_max(X, n, 0.6)
        with nan_filled_empty():
            assert running_max_expect(X, n, scale=0.6).hex() == ref.hex()


# ---------------------------------------------------------------- invariants

def random_set(rng):
    from gexpect.suites import random_ambiguity_set

    return random_ambiguity_set(rng)


@given(st.integers(0, 10_000))
def test_axioms_on_random_sets(seed):
    rng = np.random.default_rng(seed)
    X = random_set(rng)
    m = len(X.support)
    f = rng.uniform(-5, 5, size=m)
    g = f + rng.uniform(0, 3, size=m)
    ef, eg = expect_upper(X, f), expect_upper(X, g)
    assert ef <= eg + 1e-12
    assert expect_upper(X, f + g) <= ef + eg + 1e-12
    lam = float(rng.uniform(0, 3))
    assert expect_upper(X, lam * f) == pytest.approx(lam * ef, abs=1e-12)
    assert expect_lower(X, f) <= ef + 1e-12


def test_axiom_suite_makes_one_call_per_side_per_case():
    """Each case's pairs go to expect_upper and expect_lower as stacks; a
    suite with no pairs is rejected."""
    from gexpect import suites

    calls = []

    def counted(fn):
        def call(X, f):
            calls.append(np.shape(f))
            return fn(X, f)
        return call

    with mock.patch.object(suites, "expect_upper", counted(suites.expect_upper)), \
            mock.patch.object(suites, "expect_lower", counted(suites.expect_lower)):
        suites.axiom_suite(np.random.default_rng(3), trials=4, pairs=10)
    assert len(calls) == 2 * 4
    assert [shape[:-1] for shape in calls] == [(5, 10), (10,)] * 4
    with pytest.raises(DomainError, match="pairs must be >= 1"):
        suites.axiom_suite(np.random.default_rng(3), trials=1, pairs=0)


@given(st.integers(0, 10_000))
def test_conjugate_collapse_iff_single_member(seed):
    rng = np.random.default_rng(seed)
    X = random_set(rng)
    m = len(X.support)
    f = rng.uniform(-5, 5, size=m)
    if len(X.members) == 1:
        assert expect_lower(X, f) == pytest.approx(expect_upper(X, f), abs=1e-12)
    else:
        probs = np.zeros((len(X.members), m))
        for i, dist in enumerate(X.members):
            probs[i, X.positions[i]] = dist.probs
        spread = np.ptp(probs, axis=0)
        if np.max(spread) > 1e-9:
            witness = np.zeros(m)
            witness[int(np.argmax(spread))] = 1.0
            assert expect_upper(X, witness) > expect_lower(X, witness)


@given(st.integers(0, 10_000))
def test_capacity_bounds_and_subadditivity(seed):
    rng = np.random.default_rng(seed)
    X = random_set(rng)
    pts = X.members[0].support
    radius = float(np.median(np.linalg.norm(pts, axis=1)))
    A = lambda z: float(np.linalg.norm(np.atleast_1d(z))) <= radius
    Bev = lambda z: float(np.sum(np.atleast_1d(z))) > 0
    union = lambda z: A(z) or Bev(z)
    cu, cl = capacity_upper(X, A), capacity_lower(X, A)
    assert 0.0 <= cl <= cu + 1e-12 and cu <= 1.0
    assert capacity_upper(X, union) <= capacity_upper(X, A) + capacity_upper(X, Bev) + 1e-12
    assert capacity_lower(X, union) <= capacity_lower(X, A) + capacity_upper(X, Bev) + 1e-12


@given(st.integers(0, 5_000), st.integers(1, 6))
def test_dp_equals_nested_small_instances(seed, n):
    rng = np.random.default_rng(seed)
    variances = sorted(float(v) for v in rng.uniform(0.1, 1.0, size=2))
    X = symmetric_bernoulli_family(variances)
    g = lambda s: np.cos(s) + 0.3 * np.maximum(s, 0.0)
    dp = iid_sum_expect(X, n, g, scale=0.7)
    nested = nested_expect([X] * n, lambda *args: g(0.7 * sum(args)))
    assert dp == pytest.approx(nested, abs=1e-11)


@given(st.integers(0, 4_000), st.integers(1, 3))
def test_dp_equals_nested_any_dimension(seed, n):
    from gexpect.suites import random_ambiguity_set

    rng = np.random.default_rng(seed)
    X = random_ambiguity_set(rng, max_members=3, max_points=4)
    if X.dim == 1:
        g = lambda s: np.abs(s) + 0.25 * s
        nested = nested_expect([X] * n, lambda *args: g(0.5 * sum(args)))
    else:
        # vectorised over a trailing coordinate axis, e.g. a (m, d) sum grid
        g = lambda s: np.linalg.norm(s, axis=-1) + 0.25 * np.sum(s, axis=-1)
        nested = nested_expect(
            [X] * n, lambda *args: float(g(0.5 * sum(np.asarray(a) for a in args))))
    dp = iid_sum_expect(X, n, g, scale=0.5)
    assert dp == pytest.approx(nested, abs=1e-11)


@given(st.integers(0, 5_000), st.integers(-3, 3))
def test_dp_positional_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    step = 0.5
    pts = np.array([[-1.0], [0.0], [0.5]])
    probs = rng.dirichlet(np.ones(3))
    base = AmbiguitySet(LatticeSpec(1, step, (0.0,)),
                        [DiscreteDistribution(pts, probs)])
    moved = AmbiguitySet(LatticeSpec(1, step, (shift * step,)),
                         [DiscreteDistribution(pts, probs)])
    g = lambda s: np.abs(s) + 0.1 * s * s
    for n in (1, 2, 4):
        assert iid_sum_expect(base, n, g) == pytest.approx(
            iid_sum_expect(moved, n, g), abs=1e-12)


def test_nested_product_matches_nested_recursion():
    other = symmetric_bernoulli_family((0.25, 1.0))
    joint = nested_product(B, other)
    f2 = lambda z: np.maximum(z[..., 0] + 2 * z[..., 1], 0.0)
    direct = expect_upper(joint, f2)
    nested = nested_expect([B, other], lambda a, b: max(a + 2 * b, 0.0))
    assert direct == pytest.approx(nested, abs=1e-12)


# ------------------------------------------------------------- construction

def test_negative_probability_rejected():
    with pytest.raises(DomainError, match="negative probability"):
        DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([1.1, -0.1]))


def test_nan_probability_rejected():
    with pytest.raises(DomainError, match="non-finite probability"):
        DiscreteDistribution(np.array([[-1.0], [1.0]]), np.array([np.nan, 0.5]))


def test_probabilities_must_sum_to_one():
    with pytest.raises(DomainError, match="sum"):
        DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.6, 0.5]))


def test_duplicate_support_rejected():
    lat = LatticeSpec(1, 1.0, (0.0,))
    dist = DiscreteDistribution(np.array([[1.0], [1.0]]), np.array([0.5, 0.5]))
    fine = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    # 1.0 + 1e-14 rounds to the same lattice point as 1.0
    near = DiscreteDistribution(np.array([[1.0], [1.0 + 1e-14]]), np.array([0.5, 0.5]))
    for members in ([dist], [fine, dist], [near]):
        with pytest.raises(DomainError, match="support points not pairwise distinct"):
            AmbiguitySet(lat, members)


def test_off_lattice_support_rejected():
    lat = LatticeSpec(1, 1.0, (0.0,))
    dist = DiscreteDistribution(np.array([[0.25]]), np.array([1.0]))
    with pytest.raises(DomainError, match="off lattice"):
        AmbiguitySet(lat, [dist])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_point_rejected_by_lattice(value):
    lat = LatticeSpec(1, 1.0, (0.0,))
    with pytest.raises(DomainError, match="non-finite point"):
        lat.to_integer(np.array([[0.0], [value]]))


def test_lattice_rejects_points_beyond_half_step_tolerance():
    """A point 2**41 + 0.5 steps out has a tolerance above half a step, so it
    would pass as 2**41; the range ends where the tolerance reaches 0.5."""
    lat = LatticeSpec(1, 1.0, (0.0,))
    with pytest.raises(DomainError, match="beyond the lattice range"):
        lat.to_integer(np.array([[2.0 ** 41 + 0.5]]))
    with pytest.raises(DomainError, match="off lattice"):
        lat.to_integer(np.array([[2.0 ** 38 + 0.5]]))
    assert lat.to_integer(np.array([[2.0 ** 38]])).tolist() == [[2 ** 38]]


@pytest.mark.parametrize("support", [[-1.0, 0.0, 1.0], [0.0, 1.0]])
def test_lattice_rejects_coordinates_past_int64(support):
    """At step 1e-300 the coordinates of +-1 would overflow the int64 cast:
    {-1, 0, 1} was rejected as repeated and {0, 1} truncated to -9.2e-282."""
    pts = np.array(support).reshape(-1, 1)
    dist = DiscreteDistribution(pts, np.full(len(pts), 1.0 / len(pts)))
    with pytest.raises(DomainError, match="beyond the lattice range"):
        AmbiguitySet(LatticeSpec(1, 1e-300, (0.0,)), [dist])


def test_empty_members_rejected():
    with pytest.raises(DomainError, match="at least one member"):
        AmbiguitySet(LatticeSpec(1, 1.0, (0.0,)), [])


SUM_GS = {
    1: {"smooth": lambda s: np.sin(s) + 0.3 * s * s,
        "scalar_only": lambda s: math.atan(s) - 0.5 * math.cos(3.0 * s),
        "neg_zero": lambda s: np.where(s >= 0.0, -0.0, np.cos(s)),
        "view": lambda s: s},
    2: {"smooth": lambda z: np.sin(z[..., 0]) * z[..., 1] + z[..., 0] ** 2,
        "scalar_only": lambda z: math.atan(z[0]) - math.cos(z[1]),
        "neg_zero": lambda z: np.where(z[..., 0] + z[..., 1] >= 0.0, -0.0, z[..., 1]),
        "view": lambda z: z[..., 1]},
}


def random_sum_laws(rng, dim, n):
    """n draws from a pool of three laws on one shifted lattice.  Each law has
    one to three members on one support, listed in a different order by each
    member, with zero-probability points."""
    lat = LatticeSpec(dim, float(rng.choice([0.25, 0.5, 1.0])),
                      tuple(float(o) for o in rng.choice([0.0, 0.5, -0.25], size=dim)))
    grid = np.array(np.meshgrid(*[np.arange(-1, 3)] * dim, indexing="ij")).reshape(dim, -1).T
    pool = []
    for _ in range(3):
        offsets = grid[rng.choice(len(grid), size=int(rng.integers(1, 5)), replace=False)]
        members = []
        for _ in range(rng.integers(1, 4)):
            order = rng.permutation(len(offsets))
            w = rng.integers(0, 4, size=len(offsets)).astype(float)
            w[rng.integers(len(offsets))] += 1.0
            support = np.asarray(lat.origin) + lat.step * offsets[order]
            members.append(DiscreteDistribution(support, w / w.sum()))
        pool.append(AmbiguitySet(lat, members))
    return [pool[i] for i in rng.integers(3, size=n)]


@given(st.integers(0, 10_000), st.sampled_from([1, 2]),
       st.one_of(st.tuples(st.integers(1, 9), st.sampled_from([1, 5, ambiguity.BLOCK_CELLS])),
                 st.tuples(st.integers(10, 30), st.sampled_from([97, ambiguity.BLOCK_CELLS]))),
       st.sampled_from(["smooth", "scalar_only", "neg_zero", "view"]))
@settings(max_examples=60, deadline=None)
def test_sum_dp_kernel_bit_identical_to_member_loop(seed, dim, n_block, g_name):
    """1-d and 2-d lattices, heterogeneous laws, permuted supports, zero
    probabilities, a g with -0.0 values, a scalar-only g, a g that returns
    a (strided, in 2-d) view of the positions, and levels cut into flat
    blocks.  Past n = 9 the 2-d levels mostly shrink unequally on the two
    axes, and many runs are copied tight more than once."""
    n, block = n_block
    rng = np.random.default_rng(seed)
    laws = random_sum_laws(rng, dim, n if dim == 1 or n > 9 else min(n, 5))
    g = SUM_GS[dim][g_name]
    scale = float(rng.uniform(0.2, 1.5))
    with mock.patch.object(ambiguity, "BLOCK_CELLS", block):
        got = independent_sum_expect(laws, g, scale=scale)
    assert got.hex() == loop_sum_expect(laws, g, scale).hex()


def per_level_boxes(steps):
    """Level corners and shapes built one level at a time: the reference
    for the per-run tuples of ambiguity._level_boxes."""
    lo = [(0,) * len(steps[0].zmin)]
    shapes = [(1,) * len(steps[0].zmin)]
    for step in steps:
        lo.append(tuple(a + b for a, b in zip(lo[-1], step.zmin)))
        shapes.append(tuple(w + b - a for w, a, b in zip(shapes[-1], step.zmin, step.zmax)))
    return lo, shapes


@given(st.integers(0, 10_000), st.sampled_from([1, 2]),
       st.lists(st.tuples(st.integers(0, 2), st.integers(1, 6), st.booleans()),
                min_size=1, max_size=6),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_per_run_setup_matches_per_level_loop(seed, dim, runs, mixed):
    """Runs of one law object, runs of distinct but equal objects (a law
    rebuilt on an equal but distinct lattice), and, when `mixed`, one law
    on another lattice late in the list."""
    rng = np.random.default_rng(seed)
    pool = random_sum_laws(rng, dim, 3)
    laws = []
    for pick, count, copies in runs:
        law = pool[pick]
        if copies:
            laws += [AmbiguitySet(LatticeSpec(dim, law.lattice.step, law.lattice.origin),
                                  law.members) for _ in range(count)]
        else:
            laws += [law] * count
    steps = ambiguity._sum_steps(laws)
    lo, shapes = per_level_boxes(steps)
    assert ambiguity._level_boxes(steps, dim) == (lo, shapes)
    cuts = sorted(int(k) for k in rng.integers(0, len(laws) + 1, size=2))
    ks = (0, *cuts, len(laws))
    bands = [[tuple(w - b + 1 for w, b in zip(shapes[k], shapes[start]))
              for k in range(start, end + 1)] for start, end in zip(ks, ks[1:])]
    assert ambiguity._bands(steps, ks, dim) == bands
    assert ambiguity._shared_lattice(laws) == laws[0].lattice
    if mixed:
        lat = laws[0].lattice
        other = AmbiguitySet(LatticeSpec(dim, lat.step / 2, lat.origin), pool[0].members)
        laws.insert(len(laws) - int(rng.integers(0, min(len(laws), 3))), other)
        with pytest.raises(DomainError, match="laws do not share a lattice"):
            independent_sum_expect(laws, SUM_GS[dim]["smooth"])
