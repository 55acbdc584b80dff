"""Scenario trees: conditional operators, statistics, moment inequalities."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import (DomainError, MartingaleArray, ScenarioTree, TreeRandomVariable,
                     cond_expect, cond_expect_lower, drift_stat, expectation,
                     iid_level_tree, iid_sum_expect, lift, lindeberg_stat,
                     quadratic_characteristic, random_tree, rosenthal_check,
                     symmetric_bernoulli_family, verify_operator_laws)
from gexpect.ambiguity import LatticeSpec
from gexpect.functionals import get
from gexpect.trees import path_sums

B = symmetric_bernoulli_family((0.5, 1.0))


# ---------------------------------------------------------------- oracles

def policy_enumeration_expect(tree, X):
    """Independent oracle: maximise the classical mean over every assignment
    of one member per node.  Exponential; small trees only."""
    nodes = [(k, j) for k in range(tree.depth) for j in range(tree.sizes[k])]
    choices = [range(len(tree.members[k][j])) for k, j in nodes]
    leaf_vals = lift(tree, X, tree.depth).values
    best = None
    for pick in itertools.product(*choices):
        choice = dict(zip(nodes, pick))
        probs = np.ones(1)
        for k in range(tree.depth):
            nxt = np.empty(tree.sizes[k + 1])
            for j in range(tree.sizes[k]):
                s, c = tree.child_start[k][j], tree.child_count[k][j]
                nxt[s:s + c] = probs[j] * np.asarray(tree.members[k][j][choice[(k, j)]])
            probs = nxt
        mean = float(probs @ leaf_vals)
        best = mean if best is None else max(best, mean)
    return best


def per_node_step(tree, level, vals):
    """Reference level operator: node by node, the member maximum of the
    left-to-right sum p[0] * block[0] + p[1] * block[1] + ... over that
    node's child block, the members folded in order."""
    k = level - 1
    out = np.empty((tree.sizes[k],) + vals.shape[1:])
    for j in range(tree.sizes[k]):
        s, c = tree.child_start[k][j], tree.child_count[k][j]
        block = vals[s:s + c]
        best = None
        for p in tree.members[k][j]:
            p = np.asarray(p, dtype=float)
            m = p[0] * block[0]
            for i in range(1, c):
                m = m + p[i] * block[i]
            best = m if best is None else np.maximum(best, m)
        out[j] = best
    return out


def small_tree(rng):
    return random_tree(rng, max_depth=3, max_children=3, max_members=2)


# ------------------------------------------------------------ cond_expect

def test_cond_expect_nodewise_variance(bernoulli):
    tree = iid_level_tree(bernoulli, 2)
    sq = TreeRandomVariable(2, tree.inc[2][:, 0] ** 2)
    at1 = cond_expect(tree, sq, 1)
    assert np.allclose(at1.values, 1.0, atol=1e-14)


def test_cond_expect_of_measurable_variable_is_identity(bernoulli):
    tree = iid_level_tree(bernoulli, 3)
    rng = np.random.default_rng(5)
    X = TreeRandomVariable(1, rng.uniform(-1, 1, size=tree.sizes[1]))
    lifted = lift(tree, X, 3)
    back = cond_expect(tree, lifted, 1)
    assert np.allclose(back.values, X.values, atol=1e-12)


@given(st.integers(0, 2_000))
@settings(max_examples=25)
def test_aggregation_matches_policy_enumeration(seed):
    rng = np.random.default_rng(seed)
    tree = small_tree(rng)
    X = TreeRandomVariable(tree.depth,
                           rng.uniform(-2, 2, size=tree.sizes[tree.depth]))
    assert expectation(tree, X) == pytest.approx(
        policy_enumeration_expect(tree, X), abs=1e-11)
    for k in range(tree.depth):
        via_cond = expectation(tree, cond_expect(tree, X, k))
        assert via_cond == pytest.approx(expectation(tree, X), abs=1e-11)


TREE_KINDS = [(1, {}), (2, {}), (1, {"zero_mean": True}), (2, {"zero_mean": True}),
              (1, {"nonpositive_mean": True})]


@given(st.integers(0, 5_000), st.sampled_from(TREE_KINDS), st.booleans())
@settings(max_examples=40)
def test_level_operator_bit_identical_to_per_node_loop(seed, kind, vector):
    """Mixed child counts, 1-3 members, scalar and d-vector values."""
    dim, shape = kind
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=4, max_children=5, max_members=3, dim=dim,
                       **shape)
    for level in range(tree.depth, 0, -1):
        size = (tree.sizes[level], dim) if vector else tree.sizes[level]
        vals = rng.uniform(-2.0, 2.0, size=size)
        got = cond_expect(tree, TreeRandomVariable(level, vals), level - 1).values
        assert np.array_equal(got, per_node_step(tree, level, vals))


def test_iid_level_tree_matches_sum_dp(bernoulli):
    depth = 9
    tree = iid_level_tree(bernoulli, depth)
    scale = 1 / np.sqrt(depth)
    terminal = path_sums(tree, MartingaleArray(tree))[depth][:, 0]
    for name in ("positive_part", "sin", "excess_square"):
        phi = get(name)
        leaf = TreeRandomVariable(depth, phi(scale * terminal))
        assert expectation(tree, leaf) == pytest.approx(
            iid_sum_expect(bernoulli, depth, phi, scale=scale), abs=1e-10)


def test_benchmark_sized_iid_tree_structure():
    """The depth-11 tree of the `large` benchmark workload: its sizes, one
    shared (1, 2, 3) member block per level, and one root value against the
    lattice DP."""
    X = symmetric_bernoulli_family([0.5, 1])
    depth = 11
    tree = iid_level_tree(X, depth)
    assert tree.node_count == 265_720
    for k, groups in enumerate(tree.groups):
        assert [g.probs.shape for g in groups] == [(1, 2, 3)]
        assert [len(g.nodes) for g in groups] == [3 ** k]
    scale = 1 / np.sqrt(depth)
    phi = get("excess_square")
    terminal = path_sums(tree, MartingaleArray(tree))[depth][:, 0]
    root = cond_expect(tree, TreeRandomVariable(depth, phi(scale * terminal)), 0)
    assert root.values[0] == pytest.approx(
        iid_sum_expect(X, depth, phi, scale=scale), abs=1e-10)


def test_cond_expect_level_mismatch():
    tree = iid_level_tree(B, 2)
    X = TreeRandomVariable(1, np.zeros(tree.sizes[1]))
    with pytest.raises(DomainError, match="level mismatch"):
        cond_expect(tree, X, 2)


def test_lower_conditional_is_conjugate(bernoulli):
    tree = iid_level_tree(bernoulli, 2)
    sq = TreeRandomVariable(2, tree.inc[2][:, 0] ** 2)
    lower = cond_expect_lower(tree, sq, 1)
    assert np.allclose(lower.values, 0.5, atol=1e-14)


# -------------------------------------------------------------- operator laws

def test_laws_pass_on_constant_variable():
    tree = iid_level_tree(B, 2)
    c = TreeRandomVariable(2, np.full(tree.sizes[2], 2.5))
    for k in (0, 1):
        assert np.allclose(cond_expect(tree, c, k).values, 2.5, atol=1e-14)


@given(st.integers(0, 5_000))
@settings(max_examples=30)
def test_operator_laws_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    report = verify_operator_laws(tree, rng, samples=2)
    assert report.passed, report.violations


def test_operator_laws_accept_supplied_variables(bernoulli):
    tree = iid_level_tree(bernoulli, 3)
    sums = [np.zeros((1, 1))]
    for k in (1, 2, 3):
        sums.append(sums[k - 1][tree.parent[k]] + tree.inc[k])
    supplied = [TreeRandomVariable(3, np.maximum(sums[3][:, 0], 0.0)),
                TreeRandomVariable(2, sums[2][:, 0] ** 2)]
    report = verify_operator_laws(tree, np.random.default_rng(4), samples=1,
                                  variables=supplied)
    assert report.passed, report.violations


def test_tower_with_coarser_target():
    rng = np.random.default_rng(11)
    tree = random_tree(rng, max_depth=3)
    if tree.depth < 3:
        tree = iid_level_tree(B, 3)
    X = TreeRandomVariable(tree.depth, np.arange(tree.sizes[tree.depth], dtype=float))
    inner = cond_expect(tree, X, 1)  # level l = 1
    lifted = lift(tree, inner, tree.depth)
    back = cond_expect(tree, lifted, 2)  # E_k with k = 2 > l
    assert np.allclose(back.values, lift(tree, inner, 2).values, atol=1e-12)


# --------------------------------------------------------------- statistics

def test_lindeberg_zero_when_increments_small(bernoulli):
    tree = iid_level_tree(bernoulli, 2, scale=0.25)
    _, val = lindeberg_stat(tree, MartingaleArray(tree), eps=0.5)
    assert val == 0.0


def test_lindeberg_single_jump():
    lat = LatticeSpec(1, 1.0, (0.0,))
    parent = [None, np.array([0]), np.array([0])]
    inc = [None, np.array([[2.0]]), np.array([[0.0]])]
    members = [[[np.array([1.0])]], [[np.array([1.0])]]]
    tree = ScenarioTree(lat, parent, inc, members)
    root, val = lindeberg_stat(tree, MartingaleArray(tree), eps=1.0)
    assert val == pytest.approx(3.0, abs=1e-14)
    assert root.values[0] == pytest.approx(3.0, abs=1e-14)


def test_drift_zero_mean(bernoulli):
    tree = iid_level_tree(bernoulli, 3)
    assert drift_stat(tree, MartingaleArray(tree)) == pytest.approx(0.0, abs=1e-12)


def test_drift_single_deterministic_increment():
    lat = LatticeSpec(1, 1.0, (0.0,))
    parent = [None, np.array([0])]
    inc = [None, np.array([[-3.0]])]
    members = [[[np.array([1.0])]]]
    tree = ScenarioTree(lat, parent, inc, members)
    assert drift_stat(tree, MartingaleArray(tree)) == pytest.approx(6.0, abs=1e-14)


def test_quadratic_characteristic_iid_levels(bernoulli):
    n = 4
    tree = iid_level_tree(bernoulli, n, scale=1 / np.sqrt(n))
    Z = MartingaleArray(tree)
    assert quadratic_characteristic(tree, Z, np.array([[1.0]]), n) == pytest.approx(
        1.0, abs=1e-12)
    assert quadratic_characteristic(tree, Z, np.array([[-1.0]]), n) == pytest.approx(
        -0.5, abs=1e-12)
    assert quadratic_characteristic(tree, Z, np.array([[0.0]]), n) == 0.0


def test_quadratic_characteristic_rejects_asymmetric():
    from gexpect import AmbiguitySet, DiscreteDistribution

    lat = LatticeSpec(2, 1.0, (0.0, 0.0))
    support = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    members = [DiscreteDistribution(support, np.full(4, 0.25)),
               DiscreteDistribution(support, np.array([0.4, 0.1, 0.1, 0.4]))]
    pair = AmbiguitySet(lat, members)
    tree = iid_level_tree(pair, 2)
    for A in ([[1.0, 1.0], [0.0, 1.0]], [[1.0, 1.0 + 1e-6], [1.0, 1.0]]):
        # an asymmetry of 1e-6 is rejected as g_eval rejects it
        with pytest.raises(DomainError, match="symmetric"):
            quadratic_characteristic(tree, MartingaleArray(tree), np.array(A), 2)


def drift_statistic_by_hand(tree):
    """Leafwise reconstruction of the drift statistic from raw members and
    increments, aggregated by policy enumeration (no cond_expect calls)."""
    leaf_total = np.zeros(tree.sizes[tree.depth])
    for k in range(1, tree.depth + 1):
        term = np.empty(tree.sizes[k - 1])
        for j in range(tree.sizes[k - 1]):
            s, c = tree.child_start[k - 1][j], tree.child_count[k - 1][j]
            block = tree.inc[k][s:s + c]
            means = [np.asarray(p) @ block for p in tree.members[k - 1][j]]
            hi = np.max(np.stack(means), axis=0)
            lo = np.min(np.stack(means), axis=0)
            term[j] = np.linalg.norm(hi) + np.linalg.norm(lo)
        vals = term
        for level in range(k - 1, tree.depth):
            vals = vals[tree.parent[level + 1]]
        leaf_total += vals
    return TreeRandomVariable(tree.depth, leaf_total)


def test_drift_matches_policy_enumeration():
    rng = np.random.default_rng(99)
    for _ in range(8):
        tree = small_tree(rng)
        stat = drift_statistic_by_hand(tree)
        oracle = policy_enumeration_expect(tree, stat)
        assert drift_stat(tree, MartingaleArray(tree)) == pytest.approx(
            oracle, abs=1e-11)


def test_rosenthal_depth_two_both_sides_by_enumeration(bernoulli):
    """Recompute both sides of the first display from raw paths and policy
    enumeration on the depth-2 zero-mean tree."""
    tree = iid_level_tree(bernoulli, 2)
    rep = rosenthal_check(tree)

    sums = [np.zeros((1, 1))]
    for k in (1, 2):
        sums.append(sums[k - 1][tree.parent[k]] + tree.inc[k])
    s1 = sums[1][:, 0][tree.parent[2]]
    s2 = sums[2][:, 0]
    rebound = (s2 - np.minimum(0.0, np.minimum(s1, s2))) ** 2
    lhs = policy_enumeration_expect(tree, TreeRandomVariable(2, rebound))

    per_node_sq = []
    for k in (1, 2):
        term = np.empty(tree.sizes[k - 1])
        for j in range(tree.sizes[k - 1]):
            s, c = tree.child_start[k - 1][j], tree.child_count[k - 1][j]
            block = tree.inc[k][s:s + c, 0] ** 2
            term[j] = max(float(np.asarray(p) @ block)
                          for p in tree.members[k - 1][j])
        per_node_sq.append(term)
    leaf = per_node_sq[0][tree.parent[1]][tree.parent[2]] + \
        per_node_sq[1][tree.parent[2]]
    rhs = policy_enumeration_expect(tree, TreeRandomVariable(2, leaf))

    assert rep.first_lhs == pytest.approx(lhs, abs=1e-12)
    assert rep.first_rhs == pytest.approx(rhs, abs=1e-12)
    assert lhs <= rhs


def test_martingale_transport_zero_mean_trees():
    rng = np.random.default_rng(21)
    for _ in range(10):
        tree = random_tree(rng, max_depth=4, zero_mean=True)
        Z = MartingaleArray(tree)
        sums = [np.zeros((1, 1))]
        for k in range(1, tree.depth + 1):
            sums.append(sums[k - 1][tree.parent[k]] + Z.level(k))
        terminal = TreeRandomVariable(tree.depth, sums[tree.depth][:, 0])
        for k in range(tree.depth + 1):
            up = cond_expect(tree, terminal, k).values
            lo = -cond_expect(tree, -terminal, k).values
            assert np.allclose(up, sums[k][:, 0], atol=1e-10)
            assert np.allclose(lo, sums[k][:, 0], atol=1e-10)


# ----------------------------------------------------------------- Rosenthal

def test_rosenthal_zero_increments():
    lat = LatticeSpec(1, 1.0, (0.0,))
    parent = [None, np.array([0]), np.array([0])]
    inc = [None, np.array([[0.0]]), np.array([[0.0]])]
    members = [[[np.array([1.0])]], [[np.array([1.0])]]]
    tree = ScenarioTree(lat, parent, inc, members)
    rep = rosenthal_check(tree)
    assert (rep.first_lhs, rep.first_rhs, rep.first_pass) == (0.0, 0.0, True)
    assert rep.second_ratio == 0.0


def test_rosenthal_depth_two_has_slack(bernoulli):
    tree = iid_level_tree(bernoulli, 2)
    rep = rosenthal_check(tree)
    assert rep.first_pass and rep.first_rhs - rep.first_lhs > 0


def test_rosenthal_precondition_violation():
    lat = LatticeSpec(1, 1.0, (0.0,))
    parent = [None, np.array([0])]
    inc = [None, np.array([[1.0]])]
    members = [[[np.array([1.0])]]]
    tree = ScenarioTree(lat, parent, inc, members)
    with pytest.raises(DomainError, match="conditional mean sign violated"):
        rosenthal_check(tree)


@given(st.integers(0, 5_000))
@settings(max_examples=30)
def test_rosenthal_first_display_never_fails(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=5, max_children=3, nonpositive_mean=True)
    rep = rosenthal_check(tree, p=float(rng.choice([2.0, 3.0, 4.0])))
    assert rep.first_pass
    assert np.isfinite(rep.second_ratio)


# ---------------------------------------------------- pinned statistic bits

PINNED_SEEDS = range(8)
PINNED_PATH = "fixtures/tree_statistics_hex.json"


def tree_statistics(dim, shape, seed):
    """Every tree statistic on one seeded random tree, keyed by name; floats
    as float.hex, a precondition failure as its message."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=5, max_children=4, max_members=3, dim=dim,
                       **shape)
    Z = MartingaleArray(tree)
    out = {}
    for eps in (0.5, 4.0):
        root, val = lindeberg_stat(tree, Z, eps)
        out[f"lindeberg_root[{eps}]"] = float(root.values[0]).hex()
        out[f"lindeberg[{eps}]"] = val.hex()
    out["drift"] = drift_stat(tree, Z).hex()
    A = np.array([[1.0]]) if dim == 1 else np.array([[2.0, 0.5], [0.5, -1.0]])
    for t in range(tree.depth + 1):
        out[f"quadratic[{t}]"] = quadratic_characteristic(tree, Z, A, t).hex()
    if dim == 1:
        for p in (2.0, 3.0):
            try:
                rep = rosenthal_check(tree, p=p)
            except DomainError as exc:
                out[f"rosenthal[{p}]"] = str(exc)
                continue
            fields = (rep.first_lhs, rep.first_rhs, rep.second_lhs,
                      *rep.second_terms, rep.second_ratio)
            out[f"rosenthal[{p}]"] = [rep.first_pass] + [v.hex() for v in fields]
    laws = verify_operator_laws(tree, np.random.default_rng(seed), samples=3)
    for law, v in laws.violations.items():
        out[f"law[{law}]"] = v.hex()
    return out


def test_tree_statistics_pinned_bit_for_bit():
    """Lindeberg, drift, quadratic characteristic, both Rosenthal displays and
    the operator-law violations on 40 seeded trees equal the recorded values.
    Recorded with member means summed left to right, which is also what the
    earlier matmul operator gave under OpenBLAS's Haswell kernel."""
    import json
    import pathlib

    pinned = json.loads((pathlib.Path(__file__).parent / PINNED_PATH).read_text())
    got = {f"{dim}/{'/'.join(shape) or 'generic'}/{seed}": tree_statistics(dim, shape, seed)
           for dim, shape in TREE_KINDS for seed in PINNED_SEEDS}
    assert got == pinned


# ------------------------------------------------------------ regression

SMALL_PARENT = [None, [0, 0], [0, 1, 1, 1], [0, 1, 2, 2, 2, 3, 3, 3]]
SMALL_INC = [None, [[3.0], [-3.0]], [[-3.0], [-3.0], [-3.0], [3.0]],
             [[-1.0], [-3.0], [-1.0], [1.0], [-1.0], [0.0], [-2.0], [-3.0]]]
SMALL_MEMBERS = [
    [[[0.7908819892128073, 0.20911801078719264]]],
    [[[1.0], [1.0]],
     [[0.5971126484703981, 0.3310774125324778, 0.07180993899712394],
      [0.7557702476502683, 0.24279140470983226, 0.001438347639899428],
      [0.7741417304029268, 0.13784951828857434, 0.08800875130849904]]],
    [[[1.0]], [[1.0]],
     [[0.4995388900174927, 0.37060138606268644, 0.12985972391982073],
      [0.0033768488686759736, 0.10757344101312907, 0.889049710118195]],
     [[0.752911721498727, 0.007121828271318455, 0.23996645022995478]]],
]


def test_shipped_fixture_regression():
    """Frozen values pin the backward recursion on a small hand-listed tree."""
    tree = ScenarioTree(LatticeSpec(1, 1.0, (0.0,)), SMALL_PARENT, SMALL_INC, SMALL_MEMBERS)
    assert (tree.depth, tree.node_count) == (3, 15)
    X = TreeRandomVariable(tree.depth,
                           np.sin(np.arange(tree.sizes[tree.depth], dtype=float)))
    assert expectation(tree, X) == 0.1535478039835115
    assert -expectation(tree, TreeRandomVariable(X.level, -X.values)) == \
        0.051248058009046124
    _, lind = lindeberg_stat(tree, MartingaleArray(tree), 1.5)
    assert lind == 16.247602975696996


def test_tree_validation_rejects_bad_probs():
    lat = LatticeSpec(1, 1.0, (0.0,))
    parent = [None, np.array([0, 0])]
    inc = [None, np.array([[1.0], [-1.0]])]
    members = [[[np.array([0.7, 0.7])]]]
    with pytest.raises(DomainError, match="sum to 1"):
        ScenarioTree(lat, parent, inc, members)


def test_tree_validation_rejects_unreachable_child():
    lat = LatticeSpec(1, 1.0, (0.0,))
    parent = [None, np.array([0, 0])]
    inc = [None, np.array([[1.0], [-1.0]])]
    members = [[[np.array([1.0, 0.0])]]]
    with pytest.raises(DomainError, match="unreachable"):
        ScenarioTree(lat, parent, inc, members)


LAT1 = LatticeSpec(1, 1.0, (0.0,))
HALF = np.array([0.5, 0.5])
PAIR = [None, np.array([0, 0])]
PAIR_INC = [None, np.array([[1.0], [-1.0]])]


@pytest.mark.parametrize("parent, inc, members, match", [
    (PAIR, PAIR_INC, [[[HALF], [HALF]]], "level 0: members list does not cover"),
    ([None, np.array([0, 0]), np.array([0, 0])],
     [None, np.array([[1.0], [-1.0]]), np.array([[1.0], [-1.0]])],
     [[[HALF]], [[HALF], [np.array([1.0])]]],
     "level 1 node 1: every path must reach depth"),
    (PAIR, PAIR_INC, [[[]]], "at least one transition member"),
    (PAIR, PAIR_INC, [[[np.array([1.0])]]], "member length does not match"),
    (PAIR, PAIR_INC, [[[np.array([1.5, -0.5])]]], "negative transition probability"),
    (PAIR, [None, np.array([[1.0]])], [[[HALF]]], "level 1: increment array shape"),
    (PAIR, PAIR_INC, [[[np.array([np.nan, 0.5])]]], "non-finite transition probability"),
    ([None, np.array([-1, 0])], PAIR_INC, [[[HALF]]],
     "^level 1: parent index -1 is not a node of level 0 \\(size 1\\)$"),
    ([None, np.array([0, 0]), np.array([0, 2])],
     [None, np.array([[1.0], [-1.0]]), np.array([[1.0], [-1.0]])],
     [[[HALF]], [[np.array([1.0])], [np.array([1.0])]]],
     "^level 2: parent index 2 is not a node of level 1 \\(size 2\\)$"),
    (PAIR, PAIR_INC, [], "^level 0: members has 0 levels for a tree of depth 1$"),
    (PAIR, PAIR_INC, [[[HALF]], [[np.array([1.0])], [np.array([1.0])]]],
     "^level 1: members has 2 levels for a tree of depth 1$"),
    (PAIR, [None], [[[HALF]]], "^level 1: inc has 1 levels where parent has 2$"),
    ([None, np.array([[0, 0]])], PAIR_INC, [[[HALF]]],
     "^level 1: parent must be a 1-d integer array, not 2-d int"),
    ([None, [0.0, 0.5]], PAIR_INC, [[[HALF]]],
     "^level 1: parent must be a 1-d integer array, not 1-d float64$"),
], ids=["covering", "childless", "no_members", "length", "negative", "increments", "nan",
        "negative_parent", "parent_out_of_range", "short_members", "long_members",
        "short_inc", "parent_2d", "parent_float"])
def test_tree_validation_rejects(parent, inc, members, match):
    with pytest.raises(DomainError, match=match):
        ScenarioTree(LAT1, parent, inc, members)


# ------------------------------------------------------- shared member lists

def rebuild(tree, members):
    return ScenarioTree(tree.lattice, tree.parent, tree.inc, members)


def copied(members):
    """The same member lists with a fresh list and fresh vectors per node."""
    return [[[np.array(p, dtype=float) for p in node] for node in level]
            for level in members]


def assert_same_cond_expect(a, b):
    """Every conditional expectation of one leaf variable, bytewise."""
    assert a.depth == b.depth
    rng = np.random.default_rng(a.node_count)
    vals = rng.uniform(-2.0, 2.0, size=a.sizes[a.depth])
    for k in range(a.depth + 1):
        got = [cond_expect(t, TreeRandomVariable(t.depth, vals), k).values
               for t in (a, b)]
        assert got[0].tobytes() == got[1].tobytes()


def test_shared_member_lists_match_per_node_copies():
    """A shared list is stored once as a (1, M, c) block, equal copies once
    per node; both give the same conditional expectations byte for byte."""
    tree = iid_level_tree(B, 6)
    copies = rebuild(tree, copied(tree.members))
    assert all(len({id(node) for node in level}) == 1 for level in tree.members)
    for k in range(tree.depth):
        assert [g.probs.shape for g in tree.groups[k]] == [(1, 2, 3)]
        assert [g.probs.shape for g in copies.groups[k]] == [(3 ** k, 2, 3)]
    assert_same_cond_expect(tree, copies)


@pytest.mark.parametrize("kind", TREE_KINDS)
@pytest.mark.parametrize("seed", range(12))
def test_random_subsets_sharing_lists_match_copies(seed, kind):
    """Random subsets of same-count nodes point at one list object."""
    dim, shape = kind
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=5, max_children=4, max_members=3, dim=dim, **shape)
    shared = [list(level) for level in tree.members]
    for k, level in enumerate(shared):
        count = tree.child_count[k]
        for c in np.unique(count):
            nodes = np.flatnonzero((count == c) & (rng.random(len(level)) < 0.6))
            if nodes.size:
                for j in nodes:
                    level[j] = level[nodes[0]]
    assert_same_cond_expect(rebuild(tree, shared), rebuild(tree, copied(shared)))


def test_member_arrays_match_member_lists():
    """A level given as one (nodes, members, children) array: iterating it
    makes a fresh view per node, and no two views may count as one list."""
    tree = iid_level_tree(B, 5)
    rng = np.random.default_rng(5)
    arrays = [rng.dirichlet(np.ones(3), size=(tree.sizes[k], 2)) for k in range(tree.depth)]
    lists = [[list(node) for node in level] for level in arrays]
    assert_same_cond_expect(rebuild(tree, arrays), rebuild(tree, lists))


# Two level-1 nodes under one root; node 0 has two children, node 1 `n1`.
def shared_level_tree(bad, n1=2, share=True):
    parent = [None, np.array([0, 0]), np.array([0, 0] + [1] * n1)]
    inc = [None, np.array([[1.0], [-1.0]]), np.ones((2 + n1, 1))]
    level1 = [bad, bad] if share else [list(bad), list(bad)]
    return ScenarioTree(LAT1, parent, inc, [[[HALF]], level1])


@pytest.mark.parametrize("bad, n1, match", [
    ([np.array([np.inf, 0.5])], 2, "non-finite transition probability"),
    ([HALF, np.array([1.5, -0.5])], 2, "negative transition probability"),
    ([np.array([0.7, 0.7])], 2, "do not sum to 1"),
    ([np.array([1.0, 0.0]), np.array([1.0, 0.0])], 2, "child unreachable"),
    ([HALF], 3, "member length does not match child count"),
], ids=["nonfinite", "negative", "sum", "unreachable", "child_counts"])
def test_invalid_shared_list_rejected_as_copies_are(bad, n1, match):
    messages = []
    for share in (True, False):
        with pytest.raises(DomainError, match=match) as info:
            shared_level_tree(bad, n1, share)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("seed", range(10))
def test_child_index_arrays_int32(seed):
    tree = random_tree(np.random.default_rng(seed))
    for k in range(tree.depth):
        count = np.bincount(tree.parent[k + 1], minlength=tree.sizes[k])
        assert tree.child_count[k].dtype == tree.child_start[k].dtype == np.int32
        assert np.array_equal(tree.child_count[k], count)
        assert np.array_equal(tree.child_start[k], np.cumsum(count) - count)
        assert tree.parent[k + 1].dtype == np.int32
        assert np.array_equal(tree.parent[k + 1], np.repeat(np.arange(tree.sizes[k]), count))


def test_level_past_int32_rejected():
    """A level of 2**31 nodes is rejected by its size, before any index of
    it is read (the parent array is a stride-0 view, no memory)."""
    huge = np.broadcast_to(np.int8(0), (2 ** 31,))
    with pytest.raises(DomainError, match=r"^level 2: 2147483648 nodes exceed the int32"):
        ScenarioTree(LAT1, PAIR + [huge], [None] * 3, [[[HALF]], [[HALF], [HALF]]])


@pytest.mark.parametrize("dim", [1, 2])
def test_short_member_lists_padded_with_last_member(dim):
    """Random trees with 1-3 members per node: a node's list is padded to
    its group's member count, and the operator equals the per-node loop
    byte for byte."""
    padded = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_depth=4, max_children=4, max_members=3, dim=dim)
        for k, groups in enumerate(tree.groups):
            for g in groups:
                for row, j in zip(g.probs, g.nodes):
                    own = [np.asarray(p, dtype=float) for p in tree.members[k][j]]
                    pad = [own[-1]] * (len(row) - len(own))
                    assert np.array_equal(row, np.array(own + pad))
                    padded += len(pad) > 0
        for level in range(tree.depth, 0, -1):
            vals = rng.uniform(-2.0, 2.0, size=(tree.sizes[level], dim))
            vals[rng.random(tree.sizes[level]) < 0.3] = 0.0
            vals[rng.random(tree.sizes[level]) < 0.3] = -0.0
            got = cond_expect(tree, TreeRandomVariable(level, vals), level - 1).values
            assert got.tobytes() == per_node_step(tree, level, vals).tobytes()
    assert padded > 0


def test_padding_keeps_the_sign_of_a_zero_maximum():
    """Validation accepts a -0.0 probability, so two member means can be
    zeros of opposite sign.  np.maximum returns its second operand on such a
    tie, so padding node 0 with its member 0 would turn 0.0 into -0.0;
    padding with its last member keeps the per-node loop's 0.0."""
    parent = [None, np.array([0, 0]), np.array([0, 0, 1, 1])]
    inc = [None, np.array([[1.0], [-1.0]]), np.zeros((4, 1))]
    short = [np.array([-0.0, 1.0]), np.array([1.0, -0.0])]
    members = [[[HALF]], [short, [HALF, HALF, HALF]]]
    tree = ScenarioTree(LAT1, parent, inc, members)
    vals = np.array([0.0, -0.0, 1.0, 1.0])
    got = cond_expect(tree, TreeRandomVariable(2, vals), 1).values
    assert got.tobytes() == per_node_step(tree, 2, vals).tobytes()
    assert not np.signbit(got[0])
