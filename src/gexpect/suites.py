"""Seeded randomized property suites shared by the CLI and the test suite.

Each driver generates bounded random instances from one numpy Generator and
returns per-case violation rows, so a suite is reproducible from its seed
alone and its CSV is byte-stable.
"""

from __future__ import annotations

import numpy as np

from .ambiguity import (AmbiguitySet, DiscreteDistribution, LatticeSpec,
                        expect_lower, expect_upper)
from .gfunc import GFunction, g_law_violations, normalised
from .trees import random_tree, rosenthal_check, verify_operator_laws

AXIOM_LAWS = ("monotonicity", "constants", "subadditivity", "homogeneity", "conjugate")
# g_law_violations keys -> g-laws CSV law names
G_LAW_NAMES = {"subadditive": "subadditivity", "homogeneous": "homogeneity"}


def random_ambiguity_set(rng, max_dim: int = 2, max_members: int = 4,
                         max_points: int = 6) -> AmbiguitySet:
    d = int(rng.integers(1, max_dim + 1))
    step = float(rng.choice([0.25, 0.5, 1.0]))
    origin = tuple(float(v) for v in rng.integers(-2, 3, size=d) * step)
    lattice = LatticeSpec(d, step, origin)
    n_points = int(rng.integers(2, max_points + 1))
    coords = set()
    while len(coords) < n_points:
        coords.add(tuple(int(v) for v in rng.integers(-3, 4, size=d)))
    coords = np.array(sorted(coords))
    support = lattice.to_physical(coords)
    members = []
    for _ in range(int(rng.integers(1, max_members + 1))):
        members.append(DiscreteDistribution(support, rng.dirichlet(np.ones(n_points))))
    return AmbiguitySet(lattice, members)


def axiom_suite(rng, trials: int, pairs: int):
    """Monotonicity, constant preservation, sub-additivity, positive
    homogeneity and conjugate ordering on random ambiguity sets."""
    rows = []
    worst_overall = 0.0
    for case in range(trials):
        X = random_ambiguity_set(rng)
        n_pts = len(X.support)
        worst = dict.fromkeys(AXIOM_LAWS, 0.0)
        for _ in range(pairs):
            # functionals as value vectors on X.support
            f = rng.uniform(-5.0, 5.0, size=n_pts)
            bump = rng.uniform(0.0, 3.0, size=n_pts)
            c = float(rng.uniform(-4.0, 4.0))
            lam = float(rng.uniform(0.0, 3.0))
            g = f + bump
            f_plus_g = 2.0 * f + bump
            f_scaled = lam * f
            f_const = np.full(n_pts, c)
            ef, eg = expect_upper(X, f), expect_upper(X, g)
            worst["monotonicity"] = max(worst["monotonicity"], ef - eg)
            worst["constants"] = max(worst["constants"],
                                     abs(expect_upper(X, f_const) - c))
            worst["subadditivity"] = max(worst["subadditivity"],
                                         expect_upper(X, f_plus_g) - ef - eg)
            worst["homogeneity"] = max(worst["homogeneity"],
                                       abs(expect_upper(X, f_scaled) - lam * ef))
            worst["conjugate"] = max(worst["conjugate"], expect_lower(X, f) - ef)
        for law in AXIOM_LAWS:
            rows.append({"case": case, "law": law, "violation": worst[law]})
            worst_overall = max(worst_overall, worst[law])
    return rows, worst_overall


def tree_law_suite(rng, trees: int, max_depth: int = 6, max_children: int = 4,
                   max_members: int = 3):
    rows = []
    worst_overall = 0.0
    for case in range(trees):
        tree = random_tree(rng, max_depth=max_depth, max_children=max_children,
                           max_members=max_members)
        report = verify_operator_laws(tree, rng, samples=3)
        for law, violation in sorted(report.violations.items()):
            rows.append({"tree": case, "law": law, "violation": violation})
            worst_overall = max(worst_overall, violation)
    return rows, worst_overall


def rosenthal_suite(rng, trees: int, p: float = 2.0, max_depth: int = 5):
    rows = []
    failures = 0
    worst_ratio = 0.0
    for case in range(trees):
        tree = random_tree(rng, max_depth=max_depth, max_children=3, max_members=3,
                           nonpositive_mean=True)
        rep = rosenthal_check(tree, p=p)
        rows.append({"tree": case, "first_lhs": rep.first_lhs,
                     "first_rhs": rep.first_rhs, "first_pass": rep.first_pass,
                     "second_lhs": rep.second_lhs, "second_ratio": rep.second_ratio})
        if not rep.first_pass:
            failures += 1
        if not np.isfinite(rep.second_ratio):
            failures += 1
        worst_ratio = float(np.maximum(worst_ratio, rep.second_ratio))  # NaN propagates
    return rows, failures, worst_ratio


def random_gfunction(rng, d: int, max_members: int = 3) -> GFunction:
    mats = []
    for _ in range(int(rng.integers(1, max_members + 1))):
        B = rng.normal(size=(d, d))
        mats.append(B @ B.T)
    return GFunction(d, tuple(mats))


def g_law_suite(rng, trials: int):
    """Per sampled pair of symmetric matrices: sub-additivity, homogeneity,
    PSD-order monotonicity, and the normalised entrywise Lipschitz bound."""
    rows = []
    worst_overall = 0.0
    for case in range(trials):
        d = int(rng.integers(1, 3))
        G = random_gfunction(rng, d)
        violations = {G_LAW_NAMES.get(law, law): max(v, 0.0)
                      for law, v in g_law_violations(G, normalised(G), rng).items()}
        for law in sorted(violations):
            rows.append({"case": case, "law": law, "violation": violations[law]})
            worst_overall = max(worst_overall, violations[law])
    return rows, worst_overall
