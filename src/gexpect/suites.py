"""Seeded randomized property suites shared by the CLI and the test suite.

Each driver generates bounded random instances from one numpy Generator and
returns per-case violation rows, so a suite is reproducible from its seed
alone and its CSV is byte-stable.
"""

from __future__ import annotations

import numpy as np

from .ambiguity import (AmbiguitySet, DiscreteDistribution, LatticeSpec,
                        expect_lower, expect_upper)
from .errors import DomainError
from .gfunc import GFunction, g_law_violations, normalised
from .trees import random_tree, rosenthal_check, verify_operator_laws

AXIOM_LAWS = ("monotonicity", "constants", "subadditivity", "homogeneity", "conjugate")


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


def _law_rows(violations, laws=None):
    """(case, law, violation) rows, one per law of each case's dict of
    violations, in the order of `laws` or else sorted, and the worst."""
    rows = [(case, law, v[law]) for case, v in enumerate(violations)
            for law in laws or sorted(v)]
    return rows, max([0.0] + [row[2] for row in rows])


def axiom_suite(rng, trials: int, pairs: int):
    """Monotonicity, constant preservation, sub-additivity, positive
    homogeneity and conjugate ordering on random ambiguity sets."""
    if pairs < 1:
        raise DomainError("pairs must be >= 1")
    cases = []
    for _ in range(trials):
        X = random_ambiguity_set(rng)
        n_pts = len(X.support)
        # functionals as value vectors on X.support, drawn pair by pair
        draws = [(rng.uniform(-5.0, 5.0, size=n_pts), rng.uniform(0.0, 3.0, size=n_pts),
                  rng.uniform(-4.0, 4.0), rng.uniform(0.0, 3.0)) for _ in range(pairs)]
        f, bump, c, lam = (np.array(a) for a in zip(*draws))
        ef, eg, e_const, e_sum, e_scaled = expect_upper(X, np.stack(
            [f, f + bump, np.broadcast_to(c[:, None], f.shape), 2.0 * f + bump,
             lam[:, None] * f]))
        laws = zip(AXIOM_LAWS, (ef - eg, abs(e_const - c), e_sum - ef - eg,
                                abs(e_scaled - lam * ef), expect_lower(X, f) - ef))
        cases.append({law: max(0.0, *v.tolist()) for law, v in laws})
    return _law_rows(cases, AXIOM_LAWS)


def tree_law_suite(rng, trees: int, max_depth: int, max_children: int, max_members: int):
    cases = []
    for _ in range(trees):
        tree = random_tree(rng, max_depth=max_depth, max_children=max_children,
                           max_members=max_members)
        cases.append(verify_operator_laws(tree, rng, samples=3).violations)
    return _law_rows(cases)


def rosenthal_suite(rng, trees: int, p: float, max_depth: int):
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
    cases = []
    for _ in range(trials):
        G = random_gfunction(rng, int(rng.integers(1, 3)))
        cases.append({law: max(v, 0.0)
                      for law, v in g_law_violations(G, normalised(G), rng).items()})
    return _law_rows(cases)
