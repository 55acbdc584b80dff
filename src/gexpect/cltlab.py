"""End-to-end convergence experiments.

Hypothesis checks (clipped second moments, drift sums, variance ratios,
quadratic characteristics) are computed exactly from the ambiguity sets.
Pre-limit expectations of normalised sums come from the exact lattice DP;
limit values come from the G-heat solver; reports pair the two with the
solver's internal error bar.  Convergence verdicts only describe trends over
the finite schedule, never a claimed limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ambiguity import (DEFAULT_MAX_SUM_NODES, AmbiguitySet, TestFunction, capacity_upper,
                        expect_lower, expect_upper, independent_sum_expect, truncate,
                        two_point_sum_expect)
from .errors import DomainError
from .gfunc import GFunction, g_eval
from .pde import gbm_fdd_expect, gnormal_expect
from .reporting import ExperimentReport
from .trees import MartingaleArray, drift_stat, lindeberg_stat, quadratic_characteristic

DEFAULT_SCHEDULE = (16, 64, 256)
GAP_CONSTANT = 0.01  # flat tolerance added to the solver error bar
LINDEBERG_EPS = (0.1, 0.5)  # clip levels of the Lindeberg trends


def member_second_moments(X: AmbiguitySet) -> list:
    """Second-moment matrix of every member distribution."""
    out = []
    for dist in X.members:
        out.append(np.einsum("n,ni,nj->ij", dist.probs, dist.support, dist.support))
    return out


def _sq_norm(d: int):
    if d == 1:
        return lambda x: x * x
    return lambda z: np.sum(np.square(z), axis=-1)


def _quad_form(A: np.ndarray, d: int):
    """z -> <z A, z> on points with their coordinates on the last axis."""
    if d == 1:
        a = float(A[0, 0])
        return lambda z: a * z * z
    return lambda z: np.einsum("...i,ij,...j->...", z, A, z)


def _drift(law: AmbiguitySet, scale: float) -> float:
    """|E[scale X]| + |conjugate E[scale X]|, each a vector of coordinate means."""
    coords = scale * law.support.T
    return float(np.linalg.norm(expect_upper(law, coords))
                 + np.linalg.norm(expect_lower(law, coords)))


def _interval_generator(r: float) -> GFunction:
    return GFunction.from_matrices([np.array([[r]]), np.array([[1.0]])])


def _target_detail(target) -> str:
    return "no target pinned" if target is None else f"target {target!r}"


def _non_increasing(series) -> bool:
    """The soft trend test: no value above the one before it by more than 1e-12."""
    return all(b <= a + 1e-12 for a, b in zip(series, series[1:]))


def check_increasing(values, what: str):
    """Reject an empty or not strictly increasing sequence named `what`."""
    if len(values) == 0 or any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError(f"{what} must be strictly increasing")


def fdd_times(times: Sequence[float]) -> tuple[float, float]:
    """The two checkpoints (t1, t2) of an fdd experiment, 0 < t1 < t2 <= 1."""
    if len(times) != 2:
        raise DomainError("fdd arity cap")
    t1, t2 = float(times[0]), float(times[1])
    if not 0 < t1 < t2 <= 1.0:
        raise DomainError("times must satisfy 0 < t1 < t2 <= 1")
    return t1, t2


def _check_schedule(schedule):
    check_increasing(schedule, "schedule")
    if any(n < 1 for n in schedule):
        raise DomainError("row sizes must be positive")


class Rows:
    """A triangular array: one row for each row size n in `schedule`.

    IidRows and HeterogeneousRows give row n as (law, count) runs, count
    independent copies of law, and every law statistic here is written once
    over those runs.  By default a row is scaled by the reciprocal root of
    its accumulated upper variance and its limit generator is the matching
    variance-ratio interval; iid rows replace both.  TreeRows has no runs,
    so `runs` is where every law-only path rejects it; it replaces the three
    statistics that run through its conditional operators instead, and pins
    no target for the quadratic characteristic.
    `condition_series` lists the hypothesis trends a report prints; a row
    kind with a hypothesis of its own extends it.
    """

    label = ""  # the `mode` line of a report's provenance

    def runs(self, n: int) -> list:
        """Row n as (law, count) runs."""
        raise DomainError("iid or heterogeneous rows only")

    def row_laws(self, n: int) -> list:
        return [law for law, count in self.runs(n) for _ in range(count)]

    def _run_sum(self, n: int, stat) -> float:
        """Sum of stat(law) over the steps of row n: count * stat(law) per run."""
        return float(sum(count * stat(law) for law, count in self.runs(n)))

    def _per_step(self, n: int, f) -> np.ndarray:
        """expect_upper(law, f) at each of the n steps of row n."""
        return np.concatenate([np.full(count, expect_upper(law, f))
                               for law, count in self.runs(n)])

    def upper_variances(self, n: int) -> np.ndarray:
        return self._per_step(n, _sq_norm(self.dim))

    def lower_variances(self, n: int) -> np.ndarray:
        sq = _sq_norm(self.dim)
        return -self._per_step(n, lambda z: -sq(z))

    def variance_ratio(self, n: int) -> float:
        return float(self.lower_variances(n).sum() / self.upper_variances(n).sum())

    def row_scale(self, n: int) -> float:
        total = float(self.upper_variances(n).sum())
        if total <= 0.0:
            raise DomainError("zero total variance")
        return 1.0 / np.sqrt(total)

    def induced_gfunction(self) -> GFunction:
        """Generator of the self-normalised row limit: the interval [r, 1],
        r the lower/upper variance ratio of the longest row."""
        return _interval_generator(self.variance_ratio(max(self.schedule)))

    def lindeberg(self, n: int, eps_levels: Sequence[float]) -> list:
        """Row sum of E[(|scale X|^2 - eps)^+], one value per eps."""
        scale, sq = self.row_scale(n), _sq_norm(self.dim)
        return [self._run_sum(n, lambda law, e=eps: expect_upper(
                    law, lambda z: np.maximum(scale * scale * sq(z) - e, 0.0)))
                for eps in eps_levels]

    def p_moment(self, n: int, p: float) -> float:
        """Row sum of E[|scale X|^p], the p > 2 moment variant of Lindeberg."""
        if p <= 2:
            raise DomainError("p must exceed 2")
        scale, sq = self.row_scale(n), _sq_norm(self.dim)
        f = lambda z: (scale * scale * sq(z)) ** (p / 2.0)
        return self._run_sum(n, lambda law: expect_upper(law, f))

    def drift(self, n: int) -> float:
        scale = self.row_scale(n)
        return self._run_sum(n, lambda law: _drift(law, scale))

    def checkpoints(self, n: int, times: Sequence[float]) -> list:
        """tau(t) for each t: the largest k whose accumulated upper variance is
        at most t times the row total, pinned to 0 at t <= 0 and to n at t >= 1."""
        sig = self.upper_variances(n)
        total = float(sig.sum())
        if total <= 0.0:
            raise DomainError("zero total variance")
        boundaries = np.concatenate([[0.0], np.cumsum(sig) / total])
        boundaries[-1] = 1.0
        return [n if t >= 1.0 else 0 if t <= 0.0
                else int(np.searchsorted(boundaries, t, side="right") - 1) for t in times]

    def quadratic(self, n: int, A: np.ndarray, t_grid: Sequence[float]) -> list:
        """Scaled partial sums of E[<X A, X>] up to the checkpoint tau(t)."""
        scale = self.row_scale(n)
        prefix = np.concatenate([[0.0], np.cumsum(self._per_step(n, _quad_form(A, self.dim)))])
        return [scale * scale * float(prefix[k]) for k in self.checkpoints(n, t_grid)]

    def condition_series(self) -> list:
        """The limit-theorem hypotheses as (name, values, target, detail), one
        value per row size: Lindeberg at each eps and drift, both falling to 0,
        then the quadratic characteristic at +-I against G(+-I) (no target
        where the rows induce no G)."""
        lind = [self.lindeberg(n, LINDEBERG_EPS) for n in self.schedule]
        out = [(f"lindeberg[eps={eps:g}]", [row[i] for row in lind], 0.0,
                "non-increasing row sums") for i, eps in enumerate(LINDEBERG_EPS)]
        out.append(("drift", [self.drift(n) for n in self.schedule], 0.0,
                    "non-increasing row sums"))
        I = np.eye(self.dim)
        for A, tag, target in zip((I, -I), ("plus", "minus"), self._quadratic_targets()):
            out.append((f"quadratic[{tag}]", [self.quadratic(n, A, [1.0])[0]
                                              for n in self.schedule],
                        target, _target_detail(target)))
        return out

    def _quadratic_targets(self) -> list:
        """G(I) and G(-I) for the induced generator G."""
        G, I = self.induced_gfunction(), np.eye(self.dim)
        return [g_eval(G, I), g_eval(G, -I)]


@dataclass(frozen=True, eq=False)
class IidRows(Rows):
    """Row n holds n independent copies of one law, scaled by 1/sqrt(n)."""

    law: AmbiguitySet
    schedule: tuple = DEFAULT_SCHEDULE
    label = "iid"

    def __post_init__(self):
        if not isinstance(self.law, AmbiguitySet):
            raise DomainError("iid rows take one AmbiguitySet")
        _check_schedule(self.schedule)

    @property
    def dim(self) -> int:
        return self.law.dim

    def runs(self, n: int) -> list:
        return [(self.law, n)]

    def row_scale(self, n: int) -> float:
        return 1.0 / np.sqrt(n)

    def induced_gfunction(self) -> GFunction:
        """Generator of the row limit: the member second moments."""
        return GFunction.from_matrices(member_second_moments(self.law))


@dataclass(frozen=True, eq=False)
class HeterogeneousRows(Rows):
    """Row n holds the first n of a sequence of 1-d laws on one lattice;
    r_target, when given, pins the limit of the lower/upper variance ratio."""

    laws: tuple
    schedule: tuple = DEFAULT_SCHEDULE
    r_target: float | None = None
    label = "heterogeneous"
    dim = 1

    def __post_init__(self):
        _check_schedule(self.schedule)
        if len(self.laws) < max(self.schedule):
            raise DomainError("heterogeneous rows need a law per step")
        if any(law.dim != 1 for law in self.laws):
            raise DomainError("heterogeneous rows are 1-d")

    def runs(self, n: int) -> list:
        return [(law, 1) for law in self.laws[:n]]

    def induced_gfunction(self) -> GFunction:
        if self.r_target is None:
            return super().induced_gfunction()
        return _interval_generator(self.r_target)

    def condition_series(self) -> list:
        """The common series, with the running lower/upper variance ratio
        against r_target before the two quadratic entries."""
        out = super().condition_series()
        out[-2:-2] = [("ratio_r", [self.variance_ratio(n) for n in self.schedule],
                       self.r_target, _target_detail(self.r_target))]
        return out


@dataclass(frozen=True, eq=False)
class TreeRows(Rows):
    """Martingale-like rows, one scenario tree per row: the row size is the
    tree depth, the scaling is already baked into the edge labels, and the
    condition statistics run through the conditional operators."""

    trees: tuple
    label = "tree-martingale"

    def __post_init__(self):
        if len(self.trees) == 0:
            raise DomainError("tree rows need at least one tree")
        _check_schedule(self.schedule)

    @property
    def schedule(self) -> tuple:
        return tuple(tree.depth for tree in self.trees)

    @property
    def dim(self) -> int:
        return self.trees[0].dim

    def _row(self, n: int):
        tree = self.trees[self.schedule.index(n)]
        return tree, MartingaleArray(tree)

    def lindeberg(self, n: int, eps_levels: Sequence[float]) -> list:
        tree, Z = self._row(n)
        return [lindeberg_stat(tree, Z, float(eps))[1] for eps in eps_levels]

    def drift(self, n: int) -> float:
        return drift_stat(*self._row(n))

    def quadratic(self, n: int, A: np.ndarray, t_grid: Sequence[float]) -> list:
        tree, Z = self._row(n)
        return [quadratic_characteristic(tree, Z, A, min(n, int(np.floor(n * float(t)))))
                for t in t_grid]

    def _quadratic_targets(self) -> list:
        """None and None: the rows carry no law to induce a generator from."""
        return [None, None]


def attach_condition_verdicts(report: ExperimentReport, spec: Rows):
    """Soft (trend) verdicts for the limit-theorem hypotheses: a series is a
    TREND while its distance to the target does not grow, and always when no
    target is pinned; the statistic is its value at the longest row."""
    for name, values, target, detail in spec.condition_series():
        ok = target is None or _non_increasing([abs(v - target) for v in values])
        report.add_verdict(name, ok, values[-1], detail, hard=False)


def _gate_growth(phi: TestFunction, verified_moment: float):
    if phi.growth == "bounded":
        return
    if phi.growth == "quadratic":
        if verified_moment < 2.0:
            raise DomainError("quadratic functional needs a verified second moment")
        return
    if phi.growth == "power":
        if phi.exponent is None or phi.exponent > verified_moment + 1e-12:
            raise DomainError("functional growth exceeds verified moment order")
        return
    raise DomainError(f"unknown growth tag: {phi.growth}")


def _run_schedule(report: ExperimentReport, spec: Rows, cases,
                  gap_tolerance: float | None, **cells) -> ExperimentReport:
    """For each (name, limit, prelimit) case, one row per row size n with the
    gap between prelimit(n) and the limit, then the case's final-gap verdict;
    then the condition verdicts of spec.  `cells` fill the remaining columns."""
    for name, limit, prelimit in cases:
        for n in spec.schedule:
            value = prelimit(n)
            gap = abs(value - limit.value)
            report.add_row(n=n, functional=name, prelimit=value, limit=limit.value,
                           gap=gap, error_bar=limit.error_bar, **cells)
        tol = gap_tolerance if gap_tolerance is not None else limit.error_bar + GAP_CONSTANT
        report.add_verdict(f"final_gap[{name}]", gap <= tol, gap, f"tolerance {tol:.3g}")
    attach_condition_verdicts(report, spec)
    return report


def run_clt_experiment(spec: Rows, functionals: Sequence[TestFunction],
                       accuracy: str = "default", gap_tolerance: float | None = None,
                       verified_moment: float = 2.0,
                       max_nodes: int = DEFAULT_MAX_SUM_NODES) -> ExperimentReport:
    """Exact DP value of each row functional against its G-normal limit."""
    G = spec.induced_gfunction()
    provenance = {"schedule": "/".join(str(n) for n in spec.schedule),
                  "accuracy": accuracy, "mode": spec.label}
    for phi in functionals:
        _gate_growth(phi, verified_moment)
    limits = gnormal_expect(G, functionals, horizon=1.0, accuracy=accuracy)
    if limits:
        provenance.update(solver_h=limits[0].spacing, solver_margin=limits[0].margin)
    scales = {n: spec.row_scale(n) for n in spec.schedule}
    cases = [(phi.name or "phi", limit,
              lambda n, phi=phi: independent_sum_expect(spec.row_laws(n), phi,
                                                        scale=scales[n], max_nodes=max_nodes))
             for phi, limit in zip(functionals, limits)]
    report = ExperimentReport(
        kind="clt", columns=("n", "functional", "prelimit", "limit", "gap", "error_bar"),
        provenance=provenance)
    return _run_schedule(report, spec, cases, gap_tolerance)


def run_fdd_experiment(spec: Rows, times: Sequence[float], psi: TestFunction,
                       accuracy: str = "default", gap_tolerance: float | None = None,
                       ) -> ExperimentReport:
    """Two-checkpoint marginals of the normalised partial-sum path against
    the nested-solver value for the limit motion."""
    t1, t2 = fdd_times(times)
    if spec.dim != 1:
        raise DomainError("1-d only")
    G = spec.induced_gfunction()
    limit = gbm_fdd_expect(G, (t1, t2), psi, accuracy=accuracy)
    report = ExperimentReport(
        kind="fdd",
        columns=("n", "functional", "t1", "t2", "prelimit", "limit", "gap", "error_bar"),
        provenance={"accuracy": accuracy, "mode": spec.label,
                    "solver_h": limit.spacing, "solver_margin": limit.margin},
    )

    def prelimit(n: int) -> float:
        k1, k2 = spec.checkpoints(n, (t1, t2))
        return two_point_sum_expect(spec.row_laws(n)[:k2], k1, psi, spec.row_scale(n))

    return _run_schedule(report, spec, [(psi.name or "psi", limit, prelimit)],
                         gap_tolerance, t1=t1, t2=t2)


def default_probes(d: int) -> list:
    if d == 1:
        return [np.array([[1.0]]), np.array([[-1.0]])]
    return [np.eye(2), -np.eye(2), np.diag([1.0, -1.0]),
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 0.0])]


@dataclass
class IidConditionReport:
    rows_second_moment: list
    rows_tail: list
    rows_trunc_mean: list
    rows_quadratic: list
    probes: list
    induced: GFunction
    stabilized: bool
    second_moment_gap: float
    second_moment_stabilized: bool


def check_iid_necessary_conditions(X: AmbiguitySet, c_schedule: Sequence[float],
                                   x_schedule: Sequence[float]) -> IidConditionReport:
    """The four one-law conditions behind the iid limit, evaluated exactly.

    (capped second moment, scaled tail capacity, truncated means, truncated
    quadratic forms along the default probe matrices); the generator induced
    by the largest truncation level is returned as a support-function object.
    """
    check_increasing(c_schedule, "c_schedule")
    check_increasing(x_schedule, "x_schedule")
    if not np.all(np.isfinite(x_schedule)):  # x^2 * capacity(|X| >= x) must be a number
        raise DomainError("tail level must be finite")
    d = X.dim
    sq = _sq_norm(d)
    probes = default_probes(d)

    rows_i = [(float(c), expect_upper(X, lambda z, cc=c: np.minimum(sq(z), cc)))
              for c in c_schedule]
    rows_ii = [(float(x), x * x * capacity_upper(X, lambda z, xx=x: np.sqrt(sq(z)) >= xx))
               for x in x_schedule]

    rows_iii = []
    rows_iv = []
    truncated_sets = {}
    for c in c_schedule:
        Xc = truncate(X, c)
        truncated_sets[c] = Xc
        rows_iii.append((float(c), _drift(Xc, 1.0)))
        for pi, A in enumerate(probes):
            rows_iv.append((pi, float(c), expect_upper(Xc, _quad_form(A, d))))

    induced = GFunction.from_matrices(member_second_moments(truncated_sets[c_schedule[-1]]))
    # rows_iv runs level by level: its last two blocks are the two largest levels
    k = len(probes)
    last, prev = [v for *_, v in rows_iv[-k:]], [v for *_, v in rows_iv[-2 * k:-k]]
    stabilized = all(abs(a - b) <= 1e-12 * max(1.0, abs(a)) for a, b in zip(last, prev))
    moment_gap = abs(rows_i[-1][1] - rows_i[-2][1]) if len(rows_i) > 1 else 0.0
    return IidConditionReport(rows_i, rows_ii, rows_iii, rows_iv, probes,
                              induced, stabilized, moment_gap, moment_gap <= 1e-12)


def estimate_limit_G(spec: Rows, A, c: float, n: int) -> float:
    """Truncated quadratic form of the normalised row sum: the DP estimator
    of the limit generator evaluated at the probe matrix A."""
    if not c > 0:
        raise DomainError("truncation level must be positive")
    d = spec.dim
    if d > 2:
        raise DomainError("dimension cap: d <= 2")
    q = _quad_form(np.atleast_2d(np.asarray(A, dtype=float)), d)
    return independent_sum_expect(spec.row_laws(n), lambda z: q(np.clip(z, -c, c)),
                                  scale=spec.row_scale(n))
