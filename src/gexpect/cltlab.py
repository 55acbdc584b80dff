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

from .ambiguity import (AmbiguitySet, TestFunction, _backward_sum, _shared_lattice,
                        _sum_steps, capacity_upper, evaluate, expect_lower, expect_upper,
                        independent_sum_expect, truncate)
from .errors import DomainError, ResourceCapError
from .gfunc import GFunction, g_eval
from .pde import PdeEstimate, gbm_fdd_expect, gnormal_expect
from .reporting import ExperimentReport
from .trees import MartingaleArray, drift_stat, lindeberg_stat, quadratic_characteristic

DEFAULT_SCHEDULE = (16, 64, 256)
GAP_CONSTANT = 0.01  # flat tolerance added to the solver error bar


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
    pts = scale * law.support
    up = [expect_upper(law, pts[:, j]) for j in range(law.dim)]
    lo = [expect_lower(law, pts[:, j]) for j in range(law.dim)]
    return float(np.linalg.norm(up) + np.linalg.norm(lo))


def _interval_generator(r: float) -> GFunction:
    return GFunction.from_matrices([np.array([[r]]), np.array([[1.0]])])


def _non_increasing(series) -> bool:
    """The soft trend test: no value above the one before it by more than 1e-12."""
    return all(b <= a + 1e-12 for a, b in zip(series, series[1:]))


def _check_schedule(schedule):
    if len(schedule) == 0 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("schedule must be strictly increasing")
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
    statistics that run through its conditional operators instead.
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

    def lindeberg(self, n: int, eps_grid: Sequence[float]) -> list:
        """Row sum of E[(|scale X|^2 - eps)^+], one value per eps."""
        scale, sq = self.row_scale(n), _sq_norm(self.dim)
        return [self._run_sum(n, lambda law, e=eps: expect_upper(
                    law, lambda z: np.maximum(scale * scale * sq(z) - e, 0.0)))
                for eps in eps_grid]

    def drift(self, n: int) -> float:
        scale = self.row_scale(n)
        return self._run_sum(n, lambda law: _drift(law, scale))

    def quadratic(self, n: int, A: np.ndarray, t_grid: Sequence[float]) -> list:
        """Scaled partial sums of E[<X A, X>] up to the checkpoint tau(t)."""
        scale = self.row_scale(n)
        sched = variance_time_change(self, n)
        prefix = np.concatenate([[0.0], np.cumsum(self._per_step(n, _quad_form(A, self.dim)))])
        return [scale * scale * float(prefix[sched.tau(float(t))]) for t in t_grid]


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

    def lindeberg(self, n: int, eps_grid: Sequence[float]) -> list:
        tree, Z = self._row(n)
        return [lindeberg_stat(tree, Z, float(eps))[1] for eps in eps_grid]

    def drift(self, n: int) -> float:
        return drift_stat(*self._row(n))

    def quadratic(self, n: int, A: np.ndarray, t_grid: Sequence[float]) -> list:
        tree, Z = self._row(n)
        return [quadratic_characteristic(tree, Z, A, min(n, int(np.floor(n * float(t)))))
                for t in t_grid]


@dataclass(frozen=True, eq=False)
class CheckpointSchedule:
    """Integer step function tau on [0,1] with the identity target change.

    tau(t) is the largest k whose normalised prefix variance is <= t,
    pinned to 0 at t=0 and to the row size at t=1.
    """

    boundaries: np.ndarray  # P_0 = 0 <= ... <= P_n = 1

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b[0] != 0.0 or abs(b[-1] - 1.0) > 1e-12 or np.any(np.diff(b) < -1e-15):
            raise DomainError("boundaries must rise from 0 to 1")
        object.__setattr__(self, "boundaries", b)

    @property
    def row_size(self) -> int:
        return len(self.boundaries) - 1

    def tau(self, t: float) -> int:
        if t >= 1.0:
            return self.row_size
        if t <= 0.0:
            return 0
        return int(np.searchsorted(self.boundaries, t, side="right") - 1)


def variance_time_change(spec: Rows, n: int) -> CheckpointSchedule:
    """Checkpoints where the accumulated upper variance crosses fractions of
    the row total; the target time change is the identity."""
    sig = spec.upper_variances(n)
    total = float(sig.sum())
    if total <= 0.0:
        raise DomainError("zero total variance")
    boundaries = np.concatenate([[0.0], np.cumsum(sig) / total])
    boundaries[-1] = 1.0
    return CheckpointSchedule(boundaries)


@dataclass
class SeriesReport:
    rows: list
    trends: dict

    @property
    def all_trends_ok(self) -> bool:
        return all(self.trends.values())


def check_lindeberg(spec: Rows, eps_grid: Sequence[float]) -> SeriesReport:
    """Row sums of clipped (conditional) second moments, per (n, eps)."""
    if any(not eps > 0 for eps in eps_grid):
        raise DomainError("eps must be positive")
    rows = [{"n": n, "eps": float(eps), "value": value} for n in spec.schedule
            for eps, value in zip(eps_grid, spec.lindeberg(n, eps_grid))]
    trends = {float(eps): _non_increasing([r["value"] for r in rows if r["eps"] == float(eps)])
              for eps in eps_grid}
    return SeriesReport(rows, trends)


def check_p_moments(spec: Rows, p: float) -> SeriesReport:
    """Row sums of p-th absolute moments of the scaled variables (p > 2)."""
    if p <= 2:
        raise DomainError("p must exceed 2")
    sq = _sq_norm(spec.dim)
    rows = []
    for n in spec.schedule:
        scale = spec.row_scale(n)
        f = lambda z: (scale * scale * sq(z)) ** (p / 2.0)
        rows.append({"n": n, "p": float(p),
                     "value": spec._run_sum(n, lambda law: expect_upper(law, f))})
    return SeriesReport(rows, {float(p): _non_increasing([r["value"] for r in rows])})


def check_moment_conditions(spec: Rows) -> SeriesReport:
    """Row drift sums |E[X]| + |conjugate E[X]| and, for heterogeneous rows,
    the running lower/upper variance ratio."""
    rows = [{"n": n, "drift": spec.drift(n)} for n in spec.schedule]
    trends = {"drift": _non_increasing([r["drift"] for r in rows])}
    if isinstance(spec, HeterogeneousRows):
        for row in rows:
            row["ratio"] = spec.variance_ratio(row["n"])
        if spec.r_target is not None:
            trends["ratio"] = _non_increasing([abs(r["ratio"] - spec.r_target) for r in rows])
    return SeriesReport(rows, trends)


def quadratic_series(spec: Rows, A, t_grid: Sequence[float]) -> SeriesReport:
    """Partial sums of (conditional) quadratic forms up to the checkpoint
    floor(n*t), one value per (n, t); the target is G(A) * t."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    rows = [{"n": n, "t": float(t), "value": value} for n in spec.schedule
            for t, value in zip(t_grid, spec.quadratic(n, A, t_grid))]
    return SeriesReport(rows, {})


def attach_condition_verdicts(report: ExperimentReport, spec: Rows,
                              eps_grid: Sequence[float] = (0.1, 0.5)):
    """Soft (trend) verdicts for the limit-theorem hypotheses: clipped second
    moments falling, drift falling, quadratic characteristic approaching the
    generator value, and the variance ratio approaching its target."""
    lind = check_lindeberg(spec, eps_grid)
    for eps in eps_grid:
        series = [r["value"] for r in lind.rows if r["eps"] == float(eps)]
        report.add_verdict(f"lindeberg[eps={eps:g}]", lind.trends[float(eps)],
                           series[-1], "non-increasing row sums", hard=False)
    mom = check_moment_conditions(spec)
    report.add_verdict("drift", mom.trends["drift"], mom.rows[-1]["drift"],
                       "non-increasing row sums", hard=False)
    if isinstance(spec, HeterogeneousRows):
        target = spec.r_target
        ratio = mom.rows[-1]["ratio"]
        ok = mom.trends.get("ratio", True)
        detail = f"target {target!r}" if target is not None else "no target pinned"
        report.add_verdict("ratio_r", ok, ratio, detail, hard=False)
    G = spec.induced_gfunction()
    d = spec.dim
    probes = [np.eye(d), -np.eye(d)]
    for A, tag in zip(probes, ("plus", "minus")):
        target = g_eval(G, A)
        series = quadratic_series(spec, A, [1.0])
        ok = _non_increasing([abs(r["value"] - target) for r in series.rows])
        report.add_verdict(f"quadratic[{tag}]", ok, series.rows[-1]["value"],
                           f"target {target!r}", hard=False)


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


def _add_final_gap(report: ExperimentReport, name: str, gaps: list,
                   limit: PdeEstimate, gap_tolerance: float | None):
    tol = gap_tolerance if gap_tolerance is not None else limit.error_bar + GAP_CONSTANT
    report.add_verdict(f"final_gap[{name}]", gaps[-1] <= tol, gaps[-1],
                       f"tolerance {tol:.3g}")


def run_clt_experiment(spec: Rows, functionals: Sequence[TestFunction],
                       accuracy: str = "default", gap_tolerance: float | None = None,
                       verified_moment: float = 2.0, max_nodes: int | None = None,
                       ) -> ExperimentReport:
    """Exact DP value of each row functional against its G-normal limit."""
    G = spec.induced_gfunction()
    report = ExperimentReport(
        kind="clt",
        columns=("n", "functional", "prelimit", "limit", "gap", "error_bar"),
        provenance={"schedule": "/".join(str(n) for n in spec.schedule),
                    "accuracy": accuracy, "mode": spec.label},
    )
    dp_kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
    for phi in functionals:
        _gate_growth(phi, verified_moment)
    limits = gnormal_expect(G, functionals, horizon=1.0, accuracy=accuracy)
    scales = {n: spec.row_scale(n) for n in spec.schedule}
    for phi, limit in zip(functionals, limits):
        report.provenance.setdefault("solver_h", limit.spacing)
        report.provenance.setdefault("solver_margin", limit.margin)
        gaps = []
        for n in spec.schedule:
            prelimit = independent_sum_expect(spec.row_laws(n), phi, scale=scales[n],
                                              **dp_kwargs)
            gap = abs(prelimit - limit.value)
            gaps.append(gap)
            report.add_row(n=n, functional=phi.name or "phi", prelimit=prelimit,
                           limit=limit.value, gap=gap, error_bar=limit.error_bar)
        _add_final_gap(report, phi.name, gaps, limit, gap_tolerance)
    attach_condition_verdicts(report, spec)
    return report


def two_point_sum_expect(laws: Sequence[AmbiguitySet], k1: int, psi, scale: float,
                         max_nodes: int = 4_000_000) -> float:
    """Exact E[psi(scale * S_k1, scale * S_k2)] with k2 = len(laws).

    Between the checkpoints the state is (S_k1, S_k - S_k1).  The increment
    axis holds only the reachable band [lo_k - lo_k1, hi_k - hi_k1]; its width
    does not depend on S_k1, and at k1 it is the one column S_k = S_k1.  The
    step from k to k - 1 does size1 * width_{k-1} shift-adds per support
    point: about n^3/4 in all for iid rows on {-1, 0, 1} with k1 = n/2, where
    the whole box [lo_k, hi_k] took about 3n^3/4.  psi sees the same k2
    coordinates as on the box, and each band entry is the box entry for the
    same S_k, built by the same float operations in the same order, so the
    value is bit for bit the box DP's.
    """
    k2 = len(laws)
    if not 0 <= k1 <= k2:
        raise DomainError("checkpoint order violated")
    lat = _shared_lattice(laws)
    if lat.dimension != 1:
        raise DomainError("1-d only")

    steps = _sum_steps(laws)
    lo = [0]
    hi = [0]
    for step in steps:
        lo.append(lo[-1] + step.zmin[0])
        hi.append(hi[-1] + step.zmax[0])

    size1 = hi[k1] - lo[k1] + 1
    size2 = hi[k2] - lo[k2] + 1
    if size1 * size2 > max_nodes:
        raise ResourceCapError(
            f"augmentation blowup: {size1}x{size2} checkpoint states")
    # band[k]: number of reachable increments S_k - S_k1, for k1 <= k <= k2
    band = [h - l - size1 + 2 for l, h in zip(lo, hi)]

    def phys(level, coords):
        return scale * (level * lat.origin[0] + lat.step * coords)

    x1 = phys(k1, np.arange(lo[k1], hi[k1] + 1, dtype=float))
    x2 = phys(k2, np.arange(lo[k2], hi[k2] + 1, dtype=float))
    # row a, column j holds S_k1 = lo_k1 + a and S_k2 = lo_k2 + a + j
    X1 = np.repeat(x1[:, None], band[k2], axis=1)
    X2 = x2[np.arange(size1)[:, None] + np.arange(band[k2])]
    v = evaluate(psi, X1[..., None], X2[..., None])
    v = _backward_sum(v, [(steps[k - 1], (band[k - 1],)) for k in range(k2, k1, -1)])
    v = _backward_sum(v[:, 0], [(steps[k - 1], (hi[k - 1] - lo[k - 1] + 1,))
                                for k in range(k1, 0, -1)])
    return float(v[0])


def run_fdd_experiment(spec: Rows, times: Sequence[float], psi: TestFunction,
                       accuracy: str = "default", gap_tolerance: float | None = None,
                       ) -> ExperimentReport:
    """Two-checkpoint marginals of the normalised partial-sum path against
    the nested-solver value for the limit motion."""
    if len(times) != 2:
        raise DomainError("fdd arity cap")
    t1, t2 = float(times[0]), float(times[1])
    if not 0 < t1 < t2 <= 1.0:
        raise DomainError("times must satisfy 0 < t1 < t2 <= 1")
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
    gaps = []
    for n in spec.schedule:
        sched = variance_time_change(spec, n)
        k1, k2 = sched.tau(t1), sched.tau(t2)
        prelimit = two_point_sum_expect(spec.row_laws(n)[:k2], k1, psi,
                                        spec.row_scale(n))
        gap = abs(prelimit - limit.value)
        gaps.append(gap)
        report.add_row(n=n, functional=psi.name or "psi", t1=t1, t2=t2,
                       prelimit=prelimit, limit=limit.value, gap=gap,
                       error_bar=limit.error_bar)
    _add_final_gap(report, psi.name, gaps, limit, gap_tolerance)
    attach_condition_verdicts(report, spec)
    return report


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


def check_iid_necessary_conditions(X: AmbiguitySet, c_schedule: Sequence[float],
                                   x_schedule: Sequence[float],
                                   probes: Sequence[np.ndarray] | None = None,
                                   ) -> IidConditionReport:
    """The four one-law conditions behind the iid limit, evaluated exactly.

    (capped second moment, scaled tail capacity, truncated means, truncated
    quadratic forms along probe matrices); the generator induced by the
    largest truncation level is returned as a support-function object.
    """
    if any(b <= a for a, b in zip(c_schedule, c_schedule[1:])):
        raise DomainError("c schedule must increase")
    if any(b <= a for a, b in zip(x_schedule, x_schedule[1:])):
        raise DomainError("x schedule must increase")
    d = X.dim
    sq = _sq_norm(d)
    probes = default_probes(d) if probes is None else [np.atleast_2d(p) for p in probes]

    rows_i = [(float(c), expect_upper(X, lambda z, cc=c: np.minimum(sq(z), cc)))
              for c in c_schedule]
    rows_ii = [(float(x), x * x * capacity_upper(
        X, (lambda xx: (lambda z: float(np.sqrt(sq(z))) >= xx))(x))) for x in x_schedule]

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
    return IidConditionReport(rows_i, rows_ii, rows_iii, rows_iv, list(probes),
                              induced, stabilized)


def estimate_limit_G(spec: Rows, A, c: float, n: int,
                     max_nodes: int | None = None) -> float:
    """Truncated quadratic form of the normalised row sum: the DP estimator
    of the limit generator evaluated at the probe matrix A."""
    if not c > 0:
        raise DomainError("truncation level must be positive")
    d = spec.dim
    if d > 2:
        raise DomainError("dimension cap: d <= 2")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    scale = spec.row_scale(n)
    if d == 1:
        a = float(A[0, 0])
        g = lambda x: a * np.clip(x, -c, c) ** 2
    else:
        g = lambda pts: np.einsum("...i,ij,...j->...",
                                  np.clip(pts, -c, c), A, np.clip(pts, -c, c))
    kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
    return independent_sum_expect(spec.row_laws(n), g, scale=scale, **kwargs)
