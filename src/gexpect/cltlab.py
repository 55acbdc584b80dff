"""End-to-end convergence experiments.

Hypothesis checks (clipped second moments, drift sums, variance ratios,
quadratic characteristics) are computed exactly from the ambiguity sets.
Pre-limit expectations of normalised sums come from the exact lattice DP;
limit values come from the G-heat solver; reports pair the two with the
solver's internal error bar.  Convergence verdicts only describe trends over
the finite schedule, never a claimed limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ambiguity import (AmbiguitySet, TestFunction, _backward_sum, _sum_steps,
                        capacity_upper, evaluate, expect_upper, independent_sum_expect,
                        truncate)
from .errors import DomainError, ResourceCapError
from .gfunc import GFunction, g_eval
from .pde import PdeEstimate, gbm_fdd_expect, gnormal_expect
from .reporting import ExperimentReport

DEFAULT_SCHEDULE = (16, 64, 256)
GAP_CONSTANT = 0.01  # flat tolerance added to the solver error bar


def member_second_moments(X: AmbiguitySet) -> list:
    """Second-moment matrix of every member distribution."""
    out = []
    for dist in X.members:
        out.append(np.einsum("n,ni,nj->ij", dist.probs, dist.support, dist.support))
    return out


@dataclass(frozen=True, eq=False)
class ArraySpec:
    """A triangular-array experiment: base laws, row sizes, scaling rule.

    iid mode holds one law and scales row n by 1/sqrt(n); heterogeneous mode
    holds a sequence of laws on one lattice (row n uses the first n) and
    scales by the reciprocal root of the accumulated upper variance;
    tree-martingale mode holds one scenario tree per row (the row size is
    the tree depth and the scaling is already baked into the edge labels),
    so the condition statistics run through the conditional operators.
    """

    mode: str
    laws: tuple = ()
    schedule: tuple = DEFAULT_SCHEDULE
    r_target: float | None = None
    trees: tuple = ()

    def __post_init__(self):
        if self.mode not in ("iid", "heterogeneous", "tree-martingale"):
            raise DomainError(f"unknown array mode: {self.mode}")
        if self.mode == "tree-martingale":
            if len(self.trees) == 0:
                raise DomainError("tree mode needs at least one tree")
            depths = tuple(t.depth for t in self.trees)
            object.__setattr__(self, "schedule", depths)
            if any(b <= a for a, b in zip(depths, depths[1:])):
                raise DomainError("schedule must be strictly increasing")
            return
        if len(self.schedule) == 0 or any(
                b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise DomainError("schedule must be strictly increasing")
        if any(n < 1 for n in self.schedule):
            raise DomainError("row sizes must be positive")
        if self.mode == "iid" and len(self.laws) != 1:
            raise DomainError("iid mode takes exactly one law")
        if self.mode == "heterogeneous":
            if len(self.laws) < max(self.schedule):
                raise DomainError("heterogeneous mode needs a law per step")
            if any(law.dim != 1 for law in self.laws):
                raise DomainError("heterogeneous mode is 1-d")

    @property
    def dim(self) -> int:
        if self.mode == "tree-martingale":
            return self.trees[0].dim
        return self.laws[0].dim

    def row_laws(self, n: int) -> list:
        if self.mode == "tree-martingale":
            raise DomainError("tree mode has no row laws")
        if self.mode == "iid":
            return [self.laws[0]] * n
        return list(self.laws[:n])

    def upper_variances(self, n: int) -> np.ndarray:
        if self.mode == "tree-martingale":
            raise DomainError("tree mode has no row laws")
        if self.mode == "iid":
            v = expect_upper(self.laws[0], _sq_norm(self.dim))
            return np.full(n, v)
        return np.array([expect_upper(law, _sq_norm(1)) for law in self.laws[:n]])

    def lower_variances(self, n: int) -> np.ndarray:
        if self.mode == "iid":
            v = -expect_upper(self.laws[0], _neg_sq_norm(self.dim))
            return np.full(n, v)
        return np.array([-expect_upper(law, _neg_sq_norm(1)) for law in self.laws[:n]])

    def row_scale(self, n: int) -> float:
        if self.mode == "iid":
            return 1.0 / np.sqrt(n)
        total = float(self.upper_variances(n).sum())
        if total <= 0.0:
            raise DomainError("zero total variance")
        return 1.0 / np.sqrt(total)

    def induced_gfunction(self) -> GFunction:
        """Generator of the row limit: member second moments for iid rows,
        the variance-ratio interval for normalised heterogeneous rows."""
        if self.mode == "tree-martingale":
            raise DomainError("tree mode carries no canonical generator")
        if self.mode == "iid":
            return GFunction.from_matrices(member_second_moments(self.laws[0]))
        n = max(self.schedule)
        r = self.r_target
        if r is None:
            r = float(self.lower_variances(n).sum() / self.upper_variances(n).sum())
        return GFunction.from_matrices([np.array([[r]]), np.array([[1.0]])])


def _sq_norm(d: int):
    if d == 1:
        return lambda x: x * x
    return lambda z: np.sum(np.square(z), axis=-1)


def _neg_sq_norm(d: int):
    base = _sq_norm(d)
    return lambda z: -base(z)


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


def variance_time_change(spec: ArraySpec, n: int) -> CheckpointSchedule:
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


def check_lindeberg(spec: ArraySpec, eps_grid: Sequence[float]) -> SeriesReport:
    """Row sums of clipped (conditional) second moments, per (n, eps).

    Independent rows reduce to unconditional sums; tree-martingale rows run
    the conditional statistic through the tree operators.
    """
    if any(not eps > 0 for eps in eps_grid):
        raise DomainError("eps must be positive")
    rows = []
    if spec.mode == "tree-martingale":
        from .trees import MartingaleArray, lindeberg_stat

        for tree in spec.trees:
            Z = MartingaleArray(tree)
            for eps in eps_grid:
                _, value = lindeberg_stat(tree, Z, float(eps))
                rows.append({"n": tree.depth, "eps": float(eps), "value": value})
    else:
        d = spec.dim
        for n in spec.schedule:
            scale = spec.row_scale(n)
            for eps in eps_grid:
                sq = _sq_norm(d)
                f = (lambda s, e: (lambda z: np.maximum(s * s * sq(z) - e, 0.0)))(
                    scale, eps)
                if spec.mode == "iid":
                    value = n * expect_upper(spec.laws[0], f)
                else:
                    value = sum(expect_upper(law, f) for law in spec.row_laws(n))
                rows.append({"n": n, "eps": float(eps), "value": float(value)})
    trends = {}
    for eps in eps_grid:
        series = [r["value"] for r in rows if r["eps"] == float(eps)]
        trends[float(eps)] = all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
    return SeriesReport(rows, trends)


def check_p_moments(spec: ArraySpec, p: float) -> SeriesReport:
    """Row sums of p-th absolute moments of the scaled variables (p > 2)."""
    if p <= 2:
        raise DomainError("p must exceed 2")
    d = spec.dim
    sq = _sq_norm(d)
    rows = []
    for n in spec.schedule:
        scale = spec.row_scale(n)
        f = lambda z: (scale * scale * sq(z)) ** (p / 2.0)
        if spec.mode == "iid":
            value = n * expect_upper(spec.laws[0], f)
        else:
            value = sum(expect_upper(law, f) for law in spec.row_laws(n))
        rows.append({"n": n, "p": float(p), "value": float(value)})
    series = [r["value"] for r in rows]
    ok = all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
    return SeriesReport(rows, {float(p): ok})


def check_moment_conditions(spec: ArraySpec) -> SeriesReport:
    """Row drift sums |E[X]| + |conjugate E[X]| and, for heterogeneous rows,
    the running lower/upper variance ratio."""
    if spec.mode == "tree-martingale":
        from .trees import MartingaleArray, drift_stat

        rows = [{"n": tree.depth, "drift": drift_stat(tree, MartingaleArray(tree))}
                for tree in spec.trees]
        ok = all(b["drift"] <= a["drift"] + 1e-12 for a, b in zip(rows, rows[1:]))
        return SeriesReport(rows, {"drift": ok})
    d = spec.dim
    rows = []
    for n in spec.schedule:
        scale = spec.row_scale(n)
        total = 0.0
        laws = [spec.laws[0]] if spec.mode == "iid" else spec.row_laws(n)
        for law in laws:
            up = np.empty(d)
            lo = np.empty(d)
            for i in range(d):
                coord = (lambda j: (lambda z: scale * (z if d == 1 else z[..., j])))(i)
                up[i] = expect_upper(law, coord)
                lo[i] = -expect_upper(law, lambda z, c=coord: -c(z))
            total += float(np.linalg.norm(up) + np.linalg.norm(lo))
        if spec.mode == "iid":
            total *= n
        row = {"n": n, "drift": total}
        if spec.mode == "heterogeneous":
            row["ratio"] = float(spec.lower_variances(n).sum()
                                 / spec.upper_variances(n).sum())
        rows.append(row)
    drift_ok = all(b["drift"] <= a["drift"] + 1e-12 for a, b in zip(rows, rows[1:]))
    trends = {"drift": drift_ok}
    if spec.mode == "heterogeneous" and spec.r_target is not None:
        gaps = [abs(r["ratio"] - spec.r_target) for r in rows]
        trends["ratio"] = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    return SeriesReport(rows, trends)


def quadratic_series(spec: ArraySpec, A, t_grid: Sequence[float]) -> SeriesReport:
    """Partial sums of (conditional) quadratic forms up to the checkpoint
    floor(n*t), one value per (n, t); the target is G(A) * t."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    rows = []
    if spec.mode == "tree-martingale":
        from .trees import MartingaleArray, quadratic_characteristic

        for tree in spec.trees:
            Z = MartingaleArray(tree)
            for t in t_grid:
                cp = min(tree.depth, int(np.floor(tree.depth * float(t))))
                value = quadratic_characteristic(tree, Z, A, cp)
                rows.append({"n": tree.depth, "t": float(t), "value": value})
        return SeriesReport(rows, {})
    d = spec.dim
    if d == 1:
        a = float(A[0, 0])
        quad = lambda z: a * z * z
    else:
        quad = lambda z: np.einsum("...i,ij,...j->...", z, A, z)
    for n in spec.schedule:
        scale = spec.row_scale(n)
        sched = variance_time_change(spec, n)
        if spec.mode == "iid":
            per_step = [expect_upper(spec.laws[0], quad)] * n
        else:
            per_step = [expect_upper(law, quad) for law in spec.row_laws(n)]
        prefix = np.concatenate([[0.0], np.cumsum(per_step)])
        for t in t_grid:
            value = scale * scale * float(prefix[sched.tau(float(t))])
            rows.append({"n": n, "t": float(t), "value": value})
    return SeriesReport(rows, {})


def attach_condition_verdicts(report: ExperimentReport, spec: ArraySpec,
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
    if spec.mode == "heterogeneous":
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
        gaps = [abs(r["value"] - target) for r in series.rows]
        ok = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
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


def run_clt_experiment(spec: ArraySpec, functionals: Sequence[TestFunction],
                       accuracy: str = "default", gap_tolerance: float | None = None,
                       verified_moment: float = 2.0, max_nodes: int | None = None,
                       ) -> ExperimentReport:
    """Exact DP value of each row functional against its G-normal limit."""
    if spec.mode == "tree-martingale":
        raise DomainError("iid or heterogeneous mode only")
    G = spec.induced_gfunction()
    report = ExperimentReport(
        kind="clt",
        columns=("n", "functional", "prelimit", "limit", "gap", "error_bar"),
        provenance={"schedule": "/".join(str(n) for n in spec.schedule),
                    "accuracy": accuracy, "mode": spec.mode},
    )
    dp_kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
    for phi in functionals:
        _gate_growth(phi, verified_moment)
    limits = gnormal_expect(G, functionals, horizon=1.0, accuracy=accuracy)
    for phi, limit in zip(functionals, limits):
        report.provenance.setdefault("solver_h", limit.spacing)
        report.provenance.setdefault("solver_margin", limit.margin)
        gaps = []
        for n in spec.schedule:
            prelimit = independent_sum_expect(spec.row_laws(n), phi,
                                              scale=spec.row_scale(n), **dp_kwargs)
            gap = abs(prelimit - limit.value)
            gaps.append(gap)
            report.add_row(n=n, functional=phi.name or "phi", prelimit=prelimit,
                           limit=limit.value, gap=gap, error_bar=limit.error_bar)
        tol = gap_tolerance if gap_tolerance is not None else limit.error_bar + GAP_CONSTANT
        report.add_verdict(f"final_gap[{phi.name}]", gaps[-1] <= tol, gaps[-1],
                           f"tolerance {tol:.3g}")
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
    lat = laws[0].lattice
    if lat.dimension != 1:
        raise DomainError("1-d only")
    for law in laws:
        if law.lattice != lat:
            raise DomainError("laws do not share a lattice")

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


def run_fdd_experiment(spec: ArraySpec, times: Sequence[float], psi: TestFunction,
                       accuracy: str = "default", gap_tolerance: float | None = None,
                       ) -> ExperimentReport:
    """Two-checkpoint marginals of the normalised partial-sum path against
    the nested-solver value for the limit motion."""
    if len(times) != 2:
        raise DomainError("fdd arity cap")
    t1, t2 = float(times[0]), float(times[1])
    if not 0 < t1 < t2 <= 1.0:
        raise DomainError("times must satisfy 0 < t1 < t2 <= 1")
    if spec.mode == "tree-martingale":
        raise DomainError("iid or heterogeneous mode only")
    if spec.dim != 1:
        raise DomainError("1-d only")
    G = spec.induced_gfunction()
    limit = gbm_fdd_expect(G, (t1, t2), psi, accuracy=accuracy)
    report = ExperimentReport(
        kind="fdd",
        columns=("n", "functional", "t1", "t2", "prelimit", "limit", "gap", "error_bar"),
        provenance={"accuracy": accuracy, "mode": spec.mode,
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
    tol = gap_tolerance if gap_tolerance is not None else limit.error_bar + GAP_CONSTANT
    report.add_verdict(f"final_gap[{psi.name}]", gaps[-1] <= tol, gaps[-1],
                       f"tolerance {tol:.3g}")
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
        up = np.empty(d)
        lo = np.empty(d)
        for i in range(d):
            coord = (lambda j: (lambda z: z if d == 1 else z[..., j]))(i)
            up[i] = expect_upper(Xc, coord)
            lo[i] = -expect_upper(Xc, lambda z, cc=coord: -cc(z))
        rows_iii.append((float(c), float(np.linalg.norm(up) + np.linalg.norm(lo))))
        for pi, A in enumerate(probes):
            if d == 1:
                quad = (lambda a: (lambda z: a * z * z))(float(A[0, 0]))
            else:
                quad = (lambda a: (lambda z: np.einsum("...i,ij,...j->...", z, a, z)))(A)
            rows_iv.append((pi, float(c), expect_upper(Xc, quad)))

    c_max = c_schedule[-1]
    induced = GFunction.from_matrices(member_second_moments(truncated_sets[c_max]))
    stabilized = True
    if len(c_schedule) >= 2:
        c_prev = c_schedule[-2]
        for pi in range(len(probes)):
            last = [v for p, c, v in rows_iv if p == pi and c == float(c_max)][0]
            prev = [v for p, c, v in rows_iv if p == pi and c == float(c_prev)][0]
            if abs(last - prev) > 1e-12 * max(1.0, abs(last)):
                stabilized = False
    return IidConditionReport(rows_i, rows_ii, rows_iii, rows_iv, list(probes),
                              induced, stabilized)


def estimate_limit_G(spec: ArraySpec, A, c: float, n: int,
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
