"""Monotone explicit finite differences for the G-heat equation.

The forward march u <- u + (tau/2) max over theta of L_Sigma u uses the
central second difference in 1-d and, in 2-d, a sign-adapted nine-point
stencil whose off-centre weights stay nonnegative whenever every Sigma is
diagonally dominant.  A monotone consistent stable scheme converges to the
viscosity solution, so no regularity machinery is needed.  Boundary values
are frozen at the initial data; the domain is sized so that the frozen rim
only reaches the evaluation point through a Gaussian tail, and that tail
bound is part of every reported error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import evaluate
from .errors import DomainError
from .gfunc import GFunction, SigmaInterval, g_eval

MARGIN_STDS = 6.0
CFL_SAFETY = 0.9

# odd node counts per accuracy preset (coarse run; the fine run doubles)
NODES_1D = {"fast": 151, "default": 301, "fine": 601}
NODES_2D = {"fast": 81, "default": 121, "fine": 161}
NODES_FDD = {"fast": 101, "default": 201, "fine": 301}

# cells per row block of the 1-d march: a block's three operands, 768 kB,
# stay in a 2 MB L2
BLOCK_CELLS = 32_768


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid [-L, L]^d with an explicit-march time step."""

    dim: int
    half_width: float
    spacing: float
    time_step: float
    horizon: float
    sigma_sq_max: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise DomainError("grid dimension must be 1 or 2")
        for v, what in ((self.half_width, "half_width"), (self.spacing, "spacing"),
                        (self.time_step, "time_step"), (self.horizon, "horizon")):
            if not v > 0:
                raise DomainError(f"{what} must be positive")
        ratio = self.time_step * self.dim * self.sigma_sq_max / self.spacing ** 2
        if ratio > 1.0 + 1e-12:
            raise DomainError(f"CFL violated: tau*d*sigma_sq_max/h^2 = {ratio:.4f} > 1")

    @classmethod
    def build(cls, dim: int, half_width: float, spacing: float, horizon: float,
              sigma_sq_max: float) -> "Grid":
        tau_max = CFL_SAFETY * spacing ** 2 / max(dim * sigma_sq_max, 1e-300)
        steps = max(1, math.ceil(horizon / tau_max))
        return cls(dim, half_width, spacing, horizon / steps, horizon, sigma_sq_max)

    @property
    def steps(self) -> int:
        return round(self.horizon / self.time_step)

    def axis(self) -> np.ndarray:
        half_nodes = round(self.half_width / self.spacing)
        return self.spacing * np.arange(-half_nodes, half_nodes + 1, dtype=float)

    def points(self) -> np.ndarray:
        """The nodes, coordinates on the last axis: shape (N, 1) or (N, N, 2)."""
        axis = self.axis()
        if self.dim == 1:
            return axis[:, None]
        return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)

    def margin(self) -> float:
        """Half-width in units of the diffusion scale sqrt(sigma_sq_max * T)."""
        return self.half_width / math.sqrt(self.sigma_sq_max * self.horizon)


@dataclass(eq=False)
class GridFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid function has non-finite values")


@dataclass
class PdeEstimate:
    """Scalar PDE result with its internal error decomposition."""

    value: float
    error_bar: float
    coarse_value: float
    richardson_delta: float
    boundary_bound: float
    spacing: float
    time_step: float
    half_width: float
    margin: float

    def row(self) -> dict:
        return {
            "value": self.value, "error_bar": self.error_bar,
            "richardson_delta": self.richardson_delta,
            "boundary_bound": self.boundary_bound,
            "h": self.spacing, "tau": self.time_step,
            "half_width": self.half_width, "margin": self.margin,
        }


def _theta_1d_range(G: GFunction) -> tuple[float, float]:
    vals = [float(S[0, 0]) for S in G.theta]
    return min(vals), max(vals)


def _check_stencil_2d(G: GFunction, h: float, tau: float):
    for S in G.theta:
        a, b, c = float(S[0, 0]), float(S[1, 1]), float(S[0, 1])
        if abs(c) > min(a, b) + 1e-12:
            raise DomainError("non-monotone stencil; regularize Theta or rotate coordinates")
        centre = 1.0 - tau * (a + b - abs(c)) / h ** 2
        if centre < -1e-12:
            raise DomainError("non-monotone stencil; tighten the CFL ratio")


def _march_1d(u: np.ndarray, lo: float, hi: float, h: float, horizon: float,
              tau: float | None = None, snapshots: list | None = None,
              snap_every: int = 0) -> np.ndarray:
    """Explicit march along the last axis; endpoints frozen at the data.

    In 1-d the generator reduces to G(a) = hi * a+ + lo * a-, evaluated
    pointwise on the discrete second difference as max(hi * a, lo * a):
    with lo <= hi, rounding is monotone, so that is hi * a for a >= 0 and
    lo * a otherwise, signed zeros included.

    The leading axes are a batch of independent rows.  They are marched in
    blocks of about BLOCK_CELLS cells, each block taking every time step
    before the next one starts, so that its operands stay in L2; a call
    that asks for snapshots marches all rows as one block.  Each step works
    in place, in two preallocated arrays, on one contiguous run of the
    flattened block from its first to its last interior node.  The row
    ends inside that run get throw-away values from the neighbouring row
    and are restored after the update by two strided writes (a one-row
    block has none).  Every interior node reads only nodes of its own row,
    computed before the update, so it sees the same float operations in
    the same order as a whole-array step: blocking changes no bit.
    """
    if tau is None:
        tau_max = CFL_SAFETY * h ** 2 / max(hi, 1e-300)
        steps = max(1, math.ceil(horizon / tau_max))
        tau = horizon / steps
    else:
        steps = round(horizon / tau)
    u = np.array(u, dtype=float, order="C")
    n = u.shape[-1]
    rows = u.reshape(math.prod(u.shape[:-1]), n)
    flat = u.reshape(-1)
    snap = snapshots is not None and snap_every
    per_block = len(rows) if snap else max(1, BLOCK_CELLS // n)
    hh = h ** 2
    half_tau = 0.5 * tau
    size = max(min(per_block, len(rows)) * n - 2, 0)
    work, scratch = np.empty(size), np.empty(size)
    for r0 in range(0, len(rows), per_block):
        block = rows[r0:r0 + per_block]
        first = r0 * n + 1
        stop = first + max(block.size - 2, 0)
        left, mid, right = flat[first - 1:stop - 1], flat[first:stop], flat[first + 1:stop + 1]
        d2, low = work[:stop - first], scratch[:stop - first]
        ends = (block[:, 0].copy(), block[:, -1].copy()) if len(block) > 1 else None
        for m in range(steps):
            np.multiply(mid, 2.0, out=d2)
            np.subtract(right, d2, out=d2)
            np.add(d2, left, out=d2)
            np.divide(d2, hh, out=d2)
            np.multiply(d2, lo, out=low)
            np.multiply(d2, hi, out=d2)
            np.maximum(d2, low, out=d2)
            np.multiply(d2, half_tau, out=d2)
            np.add(mid, d2, out=mid)
            if ends is not None:
                block[:, 0] = ends[0]
                block[:, -1] = ends[1]
            if snap and (m + 1) % snap_every == 0:
                snapshots.append(((m + 1) * tau, u.copy()))
    return u


def _march_2d(u: np.ndarray, G: GFunction, h: float, horizon: float,
              tau: float | None = None, snapshots: list | None = None,
              snap_every: int = 0) -> np.ndarray:
    """Explicit march of the sign-adapted nine-point stencil; rim frozen.

    Per member (a, b, c) of Theta the Laplacian is
    ((a - |c|) xx + (b - |c|) yy + |c| cross) / h^2, with cross the diagonal
    second difference for c > 0 and the anti-diagonal one for c < 0; only
    the cross differences some member uses are formed.  A member with c = 0
    skips the cross term, a signed zero: that changes no value, but where a
    node is -0.0 and the winning Laplacian a signed zero (a member with
    a = b = c = 0, or subnormal products) the node's zero may change sign
    against the form that adds the term.  Each step works in
    place on one contiguous run of the flattened field, from the first to
    the last interior node, so every operand is a 1-d slice; the rim nodes
    inside that run get throw-away values and are restored after the
    update.  2 * centre is formed once per step and, after the differences,
    serves as scratch for products.  Interior nodes see the same float
    operations in the same order as the whole-array form.
    """
    if tau is None:
        tau_max = CFL_SAFETY * h ** 2 / (2.0 * G.sigma_sq_max)
        steps = max(1, math.ceil(horizon / tau_max))
        tau = horizon / steps
    else:
        steps = round(horizon / tau)
    _check_stencil_2d(G, h, tau)
    u = np.array(u, dtype=float, order="C")
    hh = h ** 2
    half_tau = 0.5 * tau
    cols = u.shape[1]
    flat = u.reshape(-1)
    first, stop = cols + 1, u.size - cols - 1

    def run(shift):
        return flat[first + shift:stop + shift]

    cen = run(0)
    # second differences, keyed by the flat shift of their neighbour pair
    diffs = {cols: np.empty(cen.shape), 1: np.empty(cen.shape)}
    members = []
    for S in G.theta:
        a, b, c = float(S[0, 0]), float(S[1, 1]), float(S[0, 1])
        cc = abs(c)
        cross = None
        if cc > 0:
            shift = cols + 1 if c > 0 else cols - 1
            cross = diffs.setdefault(shift, np.empty(cen.shape))
        members.append((a - cc, b - cc, cc, cross))
    xx, yy = diffs[cols], diffs[1]
    two = np.empty(cen.shape)
    best = np.empty(cen.shape)
    lap = np.empty(cen.shape) if len(members) > 1 else None
    rim = u[1:-1, [0, -1]]
    for m in range(steps):
        np.multiply(cen, 2.0, out=two)
        for shift, diff in diffs.items():
            np.add(run(shift), run(-shift), out=diff)
            np.subtract(diff, two, out=diff)
        tmp = two
        for i, (ax, by, cc, cross) in enumerate(members):
            dst = lap if i else best
            np.multiply(xx, ax, out=dst)
            np.multiply(yy, by, out=tmp)
            np.add(dst, tmp, out=dst)
            if cross is not None:
                np.multiply(cross, cc, out=tmp)
                np.add(dst, tmp, out=dst)
            np.divide(dst, hh, out=dst)
            if i:
                np.maximum(best, dst, out=best)
        np.multiply(best, half_tau, out=best)
        np.add(cen, best, out=cen)
        u[1:-1, [0, -1]] = rim
        if snapshots is not None and snap_every and (m + 1) % snap_every == 0:
            snapshots.append(((m + 1) * tau, u.copy()))
    return u


def solve_gheat(G: GFunction, phi, grid: Grid, snapshot_count: int = 0):
    """March the initial data to the grid horizon.

    Returns (GridFunction at time T, snapshots) where snapshots is a list of
    (time, values) pairs when snapshot_count > 0.
    """
    if G.dimension != grid.dim:
        raise DomainError("generator dimension does not match grid")
    u0 = evaluate(phi, grid.points(), what="initial data")
    snaps: list | None = [] if snapshot_count else None
    every = max(1, grid.steps // max(snapshot_count, 1)) if snapshot_count else 0
    if grid.dim == 1:
        lo, hi = _theta_1d_range(G)
        u = _march_1d(u0, lo, hi, grid.spacing, grid.horizon, tau=grid.time_step,
                      snapshots=snaps, snap_every=every)
    else:
        u = _march_2d(u0, G, grid.spacing, grid.horizon, tau=grid.time_step,
                      snapshots=snaps, snap_every=every)
    return GridFunction(grid, u), (snaps or [])


def _as_gfunction(G) -> GFunction:
    if isinstance(G, SigmaInterval):
        return GFunction.from_interval(G)
    return G


def _auto_half_width(G: GFunction, horizon: float, spread: float | None = None) -> float:
    scale = spread if spread is not None else math.sqrt(G.sigma_sq_max * horizon)
    return max(MARGIN_STDS * scale, 1e-6)


def _boundary_bound(G: GFunction, horizon: float, half_width: float,
                    data_max: float, dim: int) -> float:
    tail = math.exp(-half_width ** 2 / (2.0 * G.sigma_sq_max * horizon))
    return 2.0 * dim * tail * max(data_max, 1.0)


def _two_grid_estimate(value: float, coarse: float, tail: float, spacing: float,
                       time_step: float, half_width: float, margin: float) -> PdeEstimate:
    """The fine-grid value with its bar: twice the coarse/fine difference,
    the boundary tail bound and a floating-point floor."""
    delta = abs(value - coarse)
    bar = 2.0 * delta + tail + 1e-9 * (1.0 + abs(value))
    return PdeEstimate(value, bar, coarse, delta, tail, spacing, time_step, half_width, margin)


def _preset_nodes(table: dict, accuracy: str) -> int:
    try:
        return table[accuracy]
    except KeyError:
        raise DomainError(f"unknown accuracy {accuracy!r}; presets are "
                          + ", ".join(table)) from None


def _centre_values(G: GFunction, phis: list, half_width: float, nodes: int,
                   horizon: float):
    """March every functional on one grid; return the grid and, per
    functional, the centre value and max |u| at the horizon.  In 1-d the
    initial data are stacked into one batch and marched together."""
    dim = G.dimension
    half_nodes = (nodes - 1) // 2
    h = half_width / half_nodes
    grid = Grid.build(dim, half_width, h, horizon, G.sigma_sq_max)
    pts = grid.points()
    if dim == 1:
        lo, hi = _theta_1d_range(G)
        u0 = np.stack([evaluate(phi, pts, what="initial data") for phi in phis])
        fields = list(_march_1d(u0, lo, hi, h, horizon, tau=grid.time_step))
    else:
        fields = [_march_2d(evaluate(phi, pts, what="initial data"), G, h, horizon,
                            tau=grid.time_step) for phi in phis]
    out = []
    for u in fields:
        if not np.all(np.isfinite(u)):
            raise DomainError("grid function has non-finite values")
        out.append((float(u[(half_nodes,) * dim]), float(np.max(np.abs(u)))))
    return grid, out


def gnormal_expect(G, phi, horizon: float = 1.0, accuracy: str = "default",
                   half_width: float | None = None) -> PdeEstimate | list[PdeEstimate]:
    """Upper expectation of phi under the G-normal law, as the origin value
    of the G-heat march, with a two-grid Richardson error bar.

    The reported bar adds the coarse/fine difference, the frozen-boundary
    Gaussian tail bound, and a floating-point floor, so it brackets the true
    discretisation gap on convergent runs.

    phi may also be a sequence of functionals; the result is then a list
    with one PdeEstimate per functional, equal to what separate calls give.
    In 1-d their initial data share one march per grid.
    """
    G = _as_gfunction(G)
    if not horizon > 0:
        raise DomainError("horizon must be positive")
    nodes = _preset_nodes(NODES_1D if G.dimension == 1 else NODES_2D, accuracy)
    phis = [phi] if callable(phi) else list(phi)
    if not phis:
        return []
    L = half_width if half_width is not None else _auto_half_width(G, horizon)
    _, coarse = _centre_values(G, phis, L, nodes, horizon)
    grid, fine = _centre_values(G, phis, L, 2 * nodes - 1, horizon)
    estimates = []
    for (coarse_value, data_max), (value, data_max2) in zip(coarse, fine):
        tail = _boundary_bound(G, horizon, L, max(data_max, data_max2), G.dimension)
        estimates.append(_two_grid_estimate(value, coarse_value, tail, grid.spacing,
                                            grid.time_step, L, grid.margin()))
    return estimates[0] if callable(phi) else estimates


def gbm_fdd_expect(G, times, phi, accuracy: str = "default") -> PdeEstimate:
    """Finite-dimensional upper expectation E[phi(W_t1, ..., W_tp)], d = 1.

    Backward nesting: the last increment is integrated out by a batched
    G-heat march over horizon t_p - t_{p-1}, the result is read on the
    diagonal (the increment starts at the previous marginal), and the
    recursion continues to t_1.
    """
    G = _as_gfunction(G)
    if G.dimension != 1:
        raise DomainError("1-d only")
    times = [float(t) for t in times]
    p = len(times)
    if p == 0 or p > 3:
        raise DomainError("fdd arity cap")
    if times[0] <= 0 or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise DomainError("times must be strictly increasing and positive")

    lo, hi = _theta_1d_range(G)
    deltas = [times[0]] + [t2 - t1 for t1, t2 in zip(times, times[1:])]
    spread = math.sqrt(G.sigma_sq_max) * sum(math.sqrt(d) for d in deltas)
    L = MARGIN_STDS * spread

    def run(nodes: int) -> tuple[float, float]:
        half_nodes = (nodes - 1) // 2
        h = L / half_nodes
        axis = h * np.arange(-half_nodes, half_nodes + 1, dtype=float)
        grids = np.meshgrid(*([axis] * p), indexing="ij")
        u = evaluate(phi, *(g[..., None] for g in grids), what="initial data")
        data_max = float(np.max(np.abs(u)))
        for j in range(p - 1, 0, -1):
            u = _march_1d(u, lo, hi, h, times[j] - times[j - 1])
            u = np.einsum("...ii->...i", u)
        u = _march_1d(u, lo, hi, h, times[0])
        return float(u[(half_nodes,) * u.ndim]), data_max

    nodes = _preset_nodes(NODES_FDD, accuracy)
    if p == 3:
        nodes = (nodes // 2) | 1  # cubic state arrays; halve the resolution
    coarse, dmax1 = run(nodes)
    fine, dmax2 = run(2 * nodes - 1)
    tail = _boundary_bound(G, times[-1], L, max(dmax1, dmax2), 1)
    return _two_grid_estimate(fine, coarse, tail, L / (nodes - 1), 0.0, L,
                              L / math.sqrt(G.sigma_sq_max * times[-1]))


def gbm_quadratic_identity(G, A, t: float, accuracy: str = "fast"):
    """Compare E[<W_t A, W_t>] computed by the solver with G(A) * t."""
    G = _as_gfunction(G)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not t > 0:
        raise DomainError("t must be positive")

    if G.dimension == 1:
        phi = lambda x: float(A[0, 0]) * x * x
    else:
        phi = lambda pts: np.einsum("...i,ij,...j->...", pts, A, pts)
    est = gnormal_expect(G, phi, horizon=t, accuracy=accuracy)
    return est, g_eval(G, A) * t


def fields_rows(field: GridFunction, snapshots, final_time: float):
    """Flatten solver output to (time, coordinates, value) rows for CSV dumps."""
    axis = field.grid.axis()
    rows = []

    def emit(t, values):
        if field.grid.dim == 1:
            for x, v in zip(axis, values):
                rows.append({"time": t, "x": float(x), "y": "", "value": float(v)})
        else:
            for i, x in enumerate(axis):
                for j, y in enumerate(axis):
                    rows.append({"time": t, "x": float(x), "y": float(y),
                                 "value": float(values[i, j])})

    for t, vals in snapshots:
        emit(t, vals)
    emit(final_time, field.values)
    return rows
