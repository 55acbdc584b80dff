"""Monotone explicit finite differences for the G-heat equation.

The forward march u <- u + max over theta of sum_v w_v D_v u, D_v the second
difference along stencil direction v and w_v = tau sigma_v^2 / (2 h^2) worked
out once per march, uses the central second difference in 1-d and, in 2-d, a
sign-adapted nine-point stencil whose weights stay nonnegative whenever every
Sigma is diagonally dominant.  A monotone consistent stable scheme converges
to the viscosity solution, so no regularity machinery is needed.  Boundary
values are frozen at the initial data; the domain is sized so that the frozen
rim only reaches the evaluation point through a Gaussian tail, and that tail
bound is part of every reported error bar.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import BLOCK_CELLS, _aligned, evaluate
from .errors import DomainError
from .gfunc import GFunction, SigmaInterval, _check_symmetric, g_eval

MARGIN_STDS = 6.0
CFL_SAFETY = 0.9

# odd node counts per accuracy preset (coarse run; the fine run doubles)
NODES_1D = {"fast": 151, "default": 301, "fine": 601}
NODES_2D = {"fast": 81, "default": 121, "fine": 161}
NODES_FDD = {"fast": 101, "default": 201, "fine": 301}



def _operands(*values: float) -> list:
    """Each value as a 0-d float64 array: the operand form of the march loops."""
    return [np.array(value, dtype=float) for value in values]


def _aligned_copy(u) -> np.ndarray:
    """u as a new C-order float64 array that starts on a cache line."""
    out = _aligned(np.shape(u))
    out[...] = u
    return out


def _square(value: float, what: str) -> float:
    """value ** 2, rejected by name where a finite value's square overflows."""
    try:
        return value ** 2
    except OverflowError:
        raise DomainError(f"{what} is too large: its square overflows") from None


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
        for what in ("half_width", "spacing", "horizon", "time_step"):
            if not 0 < getattr(self, what) < math.inf:
                raise DomainError(f"{what} must be positive and finite")
        if not 0 <= self.sigma_sq_max < math.inf:
            raise DomainError("sigma_sq_max must be nonnegative and finite")
        ratio = self.time_step * self.dim * self.sigma_sq_max / _square(self.spacing, "spacing")
        if ratio > 1.0 + 1e-12:
            raise DomainError(f"CFL violated: tau*d*sigma_sq_max/h^2 = {ratio:.4f} > 1")

    @classmethod
    def build(cls, dim: int, half_width: float, spacing: float, horizon: float,
              sigma_sq_max: float) -> "Grid":
        """The grid marched in the fewest equal steps within CFL_SAFETY of the
        CFL bound: the one place that picks a march's (tau, steps)."""
        tau_max = CFL_SAFETY * _square(spacing, "spacing") / max(dim * sigma_sq_max, 1e-300)
        steps = horizon / tau_max if tau_max > 0 else math.inf
        # an infinite or NaN count comes from a field that __post_init__ names
        steps = max(1, math.ceil(steps)) if math.isfinite(steps) else 1
        return cls(dim, half_width, spacing, horizon / steps, horizon, sigma_sq_max)

    @property
    def steps(self) -> int:
        return round(self.horizon / self.time_step)

    @property
    def half_nodes(self) -> int:
        return round(self.half_width / self.spacing)

    def axis(self) -> np.ndarray:
        return self.spacing * np.arange(-self.half_nodes, self.half_nodes + 1, dtype=float)

    def points(self) -> np.ndarray:
        """The nodes, coordinates on the last axis: shape (N, 1) or (N, N, 2)."""
        axis = self.axis()
        if self.dim == 1:
            return axis[:, None]
        return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)


@dataclass
class PdeEstimate:
    """Scalar PDE result with its internal error decomposition."""

    value: float
    error_bar: float
    coarse_value: float
    richardson_delta: float
    boundary_bound: float
    spacing: float
    half_width: float
    margin: float


def _theta_1d_range(G: GFunction) -> tuple[float, float]:
    vals = [float(S[0, 0]) for S in G.theta]
    return min(vals), max(vals)


def _check_stencil_2d(G: GFunction, h: float, tau: float) -> list:
    """Each Theta member's weights ((a - |c|) k, (b - |c|) k, |c| k), k =
    tau / (2 h^2), and its c, checked monotone: the centre weight 1 - 2
    (their sum) is judged from the floats that _march_2d then steps with."""
    kappa = 0.5 * tau / h ** 2
    members = []
    for S in G.theta:
        a, b, c = float(S[0, 0]), float(S[1, 1]), float(S[0, 1])
        cc = abs(c)
        if cc > min(a, b) + 1e-12:
            raise DomainError("non-monotone stencil: every Theta member needs "
                              "|c| <= min(a, b)")
        weights = ((a - cc) * kappa, (b - cc) * kappa, cc * kappa)
        if 1.0 - 2.0 * sum(weights) < -1e-12:
            raise DomainError("non-monotone stencil; tighten the CFL ratio")
        members.append((*weights, c))
    return members


def _march_1d(u: np.ndarray, lo: float, hi: float, h: float, tau: float,
              steps: int) -> np.ndarray:
    """Explicit march along the last axis; endpoints frozen at the data.

    In 1-d the generator reduces to G(a) = hi * a+ + lo * a-.  A step adds
    max(lo k * y, hi k * y) to each node, y = (right - 2 mid) + left and k =
    tau / (2 h^2), so no step divides.  With lo <= hi, rounding is monotone,
    so that is hi k * y for y >= 0 and lo k * y otherwise, signed zeros
    included.

    The leading axes are a batch of independent rows.  They are marched in
    blocks of about BLOCK_CELLS cells, each block taking every time step
    before the next one starts, so that its operands stay in L2.  Each step
    works in place, in two preallocated arrays, on one contiguous run of the
    flattened block from its first to its last interior node.  The field
    copy and both arrays start on a cache line (ambiguity._aligned), for
    the reason given at BLOCK_CELLS.  The row ends inside that run get
    throw-away values from the neighbouring row and are restored after the
    update by two strided writes (a one-row block has none).  Every
    interior node reads only nodes of its own row, computed before the
    update, so it sees the same float operations in the same order as a
    whole-array step: blocking changes no bit.

    Operand rule: every scalar operand (2 and the two weights) is made a
    0-d float64 array once per call, and every ufunc but np.maximum takes
    `out` positionally.  At these row lengths numpy's fixed cost per call
    outweighs the arithmetic, and a Python float costs each call a scalar
    conversion that a 0-d array does not; both run the same float64 loop,
    so the values are the same bits.  numpy 2.4 deprecates a third
    positional argument to np.maximum, so it keeps `out=`.
    """
    u = _aligned_copy(u)
    n = u.shape[-1]
    rows = u.reshape(math.prod(u.shape[:-1]), n)
    flat = u.reshape(-1)
    per_block = max(1, BLOCK_CELLS // n)
    kappa = 0.5 * tau / h ** 2
    two, lo, hi = _operands(2.0, lo * kappa, hi * kappa)
    size = max(min(per_block, len(rows)) * n - 2, 0)
    work, scratch = _aligned(size), _aligned(size)
    for r0 in range(0, len(rows), per_block):
        block = rows[r0:r0 + per_block]
        first = r0 * n + 1
        stop = first + max(block.size - 2, 0)
        left, mid, right = flat[first - 1:stop - 1], flat[first:stop], flat[first + 1:stop + 1]
        d2, low = work[:stop - first], scratch[:stop - first]
        # (row-end column, its saved values) pairs; a one-row block has none
        ends = [(col, col.copy()) for col in (block[:, 0], block[:, -1])] if len(block) > 1 else []
        for _ in range(steps):
            np.multiply(mid, two, d2)
            np.subtract(right, d2, d2)
            np.add(d2, left, d2)
            np.multiply(d2, lo, low)
            np.multiply(d2, hi, d2)
            np.maximum(d2, low, out=d2)
            np.add(mid, d2, mid)
            for col, saved in ends:
                col[...] = saved
    return u


def _march_2d(u: np.ndarray, G: GFunction, h: float, tau: float,
              steps: int) -> np.ndarray:
    """Explicit march of the sign-adapted nine-point stencil; rim frozen.

    Per member (a, b, c) of Theta a step adds w_xx xx + w_yy yy + w_c cross,
    the weights those of _check_stencil_2d and cross the diagonal second
    difference for c > 0 and the anti-diagonal one for c < 0; only the
    cross differences some member uses are formed.  A member with c = 0
    skips the cross term, a signed zero: that changes no value, but where a
    node is -0.0 and the winning sum a signed zero (a member with a = b =
    c = 0, or subnormal products) the node's zero may change sign against
    the form that adds the term.

    The field lives in two buffers: each step reads one and writes the next
    field into the other.  Both, and every scratch array below, start on a
    cache line (ambiguity._aligned), for the reason given at BLOCK_CELLS.
    A step works in tiles of max(1, BLOCK_CELLS // cols) interior rows, so
    that a tile's scratch stays in L2.  A tile is one contiguous run of the
    flattened field, from its first to its last interior node, so every
    operand is a 1-d slice.  It forms its differences and member sums in
    scratch of tile size, writes centre +
    best, the member maximum, into the other buffer, and restores the rim
    nodes inside its run, which got throw-away values, from a saved copy.
    2 * centre is formed once per tile and, after the differences, serves
    as scratch for products; the last member works in place in xx and yy.
    Every interior node reads only the buffer of the step before, so the
    tiling changes no bit: interior nodes see the float operations of the
    whole-array form in the same order.

    The operand rule of _march_1d holds for 2 and each member's weights.
    """
    weights = _check_stencil_2d(G, h, tau)
    u = _aligned_copy(u)
    [two] = _operands(2.0)
    rows, cols = u.shape
    per_tile = max(1, BLOCK_CELLS // cols)
    size = max(min(per_tile, rows - 2) * cols - 2, 0)
    # second differences, keyed by the flat shift of their neighbour pair
    diffs = {cols: _aligned(size), 1: _aligned(size)}
    members = []
    for wxx, wyy, wc, c in weights:
        cross = None
        if c != 0:
            shift = cols + 1 if c > 0 else cols - 1
            if shift not in diffs:
                diffs[shift] = _aligned(size)
            cross = diffs[shift]
        members.append((*_operands(wxx, wyy, wc), cross))
    last = len(members) - 1
    twice = _aligned(size)
    best = _aligned(size) if last > 0 else None
    lap = _aligned(size) if last > 1 else None
    bufs = (u, _aligned_copy(u))
    ends = (u[:, 0].copy(), u[:, -1].copy())
    tiles = []
    for r0 in range(1, rows - 1, per_tile):
        r1 = min(r0 + per_tile, rows - 1)
        first, stop = r0 * cols + 1, r1 * cols - 1

        def cut(a, n=max(stop - first, 0)):
            return None if a is None else a[:n]

        tiles.append((r0, r1, first, stop, cut(twice), cut(best), cut(lap),
                      [(shift, cut(diff)) for shift, diff in diffs.items()],
                      cut(diffs[cols]), cut(diffs[1]),
                      [(*w, cut(cross)) for *w, cross in members]))
    for k in range(steps):
        src, dst = bufs[k % 2], bufs[1 - k % 2]
        flat = src.reshape(-1)
        for r0, r1, first, stop, twice, best, lap, tile_diffs, xx, yy, tile_members in tiles:
            cen = flat[first:stop]
            np.multiply(cen, two, twice)
            for shift, diff in tile_diffs:
                np.add(flat[first + shift:stop + shift], flat[first - shift:stop - shift], diff)
                np.subtract(diff, twice, diff)
            # member sums; the last works in place in xx and yy
            for i, (wxx, wyy, wc, cross) in enumerate(tile_members):
                num, tmp = (xx, yy) if i == last else (lap if i else best, twice)
                np.multiply(xx, wxx, num)
                np.multiply(yy, wyy, tmp)
                np.add(num, tmp, num)
                if cross is not None:
                    np.multiply(cross, wc, tmp)
                    np.add(num, tmp, num)
                if i:
                    np.maximum(best, num, out=best)
            np.add(cen, best if last else xx, dst.reshape(-1)[first:stop])
            dst[r0 + 1:r1, 0] = ends[0][r0 + 1:r1]
            dst[r0:r1 - 1, -1] = ends[1][r0:r1 - 1]
    return bufs[steps % 2]


def _march(G: GFunction, grid: Grid, u: np.ndarray, steps: int) -> np.ndarray:
    """March the last grid.dim axes of u `steps` time steps of the grid.

    Any leading axes are a batch of independent fields.  In 1-d they are
    marched together by _march_1d; in 2-d each field is marched by
    _march_2d, a batch field by field back into its slot of u, so that no
    second batch exists.  Otherwise the result is a new array.  The one
    check of a marched field: it must be finite.
    """
    h, tau = grid.spacing, grid.time_step
    if grid.dim == 1:
        u = _march_1d(u, *_theta_1d_range(G), h, tau, steps)
    elif u.ndim == 2:
        u = _march_2d(u, G, h, tau, steps)
    else:
        for field in u.reshape(-1, *u.shape[-2:]):
            field[...] = _march_2d(field, G, h, tau, steps)
    if not np.all(np.isfinite(u)):
        raise DomainError("grid function has non-finite values")
    return u


def solve_gheat(G: GFunction, phi, grid: Grid, snapshot_count: int = 0):
    """March the initial data to the grid horizon.

    Returns (the field at the horizon, snapshots): min(snapshot_count,
    steps - 1) (time, values) pairs, one every max(1, steps //
    (snapshot_count + 1)) steps, all before the horizon.  The march resumes
    from each snapshot; a step reads only the values of the step before, so
    the field is the same, bit for bit, as one uninterrupted march.
    """
    if G.dimension != grid.dim:
        raise DomainError("generator dimension does not match grid")
    if snapshot_count < 0:
        raise DomainError("snapshot_count must be >= 0")
    u = evaluate(phi, grid.points(), what="initial data")
    every = max(1, grid.steps // (snapshot_count + 1))
    snaps = []
    for k in range(1, min(snapshot_count, grid.steps - 1) + 1):
        u = _march(G, grid, u, every)
        snaps.append((k * every * grid.time_step, u))
    u = _march(G, grid, u, grid.steps - len(snaps) * every)
    return u, snaps


def as_gfunction(G) -> GFunction:
    """G as a GFunction with positive upper variance, as every march needs."""
    if isinstance(G, SigmaInterval):
        G = GFunction.from_interval(G)
    if G.sigma_sq_max == 0:
        raise DomainError("upper variance is zero: the G-heat equation has no diffusion")
    return G


def _auto_half_width(G: GFunction, horizon: float) -> float:
    return max(MARGIN_STDS * math.sqrt(G.sigma_sq_max * horizon), 1e-6)


def _boundary_bound(G: GFunction, horizon: float, half_width: float,
                    data_max: float, dim: int) -> float:
    tail = math.exp(-_square(half_width, "half_width") / (2.0 * G.sigma_sq_max * horizon))
    return 2.0 * dim * tail * max(data_max, 1.0)


def _preset_nodes(table: dict, accuracy: str) -> int:
    try:
        return table[accuracy]
    except KeyError:
        raise DomainError(f"unknown accuracy {accuracy!r}; presets are "
                          + ", ".join(table)) from None


def _two_grid(G: GFunction, horizon: float, half_width: float, nodes: int,
              march, stages) -> list[PdeEstimate]:
    """Richardson estimates from a coarse and a fine run of `march`.

    march(grid) runs on the grid [-half_width, half_width]^d to the horizon
    with `nodes` nodes per axis, then on the one with 2 * nodes - 1; it
    returns, per functional, the centre value and max |initial data| on the
    grid, the bound on |data| that the tail bound scales.  Each estimate
    is the fine value with its bar: twice the coarse/fine difference, one
    frozen-boundary Gaussian tail bound per (horizon, half-width) in
    `stages` (monotone stages that preserve constants add their rim errors)
    and a floating-point floor; its margin is the fewest diffusion scales
    sqrt(sigma_sq_max * horizon) that a stage keeps to its rim."""
    coarse_grid, grid = (Grid.build(G.dimension, half_width, half_width / ((count - 1) // 2),
                                    horizon, G.sigma_sq_max) for count in (nodes, 2 * nodes - 1))
    coarse, fine = march(coarse_grid), march(grid)
    margin = min(width / math.sqrt(G.sigma_sq_max * t) for t, width in stages)
    estimates = []
    for (coarse_value, data_max), (value, data_max2) in zip(coarse, fine):
        tail = sum(_boundary_bound(G, t, width, max(data_max, data_max2), G.dimension)
                   for t, width in stages)
        delta = abs(value - coarse_value)
        bar = 2.0 * delta + tail + 1e-9 * (1.0 + abs(value))
        estimates.append(PdeEstimate(value, bar, coarse_value, delta, tail, grid.spacing,
                                     half_width, margin))
    return estimates


def gnormal_expect(G, phi, horizon: float = 1.0,
                   accuracy: str = "default") -> PdeEstimate | list[PdeEstimate]:
    """Upper expectation of phi under the G-normal law, as the origin value
    of the G-heat march, with a two-grid Richardson error bar.

    The reported bar adds twice the coarse/fine difference, the
    frozen-boundary Gaussian tail bound, and a floating-point floor.  It can
    miss the true discretisation gap where a kink of phi falls between nodes
    (ROADMAP item 1 tabulates such misses).

    phi may also be a sequence of functionals; the result is then a list
    with one PdeEstimate per functional, equal to what separate calls give.
    Their initial data are marched as one batch per grid.
    """
    G = as_gfunction(G)
    if not 0 < horizon < np.inf:  # the march must cover it in finitely many steps
        raise DomainError("horizon must be positive and finite")
    nodes = _preset_nodes(NODES_1D if G.dimension == 1 else NODES_2D, accuracy)
    phis = [phi] if callable(phi) else list(phi)
    if not phis:
        return []

    def march(grid: Grid):
        pts = grid.points()
        data = np.empty((len(phis),) + pts.shape[:-1])
        for u, f in zip(data, phis):
            u[...] = evaluate(f, pts, what="initial data")
        del pts  # the march does not need the (N, N, 2) points
        data_max = [float(np.max(np.abs(u))) for u in data]
        fields = _march(G, grid, data, grid.steps)
        return [(float(u[(len(u) // 2,) * grid.dim]), bound)
                for u, bound in zip(fields, data_max)]

    half_width = _auto_half_width(G, horizon)
    estimates = _two_grid(G, horizon, half_width, nodes, march, [(horizon, half_width)])
    return estimates[0] if callable(phi) else estimates


def _fdd_last_stage(G: GFunction, phi, stages: list[Grid]) -> tuple[np.ndarray, float]:
    """The last-increment stage of gbm_fdd_expect, streamed over row blocks.

    With m_j = stages[j].half_nodes, row (k_1, ..., k_{p-1}), k_j in [-m_j,
    m_j], holds phi(x_1, ..., x_{p-1}, x_{p-1} + h k_p) for k_p in [-m_p, m_p],
    each x read off the axis h * k at its integer index k_1 + ... + k_j.
    Blocks of about BLOCK_CELLS cells are evaluated on open grids, so the
    data cube never exists, and marched; each row keeps its centre.  Every
    step acts on each row alone, so the kept values are those of the
    whole-cube form bit for bit.  Returns them, one per row, and max |phi|."""
    h, halves = stages[-1].spacing, [stage.half_nodes for stage in stages]
    lead = tuple(2 * m + 1 for m in halves[:-1])
    per_block = max(1, BLOCK_CELLS // (2 * halves[-1] + 1))
    axis = h * np.arange(-sum(halves), sum(halves) + 1, dtype=float)
    offsets = np.arange(-halves[-1], halves[-1] + 1)
    kept = np.empty(lead)
    data_max = 0.0
    for r0 in range(0, kept.size, per_block):
        block = np.arange(r0, min(r0 + per_block, kept.size))
        idx = np.unravel_index(block, lead) if lead else ()
        # axis index of x_0 = 0, x_1, ..., x_{p-1} in each row of the block
        pos = list(itertools.accumulate((k - m for k, m in zip(idx, halves)), initial=sum(halves)))
        data = evaluate(phi, *(axis[k][:, None, None] for k in pos[1:]),
                        axis[np.reshape(pos[-1], (-1, 1)) + offsets][..., None],
                        what="initial data")
        data_max = max(data_max, float(np.max(np.abs(data))))
        kept.flat[block] = _march(G, stages[-1], data, stages[-1].steps)[:, halves[-1]]
    return kept, data_max


def gbm_fdd_expect(G, times, phi, accuracy: str = "default") -> PdeEstimate:
    """Finite-dimensional upper expectation E[phi(W_t1, ..., W_tp)], d = 1.

    Backward nesting (Peng 2019, ch. 3): stage j integrates out the
    increment over (t_{j-1}, t_j] by a batched G-heat march on its own
    [-w_j, w_j], w_j = MARGIN_STDS * sigma_max * sqrt(t_j - t_{j-1}) rounded
    up to whole spacings, and reads the centre of each row.  The spacing is
    that of L = sum_j w_j, the reach of x_p, which the estimate reports.
    The last stage streams over row blocks (_fdd_last_stage), so the working
    set is one stage state of prod_{j<p} (2 m_j + 1) floats plus a block.
    """
    G = as_gfunction(G)
    if G.dimension != 1:
        raise DomainError("1-d only")
    times = [float(t) for t in times]
    p = len(times)
    if p == 0 or p > 3:
        raise DomainError("fdd arity cap")
    if times[0] <= 0 or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise DomainError("times must be strictly increasing and positive")

    deltas = [times[0]] + [t2 - t1 for t1, t2 in zip(times, times[1:])]
    widths = [MARGIN_STDS * (math.sqrt(G.sigma_sq_max) * math.sqrt(d)) for d in deltas]
    L = MARGIN_STDS * (math.sqrt(G.sigma_sq_max) * sum(math.sqrt(d) for d in deltas))

    def march(grid: Grid):
        h = grid.spacing
        # m_j = w_j / h rounded up past h's own rounding: each rim at least w_j out
        stages = [Grid.build(1, max(1, math.ceil(w / h - 1e-9)) * h, h, d, G.sigma_sq_max)
                  for d, w in zip(deltas, widths)]
        u, data_max = _fdd_last_stage(G, phi, stages)
        for stage in reversed(stages[:-1]):
            u = _march(G, stage, u, stage.steps)[..., stage.half_nodes]
        return [(float(u), data_max)]

    nodes = _preset_nodes(NODES_FDD, accuracy)
    if p == 3:
        # p = 3 runs at half resolution, which keeps the presets' values
        nodes = (nodes // 2) | 1
    return _two_grid(G, times[-1], L, nodes, march, list(zip(deltas, widths)))[0]


def gbm_quadratic_identity(G, A, t: float, accuracy: str = "fast"):
    """Compare E[<W_t A, W_t>] computed by the solver with G(A) * t."""
    G = as_gfunction(G)
    A = _check_symmetric(A, G.dimension)
    if not t > 0:
        raise DomainError("t must be positive")

    if G.dimension == 1:
        phi = lambda x: float(A[0, 0]) * x * x
    else:
        phi = lambda pts: np.einsum("...i,ij,...j->...", pts, A, pts)
    est = gnormal_expect(G, phi, horizon=t, accuracy=accuracy)
    return est, g_eval(G, A) * t


def fields_rows(grid: Grid, field: np.ndarray, snapshots):
    """Flatten solve_gheat's output on a 1-d `grid` to (time, x, y, value)
    rows for CSV dumps, y left empty; the field is the one at the grid
    horizon."""
    axis = grid.axis()
    return [{"time": t, "x": float(x), "y": "", "value": float(v)}
            for t, vals in (*snapshots, (grid.horizon, field)) for x, v in zip(axis, vals)]
