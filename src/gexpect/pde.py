"""Monotone explicit finite differences for the G-heat equation.

The forward march u <- u + max over members of sum_v w_v D_v u, D_v the
second difference along stencil direction v, takes the generator as a list
of members (_members), each a tuple of (flat shift, weight) pairs with
tau / (2 h^2) folded into every weight once per march: in 1-d the central
second difference weighted by the upper and by the lower variance, and in
2-d, per Theta member, a sign-adapted nine-point stencil whose weights stay
nonnegative whenever its Sigma is diagonally dominant.  One kernel
(_march_members) marches any member list.  A monotone consistent stable
scheme converges to the viscosity solution, so no regularity machinery is
needed.  Boundary values are frozen at the initial data; the domain is sized
so that the frozen rim only reaches the evaluation point through a Gaussian
tail, and that tail bound is part of every reported error bar.
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


def _members(G: GFunction, h: float, tau: float, cols: int) -> list:
    """The generator as march members, each a tuple of (flat shift, weight)
    pairs: a member adds sum w D_s u, D_s u the second difference u[x + s] -
    2 u[x] + u[x - s] along the flattened field of `cols` columns, and a
    step adds the member maximum.  k = tau / (2 h^2) is folded into each
    weight, so no step divides.

    In 1-d, G(a) = max(hi a, lo a) over the range [lo, hi] of Theta: the
    members ((1, hi k),) and then ((1, lo k),).  With lo <= hi, rounding is
    monotone, so the step max(hi k y, lo k y) is hi k y for y >= 0 and lo k
    y otherwise, signed zeros included.  In 2-d, per Theta member
    (a, b, c), (cols, (a - |c|) k), (1, (b - |c|) k) and, only when c != 0,
    the diagonal (cols + 1, |c| k) for c > 0 or the anti-diagonal (cols - 1,
    |c| k) for c < 0: the sign-adapted nine-point stencil, monotone when
    |c| <= min(a, b) and the centre weight 1 - 2 (the weight sum) is
    nonnegative, which is judged from the floats that the march steps with.
    """
    kappa = 0.5 * tau / h ** 2
    if G.dimension == 1:
        vals = [float(S[0, 0]) for S in G.theta]
        return [((1, max(vals) * kappa),), ((1, min(vals) * kappa),)]
    members = []
    for S in G.theta:
        a, b, c = float(S[0, 0]), float(S[1, 1]), float(S[0, 1])
        cc = abs(c)
        if cc > min(a, b) + 1e-12:
            raise DomainError("non-monotone stencil: every Theta member needs "
                              "|c| <= min(a, b)")
        member = ((cols, (a - cc) * kappa), (1, (b - cc) * kappa))
        if c != 0:
            member += ((cols + 1 if c > 0 else cols - 1, cc * kappa),)
        if 1.0 - 2.0 * sum(w for _, w in member) < -1e-12:
            raise DomainError("non-monotone stencil; tighten the CFL ratio")
        members.append(member)
    return members


def _march_members(u: np.ndarray, members: list, steps: int) -> np.ndarray:
    """Explicit march of _members' members along the rows of u's last axis.

    u is a stack of rows of cols = u.shape[-1] cells, marched as one flat
    array.  A step adds to each node it reaches the member maximum (lowest
    index first) of the member sums sum w D_s u over the member's (s, w)
    pairs, D_s the second difference at flat shift s.  The first and last
    column stay frozen at the data, and so do the first and last row where
    a shift leaves a row.  The shifts choose one of two loop orders:

    - No shift leaves a row (1-d): the rows are independent, so the field
      is marched in place in blocks of max(1, BLOCK_CELLS // cols) rows,
      each block taking every step before the next one starts, so that its
      operands stay in L2.  D_1 is formed as (right - 2 centre) + left, in
      the 2-centre buffer, so this order needs what the 1-d members are:
      one shift, and one pair a member.
    - Otherwise (2-d): the field lives in two buffers, and each step reads
      one and writes the next field into the other, sweeping tiles of
      max(1, BLOCK_CELLS // cols) interior rows, so that a tile's scratch
      stays in L2.  Each D_s is formed as (f+ + f-) - 2 centre in its own
      buffer, and the 2-centre buffer then serves as scratch for products.

    A tile is one contiguous run of the flattened field, from its first to
    its last reached node, so every operand is a 1-d slice.  The row ends
    inside the run get throw-away values and are restored after the update
    from a saved copy.  Every reached node reads only nodes of the step
    before (of its own row, in 1-d), so it sees the same float operations
    in the same order as a whole-array step: tiling changes no bit.  A
    member sum starts from its first product: the first member sums into
    `best`, a middle one into `lap`, and the last in place in its own
    differences; each after the first is folded into best by np.maximum.
    A 2-d member with c = 0 has no cross pair, a signed zero: that changes
    no value, but where a node is -0.0 and the winning sum a signed zero (a
    member with a = b = c = 0, or subnormal products) the node's zero may
    change sign against the form that adds the term.  The field copies and
    every scratch buffer start on a cache line (ambiguity._aligned), for
    the reason given at BLOCK_CELLS.

    Rows are short (a few hundred to a few thousand cells), so numpy's
    fixed cost per call counts.  Each tile's calls are listed once per
    march call as (ufunc, a, b, out), and its row ends are restored by slice
    assignments, which cost less per call than np.copyto.  Operand rule:
    every scalar operand (2 and the weights) is a 0-d float64 array made
    once per call, and every ufunc but np.maximum takes `out` positionally;
    a Python float costs each call a scalar conversion that a 0-d array
    does not, and both run the same float64 loop, so the values are the
    same bits.  numpy 2.4 deprecates a third positional argument to
    np.maximum, so it keeps `out=`.  An in-place call gets the same view
    object as input and output, one per buffer and tile: two views of one
    buffer cost about 160 ns more per call at 599 cells, because numpy then
    runs its overlap check.
    """
    u = _aligned_copy(u)
    cols = u.shape[-1]
    rows = u.size // cols
    diffs = dict.fromkeys([s for member in members for s, _ in member])
    in_place = max(diffs) < cols
    halo = 0 if in_place else 1
    per_tile = max(1, BLOCK_CELLS // cols)
    size = max(min(per_tile, rows - 2 * halo) * cols - 2, 0)
    last = len(members) - 1
    if not in_place:  # in 1-d the difference is formed in the 2-centre buffer
        diffs = {s: _aligned(size) for s in diffs}
    # 2 centre, then the member maximum and a middle member's sum if needed
    scratch = [_aligned(size) for _ in range(min(3, len(members)))]
    two = np.array(2.0)  # 0-d float64 operands: see the operand rule
    members = [[(s, np.array(w, dtype=float)) for s, w in member] for member in members]
    bufs = (u,) if in_place else (u, _aligned_copy(u))
    programs = ([], [])  # per tile: reading bufs[0], and reading bufs[1]
    for r0 in range(halo, rows - halo, per_tile):
        r1 = min(r0 + per_tile, rows - halo)
        first, stop = r0 * cols + 1, r1 * cols - 1
        twice, best, lap = [buf[:stop - first] for buf in scratch] + [None] * (3 - len(scratch))
        d = {s: twice if buf is None else buf[:stop - first] for s, buf in diffs.items()}
        for src, dst, program in zip(bufs, bufs[::-1], programs):
            flat = src.reshape(-1)
            cen = flat[first:stop]
            ops = [(np.multiply, cen, two, twice)]
            for s in d:
                plus, minus = flat[first + s:stop + s], flat[first - s:stop - s]
                ops += ([(np.subtract, plus, twice, d[s]), (np.add, d[s], minus, d[s])] if in_place
                        else [(np.add, plus, minus, d[s]), (np.subtract, d[s], twice, d[s])])
            for i, ((s0, w0), *rest) in enumerate(members):
                num, tmp = lap if i else best, twice
                if i == last:  # it sums in place in its own differences
                    num, tmp = d[s0], d[rest[0][0]] if rest else None
                ops.append((np.multiply, d[s0], w0, num))
                for s, w in rest:
                    ops += [(np.multiply, d[s], w, tmp), (np.add, num, tmp, num)]
                if i:
                    ops.append((np.maximum, best, num, best))
            ops.append((np.add, cen, best if last else num,
                        cen if in_place else dst.reshape(-1)[first:stop]))
            # the row ends inside the run, with their data (no march has run)
            field = dst.reshape(rows, cols)
            rims = (field[r0 + 1:r1, 0], field[r0:r1 - 1, -1]) if r1 - r0 > 1 else ()
            program.append((ops, [(view, view.copy()) for view in rims]))
    chain = itertools.chain.from_iterable
    if in_place:  # each tile takes every step
        order = chain(itertools.repeat(tile, steps) for tile in programs[0])
    else:  # each step sweeps every tile
        order = chain(itertools.islice(itertools.cycle(programs), steps))
    maximum = np.maximum
    for ops, rims in order:
        for f, a, b, out in ops:
            if f is maximum:
                f(a, b, out=out)
            else:
                f(a, b, out)
        for view, saved in rims:
            view[...] = saved
    return bufs[steps % len(bufs)]


def _march(G: GFunction, grid: Grid, u: np.ndarray, steps: int) -> np.ndarray:
    """March the last grid.dim axes of u `steps` time steps of the grid.

    G compiles to the grid's members (_members), which _march_members
    marches.  Any leading axes are a batch of independent fields.  In 1-d
    they are marched together, as rows; in 2-d a batch is marched field by
    field back into its slot of u, so that no second batch exists.
    Otherwise the result is a new array.  The one check of a marched field:
    it must be finite.
    """
    members = _members(G, grid.spacing, grid.time_step, u.shape[-1])
    if grid.dim == 1 or u.ndim == 2:
        u = _march_members(u, members, steps)
    else:
        for field in u.reshape(-1, *u.shape[-2:]):
            field[...] = _march_members(field, members, steps)
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
