"""Exact sub-linear expectation engine for lattice-supported random vectors.

The law of a random vector is an ambiguity set: a finite family of discrete
distributions on a shared lattice.  The upper expectation maximises the
classical mean over the family, the lower expectation is its conjugate, and
the induced capacity pair bounds event probabilities.  Because every support
point sits on one lattice, partial sums of independent draws stay on a
lattice, so sums, nested expectations and running maxima are integrated
exactly by dynamic programming with no binning error.

Independence is order-sensitive nesting: the last variable of a list is
integrated out first, with earlier variables frozen.  The list order is the
independence order and is never symmetrised.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import DomainError, ResourceCapError

DEFAULT_NESTING_CAP = 12
DEFAULT_MAX_SUM_NODES = 20_000_000
DEFAULT_MAX_STATES = 400_000

LATTICE_RTOL = 1e-12
PROB_TOL = 1e-12
# cells per block of the backward sum DP and the 1-d march, and per row tile
# of the 2-d march (pde imports it): a block's operands or a tile's scratch
# take 0.8-1.8 MB, so that each stays near a 2 MB L2.  Every scratch buffer
# those kernels make for themselves comes from _aligned, which starts it on
# a cache line: numpy and malloc promise only 16-byte alignment, and a
# 64-byte vector store into a buffer that starts off a line straddles two
# lines, so a kernel's speed would move with where earlier allocations left
# the heap.
BLOCK_CELLS = 32_768
LINE_BYTES = 64
# a numpy call on a short array costs about as much as one ufunc pass over
# this many cells (1-2 us, at 0.25-0.4 ns a cell pass): the sum DP prices the
# calls of a move with it
CALL_CELLS = 4_096


def _aligned(shape) -> np.ndarray:
    """An uninitialised float64 array of `shape` (an int or a tuple), C
    order, whose first element starts on a LINE_BYTES boundary: a line's
    worth of cells more is allocated and sliced off."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    cells = math.prod(shape)
    raw = np.empty(cells + LINE_BYTES // 8)
    skip = -raw.ctypes.data % LINE_BYTES // 8
    return raw[skip:skip + cells].reshape(shape)


@dataclass(frozen=True)
class LatticeSpec:
    """Uniform lattice origin + step * Z^d that carries all support points."""

    dimension: int
    step: float
    origin: tuple[float, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("lattice dimension must be positive")
        if not (self.step > 0.0) or not np.isfinite(self.step):
            raise DomainError("lattice step must be positive and finite")
        if len(self.origin) != self.dimension or not np.all(np.isfinite(self.origin)):
            raise DomainError("origin needs one finite coordinate per dimension")
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))

    def to_integer(self, points: np.ndarray) -> np.ndarray:
        """Map physical points to integer coordinates, verifying lattice membership
        while the tolerance stays below half a step: |q| < 0.5 / LATTICE_RTOL."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(pts)):
            raise DomainError("non-finite point")
        q = (pts - np.asarray(self.origin)) / self.step
        r = np.rint(q)
        tol = LATTICE_RTOL * np.maximum(1.0, np.abs(q))
        if np.any(tol >= 0.5):
            bad = pts[np.any(tol >= 0.5, axis=1)][0]
            raise DomainError(f"point beyond the lattice range: {bad.tolist()}")
        if np.any(np.abs(q - r) > tol):
            bad = pts[np.any(np.abs(q - r) > tol, axis=1)][0]
            raise DomainError(f"point off lattice: {bad.tolist()}")
        return r.astype(np.int64)

    def to_physical(self, coords: np.ndarray) -> np.ndarray:
        """Physical position of integer coordinates."""
        return np.asarray(self.origin) + self.step * np.asarray(coords, dtype=float)

@dataclass(eq=False)
class DiscreteDistribution:
    """One classical measure inside an ambiguity family."""

    support: np.ndarray  # (m, d) physical points
    probs: np.ndarray  # (m,)

    def __post_init__(self):
        self.support = np.atleast_2d(np.asarray(self.support, dtype=float))
        self.probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if self.support.shape[0] != self.probs.shape[0]:
            raise DomainError(f"{len(self.probs)} probabilities for {len(self.support)} points")
        if self.support.shape[0] == 0:
            raise DomainError("empty support")
        if not np.all(np.isfinite(self.support)):
            raise DomainError("non-finite support point")
        if not np.all(np.isfinite(self.probs)):
            raise DomainError("non-finite probability")
        if np.any(self.probs < 0.0):
            raise DomainError("negative probability")
        if abs(float(self.probs.sum()) - 1.0) > PROB_TOL:
            raise DomainError(f"probabilities sum to {float(self.probs.sum())!r}, not 1")

    @property
    def dim(self) -> int:
        return self.support.shape[1]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a 1-d array, by sorting and comparing neighbours: a bare
    np.unique call imports numpy.ma (numpy 2.4), about 6 ms and 0.6 MB."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class AmbiguitySet:
    """A random vector's law: finitely many distributions on one lattice."""

    def __init__(self, lattice: LatticeSpec, members: Sequence[DiscreteDistribution]):
        if len(members) == 0:
            raise DomainError("ambiguity set needs at least one member")
        self.lattice = lattice
        self.members = tuple(members)
        coords = []
        for dist in self.members:
            if dist.dim != lattice.dimension:
                raise DomainError("member dimension does not match lattice")
            coords.append(lattice.to_integer(dist.support))
        self._coords = tuple(coords)
        sizes = [len(c) for c in coords]
        _, first, inverse = np.unique(np.vstack(coords), axis=0, return_index=True,
                                      return_inverse=True)
        inverse = inverse.reshape(-1)
        # a member lists a point twice iff two of its rows share a union row
        owner = np.repeat(np.arange(len(coords)), sizes)
        if len(_sorted_unique(owner * len(first) + inverse)) != len(inverse):
            raise DomainError("support points not pairwise distinct")
        # the union support in lattice order; a point shared by several
        # members takes its physical position from the first that lists it
        self.support = np.vstack([dist.support for dist in self.members])[first]
        # positions[i][k]: the row of `support` holding member i's k-th point
        self.positions = tuple(np.split(inverse, np.cumsum(sizes)[:-1]))

    @property
    def dim(self) -> int:
        return self.lattice.dimension

    def member_coords(self, i: int) -> np.ndarray:
        return self._coords[i]

    def __repr__(self):
        return f"AmbiguitySet(d={self.dim}, members={len(self.members)})"


@dataclass(frozen=True)
class TestFunction:
    """A deterministic functional of one or more lattice vectors.

    The growth tag ("bounded", "quadratic" or "power" with `exponent`) is
    metadata: experiment drivers use it to size PDE domains and to gate
    unbounded functionals behind verified moment conditions.

    Every engine applies a functional, a TestFunction or a plain callable,
    through `evaluate`: one vectorised call on the whole grid of points,
    and one call per point only when that call raises TypeError,
    ValueError or IndexError or returns the wrong shape.  Any other
    exception propagates.  expect_upper, expect_upper_member and
    expect_lower also take, in place of a functional of one lattice
    vector, its vector of values on X.support.
    """

    fn: Callable
    arity: int = 1
    growth: str = "bounded"
    exponent: float | None = None
    name: str = ""

    def __call__(self, *args):
        return self.fn(*args)


def _as_callable(f, arity: int) -> Callable:
    if isinstance(f, TestFunction):
        if f.arity != arity:
            raise DomainError(f"arity mismatch: expected {arity}, got {f.arity}")
        return f.fn
    return f


def evaluate(f, *points: np.ndarray, what: str = "test value") -> np.ndarray:
    """Values of f on a grid of points, one array of points per argument.

    Each array holds points with their coordinates on the last axis; the
    leading axes broadcast against each other, as in the open grid
    (x[:, None, None], y[:, None]), and their broadcast is the grid shape
    the result takes.  f is called once on the whole grid, with the arrays
    (1-d points as arrays of their one coordinate), and point by point,
    with floats or (d,) vectors, only when that call raises TypeError,
    ValueError or IndexError or returns another shape; any other exception
    propagates.  For 1-d points a result with the grid's axes that
    broadcasts to it, as from an f that ignores an argument of an open
    grid, is broadcast.  A grid whose first axis has length d > 1 gets one
    extra point, a copy of its last, whose value is dropped: an f that
    reads its argument as one point, as in z[0] * z[1], then returns a
    wrong shape instead of a plausible one.
    """
    fn = _as_callable(f, len(points))
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in points))
    d = points[0].shape[-1]
    grid = (d + 1,) + shape[1:] if d > 1 and shape[:1] == (d,) else shape
    if d == 1:
        args = [p[..., 0] for p in points]
    else:
        args = [np.concatenate([p, p[-1:]]) if grid != shape and p.ndim > len(shape)
                and len(p) == d else p for p in points]
    try:
        vals = np.asarray(fn(*args), dtype=float)
    except (TypeError, ValueError, IndexError):
        vals = None
    if d == 1 and vals is not None and vals.ndim == len(shape) and vals.shape != shape:
        with contextlib.suppress(ValueError):
            vals = np.array(np.broadcast_to(vals, shape))
    if vals is None or vals.shape != grid:
        rows = [np.broadcast_to(p, shape + (d,)).reshape(-1, d) for p in points]
        vals = np.array([float(fn(*(float(r[i, 0]) if d == 1 else r[i] for r in rows)))
                         for i in range(len(rows[0]))]).reshape(shape)
    elif grid != shape:
        vals = vals[:d]
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"non-finite {what}")
    return vals


def _support_values(X: AmbiguitySet, f) -> np.ndarray:
    """f on X.support: a functional is evaluated, a value array checked."""
    if callable(f):
        return evaluate(f, X.support)
    values = np.asarray(f, dtype=float)
    if values.shape[-1:] != (len(X.support),):
        raise DomainError(f"value vector of shape {values.shape}; "
                          f"X.support has {len(X.support)} points")
    if not np.isfinite(values).all():
        raise DomainError("non-finite test value")
    return values


def expect_upper_member(X: AmbiguitySet, f):
    """Upper expectation plus the attaining member index (lowest on ties).

    f is a functional, or its values on X.support: a vector, or a stack of
    vectors with the support on the last axis, which gives an array of
    values and one of indices over the leading axes.  Every member mean has
    the bits of np.dot(probs, vector[positions]): a (1, m) @ (m,) matmul
    of a contiguous gather sums in np.dot's order, and a one-point member
    takes np.dot's product, which keeps a -0.0 that the matmul would not.
    """
    return _upper_member(X, _support_values(X, f))


def _upper_member(X: AmbiguitySet, values: np.ndarray):
    """expect_upper_member on values that _support_values has checked."""
    rows = values[..., None, :]
    means = np.empty((len(X.members),) + rows.shape[:-1])
    for i, (dist, pos) in enumerate(zip(X.members, X.positions)):
        part = rows.take(pos, axis=-1)
        means[i] = part[..., 0] * dist.probs[0] if len(pos) == 1 else part @ dist.probs
    means = means[..., 0]
    idx = means.argmax(axis=0)
    if means.ndim == 1:
        return float(means[idx]), int(idx)
    return np.take_along_axis(means, idx[None], axis=0)[0], idx


def expect_upper(X: AmbiguitySet, f):
    """max over members P of sum_z P(z) f(z); f may be a value vector on
    X.support, or a stack of them (one value per vector)."""
    return expect_upper_member(X, f)[0]


def expect_lower(X: AmbiguitySet, f):
    """Conjugate expectation -E[-f]; always <= expect_upper(X, f)."""
    return -_upper_member(X, -_support_values(X, f))[0]


def _event_probabilities(X: AmbiguitySet, event: Callable) -> list:
    """P(event) under each member; the event is evaluated once on X.support."""
    hit = evaluate(event, X.support, what="event value") != 0.0
    return [float(dist.probs[hit[pos]].sum()) for dist, pos in zip(X.members, X.positions)]


def capacity_upper(X: AmbiguitySet, event: Callable) -> float:
    """max over members of P(event)."""
    return min(max(_event_probabilities(X, event)), 1.0)


def capacity_lower(X: AmbiguitySet, event: Callable) -> float:
    """min over members of P(event) = 1 - capacity_upper(complement)."""
    return min(min(_event_probabilities(X, event)), 1.0)


def truncation_box(lattice: LatticeSpec, c: float) -> np.ndarray:
    """Integer corners (lower, upper) of the clamp box [-c, c]^d, c > 0, on the lattice."""
    if not 0 < c < np.inf:
        raise DomainError("truncation level must be positive and finite")
    try:
        return lattice.to_integer(np.outer([-c, c], np.ones(lattice.dimension)))
    except DomainError:
        raise DomainError("truncation off-lattice") from None


def truncate(X: AmbiguitySet, c: float) -> AmbiguitySet:
    """Componentwise clamp of every support point to [-c, c].

    Both clamp points must sit on the lattice so that the result keeps the
    exact-DP contract; probabilities of collided points are merged.
    """
    lat = X.lattice
    los, his = truncation_box(lat, c)
    members = []
    for i, dist in enumerate(X.members):
        coords = np.clip(X.member_coords(i), los, his)
        uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
        probs = np.zeros(uniq.shape[0])
        np.add.at(probs, inverse, dist.probs)
        members.append(DiscreteDistribution(lat.to_physical(uniq), probs))
    return AmbiguitySet(lat, members)


def nested_expect(Xs: Sequence[AmbiguitySet], f, cap: int = DEFAULT_NESTING_CAP) -> float:
    """Nested upper expectation with the last variable integrated innermost.

    Realises order-sensitive independence: X_k independent of (X_1..X_{k-1}),
    so the recursion freezes a prefix and integrates the deepest variable
    first via expect_upper.  Outer levels pass expect_upper the vector of
    inner values, one per point of X.support (a float in 1-d).
    """
    k = len(Xs)
    if k == 0:
        raise DomainError("need at least one variable")
    if k > cap:
        raise ResourceCapError("nesting too deep")
    fn = _as_callable(f, k)

    def level(prefix: tuple, i: int) -> float:
        X = Xs[i]
        if i == k - 1:
            return expect_upper(X, lambda z: fn(*prefix, z))
        points = X.support[:, 0].tolist() if X.dim == 1 else X.support
        return expect_upper(X, [level(prefix + (z,), i + 1) for z in points])

    return level((), 0)


def _shared_lattice(laws: Sequence[AmbiguitySet]) -> LatticeSpec:
    """The lattice of every law, compared once per run of one law object."""
    lat = laws[0].lattice
    for law, _ in itertools.groupby(laws):
        if law.lattice != lat:
            raise DomainError("laws do not share a lattice")
    return lat


@dataclass(frozen=True, eq=False)
class _SumStep:
    """One law as a step of the backward sum DP.

    `offsets` lists, as tuples of Python ints, the distinct
    positive-probability points of all members as offsets from `zmin`.
    `members` holds per member, in support order, its positive-probability
    points as (index into `offsets`, probability as a 0-d float64 array):
    the first point's pair, then a tuple of the other points' pairs.
    `zmin` and `zmax` are the lowest and highest coordinates on each axis.
    `ufuncs` is the number of ufunc passes that one output cell takes.
    """

    offsets: tuple
    members: tuple
    zmin: tuple
    zmax: tuple
    ufuncs: int


def _sum_steps(laws: Sequence[AmbiguitySet]) -> list:
    """The _SumStep of each law, resolved once per distinct law object."""
    resolved = {}
    steps = []
    for law, run in itertools.groupby(laws):
        step = resolved.get(id(law))
        if step is None:
            rows = []
            for i, dist in enumerate(law.members):
                keep = dist.probs > 0.0
                rows.append((law.member_coords(i)[keep], dist.probs[keep]))
            zmin = np.min([coords.min(axis=0) for coords, _ in rows], axis=0)
            zmax = np.max([coords.max(axis=0) for coords, _ in rows], axis=0)
            index = {}
            members = []
            for coords, probs in rows:
                first, *rest = ((index.setdefault(tuple(int(c) for c in z), len(index)),
                                 np.array(p)) for z, p in zip(coords - zmin, probs))
                members.append((first, tuple(rest)))
            step = resolved[id(law)] = _SumStep(tuple(index), tuple(members),
                                               tuple(int(c) for c in zmin),
                                               tuple(int(c) for c in zmax),
                                               sum(2 * len(rest) + 2 for _, rest in members) - 1)
        steps += itertools.repeat(step, len(list(run)))
    return steps


def _progression(start: int, step: int, count: int):
    """start + step * j for j = 1..count, in Python ints."""
    if step == 0:
        return itertools.repeat(start, count)
    return range(start + step, start + step * (count + 1), step)


def _level_boxes(steps: Sequence[_SumStep], dim: int) -> tuple[list, list]:
    """Corner lo_k and shape of the partial-sum box at each level k = 0..n
    of a d-dimensional lattice: S_k lies in [lo_k, lo_k + shape_k - 1] on
    every axis.  A run of one step object moves each coordinate by the same
    amount per level, so the run's tuples are zipped from one range per
    axis."""
    lo = [(0,) * dim]
    shapes = [(1,) * dim]
    for step, run in itertools.groupby(steps):
        count = len(list(run))
        lo += zip(*(_progression(c, a, count) for c, a in zip(lo[-1], step.zmin)))
        shapes += zip(*(_progression(w, b - a, count)
                        for w, a, b in zip(shapes[-1], step.zmin, step.zmax)))
    return lo, shapes


def _bands(steps: Sequence[_SumStep], ks: Sequence[int], dim: int) -> list:
    """Per phase (k_j, k_{j+1}] of consecutive ks, the width on each axis of
    the increment S_k - S_{k_j} for k = k_j..k_{j+1}: shape_k - shape_{k_j}
    + 1, which is the level box of the phase's own steps."""
    return [_level_boxes(steps[start:end], dim)[1] for start, end in zip(ks, ks[1:])]


def _positions(lat: LatticeSpec, level: int, lo: tuple, shape: tuple,
               scale: float) -> np.ndarray:
    """Points scale * (level * origin + step * s) of the level box with corner
    lo and `shape`: the box's shape, then the coordinates on the last axis.

    Each coordinate is computed once per axis value and broadcast into the
    one output array, so no box-sized temporary is made; every entry sees
    the same float operations as the whole-box formula.  The array is
    read-only, so a functional that writes into its argument takes
    evaluate's pointwise path.
    """
    out = np.empty(tuple(shape) + (len(shape),))
    for i, (l, w, o) in enumerate(zip(lo, shape, lat.origin)):
        axis = scale * (level * o + lat.step * np.arange(l, l + w, dtype=float))
        out[..., i] = axis.reshape((w,) + (1,) * (len(shape) - 1 - i))
    out.flags.writeable = False
    return out


def _backward_sum(v: np.ndarray, steps: Sequence[tuple]) -> np.ndarray:
    """Backward sum DP: one step per (_SumStep, shape) pair, in backward order.

    The lattice occupies the last d axes of v and every leading axis is a
    batch axis.  A step maps level-k values to level-(k-1) values on the
    lattice shape `shape`: entry x becomes the member maximum (lowest index
    first) of the member mean sum_z p_z v[x + offset_z], summed in support
    order.  A level lives in a flat buffer: point x of the level box, in
    batch row b, sits at cell origin + s.x + lead.b, where the lattice
    strides s come from _hull_strides and each batch row takes one run of
    the lattice (lead in C order).  Only the lattice points of the level's
    hull H_k (_Hull: the Minkowski sum of the support hulls of the steps
    still to come) can reach the root, and s.x is one-to-one on them, so an
    offset is one flat shift and a step one contiguous run from the first
    to the last cell of H_{k-1}, in cache-sized blocks of BLOCK_CELLS cells.
    For the nearest-neighbour cross, H_k is the diamond |x| + |y| <= k,
    whose lattice translates tile Z^2 (it is the ball of a perfect Lee
    code), so s = (k+1, k) packs its 2k^2 + 2k + 1 points into a run with
    no hole, about half the cells of the box; a box hull keeps the C-order
    strides of the box.  The run's cells outside the hull (the rim, as in
    pde._march_2d) get throw-away values: a live cell reads only live cells,
    a rim cell only cells that the step before wrote.

    v is laid out on its box (v.reshape(-1) copies v only where no flat view
    exists), so its values keep their bits.  As the levels shrink, strides
    chosen for an earlier hull waste part of each run.  Once the run wasted
    since the last layout, at _SumStep.ufuncs passes a cell, costs more than
    moving the live points into the current level's best strides, they are
    moved into the other buffer, with any hole of the new run first set to
    0.0.  A box hull moves in one copy, priced at one pass a cell.  A hull
    that is not a box moves one row per copy, priced at one pass a cell plus
    2 x CALL_CELLS a box row: one call for the row's copy and one for its
    share of the stride search.  That undercounts the search, which
    measured 2-4 us a box row against 1-2 us for the copy (nearest-neighbour
    cross, n = 256), but a higher price does not pay: at 4 x that cross ran
    1-4% faster in process, yet made its first move a level later, after
    the second level buffer had been allocated at the box's run rather than
    the hull's, so the `large` benchmark's peak RSS rose 0.29 MB and its
    wall time did not fall.  No call price (the box's rule) ran twice as
    slow.  Two buffers take the levels in turn, each sized to the run it
    first holds, which no later run outgrows; the second is allocated only
    once nothing in the kernel refers to v: an input that the caller does
    not hold is freed by then.  Two more of one block take the member sums
    and products; these start on a cache line (_aligned), since every
    member pass stores into them.  The level buffers stay where the
    allocator puts them: aligning them too gained nothing measurable and,
    at level sizes near 2 MB, moved glibc's dynamic mmap threshold so that
    the process kept about 2 MB more resident.  Returns a view of the last
    level's box, which must be its hull (a point, or a 1-d band).

    Each member sum starts from its first product rather than from zeros:
    that changes at most the sign of a zero, and comparisons and later sums
    carry such a difference along as the sign of a zero only.  A zero-start
    sum is never -0.0, so adding 0.0 to the final level gives the zero-start
    loop's values bit for bit; no block, rim or move changes a live bit.

    Levels are short (a few thousand cells), so numpy's fixed cost per call
    counts: a run of at most BLOCK_CELLS cells takes no block loop, shifts
    are worked out once per step object and layout, and the operand rule of
    pde._march_1d holds (0-d float64 probabilities, made once per law by
    _sum_steps; `out` positional except in np.maximum).
    """
    if not steps:
        return v
    d = len(steps[0][1])
    batch = v.shape[:v.ndim - d]
    rows = math.prod(batch)
    hull = _Hull(steps, v.shape[v.ndim - d:])
    c_order = [math.prod(v.shape[i + 1:]) for i in range(v.ndim)]
    lead, s = tuple(c_order[:len(batch)]), tuple(c_order[len(batch):])
    origin = 0  # the cell of box point 0 in batch row 0
    src = v.reshape(-1)
    del v
    dst = None
    fresh = True  # src is v's buffer, which the kernel must not write
    end = len(src)  # one past the last live cell of the level in src
    wasted = 0
    key = acc = None
    # a box's best layout is known for free, so its waste is judged per
    # level; any other hull's adds up until it pays for the search and move
    boxy = hull.is_box
    for step, shape in steps:
        cells = rows * (math.prod(hull.box) if boxy else hull.points())
        wasted = (0 if boxy else wasted) + step.ufuncs * (end - cells)
        if wasted > cells and (boxy or wasted > cells + 2 * CALL_CELLS * hull.box[0]):
            wasted = 0
            strides, run = _hull_strides(hull)
            if rows * (run + 1) < end:
                end = rows * (run + 1)
                moved = tuple(math.prod(batch[i + 1:]) * (run + 1) for i in range(len(batch)))
                start = -min(_dots(hull.corners(), strides))
                if dst is None:
                    dst = np.empty(end)
                if run + 1 > hull.points():
                    dst[:end].fill(0.0)
                if boxy:
                    np.copyto(_box(dst, start, moved + strides, batch + hull.box),
                              _box(src, origin, lead + s, batch + hull.box))
                else:  # 2-d with no batch axes: one row of the hull per copy
                    _move_rows(src, origin, s, dst, start, strides, hull.rows())
                src, dst, lead, s, origin = dst, (None if fresh else src), moved, strides, start
                fresh = False
        if key != (step, s):
            key = step, s
            dots = _dots(step.offsets, s)
            low = min(dots)
            shifts = [t - low for t in dots]
            span = max(dots) - low
        end -= span
        origin += low
        if dst is None:
            dst = np.empty(end)
        if acc is None:  # the first run is the longest
            acc, tmp = _aligned(min(end, BLOCK_CELLS)), _aligned(min(end, BLOCK_CELLS))
        if end <= BLOCK_CELLS:
            _member_max(step, [src[t:t + end] for t in shifts], dst[:end], acc[:end], tmp[:end])
        else:
            for a in range(0, end, BLOCK_CELLS):
                b = min(a + BLOCK_CELLS, end)
                _member_max(step, [src[a + t:b + t] for t in shifts], dst[a:b],
                            acc[:b - a], tmp[:b - a])
        src, dst = dst, (None if fresh else src)
        fresh = False
        if boxy:
            hull.box = shape
        else:
            hull.drop(step, shape)
    np.add(src[:end], 0.0, src[:end])
    return _box(src, origin, lead + s, batch + hull.box)


def _dots(points, strides) -> list:
    """s.x for each point x, in Python ints."""
    return [sum(a * b for a, b in zip(x, strides)) for x in points]


def _box(buffer: np.ndarray, origin: int, strides: tuple, shape: tuple) -> np.ndarray:
    """The box `shape` of a flat float64 buffer laid out with `origin` and
    cell `strides`."""
    return as_strided(buffer[origin:], shape, [8 * t for t in strides])


def _move_rows(src: np.ndarray, origin: int, s: tuple, dst: np.ndarray, start: int,
               strides: tuple, rows: tuple):
    """Copy the lattice points (x, a[x]..b[x]) of a 2-d hull, rows = (a, b),
    from the layout (origin, s) of src to the layout (start, strides) of
    dst, one row per slice assignment (a stride of 0 meets only rows of one
    point)."""
    a, b = rows
    xs = np.flatnonzero(a <= b)
    width = (b - a)[xs].tolist()
    old = (origin + s[0] * xs + s[1] * a[xs]).tolist()
    new = (start + strides[0] * xs + strides[1] * a[xs]).tolist()
    t, u = s[1] or 1, strides[1] or 1
    for w, i, j in zip(width, old, new):
        dst[j:j + u * w + 1:u] = src[i:i + t * w + 1:t]


class _Hull:
    """The lattice hull H of a level of the backward sum DP, in box
    coordinates.

    The partial sums still to come add one point of each remaining step's
    support, so a level's live points lie in H, the Minkowski sum of the
    convex hulls of those steps' offsets.  H is cut out by one half-plane
    u.x <= bound(u) per direction u of `dirs`: both signs of the axes and,
    in 2-d, of the normal of every difference of two offsets of a step.  A
    Minkowski sum of polygons has only its summands' edge normals, and
    bound(u) is the sum of the summands' maxima of u.x, so in 2-d this is H
    exactly; in other dimensions H is taken as the level box.  `steps` are
    the (step, shape) pairs of _backward_sum; only in 2-d are they counted.
    Of a box hull the DP then uses `box` alone and sets it level by level;
    `drop` removes one step of any other hull as the DP moves down a level.
    The hull code keeps to numpy loops that the DPs already run (no integer
    matmul, np.gcd, np.stack, np.argmin or integer unary minus): each first
    use of a loop pages in about 64 kB of numpy code, which a process's
    peak RSS counts.
    """

    def __init__(self, steps: Sequence[tuple], box: tuple):
        self.box = tuple(box)
        self.is_box = len(box) != 2
        if self.is_box:
            return
        self.counts = {}
        for step, _ in steps:
            self.counts[step] = self.counts.get(step, 0) + 1
        self._rows = None
        dirs = {(0, 1), (1, 0)}
        for step in self.counts:
            for (p0, p1), (q0, q1) in itertools.combinations(step.offsets, 2):
                g = math.gcd(p1 - q1, q0 - p0)
                dirs.add(max(((p1 - q1) // g, (q0 - p0) // g), ((q1 - p1) // g, (p0 - q0) // g)))
        self.dirs = np.array([w for u in sorted(dirs) for w in (u, (-u[0], -u[1]))],
                             dtype=np.int64)
        self.offsets = {step: np.array(step.offsets, dtype=np.int64) for step in self.counts}
        self.tops = {step: np.array([max(_dots(step.offsets, u)) for u in self.dirs.tolist()])
                     for step in self.counts}
        self.is_box = all(top.tolist() == _dots(np.maximum(self.dirs, 0).tolist(),
                                                np.subtract(step.zmax, step.zmin).tolist())
                          for step, top in self.tops.items())
        if self.is_box:
            return
        self.edge = {step: _polygon(o)[1] for step, o in self.offsets.items()}
        self.mixed = {(p, q): (_polygon(np.vstack([o + z for z in self.offsets[q]]))[0]
                               - _polygon(o)[0] - _polygon(self.offsets[q])[0])
                      for p, o in self.offsets.items() for q in self.offsets}
        for p, o in self.offsets.items():
            self.mixed[p, p] = 2 * _polygon(o)[0]

    def drop(self, step: _SumStep, box: tuple):
        self.counts[step] -= 1
        self.box = box
        self._rows = None

    def bound(self) -> np.ndarray:
        return sum(count * self.tops[step] for step, count in self.counts.items())

    def rows(self) -> tuple:
        """(a, b): in 2-d, the lattice points of H in row x of the box are
        (x, a[x]), ..., (x, b[x]); a row with a[x] > b[x] has none."""
        if self._rows is None:
            u, c = self.dirs, self.bound()
            x = np.arange(self.box[0])
            up, down = u[:, 1] > 0, u[:, 1] < 0
            b = ((c[up, None] - u[up, :1] * x) // u[up, 1:]).min(axis=0)
            a = ((u[down, :1] * x - c[down, None] - u[down, 1:] - 1)
                 // (u[down, 1:] * -1)).max(axis=0)  # a ceiling
            self._rows = a, b
        return self._rows

    def points(self) -> int:
        """The number of lattice points of H, by Pick's theorem in 2-d: (twice
        the area + the boundary points) / 2 + 1.  With c_i copies of step i,
        twice the area is sum_ij c_i c_j M_ij / 2, where M_ii is 4A(P_i) and
        M_ij = 2A(P_i + P_j) - 2A(P_i) - 2A(P_j), and the boundary holds
        sum_i c_i B_i points, B_i those of P_i (edges of a Minkowski sum
        add up).  This costs about 3 us a level; counting the points of
        rows() instead (some 25 numpy calls a level) took about 80 us and
        made the 2-d DP of the nearest-neighbour cross at n = 256 about 14%
        slower in process."""
        if self.is_box:
            return math.prod(self.box)
        twice = sum(ci * cj * self.mixed[i, j] for (i, ci), (j, cj)
                    in itertools.product(self.counts.items(), repeat=2))
        return (twice // 2 + sum(c * self.edge[i] for i, c in self.counts.items())) // 2 + 1

    def corners(self) -> list:
        """Lattice points of H that include all its vertices."""
        if self.is_box:
            return list(itertools.product(*[(0, w - 1) for w in self.box]))
        a, b = self.rows()
        return [(x, int(y)) for x in np.flatnonzero(a <= b).tolist() for y in (a[x], b[x])]

    def runs(self, strides: np.ndarray) -> np.ndarray:
        """max - min of s.x over H for each column s of `strides`."""
        return sum(count * np.ptp(self.offsets[step][:, :1] * strides[0]
                                  + self.offsets[step][:, 1:] * strides[1], axis=0)
                   for step, count in self.counts.items())


def _gcd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gcd(a, b) for b > 0, by Euclid's remainders (np.gcd is a numpy loop
    that nothing else runs; see _Hull)."""
    a, b = a.copy(), b.copy()
    while True:
        live = np.flatnonzero(b)
        if not len(live):
            return np.where(a < 0, a * -1, a)
        a[live], b[live] = b[live], a[live] % b[live]


def _polygon(points: np.ndarray) -> tuple:
    """(twice the area, lattice points on the boundary) of the convex hull
    of 2-d integer points; a segment's boundary runs both ways."""
    pts = sorted(set(map(tuple, points.tolist())))
    chain = []
    for seq in (pts, pts[::-1]):  # Andrew's monotone chain
        half = []
        for p in seq:
            while len(half) > 1 and ((half[-1][0] - half[-2][0]) * (p[1] - half[-2][1])
                                     - (half[-1][1] - half[-2][1]) * (p[0] - half[-2][0])) <= 0:
                half.pop()
            half.append(p)
        chain += half[:-1]
    chain = chain or pts
    ring = list(zip(chain, chain[1:] + chain[:1]))
    return (sum(p[0] * q[1] - p[1] * q[0] for p, q in ring),
            sum(math.gcd(q[0] - p[0], q[1] - p[1]) for p, q in ring))


def _hull_strides(hull: _Hull) -> tuple:
    """The lattice strides s that lay H out on the shortest run (max - min
    of s.x over H) among those where s.x is one-to-one on H's lattice
    points, and that run.  A box keeps its C-order strides.

    In 2-d, s.x is one-to-one on H exactly when the primitive kernel vector
    q of s lies outside D = H - H (every lattice point of D is a difference
    of two of H, as H is a lattice polygon).  With s = (s0, j), q = (j, -s0):
    the allowed s0 of row j have -s0 outside D's row j, and the run, convex
    in s0, is least over them at the first s0 outside D on either side or
    at the floor or ceiling of a break point of the run (where two offsets
    of a step swap order).  From each, the search walks outward to the
    nearest s0 prime to j: strides with a common factor g run g times
    longer than their quotient, which has the same kernel, so the best
    strides are primitive.  Rows run from j = 1 to run_C // V, where run_C
    is the C-order run and V the longest column of lattice points of H, as
    a run is at least j * V; with V = 0 no two points share a column and
    s = (1, 0) is allowed too.  Ties go to the C order, then to lower rows.
    """
    box = hull.box
    c_order = tuple(math.prod(box[i + 1:]) for i in range(len(box)))
    run_c = sum((w - 1) * t for w, t in zip(box, c_order))
    if hull.is_box or not run_c:
        return c_order, run_c
    a, b = hull.rows()
    tall = int((b - a).max())
    j = np.arange(1, run_c // max(tall, 1) + 1)
    u = hull.dirs
    c = hull.bound()
    c = c + c.reshape(-1, 2)[:, ::-1].reshape(-1)  # D's bounds: c(u) + c(-u)
    up, down, flat = u[:, 1] > 0, u[:, 1] < 0, u[:, 1] == 0
    hi = ((c[up, None] - u[up, :1] * j) // u[up, 1:]).min(axis=0)
    lo = ((u[down, :1] * j - c[down, None] - u[down, 1:] - 1) // (u[down, 1:] * -1)).max(axis=0)
    empty = (u[flat, :1] * j > c[flat, None]).any(axis=0) | (lo > hi)
    breaks = {(int(dy), int(dx)) for o in hull.offsets.values()
              for dx, dy in (o[:, None] - o[None]).reshape(-1, 2) if dx > 0}
    num, den = np.array(sorted(breaks), dtype=np.int64).reshape(-1, 2).T[:, :, None]
    floor = (j * num * -1) // den
    s0 = np.concatenate([[1 - lo, -1 - hi], floor, floor + 1]).reshape(-1)
    way = np.repeat([1, -1] + [-1] * len(floor) + [1] * len(floor), len(j))
    s1 = np.tile(j, len(s0) // len(j))
    walk = np.flatnonzero(_gcd(s0, s1) != 1)
    while len(walk):
        s0[walk] += way[walk]
        walk = walk[_gcd(s0[walk], s1[walk]) != 1]
    row = s1 - 1
    ok = empty[row] | (s0 + lo[row] > 0) | (s0 + hi[row] < 0)  # -s0 outside [lo, hi]
    cand = np.array([np.concatenate([[c_order[0], 1], s0]), np.concatenate([[1, 0], s1])])
    ok = np.concatenate([[True, tall == 0], ok])
    runs = np.where(ok, hull.runs(cand), np.iinfo(np.int64).max)
    best = int(np.flatnonzero(runs == runs.min())[0])
    return (int(cand[0, best]), int(cand[1, best])), int(runs[best])


def _member_max(step: _SumStep, parts: list, best: np.ndarray, other: np.ndarray,
                term: np.ndarray):
    """best = the member maximum of the member means of `parts`, the
    offset slices of one block; other and term are scratch of its shape."""
    for m, ((i, p), rest) in enumerate(step.members):
        dst = other if m else best
        np.multiply(parts[i], p, dst)
        for i, p in rest:
            np.multiply(parts[i], p, term)
            np.add(dst, term, dst)
        if m:
            np.maximum(best, dst, out=best)


def _check_scale(scale: float):
    if not 0 < scale < np.inf:
        raise DomainError("scale must be positive and finite")


def _checkpoint_expect(laws: Sequence[AmbiguitySet], checkpoints: Sequence[int], f,
                       scale: float, max_nodes: int) -> float:
    """Exact E[f(scale * S_k1, ..., scale * S_kp)] for independent lattice
    laws at checkpoints k_1 <= ... <= k_p = n = len(laws); p > 1 needs a
    1-d lattice, and max_nodes caps the product of the checkpoint boxes.
    The cap counts the level box even where the kernel lays a level out on
    its smaller hull, so that the inputs accepted stay those of the box.

    With k_0 = 0, between k_{j-1} and k_j the state is (S_k1, S_k2 - S_k1,
    ..., S_k - S_k{j-1}).  Each increment axis holds only its reachable
    band, of width shape_k - shape_k{j-1} + 1 on every axis (the first band
    is the level box of S_k), so each phase is one _backward_sum call, and
    at k_{j-1} the band is one column, which is dropped.  The earlier axes
    are the kernel's batch axes: a level is one flat run over all their
    rows, moved tight as the band shrinks.  In 2-d (one checkpoint) the
    kernel lays each level out at the strides of its hull, for the
    nearest-neighbour cross a diamond that tiles the plane, so its run has
    no hole and about half the box's cells (see _backward_sum).  With checkpoints (n/2, n) on
    {-1, 0, 1} that is about n^3/4 live shift-adds, against 3n^3/4 over the
    whole box of S_k.  f sees S_k1 as an open column of the level-k1
    positions and, in 1-d, S_kj at box index a + c_2 + ... + c_j as the
    level-kj positions under one sliding window per increment axis; these
    read-only views are gone before the DP runs.  Each state entry is the
    box entry for the same S_k, built by the same float operations, so the
    value is the box DP's bit for bit.
    """
    n = len(laws)
    if n == 0:
        raise DomainError("need at least one law")
    _check_scale(scale)
    ks = (0, *checkpoints)
    if any(b < a for a, b in zip(ks, ks[1:])):
        raise DomainError("checkpoint order violated")
    lat = _shared_lattice(laws)
    if len(checkpoints) > 1 and lat.dimension != 1:
        raise DomainError("1-d only")

    steps = _sum_steps(laws)
    lo, shapes = _level_boxes(steps, lat.dimension)
    sizes = [math.prod(shapes[k]) for k in checkpoints]
    if math.prod(sizes) > max_nodes:
        raise ResourceCapError(
            f"lattice blowup: {sizes[0]} sum nodes at level {n}" if len(sizes) == 1 else
            f"augmentation blowup: {'x'.join(map(str, sizes))} checkpoint states")

    bands = _bands(steps, ks, lat.dimension)

    def view(j: int, k: int) -> np.ndarray:
        x = _positions(lat, k, lo[k], shapes[k], scale)
        for widths in bands[1:j + 1]:
            x = np.moveaxis(sliding_window_view(x, widths[-1][0], axis=0), -1, -2)
        return x[(Ellipsis,) + (None,) * (len(checkpoints) - 1 - j) + (slice(None),)]

    # each phase's (step, band at the level it steps to), last phase first
    phases = [list(zip(reversed(steps[start:end]), reversed(widths[:-1])))
              for start, end, widths in reversed(list(zip(ks, ks[1:], bands)))]
    column = (Ellipsis,) + (0,) * lat.dimension
    # the data is made in the call, so that the kernel holds its only
    # reference; each copied column lets its phase's buffers go
    v = _backward_sum(evaluate(f, *[view(j, k) for j, k in enumerate(checkpoints)]),
                      phases[0])[column].copy()
    for phase in phases[1:]:
        v = _backward_sum(v, phase)[column].copy()
    return float(v)


def independent_sum_expect(laws: Sequence[AmbiguitySet], g, scale: float = 1.0,
                           max_nodes: int = DEFAULT_MAX_SUM_NODES) -> float:
    """Exact E[g(scale * (X_1 + ... + X_n))] for independent lattice laws.

    Backward dynamic programming over the partial-sum lattice, the
    one-checkpoint case of _checkpoint_expect: the value at level k-1 is the
    member maximum of the member mean of level-k values.  Member maxima
    break ties at the lowest index; reductions run in ascending lattice
    order, so results are deterministic.
    """
    return _checkpoint_expect(laws, [len(laws)], g, scale, max_nodes)


def two_point_sum_expect(laws: Sequence[AmbiguitySet], k1: int, psi, scale: float,
                         max_nodes: int = 4_000_000) -> float:
    """Exact E[psi(scale * S_k1, scale * S_k2)] with k2 = len(laws), on a 1-d
    lattice: the two-checkpoint case of _checkpoint_expect."""
    return _checkpoint_expect(laws, [k1, len(laws)], psi, scale, max_nodes)


def iid_sum_expect(X: AmbiguitySet, n: int, g, scale: float = 1.0,
                   max_nodes: int = DEFAULT_MAX_SUM_NODES) -> float:
    """Exact E[g(scale * S_n)] for n iid copies of X (see independent_sum_expect)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return independent_sum_expect([X] * n, g, scale=scale, max_nodes=max_nodes)


def running_max_expect(X: AmbiguitySet, n: int, scale: float = 1.0,
                       max_states: int = DEFAULT_MAX_STATES) -> float:
    """Exact E[max_{i<=n} |scale * S_i|] by the backward sum DP on (peak, sum) arrays.

    The batch axis runs over `peaks`, the distinct values of |scale * S_i| in
    any level box, in ascending order.  Entry (b, s) of the level-k array is
    the value of the state with sum s and running maximum max(peaks[b],
    |scale * S_k|).  One _backward_sum step gives each entry the value for
    running maximum peaks[b]; row max(b, rank of |scale * S_{k-1}|) then
    takes the level-(k-1) position in.  Rounding is monotone, so scaling each
    position before the maxima gives the values of scaling the maximum.
    `max_states` caps the cells of one level array, peaks x level-n sums.
    """
    if X.dim != 1:
        raise DomainError("1-d only")
    if n < 1:
        raise DomainError("n must be >= 1")
    _check_scale(scale)
    steps = _sum_steps([X] * n)
    lo, shapes = _level_boxes(steps, 1)
    heights = [np.abs(_positions(X.lattice, k, lo[k], shapes[k], scale)[:, 0])
               for k in range(n + 1)]
    peaks = _sorted_unique(np.concatenate(heights))
    if not np.isfinite(peaks[-1]):
        raise DomainError("non-finite position")
    cells = len(peaks) * shapes[n][0]
    if cells > max_states:
        raise ResourceCapError(f"state blowup: {cells} (peak, sum) states at level {n}")
    rows = np.arange(len(peaks))[:, None]
    v = np.maximum(peaks[:, None], heights[n])
    for k in range(n, 0, -1):
        v = _backward_sum(v, [(steps[k - 1], shapes[k - 1])])
        v = np.take_along_axis(v, np.maximum(rows, np.searchsorted(peaks, heights[k - 1])),
                               axis=0)
    return float(v[0, 0])


def symmetric_bernoulli_family(variances: Sequence[float], step: float = 1.0) -> AmbiguitySet:
    """Family on {-step, 0, +step}: one member per v with P(+-step) = v/2.

    With step = 1 the member variances are exactly `variances`.
    """
    if len(variances) == 0:
        raise DomainError("need at least one variance")
    lat = LatticeSpec(1, step, (0.0,))
    support = np.array([[-step], [0.0], [step]])
    members = []
    for v in variances:
        if not 0.0 <= v <= 1.0:
            raise DomainError("variances must lie in [0, 1] for this family")
        members.append(DiscreteDistribution(support, np.array([v / 2, 1 - v, v / 2])))
    return AmbiguitySet(lat, members)


def point_mass(value: Sequence[float] | float, step: float = 1.0) -> AmbiguitySet:
    """Degenerate one-member family concentrated at a single lattice point."""
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    lat = LatticeSpec(len(vec), step, tuple(vec))
    dist = DiscreteDistribution(vec.reshape(1, -1), np.array([1.0]))
    return AmbiguitySet(lat, [dist])


def nested_product(X: AmbiguitySet, Y: AmbiguitySet) -> AmbiguitySet:
    """Joint law of (X, Y) with Y independent of X in the order-sensitive sense.

    The joint family enumerates every map from positive-probability points of
    an X-member to Y-members, so the joint upper expectation of any functional
    equals the nested expectation.  Member counts grow fast; intended for
    small supports.
    """
    if X.lattice.step != Y.lattice.step:
        raise DomainError("component lattices must share the step")
    lat = LatticeSpec(X.dim + Y.dim, X.lattice.step, X.lattice.origin + Y.lattice.origin)
    members = []
    for dist in X.members:
        keep = dist.probs > 0.0
        zs = dist.support[keep]
        ps = dist.probs[keep]
        choices = [range(len(Y.members))] * len(zs)
        for pick in itertools.product(*choices):
            pts = []
            pr = []
            for (z, p, j) in zip(zs, ps, pick):
                ydist = Y.members[j]
                for w, q in zip(ydist.support, ydist.probs):
                    pts.append(np.concatenate([z, w]))
                    pr.append(p * q)
            pts = np.asarray(pts)
            pr = np.asarray(pr)
            uniq, inverse = np.unique(lat.to_integer(pts), axis=0, return_inverse=True)
            probs = np.zeros(uniq.shape[0])
            np.add.at(probs, inverse, pr)
            members.append(DiscreteDistribution(lat.to_physical(uniq), probs))
    return AmbiguitySet(lat, members)
