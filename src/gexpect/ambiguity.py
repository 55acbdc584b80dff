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
# take 0.8-1.8 MB, so that each stays near a 2 MB L2
BLOCK_CELLS = 32_768


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
    order.  A level lives in a flat buffer at the C-order strides of a
    layout, at first v's shape (v.reshape(-1) copies v only where no flat
    view exists), so an offset is one flat shift and a step one contiguous
    run from the first to the last live output cell, in cache-sized blocks
    of BLOCK_CELLS cells.  The run's cells outside the live box (the rim, as
    in pde._march_2d) get throw-away values: a live cell reads only live
    cells, a rim cell only cells that the step before wrote.  When the rim
    of a step's input run, at _SumStep.ufuncs passes a cell, would cost more
    than one pass copying the live input, that is first copied tight into
    the other buffer and its shape becomes the layout; a 1-d level with no
    batch axes has no rim.  Two buffers of the first run's length take the
    levels in turn, the second allocated only after the first step, once
    nothing in the kernel refers to v: an input that the caller does not
    hold is freed by then.  Two more of one block take the member sums and
    products.  Returns a view of the live box.

    Each member sum starts from its first product rather than from zeros:
    that changes at most the sign of a zero, and comparisons and later sums
    carry such a difference along as the sign of a zero only.  A zero-start
    sum is never -0.0, so adding 0.0 to the final level gives the zero-start
    loop's values bit for bit; no block, rim or copy changes a live bit.

    Levels are short (a few thousand cells), so numpy's fixed cost per call
    counts: a run of at most BLOCK_CELLS cells takes no block loop, shifts
    are worked out once per step object and layout, and the operand rule of
    pde._march_1d holds (0-d float64 probabilities, made once per law by
    _sum_steps; `out` positional except in np.maximum).
    """
    if not steps:
        return v
    dims = live = v.shape
    batch = dims[:v.ndim - len(steps[0][1])]
    src = v.reshape(-1)
    del v
    end = len(src)  # one past the last live cell of the level in src
    key = None
    for k, (step, shape) in enumerate(steps):
        if k == 1:
            src = dst
            dst = np.empty(len(src))
        elif k:
            src, dst = dst, src
        live_in, live = live, batch + shape
        if live_in[1:] != dims[1:]:
            cells = math.prod(live_in)
            if step.ufuncs * (end - cells) > cells:
                np.copyto(dst[:cells].reshape(live_in), _box(src, dims, live_in))
                src, dst, dims, end = dst, src, live_in, cells
        if key != (step, dims):
            key = step, dims
            strides = [math.prod(dims[i + 1:]) for i in range(len(batch), len(dims))]
            shifts = [sum(o * s for o, s in zip(offset, strides)) for offset in step.offsets]
            span = sum((b - a) * s for a, b, s in zip(step.zmin, step.zmax, strides))
        end -= span
        if not k:  # the first run is the longest
            acc, tmp = np.empty(min(end, BLOCK_CELLS)), np.empty(min(end, BLOCK_CELLS))
            dst = np.empty(end)
        if end <= BLOCK_CELLS:
            _member_max(step, [src[s:s + end] for s in shifts], dst[:end], acc[:end], tmp[:end])
            continue
        for a in range(0, end, BLOCK_CELLS):
            b = min(a + BLOCK_CELLS, end)
            _member_max(step, [src[a + s:b + s] for s in shifts], dst[a:b],
                        acc[:b - a], tmp[:b - a])
    np.add(dst[:end], 0.0, dst[:end])
    return _box(dst, dims, live)


def _box(buffer: np.ndarray, dims: tuple, live: tuple) -> np.ndarray:
    """The live box `live` of the layout `dims` in a flat float64 buffer."""
    return as_strided(buffer, live, [8 * math.prod(dims[i + 1:]) for i in range(len(dims))])


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

    With k_0 = 0, between k_{j-1} and k_j the state is (S_k1, S_k2 - S_k1,
    ..., S_k - S_k{j-1}).  Each increment axis holds only its reachable
    band, of width shape_k - shape_k{j-1} + 1 on every axis (the first band
    is the level box of S_k), so each phase is one _backward_sum call, and
    at k_{j-1} the band is one column, which is dropped.  The earlier axes
    are the kernel's batch axes: a level is one flat run over all their
    rows, copied tight as the band shrinks.  With checkpoints (n/2, n) on
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
