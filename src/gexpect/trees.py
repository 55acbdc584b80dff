"""Finite scenario trees: filtrations, conditional expectations, statistics.

A tree level plays the role of one stage of a filtration.  Random variables
are labelings of the nodes of one level; conditional upper expectation is a
backward recursion: at each node, the maximum over that node's transition
members of the member mean of child values.  Everything is finite, so the
operator laws, martingale statistics and moment inequalities are evaluated
exactly, node by node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import LatticeSpec, PROB_TOL
from .errors import DomainError
from .gfunc import _check_symmetric
from .reporting import LawReport

INDEX_MAX = 2 ** 31 - 1  # node indices are int32


@dataclass(frozen=True)
class _MemberGroup:
    """The nodes of one level that have c children, with their member lists.

    Each distinct member list is stored once: probs is (1, M, c) when every
    node of the group shares one list, else (n, M, c), node by node.  A list
    of fewer than M members repeats its last member, which leaves the
    member maximum bit for bit as it was: np.maximum returns one of its
    equal operands, and the fold has already returned that member's value
    or a larger one.
    """

    probs: np.ndarray  # (1 or n, M, c) transition probabilities
    first: np.ndarray  # (n,) index of each node's first child
    nodes: np.ndarray  # (n,) the group's nodes in the parent level


class ScenarioTree:
    """Rooted tree of fixed depth with per-node transition ambiguity.

    Level arrays (children of consecutive parents are contiguous; parent and
    inc have depth + 1 entries, the first unused, and members has depth):
      parent[k][i]   index in level k-1 of node i's parent (k >= 1), int32
      inc[k][i]      d-vector increment on the edge into node i (k >= 1)
      members[k][j]  list of transition probability vectors over the children
                     of node j at level k (k <= depth-1), aligned with the
                     contiguous child block
    Construction also stacks members[k] into groups[k], one _MemberGroup per
    child count, which the level operator and the validation work on.

    Cost model: nodes of a level may share one member list object, and each
    distinct list (by identity) is resolved, checked and stored once.
    Finding the distinct lists is two dict passes over the nodes' ids, run
    in C.  So a level whose nodes all share one list runs no Python code
    per node and stores one (1, M, c) block, and a level of distinct lists
    runs Python code per member vector, as checking every vector requires.
    Indices are int32, so a level of more than 2**31 - 1 nodes is rejected.
    """

    def __init__(self, lattice: LatticeSpec, parent: list, inc: list, members: list):
        self.lattice = lattice
        self.dim = lattice.dimension
        self.depth = len(parent) - 1
        if self.depth < 1:
            raise DomainError("tree needs at least one level")
        if len(inc) != len(parent):
            raise DomainError(f"level {min(len(inc), len(parent))}: inc has {len(inc)} "
                              f"levels where parent has {len(parent)}")
        if len(members) != self.depth:
            raise DomainError(f"level {min(len(members), self.depth)}: members has "
                              f"{len(members)} levels for a tree of depth {self.depth}")
        raw = [None]
        for k, p in enumerate(parent[1:], 1):
            p = np.asarray(p)
            if p.ndim != 1 or p.dtype.kind not in "iu":
                raise DomainError(f"level {k}: parent must be a 1-d integer array, "
                                  f"not {p.ndim}-d {p.dtype}")
            if len(p) > INDEX_MAX:
                raise DomainError(f"level {k}: {len(p)} nodes exceed the int32 index "
                                  f"range (2**31 - 1)")
            raw.append(p)
        self.inc = [None] + [np.atleast_2d(np.asarray(z, dtype=float)) for z in inc[1:]]
        self.members = members
        self.sizes = [1] + [len(p) for p in raw[1:]]
        self._index_children(raw)
        self.groups = [self._level_groups(k) for k in range(self.depth)]
        for k in range(1, self.depth + 1):
            if self.inc[k].shape != (self.sizes[k], self.dim):
                raise DomainError(f"level {k}: increment array shape mismatch")
            self.lattice.to_integer(self.inc[k])

    def _index_children(self, raw: list):
        """Check each level's parent indices and store them as int32."""
        self.parent = [None]
        self.child_start = []
        self.child_count = []
        for k in range(self.depth):
            n_par = self.sizes[k]
            par = raw[k + 1]
            if np.any(np.diff(par) < 0):
                raise DomainError("children must be grouped by parent in order")
            if par.size and not 0 <= par[0] <= par[-1] < n_par:
                bad = par[0] if par[0] < 0 else par[-1]
                raise DomainError(f"level {k + 1}: parent index {bad} is not a node "
                                  f"of level {k} (size {n_par})")
            par = par.astype(np.int32, copy=False)  # in range: every index < n_par
            count = np.bincount(par, minlength=n_par).astype(np.int32)
            self.parent.append(par)
            self.child_start.append((np.cumsum(count) - count).astype(np.int32))
            self.child_count.append(count)

    def _level_groups(self, k: int) -> list:
        """Validate members[k] and group its nodes by child count.

        The checks run on the member vectors of each distinct member list
        (by identity), in the order and with the messages that checking
        every node's vectors would give; each group then stores its
        distinct lists, padded to its largest member count.
        """
        mems = list(self.members[k])  # holds every list alive, so ids stay distinct
        if len(mems) != self.sizes[k]:
            raise DomainError(f"level {k}: members list does not cover all nodes")
        count = self.child_count[k]
        childless = (count == 0).nonzero()[0]
        if childless.size:
            raise DomainError(f"level {k} node {childless[0]}: every path must reach depth")
        by_id = dict(zip(map(id, mems), mems))  # the distinct lists, in order of first use
        index = dict(zip(by_id, range(len(by_id))))
        inv = np.fromiter(map(index.__getitem__, map(id, mems)), dtype=np.int64,
                          count=len(mems))
        lists = list(by_id.values())
        u_mem = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        if not u_mem.all():
            raise DomainError("node needs at least one transition member")
        rows = [np.asarray(p, dtype=float) for node in lists for p in node]
        u_count = np.empty_like(u_mem)
        u_count[inv] = count  # a list's child count; the check below makes its nodes agree
        row_count = u_count.repeat(u_mem)
        lengths = np.fromiter((p.size if p.ndim == 1 else -1 for p in rows),
                              dtype=np.int64, count=len(rows))
        if (lengths != row_count).any() or (u_count[inv] != count).any():
            raise DomainError("member length does not match child count")
        groups = []
        for c in sorted(set(u_count.tolist())):
            own = (u_count == c).nonzero()[0]
            probs = np.array([rows[i] for i in (row_count == c).nonzero()[0].tolist()])
            probs = probs.reshape(-1, c)
            if not np.isfinite(probs).all():
                raise DomainError("non-finite transition probability")
            if (probs < 0.0).any():
                raise DomainError("negative transition probability")
            if (np.abs(probs.sum(axis=1) - 1.0) > PROB_TOL).any():
                raise DomainError("transition probabilities do not sum to 1")
            own_mem = u_mem[own]
            start = own_mem.cumsum() - own_mem  # each list's first vector in probs
            pick = np.minimum(start[:, None] + np.arange(own_mem.max()),
                              (start + own_mem - 1)[:, None])
            probs = probs[pick]  # (lists, M, c), each list padded with its last member
            if (probs.max(axis=1) <= 0.0).any():
                raise DomainError("child unreachable under every member")
            nodes = (count == c).nonzero()[0]
            if len(own) > 1:
                probs = probs[np.searchsorted(own, inv[nodes])]
            first = self.child_start[k]
            if len(nodes) < len(mems):
                first = first[nodes]
            groups.append(_MemberGroup(probs, first, nodes.astype(np.int32)))
        return groups

    @property
    def node_count(self) -> int:
        return int(sum(self.sizes))


@dataclass(eq=False)
class TreeRandomVariable:
    """Node labeling of one level; measurable with respect to that level."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def __neg__(self):
        return TreeRandomVariable(self.level, -self.values)


@dataclass(eq=False)
class MartingaleArray:
    """Edge-labeled increment array Z_k, one d-vector per level-k node."""

    tree: ScenarioTree

    def level(self, k: int) -> np.ndarray:
        return self.tree.inc[k]


def _one_step(tree: ScenarioTree, level: int, vals: np.ndarray) -> np.ndarray:
    """Conditional upper expectation from one level down to its parents.

    Each member mean is a left-to-right sum p0*v0 + p1*v1 + ..., and the
    means are folded with np.maximum in member order, vectorised over the
    group's nodes.  Elementwise float operations round the same on every
    CPU, so the values do not depend on a BLAS kernel's summation order.
    A group covering the whole level has its children in child order, so
    its child blocks are a reshape; any other group gathers them per node.
    """
    k = level - 1
    flat = vals.reshape(len(vals), -1)
    out = np.empty((tree.sizes[k], flat.shape[1]))
    for g in tree.groups[k]:
        n, c = len(g.nodes), g.probs.shape[2]
        if n == tree.sizes[k]:
            v = flat.reshape(n, c, -1).transpose(1, 0, 2)
        else:
            v = flat[np.arange(c)[:, None] + g.first]
        p = g.probs.transpose(2, 1, 0)[..., None]  # (c, M, 1 or n, 1)
        acc = p[0] * v[0]  # (M, n, d): v is (c, n, d), child j of every node
        for pj, vj in zip(p[1:], v[1:]):
            acc += pj * vj
        best = acc[0]
        for mean in acc[1:]:
            best = np.maximum(best, mean)
        if n == tree.sizes[k]:
            out = best
        else:
            out[g.nodes] = best
    return out.reshape((tree.sizes[k],) + vals.shape[1:])


def cond_expect(tree: ScenarioTree, X: TreeRandomVariable, k: int) -> TreeRandomVariable:
    """E[X | level k] by backward recursion; requires 0 <= k <= X.level."""
    if not 0 <= k <= X.level <= tree.depth:
        raise DomainError("level mismatch")
    if X.values.shape[0] != tree.sizes[X.level]:
        raise DomainError("variable not defined on its level's nodes")
    vals = X.values
    for level in range(X.level, k, -1):
        vals = _one_step(tree, level, vals)
    return TreeRandomVariable(k, vals)


def cond_expect_lower(tree: ScenarioTree, X: TreeRandomVariable, k: int) -> TreeRandomVariable:
    return TreeRandomVariable(k, -cond_expect(tree, -X, k).values)


def expectation(tree: ScenarioTree, X: TreeRandomVariable) -> float:
    v = cond_expect(tree, X, 0).values
    if v.ndim > 1:
        return v[0]
    return float(v[0])


def lift(tree: ScenarioTree, X: TreeRandomVariable, to_level: int) -> TreeRandomVariable:
    """Extend a coarse variable to a finer level, constant on subtrees."""
    if to_level < X.level:
        raise DomainError("lift target must be at or below in the tree")
    vals = X.values
    for level in range(X.level, to_level):
        vals = vals[tree.parent[level + 1]]
    return TreeRandomVariable(to_level, vals)


def path_sums(tree: ScenarioTree, Z: MartingaleArray) -> list:
    """Running sums S_k per level node, S_0 = 0 at the root."""
    sums = [np.zeros((1, tree.dim))]
    for k in range(1, tree.depth + 1):
        sums.append(sums[k - 1][tree.parent[k]] + Z.level(k))
    return sums


def _given_parent(tree: ScenarioTree, vals: np.ndarray, k: int) -> np.ndarray:
    """E[vals | level k-1] for a level-k array."""
    return cond_expect(tree, TreeRandomVariable(k, vals), k - 1).values


def _mean_range(tree: ScenarioTree, Z: MartingaleArray, k: int):
    """Upper and lower conditional means of Z_k given level k-1."""
    z = Z.level(k)
    return _given_parent(tree, z, k), -_given_parent(tree, -z, k)


def _predictable_sum(tree: ScenarioTree, upto: int, term) -> np.ndarray:
    """sum_{k<=upto} of the level-(k-1) array term(k), lifted to level upto, as
    one running sum: each node gets the float additions of lift-then-add."""
    total = np.zeros(tree.sizes[0])
    for k in range(1, upto + 1):
        total = (total + term(k))[tree.parent[k]]
    return total


def lindeberg_stat(tree: ScenarioTree, Z: MartingaleArray, eps: float):
    """Sum over k of E[(|Z_k|^2 - eps)^+ | level k-1], aggregated to the root.

    Returns the level-0 variable together with its (equal) upper expectation.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    total = _predictable_sum(tree, tree.depth, lambda k: _given_parent(
        tree, np.maximum(np.sum(Z.level(k) ** 2, axis=1) - eps, 0.0), k))
    root = cond_expect(tree, TreeRandomVariable(tree.depth, total), 0)
    return root, float(root.values[0])


def drift_stat(tree: ScenarioTree, Z: MartingaleArray) -> float:
    """Upper expectation of sum_k (|E[Z_k|k-1]| + |conjugate E[Z_k|k-1]|)."""
    def term(k):
        up, lo = _mean_range(tree, Z, k)
        return np.linalg.norm(up, axis=-1) + np.linalg.norm(lo, axis=-1)

    return expectation(tree, TreeRandomVariable(
        tree.depth, _predictable_sum(tree, tree.depth, term)))


def quadratic_characteristic(tree: ScenarioTree, Z: MartingaleArray, A: np.ndarray,
                             checkpoint: int) -> float:
    """Upper expectation of sum_{k<=checkpoint} E[<Z_k A, Z_k> | level k-1]."""
    A = _check_symmetric(A, tree.dim, "A")
    if not 0 <= checkpoint <= tree.depth:
        raise DomainError("checkpoint outside tree depth")
    total = _predictable_sum(tree, checkpoint, lambda k: _given_parent(
        tree, np.einsum("ni,ij,nj->n", Z.level(k), A, Z.level(k)), k))
    return expectation(tree, TreeRandomVariable(checkpoint, total))


@dataclass
class RosenthalReport:
    first_lhs: float
    first_rhs: float
    first_pass: bool
    second_lhs: float
    second_terms: tuple[float, float, float]
    second_ratio: float


def rosenthal_check(tree: ScenarioTree, p: float = 2.0) -> RosenthalReport:
    """Exact evaluation of the two maximal-moment inequalities on the tree.

    First display (requires conditional upper means <= 0 at every node):
    E[(max_k (S_K - S_k))^2 | root] <= E[sum_k E[X_k^2 | k-1] | root], with
    constant one, the running index including k = 0.  Second display: the
    p-th moment of the running maximum against the three-term sum; since the
    constant is unspecified, the empirical ratio lhs/rhs is reported rather
    than asserted against a guess.
    """
    if tree.dim != 1:
        raise DomainError("1-d only")
    if not 2 <= p < np.inf:
        raise DomainError("p must be >= 2 and finite")
    Z = MartingaleArray(tree)
    ranges = [None] + [_mean_range(tree, Z, k) for k in range(1, tree.depth + 1)]
    if any(np.any(up > 1e-9) for up, _ in ranges[1:]):
        raise DomainError("conditional mean sign violated")

    sums = path_sums(tree, Z)
    run_min = [np.zeros(1)]
    run_absmax = [np.zeros(1)]
    for k in range(1, tree.depth + 1):
        s = sums[k][:, 0]
        run_min.append(np.minimum(run_min[k - 1][tree.parent[k]], s))
        run_absmax.append(np.maximum(run_absmax[k - 1][tree.parent[k]], np.abs(s)))
    terminal = sums[tree.depth][:, 0]

    first_lhs = expectation(tree, TreeRandomVariable(
        tree.depth, (terminal - run_min[tree.depth]) ** 2))
    cond_sq = _predictable_sum(tree, tree.depth, lambda k: _given_parent(
        tree, Z.level(k)[:, 0] ** 2, k))
    first_rhs = expectation(tree, TreeRandomVariable(tree.depth, cond_sq))
    first_pass = first_lhs <= first_rhs + 1e-10 * max(1.0, abs(first_rhs))

    second_lhs = expectation(tree, TreeRandomVariable(
        tree.depth, run_absmax[tree.depth] ** p))
    abs_p = _predictable_sum(tree, tree.depth, lambda k: _given_parent(
        tree, np.abs(Z.level(k)[:, 0]) ** p, k))
    mean_defect = _predictable_sum(tree, tree.depth, lambda k: (
        np.maximum(ranges[k][0][:, 0], 0.0) + np.maximum(-ranges[k][1][:, 0], 0.0)))
    t1 = expectation(tree, TreeRandomVariable(tree.depth, abs_p))
    t2 = expectation(tree, TreeRandomVariable(tree.depth, cond_sq ** (p / 2)))
    t3 = expectation(tree, TreeRandomVariable(tree.depth, mean_defect ** p))
    denom = t1 + t2 + t3
    ratio = 0.0 if second_lhs == 0.0 else second_lhs / denom
    return RosenthalReport(first_lhs, first_rhs, first_pass,
                           second_lhs, (t1, t2, t3), ratio)


def _rand_var(tree: ScenarioTree, level: int, rng) -> TreeRandomVariable:
    return TreeRandomVariable(level, rng.uniform(-2.0, 2.0, size=tree.sizes[level]))


def verify_operator_laws(tree: ScenarioTree, rng=None, samples: int = 3,
                         variables: list | None = None) -> LawReport:
    """Exercise the conditional-operator laws on sampled variables.

    Checks, nodewise and exactly on the finite tree: translation and the
    product rule for measurable factors, aggregation to the plain
    expectation, constants and positive homogeneity, monotonicity,
    subadditivity of differences, the tower rule for both level orders, and
    boundedness preservation.  Random draws are used for `samples` rounds;
    explicit scalar variables can be supplied as well.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    worst = {k: 0.0 for k in ("translation", "product", "aggregation", "constants",
                              "homogeneity", "monotone", "subadditive", "tower",
                              "bounded")}

    def bump(law, arr):
        worst[law] = max(worst[law], float(np.max(np.atleast_1d(arr))))

    supplied = [Y for Y in (variables or []) if Y.level >= 1]
    for draw in range(samples + len(supplied)):
        if draw < samples:
            l = int(rng.integers(1, tree.depth + 1))
            Y = _rand_var(tree, l, rng)
        else:
            Y = supplied[draw - samples]
            l = Y.level
        k = int(rng.integers(0, l))
        X = _rand_var(tree, k, rng)
        Xl = lift(tree, X, l)
        EY = cond_expect(tree, Y, k)

        lhs = cond_expect(tree, TreeRandomVariable(l, Xl.values + Y.values), k)
        rhs = X.values + EY.values
        bump("translation", np.abs(lhs.values - rhs))

        lhs = cond_expect(tree, TreeRandomVariable(l, Xl.values * Y.values), k)
        rhs = (np.maximum(X.values, 0.0) * EY.values
               + np.maximum(-X.values, 0.0) * cond_expect(tree, -Y, k).values)
        bump("product", np.abs(lhs.values - rhs))

        bump("aggregation", abs(expectation(tree, EY) - expectation(tree, Y)))

        c = float(rng.uniform(-3, 3))
        const = TreeRandomVariable(l, np.full(tree.sizes[l], c))
        bump("constants", np.abs(cond_expect(tree, const, k).values - c))
        lam = float(rng.uniform(0, 2.5))
        bump("homogeneity", np.abs(cond_expect(tree, TreeRandomVariable(l, lam * Y.values), k).values
                                   - lam * EY.values))

        Y2 = TreeRandomVariable(l, Y.values + rng.uniform(0.0, 1.5, size=tree.sizes[l]))
        gap = EY.values - cond_expect(tree, Y2, k).values
        bump("monotone", np.maximum(gap, 0.0))

        W = _rand_var(tree, l, rng)
        sub = (EY.values - cond_expect(tree, W, k).values
               - cond_expect(tree, TreeRandomVariable(l, Y.values - W.values), k).values)
        bump("subadditive", np.maximum(sub, 0.0))

        mid = int(rng.integers(k, l + 1))
        two_step = cond_expect(tree, cond_expect(tree, Y, mid), k)
        bump("tower", np.abs(two_step.values - EY.values))
        if k >= 1:
            inner = cond_expect(tree, Y, k - 1)
            lifted = lift(tree, inner, tree.depth)
            back = cond_expect(tree, lifted, k)
            bump("tower", np.abs(back.values - lift(tree, inner, k).values))

        M = float(np.max(np.abs(Y.values)))
        bump("bounded", np.maximum(np.abs(EY.values) - M, 0.0))

    return LawReport(worst)


def random_tree(rng, max_depth: int = 6, max_children: int = 4, max_members: int = 3,
                dim: int = 1, zero_mean: bool = False,
                nonpositive_mean: bool = False) -> ScenarioTree:
    """Seeded bounded generator on the integer lattice, used by the property suites.

    zero_mean pairs up +-v children with symmetric probabilities so every
    member mean vanishes exactly; nonpositive_mean shifts increments down by
    whole lattice steps until every member mean is <= 0 (1-d only).
    """
    depth = int(rng.integers(2, max_depth + 1))
    lattice = LatticeSpec(dim, 1.0, (0.0,) * dim)
    parent = [None]
    inc = [None]
    members = []
    level_size = 1
    for k in range(depth):
        pars, incs, mems = [], [], []
        for j in range(level_size):
            if zero_mean:
                pairs = int(rng.integers(1, max(2, max_children // 2) + 1))
                vecs = []
                for _ in range(pairs):
                    v = rng.integers(1, 4, size=dim)
                    vecs.extend([v.astype(float), -v.astype(float)])
                if rng.random() < 0.5 and len(vecs) < max_children:
                    vecs.append(np.zeros(dim))
                child_inc = np.array(vecs)
                cnt = len(vecs)
                node_members = []
                for _ in range(int(rng.integers(1, max_members + 1))):
                    q = rng.dirichlet(np.ones(pairs))
                    probs = np.zeros(cnt)
                    for i in range(pairs):
                        probs[2 * i] = probs[2 * i + 1] = q[i] / 2
                    if cnt == 2 * pairs + 1:
                        w = rng.uniform(0.2, 0.8)
                        probs[:2 * pairs] *= w
                        probs[-1] = 1.0 - probs[:2 * pairs].sum()
                    node_members.append(probs)
            else:
                cnt = int(rng.integers(1, max_children + 1))
                child_inc = rng.integers(-3, 4, size=(cnt, dim)).astype(float)
                node_members = []
                for _ in range(int(rng.integers(1, max_members + 1))):
                    node_members.append(rng.dirichlet(np.ones(cnt)))
                reach = np.maximum.reduce([np.asarray(p) for p in node_members])
                if np.any(reach <= 0.0):
                    node_members[0] = np.full(cnt, 1.0 / cnt)
                if nonpositive_mean:
                    if dim != 1:
                        raise DomainError("1-d only")
                    top = max(float(np.dot(p, child_inc[:, 0])) for p in node_members)
                    if top > 0:
                        shift = np.ceil(top - 1e-12)
                        child_inc = child_inc - shift
            pars.extend([j] * cnt)
            incs.extend(child_inc)
            mems.append(node_members)
        parent.append(np.array(pars))
        inc.append(np.array(incs))
        members.append(mems)
        level_size = len(pars)
    return ScenarioTree(lattice, parent, inc, members)


def iid_level_tree(X, depth: int, scale: float = 1.0) -> ScenarioTree:
    """Full branching tree whose every node carries one ambiguity family.

    Children at each node are the union of the family's support points and
    each transition member is one family member; edge increments are the
    scaled support points.  With c support points the tree has
    (c^(depth+1) - 1)/(c - 1) nodes (depth + 1 if c = 1), so depth must
    stay small.  Every node of a level shares one member list, which
    ScenarioTree resolves, checks and stores once, so construction runs
    Python code per level, not per node; the per-node work is dict lookups
    and numpy.
    """
    lat0 = X.lattice
    support = X.members[0].support
    for dist in X.members[1:]:
        if dist.support.shape != support.shape or not np.array_equal(dist.support, support):
            raise DomainError("family members must share one support listing")
    cnt = support.shape[0]
    probs = [dist.probs for dist in X.members]
    lattice = LatticeSpec(lat0.dimension, lat0.step * scale,
                          tuple(o * scale for o in lat0.origin))
    parent = [None]
    inc = [None]
    members = []
    level_size = 1
    for _ in range(depth):
        parent.append(np.repeat(np.arange(level_size, dtype=np.int32), cnt))
        inc.append(np.tile(support * scale, (level_size, 1)))
        members.append([probs] * level_size)
        level_size *= cnt
    return ScenarioTree(lattice, parent, inc, members)
