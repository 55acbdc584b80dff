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


@dataclass(frozen=True)
class _RowGroup:
    """The (node, member) rows of one level whose nodes have c children.

    Nodes are in level order and each node's rows are contiguous, in member
    order, so np.maximum.reduceat over `seg` takes the member maximum.
    """

    probs: np.ndarray  # (rows, 1, c) transition probabilities
    first: np.ndarray  # (rows,) index of the row's first child
    nodes: np.ndarray  # (n,) the group's nodes in the parent level
    seg: np.ndarray    # (n,) offset of each node's first row


class ScenarioTree:
    """Rooted tree of fixed depth with per-node transition ambiguity.

    Level arrays (children of consecutive parents are contiguous):
      parent[k][i]   index in level k-1 of node i's parent (k >= 1)
      inc[k][i]      d-vector increment on the edge into node i (k >= 1)
      members[k][j]  list of transition probability vectors over the children
                     of node j at level k (k <= depth-1), aligned with the
                     contiguous child block
    Construction also flattens members[k] into rows[k], one _RowGroup per
    child count, which the level operator and the validation work on.
    """

    def __init__(self, lattice: LatticeSpec, parent: list, inc: list, members: list):
        self.lattice = lattice
        self.dim = lattice.dimension
        self.depth = len(parent) - 1
        if self.depth < 1:
            raise DomainError("tree needs at least one level")
        self.parent = [None] + [np.asarray(p, dtype=np.int64) for p in parent[1:]]
        self.inc = [None] + [np.atleast_2d(np.asarray(z, dtype=float)) for z in inc[1:]]
        self.members = members
        self.sizes = [1] + [len(p) for p in self.parent[1:]]
        self._index_children()
        self.rows = [self._level_rows(k) for k in range(self.depth)]
        for k in range(1, self.depth + 1):
            if self.inc[k].shape != (self.sizes[k], self.dim):
                raise DomainError(f"level {k}: increment array shape mismatch")
            self.lattice.to_integer(self.inc[k])

    def _index_children(self):
        self.child_start = []
        self.child_count = []
        for k in range(self.depth):
            n_par = self.sizes[k]
            par = self.parent[k + 1]
            if np.any(np.diff(par) < 0):
                raise DomainError("children must be grouped by parent in order")
            count = np.bincount(par, minlength=n_par)
            start = np.concatenate([[0], np.cumsum(count)[:-1]])
            self.child_start.append(start.astype(np.int64))
            self.child_count.append(count.astype(np.int64))

    def _level_rows(self, k: int) -> list:
        """Validate members[k] and group its rows by child count."""
        mems = self.members[k]
        if len(mems) != self.sizes[k]:
            raise DomainError(f"level {k}: members list does not cover all nodes")
        count = self.child_count[k]
        childless = np.flatnonzero(count == 0)
        if childless.size:
            raise DomainError(f"level {k} node {childless[0]}: every path must reach depth")
        n_mem = np.fromiter(map(len, mems), dtype=np.int64, count=len(mems))
        if np.any(n_mem == 0):
            raise DomainError("node needs at least one transition member")
        rows = [np.asarray(p, dtype=float) for node in mems for p in node]
        row_count = np.repeat(count, n_mem)
        lengths = np.fromiter((p.size if p.ndim == 1 else -1 for p in rows),
                              dtype=np.int64, count=len(rows))
        if np.any(lengths != row_count):
            raise DomainError("member length does not match child count")
        row_first = np.repeat(self.child_start[k], n_mem)
        groups = []
        for c in np.unique(count):
            nodes = np.flatnonzero(count == c)
            picked = np.flatnonzero(row_count == c)
            probs = np.array([rows[i] for i in picked]).reshape(-1, 1, c)
            if not np.all(np.isfinite(probs)):
                raise DomainError("non-finite transition probability")
            if np.any(probs < 0.0):
                raise DomainError("negative transition probability")
            if np.any(np.abs(probs.sum(axis=2) - 1.0) > PROB_TOL):
                raise DomainError("transition probabilities do not sum to 1")
            seg = np.cumsum(n_mem[nodes]) - n_mem[nodes]
            if np.any(np.maximum.reduceat(probs[:, 0], seg) <= 0.0):
                raise DomainError("child unreachable under every member")
            # int32 halves the index memory; trees stay far below 2**31 nodes.
            groups.append(_RowGroup(probs, row_first[picked].astype(np.int32),
                                    nodes.astype(np.int32), seg.astype(np.int32)))
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

    Each row's member mean is one (1, c) @ (c, d) product, the same matmul
    kernel as p @ block on that node's child block, so the values equal the
    per-node loop's bit for bit.  Summing with np.add.reduceat instead would
    change the last bit of most levels.
    """
    k = level - 1
    flat = vals.reshape(len(vals), -1)
    out = np.empty((tree.sizes[k], flat.shape[1]))
    for g in tree.rows[k]:
        block = flat[g.first[:, None] + np.arange(g.probs.shape[2])]
        means = np.matmul(g.probs, block)[:, 0]
        out[g.nodes] = np.maximum.reduceat(means, g.seg)
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


def lindeberg_stat(tree: ScenarioTree, Z: MartingaleArray, eps: float):
    """Sum over k of E[(|Z_k|^2 - eps)^+ | level k-1], aggregated to the root.

    Returns the level-0 variable together with its (equal) upper expectation.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    total = np.zeros(tree.sizes[tree.depth])
    for k in range(1, tree.depth + 1):
        term = np.maximum(np.sum(Z.level(k) ** 2, axis=1) - eps, 0.0)
        cond = cond_expect(tree, TreeRandomVariable(k, term), k - 1)
        total = total + lift(tree, cond, tree.depth).values
    root = cond_expect(tree, TreeRandomVariable(tree.depth, total), 0)
    return root, float(root.values[0])


def drift_stat(tree: ScenarioTree, Z: MartingaleArray) -> float:
    """Upper expectation of sum_k (|E[Z_k|k-1]| + |conjugate E[Z_k|k-1]|)."""
    total = np.zeros(tree.sizes[tree.depth])
    for k in range(1, tree.depth + 1):
        var = TreeRandomVariable(k, Z.level(k))
        up = cond_expect(tree, var, k - 1).values
        lo = -cond_expect(tree, -var, k - 1).values
        term = np.linalg.norm(up, axis=-1) + np.linalg.norm(lo, axis=-1)
        total = total + lift(tree, TreeRandomVariable(k - 1, term), tree.depth).values
    return expectation(tree, TreeRandomVariable(tree.depth, total))


def quadratic_characteristic(tree: ScenarioTree, Z: MartingaleArray, A: np.ndarray,
                             checkpoint: int) -> float:
    """Upper expectation of sum_{k<=checkpoint} E[<Z_k A, Z_k> | level k-1]."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape != (tree.dim, tree.dim) or not np.allclose(A, A.T, atol=1e-12):
        raise DomainError("A must be symmetric and match the tree dimension")
    if not 0 <= checkpoint <= tree.depth:
        raise DomainError("checkpoint outside tree depth")
    if checkpoint == 0:
        return 0.0
    total = np.zeros(tree.sizes[checkpoint])
    for k in range(1, checkpoint + 1):
        z = Z.level(k)
        quad = np.einsum("ni,ij,nj->n", z, A, z)
        cond = cond_expect(tree, TreeRandomVariable(k, quad), k - 1)
        total = total + lift(tree, cond, checkpoint).values
    return expectation(tree, TreeRandomVariable(checkpoint, total))


@dataclass
class RosenthalReport:
    first_lhs: float
    first_rhs: float
    first_pass: bool
    second_lhs: float
    second_terms: tuple[float, float, float]
    second_ratio: float


def rosenthal_check(tree: ScenarioTree, Z: MartingaleArray | None = None,
                    p: float = 2.0) -> RosenthalReport:
    """Exact evaluation of the two maximal-moment inequalities on the tree.

    First display (requires conditional upper means <= 0 at every node):
    E[(max_k (S_K - S_k))^2 | root] <= E[sum_k E[X_k^2 | k-1] | root], with
    constant one, the running index including k = 0.  Second display: the
    p-th moment of the running maximum against the three-term sum; since the
    constant is unspecified, the empirical ratio lhs/rhs is reported rather
    than asserted against a guess.
    """
    if Z is None:
        Z = MartingaleArray(tree)
    if tree.dim != 1:
        raise DomainError("1-d only")
    if p < 2:
        raise DomainError("p must be >= 2")

    for k in range(1, tree.depth + 1):
        up = cond_expect(tree, TreeRandomVariable(k, Z.level(k)[:, 0]), k - 1).values
        if np.any(up > 1e-9):
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
    cond_sq = np.zeros(tree.sizes[tree.depth])
    for k in range(1, tree.depth + 1):
        c = cond_expect(tree, TreeRandomVariable(k, Z.level(k)[:, 0] ** 2), k - 1)
        cond_sq = cond_sq + lift(tree, c, tree.depth).values
    first_rhs = expectation(tree, TreeRandomVariable(tree.depth, cond_sq))
    first_pass = first_lhs <= first_rhs + 1e-10 * max(1.0, abs(first_rhs))

    second_lhs = expectation(tree, TreeRandomVariable(
        tree.depth, run_absmax[tree.depth] ** p))
    abs_p = np.zeros(tree.sizes[tree.depth])
    mean_defect = np.zeros(tree.sizes[tree.depth])
    for k in range(1, tree.depth + 1):
        zk = Z.level(k)[:, 0]
        c = cond_expect(tree, TreeRandomVariable(k, np.abs(zk) ** p), k - 1)
        abs_p = abs_p + lift(tree, c, tree.depth).values
        up = cond_expect(tree, TreeRandomVariable(k, zk), k - 1).values
        lo = -cond_expect(tree, TreeRandomVariable(k, -zk), k - 1).values
        defect = np.maximum(up, 0.0) + np.maximum(-lo, 0.0)
        mean_defect = mean_defect + lift(tree, TreeRandomVariable(k - 1, defect),
                                         tree.depth).values
    t1 = expectation(tree, TreeRandomVariable(tree.depth, abs_p))
    t2 = expectation(tree, TreeRandomVariable(tree.depth, cond_sq ** (p / 2)))
    t3 = expectation(tree, TreeRandomVariable(tree.depth, mean_defect ** p))
    denom = t1 + t2 + t3
    ratio = 0.0 if second_lhs == 0.0 else second_lhs / denom
    return RosenthalReport(first_lhs, first_rhs, first_pass,
                           second_lhs, (t1, t2, t3), ratio)


@dataclass
class LawCheckReport:
    """Worst violation per operator law, with the shared pass tolerance."""

    violations: dict
    tolerance: float = 1e-10

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.violations.values())


def _rand_var(tree: ScenarioTree, level: int, rng) -> TreeRandomVariable:
    return TreeRandomVariable(level, rng.uniform(-2.0, 2.0, size=tree.sizes[level]))


def verify_operator_laws(tree: ScenarioTree, rng=None, samples: int = 3,
                         variables: list | None = None) -> LawCheckReport:
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

        lhs = cond_expect(tree, TreeRandomVariable(l, Xl.values + Y.values), k)
        rhs = X.values + cond_expect(tree, Y, k).values
        bump("translation", np.abs(lhs.values - rhs))

        lhs = cond_expect(tree, TreeRandomVariable(l, Xl.values * Y.values), k)
        rhs = (np.maximum(X.values, 0.0) * cond_expect(tree, Y, k).values
               + np.maximum(-X.values, 0.0) * cond_expect(tree, -Y, k).values)
        bump("product", np.abs(lhs.values - rhs))

        bump("aggregation", abs(expectation(tree, cond_expect(tree, Y, k))
                                - expectation(tree, Y)))

        c = float(rng.uniform(-3, 3))
        const = TreeRandomVariable(l, np.full(tree.sizes[l], c))
        bump("constants", np.abs(cond_expect(tree, const, k).values - c))
        lam = float(rng.uniform(0, 2.5))
        bump("homogeneity", np.abs(cond_expect(tree, TreeRandomVariable(l, lam * Y.values), k).values
                                   - lam * cond_expect(tree, Y, k).values))

        Y2 = TreeRandomVariable(l, Y.values + rng.uniform(0.0, 1.5, size=tree.sizes[l]))
        gap = cond_expect(tree, Y, k).values - cond_expect(tree, Y2, k).values
        bump("monotone", np.maximum(gap, 0.0))

        W = _rand_var(tree, l, rng)
        sub = (cond_expect(tree, Y, k).values - cond_expect(tree, W, k).values
               - cond_expect(tree, TreeRandomVariable(l, Y.values - W.values), k).values)
        bump("subadditive", np.maximum(sub, 0.0))

        mid = int(rng.integers(k, l + 1))
        two_step = cond_expect(tree, cond_expect(tree, Y, mid), k)
        bump("tower", np.abs(two_step.values - cond_expect(tree, Y, k).values))
        if k >= 1:
            inner = cond_expect(tree, Y, k - 1)
            lifted = lift(tree, inner, tree.depth)
            back = cond_expect(tree, lifted, k)
            bump("tower", np.abs(back.values - lift(tree, inner, k).values))

        M = float(np.max(np.abs(Y.values)))
        bump("bounded", np.maximum(np.abs(cond_expect(tree, Y, k).values) - M, 0.0))

    return LawCheckReport(worst)


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
    stay small.  Every node of a level shares one member list.
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
        parent.append(np.repeat(np.arange(level_size), cnt))
        inc.append(np.tile(support * scale, (level_size, 1)))
        members.append([probs] * level_size)
        level_size *= cnt
    return ScenarioTree(lattice, parent, inc, members)


def tree_to_text(tree: ScenarioTree) -> str:
    """Serialise as a line-oriented document: nodes with parent index and
    edge increment, then per-node member distributions."""
    lines = [f"tree v1 depth={tree.depth} dim={tree.dim} "
             f"step={tree.lattice.step!r} "
             f"origin={','.join(repr(o) for o in tree.lattice.origin)}"]
    node_id = {}
    nid = 0
    for k in range(tree.depth + 1):
        for j in range(tree.sizes[k]):
            node_id[(k, j)] = nid
            if k == 0:
                lines.append(f"node {nid} parent -")
            else:
                pid = node_id[(k - 1, int(tree.parent[k][j]))]
                vec = ",".join(repr(float(v)) for v in tree.inc[k][j])
                lines.append(f"node {nid} parent {pid} inc {vec}")
            nid += 1
    for k in range(tree.depth):
        for j in range(tree.sizes[k]):
            blocks = " ".join(",".join(repr(float(p)) for p in mem)
                              for mem in tree.members[k][j])
            lines.append(f"members {node_id[(k, j)]} {blocks}")
    return "\n".join(lines) + "\n"


def tree_from_text(text: str) -> ScenarioTree:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "tree" or head[1] != "v1":
        raise DomainError("unrecognised tree document header")
    meta = dict(item.split("=", 1) for item in head[2:])
    depth = int(meta["depth"])
    dim = int(meta["dim"])
    lattice = LatticeSpec(dim, float(meta["step"]),
                          tuple(float(v) for v in meta["origin"].split(",")))
    parents = {}
    incs = {}
    member_map = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "node":
            nid = int(parts[1])
            if parts[3] == "-":
                parents[nid] = None
            else:
                parents[nid] = int(parts[3])
                incs[nid] = np.array([float(v) for v in parts[5].split(",")])
        elif parts[0] == "members":
            member_map[int(parts[1])] = [np.array([float(v) for v in blk.split(",")])
                                         for blk in parts[2:]]
        else:
            raise DomainError(f"unrecognised line: {ln}")
    level_of = {}
    for nid in sorted(parents):
        level_of[nid] = 0 if parents[nid] is None else level_of[parents[nid]] + 1
    pos = {}
    parent_arrays = [None]
    inc_arrays = [None]
    members = []
    for k in range(depth + 1):
        ids = [nid for nid in sorted(parents) if level_of[nid] == k]
        ids.sort(key=lambda nid: (pos[parents[nid]] if k else 0, nid))
        for i, nid in enumerate(ids):
            pos[nid] = i
        if k >= 1:
            parent_arrays.append(np.array([pos[parents[nid]] for nid in ids]))
            inc_arrays.append(np.array([incs[nid] for nid in ids]))
        if k < depth:
            members.append([])
    for k in range(depth):
        ids = [nid for nid in sorted(parents) if level_of[nid] == k]
        ids.sort(key=lambda nid: pos[nid])
        members[k] = [member_map[nid] for nid in ids]
    return ScenarioTree(lattice, parent_arrays, inc_arrays, members)
