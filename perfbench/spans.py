"""Spans recorded from outside gexpect, around calls into its public functions.

The benchmark replaces every binding of a traced function (the defining
module's attribute, the package re-export and every ``from x import f``
copy in another gexpect module) with a wrapper that records a span:
name, parent span, start and end in ns, work counts computed from the
call's public inputs, and the ns the tracer spent computing counts inside
the span.  Spans stay in memory and are written once, at exit.

Computing a count runs in the caller's span, before the callee's span
opens or after it closes.  That time is the tracer's, not gexpect's, so
it is taken out of the duration of every span open around it: busy and
self times cover gexpect's work only.

Work counts are computed, not measured: they are derived from the
arguments (lattice boxes, grid sizes, tree level sizes) the way the
documented algorithms size their work, so they repeat exactly for the
same inputs.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Bytes one explicit march step must move per grid node at the least: one
# float64 read and one written.  bytes_computed is node_steps times this.
BYTES_PER_NODE_STEP = 16


class Tracer:
    """In-memory span recorder.  One instance per benchmark process."""

    def __init__(self):
        # (id, parent, name, t0_ns, t1_ns, nested, counts, phase, hidden_ns)
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._active = defaultdict(int)
        self._next_id = 1
        self._targets = []  # (owner, attribute, original, wrapper)

    def open(self, name: str, counts=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        nested = self._active[name] > 0
        self._active[name] += 1
        self._stack.append([sid, parent, name, nested, counts, time.perf_counter_ns(), 0])

    def close(self) -> int:
        t1 = time.perf_counter_ns()
        sid, parent, name, nested, counts, t0, hidden = self._stack.pop()
        self._active[name] -= 1
        self.hide(hidden)  # the parent's duration covers it too
        self.spans.append((sid, parent, name, t0, t1, nested, counts, self.phase, hidden))
        return len(self.spans) - 1

    def hide(self, ns: int):
        """Take `ns` of the tracer's own time out of the innermost open span."""
        if self._stack:
            self._stack[-1][6] += ns

    def set_counts(self, index: int, counts: dict):
        s = self.spans[index]
        self.spans[index] = s[:6] + (counts,) + s[7:]

    def wrap(self, fn, name: str, count=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if count is not None:
                c0 = time.perf_counter_ns()
                counts = count(*args, **kwargs)
                tracer.hide(time.perf_counter_ns() - c0)
            tracer.open(name, counts)
            try:
                result = fn(*args, **kwargs)
            finally:
                index = tracer.close()
            if after is not None:
                c0 = time.perf_counter_ns()
                tracer.set_counts(index, after(result, *args, **kwargs))
                tracer.hide(time.perf_counter_ns() - c0)
            return result

        return traced

    def prepare(self, modules):
        """Find every binding of each traced function in `modules`."""
        for module_name, attr, name, count, after in _TARGETS:
            owner = sys.modules[module_name]
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, count, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._targets.append((mod, key, original, wrapper))
        for cls_path, attr, name, after in _METHOD_TARGETS:
            module_name, cls_name = cls_path.rsplit(".", 1)
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._targets.append((cls, attr, original,
                                  self.wrap(original, name, None, after)))

    def install(self):
        for owner, attr, _original, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._targets:
            setattr(owner, attr, original)

    def binding_count(self) -> int:
        return len(self._targets)

    def write(self, path: str):
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for s in self.spans:
                handle.write(json.dumps(s, separators=(",", ":")) + "\n")


# ---- work counts from public inputs -------------------------------------

def _law_stats(law):
    """(lowest, highest coordinate, point count) over positive-probability points."""
    lo, hi, points = None, None, 0
    for i, dist in enumerate(law.members):
        coords = law.member_coords(i)[dist.probs > 0.0]
        points += coords.shape[0]
        cmin, cmax = coords.min(axis=0), coords.max(axis=0)
        lo = cmin if lo is None else np.minimum(lo, cmin)
        hi = cmax if hi is None else np.maximum(hi, cmax)
    return lo, hi, points


def _level_boxes(laws):
    """Per-level lattice box extents of the partial sums and point counts."""
    cache = {}
    lo = np.zeros(laws[0].dim, dtype=np.int64)
    hi = lo.copy()
    extents = [hi - lo + 1]
    points = []
    for law in laws:
        if id(law) not in cache:
            cache[id(law)] = _law_stats(law)
        zlo, zhi, pts = cache[id(law)]
        lo = lo + zlo
        hi = hi + zhi
        extents.append(hi - lo + 1)
        points.append(pts)
    return extents, points


def sum_dp_shift_adds(laws, *args, **kwargs) -> dict:
    """Elements added by the backward sum DP: at level k, every
    positive-probability point of every member shifts and adds the whole
    level k-1 box."""
    extents, points = _level_boxes(list(laws))
    total = sum(pts * int(np.prod(extents[k])) for k, pts in enumerate(points))
    return {"shift_adds": total}


def two_point_shift_adds(laws, k1, *args, **kwargs) -> dict:
    """Elements added by the two-checkpoint DP: between the checkpoints the
    state carries the level-k1 box as a second axis."""
    extents, points = _level_boxes(list(laws))
    lengths = [int(e[0]) for e in extents]
    total = 0
    for k in range(1, len(points) + 1):
        width = lengths[k1] if k > k1 else 1
        total += points[k - 1] * width * lengths[k - 1]
    return {"shift_adds": total}


def _gfunction(G):
    from gexpect.gfunc import GFunction, SigmaInterval

    return GFunction.from_interval(G) if isinstance(G, SigmaInterval) else G


def gnormal_node_steps(G, phi, horizon=1.0, accuracy="default", half_width=None) -> dict:
    """Grid nodes times time steps of the coarse and the fine march."""
    from gexpect import pde

    G = _gfunction(G)
    dim = G.dimension
    nodes = (pde.NODES_1D if dim == 1 else pde.NODES_2D)[accuracy]
    L = half_width if half_width is not None else max(
        pde.MARGIN_STDS * math.sqrt(G.sigma_sq_max * horizon), 1e-6)
    total = 0
    for count in (nodes, 2 * nodes - 1):
        half = (count - 1) // 2
        steps = pde.Grid.build(dim, L, L / half, horizon, G.sigma_sq_max).steps
        total += count ** dim * steps
    return {"node_steps": total, "bytes_computed": BYTES_PER_NODE_STEP * total}


def fdd_node_steps(G, times, phi, accuracy="default") -> dict:
    """Nodes times steps of every nested 1-d march, coarse and fine: the
    march over (t_{j-1}, t_j] runs on a j-dimensional state array."""
    from gexpect import pde

    G = _gfunction(G)
    sig = G.sigma_sq_max
    times = [float(t) for t in times]
    p = len(times)
    deltas = [times[0]] + [b - a for a, b in zip(times, times[1:])]
    L = pde.MARGIN_STDS * math.sqrt(sig) * sum(math.sqrt(d) for d in deltas)
    nodes = pde.NODES_FDD[accuracy]
    if p == 3:
        nodes = (nodes // 2) | 1
    total = 0
    for count in (nodes, 2 * nodes - 1):
        h = L / ((count - 1) // 2)
        for j in range(p, 0, -1):
            steps = pde.Grid.build(1, L, h, deltas[j - 1], sig).steps
            total += count ** j * steps
    return {"node_steps": total}


def cond_expect_visits(tree, X, k) -> dict:
    """Nodes of every level the backward recursion folds into its parents."""
    return {"node_visits": int(sum(tree.sizes[k + 1:X.level + 1]))}


def _cases(rng, cases, *args, **kwargs) -> dict:
    return {"cases": int(cases)}


def _tree_nodes(tree, *args, **kwargs) -> dict:
    return {"nodes": int(tree.node_count)}


def _written_bytes(result, report, path) -> dict:
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, count before the call, count after it)
_TARGETS = [
    ("gexpect.ambiguity", "expect_upper", "ambiguity.expect_upper", None, None),
    ("gexpect.ambiguity", "independent_sum_expect", "ambiguity.sum_dp",
     sum_dp_shift_adds, None),
    ("gexpect.cltlab", "two_point_sum_expect", "cltlab.two_point_dp",
     two_point_shift_adds, None),
    ("gexpect.cltlab", "run_clt_experiment", "cltlab.experiment", None, None),
    ("gexpect.cltlab", "run_fdd_experiment", "cltlab.experiment", None, None),
    ("gexpect.cltlab", "check_iid_necessary_conditions", "cltlab.experiment", None, None),
    ("gexpect.cltlab", "estimate_limit_G", "cltlab.experiment", None, None),
    ("gexpect.pde", "gnormal_expect", "pde.gnormal", gnormal_node_steps, None),
    ("gexpect.pde", "gbm_fdd_expect", "pde.fdd", fdd_node_steps, None),
    ("gexpect.trees", "cond_expect", "trees.cond_expect", cond_expect_visits, None),
    ("gexpect.trees", "random_tree", "trees.build", None, _tree_nodes),
    ("gexpect.trees", "iid_level_tree", "trees.build", None, _tree_nodes),
    ("gexpect.gfunc", "g_eval", "gfunc.g_eval", None, None),
    ("gexpect.suites", "axiom_suite", "suites", _cases, None),
    ("gexpect.suites", "tree_law_suite", "suites", _cases, None),
    ("gexpect.suites", "g_law_suite", "suites", _cases, None),
    ("gexpect.suites", "rosenthal_suite", "suites", _cases, None),
    ("gexpect.config", "load_config", "config.load", None, None),
    ("gexpect.cli", "run_config", "cli.run_config", None, None),
]

_METHOD_TARGETS = [
    ("gexpect.reporting.ExperimentReport", "to_csv", "reporting.write", _written_bytes),
    ("gexpect.reporting.ExperimentReport", "write_summary", "reporting.write",
     _written_bytes),
]


# ---- per-layer metrics from spans ---------------------------------------

def _layer_totals(spans) -> dict:
    """Per span name: calls, busy ns (outermost spans only), self ns, counts.

    A span's duration leaves out the tracer's time inside it (hidden_ns).
    """
    child_ns = defaultdict(int)
    for sid, parent, name, t0, t1, nested, counts, phase, hidden in spans:
        child_ns[parent] += t1 - t0 - hidden
    totals = defaultdict(lambda: defaultdict(float))
    for sid, parent, name, t0, t1, nested, counts, phase, hidden in spans:
        t = totals[name]
        t["calls"] += 1
        if not nested:
            t["busy_ns"] += t1 - t0 - hidden
        t["self_ns"] += t1 - t0 - hidden - child_ns[sid]
        for key, value in (counts or {}).items():
            t[key] += value
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one set of spans.

    Rates of a layer that did no work read 0.
    """
    t = _layer_totals(spans)
    m = {}

    def busy(name):
        return t[name]["busy_ns"] / 1e9

    m["ambiguity.expect_upper.calls"] = int(t["ambiguity.expect_upper"]["calls"])
    m["ambiguity.expect_upper.busy_s"] = busy("ambiguity.expect_upper")
    m["ambiguity.expect_upper.us_per_call"] = _ratio(
        t["ambiguity.expect_upper"]["busy_ns"] / 1e3, t["ambiguity.expect_upper"]["calls"])
    for layer, key in (("ambiguity.sum_dp", "shift_adds"),
                       ("cltlab.two_point_dp", "shift_adds"),
                       ("pde.gnormal", "node_steps"),
                       ("pde.fdd", "node_steps"),
                       ("trees.cond_expect", "node_visits")):
        unit = {"shift_adds": "ns_per_shift_add", "node_steps": "ns_per_node_step",
                "node_visits": "ns_per_node"}[key]
        m[f"{layer}.calls"] = int(t[layer]["calls"])
        m[f"{layer}.busy_s"] = busy(layer)
        m[f"{layer}.{key}"] = int(t[layer][key])
        m[f"{layer}.{unit}"] = _ratio(t[layer]["busy_ns"], t[layer][key])
    m["pde.gnormal.bytes_computed"] = int(t["pde.gnormal"]["bytes_computed"])
    m["cltlab.experiment.self_s"] = t["cltlab.experiment"]["self_ns"] / 1e9
    m["trees.build.nodes"] = int(t["trees.build"]["nodes"])
    m["trees.build.busy_s"] = busy("trees.build")
    m["gfunc.g_eval.calls"] = int(t["gfunc.g_eval"]["calls"])
    m["gfunc.g_eval.busy_s"] = busy("gfunc.g_eval")
    m["gfunc.g_eval.us_per_call"] = _ratio(t["gfunc.g_eval"]["busy_ns"] / 1e3,
                                           t["gfunc.g_eval"]["calls"])
    m["suites.cases"] = int(t["suites"]["cases"])
    m["suites.self_s"] = t["suites"]["self_ns"] / 1e9
    m["config.load.busy_s"] = busy("config.load")
    m["cli.run_config.self_s"] = t["cli.run_config"]["self_ns"] / 1e9
    m["reporting.write.busy_s"] = busy("reporting.write")
    m["reporting.bytes"] = int(t["reporting.write"]["bytes"])
    return m
