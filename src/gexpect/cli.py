"""Batch front end: load a config, run the named suite, write reports.

Outputs per run: <out>/<output>.csv (fixed columns, versioned header
comment), <out>/<output>_summary.txt (one verdict line per check), and with
--dump-fields (pde configs only) <out>/<output>_fields.csv.  Exit status: 0
all hard checks pass, 1 a hard check failed, 2 config rejected, 3 a size cap
tripped.  Reruns with the same seed produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import cltlab, pde, suites
from .ambiguity import DEFAULT_MAX_SUM_NODES
from .config import ExperimentConfig, load_config, with_seed
from .errors import ConfigError, DomainError, ResourceCapError
from .reporting import LAW_TOLERANCE, ExperimentReport, write_rows_csv


# kind -> (suite function in gexpect.suites, first CSV column, the suite's
# parameters in call order with their defaults, the parameters named in the
# provenance).  The suite is looked up when it runs, so that a wrapped or
# patched suites function is the one called.
LAW_SUITES = {
    "axioms": ("axiom_suite", "case", {"trials": 1000, "pairs": 10},
               ("trials", "pairs")),
    "tree-laws": ("tree_law_suite", "tree",
                  {"trees": 100, "max_depth": 6, "max_children": 4, "max_members": 3},
                  ("trees",)),
    "g-laws": ("g_law_suite", "case", {"trials": 1000}, ("trials",)),
}


def run_law_suite(cfg: ExperimentConfig, rng) -> ExperimentReport:
    suite, first, defaults, shown = LAW_SUITES[cfg.kind]
    args = {name: cfg.params.get(name, default) for name, default in defaults.items()}
    tol = cfg.params.get("tolerance", LAW_TOLERANCE)
    rows, worst = getattr(suites, suite)(rng, *args.values())
    report = ExperimentReport(cfg.kind, (first, "law", "violation"),
                              provenance={name: args[name] for name in shown})
    report.rows = [dict(zip(report.columns, row)) for row in rows]
    report.add_verdict("max_violation", worst <= tol, worst, f"tolerance {tol:g}")
    return report


def run_rosenthal(cfg: ExperimentConfig, rng) -> ExperimentReport:
    p = cfg.params
    trees, power = p.get("trees", 100), p.get("p", 2.0)
    rows, failures, worst_ratio = suites.rosenthal_suite(
        rng, trees, power, p.get("max_depth", 5))
    report = ExperimentReport(
        "rosenthal",
        ("tree", "first_lhs", "first_rhs", "first_pass", "second_lhs", "second_ratio"),
        provenance={"trees": trees, "p": power})
    report.rows = rows
    report.add_verdict("failures", failures == 0, float(failures))
    report.add_verdict("ratio_finite", bool(np.isfinite(worst_ratio)), worst_ratio)
    return report


def run_pde(cfg: ExperimentConfig, rng) -> ExperimentReport:
    p = cfg.params
    horizon = p.get("horizon", 1.0)
    accuracy = p.get("accuracy", "default")
    report = ExperimentReport(
        "pde", ("functional", "value", "reference", "gap", "error_bar", "h", "margin"),
        provenance={"accuracy": accuracy,
                    "generator": cfg.inputs["generator_label"], "horizon": horizon})

    cases = p["cases"]
    estimates = pde.gnormal_expect(cfg.inputs["generator"], cfg.inputs["functionals"],
                                   horizon=horizon, accuracy=accuracy)
    for case, est in zip(cases, estimates):
        gap = abs(est.value - case["reference"])
        report.add_row(functional=case["functional"], value=est.value,
                       reference=case["reference"], gap=gap, error_bar=est.error_bar,
                       h=est.spacing, margin=est.margin)
        report.add_verdict(f"gap[{case['functional']}]", gap <= case["tolerance"], gap,
                           f"tolerance {case['tolerance']:g}")
        report.add_verdict(f"bar_brackets[{case['functional']}]",
                           est.error_bar >= gap, est.error_bar - gap)
    return report


def write_fields(cfg: ExperimentConfig, out_dir: str):
    """Write the G-heat snapshots of a pde config's first case to <output>_fields.csv."""
    G, phi = cfg.inputs["generator"], cfg.inputs["functionals"][0]
    horizon = cfg.params.get("horizon", 1.0)
    half = pde._auto_half_width(G, horizon)
    grid = pde.Grid.build(1, half, half / 60, horizon, G.sigma_sq_max)
    field, snaps = pde.solve_gheat(G, phi, grid, snapshot_count=4)
    write_rows_csv(os.path.join(out_dir, f"{cfg.output}_fields.csv"), "pde-fields",
                   ("time", "x", "y", "value"), pde.fields_rows(grid, field, snaps))


def run_clt(cfg: ExperimentConfig, rng) -> ExperimentReport:
    p = cfg.params
    return cltlab.run_clt_experiment(
        cfg.inputs["rows"], cfg.inputs["functionals"], accuracy=p.get("accuracy", "default"),
        gap_tolerance=p.get("tolerance"),
        max_nodes=p.get("max_nodes", DEFAULT_MAX_SUM_NODES))


def run_fdd(cfg: ExperimentConfig, rng) -> ExperimentReport:
    p = cfg.params
    return cltlab.run_fdd_experiment(cfg.inputs["rows"], p["times"], cfg.inputs["functional"],
                                     accuracy=p.get("accuracy", "default"),
                                     gap_tolerance=p.get("tolerance"))


def run_iid_conditions(cfg: ExperimentConfig, rng) -> ExperimentReport:
    p = cfg.params
    return cltlab.check_iid_necessary_conditions(
        cfg.inputs["rows"], p["c_schedule"], p["x_schedule"],
        tolerance=p.get("tolerance", cltlab.ESTIMATE_TOLERANCE))


RUNNERS = {**dict.fromkeys(LAW_SUITES, run_law_suite), "pde": run_pde, "clt": run_clt,
           "fdd": run_fdd, "rosenthal": run_rosenthal, "iid-conditions": run_iid_conditions}


def run_config(cfg: ExperimentConfig, out_dir: str, dump_fields: bool = False) -> ExperimentReport:
    report = RUNNERS[cfg.kind](cfg, np.random.default_rng(cfg.seed))
    if dump_fields:
        write_fields(cfg, out_dir)
    report.provenance["seed"] = cfg.seed
    report.to_csv(os.path.join(out_dir, f"{cfg.output}.csv"))
    report.write_summary(os.path.join(out_dir, f"{cfg.output}_summary.txt"))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gexpect",
        description="Run one experiment config and write CSV + summary reports.")
    parser.add_argument("--config", required=True, help="path to a YAML config")
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--dump-fields", action="store_true",
                        help="write PDE snapshots (pde kind only)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = with_seed(cfg, args.seed)
        if args.dump_fields and cfg.kind != "pde":
            raise ConfigError("--dump-fields", f"pde configs only, not {cfg.kind}")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError("--out", str(exc)) from None
    except ConfigError as exc:
        print(f"config rejected at {exc.path}: {exc.message}", file=sys.stderr)
        return 2

    try:
        report = run_config(cfg, args.out, dump_fields=args.dump_fields)
    except ResourceCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2

    print(report.verdict_line())
    return 0 if report.hard_pass else 1


if __name__ == "__main__":
    sys.exit(main())
