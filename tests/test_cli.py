"""CLI contract: exit codes, determinism, report files."""

import copy
import hashlib
import math
import os
import pathlib
import runpy
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import yaml

from gexpect import cli, config
from gexpect.cli import main
from gexpect.config import ConfigError, build_family, load_config, parse_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def small_clt_doc(**overrides):
    doc = {
        "kind": "clt",
        "seed": 11,
        "output": "small_clt",
        "params": {
            "family": {"variances": [0.5, 1.0], "step": 1.0},
            "functionals": ["square"],
            "schedule": [4, 8],
            "accuracy": "fast",
            "tolerance": 0.05,
        },
    }
    doc.update(overrides)
    return doc


def test_negative_probability_exits_two_with_path(tmp_path, capsys):
    doc = small_clt_doc()
    doc["params"]["family"] = {"support": [-1.0, 0.0, 1.0],
                               "members": [[0.3, -0.1, 0.8]]}
    code = main(["--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "params/family/members/0/1" in err


def test_unknown_kind_exits_two(tmp_path, capsys):
    doc = small_clt_doc(kind="mystery")
    code = main(["--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 2
    assert "kind" in capsys.readouterr().err


def test_cap_violation_exits_three(tmp_path, capsys):
    doc = small_clt_doc()
    doc["params"]["schedule"] = [64]
    doc["params"]["max_nodes"] = 8
    code = main(["--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 3
    assert "lattice blowup" in capsys.readouterr().err


def test_negative_seed_override_exits_two_at_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, small_clt_doc())
    assert main(["--config", cfg, "--out", str(tmp_path), "--seed", "-1"]) == 2
    assert "config rejected at --seed" in capsys.readouterr().err
    assert not (tmp_path / "small_clt.csv").exists()


def test_failed_hard_check_exits_one(tmp_path):
    doc = small_clt_doc()
    doc["params"]["tolerance"] = 1e-18
    doc["params"]["functionals"] = ["positive_part"]
    code = main(["--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 1


def test_rerun_same_seed_byte_identical(tmp_path):
    cfg = str(CONFIG_DIR / "clt_bernoulli.yaml")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "clt_bernoulli.csv").read_bytes() == \
        (out2 / "clt_bernoulli.csv").read_bytes()
    assert (out1 / "clt_bernoulli_summary.txt").read_bytes() == \
        (out2 / "clt_bernoulli_summary.txt").read_bytes()


def test_seed_flag_changes_random_suite_rows(tmp_path):
    cfg = str(CONFIG_DIR / "tree_laws.yaml")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
    assert (out1 / "tree_laws.csv").read_bytes() != \
        (out2 / "tree_laws.csv").read_bytes()


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.yaml")),
                         ids=lambda path: path.stem)
def test_shipped_config_reproduces_committed_reports(tmp_path, config):
    reports = CONFIG_DIR.parent / "reports"
    assert main(["--config", str(config), "--out", str(tmp_path)]) == 0
    for suffix in (".csv", "_summary.txt"):
        name = config.stem + suffix
        assert (tmp_path / name).read_bytes() == (reports / name).read_bytes()


def test_g_laws_dimension_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config({"kind": "g-laws", "seed": 0, "output": "x",
                      "params": {"trials": 10, "dimension": 2}})
    assert info.value.path == "params" and "dimension" in info.value.message


def test_dump_fields_writes_snapshots(tmp_path):
    cfg = str(CONFIG_DIR / "pde_closed_forms.yaml")
    assert main(["--config", cfg, "--out", str(tmp_path), "--dump-fields"]) == 0
    dump = tmp_path / "pde_closed_forms_fields.csv"
    assert dump.exists()
    header = dump.read_text().splitlines()
    assert header[1] == "time,x,y,value"
    assert len(header) > 100
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == \
        "aef1f6e1e00ada11eaa35f980a0cca26c161b2b03bcc1d550bbdcfb8aaa75233"


def test_fdd_times_validation(tmp_path):
    doc = {
        "kind": "fdd", "seed": 3, "output": "x",
        "params": {"family": {"variances": [0.5, 1.0]},
                   "functional": "increment_square",
                   "times": [0.9, 0.2], "schedule": [8]},
    }
    with pytest.raises(ConfigError, match="params/times"):
        parse_config(doc)


def test_family_requires_exactly_one_form():
    with pytest.raises(ConfigError, match="variances or support"):
        parse_config({"kind": "clt", "seed": 0, "output": "x",
                      "params": {"family": {"variances": [0.5],
                                            "support": [0.0],
                                            "members": [[1.0]]},
                                 "functionals": ["square"], "schedule": [2]}})


def test_pde_theta_block(tmp_path):
    doc = {
        "kind": "pde", "seed": 5, "output": "theta_pde",
        "params": {
            "theta": [[[0.5]], [[1.0]]],
            "accuracy": "fast",
            "cases": [{"functional": "square", "reference": 1.0,
                       "tolerance": 0.01}],
        },
    }
    code = main(["--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "theta_pde.csv").exists()


def test_pde_requires_exactly_one_generator_form(tmp_path):
    doc = {
        "kind": "pde", "seed": 5, "output": "x",
        "params": {"theta": [[[1.0]]], "sigma_interval": [0.5, 1.0],
                   "cases": [{"functional": "square", "reference": 1.0,
                              "tolerance": 0.01}]},
    }
    with pytest.raises(ConfigError, match="sigma_interval or theta"):
        parse_config(doc)


@pytest.mark.parametrize("generator, field", [
    ({"sigma_interval": [0.0, 0.0]}, "params/sigma_interval"),
    ({"theta": [[[0.0]], [[0.0]]]}, "params/theta"),
], ids=["interval", "theta"])
def test_pde_zero_upper_variance_exits_two_with_path(tmp_path, capsys, generator, field):
    doc = {"kind": "pde", "seed": 5, "output": "x",
           "params": {**generator, "cases": [{"functional": "square", "reference": 0.0,
                                              "tolerance": 0.01}]}}
    code = main(["--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 2
    assert field in capsys.readouterr().err


def test_build_family_explicit_support():
    fam = build_family({"support": [-2.0, 0.0, 2.0], "step": 2.0,
                        "members": [[0.25, 0.5, 0.25]]})
    assert fam.dim == 1 and len(fam.members) == 1


def test_all_shipped_configs_parse():
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        cfg = load_config(str(path))
        assert cfg.kind


def test_malformed_yaml_exits_two_at_document(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("kind: clt\nseed: [1, 2\n")
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config rejected at <document>: not parseable" in capsys.readouterr().err


def test_convergence_table_script(capsys):
    script = CONFIG_DIR.parent / "scripts" / "convergence_table.py"
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[2:11]] == [
        [name, n] for name in ("positive_part", "sin", "excess_square")
        for n in ("16", "64", "256")]
    assert sum(line.startswith("PASS final_gap[") for line in lines) == 3


def with_params(kind, **params):
    """A valid config of `kind` with some params replaced (None drops one)."""
    family = {"variances": [0.5, 1.0], "step": 1.0}
    base = {
        "clt": {"family": family, "functionals": ["square"], "schedule": [4, 8]},
        "fdd": {"family": family, "functional": "increment_square",
                "times": [0.5, 1.0], "schedule": [8]},
        "pde": {"sigma_interval": [0.5, 1.0],
                "cases": [{"functional": "square", "reference": 1.0, "tolerance": 0.01}]},
        "iid-conditions": {"family": family, "c_schedule": [1.0, 2.0],
                           "x_schedule": [0.5, 1.0]},
        "rosenthal": {"trees": 3, "max_depth": 3},
    }[kind]
    params = {key: value for key, value in {**base, **params}.items() if value is not None}
    return {"kind": kind, "seed": 0, "output": "x", "params": params}


def explicit(support, *members):
    return {"support": support, "members": list(members)}


REJECTIONS = [
    (with_params("clt", functionals=["square", "nope"]), "params/functionals/1"),
    (with_params("fdd", functional="nope"), "params/functional"),
    (with_params("pde", cases=[{"functional": "nope", "reference": 0.0, "tolerance": 1.0}]),
     "params/cases/0/functional"),
    (with_params("clt", family=explicit([-1.0, 0.5, 1.0], [0.25, 0.5, 0.25])),
     "params/family/support"),
    (with_params("clt", family=explicit([-1.0, 1.0, 1.0], [0.25, 0.5, 0.25])),
     "params/family/support"),
    (with_params("iid-conditions", c_schedule=[1.0, 2.5]), "params/c_schedule/1"),
    (with_params("iid-conditions", c_schedule=[1.0, float("inf")]), "params/c_schedule/1"),
    (with_params("clt", family={"variances": [0.5, 1.5]}), "params/family/variances/1"),
    (with_params("fdd", family={"variances": [0.0]}), "params/family"),
    (with_params("iid-conditions", family={**explicit([-1.0, 1.0], [0.5, 0.5]),
                                           "origin": float("nan")}), "params/family"),
    (with_params("clt", family=explicit([-1.0, 0.0, 1.0], [0.5, 0.5])),
     "params/family/members/0"),
    (with_params("clt", family=explicit([-1.0, 0.0, 1.0], [0.5, 0.5, 0.1])),
     "params/family/members/0"),
    (with_params("clt", schedule=[8, 4]), "params/schedule"),
    (with_params("fdd", times=[0.9, 0.2]), "params/times"),
    (with_params("iid-conditions", c_schedule=[2.0, 1.0]), "params/c_schedule"),
    (with_params("iid-conditions", x_schedule=[1.0, 0.5]), "params/x_schedule"),
    (with_params("pde", sigma_interval=[1.0, 0.5]), "params/sigma_interval"),
    (with_params("pde", sigma_interval=[0.0, 0.0]), "params/sigma_interval"),
    (with_params("pde", sigma_interval=None, theta=[[[0.0]]]), "params/theta"),
    (with_params("clt", family=explicit([float("nan"), 0.0, 1.0], [0.25, 0.5, 0.25])),
     "params/family/support"),
    (with_params("pde", horizon=float("inf")), "params/horizon"),
    (with_params("iid-conditions", x_schedule=[1.0, float("inf")]), "params/x_schedule/1"),
    (with_params("pde", sigma_interval=[0.5, float("inf")]), "params/sigma_interval"),
    (with_params("pde", sigma_interval=None, theta=[[[float("inf")]]]), "params/theta"),
    (with_params("pde", sigma_interval=None, theta=[[[float("nan")]]]), "params/theta"),
    (with_params("clt", tolerance=float("nan")), "params/tolerance"),
    (with_params("pde", cases=[{"functional": "square", "reference": float("nan"),
                                "tolerance": 0.01}]), "params/cases/0/reference"),
    (with_params("rosenthal", p=float("inf")), "params/p"),
    (with_params("fdd", times=[0.01, 0.02], schedule=[16, 64]), "params/times"),
    (with_params("clt", family={**explicit([0.0, 1.0], [0.5, 0.5]), "step": 1e-300}),
     "params/family/support"),
]


@pytest.mark.parametrize("doc, path", REJECTIONS, ids=[
    "functional_name", "pair_functional_name", "case_functional_name",
    "support_off_lattice", "support_repeated", "c_off_lattice", "c_infinite",
    "variance_above_one", "zero_variance", "origin_nan", "member_length", "member_sum",
    "schedule_order", "times_order", "c_order", "x_order", "interval_order",
    "interval_zero", "theta_zero", "support_nan", "horizon_infinite", "x_infinite",
    "interval_infinite", "theta_infinite", "theta_nan", "tolerance_nan", "reference_nan",
    "p_infinite", "t2_at_step_zero", "support_beyond_lattice_range"])
def test_config_rejected_at_load_with_field_path(doc, path):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert info.value.path == path


def test_off_lattice_support_exits_two_with_path(tmp_path, capsys):
    doc = with_params("clt", family=explicit([-1.0, 0.5, 1.0], [0.25, 0.5, 0.25]))
    code = main(["--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 2
    assert "config rejected at params/family/support:" in capsys.readouterr().err


def test_one_truncation_level_exits_two_with_path(tmp_path, capsys):
    """Both stabilisation verdicts compare the two largest truncation levels."""
    doc = with_params("iid-conditions", c_schedule=[1.0])
    code = main(["--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 2
    assert "config rejected at params/c_schedule:" in capsys.readouterr().err


def test_infinite_horizon_exits_two_with_path(tmp_path, capsys):
    doc = with_params("pde", horizon=float("inf"))
    code = main(["--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 2
    assert "config rejected at params/horizon:" in capsys.readouterr().err


@pytest.mark.parametrize("name, field, value, path", [
    ("axioms", "trials", 10.0, "params/trials"),
    ("clt_bernoulli", "schedule", [16, 64.0], "params/schedule/1"),
    ("axioms", "trials", 1e300, "params/trials"),
], ids=["trials_integral_float", "schedule_integral_float", "trials_huge_float"])
def test_float_in_integer_field_exits_two_with_path(tmp_path, capsys, name, field,
                                                    value, path):
    """The schema accepts an integral float as an integer; the load rejects
    it at its field instead of letting it reach range() or a numpy shape."""
    doc = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
    doc["params"][field] = value
    config._validate(doc["params"], config._PARAMS_SCHEMA[doc["kind"]], ("params",))
    code = main(["--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 2
    assert f"config rejected at {path}: a float where an integer is required" in \
        capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _number_paths(node, path=()):
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path
    elif isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _number_paths(child, path + (key,))


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_every_non_finite_number_rejected_at_its_field(config):
    """Every number of a shipped config, set to NaN or +-inf in turn, is
    rejected at load, at its own field or at one that contains it."""
    raw = yaml.safe_load(config.read_text())
    for path in _number_paths(raw["params"], ("params",)):
        for value in (math.nan, math.inf, -math.inf):
            doc = copy.deepcopy(raw)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            with pytest.raises(ConfigError) as info:
                parse_config(doc)
            field = "/".join(map(str, path))
            assert field == info.value.path or field.startswith(info.value.path + "/"), \
                (field, value, info.value.path)


def test_rosenthal_nan_ratio_fails_ratio_finite(tmp_path):
    """At p = 1000 every second-display ratio is NaN (the p-th powers
    overflow); the worst ratio was folded with max, which dropped NaN and
    passed with statistic 0.0."""
    cfg = parse_config(with_params("rosenthal", p=1000.0))
    with np.errstate(over="ignore", invalid="ignore"):
        report = cli.run_config(cfg, str(tmp_path))
    assert all(math.isnan(row["second_ratio"]) for row in report.rows)
    (verdict,) = [v for v in report.verdicts if v.name == "ratio_finite"]
    assert not verdict.passed and math.isnan(verdict.statistic)


@pytest.mark.parametrize("below", [(), ("reports",)], ids=["file", "below_file"])
def test_unusable_out_exits_two_before_the_run(tmp_path, capsys, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker.joinpath(*below)
    with mock.patch.object(cli, "run_config") as run:
        code = main(["--config", str(CONFIG_DIR / "clt_bernoulli.yaml"), "--out", str(out)])
    assert code == 2
    assert "config rejected at --out:" in capsys.readouterr().err
    run.assert_not_called()


def test_every_config_kind_has_a_runner():
    assert set(cli.RUNNERS) == set(config._PARAMS_SCHEMA)


def test_dump_fields_rejected_on_other_kinds(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "clt_bernoulli.yaml")
    assert main(["--config", cfg, "--out", str(tmp_path), "--dump-fields"]) == 2
    assert "config rejected at --dump-fields" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_all_check_reproduces_committed_reports():
    """Every shipped config, rerun in a fresh interpreter, writes the
    committed reports/ byte for byte."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_all.py"), "--check"],
                          capture_output=True, text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _cpu_has_avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2"))


@pytest.mark.parametrize("coretype", [None, "Haswell"], ids=["default", "haswell"])
def test_tree_reports_do_not_depend_on_the_blas_kernel(tmp_path, coretype):
    """The tree_laws and rosenthal configs, run in a fresh interpreter on
    OpenBLAS's default kernel and on its Haswell (AVX2) kernel, write the
    committed reports byte for byte: tree member means are elementwise sums
    in a fixed order, so no BLAS kernel's summation order reaches them."""
    if coretype is not None and not _cpu_has_avx2():
        pytest.skip("the Haswell kernel needs AVX2")
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    names = ("tree_laws", "rosenthal")
    script = f"""
import sys
from gexpect.cli import main
for name in {names!r}:
    code = main(["--config", f"{CONFIG_DIR}/{{name}}.yaml", "--out", {str(tmp_path)!r}])
    if code:
        sys.exit(code)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=600, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in names:
        for suffix in (".csv", "_summary.txt"):
            report = name + suffix
            assert (tmp_path / report).read_bytes() == \
                (ROOT / "reports" / report).read_bytes(), report


def test_run_all_check_prints_first_differing_line_pair(tmp_path, capsys):
    """A differing report is listed with its first differing line pair,
    committed then fresh; a shorter file reads <end of file>, and a file on
    one side only is listed alone."""
    run_all = runpy.run_path(str(ROOT / "scripts" / "run_all.py"))
    fresh, committed = tmp_path / "fresh", tmp_path / "committed"
    fresh.mkdir()
    committed.mkdir()
    for where, files in ((committed, {"a.csv": "x,1\ny,0.245\nz,3\n", "b.txt": "PASS\n",
                                      "c.txt": "same\n", "gone.txt": "old\n"}),
                         (fresh, {"a.csv": "x,1\ny,0.266\nz,4\n", "b.txt": "PASS\nextra\n",
                                  "c.txt": "same\n", "new.txt": "new\n"})):
        for name, text in files.items():
            (where / name).write_text(text)
    assert run_all["print_differences"](fresh, committed)
    assert capsys.readouterr().out.splitlines() == [
        "differs from reports/: a.csv",
        "  line 2, committed: y,0.245",
        "  line 2, fresh: y,0.266",
        "differs from reports/: b.txt",
        "  line 2, committed: <end of file>",
        "  line 2, fresh: extra",
        "differs from reports/: gone.txt",
        "differs from reports/: new.txt"]
    (fresh / "a.csv").write_text((committed / "a.csv").read_text())
    for name in ("b.txt", "gone.txt", "new.txt"):
        for where in (fresh, committed):
            (where / name).unlink(missing_ok=True)
    assert not run_all["print_differences"](fresh, committed)
    assert capsys.readouterr().out == ""


def test_shipped_configs_do_not_import_numpy_ma(tmp_path):
    """A bare np.unique imports numpy.ma (numpy 2.4), about 6 ms and 0.6 MB
    of every run that builds an ambiguity set; no shipped config needs it."""
    script = f"""
import contextlib, io, pathlib, sys
from gexpect import cli
for config in sorted(pathlib.Path({str(CONFIG_DIR)!r}).glob("*.yaml")):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--config", str(config), "--out", {str(tmp_path)!r}]) == 0, config
    assert "numpy.ma" not in sys.modules, config.name
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=600, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout + proc.stderr
