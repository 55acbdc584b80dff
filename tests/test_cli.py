"""CLI contract: exit codes, determinism, report files."""

import pathlib

import pytest
import yaml

from gexpect.cli import main
from gexpect.config import ConfigError, build_family, load_config, parse_config

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


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


def test_build_family_explicit_support():
    fam = build_family({"support": [-2.0, 0.0, 2.0], "step": 2.0,
                        "members": [[0.25, 0.5, 0.25]]})
    assert fam.dim == 1 and len(fam.members) == 1


def test_all_shipped_configs_parse():
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        cfg = load_config(str(path))
        assert cfg.kind
