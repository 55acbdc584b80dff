"""The config schema checker against jsonschema, its test-only oracle."""

import copy
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
import yaml
from jsonschema import Draft202012Validator

from gexpect import config
from gexpect.config import ConfigError

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = [yaml.safe_load(path.read_text())
           for path in sorted((ROOT / "configs").glob("*.yaml"))]
SCHEMAS = {"<top>": config._TOP_SCHEMA, **config._PARAMS_SCHEMA}
ORACLES = {name: Draft202012Validator(schema) for name, schema in SCHEMAS.items()}


def _subschemas(schema):
    """schema and every schema nested in it."""
    yield schema
    for key, rule in schema.items():
        if key == "items":
            yield from _subschemas(rule)
        elif key == "properties":
            for sub in rule.values():
                yield from _subschemas(sub)


# keys to add: every property name the schemas know, so that a known name in
# the wrong place meets additionalProperties and `support` alone meets
# dependentRequired, and a few unknown ones, one not a string
ADDED_KEYS = sorted({name for schema in SCHEMAS.values() for sub in _subschemas(schema)
                     for name in sub.get("properties", {})}) + ["zz", "Extra", 7]
# wrong types, out-of-range and non-integer numbers, non-finite numbers,
# empty and nested containers, bools
VALUES = ["x", "", "square", None, True, False, 0, 1, -1, 2, 9, 0.0, -0.5, 0.5, 1.0, 1.5,
          3.0, 1e9, math.nan, math.inf, -math.inf, [], {}, [1.0], [0.5, 0.5], [[0.5]],
          [[[0.5]]], {"a": 1}]


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _containers(child)


def _mutate(doc, rng):
    """One random edit of doc in place: drop, add, set or empty a slot."""
    node = rng.choice(list(_containers(doc)))
    value = copy.deepcopy(rng.choice(VALUES))
    op = rng.choice(["drop", "add", "set", "set", "empty"])
    if op == "empty" or not node:
        node.clear()
    elif op == "drop":
        del node[rng.choice(list(node) if isinstance(node, dict) else range(len(node)))]
    elif op == "add" and isinstance(node, dict):
        node[rng.choice(ADDED_KEYS)] = value
    elif op == "add":
        node.append(copy.deepcopy(rng.choice(node)) if rng.random() < 0.5 else value)
    else:
        node[rng.choice(list(node) if isinstance(node, dict) else range(len(node)))] = value


def _first_error(instance, name):
    """(path, message) that config._validate reports, or None."""
    try:
        config._validate(instance, SCHEMAS[name], prefix=())
    except ConfigError as exc:
        return exc.path, exc.message
    return None


def _oracle_first_error(instance, name):
    """(path, message, keyword) of jsonschema's first error at its smallest path."""
    errors = sorted(ORACLES[name].iter_errors(instance), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    err = errors[0]
    return "/".join(str(p) for p in err.absolute_path) or "<root>", err.message, err.validator


def test_validator_matches_jsonschema_on_mutated_shipped_configs():
    """Every shipped config, edited one to three times at random (2,400
    documents), gets the first (path, message) jsonschema gives, on the
    top-level schema and, where params is a mapping, on each kind's."""
    rng = random.Random(20)
    keywords, compared = set(), 0
    for doc in SHIPPED:
        for _ in range(300):
            mutated = copy.deepcopy(doc)
            for _ in range(rng.randint(1, 3)):
                _mutate(mutated, rng)
            params = mutated.get("params") if isinstance(mutated, dict) else None
            names = ["<top>"] + (list(config._PARAMS_SCHEMA) if isinstance(params, dict) else [])
            for name in names:
                instance = mutated if name == "<top>" else params
                expected = _oracle_first_error(instance, name)
                assert _first_error(instance, name) == (expected and expected[:2]), (name, mutated)
                if expected:
                    keywords.add(expected[2])
                compared += 1
    assert compared > 10_000
    # every keyword that can reject was met as the first error
    assert keywords == set(config._KEYWORDS) - {"items", "properties"}


def test_several_unexpected_keys_listed_sorted_by_str():
    doc = {**SHIPPED[0], "zeta": 1, 10: 2, "alpha": 3}
    with pytest.raises(ConfigError) as info:
        config._validate(doc, config._TOP_SCHEMA, prefix=())
    assert info.value.message == (
        "Additional properties are not allowed (10, 'alpha', 'zeta' were unexpected)")


def test_every_schema_keyword_is_implemented():
    """A keyword the checker does not read (say `pattern` or `uniqueItems`)
    would pass every config, so no schema may use one."""
    for name, schema in SCHEMAS.items():
        for sub in _subschemas(schema):
            assert set(sub) <= set(config._KEYWORDS), (name, sub)
            # the forms the checker reads: one type name, no schema-valued
            # extras, string enums (where `in` matches jsonschema's equality)
            assert sub.get("type", "object") in config._TYPES, (name, sub)
            assert sub.get("additionalProperties", False) is False, (name, sub)
            assert all(isinstance(value, str) for value in sub.get("enum", [])), (name, sub)


def test_cli_start_and_config_check_do_not_import_jsonschema(tmp_path):
    script = f"""
import sys
import gexpect.cli
from gexpect import config
config.load_config({str(ROOT / "configs" / "clt_bernoulli.yaml")!r})
assert gexpect.cli.main(["--config", {str(ROOT / "configs" / "axioms.yaml")!r},
                         "--out", {str(tmp_path)!r}, "--seed", "-1"]) == 2
assert "jsonschema" not in sys.modules, sorted(m for m in sys.modules if "jsonschema" in m)
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "config rejected at --seed: -1 is less than the minimum of 0" in proc.stderr
