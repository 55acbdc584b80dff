"""Experiment configs: one YAML document per suite, schema-checked.

Every config carries the experiment kind, a seed, an output basename and a
kind-specific parameter block.  Validation reports the offending field path
so the CLI can exit with a precise diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import jsonschema
import numpy as np
import yaml

from .ambiguity import (AmbiguitySet, DiscreteDistribution, LatticeSpec,
                        symmetric_bernoulli_family)
from .errors import ConfigError

KINDS = ("axioms", "tree-laws", "g-laws", "pde", "clt", "fdd", "rosenthal",
         "iid-conditions")

_FAMILY_SCHEMA = {
    "type": "object",
    "properties": {
        "variances": {"type": "array", "items": {"type": "number", "minimum": 0},
                      "minItems": 1},
        "step": {"type": "number", "exclusiveMinimum": 0},
        "origin": {"type": "number"},
        "support": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "members": {"type": "array", "minItems": 1,
                    "items": {"type": "array",
                              "items": {"type": "number", "minimum": 0},
                              "minItems": 1}},
    },
    "additionalProperties": False,
}

_PARAMS_SCHEMA = {
    "axioms": {
        "type": "object",
        "properties": {"trials": {"type": "integer", "minimum": 1},
                       "pairs": {"type": "integer", "minimum": 1},
                       "tolerance": {"type": "number", "exclusiveMinimum": 0}},
        "additionalProperties": False,
    },
    "tree-laws": {
        "type": "object",
        "properties": {"trees": {"type": "integer", "minimum": 1},
                       "max_depth": {"type": "integer", "minimum": 2, "maximum": 8},
                       "max_children": {"type": "integer", "minimum": 1, "maximum": 6},
                       "max_members": {"type": "integer", "minimum": 1, "maximum": 4},
                       "tolerance": {"type": "number", "exclusiveMinimum": 0}},
        "additionalProperties": False,
    },
    "g-laws": {
        "type": "object",
        "properties": {"trials": {"type": "integer", "minimum": 1},
                       "tolerance": {"type": "number", "exclusiveMinimum": 0}},
        "additionalProperties": False,
    },
    "pde": {
        "type": "object",
        "properties": {
            "sigma_interval": {"type": "array", "items": {"type": "number", "minimum": 0},
                               "minItems": 2, "maxItems": 2},
            "theta": {"type": "array", "minItems": 1,
                      "items": {"type": "array", "minItems": 1, "maxItems": 1,
                                "items": {"type": "array", "minItems": 1, "maxItems": 1,
                                          "items": {"type": "number", "minimum": 0}}}},
            "horizon": {"type": "number", "exclusiveMinimum": 0},
            "accuracy": {"type": "string", "enum": ["fast", "default", "fine"]},
            "cases": {"type": "array", "minItems": 1, "items": {
                "type": "object",
                "properties": {"functional": {"type": "string"},
                               "reference": {"type": "number"},
                               "tolerance": {"type": "number", "exclusiveMinimum": 0}},
                "required": ["functional", "reference", "tolerance"],
                "additionalProperties": False}},
        },
        "required": ["cases"],
        "additionalProperties": False,
    },
    "clt": {
        "type": "object",
        "properties": {
            "family": _FAMILY_SCHEMA,
            "functionals": {"type": "array", "items": {"type": "string"}, "minItems": 1},
            "schedule": {"type": "array", "items": {"type": "integer", "minimum": 1},
                         "minItems": 1},
            "accuracy": {"type": "string", "enum": ["fast", "default", "fine"]},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
            "max_nodes": {"type": "integer", "minimum": 1},
        },
        "required": ["family", "functionals", "schedule"],
        "additionalProperties": False,
    },
    "fdd": {
        "type": "object",
        "properties": {
            "family": _FAMILY_SCHEMA,
            "functional": {"type": "string"},
            "times": {"type": "array", "items": {"type": "number"},
                      "minItems": 2, "maxItems": 2},
            "schedule": {"type": "array", "items": {"type": "integer", "minimum": 1},
                         "minItems": 1},
            "accuracy": {"type": "string", "enum": ["fast", "default", "fine"]},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["family", "functional", "times", "schedule"],
        "additionalProperties": False,
    },
    "rosenthal": {
        "type": "object",
        "properties": {"trees": {"type": "integer", "minimum": 1},
                       "p": {"type": "number", "minimum": 2},
                       "max_depth": {"type": "integer", "minimum": 2, "maximum": 8}},
        "additionalProperties": False,
    },
    "iid-conditions": {
        "type": "object",
        "properties": {
            "family": _FAMILY_SCHEMA,
            "c_schedule": {"type": "array", "items": {"type": "number",
                                                      "exclusiveMinimum": 0},
                           "minItems": 1},
            "x_schedule": {"type": "array", "items": {"type": "number",
                                                      "exclusiveMinimum": 0},
                           "minItems": 1},
            "estimate_n": {"type": "integer", "minimum": 1},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["family", "c_schedule", "x_schedule"],
        "additionalProperties": False,
    },
}

_TOP_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"type": "string", "enum": list(KINDS)},
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": "string", "minLength": 1},
        "params": {"type": "object"},
    },
    "required": ["kind", "seed", "output", "params"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    output: str
    params: dict


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError("<file>", str(exc))
    except yaml.YAMLError as exc:
        raise ConfigError("<document>", f"not parseable: {exc}")
    return parse_config(raw)


def parse_config(raw) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    _validate(raw, _TOP_SCHEMA, prefix=())
    kind = raw["kind"]
    _validate(raw["params"], _PARAMS_SCHEMA[kind], prefix=("params",))
    _semantic_checks(kind, raw["params"])
    return ExperimentConfig(kind, int(raw["seed"]), raw["output"], raw["params"])


def _validate(instance, schema, prefix):
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in prefix + tuple(err.absolute_path)) or "<root>"
        raise ConfigError(path, err.message)


def _semantic_checks(kind: str, params: dict):
    fam = params.get("family")
    if fam is not None:
        _check_family(fam, ("params", "family"))
    if kind == "pde":
        has_interval = "sigma_interval" in params
        if has_interval == ("theta" in params):
            raise ConfigError("params", "give either sigma_interval or theta")
        if has_interval:
            lo, hi = params["sigma_interval"]
            if lo > hi:
                raise ConfigError("params/sigma_interval", "needs lower <= upper")
    if kind in ("clt", "fdd"):
        sched = params["schedule"]
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("params/schedule", "must be strictly increasing")
    if kind == "fdd":
        t1, t2 = params["times"]
        if not 0 < t1 < t2 <= 1:
            raise ConfigError("params/times", "need 0 < t1 < t2 <= 1")
    for key in ("c_schedule", "x_schedule"):
        if key in params:
            vals = params[key]
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ConfigError(f"params/{key}", "must be strictly increasing")


def _check_family(fam: dict, prefix):
    has_var = "variances" in fam
    has_explicit = "support" in fam or "members" in fam
    if has_var == has_explicit:
        raise ConfigError("/".join(prefix),
                          "give either variances or support+members")
    if has_var:
        for i, v in enumerate(fam["variances"]):
            if v > 1:
                raise ConfigError("/".join(prefix + ("variances", str(i))),
                                  "variance above 1 has no member in this family")
        return
    if "support" not in fam or "members" not in fam:
        raise ConfigError("/".join(prefix), "explicit family needs support and members")
    m = len(fam["support"])
    for i, probs in enumerate(fam["members"]):
        if len(probs) != m:
            raise ConfigError("/".join(prefix + ("members", str(i))),
                              "member length must match support")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ConfigError("/".join(prefix + ("members", str(i))),
                              "probabilities must sum to 1")


def build_family(fam: dict) -> AmbiguitySet:
    step = float(fam.get("step", 1.0))
    if "variances" in fam:
        return symmetric_bernoulli_family([float(v) for v in fam["variances"]], step)
    origin = float(fam.get("origin", 0.0))
    lattice = LatticeSpec(1, step, (origin,))
    support = np.asarray(fam["support"], dtype=float).reshape(-1, 1)
    members = [DiscreteDistribution(support, np.asarray(p, dtype=float))
               for p in fam["members"]]
    return AmbiguitySet(lattice, members)
