"""Experiment configs: one YAML document per suite, checked and built at load.

Every config carries the experiment kind, a seed, an output basename and a
kind-specific parameter block.  Loading checks it against the schema and
builds the library objects the run needs, naming the field of any rejection.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import cltlab, functionals, pde
from .ambiguity import (AmbiguitySet, DiscreteDistribution, LatticeSpec,
                        symmetric_bernoulli_family, truncation_box)
from .errors import ConfigError, DomainError
from .gfunc import GFunction, SigmaInterval

_FAMILY_SCHEMA = {
    "type": "object",
    "properties": {
        "variances": {"type": "array", "minItems": 1,
                      "items": {"type": "number", "minimum": 0, "maximum": 1}},
        "step": {"type": "number", "exclusiveMinimum": 0},
        "origin": {"type": "number"},
        "support": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "members": {"type": "array", "minItems": 1,
                    "items": {"type": "array",
                              "items": {"type": "number", "minimum": 0},
                              "minItems": 1}},
    },
    "dependentRequired": {"support": ["members"], "members": ["support"]},
    "additionalProperties": False,
}
_FUNCTIONAL = {"type": "string", "enum": list(functionals.REGISTRY)}
_PAIR_FUNCTIONAL = {"type": "string", "enum": list(functionals.PAIR_REGISTRY)}
_ACCURACY = {"type": "string", "enum": list(pde.NODES_1D)}

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
            "accuracy": _ACCURACY,
            "cases": {"type": "array", "minItems": 1, "items": {
                "type": "object",
                "properties": {"functional": _FUNCTIONAL,
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
            "functionals": {"type": "array", "items": _FUNCTIONAL, "minItems": 1},
            "schedule": {"type": "array", "items": {"type": "integer", "minimum": 1},
                         "minItems": 1},
            "accuracy": _ACCURACY,
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
            "functional": _PAIR_FUNCTIONAL,
            "times": {"type": "array", "items": {"type": "number"},
                      "minItems": 2, "maxItems": 2},
            "schedule": {"type": "array", "items": {"type": "integer", "minimum": 1},
                         "minItems": 1},
            "accuracy": _ACCURACY,
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
                           "minItems": 2},
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
        "kind": {"type": "string", "enum": list(_PARAMS_SCHEMA)},
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": "string", "minLength": 1},
        "params": {"type": "object"},
    },
    "required": ["kind", "seed", "output", "params"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config; `inputs` maps names ("rows", "generator", ...) to the
    objects its run needs, built from `params` at load."""

    kind: str
    seed: int
    output: str
    params: dict
    inputs: dict


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
    kind, params = raw["kind"], raw["params"]
    _validate(params, _PARAMS_SCHEMA[kind], prefix=("params",))
    inputs = _build(kind, params)
    path = _non_finite(params, "params")
    if path is not None:
        raise ConfigError(path, "not a finite number")
    return ExperimentConfig(kind, int(raw["seed"]), raw["output"], params, inputs)


def with_seed(cfg: ExperimentConfig, seed) -> ExperimentConfig:
    """cfg with the command line's `--seed` in place of its seed, checked by
    the schema's seed rule and rejected at `--seed`."""
    _validate(seed, _TOP_SCHEMA["properties"]["seed"], prefix=("--seed",))
    return replace(cfg, seed=seed)


def _validate(instance, schema, prefix):
    """Reject instance with the first error at the smallest path."""
    # min keeps the first of equal paths, as a stable sort by path would
    first = min(_schema_errors(instance, schema, ()), key=lambda err: err[0], default=None)
    if first is not None:
        path, message = first
        raise ConfigError("/".join(str(p) for p in prefix + path) or "<root>", message)


# JSON types as Draft 2020-12 reads them: a bool is no number, 1.0 is an integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}
# the keywords _schema_errors reads -> the type each applies to (None: every
# instance); a keyword skips an instance of another type
_KEYWORDS = {
    "type": None, "enum": None, "minimum": "number", "maximum": "number",
    "exclusiveMinimum": "number", "minLength": "string", "minItems": "array",
    "maxItems": "array", "items": "array", "properties": "object",
    "required": "object", "dependentRequired": "object", "additionalProperties": "object",
}


def _schema_errors(instance, schema: dict, path: tuple):
    """Every (path, message) by which instance breaks schema, in the order and
    with the messages of jsonschema's Draft202012Validator, for the keywords in
    _KEYWORDS, with `type` one name, `additionalProperties` false and `enum`
    strings only."""
    for key, rule in schema.items():
        applies = _KEYWORDS[key]
        if applies is not None and not _TYPES[applies](instance):
            continue
        if key == "type":
            if not _TYPES[rule](instance):
                yield path, f"{instance!r} is not of type {rule!r}"
        elif key == "enum":
            if instance not in rule:
                yield path, f"{instance!r} is not one of {rule!r}"
        elif key == "minimum":
            if instance < rule:
                yield path, f"{instance!r} is less than the minimum of {rule!r}"
        elif key == "maximum":
            if instance > rule:
                yield path, f"{instance!r} is greater than the maximum of {rule!r}"
        elif key == "exclusiveMinimum":
            if instance <= rule:
                yield path, f"{instance!r} is less than or equal to the minimum of {rule!r}"
        elif key in ("minLength", "minItems"):
            if len(instance) < rule:
                verdict = "should be non-empty" if rule == 1 else "is too short"
                yield path, f"{instance!r} {verdict}"
        elif key == "maxItems":
            if len(instance) > rule:
                verdict = "is expected to be empty" if rule == 0 else "is too long"
                yield path, f"{instance!r} {verdict}"
        elif key == "items":
            for index, item in enumerate(instance):
                yield from _schema_errors(item, rule, path + (index,))
        elif key == "properties":
            for name, sub in rule.items():
                if name in instance:
                    yield from _schema_errors(instance[name], sub, path + (name,))
        elif key == "required":
            for name in rule:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif key == "dependentRequired":
            for name, needed in rule.items():
                if name in instance:
                    for other in needed:
                        if other not in instance:
                            yield path, f"{other!r} is a dependency of {name!r}"
        else:  # additionalProperties: false
            extras = sorted((name for name in instance
                             if name not in schema.get("properties", {})), key=str)
            if extras:
                yield path, "Additional properties are not allowed ({} {} unexpected)".format(
                    ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")


def _non_finite(node, path: str) -> str | None:
    """The path of the first NaN or infinite number in node, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return None
    for key, child in children:
        found = _non_finite(child, f"{path}/{key}")
        if found is not None:
            return found
    return None


@contextmanager
def _at(path: str):
    """Re-raise a DomainError from the block as a rejection of the field at `path`."""
    try:
        yield
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from None


def _build(kind: str, p: dict) -> dict:
    inputs = {}
    if "family" in p:
        family = build_family(p["family"])
    if kind in ("clt", "fdd"):
        with _at("params/schedule"):
            inputs["rows"] = cltlab.IidRows(family, tuple(p["schedule"]))
        with _at("params/family"):
            pde.as_gfunction(inputs["rows"].induced_gfunction())  # the limit's generator
    if kind == "clt":
        inputs["functionals"] = [functionals.get(name) for name in p["functionals"]]
    elif kind == "fdd":
        with _at("params/times"):
            cltlab.fdd_checkpoints(inputs["rows"], p["times"])
        inputs["functional"] = functionals.get_pair(p["functional"])
    elif kind == "pde":
        if ("sigma_interval" in p) == ("theta" in p):
            raise ConfigError("params", "give either sigma_interval or theta")
        if "theta" in p:
            with _at("params/theta"):
                inputs["generator"] = pde.as_gfunction(GFunction.from_matrices(p["theta"]))
            inputs["generator_label"] = "theta[" + "/".join(
                repr(float(m[0][0])) for m in p["theta"]) + "]"
        else:
            with _at("params/sigma_interval"):
                inputs["generator"] = pde.as_gfunction(SigmaInterval(*p["sigma_interval"]))
            inputs["generator_label"] = "{}/{}".format(*p["sigma_interval"])
        inputs["functionals"] = [functionals.get(case["functional"]) for case in p["cases"]]
    elif kind == "iid-conditions":
        for key in ("c_schedule", "x_schedule"):
            with _at(f"params/{key}"):
                cltlab.check_increasing(p[key], key)
        for i, c in enumerate(p["c_schedule"]):
            with _at(f"params/c_schedule/{i}"):
                truncation_box(family.lattice, c)
        inputs["rows"] = cltlab.IidRows(family, (p.get("estimate_n", 256),))
    return inputs


def build_family(fam: dict) -> AmbiguitySet:
    """The AmbiguitySet of a `family` block, each part built under its path."""
    if ("variances" in fam) == ("support" in fam):
        raise ConfigError("params/family", "give either variances or support+members")
    step = float(fam.get("step", 1.0))
    with _at("params/family"):
        if "variances" in fam:
            return symmetric_bernoulli_family([float(v) for v in fam["variances"]], step)
        lattice = LatticeSpec(1, step, (float(fam.get("origin", 0.0)),))
    support = np.asarray(fam["support"], dtype=float).reshape(-1, 1)
    with _at("params/family/support"):
        lattice.to_integer(support)
    members = []
    for i, probs in enumerate(fam["members"]):
        with _at(f"params/family/members/{i}"):
            members.append(DiscreteDistribution(support, probs))
    with _at("params/family/support"):
        return AmbiguitySet(lattice, members)
