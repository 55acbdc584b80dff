import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gexpect import SigmaInterval, gnormal_expect, symmetric_bernoulli_family
from gexpect.functionals import get

settings.register_profile(
    "suite", deadline=None, max_examples=40, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def bernoulli():
    return symmetric_bernoulli_family((0.5, 1.0))


@pytest.fixture(scope="session")
def sigma_half_one():
    return SigmaInterval(0.5, 1.0)


@pytest.fixture(scope="session")
def flagship_limits(sigma_half_one):
    """G-normal limit values of the flagship functionals, computed once."""
    out = {}
    for name in ("positive_part", "sin", "excess_square"):
        out[name] = gnormal_expect(sigma_half_one, get(name), accuracy="default")
    return out


@pytest.fixture(scope="session")
def rng_factory():
    return lambda seed: np.random.default_rng(seed)


def _traced_peak_mib(fn):
    """Peak traced allocation of fn(), in MiB, counted from zero at the call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak_mib():
    return _traced_peak_mib


@pytest.fixture(scope="session")
def nan_filled_empty():
    """A context in which np.empty returns NaN-filled float arrays, so that
    a value computed from a cell that nothing wrote comes out NaN."""
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    return lambda: mock.patch.object(np, "empty", poisoned)
