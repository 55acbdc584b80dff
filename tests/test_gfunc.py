"""Support-function generator: closed form and laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import (DomainError, GFunction, SigmaInterval, g_1d, g_eval, g_eval_argmax,
                     verify_g_laws)


def test_g_eval_1d_examples():
    G = GFunction.from_matrices([[[0.5]], [[1.0]]])
    assert g_eval(G, [[1.0]]) == 1.0
    assert g_eval(G, [[-1.0]]) == -0.5


def test_g_eval_2d_mixed_signature_cancels():
    G = GFunction.from_matrices([np.diag([1.0, 1.0]), np.diag([0.5, 0.5])])
    assert g_eval(G, np.diag([1.0, -1.0])) == 0.0


def test_g_eval_reports_lowest_attaining_index():
    G = GFunction.from_matrices([[[1.0]], [[1.0]], [[0.5]]])
    value, idx = g_eval_argmax(G, [[2.0]])
    assert value == 2.0 and idx == 0


def test_g_eval_rejects_asymmetric():
    G = GFunction.from_matrices([np.eye(2)])
    with pytest.raises(DomainError, match="symmetric"):
        g_eval(G, np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_g_eval_rejects_non_finite(bad):
    """NaN passed the symmetry test, since NaN > tolerance is False, and
    G(A) came out NaN or infinite."""
    G = GFunction.from_matrices([np.eye(2)])
    with pytest.raises(DomainError, match="non-finite"):
        g_eval(G, np.array([[1.0, 0.0], [0.0, bad]]))


def test_gfunction_rejects_non_psd():
    with pytest.raises(DomainError, match="semidefinite"):
        GFunction.from_matrices([np.diag([1.0, -0.5])])


def test_g_1d_closed_form():
    s = SigmaInterval(0.5, 1.0)
    assert g_1d(s, 2.0) == 2.0
    assert g_1d(s, -2.0) == -1.0
    classical = SigmaInterval(1.0, 1.0)
    for a in (-3.0, 0.0, 1.7):
        assert g_1d(classical, a) == a


def test_g_1d_matches_support_function_on_grid():
    s = SigmaInterval(0.3, 1.4)
    G = GFunction.from_interval(s)
    for a in np.linspace(-5, 5, 1000):
        assert g_1d(s, float(a)) == g_eval(G, [[float(a)]])


def test_singleton_theta_is_linear():
    G = GFunction.from_matrices([np.diag([0.7, 0.2])])
    A = np.array([[1.0, 0.5], [0.5, -2.0]])
    Bm = np.array([[0.3, -0.1], [-0.1, 1.0]])
    assert g_eval(G, A + Bm) == pytest.approx(g_eval(G, A) + g_eval(G, Bm), abs=1e-12)


def test_lipschitz_bound_1d_after_normalisation():
    G = GFunction.from_matrices([[[0.5]], [[1.0]]])
    gI = g_eval(G, [[1.0]])
    Gn = GFunction.from_matrices([S / gI for S in G.theta])
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = rng.uniform(-4, 4, size=2)
        assert abs(g_eval(Gn, [[a]]) - g_eval(Gn, [[b]])) <= abs(a - b) + 1e-12


def test_verify_g_laws_zero_violations():
    G = GFunction.from_matrices([np.diag([1.0, 0.5]),
                                 np.array([[0.8, 0.2], [0.2, 0.4]])])
    report = verify_g_laws(G, trials=1000, seed=7)
    assert report.passed, report.violations


@given(st.integers(0, 3_000))
@settings(max_examples=40)
def test_laws_on_random_generators(seed):
    from gexpect.suites import random_gfunction

    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    G = random_gfunction(rng, d)
    report = verify_g_laws(G, trials=25, seed=seed + 1)
    assert report.passed, report.violations


def test_degenerate_zero_generator_laws_hold():
    G = GFunction.from_matrices([np.zeros((2, 2))])
    report = verify_g_laws(G, trials=50, seed=1)
    assert report.passed
    assert g_eval(G, np.eye(2)) == 0.0
