"""Support-function generator: closed form and laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import (DomainError, GFunction, SigmaInterval, g_eval, g_eval_argmax,
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
    """On a 1-d interval G(a) = a+ upper - a- lower."""
    G = GFunction.from_interval(SigmaInterval(0.5, 1.0))
    assert g_eval(G, [[2.0]]) == 2.0
    assert g_eval(G, [[-2.0]]) == -1.0
    classical = GFunction.from_interval(SigmaInterval(1.0, 1.0))
    for a in (-3.0, 0.0, 1.7):
        assert g_eval(classical, [[a]]) == a


def test_g_1d_matches_support_function_on_grid():
    s = SigmaInterval(0.3, 1.4)
    G = GFunction.from_interval(s)
    for a in np.linspace(-5, 5, 1000).tolist():
        assert g_eval(G, [[a]]) == (a * s.upper if a >= 0 else a * s.lower)


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


def tensordot_argmax(G, A):
    """Reference for g_eval_argmax: each member's tr(A S) by np.tensordot."""
    vals = np.array([float(np.tensordot(np.asarray(A, dtype=float), S)) for S in G.theta])
    idx = int(np.argmax(vals))
    return float(vals[idx]), idx


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_g_eval_argmax_bits_match_tensordot(seed):
    """The value's bits and the index equal the tensordot form, signed zeros
    (a -0.0 matrix, -0.0 off-diagonals) and tied members included."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    theta = []
    for _ in range(int(rng.integers(1, 5))):
        if rng.random() < 0.3:
            S = np.diag(rng.uniform(0, 2, size=d))
            S[~np.eye(d, dtype=bool)] = -0.0
        else:
            M = rng.normal(size=(d, d))
            S = M @ M.T * rng.uniform(0.01, 100)
        theta += [S] * int(rng.integers(1, 3))
    B = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-5, 5)
    A = [(B + B.T) / 2, np.zeros((d, d)), -np.zeros((d, d))][int(rng.integers(0, 3))]
    G = GFunction.from_matrices(theta)
    value, idx = g_eval_argmax(G, A)
    ref_value, ref_idx = tensordot_argmax(G, A)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert idx == ref_idx
