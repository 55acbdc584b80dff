"""Sub-linear monotone functions on symmetric matrices.

G is represented as a support-function maximum G(A) = max over a finite set
Theta of PSD matrices of trace(A Sigma).  This form is automatically
sub-additive, positively homogeneous and monotone for the PSD order; the
property suite asserts it anyway, together with the entrywise Lipschitz
bound after normalising G(I) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .reporting import LawReport

SYM_TOL = 1e-12
PSD_TOL = 1e-10


def _check_symmetric(A: np.ndarray, d: int, what: str = "matrix") -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape != (d, d):
        raise DomainError(f"{what} must be {d}x{d}")
    scale = float(np.max(np.abs(A)))  # NaN or infinite with any entry
    if not math.isfinite(scale):
        raise DomainError(f"{what} has non-finite values")
    if np.max(np.abs(A - A.T)) > SYM_TOL * max(1.0, scale):
        raise DomainError(f"{what} must be symmetric")
    return A


@dataclass(frozen=True, eq=False)
class GFunction:
    """Support-function representation by a finite set of PSD matrices."""

    dimension: int
    theta: tuple

    def __post_init__(self):
        if len(self.theta) == 0:
            raise DomainError("theta must be nonempty")
        mats = []
        for S in self.theta:
            S = _check_symmetric(S, self.dimension, "theta entry")
            if float(np.linalg.eigvalsh(S)[0]) < -PSD_TOL:
                raise DomainError("theta entry is not positive semidefinite")
            mats.append(S)
        object.__setattr__(self, "theta", tuple(mats))

    @classmethod
    def from_matrices(cls, mats) -> "GFunction":
        mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in mats]
        return cls(mats[0].shape[0], tuple(mats))

    @classmethod
    def from_interval(cls, s: "SigmaInterval") -> "GFunction":
        return cls(1, (np.array([[s.lower]]), np.array([[s.upper]])))

    @property
    def sigma_sq_max(self) -> float:
        """Largest diagonal entry across theta (drives CFL and domain sizing)."""
        return max(float(np.max(np.diag(S))) for S in self.theta)


@dataclass(frozen=True)
class SigmaInterval:
    """1-d variance interval [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise DomainError("need 0 <= lower <= upper")
        if not self.upper < np.inf:
            raise DomainError("upper must be finite")


def g_eval_argmax(G: GFunction, A: np.ndarray) -> tuple[float, int]:
    """G(A) with the attaining theta index (lowest on ties)."""
    A = _check_symmetric(A, G.dimension)
    vals = np.array([float(np.tensordot(A, S)) for S in G.theta])
    idx = int(np.argmax(vals))
    return float(vals[idx]), idx


def g_eval(G: GFunction, A: np.ndarray) -> float:
    """max over theta of trace(A Sigma)."""
    return g_eval_argmax(G, A)[0]


def g_1d(s: SigmaInterval, alpha: float) -> float:
    """One-dimensional closed form: alpha+ upper - alpha- lower."""
    return alpha * s.upper if alpha >= 0 else alpha * s.lower


def _random_symmetric(rng, d: int) -> np.ndarray:
    M = rng.normal(size=(d, d))
    return (M + M.T) / 2


def normalised(G: GFunction) -> GFunction | None:
    """G scaled so that G(I) = 1, or None when G(I) = 0."""
    gI = g_eval(G, np.eye(G.dimension))
    return GFunction(G.dimension, tuple(S / gI for S in G.theta)) if gI > 0 else None


def g_law_violations(G: GFunction, Gn: GFunction | None, rng) -> dict:
    """One draw of symmetric A and B, lambda in [0, 3) and L, in that order,
    and the signed violation of each law: sub-additivity, homogeneity,
    PSD-order monotonicity, and the entrywise Lipschitz bound of
    Gn = normalised(G) (0.0 when Gn is None)."""
    d = G.dimension
    A = _random_symmetric(rng, d)
    B = _random_symmetric(rng, d)
    lam = float(rng.uniform(0.0, 3.0))
    L = rng.normal(size=(d, d))
    out = {"subadditivity": g_eval(G, A + B) - g_eval(G, A) - g_eval(G, B),
           "homogeneity": abs(g_eval(G, lam * A) - lam * g_eval(G, A)),
           "monotone": g_eval(G, A) - g_eval(G, A + L @ L.T),
           "lipschitz": 0.0}
    if Gn is not None:
        bound = d * float(np.max(np.abs(A - B)))
        out["lipschitz"] = abs(g_eval(Gn, A) - g_eval(Gn, B)) - bound
    return out


def verify_g_laws(G: GFunction, trials: int = 1000, seed: int = 0) -> LawReport:
    """Largest violation of each law over `trials` draws of g_law_violations."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    Gn = normalised(G)
    worst = dict.fromkeys(("subadditivity", "homogeneity", "monotone", "lipschitz"), 0.0)
    for _ in range(trials):
        for law, v in g_law_violations(G, Gn, rng).items():
            worst[law] = max(worst[law], v)
    return LawReport(worst)
