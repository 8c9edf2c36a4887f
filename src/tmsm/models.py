"""
von Mises-Fisher and Kent distributions on the unit sphere.

Unnormalized log-densities, ambient score functions (gradients of the log
density with respect to the data point), and, per point, the two
model-specific quantities of the sphere objective: the tangential squared
score and the intrinsic Laplacian of the log density. The estimator never
evaluates them point by point; it reads the objective off a quadratic form
in the natural parameters. Normalising constants are deliberately absent;
nothing here needs them.

Every operation broadcasts over leading point axes, so `x` may be a single
(3,) vector or an (n, 3) batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import unit_vector

# Concentrations above this are treated as degenerate by the baselines and
# flagged rather than refined further.
KAPPA_CAP = 1e6


@dataclass(frozen=True)
class VmfParams:
    """
    von Mises-Fisher parameters: mean direction and concentration.

    `mu` is normalized at construction; `kappa` must be positive and
    finite.
    """

    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        mu = unit_vector(np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", float(self.kappa))
        if not 0.0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")


def _check_kent_shape(kappa: float, alpha: float) -> None:
    """Raise ValueError unless kappa > 0 and alpha >= 0 are finite and
    2 alpha < kappa (unimodality); NaN fails too."""
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")
    if not 2.0 * alpha < kappa:
        raise ValueError(
            f"unimodality requires 2*alpha < kappa, got alpha={alpha}, kappa={kappa}"
        )


@dataclass(frozen=True)
class KentParams:
    """
    Kent parameters on S^2: orthonormal frame, concentration and ovalness.

    The frame {mu, gamma1, gamma2} is re-orthonormalized by Gram-Schmidt
    from the supplied vectors, so inputs need only be roughly orthogonal.
    The ovalness convention pairs +alpha with gamma1 and -alpha with
    gamma2 (the two ovalness coefficients sum to zero). Unimodality
    requires 2*alpha < kappa, enforced here.
    """

    mu: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    kappa: float
    alpha: float = 0.0

    def __post_init__(self):
        mu = unit_vector(np.asarray(self.mu, dtype=float))
        g1 = np.asarray(self.gamma1, dtype=float)
        g1 = g1 - np.dot(mu, g1) * mu
        n1 = np.linalg.norm(g1)
        if n1 < 1e-8:
            raise ValueError("gamma1 is (near-)parallel to mu; cannot build a frame")
        g1 = g1 / n1
        g2 = np.asarray(self.gamma2, dtype=float)
        g2 = g2 - np.dot(mu, g2) * mu - np.dot(g1, g2) * g1
        n2 = np.linalg.norm(g2)
        if n2 < 1e-8:
            raise ValueError("gamma2 lies in the span of mu and gamma1")
        g2 = g2 / n2
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "gamma1", g1)
        object.__setattr__(self, "gamma2", g2)
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "alpha", float(self.alpha))
        _check_kent_shape(self.kappa, self.alpha)

    def frame(self) -> np.ndarray:
        """Orthonormal frame as columns (mu, gamma1, gamma2) of a 3x3 matrix."""
        return np.stack([self.mu, self.gamma1, self.gamma2], axis=1)


ModelParams = Union[VmfParams, KentParams]


def log_unnormalized_density(params: ModelParams, x: np.ndarray) -> float | np.ndarray:
    """
    Log density without the normalising constant.

    vMF: kappa * mu.x; Kent adds alpha * ((gamma1.x)^2 - (gamma2.x)^2).
    """
    x = np.asarray(x, dtype=float)
    if isinstance(params, VmfParams):
        out = params.kappa * (x @ params.mu)
    else:
        t1 = x @ params.gamma1
        t2 = x @ params.gamma2
        out = params.kappa * (x @ params.mu) + params.alpha * (t1 * t1 - t2 * t2)
    return float(out) if np.ndim(out) == 0 else out


def score(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """
    Ambient gradient of the log density at x.

    vMF: kappa * mu, independent of x. Kent adds
    2*alpha*(gamma1 (gamma1.x) - gamma2 (gamma2.x)). Tangential projection
    is left to the call sites that need it.
    """
    x = np.asarray(x, dtype=float)
    base = params.kappa * params.mu
    if isinstance(params, VmfParams):
        return np.broadcast_to(base, x.shape).copy()
    t1 = x @ params.gamma1
    t2 = x @ params.gamma2
    return (
        base
        + 2.0 * params.alpha * (np.multiply.outer(t1, params.gamma1) - np.multiply.outer(t2, params.gamma2))
    )


def batch_terms(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Per-point (score, <psi,psi>_M, Laplacian) for a batch of points.

    No fit or check in the package calls it: the objective and the
    identity check read a quadratic form built from data moments. It is
    kept for the per-layer timing probe of the benchmark suite; the tests
    build their pointwise objective references from it and check it
    against a chain built from the tangent projection and the
    Laplace-Beltrami operator.

    Args:
        params: model parameters.
        x: Points (n, 3).

    Returns:
        (psi (n, 3), inner (n,), laplacian (n,)).
    """
    x = np.asarray(x, dtype=float)
    if isinstance(params, VmfParams):
        t = x @ params.mu
        psi = np.broadcast_to(params.kappa * params.mu, x.shape).copy()
        inner = params.kappa**2 * (1.0 - t * t)
        lap = -2.0 * params.kappa * t
        return psi, inner, lap
    t1 = x @ params.gamma1
    t2 = x @ params.gamma2
    psi = (
        params.kappa * params.mu
        + 2.0 * params.alpha * (np.multiply.outer(t1, params.gamma1) - np.multiply.outer(t2, params.gamma2))
    )
    xpsi = np.sum(x * psi, axis=-1)
    inner = np.sum(psi * psi, axis=-1) - xpsi * xpsi
    # tr(P H) = tr(H) - x^T H x with tr(H) = 0 for the Kent Jacobian.
    lap = -2.0 * params.alpha * (t1 * t1 - t2 * t2) - 2.0 * xpsi
    return psi, inner, lap
