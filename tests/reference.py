"""
Pointwise reference chain for the tests: the tangent projection, the
manifold inner product, the Laplace-Beltrami operator, the score Jacobian,
the two per-point objective terms built from them, and chart midpoint
grids. `tmsm.models.batch_terms` computes the same terms in one pass and is
what the package uses; these slower, term-by-term forms check it.
"""

from __future__ import annotations

import numpy as np

from tmsm.boundary import ColatitudeBoundary
from tmsm.estimator import _chart_grid
from tmsm.models import ModelParams, VmfParams, score


def projection(x: np.ndarray) -> np.ndarray:
    """
    Orthogonal projection onto the tangent plane at x.

    Args:
        x: Unit vector(s) [..., 3].

    Returns:
        Matrix [..., 3, 3] equal to I - x x^T; symmetric, idempotent,
        annihilates x, trace 2.
    """
    x = np.asarray(x, dtype=float)
    eye = np.broadcast_to(np.eye(3), x.shape + (3,))
    return eye - x[..., :, None] * x[..., None, :]


def manifold_inner(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """
    Inner product of two ambient vectors after projection at x.

    (P u)^T (P v) = u^T v - (x^T u)(x^T v) since P is an orthogonal
    projection.

    Args:
        x: Base point(s) [..., 3].
        u, v: Ambient vector(s) [..., 3].

    Returns:
        Scalar or array of tangential inner products.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.sum(u * v, axis=-1) - np.sum(x * u, axis=-1) * np.sum(x * v, axis=-1)
    return float(out) if out.ndim == 0 else out


def laplace_beltrami(x: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> float | np.ndarray:
    """
    Laplace-Beltrami value from ambient first and second derivatives.

    For a function on the sphere with ambient extension f, the intrinsic
    Laplacian at x is tr(P H) - 2 x^T grad where grad and H are the ambient
    gradient and Hessian of f at x. Reproduces the classical identity
    Delta(c^T x) = -2 c^T x for linear forms.

    Args:
        x: Base point(s) [..., 3].
        grad: Ambient gradient(s) [..., 3].
        hess: Ambient Hessian(s) [..., 3, 3].

    Returns:
        Scalar or array of intrinsic Laplacian values.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    tr = np.trace(hess, axis1=-2, axis2=-1)
    xhx = np.sum(x * np.matmul(hess, x[..., None])[..., 0], axis=-1)
    out = tr - xhx - 2.0 * np.sum(x * grad, axis=-1)
    return float(out) if out.ndim == 0 else out


def score_jacobian(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """
    Ambient Jacobian of the score at x.

    Zero for vMF; the constant outer-product form
    2*alpha*(gamma1 gamma1^T - gamma2 gamma2^T) for Kent.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(params, VmfParams):
        jac = np.zeros((3, 3))
    else:
        jac = 2.0 * params.alpha * (
            np.outer(params.gamma1, params.gamma1) - np.outer(params.gamma2, params.gamma2)
        )
    return np.broadcast_to(jac, x.shape[:-1] + (3, 3)).copy()


def model_inner_product_term(params: ModelParams, x: np.ndarray) -> float | np.ndarray:
    """Tangential squared score <psi, psi>_M at x; kappa^2 (1 - (mu.x)^2) for vMF."""
    psi = score(params, x)
    return manifold_inner(x, psi, psi)


def model_laplacian_term(params: ModelParams, x: np.ndarray) -> float | np.ndarray:
    """Intrinsic Laplacian of the log density at x; -2 kappa mu.x for vMF."""
    return laplace_beltrami(x, score(params, x), score_jacobian(params, x))


def region_grid(
    boundary: ColatitudeBoundary, n_a: int, n_b: int
) -> tuple[np.ndarray, np.ndarray]:
    """
    Midpoint product grid over a colatitude-bounded region.

    Returns:
        (nodes (n_a*n_b, 3), weights (n_a*n_b,)); weights include the
        sin(a) area element, so `weights @ f(nodes)` approximates the
        surface integral of f over the region.
    """
    a_lo, a_hi = boundary.a_interval()
    return _chart_grid(a_lo, a_hi, n_a, n_b)


def sphere_grid(n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint quadrature grid over the whole sphere."""
    return _chart_grid(0.0, np.pi, n_a, n_b)
