"""
Pointwise reference chain for the tests: the tangent projection, the
manifold inner product, the Laplace-Beltrami operator, the score Jacobian,
the two per-point objective terms built from them, and chart midpoint
grids. `tmsm.models.batch_terms` computes the same per-point terms in one
pass; these slower, term-by-term forms check it.

Also here, for the fit layer, everything the package computes from the
quadratic form of `_ScalingStats`, rebuilt point by point: the data moments
as means of per-point outer products, the three objective terms and both
sides of the identity check assembled from `batch_terms`, and the gradient
and Hessian of the Kent form over rotations with their curvature terms
expanded by hand, which the generator form of
`tmsm.estimator._frame_derivatives` must match.
"""

from __future__ import annotations

import numpy as np

from tmsm.boundary import ColatitudeBoundary, scaling_values
from tmsm.estimator import ObjectiveTerms, _chart_grid
from tmsm.models import ModelParams, VmfParams, batch_terms, log_unnormalized_density, score


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


def scaling_moments(x: np.ndarray, g: np.ndarray, grad: np.ndarray) -> dict:
    """
    The moments of `_ScalingStats` as means of per-point terms: quad from
    the n x 3 x 3 broadcast of g x x^T, first, the tangential part of
    grad g, its mean and its mean norm.
    """
    quad = (g[:, None, None] * (x[:, :, None] * x[:, None, :])).mean(axis=0)
    tang = grad - np.sum(x * grad, axis=1)[:, None] * x
    return {
        "quad": quad,
        "first": (g[:, None] * x).mean(axis=0),
        "tang": tang,
        "tgrad": tang.mean(axis=0),
        "tgrad_abs": float(np.linalg.norm(tang, axis=1).mean()),
    }


def pointwise_terms(params: ModelParams, x: np.ndarray, g: np.ndarray,
                    grad: np.ndarray) -> ObjectiveTerms:
    """
    The three objective terms as means over the points of g <psi, psi>_M,
    g Delta_M log p and <grad g, psi>_M, each from `batch_terms`.
    """
    psi, inner, lap = batch_terms(params, x)
    xg = np.sum(x * grad, axis=1)
    xp = np.sum(x * psi, axis=1)
    gg = np.sum(grad * psi, axis=1) - xg * xp
    return ObjectiveTerms(float((g * inner).mean()), float((g * lap).mean()), float(gg.mean()))


def pointwise_identity_sides(
    params: ModelParams,
    trunc_params: ModelParams,
    boundary: ColatitudeBoundary,
    g_kind: str,
    n_a: int,
    n_b: int,
    drop_axis: int | None = None,
) -> tuple[float, float]:
    """
    lhs and rhs of the identity check by chart quadrature of per-point
    terms: lhs integrates q g |psi_q - psi_p|^2_M less q g <psi_q, psi_q>_M,
    rhs integrates q times the three estimator terms at params.
    """
    nodes, w = _chart_grid(*boundary.a_interval(), n_a, n_b)
    log_q = log_unnormalized_density(trunc_params, nodes)
    q = np.exp(log_q - log_q.max())
    q /= w @ q
    g, grad_g, _ = scaling_values(boundary, nodes, g_kind, drop_axis)

    psi_q, inner_q, _ = batch_terms(trunc_params, nodes)
    psi_p, inner_p, lap_p = batch_terms(params, nodes)

    diff = psi_q - psi_p
    xd = np.sum(nodes * diff, axis=1)
    direct = np.sum(diff * diff, axis=1) - xd * xd
    c_q = float(w @ (q * g * inner_q))
    lhs = float(w @ (q * g * direct)) - c_q

    xg = np.sum(nodes * grad_g, axis=1)
    xp = np.sum(nodes * psi_p, axis=1)
    gg = np.sum(grad_g * psi_p, axis=1) - xg * xp
    rhs = float(w @ (q * (g * inner_p + 2.0 * g * lap_p + 2.0 * gg)))
    return lhs, rhs


# L_i = [e_i]x, so L_i v = e_i x v, and P_ij = (L_i L_j + L_j L_i) / 2.
_TURNS = -np.cross(np.eye(3)[:, None], np.eye(3)[None])
_TURNS2 = 0.5 * (np.einsum("ikl,jlm->ijkm", _TURNS, _TURNS)
                 + np.einsum("jkl,ilm->ijkm", _TURNS, _TURNS))


def frame_derivatives_by_turns(
    w: np.ndarray, b: np.ndarray, kappa: float, alpha: float, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    J and its gradient (m, 3) and Hessian (m, 3, 3) at omega = 0 along
    R = exp([omega]x) turning the rows of each of `frames` (m, 3, 3),
    with the turns of mu and S written out.

    With t = (kappa mu, 2 alpha vec S), S = gamma1 gamma1^T - gamma2 gamma2^T
    and u = 2 W t + b the gradient of the form in t,

        dt_i   = (kappa L_i mu, 2 alpha vec(L_i S + (L_i S)^T)),
        d2t_ij = (kappa P_ij mu,
                  2 alpha vec(P_ij S + S P_ij - L_i S L_j - L_j S L_i)),
        g_i  = u.dt_i,   H_ij = 2 dt_i^T W dt_j + u.d2t_ij.

    The u.d2t_ij term contracts the matrix part through V = U + U^T
    (U = u[3:] as a 3x3 matrix), since P_ij S and L_i S L_j have transposes
    S P_ij and L_j S L_i.
    """
    mu, g1, g2, m = frames[:, 0], frames[:, 1], frames[:, 2], len(frames)
    s = g1[:, :, None] * g1[:, None, :] - g2[:, :, None] * g2[:, None, :]
    t = np.hstack([kappa * mu, 2.0 * alpha * s.reshape(-1, 9)])
    value = np.einsum("mi,ij,mj->m", t, w, t) + t @ b
    u = 2.0 * t @ w + b
    v = u[:, 3:].reshape(-1, 3, 3)
    v = v + v.transpose(0, 2, 1)
    ls = np.einsum("ikl,mln->mikn", _TURNS, s)
    dt = np.concatenate([kappa * np.einsum("ikl,ml->mik", _TURNS, mu),
                         2.0 * alpha * (ls + ls.transpose(0, 1, 3, 2)).reshape(m, 3, 9)], axis=2)
    grad = np.einsum("mik,mk->mi", dt, u)
    curve = (kappa * np.einsum("mk,ijkl,ml->mij", u[:, :3], _TURNS2, mu)
             + 2.0 * alpha * (np.einsum("mkn,ijkl,mln->mij", v, _TURNS2, s)
                              - np.einsum("mikn,jnp,mkp->mij", ls, _TURNS, v)))
    hess = 2.0 * np.einsum("mik,kl,mjl->mij", dt, w, dt) + curve
    return value, grad, hess
