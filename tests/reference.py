"""
Pointwise reference chain for the tests: the tangent projection, the
manifold inner product, the Laplace-Beltrami operator, the score Jacobian,
the two per-point objective terms built from them, and chart midpoint
grids. `tmsm.models.batch_terms` computes the same per-point terms in one
pass; these slower, term-by-term forms check it.

Also here, for the boundary layer, the colatitude haversine g and the
projected g of every boundary kind as (n, 3) and (n, 2) broadcasts: the
package forms them on (3, n) and (2, n) rows and must match them bit for
bit. The projected g checks its fold rule the way the package once did,
per call (`_check_hemisphere`): the package builds the rule with the
boundary and must raise exactly where this does, with the same message.

And for the fit layer, everything the package computes from the
quadratic form of `_ScalingStats`, rebuilt point by point: the data moments
as means of per-point outer products, the three objective terms and both
sides of the identity check assembled from `batch_terms`, and J with its
gradient and Hessian over rotations twice, with the curvature terms
expanded by hand and as products with the three constant 12x12 turn
generators. `tmsm.estimator._frame_state` gets all three from one product
of r (x) r, r = (mu, vec S, 1), with the per-fit (169, 13) map of
`_polish_form`, and must match both.

And the start rule the Kent frame fit used before it picked by
direction: the best grid frames pairwise more than 0.5 rad apart as
rotations, by a full separation pass over all 3,600 grid frames per pick,
and the objective a fit polished from those starts reaches. The package's
rule must reach as low an objective.

And two kernels in their array forms: the frame completion as
`unit_vector` and `np.cross` build it, and the flat chart distance as a
(2, k, n) broadcast with an argmin over the segments. The package works
the frame out on Python floats and scans the segments one at a time, and
must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from tmsm.boundary import (
    ColatitudeBoundary,
    PolylineBoundary,
    _cross,
    _mirror_symmetric,
    _nearest_on_arcs,
    _nearest_projected,
    _norm,
    default_drop_axis,
    scaling_values,
)
from tmsm.estimator import _FRAME_GRID, ObjectiveTerms, _chart_grid, _grid_values, _newton_polish
from tmsm.geometry import unit_vector
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


def broadcast_haversine(boundary, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    `haversine_scaling` with the gradient as an (n, 3) array: stacked
    along the last axis and masked by ok[:, None] on a colatitude circle,
    assigned row by row on a polyline.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(boundary, ColatitudeBoundary):
        sa = np.hypot(x[:, 1], x[:, 2])
        a = np.arctan2(sa, x[:, 0])
        signed = a - boundary.a0 if boundary.side == "greater" else boundary.a0 - a
        ok = signed > 1e-12
        cot = x[:, 0] / np.where(sa > 0, sa, 1.0)
        sign = 1.0 if boundary.side == "greater" else -1.0
        tang = np.stack([-sa, cot * x[:, 1], cot * x[:, 2]], axis=-1)
        return np.where(ok, signed, 0.0), np.where(ok[:, None], sign * tang, 0.0)
    g, near = _nearest_on_arcs(boundary._arcs, x)
    ok = g > 1e-12
    xo = x[ok].T
    toward = _cross(_cross(xo, near[ok].T), xo)
    grad = np.zeros((len(x), 3))
    grad[ok] = (-toward / _norm(toward)).T
    g[~ok] = 0.0
    return g, grad


def _drop_index(drop_axis: int) -> int:
    if drop_axis not in (1, 2, 3):
        raise ValueError(f"drop_axis must be 1, 2, or 3 (coordinate number), got {drop_axis}")
    return drop_axis - 1


def _check_hemisphere(boundary, drop_idx: int, x: np.ndarray) -> None:
    """
    Validate that the projection preserves the zero set of the distance.

    Allowed: the boundary lies in one closed hemisphere of the dropped
    axis (projection injective over the region side), or the boundary is
    mirror-symmetric in that axis (the fold maps boundary onto boundary).
    Anything else would let interior points project onto the projected
    boundary, so it is rejected.

    The extent of the boundary along the dropped axis is exact: a
    colatitude circle lies in the plane x1 = cos a0 and is mirror-symmetric
    in x2 and x3; a polyline's minor arcs are conic combinations of their
    endpoints, so each keeps the sign its two vertices share.
    """
    if isinstance(boundary, ColatitudeBoundary):
        c0, s0 = np.cos(boundary.a0), np.sin(boundary.a0)
        lo, hi = (c0, c0) if drop_idx == 0 else (-s0, s0)
    else:
        coords = boundary.vertices[:, drop_idx]
        lo, hi = coords.min(), coords.max()
    tol = 1e-9
    if lo < -tol and hi > tol:
        # A straddling circle is mirror-symmetric; a polyline must be checked.
        if isinstance(boundary, PolylineBoundary) and not _mirror_symmetric(boundary.vertices, drop_idx):
            raise ValueError(
                f"boundary straddles the drop-axis coordinate plane "
                f"asymmetrically (coordinate x{drop_idx + 1}); the projection "
                "would place interior points on the projected boundary"
            )
        return
    side = 0.0
    if hi > tol:
        side = 1.0
    elif lo < -tol:
        side = -1.0
    q = x[:, drop_idx]
    if side != 0.0:
        if np.any(q * side < -tol):
            raise ValueError(
                "query points lie on the far side of the projection plane; "
                "the region is not contained in one hemisphere of the dropped axis"
            )
    else:
        if q.max() > tol and q.min() < -tol:
            raise ValueError(
                "query points span both hemispheres of the dropped axis; "
                "projection would fold"
            )


def broadcast_projected(boundary, x: np.ndarray,
                        drop_axis: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """
    `projected_scaling` on (n, 2) arrays of the kept coordinates: the
    fold rule worked out per call by `_check_hemisphere`, the nearest
    point as an (n, 2) array for each boundary kind, g from
    `np.linalg.norm` along axis 1 and the gradient through [:, None]
    broadcasts.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    drop_idx = _drop_index(default_drop_axis(boundary) if drop_axis is None else drop_axis)
    _check_hemisphere(boundary, drop_idx, x)
    keep = [i for i in range(3) if i != drop_idx]
    xe, n = x[:, keep], len(x)
    if isinstance(boundary, ColatitudeBoundary):
        c0, s0 = np.cos(boundary.a0), np.sin(boundary.a0)
        if drop_idx == 0:
            r = np.linalg.norm(xe, axis=1, keepdims=True)
            nearest = s0 * np.where(r > 0.0, xe, [1.0, 0.0]) / np.where(r > 0.0, r, 1.0)
        else:
            nearest = np.column_stack([np.full(n, c0), np.clip(xe[:, 1], -s0, s0)])
    else:
        nearest = _nearest_projected(boundary._projected[drop_idx], xe).T
    diff = xe - nearest
    g = np.linalg.norm(diff, axis=1)
    ok = g > 1e-12
    grad = np.zeros((n, 3))
    grad[:, keep] = np.where(ok[:, None], diff / np.where(ok, g, 1.0)[:, None], 0.0)
    return np.where(ok, g, 0.0), grad


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
    g, grad_g = scaling_values(boundary, nodes, g_kind, drop_axis)

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


# The 12x12 generators G_i = blockdiag(L_i, L_i (x) I - I (x) L_i^T) with which
# a turn acts on t = (kappa mu, 2 alpha vec S) (row-major vec).
_GEN = np.array([np.block([[l, np.zeros((3, 9))],
                           [np.zeros((9, 3)), np.kron(l, np.eye(3)) - np.kron(np.eye(3), l.T)]])
                 for l in _TURNS])


def frame_state_by_generators(
    w: np.ndarray, b: np.ndarray, scale: np.ndarray, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    J (m,), its gradient (m, 3) and its Hessian (m, 3, 3) at omega = 0
    along R = exp([omega]x) turning each of `frames` (m, 3, 3), with
    `scale` = (kappa 1_3, 2 alpha 1_9). Each frame's
    t = (kappa mu, 2 alpha vec S), S = gamma1 gamma1^T - gamma2 gamma2^T,
    gives J = t^T W t + b.t.

    The turn moves t to exp(sum omega_i G_i) t, so with u = 2 W t + b the
    gradient of the form in t and dt_i = G_i t,

        g_i = u.dt_i,   H_ij = 2 dt_i^T W dt_j + u.(G_i G_j + G_j G_i) t / 2,

    whose last term is the symmetric part of (G_i^T u).dt_j.
    """
    g1, g2 = frames[:, 1], frames[:, 2]
    s = g1[:, :, None] * g1[:, None, :] - g2[:, :, None] * g2[:, None, :]
    t = np.hstack([frames[:, 0], s.reshape(-1, 9)]) * scale
    m = len(t)
    u = 2.0 * t @ w + b
    dt = (t @ _GEN.reshape(36, 12).T).reshape(m, 3, 12)
    du = (u @ _GEN.transpose(1, 0, 2).reshape(12, 36)).reshape(m, 3, 12)
    cross = du @ dt.transpose(0, 2, 1)
    hess = 2.0 * (dt @ w) @ dt.transpose(0, 2, 1) + 0.5 * (cross + cross.transpose(0, 2, 1))
    return np.einsum("mi,ij,mj->m", t, w, t) + t @ b, np.einsum("mik,mk->mi", dt, u), hess


def cross_frame(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`complete_frame` on arrays, for one vector (3,) or for rows (m, 3):
    mu normalised by `unit_vector`, the seed axis at np.argmin of |mu|,
    v1 = unit_vector(mu x seed) and v2 = mu x v1."""
    mu = unit_vector(np.asarray(mu, dtype=float))
    seed = np.eye(3)[np.argmin(np.abs(mu), axis=-1)]
    v1 = unit_vector(np.cross(mu, seed))
    v2 = np.cross(mu, v1)
    return v1, v2


def broadcast_chart_distance(segments, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`ChartSegments.distance` as one (2, k, n) broadcast over all k
    segments, the nearest picked by np.argmin and gathered by fancy
    indexing."""
    z = np.atleast_2d(z)
    seg = segments.end - segments.start  # (k, 2)
    seg_len2 = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
    # (2, k, n) rows: coordinate, segment, point
    zt, start, step = z.T[:, None, :], segments.start.T[:, :, None], seg.T[:, :, None]
    rel = zt - start
    t = np.clip((rel[0] * step[0] + rel[1] * step[1]) / seg_len2[:, None], 0.0, 1.0)
    diff = zt - (start + t * step)
    d = np.sqrt(diff[0] * diff[0] + diff[1] * diff[1])  # (k, n)
    cols = np.arange(z.shape[0])
    idx = np.argmin(d, axis=0)
    dist = d[idx, cols]
    grad = np.zeros_like(z)
    pos = dist > 0
    grad[pos] = diff[:, idx, cols].T[pos] / dist[pos, None]
    return dist, grad


def frame_distance(frames: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """
    Rotation angle between each of `frames` (m, 3, 3) and `frame` (3, 3),
    the smaller of the two under (gamma1, gamma2) -> (-gamma1, -gamma2).
    """
    dots = np.einsum("mki,ki->mk", frames, frame)
    trace = np.maximum(dots.sum(axis=1), dots[:, 0] - dots[:, 1] - dots[:, 2])
    return np.arccos(np.clip(0.5 * (trace - 1.0), -1.0, 1.0))


def frame_separated_starts(values: np.ndarray, count: int = 4, separation: float = 0.5) -> np.ndarray:
    """Grid indices of the `count` lowest of the 3,600 grid `values` whose
    frames are pairwise more than `separation` rad apart, best first (ties
    lowest index first), by a full separation pass per pick."""
    free = np.ones(len(values), dtype=bool)
    picked = []
    while len(picked) < count and free.any():
        k = np.flatnonzero(free)[np.argmin(values[free])]
        picked.append(k)
        free &= frame_distance(_FRAME_GRID, _FRAME_GRID[k]) > separation
    return np.array(picked)


def frame_separated_objective(stats, kappa: float, alpha: float) -> float:
    """The lowest objective of the polishes from `frame_separated_starts`."""
    [values] = _grid_values([stats], kappa, alpha)
    starts = _FRAME_GRID[frame_separated_starts(values)]
    return float(_newton_polish([stats], kappa, alpha, [starts])[1].min())
