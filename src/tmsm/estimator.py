"""
Score-matching estimation for truncated spherical samples.

The empirical objective combines three averages over the data, weighted by
a scaling function g that vanishes on the region boundary:

    (1/n) sum g(x_i) <psi_i, psi_i>_M
  + (2/n) sum g(x_i) Delta_M log p(x_i; beta)
  + (2/n) sum <grad g(x_i), psi_i>_M

where psi is the model score and all products are tangential. Minimizing
over beta needs no normalizing constant and no model of the truncation
mechanism beyond g itself.

The vMF and Kent scores are linear in theta = (eta, vec A), with
eta = kappa mu and A the Kent shape matrix, so on the sphere the objective
is one quadratic J(theta) = theta^T W theta + b^T theta built from
g-weighted data moments (Mardia, Kent & Laha 2016); the model kinds differ
only in the set theta ranges over. `_ScalingStats` holds that form. Its
eta block, M = W[:3, :3] and c = -b[:3] / 2, is built with the stats and is
all the vMF fits read: a 3x3 linear solve when kappa is free, and a
trust-region boundary problem (eigendecomposition plus a 1-D secular
equation) when kappa is known. The full 12x12 form is built on first use,
by the Kent frame fit only. With kappa and alpha known the frame still
enters nonlinearly, so that fit scores a fixed grid of frames, then
polishes the best separated grid frames together by a safeguarded Newton
iteration on the closed-form gradient and Hessian over rotations (Absil,
Mahony & Sepulchre 2008, ch. 6). The grid is scored a direction at a
time: at a fixed mu the shape matrix over the gamma1 angle psi is
S = cos 2 psi S0 + sin 2 psi S1, so J there is a 3x3 quadratic form in
(1, cos 2 psi, sin 2 psi), and one product of the direction bases with W
gives the 300 forms. Each direction stands for its best angle's frame,
and the polishes start from the best directions whose mu are pairwise
far apart, found by a full stable sort of the 300 direction minima. A
rotation acts on theta = (kappa mu, 2 alpha vec S) by a linear map
whatever kappa and alpha are, so J and its gradient and Hessian over
rotations are quadratic forms in r = (mu, vec S, 1): once per fit they
are folded into one (169, 13) map, and each polish trial's state is one
product of r (x) r with it. No start is random and every evaluation is
O(1) in the sample size. `_fit_kent_frames` fits many datasets at once
(the harness passes a block of cells; `estimate` passes one): their grid
products and trial states are stacks of each fit's own products, of the
shapes a fit has alone, so each result is the one it gets alone, to the
bit.

The form is the only way the objective is evaluated: `tmsm_objective`
reads its three terms off it at theta, and `ibp_identity_check` builds the
same form from chart quadrature nodes weighted by the truncated density,
so both of its sides are forms in theta. They agree only because g is zero
on the boundary; the check doubles as a convergence diagnostic for the
chart quadrature.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError

from .boundary import Boundary, ColatitudeBoundary, _csv_columns, _csv_text, _dot, scaling_values
from .geometry import to_euclidean, to_spherical
from .models import (
    KAPPA_CAP,
    KentParams,
    ModelParams,
    VmfParams,
    _check_kent_shape,
    log_unnormalized_density,
)

# The model kinds, each with the `fixed` parameters it needs; it accepts
# no others.
_FIXED_PARAMS = {"vmf_mu_only": ("kappa",), "vmf_mu_kappa": (), "kent_frame": ("kappa", "alpha")}
MODEL_KINDS = tuple(_FIXED_PARAMS)


@dataclass
class Dataset:
    """Observed unit vectors, all expected to lie inside the region.

    Attributes:
        x: (n, 3) array of unit vectors.
    """

    x: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.shape[0] < 1 or x.shape[1] != 3:
            raise ValueError("dataset must be a non-empty (n, 3) array")
        norms = np.linalg.norm(x, axis=1)
        # written as "not <=" so that a NaN norm fails it too
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("dataset rows must be unit vectors")
        self.x = x

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_spherical(cls, a: np.ndarray, b: np.ndarray) -> "Dataset":
        return cls(to_euclidean(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))

    def spherical(self) -> tuple[np.ndarray, np.ndarray]:
        return to_spherical(self.x)

    def validate_membership(self, boundary: Boundary) -> None:
        """Raise if any point falls outside the region. It is the one
        membership test of a fit: the scaling functions take points of the
        region and do not test it."""
        inside = np.asarray(boundary.contains(self.x))
        if not np.all(inside):
            bad = int(np.flatnonzero(~inside)[0])
            raise ValueError(
                f"{int((~inside).sum())} data point(s) outside the region "
                f"(first at row {bad}); the scaling function is undefined there"
            )

    def to_csv(self, path) -> None:
        a, b = self.spherical()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a_rad", "b_rad", "x1", "x2", "x3"])
            for i in range(self.n):
                writer.writerow([f"{v:.17g}" for v in (a[i], b[i], *self.x[i])])

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Read the columns a_rad and b_rad of a CSV as `to_csv` writes it,
        the way `load_boundary_csv` reads its file: the header is the first
        non-blank line, its names stripped of spaces, a UTF-8 byte-order
        mark is dropped, and a row without either value raises
        `ValueError` naming its line. Every `ValueError` it raises names
        the path once."""
        try:
            a, b = _csv_columns(_csv_text(path), (("a_rad", "b_rad"),), "dataset")[1].T
            return cls.from_spherical(a, b)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


@dataclass
class ObjectiveTerms:
    """The three averaged sums of the truncated objective, read off the
    forms of `_ScalingStats.kent_terms` at theta.

    `total` applies the 1-2-2 weighting; keeping the raw terms separate
    makes the g = 1 reduction easy to inspect.
    """

    inner_term: float
    laplacian_term: float
    gradient_g_term: float

    @property
    def total(self) -> float:
        return self.inner_term + 2.0 * self.laplacian_term + 2.0 * self.gradient_g_term


@dataclass
class EstimationResult:
    """Fitted parameters and how the fit was obtained.

    Every report reads it one way, through `tmsm.bench._fit_entry`: a
    storms fit entry and `tmsm estimate`'s `estimate.json` carry params,
    objective and converged as that gives them, and the latter also
    iterations. How many polishes a Kent fit runs is a constant of the
    code (`_POLISH_STARTS`), not a property of the fit, and is not kept.

    Attributes:
        params: fitted model parameters.
        objective: objective total at `params`.
        iterations: for "kent_frame", the Newton steps plus the
            line-search evaluations of all polishes together (the grid
            scoring is not counted); 0 for the closed-form vMF fits.
        converged: for "kent_frame", whether the chosen polish ended with
            a gradient norm over rotations of at most
            1e-6 max(1, |objective|) (the frame is returned either way);
            always True for the closed-form vMF fits.
    """

    params: ModelParams
    objective: float
    iterations: int
    converged: bool


class _ScalingStats:
    """
    The objective of one dataset as a quadratic form; everything here is
    free of the parameters.

    With theta = (eta, vec A) the objective total is
    J(theta) = theta^T W theta + b^T theta (see `kent_terms`). Built at once
    are g and the tangential part of grad g at the data (grad g itself is
    not kept), the moments gbar = mean g, quad = mean
    g x x^T, first = mean g x and tgrad = mean tangential part of grad g
    (tgrad_abs = mean norm of that part). They are formed on (3, n) rows,
    x^T taken once as a contiguous array `xt` and (grad g)^T read without
    a copy when it already is one: quad = (g x^T)(x^T)^T / n is one matrix
    product, the tangential part is formed row by row in `_dot`'s order,
    and first and tgrad are means along contiguous rows, which numpy sums
    pairwise (`tang` is kept as the (n, 3) transposed view). From them
    comes the eta block of the form: m = gbar I - quad = W[:3, :3] and
    c = 2 first - tgrad = -b[:3] / 2, so a vMF fit minimises
    eta^T m eta - 2 c^T eta. The rest of W and b needs the third and
    fourth moments, so `kent_form` builds it on first use and the vMF fits
    never pay for it. Every moment is linear in (g, grad g) and tgrad_abs
    is positively homogeneous, so the stats of (s g, s grad g) with s >= 0
    are s-weighted means: `ibp_identity_check` builds its quadrature form
    that way.
    """

    def __init__(self, x: np.ndarray, g: np.ndarray, grad: np.ndarray):
        self.x = x
        self.g = g
        self.gbar = float(g.mean())
        self.xt = xt = np.ascontiguousarray(x.T)
        grad_t = np.ascontiguousarray(grad.T)
        gxt = g * xt
        self.quad = gxt @ xt.T / len(g)
        self.first = gxt.mean(axis=1)
        tang = grad_t - _dot(xt, grad_t) * xt
        self.tang = tang.T
        self.tgrad = tang.mean(axis=1)
        self.tgrad_abs = float(np.sqrt(_dot(tang, tang)).mean())
        self.m = self.gbar * np.eye(3) - self.quad
        self.c = 2.0 * self.first - self.tgrad

    @cached_property
    def kent_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """
        (W, b_lap, b_gg): the Kent terms as forms in theta = (eta, vec A).

        The Kent score is psi = eta + A x with eta = kappa mu and
        A = 2 alpha (gamma1 gamma1^T - gamma2 gamma2^T), symmetric and
        traceless. Averaging the per-point terms g <psi, psi>_M,
        g Delta_M log p and <grad g, psi>_M gives

            inner      = eta^T (gbar I - Q) eta + 2 eta^T (A f - T3:A)
                         + <A^2, Q> - vec(A)^T T4 vec(A) = theta^T W theta,
            laplacian  = -3 <A, Q> - 2 eta.f                = b_lap . theta,
            gradient_g = tgrad.eta + <A, G>                  = b_gg . theta,

        with f = first, Q = quad, T3 = mean g x(x)x(x)x (9x3),
        T4 = mean g (x(x)x)(x(x)x)^T (9x9) and G = mean t x^T, t the
        tangential part of grad g. vec is row-major, and <A^2, Q> is
        vec(A)^T (I (x) Q) vec(A) because A is symmetric. The vMF model is
        A = 0, the eta block alone. T3, T4 and G are products of contiguous
        rows (the (9, n) rows of x(x)x, the (3, n) rows `xt` and those of t),
        so they do not depend on the memory layout of the data. W is filled
        in place block by block; the Kent polish folds it with b into the
        per-fit (169, 13) map of `_polish_form`, so each of its trial states
        is one product.
        """
        xt, n = self.xt, self.xt.shape[1]
        xxt = (xt[:, None, :] * xt[None, :, :]).reshape(9, n)
        gxxt = self.g * xxt
        t3 = gxxt @ xt.T / n
        t4 = gxxt @ xxt.T / n
        # W is [[m, I (x) f - T3^T], [., I (x) Q - T4]]: zeros less T3^T and
        # T4, then f and Q added on the diagonal blocks of the Kronecker terms
        w = np.zeros((12, 12))
        w[:3, :3] = self.m
        w[:3, 3:] -= t3.T
        w[3:, 3:] -= t4
        blocks, i = w.reshape(4, 3, 4, 3), np.arange(3)
        blocks[0, i, i + 1] += self.first
        blocks[i + 1, :, i + 1] += self.quad
        w[3:, :3] = w[:3, 3:].T
        b_lap = np.concatenate([-2.0 * self.first, -3.0 * self.quad.ravel()])
        b_gg = np.concatenate([self.tgrad, (self.tang.T @ xt.T / n).ravel()])
        return w, b_lap, b_gg

    @cached_property
    def kent_form(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, b) with the objective total theta^T W theta + b^T theta:
        the 1-2-2 weighting of `kent_terms` gives b = 2 (b_lap + b_gg)."""
        w, b_lap, b_gg = self.kent_terms
        return w, 2.0 * (b_lap + b_gg)


def _scaling_stats(
    data: Dataset, boundary: Boundary | None, g_kind: str, drop_axis: int | None
) -> _ScalingStats:
    """g and its gradient at the data. Membership is validated here, once,
    for every g_kind but "unit", which reads no boundary: the scaling
    functions take points of the region and do not test it, and
    `scaling_values` rejects a missing boundary."""
    if g_kind != "unit" and boundary is not None:
        data.validate_membership(boundary)
    return _ScalingStats(data.x, *scaling_values(boundary, data.x, g_kind, drop_axis))


def tmsm_objective(
    params: ModelParams,
    data: Dataset,
    boundary: Boundary | None,
    g_kind: str = "haversine",
    drop_axis: int | None = None,
) -> ObjectiveTerms:
    """
    Evaluate the three-term truncated objective at the given parameters.

    Args:
        params: model parameters.
        data: observed points; every point must lie inside the region
            unless g_kind is "unit".
        boundary: region boundary (ignored for g_kind "unit").
        g_kind: "haversine", "projected", or "unit".
        drop_axis: projection axis for g_kind "projected".

    Returns:
        ObjectiveTerms; `.total` is the quantity the estimator minimizes.

    Raises:
        ValueError: if any data point lies outside the region.
    """
    stats = _scaling_stats(data, boundary, g_kind, drop_axis)
    w, b_lap, b_gg = stats.kent_terms
    theta = _theta(params)
    return ObjectiveTerms(float(theta @ w @ theta), float(b_lap @ theta), float(b_gg @ theta))


def _frame_grid(n_directions: int, n_angles: int) -> np.ndarray:
    """
    Frames (rows mu, gamma1, gamma2) over Fibonacci directions for mu and
    evenly spaced gamma1 angles in [0, pi), shape (n_directions * n_angles, 3, 3).

    [0, pi) suffices because A is unchanged by (gamma1, gamma2) ->
    (-gamma1, -gamma2).
    """
    i = np.arange(n_directions) + 0.5
    z = 1.0 - 2.0 * i / n_directions
    turn = np.pi * (3.0 - np.sqrt(5.0)) * i
    r = np.sqrt(1.0 - z * z)
    mu = np.stack([z, r * np.cos(turn), r * np.sin(turn)], axis=-1)
    v1 = np.cross(mu, np.eye(3)[np.argmin(np.abs(mu), axis=1)])  # as in complete_frame
    v1 /= np.linalg.norm(v1, axis=1, keepdims=True)
    v2 = np.cross(mu, v1)
    psi = np.arange(n_angles) * (np.pi / n_angles)
    c, s = np.cos(psi)[None, :, None], np.sin(psi)[None, :, None]
    gamma1 = c * v1[:, None] + s * v2[:, None]
    gamma2 = c * v2[:, None] - s * v1[:, None]  # mu x gamma1
    mu = np.broadcast_to(mu[:, None], gamma1.shape)
    return np.stack([mu, gamma1, gamma2], axis=2).reshape(-1, 3, 3)


def _frame_table(frames: np.ndarray) -> np.ndarray:
    """r = (mu, vec S, 1) of each of `frames` (m, 3, 3), shape (m, 13), with
    S = gamma1 gamma1^T - gamma2 gamma2^T: so t = (kappa mu, 2 alpha vec S)
    is r[:12] scaled column-wise by (kappa 1_3, 2 alpha 1_9)."""
    g1, g2 = frames[:, 1], frames[:, 2]
    r = np.ones((len(frames), 13))
    r[:, :3] = frames[:, 0]
    r[:, 3:12] = (g1[:, :, None] * g1[:, None, :] - g2[:, :, None] * g2[:, None, :]).reshape(-1, 9)
    return r


def _grid_forms(frames: np.ndarray, n_angles: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    (B, B^T, Z) with which a direction's grid frames score as quadratics in
    z = (1, cos 2 psi, sin 2 psi). The direction's angle-0 frame of
    `frames` (d, 3, 3) has rows (mu, v1, v2), and its frame at angle psi has
    gamma1 = cos psi v1 + sin psi v2, so S = cos 2 psi S0 + sin 2 psi S1
    with S0 = v1 v1^T - v2 v2^T and S1 = v1 v2^T + v2 v1^T: its
    (mu, vec S) is z^T B_d, where B_d stacks (mu, 0), (0, vec S0)
    and (0, vec S1). So for t = (kappa mu, 2 alpha vec S) = z^T B_d D,
    D = diag(kappa 1_3, 2 alpha 1_9),

        J = z^T G_d z + h_d.z,   G_d = B_d D W D B_d^T,   h_d = B_d D b.

    B is the B_d stacked as (3d, 12) rows, B^T the B_d^T as a contiguous
    (d, 12, 3) array, and Z (12, n_angles) maps the row (vec G_d, h_d) to
    the J of the direction's n_angles frames.
    """
    mu, v1, v2 = frames[:, 0], frames[:, 1], frames[:, 2]
    basis = np.zeros((len(frames), 3, 12))
    basis[:, 0, :3] = mu
    basis[:, 1, 3:] = (v1[:, :, None] * v1[:, None] - v2[:, :, None] * v2[:, None]).reshape(-1, 9)
    basis[:, 2, 3:] = (v1[:, :, None] * v2[:, None] + v2[:, :, None] * v1[:, None]).reshape(-1, 9)
    psi = np.arange(n_angles) * (np.pi / n_angles)  # as in _frame_grid
    z = np.stack([np.ones(n_angles), np.cos(2.0 * psi), np.sin(2.0 * psi)])
    angle_forms = np.vstack([(z[:, None] * z[None]).reshape(9, -1), z])
    return basis.reshape(-1, 12), np.ascontiguousarray(basis.transpose(0, 2, 1)), angle_forms


# 300 directions x 12 gamma1 angles, built once per process with the
# directions' `_grid_forms` (B_d^T is contiguous since the batched G_d
# product reads it that way fastest). The polishes start from
# _POLISH_STARTS directions whose mu are pairwise more than
# _START_SEPARATION rad apart; _FAR_DIRECTIONS marks those pairs.
_FRAME_GRID = _frame_grid(300, 12)
_GRID_ROWS, _GRID_COLUMNS, _ANGLE_FORMS = _grid_forms(_FRAME_GRID[::12], 12)
_POLISH_STARTS = 4
_START_SEPARATION = 0.5
_FAR_DIRECTIONS = _FRAME_GRID[::12, 0] @ _FRAME_GRID[::12, 0].T < np.cos(_START_SEPARATION)
# A polish counts as converged when its final gradient over rotations has
# norm at most _GRAD_TOL max(1, |J|). Newton stops at 1e-10 max(1, |J|),
# since it takes the full steps whose decrease J cannot resolve.
_GRAD_TOL = 1e-6

# J is unchanged by (gamma1, gamma2) -> (-gamma1, -gamma2), so polishes half
# a turn apart end on the two signs of one frame with J equal up to
# rounding. A fit reports the sign with gamma1 . _GAMMA_SIGN >= 0, for this
# fixed generic unit vector, so the sign does not depend on which won.
_GAMMA_SIGN = np.array([0.36, 0.48, 0.8])


def _pick_starts(values: np.ndarray) -> np.ndarray:
    """
    Grid indices (F, _POLISH_STARTS) of the frames that start each fit's
    polishes, best first, from its row of grid values (F, 3,600). Each
    direction stands for its best angle (the first of equal values). The
    walk over the directions in stable ascending order of those minima
    takes each direction whose mu is more than _START_SEPARATION rad from
    the mu of every direction taken before it. A pick rules out at most 21
    of the 300 directions, so the walk always takes _POLISH_STARTS.
    """
    by_direction = values.reshape(len(values), -1, 12)
    angles = np.argmin(by_direction, axis=2)
    best = np.take_along_axis(by_direction, angles[:, :, None], axis=2)[:, :, 0]
    picks = np.empty((len(values), _POLISH_STARTS), dtype=int)
    for f, order in enumerate(np.argsort(best, axis=1, kind="stable")):
        free = np.ones(len(order), dtype=bool)
        for j in range(_POLISH_STARTS):
            picks[f, j] = d = order[np.argmax(free[order])]
            free &= _FAR_DIRECTIONS[d]
    return 12 * picks + np.take_along_axis(angles, picks, axis=1)


def _grid_values(stats_list: list[_ScalingStats], kappa: float, alpha: float) -> np.ndarray:
    """
    J at every grid frame of each of the F fits, shape (F, 3,600), scored a
    direction at a time (`_grid_forms`): with D = diag(kappa 1_3,
    2 alpha 1_9), one (900, 12) product of the stacked direction bases with
    D W D and one batched product with the B_d^T give each direction's 3x3
    G_d, one matrix-vector product with D b its h_d, and one (300, 12) by
    (12, 12) product with _ANGLE_FORMS the J of its 12 frames,
    z^T G_d z + h_d.z. Each is a stack of the F fits' own products, of the
    shapes a single fit has, so a fit's values do not depend on the others.
    """
    w, b = (np.stack(part) for part in zip(*(stats.kent_form for stats in stats_list)))
    scale = _table_scale(kappa, alpha)
    wb = (_GRID_ROWS @ (scale[:, None] * w * scale)).reshape(len(w), -1, 3, 12)
    forms = (wb @ _GRID_COLUMNS).reshape(len(w), -1, 9)
    h = (_GRID_ROWS @ (scale * b)[:, :, None]).reshape(len(w), -1, 3)
    return (np.concatenate([forms, h], axis=2) @ _ANGLE_FORMS).reshape(len(w), -1)


def _grid_starts(stats_list: list[_ScalingStats], kappa: float, alpha: float) -> np.ndarray:
    """The (F, _POLISH_STARTS, 3, 3) grid frames that start each fit's
    polishes, best first: `_pick_starts` on the `_grid_values`."""
    return _FRAME_GRID[_pick_starts(_grid_values(stats_list, kappa, alpha))]


# L_i = [e_i]x, so L_i v = e_i x v. A turn R = exp([omega]x) maps mu to
# R mu and S to R S R^T, so it maps t = (kappa mu, 2 alpha vec S) to
# exp(sum omega_i G_i) t whatever kappa and alpha are, with the constant
# generators G_i = blockdiag(L_i, L_i (x) I - I (x) L_i^T) (row-major vec),
# here padded by a zero row and column to act on r = (mu, vec S, 1).
# _GEN_COLUMNS stacks (I, 2 G_i, G_i G_j + G_j G_i) side by side and
# _GEN_ROWS the G_i^T on top of each other, for `_polish_form`.
_TURNS = -np.cross(np.eye(3)[:, None], np.eye(3)[None])
_GEN = np.zeros((3, 13, 13))
_GEN[:, :3, :3] = _TURNS
_GEN[:, 3:12, 3:12] = [np.kron(l, np.eye(3)) - np.kron(np.eye(3), l.T) for l in _TURNS]
_GEN_PAIRS = _GEN[:, None] @ _GEN[None] + _GEN[None] @ _GEN[:, None]
_GEN_COLUMNS = np.hstack([np.eye(13), *(2.0 * _GEN), *_GEN_PAIRS.reshape(9, 13, 13)])
_GEN_ROWS = _GEN.transpose(0, 2, 1).reshape(39, 13)
_TURN_ROWS = _TURNS.reshape(3, 9)  # omega @ _TURN_ROWS is vec [omega]x
# Newton steps per start: a guard, as grid starts converge in under 10.
_NEWTON_CAP = 50


def _table_scale(kappa: float, alpha: float) -> np.ndarray:
    """(kappa 1_3, 2 alpha 1_9), the column scale from (mu, vec S) to t."""
    return np.repeat([kappa, 2.0 * alpha], [3, 9])


def _theta(params: ModelParams) -> np.ndarray:
    """theta = (kappa mu, vec A) of the parameters: (kappa mu, 0) for vMF,
    and for Kent its frame's (mu, vec S) scaled by `_table_scale`."""
    if isinstance(params, VmfParams):
        return np.concatenate([params.kappa * params.mu, np.zeros(9)])
    return _frame_table(params.frame().T[None])[0, :12] * _table_scale(params.kappa, params.alpha)


def _polish_form(w: np.ndarray, b: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """
    The (169, 13) map M with which `_frame_state` reads J, its gradient and
    its Hessian over turns off r (x) r, r = (mu, vec S, 1) a frame's
    `_frame_table` row, for the form (W, b) at the column scale
    `scale` = `_table_scale(kappa, alpha)`.

    With D = diag(scale), t = D r[:12], so J = r^T V r for the 13x13
    V = [[D W D, D b / 2], [b^T D / 2, 0]]. D commutes with the generators
    G_i (padded to 13x13 by `_GEN`), so with u = 2 W t + b and dt_i = G_i t,
    g_i = u.dt_i and H_ij = 2 dt_i^T W dt_j + u.(G_i G_j + G_j G_i) t / 2,

        g_i  = r^T (2 V G_i) r,
        H_ij = r^T (2 G_i^T V G_j + V (G_i G_j + G_j G_i)) r.

    Column k of M is the vec of the k-th of these 13 matrices
    (J, g_1..3, H_11, H_12, .., H_33), from two products with constants.
    """
    v = np.zeros((13, 13))
    v[:12, :12] = scale[:, None] * w * scale
    v[:12, 12] = v[12, :12] = 0.5 * scale * b
    forms = (v @ _GEN_COLUMNS).reshape(13, 13, 13)
    turned = (_GEN_ROWS @ v @ _GEN_ROWS.T).reshape(3, 13, 3, 13).transpose(1, 0, 2, 3)
    forms[:, 4:] += 2.0 * turned.reshape(13, 9, 13)
    return forms.transpose(0, 2, 1).reshape(169, 13)


def _frame_state(form: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """
    (J, gradient, vec Hessian) at omega = 0 along R = exp([omega]x) turning
    each of `frames` (m, 3, 3), shape (m, 13): one outer product of the rows
    r = (mu, vec S, 1), S = gamma1 gamma1^T - gamma2 gamma2^T, and one
    product with `form` = `_polish_form(W, b, scale)`. A stack of F such
    maps (F, 169, 13) splits the frames into F runs of m / F, each read
    with its own map.
    """
    r = _frame_table(frames)
    rows = (r[:, :, None] * r[:, None]).reshape(*form.shape[:-2], -1, 169)
    return (rows @ form).reshape(-1, 13)


def _turn(frames: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """
    Rows of each frame turned by exp([omega]x), by Rodrigues' formula
    R = I + sin(a) / a K + (1 - cos a) / a^2 K^2, K = [omega]x, a = |omega|,
    written with the half angle h = a / 2 and s = sin(h) / h (1 at h = 0)
    as I + s cos(h) K + s^2 K^2 / 2, so a zero turn returns the frames.
    """
    half = 0.5 * np.sqrt(np.einsum("mi,mi->m", omega, omega))
    s = np.divide(np.sin(half), half, out=np.ones(len(half)), where=half > 0.0)
    k = (omega @ _TURN_ROWS).reshape(-1, 3, 3)
    rot = (s * np.cos(half))[:, None, None] * k + (0.5 * s * s)[:, None, None] * (k @ k)
    return frames + frames @ rot.transpose(0, 2, 1)


def _newton_polish(stats_list: list[_ScalingStats], kappa: float, alpha: float,
                   starts: np.ndarray):
    """
    Safeguarded Newton on SO(3) from `starts` (F, m, 3, 3), m per fit, all
    fits and starts at once.

    Each step solves with |H|, the Hessian with its eigenvalues replaced by
    their absolute values (floored at 1e-8 max|lambda|), so it points
    downhill even where H is indefinite. The step is halved until it
    passes the Armijo test and then turns the frame by Rodrigues' formula.
    A full step whose predicted decrease is below the rounding of J is
    accepted whatever J reads there, as J cannot resolve it. That rounding
    is 4 eps times |W| |t|^2 + |b| |t| with |t|^2 = kappa^2 + 8 alpha^2, a
    bound on the terms of J at every frame of its fit: they nearly cancel,
    so it is several times eps |J|. A start stops when its gradient norm is
    at most 1e-10 max(1, |J|), or when halving finds no decrease above the
    rounding of J.

    The starts run in lockstep as the rows of fixed-shape arrays. Boolean
    masks mark the rows still stepping (`live`) and those still halving
    in this step's line search (`todo`), a stopped row takes the null
    turn, and each line-search pass is one `_frame_state` call at all
    trial frames: a stack of F products of a fit's (m, 169) rows r (x) r
    with its own (169, 13) map of `_polish_form`, whose (J, gradient,
    Hessian) row an accepted trial keeps. Every other step acts on each
    row alone, and each fit's product has the same shape in any batch, so
    a fit's result does not depend on the fits polished with it, to the
    bit.

    Returns:
        (frames, J, gradient norms, evaluations): the first three shaped
        (F, m, ...); the evaluations (F,) count each fit's Newton steps
        plus the line-search evaluations of its starts.
    """
    fits, m = np.shape(starts)[:2]
    frames = np.array(starts, dtype=float).reshape(-1, 3, 3)  # a copy: accepted trials overwrite it
    forms, floor = np.empty((fits, 169, 13)), np.empty((fits, m))
    scale = _table_scale(kappa, alpha)
    rho = np.hypot(kappa, np.sqrt(8.0) * alpha)
    for f, stats in enumerate(stats_list):
        w, b = stats.kent_form
        forms[f] = _polish_form(w, b, scale)
        # |W| = max |lambda(W)|, the spectral norm of the symmetric W
        floor[f] = 4.0 * np.finfo(float).eps * (np.abs(np.linalg.eigvalsh(w)).max() * rho**2
                                                + np.linalg.norm(b) * rho)
    floor, live = floor.ravel(), np.ones(len(frames), dtype=bool)
    state = _frame_state(forms, frames)
    value, grad = state[:, 0], state[:, 1:4]  # views: accepted trials update them
    evals = np.zeros(len(frames), dtype=int)  # per row, summed per fit at the end
    for _ in range(_NEWTON_CAP):
        live &= np.linalg.norm(grad, axis=1) > 1e-10 * np.maximum(1.0, np.abs(value))
        if not live.any():
            break
        lam, vec = np.linalg.eigh(state[:, 4:].reshape(-1, 3, 3))
        lam = np.abs(lam)
        lam = np.maximum(lam, 1e-8 * lam.max(axis=1, keepdims=True))
        step = -np.einsum("mij,mj->mi", vec, np.einsum("mji,mj->mi", vec, grad) / lam)
        slope = np.einsum("mi,mi->m", grad, step)
        unresolved = -slope <= floor  # a full step J cannot resolve
        evals += live
        size = live.astype(float)  # a stopped row takes the null turn
        todo = live.copy()
        while todo.any():
            trial = _turn(frames, size[:, None] * step)
            new = _frame_state(forms, trial)
            evals += todo
            ok = todo & ((new[:, 0] <= value + 1e-4 * size * slope) | unresolved)
            np.copyto(state, new, where=ok[:, None])
            np.copyto(frames, trial, where=ok[:, None, None])
            todo &= ~ok
            np.multiply(size, 0.5, out=size, where=todo)
            stuck = todo & (-size * slope <= floor)
            live &= ~stuck
            todo &= ~stuck
    return (frames.reshape(fits, m, 3, 3), value.reshape(fits, m),
            np.linalg.norm(grad, axis=1).reshape(fits, m), evals.reshape(fits, m).sum(axis=1))


def _fit_kent_frames(stats_list: list[_ScalingStats], kappa: float,
                     alpha: float) -> list[EstimationResult]:
    """
    Seed-free frame fit of each dataset's stats, all at once: score the
    fixed frame grid a direction at a time, polish each fit's separated
    best frames by Newton on SO(3), keep its lowest, with the sign of
    (gamma1, gamma2) fixed by `_GAMMA_SIGN`. Every fit's result is the one
    it gets alone, to the bit.
    """
    _check_kent_shape(kappa, alpha)  # reject an invalid (kappa, alpha) first
    starts = _grid_starts(stats_list, kappa, alpha)
    frames, values, gnorm, evals = _newton_polish(stats_list, kappa, alpha, starts)
    results = []
    for f, best in enumerate(np.argmin(values, axis=1)):
        value = float(values[f, best])
        mu, gamma1, gamma2 = frames[f, best]
        if gamma1 @ _GAMMA_SIGN < 0.0:
            gamma1, gamma2 = -gamma1, -gamma2
        results.append(EstimationResult(
            params=KentParams(mu, gamma1, gamma2, kappa, alpha),
            objective=value,
            iterations=int(evals[f]),
            converged=bool(gnorm[f, best] <= _GRAD_TOL * max(1.0, abs(value))),
        ))
    return results


# Secular-equation steps: a guard, as the fits take about 7 and the log-s
# bisection bounds the rest.
_SECULAR_CAP = 100


def _eta_on_sphere(m: np.ndarray, c: np.ndarray, kappa: float) -> np.ndarray:
    """
    Minimiser of eta^T M eta - 2 c^T eta subject to |eta| = kappa.

    The global minimiser solves (M + t I) eta = c with M + t I positive
    semidefinite (More & Sorensen 1983). In the eigenbasis of M, with
    s = t + lambda_min, |eta(s)| = |c'_i / (lambda_i - lambda_min + s)|
    decreases monotonically on s > 0, so the secular equation
    |eta(s)| = kappa has one root, bracketed by [|c'_0| / 2, 2 |c|] / kappa.
    When c'_0 = 0 and |eta(0)| <= kappa there is no root (the hard case):
    the remaining length goes along the bottom eigenvector.

    The root is found by Newton's method on 1/|eta(s)| - 1/kappa, which is
    increasing and concave in s, so every tangent's zero is a lower bound
    on the root and the iteration climbs to it from the bracket's low end.
    While the bracket still spans more than a factor of 4, each step
    evaluates at its geometric mean instead (bisection in log s): near the
    hard case the root sits at the scale of |c'_0|, where plain Newton
    gains only a factor of about 1.5 per step.
    """
    lam, vecs = np.linalg.eigh(m)
    cp = vecs.T @ c
    gap = lam - lam[0]

    def eta_of(s: float) -> np.ndarray:
        return np.divide(cp, gap + s, out=np.zeros(3), where=cp != 0.0)

    lo = abs(cp[0]) / (2.0 * kappa)
    hi = 2.0 * np.linalg.norm(c) / kappa
    if lo == 0.0:
        y = eta_of(0.0)
        if np.linalg.norm(y) <= kappa:
            y[0] = np.sqrt(kappa * kappa - y @ y)
            return vecs @ y
    terms = [(float(a), float(d)) for a, d in zip(cp, gap) if a != 0.0]
    s = lo
    for _ in range(_SECULAR_CAP):
        # |eta(s)|^2 and sum eta_i^2 / (gap_i + s) = |eta|^3 d(1/|eta|)/ds
        sq = slope = 0.0
        for a, d in terms:
            e = a / (d + s)
            sq += e * e
            slope += e * e / (d + s)
        norm = math.sqrt(sq)
        if norm <= kappa:
            hi = s
        tangent = s + (norm / kappa - 1.0) * sq / slope
        lo = max(lo, tangent)
        if abs(tangent - s) <= 4e-16 * s or hi - lo <= 4e-16 * hi:
            break
        s = lo if hi <= 4.0 * lo else math.sqrt(lo * hi)
    return vecs @ eta_of(lo)


def _fit_vmf(stats: _ScalingStats, kappa: float | None) -> EstimationResult:
    """
    Closed-form vMF fit in the natural parameter eta = kappa mu: minimise
    the eta block J(eta) = eta^T M eta - 2 c^T eta of the form, with
    M = stats.m positive semidefinite because g >= 0. A known kappa
    constrains eta to |eta| = kappa; kappa None leaves it free.
    """
    m, c = stats.m, stats.c
    if kappa is not None:
        eta = _eta_on_sphere(m, c, kappa)
    else:
        try:
            low = np.linalg.cholesky(m)
            eta = np.linalg.solve(low.T, np.linalg.solve(low, c))
        except LinAlgError as exc:
            raise FloatingPointError(
                "the free-concentration objective has no unique finite minimiser: the "
                "weighted data do not span a tangent plane (too few distinct points?)"
            ) from exc
        kappa = float(np.linalg.norm(eta))
        # c at the rounding size of its terms is eta = 0 up to noise.
        if np.linalg.norm(c) <= 1e-12 * (2.0 * stats.gbar + stats.tgrad_abs):
            kappa = 0.0
        if not 0.0 < kappa <= KAPPA_CAP:
            raise FloatingPointError(
                f"fitted concentration {kappa:.6g} is outside (0, {KAPPA_CAP:.0e}]; "
                "the data do not determine a vMF fit"
            )
    params = VmfParams(eta, kappa)
    eta = kappa * params.mu  # J is reported at the returned parameters
    return EstimationResult(
        params=params,
        objective=float(eta @ m @ eta - 2.0 * c @ eta),
        iterations=0,
        converged=True,
    )


def estimate(
    data: Dataset,
    boundary: Boundary | None,
    g_kind: str = "haversine",
    model_kind: str = "vmf_mu_kappa",
    fixed: dict | None = None,
    seed: int = 0,
    drop_axis: int | None = None,
) -> EstimationResult:
    """
    Minimize the truncated objective; g is computed once per call.

    The solver depends on model_kind:

    * "vmf_mu_kappa": the objective is eta^T M eta - 2 c^T eta in the
      natural parameter eta = kappa mu, so the fit is the linear solve
      M eta = c by Cholesky.
    * "vmf_mu_only": the same quadratic on the sphere |eta| = kappa,
      solved through the eigendecomposition of M and a monotone 1-D
      secular equation.
    * "kent_frame": a fixed grid of 3,600 frames (300 Fibonacci directions
      for mu times 12 gamma1 angles) is scored a direction at a time: at a
      fixed mu, J over the gamma1 angle psi is a 3x3 quadratic form in
      (1, cos 2 psi, sin 2 psi), so one product with the form gives all
      300 of them. Each direction stands for its best angle's frame, and
      the frames of the 4 best directions whose mu are pairwise more than
      0.5 rad apart are polished in lockstep by a safeguarded Newton
      iteration on the exact gradient and Hessian over rotations, and the
      lowest polish wins. Every evaluation reads the full quadratic form
      `_ScalingStats.kent_form`, built once per call, so it is O(1) in
      the sample size.

    Every kind minimises the same quadratic in theta = (kappa mu, vec A),
    `_ScalingStats`; the vMF kinds read only its eta block.

    Args:
        data: observed points inside the region.
        boundary: region boundary (None allowed for g_kind "unit").
        g_kind: scaling function variant.
        model_kind: "vmf_mu_only" (needs fixed["kappa"]), "vmf_mu_kappa",
            or "kent_frame" (needs fixed["kappa"] and fixed["alpha"]).
        fixed: known parameters per model_kind, and no others.
        seed: accepted for compatibility and ignored: every fit is
            deterministic and has no random starts.
        drop_axis: projection axis for g_kind "projected", and only for it.

    Returns:
        EstimationResult with the best parameters found.

    Raises:
        ValueError: on an unknown model_kind, missing fixed parameters, a
            fixed kappa outside (0, KAPPA_CAP] (NaN included), fixed
            parameters the model kind does not use, a drop_axis with
            another g_kind, or data outside the region.
        FloatingPointError: when "vmf_mu_kappa" has no finite minimiser
            (the weighted data span no tangent plane, e.g. a single point)
            or its concentration falls outside (0, KAPPA_CAP].
    """
    stats, kappa = _fit_inputs(data, boundary, g_kind, model_kind, fixed, drop_axis)
    if model_kind != "kent_frame":
        return _fit_vmf(stats, kappa)
    return _fit_kent_frames([stats], kappa, float(fixed["alpha"]))[0]


def _fit_inputs(data: Dataset, boundary: Boundary | None, g_kind: str, model_kind: str,
                fixed: dict | None, drop_axis: int | None) -> tuple[_ScalingStats, float | None]:
    """`estimate`'s argument checks, then the stats of the data: (stats,
    the fixed kappa or None for "vmf_mu_kappa"). The harness calls it too,
    before it fits a block's Kent frames together."""
    fixed = fixed or {}
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model_kind {model_kind!r}; expected one of {MODEL_KINDS}")
    needed = _FIXED_PARAMS[model_kind]
    if not set(needed) <= fixed.keys():
        wanted = " and ".join(f"fixed[{k!r}]" for k in needed)
        raise ValueError(f"model_kind {model_kind!r} requires {wanted}")
    kappa = None
    if model_kind != "vmf_mu_kappa":
        kappa = float(fixed["kappa"])
        # written as "not" so that NaN fails it too
        if not 0.0 < kappa <= KAPPA_CAP:
            raise ValueError(f"fixed kappa must lie in (0, {KAPPA_CAP:.0e}], got {kappa}")
    unused = sorted(fixed.keys() - set(needed))
    if unused:
        raise ValueError(f"model_kind {model_kind!r} does not use fixed {unused}")
    return _scaling_stats(data, boundary, g_kind, drop_axis), kappa


def _chart_grid(a_lo: float, a_hi: float, n_a: int, n_b: int):
    """
    Midpoint product grid over a_lo < a < a_hi: (nodes (n_a*n_b, 3),
    weights with the sin(a) area element), so `weights @ f(nodes)`
    approximates the surface integral of f.
    """
    da = (a_hi - a_lo) / n_a
    db = 2.0 * np.pi / n_b
    a = a_lo + (np.arange(n_a) + 0.5) * da
    b = (np.arange(n_b) + 0.5) * db
    aa, bb = np.meshgrid(a, b, indexing="ij")
    nodes = to_euclidean(aa.ravel(), bb.ravel())
    weights = (np.sin(aa) * da * db).ravel()
    return nodes, weights


def _identity_sides(params: ModelParams, trunc_params: ModelParams, boundary: ColatitudeBoundary,
                    g_kind: str, n_a: int, n_b: int, drop_axis: int | None) -> tuple[float, float]:
    """
    Both sides as forms in theta. With s = N w q at the N chart nodes (w
    the quadrature weights, q the normalised truth density), the stats of
    (s g, s grad g) average to the quadrature integrals of q g (...), so

        lhs = int q g (|psi_p - psi_q|^2_M - |psi_q|^2_M)
            = theta_p^T W theta_p - 2 theta_q^T W theta_p,
        rhs = theta_p^T W theta_p + b^T theta_p.
    """
    nodes, w = _chart_grid(*boundary.a_interval(), n_a, n_b)
    log_q = log_unnormalized_density(trunc_params, nodes)
    q = np.exp(log_q - log_q.max())
    q /= w @ q
    g, grad_g = scaling_values(boundary, nodes, g_kind, drop_axis)
    s = len(nodes) * w * q
    stats = _ScalingStats(nodes, s * g, s[:, None] * grad_g)
    wt, b = stats.kent_form
    theta_p, theta_q = _theta(params), _theta(trunc_params)
    inner = float(theta_p @ wt @ theta_p)
    return inner - 2.0 * float(theta_q @ wt @ theta_p), inner + float(b @ theta_p)


def ibp_identity_check(
    params: ModelParams,
    trunc_params: ModelParams,
    boundary: ColatitudeBoundary,
    g_kind: str = "haversine",
    grid_resolution: tuple[int, int] = (400, 400),
    drop_axis: int | None = None,
) -> dict:
    """
    Quadrature witness that the three-term objective equals the weighted
    score divergence it rewrites.

    The data law q is the known model `trunc_params` restricted to the
    region and renormalized there; its score inside the region equals the
    untruncated score. lhs is the integral of q g ||psi_q - psi_p||^2_M
    less the params-free constant integral of q g <psi_q, psi_q>_M; rhs is
    the three-term objective under q. Both are read off one quadrature-
    weighted `_ScalingStats` form (see `_identity_sides`). With a compliant
    g the two are equal up to quadrature error.

    Only colatitude-circle boundaries are supported: they give the chart
    quadrature an exact product domain.

    Returns:
        dict with keys "lhs", "rhs", and "gap" (relative, floored at an
        absolute scale of 1).

    Warns:
        UserWarning when halving the resolution does not enlarge the gap,
        a sign the quadrature has not converged at this resolution.
    """
    if not isinstance(boundary, ColatitudeBoundary):
        raise NotImplementedError(
            "identity check quadrature supports colatitude-circle boundaries only"
        )
    n_a, n_b = grid_resolution
    lhs, rhs = _identity_sides(params, trunc_params, boundary, g_kind, n_a, n_b, drop_axis)
    gap = abs(lhs - rhs) / max(1.0, abs(lhs))
    lo_l, lo_r = _identity_sides(
        params, trunc_params, boundary, g_kind, max(n_a // 2, 2), max(n_b // 2, 2), drop_axis
    )
    gap_coarse = abs(lo_l - lo_r) / max(1.0, abs(lo_l))
    # The midpoint rule converges at second order, so a healthy gap shrinks
    # about fourfold per doubling; failing to even halve means the quadrature
    # has stalled, typically because g does not vanish on the boundary.
    if gap > 1e-9 and gap > 0.5 * gap_coarse:
        warnings.warn(
            f"identity gap {gap:.3e} did not shrink from the half-resolution "
            f"gap {gap_coarse:.3e}; increase grid_resolution or check g",
            UserWarning,
            stacklevel=2,
        )
    return {"lhs": lhs, "rhs": rhs, "gap": float(gap)}
