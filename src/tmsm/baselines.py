"""
Comparison estimators: naive maximum likelihood and a chart-space
Euclidean truncated score matcher.

`mle_vmf` ignores truncation entirely: mean direction from the resultant
vector, concentration from inverting the mean resultant length. It is
the biased reference the truncated methods are judged against.

`truncsm_mvn` treats the chart angles (a, b) as flat Euclidean
coordinates, models them as an isotropic bivariate normal, and minimizes
the Euclidean truncated score-matching objective with a planar
distance-to-boundary weight. The objective is quadratic in the natural
parameters (mu_z / kappa_inv, 1 / kappa_inv), so both the mean and the
variance have closed forms; no search runs. Deliberately chart-naive:
the azimuth wrap and the metric distortion are ignored, which is the
point of the comparison.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimator import Dataset
from .geometry import to_euclidean
from .models import KAPPA_CAP, VmfParams

LOG_PRECISION_BRACKET = (-6.0, 6.0)


@dataclass(frozen=True)
class MvnChartModel:
    """Isotropic bivariate normal in chart coordinates.

    Attributes:
        mu_z: chart-coordinate mean (a, b), radians.
        kappa_inv: isotropic variance parameter (covariance kappa_inv * I).
    """

    mu_z: np.ndarray
    kappa_inv: float

    def __post_init__(self):
        object.__setattr__(self, "mu_z", np.asarray(self.mu_z, dtype=float).reshape(2))
        if not self.kappa_inv > 0.0:
            raise ValueError(f"kappa_inv must be positive, got {self.kappa_inv}")

    def mean_direction(self) -> np.ndarray:
        """Chart mean lifted back to a unit vector."""
        return to_euclidean(self.mu_z[0], self.mu_z[1])


def mean_resultant_length(kappa: float) -> float:
    """coth(kappa) - 1/kappa, the vMF mean resultant length on S^2."""
    kappa = float(kappa)
    if kappa < 1e-4:
        return kappa / 3.0 - kappa**3 / 45.0
    if kappa > 350.0:
        return 1.0 - 1.0 / kappa
    return 1.0 / np.tanh(kappa) - 1.0 / kappa


def solve_concentration(rbar: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """
    Invert the mean resultant length for the vMF concentration.

    Safeguarded Newton on A(kappa) = coth(kappa) - 1/kappa = rbar with a
    bisection bracket; A is increasing from 0 to 1. Values of rbar at or
    beyond the kappa = KAPPA_CAP level return the cap with a warning.
    """
    if not 0.0 < rbar < 1.0:
        raise ValueError(f"mean resultant length must lie in (0, 1), got {rbar}")
    if rbar >= mean_resultant_length(KAPPA_CAP):
        warnings.warn(
            f"resultant length {rbar:.6g} implies concentration above {KAPPA_CAP:.0e}; capped",
            UserWarning,
            stacklevel=2,
        )
        return KAPPA_CAP
    lo, hi = 1e-12, 1.0
    while mean_resultant_length(hi) < rbar:
        hi *= 2.0
    kappa = min(max(rbar * (3.0 - rbar * rbar) / (1.0 - rbar * rbar), lo), hi)
    for _ in range(max_iter):
        f = mean_resultant_length(kappa) - rbar
        if f > 0:
            hi = kappa
        else:
            lo = kappa
        if abs(f) < tol:
            break
        # A'(kappa) = 1/kappa^2 - 1/sinh(kappa)^2, with the overflow-safe tail.
        deriv = 1.0 / kappa**2 - (1.0 / np.sinh(kappa) ** 2 if kappa < 350.0 else 0.0)
        step = kappa - f / deriv
        kappa = step if lo < step < hi else 0.5 * (lo + hi)
    return float(kappa)


def mle_vmf(data: Dataset, estimate_kappa: bool = True, kappa: float | None = None) -> VmfParams:
    """
    Truncation-blind vMF maximum likelihood.

    Args:
        data: observed points (the estimator does not know they are
            truncated; that bias is intentional).
        estimate_kappa: invert the mean resultant length for kappa; when
            False, `kappa` must supply the known value.
        kappa: fixed concentration when estimate_kappa is False.

    Raises:
        ValueError: zero resultant vector (direction undefined).
    """
    if data.n < 2:
        raise ValueError("maximum likelihood needs at least two points")
    resultant = data.x.sum(axis=0)
    norm = float(np.linalg.norm(resultant))
    if norm < 1e-12:
        raise ValueError("zero resultant vector; mean direction undefined")
    mu = resultant / norm
    if estimate_kappa:
        kappa_hat = solve_concentration(norm / data.n)
    else:
        if kappa is None:
            raise ValueError("kappa must be given when estimate_kappa is False")
        kappa_hat = float(kappa)
    return VmfParams(mu, kappa_hat)


@dataclass(frozen=True)
class ChartSegments:
    """Polyline boundary in flat chart coordinates, as line segments.

    Attributes:
        start: (k, 2) segment start points.
        end: (k, 2) segment end points.
    """

    start: np.ndarray
    end: np.ndarray

    def distance(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """
        Planar distance from each point to the nearest segment and its
        gradient (unit vector away from the nearest segment point).

        Args:
            z: (n, 2) chart points.

        Returns:
            (dist (n,), grad (n, 2)).
        """
        z = np.atleast_2d(z)
        seg = self.end - self.start  # (k, 2)
        seg_len2 = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
        rel = z[:, None, :] - self.start[None, :, :]  # (n, k, 2)
        t = np.clip(np.einsum("nkd,kd->nk", rel, seg) / seg_len2, 0.0, 1.0)
        nearest = self.start[None, :, :] + t[:, :, None] * seg[None, :, :]
        diff = z[:, None, :] - nearest
        d = np.linalg.norm(diff, axis=2)  # (n, k)
        idx = np.argmin(d, axis=1)
        rows = np.arange(z.shape[0])
        dist = d[rows, idx]
        grad = np.zeros_like(z)
        pos = dist > 0
        grad[pos] = diff[rows, idx][pos] / dist[pos, None]
        return dist, grad


def hemisphere_chart_segments(a0: float = 0.5 * np.pi, side: str = "greater") -> ChartSegments:
    """
    Chart boundary used by the flat baseline for the colatitude region
    a > a0 (side "greater") or a < a0 (side "less"): the truncation line
    a = a0 plus the artificial chart edges b = 0 and b = 2*pi out to the
    far pole. The pole line is not a boundary of the region. The default
    is the hemisphere a > pi/2.
    """
    two_pi = 2.0 * np.pi
    far_a = np.pi if side == "greater" else 0.0
    start = np.array([[a0, 0.0], [a0, 0.0], [a0, two_pi]])
    end = np.array([[a0, two_pi], [far_a, 0.0], [far_a, two_pi]])
    return ChartSegments(start, end)


def _truncsm_profile(
    z: np.ndarray, g: np.ndarray, grad_g: np.ndarray, kappa_inv: float
) -> tuple[np.ndarray, float]:
    """Closed-form mean for fixed variance, plus the objective value."""
    g_sum = g.sum()
    mu = (g @ z - kappa_inv * grad_g.sum(axis=0)) / g_sum
    r = z - mu
    n = z.shape[0]
    obj = (
        (g * np.sum(r * r, axis=1)).sum() / (kappa_inv**2 * n)
        - 4.0 * g_sum / (kappa_inv * n)
        - 2.0 * np.sum(grad_g * r) / (kappa_inv * n)
    )
    return mu, float(obj)


def truncsm_mvn(
    data_z: np.ndarray,
    chart_boundary: ChartSegments,
    estimate_precision: bool = False,
    kappa_inv: float | None = None,
) -> MvnChartModel:
    """
    Euclidean truncated score matching for an isotropic normal in the
    chart plane.

    The score is psi(z) = -(z - mu_z)/kappa_inv with constant divergence,
    so for fixed kappa_inv the objective is quadratic in mu_z and solved
    in closed form. Profiling mu_z out leaves, with u = 1/kappa_inv,

        n J = V u^2 - (4G + 2Q) u - const,
        G = sum g,  zbar = g.z / G,  V = sum g |z - zbar|^2,
        Q = sum grad g . (z - zbar),

    so the estimated variance is kappa_inv = V / (2G + Q), clipped to
    exp(LOG_PRECISION_BRACKET); when 2G + Q <= 0 the objective falls as
    kappa_inv grows and the upper end is taken.

    Args:
        data_z: (n, 2) chart coordinates (a, b) of the observed points.
        chart_boundary: planar boundary segments; weight g is the
            distance to them.
        estimate_precision: estimate kappa_inv as well.
        kappa_inv: fixed variance parameter when not estimated.
    """
    z = np.atleast_2d(np.asarray(data_z, dtype=float))
    if z.shape[1] != 2:
        raise ValueError("chart data must be (n, 2)")
    if not estimate_precision and kappa_inv is None:
        raise ValueError("kappa_inv must be given when estimate_precision is False")
    g, grad_g = chart_boundary.distance(z)
    g_sum = g.sum()
    if g_sum <= 0.0:
        raise ValueError("all boundary weights are zero; normal equations singular")
    if estimate_precision:
        r = z - (g @ z) / g_sum
        spread = g @ np.sum(r * r, axis=1)
        slope = 2.0 * g_sum + np.sum(grad_g * r)
        lo, hi = np.exp(LOG_PRECISION_BRACKET)
        kappa_inv = hi if slope <= 0.0 else min(max(spread / slope, lo), hi)
    mu, _ = _truncsm_profile(z, g, grad_g, float(kappa_inv))
    return MvnChartModel(mu, float(kappa_inv))


def rmse_embedding(mu_hat: np.ndarray, mu_true: np.ndarray) -> float:
    """Per-replicate error (1/3) * ||mu_hat - mu_true|| in embedding coords."""
    return float(np.linalg.norm(np.asarray(mu_hat) - np.asarray(mu_true)) / 3.0)
