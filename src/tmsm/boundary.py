"""
Observation-region boundaries on the sphere and the scaling functions that
vanish there.

A `Boundary` describes the closed curve bounding the observed region, holds
a precomputed dense point sample of the curve, and answers region
membership. Two boundary variants are provided: a constant-colatitude
circle (with exact closed-form distances) and an arbitrary closed polyline
of unit vectors.

Two scaling functions are implemented, both zero exactly on the boundary:

* great-circle (haversine) geodesic distance to the boundary, with its
  gradient obtained by the chart chain rule at the nearest boundary point;
* Euclidean distance after dropping one embedding coordinate (projecting
  the sphere onto a plane), with the in-plane unit direction as gradient.

Gradients of a min-over-points distance are taken holding the minimizing
boundary point fixed, which is valid away from the measure-zero set of
argmin ties. Returned haversine gradients are tangentially projected (the
gradient of the radially-constant extension); projected-Euclidean gradients
are the lifted in-plane unit vectors. Either convention yields the same
tangential inner products downstream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import (
    POLE_SIN_TOL,
    SphericalCoord,
    TWO_PI,
    geodesic_angle,
    project_tangent,
    to_euclidean,
    to_spherical,
    unit_vector,
    wrap_azimuth,
)

DEFAULT_RESOLUTION = 4096

# Rotation by pi/2 about the x3 axis; moves the x1 poles onto the equator
# for the rotated-chart gradient fallback.
_POLE_ESCAPE_ROT = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class ScalingValue:
    """Scaling function value and ambient gradient at a query point."""

    g: float
    grad: np.ndarray
    on_boundary: bool = False


class Boundary:
    """
    Base class: a closed curve on the sphere plus the observed region it
    bounds.

    Instances are immutable after construction (the dense sample cache
    included); all queries are read-only and thread-safe.

    Attributes:
        samples: (m, 3) dense point sample of the curve.
        spacing: largest great-circle gap between consecutive samples.
        interior_reference: a unit vector inside the region.
    """

    samples: np.ndarray
    spacing: float
    interior_reference: np.ndarray

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        """Region membership for point(s) [..., 3]."""
        raise NotImplementedError

    def resampled(self, resolution: int) -> "Boundary":
        """A copy of this boundary with a different sample resolution."""
        raise NotImplementedError


class ColatitudeBoundary(Boundary):
    """
    Circle of constant polar angle a0; region is `a > a0` (side "greater",
    the default) or `a < a0` (side "less").

    Distances to this boundary have the closed form |a - a0|, used as a
    fast path by the scaling functions.
    """

    def __init__(self, a0: float, side: str = "greater", resolution: int = DEFAULT_RESOLUTION):
        if not 0.0 < a0 < np.pi:
            raise ValueError(f"a0 must lie strictly inside (0, pi), got {a0}")
        if side not in ("greater", "less"):
            raise ValueError(f"side must be 'greater' or 'less', got {side!r}")
        self.a0 = float(a0)
        self.side = side
        self.resolution = int(resolution)
        b = np.arange(self.resolution) * (TWO_PI / self.resolution)
        self.samples = to_euclidean(np.full(self.resolution, self.a0), b)
        self.spacing = float(np.sin(self.a0) * TWO_PI / self.resolution)
        pole_a = np.pi if side == "greater" else 0.0
        self.interior_reference = to_euclidean(pole_a, 0.0)

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        x = np.asarray(x, dtype=float)
        a = np.arccos(np.clip(x[..., 0], -1.0, 1.0))
        inside = a > self.a0 if self.side == "greater" else a < self.a0
        return bool(inside) if inside.ndim == 0 else inside

    def a_interval(self) -> tuple[float, float]:
        """Polar-angle interval covered by the region."""
        return (self.a0, np.pi) if self.side == "greater" else (0.0, self.a0)

    def resampled(self, resolution: int) -> "ColatitudeBoundary":
        return ColatitudeBoundary(self.a0, self.side, resolution)


class PolylineBoundary(Boundary):
    """
    Closed polyline of unit vectors; the region is the component of the
    sphere on which the curve's winding number is +1.

    Vertex order is normalized at construction so that the supplied
    interior hint (default: the normalized vertex mean) is inside. The
    dense sample is an equal-arc-length resampling along the great-circle
    segments.
    """

    def __init__(
        self,
        vertices: np.ndarray,
        interior_hint: np.ndarray | None = None,
        resolution: int = DEFAULT_RESOLUTION,
    ):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 3 or vertices.shape[0] < 3:
            raise ValueError("vertices must be an (k, 3) array with k >= 3")
        vertices = unit_vector(vertices)
        gaps = geodesic_angle(vertices, np.roll(vertices, -1, axis=0))
        if np.any(gaps < 1e-12):
            raise ValueError("consecutive boundary vertices must be distinct")
        if interior_hint is None:
            mean = vertices.mean(axis=0)
            if np.linalg.norm(mean) < 1e-9:
                raise ValueError(
                    "vertex mean is degenerate; pass interior_hint explicitly"
                )
            interior_hint = unit_vector(mean)
        else:
            interior_hint = unit_vector(np.asarray(interior_hint, dtype=float))

        self.resolution = int(resolution)
        self.samples = _resample_closed(vertices, self.resolution)
        step = geodesic_angle(self.samples, np.roll(self.samples, -1, axis=0))
        self.spacing = float(np.max(step))
        if _winding(self.samples, interior_hint) < 0.0:
            vertices = vertices[::-1].copy()
            self.samples = self.samples[::-1].copy()
        self.vertices = vertices
        self.interior_reference = interior_hint

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return _winding(self.samples, x) > np.pi
        return np.array([_winding(self.samples, q) > np.pi for q in x])

    def resampled(self, resolution: int) -> "PolylineBoundary":
        return PolylineBoundary(self.vertices, self.interior_reference, resolution)


def _resample_closed(vertices: np.ndarray, m: int) -> np.ndarray:
    """Equal-arc-length sample of the closed great-circle polyline."""
    nxt = np.roll(vertices, -1, axis=0)
    seg = geodesic_angle(vertices, nxt)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    s = np.arange(m) * (total / m)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    t = (s - cum[idx]) / seg[idx]
    p0, p1 = vertices[idx], nxt[idx]
    omega = seg[idx][:, None]
    out = (np.sin((1.0 - t)[:, None] * omega) * p0 + np.sin(t[:, None] * omega) * p1) / np.sin(omega)
    return unit_vector(out)


def _winding(samples: np.ndarray, q: np.ndarray) -> float:
    """
    Signed total azimuth swept by the curve in the chart whose pole is q.

    Approximately +2*pi when q is in the region the curve encircles
    counterclockwise, -2*pi on the complementary side.
    """
    # Build an orthonormal frame (q, e, f) and read azimuths atan2(f.s, e.s).
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(q)))] = 1.0
    e = unit_vector(np.cross(q, seed))
    f = np.cross(q, e)
    az = np.arctan2(samples @ f, samples @ e)
    d = np.diff(np.concatenate([az, az[:1]]))
    d = np.mod(d + np.pi, TWO_PI) - np.pi
    return float(np.sum(d))


def haversine_distance(z: SphericalCoord | tuple, zp: SphericalCoord | tuple) -> float | np.ndarray:
    """
    Great-circle distance between two chart points on the unit sphere.

    2*arcsin(sqrt(u)) with
    u = sin^2((a'-a)/2) + sin(a) sin(a') sin^2((b'-b)/2),
    which coincides with arccos(x . x') of the embedded points. (With the
    polar angle measured from the axis, the latitude-form cosine factors of
    the textbook formula become sines.) u is clamped to [0, 1] against
    rounding.
    """
    a, b = np.asarray(z[0], dtype=float), np.asarray(z[1], dtype=float)
    ap, bp = np.asarray(zp[0], dtype=float), np.asarray(zp[1], dtype=float)
    u = np.sin(0.5 * (ap - a)) ** 2 + np.sin(a) * np.sin(ap) * np.sin(0.5 * (bp - b)) ** 2
    d = 2.0 * np.arcsin(np.sqrt(np.clip(u, 0.0, 1.0)))
    return float(d) if d.ndim == 0 else d


def _chart_gradient(x: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """
    Ambient gradient of the haversine distance to a fixed boundary point,
    via the chain rule through the (a, b) chart, tangentially projected.

    Queries within POLE_SIN_TOL of a chart pole are evaluated in a rotated
    chart and mapped back (the chart Jacobian is singular at the poles).
    """
    if abs(x[0]) > 1.0 - 0.5 * POLE_SIN_TOL**2:
        r = _POLE_ESCAPE_ROT
        return r.T @ _chart_gradient(r @ x, r @ nearest)
    a, b = to_spherical(x)
    ap, bp = to_spherical(nearest)
    sa, sap = np.sin(a), np.sin(ap)
    u = np.sin(0.5 * (ap - a)) ** 2 + sa * sap * np.sin(0.5 * (bp - b)) ** 2
    u = min(max(u, 0.0), 1.0)
    if u <= 0.0 or u >= 1.0:
        return np.zeros(3)
    dg_du = 1.0 / np.sqrt(u * (1.0 - u))
    du_da = 0.5 * np.sin(a - ap) + np.cos(a) * sap * np.sin(0.5 * (bp - b)) ** 2
    du_db = 0.5 * sa * sap * np.sin(b - bp)
    grad_a = np.array([-1.0 / sa, 0.0, 0.0])
    grad_b = np.array([0.0, -x[2], x[1]]) / (sa * sa)
    return project_tangent(x, dg_du * (du_da * grad_a + du_db * grad_b))


def _nearest_haversine_idx(samples: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the geodesically nearest sample per query (first on ties)."""
    return np.argmax(np.atleast_2d(x) @ samples.T, axis=1)


def haversine_scaling(boundary: Boundary, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Vectorized geodesic-distance scaling for a batch of query points.

    Args:
        boundary: the region boundary.
        x: Queries (n, 3).

    Returns:
        (g (n,), grad (n, 3), on_boundary (n,) bool). Points on or outside
        the region get g = 0 and a zero gradient, flagged on_boundary.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    g = np.zeros(n)
    grad = np.zeros((n, 3))
    inside = np.asarray(boundary.contains(x)).reshape(n)

    if isinstance(boundary, ColatitudeBoundary):
        a = np.arccos(np.clip(x[:, 0], -1.0, 1.0))
        signed = a - boundary.a0 if boundary.side == "greater" else boundary.a0 - a
        g = np.where(inside, np.maximum(signed, 0.0), 0.0)
        ok = inside & (g > 1e-12)
        sa = np.sin(a[ok])
        sign = 1.0 if boundary.side == "greater" else -1.0
        # Tangential projection of sign * grad(a): unit vector along -d/da.
        tang = np.stack(
            [-sa, (np.cos(a[ok]) / np.where(sa > 0, sa, 1.0)) * x[ok, 1],
             (np.cos(a[ok]) / np.where(sa > 0, sa, 1.0)) * x[ok, 2]],
            axis=-1,
        )
        grad[ok] = sign * tang
        on_b = ~ok
        return g, grad, on_b

    idx = _nearest_haversine_idx(boundary.samples, x)
    nearest = boundary.samples[idx]
    za, zb = to_spherical(x)
    na, nb = to_spherical(nearest)
    dist = haversine_distance((za, zb), (na, nb))
    tol = 0.5 * boundary.spacing
    ok = inside & (np.atleast_1d(dist) > tol)
    g[ok] = np.atleast_1d(dist)[ok]
    for i in np.flatnonzero(ok):
        grad[i] = _chart_gradient(x[i], nearest[i])
    return g, grad, ~ok


def g_haversine(boundary: Boundary, x: np.ndarray) -> ScalingValue:
    """
    Geodesic distance from x to the boundary, with its gradient.

    The distance is the minimum haversine distance over the boundary's
    dense sample (closed form for colatitude circles); the gradient
    differentiates that distance holding the nearest boundary point fixed
    and maps the chart derivatives to ambient coordinates.

    Points on the boundary (within sampling resolution) or outside the
    region return g = 0, grad = 0, flagged `on_boundary`.
    """
    g, grad, on_b = haversine_scaling(boundary, np.asarray(x, dtype=float)[None, :])
    return ScalingValue(float(g[0]), grad[0], bool(on_b[0]))


def default_drop_axis(boundary: Boundary) -> int:
    """
    Coordinate number (1, 2, or 3 for x1, x2, x3) of the embedding axis
    best aligned with the region's interior reference.
    """
    return int(np.argmax(np.abs(boundary.interior_reference))) + 1


def _drop_index(drop_axis: int) -> int:
    if drop_axis not in (1, 2, 3):
        raise ValueError(f"drop_axis must be 1, 2, or 3 (coordinate number), got {drop_axis}")
    return drop_axis - 1


def _mirror_symmetric(boundary: Boundary, drop_idx: int) -> bool:
    """
    True when negating the dropped coordinate maps the boundary sample set
    onto itself (within sampling resolution).

    In that case the preimage of the projected boundary is exactly the
    boundary, so the projected distance still vanishes only on it even
    though the projection folds the sphere.
    """
    cache = boundary.__dict__.setdefault("_fold_cache", {})
    if drop_idx not in cache:
        mirrors = boundary.samples.copy()
        mirrors[:, drop_idx] *= -1.0
        cos_near = np.max(mirrors @ boundary.samples.T, axis=1)
        dist = np.arccos(np.clip(cos_near, -1.0, 1.0))
        cache[drop_idx] = bool(np.max(dist) <= boundary.spacing + 1e-9)
    return cache[drop_idx]


def _check_hemisphere(boundary: Boundary, drop_idx: int, x: np.ndarray) -> None:
    """
    Validate that the projection preserves the zero set of the distance.

    Allowed: the boundary lies in one closed hemisphere of the dropped
    axis (projection injective over the region side), or the boundary is
    mirror-symmetric in that axis (the fold maps boundary onto boundary).
    Anything else would let interior points project onto the projected
    boundary, so it is rejected.
    """
    coords = boundary.samples[:, drop_idx]
    tol = 1e-9
    if coords.min() < -tol and coords.max() > tol:
        if not _mirror_symmetric(boundary, drop_idx):
            raise ValueError(
                f"boundary straddles the drop-axis coordinate plane "
                f"asymmetrically (coordinate x{drop_idx + 1}); the projection "
                "would place interior points on the projected boundary"
            )
        return
    side = 0.0
    if coords.max() > tol:
        side = 1.0
    elif coords.min() < -tol:
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


def projected_scaling(
    boundary: Boundary, x: np.ndarray, drop_axis: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Vectorized projected-plane Euclidean scaling for a batch of queries.

    The sphere is projected onto the plane of the two kept coordinates by
    zeroing the `drop_axis` coordinate (numbered 1 to 3 for x1 to x3);
    g is the planar distance to the nearest projected boundary sample and
    the gradient is the planar unit vector away from it, lifted back with
    0 in the dropped coordinate. A colatitude circle dropped along its
    own x1 axis projects to a circle of radius sin(a0), handled in closed
    form.

    Returns:
        (g (n,), grad (n, 3), on_boundary (n,) bool).

    Raises:
        ValueError: if the projection could place interior points on the
            projected boundary (boundary neither one-sided nor
            mirror-symmetric in the dropped axis, or queries on the far
            side of a one-sided boundary).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if drop_axis is None:
        drop_axis = default_drop_axis(boundary)
    drop_idx = _drop_index(drop_axis)
    _check_hemisphere(boundary, drop_idx, x)
    keep = [i for i in range(3) if i != drop_idx]
    xe = x[:, keep]
    n = x.shape[0]
    inside = np.asarray(boundary.contains(x)).reshape(n)
    grad = np.zeros((n, 3))

    if isinstance(boundary, ColatitudeBoundary) and drop_axis == 1:
        r = np.linalg.norm(xe, axis=1)
        g = np.maximum(np.sin(boundary.a0) - r, 0.0)
        ok = inside & (g > 1e-12)
        unit = -xe[ok] / np.where(r[ok] > 0, r[ok], 1.0)[:, None]
        grad[np.ix_(np.flatnonzero(ok), keep)] = unit
        return np.where(ok, g, 0.0), grad, ~ok

    se = boundary.samples[:, keep]
    # Squared planar distances via the expansion |a-b|^2 = |a|^2 - 2ab + |b|^2.
    d2 = (
        np.sum(xe * xe, axis=1)[:, None]
        - 2.0 * xe @ se.T
        + np.sum(se * se, axis=1)[None, :]
    )
    idx = np.argmin(d2, axis=1)
    diff = xe - se[idx]
    g = np.linalg.norm(diff, axis=1)
    tol = 0.5 * boundary.spacing
    ok = inside & (g > tol)
    unit = diff[ok] / g[ok][:, None]
    grad[np.ix_(np.flatnonzero(ok), keep)] = unit
    g = np.where(ok, g, 0.0)
    return g, grad, ~ok


def g_projected_euclidean(
    boundary: Boundary, x: np.ndarray, drop_axis: int | None = None
) -> ScalingValue:
    """
    Planar distance from the projected query to the projected boundary.

    `drop_axis` names the embedding coordinate to zero (1, 2, or 3 for
    x1, x2, x3); by default the axis best aligned with the region's
    interior. The boundary must either sit in one hemisphere of that axis
    or be mirror-symmetric in it, so that the projected distance vanishes
    only on the boundary itself.
    """
    g, grad, on_b = projected_scaling(boundary, np.asarray(x, dtype=float)[None, :], drop_axis)
    return ScalingValue(float(g[0]), grad[0], bool(on_b[0]))


def scaling_values(
    boundary: Boundary | None,
    x: np.ndarray,
    g_kind: str,
    drop_axis: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Dispatch to the configured scaling function for a batch of points.

    g_kind "unit" gives g = 1, grad = 0 everywhere (no boundary needed),
    reducing the truncated objective to the untruncated one.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if g_kind == "unit":
        n = x.shape[0]
        return np.ones(n), np.zeros((n, 3)), np.zeros(n, dtype=bool)
    if boundary is None:
        raise ValueError(f"g_kind={g_kind!r} requires a boundary")
    if g_kind == "haversine":
        return haversine_scaling(boundary, x)
    if g_kind == "projected":
        return projected_scaling(boundary, x, drop_axis)
    raise ValueError(f"unknown g_kind {g_kind!r}")


def nearest_boundary_point(
    boundary: Boundary, query: np.ndarray, metric: str = "haversine", drop_axis: int | None = None
) -> np.ndarray:
    """
    The boundary sample nearest the query under the chosen metric.

    Ties break deterministically to the lowest sample index.
    """
    query = np.asarray(query, dtype=float)
    if metric == "haversine":
        idx = int(np.argmax(boundary.samples @ query))
    elif metric == "projected":
        if drop_axis is None:
            drop_axis = default_drop_axis(boundary)
        keep = [i for i in range(3) if i != _drop_index(drop_axis)]
        d2 = np.sum((boundary.samples[:, keep] - query[keep]) ** 2, axis=1)
        idx = int(np.argmin(d2))
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return boundary.samples[idx].copy()


def latlon_to_spherical(lat_deg: np.ndarray, lon_deg: np.ndarray) -> SphericalCoord:
    """Degrees latitude/longitude to chart angles (a, b)."""
    a = 0.5 * np.pi - np.deg2rad(np.asarray(lat_deg, dtype=float))
    b = wrap_azimuth(np.deg2rad(np.asarray(lon_deg, dtype=float)))
    return SphericalCoord(a, b)


def spherical_to_latlon(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart angles to degrees latitude/longitude (lon in [-180, 180))."""
    lat = np.rad2deg(0.5 * np.pi - np.asarray(a, dtype=float))
    lon = np.rad2deg(np.asarray(b, dtype=float))
    lon = np.mod(lon + 180.0, 360.0) - 180.0
    return lat, lon


def load_boundary_csv(
    path, interior_hint: np.ndarray | None = None, resolution: int = DEFAULT_RESOLUTION
) -> PolylineBoundary:
    """
    Read a boundary polyline from CSV.

    Accepts header `lat_deg,lon_deg` or `a_rad,b_rad`; rows are ordered
    vertices of an implicitly closed curve.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty boundary file")
        cols = [c.strip() for c in reader.fieldnames]
        rows = [row for row in reader]
    if "lat_deg" in cols and "lon_deg" in cols:
        lat = np.array([float(r["lat_deg"]) for r in rows])
        lon = np.array([float(r["lon_deg"]) for r in rows])
        a, b = latlon_to_spherical(lat, lon)
    elif "a_rad" in cols and "b_rad" in cols:
        a = np.array([float(r["a_rad"]) for r in rows])
        b = np.array([float(r["b_rad"]) for r in rows])
    else:
        raise ValueError(
            f"{path}: boundary CSV needs columns lat_deg,lon_deg or a_rad,b_rad"
        )
    return PolylineBoundary(to_euclidean(a, b), interior_hint=interior_hint, resolution=resolution)
