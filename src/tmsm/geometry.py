"""
Core geometry of the unit 2-sphere embedded in R^3.

Coordinate charts, unit vectors, great-circle angles and orthonormal
frames that every spherical model shares. All functions are pure and
broadcast over leading axes: points are arrays whose last axis has length 3
(embedding coordinates) or scalar/array pairs of chart angles.

Chart convention: a point is (a, b) with a in [0, pi] the polar angle
measured from the +x1 axis and b in [0, 2*pi) the azimuth in the x2-x3
plane, so x = (cos a, sin a cos b, sin a sin b). All angles are radians.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

class SphericalCoord(NamedTuple):
    """Chart angles (a, b); fields may be scalars or broadcastable arrays."""

    a: float | np.ndarray
    b: float | np.ndarray


def wrap_azimuth(b: float | np.ndarray) -> float | np.ndarray:
    """Wrap an azimuth to [0, 2*pi)."""
    return np.mod(b, TWO_PI)


def unit_vector(x: np.ndarray) -> np.ndarray:
    """
    Normalize vector(s) onto the unit sphere.

    Args:
        x: Array [..., 3] of nonzero vectors.

    Returns:
        Array of the same shape with unit rows.

    Raises:
        ValueError: if any input row has vanishing or non-finite norm.
    """
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    if not np.all((norm >= 1e-300) & (norm < np.inf)):
        raise ValueError("cannot normalize a zero or non-finite vector onto the sphere")
    return x / norm


def to_euclidean(a: float | np.ndarray, b: float | np.ndarray) -> np.ndarray:
    """
    Map chart angles to embedding coordinates.

    Args:
        a: Polar angle(s) in [0, pi] (values outside are accepted and wrap
            through the trig functions; callers should stay in range).
        b: Azimuth(s), any real, taken mod 2*pi.

    Returns:
        Array [..., 3] of unit vectors (cos a, sin a cos b, sin a sin b).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sa = np.sin(a)
    return np.stack([np.cos(a), sa * np.cos(b), sa * np.sin(b)], axis=-1)


def to_spherical(x: np.ndarray) -> SphericalCoord:
    """
    Map embedding coordinates to chart angles.

    Inverse of :func:`to_euclidean` away from the poles. At a pole
    (|x1| = 1) the azimuth is set to 0 by convention.

    Args:
        x: Unit vector(s) [..., 3].

    Returns:
        SphericalCoord with a = arccos(x1) and b = atan2(x3, x2) in [0, 2*pi).
    """
    x = np.asarray(x, dtype=float)
    a = np.arccos(np.clip(x[..., 0], -1.0, 1.0))
    b = wrap_azimuth(np.arctan2(x[..., 2], x[..., 1]))
    # atan2(0, 0) already yields 0 at the poles; make the convention explicit
    # for points that are numerically on-axis.
    on_pole = np.hypot(x[..., 1], x[..., 2]) == 0.0
    b = np.where(on_pole, 0.0, b)
    if b.ndim == 0:
        return SphericalCoord(float(a), float(b))
    return SphericalCoord(a, b)


def geodesic_angle(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Great-circle angle between unit vectors, arccos of the clipped dot."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.arccos(np.clip(np.sum(x * y, axis=-1), -1.0, 1.0))
    return float(out) if out.ndim == 0 else out


def complete_frame(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Build two unit vectors completing mu to an orthonormal triad.

    The completion is deterministic: the seed axis e_k is the first
    coordinate axis least aligned with mu (the first minimum of |mu|, as
    np.argmin takes it), v1 = mu x e_k normalised and v2 = mu x v1.
    A frame is three components, so it is worked out on Python floats in
    the order of operations of the array forms: mu and v1 are divided by
    the row norm sqrt((x0^2 + x1^2) + x2^2) of `unit_vector`, and each
    cross product is np.cross's (a1 b2 - a2 b1, a2 b0 - a0 b2,
    a0 b1 - a1 b0). The frame is the one those forms give, to the bit and
    signs of zeros included.

    Args:
        mu: Nonzero finite vector (3,); it need not be a unit vector.

    Returns:
        (v1, v2) with {mu, v1, v2} orthonormal and right-handed.

    Raises:
        ValueError: if mu is zero or not finite.
    """
    m0, m1, m2 = np.asarray(mu, dtype=float).tolist()
    norm = math.sqrt((m0 * m0 + m1 * m1) + m2 * m2)
    if not 1e-300 <= norm < math.inf:
        raise ValueError("cannot complete a frame for a zero or non-finite vector")
    m0, m1, m2 = m0 / norm, m1 / norm, m2 / norm
    a0, a1, a2 = abs(m0), abs(m1), abs(m2)
    k = 0 if a0 <= a1 and a0 <= a2 else 1 if a1 <= a2 else 2
    b0, b1, b2 = float(k == 0), float(k == 1), float(k == 2)
    c0, c1, c2 = m1 * b2 - m2 * b1, m2 * b0 - m0 * b2, m0 * b1 - m1 * b0
    norm = math.sqrt((c0 * c0 + c1 * c1) + c2 * c2)
    c0, c1, c2 = c0 / norm, c1 / norm, c2 / norm
    v1 = np.array([c0, c1, c2])
    v2 = np.array([m1 * c2 - m2 * c1, m2 * c0 - m0 * c2, m0 * c1 - m1 * c0])
    return v1, v2
