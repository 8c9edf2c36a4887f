"""
Observation-region boundaries on the sphere and the scaling functions that
vanish there.

A `Boundary` describes the closed curve bounding the observed region and
answers region membership. Two boundary variants are provided: a
constant-colatitude circle (with exact closed-form distances) and a closed
polyline of unit vectors joined by minor great-circle arcs, whose
membership and geodesic distance are computed exactly on those vertex
arcs. A polyline's region is the side of the curve that holds its
interior hint; selecting a side larger than a hemisphere needs an
explicit hint.

Three exact bounds keep the polyline queries cheap without changing any
result. Each arc lies in the cap of radius half its length about its
midpoint, so only arcs whose cap comes within the nearest-vertex distance
of a query can hold its nearest point, and the exact distance is
evaluated on those arcs alone. The vertices lie in a cap about their mean;
when that cap is smaller than a hemisphere it is convex, holds every arc,
and leaves the rest of the sphere on one side of the curve, so only
queries inside the cap need the parity test. That test counts the arcs
crossed by the path from the interior hint, and an arc can be crossed
only when its endpoints straddle the path's plane, i.e. when the query's
azimuth about the hint, modulo pi, falls in the arc's azimuth interval;
an index binned by that azimuth, padded by a bound on its rounding, gives
each query only those arcs. Arcs with an endpoint within 1e-6 of the
hint or its antipode, or sweeping nearly pi about it, are listed for
every query.

Two scaling functions are implemented, both zero exactly on the boundary:

* great-circle (haversine) geodesic distance to the boundary, with its
  gradient -(p - (x.p) x) / sin d at the nearest boundary point p;
* Euclidean distance after dropping one embedding coordinate (projecting
  the sphere onto a plane) to the projected boundary, with the in-plane
  unit direction as gradient. A colatitude circle projects to a circle or
  a segment, whose nearest point has a closed form; a polyline projects
  to a curve of elliptic arcs, whose nearest point is found exactly on
  the same vertex arcs, uncut: the rules that let the projection fold
  keep each arc on one half of its ellipse. Those fold rules depend on
  the curve alone, so each boundary builds its rule for every drop axis
  at construction: the axis is refused, or the queries must keep to one
  side of the plane x_k = 0, or not reach both, or need no check; a
  projected-g call checks only its queries against it.

The scaling functions are geometry only. They take points of the closed
region and return (g, grad). They never test membership: the code that
holds the points checks it once (`Dataset.validate_membership`, or the
storms report's event filter), and g outside the region is not
specified. g is 0 within 1e-12 of the boundary (of its projection, for
projected g), so g == 0 is the one sign that a point gets zero weight.

Every polyline query reads one table of the vertex arcs (start, end,
unit normal, unit midpoint, length and reach), built with the boundary.
Both polyline distances run on one (query, arc) pair engine. Every
point of an arc of length L lies within chord 2 sin(L/4) of its midpoint,
on the sphere and, since dropping a coordinate is 1-Lipschitz, in the
plane; the nearest vertex bounds the answer from above, so only arcs
whose midpoint comes within that bound plus the reach can hold the
nearest point (`_pairs`). The exact distance is evaluated on those pairs
alone, pair by pair, and each query keeps its least pair, a tie going to
the lowest arc (`_least`). So a query's distance, nearest point and
gradient depend on that query alone, not on the batch it arrives in. The
same bound limits the check, at construction, that no two arcs cross.

`load_boundary_csv` builds the boundary of each distinct outline text
once per process and hands every caller that one object.

The per-pair steps of membership, haversine g and projected g run on
columns: each arc's constants are stored as one column of a block of
rows (`_Arcs.cols`, an `_ArcIndex`'s `cols`, the projected table of each
drop axis), and a pair block gathers its arcs' columns and its queries'
coordinates with one `np.take` each, so every dot, cross product and
norm is a few operations on contiguous (3, m) rows. Their sums run in
fixed orders: a dot as (u0 v0 + u2 v2) + u1 v1, the order of numpy's
`einsum` over a length-3 axis, and a norm and a cross product as
`np.linalg.norm` and `np.cross` form them, so the column layout gives
the bits of the row layout, and the result does not depend on the
memory layout of the queries.

Gradients of a min-over-points distance are taken holding the minimizing
boundary point fixed, which is valid away from the measure-zero set of
argmin ties. Returned haversine gradients are tangential (the gradient of
the radially-constant extension); projected-Euclidean gradients are the
lifted in-plane unit vectors. Either convention yields the same tangential
inner products downstream.
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import (
    SphericalCoord,
    complete_frame,
    to_euclidean,
    unit_vector,
    wrap_azimuth,
)

# Query rows per chunk are sized so that query-by-vertex work arrays hold
# about this many entries.
_CHUNK_PAIRS = 1 << 16

# Slack of the exact cap and reach bounds, in cosine or squared-chord
# units: far above the rounding of a dot product of unit vectors (about
# 1e-16), so rounding never prunes an arc that can be nearest or skips a
# query that can be inside.
_CAP_SLACK = 1e-12

# Cap on the iterations of each root search of the projected scaling.
# Each element of a search stops after its first step of at most
# _ROOT_STEP (relative to |v| in `_second_minimum`), so its root does not
# depend on the batch it is found in. None took more than 21 steps on the
# test polygons and 130 random ones.
_ROOT_ITERATIONS = 64
_ROOT_STEP = 1e-13

# Queries closer than this to +-hint (as |q x hint|) have an ill-defined
# path plane and detour through a point a quarter turn away.
_DETOUR = 1e-8

# The arc index bins the azimuth about its origin, modulo pi, into this
# many bins. Its padding rests on three bounds: the absolute rounding of a
# computed side q.(v x o) of unit vectors (about 7e-16, taken 5x over);
# the rounding of every computed azimuth of a served query or an indexed
# vertex (below 1e-7); and the distance from +-o within which a vertex's
# azimuth is too ill-conditioned to bin.
_AZIMUTH_BINS = 512
_SIDE_ERROR = 16.0 * np.finfo(float).eps
_AZIMUTH_SLACK = 1e-6
_NEAR_AXIS = 1e-6

# Tolerance of the fold rules on the dropped coordinate of projected g:
# a curve or query within it of the plane x_k = 0 counts as on the plane.
_FOLD_TOL = 1e-9

# `load_boundary_csv` keeps the boundaries of this many distinct outline
# files: a report per season against one border builds it once.
_OUTLINES = 4


class Boundary:
    """
    Base class: a closed curve on the sphere plus the observed region it
    bounds.

    Construction builds everything a query reads and marks every array
    it holds read-only, and unpickling marks them again, so instances are
    immutable and all queries are thread-safe.

    Attributes:
        interior_reference: a unit vector inside the region; a polyline's
            region is the side of the curve that holds it.
    """

    interior_reference: np.ndarray

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        """Region membership for point(s) [..., 3]."""
        raise NotImplementedError

    def __setstate__(self, state: dict) -> None:
        # pickling drops the read-only flags, so a pool worker's copy marks
        # its arrays again
        self.__dict__.update(state)
        _freeze(self)


def _freeze(value) -> None:
    """Mark every array in `value`, in its tuples and in its attributes,
    read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            _freeze(item)


class ColatitudeBoundary(Boundary):
    """
    Circle of constant polar angle a0; region is `a > a0` (side "greater",
    the default) or `a < a0` (side "less").

    Distances to this boundary have the closed form |a - a0|, used as a
    fast path by the scaling functions.
    """

    def __init__(self, a0: float, side: str = "greater"):
        if not 0.0 < a0 < np.pi:
            raise ValueError(f"a0 must lie strictly inside (0, pi), got {a0}")
        if side not in ("greater", "less"):
            raise ValueError(f"side must be 'greater' or 'less', got {side!r}")
        self.a0 = float(a0)
        self.side = side
        pole_a = np.pi if side == "greater" else 0.0
        self.interior_reference = to_euclidean(pole_a, 0.0)
        # the circle lies in the plane x1 = cos a0, and is mirror-symmetric
        # in x2 and x3
        c0, s0 = np.cos(self.a0), np.sin(self.a0)
        self._folds = tuple(_fold_rule(k, lo, hi, True)
                            for k, (lo, hi) in enumerate([(c0, c0), (-s0, s0), (-s0, s0)]))
        _freeze(self)

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        x = np.asarray(x, dtype=float)
        a = np.arccos(np.clip(x[..., 0], -1.0, 1.0))
        inside = a > self.a0 if self.side == "greater" else a < self.a0
        return bool(inside) if inside.ndim == 0 else inside

    def a_interval(self) -> tuple[float, float]:
        """Polar-angle interval covered by the region."""
        return (self.a0, np.pi) if self.side == "greater" else (0.0, self.a0)


class PolylineBoundary(Boundary):
    """
    Closed polyline of unit vectors joined by minor great-circle arcs; the
    region is the side of the curve that holds the interior hint. The
    polyline must be simple: construction raises ValueError when two
    non-adjacent arcs cross or a vertex repeats non-consecutively
    (`_crossing_arcs`), and when the hint lies within 1e-9 rad of the
    curve, where it names no side.

    The hint defaults to the normalized vertex mean, which lies on the
    smaller side of most curves; a region larger than a hemisphere needs
    an explicit hint. Membership is the parity of the vertex arcs crossed
    by the minor arc from the hint to the query (Bevis & Chatelain 1989),
    so vertex order does not matter. Vertices and hint must be finite.

    Construction also finds the cap about the normalized vertex mean c
    that holds every vertex, of radius R. When cos R > 1e-6 the cap lies
    inside a hemisphere, so it is convex and holds every minor arc between
    its vertices, hence the whole curve. The set outside it is then a
    connected cap that the curve does not meet, and membership is the same
    at all of its points: `contains` runs the parity test only on queries
    with x.c >= cos R (less a rounding slack) and gives every other query
    the parity of one point with x.c < 0, computed once here. Otherwise,
    or when the vertex mean vanishes, every query takes the parity test.

    The parity test itself runs through an `_ArcIndex` about the hint,
    which gives each query only the arcs whose endpoints can straddle its
    path's plane. Queries within 1e-8 of +-hint detour through a point a
    quarter turn away, with a second index about that point and that
    point's parity from the hint.

    Every query reads one table of the vertex arcs (`_arc_table`): the
    crossing and hint checks, both arc indexes, both scaling functions
    and the `_projected_table` of each drop axis. All of it, and the fold
    rule of each drop axis (`_fold_rule`), is built here, as functions of
    the vertices and hint alone, and made read-only.
    """

    def __init__(self, vertices: np.ndarray, interior_hint: np.ndarray | None = None):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 3 or vertices.shape[0] < 3:
            raise ValueError("vertices must be an (k, 3) array with k >= 3")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("boundary vertices must be finite")
        vertices = unit_vector(vertices)
        arcs = _arc_table(vertices)
        i, j = _crossing_arcs(arcs)
        if len(i):
            raise ValueError(
                f"boundary arcs {i[0]} and {j[0]} cross or start at one vertex; "
                "the polyline must be simple"
            )
        mean = vertices.mean(axis=0)
        centre = unit_vector(mean) if np.linalg.norm(mean) >= 1e-9 else None
        if interior_hint is None:
            if centre is None:
                raise ValueError(
                    "vertex mean is degenerate; pass interior_hint explicitly"
                )
            interior_hint = centre
        else:
            interior_hint = np.asarray(interior_hint, dtype=float)
            if not np.all(np.isfinite(interior_hint)):
                raise ValueError("interior_hint must be finite")
            interior_hint = unit_vector(interior_hint)
        if _nearest_on_arcs(arcs, interior_hint[None])[0][0] < 1e-9:
            raise ValueError("interior hint lies on the boundary; pass one inside the region")
        self.vertices = vertices
        self.interior_reference = interior_hint
        self._arcs = arcs
        self._index = _ArcIndex(arcs, interior_hint)
        self._detour = _ArcIndex(arcs, complete_frame(interior_hint)[0])
        # the parity of the detour index's origin, seen from the hint
        self._detour_odd = bool(self._index.parity(self._detour.origin[None, :])[0])
        self._projected = tuple(_projected_table(arcs, k) for k in range(3))
        # a minor arc is a conic combination of its ends, so it keeps the
        # sign they share: the vertices span the curve's exact extent
        self._folds = tuple(_fold_rule(k, v.min(), v.max(), _mirror_symmetric(vertices, k))
                            for k, v in enumerate(vertices.T))
        # (centre, cos R less the slack, membership outside the cap); the
        # cap with cos R = -inf is the whole sphere.
        self._cap = (interior_hint, -np.inf, False)
        if centre is not None:
            cos_r = float(np.min(vertices @ centre))
            if cos_r > 1e-6:
                # any point with x.c < 0 is outside the cap; this one is not
                # +-c, so with the default hint c it takes no detour
                far = unit_vector(complete_frame(centre)[0] - centre)
                self._cap = (centre, cos_r - _CAP_SLACK, bool(self.contains(far)))
        _freeze(self)

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        x = np.asarray(x, dtype=float)
        centre, cos_r, far_inside = self._cap
        inside = np.full(x.shape[:-1], far_inside)
        near = x @ centre >= cos_r
        q = x[near]
        odd = self._index.parity(q)
        # The minor arc from the hint is undefined at +-hint: detour through
        # a point a quarter turn away.
        bad = _norm(_cross(q.T, self.interior_reference[:, None])) < _DETOUR
        if np.any(bad):
            odd[bad] = self._detour_odd ^ self._detour.parity(q[bad])
        inside[near] = ~odd
        return bool(inside) if inside.ndim == 0 else inside


def _row_chunks(n: int, k: int):
    """Row slices that keep n-by-k work arrays near _CHUNK_PAIRS entries."""
    step = max(1, _CHUNK_PAIRS // k)
    return (slice(i, i + step) for i in range(0, n, step))


class _Arcs(NamedTuple):
    """
    The vertex arcs start -> end, end being the next vertex (the last arc
    closes the cycle): start and end (k, 3), the unit normal of the great
    circle (k, 3), the unit midpoint (k, 3), the length by `_angle` (k,),
    and the reach 2 sin(L/4), the chord from the midpoint to either end
    (k,), within which the whole arc lies. `cols` (15, k) holds, three
    rows each, the columns of start a, end b, normal n, n x a and b x n:
    what `_arc_nearest` reads of each pair's arc.
    """

    start: np.ndarray
    end: np.ndarray
    normal: np.ndarray
    mid: np.ndarray
    length: np.ndarray
    reach: np.ndarray
    cols: np.ndarray


def _arc_table(vertices: np.ndarray) -> _Arcs:
    """
    The `_Arcs` of a closed cycle of unit vertices. Raises ValueError
    where two consecutive vertices lie less than 1e-12 rad apart.
    """
    end = np.roll(vertices, -1, axis=0)
    length = _angle(vertices.T, end.T, np.einsum("ij,ij->i", vertices, end))
    if np.any(length < 1e-12):
        raise ValueError("consecutive boundary vertices must be distinct")
    normal = unit_vector(np.cross(vertices, end))
    cols = np.vstack([vertices.T, end.T, normal.T,
                      np.cross(normal, vertices).T, np.cross(end, normal).T])
    return _Arcs(vertices, end, normal, unit_vector(vertices + end), length,
                 2.0 * np.sin(0.25 * length), cols)


def _crossing_arcs(arcs: _Arcs) -> tuple[np.ndarray, np.ndarray]:
    """
    Index pairs (i, j), i < j, of non-adjacent vertex arcs that cross.

    Arcs (a, b) and (c, d) cross when c and d lie strictly on opposite
    sides of the plane of (a, b), with signed sides s_c and s_d, a and b
    likewise of the plane of (c, d), and the point X = |s_d| c + |s_c| d,
    where arc (c, d) meets the plane of (a, b), has X.(a + b) > 0, i.e.
    lies on arc (a, b) rather than at its antipode. Arcs that only touch
    are not flagged, save two that start at one vertex (within 1e-12 rad),
    where the curve is pinched. Two arcs can meet only where their
    midpoints lie within the sum of their reaches (the `_candidates`
    bound), so only those pairs are tested; the test's slack of 1e-11
    also keeps arcs whose starts are 1e-12 apart, as the sum of two
    reaches is below 3.
    """
    vertices, nxt, normals, mids, _, reach, _ = arcs
    k = len(vertices)
    near = [np.empty((0, 2), dtype=np.intp)]
    for rows in _row_chunks(k, k):
        # (r_i + r_j)^2 - |m_i - m_j|^2, for unit midpoints
        gap = (reach[rows, None] + reach) ** 2 - 2.0 + 2.0 * (mids[rows] @ mids.T)
        near.append(np.argwhere(gap >= -1e-11) + [rows.start, 0])
    i, j = np.concatenate(near).T
    apart = (j - i >= 2) & (j - i <= k - 2)
    i, j = i[apart], j[apart]
    s_c = np.einsum("ij,ij->i", normals[i], vertices[j])
    s_d = np.einsum("ij,ij->i", normals[i], nxt[j])
    s_a = np.einsum("ij,ij->i", normals[j], vertices[i])
    s_b = np.einsum("ij,ij->i", normals[j], nxt[i])
    meet = np.abs(s_d)[:, None] * vertices[j] + np.abs(s_c)[:, None] * nxt[j]
    crosses = (
        (np.sign(s_c) * np.sign(s_d) < 0.0)
        & (np.sign(s_a) * np.sign(s_b) < 0.0)
        & (np.einsum("ij,ij->i", meet, vertices[i] + nxt[i]) > 0.0)
    )
    # a vertex the cycle visits twice pinches the curve there
    a, c = vertices[i], vertices[j]
    crosses |= _angle(a.T, c.T, np.einsum("ij,ij->i", a, c)) < 1e-12
    return i[crosses], j[crosses]


class _ArcIndex:
    """
    Crossing parity of the minor arcs origin -> q against the vertex arcs
    vertices[i] -> vertices[i + 1], testing each query on the few arcs
    that can change it.

    The path crosses arc (a, b) when origin and q straddle the plane of
    (a, b), a and b straddle the plane of (origin, q), and the path meets
    that great circle at P = |s_o| q + |s_q| origin (s = signed side)
    with P.(a + b) > 0, i.e. on the arc rather than at its antipode.
    Zero sides count as positive, so a path through a vertex is counted
    once for its two arcs.

    Only the second test needs every arc. With theta the angle from the
    origin o and phi the azimuth about it, the side q.(v x o) of a vertex
    v is sin(theta_v) sin(theta_q) sin(phi_v - phi_q), so a and b
    straddle the path's plane exactly when phi_q, modulo pi, lies in the
    shorter interval between phi_a and phi_b, which is narrower than pi.
    The azimuths modulo pi are cut into _AZIMUTH_BINS bins, each listing
    the arcs whose padded interval meets it, and a query is tested on its
    bin's arcs alone, with the same predicate as on all of them.

    The pad makes each list hold every arc whose computed sides can
    straddle. A computed side is within _SIDE_ERROR of the exact one, so
    its sign can be wrong only where |sin(phi_v - phi_q)| is below
    _SIDE_ERROR / (sin theta_v sin theta_q). For every query the index
    serves, sin theta_q >= _DETOUR, so an interval is padded by
    arcsin(_SIDE_ERROR / (_DETOUR min sin theta)) over its endpoints,
    plus _AZIMUTH_SLACK for the rounding of the computed azimuths. An arc
    goes to every bin when an endpoint lies within _NEAR_AXIS of +-o,
    where the pad would be wide and the azimuth ill-conditioned, or when
    its padded interval meets every bin, which includes every sweep
    within the pad of pi, where the shorter side is ambiguous. Queries
    with |q x o| < _DETOUR get an arbitrary parity.
    """

    def __init__(self, arcs: _Arcs, origin: np.ndarray):
        vertices, normals, mids = arcs.start, arcs.normal, arcs.mid
        side = np.cross(vertices, origin)  # q . (v x o) = det(o, q, v)
        self.origin = origin
        s_o = normals @ origin
        # per arc, one column: the vectors dotted with q, giving s_q, q.mid
        # and both sides (rows 0-11), then s_o, o.mid and the sign of s_o
        self.cols = np.vstack([normals.T, mids.T, side.T, np.roll(side, -1, axis=0).T,
                               s_o, mids @ origin, np.where(s_o >= 0.0, 1.0, -1.0)])
        self.frame = np.array(complete_frame(origin))

        along = vertices @ self.frame.T
        phi = np.arctan2(along[:, 1], along[:, 0])
        sweep = np.mod(np.roll(phi, -1) - phi + np.pi, 2.0 * np.pi) - np.pi
        low = np.where(sweep >= 0.0, phi, np.roll(phi, -1))
        width = np.abs(sweep)
        sin_theta = np.linalg.norm(side, axis=1)
        sin_min = np.minimum(sin_theta, np.roll(sin_theta, -1))
        pad = _AZIMUTH_SLACK + np.arcsin(
            np.minimum(1.0, _SIDE_ERROR / (_DETOUR * np.maximum(sin_min, _NEAR_AXIS)))
        )
        scale = _AZIMUTH_BINS / np.pi
        first = np.floor((low - pad) * scale).astype(np.intp)
        count = np.floor((low + width + pad) * scale).astype(np.intp) - first + 1
        every = (sin_min < _NEAR_AXIS) | (count >= _AZIMUTH_BINS)
        first[every] = 0
        count[every] = _AZIMUTH_BINS
        arc = np.repeat(np.arange(len(vertices)), count)
        step = np.arange(len(arc)) - np.repeat(np.cumsum(count) - count, count)
        bins = (np.repeat(first, count) + step) % _AZIMUTH_BINS
        # bin by bin, each bin's arcs in index order
        self.arcs = arc[np.argsort(bins, kind="stable")]
        self.counts = np.bincount(bins, minlength=_AZIMUTH_BINS)
        self.starts = np.cumsum(self.counts) - self.counts
        self.widest = int(self.counts.max())

    def parity(self, q: np.ndarray) -> np.ndarray:
        """True where the minor arc origin -> q crosses an odd number of arcs."""
        along = q @ self.frame.T
        phi = np.mod(np.arctan2(along[:, 1], along[:, 0]), np.pi)
        bins = np.minimum((phi * (_AZIMUTH_BINS / np.pi)).astype(np.intp), _AZIMUTH_BINS - 1)
        odd = np.empty(len(q), dtype=bool)
        for rows in _row_chunks(len(q), self.widest):
            b = bins[rows]
            count = self.counts[b]
            # (query, arc) candidate pairs, flat
            qi = np.repeat(np.arange(len(b)), count)
            offset = np.repeat(self.starts[b] - (np.cumsum(count) - count), count)
            t = np.take(self.cols, self.arcs[np.arange(len(qi)) + offset], axis=1)
            qc = np.take(q.T, qi + rows.start, axis=1)
            s_q, q_mid = _dot(t[0:3], qc), _dot(t[3:6], qc)
            s_o, o_mid, o_sign = t[12:15]
            crosses = (
                ((o_sign > 0.0) != (s_q >= 0.0))
                & ((_dot(t[6:9], qc) >= 0.0) != (_dot(t[9:12], qc) >= 0.0))
                & (o_sign * (s_o * q_mid - s_q * o_mid) > 0.0)
            )
            odd[rows] = np.bincount(qi[crosses], minlength=len(b)) % 2 == 1
        return odd


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """
    Dot products of the columns of (d, m) arrays, d = 2 or 3. Three terms
    sum as (u0 v0 + u2 v2) + u1 v1, the order of numpy's `einsum` over a
    length-3 axis, so a column's dot equals the `einsum` of its row.
    """
    if len(u) == 2:
        return u[0] * v[0] + u[1] * v[1]
    return (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross products of the columns of (3, m) arrays, formed as `np.cross` forms them."""
    return np.stack([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _norm(u: np.ndarray) -> np.ndarray:
    """Norms of the columns of a (3, m) array, summed as `np.linalg.norm` sums a row."""
    return np.sqrt((u[0] * u[0] + u[1] * u[1]) + u[2] * u[2])


def _angle(q: np.ndarray, p: np.ndarray, dot: np.ndarray) -> np.ndarray:
    """Angle between paired columns q and p (3, m) with q.p = dot, as atan2(|q x p|, q.p)."""
    return np.arctan2(_norm(_cross(q, p)), dot)


def _candidates(
    q: np.ndarray, to_ends: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """
    (query, arc) index pairs, sorted by query then arc, of the arcs that
    can hold each query's nearest point, given the constant operands that
    `_pairs` builds from the arcs.

    Works alike on the sphere (3-D rows) and in a plane (2-D rows): every
    arc lies within Euclidean distance `reach` of its midpoint, and the
    nearest of `ends` (points on the curve) at distance t bounds the
    answer, so an arc can be nearest only if |q - mid| <= t + reach. The
    test is one product, (t + r)^2 - |q - mid|^2 >= -_CAP_SLACK, with t^2
    raised by 1e-15, above the rounding of a squared distance formed from
    dot products of unit-scale rows; the arc leaving the nearest end
    always passes it.
    """
    ones = np.ones(len(q))
    q_sq = np.einsum("ij,ij->i", q, q)
    t_sq = q_sq + np.min(np.column_stack([q, ones]) @ to_ends, axis=1)
    t = np.sqrt(np.maximum(t_sq, 0.0) + 1e-15)
    rows = np.column_stack([2.0 * q, 2.0 * t, t * t - q_sq, ones])
    return divmod(np.flatnonzero(rows @ cols >= -_CAP_SLACK), cols.shape[1])


def _pairs(
    q: np.ndarray, ends: np.ndarray, mids: np.ndarray, reach: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`_candidates` over row chunks: flat (query, arc) pairs, sorted by query then arc."""
    to_ends = np.vstack([-2.0 * ends.T, np.einsum("ij,ij->i", ends, ends)])
    cols = np.vstack([mids.T, reach, np.ones(len(reach)), reach**2 - np.einsum("ij,ij->i", mids, mids)])
    pairs = [np.empty((2, 0), dtype=np.intp)]
    for rows in _row_chunks(len(q), len(reach)):
        qi, j = _candidates(q[rows], to_ends, cols)
        pairs.append(np.stack([qi + rows.start, j]))
    return tuple(np.concatenate(pairs, axis=1))


def _least(qi: np.ndarray, value: np.ndarray) -> np.ndarray:
    """
    Index of each query's pair of least value, given pairs sorted by query
    (every query having one) then arc; a tie goes to the lowest arc.
    """
    low = np.full(qi[-1] + 1 if len(qi) else 0, np.inf)
    np.minimum.at(low, qi, value)
    hit = np.flatnonzero(value == low[qi])
    return hit[np.diff(qi[hit], prepend=-1) != 0]


def _arc_nearest(q: np.ndarray, arc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Column by column, the geodesic distance from q (3, m) to the minor arc
    a -> b with unit normal n, given as the columns of `_Arcs.cols` (15,
    m), and the nearest point (3, m) (on the ray through it; not
    normalized). Each column depends on its own inputs alone.

    The distance is that to the great circle when the foot of the
    perpendicular lies on the arc (q.(n x a) >= 0 and q.(b x n) >= 0),
    else to the nearer endpoint. Every angle is atan2(|cross|, dot),
    accurate at both ends of [0, pi].
    """
    a, b, n = arc[0:3], arc[3:6], arc[6:9]
    lift = _dot(n, q)
    on_arc = (_dot(arc[9:12], q) >= 0.0) & (_dot(arc[12:15], q) >= 0.0)
    to_a, to_b = _angle(q, a, _dot(a, q)), _angle(q, b, _dot(b, q))
    to_circle = np.arctan2(np.abs(lift), _norm(_cross(q, n)))
    dist = np.where(on_arc, to_circle, np.minimum(to_a, to_b))
    end = np.where(to_a <= to_b, a, b)
    return dist, np.where(on_arc, q - lift * n, end)


def _nearest_on_arcs(arcs: _Arcs, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Geodesic distance from each query (n, 3) to the closed polyline of
    vertex arcs, and the nearest point on it (on the ray through it; not
    normalized).

    `_arc_nearest` is evaluated only on the (query, arc) pairs that
    `_candidates` keeps: chord distance grows with the angle over all of
    [0, pi], so the chord bound keeps every arc that can be nearest. The
    result is that of evaluating every pair, a tie going to the lowest
    arc index.
    """
    qi, j = _pairs(x, arcs.start, arcs.mid, arcs.reach)
    dist, near = _arc_nearest(np.take(x.T, qi, axis=1), np.take(arcs.cols, j, axis=1))
    best = _least(qi, dist)
    return dist[best], near[:, best].T


def _on_arc(s: np.ndarray, a: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns cos(s) a + sin(s) u of (d, m) arrays, and their s-derivatives."""
    c, n = np.cos(s), np.sin(s)
    return c * a + n * u, c * u - n * a


def _valley_root(
    a: np.ndarray, u: np.ndarray, y: np.ndarray, hi: np.ndarray, d_lo: np.ndarray, d_hi: np.ndarray
) -> np.ndarray:
    """
    The root in (0, hi) of f'(s) / 2 = (p(s) - y).p'(s), p(s) = cos(s) a +
    sin(s) u, given its values d_lo < 0 at 0 and d_hi > 0 at hi: Newton
    steps while they stay inside the bracket, else the secant of the
    bracket, which always does.
    """
    lo = np.zeros(len(hi))
    s = 0.5 * hi
    live = np.ones(len(hi), dtype=bool)
    # d_hi - d_lo > 0 throughout; only the Newton step can divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_ITERATIONS):
            p, dp = _on_arc(s, a, u)
            r = p - y
            d, dd = _dot(r, dp), _dot(dp, dp) - _dot(r, p)
            low, high = d < 0.0, d > 0.0
            lo, d_lo = np.where(low, s, lo), np.where(low, d, d_lo)
            hi, d_hi = np.where(high, s, hi), np.where(high, d, d_hi)
            step = s - d / dd
            newton = (dd > 0.0) & (step > lo) & (step < hi)
            # most rounds take a Newton step everywhere and need no secant
            if not newton.all():
                step = np.where(newton, step, lo - d_lo * (hi - lo) / (d_hi - d_lo))
            step = np.where(live, step, s)
            live &= np.abs(step - s) > _ROOT_STEP
            s = step
            if not live.any():
                break
    return s


def _second_minimum(y0: np.ndarray, beta: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    (cos phi, sin phi) of the second local minimum of the squared distance
    from (y0, -beta / b) to the ellipse (cos phi, b sin phi), c = 1 - b^2,
    on the half sin phi > 0, for queries inside the evolute.

    It is the root v in (v_m, 0) of F(v) = (y0 / (c + beta v))^2 + v^-2 = 1
    with cos phi = y0 / (c + beta v) and sin phi = -1 / v. F is convex and
    increasing there and F(-1) >= 1, so Newton from v = -1 falls
    monotonically to the root; beta = 0 is the limit of a query on the
    major axis, where the root is -1 / sqrt(1 - (y0 / c)^2).
    """
    v = np.full(len(y0), -1.0)
    live = np.ones(len(y0), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ROOT_ITERATIONS):
            den = c + beta * v
            f = (y0 / den) ** 2 + v**-2
            df = -2.0 * beta * y0 * y0 / den**3 - 2.0 * v**-3
            step = np.where(live, v - (f - 1.0) / df, v)
            live &= np.abs(step - v) > _ROOT_STEP * np.abs(step)
            v = step
            if not np.any(live):
                break
        return y0 / (c + beta * v), -1.0 / v


def _projected_table(arcs: _Arcs, drop_idx: int) -> np.ndarray:
    """
    The vertex arcs as `_nearest_projected` reads them after dropping
    coordinate drop_idx, one column per arc: in the kept coordinates the
    start a, the start tangent n x a, the end, the end tangent n x b
    (rows 0-7), the length (8), the major axis m and the axis w toward
    the midpoint (9-12), c = 1 - b^2 (13), m.a, m.(n x a), w.a and
    w.(n x a) (14-17), and, for the pruning, the midpoint (18-19) and the
    reach (20).
    """
    start, end, normal, length = arcs.start, arcs.end, arcs.normal, arcs.length
    keep = [i for i in range(3) if i != drop_idx]
    tangent, end_tangent = np.cross(normal, start), np.cross(normal, end)
    across = np.cross(np.eye(3)[drop_idx], normal)  # e_k x n: a signed permutation of n
    c = np.einsum("ij,ij->i", across, across)  # 1 - b^2; zero on a circle, which has one minimum
    m = across / np.sqrt(np.where(c > 0.0, c, 1.0))[:, None]
    w = np.cross(normal, m)
    w *= np.where(np.einsum("ij,ij->i", w, arcs.mid) < 0.0, -1.0, 1.0)[:, None]
    return np.vstack([
        start[:, keep].T, tangent[:, keep].T, end[:, keep].T, end_tangent[:, keep].T,
        length, m[:, keep].T, w[:, keep].T, c,
        *(np.einsum("ij,ij->i", f, g) for f in (m, w) for g in (start, tangent)),
        arcs.mid[:, keep].T, arcs.reach,
    ])


def _nearest_projected(table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """
    Nearest point of the projected polyline to each projected query
    y (n, 2), as two rows (2, n), exact on the vertex arcs, given their
    `_projected_table`.

    Dropping coordinate k maps the great circle of an arc with unit
    normal n onto a centred ellipse with semi-axes 1 (along m, the unit
    vector along e_k x n) and b = |n_k|, at principal angle phi. Only the
    sign of x_k picks the half of the ellipse, phi in [0, pi] once the
    axis w = n x m is taken toward the arc's midpoint, and the boundary's
    fold rule (`_fold_rule`) keeps each arc on its half: a one-sided
    boundary's arcs cross the plane x_k = 0 only within the 1e-9 fold
    tolerance, and an arc of a simple mirror-symmetric boundary that
    crosses it is its own mirror image, so n_k = 0 and it projects to a
    segment of the major axis (b = 0, w along e_k). The squared distance
    f from y has at most two local minima on the whole ellipse (Eberly
    2013, "Distance from a point to an ellipse, an ellipsoid, or a
    hyperellipsoid"): the global one, in y's quadrant, and a second one,
    in the quadrant mirrored across the major axis, when y lies inside the
    evolute, |y0|^(2/3) + |b y1|^(2/3) < (1 - b^2)^(2/3), in principal
    coordinates.

    So Newton cannot miss an interior minimum when y lies on the arc's
    side of the major axis (y.Pw >= 0): on that half f' changes sign once,
    from - to +, and `_valley_root` finds it in the arc length s wherever
    f'(0) < 0 < f'(L). Otherwise the only interior minimum is the second
    one, from `_second_minimum`; on a segment, where y.Pw = 0, that is the
    foot of the perpendicular. Each root found, and the arc's two ends, is
    a point of the arc, so the least distance among them is exact. Arcs
    are pruned by `_candidates`, and a tie goes to the lowest arc index.
    """
    qi, j = _pairs(y, table[0:2].T, table[18:20].T, table[20])
    # rows 14-17 serve only the few pairs across the major axis
    t, yq = np.take(table[:14], j, axis=1), np.take(y.T, qi, axis=1)
    a, u, e, te, span = t[0:2], t[2:4], t[4:6], t[6:8], t[8]

    def take(v, idx):
        """The columns idx of a row or block of rows."""
        return np.take(v, idx, axis=-1)

    # The ends, then each root found, replace the best only when nearer.
    to_a, to_e = a - yq, e - yq
    d_start, d_end = _dot(to_a, to_a), _dot(to_e, to_e)
    best_s = np.where(d_end < d_start, span, 0.0)
    best_d = np.minimum(d_start, d_end)

    def offer(idx, s):
        r = _on_arc(s, take(a, idx), take(u, idx))[0] - take(yq, idx)
        d = _dot(r, r)
        nearer = d < best_d[idx]
        best_s[idx[nearer]], best_d[idx[nearer]] = s[nearer], d[nearer]

    d_lo, d_hi = _dot(to_a, u), _dot(to_e, te)
    idx = np.flatnonzero((d_lo < 0.0) & (d_hi > 0.0))
    offer(idx, _valley_root(take(a, idx), take(u, idx), take(yq, idx),
                            span[idx], d_lo[idx], d_hi[idx]))

    # y across the major axis, or on it up to rounding, and inside the
    # evolute's bounding box |y0| < c, beta < c, which its test implies.
    y0, yw, cc = _dot(yq, t[9:11]), _dot(yq, t[11:13]), t[13]
    idx = np.flatnonzero((yw <= _CAP_SLACK) & (np.abs(y0) < cc) & (np.abs(yw) < cc))
    y0, beta, cc = y0[idx], np.abs(yw[idx]), cc[idx]
    inner = np.cbrt(y0 * y0) + np.cbrt(beta * beta) < np.cbrt(cc * cc)
    idx, y0, beta, cc = idx[inner], y0[inner], beta[inner], cc[inner]
    cos_phi, sin_phi = _second_minimum(y0, beta, cc)
    ma, mu, wa, wu = np.take(table[14:18], j[idx], axis=1)
    s = np.arctan2(cos_phi * mu + sin_phi * wu, cos_phi * ma + sin_phi * wa)
    # A root off the arc, or lost where y grazes the evolute, still gives
    # a point of the arc.
    offer(idx, np.clip(np.nan_to_num(s), 0.0, span[idx]))

    hit = _least(qi, best_d)
    return _on_arc(best_s[hit], take(a, hit), take(u, hit))[0]


def haversine_scaling(boundary: Boundary, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Vectorized geodesic-distance scaling for a batch of points of the
    region.

    g is the great-circle distance to the boundary: |a - a0| for a
    colatitude circle, the exact distance to the nearest vertex arc for a
    polyline. The gradient is -(p - (x.p) x) / sin g at the nearest
    boundary point p, a unit tangent vector.

    Args:
        boundary: the region boundary; for a polyline the region is the
            side that holds its interior hint.
        x: Queries (n, 3) in the closed region. Membership is the caller's
            to check; g at a point outside the region is not specified.

    Returns:
        (g (n,), grad (n, 3)); grad may be the transposed view of (3, n)
        rows. Points within 1e-12 of the boundary get g = 0 and a zero
        gradient.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))

    if isinstance(boundary, ColatitudeBoundary):
        # sin a and cos a from the coordinates, not from a: atan2 keeps a
        # exact near both poles, where arccos(x1) rounds to the pole within
        # about 1e-8 rad. Every row is computed; rows on the boundary are
        # zeroed after.
        sa = np.hypot(x[:, 1], x[:, 2])
        a = np.arctan2(sa, x[:, 0])
        signed = a - boundary.a0 if boundary.side == "greater" else boundary.a0 - a
        ok = signed > 1e-12
        g = np.where(ok, signed, 0.0)
        cot = x[:, 0] / np.where(sa > 0, sa, 1.0)
        sign = 1.0 if boundary.side == "greater" else -1.0
        # Tangential projection of sign * grad(a): unit vector along -d/da.
        tang = np.stack([-sa, cot * x[:, 1], cot * x[:, 2]])
        return g, np.where(ok, sign * tang, 0.0).T

    g, near = _nearest_on_arcs(boundary._arcs, x)
    ok = g > 1e-12
    xo = x[ok].T
    # (x x p) x x = p - (x.p) x, with norm sin g times |p|.
    toward = _cross(_cross(xo, near[ok].T), xo)
    grad = np.zeros((3, x.shape[0]))
    grad[:, ok] = -toward / _norm(toward)
    g[~ok] = 0.0
    return g, grad.T


def default_drop_axis(boundary: Boundary) -> int:
    """
    Coordinate number (1, 2, or 3 for x1, x2, x3) of the axis projected g
    drops when none is given. A colatitude region folds across x2: the
    circle is mirror-symmetric in x2, so every cap folds onto its
    boundary, and the folded distance stays linear near the rim, where the
    axis-1 disk distance flattens quadratically and costs estimation
    accuracy. A polyline drops the axis best aligned with its interior
    reference.
    """
    if isinstance(boundary, ColatitudeBoundary):
        return 2
    return int(np.argmax(np.abs(boundary.interior_reference))) + 1


def _mirror_symmetric(vertices: np.ndarray, drop_idx: int) -> bool:
    """
    True when negating the dropped coordinate maps the closed vertex cycle
    onto itself, up to rotation and reversal (coordinates within 1e-12).

    Then the mirror maps every vertex arc onto a vertex arc, so the
    preimage of the projected boundary is exactly the boundary and the
    projected distance still vanishes only on it even though the
    projection folds the sphere.
    """
    mirrored = vertices.copy()
    mirrored[:, drop_idx] *= -1.0
    for cycle in (vertices, vertices[::-1]):
        for start in np.flatnonzero(np.all(np.abs(cycle - mirrored[0]) <= 1e-12, axis=1)):
            if np.all(np.abs(np.roll(cycle, -start, axis=0) - mirrored) <= 1e-12):
                return True
    return False


def _fold_rule(drop_idx: int, lo: float, hi: float, mirrored: bool) -> float | str | None:
    """
    The fold rule of dropping coordinate drop_idx from a boundary whose
    curve spans [lo, hi] along it, mirror-symmetric in it when `mirrored`:
    whether the projection keeps the zero set of the distance, for the
    boundary's constructor to store.

    Allowed are a curve in one closed hemisphere of the dropped axis,
    where the projection is injective over the region's side, and a
    mirror-symmetric curve, which the fold maps onto itself. So the rule,
    with tolerance _FOLD_TOL, is the side (1.0 or -1.0) the queries must
    keep to when the curve keeps to one side of the plane x_k = 0; 0.0
    when it lies on the plane, and the queries must not reach both sides;
    None when it straddles the plane mirror-symmetrically, and the queries
    need no check; and the message that refuses the axis when it straddles
    the plane otherwise, which would let interior points project onto the
    projected boundary.
    """
    if lo < -_FOLD_TOL and hi > _FOLD_TOL:
        if mirrored:
            return None
        return (f"boundary straddles the drop-axis coordinate plane "
                f"asymmetrically (coordinate x{drop_idx + 1}); the projection "
                "would place interior points on the projected boundary")
    return 1.0 if hi > _FOLD_TOL else -1.0 if lo < -_FOLD_TOL else 0.0


def _fold_side(boundary: Boundary, drop_axis: int | None) -> tuple[int, float | None]:
    """
    (index of the dropped coordinate, fold side) of projected g along
    drop_axis (`default_drop_axis` when None), read off the boundary's
    stored fold rule: the side the queries must keep to, 0.0 when they
    must not reach both sides, None when they need no check. Raises
    ValueError for an axis other than 1-3, or one the rule refuses.
    """
    if drop_axis is None:
        drop_axis = default_drop_axis(boundary)
    if drop_axis not in (1, 2, 3):
        raise ValueError(f"drop_axis must be 1, 2, or 3 (coordinate number), got {drop_axis}")
    side = boundary._folds[drop_axis - 1]
    if isinstance(side, str):
        raise ValueError(side)
    return drop_axis - 1, side


def projected_scaling(
    boundary: Boundary, x: np.ndarray, drop_axis: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """
    Vectorized projected-plane Euclidean scaling for a batch of points of
    the region.

    The sphere is projected onto the plane of the two kept coordinates by
    zeroing the `drop_axis` coordinate (numbered 1 to 3 for x1 to x3);
    g is the planar distance to the nearest point of the projected
    boundary and the gradient is the planar unit vector away from it,
    lifted back with 0 in the dropped coordinate.

    A colatitude circle x1 = cos a0 has a closed-form nearest point. Along
    axis 1 it projects to the circle of radius s0 = sin a0, nearest at
    s0 xe / |xe| (any rim point at the pole, where the ray is undefined);
    along axis 2 or 3 it projects to the segment {x1 = cos a0, |xj| <= s0},
    nearest at (cos a0, clip(xj, -s0, s0)). A polyline's nearest point is
    found exactly on its vertex arcs by `_nearest_projected`. Each kind
    gives the nearest point as two rows (n0, n1) of the kept coordinates,
    and one tail forms g = sqrt(d0^2 + d1^2) and the two gradient rows
    from the offsets d. Queries within 1e-12 of the projected boundary get
    g = 0 and a zero gradient. Queries must lie in the closed region:
    membership is the caller's to check, and g outside the region is not
    specified.

    Returns:
        (g (n,), grad (n, 3)); grad may be the transposed view of (3, n)
        rows.

    Raises:
        ValueError: if the projection could place interior points on the
            projected boundary: the boundary's fold rule, built with it
            (`_fold_rule`), refuses the axis when the curve is neither
            one-sided nor mirror-symmetric in the dropped coordinate, and
            the queries are checked against it (on the far side of a
            one-sided curve, or on both sides of a curve on the plane).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    drop_idx, side = _fold_side(boundary, drop_axis)
    q = x[:, drop_idx]
    if side and np.any(q * side < -_FOLD_TOL):
        raise ValueError(
            "query points lie on the far side of the projection plane; "
            "the region is not contained in one hemisphere of the dropped axis"
        )
    if side == 0.0 and np.any(q > _FOLD_TOL) and np.any(q < -_FOLD_TOL):
        raise ValueError(
            "query points span both hemispheres of the dropped axis; "
            "projection would fold"
        )
    keep = [i for i in range(3) if i != drop_idx]
    xe = x.T[keep]
    n = x.shape[0]

    if isinstance(boundary, ColatitudeBoundary):
        c0, s0 = np.cos(boundary.a0), np.sin(boundary.a0)
        if drop_idx == 0:
            r = np.sqrt(xe[0] * xe[0] + xe[1] * xe[1])
            nearest = s0 * np.where(r > 0.0, xe, [[1.0], [0.0]]) / np.where(r > 0.0, r, 1.0)
        else:
            nearest = np.stack([np.full(n, c0), np.clip(xe[1], -s0, s0)])
    else:
        nearest = _nearest_projected(boundary._projected[drop_idx], xe.T)
    diff = xe - nearest
    g = np.sqrt(diff[0] * diff[0] + diff[1] * diff[1])
    ok = g > 1e-12
    grad = np.zeros((3, n))
    grad[keep] = np.where(ok, diff / np.where(ok, g, 1.0), 0.0)
    return np.where(ok, g, 0.0), grad.T


def scaling_values(
    boundary: Boundary | None,
    x: np.ndarray,
    g_kind: str,
    drop_axis: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """
    Dispatch to the configured scaling function for a batch of points of
    the region: (g (n,), grad (n, 3)).

    g_kind "unit" gives g = 1, grad = 0 everywhere (no boundary needed),
    reducing the truncated objective to the untruncated one. The other
    kinds never test membership; the caller checks it once. A drop_axis
    with any g_kind but "projected" raises `ValueError`, as only the
    projected g reads it.
    """
    if drop_axis is not None and g_kind != "projected":
        raise ValueError(f"g_kind {g_kind!r} does not use drop_axis")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if g_kind == "unit":
        n = x.shape[0]
        return np.ones(n), np.zeros((n, 3))
    if boundary is None:
        raise ValueError(f"g_kind={g_kind!r} requires a boundary")
    if g_kind == "haversine":
        return haversine_scaling(boundary, x)
    if g_kind == "projected":
        return projected_scaling(boundary, x, drop_axis)
    raise ValueError(f"unknown g_kind {g_kind!r}")


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


def _csv_text(path) -> str:
    """A CSV file's text, read as UTF-8 less any leading byte-order mark
    (Excel's "CSV UTF-8" writes one), whatever the locale."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def _csv_columns(text: str, choices: tuple[tuple[str, str], ...], what: str):
    """
    (names, values): the first pair of column names in `choices` that the
    header of the CSV text holds, and those two columns as an (n, 2)
    array. Blank lines are ignored, so the header is the first non-blank
    line; its names are stripped of spaces, in any column order, and other
    columns are ignored. A row without one of the two columns raises
    `ValueError` naming its line, as does a value that is not a number.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    # csv.reader gives [] for a blank line
    header = next(filter(None, reader), None)
    if header is None:
        raise ValueError(f"empty {what} file")
    cols = [c.strip() for c in header]
    names = next((pair for pair in choices if set(pair) <= set(cols)), None)
    if names is None:
        wanted = " or ".join(",".join(pair) for pair in choices)
        raise ValueError(f"{what} CSV needs columns {wanted}")
    at = [cols.index(name) for name in names]
    rows = []
    for row in filter(None, reader):
        if len(row) <= max(at):
            missing = [n for n, i in zip(names, at) if i >= len(row)]
            raise ValueError(f"line {reader.line_num} has no {' or '.join(missing)} value")
        try:
            rows.append([float(row[i]) for i in at])
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return names, np.array(rows, dtype=float).reshape(-1, 2)


@lru_cache(maxsize=_OUTLINES)
def _outline(text: str, hint: bytes | None) -> PolylineBoundary:
    """
    The boundary of a boundary CSV's text and an interior hint's bytes,
    built once for each of the last _OUTLINES distinct pairs; a failure is
    not kept, so it raises again on the next call. Every caller gets this
    one object, which is read-only.
    """
    names, rows = _csv_columns(text, (("lat_deg", "lon_deg"), ("a_rad", "b_rad")), "boundary")
    a, b = rows.T
    if names[0] == "lat_deg":
        a, b = latlon_to_spherical(a, b)
    return PolylineBoundary(to_euclidean(a, b), None if hint is None else np.frombuffer(hint))


def load_boundary_csv(path, interior_hint: np.ndarray | None = None) -> PolylineBoundary:
    """
    Read a boundary polyline from CSV.

    Accepts header `lat_deg,lon_deg` or `a_rad,b_rad` (read by
    `_csv_columns`: names stripped of spaces, any column order, other
    columns ignored); rows are ordered vertices of an implicitly closed
    curve. Blank lines are ignored, so the header is the first non-blank
    line, and a UTF-8 byte-order mark is dropped. Every `ValueError` it
    raises, a row without one of the two columns (naming its line) or a
    curve that is not simple too, starts with the path.

    The file is read on every call, and the boundary is built once per
    distinct file text and hint (`_outline`), so every reader of an
    unchanged outline parses and builds it once per process. Calls on
    one text and hint return one shared boundary, built whole and
    read-only.
    """
    try:
        hint = None if interior_hint is None else np.asarray(interior_hint, dtype=float).tobytes()
        return _outline(_csv_text(path), hint)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
