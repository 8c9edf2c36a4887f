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
  the same vertex arcs.

Both polyline distances run on one (query, arc) pair engine. Every
point of an arc of length L lies within chord 2 sin(L/4) of its midpoint,
on the sphere and, since dropping a coordinate is 1-Lipschitz, in the
plane; the nearest vertex bounds the answer from above, so only arcs
whose midpoint comes within that bound plus the reach can hold the
nearest point (`_pairs`). The exact distance is evaluated on those pairs
alone, row by row, and each query keeps its least pair, a tie going to
the lowest arc (`_least`). So a query's distance, nearest point and
gradient depend on that query alone, not on the batch it arrives in. The
same bound limits the check, at construction, that no two arcs cross.

Gradients of a min-over-points distance are taken holding the minimizing
boundary point fixed, which is valid away from the measure-zero set of
argmin ties. Returned haversine gradients are tangential (the gradient of
the radially-constant extension); projected-Euclidean gradients are the
lifted in-plane unit vectors. Either convention yields the same tangential
inner products downstream.
"""

from __future__ import annotations

import csv
from functools import cached_property

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


class Boundary:
    """
    Base class: a closed curve on the sphere plus the observed region it
    bounds.

    Instances are immutable after construction (a polyline's second arc
    index, built on first need, aside); all queries are read-only and
    thread-safe.

    Attributes:
        interior_reference: a unit vector inside the region; a polyline's
            region is the side of the curve that holds it.
    """

    interior_reference: np.ndarray

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        """Region membership for point(s) [..., 3]."""
        raise NotImplementedError


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
    the parity of -c, computed once here. Otherwise, or when the vertex
    mean vanishes, every query takes the parity test.

    The parity test itself runs through an `_ArcIndex` about the hint,
    built here, which gives each query only the arcs whose endpoints can
    straddle its path's plane. Queries within 1e-8 of +-hint detour
    through a point a quarter turn away, with a second index about that
    point built on first need.

    The projected scaling measures the same vertex arcs, cut where they
    cross a coordinate plane (`_plane_pieces`), so that every piece lies
    in one closed hemisphere of each axis.
    """

    def __init__(self, vertices: np.ndarray, interior_hint: np.ndarray | None = None):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 3 or vertices.shape[0] < 3:
            raise ValueError("vertices must be an (k, 3) array with k >= 3")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("boundary vertices must be finite")
        vertices = unit_vector(vertices)
        if np.any(_arc_lengths(vertices) < 1e-12):
            raise ValueError("consecutive boundary vertices must be distinct")
        i, j = _crossing_arcs(vertices)
        if len(i):
            raise ValueError(
                f"boundary arcs {i[0]} and {j[0]} cross or start at one vertex; "
                "the polyline must be simple"
            )
        if interior_hint is None:
            mean = vertices.mean(axis=0)
            if np.linalg.norm(mean) < 1e-9:
                raise ValueError(
                    "vertex mean is degenerate; pass interior_hint explicitly"
                )
            interior_hint = unit_vector(mean)
        else:
            interior_hint = np.asarray(interior_hint, dtype=float)
            if not np.all(np.isfinite(interior_hint)):
                raise ValueError("interior_hint must be finite")
            interior_hint = unit_vector(interior_hint)
        if _nearest_on_arcs(vertices, interior_hint[None])[0][0] < 1e-9:
            raise ValueError("interior hint lies on the boundary; pass one inside the region")
        self.vertices = vertices
        self.interior_reference = interior_hint
        self._pieces = _plane_pieces(vertices)
        self._index = _ArcIndex(vertices, interior_hint)
        # (centre, cos R less the slack, membership outside the cap); the
        # cap with cos R = -inf is the whole sphere.
        self._cap = (interior_hint, -np.inf, False)
        mean = vertices.mean(axis=0)
        if np.linalg.norm(mean) >= 1e-9:
            centre = unit_vector(mean)
            cos_r = float(np.min(vertices @ centre))
            if cos_r > 1e-6:
                self._cap = (centre, cos_r - _CAP_SLACK, bool(self.contains(-centre)))

    @cached_property
    def _via_index(self) -> _ArcIndex:
        """The arc index about a point a quarter turn from the hint."""
        return _ArcIndex(self.vertices, complete_frame(self.interior_reference)[0])

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        x = np.asarray(x, dtype=float)
        centre, cos_r, far_inside = self._cap
        inside = np.full(x.shape[:-1], far_inside)
        near = x @ centre >= cos_r
        q = x[near]
        odd = self._index.parity(q)
        # The minor arc from the hint is undefined at +-hint: detour through
        # a point a quarter turn away.
        bad = np.linalg.norm(np.cross(q, self.interior_reference), axis=1) < _DETOUR
        if np.any(bad):
            via = self._via_index
            odd[bad] = self._index.parity(via.origin[None, :])[0] ^ via.parity(q[bad])
        inside[near] = ~odd
        return bool(inside) if inside.ndim == 0 else inside


def _row_chunks(n: int, k: int):
    """Row slices that keep n-by-k work arrays near _CHUNK_PAIRS entries."""
    step = max(1, _CHUNK_PAIRS // k)
    return (slice(i, i + step) for i in range(0, n, step))


def _crossing_arcs(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    k = len(vertices)
    nxt = np.roll(vertices, -1, axis=0)
    normals = np.cross(vertices, nxt)
    mids = unit_vector(vertices + nxt)
    reach = 2.0 * np.sin(0.25 * _arc_lengths(vertices))
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
    crosses |= _angle(vertices[i], vertices[j], np.einsum("ij,ij->i", vertices[i], vertices[j])) < 1e-12
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

    def __init__(self, vertices: np.ndarray, origin: np.ndarray):
        nxt = np.roll(vertices, -1, axis=0)
        normals = np.cross(vertices, nxt)
        mids = vertices + nxt
        side = np.cross(vertices, origin)  # q . (v x o) = det(o, q, v)
        self.origin = origin
        self.s_o = normals @ origin
        self.o_pos = self.s_o >= 0.0
        self.o_sign = np.where(self.o_pos, 1.0, -1.0)
        self.o_mid = mids @ origin
        # per arc: the rows dotted with q, giving s_q, q.mid and both sides
        self.rows = np.stack([normals, mids, side, np.roll(side, -1, axis=0)], axis=1)
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
            qc, b = q[rows], bins[rows]
            count = self.counts[b]
            # (query, arc) candidate pairs, flat
            qi = np.repeat(np.arange(len(qc)), count)
            offset = np.repeat(self.starts[b] - (np.cumsum(count) - count), count)
            j = self.arcs[np.arange(len(qi)) + offset]
            s_q, q_mid, side_a, side_b = np.einsum("pkc,pc->kp", self.rows[j], qc[qi])
            crosses = (
                (self.o_pos[j] != (s_q >= 0.0))
                & ((side_a >= 0.0) != (side_b >= 0.0))
                & (self.o_sign[j] * (self.s_o[j] * q_mid - s_q * self.o_mid[j]) > 0.0)
            )
            odd[rows] = np.bincount(qi[crosses], minlength=len(qc)) % 2 == 1
        return odd


def _angle(q: np.ndarray, p: np.ndarray, dot: np.ndarray) -> np.ndarray:
    """Angle between paired rows q and p with q.p = dot, as atan2(|q x p|, q.p)."""
    return np.arctan2(np.linalg.norm(np.cross(q, p), axis=-1), dot)


def _arc_lengths(vertices: np.ndarray) -> np.ndarray:
    """Length of each vertex arc vertices[i] -> vertices[i + 1], by `_angle`."""
    nxt = np.roll(vertices, -1, axis=0)
    return _angle(vertices, nxt, np.einsum("ij,ij->i", vertices, nxt))


def _candidates(
    q: np.ndarray, ends: np.ndarray, mids: np.ndarray, reach: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """
    (query, arc) index pairs, sorted by query then arc, of the arcs that
    can hold each query's nearest point.

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
    to_ends = np.vstack([-2.0 * ends.T, np.einsum("ij,ij->i", ends, ends)])
    t_sq = q_sq + np.min(np.column_stack([q, ones]) @ to_ends, axis=1)
    t = np.sqrt(np.maximum(t_sq, 0.0) + 1e-15)
    rows = np.column_stack([2.0 * q, 2.0 * t, t * t - q_sq, ones])
    cols = np.vstack([mids.T, reach, np.ones(len(reach)), reach**2 - np.einsum("ij,ij->i", mids, mids)])
    return divmod(np.flatnonzero(rows @ cols >= -_CAP_SLACK), len(reach))


def _pairs(
    q: np.ndarray, ends: np.ndarray, mids: np.ndarray, reach: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`_candidates` over row chunks: flat (query, arc) pairs, sorted by query then arc."""
    pairs = [np.empty((2, 0), dtype=np.intp)]
    for rows in _row_chunks(len(q), len(reach)):
        qi, j = _candidates(q[rows], ends, mids, reach)
        pairs.append(np.stack([qi + rows.start, j]))
    return tuple(np.concatenate(pairs, axis=1))


def _least(qi: np.ndarray, value: np.ndarray) -> np.ndarray:
    """
    Index of each query's pair of least value, given pairs sorted by query
    (every query having one) then arc; a tie goes to the lowest arc.
    """
    first = np.flatnonzero(np.diff(qi, prepend=-1))
    hit = np.flatnonzero(value == np.minimum.reduceat(value, first)[qi])
    return hit[np.diff(qi[hit], prepend=-1) != 0]


def _arc_nearest(q: np.ndarray, a: np.ndarray, b: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Row by row, the geodesic distance from q to the minor arc a -> b with
    unit normal n, and the nearest point (on the ray through it; not
    normalized). Each row depends on its own inputs alone.

    The distance is that to the great circle when the foot of the
    perpendicular lies on the arc (q.(n x a) >= 0 and q.(b x n) >= 0),
    else to the nearer endpoint. Every angle is atan2(|cross|, dot),
    accurate at both ends of [0, pi].
    """
    rows = np.stack([n, a, b, np.cross(n, a), np.cross(b, n)])
    lift, dot_a, dot_b, side_a, side_b = np.einsum("kij,ij->ki", rows, q)
    on_arc = (side_a >= 0.0) & (side_b >= 0.0)
    to_a, to_b = _angle(q, a, dot_a), _angle(q, b, dot_b)
    to_circle = np.arctan2(np.abs(lift), np.linalg.norm(np.cross(q, n), axis=1))
    dist = np.where(on_arc, to_circle, np.minimum(to_a, to_b))
    end = np.where((to_a <= to_b)[:, None], a, b)
    return dist, np.where(on_arc[:, None], q - lift[:, None] * n, end)


def _nearest_on_arcs(vertices: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    nxt = np.roll(vertices, -1, axis=0)
    reach = 2.0 * np.sin(0.25 * _arc_lengths(vertices))
    qi, j = _pairs(x, vertices, unit_vector(vertices + nxt), reach)
    dist, near = _arc_nearest(x[qi], vertices[j], nxt[j], unit_vector(np.cross(vertices, nxt))[j])
    best = _least(qi, dist)
    return dist[best], near[best]


def _plane_pieces(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """
    The vertex arcs cut where they cross a coordinate plane, in arc order:
    (start (m, 3), unit tangent at the start (m, 3), length (m,), unit
    normal of the great circle (m, 3)); piece i is
    cos(s) start_i + sin(s) tangent_i for s in [0, length_i].

    A minor arc crosses each plane x_k = 0 at most once, where its
    endpoints' coordinates have opposite signs, at the s with
    a_k cos s + u_k sin s = 0. Each piece therefore keeps one sign of
    every coordinate.
    """
    nxt = np.roll(vertices, -1, axis=0)
    normals = unit_vector(np.cross(vertices, nxt))
    tangents = np.cross(normals, vertices)
    length = _angle(vertices, nxt, np.einsum("ij,ij->i", vertices, nxt))
    sign = np.sign(vertices)
    cut = np.arctan2(np.abs(vertices), -tangents * sign)
    cut = np.where((sign * np.sign(nxt) < 0) & (cut > 0.0) & (cut < length[:, None]), cut, np.nan)
    # NaN sorts last: each row is 0, its cuts in order, the length, padding
    bounds = np.sort(np.column_stack([np.zeros(len(vertices)), cut, length]), axis=1)
    arc, k = np.nonzero(np.isfinite(bounds[:, 1:]))
    lo = bounds[arc, k]
    start, tangent = (v.T for v in _on_arc(lo, vertices[arc].T, tangents[arc].T))
    return start, tangent, bounds[arc, k + 1] - lo, normals[arc]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the columns of (2, m) arrays."""
    return a[0] * b[0] + a[1] * b[1]


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
    for _ in range(_ROOT_ITERATIONS):
        p, dp = _on_arc(s, a, u)
        r = p - y
        d, dd = _dot(r, dp), _dot(dp, dp) - _dot(r, p)
        low, high = d < 0.0, d > 0.0
        lo, d_lo = np.where(low, s, lo), np.where(low, d, d_lo)
        hi, d_hi = np.where(high, s, hi), np.where(high, d, d_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = s - d / dd
        secant = lo - d_lo * (hi - lo) / (d_hi - d_lo)
        step = np.where((dd > 0.0) & (step > lo) & (step < hi), step, secant)
        step = np.where(live, step, s)
        live &= np.abs(step - s) > _ROOT_STEP
        s = step
        if not np.any(live):
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


def _nearest_projected(pieces: tuple, drop_idx: int, y: np.ndarray) -> np.ndarray:
    """
    Nearest point (n, 2) of the projected polyline to each projected
    query y (n, 2), exact on the pieces of `_plane_pieces`.

    Dropping coordinate k maps the great circle of a piece with unit
    normal n onto a centred ellipse with semi-axes 1 (along m, the unit
    vector along e_k x n) and b = |n_k|, at principal angle phi; the piece
    keeps the sign of x_k, so it lies on one half, phi in [0, pi] once the
    axis w = n x m is taken toward it. The squared distance f from y has
    at most two local minima on the whole ellipse (Eberly 2013, "Distance
    from a point to an ellipse, an ellipsoid, or a hyperellipsoid"): the
    global one, in y's quadrant, and a second one, in the quadrant
    mirrored across the major axis, when y lies inside the evolute,
    |y0|^(2/3) + |b y1|^(2/3) < (1 - b^2)^(2/3), in principal coordinates.

    So Newton cannot miss an interior minimum when y lies on the piece's
    side of the major axis (y.Pw >= 0): on that half f' changes sign once,
    from - to +, and `_valley_root` finds it in the arc length s wherever
    f'(0) < 0 < f'(L). Otherwise the only interior minimum is the second
    one, from `_second_minimum`. Each root found, and the piece's two
    ends, is a point of the piece, so the least distance among them is
    exact. Pieces are pruned by `_candidates`, and a tie goes to the
    lowest piece index.
    """
    start, tangent, length, normal = pieces
    keep = [i for i in range(3) if i != drop_idx]
    end, end_tangent = (v.T for v in _on_arc(length, start.T, tangent.T))
    half = 0.5 * length
    mid = _on_arc(half, start.T, tangent.T)[0].T
    across = np.cross(np.eye(3)[drop_idx], normal)  # e_k x n: a signed permutation of n
    c = np.einsum("ij,ij->i", across, across)  # 1 - b^2; zero on a circle, which has one minimum
    m = across / np.sqrt(np.where(c > 0.0, c, 1.0))[:, None]
    w = np.cross(normal, m)
    w *= np.where(np.einsum("ij,ij->i", w, mid) < 0.0, -1.0, 1.0)[:, None]
    table = np.vstack([
        start[:, keep].T, tangent[:, keep].T, end[:, keep].T, end_tangent[:, keep].T,
        length, m[:, keep].T, w[:, keep].T, c,
        *(np.einsum("ij,ij->i", f, g) for f in (m, w) for g in (start, tangent)),
    ])
    qi, j = _pairs(y, start[:, keep], mid[:, keep], 2.0 * np.sin(0.5 * half))
    t, yq = table[:, j], y.T[:, qi]
    a, u, e, te, span = t[0:2], t[2:4], t[4:6], t[6:8], t[8]

    # The ends, then each root found, replace the best only when nearer.
    d_start, d_end = _dot(a - yq, a - yq), _dot(e - yq, e - yq)
    best_s = np.where(d_end < d_start, span, 0.0)
    best_d = np.minimum(d_start, d_end)

    def offer(idx, s):
        r = _on_arc(s, a[:, idx], u[:, idx])[0] - yq[:, idx]
        d = _dot(r, r)
        nearer = d < best_d[idx]
        best_s[idx[nearer]], best_d[idx[nearer]] = s[nearer], d[nearer]

    d_lo, d_hi = _dot(a - yq, u), _dot(e - yq, te)
    idx = np.flatnonzero((d_lo < 0.0) & (d_hi > 0.0))
    offer(idx, _valley_root(a[:, idx], u[:, idx], yq[:, idx], span[idx], d_lo[idx], d_hi[idx]))

    # y across the major axis, or on it up to rounding.
    y0, yw = _dot(yq, t[9:11]), _dot(yq, t[11:13])
    idx = np.flatnonzero(yw <= _CAP_SLACK)
    y0, beta, cc = y0[idx], np.abs(yw[idx]), t[13, idx]
    inner = np.cbrt(y0 * y0) + np.cbrt(beta * beta) < np.cbrt(cc * cc)
    idx, y0, beta, cc = idx[inner], y0[inner], beta[inner], cc[inner]
    cos_phi, sin_phi = _second_minimum(y0, beta, cc)
    ma, mu, wa, wu = t[14:18, idx]
    s = np.arctan2(cos_phi * mu + sin_phi * wu, cos_phi * ma + sin_phi * wa)
    # A root off the piece, or lost where y grazes the evolute, still
    # gives a point of the piece.
    offer(idx, np.clip(np.nan_to_num(s), 0.0, span[idx]))

    hit = _least(qi, best_d)
    return _on_arc(best_s[hit], a[:, hit], u[:, hit])[0].T


def haversine_scaling(
    boundary: Boundary, x: np.ndarray, inside: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Vectorized geodesic-distance scaling for a batch of query points.

    g is the great-circle distance to the boundary: |a - a0| for a
    colatitude circle, the exact distance to the nearest vertex arc for a
    polyline. The gradient is -(p - (x.p) x) / sin g at the nearest
    boundary point p, a unit tangent vector.

    Args:
        boundary: the region boundary; for a polyline the region is the
            side that holds its interior hint.
        x: Queries (n, 3).
        inside: `boundary.contains(x)` when the caller already has it.

    Returns:
        (g (n,), grad (n, 3), on_boundary (n,) bool). Points outside the
        region or within 1e-12 of the boundary get g = 0 and a zero
        gradient, flagged on_boundary.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    inside = np.asarray(boundary.contains(x) if inside is None else inside).reshape(n)

    if isinstance(boundary, ColatitudeBoundary):
        # sin a and cos a from the coordinates, not from a: atan2 keeps a
        # exact near both poles, where arccos(x1) rounds to the pole within
        # about 1e-8 rad. Every row is computed; rows off the region or on
        # the boundary are zeroed after.
        sa = np.hypot(x[:, 1], x[:, 2])
        a = np.arctan2(sa, x[:, 0])
        signed = a - boundary.a0 if boundary.side == "greater" else boundary.a0 - a
        ok = inside & (signed > 1e-12)
        g = np.where(ok, signed, 0.0)
        cot = x[:, 0] / np.where(sa > 0, sa, 1.0)
        sign = 1.0 if boundary.side == "greater" else -1.0
        # Tangential projection of sign * grad(a): unit vector along -d/da.
        tang = np.stack([-sa, cot * x[:, 1], cot * x[:, 2]], axis=-1)
        return g, np.where(ok[:, None], sign * tang, 0.0), ~ok

    g = np.zeros(n)
    grad = np.zeros((n, 3))
    g[inside], near = _nearest_on_arcs(boundary.vertices, x[inside])
    ok = g > 1e-12
    xo = x[ok]
    # (x x p) x x = p - (x.p) x, with norm sin g times |p|.
    toward = np.cross(np.cross(xo, near[ok[inside]]), xo)
    grad[ok] = -toward / np.linalg.norm(toward, axis=1, keepdims=True)
    g[~ok] = 0.0
    return g, grad, ~ok


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


def _check_hemisphere(boundary: Boundary, drop_idx: int, x: np.ndarray) -> None:
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


def projected_scaling(
    boundary: Boundary,
    x: np.ndarray,
    drop_axis: int | None = None,
    inside: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Vectorized projected-plane Euclidean scaling for a batch of queries.

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
    found exactly on its vertex arcs by `_nearest_projected`. Queries
    within 1e-12 of the projected boundary get g = 0. `inside` is `boundary.contains(x)` when the caller already has it.

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
    inside = np.asarray(boundary.contains(x) if inside is None else inside).reshape(n)

    if isinstance(boundary, ColatitudeBoundary):
        c0, s0 = np.cos(boundary.a0), np.sin(boundary.a0)
        if drop_idx == 0:
            r = np.linalg.norm(xe, axis=1, keepdims=True)
            nearest = s0 * np.where(r > 0.0, xe, [1.0, 0.0]) / np.where(r > 0.0, r, 1.0)
        else:
            nearest = np.column_stack([np.full(n, c0), np.clip(xe[:, 1], -s0, s0)])
    else:
        nearest = np.zeros_like(xe)
        nearest[inside] = _nearest_projected(boundary._pieces, drop_idx, xe[inside])
    diff = xe - nearest
    g = np.linalg.norm(diff, axis=1)
    ok = inside & (g > 1e-12)
    grad = np.zeros((n, 3))
    grad[:, keep] = np.where(ok[:, None], diff / np.where(ok, g, 1.0)[:, None], 0.0)
    return np.where(ok, g, 0.0), grad, ~ok


def scaling_values(
    boundary: Boundary | None,
    x: np.ndarray,
    g_kind: str,
    drop_axis: int | None = None,
    inside: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Dispatch to the configured scaling function for a batch of points.

    g_kind "unit" gives g = 1, grad = 0 everywhere (no boundary needed),
    reducing the truncated objective to the untruncated one. `inside` is
    `boundary.contains(x)` when the caller already has it, so membership
    is not tested twice.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if g_kind == "unit":
        n = x.shape[0]
        return np.ones(n), np.zeros((n, 3)), np.zeros(n, dtype=bool)
    if boundary is None:
        raise ValueError(f"g_kind={g_kind!r} requires a boundary")
    if g_kind == "haversine":
        return haversine_scaling(boundary, x, inside)
    if g_kind == "projected":
        return projected_scaling(boundary, x, drop_axis, inside)
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


def load_boundary_csv(path, interior_hint: np.ndarray | None = None) -> PolylineBoundary:
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
    return PolylineBoundary(to_euclidean(a, b), interior_hint=interior_hint)
