import pickle

import numpy as np
import pytest
from scipy.spatial import cKDTree

from reference import broadcast_haversine, broadcast_projected
import tmsm.boundary
from tmsm.boundary import (
    ColatitudeBoundary,
    _AZIMUTH_BINS,
    PolylineBoundary,
    _ArcIndex,
    _arc_nearest,
    _arc_table,
    _least,
    _outline,
    _nearest_on_arcs,
    _row_chunks,
    default_drop_axis,
    haversine_scaling,
    latlon_to_spherical,
    load_boundary_csv,
    projected_scaling,
    scaling_values,
    spherical_to_latlon,
)
from tmsm.geometry import (
    TWO_PI,
    complete_frame,
    geodesic_angle,
    to_euclidean,
    to_spherical,
    unit_vector,
)
from tmsm.bench import DataError, build_boundary, ingest_events
from tmsm.cli import main
from tmsm.estimator import Dataset
from tmsm.models import VmfParams
from tmsm.sampling import sample_truncated, substream_rng

HEMI = ColatitudeBoundary(np.pi / 2.0)
USA = load_boundary_csv("src/tmsm/data/usa_outline.csv")


def hemisphere_points(rng, n, margin=0.15):
    a = rng.uniform(np.pi / 2.0 + margin, np.pi - margin, n)
    b = rng.uniform(0.0, 2.0 * np.pi, n)
    return to_euclidean(a, b)


def _resample_closed(vertices, m):
    """
    Equal-arc-length sample of m points along the closed polyline's vertex
    arcs: the brute-force reference for the exact distances.
    """
    nxt = np.roll(vertices, -1, axis=0)
    seg = geodesic_angle(vertices, nxt)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.arange(m) * (cum[-1] / m)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    t = (s - cum[idx]) / seg[idx]
    omega = seg[idx][:, None]
    out = (np.sin((1.0 - t)[:, None] * omega) * vertices[idx]
           + np.sin(t[:, None] * omega) * nxt[idx]) / np.sin(omega)
    return unit_vector(out)


def fd_tangent_derivative(f, x, v, h=1e-5):
    """Central difference of f along the great circle through x with speed v."""
    xp = unit_vector(x * np.cos(h) + v * np.sin(h))
    xm = unit_vector(x * np.cos(h) - v * np.sin(h))
    return (f(xp) - f(xm)) / (2.0 * h)


# ------------------------------------------------------------- constructions


def test_colatitude_validation():
    with pytest.raises(ValueError):
        ColatitudeBoundary(0.0)
    with pytest.raises(ValueError):
        ColatitudeBoundary(np.pi)
    with pytest.raises(ValueError):
        ColatitudeBoundary(1.0, side="above")


def test_colatitude_basics():
    b = ColatitudeBoundary(1.2, side="less")
    assert b.a_interval() == (0.0, 1.2)
    assert b.contains(to_euclidean(0.5, 1.0))
    assert not b.contains(to_euclidean(1.4, 1.0))
    # hemisphere membership is the sign of x1
    assert HEMI.contains(np.array([-0.2, 0.5, 0.6]) / np.linalg.norm([0.2, 0.5, 0.6]))
    assert np.array_equal(
        HEMI.contains(to_euclidean([0.3, 2.9], [0.0, 0.0])), [False, True]
    )


def test_polyline_validation():
    tri = to_euclidean([0.4, 0.4], [0.0, 2.0])
    with pytest.raises(ValueError):
        PolylineBoundary(tri)  # fewer than 3 vertices
    bad = to_euclidean([0.4, 0.4, 0.4], [0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        PolylineBoundary(bad)  # repeated consecutive vertex
    square = to_euclidean([0.3] * 4, np.arange(4) * np.pi / 2.0)
    for value in (np.nan, np.inf):
        broken = square.copy()
        broken[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            PolylineBoundary(broken)
        with pytest.raises(ValueError, match="finite"):
            PolylineBoundary(square, interior_hint=[1.0, value, 0.0])


def test_polyline_winding_containment():
    # triangle of colatitude 0.4 around the +x1 pole
    tri = to_euclidean([0.4] * 3, [0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    b = PolylineBoundary(tri)
    assert b.contains(np.array([1.0, 0.0, 0.0]))
    assert not b.contains(np.array([-1.0, 0.0, 0.0]))
    assert not b.contains(to_euclidean(1.0, 0.3))
    # vertex order must not matter: the region is the side holding the hint
    rev = PolylineBoundary(tri[::-1])
    rng = np.random.default_rng(0)
    probes = unit_vector(rng.standard_normal((50, 3)))
    assert np.array_equal(b.contains(probes), rev.contains(probes))


def test_polyline_resampling_even_and_on_sphere():
    # the brute-force reference sample: on the sphere, on the vertex arcs,
    # and evenly spaced along them
    tri = to_euclidean([0.7] * 3, [0.5, 2.5, 4.5])
    samples = _resample_closed(tri, 4096)
    assert np.allclose(np.linalg.norm(samples, axis=1), 1.0, atol=1e-12)
    assert np.max(_nearest_on_arcs(_arc_table(tri), samples)[0]) < 1e-12
    steps = geodesic_angle(samples, np.roll(samples, -1, axis=0))
    assert steps.max() < 2.5 * steps.min()  # near-uniform arc steps


def winding(samples, q):
    """
    Signed total azimuth swept by the sampled curve in the chart whose pole
    is q: about +2*pi when q is in the region the curve encircles
    counterclockwise. A membership oracle for regions smaller than a
    hemisphere.
    """
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(q)))] = 1.0
    e = unit_vector(np.cross(q, seed))
    f = np.cross(q, e)
    az = np.arctan2(samples @ f, samples @ e)
    d = np.diff(np.concatenate([az, az[:1]]))
    d = np.mod(d + np.pi, TWO_PI) - np.pi
    return float(np.sum(d))


def winding_contains(b, x):
    samples = _resample_closed(b.vertices, 4096)
    if winding(samples, b.interior_reference) < 0.0:
        samples = samples[::-1]
    return np.array([winding(samples, q) > np.pi for q in x])


def latlon_polygon(lat, lon):
    return to_euclidean(*latlon_to_spherical(np.array(lat, float), np.array(lon, float)))


POLYGONS = {
    "antimeridian": latlon_polygon([-10, -12, 15, 20], [170, -165, -170, 175]),
    "pole_pentagon": to_euclidean([0.5] * 5, np.arange(5) * 2.0 * np.pi / 5.0 + 0.1),
    "reversed_box": latlon_polygon([30, 30, 45, 45], [-100, -80, -80, -100])[::-1],
    "concave_hexagon": latlon_polygon([0, 0, 20, 12, 12, 20], [0, 40, 40, 25, 15, 0]),
}


def probe_points(b, seed, n=4400):
    """Uniform points plus points near the region, kept 1e-6 off the border."""
    rng = np.random.default_rng(seed)
    near = unit_vector(b.interior_reference + 0.4 * rng.standard_normal((n // 2, 3)))
    x = np.vstack([unit_vector(rng.standard_normal((n - n // 2, 3))), near])
    d, _ = _nearest_on_arcs(b._arcs, x)
    return x[d > 1e-6]


@pytest.mark.parametrize("name", sorted(POLYGONS))
def test_polyline_parity_matches_winding_oracle(name):
    b = PolylineBoundary(POLYGONS[name])
    x = probe_points(b, seed=sorted(POLYGONS).index(name))
    assert len(x) >= 4000
    inside = b.contains(x)
    assert 0 < inside.sum() < len(x)
    assert np.array_equal(inside, winding_contains(b, x))
    # a hint on the other side selects exactly the complement
    outside_hint = x[~inside][0]
    assert np.array_equal(PolylineBoundary(POLYGONS[name], outside_hint).contains(x), ~inside)


def test_polyline_region_larger_than_hemisphere():
    # the complement of a small triangle around +x1, selected by its hint
    tri = to_euclidean([0.4] * 3, [0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    small = PolylineBoundary(tri)
    big = PolylineBoundary(tri, interior_hint=[-1.0, 0.0, 0.0])
    rng = np.random.default_rng(15)
    x = unit_vector(rng.standard_normal((2000, 3)))
    assert np.array_equal(big.contains(x), ~small.contains(x))
    assert big.contains(x).sum() > 1900
    # the reference is inside; its exact antipode follows the region
    assert small.contains(small.interior_reference)
    assert not small.contains(-small.interior_reference)
    assert big.contains(big.interior_reference)
    assert not big.contains(-big.interior_reference)  # +x1, inside the triangle
    side = PolylineBoundary(tri, interior_hint=[0.0, 1.0, 0.0])
    assert side.contains(np.array([0.0, 1.0, 0.0]))
    assert side.contains(np.array([0.0, -1.0, 0.0]))
    # queries a hair from the reference or its antipode take the detour path
    eps = np.array([0.0, 1e-12, 0.0])
    assert np.array_equal(
        big.contains(unit_vector(np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]) + eps)),
        [True, False],
    )


# A region whose vertices no cap of radius below pi/2 about their mean
# holds: a band from 20W eastward to 160W, 10 degrees either side of the
# equator, so membership takes the exact parity test everywhere.
WIDE_BAND = latlon_polygon([10, 10, 10, -10, -10, -10], [-20, 90, 200, 200, 90, -20])


def cap_regions():
    """(name, boundary) for every test region, each also in reversed order."""
    regions = {"usa": USA.vertices, "wide_band": WIDE_BAND, **POLYGONS}
    for name, vertices in sorted(regions.items()):
        for order in ("forward", "reversed"):
            v = vertices if order == "forward" else vertices[::-1]
            yield f"{name}-{order}", PolylineBoundary(v)
    tri = to_euclidean([0.4] * 3, [0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    yield "triangle_complement", PolylineBoundary(tri, interior_hint=[-1.0, 0.0, 0.0])


def test_polyline_rejects_self_crossing():
    bow_tie = latlon_polygon([20, -10, 10, -20], [0, 20, 20, 0])
    with pytest.raises(ValueError, match="arcs 0 and 2 cross"):
        PolylineBoundary(bow_tie)
    # arcs 0 and 3 cross near their ends, where the midpoint bound is tightest
    with pytest.raises(ValueError, match="arcs 0 and 3 cross"):
        PolylineBoundary(latlon_polygon([0, 0, 10, 0.0005, -1, -20], [0, 40, 50, 39.9, 80, 0]))
    # vertex 3 comes within 1e-9 rad of arc 0, on the equator: above it the
    # arcs through it pass that close without touching, below it they cross
    tip = np.rad2deg(1e-9)
    PolylineBoundary(latlon_polygon([0, 0, 20, tip, 20], [0, 40, 40, 20, 0]))
    with pytest.raises(ValueError, match="cross"):
        PolylineBoundary(latlon_polygon([0, 0, 20, -tip, 20], [0, 40, 40, 20, 0]))
    for vertices in (USA.vertices, WIDE_BAND, *POLYGONS.values()):
        PolylineBoundary(vertices)


def test_polyline_rejects_pinched_figure_eight():
    # two lobes that touch at (0, 0), where vertices 0 and 3 meet; the
    # vertex mean, the default hint, is that point
    def figure_eight(lon3):
        return latlon_polygon([0, 10, 10, 0, -10, -10], [0, -10, 10, lon3, 10, -10])

    upper = latlon_polygon([5], [0])[0]
    for hint in (None, upper):
        with pytest.raises(ValueError, match="arcs 0 and 3 cross or start at one vertex"):
            PolylineBoundary(figure_eight(0.0), hint)
    # vertex 3 moved 1e-13 rad east still repeats vertex 0; moved 1e-9 rad
    # east it leaves a neck between the lobes and the curve is simple;
    # moved 1e-9 rad west its arcs cross those of vertex 0
    tip = np.rad2deg(1e-9)
    for lon, error in ((np.rad2deg(1e-13), "start at one vertex"), (-tip, "cross")):
        with pytest.raises(ValueError, match=error):
            PolylineBoundary(figure_eight(lon), upper)
    necked = PolylineBoundary(figure_eight(tip), upper)
    assert np.array_equal(necked.contains(latlon_polygon([5, -5, 0, 0], [0, 0, 5, -5])),
                          [True, True, False, False])
    # a hint on the curve, or within 1e-9 rad of it, names no side
    box = latlon_polygon([0, 0, 20, 20], [0, 40, 40, 0])
    for lat, lon in ((0, 0), (0, 20), (np.rad2deg(0.5e-9), 20)):
        with pytest.raises(ValueError, match="hint lies on the boundary"):
            PolylineBoundary(box, latlon_polygon([lat], [lon])[0])
    assert PolylineBoundary(box, latlon_polygon([np.rad2deg(2e-9)], [20])[0]).contains(
        latlon_polygon([10], [20])[0])


def gnomonic_even_odd(vertices, x):
    """
    Independent membership oracle for a region inside one hemisphere: the
    gnomonic chart about the vertex mean maps every great-circle arc to a
    straight segment, so a planar even-odd ray cast decides each query.
    Queries must lie in that hemisphere.
    """
    centre = unit_vector(vertices.mean(axis=0))
    e, f = complete_frame(centre)

    def chart(p):
        return np.column_stack([p @ e, p @ f]) / (p @ centre)[:, None]

    (px, py), (qx, qy) = chart(vertices).T, chart(x).T
    inside = np.zeros(len(x), dtype=bool)
    for x1, y1, x2, y2 in zip(px, py, np.roll(px, -1), np.roll(py, -1)):
        straddle = (y1 > qy) != (y2 > qy)
        with np.errstate(divide="ignore", invalid="ignore"):
            cut = x1 + (qy - y1) * (x2 - x1) / (y2 - y1)
        inside ^= straddle & (qx < cut)
    return inside


def test_polyline_short_arc_builds_and_keeps_membership():
    # a vertex 1e-9, 1e-10 or 1e-11 rad along the first edge of a box: the
    # atan2 arc length resolves the gap, and a 1e-13 rad gap still repeats
    # the vertex
    box = latlon_polygon([0, 0, 20, 20], [0, 40, 40, 0])
    along = unit_vector(np.cross(np.cross(box[0], box[1]), box[0]))
    rng = np.random.default_rng(19)
    for gap in (1e-9, 1e-10, 1e-11):
        vertices = np.insert(box, 1, np.cos(gap) * box[0] + np.sin(gap) * along, axis=0)
        b = PolylineBoundary(vertices)
        # probes about the box and close to its first corner
        x = unit_vector(np.vstack([
            b.interior_reference + 0.3 * rng.standard_normal((4000, 3)),
            box[0] + 1e-3 * rng.standard_normal((4000, 3)),
        ]))
        x = x[(_nearest_on_arcs(b._arcs, x)[0] > 1e-6) & (x @ b.interior_reference > 0.2)]
        assert len(x) > 7000
        inside = b.contains(x)
        assert 0 < inside.sum() < len(x)
        assert np.array_equal(inside, gnomonic_even_odd(vertices, x))
    repeated = np.insert(box, 1, np.cos(1e-13) * box[0] + np.sin(1e-13) * along, axis=0)
    with pytest.raises(ValueError, match="consecutive boundary vertices must be distinct"):
        PolylineBoundary(repeated)


def all_arcs_parity(vertices, origin, q):
    """
    Reference: True where the minor arc origin -> q crosses an odd number
    of the vertex arcs, testing every query against every arc with the
    crossing predicate of `_ArcIndex`.
    """
    nxt = np.roll(vertices, -1, axis=0)
    normals = np.cross(vertices, nxt)
    mids = vertices + nxt
    s_o = normals @ origin
    o_pos = s_o >= 0.0
    o_sign = np.where(o_pos, 1.0, -1.0)
    o_mid = mids @ origin
    v_side = np.cross(vertices, origin)  # q . (v x origin) = det(origin, q, v)
    odd = np.empty(len(q), dtype=bool)
    for rows in _row_chunks(len(q), len(vertices)):
        qc = q[rows]
        s_q = qc @ normals.T
        v_pos = qc @ v_side.T >= 0.0
        crosses = (
            (o_pos != (s_q >= 0.0))
            & (v_pos != np.roll(v_pos, -1, axis=1))
            & (o_sign * (s_o * (qc @ mids.T) - s_q * o_mid) > 0.0)
        )
        odd[rows] = np.count_nonzero(crosses, axis=1) % 2 == 1
    return odd


def all_arcs_contains(b, x):
    """Reference membership: every query, every arc, the same +-hint detour."""
    ref = b.interior_reference
    odd = all_arcs_parity(b.vertices, ref, x)
    bad = np.linalg.norm(np.cross(x, ref), axis=1) < 1e-8
    if np.any(bad):
        via = complete_frame(ref)[0]
        via_odd = all_arcs_parity(b.vertices, ref, via[None, :])[0]
        odd[bad] = via_odd ^ all_arcs_parity(b.vertices, via, x[bad])
    return ~odd


def test_cap_shortcut_matches_crossing_parity():
    # outside the bounding cap contains() returns one stored value; it must
    # equal the parity test run on every point
    x = unit_vector(np.random.default_rng(16).standard_normal((100_000, 3)))
    for name, b in cap_regions():
        expected = ~all_arcs_parity(b.vertices, b.interior_reference, x)
        assert np.array_equal(b.contains(x), expected), name
        if name.startswith("wide_band"):
            assert b._cap[1] == -np.inf, name  # the whole sphere
        else:
            centre, cos_r, _ = b._cap
            far = x @ centre < cos_r
            assert 0 < far.sum() < len(x), name


def test_cap_far_side_read_without_the_detour_index():
    # the membership outside the cap is read at a point with x.c < 0 that
    # is not -hint, so it takes no detour; the stored value is the
    # reference membership at -c
    for name, b in cap_regions():
        centre, cos_r, far_inside = b._cap
        if cos_r > -np.inf:
            assert far_inside == all_arcs_contains(b, -centre[None])[0], name
    _outline.cache_clear()  # a freshly built outline, not one other tests have queried
    usa = load_boundary_csv("src/tmsm/data/usa_outline.csv")
    assert usa._cap[2] is False


def test_truncated_draws_unchanged_by_cap_shortcut():
    # the shortcut changes no membership, so the sampler consumes the same
    # raw draws and accepts the same points with and without it
    for name, b in cap_regions():
        exact = PolylineBoundary(b.vertices, b.interior_reference)
        exact._cap = (b.interior_reference, -np.inf, False)
        mu = unit_vector(b.interior_reference + np.array([0.3, -0.2, 0.1]))
        fast = sample_truncated(VmfParams(mu, 4.0), b, 400, substream_rng(3, 400), 1000)
        slow = sample_truncated(VmfParams(mu, 4.0), exact, 400, substream_rng(3, 400), 1000)
        assert fast.n_raw == slow.n_raw, name
        assert np.array_equal(fast.x, slow.x), name


def test_usa_truncated_draws_pinned():
    # the criterion-8 truth (25N 75W, kappa 6) outside the USA border; the
    # values were recorded with the all-arcs membership test
    mu = to_euclidean(*latlon_to_spherical(np.array(25.0), np.array(-75.0)))
    s = sample_truncated(VmfParams(mu, 6.0), USA, 300, substream_rng(8, 300, 0), 1000)
    assert s.n_raw == 3000
    assert np.allclose(s.x[0], [0.537315501282267, -0.15751558797005025, -0.8285414242077673],
                       rtol=0.0, atol=1e-14)
    assert np.allclose(s.x[-1], [0.7050772838791506, -0.2472503525541611, -0.6646301880891679],
                       rtol=0.0, atol=1e-14)
    assert np.allclose(s.x.sum(axis=0), [185.2154416041589, -17.174583569933525,
                                         -228.92189412422582], rtol=0.0, atol=1e-11)


def near_axis_points(origin, n_az=48):
    """Queries 1e-8 to 1e-4 rad from origin, at n_az azimuths per distance."""
    e1, e2 = complete_frame(origin)
    phi = np.linspace(0.0, TWO_PI, n_az, endpoint=False) + 0.1
    ways = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    d = np.logspace(-8.0, -4.0, 9)[:, None, None]
    return (np.cos(d) * origin + np.sin(d) * ways[None]).reshape(-1, 3)


def test_arc_index_matches_all_arcs_parity():
    # both indexes, about the hint and about the detour point, on every query
    x = unit_vector(np.random.default_rng(18).standard_normal((100_000, 3)))
    for name, b in cap_regions():
        for index in (b._index, b._detour):
            expected = all_arcs_parity(b.vertices, index.origin, x)
            assert np.array_equal(index.parity(x), expected), name


def test_arc_index_near_hint_and_antipode():
    for name, b in cap_regions():
        ref = b.interior_reference
        x = np.vstack([near_axis_points(ref), near_axis_points(-ref)])
        assert np.array_equal(b.contains(x), all_arcs_contains(b, x)), name
        served = np.linalg.norm(np.cross(x, ref), axis=1) >= 1e-8
        assert 0 < served.sum() < len(x), name
        expected = all_arcs_parity(b.vertices, ref, x[served])
        assert np.array_equal(b._index.parity(x[served]), expected), name
        if name == "triangle_complement":
            # the hint's antipode +x1 lies inside the triangle
            half = len(x) // 2
            assert b.contains(x[:half]).all() and not b.contains(x[half:]).any()


def every_bin_arcs(index):
    """Indices of the arcs listed in every azimuth bin."""
    arcs, hits = np.unique(index.arcs, return_counts=True)
    return set(arcs[hits == _AZIMUTH_BINS].tolist())


def test_arc_index_every_bin_fallbacks():
    rng = np.random.default_rng(19)
    uniform = unit_vector(rng.standard_normal((20_000, 3)))
    # a square about +x1 whose hint lies 1e-7 inside its first vertex
    square = to_euclidean([0.3] * 4, np.arange(4) * np.pi / 2.0)
    inward = unit_vector(np.array([1.0, 0.0, 0.0]) - square[0][0] * square[0])
    hint = np.cos(1e-7) * square[0] + np.sin(1e-7) * inward
    near_vertex = PolylineBoundary(square, hint)
    assert every_bin_arcs(near_vertex._index) == {0, 3}
    assert near_vertex.contains(np.array([1.0, 0.0, 0.0]))
    # a triangle whose first arc passes about 1e-9 from -x1, the antipode
    # of the hint +x1, so the arc sweeps almost pi about the hint
    tri = to_euclidean([np.pi - 0.2, np.pi - 0.2, np.pi - 0.3], [0.0, np.pi + 1e-8, 0.5 * np.pi])
    antipode_arc = PolylineBoundary(tri, interior_hint=[1.0, 0.0, 0.0])
    assert every_bin_arcs(antipode_arc._index) == {0}
    assert not antipode_arc.contains(to_euclidean(np.pi - 0.1, 0.25 * np.pi))
    for b in (near_vertex, antipode_arc):
        ref = b.interior_reference
        x = np.vstack([uniform, near_axis_points(ref), near_axis_points(-ref),
                       near_axis_points(b.vertices[0])])
        assert np.array_equal(b.contains(x), all_arcs_contains(b, x))


def test_arc_index_paths_through_vertices_on_bin_edges():
    # A hexadecagon about the hint +x1 with a vertex on every bin edge at a
    # multiple of pi/8, and queries outside it whose paths pass through a
    # vertex or within 1e-13 rad of azimuth of one. Both arcs at that vertex
    # must be tested, or a crossing is counted once where it is counted
    # twice or not at all.
    o = np.array([1.0, 0.0, 0.0])
    e1, e2 = complete_frame(o)

    def at(theta, phi):
        return np.cos(theta) * o + np.sin(theta) * (np.cos(phi) * e1 + np.sin(phi) * e2)

    phis = np.arange(16) * (np.pi / 8.0)
    b = PolylineBoundary(np.array([at(0.5, p) for p in phis]), o)
    nudges = [-1e-13, -1e-14, -3e-15, -1e-15, 0.0, 1e-15, 3e-15, 1e-14, 1e-13]
    x = np.array([at(t, p + d) for t in (0.5 + 1e-9, 0.6, 1.5, 3.0)
                  for p in phis for d in nudges])
    assert not b.contains(x).any()
    assert not all_arcs_contains(b, x).any()


def test_arc_index_next_to_the_curve():
    for name, b in cap_regions():
        v = b.vertices
        nxt = np.roll(v, -1, axis=0)
        normals = unit_vector(np.cross(v, nxt))
        mids = unit_vector(v + nxt)
        # off each midpoint across its arc; off each vertex across both arcs
        across = np.vstack([normals, unit_vector(normals + np.roll(normals, 1, axis=0))])
        on = np.vstack([mids, v])
        x = unit_vector(np.vstack([on + 1e-12 * across, on - 1e-12 * across]))
        assert np.array_equal(b.contains(x), all_arcs_contains(b, x)), name
        # on the curve itself either answer is right; only the type is checked
        inside = b.contains(on)
        assert inside.dtype == bool and inside.shape == (len(on),)


def all_arcs_nearest(vertices, x):
    """Reference: the exact distance to every arc, and the nearest of them."""
    nxt = np.roll(vertices, -1, axis=0)
    normals = unit_vector(np.cross(vertices, nxt))
    lift = x @ normals.T
    to_circle = np.arctan2(np.abs(lift), np.linalg.norm(np.cross(x[:, None], normals), axis=2))
    to_vertex = np.arctan2(np.linalg.norm(np.cross(x[:, None], vertices), axis=2), x @ vertices.T)
    to_next = np.roll(to_vertex, -1, axis=1)
    on_arc = (x @ np.cross(normals, vertices).T >= 0.0) & (x @ np.cross(nxt, normals).T >= 0.0)
    arc_dist = np.where(on_arc, to_circle, np.minimum(to_vertex, to_next))
    j = np.argmin(arc_dist, axis=1)
    i = np.arange(len(x))
    foot = x - lift[i, j][:, None] * normals[j]
    end = np.where((to_vertex[i, j] <= to_next[i, j])[:, None], vertices[j], nxt[j])
    return arc_dist[i, j], np.where(on_arc[i, j][:, None], foot, end)


def equidistant_points(vertices):
    """
    Points equidistant from two or more arcs, or nearly so: the great
    circle bisecting v[i] and v[i + 2] (exactly equidistant from the two
    arcs through v[i + 1] when the polygon is regular), the centre of the
    regular pentagon, and the meridian 90W, equally near the east and west
    arcs of the box.
    """
    nxt = np.roll(vertices, -1, axis=0)
    bisector = unit_vector(vertices + np.roll(vertices, -2, axis=0))
    t = np.linspace(-0.6, 0.6, 7)[:, None, None]
    pts = unit_vector(bisector[None] + t * unit_vector(nxt - bisector)[None])
    lat = np.linspace(31.0, 44.0, 27)
    meridian = to_euclidean(*latlon_to_spherical(lat, np.full_like(lat, -90.0)))
    return np.vstack([pts.reshape(-1, 3), unit_vector(vertices.mean(axis=0)), meridian])


def all_pairs_nearest(vertices, x):
    """
    `_arc_nearest` on every (query, arc) pair, nearest pair picked by
    `_least`: the unpruned evaluation of `_nearest_on_arcs`.
    """
    k = len(vertices)
    nxt = np.roll(vertices, -1, axis=0)
    normals = unit_vector(np.cross(vertices, nxt))
    # per arc, one column: a, b, n, n x a and b x n
    arcs = np.vstack([vertices.T, nxt.T, normals.T, np.cross(normals, vertices).T,
                      np.cross(nxt, normals).T])
    dist, near = np.empty(len(x)), np.empty_like(x)
    for rows in _row_chunks(len(x), k):
        q = x[rows]
        qi, j = np.divmod(np.arange(len(q) * k), k)
        d, p = _arc_nearest(np.take(q.T, qi, axis=1), np.take(arcs, j, axis=1))
        best = _least(qi, d)
        dist[rows], near[rows] = d[best], p[:, best].T
    return dist, near


@pytest.mark.parametrize("name", sorted(POLYGONS) + ["usa", "wide_band"])
def test_nearest_on_arcs_matches_all_arcs_reference(name):
    vertices = {"usa": USA.vertices, "wide_band": WIDE_BAND, **POLYGONS}[name]
    mids = unit_vector(vertices + np.roll(vertices, -1, axis=0))
    rng = np.random.default_rng(17)
    x = np.vstack([
        unit_vector(rng.standard_normal((20_000, 3))),
        vertices, -vertices, mids, -mids,
        equidistant_points(vertices),
    ])
    dist, near = _nearest_on_arcs(_arc_table(vertices), x)
    # pruning drops no arc that can be nearest: bit for bit the all-pairs result
    all_dist, all_near = all_pairs_nearest(vertices, x)
    assert np.array_equal(dist, all_dist) and np.array_equal(near, all_near)
    # the dense reference rounds its BLAS products differently
    ref_dist, ref_near = all_arcs_nearest(vertices, x)
    off = ref_dist > 1e-12
    assert np.max(np.abs(dist[off] - ref_dist[off])) <= 1e-15
    # at a tie another, equally near point of the curve may be picked
    moved = off & np.any(np.abs(near - ref_near) > 1e-15, axis=1)
    to_near = np.arctan2(np.linalg.norm(np.cross(x, near), axis=1), np.einsum("ij,ij->i", x, near))
    assert np.all(np.abs(to_near[moved] - ref_dist[moved]) <= 1e-15)
    # on the curve
    assert np.max(dist[~off]) <= 1e-14
    assert np.max(np.abs(near[~off] - x[~off])) <= 1e-14


@pytest.mark.parametrize("name", ["usa", "pole_pentagon"])
def test_polyline_scaling_is_per_query(name):
    # a query's g and gradient are those it gets alone, whatever its batch
    b = USA if name == "usa" else PolylineBoundary(POLYGONS[name])
    rng = np.random.default_rng(23)
    x = unit_vector(b.interior_reference + 0.3 * rng.standard_normal((3000, 3)))
    x = x[b.contains(x)][:300]
    assert len(x) == 300
    for scaling in (haversine_scaling, projected_scaling):
        g, grad = scaling(b, x)
        alone = [scaling(b, q) for q in x]
        assert np.array_equal(g, np.concatenate([a[0] for a in alone])), scaling.__name__
        assert np.array_equal(grad, np.vstack([a[1] for a in alone])), scaling.__name__


@pytest.mark.parametrize("name", ["usa", *sorted(POLYGONS)])
def test_polyline_queries_independent_of_memory_layout(name):
    # the same points give the same bits C-ordered, Fortran-ordered and as
    # a strided view
    b = USA if name == "usa" else PolylineBoundary(POLYGONS[name])
    rng = np.random.default_rng(31)
    x = unit_vector(b.interior_reference + 0.4 * rng.standard_normal((4000, 3)))
    # projected g takes queries on the region's side of its drop axis
    k = default_drop_axis(b) - 1
    x = x[x[:, k] * np.sign(b.interior_reference[k]) > 1e-6]
    assert 0 < b.contains(x).sum() < len(x)

    def results(q):
        return (b.contains(q), *haversine_scaling(b, q), *projected_scaling(b, q))

    for got, ref in ((results(np.asfortranarray(x)), results(x)),
                     (results(x[::2]), results(x[::2].copy()))):
        assert all(np.array_equal(u, v) for u, v in zip(got, ref))


def _same_bits(got, ref):
    """Every array of a scaling result has the reference's shape and bytes."""
    return all(np.shape(u) == np.shape(v) and np.asarray(u).tobytes() == np.asarray(v).tobytes()
               for u, v in zip(got, ref, strict=True))


@pytest.mark.parametrize("side", ["greater", "less"])
@pytest.mark.parametrize("a0", [0.3, np.pi / 2.0, 2.5])
def test_colatitude_scaling_matches_broadcast_reference(a0, side):
    # g and grad on (3, n) rows, bit for bit as the (n, 3) broadcasts; the
    # queries hold both poles, rim points and outside points
    b = ColatitudeBoundary(a0, side)
    rng = np.random.default_rng(17)
    x = np.vstack([unit_vector(rng.standard_normal((3000, 3))), np.eye(3), -np.eye(3),
                   to_euclidean(np.full(8, a0), np.linspace(0.0, TWO_PI, 8))])
    assert 0 < b.contains(x).sum() < len(x)
    assert _same_bits(haversine_scaling(b, x), broadcast_haversine(b, x))
    for axis in (1, 2, 3):
        # along axis 1 the circle lies in one half, and the queries must too
        q = x[x[:, 0] * np.cos(a0) >= 0.0] if axis == 1 else x
        assert _same_bits(projected_scaling(b, q, drop_axis=axis), broadcast_projected(b, q, axis))


def test_polyline_scaling_matches_broadcast_reference():
    rng = np.random.default_rng(19)
    x = np.vstack([unit_vector(USA.interior_reference + 0.4 * rng.standard_normal((4000, 3))),
                   USA.vertices])
    k = default_drop_axis(USA) - 1
    x = x[x[:, k] * np.sign(USA.interior_reference[k]) > 1e-6]
    assert 0 < USA.contains(x).sum() < len(x)
    assert _same_bits(haversine_scaling(USA, x), broadcast_haversine(USA, x))
    assert _same_bits(projected_scaling(USA, x), broadcast_projected(USA, x))


# ---------------------------------------------------------------- haversine


def test_haversine_colatitude_closed_form():
    # distance to a colatitude circle is exactly |a - a0| inside the region
    rng = np.random.default_rng(2)
    for b in (HEMI, ColatitudeBoundary(2.0), ColatitudeBoundary(0.9, side="less")):
        lo, hi = b.a_interval()
        a = rng.uniform(lo + 0.05, hi - 0.05, 40)
        az = rng.uniform(0.0, 2.0 * np.pi, 40)
        x = to_euclidean(a, az)
        g, grad = haversine_scaling(b, x)
        assert np.allclose(g, np.abs(a - b.a0), atol=1e-12)
        assert np.all(g > 0.0)
        # unit tangential gradients
        assert np.allclose(np.linalg.norm(grad, axis=1), 1.0, atol=1e-10)
        assert np.allclose(np.sum(grad * x, axis=1), 0.0, atol=1e-10)


def test_haversine_zero_outside_and_on_boundary():
    # off the region g is not specified, but a colatitude circle gives 0
    x_out = to_euclidean(0.4, 1.0)  # outside the hemisphere
    x_on = to_euclidean(np.pi / 2.0, 1.0)
    g, grad = haversine_scaling(HEMI, np.stack([x_out, x_on]))
    assert np.all(g == 0.0) and np.all(grad == 0.0)
    # a polyline vertex is on the boundary
    g, grad = haversine_scaling(USA, USA.vertices[:5])
    assert np.all(g == 0.0) and np.all(grad == 0.0)


@pytest.mark.parametrize("b", [HEMI, ColatitudeBoundary(0.9, side="less")], ids=["greater", "less"])
def test_haversine_colatitude_zero_in_the_rim_band(b):
    # within 1e-12 of the rim, on either side of it, g is 0 with a zero
    # gradient; 2e-12 inside it is the distance
    inward = 1.0 if b.side == "greater" else -1.0
    offsets = np.array([-5e-13, -1e-13, 0.0, 1e-13, 5e-13, 9e-13, 2e-12, 1e-6])
    g, grad = haversine_scaling(b, to_euclidean(b.a0 + inward * offsets, 1.0))
    band = offsets < 1e-12
    assert np.all(g[band] == 0.0) and np.all(grad[band] == 0.0)
    assert np.all(g[~band] > 0.0)
    assert np.allclose(g[~band], offsets[~band], rtol=1e-3, atol=0.0)


def test_haversine_gradient_matches_fd():
    rng = np.random.default_rng(3)
    x = hemisphere_points(rng, 60)
    g, grad = haversine_scaling(HEMI, x)
    for i in range(60):
        v1 = unit_vector(np.cross(x[i], [0.0, 0.0, 1.0]))
        v2 = np.cross(x[i], v1)
        f = lambda y: haversine_scaling(HEMI, y[None, :])[0][0]
        for v in (v1, v2):
            assert fd_tangent_derivative(f, x[i], v) == pytest.approx(
                float(grad[i] @ v), abs=1e-4
            )


def test_haversine_polyline_equator_matches_colatitude():
    # the arcs of an equator polyline make up the hemisphere circle itself,
    # so the exact arc distance and its gradient equal the closed form
    eq = PolylineBoundary(
        to_euclidean([np.pi / 2.0] * 64, np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)),
        interior_hint=np.array([-1.0, 0.0, 0.0]),
    )
    rng = np.random.default_rng(4)
    x = hemisphere_points(rng, 40)
    g_poly, grad_poly = haversine_scaling(eq, x)
    g_circ, grad_circ = haversine_scaling(HEMI, x)
    assert np.allclose(g_poly, g_circ, atol=1e-12)
    assert np.allclose(grad_poly, grad_circ, atol=1e-12)


def usa_interior_points(rng, n):
    lat = rng.uniform(26.0, 49.0, 4 * n)
    lon = rng.uniform(-124.0, -67.0, 4 * n)
    x = to_euclidean(*latlon_to_spherical(lat, lon))
    x = x[USA.contains(x)][:n]
    assert len(x) == n
    return x


def test_haversine_polyline_is_exact_minimum():
    # exact arc distance against the minimum over a 400,000-point sample of
    # the same arcs: never above it beyond rounding, and within the sample's
    # reach below it
    rng = np.random.default_rng(5)
    x = usa_interior_points(rng, 300)
    g, _ = haversine_scaling(USA, x)
    assert np.all(g > 0.0)
    dense = _resample_closed(USA.vertices, 400_000)
    nearest = dense[[np.argmax(dense @ q) for q in x]]
    brute = np.arctan2(np.linalg.norm(np.cross(x, nearest), axis=1), np.sum(x * nearest, axis=1))
    assert np.all(g <= brute + 1e-12)
    assert np.all(brute - g <= 1e-5)


def test_haversine_polyline_gradient_matches_fd():
    rng = np.random.default_rng(14)
    x = usa_interior_points(rng, 200)
    _, grad = haversine_scaling(USA, x)
    assert np.allclose(np.linalg.norm(grad, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.sum(grad * x, axis=1), 0.0, atol=1e-12)
    f = lambda y: haversine_scaling(USA, y[None, :])[0][0]
    for i in range(len(x)):
        v1 = unit_vector(np.cross(x[i], [0.0, 0.0, 1.0]))
        for v in (v1, np.cross(x[i], v1)):
            assert fd_tangent_derivative(f, x[i], v, h=1e-6) == pytest.approx(
                float(grad[i] @ v), abs=1e-6
            )


def test_chart_pole_fallback_gradient():
    # at the -x1 pole of the (a, b) chart the 128 equator arcs are nearly
    # equidistant; the exact distance must still pick the arc under the
    # query and give the colatitude gradient
    eq = PolylineBoundary(
        to_euclidean([np.pi / 2.0] * 128, np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)),
        interior_hint=np.array([-1.0, 0.0, 0.0]),
    )
    x = to_euclidean(np.pi - 1e-7, 0.9)[None, :]
    g, grad = haversine_scaling(eq, x)
    assert g[0] > 0.0
    assert np.isfinite(grad).all()
    assert np.linalg.norm(grad[0]) == pytest.approx(1.0, abs=1e-6)
    assert abs(float(grad[0] @ x[0])) < 1e-9
    _, grad_circ = haversine_scaling(HEMI, x)
    assert np.allclose(grad[0], grad_circ[0], atol=1e-3)
    # -(e1 - x1 x) / sin a, written without cancellation
    x1, x2, x3 = x[0]
    exact = -unit_vector(np.array([x2 * x2 + x3 * x3, -x1 * x2, -x1 * x3]))
    assert np.allclose(grad[0], exact, atol=1e-12)


@pytest.mark.parametrize("side", ["greater", "less"])
def test_colatitude_gradient_unit_near_far_pole(side):
    # arccos(x1) rounds to the pole within about 1e-8 rad of it, so a must
    # come from atan2(hypot(x2, x3), x1) and sin a from hypot(x2, x3)
    boundary = ColatitudeBoundary(np.pi / 2.0, side)
    sign = 1.0 if side == "greater" else -1.0
    for eps in (1e-7, 1e-8):
        a = np.pi - eps if side == "greater" else eps
        x = to_euclidean(np.full(3, a), np.array([0.3, 2.0, 4.5]))
        g, grad = haversine_scaling(boundary, x)
        assert np.all(g > 0.0)
        assert np.allclose(g, np.pi / 2.0 - eps, rtol=0.0, atol=1e-15)
        assert np.allclose(np.linalg.norm(grad, axis=1), 1.0, rtol=0.0, atol=1e-12)
        x1, x2, x3 = x.T
        exact = -sign * unit_vector(np.stack([x2 * x2 + x3 * x3, -x1 * x2, -x1 * x3], axis=-1))
        assert np.allclose(grad, exact, atol=1e-12)


# ---------------------------------------------------------------- projected


def test_default_drop_axis_is_coordinate_number():
    assert default_drop_axis(HEMI) == 2  # a colatitude region folds across x2
    tri = to_euclidean([0.4] * 3, [0.0, 2.0, 4.0])
    assert default_drop_axis(PolylineBoundary(tri)) == 1
    assert default_drop_axis(USA) == 3


def test_projected_colatitude_disk_closed_form():
    # dropping the x1 pole axis maps the circle a = a0 to a planar circle of
    # radius sin(a0); inside, g is the radial gap
    b = ColatitudeBoundary(2.2)
    rng = np.random.default_rng(6)
    a = rng.uniform(2.3, np.pi - 0.1, 30)
    az = rng.uniform(0.0, 2.0 * np.pi, 30)
    x = to_euclidean(a, az)
    g, grad = projected_scaling(b, x, drop_axis=1)
    r = np.hypot(x[:, 1], x[:, 2])
    assert np.allclose(g, np.sin(2.2) - r, atol=1e-12)
    assert np.all(g > 0.0)
    # gradient points radially inward in the kept plane, zero dropped component
    assert np.allclose(grad[:, 0], 0.0)
    assert np.allclose(grad[:, 1:], -x[:, 1:] / r[:, None], atol=1e-12)


def test_projected_hemisphere_orthogonal_drop_is_linear():
    # dropping x2 folds the hemisphere symmetrically; the projected distance
    # to the rim becomes |x1|, linear in the polar gap at the boundary
    rng = np.random.default_rng(7)
    x = hemisphere_points(rng, 40)
    for axis in (2, 3):
        g, grad = projected_scaling(HEMI, x, drop_axis=axis)
        assert np.max(np.abs(g - np.abs(x[:, 0]))) <= 1e-15
        assert np.allclose(grad[:, axis - 1], 0.0)


def projected_circle_brute_force(b, x, drop_axis, m=400_000):
    """Planar distance from each query to m points of the projected circle."""
    keep = [i for i in range(3) if i != drop_axis - 1]
    ring = to_euclidean(np.full(m, b.a0), np.arange(m) * (TWO_PI / m))[:, keep]
    return np.array([np.min(np.linalg.norm(ring - q[keep], axis=1)) for q in x])


@pytest.mark.parametrize("a0, side", [(1.0, "greater"), (0.6, "less"), (2.0, "less"),
                                      (2.4, "greater"), (np.pi / 2.0, "greater")])
@pytest.mark.parametrize("drop_axis", [1, 2, 3])
def test_projected_colatitude_closed_form_matches_brute_force(a0, side, drop_axis):
    # the circle x1 = cos a0 projects to a circle of radius sin a0 (axis 1)
    # or to the segment {x1 = cos a0, |xj| <= sin a0} (axes 2 and 3); the
    # queries include points beyond the segment ends, where an end is nearest
    b = ColatitudeBoundary(a0, side)
    lo, hi = b.a_interval()
    if drop_axis == 1:
        # the region must stay on one side of the plane x1 = 0
        lo, hi = (lo, min(hi, np.pi / 2.0)) if a0 < np.pi / 2.0 else (max(lo, np.pi / 2.0), hi)
    rng = np.random.default_rng(30 + drop_axis)
    x = to_euclidean(rng.uniform(lo + 0.02, hi - 0.02, 60), rng.uniform(0.0, TWO_PI, 60))
    x = np.vstack([x, to_euclidean(np.array([lo + 0.02, hi - 0.02]), np.array([0.0, 0.5 * np.pi]))])
    g, grad = projected_scaling(b, x, drop_axis=drop_axis)
    brute = projected_circle_brute_force(b, x, drop_axis)
    assert np.all(g > 0.0)
    # the exact distance is never above the sample's minimum, and the
    # sample's chord gaps (below 1.6e-5) bound how far below it can be
    assert np.all(g <= brute + 1e-13)
    assert np.all(brute - g <= 1e-8)
    assert np.allclose(np.linalg.norm(grad, axis=1), 1.0, atol=1e-12)
    assert np.all(grad[:, drop_axis - 1] == 0.0)
    if drop_axis != 1 and lo < np.pi / 2.0 < hi and a0 != np.pi / 2.0:
        # some queries project past the segment ends
        assert np.sum(np.abs(x[:, 4 - drop_axis]) > np.sin(a0)) >= 5


@pytest.mark.parametrize("a0, side, a_range", [(1.0, "greater", (1.0, np.pi / 2.0)),
                                               (2.0, "less", (np.pi / 2.0, 2.0))])
def test_projected_axis1_outside_the_disk(a0, side, a_range):
    # the region lies outside the projected disk of radius sin a0: g is
    # |r - sin a0|, positive off the circle, not max(sin a0 - r, 0) = 0
    b = ColatitudeBoundary(a0, side)
    rng = np.random.default_rng(31)
    a = rng.uniform(a_range[0] + 0.01, a_range[1] - 0.01, 40)
    x = to_euclidean(a, rng.uniform(0.0, TWO_PI, 40))
    g, grad = projected_scaling(b, x, drop_axis=1)
    assert np.all(g > 0.0)
    assert np.allclose(g, np.sin(a) - np.sin(a0), rtol=0.0, atol=1e-12)
    r = np.hypot(x[:, 1], x[:, 2])
    assert np.allclose(grad[:, 1:], x[:, 1:] / r[:, None], atol=1e-12)


def test_projected_fold_rules():
    rng = np.random.default_rng(8)
    x = hemisphere_points(rng, 10)
    # the equator is mirror-symmetric in x2 and x3: both drops are legal
    projected_scaling(HEMI, x, drop_axis=2)
    projected_scaling(HEMI, x, drop_axis=3)
    # an asymmetric curve straddling the dropped axis is rejected
    tri = to_euclidean([0.7, 0.9, 0.5], [5.9, 0.6, 0.9])  # straddles x3 = 0
    wedge = PolylineBoundary(tri)
    inside = wedge.interior_reference[None, :]
    with pytest.raises(ValueError, match="asymmeterr|asymmetrically"):
        projected_scaling(wedge, inside, drop_axis=3)


# A kite mirror-symmetric in x3: two vertices on the plane x3 = 0 and two
# at azimuths +-0.4; negating x3 maps the cycle onto its reverse.
KITE = to_euclidean(np.array([1.0, 1.2, 1.5, 1.2]), np.array([0.0, 0.4, 0.0, -0.4]))


def test_projected_symmetric_polyline_any_start_and_order():
    kite = KITE
    x = to_euclidean(np.array([1.2, 1.3, 1.25]), np.array([0.0, 0.1, -0.2]))
    reference = projected_scaling(PolylineBoundary(kite), x, drop_axis=3)[0]
    for start in range(4):
        for order in (1, -1):
            b = PolylineBoundary(np.roll(kite, -start, axis=0)[::order])
            g, _ = projected_scaling(b, x, drop_axis=3)
            # the same arcs in any order and from any start give the same g
            assert np.all(g > 0.0)
            assert np.allclose(g, reference, rtol=0.0, atol=1e-12)
    # moving one off-plane vertex breaks the symmetry
    bent = kite.copy()
    bent[1] = to_euclidean(1.25, 0.4)
    with pytest.raises(ValueError, match="asymmetrically"):
        projected_scaling(PolylineBoundary(bent), x, drop_axis=3)


def test_projected_far_side_query_rejected():
    cap = ColatitudeBoundary(0.4, side="less")  # region around +x1
    far = to_euclidean(2.8, 0.3)[None, :]
    with pytest.raises(ValueError, match="far side"):
        projected_scaling(cap, far, drop_axis=1)


def test_projected_invalid_axis():
    with pytest.raises(ValueError):
        projected_scaling(HEMI, np.array([[-1.0, 0.0, 0.0]]), drop_axis=0)


# Boundaries for the fold rules: colatitude circles from the pole to the
# antipode, on both sides, with a0 within the rule's 1e-9 tolerance of the
# pole and of the plane x1 = 0, and polylines one-sided, mirror-symmetric,
# asymmetric across a plane, and on a plane.
FOLD_A0 = [1e-10, 0.3, 1.2, np.pi / 2 - 5e-10, np.pi / 2, np.pi / 2 + 5e-10, 2.0, 2.5,
           np.pi - 1e-10]
_BENT_KITE = KITE.copy()
_BENT_KITE[1] = to_euclidean(1.25, 0.4)
FOLD_BOUNDARIES = {
    **{f"colatitude_{a0!r}_{side}": (lambda a0=a0, side=side: ColatitudeBoundary(a0, side))
       for a0 in FOLD_A0 for side in ("greater", "less")},
    "usa": lambda: USA,
    "kite": lambda: PolylineBoundary(KITE),
    "bent_kite": lambda: PolylineBoundary(_BENT_KITE),
    "straddling_wedge": lambda: PolylineBoundary(to_euclidean([0.7, 0.9, 0.5], [5.9, 0.6, 0.9])),
    "equator_octagon": lambda: PolylineBoundary(
        to_euclidean(np.full(8, np.pi / 2), np.arange(8) * np.pi / 4), np.array([-1.0, 0.0, 0.0])),
}


def _fold_queries(b, seed):
    """
    Query sets for a boundary's fold rules along each axis k: points of
    the region, those of them on each side of the plane x_k = 0 and their
    mirror images beyond it, pairs moved to either side of the plane just
    within and just beyond the rule's 1e-9 tolerance, and points outside
    the region.
    """
    rng = np.random.default_rng(seed)
    if isinstance(b, ColatitudeBoundary):
        lo, hi = b.a_interval()
        inside = to_euclidean(rng.uniform(lo, hi, 300), rng.uniform(0.0, TWO_PI, 300))
        outside = unit_vector(rng.standard_normal((300, 3)))
    else:
        x = unit_vector(b.interior_reference + 0.3 * rng.standard_normal((1200, 3)))
        inside, outside = x[b.contains(x)], x[~b.contains(x)]
    for k in range(3):
        mirror = np.where(np.arange(3) == k, -1.0, 1.0)
        for q in (inside, inside[inside[:, k] > 0.0], inside[inside[:, k] < 0.0]):
            if len(q):
                yield k + 1, q
                yield k + 1, q * mirror
        for offset in (0.5e-9, 1.5e-9):
            pair = inside[:2].copy()
            pair[:, k] = [offset, -offset]
            yield k + 1, unit_vector(pair)
        yield k + 1, outside[:100]


def _outcome(scaling, *args):
    """A scaling function's (g, grad), or the type and message it raised."""
    try:
        return scaling(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _raised(outcome) -> bool:
    return isinstance(outcome[0], type)


def _same_outcome(got, ref):
    if _raised(ref):
        return _raised(got) and got == ref
    return not _raised(got) and _same_bits(got, ref)


@pytest.mark.parametrize("name", FOLD_BOUNDARIES)
def test_projected_fold_rules_match_the_per_call_rule(name):
    # the rule built with the boundary raises exactly where the per-call
    # rule did, with its message, and elsewhere gives the same bits
    b = FOLD_BOUNDARIES[name]()
    for axis, q in _fold_queries(b, seed=41):
        ref = _outcome(broadcast_projected, b, q, axis)
        assert _same_outcome(_outcome(projected_scaling, b, q, axis), ref), (axis, len(q))


def test_projected_fold_rule_cases_reach_every_outcome():
    # the cases above pass, and raise each of the rule's three messages
    seen = set()
    for build in FOLD_BOUNDARIES.values():
        b = build()
        for axis, q in _fold_queries(b, seed=41):
            ref = _outcome(broadcast_projected, b, q, axis)
            seen.add(" ".join(ref[1].split()[:3]) if _raised(ref) else "ok")
    assert seen == {"ok", "boundary straddles the", "query points lie", "query points span"}


def test_projected_g_builds_no_fold_rule_per_call(monkeypatch):
    # the kite straddles x3 = 0 mirror-symmetrically; its rule is built
    # with it, so no call runs the symmetry test again
    kite = PolylineBoundary(KITE)
    calls = []
    symmetric = tmsm.boundary._mirror_symmetric
    monkeypatch.setattr(tmsm.boundary, "_mirror_symmetric",
                        lambda *a: calls.append(a) or symmetric(*a))
    x = to_euclidean(np.array([1.2, 1.3, 1.25]), np.array([0.0, 0.1, -0.2]))
    for _ in range(100):
        projected_scaling(kite, x, drop_axis=3)
    assert calls == []


@pytest.mark.parametrize("name", FOLD_BOUNDARIES)
def test_projected_fold_rules_survive_a_pickle(name):
    b = FOLD_BOUNDARIES[name]()
    copy = pickle.loads(pickle.dumps(b))
    for axis, q in _fold_queries(b, seed=42):
        ref = _outcome(projected_scaling, b, q, axis)
        assert _same_outcome(_outcome(projected_scaling, copy, q, axis), ref), (axis, len(q))


def test_projected_gradient_matches_fd():
    # the nearest point moves smoothly with the query away from argmin
    # ties, so every stencil is checked: the hemisphere's closed form on
    # two axes and the USA outline's vertex arcs on its default axis
    rng = np.random.default_rng(9)
    cases = [(HEMI, axis, hemisphere_points(rng, 40)) for axis in (1, 2)]
    cases.append((USA, 3, usa_interior_points(rng, 40)))
    h = 1e-5
    for boundary, axis, x in cases:
        g, grad = projected_scaling(boundary, x, drop_axis=axis)
        f = lambda y: projected_scaling(boundary, y[None, :], drop_axis=axis)[0][0]
        checked = 0
        for i in range(0, 40, 4):
            v1 = unit_vector(np.cross(x[i], [0.0, 0.0, 1.0]))
            v2 = np.cross(x[i], v1)
            for v in (v1, v2):
                assert fd_tangent_derivative(f, x[i], v, h) == pytest.approx(
                    float(grad[i] @ v), abs=1e-4
                )
                checked += 1
        assert checked >= 12


# A hexagon in the positive octant with two vertices 6e-10 from each
# coordinate plane, one on either side, so the boundary is one-sided in
# every axis within the 1e-9 fold tolerance: the arc between each pair
# runs along its plane, and each arc leaving the pair crosses the plane
# next to the vertex below it.
NEAR_PLANES = unit_vector(np.array([
    [1.0, 0.3, 6e-10], [0.3, 1.0, -6e-10],
    [6e-10, 1.0, 0.3], [-6e-10, 0.3, 1.0],
    [0.3, 6e-10, 1.0], [1.0, -6e-10, 0.3],
]))

# The drop axes the fold rules accept for each region: its vertices lie in
# one closed hemisphere of the axis, or mirror-symmetric in it (the kite).
PROJECTED_AXES = {
    "usa": (1, 3),
    "antimeridian": (2,),
    "pole_pentagon": (1,),
    "reversed_box": (1, 2, 3),
    "concave_hexagon": (1, 2, 3),
    "kite": (1, 2, 3),
    "near_planes": (1, 2, 3),
}


def test_projected_polyline_matches_brute_force():
    # exact projected distance against the minimum over a 400,000-point
    # sample of the same arcs: never above it beyond rounding, and within
    # the sample's reach below it; queries reach deep inside, where the
    # nearest point can be an ellipse's second local minimum
    regions = {"usa": USA.vertices, "kite": KITE, "near_planes": NEAR_PLANES, **POLYGONS}
    for name, vertices in sorted(regions.items()):
        b = PolylineBoundary(vertices)
        rng = np.random.default_rng(len(name))
        spread = np.max(geodesic_angle(vertices, b.interior_reference))
        x = unit_vector(b.interior_reference + 0.6 * spread * rng.standard_normal((4000, 3)))
        x = x[b.contains(x)][:800]
        assert len(x) >= 500, name
        dense = _resample_closed(vertices, 400_000)
        accepted = []
        for axis in (1, 2, 3):
            try:
                g, grad = projected_scaling(b, x, drop_axis=axis)
            except ValueError:
                continue
            accepted.append(axis)
            keep = [i for i in range(3) if i != axis - 1]
            brute = cKDTree(dense[:, keep]).query(x[:, keep])[0]
            assert np.all(g > 0.0), (name, axis)
            assert np.all(g <= brute + 1e-12), (name, axis)
            assert np.all(brute - g <= 1e-5), (name, axis)
            assert np.allclose(np.linalg.norm(grad, axis=1), 1.0, atol=1e-12)
            assert np.all(grad[:, axis - 1] == 0.0)
        assert tuple(accepted) == PROJECTED_AXES[name], name


def test_projected_polyline_zero_on_the_boundary():
    # vertices and arc midpoints lie on the projected boundary: g = 0
    for b in (USA, PolylineBoundary(POLYGONS["concave_hexagon"])):
        mids = unit_vector(b.vertices + np.roll(b.vertices, -1, axis=0))
        on = np.vstack([b.vertices, mids])
        g, grad = projected_scaling(b, on, drop_axis=3)
        assert np.all(g == 0.0) and np.all(grad == 0.0)


# ----------------------------------------------------------------- dispatch


def test_scaling_values_unit_kind():
    rng = np.random.default_rng(11)
    x = hemisphere_points(rng, 7)
    g, grad = scaling_values(None, x, "unit")
    assert np.all(g == 1.0) and np.all(grad == 0.0)


@pytest.mark.parametrize("g_kind", ["haversine", "projected"])
@pytest.mark.parametrize("region", ["hemi", "usa"])
def test_scaling_values_never_tests_membership(region, g_kind, monkeypatch):
    # g is geometry only: it takes points of the region, whose membership
    # the caller checks once, and never calls `contains` itself
    rng = np.random.default_rng(41)
    b, x = (HEMI, hemisphere_points(rng, 50)) if region == "hemi" else (USA, usa_interior_points(rng, 50))
    calls = []
    contains = type(b).contains
    monkeypatch.setattr(type(b), "contains", lambda self, q: calls.append(len(q)) or contains(self, q))
    g, grad = scaling_values(b, x, g_kind)
    assert calls == []
    assert g.shape == (50,) and grad.shape == (50, 3) and np.all(g > 0.0)


def test_scaling_values_dispatch_and_errors():
    rng = np.random.default_rng(12)
    x = hemisphere_points(rng, 5)
    g_h, _ = scaling_values(HEMI, x, "haversine")
    g_p, _ = scaling_values(HEMI, x, "projected", drop_axis=2)
    assert np.allclose(g_h, haversine_scaling(HEMI, x)[0])
    assert np.allclose(g_p, projected_scaling(HEMI, x, 2)[0])
    with pytest.raises(ValueError):
        scaling_values(None, x, "haversine")
    with pytest.raises(ValueError):
        scaling_values(HEMI, x, "mystery")


def test_projected_single_point():
    g, _ = projected_scaling(HEMI, to_euclidean(2.4, 0.8), drop_axis=1)
    assert g.shape == (1,)
    assert g[0] == pytest.approx(1.0 - np.sin(2.4), abs=1e-12)
    assert g[0] > 0.0


# -------------------------------------------------------------- geo helpers


def test_latlon_conversions():
    a, b = latlon_to_spherical(90.0, 123.0)
    assert a == pytest.approx(0.0)
    a, b = latlon_to_spherical(0.0, 0.0)
    assert (a, b) == (pytest.approx(np.pi / 2.0), 0.0)
    lat, lon = spherical_to_latlon(*latlon_to_spherical(37.5, -122.3))
    assert lat == pytest.approx(37.5) and lon == pytest.approx(-122.3)


def test_load_boundary_csv_formats(tmp_path):
    f1 = tmp_path / "latlon.csv"
    f1.write_text("lat_deg,lon_deg\n10,0\n0,10\n-10,-10\n")
    b1 = load_boundary_csv(f1)
    assert b1.vertices.shape == (3, 3)
    f2 = tmp_path / "chart.csv"
    a, b = latlon_to_spherical(
        np.array([10.0, 0.0, -10.0]), np.array([0.0, 10.0, -10.0])
    )
    f2.write_text("a_rad,b_rad\n" + "\n".join(f"{ai},{bi}" for ai, bi in zip(a, b)) + "\n")
    b2 = load_boundary_csv(f2)
    assert np.allclose(b1.vertices, b2.vertices, atol=1e-12)
    f3 = tmp_path / "bad.csv"
    f3.write_text("x,y\n1,2\n3,4\n5,6\n")
    with pytest.raises(ValueError, match="needs columns"):
        load_boundary_csv(f3)


def test_load_boundary_csv_header_after_blank_lines(tmp_path):
    # the header is the first non-blank line, wherever blank lines fall
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text("lat_deg,lon_deg\n10,0\n0,10\n-10,-10\n")
    padded.write_text("\n\nlat_deg,lon_deg\n10,0\n\n0,10\n-10,-10\n")
    assert np.array_equal(load_boundary_csv(padded).vertices, load_boundary_csv(plain).vertices)
    blank = tmp_path / "blank.csv"
    blank.write_text("\n\n")
    with pytest.raises(ValueError, match="empty"):
        load_boundary_csv(blank)



def test_load_boundary_csv_strips_header_names(tmp_path):
    # a space after the comma names the same columns as the plain header
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("lat_deg,lon_deg\n10,0\n0,10\n-10,-10\n")
    spaced.write_text("lat_deg, lon_deg\n10,0\n0,10\n-10,-10\n")
    assert np.array_equal(load_boundary_csv(spaced).vertices, load_boundary_csv(plain).vertices)
    chart = tmp_path / "chart.csv"
    a, b = latlon_to_spherical(np.array([10.0, 0.0, -10.0]), np.array([0.0, 10.0, -10.0]))
    chart.write_text(" b_rad , a_rad\n" + "".join(f"{bi},{ai}\n" for ai, bi in zip(a, b)))
    assert np.allclose(load_boundary_csv(chart).vertices, load_boundary_csv(plain).vertices,
                       atol=1e-12)


def test_load_boundary_csv_short_row_is_a_data_error(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("lat_deg,lon_deg\n10,0\n0\n-10,-10\n5,20\n")
    with pytest.raises(ValueError, match="line 3 has no lon_deg value"):
        load_boundary_csv(short)
    # build_boundary reports it as bad data, which the CLI exits 3 on
    with pytest.raises(DataError, match="line 3"):
        build_boundary({"type": "polyline_csv", "path": str(short)})

SQUARE = "lat_deg,lon_deg\n30,-100\n30,-80\n45,-80\n45,-100\n"


def _counting_builds(monkeypatch) -> list:
    """Clear the outline memo and count `PolylineBoundary` constructions."""
    _outline.cache_clear()
    builds, init = [], PolylineBoundary.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolylineBoundary, "__init__", counting)
    return builds


def test_load_boundary_csv_builds_each_outline_once(tmp_path, monkeypatch):
    builds = _counting_builds(monkeypatch)
    path, copy = tmp_path / "square.csv", tmp_path / "copy.csv"
    path.write_text(SQUARE)
    copy.write_text(SQUARE)
    first, second, third = (load_boundary_csv(p) for p in (path, path, copy))
    # one text, one build and one shared boundary, whatever the path
    assert len(builds) == 1
    assert first is second and first is third
    # its tables are built once, with it, and equal a fresh build's
    x = to_euclidean(*latlon_to_spherical(np.array([35.0, 40.0]), np.array([-90.0, -95.0])))
    tables = first._projected
    g, _ = projected_scaling(first, x, 1)
    assert np.array_equal(projected_scaling(load_boundary_csv(path), x, 1)[0], g)
    assert load_boundary_csv(copy)._projected is tables and len(tables) == 3
    fresh = PolylineBoundary(to_euclidean(*latlon_to_spherical(
        np.array([30.0, 30.0, 45.0, 45.0]), np.array([-100.0, -80.0, -80.0, -100.0]))))
    assert fresh.vertices.tobytes() == first.vertices.tobytes()
    assert all(f.tobytes() == t.tobytes() for f, t in zip(fresh._projected, tables))
    assert fresh._detour.cols.tobytes() == load_boundary_csv(copy)._detour.cols.tobytes()
    # the shared arrays reject writes
    for shared in (first.vertices, first.interior_reference, first._arcs.cols,
                   first._index.cols, first._index.arcs):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
    # a hint is part of the key
    load_boundary_csv(path, interior_hint=np.array(second.interior_reference))
    assert len(builds) == 3  # with the fresh build above


def held_arrays(value, name="boundary"):
    """(name, array) of every ndarray held by value's attributes, tuples and their items."""
    if isinstance(value, np.ndarray):
        yield name, value
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from held_arrays(item, f"{name}[{i}]")
    elif isinstance(value, (PolylineBoundary, ColatitudeBoundary, _ArcIndex)):
        for key, item in vars(value).items():
            yield from held_arrays(item, f"{name}.{key}")


def test_every_boundary_array_is_read_only_from_construction(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text(SQUARE)
    square = latlon_polygon([30, 30, 45, 45], [-100, -80, -80, -100])
    hint = to_euclidean(*latlon_to_spherical(40.0, -90.0))
    built = {"direct": PolylineBoundary(square), "hinted": PolylineBoundary(square, hint),
             "loaded": load_boundary_csv(path), "usa": USA}
    for kind, b in built.items():
        held = dict(held_arrays(b))
        # vertices, hint, cap centre, the 7 arc fields, 6 arrays of each
        # index and the 3 projected tables
        assert len(held) == 3 + 7 + 2 * 6 + 3, (kind, sorted(held))
        for name in ("boundary.vertices", "boundary.interior_reference", "boundary._cap[0]",
                     "boundary._arcs[6]", "boundary._index.cols", "boundary._detour.arcs",
                     "boundary._projected[2]"):
            assert name in held, (kind, name)
        writable = [name for name, array in held.items() if array.flags.writeable]
        assert writable == [], (kind, writable)
        with pytest.raises(ValueError, match="read-only"):
            b._projected[0][0, 0] = 0.0
    # the caller's arrays are copied, not frozen
    assert square.flags.writeable and hint.flags.writeable
    for b in (ColatitudeBoundary(1.0), ColatitudeBoundary(1.0, side="less")):
        assert [name for name, _ in held_arrays(b)] == ["boundary.interior_reference"]
        assert not b.interior_reference.flags.writeable


def test_boundary_arrays_stay_read_only_through_a_pickle_round_trip():
    # a pool worker gets its boundary by pickle, which drops the flags:
    # unpickling marks every array read-only again, and queries do not move
    rng = np.random.default_rng(36)
    for b in (USA, ColatitudeBoundary(1.2)):
        copy = pickle.loads(pickle.dumps(b))
        held = dict(held_arrays(copy))
        assert held.keys() == dict(held_arrays(b)).keys()
        assert [name for name, array in held.items() if array.flags.writeable] == []
        with pytest.raises(ValueError, match="read-only"):
            copy.interior_reference[0] = 0.0
        x = unit_vector(b.interior_reference + 0.4 * rng.standard_normal((500, 3)))
        assert np.array_equal(copy.contains(x), b.contains(x))
        inside = x[b.contains(x)]
        assert _same_bits(haversine_scaling(copy, inside), haversine_scaling(b, inside))


def test_load_boundary_csv_rebuilds_an_edited_outline(tmp_path, monkeypatch):
    builds = _counting_builds(monkeypatch)
    path = tmp_path / "square.csv"
    path.write_text(SQUARE)
    x = to_euclidean(*latlon_to_spherical(np.array([35.0, 44.0]), np.array([-90.0, -81.0])))
    before = haversine_scaling(load_boundary_csv(path), x)[0]
    # the same path, rewritten at once with one vertex moved
    path.write_text(SQUARE.replace("45,-80", "46,-80"))
    moved = load_boundary_csv(path)
    assert len(builds) == 2
    assert moved.vertices[2].tolist() == to_euclidean(
        *latlon_to_spherical(46.0, -80.0)).tolist()
    assert not np.array_equal(haversine_scaling(moved, x)[0], before)


@pytest.mark.parametrize("rows, message", [
    ("10,0\n0\n-10,-10\n5,20\n", "line 3 has no lon_deg value"),
    ("20,0\n-10,20\n10,20\n-20,0\n", "arcs 0 and 2 cross"),
    ("30,-100\nnan,-80\n45,-80\n45,-100\n", "vertices must be finite"),
])
def test_load_boundary_csv_failure_is_not_kept(tmp_path, monkeypatch, rows, message):
    builds = _counting_builds(monkeypatch)
    path = tmp_path / "bad.csv"
    path.write_text("lat_deg,lon_deg\n" + rows)
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError, match=message) as caught:
            load_boundary_csv(path)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] and errors[0].startswith(f"{path}: ")
    assert _outline.cache_info().currsize == 0
    # a short row fails before any build; a bad curve fails in each build
    assert len(builds) == (0 if "line" in message else 2)


def test_csv_readers_name_the_line_of_a_value_that_is_not_a_number(tmp_path, capsys):
    # csv counts the blank line, so the bad boundary row is line 4
    border = tmp_path / "border.csv"
    border.write_text("lat_deg,lon_deg\n10,0\n\n20,abc\n-10,-10\n")
    with pytest.raises(ValueError, match="line 4: could not convert string to float: 'abc'"):
        load_boundary_csv(border)
    assert main(["simulate", "--boundary-csv", str(border), "--n", "10",
                 "--out-dir", str(tmp_path)]) == 3
    assert f"{border}: line 4: " in capsys.readouterr().err
    data = tmp_path / "data.csv"
    data.write_text("a_rad,b_rad\n2.0,1.0\n2.1,x\n")
    with pytest.raises(ValueError, match="line 3: could not convert string to float: 'x'"):
        Dataset.from_csv(data)


def test_csv_readers_drop_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with U+FEFF, which is not part of
    # the first header name
    def bom_copy(path):
        copy = path.with_name("bom_" + path.name)
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return copy

    outline = tmp_path / "outline.csv"
    outline.write_text(SQUARE)
    plain, bom = load_boundary_csv(outline), load_boundary_csv(bom_copy(outline))
    assert plain.vertices.tobytes() == bom.vertices.tobytes()
    assert plain.interior_reference.tobytes() == bom.interior_reference.tobytes()
    samples = tmp_path / "samples.csv"
    Dataset(sample_truncated(VmfParams(np.array([0.0, 0.0, 1.0]), 4.0), HEMI, 20,
                             substream_rng(3, 20)).x).to_csv(samples)
    assert Dataset.from_csv(samples).x.tobytes() == Dataset.from_csv(bom_copy(samples)).x.tobytes()
    events = tmp_path / "events.csv"
    events.write_text("lat,lon,event_id\n35.5,-97.25,a\n40,-90,b\n")
    (d0, ids0, ll0, s0), (d1, ids1, ll1, s1) = (ingest_events(p) for p in (events, bom_copy(events)))
    assert ids0 == ids1 == ["a", "b"] and s0 == s1 == 0
    assert ll0.tobytes() == ll1.tobytes() and d0.x.tobytes() == d1.x.tobytes()


def test_csv_readers_name_a_non_utf8_file_once(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("lat_deg,lon_deg,note\n30,-100,caf\xe9\n".encode("latin-1"))
    for read, error in ((load_boundary_csv, ValueError), (Dataset.from_csv, ValueError),
                        (ingest_events, DataError)):
        with pytest.raises(error, match="can't decode") as caught:
            read(path)
        assert str(caught.value).count(str(path)) == 1


def test_usa_outline_fixture_loads():
    assert len(USA.vertices) >= 150  # coarse but not a toy polygon
    assert USA.contains(to_euclidean(*latlon_to_spherical(39.0, -98.5)))  # Kansas
    assert not USA.contains(to_euclidean(*latlon_to_spherical(25.0, -70.0)))


@pytest.mark.parametrize("boundary, axis", [
    (HEMI, 1), (HEMI, 2), (HEMI, 3),
    (ColatitudeBoundary(1.2), 1), (ColatitudeBoundary(1.2), 2), (ColatitudeBoundary(1.2), 3),
    (USA, 1), (USA, 3),
], ids=["hemi-1", "hemi-2", "hemi-3", "cap-1", "cap-2", "cap-3", "usa-1", "usa-3"])
def test_every_rule_takes_an_empty_batch(boundary, axis):
    # the hemisphere's rim lies on the plane x1 = 0 that axis 1 projects
    # onto: its both-sides check must not reduce over no queries
    empty = np.empty((0, 3))
    for g_kind, drop_axis in (("projected", axis), ("haversine", None), ("unit", None)):
        g, grad = scaling_values(boundary, empty, g_kind, drop_axis)
        assert g.shape == (0,) and grad.shape == (0, 3)
    assert np.asarray(boundary.contains(empty)).shape == (0,)
