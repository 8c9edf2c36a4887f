import numpy as np
import pytest

from reference import cross_frame, laplace_beltrami, manifold_inner, projection
from tmsm.geometry import (
    SphericalCoord,
    complete_frame,
    geodesic_angle,
    to_euclidean,
    to_spherical,
    unit_vector,
    wrap_azimuth,
)


def random_unit(rng, n=1):
    v = rng.standard_normal((n, 3))
    return unit_vector(v) if n > 1 else unit_vector(v[0])


def test_chart_known_points():
    assert np.allclose(to_euclidean(0.0, 0.0), [1.0, 0.0, 0.0])
    assert np.allclose(to_euclidean(np.pi, 0.3), [-1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(to_euclidean(np.pi / 2, 0.0), [0.0, 1.0, 0.0], atol=1e-15)
    # the benchmark truth direction
    assert np.allclose(to_euclidean(np.pi / 2, np.pi), [0.0, -1.0, 0.0], atol=1e-15)


def test_chart_round_trip():
    rng = np.random.default_rng(11)
    a = rng.uniform(0.05, np.pi - 0.05, 200)
    b = rng.uniform(0.0, 2.0 * np.pi, 200)
    x = to_euclidean(a, b)
    assert np.all(np.abs(np.sum(x * x, axis=-1) - 1.0) <= 1e-12)
    coord = to_spherical(x)
    assert isinstance(coord, SphericalCoord)
    assert np.allclose(coord.a, a, atol=1e-12)
    assert np.allclose(coord.b, b, atol=1e-12)


def test_to_spherical_pole_convention():
    a, b = to_spherical(np.array([1.0, 0.0, 0.0]))
    assert a == 0.0 and b == 0.0
    a, b = to_spherical(np.array([-1.0, 0.0, 0.0]))
    assert a == pytest.approx(np.pi) and b == 0.0


def test_wrap_azimuth():
    assert wrap_azimuth(2.0 * np.pi) == 0.0
    assert wrap_azimuth(-0.25) == pytest.approx(2.0 * np.pi - 0.25)
    assert np.allclose(wrap_azimuth(np.array([7.0, -7.0])), [7.0 - 2 * np.pi, 4 * np.pi - 7.0])


def test_unit_vector_rejects_zero():
    with pytest.raises(ValueError):
        unit_vector(np.zeros(3))


def test_projection_matrix_properties():
    rng = np.random.default_rng(3)
    x = random_unit(rng, 50)
    p = projection(x)
    assert np.allclose(p, np.swapaxes(p, -1, -2))          # symmetric
    assert np.allclose(np.matmul(p, p), p, atol=1e-14)     # idempotent
    assert np.allclose(np.matmul(p, x[..., None])[..., 0], 0.0, atol=1e-14)
    assert np.allclose(np.trace(p, axis1=-2, axis2=-1), 2.0)


def test_manifold_inner_is_projected_dot():
    rng = np.random.default_rng(5)
    x = random_unit(rng)
    u = rng.standard_normal(3)
    v = rng.standard_normal(3)
    expected = float((projection(x) @ u) @ (projection(x) @ v))
    assert manifold_inner(x, u, v) == pytest.approx(expected, abs=1e-14)


def test_laplace_beltrami_linear_form():
    # For f(x) = c^T x restricted to the sphere, the intrinsic Laplacian
    # is -2 c^T x: gradient c, Hessian zero.
    rng = np.random.default_rng(6)
    x = random_unit(rng, 30)
    c = rng.standard_normal(3)
    grad = np.broadcast_to(c, (30, 3))
    hess = np.zeros((30, 3, 3))
    got = laplace_beltrami(x, grad, hess)
    assert np.allclose(got, -2.0 * x @ c, atol=1e-13)


def test_laplace_beltrami_quadratic_form():
    # f(x) = (c^T x)^2 has ambient gradient 2 c (c^T x) and Hessian 2 c c^T,
    # giving Delta f = 2|c|^2 - 6 (c^T x)^2 on the sphere.
    rng = np.random.default_rng(7)
    x = random_unit(rng, 30)
    c = rng.standard_normal(3)
    t = x @ c
    grad = 2.0 * t[:, None] * c
    hess = np.broadcast_to(2.0 * np.outer(c, c), (30, 3, 3))
    got = laplace_beltrami(x, grad, hess)
    assert np.allclose(got, 2.0 * c @ c - 6.0 * t**2, atol=1e-12)


def test_geodesic_angle_basics():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert geodesic_angle(e1, e1) == 0.0
    assert geodesic_angle(e1, -e1) == pytest.approx(np.pi)
    assert geodesic_angle(e1, e2) == pytest.approx(np.pi / 2)
    # clipping keeps slightly-off-unit dots finite
    near = unit_vector(e1 + 1e-9 * e2)
    assert np.isfinite(geodesic_angle(e1, near))


def test_complete_frame_orthonormal_right_handed():
    rng = np.random.default_rng(8)
    for _ in range(25):
        mu = random_unit(rng)
        v1, v2 = complete_frame(mu)
        triad = np.stack([mu, v1, v2])
        assert np.allclose(triad @ triad.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(triad) == pytest.approx(1.0, abs=1e-12)


# every sign pattern of the axes, |mu| ties, signed zeros, a denormal
# component and vectors that are not of unit length
FRAME_EDGE_CASES = [
    *(sign * row for row in np.eye(3) for sign in (1.0, -1.0)),
    [1.0, 1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, -1.0],
    [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [-0.0, -0.0, -2.0], [-0.0, 1.0, -0.0], [3.0, -0.0, 0.0],
    [1.0, 5e-324, 0.0], [2e-310, -1.0, 1e-300], [3.0, -4.0, 12.0], [1e150, -1e149, 3e148],
    [1e-150, 2e-150, -3e-150],
]


def test_complete_frame_matches_the_array_form_bit_for_bit():
    # signs of zeros included: tobytes compares the raw bits
    rng = np.random.default_rng(29)
    mu = rng.standard_normal((100_000, 3)) * np.exp(rng.uniform(-20.0, 20.0, (100_000, 1)))
    ref_v1, ref_v2 = cross_frame(mu)
    # the row form is the one-vector form, row by row
    for i in range(0, 100_000, 500):
        v1, v2 = cross_frame(mu[i])
        assert v1.tobytes() == ref_v1[i].tobytes() and v2.tobytes() == ref_v2[i].tobytes()
    frames = [complete_frame(m) for m in mu]
    assert np.array([f[0] for f in frames]).tobytes() == ref_v1.tobytes()
    assert np.array([f[1] for f in frames]).tobytes() == ref_v2.tobytes()
    for m in FRAME_EDGE_CASES:
        got, ref = complete_frame(np.array(m)), cross_frame(np.array(m))
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes(), m
    # a list is read as the array it holds
    listed, array = complete_frame([3.0, -4.0, 12.0]), complete_frame(np.array([3.0, -4.0, 12.0]))
    assert listed[1].tobytes() == array[1].tobytes()


@pytest.mark.parametrize("mu", [
    [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [5e-324, 0.0, 0.0],
    [np.nan, 0.0, 1.0], [0.0, np.inf, 0.0], [-np.inf, 1.0, 1.0], [np.nan, np.nan, np.nan],
])
def test_complete_frame_rejects_a_zero_or_non_finite_vector(mu):
    with pytest.raises(ValueError, match="zero or non-finite"):
        complete_frame(np.array(mu))
    with pytest.raises(ValueError, match="zero or non-finite"):
        unit_vector(np.array(mu))
