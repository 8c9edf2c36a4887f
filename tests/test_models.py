import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from reference import model_inner_product_term, model_laplacian_term, projection, score_jacobian
from tmsm.geometry import unit_vector
from tmsm.models import (
    KentParams,
    VmfParams,
    batch_terms,
    log_unnormalized_density,
    score,
)


def make_kent(kappa=10.0, alpha=3.0):
    mu = np.array([0.0, -1.0, 0.0])
    g1 = np.array([0.0, 0.0, 1.0])
    return KentParams(mu=mu, gamma1=g1, gamma2=np.cross(mu, g1), kappa=kappa, alpha=alpha)


def random_units(rng, n):
    return unit_vector(rng.standard_normal((n, 3)))


def fd_ambient_gradient(f, x, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------- parameters


def test_vmf_params_normalizes_mu():
    p = VmfParams(mu=np.array([0.0, 0.0, 2.0]), kappa=1.5)
    assert np.allclose(p.mu, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        VmfParams(mu=np.array([1.0, 0.0, 0.0]), kappa=0.0)
    with pytest.raises(ValueError):
        VmfParams(mu=np.array([1.0, 0.0, 0.0]), kappa=-2.0)


@pytest.mark.parametrize("kappa", [np.nan, np.inf])
def test_vmf_params_reject_a_non_finite_kappa(kappa):
    with pytest.raises(ValueError, match="positive and finite"):
        VmfParams(mu=np.array([1.0, 0.0, 0.0]), kappa=kappa)


@pytest.mark.parametrize("mu", [[np.nan, 0.0, 0.0], [0.0, np.inf, 1.0]])
def test_params_reject_a_non_finite_mu(mu):
    with pytest.raises(ValueError, match="zero or non-finite"):
        VmfParams(mu=np.array(mu), kappa=6.0)
    with pytest.raises(ValueError, match="zero or non-finite"):
        KentParams(np.array(mu), [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], kappa=10.0, alpha=3.0)


@pytest.mark.parametrize("kappa,alpha,match", [
    (np.inf, 3.0, "kappa must be positive and finite"),
    (np.nan, 3.0, "kappa must be positive and finite"),
    (10.0, np.nan, "alpha must be nonnegative and finite"),
    (10.0, np.inf, "alpha must be nonnegative and finite"),
    (10.0, -1.0, "alpha must be nonnegative and finite"),
])
def test_kent_params_reject_a_non_finite_shape(kappa, alpha, match):
    with pytest.raises(ValueError, match=match):
        KentParams([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], kappa=kappa, alpha=alpha)


def test_kent_params_gram_schmidt():
    # slightly non-orthogonal inputs are repaired into an exact frame
    mu = np.array([0.0, -1.0, 0.0])
    g1 = np.array([0.01, 0.02, 1.0])
    g2 = np.array([-1.0, 0.03, 0.01])
    p = KentParams(mu=mu, gamma1=g1, gamma2=g2, kappa=10.0, alpha=3.0)
    f = p.frame()
    assert np.allclose(f.T @ f, np.eye(3), atol=1e-12)


def test_kent_params_rejects_degenerate_frames():
    mu = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        KentParams(mu=mu, gamma1=mu, gamma2=np.array([0.0, 1.0, 0.0]), kappa=5.0, alpha=1.0)
    with pytest.raises(ValueError):
        KentParams(
            mu=mu,
            gamma1=np.array([0.0, 1.0, 0.0]),
            gamma2=np.array([0.5, 1.0, 0.0]) - np.array([0.5, 1.0, 0.0]),
            kappa=5.0,
            alpha=1.0,
        )


def test_kent_unimodality_guard():
    mu = np.array([1.0, 0.0, 0.0])
    g1 = np.array([0.0, 1.0, 0.0])
    g2 = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        KentParams(mu=mu, gamma1=g1, gamma2=g2, kappa=4.0, alpha=2.0)
    # boundary strictly excluded, interior fine
    KentParams(mu=mu, gamma1=g1, gamma2=g2, kappa=4.0, alpha=1.99)


# ------------------------------------------------------------------ formulas


def test_vmf_log_density_and_score():
    p = VmfParams(mu=np.array([0.0, -1.0, 0.0]), kappa=6.0)
    x = unit_vector(np.array([0.2, -0.9, 0.1]))
    assert log_unnormalized_density(p, x) == pytest.approx(6.0 * x[1] * -1.0)
    assert np.allclose(score(p, x), 6.0 * p.mu)
    assert np.allclose(score_jacobian(p, x), 0.0)


def test_kent_alpha_zero_reduces_to_vmf():
    kent = make_kent(kappa=7.0, alpha=0.0)
    vmf = VmfParams(mu=kent.mu, kappa=7.0)
    rng = np.random.default_rng(0)
    x = random_units(rng, 40)
    assert np.allclose(log_unnormalized_density(kent, x), log_unnormalized_density(vmf, x))
    assert np.allclose(score(kent, x), score(vmf, x))
    assert np.allclose(score_jacobian(kent, x), 0.0)


def test_score_matches_fd_gradient():
    rng = np.random.default_rng(1)
    for params in (VmfParams(mu=unit_vector(rng.standard_normal(3)), kappa=6.0), make_kent()):
        for x in random_units(rng, 20):
            fd = fd_ambient_gradient(lambda y: log_unnormalized_density(params, y), x)
            assert np.allclose(score(params, x), fd, atol=1e-6)


def test_score_jacobian_matches_fd():
    rng = np.random.default_rng(2)
    params = make_kent()
    for x in random_units(rng, 20):
        fd = np.zeros((3, 3))
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = (score(params, x + e) - score(params, x - e)) / (2.0 * h)
        assert np.allclose(score_jacobian(params, x), fd, atol=1e-5)


def test_vmf_inner_and_laplacian_closed_forms():
    p = VmfParams(mu=np.array([0.0, -1.0, 0.0]), kappa=6.0)
    rng = np.random.default_rng(3)
    x = random_units(rng, 50)
    t = x @ p.mu
    assert np.allclose(model_inner_product_term(p, x), 36.0 * (1.0 - t * t), atol=1e-12)
    assert np.allclose(model_laplacian_term(p, x), -12.0 * t, atol=1e-12)


def test_kent_laplacian_closed_form():
    p = make_kent()
    rng = np.random.default_rng(4)
    x = random_units(rng, 50)
    psi = score(p, x)
    t1 = x @ p.gamma1
    t2 = x @ p.gamma2
    # tr(H) vanishes because the two ovalness coefficients sum to zero, so
    # Delta log p = -x^T H x - 2 x^T psi with x^T H x = 2 alpha (t1^2 - t2^2).
    expect = -2.0 * p.alpha * (t1**2 - t2**2) - 2.0 * np.sum(x * psi, axis=-1)
    assert np.allclose(model_laplacian_term(p, x), expect, atol=1e-12)


def test_rotation_invariance_of_log_density():
    # log p(R x; R theta) == log p(x; theta)
    r = Rotation.from_euler("XYZ", [0.4, -1.1, 2.2]).as_matrix()
    p = make_kent()
    rp = KentParams(
        mu=r @ p.mu, gamma1=r @ p.gamma1, gamma2=r @ p.gamma2, kappa=p.kappa, alpha=p.alpha
    )
    rng = np.random.default_rng(5)
    x = random_units(rng, 30)
    assert np.allclose(
        log_unnormalized_density(rp, x @ r.T), log_unnormalized_density(p, x), atol=1e-12
    )


def test_batch_terms_match_pointwise_ops():
    rng = np.random.default_rng(6)
    x = random_units(rng, 60)
    for params in (VmfParams(mu=np.array([0.3, 0.4, -0.5]), kappa=4.5), make_kent()):
        psi, inner, lap = batch_terms(params, x)
        assert np.allclose(psi, score(params, x), atol=1e-12)
        assert np.allclose(inner, model_inner_product_term(params, x), atol=1e-12)
        assert np.allclose(lap, model_laplacian_term(params, x), atol=1e-12)


def test_tangential_inner_never_negative():
    rng = np.random.default_rng(7)
    x = random_units(rng, 100)
    _, inner, _ = batch_terms(make_kent(), x)
    assert np.all(inner >= -1e-12)


def test_score_is_ambient_not_tangential():
    # call sites project; the raw Kent score generally has a radial part
    p = make_kent()
    x = np.array([0.0, -1.0, 0.0])
    psi = score(p, x)
    assert abs(float(x @ psi)) > 1.0
    assert np.allclose(projection(x) @ psi, psi - (x @ psi) * x)
