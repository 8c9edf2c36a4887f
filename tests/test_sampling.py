import warnings

import numpy as np
import pytest

import tmsm.boundary
import tmsm.sampling
from reference import cross_frame, sphere_grid
from tmsm.boundary import ColatitudeBoundary, load_boundary_csv
from tmsm.geometry import to_euclidean
from tmsm.models import KentParams, VmfParams, log_unnormalized_density
from tmsm.sampling import (
    TruncatedSample,
    sample_kent,
    sample_model,
    sample_truncated,
    sample_vmf,
    substream_rng,
)

MU = np.array([0.0, -1.0, 0.0])


def test_substream_rng_deterministic_and_tagged():
    a = substream_rng(3, 10, 0).random(5)
    b = substream_rng(3, 10, 0).random(5)
    c = substream_rng(3, 10, 1).random(5)
    d = substream_rng(4, 10, 0).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_vmf_samples_unit_norm_and_centered():
    p = VmfParams(mu=MU, kappa=6.0)
    x = sample_vmf(p, 20000, substream_rng(0, 1))
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-12
    mean_dir = x.mean(axis=0)
    mean_dir /= np.linalg.norm(mean_dir)
    assert float(mean_dir @ MU) > 0.9999


def test_vmf_resultant_length_matches_formula():
    # E|mean| -> coth(kappa) - 1/kappa
    for kappa in (1.0, 6.0):
        p = VmfParams(mu=MU, kappa=kappa)
        x = sample_vmf(p, 50000, substream_rng(1, int(kappa)))
        rbar = np.linalg.norm(x.mean(axis=0))
        assert rbar == pytest.approx(1.0 / np.tanh(kappa) - 1.0 / kappa, abs=0.01)


def test_vmf_azimuth_uniform_about_mu():
    # chi-square on 20 azimuth bins around the mean direction
    from tmsm.geometry import complete_frame

    p = VmfParams(mu=MU, kappa=4.0)
    x = sample_vmf(p, 40000, substream_rng(2, 0))
    e, f = complete_frame(MU)
    phi = np.arctan2(x @ f, x @ e)
    counts, _ = np.histogram(phi, bins=20, range=(-np.pi, np.pi))
    expected = 40000 / 20
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    assert chi2 < 43.8  # 19 dof, far tail (p ~ 1e-3)


def test_vmf_cosine_distribution():
    # P(mu.x <= t) = (exp(kappa t) - exp(-kappa)) / (exp(kappa) - exp(-kappa))
    kappa = 6.0
    p = VmfParams(mu=MU, kappa=kappa)
    x = sample_vmf(p, 50000, substream_rng(3, 0))
    t = x @ MU
    for q in (0.25, 0.5, 0.75):
        t_q = np.quantile(t, q)
        cdf = (np.exp(kappa * t_q) - np.exp(-kappa)) / (np.exp(kappa) - np.exp(-kappa))
        assert cdf == pytest.approx(q, abs=0.01)


def kent_params(kappa=10.0, alpha=3.0):
    g1 = np.array([0.0, 0.0, 1.0])
    return KentParams(mu=MU, gamma1=g1, gamma2=np.cross(MU, g1), kappa=kappa, alpha=alpha)


def test_kent_sampler_moments():
    p = kent_params()
    x = sample_kent(p, 40000, substream_rng(4, 0))
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-12
    # ovalness stretches the gamma1 spread beyond the gamma2 spread
    s1 = np.mean((x @ p.gamma1) ** 2)
    s2 = np.mean((x @ p.gamma2) ** 2)
    assert s1 > 2.0 * s2
    mean_dir = x.mean(axis=0)
    assert float(mean_dir @ MU) / np.linalg.norm(mean_dir) > 0.999


def test_kent_alpha_zero_short_circuits_to_vmf():
    p = kent_params(alpha=0.0)
    x1 = sample_kent(p, 100, substream_rng(5, 0))
    x2 = sample_vmf(VmfParams(mu=MU, kappa=10.0), 100, substream_rng(5, 0))
    assert np.array_equal(x1, x2)


# shapes up to 2 alpha / kappa = 0.99, near the unimodality limit, and
# down to alpha / kappa = 1e-4
@pytest.mark.parametrize("kappa,alpha", [
    (10.0, 3.0), (10.0, 4.9), (6.0, 2.9), (2.0, 0.9), (1.0, 0.4),
    (20.0, 9.5), (20.0, 9.9), (40.0, 12.0), (40.0, 19.8), (200.0, 50.0),
    (10.0, 1e-3), (0.1, 0.0499),
])
def test_kent_sampler_matches_quadrature_moments(kappa, alpha):
    p = kent_params(kappa, alpha)
    x = sample_kent(p, 200000, substream_rng(6, int(10 * kappa), int(10 * alpha)))
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) <= 1e-12
    nodes, w = sphere_grid(400, 400)
    logf = np.asarray(log_unnormalized_density(p, nodes))
    f = w * np.exp(logf - logf.max())
    gap = 0.0
    for moment in (
        lambda y: y @ p.mu,
        lambda y: (y @ p.gamma1) ** 2,
        lambda y: (y @ p.gamma2) ** 2,
        lambda y: (y @ p.gamma1) * (y @ p.gamma2),
    ):
        gap = max(gap, abs(f @ moment(nodes) / f.sum() - np.mean(moment(x))))
    assert gap <= 0.01


def test_kent_sampler_keeps_precision_as_alpha_vanishes():
    # 1 - mu.x is drawn directly, so it does not collapse onto the grid of t near 1
    kappa, n = 10.0, 100000
    t = sample_kent(kent_params(kappa, 1e-12), n, substream_rng(6, 1)) @ MU
    assert np.unique(1.0 - t).size == n
    # the vMF mean resultant length, coth(kappa) - 1/kappa
    se = t.std() / np.sqrt(n)
    assert abs(t.mean() - (1.0 / np.tanh(kappa) - 1.0 / kappa)) < 4.0 * se


# near the unimodality limit at huge kappa, near-uniform, and alpha at the
# bottom of the float range
@pytest.mark.parametrize("kappa,alpha", [(1e6, 4.99e5), (0.01, 0.004), (1e-6, 1e-7), (10.0, 1e-300)])
def test_kent_sampler_extreme_shapes_without_warnings(kappa, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = sample_kent(kent_params(kappa, alpha), 20000, substream_rng(6, 2))
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) <= 1e-12


def test_kent_sampler_substream_reproducible():
    p = kent_params(20.0, 9.9)
    assert np.array_equal(sample_kent(p, 500, substream_rng(6, 0)),
                          sample_kent(p, 500, substream_rng(6, 0)))


def test_sample_model_dispatch():
    x = sample_model(VmfParams(mu=MU, kappa=2.0), 10, substream_rng(7, 0))
    assert x.shape == (10, 3)
    x = sample_model(kent_params(), 10, substream_rng(7, 1))
    assert x.shape == (10, 3)


def test_truncated_sampler_respects_region():
    hemi = ColatitudeBoundary(np.pi / 2.0)
    p = VmfParams(mu=MU, kappa=6.0)
    s = sample_truncated(p, hemi, 500, substream_rng(8, 0))
    assert isinstance(s, TruncatedSample)
    assert s.x.shape == (500, 3)
    assert np.all(hemi.contains(s.x))
    assert s.n_raw >= 500
    assert 0.0 < s.acceptance_rate <= 1.0


def test_truncated_sampler_draw_limit():
    # a tiny cap opposite the mean direction has negligible mass
    cap = ColatitudeBoundary(3.0, side="greater")  # region a > 3.0 around +x1's antipode
    p = VmfParams(mu=np.array([1.0, 0.0, 0.0]), kappa=10.0)
    with pytest.raises(RuntimeError, match="raw draws"):
        sample_truncated(p, cap, 100, substream_rng(9, 0), max_draw_factor=10)


def test_sample_truncated_substream_reproducible():
    hemi = ColatitudeBoundary(np.pi / 2.0)
    truth = VmfParams(mu=MU, kappa=6.0)

    def draw(n):
        return sample_truncated(truth, hemi, n, substream_rng(11, n), 1000)

    s1 = draw(200)
    s2 = draw(200)
    assert np.array_equal(s1.x, s2.x)
    assert s1.n_raw == s2.n_raw
    # the substream is keyed by n, so a different size is a different stream
    other = draw(201)
    assert not np.array_equal(s1.x[:10], other.x[:10])


def _draws():
    """vMF draws, and truncated draws on the hemisphere and on the USA
    outline (criterion 8's truth, outside it). The outline is built anew,
    not taken from the memo, so a patched `complete_frame` builds its frames."""
    tmsm.boundary._outline.cache_clear()
    usa = load_boundary_csv("src/tmsm/data/usa_outline.csv")
    hemi = ColatitudeBoundary(np.pi / 2.0)
    rim = VmfParams(MU, 6.0)
    storm = VmfParams(to_euclidean(1.1344640137963142, -1.3089969389957472), 6.0)
    odd = VmfParams(np.array([-0.0, 1.0, 1.0]), 2.0)
    return [
        sample_vmf(rim, 1000, substream_rng(1, 0)),
        sample_vmf(odd, 1000, substream_rng(1, 1)),
        sample_truncated(rim, hemi, 800, substream_rng(2, 800)).x,
        sample_truncated(storm, usa, 500, substream_rng(8, 500)).x,
    ]


def test_samplers_give_the_draws_of_the_array_frame(monkeypatch):
    # the sampler's frame and the outline's frames all built by cross_frame
    got = _draws()
    with monkeypatch.context() as patch:
        patch.setattr(tmsm.sampling, "complete_frame", cross_frame)
        patch.setattr(tmsm.boundary, "complete_frame", cross_frame)
        ref = _draws()
    for a, b in zip(got, ref):
        assert a.tobytes() == b.tobytes()
