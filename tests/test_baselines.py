import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.spatial.transform import Rotation

from tmsm.baselines import (
    LOG_PRECISION_BRACKET,
    ChartSegments,
    MvnChartModel,
    _truncsm_profile,
    hemisphere_chart_segments,
    mean_resultant_length,
    mle_vmf,
    rmse_embedding,
    solve_concentration,
    truncsm_mvn,
)
from tmsm.boundary import ColatitudeBoundary
from tmsm.estimator import Dataset
from tmsm.geometry import geodesic_angle, to_euclidean
from tmsm.models import VmfParams
from tmsm.sampling import sample_truncated, sample_vmf, substream_rng

MU = np.array([0.0, -1.0, 0.0])


# --------------------------------------------------------------- resultants


def test_mean_resultant_length_regimes():
    # direct formula in the comfortable range
    for kappa in (0.5, 2.0, 20.0, 100.0):
        direct = 1.0 / np.tanh(kappa) - 1.0 / kappa
        assert mean_resultant_length(kappa) == pytest.approx(direct, rel=1e-12)
    # series branch agrees with the direct formula just above the switch
    assert mean_resultant_length(5e-5) == pytest.approx(5e-5 / 3.0, rel=1e-6)
    assert mean_resultant_length(2e-4) == pytest.approx(
        1.0 / np.tanh(2e-4) - 1.0 / 2e-4, rel=1e-8
    )
    # overflow-safe tail
    assert mean_resultant_length(1e4) == pytest.approx(1.0 - 1e-4, rel=1e-12)
    assert np.isfinite(mean_resultant_length(1e8))


def test_solve_concentration_inverts():
    for rbar in (0.05, 0.3, 0.5, 0.8337, 0.95, 0.999):
        kappa = solve_concentration(rbar)
        assert mean_resultant_length(kappa) == pytest.approx(rbar, abs=1e-9)
    with pytest.raises(ValueError):
        solve_concentration(0.0)
    with pytest.raises(ValueError):
        solve_concentration(1.0)


def test_solve_concentration_cap_warning():
    with pytest.warns(UserWarning, match="capped"):
        kappa = solve_concentration(1.0 - 1e-12)
    assert kappa == 1e6


# ---------------------------------------------------------------------- mle


def test_mle_untruncated_recovery():
    truth = VmfParams(mu=MU, kappa=6.0)
    x = sample_vmf(truth, 100000, substream_rng(0, 0))
    p = mle_vmf(Dataset(x))
    assert geodesic_angle(p.mu, MU) < 0.01
    assert p.kappa == pytest.approx(6.0, rel=0.03)


def test_mle_fixed_kappa_and_errors():
    x = sample_vmf(VmfParams(mu=MU, kappa=6.0), 100, substream_rng(1, 0))
    p = mle_vmf(Dataset(x), estimate_kappa=False, kappa=6.0)
    assert p.kappa == 6.0
    with pytest.raises(ValueError):
        mle_vmf(Dataset(x), estimate_kappa=False)
    with pytest.raises(ValueError):
        mle_vmf(Dataset(x[:1]))
    opposite = Dataset(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="resultant"):
        mle_vmf(opposite)


def test_mle_rotation_equivariant():
    x = sample_vmf(VmfParams(mu=MU, kappa=6.0), 500, substream_rng(2, 0))
    rot = Rotation.from_euler("XYZ", [0.3, -0.8, 1.2]).as_matrix()
    p = mle_vmf(Dataset(x))
    p_rot = mle_vmf(Dataset(x @ rot.T))
    assert np.max(np.abs(p_rot.mu - rot @ p.mu)) < 1e-10
    assert p_rot.kappa == pytest.approx(p.kappa, rel=1e-12)


def test_mle_biased_under_truncation():
    # hemisphere truncation pulls the naive estimate off the true direction
    truth = VmfParams(mu=MU, kappa=6.0)
    hemi = ColatitudeBoundary(np.pi / 2.0)
    s = sample_truncated(truth, hemi, 5000, substream_rng(3, 0), 1000)
    p = mle_vmf(Dataset(s.x))
    assert geodesic_angle(p.mu, MU) > 0.2


# ------------------------------------------------------------------ truncsm


def test_chart_segment_distance_oracle():
    seg = ChartSegments(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
    d, grad = seg.distance(np.array([[0.5, 0.3], [2.0, 0.0], [-1.0, -1.0]]))
    assert np.allclose(d, [0.3, 1.0, np.sqrt(2.0)])
    assert np.allclose(grad[0], [0.0, 1.0])
    assert np.allclose(grad[1], [1.0, 0.0])
    assert np.allclose(grad[2], [-1.0, -1.0] / np.sqrt(2.0))


def test_chart_segment_distance_vs_brute_force():
    segs = hemisphere_chart_segments()
    rng = np.random.default_rng(4)
    z = np.column_stack(
        [rng.uniform(np.pi / 2, np.pi, 40), rng.uniform(0.0, 2.0 * np.pi, 40)]
    )
    d, _ = segs.distance(z)
    # scalar point-segment distance, one pair at a time
    brute = np.full(40, np.inf)
    for i, p in enumerate(z):
        for s, e in zip(segs.start, segs.end):
            v = e - s
            t = min(max(np.dot(p - s, v) / np.dot(v, v), 0.0), 1.0)
            brute[i] = min(brute[i], np.linalg.norm(p - (s + t * v)))
    assert np.allclose(d, brute, atol=1e-12)


def test_hemisphere_chart_segments_shape():
    segs = hemisphere_chart_segments()
    assert segs.start.shape == (3, 2) and segs.end.shape == (3, 2)
    # the truncation line a = pi/2 plus the two azimuth chart edges;
    # no segment lies along the pole line a = pi
    lines = np.concatenate([segs.start, segs.end])
    assert np.any(np.isclose(lines[:, 0], np.pi / 2.0))
    a_vals = np.stack([segs.start[:, 0], segs.end[:, 0]])
    assert not np.any(np.all(np.isclose(a_vals, np.pi), axis=0))


def test_chart_segments_follow_the_colatitude_region():
    # the truncation line a = a0 and the azimuth edges out to the far pole
    cases = {(np.pi / 2.0, np.pi): hemisphere_chart_segments(),
             (1.2, np.pi): hemisphere_chart_segments(1.2),
             (1.2, 0.0): hemisphere_chart_segments(1.2, "less")}
    for (a0, far), segs in cases.items():
        assert np.array_equal(segs.start, [[a0, 0.0], [a0, 0.0], [a0, 2.0 * np.pi]])
        assert np.array_equal(segs.end, [[a0, 2.0 * np.pi], [far, 0.0], [far, 2.0 * np.pi]])


def test_truncsm_normal_equations_residual():
    # with fixed precision the minimizer satisfies
    # sum(g_i (z_i - mu)) = kappa_inv * sum(grad g_i)
    truth = VmfParams(mu=MU, kappa=6.0)
    hemi = ColatitudeBoundary(np.pi / 2.0)
    s = sample_truncated(truth, hemi, 400, substream_rng(5, 0), 1000)
    a = np.arccos(np.clip(s.x[:, 0], -1.0, 1.0))
    b = np.mod(np.arctan2(s.x[:, 2], s.x[:, 1]), 2.0 * np.pi)
    z = np.column_stack([a, b])
    segs = hemisphere_chart_segments()
    model = truncsm_mvn(z, segs, kappa_inv=1.0 / 6.0)
    g, grad_g = segs.distance(z)
    residual = (g[:, None] * (z - model.mu_z)).sum(axis=0) - (1.0 / 6.0) * grad_g.sum(axis=0)
    assert np.max(np.abs(residual)) < 1e-8


def test_truncsm_far_boundary_recovers_sample_mean():
    # push the boundary far away: g is near-constant, grad g tiny relative,
    # so the estimate collapses to the sample mean
    rng = np.random.default_rng(6)
    z = rng.normal([1.0, 2.0], 0.05, size=(500, 2))
    far = ChartSegments(np.array([[-1e6, -1e6]]), np.array([[-1e6, 1e6]]))
    model = truncsm_mvn(z, far, kappa_inv=0.05**2)
    assert np.max(np.abs(model.mu_z - z.mean(axis=0))) < 1e-4


def test_truncsm_estimated_precision_reasonable():
    rng = np.random.default_rng(7)
    sigma2 = 0.04
    z = rng.normal([2.4, 3.0], np.sqrt(sigma2), size=(4000, 2))
    far = ChartSegments(np.array([[-50.0, -50.0]]), np.array([[-50.0, 50.0]]))
    model = truncsm_mvn(z, far, estimate_precision=True)
    assert model.kappa_inv == pytest.approx(sigma2, rel=0.15)
    assert np.max(np.abs(model.mu_z - z.mean(axis=0))) < 0.02


def _hemisphere_chart_sample(n, seed):
    s = sample_truncated(VmfParams(mu=MU, kappa=6.0), ColatitudeBoundary(np.pi / 2.0),
                         n, substream_rng(seed, n), 1000)
    a = np.arccos(np.clip(s.x[:, 0], -1.0, 1.0))
    b = np.mod(np.arctan2(s.x[:, 2], s.x[:, 1]), 2.0 * np.pi)
    return np.column_stack([a, b]), hemisphere_chart_segments()


def _line_sample(distances, spread_b):
    # points at the given distances to the right of the long segment a = 0
    rng = np.random.default_rng(12)
    z = np.column_stack([distances, rng.normal(0.0, spread_b, len(distances))])
    line = ChartSegments(np.array([[0.0, -100.0]]), np.array([[0.0, 100.0]]))
    return z, line


def _truncsm_case(name):
    if name == "hemisphere_n125":
        return _hemisphere_chart_sample(125, 13)
    if name == "hemisphere_n2000":
        return _hemisphere_chart_sample(2000, 14)
    if name == "upper_clip":
        # Var(g) >= 2 mean(g)^2 makes 2G + Q <= 0: the objective falls
        # as kappa_inv grows, so the estimate is the bracket's upper end
        return _line_sample(np.r_[np.full(99, 0.01), 10.0], 1.0)
    # a tight cluster: V -> 0, so V / (2G + Q) lies below the bracket
    rng = np.random.default_rng(15)
    return _line_sample(1.0 + rng.normal(0.0, 1e-4, 50), 1e-4)


@pytest.mark.parametrize(
    "case", ["hemisphere_n125", "hemisphere_n2000", "upper_clip", "lower_clip"]
)
def test_truncsm_closed_form_variance_matches_bounded_search(case):
    z, segs = _truncsm_case(case)
    model = truncsm_mvn(z, segs, estimate_precision=True)
    g, grad_g = segs.distance(z)
    search = minimize_scalar(
        lambda t: _truncsm_profile(z, g, grad_g, float(np.exp(t)))[1],
        bounds=LOG_PRECISION_BRACKET, method="bounded", options={"xatol": 1e-12},
    )
    lo, hi = LOG_PRECISION_BRACKET
    if case.endswith("clip"):
        # the search stops just short of the bracket end it runs into
        end = hi if case == "upper_clip" else lo
        assert abs(search.x - end) < 1e-6
        assert model.kappa_inv == np.exp(end)
        return
    assert lo + 1e-3 < search.x < hi - 1e-3
    assert model.kappa_inv == pytest.approx(np.exp(search.x), rel=1e-7)
    mu_search, _ = _truncsm_profile(z, g, grad_g, float(np.exp(search.x)))
    assert np.max(np.abs(model.mu_z - mu_search)) < 1e-7


def test_truncsm_input_validation():
    segs = hemisphere_chart_segments()
    with pytest.raises(ValueError):
        truncsm_mvn(np.zeros((5, 3)), segs, kappa_inv=1.0)
    with pytest.raises(ValueError):
        truncsm_mvn(np.zeros((5, 2)), segs)  # kappa_inv missing
    on_boundary = np.full((4, 2), [np.pi / 2.0, 1.0])
    with pytest.raises(ValueError, match="zero"):
        truncsm_mvn(on_boundary, segs, kappa_inv=1.0)


def test_mvn_chart_model_lift():
    m = MvnChartModel(np.array([np.pi / 2.0, np.pi]), 0.1)
    assert np.allclose(m.mean_direction(), MU, atol=1e-15)
    with pytest.raises(ValueError):
        MvnChartModel(np.zeros(2), 0.0)


# --------------------------------------------------------------------- rmse


def test_rmse_conventions():
    truth = np.array([0.0, -1.0, 0.0])
    assert rmse_embedding(truth, truth) == 0.0
    assert rmse_embedding(-truth, truth) == pytest.approx(2.0 / 3.0)
