import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg import eigh as scipy_eigh
from scipy.optimize import brentq, minimize
from scipy.spatial.transform import Rotation

from reference import (
    frame_derivatives_by_turns,
    frame_separated_objective,
    frame_separated_starts,
    frame_state_by_generators,
    pointwise_identity_sides,
    pointwise_terms,
    region_grid,
    scaling_moments,
    sphere_grid,
)
from tmsm.bench import ExperimentConfig, build_boundary, truth_params
from tmsm.boundary import ColatitudeBoundary, PolylineBoundary, load_boundary_csv, scaling_values
from tmsm.cli import main
from tmsm.estimator import (
    Dataset,
    EstimationResult,
    ObjectiveTerms,
    estimate,
    ibp_identity_check,
    tmsm_objective,
)
from tmsm.estimator import (
    _FRAME_GRID,
    _GAMMA_SIGN,
    _START_SEPARATION,
    _eta_on_sphere,
    _fit_kent_frames,
    _fit_vmf,
    _frame_state,
    _grid_starts,
    _grid_values,
    _newton_polish,
    _pick_starts,
    _polish_form,
    _ScalingStats,
    _scaling_stats,
    _table_scale,
    _turn,
)
from tmsm.geometry import geodesic_angle, to_euclidean, unit_vector
from tmsm.models import KentParams, VmfParams
from tmsm.sampling import sample_kent, sample_truncated, sample_vmf, substream_rng

HEMI = ColatitudeBoundary(np.pi / 2.0)
MU = np.array([0.0, -1.0, 0.0])


def hemi_dataset(n, seed=0, kappa=6.0):
    truth = VmfParams(mu=MU, kappa=kappa)
    s = sample_truncated(truth, HEMI, n, substream_rng(seed, n), 1000)
    return Dataset(s.x)


# ------------------------------------------------------------------ dataset


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, 1.0, 1.0]]))  # not unit
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="unit vectors"):
            Dataset(np.array([[bad, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    d = Dataset(np.array([0.0, 0.0, 1.0]))  # single point is promoted to 2-d
    assert d.n == 1


def test_dataset_spherical_round_trip():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.1, np.pi - 0.1, 50)
    b = rng.uniform(0.0, 2.0 * np.pi, 50)
    d = Dataset.from_spherical(a, b)
    a2, b2 = d.spherical()
    assert np.allclose(a, a2, atol=1e-12) and np.allclose(b, b2, atol=1e-12)


def test_dataset_csv_round_trip(tmp_path):
    d = hemi_dataset(80)
    path = tmp_path / "data.csv"
    d.to_csv(path)
    back = Dataset.from_csv(path)
    assert np.max(np.abs(back.x - d.x)) < 1e-12


def test_dataset_csv_strips_header_names(tmp_path):
    # a space after the header's commas and a blank first line name the
    # same columns, in any order, as the file `to_csv` writes
    d = hemi_dataset(20)
    plain, spaced, swapped = (tmp_path / f"{name}.csv" for name in ("plain", "spaced", "swapped"))
    d.to_csv(plain)
    rows = [line.split(",") for line in plain.read_text().splitlines()[1:]]
    spaced.write_text("\na_rad, b_rad, x1, x2, x3\n" + "".join(",".join(r) + "\n" for r in rows))
    swapped.write_text("b_rad , a_rad\n" + "".join(f"{r[1]},{r[0]}\n" for r in rows))
    for path in (spaced, swapped):
        assert np.array_equal(Dataset.from_csv(path).x, Dataset.from_csv(plain).x)


def test_dataset_csv_short_row_is_a_data_error(tmp_path, capsys):
    d = hemi_dataset(5)
    short = tmp_path / "short.csv"
    d.to_csv(short)
    lines = short.read_text().splitlines()
    lines[2] = lines[2].split(",")[0]  # the third line has no b_rad value
    short.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3 has no b_rad value"):
        Dataset.from_csv(short)
    # the CLI reports it as bad data, exit code 3, naming the line
    assert main(["estimate", "--a0", "1.5708", "--data", str(short),
                 "--out-dir", str(tmp_path)]) == 3
    assert "line 3 has no b_rad value" in capsys.readouterr().err


def test_dataset_membership_validation():
    d = Dataset(to_euclidean(np.array([0.3, 2.0]), np.array([0.0, 1.0])))
    with pytest.raises(ValueError, match="outside the region"):
        d.validate_membership(HEMI)


class CountingHemisphere(ColatitudeBoundary):
    """The hemisphere a > pi/2, recording the size of each membership call."""

    def __init__(self):
        super().__init__(np.pi / 2.0)
        self.calls = []

    def contains(self, x):
        self.calls.append(len(x))
        return super().contains(x)


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2)])
def test_estimate_tests_membership_once(g_kind, axis, monkeypatch):
    # one contains call of all n points per fit, on either boundary kind:
    # g itself takes points of the region and never tests membership
    d = hemi_dataset(200, seed=15)
    for model_kind, fixed in (("vmf_mu_kappa", None), ("vmf_mu_only", {"kappa": 6.0}),
                              ("kent_frame", {"kappa": 6.0, "alpha": 1.0})):
        boundary = CountingHemisphere()
        estimate(d, boundary, g_kind=g_kind, model_kind=model_kind, fixed=fixed, drop_axis=axis)
        assert boundary.calls == [d.n]
    usa_data, usa = _usa_dataset(150)
    calls = []
    contains = PolylineBoundary.contains
    monkeypatch.setattr(PolylineBoundary, "contains",
                        lambda self, q: calls.append(len(q)) or contains(self, q))
    estimate(usa_data, usa, g_kind=g_kind, model_kind="vmf_mu_kappa")
    assert calls == [usa_data.n]
    x = d.x.copy()
    x[[3, 7], 0] *= -1.0  # mirror two points into the unobserved half
    boundary = CountingHemisphere()
    expect = r"^2 data point\(s\) outside the region \(first at row 3\)"
    with pytest.raises(ValueError, match=expect):
        estimate(Dataset(x), boundary, g_kind=g_kind, drop_axis=axis)
    assert boundary.calls == [d.n]


# ---------------------------------------------------------------- objective


def test_objective_terms_weighting():
    t = ObjectiveTerms(1.0, 10.0, 100.0)
    assert t.total == 1.0 + 20.0 + 200.0


def test_objective_unit_g_inline_oracle():
    # with g = 1 the objective is mean(kappa^2 (1 - t^2)) - 4 kappa mean(t)
    d = hemi_dataset(120, seed=1)
    p = VmfParams(mu=np.array([0.2, -0.9, 0.1]), kappa=4.0)
    t = d.x @ p.mu
    expect_inner = float(np.mean(16.0 * (1.0 - t * t)))
    expect_lap = float(np.mean(-8.0 * t))
    terms = tmsm_objective(p, d, None, g_kind="unit")
    assert terms.inner_term == pytest.approx(expect_inner, abs=1e-12)
    assert terms.laplacian_term == pytest.approx(expect_lap, abs=1e-12)
    assert terms.gradient_g_term == 0.0


def test_objective_haversine_inline_oracle():
    # hemisphere: g = a - pi/2, grad g the unit vector along increasing a
    d = hemi_dataset(100, seed=2)
    p = VmfParams(mu=MU, kappa=6.0)
    a = np.arccos(np.clip(d.x[:, 0], -1.0, 1.0))
    sa = np.sin(a)
    g = a - np.pi / 2.0
    grad = np.stack(
        [-sa, (np.cos(a) / sa) * d.x[:, 1], (np.cos(a) / sa) * d.x[:, 2]], axis=-1
    )
    t = d.x @ p.mu
    expect = ObjectiveTerms(
        float(np.mean(g * 36.0 * (1.0 - t * t))),
        float(np.mean(g * -12.0 * t)),
        float(np.mean(6.0 * grad @ p.mu)),  # grad g is tangential already
    )
    got = tmsm_objective(p, d, HEMI, g_kind="haversine")
    assert got.inner_term == pytest.approx(expect.inner_term, abs=1e-10)
    assert got.laplacian_term == pytest.approx(expect.laplacian_term, abs=1e-10)
    assert got.gradient_g_term == pytest.approx(expect.gradient_g_term, abs=1e-10)


def test_objective_rejects_points_outside_region():
    d = Dataset(to_euclidean(np.array([0.3]), np.array([0.0])))
    with pytest.raises(ValueError):
        tmsm_objective(VmfParams(mu=MU, kappa=1.0), d, HEMI, g_kind="haversine")


def _form_terms(stats, p):
    """The Kent terms read off `stats.kent_terms` at the parameters p."""
    w, b_lap, b_gg = stats.kent_terms
    a = 2.0 * p.alpha * (np.outer(p.gamma1, p.gamma1) - np.outer(p.gamma2, p.gamma2))
    theta = np.concatenate([p.kappa * p.mu, a.ravel()])
    return ObjectiveTerms(theta @ w @ theta, b_lap @ theta, b_gg @ theta)


def _eta_objective(stats, eta):
    """J(eta) = eta^T M eta - 2 c^T eta, the eta block of the form."""
    return eta @ stats.m @ eta - 2.0 * stats.c @ eta


def _random_kent(rng):
    frame = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    kappa = rng.uniform(1.0, 8.0)
    return KentParams(frame[:, 0], frame[:, 1], frame[:, 2], kappa, rng.uniform(0.0, 0.49) * kappa)


def _grad_g(d, g_kind, axis):
    """grad g at the data, as `_scaling_stats` reads it on HEMI."""
    return scaling_values(None if g_kind == "unit" else HEMI, d.x, g_kind, axis)[1]


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_scaling_stats_moments_match_broadcast_reference(g_kind, axis):
    d = hemi_dataset(2000, seed=31)
    stats = _scaling_stats(d, None if g_kind == "unit" else HEMI, g_kind, axis)
    ref = scaling_moments(d.x, stats.g, _grad_g(d, g_kind, axis))
    for name, value in ref.items():
        assert np.max(np.abs(getattr(stats, name) - value)) <= 1e-15, name


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_scaling_stats_independent_of_memory_layout(g_kind, axis):
    # the moments are formed on (3, n) rows whatever the layout of x and grad g
    d = hemi_dataset(500, seed=12)
    g, grad = scaling_values(None if g_kind == "unit" else HEMI, d.x, g_kind, axis)
    names = ("gbar", "quad", "first", "tang", "tgrad", "tgrad_abs", "m", "c")
    ref = _ScalingStats(np.ascontiguousarray(d.x), g, np.ascontiguousarray(grad))
    for x in (np.ascontiguousarray(d.x), np.asfortranarray(d.x)):
        for grad_g in (np.ascontiguousarray(grad), np.asfortranarray(grad)):
            stats = _ScalingStats(x, g, grad_g)
            for name in names:
                got, want = np.asarray(getattr(stats, name)), np.asarray(getattr(ref, name))
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _usa_dataset(n):
    # criterion 8's truth, 25N 75W with kappa 6, outside the USA outline
    usa = load_boundary_csv("src/tmsm/data/usa_outline.csv")
    truth = VmfParams(to_euclidean(1.1344640137963142, -1.3089969389957472), 6.0)
    return Dataset(sample_truncated(truth, usa, n, substream_rng(8, n), 1000).x), usa


@pytest.mark.parametrize("region", ["hemi", "usa"])
def test_vmf_fits_match_sequential_moments(region):
    # the stats' point means are pairwise row sums; fits from the
    # sequential axis-0 means of `scaling_moments` differ only by rounding
    d, boundary = (hemi_dataset(2000, seed=7), HEMI) if region == "hemi" else _usa_dataset(2000)
    for g_kind in ("haversine", "projected"):
        stats = _scaling_stats(d, boundary, g_kind, None)
        ref = scaling_moments(d.x, stats.g, scaling_values(boundary, d.x, g_kind)[1])
        sequential = SimpleNamespace(
            m=stats.gbar * np.eye(3) - ref["quad"], c=2.0 * ref["first"] - ref["tgrad"],
            gbar=stats.gbar, tgrad_abs=ref["tgrad_abs"],
        )
        for kappa in (None, 6.0):
            got, want = _fit_vmf(stats, kappa), _fit_vmf(sequential, kappa)
            assert got.params.kappa == pytest.approx(want.params.kappa, rel=1e-12, abs=0.0)
            assert np.max(np.abs(got.params.mu - want.params.mu)) <= 1e-12
            assert got.objective == pytest.approx(want.objective, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model", ["vmf", "kent"])
def test_fast_path_matches_general_terms(model):
    d = hemi_dataset(150, seed=3)
    rng = np.random.default_rng(14)
    for g_kind, axis in (("haversine", None), ("projected", 2), ("unit", None)):
        stats = _scaling_stats(d, None if g_kind == "unit" else HEMI, g_kind, axis)
        grad = _grad_g(d, g_kind, axis)
        if model == "vmf":
            p = VmfParams(mu=np.array([0.4, -0.7, 0.3]), kappa=5.0)
            eta = p.kappa * p.mu
            total = pointwise_terms(p, stats.x, stats.g, grad).total
            assert _eta_objective(stats, eta) == pytest.approx(total, abs=1e-12)
            cases = [(p, ObjectiveTerms(eta @ stats.m @ eta, -2.0 * stats.first @ eta,
                                        stats.tgrad @ eta))]
        else:
            cases = []
            for _ in range(20):
                p = _random_kent(rng)
                cases.append((p, _form_terms(stats, p)))
        for p, fast in cases:
            slow = pointwise_terms(p, stats.x, stats.g, grad)
            public = tmsm_objective(p, d, None if g_kind == "unit" else HEMI, g_kind, axis)
            for got in (fast, public):
                assert got.inner_term == pytest.approx(slow.inner_term, abs=1e-12)
                assert got.laplacian_term == pytest.approx(slow.laplacian_term, abs=1e-12)
                assert got.gradient_g_term == pytest.approx(slow.gradient_g_term, abs=1e-12)


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_kent_w_in_place_equals_block_formula(g_kind, axis):
    # W filled block by block against np.block of the two Kronecker products,
    # built from the same (9, n) rows
    d = hemi_dataset(300, seed=40)
    stats = _scaling_stats(d, None if g_kind == "unit" else HEMI, g_kind, axis)
    xt, n = stats.xt, stats.xt.shape[1]
    xxt = (xt[:, None, :] * xt[None, :, :]).reshape(9, n)
    gxxt = stats.g * xxt
    cross = np.kron(np.eye(3), stats.first[None, :]) - (gxxt @ xt.T / n).T
    ref = np.block([[stats.m, cross], [cross.T, np.kron(np.eye(3), stats.quad) - gxxt @ xxt.T / n]])
    assert stats.kent_terms[0].tobytes() == ref.tobytes()
    # and to rounding the block formula of the (n, 9) products
    x = stats.x
    xx = (x[:, :, None] * x[:, None, :]).reshape(n, 9)
    gxx = stats.g[:, None] * xx
    cross = np.kron(np.eye(3), stats.first[None, :]) - (gxx.T @ x / n).T
    rows = np.block([[stats.m, cross], [cross.T, np.kron(np.eye(3), stats.quad) - gxx.T @ xx / n]])
    assert np.max(np.abs(stats.kent_terms[0] - rows)) <= 1e-14


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_vmf_fits_read_only_the_eta_block(g_kind, axis):
    d = hemi_dataset(300, seed=5)
    for kappa in (None, 6.0):
        stats = _scaling_stats(d, None if g_kind == "unit" else HEMI, g_kind, axis)
        res = _fit_vmf(stats, kappa)
        assert "kent_form" not in stats.__dict__ and "kent_terms" not in stats.__dict__
        assert res.objective == _eta_objective(stats, res.params.kappa * res.params.mu)
        w, b = stats.kent_form
        assert np.array_equal(stats.m, w[:3, :3])
        assert np.array_equal(stats.c, -b[:3] / 2.0)


# --------------------------------------------------------------- estimation


def test_estimate_recovers_truncated_vmf_mean():
    d = hemi_dataset(1000, seed=4)
    res = estimate(d, HEMI, g_kind="haversine", model_kind="vmf_mu_only",
                   fixed={"kappa": 6.0}, seed=0)
    assert isinstance(res, EstimationResult)
    assert res.converged
    assert geodesic_angle(res.params.mu, MU) < 0.05
    assert res.params.kappa == 6.0


def test_estimate_joint_kappa():
    d = hemi_dataset(2000, seed=5)
    res = estimate(d, HEMI, g_kind="haversine", model_kind="vmf_mu_kappa", seed=0)
    assert geodesic_angle(res.params.mu, MU) < 0.05
    assert res.params.kappa == pytest.approx(6.0, rel=0.2)


def test_estimate_unit_g_untruncated():
    # without truncation the unit scaling is valid and recovers the model
    x = sample_vmf(VmfParams(mu=MU, kappa=6.0), 4000, substream_rng(6, 0))
    res = estimate(Dataset(x), None, g_kind="unit", model_kind="vmf_mu_kappa", seed=0)
    assert geodesic_angle(res.params.mu, MU) < 0.05
    assert res.params.kappa == pytest.approx(6.0, rel=0.1)


def test_estimate_projected_orthogonal_drop():
    d = hemi_dataset(1000, seed=7)
    res = estimate(d, HEMI, g_kind="projected", model_kind="vmf_mu_only",
                   fixed={"kappa": 6.0}, seed=0, drop_axis=2)
    assert geodesic_angle(res.params.mu, MU) < 0.05


def test_estimate_projected_axis1_region_outside_the_disk():
    # the region a > 1.0 near the truth lies outside the projected disk of
    # radius sin 1.0; a g that vanished there fitted mu = e1 with objective 0
    boundary = ColatitudeBoundary(1.0)
    mu = to_euclidean(1.1, 0.5)
    s = sample_truncated(VmfParams(mu, 200.0), boundary, 500, substream_rng(3, 500), 1000)
    assert np.all(s.x[:, 0] > 0.0)  # one side of the plane x1 = 0, as axis 1 needs
    res = estimate(Dataset(s.x), boundary, g_kind="projected", model_kind="vmf_mu_only",
                   fixed={"kappa": 200.0}, drop_axis=1)
    assert res.objective < 0.0
    assert geodesic_angle(res.params.mu, mu) < 0.01


def test_estimate_kent_frame():
    g1 = np.array([0.0, 0.0, 1.0])
    truth = KentParams(mu=MU, gamma1=g1, gamma2=np.cross(MU, g1), kappa=10.0, alpha=3.0)
    s = sample_truncated(truth, HEMI, 800, substream_rng(8, 800), 1000)
    res = estimate(Dataset(s.x), HEMI, g_kind="haversine", model_kind="kent_frame",
                   fixed={"kappa": 10.0, "alpha": 3.0}, seed=0)
    assert geodesic_angle(res.params.mu, MU) < 0.12
    assert res.params.kappa == 10.0 and res.params.alpha == 3.0
    f = res.params.frame()
    assert np.allclose(f.T @ f, np.eye(3), atol=1e-10)
    # the search value from the cached moments is the reference objective
    g, grad = scaling_values(HEMI, s.x, "haversine")
    reference = pointwise_terms(res.params, s.x, g, grad)
    assert res.objective == pytest.approx(reference.total, rel=1e-12)


def test_estimate_kent_frame_is_free_of_the_data_layout():
    # C- and F-ordered copies of the same points give the same fit, to the bit
    g1 = np.array([0.0, 0.0, 1.0])
    truth = KentParams(mu=MU, gamma1=g1, gamma2=np.cross(MU, g1), kappa=10.0, alpha=3.0)
    for seed in range(3):
        x = sample_truncated(truth, HEMI, 1000, substream_rng(seed, 1000), 1000).x
        fits = [estimate(Dataset(layout), HEMI, model_kind="kent_frame",
                         fixed={"kappa": 10.0, "alpha": 3.0})
                for layout in (np.ascontiguousarray(x), np.asfortranarray(x))]
        c, f = (fit.params for fit in fits)
        assert c.frame().tobytes() == f.frame().tobytes()
        assert fits[0].objective == fits[1].objective
        terms = [_scaling_stats(Dataset(layout), HEMI, "haversine", None).kent_form
                 for layout in (np.ascontiguousarray(x), np.asfortranarray(x))]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*terms))


def test_estimate_kent_frame_gamma_sign_is_free_of_the_row_order():
    # J is even in (gamma1, gamma2), and the polishes of a permuted dataset
    # can end on the other sign of the same frame; the reported sign is
    # fixed by the frame (gamma1 . _GAMMA_SIGN >= 0), so the two fits agree
    g1 = np.array([0.0, 0.0, 1.0])
    truth = KentParams(mu=MU, gamma1=g1, gamma2=np.cross(MU, g1), kappa=10.0, alpha=3.0)
    fixed = {"kappa": 10.0, "alpha": 3.0}
    for n in (250, 1000):
        for i in range(60):
            x = sample_truncated(truth, HEMI, n, substream_rng(31, n, i), 1000).x
            permuted = x[np.random.default_rng(i).permutation(n)]
            a, b = (estimate(Dataset(d), HEMI, model_kind="kent_frame", fixed=fixed).params
                    for d in (x, permuted))
            assert a.gamma1 @ _GAMMA_SIGN >= 0.0 and b.gamma1 @ _GAMMA_SIGN >= 0.0
            assert np.abs(a.frame() - b.frame()).max() < 1e-10, (n, i)


def test_estimate_kent_frame_rejects_bimodal_shape():
    d = hemi_dataset(50, seed=9)
    with pytest.raises(ValueError, match="unimodality"):
        estimate(d, HEMI, model_kind="kent_frame", fixed={"kappa": 4.0, "alpha": 2.5})


def test_estimate_fixed_requirements():
    d = hemi_dataset(50, seed=9)
    with pytest.raises(ValueError, match="fixed"):
        estimate(d, HEMI, model_kind="vmf_mu_only")
    with pytest.raises(ValueError, match="fixed"):
        estimate(d, HEMI, model_kind="kent_frame", fixed={"kappa": 5.0})
    with pytest.raises(ValueError, match="model_kind"):
        estimate(d, HEMI, model_kind="stereographic")


@pytest.mark.parametrize("model_kind, fixed", [
    ("vmf_mu_kappa", {"kappa": 1e300, "alpha": 5.0}),
    ("vmf_mu_kappa", {"alpha": 5.0}),
    ("vmf_mu_only", {"kappa": 6.0, "alpha": 5.0}),
    ("kent_frame", {"kappa": 10.0, "alpha": 3.0, "beta": 1.0}),
])
def test_estimate_rejects_unused_fixed_parameters(model_kind, fixed):
    # a known parameter the model kind would ignore is an error, not a no-op
    d = hemi_dataset(50, seed=9)
    with pytest.raises(ValueError, match="does not use fixed"):
        estimate(d, HEMI, model_kind=model_kind, fixed=fixed)


@pytest.mark.parametrize("g_kind", ["haversine", "unit"])
def test_estimate_rejects_drop_axis_without_projected_g(g_kind):
    # the drop axis would be ignored, so passing one is an error
    d = hemi_dataset(50, seed=9)
    with pytest.raises(ValueError, match="does not use drop_axis"):
        estimate(d, HEMI, g_kind=g_kind, drop_axis=3)


@pytest.mark.parametrize("g_kind", ["haversine", "unit"])
def test_tmsm_objective_rejects_drop_axis_without_projected_g(g_kind):
    # only the projected g reads a drop axis, so one given with another g
    # is an error, as it is for `estimate`
    d = hemi_dataset(50, seed=9)
    with pytest.raises(ValueError, match="does not use drop_axis"):
        tmsm_objective(VmfParams(MU, 6.0), d, HEMI, g_kind=g_kind, drop_axis=2)


def test_ibp_identity_check_rejects_drop_axis_without_projected_g():
    p = VmfParams(MU, 6.0)
    with pytest.raises(ValueError, match="does not use drop_axis"):
        ibp_identity_check(p, p, HEMI, g_kind="haversine", grid_resolution=(8, 8), drop_axis=2)


def test_estimate_deterministic_per_seed():
    d = hemi_dataset(300, seed=10)
    r1 = estimate(d, HEMI, model_kind="vmf_mu_kappa", seed=5)
    r2 = estimate(d, HEMI, model_kind="vmf_mu_kappa", seed=5)
    assert np.array_equal(r1.params.mu, r2.params.mu)
    assert r1.params.kappa == r2.params.kappa
    assert r1.objective == r2.objective


@pytest.mark.parametrize("model_kind", ["vmf_mu_only", "kent_frame"])
@pytest.mark.parametrize("kappa", [0.0, -1.0, np.inf, 1e300, np.nan])
def test_invalid_fixed_kappa_rejected_before_any_g_work(model_kind, kappa):
    # the point lies outside HEMI, so a membership check run first would
    # fail with a different message
    d = Dataset(np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="fixed kappa"):
            estimate(d, HEMI, model_kind=model_kind, fixed={"kappa": kappa, "alpha": 0.0})


def test_estimate_equivariant_under_axial_rotation():
    # rotating data about the x1 pole leaves the hemisphere fixed and must
    # rotate the estimate with it
    d = hemi_dataset(800, seed=11)
    rot = Rotation.from_rotvec([0.7, 0.0, 0.0]).as_matrix()  # about x1
    d_rot = Dataset(d.x @ rot.T)
    r1 = estimate(d, HEMI, model_kind="vmf_mu_only", fixed={"kappa": 6.0}, seed=0)
    r2 = estimate(d_rot, HEMI, model_kind="vmf_mu_only", fixed={"kappa": 6.0}, seed=0)
    assert geodesic_angle(rot @ r1.params.mu, r2.params.mu) < 1e-5


def _brute_force_vmf(stats, kappa=None):
    """Best of many tight Nelder-Mead runs on the eta block; (mu, kappa, total)."""
    rng = np.random.default_rng(12)
    if kappa is None:
        def fun(eta):
            return _eta_objective(stats, eta)
        starts = rng.standard_normal((8, 3)) * 5.0
    else:
        def fun(ab):
            return _eta_objective(stats, kappa * to_euclidean(ab[0], ab[1]))
        starts = np.column_stack([rng.uniform(0.1, np.pi - 0.1, 8),
                                  rng.uniform(0.0, 2.0 * np.pi, 8)])
    best = min((minimize(fun, s, method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-13, "maxfev": 5000})
                for s in starts), key=lambda r: r.fun)
    if kappa is None:
        k = np.linalg.norm(best.x)
        return best.x / k, k, best.fun
    return to_euclidean(best.x[0], best.x[1]), kappa, best.fun


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_closed_form_vmf_matches_brute_force(g_kind, axis):
    boundary = None if g_kind == "unit" else HEMI
    for seed in (20, 21):
        d = hemi_dataset(300, seed=seed)
        stats = _scaling_stats(d, boundary, g_kind, axis)
        for model_kind, fixed in (("vmf_mu_kappa", None), ("vmf_mu_only", {"kappa": 6.0})):
            res = estimate(d, boundary, g_kind=g_kind, model_kind=model_kind,
                           fixed=fixed, drop_axis=axis)
            mu, kappa, best = _brute_force_vmf(stats, None if fixed is None else fixed["kappa"])
            assert geodesic_angle(res.params.mu, mu) < 1e-6
            assert res.params.kappa == pytest.approx(kappa, rel=1e-6)
            assert res.objective <= best + 1e-12
            assert res.objective == _eta_objective(stats, res.params.kappa * res.params.mu)
            assert (res.iterations, res.converged) == (0, True)


@pytest.mark.parametrize("interleaved", [True, False])
def test_closed_form_vmf_hard_case(interleaved):
    # antipodal pairs under unit g: c = 2 first - tgrad vanishes, so the
    # known-kappa fit is the bottom eigenvector of M = I - quad, i.e. the top
    # eigenvector of quad, and the free-kappa minimiser is eta = 0. Summing
    # interleaved pairs makes c exactly zero; stacked halves leave rounding,
    # which must fail the same way.
    x = sample_vmf(VmfParams(mu=MU, kappa=3.0), 200, substream_rng(13, 0))
    x = np.stack([x, -x], axis=1).reshape(-1, 3) if interleaved else np.vstack([x, -x])
    d = Dataset(x)
    stats = _scaling_stats(d, None, "unit", None)
    top = np.linalg.eigh(stats.quad)[1][:, -1]
    res = estimate(d, None, g_kind="unit", model_kind="vmf_mu_only", fixed={"kappa": 4.0})
    assert abs(abs(res.params.mu @ top) - 1.0) < 1e-10
    assert res.params.kappa == 4.0
    with pytest.raises(FloatingPointError, match="outside"):
        estimate(d, None, g_kind="unit", model_kind="vmf_mu_kappa")


@pytest.mark.parametrize("c,expect", [
    ([0.0, 0.5, 0.0], [np.sqrt(3.75), 0.5, 0.0]),  # hard case, either sign
    ([1e-12, 0.5, 0.0], [np.sqrt(3.75), 0.5, 0.0]),
    ([-1e-30, 0.5, 0.0], [-np.sqrt(3.75), 0.5, 0.0]),
    ([0.0, 5.0, 0.0], [0.0, 2.0, 0.0]),  # c'_0 = 0 but a root exists
    ([3.0, 1.0, -2.0], None),
])
def test_eta_on_sphere_against_lagrange_conditions(c, expect):
    m, c, kappa = np.diag([1.0, 2.0, 3.0]), np.array(c), 2.0
    eta = _eta_on_sphere(m, c, kappa)
    assert np.linalg.norm(eta) == pytest.approx(kappa, rel=1e-10)
    if expect is not None:
        got = eta.copy()
        if c[0] == 0.0:
            got[0] = abs(got[0])  # the sign along the bottom eigenvector is free
        assert np.allclose(got, expect, atol=1e-9)
    # global minimum on the sphere: (M + t I) eta = c with t >= -lambda_min
    t = (c - m @ eta) @ eta / kappa**2
    assert np.allclose((m + t * np.eye(3)) @ eta, c, atol=1e-9)
    assert t >= -1.0 - 1e-9


@pytest.mark.parametrize("g_kind", ["haversine", "projected"])
def test_estimate_single_point_fails_loudly(g_kind):
    # M = g (I - x x^T) is singular: Cholesky either fails or, after
    # rounding, yields a concentration far above KAPPA_CAP
    d = Dataset(unit_vector(np.array([-0.3, -0.9, 0.2])))
    with pytest.raises(FloatingPointError):
        estimate(d, HEMI, g_kind=g_kind, model_kind="vmf_mu_kappa")


def _brentq_eta_on_sphere(m, c, kappa):
    """The secular equation solved by scipy's eigh and brentq, to a
    relative tolerance of about 1e-15 in s."""
    lam, vecs = scipy_eigh(m)
    cp = vecs.T @ c
    gap = lam - lam[0]

    def eta_of(s):
        return np.divide(cp, gap + s, out=np.zeros(3), where=cp != 0.0)

    def excess(s):
        return np.linalg.norm(eta_of(s)) - kappa

    lo = abs(cp[0]) / (2.0 * kappa)
    hi = 2.0 * np.linalg.norm(c) / kappa
    if lo == 0.0 and excess(0.0) <= 0.0:
        y = eta_of(0.0)
        y[0] = np.sqrt(kappa * kappa - y @ y)
        return vecs @ y
    s = brentq(excess, lo, hi, xtol=4e-16 * (lo if lo > 0.0 else hi), maxiter=500)
    return vecs @ eta_of(s)


def _secular_cases(count=200, hard_every=10):
    """Random PSD M (eigenvalue gaps at least 0.2 of its scale), c and
    kappa. |c'_0| / |c| runs from 1e-14 to 1, and |eta(0)| without the
    c'_0 term stays at least 10% from kappa on either side; every
    `hard_every`-th case is the hard case, with a diagonal M and c_0 = 0."""
    rng = np.random.default_rng(20261019)
    for i in range(count):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        lam = scale * np.cumsum([rng.uniform(0.0, 1.0), rng.uniform(0.2, 1.0),
                                 rng.uniform(0.2, 1.0)])
        hard = i % hard_every == 0
        q = np.eye(3) if hard else np.linalg.qr(rng.normal(size=(3, 3)))[0]
        kappa = 10.0 ** rng.uniform(-1.0, 2.0)
        cp = rng.normal(size=3)
        ratio = rng.uniform(0.2, 0.9) if hard or i % 2 else rng.uniform(1.1, 5.0)
        cp[1:] *= ratio * kappa / np.linalg.norm(cp[1:] / (lam[1:] - lam[0]))
        cp[0] = 0.0 if hard else np.sign(cp[0]) * 10.0 ** rng.uniform(-14.0, 0.0) * np.linalg.norm(cp)
        yield (q * lam) @ q.T, q @ cp, kappa, hard


def test_eta_on_sphere_matches_brentq_reference():
    cases = list(_secular_cases())
    assert sum(hard for *_, hard in cases) == 20
    for m, c, kappa, hard in cases:
        eta, ref = _eta_on_sphere(m, c, kappa), _brentq_eta_on_sphere(m, c, kappa)
        if hard:  # the sign along the bottom eigenvector e_0 is free
            eta[0], ref[0] = abs(eta[0]), abs(ref[0])
        assert np.linalg.norm(eta - ref) <= 1e-12 * kappa


def test_vmf_mu_kappa_matches_cho_solve_on_the_paper_grid():
    config = ExperimentConfig()
    usa = load_boundary_csv("src/tmsm/data/usa_outline.csv")
    regions = [
        (HEMI, truth_params(config)),
        # criterion 8's truth, 25N 75W with kappa 6, outside the USA outline
        (usa, VmfParams(to_euclidean(1.1344640137963142, -1.3089969389957472), 6.0)),
    ]
    for boundary, truth in regions:
        for n in config.n_grid:
            x = sample_truncated(truth, boundary, n, substream_rng(3, n), 1000).x
            for g_kind in ("haversine", "projected"):
                stats = _scaling_stats(Dataset(x), boundary, g_kind, None)
                ref = cho_solve(cho_factor(stats.m), stats.c)
                p = _fit_vmf(stats, None).params
                assert np.linalg.norm(p.kappa * p.mu - ref) <= 1e-13 * np.linalg.norm(ref)


# --------------------------------------------------------------- quadrature


def test_grids_integrate_known_areas():
    nodes, w = sphere_grid(200, 200)
    assert w.sum() == pytest.approx(4.0 * np.pi, rel=1e-4)
    nodes, w = region_grid(HEMI, 200, 200)
    assert w.sum() == pytest.approx(2.0 * np.pi, rel=1e-4)
    # moment of x1^2 over the hemisphere: 2 pi / 3
    assert w @ (nodes[:, 0] ** 2) == pytest.approx(2.0 * np.pi / 3.0, rel=1e-4)


def test_identity_check_compliant_g():
    p = VmfParams(mu=to_euclidean(1.8, 2.5), kappa=3.0)
    q = VmfParams(mu=MU, kappa=6.0)
    out = ibp_identity_check(p, q, HEMI, g_kind="haversine", grid_resolution=(100, 100))
    assert set(out) == {"lhs", "rhs", "gap"}
    assert out["gap"] < 1e-3


def test_identity_check_violated_by_unit_g():
    # g = 1 does not vanish on the boundary, so the integrated-by-parts form
    # keeps a boundary term and the gap neither closes nor shrinks
    p = VmfParams(mu=to_euclidean(1.8, 2.5), kappa=3.0)
    q = VmfParams(mu=MU, kappa=6.0)
    ok = ibp_identity_check(p, q, HEMI, g_kind="haversine", grid_resolution=(100, 100))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bad = ibp_identity_check(p, q, HEMI, g_kind="unit", grid_resolution=(100, 100))
    assert bad["gap"] > 10.0 * ok["gap"]
    assert any("did not shrink" in str(w.message) for w in caught)


@pytest.mark.parametrize("truth", ["vmf", "kent"])
@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_identity_sides_match_pointwise_quadrature(truth, g_kind, axis):
    g1 = np.array([0.0, 0.0, 1.0])
    q = (VmfParams(mu=MU, kappa=6.0) if truth == "vmf"
         else KentParams(mu=MU, gamma1=g1, gamma2=np.cross(MU, g1), kappa=10.0, alpha=3.0))
    mu = to_euclidean(1.8, 2.5)
    frame = np.linalg.qr(np.column_stack([mu, [0.3, 0.2, 0.9], [1.0, 0.0, 0.0]]))[0]
    for p in (VmfParams(mu=mu, kappa=3.0), KentParams(*frame.T, kappa=8.0, alpha=2.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # unit g does not converge
            out = ibp_identity_check(p, q, HEMI, g_kind=g_kind, grid_resolution=(100, 100),
                                     drop_axis=axis)
        lhs, rhs = pointwise_identity_sides(p, q, HEMI, g_kind, 100, 100, axis)
        assert abs(out["lhs"] - lhs) <= 1e-12 * abs(lhs)
        assert abs(out["rhs"] - rhs) <= 1e-12 * abs(rhs)


def test_identity_check_polyline_unsupported():
    tri = PolylineBoundary(to_euclidean([0.4] * 3, [0.0, 2.0, 4.0]))
    p = VmfParams(mu=MU, kappa=2.0)
    with pytest.raises(NotImplementedError):
        ibp_identity_check(p, p, tri)


# ------------------------------------------------------- kent frame search


def _derivatives(w, b, kappa, alpha, frames):
    """(J, gradient, Hessian) over turns at each of `frames` (m, 3, 3)."""
    state = _frame_state(_polish_form(w, b, _table_scale(kappa, alpha)), frames)
    return state[:, 0], state[:, 1:4], state[:, 4:].reshape(-1, 3, 3)


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_polish_form_matches_generator_state(g_kind, axis):
    # one product with the per-fit (169, 13) map against the 12x12 generators
    d = hemi_dataset(150, seed=36)
    stats = _scaling_stats(d, None if g_kind == "unit" else HEMI, g_kind, axis)
    w, b = stats.kent_form
    rng = np.random.default_rng(37)
    for k in range(50):
        p = _random_kent(rng)
        alpha = 0.0 if k % 10 == 0 else p.alpha
        frame = p.frame().T[None]
        got = _derivatives(w, b, p.kappa, alpha, frame)
        ref = frame_state_by_generators(w, b, _table_scale(p.kappa, alpha), frame)
        for new, old in zip(got, ref):
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


def test_turn_matches_rotation_vectors():
    frames = Rotation.random(6, random_state=38).as_matrix()  # rows: mu, gamma1, gamma2
    axes = np.random.default_rng(39).standard_normal((6, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    for angle in (0.0, 1e-12, 1e-4, 1.0, np.pi - 1e-9):
        omega = angle * axes
        ref = frames @ Rotation.from_rotvec(omega).as_matrix().transpose(0, 2, 1)
        assert np.max(np.abs(_turn(frames, omega) - ref)) <= 2e-15
    # a zero turn returns its frame bit for bit, also beside turning ones
    omega = np.where(np.arange(6)[:, None] % 2 == 0, 0.0, axes)
    turned = _turn(frames, omega)
    assert turned[::2].tobytes() == frames[::2].tobytes()
    assert np.all(np.abs(turned[1::2] - frames[1::2]).max(axis=(1, 2)) > 0.1)


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_kent_derivatives_match_turn_expansion(g_kind, axis):
    # the generator form against the turns of mu and S written out
    d = hemi_dataset(150, seed=16)
    stats = _scaling_stats(d, None if g_kind == "unit" else HEMI, g_kind, axis)
    w, b = stats.kent_form
    rng = np.random.default_rng(30)
    for _ in range(50):
        p = _random_kent(rng)
        frame = p.frame().T[None]
        got = _derivatives(w, b, p.kappa, p.alpha, frame)
        for new, ref in zip(got, frame_derivatives_by_turns(w, b, p.kappa, p.alpha, frame)):
            assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_kent_gradient_matches_central_differences(g_kind, axis):
    d = hemi_dataset(150, seed=16)
    stats = _scaling_stats(d, None if g_kind == "unit" else HEMI, g_kind, axis)
    w, b = stats.kent_form
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(20):
        p = _random_kent(rng)
        frame = _turn(p.frame().T[None], rng.uniform(-1.0, 1.0, (1, 3)))
        value, grad, _ = _derivatives(w, b, p.kappa, p.alpha, frame)
        turned = KentParams(*frame[0], p.kappa, p.alpha)
        assert value[0] == pytest.approx(_form_terms(stats, turned).total, abs=1e-12)
        fd = [(_derivatives(w, b, p.kappa, p.alpha, _turn(frame, h * e[None]))[0][0]
               - _derivatives(w, b, p.kappa, p.alpha, _turn(frame, -h * e[None]))[0][0])
              / (2.0 * h) for e in np.eye(3)]
        assert np.allclose(grad[0], fd, rtol=1e-6, atol=1e-6)


def _frame_objective(w, b, kappa, alpha, frame):
    """
    J at one frame (rows mu, gamma1, gamma2) and its turn gradient, by the
    chain rule through the rows: with u = 2 W t + b and U = u[3:] as a 3x3
    matrix, dJ/dmu = kappa u[:3], dJ/dgamma1 = 2 alpha (U + U^T) gamma1 and
    dJ/dgamma2 = -2 alpha (U + U^T) gamma2; a turn d omega moves each row
    r_k by d omega x r_k, so the gradient is sum_k r_k x dJ/dr_k.
    """
    mu, g1, g2 = frame
    shape = np.outer(g1, g1) - np.outer(g2, g2)
    t = np.concatenate([kappa * mu, 2.0 * alpha * shape.ravel()])
    wt = w @ t
    u = 2.0 * wt + b
    su = u[3:].reshape(3, 3)
    su = 2.0 * alpha * (su + su.T)
    spin = np.cross(mu, kappa * u[:3]) + np.cross(g1, su @ g1) - np.cross(g2, su @ g2)
    return t @ wt + b @ t, spin


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_kent_newton_derivatives_match_angle_gradient_and_differences(g_kind, axis):
    d = hemi_dataset(150, seed=16)
    stats = _scaling_stats(d, None if g_kind == "unit" else HEMI, g_kind, axis)
    w, b = stats.kent_form
    levi = np.cross(np.eye(3)[:, None], np.eye(3)[None])
    rng = np.random.default_rng(22)
    h = 1e-5
    for _ in range(20):
        p = _random_kent(rng)
        frame = p.frame().T[None]  # rows mu, gamma1, gamma2
        value, grad, hess = _derivatives(w, b, p.kappa, p.alpha, frame)
        assert value[0] == pytest.approx(_form_terms(stats, p).total, abs=1e-12)
        spin = _frame_objective(w, b, p.kappa, p.alpha, frame[0])[1]
        assert np.allclose(grad[0], spin, rtol=1e-12, atol=1e-12)
        assert np.allclose(hess[0], hess[0].T, rtol=0.0, atol=1e-12)
        # the gradient at exp([omega]x) F is taken along turns of that frame,
        # so its differences add the bracket term levi_ijk g_k / 2 to H_ij
        fd = np.empty((3, 3))
        for j, e in enumerate(np.eye(3)):
            up, down = (frame @ Rotation.from_rotvec(sign * h * e).as_matrix().T
                        for sign in (1.0, -1.0))
            fd[:, j] = (_derivatives(w, b, p.kappa, p.alpha, up)[1][0]
                        - _derivatives(w, b, p.kappa, p.alpha, down)[1][0]) / (2.0 * h)
        assert np.allclose(0.5 * (fd + fd.T), hess[0], rtol=1e-5, atol=1e-6)
        assert np.allclose(0.5 * (fd - fd.T), 0.5 * levi @ grad[0], rtol=1e-5, atol=1e-6)


def test_kent_newton_polish_descends_where_the_hessian_is_indefinite():
    d = hemi_dataset(300, seed=28)
    stats = _scaling_stats(d, HEMI, "haversine", None)
    w, b = stats.kent_form
    frames = Rotation.random(24, random_state=29).as_matrix()
    value, _, hess = _derivatives(w, b, 6.0, 1.0, frames)
    assert np.sum(np.linalg.eigvalsh(hess)[:, 0] < 0.0) >= 8
    _, polished, gnorm, _ = (out[0] for out in _newton_polish([stats], 6.0, 1.0, [frames]))
    assert np.all(polished < value)
    assert np.all(gnorm <= 1e-6 * np.maximum(1.0, np.abs(polished)))


def test_kent_newton_polish_ends_by_the_gradient_test_on_the_paper_grid():
    # near the minimum the Newton decrease falls below the rounding of J,
    # so only full steps there bring every start to the gradient test
    config = ExperimentConfig(experiment="kent_known_shape")
    truth, boundary = truth_params(config), build_boundary(config.boundary)
    above = 0
    for n in config.n_grid:
        for replicate in range(24):
            x = sample_truncated(truth, boundary, n, substream_rng(0, n, replicate), 1000).x
            stats = _scaling_stats(Dataset(x), boundary, "haversine", None)
            starts = _grid_starts([stats], truth.kappa, truth.alpha)
            _, value, gnorm, _ = (out[0] for out in _newton_polish([stats], truth.kappa,
                                                                   truth.alpha, starts))
            above += int(np.sum(gnorm > 1e-10 * np.maximum(1.0, np.abs(value))))
    assert above == 0


def _reference_grid_values(stats, kappa, alpha):
    """J at every grid frame, scored directly on its (kappa mu, 2 alpha vec S)."""
    w, b = stats.kent_form
    shape = (_FRAME_GRID[:, 1, :, None] * _FRAME_GRID[:, 1, None, :]
             - _FRAME_GRID[:, 2, :, None] * _FRAME_GRID[:, 2, None, :]).reshape(-1, 9)
    t = np.hstack([kappa * _FRAME_GRID[:, 0], 2.0 * alpha * shape])
    return np.einsum("mi,ij,mj->m", t, w, t, optimize=True) + t @ b


def _direction_picks(values):
    """
    Grid indices of the start picks from the 3,600 grid values, by brute
    force over the 300 directions: each direction's lowest value and the
    first of its 12 angles to hold it, then a full separation pass over
    the directions per pick, the lowest free direction first (ties lowest
    index first).
    """
    mu = _FRAME_GRID[::12, 0]
    best, angle = np.empty(len(mu)), np.empty(len(mu), dtype=int)
    for d in range(len(mu)):
        row = list(values[12 * d:12 * d + 12])
        best[d] = min(row)
        angle[d] = row.index(best[d])
    free = np.ones(len(mu), dtype=bool)
    picked = []
    while len(picked) < 4:
        d = np.flatnonzero(free)[np.argmin(best[free])]
        picked.append(12 * d + angle[d])
        free &= geodesic_angle(mu, mu[d]) > _START_SEPARATION
    return np.array(picked)


def _start_cases():
    """(x, boundary, g_kind, drop_axis, kappa, alpha) of the grid start tests."""
    g1 = np.array([0.0, 0.0, 1.0])
    kent = KentParams(mu=MU, gamma1=g1, gamma2=np.cross(MU, g1), kappa=10.0, alpha=3.0)
    cap = ColatitudeBoundary(2.2)
    multimodal = sample_truncated(VmfParams(to_euclidean(2.669, 2.1101), 7.773), cap, 40,
                                  substream_rng(194, 40), 1000).x
    return [
        (sample_truncated(kent, HEMI, 300, substream_rng(19, 300), 1000).x, HEMI,
         "haversine", None, 10.0, 3.0),
        (sample_truncated(kent, HEMI, 1000, substream_rng(23, 1000), 1000).x, HEMI,
         "haversine", None, 10.0, 3.0),
        (sample_truncated(kent, HEMI, 400, substream_rng(24, 400), 1000).x, HEMI,
         "projected", 2, 10.0, 3.0),
        (sample_kent(kent, 300, substream_rng(25, 0)), None, "unit", None, 10.0, 3.0),
        (hemi_dataset(200, seed=26).x, HEMI, "haversine", None, 6.0, 1.0),
        (hemi_dataset(200, seed=27).x, None, "unit", None, 4.0, 1.5),
        (multimodal, cap, "projected", 1, 5.0919, 2.1407),
    ]


def test_grid_starts_match_full_separation_passes():
    # the per-direction brute force on grid values scored directly, and
    # starts whose mu are pairwise more than 0.5 rad apart
    for x, boundary, g_kind, axis, kappa, alpha in _start_cases():
        stats = _scaling_stats(Dataset(x), boundary, g_kind, axis)
        [starts] = _grid_starts([stats], kappa, alpha)
        assert len(starts) == 4
        ref = _direction_picks(_reference_grid_values(stats, kappa, alpha))
        assert np.array_equal(starts, _FRAME_GRID[ref])
        far = geodesic_angle(starts[:, None, 0], starts[None, :, 0]) > _START_SEPARATION
        assert np.array_equal(far, ~np.eye(4, dtype=bool))


def _random_cap_fits(count, seed):
    """(x, boundary, g_kind, drop_axis, kappa, alpha) of `count` random cap
    fits: a > a0 for a0 in [1.2, 2.6], vMF and Kent truths with mu in or
    near the cap, kappa in [2, 12] and alpha up to 0.49 kappa, n from 10 to
    80, haversine, projected (drop axis 2) and unit g."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        a0 = rng.uniform(1.2, 2.6)
        boundary = ColatitudeBoundary(a0)
        kappa = rng.uniform(2.0, 12.0)
        alpha = rng.uniform(0.0, 0.49 * kappa)
        mu = to_euclidean(rng.uniform(a0 - 0.2, np.pi), rng.uniform(0.0, 2.0 * np.pi))
        if i % 2:
            g1 = unit_vector(np.cross(mu, rng.standard_normal(3)))
            truth = KentParams(mu, g1, np.cross(mu, g1), kappa, alpha)
        else:
            truth = VmfParams(mu, kappa)
        n = int(rng.integers(10, 81))
        x = sample_truncated(truth, boundary, n, substream_rng(seed, n, i), 1000).x
        g_kind, axis = [("haversine", None), ("projected", 2), ("unit", None)][i % 3]
        cases.append((x, None if g_kind == "unit" else boundary, g_kind, axis, kappa, alpha))
    return cases


def test_kent_fit_reaches_the_frame_separated_starts_objective():
    # the starts picked by direction polish to an objective no higher than
    # the best frames pairwise 0.5 rad apart as rotations did, within
    # rounding: on the start cases (the brute-force cases among them) and
    # on 240 random caps
    for x, boundary, g_kind, axis, kappa, alpha in _start_cases() + _random_cap_fits(240, 34):
        stats = _scaling_stats(Dataset(x), boundary, g_kind, axis)
        [res] = _fit_kent_frames([stats], kappa, alpha)
        ref = frame_separated_objective(stats, kappa, alpha)
        assert res.objective <= ref + 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("g_kind,axis", [("haversine", None), ("projected", 2), ("unit", None)])
def test_grid_values_per_direction_match_direct_table_scoring(g_kind, axis):
    g1 = np.array([0.0, 0.0, 1.0])
    kent = KentParams(mu=MU, gamma1=g1, gamma2=np.cross(MU, g1), kappa=10.0, alpha=3.0)
    if g_kind == "unit":
        stats = _scaling_stats(Dataset(sample_kent(kent, 300, substream_rng(32, 0))), None,
                               "unit", None)
    else:
        x = sample_truncated(kent, HEMI, 300, substream_rng(31, 300), 1000).x
        stats = _scaling_stats(Dataset(x), HEMI, g_kind, axis)
    for kappa, alpha in [(10.0, 3.0), (6.0, 1.0), (5.0919, 2.1407), (6.0, 0.0)]:
        ref = _reference_grid_values(stats, kappa, alpha)
        [got] = _grid_values([stats], kappa, alpha)
        assert got.shape == (len(_FRAME_GRID),)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_pick_starts_match_full_stable_sort_with_ties():
    rng = np.random.default_rng(33)
    cases = [np.zeros(len(_FRAME_GRID)), np.repeat(np.arange(300.0)[::-1], 12)]
    cases += [rng.integers(0, levels, len(_FRAME_GRID)).astype(float) for levels in (2, 5, 40, 400)]
    for values in cases:
        assert np.unique(values).size < len(values)  # every case holds exact ties
        assert np.array_equal(_pick_starts(values[None])[0], _direction_picks(values))
    # equal values give 4 directions, where the best frames pairwise 0.5 rad
    # apart as rotations are 4 angles of the first direction
    assert np.array_equal(_pick_starts(cases[0][None])[0], [0, 204, 228, 276])
    assert np.array_equal(frame_separated_starts(cases[0]), [0, 2, 4, 6])
    # all at once, each row as alone
    assert np.array_equal(_pick_starts(np.stack(cases)),
                          np.stack([_pick_starts(values[None])[0] for values in cases]))


def test_newton_polish_start_does_not_depend_on_its_batch():
    for x, boundary, g_kind, axis, kappa, alpha in _start_cases():
        stats = _scaling_stats(Dataset(x), boundary, g_kind, axis)
        [starts] = _grid_starts([stats], kappa, alpha)
        frames, value, gnorm, evals = (out[0] for out in _newton_polish([stats], kappa, alpha,
                                                                        [starts]))
        alone_evals = 0
        for i, start in enumerate(starts):
            f, v, g, e = (out[0] for out in _newton_polish([stats], kappa, alpha, [start[None]]))
            tol = 1e-13 * max(1.0, abs(v[0]))
            assert np.max(np.abs(frames[i] - f[0])) <= 1e-13
            assert abs(value[i] - v[0]) <= tol and abs(gnorm[i] - g[0]) <= tol
            alone_evals += e
        assert evals == alone_evals


def _result_bits(res):
    """Everything a fit reports, as exact values."""
    return res.params.frame().tobytes(), res.objective, res.iterations, res.converged


def test_kent_frames_fitted_together_match_each_fit_alone():
    # every _start_cases dataset, fitted at each case's (kappa, alpha): n from
    # 40 to 1000, haversine, projected and unit g, and the multimodal cap
    cases = _start_cases()
    stats = [_scaling_stats(Dataset(x), boundary, g_kind, axis)
             for x, boundary, g_kind, axis, _, _ in cases]
    for kappa, alpha in sorted({case[4:] for case in cases}):
        values = _grid_values(stats, kappa, alpha)
        assert values.shape == (len(stats), len(_FRAME_GRID))
        together = _fit_kent_frames(stats, kappa, alpha)
        for i, one in enumerate(stats):
            assert values[i].tobytes() == _grid_values([one], kappa, alpha)[0].tobytes()
            [alone] = _fit_kent_frames([one], kappa, alpha)
            assert _result_bits(together[i]) == _result_bits(alone)
        # and in the reverse order, so no fit leads its batch every time
        reverse = _fit_kent_frames(stats[::-1], kappa, alpha)[::-1]
        assert [_result_bits(r) for r in reverse] == [_result_bits(r) for r in together]


def _euler_objective(stats, kappa, alpha, ref):
    """
    (fun, frame): J over the frames ref @ R^T, R = Rx Ry Rz of three angles
    by `Rotation.from_euler`, and the frame at given angles. With jac=True
    fun returns (value, gradient): the angles turn about e1, Rx e2 and
    Rx Ry e3, so their gradient is those axes dotted with the turn gradient
    of `_frame_objective`.
    """
    w, b = stats.kent_form

    def frame(theta):
        return ref @ Rotation.from_euler("XYZ", theta).as_matrix().T

    def fun(theta, jac=False):
        value, spin = _frame_objective(w, b, kappa, alpha, frame(theta))
        if not jac:
            return value
        c1, s1 = np.cos(theta[0]), np.sin(theta[0])
        c2, s2 = np.cos(theta[1]), np.sin(theta[1])
        axes = np.array([[1.0, 0.0, 0.0], [0.0, c1, s1], [s2, -s1 * c2, c1 * c2]])
        return value, axes @ spin

    return fun, frame


def test_kent_newton_matches_bfgs_reference():
    """
    The Newton polish against BFGS over Euler angles from the same four
    grid starts, on 40 hemisphere Kent datasets.
    """
    g1 = np.array([0.0, 0.0, 1.0])
    truth = KentParams(mu=MU, gamma1=g1, gamma2=np.cross(MU, g1), kappa=10.0, alpha=3.0)
    for n in (250, 1000):
        for seed in range(20):
            d = Dataset(sample_truncated(truth, HEMI, n, substream_rng(11, n, seed), 1000).x)
            stats = _scaling_stats(d, HEMI, "haversine", None)
            res = estimate(d, HEMI, g_kind="haversine", model_kind="kent_frame",
                           fixed={"kappa": 10.0, "alpha": 3.0})
            ref = (np.inf, None)
            for start in _grid_starts([stats], 10.0, 3.0)[0]:
                fun, frame = _euler_objective(stats, 10.0, 3.0, start)
                r = minimize(fun, np.zeros(3), args=(True,), jac=True, method="BFGS",
                             options={"gtol": 1e-8, "maxiter": 200})
                if r.fun < ref[0]:
                    ref = (r.fun, KentParams(*frame(r.x), 10.0, 3.0))
            assert res.converged
            assert res.objective <= ref[0] + 1e-12
            assert geodesic_angle(res.params.mu, ref[1].mu) < 1e-7
            assert _axis_angle(res.params.gamma1, ref[1].gamma1) < 1e-7


def _brute_force_kent(stats, kappa, alpha):
    """
    Dense minimum over SO(3): Nelder-Mead from each of the 24 best of 72,000
    random frames whose mu or gamma1 axis is at least 0.3 rad from every
    better start; (objective, KentParams).
    """
    frames = Rotation.random(72000, random_state=18).as_matrix()  # rows: mu, gamma1, gamma2
    shape = (frames[:, 1, :, None] * frames[:, 1, None, :]
             - frames[:, 2, :, None] * frames[:, 2, None, :]).reshape(-1, 9)
    t = np.hstack([kappa * frames[:, 0], 2.0 * alpha * shape])
    w, b = stats.kent_form
    values = ((t @ w) * t).sum(axis=1) + t @ b
    best = (np.inf, None)
    free = np.ones(len(frames), dtype=bool)
    for _ in range(24):
        k = np.flatnonzero(free)[np.argmin(values[free])]
        near = (frames[:, 0] @ frames[k, 0] > np.cos(0.3)) & (
            np.abs(frames[:, 1] @ frames[k, 1]) > np.cos(0.3))
        free &= ~near
        fun, frame = _euler_objective(stats, kappa, alpha, frames[k])
        res = minimize(fun, np.zeros(3), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxfev": 4000})
        if res.fun < best[0]:
            best = (res.fun, KentParams(*frame(res.x), kappa, alpha))
    return best


def _axis_angle(u, v):
    return min(geodesic_angle(u, v), geodesic_angle(u, -v))


@pytest.mark.parametrize("case", ["hemisphere", "multimodal"])
def test_kent_frame_matches_brute_force(case):
    if case == "hemisphere":
        g1 = np.array([0.0, 0.0, 1.0])
        truth = KentParams(mu=MU, gamma1=g1, gamma2=np.cross(MU, g1), kappa=10.0, alpha=3.0)
        boundary, g_kind, axis, kappa, alpha = HEMI, "haversine", None, 10.0, 3.0
        x = sample_truncated(truth, boundary, 300, substream_rng(19, 300), 1000).x
    else:
        # vMF data fitted with a strong Kent shape: the objective of the
        # axis-1 projected g has close basins, and polishing only the best
        # grid frame ends in the wrong one
        truth = VmfParams(to_euclidean(2.669, 2.1101), 7.773)
        boundary, g_kind, axis = ColatitudeBoundary(2.2), "projected", 1
        kappa, alpha = 5.0919, 2.1407
        x = sample_truncated(truth, boundary, 40, substream_rng(194, 40), 1000).x
    d = Dataset(x)
    stats = _scaling_stats(d, boundary, g_kind, axis)
    res = estimate(d, boundary, g_kind=g_kind, model_kind="kent_frame",
                   fixed={"kappa": kappa, "alpha": alpha}, drop_axis=axis)
    best, p = _brute_force_kent(stats, kappa, alpha)
    assert res.objective <= best + 1e-10
    assert geodesic_angle(res.params.mu, p.mu) < 1e-6
    assert _axis_angle(res.params.gamma1, p.gamma1) < 1e-6
    assert res.converged and res.iterations > 0
    [starts] = _grid_starts([stats], kappa, alpha)
    single = _newton_polish([stats], kappa, alpha, [starts[:1]])[1][0, 0]
    if case == "multimodal":
        assert single > res.objective + 1e-3
    else:
        assert single == pytest.approx(res.objective, abs=1e-10)


def test_kent_frame_rotation_equivariant_unit_g():
    g1 = np.array([0.0, 0.0, 1.0])
    truth = KentParams(mu=MU, gamma1=g1, gamma2=np.cross(MU, g1), kappa=10.0, alpha=3.0)
    x = sample_kent(truth, 500, substream_rng(20, 0))
    fixed = {"kappa": 10.0, "alpha": 3.0}
    r1 = estimate(Dataset(x), None, g_kind="unit", model_kind="kent_frame", fixed=fixed)
    for q in Rotation.random(3, random_state=21).as_matrix():
        r2 = estimate(Dataset(x @ q.T), None, g_kind="unit", model_kind="kent_frame", fixed=fixed)
        assert geodesic_angle(q @ r1.params.mu, r2.params.mu) < 1e-6
        assert _axis_angle(q @ r1.params.gamma1, r2.params.gamma1) < 1e-6
        assert r2.objective == pytest.approx(r1.objective, abs=1e-10)
