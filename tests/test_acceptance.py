"""
End-to-end acceptance checks.

Each test prints one verdict line (`criterion N: PASS/FAIL - detail`);
run with `pytest tests/test_acceptance.py -s` to see the lines for
passing criteria as well. Criteria 3, 4, 5, and 8 run full replicate
benchmarks; the whole file takes about 5 s on one core of a shared
2-core Linux VM (3.4-4.4 s measured).
"""

import hashlib
import time
import warnings
from importlib import resources

import numpy as np

from reference import model_laplacian_term, score_jacobian, sphere_grid
from tmsm.bench import ExperimentConfig, run_benchmark, run_storms, truth_params
from tmsm.boundary import (
    ColatitudeBoundary,
    latlon_to_spherical,
    load_boundary_csv,
    scaling_values,
    spherical_to_latlon,
)
from tmsm.estimator import (
    Dataset,
    _frame_state,
    _polish_form,
    _scaling_stats,
    _table_scale,
    _turn,
    ibp_identity_check,
)
from tmsm.geometry import complete_frame, geodesic_angle, to_euclidean, unit_vector
from tmsm.models import (
    VmfParams,
    log_unnormalized_density,
    score,
)
from tmsm.sampling import sample_kent, sample_truncated, sample_vmf, substream_rng

MU = np.array([0.0, -1.0, 0.0])
HEMI = ColatitudeBoundary(0.5 * np.pi)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_objective_identity_witness():
    t0 = time.monotonic()
    p = VmfParams(to_euclidean(1.8, 2.5), 3.0)
    q = VmfParams(MU, 6.0)
    gaps = [
        ibp_identity_check(p, q, HEMI, "haversine", (r, r))["gap"]
        for r in (100, 200, 400)
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bad_gap = ibp_identity_check(p, q, HEMI, "unit", (400, 400))["gap"]
    warned = any("shrink" in str(w.message) for w in caught)
    ratio = bad_gap / gaps[-1]
    elapsed = time.monotonic() - t0
    ok = gaps[-1] < 1e-3 and gaps[0] > gaps[1] > gaps[2] and ratio >= 10.0 and elapsed < 30.0
    _verdict(
        1, ok,
        f"gaps {gaps[0]:.3g} > {gaps[1]:.3g} > {gaps[2]:.3g}, "
        f"unit-g gap {bad_gap:.3g} ({ratio:.3g}x, refinement warning: {warned}), "
        f"{elapsed:.1f}s",
    )


def _derivative_points(rng, n):
    pts = []
    while len(pts) < n:
        a = rng.uniform(0.5 * np.pi + 0.1, np.pi - 0.1)
        b = rng.uniform(0.0, 2.0 * np.pi)
        x = to_euclidean(a, b)
        # stay off the x2 = 0 plane, where the folded projected distance
        # is not differentiable
        if abs(x[1]) >= 0.05:
            pts.append(x)
    return np.array(pts)


def test_criterion_2_derivatives_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(20)
    x = _derivative_points(rng, 100)
    kent = truth_params(ExperimentConfig(experiment="kent_known_shape"))
    models = (VmfParams(to_euclidean(1.9, 2.9), 5.0), kent)
    frames = [complete_frame(xi) for xi in x]

    score_err = 0.0
    h = 1e-5
    for params in models:
        f = lambda y: float(log_unnormalized_density(params, y))
        for xi, (v1, v2) in zip(x, frames):
            s = score(params, xi)
            for v in (v1, v2):
                fd = (f(xi * np.cos(h) + v * np.sin(h))
                      - f(xi * np.cos(h) - v * np.sin(h))) / (2.0 * h)
                score_err = max(score_err, abs(fd - float(s @ v)))

    jac_err = 0.0
    hj = 1e-6
    for params in models:
        for xi in x:
            jac = score_jacobian(params, xi)
            for j in range(3):
                e = np.zeros(3)
                e[j] = hj
                col = (score(params, xi + e) - score(params, xi - e)) / (2.0 * hj)
                jac_err = max(jac_err, float(np.max(np.abs(col - jac[:, j]))))

    g_err = 0.0
    g_checked = 0
    for g_kind, drop in (("haversine", None), ("projected", 2)):
        g, grad = scaling_values(HEMI, x, g_kind, drop)
        f = lambda y: float(scaling_values(HEMI, y[None, :], g_kind, drop)[0][0])
        for i, (v1, v2) in enumerate(frames):
            for v in (v1, v2):
                xp = unit_vector(x[i] * np.cos(h) + v * np.sin(h))
                xm = unit_vector(x[i] * np.cos(h) - v * np.sin(h))
                fd = (f(xp) - f(xm)) / (2.0 * h)
                g_err = max(g_err, abs(fd - float(grad[i] @ v)))
                g_checked += 1

    lap_err = 0.0
    hl = 1e-3
    for params in models:
        f = lambda y: float(log_unnormalized_density(params, y))
        for xi, (v1, v2) in zip(x, frames):
            fd2 = sum(
                (f(xi * np.cos(hl) + v * np.sin(hl)) - 2.0 * f(xi)
                 + f(xi * np.cos(hl) - v * np.sin(hl))) / hl**2
                for v in (v1, v2)
            )
            lap_err = max(lap_err, abs(fd2 - float(model_laplacian_term(params, xi))))

    elapsed = time.monotonic() - t0
    ok = (
        score_err < 1e-6 and jac_err < 1e-5 and g_err < 1e-4 and lap_err < 1e-4
        and g_checked >= 350 and elapsed < 10.0
    )
    _verdict(
        2, ok,
        f"max errors: score {score_err:.2g}, jacobian {jac_err:.2g}, "
        f"g-gradient {g_err:.2g} ({g_checked} stencils), "
        f"laplacian {lap_err:.2g}, {elapsed:.1f}s",
    )


def test_criterion_3_known_kappa_error_trend(tmp_path):
    t0 = time.monotonic()
    config = ExperimentConfig(
        experiment="vmf_known_kappa",
        n_grid=(125, 250, 500, 1000, 2000),
        replicates=64,
        seed=0,
        methods=("tmsm_haversine", "tmsm_projected", "mle"),
        out_dir=str(tmp_path),
    )
    m = run_benchmark(config).summary["methods"]
    hav = [m["tmsm_haversine"][str(n)]["rmse_mean"] for n in config.n_grid]
    prj = [m["tmsm_projected"][str(n)]["rmse_mean"] for n in config.n_grid]
    mle = [m["mle"][str(n)]["rmse_mean"] for n in config.n_grid]
    decreasing = all(a > b for a, b in zip(hav, hav[1:]))
    beats_mle = all(h < l and p < l for h, p, l in zip(hav, prj, mle))
    agree = max(abs(h - p) / min(h, p) for h, p in zip(hav, prj))
    elapsed = time.monotonic() - t0
    ok = decreasing and beats_mle and agree <= 0.2 and elapsed < 600.0
    _verdict(
        3, ok,
        f"haversine rmse {hav[0]:.4f} -> {hav[-1]:.4f} "
        f"(decreasing: {decreasing}), mle {mle[0]:.4f} -> {mle[-1]:.4f}, "
        f"max scaling-variant disagreement {agree:.1%}, {elapsed:.0f}s",
    )


def test_criterion_4_unknown_kappa_beats_flat_baseline(tmp_path):
    t0 = time.monotonic()
    config = ExperimentConfig(
        experiment="vmf_unknown_kappa",
        n_grid=(125, 250, 500, 1000, 2000),
        replicates=64,
        seed=0,
        methods=("tmsm_haversine", "truncsm"),
        out_dir=str(tmp_path),
    )
    m = run_benchmark(config).summary["methods"]
    tmsm_2000 = m["tmsm_haversine"]["2000"]["rmse_mean"]
    truncsm_2000 = m["truncsm"]["2000"]["rmse_mean"]
    kerr = [m["tmsm_haversine"][str(n)]["kappa_error_mean"] for n in config.n_grid]
    kappa_decreasing = all(a > b for a, b in zip(kerr, kerr[1:]))
    elapsed = time.monotonic() - t0
    ok = tmsm_2000 < truncsm_2000 and kappa_decreasing and elapsed < 600.0
    _verdict(
        4, ok,
        f"rmse at n=2000: tmsm {tmsm_2000:.4f} < truncsm {truncsm_2000:.4f}; "
        f"kappa error {kerr[0]:.3f} -> {kerr[-1]:.3f} "
        f"(decreasing: {kappa_decreasing}), {elapsed:.0f}s",
    )


def test_criterion_5_kent_direction_beats_mle(tmp_path):
    t0 = time.monotonic()
    config = ExperimentConfig(
        experiment="kent_known_shape",
        n_grid=(1000,),
        replicates=64,
        seed=0,
        methods=("tmsm_haversine", "mle"),
        out_dir=str(tmp_path),
    )
    rows = run_benchmark(config).rows
    tmsm = {r.replicate: r.geodesic_error_rad for r in rows
            if r.method == "tmsm_haversine" and not r.error}
    mle = {r.replicate: r.geodesic_error_rad for r in rows
           if r.method == "mle" and not r.error}
    pairs = sorted(set(tmsm) & set(mle))
    wins = sum(tmsm[i] < mle[i] for i in pairs)
    elapsed = time.monotonic() - t0
    ok = len(pairs) == 64 and wins >= 39
    _verdict(
        5, ok,
        f"tmsm closer to truth in {wins}/{len(pairs)} replicates (need 39), "
        f"mean errors tmsm {np.mean(list(tmsm.values())):.4f} / "
        f"mle {np.mean(list(mle.values())):.4f} rad, {elapsed:.0f}s",
    )


def test_criterion_6_sampler_fidelity():
    worst_rbar = 0.0
    worst_norm = 0.0
    for kappa in (1.0, 6.0, 10.0):
        x = sample_vmf(VmfParams(MU, kappa), 100000, substream_rng(6, int(kappa)))
        worst_norm = max(worst_norm, float(np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0))))
        rbar = float(np.linalg.norm(x.mean(axis=0)))
        expected = 1.0 / np.tanh(kappa) - 1.0 / kappa
        worst_rbar = max(worst_rbar, abs(rbar - expected))

    kent = truth_params(ExperimentConfig(experiment="kent_known_shape"))
    xk = sample_kent(kent, 100000, substream_rng(6, 99))
    worst_norm = max(worst_norm, float(np.max(np.abs(np.linalg.norm(xk, axis=1) - 1.0))))
    nodes, w = sphere_grid(400, 400)
    logf = np.asarray(log_unnormalized_density(kent, nodes))
    f = np.exp(logf - logf.max())
    z = float(w @ f)
    kent_diff = 0.0
    for moment in (
        lambda y: y @ kent.mu,
        lambda y: (y @ kent.gamma1) ** 2,
        lambda y: (y @ kent.gamma2) ** 2,
    ):
        by_quad = float((w * f) @ moment(nodes)) / z
        by_sample = float(np.mean(moment(xk)))
        kent_diff = max(kent_diff, abs(by_quad - by_sample))

    ok = worst_rbar <= 0.01 and kent_diff <= 0.01 and worst_norm <= 1e-12
    _verdict(
        6, ok,
        f"resultant-length gap {worst_rbar:.2g}, kent moment gap {kent_diff:.2g}, "
        f"worst norm defect {worst_norm:.2g}",
    )


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_7_determinism_and_finite_objectives(tmp_path):
    digests = []
    for name in ("first", "second"):
        config = ExperimentConfig(
            n_grid=(80,),
            replicates=3,
            seed=1,
            methods=("tmsm_haversine", "mle"),
            out_dir=str(tmp_path / name),
        )
        result = run_benchmark(config)
        digests.append((_digest(result.csv_path), _digest(result.json_path)))
    identical = digests[0] == digests[1]

    data = Dataset(sample_truncated(VmfParams(MU, 6.0), HEMI, 500,
                                    substream_rng(70, 0), 1000).x)
    stats = _scaling_stats(data, HEMI, "haversine", None)
    rng = np.random.default_rng(71)
    # vMF: the eta block J(eta) = eta^T M eta - 2 c^T eta of the form
    theta = rng.uniform(-30.0, 30.0, size=(90000, 3))
    eta = np.exp(theta[:, 2:]) * to_euclidean(theta[:, 0], theta[:, 1])
    j_vmf = np.einsum("mi,ij,mj->m", eta, stats.m, eta) - 2.0 * eta @ stats.c
    # Kent: the full form at frames turned from MU's completed triad
    ref = np.stack([MU, *complete_frame(MU)])
    turns = rng.uniform(-30.0, 30.0, size=(10000, 3))
    frames = _turn(np.broadcast_to(ref, (len(turns), 3, 3)), turns)
    j_kent = _frame_state(_polish_form(*stats.kent_form, _table_scale(10.0, 3.0)), frames)[:, 0]
    bad = int(np.sum(~np.isfinite(j_vmf)) + np.sum(~np.isfinite(j_kent)))

    ok = identical and bad == 0
    _verdict(
        7, ok,
        f"rerun byte-identical: {identical}; non-finite objective values: "
        f"{bad}/100000",
    )


def test_criterion_8_storm_surrogate(tmp_path):
    t0 = time.monotonic()
    outline = str(resources.files("tmsm").joinpath("data/usa_outline.csv"))
    boundary = load_boundary_csv(outline)
    a, b = latlon_to_spherical(25.0, -75.0)
    truth_mu = to_euclidean(float(a), float(b))
    truth = VmfParams(truth_mu, 6.0)
    assert not boundary.contains(truth_mu)  # the design premise

    hav_wins = prj_wins = 0
    errors = {"mle": [], "tmsm_haversine": [], "tmsm_projected": []}
    bearings = []
    for seed in range(32):
        s = sample_truncated(truth, boundary, 2000, substream_rng(seed, 2000, 0), 1000)
        aa, bb = Dataset(s.x).spherical()
        lat, lon = spherical_to_latlon(aa, bb)
        events = tmp_path / f"events_{seed}.csv"
        with open(events, "w") as fh:
            fh.write("event_id,lat,lon\n")
            for i in range(2000):
                fh.write(f"e{i},{lat[i]:.6f},{lon[i]:.6f}\n")
        with warnings.catch_warnings():
            # rounding to six decimals can nudge a rim point just outside
            warnings.simplefilter("ignore", UserWarning)
            report = run_storms(events, outline, out_dir=str(tmp_path), seed=seed)
        err = {
            k: float(geodesic_angle(np.asarray(v["mu_x"]), truth_mu))
            for k, v in report["fits"].items()
        }
        for k in errors:
            errors[k].append(err[k])
        hav_wins += err["tmsm_haversine"] < err["mle"]
        prj_wins += err["tmsm_projected"] < err["mle"]
        bearings.append(report["fits"]["tmsm_haversine"]["bearing_from_mle_deg"])

    mean_bearing = float(np.mean(bearings))
    southeast = 90.0 < mean_bearing < 180.0
    elapsed = time.monotonic() - t0
    ok = hav_wins >= 24 and southeast
    _verdict(
        8, ok,
        f"tmsm beats mle in {hav_wins}/32 runs haversine, {prj_wins}/32 "
        f"projected (need 24); mean errors mle "
        f"{np.mean(errors['mle']):.3f} / tmsm {np.mean(errors['tmsm_haversine']):.3f} rad; "
        f"mean bearing {mean_bearing:.0f} deg (southeast: {southeast}), {elapsed:.0f}s",
    )
