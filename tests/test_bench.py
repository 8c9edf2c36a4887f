import csv
import json
import shutil
import warnings

import numpy as np
import pytest

from tmsm.baselines import mle_vmf, rmse_embedding
import tmsm.bench
import tmsm.boundary
import tmsm.estimator
from tmsm.bench import (
    _BLOCK_CELLS,
    AllReplicatesFailed,
    BenchmarkRow,
    ConfigError,
    DataError,
    ExperimentConfig,
    _tmsm_args,
    build_boundary,
    ingest_events,
    initial_bearing_deg,
    run_benchmark,
    run_storms,
    truth_params,
)
from tmsm.boundary import (ColatitudeBoundary, PolylineBoundary, _outline, default_drop_axis,
                           latlon_to_spherical, load_boundary_csv, spherical_to_latlon)
from tmsm.cli import main
from tmsm.estimator import Dataset, estimate
from tmsm.geometry import geodesic_angle, to_euclidean
from tmsm.models import KentParams, VmfParams
from tmsm.sampling import sample_truncated, substream_rng

MU = np.array([0.0, -1.0, 0.0])


# ------------------------------------------------------------------- config


NON_INTEGER_COUNTS = [
    {"replicates": 2.5}, {"workers": 1.5}, {"seed": "abc"}, {"n_grid": [50.9]},
    {"max_draw_factor": 10.5}, {"drop_axis": 2.0}, {"replicates": True}, {"drop_axis": True},
]


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig(experiment="mystery")
    with pytest.raises(ConfigError, match="increasing"):
        ExperimentConfig(n_grid=(100, 100))
    with pytest.raises(ConfigError, match="positive"):
        ExperimentConfig(n_grid=())
    with pytest.raises(ConfigError, match="replicates"):
        ExperimentConfig(replicates=0)
    with pytest.raises(ConfigError, match="method"):
        ExperimentConfig(methods=("gradient_boost",))
    with pytest.raises(ConfigError, match="drop_axis"):
        ExperimentConfig(drop_axis=4)
    with pytest.raises(ConfigError, match="unknown truth model"):
        ExperimentConfig(truth={"model": "kentt", "mu_a": 1.0, "mu_b": 1.0, "kappa": 3.0})
    for factor in (0, -1):
        with pytest.raises(ConfigError, match="max_draw_factor"):
            ExperimentConfig(max_draw_factor=factor)
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_dict({"n_gird": [100]})
    # counts must be integers (a bool is not one, a numpy integer is)
    for settings in NON_INTEGER_COUNTS:
        with pytest.raises(ConfigError, match="integers expected"):
            ExperimentConfig.from_dict(settings)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        ExperimentConfig.from_dict({"seed": -1})
    # a string "false" is truthy, and a number is not a path
    for settings in ({"timings": "false"}, {"timings": 1}, {"timings": None}):
        with pytest.raises(ConfigError, match="timings"):
            ExperimentConfig.from_dict(settings)
    for settings in ({"out_dir": 5}, {"out_dir": None}, {"out_dir": ["out"]}):
        with pytest.raises(ConfigError, match="out_dir"):
            ExperimentConfig.from_dict(settings)
    assert ExperimentConfig.from_dict({"out_dir": "runs", "timings": True}).timings is True
    assert ExperimentConfig(out_dir=tmp_path).out_dir == tmp_path
    config = ExperimentConfig.from_dict({
        "n_grid": [np.int64(50), np.int32(80)], "replicates": np.int64(2), "seed": np.uint32(7),
        "workers": np.int8(1), "max_draw_factor": np.int64(10), "drop_axis": np.int64(2),
    })
    assert config.n_grid == (50, 80) and all(type(n) is int for n in config.n_grid)
    assert all(type(getattr(config, name)) is int
               for name in ("replicates", "seed", "workers", "max_draw_factor", "drop_axis"))
    assert (config.replicates, config.seed, config.drop_axis) == (2, 7, 2)


def test_truth_params_defaults():
    p = truth_params(ExperimentConfig())
    assert isinstance(p, VmfParams)
    assert np.allclose(p.mu, MU, atol=1e-12)
    assert p.kappa == 6.0
    k = truth_params(ExperimentConfig(experiment="kent_known_shape"))
    assert isinstance(k, KentParams)
    assert np.allclose(k.gamma1, [0.0, 0.0, 1.0], atol=1e-12)
    assert k.kappa == 10.0 and k.alpha == 3.0
    # a partial truth is completed by the config itself, not by from_dict alone
    config = ExperimentConfig(truth={"kappa": 8.0})
    assert config.truth == {**ExperimentConfig().truth, "kappa": 8.0}
    assert truth_params(config).kappa == 8.0
    with pytest.raises(ConfigError, match="invalid truth spec"):
        truth_params(ExperimentConfig(truth={"model": "vmf", "kappa": "six"}))
    with pytest.raises(ConfigError, match="does not read"):
        ExperimentConfig(truth={"kappa": 6.0, "alpha": 3.0})


def test_build_boundary(tmp_path):
    b = build_boundary({"type": "colatitude", "a0": 1.2, "side": "less"})
    assert isinstance(b, ColatitudeBoundary)
    assert b.a0 == 1.2 and b.side == "less"
    tri = tmp_path / "tri.csv"
    tri.write_text("lat_deg,lon_deg\n10,0\n-10,10\n-10,-10\n")
    poly = build_boundary({"type": "polyline_csv", "path": str(tri)})
    assert isinstance(poly, PolylineBoundary)
    with pytest.raises(ConfigError, match="path"):
        build_boundary({"type": "polyline_csv"})
    with pytest.raises(ConfigError, match="type"):
        build_boundary({"type": "voronoi"})
    with pytest.raises(DataError):
        build_boundary({"type": "polyline_csv", "path": str(tmp_path / "no.csv")})


def test_projected_drop_axis_selection(tmp_path):
    # the harness passes the configured axis through, to projected g alone,
    # and without one projected g folds a colatitude region across axis 2
    # and drops a polyline's most aligned axis
    assert _tmsm_args("tmsm_projected", ExperimentConfig()) == ("projected", None)
    assert _tmsm_args("tmsm_projected", ExperimentConfig(drop_axis=3)) == ("projected", 3)
    assert _tmsm_args("tmsm_haversine", ExperimentConfig(drop_axis=3)) == ("haversine", None)
    assert default_drop_axis(ColatitudeBoundary(0.5 * np.pi)) == 2
    tri = tmp_path / "tri.csv"
    tri.write_text("lat_deg,lon_deg\n10,0\n-10,10\n-10,-10\n")
    poly = build_boundary({"type": "polyline_csv", "path": str(tri)})
    assert default_drop_axis(poly) == int(np.argmax(np.abs(poly.interior_reference))) + 1


# ---------------------------------------------------------------- benchmark


def test_benchmark_rows_match_direct_recomputation(tmp_path):
    config = ExperimentConfig(
        experiment="vmf_known_kappa",
        n_grid=(200,),
        replicates=1,
        seed=11,
        methods=("tmsm_haversine", "mle"),
        boundary={"type": "colatitude", "a0": 3.0, "side": "less"},
        out_dir=str(tmp_path),
    )
    result = run_benchmark(config)
    truth = truth_params(config)
    boundary = build_boundary(config.boundary)
    data = Dataset(sample_truncated(truth, boundary, 200, substream_rng(11, 200, 0), 1000).x)

    by_method = {r.method: r for r in result.rows}
    p = mle_vmf(data, estimate_kappa=False, kappa=truth.kappa)
    assert by_method["mle"].rmse_embedding == rmse_embedding(p.mu, truth.mu)
    assert by_method["mle"].geodesic_error_rad == float(geodesic_angle(p.mu, truth.mu))
    assert by_method["mle"].kappa_error is None
    assert by_method["mle"].wall_time_ms is None

    res = estimate(
        data, boundary, g_kind="haversine", model_kind="vmf_mu_only",
        fixed={"kappa": truth.kappa},
    )
    assert by_method["tmsm_haversine"].rmse_embedding == rmse_embedding(res.params.mu, truth.mu)

    with open(result.csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["method", "n", "replicate", "seed"]
    assert len(rows) == 1 + len(result.rows)
    assert result.json_path.exists()


def test_benchmark_rerun_byte_identical(tmp_path):
    paths = []
    for name in ("first", "second"):
        config = ExperimentConfig(
            n_grid=(50, 100),
            replicates=2,
            seed=5,
            methods=("mle", "truncsm"),
            out_dir=str(tmp_path / name),
        )
        result = run_benchmark(config)
        paths.append((result.csv_path, result.json_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_summary_matches_rows(tmp_path):
    config = ExperimentConfig(
        n_grid=(60,),
        replicates=3,
        seed=2,
        methods=("mle",),
        out_dir=str(tmp_path),
    )
    result = run_benchmark(config)
    vals = [r.rmse_embedding for r in result.rows]
    cell = result.summary["methods"]["mle"]["60"]
    assert cell["n_ok"] == 3 and cell["n_failed"] == 0
    assert cell["rmse_mean"] == pytest.approx(np.mean(vals), rel=1e-12)
    assert cell["rmse_sd"] == pytest.approx(np.std(vals), rel=1e-12)


def test_kent_benchmark_single_replicate(tmp_path):
    config = ExperimentConfig(
        experiment="kent_known_shape",
        n_grid=(150,),
        replicates=1,
        seed=1,
        methods=("tmsm_haversine", "mle"),
        out_dir=str(tmp_path),
    )
    result = run_benchmark(config)
    assert {r.method for r in result.rows} == {"tmsm_haversine", "mle"}
    for r in result.rows:
        assert r.error == ""
        assert r.kappa_error is None
        assert r.geodesic_error_rad < 0.5


def test_kappa_benchmark(tmp_path):
    # the unknown-concentration experiment reports |kappa_hat - kappa_true|
    # for every default method: tmsm_haversine, truncsm and mle
    config = ExperimentConfig(
        experiment="vmf_unknown_kappa",
        n_grid=(150,),
        replicates=2,
        seed=3,
        out_dir=str(tmp_path),
    )
    result = run_benchmark(config)
    assert {r.method for r in result.rows} == {"tmsm_haversine", "truncsm", "mle"}
    for r in result.rows:
        assert r.error == ""
        assert r.kappa_error is not None and r.kappa_error >= 0.0
    for by_n in result.summary["methods"].values():
        assert "kappa_error_mean" in by_n["150"]


def test_run_benchmark_builds_boundary_once(tmp_path, monkeypatch):
    calls = []

    def counting_build(spec):
        calls.append(spec)
        return build_boundary(spec)

    monkeypatch.setattr("tmsm.bench.build_boundary", counting_build)
    config = ExperimentConfig(n_grid=(40, 60), replicates=2, methods=("mle",),
                              out_dir=str(tmp_path))
    run_benchmark(config)
    assert len(calls) == 1


def test_pooled_run_matches_serial_bytes(tmp_path):
    # pooled workers get the run once and serve one block of cells per task;
    # the artifacts must not depend on the worker count. Each grid spans two
    # blocks, so that both runs use the pool; the Kent blocks each fit their
    # tmsm frames together.
    runs = {
        "vmf_known_kappa": dict(n_grid=(40, 80), replicates=_BLOCK_CELLS // 2 + 3,
                                methods=("tmsm_haversine", "tmsm_projected", "mle")),
        "kent_known_shape": dict(n_grid=(40, 80), replicates=_BLOCK_CELLS // 2 + 3,
                                 methods=("tmsm_haversine", "tmsm_projected", "mle")),
    }
    for experiment, settings in runs.items():
        artifacts = []
        for workers in (1, 2):
            config = ExperimentConfig(
                experiment=experiment, seed=4, workers=workers,
                out_dir=str(tmp_path / f"{experiment}_w{workers}"), **settings,
            )
            result = run_benchmark(config)
            artifacts.append((result.csv_path.read_bytes(), result.json_path.read_bytes()))
        assert artifacts[0] == artifacts[1]


def test_lone_block_runs_without_a_pool(tmp_path, monkeypatch):
    # a grid of one block gives a second worker no work, so no pool starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    artifacts = []
    for workers in (1, 2):
        config = ExperimentConfig(n_grid=(40, 80), replicates=_BLOCK_CELLS // 2, seed=4,
                                  workers=workers, out_dir=str(tmp_path / f"w{workers}"))
        result = run_benchmark(config)
        artifacts.append((result.csv_path.read_bytes(), result.json_path.read_bytes()))
    assert artifacts[0] == artifacts[1]


def test_kent_block_rows_match_each_cell_fitted_alone(tmp_path):
    # the block's Kent frames are fitted together, and each row is the one a
    # direct estimate on its cell's data gives, to the bit
    config = ExperimentConfig(experiment="kent_known_shape", n_grid=(40, 60),
                              replicates=_BLOCK_CELLS // 2 + 1, seed=6,
                              methods=("tmsm_haversine", "tmsm_projected"),
                              out_dir=str(tmp_path))
    result = run_benchmark(config)
    truth, boundary = truth_params(config), build_boundary(config.boundary)
    fixed = {"kappa": truth.kappa, "alpha": truth.alpha}
    assert len(result.rows) == 2 * len(config.n_grid) * config.replicates
    for row in result.rows:
        rng = substream_rng(config.seed, row.n, row.replicate)
        data = Dataset(sample_truncated(truth, boundary, row.n, rng, config.max_draw_factor).x)
        g_kind = row.method.removeprefix("tmsm_")
        res = estimate(data, boundary, g_kind=g_kind, model_kind="kent_frame", fixed=fixed,
                       drop_axis=2 if g_kind == "projected" else None)
        assert row.error == ""
        assert row.rmse_embedding == rmse_embedding(res.params.mu, truth.mu)
        assert row.geodesic_error_rad == float(geodesic_angle(res.params.mu, truth.mu))


def test_kent_block_keeps_a_failing_cell_on_its_own_row(tmp_path, monkeypatch):
    # g raises on one cell of a block: that cell's tmsm row carries the error
    # as a lone fit's would, and every other row keeps its values
    config = ExperimentConfig(experiment="kent_known_shape", n_grid=(40,), replicates=6,
                              seed=9, out_dir=str(tmp_path / "clean"))
    clean = run_benchmark(config).rows
    truth, boundary = truth_params(config), build_boundary(config.boundary)
    bad = sample_truncated(truth, boundary, 40, substream_rng(9, 40, 3), 1000).x
    real = tmsm.estimator.scaling_values

    def failing(boundary, x, *args):
        if np.array_equal(x, bad):
            raise ValueError("g failed")
        return real(boundary, x, *args)

    monkeypatch.setattr(tmsm.estimator, "scaling_values", failing)
    config.out_dir = str(tmp_path / "failing")
    rows = run_benchmark(config).rows
    assert len(rows) == len(clean)
    for row, ref in zip(rows, clean):
        if (row.method, row.replicate) == ("tmsm_haversine", 3):
            assert row == BenchmarkRow("tmsm_haversine", 40, 3, 9, None, None, None, None,
                                       "ValueError: g failed")
        else:
            assert row == ref


def test_kent_block_fit_error_lands_on_every_kent_row_of_the_block(tmp_path, monkeypatch):
    # the block's Kent frames are fitted in one call: should it raise,
    # every Kent tmsm row of the block carries the error, and the mle rows
    # keep their values
    config = ExperimentConfig(experiment="kent_known_shape", n_grid=(40,), replicates=6,
                              seed=9, methods=("tmsm_haversine", "tmsm_projected", "mle"),
                              out_dir=str(tmp_path / "clean"))
    clean = run_benchmark(config).rows

    def failing_fit(stats_list, kappa, alpha):
        raise FloatingPointError("fit failed")

    monkeypatch.setattr(tmsm.bench, "_fit_kent_frames", failing_fit)
    config.out_dir = str(tmp_path / "failing_fit")
    rows = run_benchmark(config).rows
    assert len(rows) == len(clean)
    assert {row.method for row in rows} == {"mle", "tmsm_haversine", "tmsm_projected"}
    for row, ref in zip(rows, clean):
        if row.method.startswith("tmsm_"):
            assert row == BenchmarkRow(row.method, 40, row.replicate, 9, None, None, None, None,
                                       "FloatingPointError: fit failed")
        else:
            assert row == ref and row.error == ""


def test_run_benchmark_refuses_storms(tmp_path):
    with pytest.raises(ConfigError, match="unknown experiment 'storms'"):
        run_benchmark(ExperimentConfig(experiment="storms", out_dir=str(tmp_path)))


# ------------------------------------------------------------------- events


def _write_events(path, rows, header="event_id,lat,lon"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def test_ingest_events_skips_malformed(tmp_path):
    path = tmp_path / "ev.csv"
    _write_events(path, [
        ("e1", 35.0, -100.0),
        ("e2", "oops", -100.0),
        ("e3", 90.0, 0.0),
        ("e4", -10.5, 20.25),
        ("e5", 0.0, 180.0),
    ])
    with pytest.warns(UserWarning, match="skipped 1"):
        data, ids, latlon, skipped = ingest_events(path)
    assert skipped == 1
    assert ids == ["e1", "e3", "e4", "e5"]
    assert data.n == 4
    # latitude 90 is the chart pole a = 0
    assert np.allclose(data.x[1], [1.0, 0.0, 0.0], atol=1e-12)


def test_ingest_events_header_aliases(tmp_path):
    path = tmp_path / "ev.csv"
    _write_events(path, [(1, 10.0, 20.0, "2019-06-01")],
                  header="ID,Latitude,Longitude,Date")
    data, ids, latlon, skipped = ingest_events(path)
    assert skipped == 0 and data.n == 1
    assert ids[0] == "1"


def test_ingest_events_errors(tmp_path):
    path = tmp_path / "bad.csv"
    _write_events(path, [("e1", 1.0)], header="event_id,lat")
    with pytest.raises(DataError, match="longitude"):
        ingest_events(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        ingest_events(empty)
    off_range = tmp_path / "off.csv"
    _write_events(off_range, [("e1", 95.0, 0.0)])
    with pytest.warns(UserWarning):
        with pytest.raises(DataError, match="no valid"):
            ingest_events(off_range)


# (file text, (id, lat, lon) of each kept event, skipped, x) as the
# csv.DictReader ingest gave them
INGEST_CASES = {
    # a blank line is not a row: neither skipped nor given a positional id
    "blank_line": ("lat,lon\n10.5,20\n\n-30,40.25\n",
                   [("0", 10.5, 20.0), ("1", -30.0, 40.25)], 0,
                   [[0.18223552549214744, 0.9239573809893786, 0.3362929844106909],
                    [-0.4999999999999998, 0.6609787078248089, 0.5595597803651062]]),
    "short_row": ("event_id,lat,lon\ne1,10,20\ne2,30\ne3,-40,50\n",
                  [("e1", 10.0, 20.0), ("e3", -40.0, 50.0)], 1,
                  [[0.17364817766693041, 0.9254165783983234, 0.33682408883346515],
                   [-0.6427876096865394, 0.49240387650610407, 0.5868240888334652]]),
    "long_row": ("event_id,lat,lon\ne1,10,20,extra,more\ne2,-5,175\n",
                 [("e1", 10.0, 20.0), ("e2", -5.0, 175.0)], 0,
                 [[0.17364817766693041, 0.9254165783983234, 0.33682408883346515],
                  [-0.08715574274765801, -0.9924038765061041, 0.0868240888334652]]),
    # a repeated header name reads its last column
    "repeated_header": ("event_id,lat,lon,lat\ne1,10,20,30\ne2,1,2,-3\n",
                        [("e1", 30.0, 20.0), ("e2", -3.0, 2.0)], 0,
                        [[0.4999999999999999, 0.8137976813493738, 0.29619813272602386],
                         [-0.05233595624294384, 0.9980211966240684, 0.034851668155187324]]),
    "alias_headers": ("Episode_ID,BEGIN_LAT,Begin_Lon,notes\n7,35.5,-97.25,hail\n8,91,0,bad\n",
                      [("7", 35.5, -97.25)], 1,
                      [[0.5807029557109398, -0.10274053917404942, -0.8076066238205355]]),
    # positional ids count the malformed row
    "no_id_column": ("Latitude,Longitude\n10,20\noops,5\n-30,40\n",
                     [("0", 10.0, 20.0), ("2", -30.0, 40.0)], 1,
                     [[0.17364817766693041, 0.9254165783983234, 0.33682408883346515],
                      [-0.4999999999999998, 0.6634139481689384, 0.5566703992264194]]),
}


@pytest.mark.parametrize("name", sorted(INGEST_CASES))
def test_ingest_events_row_edge_cases(tmp_path, name):
    text, expected, expected_skipped, expected_x = INGEST_CASES[name]
    path = tmp_path / "ev.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data, ids, latlon, skipped = ingest_events(path)
    assert latlon.shape == (len(ids), 2)
    assert [(i, lat, lon) for i, (lat, lon) in zip(ids, latlon.tolist())] == expected
    assert skipped == expected_skipped
    messages = [f"{path}: skipped {skipped} malformed event row(s)"] if skipped else []
    assert [str(w.message) for w in caught] == messages
    assert np.array_equal(data.x, expected_x)


def test_ingest_events_header_after_blank_lines(tmp_path):
    # the header is the first non-blank line, wherever blank lines fall
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text("lat,lon\n10,20\n-30,40.25\n")
    padded.write_text("\n\nlat,lon\n10,20\n\n-30,40.25\n")
    data, ids, latlon, skipped = ingest_events(padded)
    ref_data, ref_ids, ref_latlon, _ = ingest_events(plain)
    assert ids == ref_ids and np.array_equal(latlon, ref_latlon) and skipped == 0
    assert np.array_equal(data.x, ref_data.x)
    blank = tmp_path / "blank.csv"
    blank.write_text("\n\n")
    with pytest.raises(DataError, match="empty"):
        ingest_events(blank)


def test_ingest_events_skips_a_row_without_its_id_cell(tmp_path):
    # a row too short to hold its id column is skipped like any short row
    # (the csv.DictReader ingest kept it with the id None)
    path = tmp_path / "ev.csv"
    path.write_text("lat,lon,event_id\n10,20,e1\n30,40\n")
    with pytest.warns(UserWarning, match="skipped 1"):
        _, ids, _, skipped = ingest_events(path)
    assert ids == ["e1"] and skipped == 1


def test_initial_bearing_cardinal_directions():
    assert initial_bearing_deg(0.0, 0.0, 10.0, 0.0) == pytest.approx(0.0)
    assert initial_bearing_deg(0.0, 0.0, 0.0, 10.0) == pytest.approx(90.0)
    assert initial_bearing_deg(10.0, 0.0, 0.0, 0.0) == pytest.approx(180.0)
    assert initial_bearing_deg(0.0, 10.0, 0.0, 0.0) == pytest.approx(-90.0)


# ------------------------------------------------------------------- storms


def _write_hemisphere_boundary(path):
    """Near-equator polyline in chart angles whose interior is a > pi/2.

    One vertex is nudged south so the default interior hint (the vertex
    mean) falls on the southern side instead of inside the curve plane.
    """
    m = 64
    b = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    a = np.full(m, 0.5 * np.pi)
    a[0] += 0.01
    with open(path, "w") as fh:
        fh.write("a_rad,b_rad\n")
        for ai, bi in zip(a, b):
            fh.write(f"{ai:.17g},{bi:.17g}\n")


def test_storms_consistent_with_benchmark(tmp_path):
    seed, n = 7, 400
    truth = VmfParams(MU, 6.0)
    hemi = ColatitudeBoundary(0.5 * np.pi)
    data = Dataset(sample_truncated(truth, hemi, n, substream_rng(seed, n, 0), 1000).x)
    a, b = data.spherical()
    lat, lon = spherical_to_latlon(a, b)
    events = tmp_path / "events.csv"
    _write_events(
        events,
        [(f"e{i}", f"{lat[i]:.17g}", f"{lon[i]:.17g}") for i in range(n)],
    )
    border = tmp_path / "border.csv"
    _write_hemisphere_boundary(border)

    report = run_storms(events, border, out_dir=str(tmp_path), seed=seed)
    assert report["n_excluded"] == 0
    assert report["n_events"] == n
    assert len(report["events"]) == n
    assert (tmp_path / "storms_report.json").exists()

    # the truncation-blind fit only sees the points, so it must agree with
    # a direct call on the same sample (up to the degree round trip)
    p = mle_vmf(data, estimate_kappa=True)
    assert np.allclose(report["fits"]["mle"]["mu_x"], p.mu, atol=1e-9)
    assert report["fits"]["mle"]["kappa"] == pytest.approx(p.kappa, abs=1e-6)

    # truncated fits differ in detail (joint kappa, polyline border) but
    # must land near the known-kappa fit on the exact hemisphere
    direct = estimate(
        data, hemi, g_kind="haversine", model_kind="vmf_mu_only",
        fixed={"kappa": 6.0}, seed=seed,
    )
    # the default projected axis for this border is the pole axis, whose
    # disk distance flattens at the rim, so its fit is allowed more slack
    for method, tol in (("tmsm_haversine", 0.05), ("tmsm_projected", 0.1)):
        fit = report["fits"][method]
        assert fit["converged"]
        assert "bearing_from_mle_deg" in fit
        mu_hat = np.asarray(fit["mu_x"])
        assert geodesic_angle(mu_hat, direct.params.mu) < tol

    # same sample as the benchmark substream, so the mle row agrees too
    config = ExperimentConfig(
        n_grid=(n,), replicates=1, seed=seed, methods=("mle",),
        out_dir=str(tmp_path / "bench"),
    )
    row = run_benchmark(config).rows[0]
    assert row.rmse_embedding == pytest.approx(
        rmse_embedding(np.asarray(report["fits"]["mle"]["mu_x"]), MU), abs=1e-9
    )


def test_storms_tests_membership_once(tmp_path, monkeypatch):
    # the exclusion filter's mask serves both truncated fits
    border = tmp_path / "border.csv"
    _write_hemisphere_boundary(border)
    events = tmp_path / "events.csv"
    _write_events(events, [(f"e{i}", -40.0 + i, -170.0 + 17.0 * i) for i in range(20)])
    calls = []
    contains = PolylineBoundary.contains

    def counting_contains(self, x):
        calls.append(len(x))
        return contains(self, x)

    monkeypatch.setattr(PolylineBoundary, "contains", counting_contains)
    report = run_storms(events, border, out_dir=str(tmp_path), seed=0)
    assert report["n_events"] == 20
    assert calls == [20]


def test_storms_excludes_outside_events(tmp_path):
    border = tmp_path / "border.csv"
    _write_hemisphere_boundary(border)
    events = tmp_path / "events.csv"
    inside = [(f"in{i}", -40.0, lon) for i, lon in enumerate((-120.0, -60.0, 60.0, 120.0))]
    outside = [("out1", 30.0, 0.0), ("out2", 45.0, 90.0)]
    _write_events(events, inside + outside)
    with pytest.warns(UserWarning, match="outside the boundary"):
        report = run_storms(events, border, out_dir=str(tmp_path), seed=0)
    assert report["n_events"] == 4
    assert report["excluded_ids"] == ["out1", "out2"]

    all_out = tmp_path / "all_out.csv"
    _write_events(all_out, outside)
    with pytest.warns(UserWarning, match="outside"):
        with pytest.raises(DataError, match="inside"):
            run_storms(all_out, border, out_dir=str(tmp_path), seed=0)


def test_storms_report_is_the_same_with_the_outline_memo_cold_and_warm(tmp_path, monkeypatch):
    # 300 USA draws and two events off the border: the first report builds
    # the outline with its projected tables, the second reuses them, and
    # the bytes agree
    usa = "src/tmsm/data/usa_outline.csv"
    truth = VmfParams(to_euclidean(*latlon_to_spherical(39.0, -98.5)), 20.0)
    x = sample_truncated(truth, load_boundary_csv(usa), 300, substream_rng(5, 300), 1000).x
    lat, lon = spherical_to_latlon(*Dataset(x).spherical())
    rows = [(f"e{i}", f"{lat[i]:.17g}", f"{lon[i]:.17g}") for i in range(len(x))]
    events = tmp_path / "events.csv"
    _write_events(events, rows[:100] + [("sea1", 30.0, -60.0)] + rows[100:] + [("sea2", 0, 0)])
    tables, build = [], tmsm.boundary._projected_table
    monkeypatch.setattr(tmsm.boundary, "_projected_table",
                        lambda *args: tables.append(args) or build(*args))
    reports = []
    for out in ("cold", "warm"):
        if out == "cold":
            _outline.cache_clear()
        with pytest.warns(UserWarning, match="2 event"):
            report = run_storms(events, usa, out_dir=str(tmp_path / out), seed=0)
        assert _outline.cache_info().misses == 1
        reports.append((tmp_path / out / "storms_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert sorted(args[1] for args in tables) == [0, 1, 2]  # one per drop axis, once
    assert report["excluded_ids"] == ["sea1", "sea2"]
    # the events as parsed, in file order
    assert report["events"] == [[float(r[1]), float(r[2])] for r in rows]


def test_storms_drop_axis_reaches_only_the_projected_fit(tmp_path):
    # the haversine fit reads no drop axis: its entry keeps its bytes, and
    # the projected fit is the direct fit on that axis
    usa = "src/tmsm/data/usa_outline.csv"
    truth = VmfParams(to_euclidean(*latlon_to_spherical(39.0, -98.5)), 20.0)
    x = sample_truncated(truth, load_boundary_csv(usa), 200, substream_rng(6, 200), 1000).x
    lat, lon = spherical_to_latlon(*Dataset(x).spherical())
    events = tmp_path / "events.csv"
    _write_events(events, [(f"e{i}", f"{lat[i]:.17g}", f"{lon[i]:.17g}") for i in range(len(x))])
    plain = run_storms(events, usa, out_dir=str(tmp_path / "plain"), seed=0)
    axis1 = run_storms(events, usa, out_dir=str(tmp_path / "axis1"), seed=0, drop_axis=1)
    assert axis1["fits"]["tmsm_haversine"] == plain["fits"]["tmsm_haversine"]
    direct = estimate(ingest_events(events)[0], load_boundary_csv(usa), g_kind="projected",
                      drop_axis=1)
    assert axis1["fits"]["tmsm_projected"]["mu_x"] == direct.params.mu.tolist()
    assert axis1["fits"]["tmsm_projected"] != plain["fits"]["tmsm_projected"]


def test_json_artifacts_parse_to_the_returned_objects(tmp_path, capsys):
    # each artifact is one compact line with sorted keys, and parses back
    # to the object returned or printed
    border = tmp_path / "border.csv"
    _write_hemisphere_boundary(border)
    events = tmp_path / "events.csv"
    _write_events(events, [(f"e{i}", -40.0 + i, -170.0 + 17.0 * i) for i in range(20)])
    report = run_storms(events, border, out_dir=str(tmp_path), seed=0)
    text = (tmp_path / "storms_report.json").read_text()
    assert json.loads(text) == report
    assert text == json.dumps(report, sort_keys=True) + "\n"

    result = run_benchmark(ExperimentConfig(
        experiment="vmf_unknown_kappa", n_grid=(60,), replicates=2, seed=3,
        out_dir=str(tmp_path / "bench"),
    ))
    assert json.loads(result.json_path.read_text()) == result.summary

    assert main(["simulate", "--n", "100", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--data", str(tmp_path / "samples.csv"), "--model-kind",
                 "kent_frame", "--fixed-kappa", "6", "--fixed-alpha", "1",
                 "--out-dir", str(tmp_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads((tmp_path / "estimate.json").read_text()) == printed


# ---------------------------------------------------------------------- cli


def test_cli_benchmark_ok(tmp_path):
    code = main([
        "benchmark", "--experiment", "vmf_known_kappa", "--n-grid", "40",
        "--replicates", "1", "--methods", "mle", "--seed", "9",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "vmf_known_kappa_rows.csv").exists()
    assert (tmp_path / "vmf_known_kappa_summary.json").exists()


def test_cli_config_error_exit_2(tmp_path):
    code = main([
        "benchmark", "--methods", "gradient_boost", "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert main(["benchmark", "--config", str(tmp_path / "no_such.json")]) == 2


def test_kent_experiment_needs_a_kent_truth():
    with pytest.raises(ConfigError, match="needs a kent truth"):
        ExperimentConfig(experiment="kent_known_shape", truth={"model": "vmf"})
    # a truth without a model key takes the experiment's model, as from_dict does
    truth = dict(ExperimentConfig(experiment="kent_known_shape").truth)
    del truth["model"]
    config = ExperimentConfig(experiment="kent_known_shape", truth=truth)
    assert isinstance(truth_params(config), KentParams)


def test_cli_vmf_truth_for_kent_experiment_exit_2(tmp_path):
    # the Kent frame fit reads the truth's alpha: a vMF truth is a config error
    cfg = tmp_path / "vmf_truth.json"
    cfg.write_text(json.dumps({"truth": {"model": "vmf"}}))
    code = main(["benchmark", "--experiment", "kent_known_shape", "--config", str(cfg),
                 "--replicates", "2", "--n-grid", "50", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ["--mu-a", "nan"], ["--mu-b", "inf"], ["--kappa", "inf"], ["--kappa", "nan"],
    ["--model", "kent", "--kappa", "inf"], ["--model", "kent", "--alpha", "nan"],
])
def test_cli_non_finite_truth_exit_2(tmp_path, flags):
    # rejected before mu is formed: no sampling, no warning, no artifact
    out = tmp_path / "simulate"
    assert main(["simulate", *flags, "--n", "20", "--out-dir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("truth", [
    {"mu_a": float("nan")}, {"mu_b": float("-inf")}, {"kappa": None},
    {"model": "kent", "gamma1": [0.0, float("nan"), 1.0]},
])
def test_config_non_finite_truth_exit_2(tmp_path, truth):
    # benchmark reads its truth from a config file only; simulate reads one too
    experiment = "kent_known_shape" if truth.get("model") == "kent" else "vmf_known_kappa"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "truth": truth, "n_grid": [50],
                               "replicates": 1}))
    out = tmp_path / "benchmark"
    assert main(["benchmark", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    cfg.write_text(json.dumps({"truth": truth}))
    out = tmp_path / "simulate"
    assert main(["simulate", "--config", str(cfg), "--n", "20", "--out-dir", str(out)]) == 2
    assert not out.exists()
    config = ExperimentConfig.from_dict({"truth": truth})
    with pytest.raises(ConfigError, match="must be finite"):
        truth_params(config)


def test_cli_data_error_exit_3(tmp_path):
    assert main(["estimate", "--data", str(tmp_path / "missing.csv")]) == 3
    border = tmp_path / "border.csv"
    _write_hemisphere_boundary(border)
    code = main([
        "storms", "--events", str(tmp_path / "missing.csv"),
        "--boundary-csv", str(border),
    ])
    assert code == 3


def test_cli_non_finite_row_is_data_error_exit_3(tmp_path):
    # a nan row used to reach the membership check and exit 2 as a
    # config error ("data point(s) outside the region")
    data = tmp_path / "nan.csv"
    Dataset(to_euclidean(np.array([2.0, 2.5]), np.array([0.0, 1.0]))).to_csv(data)
    lines = data.read_text().splitlines()
    lines[1] = ",".join("nan" for _ in lines[1].split(","))
    data.write_text("\n".join(lines) + "\n")
    assert main(["estimate", "--data", str(data), "--out-dir", str(tmp_path)]) == 3


def _bad_samples(tmp_path, fault: str):
    """A samples CSV with one fault, or a path that does not exist."""
    path = tmp_path / f"{fault}.csv"
    if fault == "missing":
        return path
    if fault == "not_text":
        path.write_bytes(b"\xff\xfe")
        return path
    Dataset(to_euclidean(np.array([2.0, 2.5, 2.2]), np.array([0.0, 1.0, 2.0]))).to_csv(path)
    lines = path.read_text().splitlines()
    if fault == "short_row":
        lines[2] = lines[2].split(",")[0]
    elif fault == "non_unit_row":
        lines[1] = "nan,nan,nan,nan,nan"
    elif fault == "not_a_number":
        lines[1] = "north," + lines[1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("fault, flags", [
    ("missing", []), ("short_row", []), ("non_unit_row", []), ("not_a_number", []),
    ("not_text", []), ("missing", ["--degrees"]), ("not_text", ["--degrees"]),
])
def test_cli_estimate_read_error_names_the_file_once(tmp_path, capsys, fault, flags):
    path = _bad_samples(tmp_path, fault)
    assert main(["estimate", "--data", str(path), "--out-dir", str(tmp_path), *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count(str(path)) == 1, err


def _write_degrees(dataset: Dataset, path, extra_row: str | None = None) -> None:
    """The points as lat/lon degree columns, each float written in full."""
    lat, lon = spherical_to_latlon(*dataset.spherical())
    rows = ["lat,lon"] + [f"{la!r},{lo!r}" for la, lo in zip(lat.tolist(), lon.tolist())]
    if extra_row is not None:
        rows.insert(3, extra_row)
    path.write_text("\n".join(rows) + "\n")


def _estimate_report(capsys, argv) -> dict:
    capsys.readouterr()
    assert main(["estimate", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_estimate_degrees_matches_radians(tmp_path, capsys):
    assert main(["simulate", "--n", "300", "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    samples = tmp_path / "samples.csv"
    _write_degrees(Dataset.from_csv(samples), tmp_path / "latlon.csv")
    radians = _estimate_report(capsys, ["--data", str(samples), "--out-dir", str(tmp_path / "r")])
    degrees = _estimate_report(capsys, ["--data", str(tmp_path / "latlon.csv"), "--degrees",
                                        "--out-dir", str(tmp_path / "d")])
    assert degrees["n"] == radians["n"] == 300
    np.testing.assert_allclose(degrees["mu_x"], radians["mu_x"], rtol=0, atol=1e-12)
    assert degrees["kappa"] == pytest.approx(radians["kappa"], rel=1e-9)


def test_cli_estimate_degrees_skips_malformed_row(tmp_path, capsys):
    # ingest_events skips a malformed row with a warning, where the
    # a_rad,b_rad reader exits 3
    assert main(["simulate", "--n", "200", "--seed", "6", "--out-dir", str(tmp_path)]) == 0
    data = Dataset.from_csv(tmp_path / "samples.csv")
    _write_degrees(data, tmp_path / "clean.csv")
    _write_degrees(data, tmp_path / "untidy.csv", extra_row="bad,-75.0")
    clean = _estimate_report(capsys, ["--data", str(tmp_path / "clean.csv"), "--degrees",
                                      "--out-dir", str(tmp_path / "clean")])
    with pytest.warns(UserWarning, match="skipped 1 malformed event row"):
        untidy = _estimate_report(capsys, ["--data", str(tmp_path / "untidy.csv"), "--degrees",
                                           "--out-dir", str(tmp_path / "untidy")])
    assert untidy == clean


def test_cli_numeric_failure_exit_4(tmp_path):
    # the observed cap carries almost no mass under the truth, so every
    # replicate exhausts its raw-draw budget
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "vmf_known_kappa",
        "n_grid": [50],
        "replicates": 1,
        "methods": ["mle"],
        "boundary": {"type": "colatitude", "a0": 3.1, "side": "greater"},
        "max_draw_factor": 10,
        "out_dir": str(tmp_path),
    }))
    assert main(["benchmark", "--config", str(cfg)]) == 4
    # one point leaves the free-concentration objective without a finite minimiser
    one = tmp_path / "one.csv"
    Dataset(to_euclidean(2.0, 1.0)).to_csv(one)
    assert main(["estimate", "--data", str(one), "--out-dir", str(tmp_path)]) == 4


@pytest.mark.parametrize("argv", [
    ["benchmark", "--g", "projected"],
    ["estimate", "--data", "d.csv", "--seed", "1"],
    ["storms", "--events", "e.csv", "--boundary-csv", "b.csv", "--g", "projected"],
    ["simulate", "--workers", "2"],
    ["estimate", "--data", "d.csv", "--workers", "2"],
    ["storms", "--events", "e.csv", "--boundary-csv", "b.csv", "--workers", "2"],
])
def test_cli_rejects_flags_the_command_ignores(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_config_g_kind_rejected_by_benchmark(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g_kind": "projected", "out_dir": str(tmp_path)}))
    assert main(["benchmark", "--config", str(cfg)]) == 2


def test_cli_simulate_estimate_roundtrip(tmp_path):
    code = main([
        "simulate", "--n", "300", "--seed", "3", "--kappa", "6",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    samples = tmp_path / "samples.csv"
    data = Dataset.from_csv(samples)
    assert data.n == 300
    hemi = ColatitudeBoundary(0.5 * np.pi)
    assert np.all(hemi.contains(data.x))

    code = main([
        "estimate", "--data", str(samples), "--model-kind", "vmf_mu_only",
        "--fixed-kappa", "6", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "estimate.json") as fh:
        report = json.load(fh)
    assert geodesic_angle(np.asarray(report["mu_x"]), MU) < 0.15

    code = main([
        "estimate", "--data", str(samples), "--model-kind", "vmf_mu_only",
        "--fixed-kappa", "6", "--g", "projected",
        "--drop-axis", "2", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "estimate.json") as fh:
        report = json.load(fh)
    assert report["g_kind"] == "projected"
    assert geodesic_angle(np.asarray(report["mu_x"]), MU) < 0.15


def test_cli_invalid_fixed_kappa_exit_2(tmp_path):
    assert main(["simulate", "--n", "100", "--seed", "3", "--kappa", "6",
                 "--out-dir", str(tmp_path)]) == 0
    samples = str(tmp_path / "samples.csv")
    for i, (model_kind, kappa) in enumerate(
            [("kent_frame", "inf"), ("kent_frame", "1e300"), ("vmf_mu_only", "nan"),
             ("vmf_mu_only", "0")]):
        out = tmp_path / f"fit{i}"
        code = main(["estimate", "--data", samples, "--model-kind", model_kind,
                     "--fixed-kappa", kappa, "--fixed-alpha", "0", "--out-dir", str(out)])
        assert code == 2
        assert not (out / "estimate.json").exists()


def test_cli_unused_fixed_parameter_exit_2(tmp_path):
    assert main(["simulate", "--n", "100", "--seed", "3", "--kappa", "6",
                 "--out-dir", str(tmp_path)]) == 0
    samples = str(tmp_path / "samples.csv")
    for i, extra in enumerate([["--model-kind", "vmf_mu_kappa", "--fixed-alpha", "5"],
                               ["--model-kind", "vmf_mu_kappa", "--fixed-kappa", "6"],
                               ["--model-kind", "vmf_mu_only", "--fixed-kappa", "6",
                                "--fixed-alpha", "5"]]):
        out = tmp_path / f"fit{i}"
        assert main(["estimate", "--data", samples, *extra, "--out-dir", str(out)]) == 2
        assert not (out / "estimate.json").exists()


def test_cli_drop_axis_without_projected_g_exit_2(tmp_path):
    assert main(["simulate", "--n", "100", "--seed", "3", "--kappa", "6",
                 "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "fit"
    assert main(["estimate", "--a0", "1.5708", "--data", str(tmp_path / "samples.csv"),
                 "--g", "haversine", "--drop-axis", "3", "--out-dir", str(out)]) == 2
    assert not (out / "estimate.json").exists()


def test_cli_projected_estimate_on_a_cap_folds_axis_2_by_default(tmp_path):
    # the cap a > 1.2 is larger than a hemisphere, so axis 1 would leave
    # points on the far side of its projection plane; without --drop-axis
    # the fit folds across axis 2, as the harness does
    assert main(["simulate", "--a0", "1.2", "--n", "300", "--out-dir", str(tmp_path)]) == 0
    samples = str(tmp_path / "samples.csv")
    for name, axis in (("default", []), ("axis2", ["--drop-axis", "2"])):
        assert main(["estimate", "--a0", "1.2", "--data", samples, "--g", "projected", *axis,
                     "--out-dir", str(tmp_path / name)]) == 0
    default, axis2 = ((tmp_path / name / "estimate.json").read_bytes() for name in ("default", "axis2"))
    assert default == axis2


def test_cli_non_finite_boundary_vertex_exit_3(tmp_path):
    # a NaN vertex is a data error, not a sampler that never accepts a draw
    outline = tmp_path / "nan.csv"
    outline.write_text("lat_deg,lon_deg\n30,-100\nnan,-80\n45,-80\n45,-100\n")
    assert main(["simulate", "--boundary-csv", str(outline), "--mu-a", "1", "--mu-b", "-1.5",
                 "--kappa", "6", "--n", "50", "--out-dir", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out" / "samples.csv").exists()


def test_cli_self_crossing_boundary_exit_3(tmp_path):
    # a polyline must be simple: the bow-tie's arcs 0 and 2 cross, and the
    # figure-8's lobes touch at (0, 0), a vertex the cycle visits twice
    outlines = {"bow_tie": "20,0\n-10,20\n10,20\n-20,0\n",
                "figure_eight": "0,0\n10,-10\n10,10\n0,0\n-10,10\n-10,-10\n"}
    for name, rows in outlines.items():
        outline = tmp_path / f"{name}.csv"
        outline.write_text("lat_deg,lon_deg\n" + rows)
        out = tmp_path / name
        assert main(["simulate", "--boundary-csv", str(outline), "--mu-a", "1.5", "--mu-b", "0.2",
                     "--kappa", "6", "--n", "50", "--out-dir", str(out)]) == 3
        assert not (out / "samples.csv").exists()


def test_cli_storms_malformed_boundary_exit_3(tmp_path):
    # storms reads its border as the other commands do: a short row or a
    # self-crossing outline is a data error, with no report written
    events = tmp_path / "events.csv"
    _write_events(events, [("e0", 5, 5), ("e1", -5, 8), ("e2", 2, 12)])
    outlines = {"short_row": "10,0\n0\n-10,-10\n5,20\n",
                "bow_tie": "20,0\n-10,20\n10,20\n-20,0\n"}
    for name, rows in outlines.items():
        outline = tmp_path / f"{name}.csv"
        outline.write_text("lat_deg,lon_deg\n" + rows)
        out = tmp_path / name
        assert main(["storms", "--events", str(events), "--boundary-csv", str(outline),
                     "--out-dir", str(out)]) == 3
        assert not (out / "storms_report.json").exists()
        with pytest.raises(DataError):
            run_storms(events, outline, out_dir=str(out), seed=0)


USA_OUTLINE = "src/tmsm/data/usa_outline.csv"


@pytest.mark.parametrize("rows, flags, code", [
    # the outline straddles the x2 = 0 plane asymmetrically: the drop axis
    # is a configuration error, as `tmsm estimate` has it
    ([("e0", 39.0, -98.5), ("e1", 35.0, -90.0), ("e2", 42.0, -105.0)], ["--drop-axis", "2"], 2),
    # one event inside (the other is excluded), or coincident events: no
    # vMF fit, a numerical failure, as `tmsm estimate` has it
    ([("e0", 39.0, -98.5), ("sea", 30.0, -60.0)], [], 4),
    ([("e0", 39.0, -98.5), ("e1", 39.0, -98.5), ("e2", 39.0, -98.5)], [], 4),
])
def test_cli_storms_exit_codes_match_estimate(tmp_path, rows, flags, code):
    events = tmp_path / "events.csv"
    _write_events(events, rows)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the excluded event
        assert main(["storms", "--events", str(events), "--boundary-csv", USA_OUTLINE,
                     "--out-dir", str(out), *flags]) == code
    assert not (out / "storms_report.json").exists()
    # estimate on the events inside exits with the same code
    _write_events(events, [row for row in rows if row[0] != "sea"])
    axis = flags or ["--drop-axis", "3"]
    assert main(["estimate", "--data", str(events), "--degrees", "--boundary-csv",
                 USA_OUTLINE, "--g", "projected", *axis, "--out-dir", str(out)]) == code


@pytest.mark.parametrize("methods", [["truncsm", "mle"], ["truncsm"]])
def test_truncsm_on_a_polyline_is_a_config_error_before_any_draw(tmp_path, monkeypatch, methods):
    # the flat chart baseline needs a colatitude boundary; the config is
    # rejected before the outline is read or a point is drawn
    spec = {"type": "polyline_csv", "path": USA_OUTLINE}
    with pytest.raises(ConfigError, match="truncsm"):
        ExperimentConfig(experiment="vmf_unknown_kappa", methods=tuple(methods), boundary=spec)
    draws = []
    monkeypatch.setattr(tmsm.bench, "sample_truncated", lambda *a, **k: draws.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "vmf_unknown_kappa", "n_grid": [50],
                               "replicates": 1, "methods": methods, "boundary": spec}))
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert draws == [] and not out.exists()


def test_cli_simulate_kent_at_high_ovalness(tmp_path):
    # 2 alpha / kappa = 0.99: a valid shape the vMF-envelope sampler refused
    argv = ["simulate", "--model", "kent", "--kappa", "20", "--alpha", "9.9",
            "--n", "500", "--seed", "4"]
    assert main(argv + ["--out-dir", str(tmp_path / "first")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "second")]) == 0
    first = (tmp_path / "first" / "samples.csv").read_bytes()
    assert first == (tmp_path / "second" / "samples.csv").read_bytes()
    data = Dataset.from_csv(tmp_path / "first" / "samples.csv")
    assert data.n == 500
    assert np.all(ColatitudeBoundary(0.5 * np.pi).contains(data.x))


def test_cli_simulate_kent_defaults_to_the_harness_truth(tmp_path):
    # --model kent alone takes the kent_known_shape truth (kappa 10, alpha 3)
    assert main(["simulate", "--model", "kent", "--n", "200", "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--model", "kent", "--kappa", "10", "--alpha", "3", "--n", "200",
                 "--out-dir", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "samples.csv").read_bytes()
    assert first == (tmp_path / "b" / "samples.csv").read_bytes()


def test_cli_model_flag_overrides_config_truth(tmp_path):
    cfg = tmp_path / "kent.json"
    cfg.write_text(json.dumps({"truth": {"model": "kent", "kappa": 20.0}}))
    base = ["simulate", "--config", str(cfg), "--n", "200", "--seed", "5"]
    assert main(base + ["--out-dir", str(tmp_path / "kent")]) == 0
    assert main(base + ["--model", "vmf", "--out-dir", str(tmp_path / "vmf")]) == 0
    # the config's alpha is a key the vMF truth does not read
    oval = tmp_path / "oval.json"
    oval.write_text(json.dumps({"truth": {"model": "kent", "kappa": 20.0, "alpha": 9.9}}))
    assert main(["simulate", "--config", str(oval), "--model", "vmf", "--n", "200",
                 "--out-dir", str(tmp_path / "oval")]) == 2
    assert main(["simulate", "--kappa", "20", "--n", "200", "--seed", "5",
                 "--out-dir", str(tmp_path / "direct")]) == 0
    vmf = (tmp_path / "vmf" / "samples.csv").read_bytes()
    assert vmf == (tmp_path / "direct" / "samples.csv").read_bytes()
    assert vmf != (tmp_path / "kent" / "samples.csv").read_bytes()


@pytest.mark.parametrize("case", ["vmf_alpha", "misspelt_truth_key", "polyline_hint",
                                  "drop_axis_unread", "repeated_method"])
def test_cli_rejects_config_values_a_run_does_not_read(tmp_path, case):
    # each value would be dropped, or read twice, by the run: exit code 2
    # before any artifact is written
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    bench = ["benchmark", "--replicates", "1", "--n-grid", "20", "--out-dir", str(out)]
    argv = {
        "vmf_alpha": ["simulate", "--alpha", "3", "--n", "20", "--out-dir", str(out)],
        "misspelt_truth_key": ["simulate", "--config", str(cfg), "--n", "20", "--out-dir", str(out)],
        "polyline_hint": ["simulate", "--config", str(cfg), "--n", "20", "--out-dir", str(out)],
        "drop_axis_unread": bench + ["--experiment", "vmf_unknown_kappa", "--config", str(cfg)],
        "repeated_method": bench + ["--methods", "mle,mle"],
    }[case]
    cfg.write_text(json.dumps({
        "misspelt_truth_key": {"truth": {"kapa": 50}},
        "polyline_hint": {"boundary": {"type": "polyline_csv", "path": USA_OUTLINE,
                                       "interior_hint": [1.0, 0.0, 0.0]}},
        "drop_axis_unread": {"drop_axis": 2},
    }.get(case, {})))
    assert main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-5"],
                                   ["--max-draw-factor", "0"], ["--max-draw-factor", "-1"]])
def test_cli_simulate_rejects_counts_below_one(tmp_path, flags):
    assert main(["simulate", *flags, "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "samples.csv").exists()


def test_cli_unknown_config_key_exit_2_for_every_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeed": 3, "out_dir": str(tmp_path / "out")}))
    assert main(["simulate", "--n", "100", "--kappa", "6", "--out-dir", str(tmp_path)]) == 0
    samples = str(tmp_path / "samples.csv")
    border = tmp_path / "border.csv"
    _write_hemisphere_boundary(border)
    events = tmp_path / "events.csv"
    _write_events(events, [(f"e{i}", -40.0 + i, -170.0 + 17.0 * i) for i in range(20)])
    for argv in (["simulate", "--n", "100"],
                 ["estimate", "--data", samples],
                 ["benchmark", "--n-grid", "40", "--replicates", "1"],
                 ["storms", "--events", str(events), "--boundary-csv", str(border)]):
        assert main(argv + ["--config", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()
    # estimate no longer reads a g_kind key: --g sets the scaling function
    cfg.write_text(json.dumps({"g_kind": "projected"}))
    assert main(["estimate", "--data", samples, "--config", str(cfg)]) == 2



@pytest.mark.parametrize("command,key,value", [
    ("simulate", "experiment", "kent_known_shape"),
    ("estimate", "replicates", 5),
    ("benchmark", "g_kind", "projected"),
    ("storms", "truth", {"kappa": 99}),
])
def test_cli_config_key_the_command_does_not_read_exit_2(tmp_path, command, key, value):
    assert main(["simulate", "--n", "100", "--kappa", "6", "--out-dir", str(tmp_path)]) == 0
    border = tmp_path / "border.csv"
    _write_hemisphere_boundary(border)
    events = tmp_path / "events.csv"
    _write_events(events, [(f"e{i}", -40.0 + i, -170.0 + 17.0 * i) for i in range(20)])
    argv = {"simulate": ["simulate", "--n", "100"],
            "estimate": ["estimate", "--data", str(tmp_path / "samples.csv")],
            "benchmark": ["benchmark", "--n-grid", "40", "--replicates", "1"],
            "storms": ["storms", "--events", str(events), "--boundary-csv", str(border)]}[command]
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    # each command reads out_dir, so only the unread key can fail
    cfg.write_text(json.dumps({"out_dir": str(out)}))
    assert main(argv + ["--config", str(cfg)]) == 0
    shutil.rmtree(out)
    cfg.write_text(json.dumps({"out_dir": str(out), key: value}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("settings", NON_INTEGER_COUNTS + [{"seed": -1}],
                         ids=lambda s: ",".join(f"{k}={v}" for k, v in s.items()))
def test_cli_non_integer_counts_exit_2(tmp_path, settings):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_grid": [50], "replicates": 1, **settings}))
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert main(["simulate", "--n", "50", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_cli_negative_seed_flag_exit_2(tmp_path):
    out = tmp_path / "out"
    assert main(["benchmark", "--seed", "-1", "--n-grid", "50", "--replicates", "1",
                 "--out-dir", str(out)]) == 2
    assert main(["simulate", "--seed", "-1", "--n", "50", "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_cli_estimate_unit_g_reads_the_boundary(tmp_path):
    assert main(["simulate", "--n", "100", "--kappa", "6", "--out-dir", str(tmp_path)]) == 0
    samples = str(tmp_path / "samples.csv")
    out = tmp_path / "out"
    # an unreadable boundary is a data error whichever g is chosen
    for g in ("unit", "haversine"):
        assert main(["estimate", "--g", g, "--boundary-csv", str(tmp_path / "missing.csv"),
                     "--data", samples, "--out-dir", str(out)]) == 3
    assert not out.exists()
    # g unit still skips the membership test: the hemisphere samples lie
    # outside the cap a < 0.3, which only the other g kinds reject
    cap = ["--a0", "0.3", "--side", "less", "--data", samples, "--out-dir", str(out)]
    assert main(["estimate", "--g", "haversine", *cap]) == 2
    assert main(["estimate", "--g", "unit", *cap]) == 0
