"""
Benchmark harness: simulated truncation experiments and the storm-track
analysis, emitting figure-ready CSV and JSON artifacts.

Experiments draw truncated datasets, fit each configured method on the
same replicate data, and tabulate per-replicate errors against the known
truth. All randomness flows through substreams keyed by
(seed, n, replicate), so replicate r sees the same data no matter which
methods run, how many workers are used, or whether other replicates were
added. Cells run in blocks of consecutive (n, replicate) pairs, and the
Kent frames of a block are fitted together, each to the bits it gets
alone, so no row depends on the block it falls in. With more than one
worker, a process pool takes a block per task, sent with the run's
config, truth and boundary.

Artifacts are deterministic byte-for-byte for a given config and seed:
rows are written in sorted (method, n, replicate) order with fixed float
formatting, JSON as one compact line with sorted keys. Per-method wall
times are recorded only when `timings` is set, since they necessarily
vary between runs.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import (
    MvnChartModel,
    hemisphere_chart_segments,
    mle_vmf,
    rmse_embedding,
    truncsm_mvn,
)
from .boundary import (
    Boundary,
    ColatitudeBoundary,
    _csv_text,
    _fold_side,
    latlon_to_spherical,
    load_boundary_csv,
    scaling_values,
    spherical_to_latlon,
)
from .estimator import (_FIXED_PARAMS, Dataset, EstimationResult, _fit_inputs, _fit_kent_frames,
                        _fit_vmf, _ScalingStats, estimate)
from .geometry import geodesic_angle, to_euclidean, to_spherical, unit_vector
from .models import KentParams, ModelParams, VmfParams
from .sampling import MAX_DRAW_FACTOR, sample_truncated, substream_rng

METHODS = ("tmsm_haversine", "tmsm_projected", "truncsm", "mle")


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class DataError(ValueError):
    """Unreadable or malformed input data (CLI exit code 3)."""


class AllReplicatesFailed(RuntimeError):
    """Every replicate of a run errored (CLI exit code 4)."""


# default truth of each truth model: mu on the rim of the hemisphere a > pi/2
_TRUTHS = {
    "vmf": {"model": "vmf", "mu_a": 0.5 * np.pi, "mu_b": np.pi, "kappa": 6.0},
    "kent": {"model": "kent", "mu_a": 0.5 * np.pi, "mu_b": np.pi, "kappa": 10.0, "alpha": 3.0,
             "gamma1": [0.0, 0.0, 1.0]},
}
# experiment -> (default truth model, default methods, tmsm model kind)
_EXPERIMENTS = {
    "vmf_known_kappa": ("vmf", ("tmsm_haversine", "tmsm_projected", "mle"), "vmf_mu_only"),
    "vmf_unknown_kappa": ("vmf", ("tmsm_haversine", "truncsm", "mle"), "vmf_mu_kappa"),
    "kent_known_shape": ("kent", ("tmsm_haversine", "mle"), "kent_frame"),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _is_integer(value) -> bool:
    """An int or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one benchmark run.

    An empty `methods` takes the experiment's default, and no method may
    repeat. `truth` is completed here, once, from the default truth of its
    model (by default the experiment's); a key that model does not read is
    a ConfigError. Method truncsm needs a colatitude boundary: with a
    polyline_csv one the config is rejected before any draw. A `drop_axis`
    needs method tmsm_projected, the one that reads it; `estimate` and
    `storms` take the default methods, which list it.
    """

    experiment: str = "vmf_known_kappa"
    n_grid: tuple[int, ...] = (125, 250, 500, 1000, 2000)
    replicates: int = 64
    seed: int = 0
    methods: tuple[str, ...] = ()
    boundary: dict = field(default_factory=lambda: {"type": "colatitude", "a0": 0.5 * np.pi})
    truth: dict = field(default_factory=dict)
    out_dir: str = "out"
    workers: int = 1
    timings: bool = False
    max_draw_factor: int = MAX_DRAW_FACTOR
    drop_axis: int | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        model, methods, _ = _EXPERIMENTS[self.experiment]
        counts = {"replicates": self.replicates, "seed": self.seed, "workers": self.workers,
                  "max_draw_factor": self.max_draw_factor}
        if self.drop_axis is not None:
            counts["drop_axis"] = self.drop_axis
        bad = [name for name, value in counts.items() if not _is_integer(value)]
        if not all(_is_integer(n) for n in self.n_grid):
            bad.insert(0, "n_grid entries")
        if bad:
            raise ConfigError(f"integers expected for {', '.join(bad)}")
        if not isinstance(self.timings, bool):
            raise ConfigError(f"timings must be true or false, got {self.timings!r}")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ConfigError(f"out_dir must be a path string, got {self.out_dir!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # plain ints, so that the rows CSV writes a numpy seed as an integer
        for name, value in counts.items():
            setattr(self, name, int(value))
        self.n_grid = tuple(int(n) for n in self.n_grid)
        if len(self.n_grid) == 0 or any(n < 1 for n in self.n_grid):
            raise ConfigError("n_grid must hold positive counts")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        self.methods = tuple(self.methods or methods)
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown method(s) {bad}; expected subset of {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods {list(self.methods)} list a method twice")
        if "truncsm" in self.methods and isinstance(self.boundary, dict) \
                and self.boundary.get("type") == "polyline_csv":
            raise ConfigError("method truncsm, the flat chart baseline, supports colatitude "
                              "boundaries only; list the methods without it")
        truth_model = self.truth.get("model", model)
        if truth_model not in _TRUTHS:
            raise ConfigError(f"unknown truth model in {self.truth}; expected one of {tuple(_TRUTHS)}")
        if model == "kent" and truth_model != "kent":
            raise ConfigError(f"experiment {self.experiment!r} needs a kent truth, got {self.truth}")
        unread = sorted(self.truth.keys() - _TRUTHS[truth_model].keys())
        if unread:
            raise ConfigError(f"a {truth_model} truth does not read key(s) {unread}")
        self.truth = {**_TRUTHS[truth_model], **self.truth}
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.max_draw_factor < 1:
            raise ConfigError("max_draw_factor must be >= 1")
        if self.drop_axis is not None and self.drop_axis not in (1, 2, 3):
            raise ConfigError("drop_axis must be 1, 2, or 3 (coordinate number)")
        if self.drop_axis is not None and "tmsm_projected" not in self.methods:
            raise ConfigError(f"drop_axis is read by method tmsm_projected only, and the "
                              f"methods {list(self.methods)} do not list it")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """
        Config from settings as a config file holds them: an unknown key,
        or a value of the wrong type, is a ConfigError.
        """
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        try:
            return cls(**raw)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(str(exc)) from exc


def truth_params(config: ExperimentConfig) -> ModelParams:
    """Materialize the configured ground-truth model, whose spec the
    config holds whole. Every number in the truth must be finite: a NaN
    or infinite one is a ConfigError."""
    t = config.truth
    try:
        numbers = {k: np.asarray(v, dtype=float) for k, v in t.items() if k != "model"}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid truth spec {t}: {exc}") from exc
    bad = sorted(k for k, v in numbers.items() if not np.all(np.isfinite(v)))
    if bad:
        raise ConfigError(f"truth {', '.join(bad)} must be finite, got {t}")
    try:
        mu = to_euclidean(float(t["mu_a"]), float(t["mu_b"]))
        if t["model"] == "kent":
            gamma1 = unit_vector(np.asarray(t["gamma1"], dtype=float))
            gamma2 = np.cross(mu, gamma1)
            return KentParams(mu, gamma1, gamma2, float(t["kappa"]), float(t["alpha"]))
        return VmfParams(mu, float(t["kappa"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid truth spec {t}: {exc}") from exc


def build_boundary(spec: dict) -> Boundary:
    """Boundary from its config dict ({type: colatitude | polyline_csv})."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind == "colatitude":
        try:
            return ColatitudeBoundary(**{k: v for k, v in spec.items() if k != "type"})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid colatitude boundary spec {spec}: {exc}") from exc
    if kind == "polyline_csv":
        path = spec.get("path")
        if not path:
            raise ConfigError("polyline_csv boundary spec needs a 'path'")
        unread = sorted(spec.keys() - {"type", "path"})
        if unread:
            raise ConfigError(f"polyline_csv boundary spec reads only 'type' and 'path', "
                              f"not {unread}")
        try:
            return load_boundary_csv(path)
        except OSError as exc:
            raise DataError(f"cannot read boundary file: {exc}") from exc
        except ValueError as exc:
            raise DataError(str(exc)) from exc
    raise ConfigError(f"boundary spec needs type colatitude or polyline_csv, got {spec}")


@dataclass
class BenchmarkRow:
    """One method's result on one (n, replicate) cell, or its error.

    `wall_time_ms` is set only with `timings`: the method's fit time, except
    that a tmsm row of a Kent experiment, whose frame is fitted jointly with
    the rest of its block, gets its own stats time plus an equal share of
    the block's fit.
    """

    method: str
    n: int
    replicate: int
    seed: int
    rmse_embedding: float | None
    geodesic_error_rad: float | None
    kappa_error: float | None
    wall_time_ms: float | None
    error: str = ""


def _tmsm_args(method: str, config: ExperimentConfig) -> tuple[str, int | None]:
    """(g_kind, drop_axis) of a tmsm method."""
    g_kind = method.removeprefix("tmsm_")
    return g_kind, config.drop_axis if g_kind == "projected" else None


def _fit_one(
    method: str,
    config: ExperimentConfig,
    fixed: dict,
    boundary: Boundary,
    data: Dataset,
) -> tuple[np.ndarray, float]:
    """Run one method on one replicate, given the truth's values of the
    parameters the experiment's model kind holds fixed; (mu_hat,
    kappa_hat), kappa_hat being the fixed value when kappa is fixed. The
    config has checked the method, and that truncsm has a colatitude
    boundary."""
    model_kind = _EXPERIMENTS[config.experiment][2]
    estimates_kappa = "kappa" not in fixed
    if method == "mle":
        p = mle_vmf(data, estimate_kappa=estimates_kappa, kappa=fixed.get("kappa"))
        return p.mu, p.kappa
    if method in ("tmsm_haversine", "tmsm_projected"):
        g_kind, drop_axis = _tmsm_args(method, config)
        res = estimate(data, boundary, g_kind=g_kind, model_kind=model_kind,
                       fixed=fixed, drop_axis=drop_axis)
        return res.params.mu, res.params.kappa
    a, b = data.spherical()  # truncsm
    model: MvnChartModel = truncsm_mvn(
        np.stack([a, b], axis=1), hemisphere_chart_segments(boundary.a0, boundary.side),
        estimate_precision=estimates_kappa,
        kappa_inv=None if estimates_kappa else 1.0 / fixed["kappa"],
    )
    return model.mean_direction(), 1.0 / model.kappa_inv


def _block_rows(
    config: ExperimentConfig, truth: ModelParams, boundary: Boundary, cells: list[tuple[int, int]]
) -> list[BenchmarkRow]:
    """
    All method rows for a block of (n, replicate) cells; errors become
    tagged rows. Each cell draws its data from its own substream and every
    method but the Kent tmsm fits runs on it alone. Those build their
    stats per cell and fit together, in one `_fit_kent_frames` call for
    the block, which gives each the result it gets alone; a cell whose
    data or stats fail is left out of it, and should the call raise, each
    row of the block carries its error. With `timings`, such a row's
    wall time is its stats time plus an equal share of the block's fit.
    """
    rows, batch = [], []
    model_kind = _EXPERIMENTS[config.experiment][2]
    fixed = {name: getattr(truth, name) for name in _FIXED_PARAMS[model_kind]}

    def score(row, mu_hat, kappa_hat, seconds):
        row.rmse_embedding = rmse_embedding(mu_hat, truth.mu)
        row.geodesic_error_rad = float(geodesic_angle(mu_hat, truth.mu))
        if "kappa" not in fixed:
            row.kappa_error = abs(float(kappa_hat) - truth.kappa)
        if config.timings:
            row.wall_time_ms = seconds * 1e3

    for n, replicate in cells:
        try:
            rng = substream_rng(config.seed, n, replicate)
            data = Dataset(
                sample_truncated(truth, boundary, n, rng, config.max_draw_factor).x
            )
        except Exception as exc:
            for method in config.methods:
                rows.append(BenchmarkRow(method, n, replicate, config.seed, None, None,
                                         None, None, f"sampling: {exc}"))
            continue
        for method in config.methods:
            row = BenchmarkRow(method, n, replicate, config.seed, None, None, None, None)
            rows.append(row)
            t0 = time.perf_counter()
            try:
                if model_kind == "kent_frame" and method.startswith("tmsm_"):
                    g_kind, drop_axis = _tmsm_args(method, config)
                    stats, _ = _fit_inputs(data, boundary, g_kind, model_kind, fixed, drop_axis)
                    batch.append((row, stats, time.perf_counter() - t0))
                    continue
                mu_hat, kappa_hat = _fit_one(method, config, fixed, boundary, data)
            except Exception as exc:
                row.error = f"{type(exc).__name__}: {exc}"
                continue
            score(row, mu_hat, kappa_hat, time.perf_counter() - t0)
    if batch:
        t0 = time.perf_counter()
        try:
            results = _fit_kent_frames([stats for _, stats, _ in batch], truth.kappa, truth.alpha)
        except Exception as exc:
            results = [exc] * len(batch)
        share = (time.perf_counter() - t0) / len(batch)
        for (row, _, seconds), res in zip(batch, results):
            if isinstance(res, Exception):
                row.error = f"{type(res).__name__}: {res}"
            else:
                score(row, res.params.mu, res.params.kappa, seconds + share)
    return rows


# Cells per block: the Kent fits of a block share one `_fit_kent_frames`
# call, and a pool worker takes a block at a time. Results do not depend on
# it; it bounds the memory of a block and keeps the pool's tasks many.
_BLOCK_CELLS = 32


def _run_replicates(config: ExperimentConfig) -> list[BenchmarkRow]:
    truth = truth_params(config)
    boundary = build_boundary(config.boundary)
    if "tmsm_projected" in config.methods:
        try:
            _fold_side(boundary, config.drop_axis)
        except ValueError as exc:  # a drop axis whose projection would fold the boundary
            raise ConfigError(str(exc)) from exc
    cells = [(n, r) for n in config.n_grid for r in range(config.replicates)]
    blocks = [cells[i:i + _BLOCK_CELLS] for i in range(0, len(cells), _BLOCK_CELLS)]
    # a worker beyond one per block would get no work; a lone block runs here
    workers = min(config.workers, len(blocks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # one block per task, so the blocks of every n spread over the workers
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(partial(_block_rows, config, truth, boundary), blocks))
    else:
        chunks = [_block_rows(config, truth, boundary, block) for block in blocks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.method, r.n, r.replicate))
    if all(row.error for row in rows):
        raise AllReplicatesFailed(
            f"all {len(rows)} rows failed; first error: {rows[0].error}"
        )
    return rows


def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def write_rows_csv(rows: list[BenchmarkRow], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in dataclasses.fields(BenchmarkRow))
        for row in rows:
            writer.writerow(v if isinstance(v, str) else _fmt(v) for v in vars(row).values())


def summarize_rows(rows: list[BenchmarkRow]) -> dict:
    """Per-(method, n) mean and sd of each error column, from rows only."""
    summary: dict = {}
    for row in rows:
        summary.setdefault(row.method, {}).setdefault(str(row.n), []).append(row)
    out: dict = {}
    for method, by_n in summary.items():
        out[method] = {}
        for n_key, cell in by_n.items():
            good = [r for r in cell if not r.error]
            entry: dict = {"n_ok": len(good), "n_failed": len(cell) - len(good)}
            for name, attr in (
                ("rmse", "rmse_embedding"),
                ("geodesic", "geodesic_error_rad"),
                ("kappa_error", "kappa_error"),
            ):
                vals = [getattr(r, attr) for r in good if getattr(r, attr) is not None]
                if vals:
                    arr = np.array(vals)
                    entry[f"{name}_mean"] = float(arr.mean())
                    entry[f"{name}_sd"] = float(arr.std())
            out[method][n_key] = entry
    return out


def _write_json(obj: dict, path: Path) -> None:
    """One line of JSON with sorted keys, through the C encoder (an indent
    would force the pure-Python one)."""
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


def _out_dir(path) -> Path:
    """
    `path` as the directory the artifacts go to, checked before any draw,
    fit or data read and not made here: a ConfigError names it when it,
    or a directory above it, is an existing file.
    """
    path = Path(path)
    # the nearest of it and the directories above it that exists
    above = next((p for p in (path, *path.parents) if p.exists()), path)
    if above.is_file():
        raise ConfigError(f"output directory {path} cannot be made: {above} is a file")
    return path


@dataclass
class BenchmarkResult:
    rows: list[BenchmarkRow]
    summary: dict
    csv_path: Path
    json_path: Path


def run_benchmark(config: ExperimentConfig) -> BenchmarkResult:
    """
    Execute the configured experiment and write rows CSV + summary JSON.

    Returns the in-memory rows and summary alongside the artifact paths.
    Raises AllReplicatesFailed only when no replicate of any method
    produced a result; individual failures become tagged rows.
    """
    out_dir = _out_dir(config.out_dir)
    rows = _run_replicates(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.experiment}_rows.csv"
    json_path = out_dir / f"{config.experiment}_summary.json"
    write_rows_csv(rows, csv_path)
    summary = {
        "experiment": config.experiment,
        "seed": config.seed,
        "replicates": config.replicates,
        "n_grid": list(config.n_grid),
        "methods": summarize_rows(rows),
    }
    _write_json(summary, json_path)
    return BenchmarkResult(rows, summary, csv_path, json_path)


_LAT_ALIASES = ("lat", "latitude", "lat_deg", "begin_lat")
_LON_ALIASES = ("lon", "longitude", "lon_deg", "lng", "begin_lon")
_ID_ALIASES = ("event_id", "id", "episode_id")


def _pick_column(fieldnames: list[str], aliases: tuple[str, ...]) -> int | None:
    """Position of the first alias among the header names, matched
    case-insensitively; a repeated name gives its last column."""
    lowered = {name.lower().strip(): j for j, name in enumerate(fieldnames)}
    for alias in aliases:
        if alias in lowered:
            return lowered[alias]
    return None


def ingest_events(path) -> tuple[Dataset, list[str], np.ndarray, int]:
    """
    Read geolocated events from CSV into unit vectors.

    Latitude/longitude columns are matched case-insensitively against
    common aliases, and a repeated header name reads its last column. An
    id column is optional: without one, an event's id is its position
    among the non-blank data rows. Blank lines are ignored, so the header
    is the first non-blank line, and a UTF-8 byte-order mark is dropped.
    Rows with unparseable or out-of-range coordinates, and rows too short
    to hold a read column, are skipped with a warning. Rows are read by
    `csv.reader` and indexed by column position, into columns.

    Returns:
        (dataset, ids, latlon, skipped_count): the kept events' ids as a
        list of str and their (n, 2) degrees latitude and longitude, in
        file order.

    Raises:
        DataError: unreadable file, missing coordinate columns, or zero
            valid rows.
    """
    try:
        text = _csv_text(path)
    except OSError as exc:
        raise DataError(f"cannot read events file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc
    # csv.reader gives [] for a blank line: no header, no row and no
    # positional id
    reader = filter(None, csv.reader(io.StringIO(text, newline="")))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty events file")
    lat_col = _pick_column(header, _LAT_ALIASES)
    lon_col = _pick_column(header, _LON_ALIASES)
    if lat_col is None or lon_col is None:
        raise DataError(
            f"{path}: need latitude and longitude columns "
            f"(accepted: {_LAT_ALIASES} / {_LON_ALIASES})"
        )
    id_col = _pick_column(header, _ID_ALIASES)
    ids, coords = [], []
    skipped = 0
    for i, row in enumerate(reader):
        try:
            lat = float(row[lat_col])
            lon = float(row[lon_col])
            event_id = str(i) if id_col is None else row[id_col]
        except (IndexError, ValueError):
            skipped += 1
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            skipped += 1
            continue
        ids.append(event_id)
        coords.append((lat, lon))
    if skipped:
        warnings.warn(f"{path}: skipped {skipped} malformed event row(s)", UserWarning)
    if not ids:
        raise DataError(f"{path}: no valid event rows")
    latlon = np.array(coords)
    a, b = latlon_to_spherical(latlon[:, 0], latlon[:, 1])
    return Dataset.from_spherical(a, b), ids, latlon, skipped


def initial_bearing_deg(lat1, lon1, lat2, lon2) -> float:
    """Great-circle initial bearing from point 1 to point 2, degrees in (-180, 180]."""
    p1, p2 = np.deg2rad(lat1), np.deg2rad(lat2)
    dl = np.deg2rad(lon2 - lon1)
    y = np.sin(dl) * np.cos(p2)
    x = np.cos(p1) * np.sin(p2) - np.sin(p1) * np.cos(p2) * np.cos(dl)
    bearing = np.rad2deg(np.arctan2(y, x))
    if bearing <= -180.0:
        bearing += 360.0
    return float(bearing)


def _fit_entry(params: ModelParams, result: EstimationResult | None = None) -> dict:
    """
    A fit as every report gives it: the mean direction in latitude and
    longitude degrees and in embedding coordinates, and kappa; for Kent
    parameters also the axes gamma1 and gamma2 and alpha; and given the
    fit's EstimationResult, also its objective and whether it converged.
    """
    a, b = to_spherical(params.mu)
    lat, lon = spherical_to_latlon(float(a), float(b))
    entry = {
        "mu_lat_deg": float(lat),
        "mu_lon_deg": float(lon),
        "mu_x": [float(v) for v in params.mu],
        "kappa": float(params.kappa),
    }
    if isinstance(params, KentParams):
        entry.update(gamma1=[float(v) for v in params.gamma1],
                     gamma2=[float(v) for v in params.gamma2], alpha=float(params.alpha))
    if result is not None:
        entry.update(objective=result.objective, converged=result.converged)
    return entry


def run_storms(
    events_path,
    boundary_path,
    out_dir,
    seed: int,
    drop_axis: int | None = None,
) -> dict:
    """
    Fit the mean direction of geolocated events inside a polyline border.

    Ingests events as columns (ids and an (n, 2) latitude/longitude
    array), excludes any outside the boundary (with a warning: that is a
    data mismatch, not a fatal error), then fits the rotational model by
    truncation-blind maximum likelihood and by the truncated estimator
    under both scaling functions. The JSON report carries each fit as
    `_fit_entry` gives it (a truncated fit with its objective and
    convergence flag), the bearing from the MLE fit to each truncated fit,
    and the event coordinates for external plotting, as parsed. Both truncated fits are closed-form, so `seed` is
    only recorded in the report and no longer changes the fits. Membership
    is tested once, by the filter: both truncated fits take the kept
    events, and g does not test it again. The border is read on every
    call but built once per distinct outline text (`load_boundary_csv`),
    so reports for many seasons against one border do only per-season
    work. The report goes to `storms_report.json` in
    `out_dir` as one line of JSON with sorted keys (`python -m json.tool`
    pretty-prints it) and is also returned.

    Raises:
        DataError: unreadable events or border, or no event inside it.
        ConfigError: a drop axis whose projection would fold the border.
        FloatingPointError: events too few or too alike to fit, with no
            report written.
    """
    out = _out_dir(out_dir)
    data, ids, latlon, _ = ingest_events(events_path)
    boundary = build_boundary({"type": "polyline_csv", "path": boundary_path})
    inside = np.asarray(boundary.contains(data.x))
    excluded = [ids[i] for i in np.flatnonzero(~inside)]
    if excluded:
        warnings.warn(
            f"{len(excluded)} event(s) outside the boundary were excluded", UserWarning
        )
    if not np.any(inside):
        raise DataError("no events inside the boundary")
    data = Dataset(data.x[inside])

    fits = {}
    try:
        p_mle = mle_vmf(data, estimate_kappa=True)
    except ValueError as exc:
        # one event, or coincident ones: the truncated fits fail alike
        raise FloatingPointError(f"the events do not determine a vMF fit: {exc}") from exc
    fits["mle"] = _fit_entry(p_mle)
    for method, g_kind, axis in (("tmsm_haversine", "haversine", None),
                                 ("tmsm_projected", "projected", drop_axis)):
        # the kept events passed the membership filter above
        try:
            stats = _ScalingStats(data.x, *scaling_values(boundary, data.x, g_kind, axis))
        except ValueError as exc:  # a drop axis whose projection would fold the border
            raise ConfigError(str(exc)) from exc
        res = _fit_vmf(stats, None)
        entry = _fit_entry(res.params, res)
        entry["bearing_from_mle_deg"] = initial_bearing_deg(
            fits["mle"]["mu_lat_deg"], fits["mle"]["mu_lon_deg"],
            entry["mu_lat_deg"], entry["mu_lon_deg"],
        )
        fits[method] = entry

    report = {
        "n_events": data.n,
        "n_excluded": len(excluded),
        "excluded_ids": excluded,
        "fits": fits,
        "events": latlon[inside].tolist(),
        "seed": seed,
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_json(report, out / "storms_report.json")
    return report
