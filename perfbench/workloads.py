"""The three workloads: inputs made from the seed, the closed-loop job
sequence, and the checks on their outputs.

One client runs the jobs of a workload back to back (closed loop,
workers=1). The first `mandatory` jobs always run, so that every output
check has data; the runner then starts a job while one more is
expected to end within its time.

Every dataset comes from `substream_rng(seed, n, tag)`, the scheme the
harness uses for its replicates. Harness rounds get their own seed from
`round_seed`, so their cells never repeat a direct-call dataset.
"""

from __future__ import annotations

import csv
import os
from importlib import resources

import numpy as np
from tmsm.bench import ExperimentConfig, run_benchmark, run_storms
from tmsm.boundary import ColatitudeBoundary, latlon_to_spherical, load_boundary_csv, spherical_to_latlon
from tmsm.estimator import Dataset, estimate
from tmsm.geometry import geodesic_angle, to_euclidean, to_spherical
from tmsm.models import KentParams, VmfParams
from tmsm.sampling import sample_truncated, substream_rng

from spans import counting_twin

USA_OUTLINE = str(resources.files("tmsm").joinpath("data/usa_outline.csv"))
RIM_MU = to_euclidean(0.5 * np.pi, np.pi)


def round_seed(seed: int, r: int) -> int:
    """Harness seed of round r of a run with this workload seed."""
    return int(np.random.SeedSequence((int(seed), int(r))).generate_state(1)[0])


def hemisphere_truths():
    """vMF (kappa 6) and Kent (kappa 10, alpha 3) truths with mu on the rim."""
    gamma1 = np.array([0.0, 0.0, 1.0])
    kent = KentParams(RIM_MU, gamma1, np.cross(RIM_MU, gamma1), 10.0, 3.0)
    return VmfParams(RIM_MU, 6.0), kent


def usa_truth() -> VmfParams:
    """vMF with kappa 6 at 25N 75W, off the coast and outside the border."""
    a, b = latlon_to_spherical(25.0, -75.0)
    return VmfParams(to_euclidean(a, b), 6.0)


class Workload:
    """Shared bookkeeping; subclasses define the inputs and the jobs.

    Attributes filled while jobs run:
        times: spans per operation kind ("season", "report", "estimate");
            a season is the list of spans whose sum is its time.
        cells: harness cells finished per season.
        errors: geodesic errors of the tmsm_haversine fits.
        fit_calls: (iterations, converged, dataset, g_kind, drop_axis,
            span) of every direct `estimate` call.
        sampling: (raw draws, accepted, span) of every direct
            `sample_truncated` call.
    """

    name = ""
    mandatory = 0
    trace_jobs = 0
    tiny: dict = {}
    # Projected-g fold axis: None is tmsm's default; the harness folds
    # colatitude regions across axis 2 (see `tmsm.bench`).
    drop_axis: int | None = None

    def __init__(self, seed: int, tmp_dir: str, tracer, gauge, count: bool = False,
                 tiny: bool = False):
        if tiny:
            # Smoke-test sizes: the same jobs on a few small datasets.
            self.__dict__.update(self.tiny)
        self.seed = int(seed)
        self.tmp = tmp_dir
        self.tracer = tracer
        self.gauge = gauge
        self.count = count
        self.times: dict[str, list] = {"season": [], "report": [], "estimate": []}
        self.cells: list[int] = []
        self.errors: list[float] = []
        self.fit_calls: list[tuple] = []
        self.sampling: list[tuple[int, int, float]] = []
        self.job_points: list[int] = []
        self.harness_rows: list[tuple[str, int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        self.tracer.job = "setup"
        with self.tracer.span("boundary.build"):
            boundary = self.make_boundary()
        self.boundary = counting_twin(boundary) if self.count else boundary
        with self.tracer.span("setup.inputs"):
            self.make_inputs()

    def make_boundary(self):
        raise NotImplementedError

    def make_inputs(self) -> None:
        pass

    # -- jobs -------------------------------------------------------------

    def run_job(self, i: int) -> None:
        self.tracer.job = str(i)
        self.gauge.tick()
        before = getattr(self.boundary, "points", 0)
        try:
            with self.tracer.span("job"):
                self.job(i)
        except Exception as exc:  # one failed job must not end the run
            self.failed += 1
            self.problems.append(f"job {i}: {type(exc).__name__}: {exc}")
        if self.count and self.boundary.points > before:
            self.job_points.append(self.boundary.points - before)

    def job(self, i: int) -> None:
        raise NotImplementedError

    def check(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def sample(self, truth, n: int, tag: int) -> np.ndarray:
        with self.tracer.span("sampling.sample_truncated") as t:
            s = sample_truncated(truth, self.boundary, n, substream_rng(self.seed, n, tag))
        self.sampling.append((s.n_raw, n, t))
        return s.x

    def fit(self, data: Dataset, model_kind: str, g_kind: str, fixed=None, drop_axis=None):
        """One direct `estimate` call, as `tmsm estimate` makes it (seed 0)."""
        self.attempted += 1
        with self.tracer.span(f"estimator.estimate.{model_kind}.{g_kind}") as t:
            res = estimate(data, self.boundary, g_kind=g_kind, model_kind=model_kind,
                           fixed=fixed, seed=0, drop_axis=drop_axis)
        self.times["estimate"].append(t)
        self.fit_calls.append((res.iterations, res.converged, data, g_kind, drop_axis, t))
        mu = res.params.mu
        self.check(
            np.all(np.isfinite(mu)) and abs(np.linalg.norm(mu) - 1.0) < 1e-9
            and np.isfinite(res.objective) and np.isfinite(res.params.kappa),
            f"{model_kind}/{g_kind} estimate is not finite or its mu is not a unit vector",
        )
        return res

    def harness(self, r: int) -> None:
        """One harness round: every `run_benchmark` grid of the workload."""
        rows = []
        cells = 0
        with self.tracer.span("season") as season:
            for k, experiment in enumerate(self.experiments):
                config = ExperimentConfig(
                    experiment=experiment, n_grid=self.n_grid, replicates=1,
                    seed=round_seed(self.seed, r), out_dir=self.tmp,
                )
                self.attempted += len(config.methods) * len(config.n_grid)
                with self.tracer.span("bench.run_benchmark") as t:
                    result = run_benchmark(config)
                if k == 0:
                    self.times["report"].append(t)
                cells += len(config.n_grid)
                rows += result.rows
        self.times["season"].append([season])
        self.cells.append(cells)
        for row in rows:
            if row.error:
                self.failed += 1
                self.problems.append(f"harness row {row.method} n={row.n}: {row.error}")
                continue
            self.check(np.isfinite(row.geodesic_error_rad),
                       f"harness row {row.method} n={row.n} has a non-finite error")
            self.harness_rows.append((row.method, row.n, row.geodesic_error_rad))
            if row.method == "tmsm_haversine":
                self.errors.append(row.geodesic_error_rad)

    def finish_checks(self) -> None:
        """Checks that need the whole run."""


class _Hemisphere(Workload):
    """The region a > pi/2, with datasets for the direct calls drawn at set-up."""

    drop_axis = 2

    def make_boundary(self):
        return ColatitudeBoundary(0.5 * np.pi)

    def make_inputs(self) -> None:
        self.datasets = []
        for i in range(self.n_datasets):
            x = self.sample(self.truth, self.n_direct, i)
            # Independent of tmsm: the region a > pi/2 is the half-space x1 < 0.
            self.check(np.all(x[:, 0] < 0.0), "an accepted point lies outside the hemisphere")
            self.datasets.append(Dataset(x))
        self.probe_x = self.datasets[0].x


class HemiVmf(_Hemisphere):
    """Hemisphere, vMF truth on the rim: the fit layer and projected g.

    Harness rounds run the known- and unknown-kappa grids; between rounds a
    batch of direct `estimate` calls cycles through datasets drawn at set-up
    and three fit kinds.
    """

    name = "hemi_vmf"
    truth = hemisphere_truths()[0]
    experiments = ("vmf_known_kappa", "vmf_unknown_kappa")
    n_grid = (250, 2000)
    n_direct = 2000
    n_datasets = 24
    calls = (("vmf_mu_only", "haversine"), ("vmf_mu_only", "projected"),
             ("vmf_mu_kappa", "haversine"))
    batch = 10
    mandatory = 2
    trace_jobs = 4
    tiny = {"n_grid": (50, 100), "n_direct": 100, "n_datasets": 2, "trace_jobs": 2}

    def job(self, i: int) -> None:
        r = i // 2
        if i % 2 == 0:
            self.harness(r)
            return
        order = [(d, kind) for d in range(self.n_datasets) for kind in self.calls]
        for k in range(r * self.batch, (r + 1) * self.batch):
            d, (model_kind, g_kind) = order[k % len(order)]
            fixed = {"kappa": self.truth.kappa} if model_kind == "vmf_mu_only" else None
            drop_axis = self.drop_axis if g_kind == "projected" else None
            res = self.fit(self.datasets[d], model_kind, g_kind, fixed, drop_axis)
            if g_kind == "haversine":
                self.errors.append(float(geodesic_angle(res.params.mu, self.truth.mu)))

    def finish_checks(self) -> None:
        def mean_err(method):
            errs = [e for m, n, e in self.harness_rows if m == method and n == self.n_grid[-1]]
            return float(np.mean(errs)) if errs else float("nan")

        tmsm_err, mle_err = mean_err("tmsm_haversine"), mean_err("mle")
        self.check(tmsm_err < mle_err, f"at n={self.n_grid[-1]} tmsm_haversine error "
                                       f"{tmsm_err:.4f} is not below MLE {mle_err:.4f}")


class KentFrame(_Hemisphere):
    """Hemisphere, Kent truth: the same fit layer through `batch_terms`.

    Harness rounds run the known-shape Kent grid; between rounds two direct
    `kent_frame` fits run on datasets drawn at set-up.
    """

    name = "kent_frame"
    truth = hemisphere_truths()[1]
    experiments = ("kent_known_shape",)
    n_grid = (250, 1000)
    n_direct = 1000
    n_datasets = 20
    mandatory = 2
    trace_jobs = 2
    tiny = {"n_grid": (50, 100), "n_direct": 100, "n_datasets": 2}

    def job(self, i: int) -> None:
        r = i // 2
        if i % 2 == 0:
            self.harness(r)
            return
        fixed = {"kappa": self.truth.kappa, "alpha": self.truth.alpha}
        for k in (2 * r, 2 * r + 1):
            self.gauge.tick()
            res = self.fit(self.datasets[k % self.n_datasets], "kent_frame", "haversine", fixed)
            self.errors.append(float(geodesic_angle(res.params.mu, self.truth.mu)))


class UsaStorms(Workload):
    """USA outline, vMF truth outside the border: polygon membership.

    One job is one surrogate season: 2000 truncated draws, an events CSV,
    then `run_storms`. After the season, the report's two truncated fits
    (`vmf_mu_kappa` with haversine and with projected g) run again as
    direct `estimate` calls on the season's points, so that `estimate` is
    timed on the fits the storms user makes.
    """

    name = "usa_storms"
    n_season = 2000
    mandatory = 2
    trace_jobs = 1
    tiny = {"n_season": 400}

    truth = usa_truth()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bearings: list[float] = []

    def make_boundary(self):
        return load_boundary_csv(USA_OUTLINE)

    def make_inputs(self) -> None:
        self.check(not self.boundary.contains(self.truth.mu), "the USA truth lies inside the border")
        self.reference = ReferenceOutline(USA_OUTLINE)
        self.check(not self.reference.inside(self.truth.mu[None])[0],
                   "the USA truth lies inside the border (reference test)")

    def job(self, i: int) -> None:
        x = self.sample(self.truth, self.n_season, i)
        sampled = self.sampling[-1][2]
        stray = self.reference.strays(x)
        self.check(stray == 0, f"season {i}: {stray} accepted point(s) lie outside the border "
                               f"by the reference test")
        self.probe_x = x
        path = os.path.join(self.tmp, "events.csv")
        with self.tracer.span("perfbench.write_events") as written:
            write_events(path, x)
        self.gauge.tick()
        self.attempted += 3  # the MLE fit and both truncated fits
        with self.tracer.span("bench.run_storms") as t:
            report = run_storms(path, USA_OUTLINE, out_dir=self.tmp, seed=0)
        self.gauge.tick()
        self.times["season"].append([sampled, written, t])
        self.times["report"].append(t)
        self.cells.append(1)
        self.check(report["n_events"] == self.n_season and report["n_excluded"] == 0,
                   f"season {i}: run_storms excluded {report['n_excluded']} accepted point(s)")
        for method, fit in report["fits"].items():
            mu = np.asarray(fit["mu_x"])
            self.check(np.all(np.isfinite(mu)) and abs(np.linalg.norm(mu) - 1.0) < 1e-9
                       and np.isfinite(fit["kappa"]),
                       f"season {i}: {method} fit is not finite or its mu is not a unit vector")
        fit = report["fits"]["tmsm_haversine"]
        self.bearings.append(fit["bearing_from_mle_deg"])
        self.errors.append(float(geodesic_angle(np.asarray(fit["mu_x"]), self.truth.mu)))
        for g_kind in ("haversine", "projected"):
            self.fit(Dataset(x), "vmf_mu_kappa", g_kind)
            self.gauge.tick()

    def finish_checks(self) -> None:
        bearing = float(np.mean(self.bearings)) if self.bearings else float("nan")
        self.check(90.0 < bearing < 180.0,
                   f"mean bearing from MLE to tmsm_haversine is {bearing:.1f} deg, not in (90, 180)")


class ReferenceOutline:
    """Membership in the USA outline without tmsm's membership code.

    The outline's edges are great-circle arcs between the CSV vertices. A
    gnomonic projection centred on the normalised vertex mean maps them to
    straight lines, so an even-odd crossing test in that plane decides
    membership exactly. tmsm tests membership against a curve resampled at
    4,096 points, which cuts the corners of the outline by less than its
    0.00057 rad sample step; a point counts as a stray only when it lies
    outside the exact outline by more than `BAND_RAD`.
    """

    BAND_RAD = 1e-3

    def __init__(self, path: str):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        lat = np.deg2rad([float(r["lat_deg"]) for r in rows])
        lon = np.deg2rad([float(r["lon_deg"]) for r in rows])
        # tmsm's embedding: x1 is the north pole, (x2, x3) the equator plane.
        self.vertices = np.stack([np.sin(lat), np.cos(lat) * np.cos(lon),
                                  np.cos(lat) * np.sin(lon)], axis=1)
        centre = self.vertices.mean(axis=0)
        self.centre = centre / np.linalg.norm(centre)
        e1 = np.cross(self.centre, [0.0, 0.0, 1.0])
        e1 /= np.linalg.norm(e1)
        self.frame = np.stack([e1, np.cross(self.centre, e1)], axis=1)
        self.plane = self.project(self.vertices)

    def project(self, x: np.ndarray) -> np.ndarray:
        return (x @ self.frame) / (x @ self.centre)[:, None]

    def inside(self, x: np.ndarray) -> np.ndarray:
        """Even-odd test of each point of x (m, 3) against the outline."""
        front = x @ self.centre > 0.0
        q = self.project(np.where(front[:, None], x, self.centre))
        v, w = self.plane, np.roll(self.plane, -1, axis=0)
        qx, qy = q[:, :1], q[:, 1:]
        straddles = (v[:, 1] > qy) != (w[:, 1] > qy)
        with np.errstate(divide="ignore", invalid="ignore"):
            cut_x = v[:, 0] + (qy - v[:, 1]) * (w[:, 0] - v[:, 0]) / (w[:, 1] - v[:, 1])
        crossings = np.sum(straddles & (qx < cut_x), axis=1)
        return front & (crossings % 2 == 1)

    def border_distance(self, x: np.ndarray) -> np.ndarray:
        """Angular distance (rad) from each point of x (m, 3) to the outline."""
        a, b = self.vertices, np.roll(self.vertices, -1, axis=0)
        normal = np.cross(a, b)
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        off = x @ normal.T
        foot = x[:, None, :] - off[..., None] * normal
        on_arc = ((np.cross(a, foot) * normal).sum(-1) >= 0.0) & (
            (np.cross(foot, b) * normal).sum(-1) >= 0.0)
        to_arc = np.arcsin(np.clip(np.abs(off), 0.0, 1.0))
        to_end = np.arccos(np.clip(np.maximum(x @ a.T, x @ b.T), -1.0, 1.0))
        return np.where(on_arc, to_arc, to_end).min(axis=1)

    def strays(self, x: np.ndarray) -> int:
        """Points of x outside the outline by more than the band."""
        out = x[~self.inside(x)]
        return int(np.sum(self.border_distance(out) > self.BAND_RAD)) if len(out) else 0


def write_events(path: str, x: np.ndarray) -> None:
    """Events CSV (event_id, lat, lon) as `tmsm storms` reads it."""
    a, b = to_spherical(x)
    lat, lon = spherical_to_latlon(a, b)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_id", "lat", "lon"])
        for i in range(x.shape[0]):
            writer.writerow([i, f"{lat[i]:.17g}", f"{lon[i]:.17g}"])


WORKLOADS = {w.name: w for w in (HemiVmf, KentFrame, UsaStorms)}
