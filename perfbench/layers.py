"""Layer probes for the traced run.

Each probe calls one layer of tmsm on its own, on inputs drawn from the
workload seed, so that a change to that layer shows in its own figure. The
probes are the same in every workload's traced run; the workload's own jobs
add the figures that depend on it (see `run.py`). Times are scaled to the
reference machine speed like the end-to-end figures (see `speed.py`).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics

import numpy as np
from tmsm import cli
from tmsm.baselines import hemisphere_chart_segments, mle_vmf, truncsm_mvn
from tmsm.bench import ExperimentConfig, run_benchmark
from tmsm.boundary import ColatitudeBoundary, load_boundary_csv, scaling_values
from tmsm.estimator import Dataset, estimate
from tmsm.models import batch_terms
from tmsm.sampling import sample_kent, sample_truncated, sample_vmf, substream_rng

from workloads import USA_OUTLINE, hemisphere_truths, round_seed, usa_truth

# Substream tag of probe inputs; workload datasets use small tags.
PROBE_TAG = 7919

FULL = {"hemi_n": 2000, "kent_n": 1000, "usa_n": 1000, "colat_pts": 20000, "poly_pts": 1000,
        "grid": (250, 2000), "reps": 3}
TINY = {"hemi_n": 100, "kent_n": 100, "usa_n": 200, "colat_pts": 2000, "poly_pts": 100,
        "grid": (50, 100), "reps": 1}


def metric(value: float, unit: str, samples: int, base: str | None = None) -> dict:
    out = {"value": float(value), "unit": unit, "samples": int(samples)}
    if base:
        out["base"] = base
    return out


def median_ms(seconds: list[float]) -> float:
    return 1e3 * statistics.median(seconds)


class Probes:
    def __init__(self, seed: int, tracer, gauge, tmp_dir: str, tiny: bool):
        self.seed = seed
        self.tracer = tracer
        self.gauge = gauge
        self.tmp = tmp_dir
        self.size = TINY if tiny else FULL
        self.metrics: dict[str, dict] = {}
        self.vmf, self.kent = hemisphere_truths()
        self.hemi = ColatitudeBoundary(0.5 * np.pi)
        self.usa = load_boundary_csv(USA_OUTLINE)

    def timed(self, name: str, fn, reps: int) -> list[float]:
        """Scaled seconds of `reps` calls of `fn`, each in its own span."""
        spans = []
        self.gauge.tick()
        for _ in range(reps):
            with self.tracer.span(name) as t:
                fn()
            spans.append(t)
        self.gauge.tick()
        return [self.gauge.scaled(t) for t in spans]

    def draw(self, truth, boundary, n: int) -> Dataset:
        rng = substream_rng(self.seed, n, PROBE_TAG)
        return Dataset(sample_truncated(truth, boundary, n, rng).x)

    def run(self, workload) -> dict[str, dict]:
        self.tracer.job = "probe"
        size, reps, m = self.size, self.size["reps"], self.metrics
        hemi_data = self.draw(self.vmf, self.hemi, size["hemi_n"])
        kent_data = self.draw(self.kent, self.hemi, size["kent_n"])
        usa_data = self.draw(usa_truth(), self.usa, size["usa_n"])

        rng = substream_rng(self.seed, PROBE_TAG)
        t = self.timed("sampling.sample_kent", lambda: sample_kent(self.kent, size["kent_n"], rng), 5)
        m["sampling.kent_ms"] = metric(median_ms(t), "ms", len(t))

        x = sample_vmf(self.vmf, size["colat_pts"], rng)
        t = self.timed("boundary.contains.colatitude", lambda: self.hemi.contains(x), 5)
        m["boundary.contains_us_per_pt.colatitude"] = metric(
            1e6 * statistics.median(t) / len(x), "us", len(t))
        x = sample_vmf(usa_truth(), size["poly_pts"], rng)
        t = self.timed("boundary.contains.polyline", lambda: self.usa.contains(x), reps)
        m["boundary.contains_us_per_pt.polyline"] = metric(
            1e6 * statistics.median(t) / len(x), "us", len(t))

        self.scaling(workload)
        self.fits(hemi_data, kent_data, usa_data)

        psi_x = kent_data.x
        t = self.timed("models.batch_terms", lambda: batch_terms(self.kent, psi_x), 200)
        m["models.batch_terms_us"] = metric(1e6 * statistics.median(t), "us", len(t))
        t = self.timed("baselines.mle_vmf", lambda: mle_vmf(hemi_data, estimate_kappa=True), 20)
        m["baselines.mle_ms"] = metric(median_ms(t), "ms", len(t))
        z = np.stack(hemi_data.spherical(), axis=1)
        segments = hemisphere_chart_segments()
        t = self.timed("baselines.truncsm_mvn",
                       lambda: truncsm_mvn(z, segments, estimate_precision=True), 5)
        m["baselines.truncsm_ms"] = metric(median_ms(t), "ms", len(t))

        self.harness()
        self.cli(hemi_data)
        return m

    def scaling(self, workload) -> None:
        """g on the workload's own boundary and data."""
        x, drop_axis, m = workload.probe_x, workload.drop_axis, self.metrics
        t = self.timed("boundary.g.haversine",
                       lambda: scaling_values(workload.boundary, x, "haversine"), self.size["reps"])
        m["boundary.g_haversine_ms"] = metric(median_ms(t), "ms", len(t))
        cold, warm = [], []
        for _ in range(2):
            fresh = workload.make_boundary()
            cold += self.timed("boundary.g.projected.cold",
                               lambda: scaling_values(fresh, x, "projected", drop_axis), 1)
            warm += self.timed("boundary.g.projected.warm",
                               lambda: scaling_values(fresh, x, "projected", drop_axis), 1)
        m["boundary.g_projected_cold_ms"] = metric(median_ms(cold), "ms", len(cold))
        m["boundary.g_projected_warm_ms"] = metric(median_ms(warm), "ms", len(warm))

    def fits(self, hemi_data, kent_data, usa_data) -> None:
        reps = self.size["reps"]
        kappa = {"kappa": self.vmf.kappa}
        kent = {"kappa": self.kent.kappa, "alpha": self.kent.alpha}
        cases = (
            ("vmf_mu_only.haversine", hemi_data, self.hemi, "vmf_mu_only", "haversine", kappa, None, reps),
            ("vmf_mu_only.projected", hemi_data, self.hemi, "vmf_mu_only", "projected", kappa, 2, reps),
            ("vmf_mu_kappa.haversine", hemi_data, self.hemi, "vmf_mu_kappa", "haversine", None, None, reps),
            ("kent_frame.haversine", kent_data, self.hemi, "kent_frame", "haversine", kent, None, 1),
            ("vmf_mu_kappa.haversine_usa", usa_data, self.usa, "vmf_mu_kappa", "haversine", None, None, 1),
            ("vmf_mu_kappa.projected_usa", usa_data, self.usa, "vmf_mu_kappa", "projected", None, None, 1),
        )
        for name, data, boundary, model_kind, g_kind, fixed, drop_axis, n in cases:
            t = self.timed(f"estimator.estimate.{name}", lambda: estimate(
                data, boundary, g_kind=g_kind, model_kind=model_kind, fixed=fixed,
                drop_axis=drop_axis), n)
            self.metrics[f"fit.estimate_ms.{name}"] = metric(median_ms(t), "ms", len(t))

    def harness(self) -> None:
        """`run_benchmark` on a known-kappa hemisphere grid against its parts.

        The parts are the same seeded cells, sampled and fitted through the
        public calls the harness makes, on one boundary built up front.
        """
        seed = round_seed(self.seed, PROBE_TAG)
        config = ExperimentConfig(experiment="vmf_known_kappa", n_grid=self.size["grid"],
                                  replicates=2, seed=seed, out_dir=self.tmp)
        [one] = self.timed("bench.run_benchmark.workers1", lambda: run_benchmark(config), 1)
        config.workers = 2
        [two] = self.timed("bench.run_benchmark.workers2", lambda: run_benchmark(config), 1)
        kappa = self.vmf.kappa

        def cell(n, r):
            rng = substream_rng(seed, n, r)
            data = Dataset(sample_truncated(self.vmf, self.hemi, n, rng).x)
            for g_kind, drop_axis in (("haversine", None), ("projected", 2)):
                estimate(data, self.hemi, g_kind=g_kind, model_kind="vmf_mu_only",
                         fixed={"kappa": kappa}, seed=seed, drop_axis=drop_axis)
            mle_vmf(data, estimate_kappa=False, kappa=kappa)

        cells = [(n, r) for n in config.n_grid for r in range(config.replicates)]
        parts = sum(sum(self.timed("harness.isolated_cell", lambda: cell(n, r), 1))
                    for n, r in cells)
        self.metrics["harness.overhead_ms_per_cell"] = metric(
            1e3 * (one - parts) / len(cells), "ms", len(cells))
        self.metrics["harness.workers2_speedup"] = metric(
            one / two, "x", 1, base="workers=1 time / workers=2 time")

    def cli(self, data: Dataset) -> None:
        """`tmsm estimate` in-process on a CSV of the hemisphere probe data."""
        path = os.path.join(self.tmp, "probe_data.csv")
        data.to_csv(path)
        argv = ["estimate", "--data", path, "--model-kind", "vmf_mu_only", "--fixed-kappa",
                repr(self.vmf.kappa), "--a0", repr(0.5 * np.pi), "--g", "haversine",
                "--out-dir", self.tmp]
        codes = []

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))

        t = self.timed("cli.estimate", call, self.size["reps"])
        if any(codes):
            raise RuntimeError(f"tmsm estimate exited with {codes}")
        self.metrics["cli.estimate_ms"] = metric(median_ms(t), "ms", len(t))


def fit_figures(workload) -> dict[str, dict]:
    """Figures of the workload's own direct `estimate` calls."""
    calls, gauge = workload.fit_calls, workload.gauge
    workload.tracer.job = "fit_figures"
    evals = [c[0] for c in calls]
    g_spans = []
    gauge.tick()
    for _, _, data, g_kind, drop_axis, _ in calls:
        with workload.tracer.span(f"boundary.g.{g_kind}") as t:
            scaling_values(workload.boundary, data.x, g_kind, drop_axis)
        g_spans.append(t)
    gauge.tick()
    g_seconds = sum(gauge.scaled(t) for t in g_spans)
    est_seconds = sum(gauge.scaled(c[5]) for c in calls)
    return {
        "fit.objective_evals": metric(statistics.mean(evals), "count", len(evals),
                                      base="objective evaluations per estimate call"),
        "fit.g_share": metric(g_seconds / est_seconds, "ratio", len(calls),
                              base="one g pass / estimate time, same inputs"),
        "fit.converged_share": metric(sum(bool(c[1]) for c in calls) / len(calls), "ratio",
                                      len(calls), base="estimate calls"),
    }
