"""
tmsm runs on numpy alone: no part of it loads scipy.

One fresh interpreter runs the stages in order: `import tmsm`, the vMF fits
on a colatitude region, both scaling functions on a polyline, a truncated
Kent sample, a `kent_frame` fit and a `kent_known_shape` benchmark. It
reports the scipy modules loaded after each stage, so a stage that brings
scipy in is named by the first non-empty list.

Each public name has one import path, its module: the package itself
re-exports none of them.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the public names, each under the one module it is imported from
PUBLIC = {
    "baselines": ("ChartSegments", "MvnChartModel", "hemisphere_chart_segments", "mle_vmf",
                  "rmse_embedding", "solve_concentration", "truncsm_mvn"),
    "bench": ("BenchmarkRow", "ExperimentConfig", "ingest_events", "run_benchmark",
              "run_storms"),
    "boundary": ("Boundary", "ColatitudeBoundary", "PolylineBoundary", "default_drop_axis",
                 "latlon_to_spherical", "load_boundary_csv", "spherical_to_latlon"),
    "estimator": ("Dataset", "EstimationResult", "ObjectiveTerms", "estimate",
                  "ibp_identity_check", "tmsm_objective"),
    "geometry": ("SphericalCoord", "geodesic_angle", "to_euclidean", "to_spherical"),
    "models": ("KentParams", "VmfParams", "log_unnormalized_density", "score"),
    "sampling": ("TruncatedSample", "sample_kent", "sample_truncated", "sample_vmf",
                 "substream_rng"),
}

STAGES = r"""
import json, sys, tempfile
from pathlib import Path

loaded = {}

def checkpoint(stage):
    loaded[stage] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import tmsm
import tmsm.cli
checkpoint("import")

import numpy as np
from tmsm.bench import ExperimentConfig, run_benchmark, truth_params
from tmsm.boundary import ColatitudeBoundary, load_boundary_csv
from tmsm.estimator import Dataset, estimate
from tmsm.geometry import to_euclidean
from tmsm.models import VmfParams
from tmsm.sampling import sample_truncated, substream_rng

hemi = ColatitudeBoundary(0.5 * np.pi)
x = sample_truncated(VmfParams(to_euclidean(0.5 * np.pi, np.pi), 6.0), hemi, 300,
                     substream_rng(0, 300)).x
for g_kind in ("haversine", "projected"):
    estimate(Dataset(x), hemi, g_kind=g_kind, model_kind="vmf_mu_only", fixed={"kappa": 6.0})
    estimate(Dataset(x), hemi, g_kind=g_kind, model_kind="vmf_mu_kappa")
with tempfile.TemporaryDirectory() as tmp:
    for experiment in ("vmf_known_kappa", "vmf_unknown_kappa"):
        run_benchmark(ExperimentConfig(experiment=experiment, n_grid=(100,), replicates=2,
                                       out_dir=tmp))
checkpoint("vmf_pipeline")

# criterion 8's truth, 25N 75W with kappa 6, outside the USA outline
usa = load_boundary_csv(Path(tmsm.__file__).parent / "data" / "usa_outline.csv")
y = sample_truncated(VmfParams(to_euclidean(1.1344640137963142, -1.3089969389957472), 6.0),
                     usa, 200, substream_rng(8, 200)).x
estimate(Dataset(y), usa, g_kind="haversine")
checkpoint("polyline_haversine")
for drop_axis in (1, 3):
    estimate(Dataset(y), usa, g_kind="projected", drop_axis=drop_axis)
checkpoint("polyline_projected")

kent = truth_params(ExperimentConfig(experiment="kent_known_shape"))
z = sample_truncated(kent, hemi, 300, substream_rng(0, 300)).x
checkpoint("kent_sampler")
estimate(Dataset(z), hemi, model_kind="kent_frame", fixed={"kappa": kent.kappa, "alpha": kent.alpha})
checkpoint("kent_frame_fit")
with tempfile.TemporaryDirectory() as tmp:
    run_benchmark(ExperimentConfig(experiment="kent_known_shape", n_grid=(100,), replicates=2,
                                   out_dir=tmp))
checkpoint("kent_pipeline")

print(json.dumps(loaded))
"""


def _scipy_modules_after(script: str) -> dict[str, set[str]]:
    """Run script in a fresh interpreter; it prints a JSON object of module lists."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return {key: set(mods) for key, mods in json.loads(done.stdout.splitlines()[-1]).items()}


@pytest.fixture(scope="module")
def loaded() -> dict[str, set[str]]:
    """scipy modules loaded after each stage of STAGES."""
    return _scipy_modules_after(STAGES)


def test_import_loads_no_scipy(loaded):
    assert loaded["import"] == set()


def test_colatitude_vmf_pipeline_loads_no_scipy(loaded):
    assert loaded["vmf_pipeline"] == set()


def test_polyline_projected_g_loads_no_scipy(loaded):
    assert loaded["polyline_haversine"] == set()
    assert loaded["polyline_projected"] == set()


def test_no_stage_loads_scipy(loaded):
    assert {stage: mods for stage, mods in loaded.items() if mods} == {}


def test_public_names_import_from_their_modules():
    pairs = [(module, name) for module, names in PUBLIC.items() for name in names]
    assert len(pairs) == 38
    for module, name in pairs:
        assert hasattr(importlib.import_module(f"tmsm.{module}"), name), (module, name)


def test_package_reexports_nothing():
    tmsm = importlib.import_module("tmsm")
    for module in PUBLIC:
        importlib.import_module(f"tmsm.{module}")
    assert not hasattr(tmsm, "__all__")
    # with its modules loaded, the package's only public attributes are those modules
    assert {name: type(value) for name, value in vars(tmsm).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)} == {}
