"""Score matching for directional data truncated to a spherical region.

Estimates von Mises-Fisher and five-parameter (Kent-type) models from
samples observed only inside a bounded region of the unit 2-sphere,
without computing normalizing constants or modeling the truncation
mechanism: the objective weights the score mismatch by a scaling function
that vanishes on the region boundary. Includes exact and rejection
samplers, truncation-blind and flat-chart baseline estimators, and a
benchmark command-line harness (`tmsm`).
"""

from .baselines import (
    ChartSegments,
    MvnChartModel,
    hemisphere_chart_segments,
    mle_vmf,
    rmse_embedding,
    solve_concentration,
    truncsm_mvn,
)
from .bench import (
    BenchmarkRow,
    ExperimentConfig,
    GeoEventRecord,
    ingest_events,
    run_benchmark,
    run_storms,
)
from .boundary import (
    Boundary,
    ColatitudeBoundary,
    PolylineBoundary,
    default_drop_axis,
    latlon_to_spherical,
    load_boundary_csv,
    spherical_to_latlon,
)
from .estimator import (
    Dataset,
    EstimationResult,
    ObjectiveTerms,
    estimate,
    ibp_identity_check,
    tmsm_objective,
)
from .geometry import (
    SphericalCoord,
    geodesic_angle,
    to_euclidean,
    to_spherical,
)
from .models import (
    KentParams,
    VmfParams,
    log_unnormalized_density,
    score,
)
from .sampling import (
    TruncatedSample,
    sample_kent,
    sample_truncated,
    sample_vmf,
    substream_rng,
)

__version__ = "0.1.0"

__all__ = [
    "Boundary",
    "BenchmarkRow",
    "ChartSegments",
    "ColatitudeBoundary",
    "Dataset",
    "EstimationResult",
    "ExperimentConfig",
    "GeoEventRecord",
    "KentParams",
    "MvnChartModel",
    "ObjectiveTerms",
    "PolylineBoundary",
    "SphericalCoord",
    "TruncatedSample",
    "VmfParams",
    "default_drop_axis",
    "estimate",
    "geodesic_angle",
    "hemisphere_chart_segments",
    "ibp_identity_check",
    "ingest_events",
    "latlon_to_spherical",
    "load_boundary_csv",
    "log_unnormalized_density",
    "mle_vmf",
    "rmse_embedding",
    "run_benchmark",
    "run_storms",
    "sample_kent",
    "sample_truncated",
    "sample_vmf",
    "score",
    "solve_concentration",
    "spherical_to_latlon",
    "substream_rng",
    "tmsm_objective",
    "to_euclidean",
    "to_spherical",
    "truncsm_mvn",
]
