"""Score matching for directional data truncated to a spherical region.

Estimates von Mises-Fisher and five-parameter (Kent-type) models from
samples observed only inside a bounded region of the unit 2-sphere,
without computing normalizing constants or modeling the truncation
mechanism: the objective weights the score mismatch by a scaling function
that vanishes on the region boundary. Includes exact and rejection
samplers, truncation-blind and flat-chart baseline estimators, and a
benchmark command-line harness (`tmsm`).

The package re-exports nothing: import each name from its module
(`tmsm.boundary`, `tmsm.estimator`, `tmsm.models`, `tmsm.sampling`,
`tmsm.geometry`, `tmsm.baselines`, `tmsm.bench`, `tmsm.cli`).
"""

__version__ = "0.1.0"
