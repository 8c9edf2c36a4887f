"""Exact and rejection samplers for spherical models, with truncation.

von Mises-Fisher draws use the closed-form inverse CDF of the cosine along
the mean direction (exact on the 2-sphere). The general five-parameter
model is drawn by rejection from its vMF factor, whose acceptance ratio is
bounded by construction under the unimodality constraint. Truncated draws
filter an untruncated stream through the region membership test.

Reproducibility: every sampler takes an explicit numpy Generator. Use
`substream_rng` to derive independent generators from one experiment seed
so that adding or reordering sampling stages does not perturb the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import Boundary
from .geometry import complete_frame
from .models import KentParams, ModelParams, VmfParams


def substream_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent generator keyed by (seed, *tags) via SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(t) for t in tags)))


def sample_vmf(params: VmfParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """
    Draw vMF(mu, kappa) samples on the unit 2-sphere.

    Inverse-CDF of t = mu.x: t = 1 + log(u + (1-u) exp(-2 kappa)) / kappa
    for u ~ U(0, 1), combined with a uniform azimuth in the tangent plane.

    Returns:
        (size, 3) unit vectors.
    """
    kappa = params.kappa
    u = rng.random(size)
    t = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
    t = np.clip(t, -1.0, 1.0)
    phi = rng.random(size) * (2.0 * np.pi)
    e, f = complete_frame(params.mu)
    radial = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    x = (
        t[:, None] * params.mu[None, :]
        + (radial * np.cos(phi))[:, None] * e[None, :]
        + (radial * np.sin(phi))[:, None] * f[None, :]
    )
    return x


def sample_kent(params: KentParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """
    Draw from the five-parameter model by vMF-envelope rejection.

    The target density is the vMF factor times exp(alpha [(g1.x)^2 -
    (g2.x)^2]), bounded above by exp(alpha), so proposals from
    vMF(mu, kappa) are accepted with probability
    exp(alpha [(g1.x)^2 - (g2.x)^2] - alpha). Worst-case acceptance is
    exp(-2 alpha), finite for any valid parameter set.
    """
    if params.alpha == 0.0:
        return sample_vmf(VmfParams(params.mu, params.kappa), size, rng)
    out = np.empty((size, 3))
    got = 0
    batch = max(size, 256)
    first = True
    while got < size:
        x = sample_vmf(VmfParams(params.mu, params.kappa), batch, rng)
        t1 = x @ params.gamma1
        t2 = x @ params.gamma2
        logratio = params.alpha * (t1 * t1 - t2 * t2) - params.alpha
        keep = np.log(rng.random(batch)) < logratio
        if first and keep.mean() < 1e-3:
            raise RuntimeError(
                f"rejection acceptance rate {keep.mean():.2e} below 1e-3 on the "
                "pilot batch; envelope misconfigured for these parameters"
            )
        first = False
        take = min(int(keep.sum()), size - got)
        out[got : got + take] = x[keep][:take]
        got += take
    return out


def sample_model(params: ModelParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Dispatch to the sampler matching the parameter type."""
    if isinstance(params, VmfParams):
        return sample_vmf(params, size, rng)
    return sample_kent(params, size, rng)


@dataclass
class TruncatedSample:
    """Accepted truncated draws plus rejection bookkeeping.

    Attributes:
        x: (n, 3) accepted points, all inside the region.
        n_raw: untruncated draws consumed to produce them.
    """

    x: np.ndarray
    n_raw: int

    @property
    def acceptance_rate(self) -> float:
        return self.x.shape[0] / self.n_raw if self.n_raw else float("nan")


def sample_truncated(
    params: ModelParams,
    boundary: Boundary,
    n: int,
    rng: np.random.Generator,
    max_draw_factor: int = 1000,
) -> TruncatedSample:
    """
    Draw n points from the model restricted to the observed region.

    Untruncated draws are filtered by boundary membership. Raises
    RuntimeError if more than max_draw_factor * n raw draws are consumed
    before n acceptances, which signals a region of negligible mass under
    the requested model.
    """
    out = np.empty((n, 3))
    got = 0
    n_raw = 0
    batch = max(n, 256)
    limit = max_draw_factor * n
    while got < n:
        if n_raw >= limit:
            raise RuntimeError(
                f"truncated sampler exceeded {limit} raw draws for n={n}; "
                "the region carries too little probability mass under these parameters"
            )
        x = sample_model(params, batch, rng)
        n_raw += batch
        keep = np.asarray(boundary.contains(x))
        take = min(int(keep.sum()), n - got)
        out[got : got + take] = x[keep][:take]
        got += take
    return TruncatedSample(out, n_raw)
