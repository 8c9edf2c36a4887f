"""Exact samplers for spherical models, and truncation by rejection.

von Mises-Fisher draws use the closed-form inverse CDF of the cosine along
the mean direction (exact on the 2-sphere). The general five-parameter
model is drawn exactly by one joint rejection step in u = 1 - mu.x and the
azimuth: the envelope is an exponential law in u times a uniform azimuth,
and a candidate is kept with a probability that is a plain exponential, so
no special function is needed. Truncated draws filter an untruncated
stream through the region membership test. The module needs numpy only.

Reproducibility: every sampler takes an explicit numpy Generator. Use
`substream_rng` to derive independent generators from one experiment seed
so that adding or reordering sampling stages does not perturb the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import Boundary
from .geometry import complete_frame
from .models import KentParams, ModelParams, VmfParams

# default cap on raw draws per accepted point in truncated sampling
MAX_DRAW_FACTOR = 1000


def substream_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent generator keyed by (seed, *tags) via SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(t) for t in tags)))


def sample_vmf(params: VmfParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """
    Draw vMF(mu, kappa) samples on the unit 2-sphere.

    Inverse-CDF of t = mu.x: t = 1 + log(u + (1-u) exp(-2 kappa)) / kappa
    for u ~ U(0, 1), combined with a uniform azimuth in the tangent plane.

    Returns:
        (size, 3) unit vectors, the transposed view of (3, size) rows.
    """
    kappa = params.kappa
    u = rng.random(size)
    t = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
    t = np.clip(t, -1.0, 1.0)
    phi = rng.random(size) * (2.0 * np.pi)
    e, f = complete_frame(params.mu)
    radial = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    x = (
        params.mu[:, None] * t
        + e[:, None] * (radial * np.cos(phi))
        + f[:, None] * (radial * np.sin(phi))
    )
    return x.T


def sample_kent(params: KentParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """
    Draw from the five-parameter model exactly, by one joint rejection step.

    In the frame coordinates x = t mu + s (cos(phi) gamma1 + sin(phi) gamma2)
    the density is exp(kappa t + alpha s^2 cos(psi)) with psi = 2 phi. In
    u = 1 - t, s^2 = u (2 - u) and z = alpha s^2 it is proportional to

        exp(-(kappa - 2 alpha) u - alpha u^2) * exp(z (cos(psi) - 1)).

    With sd = 1 / sqrt(2 alpha), v = u / sd and a = (kappa - 2 alpha) sd, the
    first factor is the normal exp(-a v - v^2 / 2) on v in [0, 2 / sd].
    Under Robert's exponential envelope e^(-lam v), lam = a + c with
    c = 2 / (a + hypot(a, 2)), it is exp(-(v - c)^2 / 2) up to a constant.
    So u is drawn from the exponential law of rate lam / sd truncated to
    [0, 2], by its inverse CDF (as `sample_vmf` draws 1 - t), phi is
    uniform, and the candidate is kept when a uniform falls below

        exp(z (cos(psi) - 1) - (v - c)^2 / 2).

    The kept (u, phi) has the model's density exactly for every valid shape
    (2 alpha < kappa). t = 1 - u and s = sqrt(u (2 - u)) keep full relative
    precision in u, and as alpha -> 0 the envelope becomes `sample_vmf`'s
    law and every candidate is kept. About 0.53 of candidates are kept at
    (kappa, alpha) = (10, 3), 0.25 at (20, 9.9) and 0.22 at (40, 19.8).
    Since the envelope stops at u = 2, a near-uniform shape such as
    (1e-6, 1e-7) still keeps about 0.6 of them. The rejection batch depends
    only on `size`, so a generator in a given state always yields the same
    draws. alpha = 0 is `sample_vmf`.
    """
    if params.alpha == 0.0:
        return sample_vmf(VmfParams(params.mu, params.kappa), size, rng)
    sd = 1.0 / math.sqrt(2.0 * params.alpha)
    a = (params.kappa - 2.0 * params.alpha) * sd
    c = 2.0 / (a + math.hypot(a, 2.0))  # where the envelope touches the normal
    rate = (a + c) / sd
    top = math.expm1(-2.0 * rate)  # minus the untruncated envelope mass on [0, 2]
    u = np.empty(size)
    phi = np.empty(size)
    got = 0
    batch = 2 * size + 64
    while got < size:
        r, w, keep_at = rng.random((3, batch))
        # min() only absorbs rounding at u = 2, so s^2 and z stay >= 0
        cand = np.minimum(-np.log1p(r * top) / rate, 2.0)
        azimuth = (2.0 * np.pi) * w
        z = params.alpha * cand * (2.0 - cand)
        keep = keep_at < np.exp(z * (np.cos(2.0 * azimuth) - 1.0) - 0.5 * (cand / sd - c) ** 2)
        take = min(int(keep.sum()), size - got)
        u[got : got + take] = cand[keep][:take]
        phi[got : got + take] = azimuth[keep][:take]
        got += take
    t = 1.0 - u
    s = np.sqrt(u * (2.0 - u))
    x = (
        params.mu[:, None] * t
        + params.gamma1[:, None] * (s * np.cos(phi))
        + params.gamma2[:, None] * (s * np.sin(phi))
    )
    return x.T


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
    max_draw_factor: int = MAX_DRAW_FACTOR,
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
