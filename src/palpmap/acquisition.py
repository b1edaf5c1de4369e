"""Expected-improvement sampling policy over a fixed prediction grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import ndtr

from .errors import ExplorationExhaustedError, InvalidInputError
from .gp import Prediction

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Incumbent:
    """Best output observed so far and where it was measured."""

    value: float
    location: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.location, dtype=float)
        if loc.shape != (2,):
            raise InvalidInputError("incumbent location must have shape (2,)")
        if not (np.isfinite(self.value) and np.all(np.isfinite(loc))):
            raise InvalidInputError("incumbent contains non-finite values")
        loc = loc.copy()
        loc.flags.writeable = False
        object.__setattr__(self, "location", loc)


@dataclass(frozen=True)
class SamplingPolicy:
    """Exploration cadence for the selection loop.

    Every `exploration_period`-th probe is a pure exploration step that picks
    a uniformly random unvisited node whose predictive standard deviation is
    at least `uncertainty_fraction` of the prior standard deviation.
    """

    exploration_period: int = 5
    uncertainty_fraction: float = 0.9
    rng_seed: int = 0

    def __post_init__(self):
        if int(self.exploration_period) != self.exploration_period or self.exploration_period < 1:
            raise InvalidInputError("exploration_period must be a positive integer")
        if not (0.0 <= self.uncertainty_fraction <= 1.0):
            raise InvalidInputError("uncertainty_fraction must lie in [0, 1]")
        if int(self.rng_seed) != self.rng_seed or self.rng_seed < 0:
            raise InvalidInputError("rng_seed must be a non-negative integer")


def expected_improvement(mean, std, incumbent_value: float):
    """Expected improvement of a Gaussian belief over the incumbent.

    (mu - best) * Phi(z) + sigma * phi(z) with z = (mu - best) / sigma for
    sigma > 0, and exactly 0 where sigma == 0. Accepts scalars or arrays.
    """
    mu = np.asarray(mean, dtype=float)
    sigma = np.asarray(std, dtype=float)
    if np.any(sigma < 0.0) or not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise InvalidInputError("std must be finite and >= 0")
    if not np.isfinite(incumbent_value):
        raise InvalidInputError("incumbent_value must be finite")

    imp = mu - incumbent_value
    positive = sigma > 0.0
    safe = np.where(positive, sigma, 1.0)
    z = imp / safe
    pdf = np.exp(-0.5 * z * z) / _SQRT_2PI
    ei = np.where(positive, imp * ndtr(z) + sigma * pdf, 0.0)
    ei = np.maximum(ei, 0.0)  # guard the far-negative-z float cancellation
    if np.isscalar(mean) or (isinstance(mean, np.ndarray) and mean.ndim == 0):
        return float(ei)
    return ei


def select_next(prediction: Prediction, grid, visited: Iterable[int],
                incumbent: Incumbent, probe_count: int, policy: SamplingPolicy,
                rng: np.random.Generator, prior_variance: float = 1.0) -> int:
    """Pick the next grid index to probe.

    EI argmax over unvisited nodes (ties to the lowest index), except that
    when `probe_count` is a positive multiple of the exploration period a
    uniformly random unvisited node with std >= uncertainty_fraction *
    sqrt(prior_variance) is taken instead (max-variance node if none qualify).
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise InvalidInputError("grid must have shape (n>=1, 2)")
    n = pts.shape[0]
    if prediction.mean.shape[0] != n or prediction.variance.shape[0] != n:
        raise InvalidInputError("prediction length must match the grid")
    if prior_variance <= 0.0:
        raise InvalidInputError("prior_variance must be > 0")

    mask = np.ones(n, dtype=bool)
    for idx in visited:
        if not 0 <= idx < n:
            raise InvalidInputError(f"visited index {idx} out of range")
        mask[idx] = False
    unvisited = np.flatnonzero(mask)
    if unvisited.size == 0:
        raise ExplorationExhaustedError("all grid nodes have been probed")

    if probe_count > 0 and probe_count % policy.exploration_period == 0:
        std = np.sqrt(prediction.variance[unvisited])
        threshold = policy.uncertainty_fraction * math.sqrt(prior_variance)
        candidates = unvisited[std >= threshold]
        if candidates.size:
            return int(candidates[rng.integers(candidates.size)])
        return int(unvisited[np.argmax(prediction.variance[unvisited])])

    ei = expected_improvement(prediction.mean[unvisited],
                              np.sqrt(prediction.variance[unvisited]),
                              incumbent.value)
    return int(unvisited[np.argmax(ei)])
