"""Expected-improvement sampling policy over a fixed prediction grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ExplorationExhaustedError, InvalidInputError
from .gp import Prediction
from .schema import integer

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SamplingPolicy:
    """Exploration cadence for the selection loop.

    Every `exploration_period`-th probe is a pure exploration step that picks
    a uniformly random unprobed node whose predictive standard deviation is
    at least `uncertainty_fraction` of the prior standard deviation.
    """

    exploration_period: int = 5
    uncertainty_fraction: float = 0.9

    def __post_init__(self):
        if not (integer(self.exploration_period) and self.exploration_period >= 1):
            raise InvalidInputError("exploration_period must be a positive integer")
        if not (0.0 <= self.uncertainty_fraction <= 1.0):
            raise InvalidInputError("uncertainty_fraction must lie in [0, 1]")


def expected_improvement(mean, std, incumbent_value: float):
    """Expected improvement of a Gaussian belief over the incumbent.

    (mu - best) * Phi(z) + sigma * phi(z) with z = (mu - best) / sigma for
    sigma > 0, and exactly 0 where sigma == 0. Returns an array of the
    inputs' broadcast shape; for scalar inputs, a float64 scalar.
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
    with np.errstate(over="ignore"):  # a z whose square overflows has pdf 0, the limit
        z = imp / safe
        pdf = np.exp(-0.5 * z * z) / _SQRT_2PI
    ei = np.where(positive, imp * ndtr(z) + sigma * pdf, 0.0)
    return np.maximum(ei, 0.0)  # guard the far-negative-z float cancellation


def select_next(prediction: Prediction, grid, probed: np.ndarray,
                incumbent_value: float, probe_count: int, policy: SamplingPolicy,
                rng: np.random.Generator, prior_variance: float) -> int:
    """Pick the next grid index to probe.

    `probed` is a boolean mask over the grid, True at the nodes already
    probed. EI argmax over unprobed nodes (ties to the lowest index), except
    that when `probe_count` is a positive multiple of the exploration period
    a uniformly random unprobed node with std >= uncertainty_fraction *
    sqrt(prior_variance) is taken instead (max-variance node if none qualify).
    `incumbent_value` is the best output observed so far, the EI baseline.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise InvalidInputError("grid must have shape (n>=1, 2)")
    n = pts.shape[0]
    if prediction.mean.shape[0] != n or prediction.variance.shape[0] != n:
        raise InvalidInputError("prediction length must match the grid")
    if not (math.isfinite(prior_variance) and prior_variance > 0.0):
        raise InvalidInputError("prior_variance must be > 0")
    probed = np.asarray(probed)
    if probed.dtype != bool or probed.shape != (n,):
        raise InvalidInputError("probed must be a boolean mask over the grid")

    unprobed = np.flatnonzero(~probed)
    if unprobed.size == 0:
        raise ExplorationExhaustedError("all grid nodes have been probed")

    if probe_count > 0 and probe_count % policy.exploration_period == 0:
        std = np.sqrt(prediction.variance[unprobed])
        threshold = policy.uncertainty_fraction * math.sqrt(prior_variance)
        candidates = unprobed[std >= threshold]
        if candidates.size:
            return int(candidates[rng.integers(candidates.size)])
        return int(unprobed[np.argmax(prediction.variance[unprobed])])

    ei = expected_improvement(prediction.mean[unprobed],
                              np.sqrt(prediction.variance[unprobed]),
                              incumbent_value)
    return int(unprobed[np.argmax(ei)])
