"""Gaussian-process regression over 2D surface locations.

Squared exponential kernel k(xi, xj) = sigma_f * exp(-|xi - xj|^2 / (2 l^2)).
Outputs are centered on their mean before fitting (the prior mean is that
offset), and the Cholesky factorization escalates diagonal jitter tenfold on
failure up to 1e-4 * sigma_f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from .errors import InvalidInputError, NumericalConditioningError

_DUPLICATE_TOL = 1e-9


@dataclass(frozen=True)
class KernelParams:
    """Squared exponential kernel hyperparameters (mm units)."""

    sigma_f: float = 1.0
    length_scale: float = 3.0
    jitter: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.sigma_f) and self.sigma_f > 0.0):
            raise InvalidInputError("sigma_f must be > 0")
        if not (np.isfinite(self.length_scale) and self.length_scale > 0.0):
            raise InvalidInputError("length_scale must be > 0")
        if not (np.isfinite(self.jitter) and self.jitter >= 0.0):
            raise InvalidInputError("jitter must be >= 0")


def _as_inputs(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1 and arr.shape[0] == 2:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInputError(f"{name} must have shape (n, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


def kernel_eval(params: KernelParams, xi, xj) -> float:
    """Kernel value between two 2D locations."""
    a = np.asarray(xi, dtype=float)
    b = np.asarray(xj, dtype=float)
    if a.shape != (2,) or b.shape != (2,):
        raise InvalidInputError("kernel_eval expects two points of shape (2,)")
    d2 = float(np.sum((a - b) ** 2))
    return float(params.sigma_f * np.exp(-d2 / (2.0 * params.length_scale ** 2)))


def kernel_matrix(params: KernelParams, a, b) -> np.ndarray:
    a = _as_inputs(a, "a")
    b = _as_inputs(b, "b")
    d2 = cdist(a, b, metric="sqeuclidean")
    return params.sigma_f * np.exp(-d2 / (2.0 * params.length_scale ** 2))


class TrainingSet:
    """Paired 2D inputs and scalar outputs, with near-duplicate inputs merged.

    Inputs closer than 1e-9 are collapsed to the first occurrence and their
    outputs averaged.
    """

    def __init__(self, inputs, outputs):
        pts = _as_inputs(inputs, "inputs")
        ys = np.asarray(outputs, dtype=float).reshape(-1)
        if ys.shape[0] != pts.shape[0]:
            raise InvalidInputError("inputs and outputs must have equal length")
        if pts.shape[0] < 1:
            raise InvalidInputError("training set must be non-empty")
        if not np.all(np.isfinite(ys)):
            raise InvalidInputError("outputs contain non-finite values")

        if pts.shape[0] > 1:
            d2 = cdist(pts, pts, metric="sqeuclidean")
            np.fill_diagonal(d2, np.inf)
            if d2.min() <= _DUPLICATE_TOL ** 2:
                pts, ys = _merge_duplicates(pts, ys)

        pts = pts.copy()
        ys = ys.copy()
        pts.flags.writeable = False
        ys.flags.writeable = False
        self._inputs = pts
        self._outputs = ys

    @property
    def inputs(self) -> np.ndarray:
        return self._inputs

    @property
    def outputs(self) -> np.ndarray:
        return self._outputs

    def __len__(self) -> int:
        return self._inputs.shape[0]


def _merge_duplicates(pts: np.ndarray, ys: np.ndarray):
    kept: list[int] = []
    groups: list[list[int]] = []
    for i in range(pts.shape[0]):
        for slot, j in enumerate(kept):
            if np.linalg.norm(pts[i] - pts[j]) <= _DUPLICATE_TOL:
                groups[slot].append(i)
                break
        else:
            kept.append(i)
            groups.append([i])
    merged_y = np.array([ys[g].mean() for g in groups])
    return pts[kept], merged_y


@dataclass(frozen=True)
class GPModel:
    """Fitted GP state: Cholesky factor and precomputed weights."""

    training: TrainingSet
    params: KernelParams
    mean_offset: float
    chol_lower: np.ndarray
    alpha: np.ndarray
    jitter_used: float


@dataclass(frozen=True)
class Prediction:
    """Posterior mean and variance, aligned with the query order."""

    mean: np.ndarray
    variance: np.ndarray

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)


def gp_fit(training: TrainingSet, params: KernelParams,
           mean_offset: Optional[float] = None) -> GPModel:
    """Factorize the kernel matrix and precompute prediction weights.

    `mean_offset` defaults to the training-output mean; pass 0.0 to fit a
    zero-mean prior directly.
    """
    if not isinstance(training, TrainingSet):
        raise InvalidInputError("training must be a TrainingSet")
    x = training.inputs
    y = training.outputs
    offset = float(y.mean()) if mean_offset is None else float(mean_offset)

    k = kernel_matrix(params, x, x)
    eye = np.eye(x.shape[0])
    max_jitter = 1e-4 * params.sigma_f
    jitter = params.jitter
    while True:
        try:
            lower = np.linalg.cholesky(k + jitter * eye)
            break
        except np.linalg.LinAlgError:
            nxt = 1e-8 * params.sigma_f if jitter <= 0.0 else jitter * 10.0
            if nxt > max_jitter:
                raise NumericalConditioningError(
                    f"Cholesky failed with jitter up to {max_jitter:g}") from None
            jitter = nxt

    resid = y - offset
    alpha = solve_triangular(lower.T, solve_triangular(lower, resid, lower=True),
                             lower=False)
    return GPModel(training=training, params=params, mean_offset=offset,
                   chol_lower=lower, alpha=alpha, jitter_used=jitter)


class CrossCovariance:
    """The query x training-input kernel block of the last `gp_predict` call.

    Passed to successive predictions, it evaluates only the columns of inputs
    appended since the last call, provided the queries and the kernel
    parameters are unchanged and the new inputs begin with the previous ones
    exactly; otherwise it evaluates the whole block. Each kernel entry depends
    only on its own pair of points, so the block is bit-identical to a full
    evaluation either way.
    """

    def __init__(self):
        self._params: Optional[KernelParams] = None
        self._queries = np.zeros((0, 2))
        self._inputs = np.zeros((0, 2))
        self._block = np.zeros((0, 0))

    def block(self, params: KernelParams, queries: np.ndarray,
              inputs: np.ndarray) -> np.ndarray:
        kept = self._inputs.shape[0]
        if not (params == self._params and kept <= inputs.shape[0]
                and np.array_equal(self._queries, queries)
                and np.array_equal(self._inputs, inputs[:kept])):
            self._queries = queries.copy()
            kept = 0
        if kept == 0:
            self._block = kernel_matrix(params, queries, inputs)
        elif kept < inputs.shape[0]:
            self._block = np.concatenate(
                [self._block, kernel_matrix(params, queries, inputs[kept:])], axis=1)
        self._block.flags.writeable = False  # kept for the next call
        self._params = params
        self._inputs = inputs.copy()
        return self._block


def gp_predict(model: GPModel, queries,
               cache: Optional[CrossCovariance] = None) -> Prediction:
    """Posterior mean and variance at the query locations.

    A `cache` carried from one prediction to the next saves re-evaluating
    the kernel between the queries and the inputs the models share; the
    result is bit-identical to a prediction without it.
    """
    q = _as_inputs(queries, "queries") if np.asarray(queries).size else \
        np.zeros((0, 2))
    if q.shape[0] == 0:
        return Prediction(np.zeros(0), np.zeros(0))
    params = model.params
    inputs = model.training.inputs
    ks = kernel_matrix(params, q, inputs) if cache is None else cache.block(params, q, inputs)
    mean = model.mean_offset + ks @ model.alpha
    v = solve_triangular(model.chol_lower, ks.T, lower=True)
    var = params.sigma_f - np.einsum("ij,ij->j", v, v)
    var = np.clip(var, 0.0, params.sigma_f + model.jitter_used)
    return Prediction(mean, var)
