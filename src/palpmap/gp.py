"""Gaussian-process regression over 2D surface locations.

Squared exponential kernel k(xi, xj) = sigma_f * exp(-|xi - xj|^2 / (2 l^2)).
Outputs are centered on their mean before fitting (the prior mean is that
offset), and the Cholesky factorization escalates diagonal jitter tenfold on
failure up to 1e-4 * sigma_f.

The factor is computed one way: appended inputs add the rows [B^T, C] to a
given factor by block append (Rasmussen & Williams 2006, Alg. 2.1). Given the
previous fit, `gp_fit` appends onto its factor, at the jitter that fit used,
when the kernel parameters are equal and its inputs are a prefix of the new
ones, so an escalated fit is extended at its escalated jitter. Otherwise, or
when the appended block fails, it appends every input onto an empty factor,
which is a fit from scratch starting again at the configured jitter; the
weights are re-solved at every fit. `gp_predict` grows the whitened query
rows the same way, from the rows a `CrossCovariance` kept or from empty
ones: an uncached prediction is a cached one that starts from empty rows. A
factor grown from a previous one equals a fit from scratch at the same
jitter to rounding; a fit from scratch is the same with or without
`previous`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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
        if not (self.length_scale > 0.0 and 0.0 < self.length_scale * self.length_scale < np.inf):
            raise InvalidInputError("length_scale must be > 0 with a positive finite square")
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


def _appended_factor(lower: np.ndarray, old: np.ndarray, new: np.ndarray,
                     params: KernelParams, jitter: float) -> Optional[np.ndarray]:
    """`lower`, the factor of K(old, old) + jI, extended to the inputs old + new.

    The appended rows are [B^T, C] with B = L^-1 K(old, new) and
    C = chol(K(new, new) + jI - B^T B); None when C does not exist. From an
    empty factor, B is 0 x n and C is the whole factor.
    """
    b = solve_triangular(lower, kernel_matrix(params, old, new), lower=True)
    schur = kernel_matrix(params, new, new) + jitter * np.eye(new.shape[0]) - b.T @ b
    try:
        c = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return None
    return np.block([[lower, np.zeros((lower.shape[0], new.shape[0]))], [b.T, c]])


def gp_fit(training: TrainingSet, params: KernelParams,
           previous: Optional[GPModel] = None) -> GPModel:
    """Factorize the kernel matrix and precompute prediction weights.

    The prior mean, `mean_offset`, is the training-output mean. The factor
    grows from the `previous` fit's, at its `jitter_used`, when the
    parameters are equal and its inputs are a prefix of these, and from an
    empty factor at `params.jitter` otherwise or when that fails; only the
    latter escalates the jitter.
    """
    if not isinstance(training, TrainingSet):
        raise InvalidInputError("training must be a TrainingSet")
    x = training.inputs
    y = training.outputs
    offset = float(y.mean())

    jitter = params.jitter
    lower = None
    if previous is not None:
        old = previous.training.inputs
        m = old.shape[0]
        if previous.params == params and m <= x.shape[0] and np.array_equal(old, x[:m]):
            lower = _appended_factor(previous.chol_lower, old, x[m:], params,
                                     previous.jitter_used)
            if lower is not None:
                jitter = previous.jitter_used
    max_jitter = 1e-4 * params.sigma_f
    while lower is None:
        lower = _appended_factor(np.zeros((0, 0)), np.zeros((0, 2)), x, params, jitter)
        if lower is None:
            jitter = 1e-8 * params.sigma_f if jitter <= 0.0 else jitter * 10.0
            if jitter > max_jitter:
                raise NumericalConditioningError(
                    f"Cholesky failed with jitter up to {max_jitter:g}")
    lower.flags.writeable = False  # kept models are compared against it

    resid = y - offset
    alpha = solve_triangular(lower.T, solve_triangular(lower, resid, lower=True),
                             lower=False)
    return GPModel(training=training, params=params, mean_offset=offset,
                   chol_lower=lower, alpha=alpha, jitter_used=jitter)


class CrossCovariance:
    """What one `gp_predict` call keeps for the next: K(X, queries) for the
    training inputs X, the whitened rows V = L^-1 K(X, queries) and their
    column sums of squares.

    For a model with the same queries and parameters whose inputs extend the
    kept ones and whose factor's leading block is the one V was whitened
    against, only the appended rows C^-1 (K(X_new, queries) - L21 V) are
    computed. Any other model, such as a refit, starts over from empty rows
    and whitens every row the same way. The rows grow in place, doubling
    their capacity.
    """

    def __init__(self):
        self._start_over(np.zeros((0, 2)))

    def _start_over(self, queries: np.ndarray):
        self._model: Optional[GPModel] = None  # the model V was whitened for
        self._queries = queries.copy()
        self._block = np.zeros((0, queries.shape[0]))  # K(X, queries), rows beyond X unused
        self._whitened = np.zeros((0, queries.shape[0]))  # V, likewise
        self._sumsq = np.zeros(queries.shape[0])

    def _can_extend(self, model: GPModel, queries: np.ndarray) -> bool:
        kept = self._model
        if kept is None:
            return False
        m = len(kept.training)
        return (model.params == kept.params and m <= len(model.training)
                and np.array_equal(self._queries, queries)
                and np.array_equal(model.training.inputs[:m], kept.training.inputs)
                and np.array_equal(model.chol_lower[:m, :m], kept.chol_lower))

    def _extend(self, model: GPModel, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Whiten the rows of the inputs not kept yet, all of them after a start
        over; the posterior mean and the sums of squares."""
        if not self._can_extend(model, queries):
            self._start_over(queries)
        m = 0 if self._model is None else len(self._model.training)
        n = len(model.training)
        if n > self._block.shape[0]:
            capacity = max(2 * self._block.shape[0], n)
            for name in ("_block", "_whitened"):
                grown = np.empty((capacity, self._queries.shape[0]))
                grown[:m] = getattr(self, name)[:m]
                setattr(self, name, grown)
        if n > m:
            lower = model.chol_lower
            rows = kernel_matrix(model.params, self._queries, model.training.inputs[m:]).T
            self._block[m:n] = rows
            self._whitened[m:n] = solve_triangular(
                lower[m:, m:], rows - lower[m:, :m] @ self._whitened[:m], lower=True)
            self._sumsq = self._sumsq + np.einsum("ij,ij->j", self._whitened[m:n],
                                                  self._whitened[m:n])
        self._model = model
        return model.mean_offset + model.alpha @ self._block[:n], self._sumsq


def gp_predict(model: GPModel, queries,
               cache: Optional[CrossCovariance] = None) -> Prediction:
    """Posterior mean and variance at the query locations.

    A `cache` carried from one prediction to the next extends its whitened
    rows when it can (see `CrossCovariance`); without one, the prediction
    goes through a new cache, whose rows start empty.
    """
    q = _as_inputs(queries, "queries") if np.asarray(queries).size else \
        np.zeros((0, 2))
    if q.shape[0] == 0:
        return Prediction(np.zeros(0), np.zeros(0))
    if cache is None:
        cache = CrossCovariance()
    mean, sumsq = cache._extend(model, q)
    params = model.params
    var = np.clip(params.sigma_f - sumsq, 0.0, params.sigma_f + model.jitter_used)
    return Prediction(mean, var)
