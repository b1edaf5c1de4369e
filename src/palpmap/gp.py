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
whitened residual w = L^-1 (y - offset) is re-solved at every fit.
`gp_predict` grows the whitened query rows V = L^-1 K(X, queries) the same
way, from the rows a `CrossCovariance` kept or from empty ones: an uncached
prediction is a cached one that starts from empty rows. The cache keeps V and
its column sums of squares: the mean is offset + w^T V, the variance sigma_f
minus those sums. A factor grown from a previous one equals a fit from scratch
at the same jitter to rounding; a fit from scratch is the same with or without
`previous`. The per-update grid products (the kept rows times L21, the forward
substitution and the mean) are `einsum`s and row operations on the calling
thread: in threaded BLAS, spreading them costs more than it gives.

Inputs are (n, 2) arrays. Coincident training inputs stay separate rows,
repeated observations on the jitter diagonal (Rasmussen & Williams 2006, Sec. 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from .errors import InvalidInputError, NumericalConditioningError


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


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Paired 2D inputs and scalar outputs, stored as read-only copies.

    Coincident inputs are kept as separate rows, repeated observations of one
    location; equality and hashing are by identity.
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        pts = _as_inputs(self.inputs, "inputs")
        ys = np.asarray(self.outputs, dtype=float).reshape(-1)
        if ys.shape[0] != pts.shape[0]:
            raise InvalidInputError("inputs and outputs must have equal length")
        if pts.shape[0] < 1:
            raise InvalidInputError("training set must be non-empty")
        if not np.all(np.isfinite(ys)):
            raise InvalidInputError("outputs contain non-finite values")
        pts, ys = pts.copy(), ys.copy()
        pts.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "inputs", pts)
        object.__setattr__(self, "outputs", ys)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class GPModel:
    """Fitted GP state: Cholesky factor and whitened residual L^-1 (y - offset)."""

    training: TrainingSet
    params: KernelParams
    mean_offset: float
    chol_lower: np.ndarray
    whitened_residual: np.ndarray
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
    """Factorize the kernel matrix and whiten the centered outputs.

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

    return GPModel(training=training, params=params, mean_offset=offset, chol_lower=lower,
                   whitened_residual=solve_triangular(lower, y - offset, lower=True),
                   jitter_used=jitter)


class CrossCovariance:
    """What one `gp_predict` call keeps for the next: the whitened rows
    V = L^-1 K(X, queries) of the training inputs X and their column sums of
    squares. The posterior mean is offset + w^T V, w the whitened residual.

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
        self._whitened = np.zeros((0, queries.shape[0]))  # V, rows beyond X unused
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
        if n > self._whitened.shape[0]:
            grown = np.empty((max(2 * self._whitened.shape[0], n), self._queries.shape[0]))
            grown[:m] = self._whitened[:m]
            self._whitened = grown
        if n > m:
            lower = model.chol_lower
            rows = kernel_matrix(model.params, self._queries, model.training.inputs[m:]).T
            v = self._whitened
            v[m:n] = rows - np.einsum("ki,ij->kj", lower[m:, :m], v[:m])
            for i in range(m, n):  # forward substitution over the appended rows
                v[i] -= np.einsum("i,ij->j", lower[i, m:i], v[m:i])
                v[i] /= lower[i, i]
            self._sumsq = self._sumsq + np.einsum("ij,ij->j", v[m:n], v[m:n])
        self._model = model
        mean = model.mean_offset + np.einsum("i,ij->j", model.whitened_residual,
                                             self._whitened[:n])
        return mean, self._sumsq


def gp_predict(model: GPModel, queries,
               cache: Optional[CrossCovariance] = None) -> Prediction:
    """Posterior mean and variance at the query locations.

    A `cache` carried from one prediction to the next extends its whitened
    rows when it can (see `CrossCovariance`); without one, the prediction
    goes through a new cache, whose rows start empty.
    """
    q = _as_inputs(queries, "queries")
    if cache is None:
        cache = CrossCovariance()
    mean, sumsq = cache._extend(model, q)
    return Prediction(mean, np.maximum(model.params.sigma_f - sumsq, 0.0))
