"""Gaussian-process regression over 2D surface locations.

Squared exponential kernel k(xi, xj) = sigma_f * exp(-|xi - xj|^2 / (2 l^2)).
Outputs are centered on their mean before fitting (the prior mean is that
offset), and the Cholesky factorization escalates diagonal jitter tenfold on
failure up to 1e-4 * sigma_f.

Given the previous fit, `gp_fit` reuses its factor for the same inputs and
grows it by block append (Rasmussen & Williams 2006, Alg. 2.1) for appended
ones, when the kernel parameters are equal and the previous fit kept the
configured jitter. Otherwise, or when the appended block fails at that
jitter, it refits from scratch, so an escalated fit is never extended; the
weights are re-solved at every fit. `gp_predict` with a `CrossCovariance`
whitens only the appended rows in the same way. A grown factor equals a
refit to rounding; a refit and its prediction are bit-identical to a first
fit and an uncached prediction.
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
    """Fitted GP state: Cholesky factor and precomputed weights.

    `incremental` is True when the factor is the previous fit's, reused or
    grown by block append, and False when it was factorized from scratch.
    """

    training: TrainingSet
    params: KernelParams
    mean_offset: float
    chol_lower: np.ndarray
    alpha: np.ndarray
    jitter_used: float
    incremental: bool = False


@dataclass(frozen=True)
class Prediction:
    """Posterior mean and variance, aligned with the query order."""

    mean: np.ndarray
    variance: np.ndarray

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)


def _grown_factor(previous: GPModel, x: np.ndarray,
                  params: KernelParams) -> Optional[np.ndarray]:
    """`previous`'s factor extended to the inputs `x`, or None to refit.

    The appended rows are [B^T, C] with B = L^-1 K(X_old, X_new) and
    C = chol(K(X_new, X_new) + jI - B^T B).
    """
    old = previous.training.inputs
    m = old.shape[0]
    if not (previous.params == params and previous.jitter_used == params.jitter
            and m <= x.shape[0] and np.array_equal(old, x[:m])):
        return None
    if m == x.shape[0]:
        return previous.chol_lower
    new = x[m:]
    b = solve_triangular(previous.chol_lower, kernel_matrix(params, old, new), lower=True)
    schur = kernel_matrix(params, new, new) + params.jitter * np.eye(new.shape[0]) - b.T @ b
    try:
        c = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return None
    return np.block([[previous.chol_lower, np.zeros((m, new.shape[0]))], [b.T, c]])


def gp_fit(training: TrainingSet, params: KernelParams,
           mean_offset: Optional[float] = None,
           previous: Optional[GPModel] = None) -> GPModel:
    """Factorize the kernel matrix and precompute prediction weights.

    `mean_offset` defaults to the training-output mean; pass 0.0 to fit a
    zero-mean prior directly. Given the `previous` fit, its factor is reused
    or grown when it can be (see `_grown_factor`) and refactorized otherwise.
    """
    if not isinstance(training, TrainingSet):
        raise InvalidInputError("training must be a TrainingSet")
    x = training.inputs
    y = training.outputs
    offset = float(y.mean()) if mean_offset is None else float(mean_offset)

    lower = None if previous is None else _grown_factor(previous, x, params)
    incremental = lower is not None
    jitter = params.jitter
    if lower is None:
        k = kernel_matrix(params, x, x)
        eye = np.eye(x.shape[0])
        max_jitter = 1e-4 * params.sigma_f
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
    lower.flags.writeable = False  # later fits share or copy it

    resid = y - offset
    alpha = solve_triangular(lower.T, solve_triangular(lower, resid, lower=True),
                             lower=False)
    return GPModel(training=training, params=params, mean_offset=offset,
                   chol_lower=lower, alpha=alpha, jitter_used=jitter,
                   incremental=incremental)


class CrossCovariance:
    """What one `gp_predict` call keeps for the next: K(X, queries) for the
    training inputs X, the whitened rows V = L^-1 K(X, queries) and their
    column sums of squares.

    For a model whose factor was reused or grown from the one V was whitened
    against, with the same queries and parameters, only the appended rows
    C^-1 (K(X_new, queries) - L21 V) are computed. Any other model, such as a
    refit, is predicted cold and starts the cache over. The rows grow in
    place, doubling their capacity.
    """

    def __init__(self):
        self._model: Optional[GPModel] = None  # the model V was whitened for
        self._queries = np.zeros((0, 2))
        self._block = np.zeros((0, 0))  # K(X, queries), rows beyond X unused
        self._whitened = np.zeros((0, 0))  # V, likewise
        self._sumsq = np.zeros(0)

    def _can_extend(self, model: GPModel, queries: np.ndarray) -> bool:
        kept = self._model
        if kept is None or not model.incremental:
            return False
        m = len(kept.training)
        return (model.params == kept.params and m <= len(model.training)
                and np.array_equal(self._queries, queries)
                and np.array_equal(model.training.inputs[:m], kept.training.inputs)
                and np.array_equal(model.chol_lower[:m, :m], kept.chol_lower))

    def _restart(self, model: GPModel, queries: np.ndarray, ks: np.ndarray,
                 v: np.ndarray, sumsq: np.ndarray):
        self._model = model
        self._queries = queries.copy()
        self._block = ks.T.copy()
        self._whitened = np.ascontiguousarray(v)
        self._sumsq = sumsq

    def _extend(self, model: GPModel) -> Tuple[np.ndarray, np.ndarray]:
        """Whiten the appended inputs' rows; the posterior mean and the sums of squares."""
        m, n = len(self._model.training), len(model.training)
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
    rows when it can (see `CrossCovariance`); otherwise, and without one, the
    prediction is computed in full.
    """
    q = _as_inputs(queries, "queries") if np.asarray(queries).size else \
        np.zeros((0, 2))
    if q.shape[0] == 0:
        return Prediction(np.zeros(0), np.zeros(0))
    params = model.params
    if cache is not None and cache._can_extend(model, q):
        mean, sumsq = cache._extend(model)
    else:
        ks = kernel_matrix(params, q, model.training.inputs)
        mean = model.mean_offset + ks @ model.alpha
        v = solve_triangular(model.chol_lower, ks.T, lower=True)
        sumsq = np.einsum("ij,ij->j", v, v)
        if cache is not None:
            cache._restart(model, q, ks, v, sumsq)
    var = np.clip(params.sigma_f - sumsq, 0.0, params.sigma_f + model.jitter_used)
    return Prediction(mean, var)
