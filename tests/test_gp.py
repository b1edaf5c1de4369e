import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from palpmap.errors import (InvalidInputError,
                            NumericalConditioningError)
from palpmap.gp import (CrossCovariance, KernelParams, TrainingSet, gp_fit, gp_predict,
                        kernel_matrix)

from _oracles import gp_posterior_reference


def small_training(rng, n=12):
    x = rng.uniform(0, 40, (n, 2))
    y = np.sin(x[:, 0] / 6.0) + 0.5 * np.cos(x[:, 1] / 9.0)
    return TrainingSet(x, y)


class TestKernel:
    def test_diagonal_value(self):
        p = KernelParams()
        assert kernel_matrix(p, np.zeros((1, 2)), np.zeros((1, 2)))[0, 0] == pytest.approx(1.0)

    def test_length_scale_distance(self):
        p = KernelParams(sigma_f=1.0, length_scale=3.0)
        v = kernel_matrix(p, np.zeros((1, 2)), np.array([[3.0, 0.0]]))[0, 0]
        assert v == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_matrix_symmetry(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 10, (8, 2))
        k = kernel_matrix(KernelParams(), x, x)
        assert np.allclose(k, k.T, atol=1e-15)
        assert np.allclose(np.diag(k), 1.0, atol=1e-15)

    def test_invalid_params(self):
        with pytest.raises(InvalidInputError):
            KernelParams(sigma_f=0.0)
        with pytest.raises(InvalidInputError):
            KernelParams(length_scale=-1.0)
        with pytest.raises(InvalidInputError):
            KernelParams(jitter=-1e-9)


class TestTrainingSet:
    def test_requires_data(self):
        with pytest.raises(InvalidInputError):
            TrainingSet(np.zeros((0, 2)), np.zeros(0))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            TrainingSet(np.zeros((3, 2)), np.zeros(4))

    def test_coincident_inputs_are_repeated_observations(self):
        """Two outputs at one input stay two rows: the mean there is their
        average, a factor grown onto the coincident input equals a fit from
        scratch to rounding, and at jitter 0 the fit escalates, not raises."""
        x = np.array([[5.0, 5.0], [40.0, 3.0], [5.0, 5.0]])
        y = np.array([1.0, 4.0, 2.0])
        params = KernelParams()
        training = TrainingSet(x, y)
        assert len(training) == 3
        previous = gp_fit(TrainingSet(x[:2], y[:2]), params)
        model, kept = _fit_keeping(training, params, previous)
        assert kept and model.jitter_used == params.jitter
        fresh = gp_fit(training, params)
        assert np.allclose(model.chol_lower, fresh.chol_lower, rtol=1e-9, atol=1e-9)
        pred = gp_predict(model, x[:1])
        assert abs(pred.mean[0] - 1.5) < 1e-6
        assert 0.0 <= pred.variance[0] < 1e-8
        zero = gp_fit(training, KernelParams(jitter=0.0))
        assert zero.jitter_used == pytest.approx(1e-8)

    def test_keeps_distinct(self):
        x = np.array([[0.0, 0.0], [1e-6, 0.0]])
        ts = TrainingSet(x, np.array([1.0, 2.0]))
        assert ts.inputs.shape == (2, 2)


class TestPosterior:
    def test_interpolates_training(self):
        rng = np.random.default_rng(2)
        ts = small_training(rng)
        model = gp_fit(ts, KernelParams())
        pred = gp_predict(model, ts.inputs)
        assert np.max(np.abs(pred.mean - ts.outputs)) < 1e-6

    def test_training_variance_small(self):
        rng = np.random.default_rng(3)
        ts = small_training(rng)
        model = gp_fit(ts, KernelParams(jitter=1e-10))
        pred = gp_predict(model, ts.inputs)
        assert np.all(pred.variance <= 1e-6)
        assert np.all(pred.variance >= 0.0)

    def test_variance_bounds_everywhere(self):
        rng = np.random.default_rng(4)
        ts = small_training(rng)
        model = gp_fit(ts, KernelParams())
        queries = rng.uniform(-20, 60, (500, 2))
        pred = gp_predict(model, queries)
        assert np.all(pred.variance >= 0.0)
        assert np.all(pred.variance <= 1.0 + model.jitter_used)

    def test_single_point_closed_form(self):
        # y=2 at the origin and y=0 60 mm (20 ell) away, query at distance ell
        # from the origin: correlation exp(-1/2) with the origin and below
        # 1e-78 with the far point, whose correlation with the origin is below
        # 1e-86. The offset is the output mean 1, so the origin's residual 1
        # is weighted by exp(-1/2).
        ts = TrainingSet(np.array([[0.0, 0.0], [60.0, 0.0]]), np.array([2.0, 0.0]))
        model = gp_fit(ts, KernelParams(sigma_f=1.0, length_scale=3.0, jitter=0.0))
        pred = gp_predict(model, np.array([[3.0, 0.0]]))
        assert pred.mean[0] == pytest.approx(1.0 + np.exp(-0.5), abs=1e-9)
        assert pred.variance[0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-9)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(5)
        ts = small_training(rng, n=20)
        params = KernelParams(sigma_f=2.0, length_scale=4.0, jitter=1e-8)
        model = gp_fit(ts, params)
        queries = rng.uniform(0, 40, (50, 2))
        pred = gp_predict(model, queries)
        ref_mean, ref_var = gp_posterior_reference(
            ts.inputs, ts.outputs, queries, sigma_f=2.0, length_scale=4.0,
            jitter=model.jitter_used, mean_offset=float(ts.outputs.mean()))
        assert np.max(np.abs(pred.mean - ref_mean)) < 1e-8
        assert np.max(np.abs(pred.variance - np.clip(ref_var, 0, None))) < 1e-8

    def test_mean_offset_default_is_training_mean(self):
        rng = np.random.default_rng(6)
        ts = small_training(rng)
        model = gp_fit(ts, KernelParams())
        assert model.mean_offset == pytest.approx(float(ts.outputs.mean()))
        # far from data the mean falls back to the offset
        pred = gp_predict(model, np.array([[500.0, 500.0]]))
        assert pred.mean[0] == pytest.approx(model.mean_offset, abs=1e-9)

    def test_zero_jitter_escalates(self):
        ts = TrainingSet(np.array([[0.0, 0.0], [1e-8, 0.0], [20.0, 5.0]]),
                         np.array([1.0, 1.0, 2.0]))
        model = gp_fit(ts, KernelParams(jitter=0.0))
        assert model.jitter_used > 0.0

    def test_conditioning_error_when_cholesky_never_succeeds(self, monkeypatch):
        calls = []

        def always_fails(_):
            calls.append(1)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", always_fails)
        ts = TrainingSet(np.array([[0.0, 0.0], [9.0, 4.0], [20.0, 5.0]]),
                         np.array([1.0, 1.5, 2.0]))
        with pytest.raises(NumericalConditioningError):
            gp_fit(ts, KernelParams())
        assert len(calls) > 1  # escalation was attempted before giving up

    def test_empty_queries(self):
        rng = np.random.default_rng(7)
        model = gp_fit(small_training(rng), KernelParams())
        pred = gp_predict(model, np.zeros((0, 2)))
        assert pred.mean.shape == (0,)
        assert pred.variance.shape == (0,)

    def test_std_property(self):
        rng = np.random.default_rng(8)
        model = gp_fit(small_training(rng), KernelParams())
        pred = gp_predict(model, rng.uniform(0, 40, (10, 2)))
        assert np.allclose(pred.std, np.sqrt(pred.variance), atol=1e-15)


def _fresh(training, params, queries):
    """A fit without `previous` and its prediction without a cache."""
    model = gp_fit(training, params)
    return model, gp_predict(model, queries)


def _fit_keeping(training, params, previous=None):
    """`gp_fit`, and whether its factor grew from `previous`'s: the fit then
    evaluated the kernel only against appended inputs, never against all."""
    columns = []

    def kernel(params, a, b):
        columns.append(len(b))
        return kernel_matrix(params, a, b)

    with mock.patch("palpmap.gp.kernel_matrix", kernel):
        model = gp_fit(training, params, previous=previous)
    return model, max(columns) < len(training)


# bound on |posterior - dense-solve oracle|, relative to sigma_f plus the
# largest |output - offset|; the worst case below, schur-fails, has a kernel
# matrix with condition number about 2e8 and deviates by 2.4e-9, the rest by
# under 1e-14
_ORACLE_TOL = 1e-7


def _assert_matches_oracle(model, queries, pred):
    """`pred` is the posterior of `model`'s data by a dense solve, to _ORACLE_TOL."""
    params = model.params
    mean, var = gp_posterior_reference(
        model.training.inputs, model.training.outputs, queries, sigma_f=params.sigma_f,
        length_scale=params.length_scale, jitter=model.jitter_used,
        mean_offset=model.mean_offset)
    scale = params.sigma_f + np.max(np.abs(model.training.outputs - model.mean_offset))
    assert np.max(np.abs(pred.mean - mean)) <= _ORACLE_TOL * scale
    assert np.max(np.abs(pred.variance - np.clip(var, 0.0, None))) <= _ORACLE_TOL * scale


class TestCrossCovariance:
    def test_reuse_is_bit_identical_to_cold(self):
        """Bit-identical for a factor from scratch, to rounding for a grown one,
        and within _ORACLE_TOL of the dense-solve oracle for both."""
        rng = np.random.default_rng(9)
        grid = rng.uniform(0, 40, (400, 2))
        x = rng.uniform(0, 40, (30, 2))
        y = np.sin(x[:, 0] / 5.0)
        moved = x.copy()
        moved[3] += 0.25
        params = KernelParams(jitter=1e-6)
        steps = [  # (inputs, params, queries): each reuses, extends or resets
            (x[:10], params, grid), (x[:10], params, grid), (x[:18], params, grid),
            (x[:25], params, grid), (moved[:26], params, grid),
            (moved[:28], KernelParams(length_scale=4.0, jitter=1e-6), grid),
            (moved[:29], KernelParams(length_scale=4.0, jitter=1e-6), grid[::-1]),
            (x[:5], params, grid), (x[:30], params, grid),
        ]
        cache = CrossCovariance()
        model = None
        grown = 0
        earlier = []
        for inputs, kernel, queries in steps:
            training = TrainingSet(inputs, y[:len(inputs)])
            previous = model
            model, kept = _fit_keeping(training, kernel, previous)
            reused = gp_predict(model, queries, cache)
            fresh, cold = _fresh(training, kernel, queries)
            if kept:  # a reused or grown factor: equal to rounding
                grown += 1
                m = len(previous.training)
                assert np.array_equal(model.chol_lower[:m, :m], previous.chol_lower)
                assert np.allclose(reused.mean, cold.mean, rtol=1e-9, atol=1e-9)
                assert np.allclose(reused.variance, cold.variance, rtol=1e-9, atol=1e-9)
            else:  # a factor from scratch is the fresh one, and so is its prediction
                assert np.array_equal(model.chol_lower, fresh.chol_lower)
                assert np.array_equal(reused.mean, cold.mean)
                assert np.array_equal(reused.variance, cold.variance)
            _assert_matches_oracle(model, queries, reused)
            earlier.append((reused, reused.mean.copy(), reused.variance.copy()))
        assert grown == 5
        # no later prediction changed an array an earlier one exposes
        for pred, mean, variance in earlier:
            assert np.array_equal(pred.mean, mean)
            assert np.array_equal(pred.variance, variance)

    def test_evaluates_only_appended_inputs(self, monkeypatch):
        rng = np.random.default_rng(10)
        grid = rng.uniform(0, 40, (50, 2))
        x = rng.uniform(0, 40, (12, 2))
        y = np.cos(x[:, 1] / 7.0)
        params = KernelParams()
        cache = CrossCovariance()
        model = gp_fit(TrainingSet(x[:8], y[:8]), params)
        gp_predict(model, grid, cache)
        # room for 16 rows: the kept 8 moved one ulp, so that a row whitened
        # again would lose it, and the rest NaN, so that a row written shows
        rows = np.full((16, len(grid)), np.nan)
        rows[:8] = np.nextafter(cache._whitened[:8], np.inf)
        cache._whitened = rows
        kept = cache._whitened[:8].copy()
        grown = gp_fit(TrainingSet(x, y), params, previous=model)
        columns = []

        def kernel(params, a, b):
            columns.append(len(b))
            return kernel_matrix(params, a, b)

        monkeypatch.setattr("palpmap.gp.kernel_matrix", kernel)
        pred = gp_predict(grown, grid, cache)
        assert columns == [4]
        assert np.array_equal(cache._whitened[:8], kept)
        assert np.all(np.isfinite(cache._whitened[8:12]))
        assert np.all(np.isnan(cache._whitened[12:]))
        cold = gp_predict(grown, grid)
        assert np.allclose(pred.mean, cold.mean, rtol=1e-9, atol=1e-9)
        assert np.allclose(pred.variance, cold.variance, rtol=1e-9, atol=1e-9)
        columns.clear()
        before = cache._whitened.copy()
        gp_predict(grown, grid, cache)  # the same inputs: nothing evaluated or written
        assert columns == []
        assert np.array_equal(cache._whitened, before, equal_nan=True)
        refit = gp_fit(TrainingSet(x[::-1], y[::-1]), params)
        columns.clear()
        gp_predict(refit, grid, cache)
        assert columns == [12]
        alone = CrossCovariance()  # a start over whitens all 12 rows, as a new cache does
        gp_predict(refit, grid, alone)
        assert np.array_equal(cache._whitened[:12], alone._whitened[:12])

    def test_many_appends_do_not_drift(self):
        """60 single-input appends and then one of 3 inputs, each whitened row by
        row onto the rows before: every prediction stays the cold one."""
        rng = np.random.default_rng(15)
        axis = np.linspace(-5, 45, 45)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)  # 2,025 nodes
        x = rng.uniform(0, 40, (64, 2))
        y = np.sin(x[:, 0] / 5.0) + np.cos(x[:, 1] / 9.0)
        params = KernelParams()
        cache = CrossCovariance()
        model = gp_fit(TrainingSet(x[:1], y[:1]), params)
        gp_predict(model, grid, cache)
        for n in list(range(2, 62)) + [64]:
            training = TrainingSet(x[:n], y[:n])
            model, kept = _fit_keeping(training, params, model)
            assert kept
            pred = gp_predict(model, grid, cache)
            cold = gp_predict(gp_fit(training, params), grid)
            assert np.allclose(pred.mean, cold.mean, rtol=1e-9, atol=1e-9)
            assert np.allclose(pred.variance, cold.variance, rtol=1e-9, atol=1e-9)
            _assert_matches_oracle(model, grid, pred)

    def test_resets_when_the_whitened_factor_changes(self):
        rng = np.random.default_rng(14)
        grid = rng.uniform(0, 40, (60, 2))
        x = rng.uniform(0, 40, (10, 2))
        params = KernelParams(jitter=1e-6)
        cache = CrossCovariance()
        previous = gp_fit(TrainingSet(x[:8], x[:8, 1]), params)
        gp_predict(previous, grid, cache)
        grown = gp_fit(TrainingSet(x, x[:, 1]), params, previous=previous)
        lower = grown.chol_lower.copy()
        lower[0, 0] *= 1.001  # the leading block no longer matches
        model = dataclasses.replace(grown, chol_lower=lower)
        reused, cold = gp_predict(model, grid, cache), gp_predict(model, grid)
        assert np.array_equal(reused.mean, cold.mean)
        assert np.array_equal(reused.variance, cold.variance)

    def test_used_cache_keeps_nothing_stale(self):
        """Append, refit with an input inserted mid-order, append: the carried
        cache ends as a new cache given the fits from the refit on."""
        rng = np.random.default_rng(15)
        grid = rng.uniform(0, 40, (300, 2))
        x = rng.uniform(0, 40, (16, 2))
        y = np.sin(x[:, 0] / 5.0)
        params = KernelParams(jitter=1e-6)
        inserted = np.r_[0:4, 12, 4:9]
        fits = [gp_fit(TrainingSet(x[:6], y[:6]), params)]
        for order in (np.arange(9), inserted, np.r_[inserted, 9:12]):
            fits.append(gp_fit(TrainingSet(x[order], y[order]), params, previous=fits[-1]))
        assert np.array_equal(fits[3].chol_lower[:10, :10], fits[2].chol_lower)  # appended
        used, new = CrossCovariance(), CrossCovariance()
        for model in fits:
            final = gp_predict(model, grid, used)
        for model in fits[2:]:
            again = gp_predict(model, grid, new)
        assert np.array_equal(final.mean, again.mean)
        assert np.array_equal(final.variance, again.variance)
        assert np.array_equal(used._whitened[:13], new._whitened[:13])
        # the final fit alone, whitened in one solve, agrees to rounding
        alone = gp_predict(fits[3], grid, CrossCovariance())
        assert np.allclose(final.mean, alone.mean, rtol=1e-9, atol=1e-9)
        assert np.allclose(final.variance, alone.variance, rtol=1e-9, atol=1e-9)

    def test_capacity_stays_below_twice_the_rows(self):
        rng = np.random.default_rng(11)
        grid = rng.uniform(0, 40, (30, 2))
        x = rng.uniform(0, 40, (40, 2))
        params = KernelParams(jitter=1e-6)
        cache = CrossCovariance()
        model = None
        for n in range(1, 41):
            model, kept = _fit_keeping(TrainingSet(x[:n], x[:n, 0]), params, model)
            gp_predict(model, grid, cache)
            assert kept == (n > 1)
            assert n <= cache._whitened.shape[0] < 2 * n
            # V is the only grid buffer: no other array holds rows of G columns
            grid_buffers = [name for name, value in vars(cache).items()
                            if isinstance(value, np.ndarray) and value.ndim == 2
                            and value.shape[1] == len(grid)]
            assert grid_buffers == ["_whitened"]


# name: previous fit's inputs, new inputs, previous and new params, whether
# the queries change; every case falls back to the cold computation
_X = np.random.default_rng(12).uniform(0, 40, (12, 2))
_P = KernelParams(jitter=1e-6)
_ZERO = KernelParams(jitter=0.0)
_NEAR = np.array([[0.0, 0.0], [1e-8, 0.0], [20.0, 5.0]])  # escalates at jitter 0
_FALLBACKS = {
    "first-fit": (None, _X[:10], _P, _P, False),
    "moved-mid-order": (_X[:10], np.vstack([_X[:4], _X[4:5] + 0.5, _X[5:11]]), _P, _P, False),
    "inserted-mid-order": (_X[:10], np.vstack([_X[:4], _X[11:], _X[4:10]]), _P, _P, False),
    "changed-params": (_X[:10], _X[:12], _P, KernelParams(length_scale=4.0, jitter=1e-6),
                       False),
    "changed-queries": (_X[:10], _X[:10], _P, _P, True),
    # a single input and its 2e-9 neighbour: the kernel entry rounds to
    # sigma_f, so the Schur complement is exactly 0 at jitter 0
    "schur-fails": (np.zeros((1, 2)), np.array([[0.0, 0.0], [2e-9, 0.0]]), _ZERO, _ZERO,
                    False),
}


@pytest.mark.parametrize("name", _FALLBACKS)
def test_fallback_is_bit_identical_to_cold(name):
    grid = np.random.default_rng(13).uniform(-5, 45, (200, 2))
    old, new, old_params, new_params, requery = _FALLBACKS[name]
    cache = CrossCovariance()
    previous = None
    if old is not None:
        previous = gp_fit(TrainingSet(old, np.arange(len(old), dtype=float)), old_params)
        gp_predict(previous, grid, cache)
    queries = grid[::-1] if requery else grid
    training = TrainingSet(new, np.cos(np.arange(len(new), dtype=float)))
    model, kept = _fit_keeping(training, new_params, previous)
    pred = gp_predict(model, queries, cache)
    fresh, cold = _fresh(training, new_params, queries)
    # only the unchanged inputs of changed-queries keep their factor
    assert kept == requery
    if name == "schur-fails":
        assert model.jitter_used > new_params.jitter
    assert np.array_equal(model.chol_lower, fresh.chol_lower)
    assert np.array_equal(model.whitened_residual, fresh.whitened_residual)
    assert model.jitter_used == fresh.jitter_used
    assert np.array_equal(pred.mean, cold.mean)
    assert np.array_equal(pred.variance, cold.variance)
    _assert_matches_oracle(model, queries, pred)


def test_escalated_previous_is_extended_at_its_jitter():
    """A fit that escalated its jitter keeps its factor: the appended input
    is added at the escalated jitter, and the posterior is the dense one."""
    grid = np.random.default_rng(13).uniform(-5, 45, (200, 2))
    cache = CrossCovariance()
    previous = gp_fit(TrainingSet(_NEAR, np.arange(3, dtype=float)), _ZERO)
    assert previous.jitter_used > _ZERO.jitter
    gp_predict(previous, grid, cache)
    training = TrainingSet(np.vstack([_NEAR, [[31.0, 12.0]]]), np.cos(np.arange(4.0)))
    model, kept = _fit_keeping(training, _ZERO, previous)
    assert kept
    assert model.jitter_used == previous.jitter_used
    assert np.array_equal(model.chol_lower[:3, :3], previous.chol_lower)
    assert cache._can_extend(model, grid)  # the grid rows grow by one, too
    pred = gp_predict(model, grid, cache)
    _assert_matches_oracle(model, grid, pred)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(sigma_f=st.floats(0.01, 100.0), length_scale=st.floats(0.5, 8.0),
       relative_jitter=st.sampled_from([1e-6, 1e-4, 1e-2]),
       inputs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                       min_size=2, max_size=24, unique=True),
       batches=st.lists(st.integers(1, 4), min_size=1, max_size=12),
       queries=st.lists(st.tuples(st.floats(-10.0, 40.0), st.floats(-10.0, 40.0)),
                        min_size=1, max_size=20))
def test_grown_factor_matches_refit(sigma_f, length_scale, relative_jitter, inputs,
                                    batches, queries):
    """Appending inputs in batches of 1-4 gives the factor and posterior of a refit.

    The jitter is drawn relative to sigma_f, at 1e-6 or more, so K + jI has a
    condition number below about 1e8 and a 1e-9 comparison of two backward
    stable factorizations is meaningful.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.sin(x[:, 0] / 3.0) * 10.0 - x[:, 1]
    q = np.vstack([x, np.asarray(queries, dtype=float)])
    params = KernelParams(sigma_f=sigma_f, length_scale=length_scale,
                          jitter=relative_jitter * sigma_f)
    cache = CrossCovariance()
    model = None
    earlier = []
    n = 0
    for step, size in enumerate([1] + batches):
        n = min(n + size, len(x))
        training = TrainingSet(x[:n], y[:n])
        previous = model
        model, kept = _fit_keeping(training, params, previous)
        assert kept == (step > 0)  # jitter >= 1e-6 sigma_f: C exists
        if kept:
            m = len(previous.training)
            assert np.array_equal(model.chol_lower[:m, :m], previous.chol_lower)
        pred = gp_predict(model, q, cache)
        lower = model.chol_lower
        k = kernel_matrix(params, x[:n], x[:n]) + model.jitter_used * np.eye(n)
        assert np.max(np.abs(lower @ lower.T - k)) <= 1e-10 * sigma_f
        _, cold = _fresh(training, params, q)
        assert np.allclose(pred.mean, cold.mean, rtol=1e-9, atol=1e-9)
        assert np.allclose(pred.variance, cold.variance, rtol=1e-9, atol=1e-9)
        _assert_matches_oracle(model, q, pred)
        assert np.all(pred.variance >= 0.0)
        assert np.all(pred.variance <= sigma_f + model.jitter_used)
        assert not (lower.flags.writeable or model.training.inputs.flags.writeable)
        earlier.append([(arr, arr.copy()) for arr in
                        (lower, model.whitened_residual, pred.mean, pred.variance)])
    # no later fit or prediction changed an array an earlier one exposes
    for arrays in earlier:
        assert all(np.array_equal(arr, copy) for arr, copy in arrays)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(sigma_f=st.floats(0.01, 100.0), length_scale=st.floats(0.2, 20.0),
       jitter=st.sampled_from([0.0, 1e-10, 1e-8, 1e-4, 0.1]),
       inputs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                       min_size=1, max_size=15, unique=True),
       outputs=st.lists(st.floats(-50.0, 50.0), min_size=15, max_size=15),
       queries=st.lists(st.tuples(st.floats(-40.0, 70.0), st.floats(-40.0, 70.0)),
                        min_size=1, max_size=20))
def test_posterior_variance_within_prior_bounds(sigma_f, length_scale, jitter, inputs,
                                                outputs, queries):
    """Posterior variance lies in [0, sigma_f + jitter] at training points and anywhere else."""
    x = np.asarray(inputs, dtype=float)
    params = KernelParams(sigma_f=sigma_f, length_scale=length_scale, jitter=jitter)
    try:
        model = gp_fit(TrainingSet(x, outputs[:len(x)]), params)
    except NumericalConditioningError:
        return  # a documented outcome for a kernel this ill-conditioned
    pred = gp_predict(model, np.vstack([x, np.asarray(queries, dtype=float)]))
    assert np.all(pred.variance >= 0.0)
    assert np.all(pred.variance <= sigma_f + model.jitter_used)

