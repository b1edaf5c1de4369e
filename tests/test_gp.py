import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from palpmap.errors import (InvalidInputError,
                            NumericalConditioningError)
from palpmap.gp import (CrossCovariance, GPModel, KernelParams, TrainingSet, gp_fit,
                        gp_predict, kernel_eval, kernel_matrix)

from _oracles import gp_posterior_reference


def small_training(rng, n=12):
    x = rng.uniform(0, 40, (n, 2))
    y = np.sin(x[:, 0] / 6.0) + 0.5 * np.cos(x[:, 1] / 9.0)
    return TrainingSet(x, y)


class TestKernel:
    def test_diagonal_value(self):
        p = KernelParams()
        assert kernel_eval(p, np.zeros(2), np.zeros(2)) == pytest.approx(1.0)

    def test_length_scale_distance(self):
        p = KernelParams(sigma_f=1.0, length_scale=3.0)
        v = kernel_eval(p, np.zeros(2), np.array([3.0, 0.0]))
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

    def test_merges_exact_duplicates(self):
        x = np.array([[1.0, 1.0], [5.0, 5.0], [1.0, 1.0]])
        y = np.array([2.0, 7.0, 4.0])
        ts = TrainingSet(x, y)
        assert ts.inputs.shape == (2, 2)
        i = int(np.flatnonzero(ts.inputs[:, 0] == 1.0)[0])
        assert ts.outputs[i] == pytest.approx(3.0)

    def test_merges_near_duplicates(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
        ts = TrainingSet(x, np.array([1.0, 3.0]))
        assert ts.inputs.shape == (1, 2)
        assert ts.outputs[0] == pytest.approx(2.0)

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
        # one observation y=2 at the origin, query at distance ell:
        # correlation exp(-1/2), offset forced to zero
        ts = TrainingSet(np.array([[0.0, 0.0]]), np.array([2.0]))
        model = gp_fit(ts, KernelParams(sigma_f=1.0, length_scale=3.0, jitter=0.0),
                       mean_offset=0.0)
        pred = gp_predict(model, np.array([[3.0, 0.0]]))
        assert pred.mean[0] == pytest.approx(2.0 * np.exp(-0.5), abs=1e-9)
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


class TestCrossCovariance:
    def test_reuse_is_bit_identical_to_cold(self):
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
        earlier = []
        for inputs, kernel, queries in steps:
            model = gp_fit(TrainingSet(inputs, y[:len(inputs)]), kernel)
            reused = gp_predict(model, queries, cache)
            cold = gp_predict(model, queries)
            assert np.array_equal(reused.mean, cold.mean)
            assert np.array_equal(reused.variance, cold.variance)
            earlier.append((reused, reused.mean.copy(), reused.variance.copy()))
        # no later prediction changed an array an earlier one exposes
        for pred, mean, variance in earlier:
            assert np.array_equal(pred.mean, mean)
            assert np.array_equal(pred.variance, variance)

    def test_evaluates_only_appended_inputs(self, monkeypatch):
        rng = np.random.default_rng(10)
        grid = rng.uniform(0, 40, (50, 2))
        x = rng.uniform(0, 40, (12, 2))
        cache = CrossCovariance()
        cache.block(KernelParams(), grid, x[:8])
        columns = []

        def counting(params, a, b):
            columns.append(len(b))
            return kernel_matrix(params, a, b)

        monkeypatch.setattr("palpmap.gp.kernel_matrix", counting)
        block = cache.block(KernelParams(), grid, x)
        assert columns == [4]
        assert np.array_equal(block, kernel_matrix(KernelParams(), grid, x))
        cache.block(KernelParams(), grid, x)
        assert columns == [4]
        cache.block(KernelParams(), grid, x[::-1])
        assert columns == [4, 12]


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
