import numpy as np
import pytest

from palpmap.acquisition import (SamplingPolicy, expected_improvement,
                                 select_next)
from palpmap.errors import ExplorationExhaustedError, InvalidInputError
from palpmap.gp import Prediction

from _oracles import expected_improvement_reference


class TestExpectedImprovement:
    def test_zero_sigma_is_zero(self):
        assert expected_improvement(5.0, 0.0, 1.0) == 0.0
        assert expected_improvement(1.0, 0.0, 5.0) == 0.0

    def test_at_incumbent_unit_sigma(self):
        v = expected_improvement(2.0, 1.0, 2.0)
        assert v == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=1e-12)

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            mu = rng.uniform(-5, 5)
            sigma = rng.uniform(0, 3)
            best = rng.uniform(-5, 5)
            ours = expected_improvement(mu, sigma, best)
            ref = expected_improvement_reference(mu, sigma, best)
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_monotone_in_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            sigma = rng.uniform(0.01, 3)
            best = rng.uniform(-2, 2)
            mus = np.sort(rng.uniform(-5, 5, 2))
            lo = expected_improvement(mus[0], sigma, best)
            hi = expected_improvement(mus[1], sigma, best)
            assert hi >= lo - 1e-12

    def test_monotone_in_sigma(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            mu = rng.uniform(-3, 3)
            best = mu + abs(rng.uniform(0, 2))  # mu <= best
            sig = np.sort(rng.uniform(0, 3, 2))
            lo = expected_improvement(mu, sig[0], best)
            hi = expected_improvement(mu, sig[1], best)
            assert hi >= lo - 1e-12

    def test_never_negative(self):
        rng = np.random.default_rng(13)
        mu = rng.uniform(-10, 10, 1000)
        sigma = rng.uniform(0, 0.01, 1000)
        best = rng.uniform(9, 10)
        vals = expected_improvement(mu, sigma, best)
        assert np.all(vals >= 0.0)

    def test_array_shape(self):
        mu = np.array([0.0, 1.0, 2.0])
        sigma = np.array([1.0, 0.0, 0.5])
        out = expected_improvement(mu, sigma, 1.0)
        assert out.shape == (3,)
        assert out[1] == 0.0

    def test_scalar_returns_float(self):
        out = expected_improvement(1.0, 1.0, 0.0)
        assert isinstance(out, float)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidInputError):
            expected_improvement(0.0, -1.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            expected_improvement(np.nan, 1.0, 0.0)


def flat_grid(n=16):
    xs = np.arange(n, dtype=float)
    return np.column_stack([xs, np.zeros(n)])


def incumbent():
    return 1.0


def probed(n, *nodes):
    mask = np.zeros(n, dtype=bool)
    mask[list(nodes)] = True
    return mask


class TestSelectNext:
    def test_ei_argmax(self):
        grid = flat_grid(5)
        mean = np.array([0.0, 0.5, 2.0, 0.5, 0.0])
        var = np.full(5, 0.25)
        pick = select_next(Prediction(mean, var), grid, probed(5), incumbent(),
                           probe_count=1, policy=SamplingPolicy(),
                           rng=np.random.default_rng(0))
        assert pick == 2

    def test_ei_tie_breaks_low_index(self):
        grid = flat_grid(4)
        mean = np.array([2.0, 2.0, 2.0, 0.0])
        var = np.array([0.25, 0.25, 0.25, 0.25])
        pick = select_next(Prediction(mean, var), grid, probed(4), incumbent(),
                           probe_count=1, policy=SamplingPolicy(),
                           rng=np.random.default_rng(0))
        assert pick == 0

    def test_visited_excluded(self):
        grid = flat_grid(4)
        mean = np.array([2.0, 2.0, 2.0, 0.0])
        var = np.full(4, 0.25)
        pick = select_next(Prediction(mean, var), grid, probed(4, 0, 1), incumbent(),
                           probe_count=1, policy=SamplingPolicy(),
                           rng=np.random.default_rng(0))
        assert pick == 2

    def test_exploration_on_period(self):
        grid = flat_grid(6)
        mean = np.array([0.0, 0.0, 5.0, 0.0, 0.0, 0.0])
        var = np.array([1.0, 1.0, 0.01, 1.0, 1.0, 1.0])
        policy = SamplingPolicy(exploration_period=5)
        picks = {select_next(Prediction(mean, var), grid, probed(6), incumbent(),
                             probe_count=5, policy=policy,
                             rng=np.random.default_rng(s))
                 for s in range(16)}
        assert 2 not in picks          # high-EI node ignored on exploration steps
        assert picks <= {0, 1, 3, 4, 5}
        assert len(picks) > 1          # random among the high-variance nodes

    def test_no_exploration_at_zero(self):
        grid = flat_grid(4)
        mean = np.array([0.0, 3.0, 0.0, 0.0])
        var = np.full(4, 0.25)
        pick = select_next(Prediction(mean, var), grid, probed(4), incumbent(),
                           probe_count=0, policy=SamplingPolicy(),
                           rng=np.random.default_rng(0))
        assert pick == 1

    def test_exploration_fallback_max_variance(self):
        grid = flat_grid(4)
        mean = np.zeros(4)
        var = np.array([0.1, 0.3, 0.2, 0.05])  # all std below 0.9*sqrt(1)
        pick = select_next(Prediction(mean, var), grid, probed(4), incumbent(),
                           probe_count=5, policy=SamplingPolicy(),
                           rng=np.random.default_rng(0), prior_variance=1.0)
        assert pick == 1

    def test_exhausted(self):
        grid = flat_grid(3)
        pred = Prediction(np.zeros(3), np.ones(3))
        with pytest.raises(ExplorationExhaustedError):
            select_next(pred, grid, probed(3, 0, 1, 2), incumbent(), probe_count=1,
                        policy=SamplingPolicy(), rng=np.random.default_rng(0))

    def test_shape_mismatch(self):
        grid = flat_grid(3)
        pred = Prediction(np.zeros(4), np.ones(4))
        with pytest.raises(InvalidInputError):
            select_next(pred, grid, probed(3), incumbent(), probe_count=1,
                        policy=SamplingPolicy(), rng=np.random.default_rng(0))

    def test_bad_probed_mask(self):
        grid = flat_grid(3)
        pred = Prediction(np.zeros(3), np.ones(3))
        # a mask of the wrong length, of the wrong dtype, and a list of indices
        for mask in (probed(4), np.zeros(3), [0, 1, 2]):
            with pytest.raises(InvalidInputError):
                select_next(pred, grid, mask, incumbent(), probe_count=1,
                            policy=SamplingPolicy(), rng=np.random.default_rng(0))

    def test_policy_validation(self):
        with pytest.raises(InvalidInputError):
            SamplingPolicy(exploration_period=0)
        with pytest.raises(InvalidInputError):
            SamplingPolicy(uncertainty_fraction=-0.1)
