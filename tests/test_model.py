import math

import numpy as np
import pytest

from invreg.filters import spectral_cutoff, tikhonov
from invreg.model import (
    EstimateCoefficients,
    Observations,
    SpectralProblem,
    estimate_coefficients,
    sample_observations,
    substream_seed,
)
from invreg.problems import DenseSymmetricMatrix
from invreg.selection import ParameterGrid


def small_problem(sigma=1e-3):
    eig = np.array([1.0, 0.5, 0.25, 0.125])
    truth = np.array([1.0, -0.5, 0.25, 0.0])
    return SpectralProblem(eig, truth, sigma)


class TestSpectralProblem:
    def test_rejects_increasing_eigenvalues(self):
        with pytest.raises(ValueError):
            SpectralProblem([0.5, 1.0], [0.0, 0.0], 1.0)

    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(ValueError):
            SpectralProblem([1.0, 0.0], [0.0, 0.0], 1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SpectralProblem([1.0, 0.5], [0.0], 1.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            SpectralProblem([1.0], [0.0], 0.0)

    def test_arrays_are_read_only(self):
        p = small_problem()
        with pytest.raises(ValueError):
            p.eigenvalues[0] = 2.0

    def test_caller_arrays_stay_writeable(self):
        eig, truth = np.array([1.0, 0.5]), np.array([0.25, 0.0])
        sym, values = np.eye(2), np.array([0.5, 1.0])
        frozen = [
            (SpectralProblem(eig, truth, 0.1).eigenvalues, eig),
            (SpectralProblem(eig, truth, 0.1).truth_coeffs, truth),
            (Observations(values).values, values),
            (EstimateCoefficients(values).values, values),
            (ParameterGrid(1.2, values).values, values),
            (DenseSymmetricMatrix(sym).entries, sym),
        ]
        for held, given in frozen:
            assert not held.flags.writeable
            assert given.flags.writeable
            given[0] = given[0]  # still assignable by its owner

    def test_observations_must_be_1d(self):
        with pytest.raises(ValueError):
            Observations(np.zeros((2, 2)))


class TestSubstreamSeed:
    def test_deterministic(self):
        assert substream_seed(42, 7) == substream_seed(42, 7)

    def test_distinct_indices_give_distinct_seeds(self):
        seeds = {substream_seed(42, j) for j in range(10_000)}
        assert len(seeds) == 10_000

    def test_distinct_masters_give_distinct_streams(self):
        a = [substream_seed(1, j) for j in range(100)]
        b = [substream_seed(2, j) for j in range(100)]
        assert not set(a) & set(b)

    def test_result_is_64_bit(self):
        for j in (0, 1, 2**63, 2**64 - 1):
            s = substream_seed(j, j)
            assert 0 <= s < 2**64


class TestSampleObservations:
    def test_fixed_seed_reproducible(self):
        p = small_problem()
        a = sample_observations(p, 123)
        b = sample_observations(p, 123)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        p = small_problem()
        a = sample_observations(p, 123)
        b = sample_observations(p, 124)
        assert not np.array_equal(a.values, b.values)

    def test_noise_free_limit(self):
        p = small_problem(sigma=1e-300)
        obs = sample_observations(p, 5)
        expected = np.sqrt(p.eigenvalues) * p.truth_coeffs
        np.testing.assert_allclose(obs.values, expected, rtol=1e-12, atol=1e-290)

    def test_first_coordinate_moments(self):
        # mean and variance of Y_1 - sqrt(lambda_1) f_1 over 1e5 draws
        p = small_problem(sigma=0.7)
        n_draws = 100_000
        draws = np.array(
            [sample_observations(p, substream_seed(99, j)).values[0] for j in range(n_draws)]
        )
        centered = draws - math.sqrt(p.eigenvalues[0]) * p.truth_coeffs[0]
        se_mean = p.sigma / math.sqrt(n_draws)
        assert abs(np.mean(centered)) <= 4 * se_mean
        assert np.var(centered) == pytest.approx(p.sigma**2, rel=0.05)


class TestEstimateCoefficients:
    def test_zero_observations_give_zero_estimate(self):
        p = small_problem()
        obs = Observations(np.zeros(4))
        est = estimate_coefficients(p, tikhonov(), 0.1, obs)
        np.testing.assert_array_equal(est.values, np.zeros(4))

    def test_single_mode_hand_evaluation(self):
        # sqrt(0.25) * 1/(0.25+0.25) * 2 = 0.5 * 2 * 2 = 2.0
        p = SpectralProblem([0.25], [0.0], 1.0)
        obs = Observations(np.array([2.0]))
        est = estimate_coefficients(p, tikhonov(), 0.25, obs)
        assert est.values[0] == pytest.approx(2.0, rel=1e-15)

    def test_cutoff_above_spectrum_gives_zero(self):
        p = small_problem()
        obs = sample_observations(p, 1)
        est = estimate_coefficients(p, spectral_cutoff(), 2.0, obs)
        np.testing.assert_array_equal(est.values, np.zeros(4))

    def test_length_mismatch_rejected(self):
        p = small_problem()
        obs = Observations(np.zeros(3))
        with pytest.raises(ValueError):
            estimate_coefficients(p, tikhonov(), 0.1, obs)
