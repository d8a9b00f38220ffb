import math

import numpy as np
import pytest

from invreg.filters import ALL_FAMILIES, FilterSpec, s_value
from invreg.model import (
    SpectralProblem,
    estimate_coefficients,
    sample_observations,
    substream_seed,
)
from invreg.risk import (
    _accumulate,
    _accumulate_rows,
    direct_risk,
    empirical_prediction_risk,
    lepskii_threshold,
    prediction_risk,
)
from invreg.selection import build_grid


def small_problem(sigma=0.1):
    eig = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    truth = np.array([1.0, -0.5, 0.25, 0.125, 0.0])
    return SpectralProblem(eig, truth, sigma)


class TestPredictionRisk:
    def test_zero_truth_is_pure_variance(self):
        p = SpectralProblem([1.0, 0.5], [0.0, 0.0], 0.3)
        dec = prediction_risk(p, FilterSpec("tikhonov"), 0.2)
        assert dec.bias_term == 0.0
        s = s_value(FilterSpec("tikhonov"), 0.2, p.eigenvalues)
        assert dec.total == pytest.approx(0.09 * float(np.sum(s**2)), rel=1e-14)

    def test_cutoff_above_spectrum_is_pure_bias(self):
        p = small_problem()
        dec = prediction_risk(p, FilterSpec("spectral_cutoff"), 2.0)
        assert dec.variance_term == 0.0
        expected = float(np.sum(p.eigenvalues * p.truth_coeffs**2))
        assert dec.bias_term == pytest.approx(expected, rel=1e-14)

    def test_single_mode_hand_evaluation(self):
        # lambda=0.5, f=2, sigma=0.1, Tikhonov alpha=0.5 -> s=0.5
        p = SpectralProblem([0.5], [2.0], 0.1)
        dec = prediction_risk(p, FilterSpec("tikhonov"), 0.5)
        assert dec.bias_term == pytest.approx(0.5 * 0.25 * 4.0, rel=1e-14)
        assert dec.variance_term == pytest.approx(0.01 * 0.25, rel=1e-14)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            prediction_risk(small_problem(), FilterSpec("tikhonov"), 0.0)

    def test_bias_monotone_variance_antitone_in_alpha(self):
        p = small_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        for spec in ALL_FAMILIES(m=3):
            decs = [prediction_risk(p, spec, a) for a in grid]
            biases = [d.bias_term for d in decs]
            variances = [d.variance_term for d in decs]
            assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(biases, biases[1:]))
            assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(variances, variances[1:]))


class TestDirectRisk:
    def test_zero_truth_cutoff_small_alpha(self):
        p = SpectralProblem([1.0, 0.5, 0.25], [0.0, 0.0, 0.0], 0.2)
        dec = direct_risk(p, FilterSpec("spectral_cutoff"), 0.25)
        expected = 0.04 * float(np.sum(1.0 / p.eigenvalues))
        assert dec.total == pytest.approx(expected, rel=1e-14)

    def test_cutoff_above_spectrum_returns_truth_norm(self):
        p = small_problem()
        dec = direct_risk(p, FilterSpec("spectral_cutoff"), 2.0)
        assert dec.total == pytest.approx(float(np.sum(p.truth_coeffs**2)), rel=1e-14)

    def test_single_mode_hand_evaluation(self):
        # lambda=0.5, f=2, sigma=0.1, Tikhonov alpha=0.5 -> s=0.5, q=1
        p = SpectralProblem([0.5], [2.0], 0.1)
        dec = direct_risk(p, FilterSpec("tikhonov"), 0.5)
        assert dec.bias_term == pytest.approx(0.25 * 4.0, rel=1e-14)
        assert dec.variance_term == pytest.approx(0.01 * 0.5 * 1.0, rel=1e-14)

    def test_total_is_sum_of_terms(self):
        p = small_problem()
        dec = direct_risk(p, FilterSpec("tikhonov"), 0.1)
        assert dec.total == dec.bias_term + dec.variance_term

    def test_matches_monte_carlo_mean(self):
        # closed form vs the Monte Carlo mean of ||f_hat - f||^2, 10 modes
        eig = 1.0 / np.arange(1.0, 11.0) ** 2
        truth = np.arange(1.0, 11.0) ** -1.5
        p = SpectralProblem(eig, truth, 0.05)
        alpha = 0.02
        m = 2000
        errs = np.empty(m)
        for j in range(m):
            obs = sample_observations(p, substream_seed(314, j))
            diff = estimate_coefficients(p, FilterSpec("tikhonov"), alpha, obs) - truth
            errs[j] = diff @ diff
        se = errs.std(ddof=1) / math.sqrt(m)
        assert abs(errs.mean() - direct_risk(p, FilterSpec("tikhonov"), alpha).total) <= 4 * se


class TestEmpiricalPredictionRisk:
    def test_zero_observations(self):
        p = small_problem()
        obs = np.zeros(5)
        grid = build_grid(p.sigma, 1.0, 1.5)
        scores = [
            empirical_prediction_risk(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), a, obs)
            for a in grid
        ]
        s_sums = [float(np.sum(s_value(FilterSpec("tikhonov"), a, p.eigenvalues))) for a in grid]
        for score, s_sum in zip(scores, s_sums):
            assert score == pytest.approx(2.0 * p.sigma**2 * s_sum, rel=1e-14)
        assert all(s >= 0.0 for s in scores)
        # increasing as alpha decreases
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_noise_free_minimized_at_smallest_alpha(self):
        eig = np.array([0.5])
        obs = np.array([1.3])
        grid = build_grid(1e-3, 0.5, 1.4)
        scores = [
            empirical_prediction_risk(eig, 0.0, FilterSpec("tikhonov"), a, obs) for a in grid
        ]
        assert int(np.argmin(scores)) == 0

    def test_unbiasedness(self):
        # E r_hat(alpha) + sum lambda f^2 = prediction risk, within 4 SE
        p = small_problem(sigma=0.1)
        const = float(np.sum(p.eigenvalues * p.truth_coeffs**2))
        m = 2000
        for alpha in (0.02, 0.1, 0.5):
            scores = np.empty(m)
            for j in range(m):
                obs = sample_observations(p, substream_seed(2718, j))
                scores[j] = empirical_prediction_risk(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), alpha, obs)
            se = scores.std(ddof=1) / math.sqrt(m)
            target = prediction_risk(p, FilterSpec("tikhonov"), alpha).total
            assert abs(scores.mean() + const - target) <= 4 * se

    def test_scale_equivariance(self):
        p = small_problem()
        obs = sample_observations(p, 77)
        c = 3.7
        scaled = c * obs
        for alpha in (0.05, 0.3):
            base = empirical_prediction_risk(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), alpha, obs)
            got = empirical_prediction_risk(p.eigenvalues, c * p.sigma, FilterSpec("tikhonov"), alpha, scaled)
            assert got == pytest.approx(c**2 * base, rel=1e-12)


class TestLepskiiThreshold:
    def test_cutoff_above_spectrum_is_zero(self):
        eig = np.array([1.0, 0.5])
        assert lepskii_threshold(eig, 1.0, FilterSpec("spectral_cutoff"), 2.0) == 0.0

    def test_single_mode_hand_evaluation(self):
        # lambda=1, Tikhonov alpha=1, sigma=1: q=0.5 -> 4*sqrt(1*0.25) = 2
        assert lepskii_threshold(np.array([1.0]), 1.0, FilterSpec("tikhonov"), 1.0) == pytest.approx(2.0)

    def test_nonincreasing_in_alpha(self):
        eig = np.array([1.0, 0.5, 0.25, 0.125])
        grid = build_grid(0.05, 1.0, 1.3)
        for spec in ALL_FAMILIES(m=3):
            thresholds = [lepskii_threshold(eig, 0.05, spec, a) for a in grid]
            assert all(t2 <= t1 + 1e-12 for t1, t2 in zip(thresholds, thresholds[1:]))


class TestAccumulateRows:
    def test_rows_equal_per_row_accumulation_bitwise(self):
        # magnitudes over 30 decades, so summation order shows in the bits;
        # 12000 columns take the compensated path
        rng = np.random.default_rng(41)
        for n in (7, 300, 1024, 12000):
            block = rng.normal(size=(4, n)) * 10.0 ** rng.uniform(-15, 15, size=(4, n))
            sums = _accumulate_rows(block)
            assert sums.tobytes() == np.array([_accumulate(row) for row in block]).tobytes()
        assert any(math.fsum(row) != np.sum(row) for row in block)
