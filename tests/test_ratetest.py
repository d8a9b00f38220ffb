import math

import numpy as np
import pytest

from invreg.ratetest import (
    DegenerateVarianceError,
    RateSample,
    SingularDesignError,
    estimate_delta,
    normal_cdf,
    rate_test,
    weighted_slope_fit,
)


def synthetic_samples(theta, rho=0.0, sigmas=(1e-2, 1e-3, 1e-4, 1e-5), spread=0.05, seed=1):
    """Per-sigma error samples whose means sit exactly on the log-log line."""
    rng = np.random.default_rng(seed)
    samples = []
    for sigma in sigmas:
        mean = math.exp(rho) * sigma**theta
        # symmetric multiplicative deviations leave the mean exact
        devs = spread * rng.uniform(0.5, 1.0, size=50)
        errors = mean * np.concatenate([1.0 + devs, 1.0 - devs])
        samples.append(RateSample.from_errors(sigma, errors))
    return samples


class TestEstimateDelta:
    def test_hand_evaluation(self):
        # errors {1, 3}: mean 2, sum of squared deviations 2
        assert estimate_delta([1.0, 3.0]) == pytest.approx(0.5, rel=1e-15)

    def test_zero_spread_aborts(self):
        with pytest.raises(DegenerateVarianceError):
            estimate_delta([1.0, 1.0, 1.0])

    def test_a_spread_that_overflows_aborts(self):
        # the mean 2e200 is finite, and its squared deviations overflow
        with pytest.raises(DegenerateVarianceError, match="spread"):
            estimate_delta([1e200, 2e200, 3e200])

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            estimate_delta([-1.0, 1.0])

    def test_needs_two_errors(self):
        with pytest.raises(ValueError):
            estimate_delta([1.0])

    def test_scale_invariance(self):
        errors = np.array([0.3, 0.7, 1.1, 0.9])
        base = estimate_delta(errors)
        for c in (0.25, 2.0, 2.0**40):
            assert estimate_delta(c * errors) == base  # exact for power-of-2 scales
        for c in (1e-6, 3.0, 1e8):
            assert estimate_delta(c * errors) == pytest.approx(base, rel=1e-12)


class TestWeightedSlopeFit:
    def test_two_point_interpolation(self):
        x = [math.log(1e-2), math.log(1e-3)]
        y = [math.log(0.5), math.log(0.1)]
        theta, rho = weighted_slope_fit(x, y, [0.2, 0.2])
        assert theta == pytest.approx((y[1] - y[0]) / (x[1] - x[0]), rel=1e-14)

    def test_exact_line_recovery(self):
        x = np.log(np.array([1e-1, 1e-2, 1e-3, 1e-4]))
        y = 0.75 * x + 1.3
        deltas = np.array([0.5, 0.1, 0.9, 0.3])
        theta, rho = weighted_slope_fit(x, y, deltas)
        assert theta == pytest.approx(0.75, abs=1e-12)
        assert rho == pytest.approx(1.3, abs=1e-12)

    def test_against_naive_normal_equations(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            x = rng.normal(size=n)
            x[1] = x[0] + 1.0  # guarantee two distinct points
            y = rng.normal(size=n)
            d = rng.uniform(0.05, 2.0, size=n)
            design = np.column_stack([x, np.ones(n)])
            w = np.diag(d**-2.0)
            beta = np.linalg.solve(design.T @ w @ design, design.T @ w @ y)
            theta, rho = weighted_slope_fit(x, y, d)
            assert theta == pytest.approx(beta[0], rel=1e-10)
            assert rho == pytest.approx(beta[1], rel=1e-10)

    def test_singular_design_rejected(self):
        with pytest.raises(SingularDesignError):
            weighted_slope_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.5, 0.5, 0.5])

    def test_nonpositive_deltas_rejected(self):
        with pytest.raises(ValueError):
            weighted_slope_fit([0.0, 1.0], [0.0, 1.0], [0.5, 0.0])


class TestRateTest:
    def test_exact_target_line(self):
        samples = synthetic_samples(theta=0.75)
        result = rate_test(samples, 0.75)
        assert result.theta_hat == pytest.approx(0.75, abs=1e-10)
        assert result.statistic == pytest.approx(0.0, abs=1e-8)
        assert result.p_value == pytest.approx(0.5, abs=1e-8)
        assert not result.reject_at(0.10)

    def test_steep_decay_never_rejected(self):
        samples = synthetic_samples(theta=2.0, spread=0.01)
        result = rate_test(samples, 0.75)
        assert result.theta_hat > 0.75
        assert result.p_value > 0.999
        assert not result.reject_at(0.10)

    def test_slow_decay_rejected(self):
        samples = synthetic_samples(theta=0.3, spread=0.01)
        result = rate_test(samples, 0.75)
        assert result.p_value < 1e-4
        assert result.reject_at(0.10)

    def test_statistic_monotone_in_theta_hat(self):
        stats = []
        for theta in (0.5, 0.7, 0.9):
            result = rate_test(synthetic_samples(theta=theta, spread=0.02), 0.75)
            stats.append(result.statistic)
        assert stats[0] < stats[1] < stats[2]

    def test_sigma_rescaling_changes_rho_not_theta(self):
        samples = synthetic_samples(theta=0.6, rho=0.4)
        scaled = [
            RateSample.from_errors(7.0 * s.sigma, s.errors) for s in samples
        ]
        a = rate_test(samples, 0.75)
        b = rate_test(scaled, 0.75)
        assert b.theta_hat == pytest.approx(a.theta_hat, abs=1e-10)
        assert b.rho_hat != pytest.approx(a.rho_hat, abs=1e-6)

    def test_design_term_positive_with_two_distinct_sigmas(self):
        samples = synthetic_samples(theta=0.75, sigmas=(1e-2, 1e-3, 1e-3))
        result = rate_test(samples, 0.75)
        assert math.isfinite(result.statistic)

    def test_needs_three_samples(self):
        samples = synthetic_samples(theta=0.75, sigmas=(1e-2, 1e-3))
        with pytest.raises(ValueError):
            rate_test(samples, 0.75)


class TestNormalCdf:
    def test_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for x in rng.normal(0, 2, size=100):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_ninety_fifth_percentile(self):
        assert normal_cdf(1.6448536) == pytest.approx(0.95, abs=1e-6)

    def test_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        for x in (-8.0, -3.2, -0.7, 0.0, 0.3, 1.5, 4.4):
            with mpmath.workdps(50):
                exact = float(mpmath.ncdf(x))
            assert normal_cdf(x) == pytest.approx(exact, rel=1e-13, abs=1e-300)
