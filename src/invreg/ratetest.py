"""Weighted least-squares estimate of the empirical convergence order and
the one-sided test of H0: theta >= theta_target.

The log mean errors are modeled as theta * log(sigma) + rho with
heteroscedastic Gaussian noise whose standard deviations are estimated from
the per-replication spread via the delta method.  Small p-values indicate a
rate slower than the target.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record

__all__ = [
    "DegenerateVarianceError",
    "SingularDesignError",
    "RateSample",
    "RateTestResult",
    "estimate_delta",
    "weighted_slope_fit",
    "rate_test",
    "normal_cdf",
]


class DegenerateVarianceError(ValueError):
    """Per-replication errors have zero spread or one that overflows, or a
    mean that is zero or not finite; the test cannot proceed."""


class SingularDesignError(ValueError):
    """All noise levels coincide; the slope is not identifiable."""


class RateSample(Record):
    """Per-noise-level sample: sigma, raw errors, their mean and delta estimate."""

    sigma: float
    errors: np.ndarray
    mean: float
    delta: float

    @classmethod
    def from_errors(cls, sigma: float, errors) -> "RateSample":
        errors = np.asarray(errors, dtype=float)
        # first: it refuses a mean that overflows before np.mean below would warn
        delta = estimate_delta(errors)
        return cls(float(sigma), errors, float(np.mean(errors)), delta)


class RateTestResult(Record):
    theta_hat: float
    rho_hat: float
    statistic: float
    p_value: float
    theta_target: float

    def reject_at(self, level: float) -> bool:
        return self.p_value < level


def estimate_delta(errors) -> float:
    """delta_hat = sqrt(sum (e_j - mean)^2) / (sqrt(m) |mean|).

    Scale-free spread of the log mean error; zero spread or one that
    overflows, or a mean that is zero or not finite (one that underflows or
    overflows), abort rather than fabricate precision.
    """
    errors = np.asarray(errors, dtype=float)
    m = errors.size
    if m < 2:
        raise ValueError("need at least 2 errors to estimate delta")
    with np.errstate(over="ignore"):
        mean = float(np.mean(errors))
    if mean == 0.0 or not math.isfinite(mean):
        raise DegenerateVarianceError(f"mean error is {mean!r}; delta is undefined")
    with np.errstate(over="ignore"):
        spread = float(np.sum((errors - mean) ** 2))
    if not math.isfinite(spread):
        raise DegenerateVarianceError(f"mean error is {mean!r}, but the spread about it overflows; delta is undefined")
    if spread == 0.0:
        raise DegenerateVarianceError("errors have zero sample variance")
    return math.sqrt(spread) / (math.sqrt(m) * abs(mean))


def weighted_slope_fit(log_sigmas, log_means, deltas) -> tuple[float, float]:
    """Weighted least squares of log_means on log_sigmas, weights delta^{-2}.

    Returns (theta_hat, rho_hat) = (slope, intercept).
    """
    x = np.asarray(log_sigmas, dtype=float)
    y = np.asarray(log_means, dtype=float)
    d = np.asarray(deltas, dtype=float)
    if x.size < 2 or x.size != y.size or x.size != d.size:
        raise ValueError("need matching sequences with at least 2 points")
    if np.any(d <= 0):
        raise ValueError("deltas must be positive")
    w = d**-2.0
    sw = float(np.sum(w))
    swx = float(np.sum(w * x))
    swy = float(np.sum(w * y))
    swxx = float(np.sum(w * x * x))
    swxy = float(np.sum(w * x * y))
    denom = sw * swxx - swx**2
    if denom <= 0.0:
        raise SingularDesignError("log noise levels are all equal")
    theta = (sw * swxy - swx * swy) / denom
    rho = (swy - theta * swx) / sw
    return theta, rho


def rate_test(samples, theta_target: float) -> RateTestResult:
    """One-sided test of H0: theta >= theta_target against theta < theta_target.

    statistic = (theta_hat - theta_target) * sqrt(design_term / sum w) with
    w = delta^{-2}; p = Phi(statistic); reject at level iff p < level.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError("need at least 3 noise levels")
    x = np.array([math.log(s.sigma) for s in samples])
    y = np.array([math.log(s.mean) for s in samples])
    d = np.array([s.delta for s in samples])
    theta, rho = weighted_slope_fit(x, y, d)
    w = d**-2.0
    sw = float(np.sum(w))
    design = sw * float(np.sum(w * x * x)) - float(np.sum(w * x)) ** 2
    statistic = (theta - theta_target) * math.sqrt(design / sw)
    return RateTestResult(theta, rho, statistic, normal_cdf(statistic), float(theta_target))


def normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x) = erfc(-x/sqrt(2))/2."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
