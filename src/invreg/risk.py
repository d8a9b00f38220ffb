"""Exact risk functionals and the empirical prediction-risk score.

All sums run over the finitely many stored modes: numpy's pairwise sums,
or from 10^4 modes on a compensated accumulation (``math.fsum``), which
rounds the exact sum of its terms once, so the same terms sum to the same
bits on every platform.  The terms come from numpy's loops, whose ``exp``,
``expm1``, ``log1p``, ``log`` and ``power`` give other bits on other CPUs,
so the golden digests hold on the platform they were recorded on: numpy's
``X86_V4`` (AVX-512) loops and OpenBLAS's SkylakeX kernels.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .filters import FilterSpec, filter_value, s_value
from .model import SpectralProblem

__all__ = [
    "RiskDecomposition",
    "prediction_risk",
    "direct_risk",
    "empirical_prediction_risk",
    "lepskii_threshold",
]

_COMPENSATED_FROM = 10_000


def _accumulate_rows(block: np.ndarray) -> np.ndarray:
    """The sum of each row of a C-contiguous block: pairwise, or
    compensated from ``_COMPENSATED_FROM`` modes on."""
    if block.shape[1] >= _COMPENSATED_FROM:
        return np.array([math.fsum(row.tolist()) for row in block])
    return np.sum(block, axis=1)


def _accumulate(terms: np.ndarray) -> float:
    """The sum of the 1-d ``terms``, as ``_accumulate_rows`` sums a row."""
    return float(_accumulate_rows(terms.reshape(1, -1))[0])


class RiskDecomposition(Record):
    bias_term: float
    variance_term: float

    @property
    def total(self) -> float:
        return self.bias_term + self.variance_term


def prediction_risk(problem: SpectralProblem, spec: FilterSpec, alpha: float) -> RiskDecomposition:
    """Prediction risk E||T f_hat - T f||^2, split into bias and variance.

    bias = sum lambda_k (1 - s)^2 f_k^2,  variance = sigma^2 sum s^2.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    s = s_value(spec, alpha, problem.eigenvalues)
    bias = _accumulate(problem.eigenvalues * (1.0 - s) ** 2 * problem.truth_coeffs**2)
    var = problem.sigma**2 * _accumulate(s**2)
    return RiskDecomposition(bias, var)


def direct_risk(problem: SpectralProblem, spec: FilterSpec, alpha: float) -> RiskDecomposition:
    """Direct risk E||f_hat - f||^2, exact for this diagonal linear estimator.

    bias = sum (1 - s)^2 f_k^2,  variance = sigma^2 sum lambda_k q^2.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    s = s_value(spec, alpha, problem.eigenvalues)
    q = filter_value(spec, alpha, problem.eigenvalues)
    bias = _accumulate((1.0 - s) ** 2 * problem.truth_coeffs**2)
    var = problem.sigma**2 * _accumulate(problem.eigenvalues * q**2)
    return RiskDecomposition(bias, var)


def empirical_prediction_risk(
    eigenvalues: np.ndarray,
    sigma: float,
    spec: FilterSpec,
    alpha: float,
    obs: np.ndarray,
) -> float:
    """Empirical score r_hat(alpha, Y) = sum s^2 Y^2 - 2 sum s Y^2 + 2 sigma^2 sum s
    of (n,) observations ``obs``.

    Unbiased for the prediction risk up to the alpha-independent constant
    sum lambda_k f_k^2.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (eigenvalues.size,):
        raise ValueError("observations must be a 1-d array of the eigenvalues' length")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    s = s_value(spec, alpha, eigenvalues)
    y2 = obs**2
    return _accumulate((s**2 - 2.0 * s) * y2) + 2.0 * sigma**2 * _accumulate(s)


def lepskii_threshold(
    eigenvalues: np.ndarray, sigma: float, spec: FilterSpec, alpha_tilde: float
) -> float:
    """Balancing threshold 4 sigma sqrt(sum lambda_k q_{alpha_tilde}(lambda_k)^2)."""
    if not alpha_tilde > 0:
        raise ValueError("alpha_tilde must be positive")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    q = filter_value(spec, alpha_tilde, eigenvalues)
    return 4.0 * sigma * math.sqrt(_accumulate(eigenvalues * q**2))
