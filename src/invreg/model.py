"""Diagonalized sequence model: problems, observations and the estimator.

The problem Y_k = sqrt(lambda_k) f_k + sigma xi_k is stored through the
eigenvalues of T*T, the truth coefficients and the per-coordinate noise
level.  Sampling is fully deterministic given an explicit seed; substream
seeds for replicated experiments are derived with a SplitMix64 mix so
results do not depend on worker count or scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FilterSpec, filter_value

__all__ = [
    "SpectralProblem",
    "Observations",
    "EstimateCoefficients",
    "substream_seed",
    "sample_observations",
    "estimate_coefficients",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SpectralProblem:
    """Eigenvalues of T*T (non-increasing, > 0), truth coefficients, noise level."""

    eigenvalues: np.ndarray
    truth_coeffs: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        # frozen copies: the caller's own arrays stay writeable
        eig = np.array(self.eigenvalues, dtype=float)
        tru = np.array(self.truth_coeffs, dtype=float)
        if eig.ndim != 1 or eig.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if np.any(eig <= 0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(eig) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        if tru.shape != eig.shape:
            raise ValueError("truth_coeffs must match eigenvalues in length")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        eig.setflags(write=False)
        tru.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "truth_coeffs", tru)
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class Observations:
    """One realization of the sequence model."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("observations must be a 1-d sequence")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def problem_length(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class EstimateCoefficients:
    """Coefficients of the regularized estimate in the eigenbasis."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_GAMMA = 0x9E3779B97F4A7C15


def substream_seed(master_seed: int, index: int) -> int:
    """Derive a 64-bit substream seed from (master_seed, index).

    This is the SplitMix64 stream: the master seed is finalized once and
    the index advances the state by the golden-ratio increment, so nearby
    indices decorrelate and the mapping is not symmetric in its arguments.
    Replication results therefore depend only on (master_seed, index),
    never on worker count or scheduling.
    """
    state = (_splitmix64(master_seed & _MASK64) + (index & _MASK64) * _GAMMA) & _MASK64
    return _splitmix64(state)


def sample_observations(problem: SpectralProblem, replicate_seed: int) -> Observations:
    """Draw Y_k = sqrt(lambda_k) f_k + sigma xi_k with seeded Gaussian noise.

    The noise stream is PCG64 seeded with ``replicate_seed``; the standard
    normal variates are numpy's ziggurat transform of that uniform stream.
    Identical seeds give bit-identical observations.
    """
    root = np.sqrt(problem.eigenvalues)
    return Observations(_observe(root, problem.truth_coeffs, problem.sigma, replicate_seed))


def _observe(root: np.ndarray, truth: np.ndarray, sigma: float, replicate_seed: int) -> np.ndarray:
    """The values of :func:`sample_observations` for root = sqrt(eigenvalues), without a problem."""
    rng = np.random.Generator(np.random.PCG64(replicate_seed & _MASK64))
    return root * truth + sigma * rng.standard_normal(truth.size)


def estimate_coefficients(
    problem: SpectralProblem, spec: FilterSpec, alpha: float, obs: Observations
) -> EstimateCoefficients:
    """Regularized estimate (f_hat)_k = sqrt(lambda_k) q_alpha(lambda_k) Y_k."""
    if obs.problem_length != problem.n_modes:
        raise ValueError("observations length does not match problem")
    q = filter_value(spec, alpha, problem.eigenvalues)
    return EstimateCoefficients(np.sqrt(problem.eigenvalues) * q * obs.values)
