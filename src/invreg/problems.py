"""Generators for the two experimental problem families.

The Green-kernel operator on [0,1] (kernel min{x(1-y), y(1-x)}, the inverse
of -d^2/dx^2 with Dirichlet boundary) has T*T eigenvalues (pi k)^{-4}; its
test functions are the hat function and the centered indicator, whose
coefficient sequences are known in closed form.  Two coefficient frames are
available (see make_green_problem): the analytic closed forms, and the
Euclidean frame of the n-point grid used by the rate experiments.  Relative
to L^2 coefficients against e_k = sqrt(2) sin(k pi x), the analytic forms
carry a constant magnitude factor (1 / (4 sqrt(2) pi) for the hat,
1 / (4 pi) for the indicator) and per-mode orientation signs, which is
immaterial for all risks since only f_k^2 enters.  The experiments
synthesize data directly in sequence space from this closed-form spectrum.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .model import SpectralProblem, _generator

__all__ = [
    "TestFunction",
    "NumericFailure",
    "make_green_problem",
    "make_diagonal_problem",
]


class NumericFailure(RuntimeError):
    """A numerical result is not finite, or a filter invariant is violated."""


class TestFunction(enum.Enum):
    HAT = "hat"
    INDICATOR = "indicator"


def make_green_problem(
    n_modes: int, truth: TestFunction, sigma: float, frame: str = "analytic"
) -> SpectralProblem:
    """Green-kernel problem truncated to n_modes coordinates.

    Eigenvalues lambda_k = (pi k)^{-4}; truth coefficients from the closed
    forms of the hat / indicator test functions (even modes vanish).

    ``frame`` selects the coefficient convention:

    * ``"analytic"``: the closed-form sequence coefficients (hat
      f_k = ((-1)^k - 1) / (4 pi^3 k^2), indicator
      f_k = (-1)^k sin(pi k / 2) / (2 pi^2 k)).
    * ``"discrete"``: coefficients taken against the Euclidean-normalized
      eigenvectors of the n_modes-point grid, i.e. sqrt(n_modes) times the
      L^2 coefficients against e_k = sqrt(2) sin(k pi x).  This is the frame
      in which adding N(0, sigma^2) noise per grid point of a discretized
      observation is equivalent to the sequence model with the same sigma;
      the rate experiments use it so that their noise levels mean what they
      would in a grid-sampled experiment.

    The default here is ``"analytic"``, while ``GreenDescriptor`` and the
    CLI config default to ``"discrete"``; a caller that holds a descriptor
    passes its ``frame``.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if frame not in ("analytic", "discrete"):
        raise ValueError(f"unknown frame: {frame!r}")
    k = np.arange(1, n_modes + 1, dtype=float)
    eigenvalues = (math.pi * k) ** -4.0
    sign = np.where(np.arange(1, n_modes + 1) % 2 == 0, 1.0, -1.0)  # (-1)^k
    if truth is TestFunction.HAT:
        if frame == "analytic":
            coeffs = (sign - 1.0) / (4.0 * math.pi**3 * k**2)
        else:
            coeffs = math.sqrt(8.0 * n_modes) * np.sin(math.pi * k / 2.0) / (math.pi**2 * k**2)
    elif truth is TestFunction.INDICATOR:
        if frame == "analytic":
            coeffs = sign * np.sin(math.pi * k / 2.0) / (2.0 * math.pi**2 * k)
        else:
            coeffs = (
                math.sqrt(2.0 * n_modes)
                * (np.cos(math.pi * k / 4.0) - np.cos(3.0 * math.pi * k / 4.0))
                / (math.pi * k)
            )
    else:
        raise ValueError(f"unknown test function: {truth!r}")
    coeffs[1::2] = 0.0  # even modes vanish exactly by symmetry
    return SpectralProblem(eigenvalues, coeffs, sigma)


def _diagonal_spectrum(n: int, a: float, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues k^{-2a} of the diagonal problem and the decay k^{-nu} of its truth."""
    if n < 1:
        raise ValueError("n must be at least 1")
    k = np.arange(1, n + 1, dtype=float)
    return k ** (-2.0 * a), k ** (-nu)


def _diagonal_truths(decay: np.ndarray, generators, count: int) -> np.ndarray:
    """(count, n) truths f_k = +-decay_k (1 + N(0, 0.1^2)) with independent
    uniform signs, row r drawn from the next of ``generators``.

    The sign bits are those of ``integers(0, 2, size=n)``: numpy draws each
    by Lemire's method from one 32-bit half of a raw 64-bit PCG64 output,
    low half first, which over [0, 2) is the half's top bit.  They are read
    from ``random_raw`` instead, at a fraction of the cost; the normals that
    follow come from the same stream either way, since they read whole
    64-bit outputs.
    """
    n = decay.size
    raw, perturb = np.empty((count, (n + 1) // 2), dtype=np.uint64), np.empty((count, n))
    for r in range(count):
        rng = next(generators)
        raw[r] = rng.bit_generator.random_raw(raw.shape[1])
        rng.standard_normal(out=perturb[r])
    # little-endian 64-bit words read as 32-bit ones give each low half first
    halves = raw.astype("<u8", copy=False).view("<u4")[:, :n]
    truths = (halves >> np.uint32(31)) * 2.0 - 1.0
    truths *= decay
    perturb *= 0.1
    perturb += 1.0
    truths *= perturb
    return truths


def make_diagonal_problem(
    n: int, a: float, nu: float, sigma: float, seed: int
) -> SpectralProblem:
    """Diagonal problem with singular values k^{-a} and a random truth.

    truth f_k = +-k^{-nu} (1 + N(0, 0.1^2)) with independent uniform signs;
    the eigenvalues of T*T are k^{-2a}.
    """
    eigenvalues, decay = _diagonal_spectrum(n, a, nu)
    return SpectralProblem(eigenvalues, _diagonal_truths(decay, iter([_generator(seed)]), 1)[0], sigma)

