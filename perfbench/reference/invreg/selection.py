"""Candidate grids and the four regularization-parameter choice rules.

The grid discretizes [sigma^2, lambda_1] geometrically with a ratio r > 1.
All rules are deterministic: score ties on the grid are resolved toward the
smallest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import FilterSpec, filter_value
from .model import Observations, SpectralProblem
from .risk import direct_risk, empirical_prediction_risk, lepskii_threshold

__all__ = [
    "ParameterGrid",
    "Selection",
    "build_grid",
    "choose_oracle",
    "choose_pred",
    "choose_lepskii",
    "apriori_alpha_polynomial",
]


@dataclass(frozen=True)
class ParameterGrid:
    """Geometric candidate set sigma^2 * ratio^j, j = 0..K, capped at lambda_1."""

    ratio: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Selection:
    alpha: float
    grid_index: int
    rule: str  # oracle | pred | lepskii | apriori
    score: float


def build_grid(sigma: float, lambda_max: float, ratio: float) -> ParameterGrid:
    """Grid {sigma^2 r^j : j = 0..K} with K = floor(log(lambda_max/sigma^2)/log r)."""
    if not ratio > 1:
        raise ValueError("ratio must exceed 1")
    if not (sigma > 0 and lambda_max > 0):
        raise ValueError("sigma and lambda_max must be positive")
    if sigma**2 >= lambda_max:
        raise ValueError("sigma^2 must be below lambda_max (empty grid range)")
    k_max = math.floor(math.log(lambda_max / sigma**2) / math.log(ratio))
    values = sigma**2 * ratio ** np.arange(k_max + 1, dtype=float)
    return ParameterGrid(ratio=float(ratio), values=values)


def choose_oracle(problem: SpectralProblem, spec: FilterSpec, grid: ParameterGrid) -> Selection:
    """Minimize the exact direct risk over the grid (needs the truth)."""
    totals = np.array([direct_risk(problem, spec, a).total for a in grid.values])
    idx = int(np.argmin(totals))  # first minimum = smallest index
    return Selection(float(grid.values[idx]), idx, "oracle", float(totals[idx]))


def choose_pred(
    eigenvalues: np.ndarray,
    sigma: float,
    spec: FilterSpec,
    grid: ParameterGrid,
    obs: Observations,
) -> Selection:
    """Minimize the empirical prediction-risk score over the grid."""
    scores = np.array(
        [empirical_prediction_risk(eigenvalues, sigma, spec, a, obs) for a in grid.values]
    )
    idx = int(np.argmin(scores))
    return Selection(float(grid.values[idx]), idx, "pred", float(scores[idx]))


def choose_lepskii(
    eigenvalues: np.ndarray,
    sigma: float,
    spec: FilterSpec,
    grid: ParameterGrid,
    obs: Observations,
) -> Selection:
    """Balancing rule: largest grid alpha whose estimate stays within the
    noise threshold of every less-regularized estimate.

    The smallest grid value is admissible vacuously, so the rule always
    returns an index; the deciding score is the selected alpha itself.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if obs.problem_length != eigenvalues.size:
        raise ValueError("observations length does not match eigenvalues")
    k = len(grid)
    # all estimates at once: row i holds f_hat at grid.values[i]
    coeff = np.empty((k, eigenvalues.size))
    root = np.sqrt(eigenvalues)
    for i, a in enumerate(grid.values):
        coeff[i] = root * filter_value(spec, a, eigenvalues) * obs.values
    gram = coeff @ coeff.T
    sq_norm = np.diag(gram)
    thresholds = np.array(
        [lepskii_threshold(eigenvalues, sigma, spec, a) ** 2 for a in grid.values]
    )
    best = 0
    for i in range(1, k):
        admissible = True
        for j in range(i):
            dist_sq = max(sq_norm[i] + sq_norm[j] - 2.0 * gram[i, j], 0.0)
            if dist_sq > thresholds[j]:
                admissible = False
                break
        if admissible:
            best = i
    return Selection(float(grid.values[best]), best, "lepskii", float(grid.values[best]))


def apriori_alpha_polynomial(a: float, c_a: float, b: float, sigma: float) -> float:
    """Closed-form balance point C_a^{1/(1+a+b)} sigma^{2a/(1+a+b)}.

    Solves alpha * phi(alpha)^2 = sigma^2 S(alpha) for polynomially
    ill-posed problems with S(alpha) = (alpha/C_a)^{-1/a} and
    phi(x) = x^{b/(2a)}.
    """
    if not a > 1:
        raise ValueError("a must exceed 1")
    if not (c_a > 0 and b > 0 and sigma > 0):
        raise ValueError("c_a, b and sigma must be positive")
    expo = 1.0 / (1.0 + a + b)
    return c_a**expo * sigma ** (2.0 * a * expo)
