"""Seeded replication engine for the rate and efficiency studies.

Every replication gets its own substream seed derived from
(master_seed, noise-level index, replication index) via the SplitMix64 mix
in :mod:`invreg.model`, and results are merged in replication-index order,
so tables are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .filters import FilterSpec
from .model import SpectralProblem, estimate_coefficients, sample_observations, substream_seed
from .problems import TestFunction, make_diagonal_problem, make_green_problem
from .selection import ParameterGrid, Selection, build_grid, choose_lepskii, choose_oracle, choose_pred

__all__ = [
    "GreenDescriptor",
    "DiagonalDescriptor",
    "ExperimentConfig",
    "RiskRow",
    "RiskTable",
    "EfficiencyRow",
    "EfficiencyTable",
    "replicate_once",
    "run_rate_experiment",
    "run_efficiency_experiment",
]


@dataclass(frozen=True)
class GreenDescriptor:
    truth: TestFunction
    n_modes: int = 1024
    # the discrete frame keeps the sigma ladder on the scale of a
    # grid-sampled experiment; see make_green_problem
    frame: str = "discrete"

    def build(self, sigma: float) -> SpectralProblem:
        return make_green_problem(self.n_modes, self.truth, sigma, self.frame)


@dataclass(frozen=True)
class DiagonalDescriptor:
    n: int = 300
    a: float = 4.0
    nu: float = 4.0

    def build(self, sigma: float, seed: int) -> SpectralProblem:
        return make_diagonal_problem(self.n, self.a, self.nu, sigma, seed)


ProblemDescriptor = Union[GreenDescriptor, DiagonalDescriptor]


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemDescriptor
    filter_spec: FilterSpec
    sigmas: tuple[float, ...]
    replications: int
    grid_ratio: float = 1.2
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if len(self.sigmas) == 0 or any(s <= 0 for s in self.sigmas):
            raise ValueError("sigmas must be nonempty and positive")
        if self.replications < 2:
            raise ValueError("need at least 2 replications for standard errors")
        if not self.grid_ratio > 1:
            raise ValueError("grid_ratio must exceed 1")


@dataclass(frozen=True)
class RiskRow:
    sigma: float
    r_or: float
    se_or: float
    r_pred: float
    se_pred: float
    r_lep: float
    se_lep: float
    per_rep: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class RiskTable:
    rows: tuple[RiskRow, ...]


@dataclass(frozen=True)
class EfficiencyRow:
    sigma: float
    eff_pred: float
    eff_lep: float


@dataclass(frozen=True)
class EfficiencyTable:
    rows: tuple[EfficiencyRow, ...]


def _sq_error(problem: SpectralProblem, spec: FilterSpec, alpha: float, obs) -> float:
    est = estimate_coefficients(problem, spec, alpha, obs)
    diff = est.values - problem.truth_coeffs
    return float(diff @ diff)


def replicate_once(
    problem: SpectralProblem,
    spec: FilterSpec,
    grid: ParameterGrid,
    replicate_seed: int,
    oracle: Selection | None = None,
) -> tuple[float, float, float]:
    """One replication: sample Y, select alpha by each rule, return the
    squared coefficient-space errors (err_or, err_pred, err_lep).

    The oracle selection is deterministic per problem and may be passed in
    precomputed.
    """
    if oracle is None:
        oracle = choose_oracle(problem, spec, grid)
    obs = sample_observations(problem, replicate_seed)
    eig, sigma = problem.eigenvalues, problem.sigma
    sel_pred = choose_pred(eig, sigma, spec, grid, obs)
    sel_lep = choose_lepskii(eig, sigma, spec, grid, obs)
    return (
        _sq_error(problem, spec, oracle.alpha, obs),
        _sq_error(problem, spec, sel_pred.alpha, obs),
        _sq_error(problem, spec, sel_lep.alpha, obs),
    )


def _run_indexed(task, m: int, workers: int) -> list:
    """Run task(j) for j = 0..m-1, merging results in index order."""
    if workers <= 1:
        return [task(j) for j in range(m)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(m)))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


def run_rate_experiment(config: ExperimentConfig, workers: int = 1) -> RiskTable:
    """Risk table over config.sigmas for a fixed truth (Figure-2 style study)."""
    if not isinstance(config.problem, GreenDescriptor):
        raise ValueError("rate experiments use the green problem descriptor")
    rows = []
    for i, sigma in enumerate(config.sigmas):
        problem = config.problem.build(sigma)
        grid = build_grid(sigma, float(problem.eigenvalues[0]), config.grid_ratio)
        oracle = choose_oracle(problem, config.filter_spec, grid)
        sigma_stream = substream_seed(config.master_seed, i)

        def task(j: int, _problem=problem, _grid=grid, _oracle=oracle, _stream=sigma_stream):
            return replicate_once(
                _problem, config.filter_spec, _grid, substream_seed(_stream, j), _oracle
            )

        triples = np.array(_run_indexed(task, config.replications, workers))
        (r_or, se_or) = _mean_se(triples[:, 0])
        (r_pred, se_pred) = _mean_se(triples[:, 1])
        (r_lep, se_lep) = _mean_se(triples[:, 2])
        rows.append(
            RiskRow(
                sigma, r_or, se_or, r_pred, se_pred, r_lep, se_lep,
                per_rep={"or": triples[:, 0], "pred": triples[:, 1], "lep": triples[:, 2]},
            )
        )
    return RiskTable(tuple(rows))


def run_efficiency_experiment(config: ExperimentConfig, workers: int = 1) -> EfficiencyTable:
    """Mean per-replication oracle-risk fractions over config.sigmas with a
    fresh random truth per replication (Figure-3 style study)."""
    if not isinstance(config.problem, DiagonalDescriptor):
        raise ValueError("efficiency experiments use the diagonal problem descriptor")
    rows = []
    for i, sigma in enumerate(config.sigmas):
        grid = build_grid(sigma, 1.0, config.grid_ratio)  # lambda_1 = 1 for k^{-2a}
        sigma_stream = substream_seed(config.master_seed, i)

        def task(j: int, _sigma=sigma, _grid=grid, _stream=sigma_stream):
            rep_stream = substream_seed(_stream, j)
            problem = config.problem.build(_sigma, substream_seed(rep_stream, 0))
            return replicate_once(
                problem, config.filter_spec, _grid, substream_seed(rep_stream, 1)
            )

        triples = np.array(_run_indexed(task, config.replications, workers))
        # average the per-replication oracle fractions err_or / err_rule:
        # the plain ratio of mean risks is dominated by the rare deep minima
        # of the empirical score (heavy right tail of err_pred) and says
        # nothing about typical behavior
        eff_pred = float(np.mean(triples[:, 0] / triples[:, 1]))
        eff_lep = float(np.mean(triples[:, 0] / triples[:, 2]))
        rows.append(EfficiencyRow(sigma, eff_pred, eff_lep))
    return EfficiencyTable(tuple(rows))
