"""Seeded replication engine for the rate and efficiency studies.

Every replication gets its own substream seed derived from
(master_seed, noise-level index, replication index) via the SplitMix64 mix
in :mod:`invreg.model`.  Replications run serially in index order, each
noise level scored through one :class:`~invreg.selection.GridScorer`, so
tables are bit-identical for any worker count.

A noise level's replications are sampled and scored in batches of at most
``filters._BLOCK // n`` (32 at 1024 modes, 109 at 300): the oracle (for a
fresh truth per replication) and the pred rule score a whole batch over one
s-block, and the Lepskii rule then runs per replication, each batch
forming its data-free rows sqrt(lambda) q once, in float32, in the shared
buffer (``GridScorer.batch_lepskii_errors``).  The oracle and pred grid
indices come from ``GridScorer.batch_*_picks``, which scores exactly only
the grid rows near the minimum, and Lepskii's from a float32 gram with a
rigorous rounding margin, falling back to the float64 test where that
margin cannot decide; the indices are those of the exact tests, so the
tables are the same bytes as with every row scored exactly in float64,
and none of these picks but a Lepskii fallback's depends on the BLAS
thread count.  The three squared errors are read from the
estimate rows at the three picked grid points, evaluated once per batch.
A single replication (:func:`replicate_once`) is a batch of one through
the same code.
The rate study builds its problem once per run (only sigma changes between
noise levels), and the efficiency study builds the eigenvalues, their
square roots and the truth decay k^{-nu} once per run; a replication draws
only its truth and noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .filters import FilterSpec, _row_blocks
from .model import SpectralProblem, _observe, sample_observations, substream_seed
from .problems import TestFunction, _diagonal_spectrum, _diagonal_truth, make_diagonal_problem, make_green_problem
from .selection import GridScorer, ParameterGrid, Selection, build_grid, grid_size

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

    @property
    def lambda_max(self) -> float:
        return math.pi**-4.0  # (pi k)^-4 at k = 1

    def build(self, sigma: float) -> SpectralProblem:
        return make_green_problem(self.n_modes, self.truth, sigma, self.frame)


# log of the largest squared norm n max_k k^{-2 nu} a diagonal truth may
# have: 1e4 below the largest float leaves room for the perturbation of the
# truth and for the squared errors of the estimates
_LOG_TRUTH_NORM_LIMIT = math.log(np.finfo(float).max / 1e4)


@dataclass(frozen=True)
class DiagonalDescriptor:
    n: int = 300
    a: float = 4.0
    nu: float = 4.0

    def __post_init__(self) -> None:
        if not self.n >= 1:
            raise ValueError(f"n must be at least 1, got {self.n!r}")
        if not (self.a >= 0 and float(self.n) ** (-2.0 * self.a) > 0):  # k^{-2a} from 1 down to a positive n^{-2a}
            raise ValueError(f"a must be at least 0 with n^(-2a) > 0 at n = {self.n}, got {self.a!r}")
        if not (1.0 - 2.0 * min(self.nu, 0.0)) * math.log(self.n) < _LOG_TRUTH_NORM_LIMIT:
            raise ValueError(f"nu = {self.nu!r} at n = {self.n} puts n^(1 - 2 nu) within 1e4 of float overflow")

    @property
    def lambda_max(self) -> float:
        return 1.0  # k^{-2a} at k = 1

    def build(self, sigma: float, seed: int) -> SpectralProblem:
        return make_diagonal_problem(self.n, self.a, self.nu, sigma, seed)


ProblemDescriptor = Union[GreenDescriptor, DiagonalDescriptor]


# the most memory one noise level's scorer may take, in bytes
_SCORER_BUDGET = 1 << 30


def _scorer_bytes(n: int, sizes) -> int:
    """Bytes of the arrays of the scorer of the largest of grids of
    ``sizes`` points over n modes: its K x n float64 buffer and, per grid
    point pair, its strictly-lower mask and a Lepskii call's float64
    square, float32 gram and mask."""
    k = max(sizes)
    return k * n * 8 + k * k * (1 + 8 + 4 + 1)


def _check_grids(problem: ProblemDescriptor, sigmas, ratio: float) -> None:
    """Refuse a grid ratio, or a noise level, whose grid is empty or whose
    scorer would not fit the memory budget, from the closed-form grid sizes
    (``selection.grid_size``), so no grid is built first."""
    if not ratio > 1:
        raise ValueError(f"grid_ratio must exceed 1, got {ratio!r}")
    sizes = []
    for sigma in sigmas:
        try:
            sizes.append(grid_size(sigma, problem.lambda_max, ratio))
        except ValueError as exc:
            raise ValueError(f"sigma = {sigma!r}: {exc}") from exc
    n = problem.n_modes if isinstance(problem, GreenDescriptor) else problem.n
    need = _scorer_bytes(n, sizes)
    if need > _SCORER_BUDGET:
        raise ValueError(
            f"the scorer needs {need} bytes at {n} modes and {max(sizes)} grid points"
            f" (grid_ratio = {ratio!r}), over the budget of {_SCORER_BUDGET}"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemDescriptor
    filter_spec: FilterSpec
    sigmas: tuple[float, ...]
    replications: int
    grid_ratio: float = 1.2
    master_seed: int = 0
    _grids: tuple[ParameterGrid, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if len(self.sigmas) == 0 or not all(0 < s < math.inf for s in self.sigmas):
            raise ValueError("sigmas must be nonempty, finite and positive")
        if self.replications < 2:
            raise ValueError("need at least 2 replications for standard errors")
        _check_grids(self.problem, self.sigmas, self.grid_ratio)
        grids = tuple(build_grid(sigma, self.problem.lambda_max, self.grid_ratio) for sigma in self.sigmas)
        object.__setattr__(self, "_grids", grids)

    def grids(self) -> list[ParameterGrid]:
        """The candidate grid of each noise level, up to the problem's lambda_1,
        built once with the config."""
        return list(self._grids)


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


def _score_batch(scorer: GridScorer, truths: np.ndarray, values: np.ndarray, oracle_idx) -> np.ndarray:
    """Squared errors [err_or, err_pred, err_lep] of each replication of a
    batch (rows): row r of ``values`` observes the truth in row r of
    ``truths``, whose oracle grid index is ``oracle_idx[r]``.

    Pred scores the whole batch over one s-block; Lepskii then runs per
    replication over the batch's float32 data-free rows, and the three
    errors are read from the estimate rows at the picked grid points.
    """
    picks = np.stack([oracle_idx, scorer.batch_pred_picks(values)], axis=1)
    return scorer.batch_lepskii_errors(values, truths, picks)[1]


def replicate_once(
    problem: SpectralProblem,
    spec: FilterSpec,
    grid: ParameterGrid,
    replicate_seed: int,
    oracle: Selection | None = None,
    scorer: GridScorer | None = None,
) -> tuple[float, float, float]:
    """One replication: sample Y, select alpha by each rule, return the
    squared coefficient-space errors (err_or, err_pred, err_lep).

    The oracle selection is deterministic per problem and may be passed in
    precomputed, as may the noise level's scorer, which must have been
    built for this problem's eigenvalues and sigma, ``spec`` and ``grid``.
    The replication is scored as a batch of one, through the same code as
    the batches of :func:`run_rate_experiment`.
    """
    if scorer is None:
        scorer = GridScorer(problem.eigenvalues, problem.sigma, spec, grid)
    elif not (
        scorer.spec == spec
        and scorer.sigma == problem.sigma
        and np.array_equal(scorer.grid.values, grid.values)
        and np.array_equal(scorer.eigenvalues, problem.eigenvalues)
    ):
        raise ValueError("scorer was built for another problem, filter or grid")
    if oracle is None:
        oracle = scorer.oracle(problem.truth_coeffs)
    elif not (0 <= oracle.grid_index < len(grid) and grid.values[oracle.grid_index] == oracle.alpha):
        raise ValueError("oracle selection is not a point of this grid")
    obs = sample_observations(problem, replicate_seed)
    (errors,) = _score_batch(scorer, problem.truth_coeffs[None], obs.values[None], [oracle.grid_index])
    return tuple(errors.tolist())


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


def run_rate_experiment(config: ExperimentConfig, workers: int = 1) -> RiskTable:
    """Risk table over config.sigmas for a fixed truth (Figure-2 style study).

    Replications run serially; ``workers`` is accepted for compatibility
    and changes nothing.
    """
    if not isinstance(config.problem, GreenDescriptor):
        raise ValueError("rate experiments use the green problem descriptor")
    # the problem does not depend on the noise level, so one serves them all
    problem = config.problem.build(config.sigmas[0])
    root = np.sqrt(problem.eigenvalues)
    grids = config.grids()
    # one scratch block for the largest grid serves every noise level
    buffer = np.empty((max(map(len, grids)), problem.n_modes))
    rows = []
    for i, (sigma, grid) in enumerate(zip(config.sigmas, grids)):
        scorer = GridScorer(problem.eigenvalues, sigma, config.filter_spec, grid, buffer)
        oracle_idx = scorer.batch_oracle_picks(problem.truth_coeffs[None])[0]
        sigma_stream = substream_seed(config.master_seed, i)
        batches = []
        for batch in _row_blocks(config.replications, problem.n_modes):
            reps = range(config.replications)[batch]
            values = np.empty((len(reps), problem.n_modes))
            for r, j in enumerate(reps):
                values[r] = _observe(root, problem.truth_coeffs, sigma, substream_seed(sigma_stream, j))
            truths = np.broadcast_to(problem.truth_coeffs, values.shape)
            batches.append(_score_batch(scorer, truths, values, [oracle_idx] * len(reps)))
        triples = np.concatenate(batches)
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
    fresh random truth per replication (Figure-3 style study).

    Replications run serially; ``workers`` is accepted for compatibility
    and changes nothing.
    """
    if not isinstance(config.problem, DiagonalDescriptor):
        raise ValueError("efficiency experiments use the diagonal problem descriptor")
    eigenvalues, decay = _diagonal_spectrum(config.problem.n, config.problem.a, config.problem.nu)
    root = np.sqrt(eigenvalues)
    grids = config.grids()
    buffer = np.empty((max(map(len, grids)), config.problem.n))
    rows = []
    for i, (sigma, grid) in enumerate(zip(config.sigmas, grids)):
        sigma_stream = substream_seed(config.master_seed, i)
        scorer = GridScorer(eigenvalues, sigma, config.filter_spec, grid, buffer)
        batches = []
        for batch in _row_blocks(config.replications, config.problem.n):
            reps = range(config.replications)[batch]
            truths = np.empty((len(reps), config.problem.n))
            values = np.empty_like(truths)
            for r, j in enumerate(reps):
                rep_stream = substream_seed(sigma_stream, j)
                truths[r] = _diagonal_truth(decay, substream_seed(rep_stream, 0))
                values[r] = _observe(root, truths[r], sigma, substream_seed(rep_stream, 1))
            oracle_idx = scorer.batch_oracle_picks(truths)
            batches.append(_score_batch(scorer, truths, values, oracle_idx))
        triples = np.concatenate(batches)
        # average the per-replication oracle fractions err_or / err_rule:
        # the plain ratio of mean risks is dominated by the rare deep minima
        # of the empirical score (heavy right tail of err_pred) and says
        # nothing about typical behavior
        eff_pred = float(np.mean(triples[:, 0] / triples[:, 1]))
        eff_lep = float(np.mean(triples[:, 0] / triples[:, 2]))
        rows.append(EfficiencyRow(sigma, eff_pred, eff_lep))
    return EfficiencyTable(tuple(rows))
