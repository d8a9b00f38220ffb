"""Seeded replication engine for the rate and efficiency studies.

Every replication gets its own substream seed derived from
(master_seed, noise-level index, replication index) via the SplitMix64 mix
in :mod:`invreg.model`.  Replications run serially in index order, each
noise level scored through one :class:`~invreg.selection.GridScorer` over
the grid that the run builds for it, so reruns write the same bytes.  Both
studies run through one loop (``_study``), the only place where a batch is
seeded and drawn:
the seeds of a run's replications, and the words numpy's SeedSequence
derives from each, are computed in numpy integer arithmetic a chunk at a
time (``model._cell_words``), and each replication's PCG64 generator is
built from its words, so its stream is that of PCG64(seed).

A noise level's replications are sampled and scored in batches of at most
``filters._BLOCK // n`` (32 at 1024 modes, 109 at 300).  The oracle picks
for each truth a batch draws (the rate study draws its one truth as a
batch of one), and the pred rule for each observation, from one (1 - s)^2
block per batch (``GridScorer.batch_picks``), which scores exactly only
the grid rows near each minimum.  Lepskii's rule then picks for the whole
batch at once (``GridScorer.batch_lepskii_picks``, through
``lepskii.picks``), with the indices of the float64 test.  So the tables
are the same bytes as with every row scored exactly in float64, and none
of these picks but a Lepskii fallback's depends on the BLAS thread count.
The three picks are stacked into one (R, 3) index, and the squared errors
are read from the estimate rows at its grid points, evaluated once per
batch (``GridScorer.batch_errors``).
A scorer forms only the grid rows a pick can lie in and proves that the
rows above them cannot hold one, from the ordered filters' monotonicity
(the cut of ``GridScorer``); each noise level starts from the share of
its grid that the one before needed, and the first from half its grid.
The rate study builds its problem once per run (only sigma changes between
noise levels), and the efficiency study builds the eigenvalues, their
square roots and the truth decay k^{-nu} once per run; a replication draws
only its truth and noise.
"""

from __future__ import annotations

import itertools
import math
from typing import Union

import numpy as np

from ._record import Field, Record
from .filters import _BLOCK, FilterSpec
from .lepskii import _FALLBACK_BYTES
from .model import SpectralProblem, _cell_words, _generators, _noisy
from .problems import NumericFailure, TestFunction, _diagonal_spectrum, _diagonal_truths
from .problems import make_diagonal_problem, make_green_problem
from .selection import GridScorer, build_grid, grid_size

__all__ = [
    "GreenDescriptor",
    "DiagonalDescriptor",
    "ExperimentConfig",
    "RiskRow",
    "EfficiencyRow",
    "run_rate_experiment",
    "run_efficiency_experiment",
]


class GreenDescriptor(Record):
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


class DiagonalDescriptor(Record):
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


# the most memory one noise level's scorer may take, in bytes, and the
# budget that a run holds its per-replication errors to and
# ``checks.run_filter_checks`` its pairs
_SCORER_BUDGET = 1 << 30
# bytes per replication and noise level that cover a rate study and its
# per-replication CSV (``tables.emit_per_rep_errors``): tracemalloc reads
# 42-70 for the run and 475-541 for the CSV from 2e4 replications up
_REPLICATION_BYTES = 640


def _scorer_bytes(n: int, sizes) -> int:
    """Bytes of the arrays of the scorer of the largest of grids of
    ``sizes`` points over n modes: its K x n float64 buffer and the arrays
    of a Lepskii fallback (``lepskii._fallback``)."""
    k = max(sizes)
    return k * n * 8 + k * k * _FALLBACK_BYTES


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


class ExperimentConfig(Record):
    problem: ProblemDescriptor
    filter_spec: FilterSpec
    sigmas: tuple[float, ...]
    replications: int
    grid_ratio: float = 1.2
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if len(self.sigmas) == 0 or not all(0 < s < math.inf for s in self.sigmas):
            raise ValueError("sigmas must be nonempty, finite and positive")
        if self.replications < 2:
            raise ValueError("need at least 2 replications for standard errors")
        need = self.replications * len(self.sigmas) * _REPLICATION_BYTES
        if need > _SCORER_BUDGET:
            raise ValueError(
                f"{self.replications} replications at {len(self.sigmas)} noise levels need {need} bytes,"
                f" over the budget of {_SCORER_BUDGET}"
            )
        _check_grids(self.problem, self.sigmas, self.grid_ratio)


class RiskRow(Record):
    sigma: float
    r_or: float
    se_or: float
    r_pred: float
    se_pred: float
    r_lep: float
    se_lep: float
    per_rep: dict = Field(default_factory=dict, compare=False)


class EfficiencyRow(Record):
    sigma: float
    eff_pred: float
    eff_lep: float


def _study(config: ExperimentConfig, eigenvalues: np.ndarray, draw, streams: tuple[int, ...] = ()):
    """Yield the (sigma, triples) of each noise level of a run, triples the
    (R, 3) squared errors [err_or, err_pred, err_lep] of its replications.

    The one study loop: each noise level scores its replications with one
    scorer, in batches of at most ``filters._BLOCK // n``, and
    ``draw(sigma, words)`` draws a batch's (truths, values) from the
    (replications, prod(streams), 4) seed words of its replications
    (``model._cell_words`` over the noise levels, the replications and the
    ``streams`` of each replication).  The truths are one per observation,
    or one for the whole batch; the oracle picks for each truth drawn.  A
    batch makes one scorer call per phase: ``batch_picks``,
    ``batch_lepskii_picks``, and ``batch_errors`` at the (R, 3) index of
    the three picks.
    """
    grids = [build_grid(sigma, config.problem.lambda_max, config.grid_ratio) for sigma in config.sigmas]
    # one scratch block for the largest grid serves every noise level
    buffer = np.empty((max(map(len, grids)), eigenvalues.size))
    step = max(1, _BLOCK // eigenvalues.size)
    cells = _cell_words(config.master_seed, (len(config.sigmas), config.replications, *streams))
    width = math.prod(streams)
    # the first noise level's rows start at the middle of its grid, where
    # a new scorer centres Lepskii's rows; each later one starts at the
    # share of the rows that the one before needed
    cut = 0.5
    for sigma, grid in zip(config.sigmas, grids):
        scorer = GridScorer(eigenvalues, sigma, config.filter_spec, grid, buffer, cut)
        batches = []
        for lo in range(0, config.replications, step):
            count = min(step, config.replications - lo)
            words = np.fromiter(itertools.islice(cells, count * width), (np.uint64, 4), count * width)
            truths, values = draw(sigma, words.reshape(count, width, 4))
            oracle_idx, pred_idx = scorer.batch_picks(truths, values)
            oracle_idx = np.broadcast_to(oracle_idx, count)
            index = np.stack([oracle_idx, pred_idx, scorer.batch_lepskii_picks(values)], axis=1)
            batches.append(scorer.batch_errors(values, np.broadcast_to(truths, values.shape), index))
        cut = scorer.cut
        yield sigma, np.concatenate(batches)


def run_rate_experiment(config: ExperimentConfig) -> tuple[RiskRow, ...]:
    """The risk table's rows over config.sigmas for a fixed truth (Figure-2
    style study)."""
    if not isinstance(config.problem, GreenDescriptor):
        raise ValueError("rate experiments use the green problem descriptor")
    # the problem does not depend on the noise level, so one serves them all
    problem = config.problem.build(config.sigmas[0])
    truth = problem.truth_coeffs
    signal = np.sqrt(problem.eigenvalues) * truth

    def draw(sigma, words):
        return truth[None], _noisy(signal, sigma, _generators(words[:, 0]), len(words))

    rows = []
    for sigma, triples in _study(config, problem.eigenvalues, draw):
        # one (3, R) array: each row is summed pairwise, as a column alone is
        errors = np.ascontiguousarray(triples.T)
        stats = np.stack([errors.mean(axis=1), errors.std(axis=1, ddof=1) / math.sqrt(len(triples))], axis=1)
        rows.append(RiskRow(sigma, *stats.ravel().tolist(), per_rep=dict(zip(("or", "pred", "lep"), errors))))
    return tuple(rows)


def run_efficiency_experiment(config: ExperimentConfig) -> tuple[EfficiencyRow, ...]:
    """The rows of mean per-replication oracle-risk fractions over
    config.sigmas with a fresh random truth per replication (Figure-3 style
    study).  A fraction that is not finite (an oracle error and a rule's
    error that underflow to 0 alike) raises NumericFailure."""
    if not isinstance(config.problem, DiagonalDescriptor):
        raise ValueError("efficiency experiments use the diagonal problem descriptor")
    eigenvalues, decay = _diagonal_spectrum(config.problem.n, config.problem.a, config.problem.nu)
    root = np.sqrt(eigenvalues)

    def draw(sigma, words):
        truths = _diagonal_truths(decay, _generators(words[:, 0]), len(words))
        return truths, _noisy(root * truths, sigma, _generators(words[:, 1]), len(words))

    rows = []
    for sigma, triples in _study(config, eigenvalues, draw, (2,)):
        # average the per-replication oracle fractions err_or / err_rule:
        # the plain ratio of mean risks is dominated by the rare deep minima
        # of the empirical score (heavy right tail of err_pred) and says
        # nothing about typical behavior
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            eff_pred = float(np.mean(triples[:, 0] / triples[:, 1]))
            eff_lep = float(np.mean(triples[:, 0] / triples[:, 2]))
        if not (math.isfinite(eff_pred) and math.isfinite(eff_lep)):
            raise NumericFailure(f"sigma = {sigma!r}: the efficiencies {eff_pred!r}, {eff_lep!r} are not finite")
        rows.append(EfficiencyRow(sigma, eff_pred, eff_lep))
    return tuple(rows)
