"""Candidate grids and the four regularization-parameter choice rules.

The grid discretizes [sigma^2, lambda_1] geometrically with a ratio r > 1.
All rules are deterministic: score ties on the grid are resolved toward the
smallest index.  The oracle, pred and Lepskii rules score the whole grid at
once through a :class:`GridScorer`, whose scores equal the per-alpha
functions of :mod:`invreg.risk` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import FilterSpec, _check_args, _evaluate, _row_blocks
from .model import Observations, SpectralProblem
from .risk import _COMPENSATED_FROM, _accumulate, _accumulate_rows

__all__ = [
    "ParameterGrid",
    "Selection",
    "GridScorer",
    "build_grid",
    "grid_size",
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
        vals = np.array(self.values, dtype=float)
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


def grid_size(sigma: float, lambda_max: float, ratio: float) -> int:
    """The number K + 1 of points of ``build_grid(sigma, lambda_max, ratio)``,
    K = floor(log(lambda_max/sigma^2)/log r), found without building the grid."""
    if not ratio > 1:
        raise ValueError("ratio must exceed 1")
    if not (sigma > 0 and lambda_max > 0):
        raise ValueError("sigma and lambda_max must be positive")
    if sigma**2 >= lambda_max:
        raise ValueError("sigma^2 must be below lambda_max (empty grid range)")
    if sigma**2 == 0.0 or math.isinf(lambda_max / sigma**2):
        raise ValueError("lambda_max / sigma^2 overflows (grid range not representable)")
    return math.floor(math.log(lambda_max / sigma**2) / math.log(ratio)) + 1


def build_grid(sigma: float, lambda_max: float, ratio: float) -> ParameterGrid:
    """Grid {sigma^2 r^j : j = 0..K} with K = floor(log(lambda_max/sigma^2)/log r)."""
    values = sigma**2 * ratio ** np.arange(grid_size(sigma, lambda_max, ratio), dtype=float)
    return ParameterGrid(ratio=float(ratio), values=values)


class GridScorer:
    """Scores every grid point of one noise level under the oracle, pred and
    Lepskii rules.

    The scorer keeps a read-only copy of the eigenvalues and checks its
    inputs once, at construction; later blocks are evaluated unchecked.
    What does not depend on the data is computed once, as K-vectors: the
    oracle's variance term sigma^2 sum lambda q^2, the squared Lepskii
    thresholds and, from the first s-block a call forms, the pred offset
    2 sigma^2 sum s.  Each call then
    fills one K x n scratch buffer in place, so a buffer allocated for the
    largest grid of a run can serve the scorers of all its noise levels.
    The oracle and pred scores take an (R, n) batch of truths or
    observations and form the s-block once for the whole batch; a single
    truth or observation is a batch of one.  The ``batch_*_picks`` methods
    return only each row's grid index: one matrix-vector product per row
    gives approximate scores with a rigorous rounding margin, and only the
    grid rows that may hold the minimum are scored exactly, through the
    same code as ``batch_*_scores``, so the indices equal the first
    minimum of the exact scores for any BLAS summation order (see
    ``_picks``).  The Lepskii rule takes an (R, n) batch of observations
    and can return the squared errors of any grid estimates, read from its
    own estimate rows.  A buffer with more rows than the grid lends its
    spare rows, up to K of them, to each Lepskii call, which forms the
    first rows of the data-free sqrt(lambda) q there once per batch (see
    ``batch_lepskii_errors``).  No K x n block outlives a call: each call
    fills the rows it reads, so scorers of other noise levels may share
    the buffer, and the buffer makes a scorer unsafe to share between
    threads.
    """

    def __init__(
        self,
        eigenvalues: np.ndarray,
        sigma: float,
        spec: FilterSpec,
        grid: ParameterGrid,
        buffer: np.ndarray | None = None,
    ) -> None:
        eig = np.array(eigenvalues, dtype=float)
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        k, n = len(grid), eig.size
        if buffer is None:
            buffer = np.empty((k, n))
        if buffer.shape[0] < k or buffer.shape[1:] != (n,) or not buffer.flags.c_contiguous:
            raise ValueError(f"buffer must be C-contiguous with at least {k} rows of {n} modes")
        column = grid.values[:, None]
        _check_args(spec, column, eig)
        eig.setflags(write=False)
        self.eigenvalues, self.sigma, self.spec, self.grid = eig, sigma, spec, grid
        self._buf = buffer[:k]
        # a Lepskii call keeps its first rows of sqrt(lambda) q in the rows of
        # the buffer beyond this grid's, up to k of them
        self._cache = buffer[k : 2 * k]
        c = len(self._cache)
        self._blocks = _row_views(column, self._buf)
        self._cache_blocks = _row_views(column[:c], self._cache)
        self._rest_blocks = _row_views(column[c:], self._buf[c:])
        self._root = np.sqrt(eig)
        self._strictly_lower = np.tri(k, k, -1, dtype=bool)
        # sum lambda q^2 per alpha feeds both the oracle and the thresholds
        q2 = self._block(False)
        np.square(q2, out=q2)
        q2 *= eig
        lq2 = _accumulate_rows(q2)
        self._variance = sigma**2 * lq2
        self._thresholds_sq = np.array([(4.0 * sigma * math.sqrt(v)) ** 2 for v in lq2])
        self._pred_offset = None

    def _block(self, want_s: bool, blocks=None) -> np.ndarray:
        """Row i of the buffer := s_value or filter_value at grid.values[i],
        bit for bit, in row blocks; given ``blocks``, only their rows."""
        for alphas, out in self._blocks if blocks is None else blocks:
            _evaluate(self.spec, alphas, self.eigenvalues, want_s, out)
        return self._buf

    def _check(self, rows, ndim: int) -> np.ndarray:
        """``rows`` as a float array of ``ndim`` dimensions, the last one
        running over the modes."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != ndim or rows.shape[-1] != self.eigenvalues.size:
            raise ValueError(f"expected a {ndim}-d array of {self.eigenvalues.size} modes per row")
        return rows

    def _pick(self, scores: np.ndarray, rule: str) -> Selection:
        idx = int(np.argmin(scores))  # first minimum = smallest index
        return Selection(float(self.grid.values[idx]), idx, rule, float(scores[idx]))

    def _terms(self, pred: bool) -> tuple[np.ndarray, np.ndarray]:
        """The buffer rewritten to the mode weights of one rule's score, and
        that score's K-vector offset: (s^2 - 2s, 2 sigma^2 sum s) for pred,
        ((1 - s)^2, sigma^2 sum lambda q^2) for the oracle.

        The s-block is formed once and rewritten in place one row block at a
        time, with one row-block scratch array as the temporary of the terms;
        the scratch is freed before the block is weighted.
        """
        block = self._block(True)
        if self._pred_offset is None:
            self._pred_offset = 2.0 * self.sigma**2 * _accumulate_rows(block)
        blocks = _row_blocks(*block.shape)
        scratch = np.empty_like(block[blocks[0]])
        for b in blocks:
            (_pred_terms if pred else _bias_terms)(block[b], scratch[: len(block[b])])
        return block, (self._pred_offset if pred else self._variance)

    @staticmethod
    def _exact(block: np.ndarray, offset: np.ndarray, grid_rows, weights: np.ndarray, weight_rows) -> np.ndarray:
        """Entry j := the exact score of grid row grid_rows[j] under the mode
        weights weights[weight_rows[j]]: the sum of the weighted block row as
        risk._accumulate forms it, plus the row's offset.

        This is the one place where a score is formed; the batch scores and
        the picks both read it, so they agree bit for bit.
        """
        scores = np.empty(len(grid_rows))
        # the gathered block rows and their weights together fill one row block
        for b in _row_blocks(len(grid_rows), 2 * block.shape[1]):
            part = block[grid_rows[b]]
            part *= weights[weight_rows[b]]
            scores[b] = _accumulate_rows(part)
        scores += offset[grid_rows]
        return scores

    def _scores(self, pred: bool, rows: np.ndarray) -> np.ndarray:
        """Entry (r, i) := the exact score of grid row i for row r of an
        (R, n) batch of truths (oracle) or observations (pred)."""
        block, offset = self._terms(pred)
        k = len(block)
        grid_rows = np.tile(np.arange(k), len(rows))
        weight_rows = np.repeat(np.arange(len(rows)), k)
        return self._exact(block, offset, grid_rows, rows**2, weight_rows).reshape(len(rows), k)

    def _picks(self, pred: bool, rows: np.ndarray) -> np.ndarray:
        """np.argmin(self._scores(pred, rows), axis=1), scoring exactly only
        the grid rows that may hold each minimum.

        Per row r, one product block @ r^2 plus the offset gives approximate
        scores a_i.  All terms of a sum have one sign ((1 - s)^2 >= 0, and
        s^2 - 2s <= 0 on [0, 1]), so a_i and the exact score, each n rounded
        products summed in some order (pairwise, fsum, or a BLAS kernel with
        FMA and any thread split), are both within about n u |a_i| of the
        true sum, u = 2^-53, plus n 2^-1074 from underflow; adding the offset
        rounds each once more.  The margin 4 (n + 2) u (|a_i| + |offset_i|)
        + 4 n 2^-1074 is twice that, which also covers the rounding of the
        margin and of a_i +- margin.  A grid row whose lower end lies above
        the smallest upper end cannot hold the minimum; the others are
        scored exactly, and the first minimum among them is the first
        minimum of all grid rows.  If a lower end is not finite (a NaN or
        infinite row, or a sum that overflows), every grid row is scored
        exactly.
        """
        block, offset = self._terms(pred)
        n = block.shape[1]
        weights = rows**2
        approx = np.empty((len(rows), len(block)))
        for r, weight in enumerate(weights):
            # one matrix-vector product per row: a matrix product's pack
            # buffers would raise the peak memory of a run
            np.dot(block, weight, out=approx[r])
        approx += offset
        slack = 4.0 * (n + 2) * 2.0**-53
        margin = np.abs(approx)
        margin += np.abs(offset)
        margin *= slack
        margin += 4.0 * n * 2.0**-1074
        lower = approx - margin
        upper = np.add(approx, margin, out=margin)
        candidates = lower <= upper.min(axis=1, keepdims=True)
        # a NaN or infinite a_i makes its lower end NaN or infinite; an upper
        # end that alone overflows only widens the candidates
        candidates[~np.isfinite(lower).all(axis=1)] = True
        weight_rows, grid_rows = np.nonzero(candidates)
        # rows left unscored stay above every candidate's exact score
        scores = np.full(approx.shape, np.inf)
        scores[weight_rows, grid_rows] = self._exact(block, offset, grid_rows, weights, weight_rows)
        return np.argmin(scores, axis=1)

    def batch_oracle_scores(self, truths: np.ndarray) -> np.ndarray:
        """Exact direct risk sum (1 - s)^2 f^2 + sigma^2 sum lambda q^2 at
        every grid point (columns) for each truth f of an (R, n) batch (rows)."""
        return self._scores(False, self._check(truths, 2))

    def batch_oracle_picks(self, truths: np.ndarray) -> np.ndarray:
        """The oracle's grid index for each truth of an (R, n) batch: the
        first minimum of its row of :meth:`batch_oracle_scores`."""
        return self._picks(False, self._check(truths, 2))

    def oracle(self, truth_coeffs: np.ndarray) -> Selection:
        """Minimize the exact direct risk; a batch of one truth."""
        return self._pick(self.batch_oracle_scores(self._check(truth_coeffs, 1)[None])[0], "oracle")

    def batch_pred_scores(self, values: np.ndarray) -> np.ndarray:
        """Empirical score sum (s^2 - 2s) Y^2 + 2 sigma^2 sum s at every grid
        point (columns) for each observation Y of an (R, n) batch (rows)."""
        return self._scores(True, self._check(values, 2))

    def batch_pred_picks(self, values: np.ndarray) -> np.ndarray:
        """The pred rule's grid index for each observation of an (R, n)
        batch: the first minimum of its row of :meth:`batch_pred_scores`."""
        return self._picks(True, self._check(values, 2))

    def pred_scores(self, obs: Observations) -> np.ndarray:
        """The empirical score of one observation at every grid point."""
        return self.batch_pred_scores(obs.values[None])[0]

    def pred(self, obs: Observations) -> Selection:
        """Minimize the empirical prediction-risk score."""
        return self._pick(self.pred_scores(obs), "pred")

    def lepskii(self, obs: Observations) -> Selection:
        """Balancing rule: largest grid alpha whose estimate stays within the
        noise threshold of every less-regularized estimate.

        The smallest grid value is admissible vacuously, so the rule always
        returns an index; the deciding score is the selected alpha itself.
        """
        best = self.lepskii_errors(obs.values)[0]
        return Selection(float(self.grid.values[best]), best, "lepskii", float(self.grid.values[best]))

    def lepskii_errors(
        self, values: np.ndarray, truth: np.ndarray | None = None, picks: tuple[int, ...] = ()
    ) -> tuple[int, list[float]]:
        """Lepskii's grid index for the observation ``values`` and, given the
        ``truth``, the squared errors of the estimates at the grid indices
        ``picks`` and at Lepskii's index, in that order; a batch of one."""
        truths = None if truth is None else self._check(truth, 1)[None]
        best, errors = self.batch_lepskii_errors(self._check(values, 1)[None], truths, [picks])
        return int(best[0]), errors[0].tolist()

    def batch_lepskii_errors(
        self, values: np.ndarray, truths: np.ndarray | None = None, picks=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lepskii's grid index for each observation of an (R, n) batch and,
        given the (R, n) ``truths``, an (R, P + 1) array of squared errors
        ||f_hat - f||^2: row r holds those of the estimates at the P grid
        indices ``picks[r]`` and then at Lepskii's index.

        Row i of the block that Lepskii compares is sqrt(lambda) q Y at
        grid.values[i], the same product as ``model.estimate_coefficients``
        bit for bit, so the errors are read from it before the buffer is
        reused and no estimate is evaluated twice.  The rows
        sqrt(lambda) q do not depend on the data: the first c of them,
        c = min(K, rows of the buffer beyond this grid's), are formed once
        per call in those spare rows, and each replication multiplies them
        by Y; only the other K - c rows are evaluated per replication.
        """
        values = self._check(values, 2)
        if truths is not None:
            truths = self._check(truths, 2)
            if len(truths) != len(values):
                raise ValueError("expected one truth per observation")
        picks = [()] * len(values) if picks is None else picks
        cache, k = self._cache, len(self._buf)
        self._block(False, self._cache_blocks)
        cache *= self._root
        # row i of coeff holds f_hat at grid.values[i]
        coeff = self._buf
        head, rest = coeff[: len(cache)], coeff[len(cache) :]
        # the K x K arrays are allocated once per call, not per replication
        gram, dist_sq, beyond = np.empty((k, k)), np.empty((k, k)), np.empty((k, k), dtype=bool)
        best = np.empty(len(values), dtype=int)
        errors = np.empty((len(values), 0 if truths is None else np.shape(picks)[-1] + 1))
        for r, y in enumerate(values):
            np.multiply(cache, y, out=head)
            self._block(False, self._rest_blocks)
            rest *= self._root
            rest *= y
            np.matmul(coeff, coeff.T, out=gram)
            sq_norm = gram.diagonal().copy()
            # sq_norm[i] + sq_norm[j] in two passes: one broadcast add into
            # dist_sq would buffer both of its operands
            np.copyto(dist_sq, sq_norm[:, None])
            dist_sq += sq_norm
            gram *= 2.0
            dist_sq -= gram
            # i is admissible unless some j < i lies beyond threshold j
            np.greater(dist_sq, self._thresholds_sq, out=beyond)
            beyond &= self._strictly_lower
            best[r] = np.flatnonzero(~beyond.any(axis=1))[-1]
            if truths is None:
                continue
            truth = truths[r]
            for e, i in enumerate((*picks[r], best[r])):
                diff = coeff[i] - truth
                # BLAS threads a dot product this wide, so its bits would follow the thread count
                wide = diff.size >= _COMPENSATED_FROM
                errors[r, e] = _accumulate(diff * diff) if wide else diff @ diff
        return best, errors


def _row_views(column: np.ndarray, rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(alphas, rows) per row block of ``rows``, whose row i belongs to the
    alpha in row i of ``column``."""
    return [(column[b], rows[b]) for b in _row_blocks(*rows.shape)]


def _bias_terms(s: np.ndarray, scratch: np.ndarray) -> None:
    """(1 - s)^2 in place."""
    np.subtract(1.0, s, out=s)
    np.square(s, out=s)


def _pred_terms(s: np.ndarray, scratch: np.ndarray) -> None:
    """s^2 - 2s in place, with 2s taken in ``scratch``."""
    np.multiply(s, 2.0, out=scratch)
    np.square(s, out=s)
    s -= scratch


def choose_oracle(problem: SpectralProblem, spec: FilterSpec, grid: ParameterGrid) -> Selection:
    """Minimize the exact direct risk over the grid (needs the truth)."""
    return GridScorer(problem.eigenvalues, problem.sigma, spec, grid).oracle(problem.truth_coeffs)


def choose_pred(
    eigenvalues: np.ndarray,
    sigma: float,
    spec: FilterSpec,
    grid: ParameterGrid,
    obs: Observations,
) -> Selection:
    """Minimize the empirical prediction-risk score over the grid."""
    return GridScorer(eigenvalues, sigma, spec, grid).pred(obs)


def choose_lepskii(
    eigenvalues: np.ndarray,
    sigma: float,
    spec: FilterSpec,
    grid: ParameterGrid,
    obs: Observations,
) -> Selection:
    """Lepskii balancing rule over the grid; see :meth:`GridScorer.lepskii`."""
    return GridScorer(eigenvalues, sigma, spec, grid).lepskii(obs)


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
