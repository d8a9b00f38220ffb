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

from .filters import _BLOCK, FilterSpec, _check_args, _evaluate, _row_blocks
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
    and can return the squared errors of any grid estimates.  It forms the
    data-free rows sqrt(lambda) q once per batch, as float32 rows in the
    first half of the buffer's bytes, and decides each replication from a
    float32 gram with a rigorous rounding margin, so the indices equal
    those of the float64 test for any BLAS summation order; a replication
    it cannot certify takes the float64 test (see
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
        self._blocks = [(column[b], self._buf[b]) for b in _row_blocks(k, n)]
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

    def _block(self, want_s: bool) -> np.ndarray:
        """Row i of the buffer := s_value or filter_value at grid.values[i],
        bit for bit, in row blocks."""
        for alphas, out in self._blocks:
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

        Each index is that of the float64 test of ``_exact_pick``:
        ``_certified_pick`` decides it from float32 rows formed once per
        call, whatever order that test's syrk sums in, and a replication it
        cannot certify (or any replication, if the rows do not fit float32)
        takes the float64 test, after which the float32 rows are formed
        again.  The estimate rows at the picked and chosen grid points are
        then evaluated for the whole batch, as
        ``model.estimate_coefficients`` forms them bit for bit, and the
        errors are read from them (``_errors``).
        """
        values = self._check(values, 2)
        if truths is not None:
            truths = self._check(truths, 2)
            if len(truths) != len(values):
                raise ValueError("expected one truth per observation")
        k = len(self._buf)
        # the K x K arrays of a call: a float64 square, the float32 gram,
        # whose bytes the float64 test borrows as rows of distances, and a mask
        square, beyond = np.empty((k, k)), np.empty((k, k), dtype=bool)
        scratch = np.empty(-(-k * k // 2))
        gram = scratch.view(np.float32)[: k * k].reshape(k, k)
        # a NaN propagates through max and min and fails every range test
        y_max = np.maximum(values.max(axis=1), -values.min(axis=1))
        best = np.empty(len(values), dtype=int)
        rows = None
        for r, y in enumerate(values):
            if rows is None:
                rows = self._float32_rows()
            best[r] = self._certified_pick(rows, y, y_max[r], square, gram, beyond) if rows else -1
            if best[r] < 0:
                best[r] = self._exact_pick(y, square, scratch, beyond)
                if rows:  # the float64 rows overwrote them
                    rows = None
        if truths is None:
            return best, np.empty((len(values), 0))
        picks = [()] * len(values) if picks is None else picks
        index = np.empty((len(values), np.shape(picks)[-1] + 1), dtype=int)
        index[:, :-1] = picks
        index[:, -1] = best
        return best, self._errors(values, truths, index)

    def _exact_pick(self, y: np.ndarray, square: np.ndarray, scratch: np.ndarray, beyond: np.ndarray) -> int:
        """Lepskii's index for the observation y by the float64 test: the
        last grid row i whose squared distance fl(fl(G_ii + G_jj) - 2 G_ij)
        to every row j < i is at most threshold j, G the gram (one syrk) of
        the estimate rows sqrt(lambda) q y.  The distances are formed a few
        rows at a time in ``scratch``."""
        coeff = self._block(False)
        coeff *= self._root
        coeff *= y
        np.matmul(coeff, coeff.T, out=square)
        sq_norm = square.diagonal().copy()
        square *= 2.0
        k = len(coeff)
        step = max(1, len(scratch) // k)
        for lo in range(0, k, step):
            dist_sq = scratch[: min(step, k - lo) * k].reshape(-1, k)
            np.copyto(dist_sq, sq_norm[lo : lo + len(dist_sq), None])
            dist_sq += sq_norm
            dist_sq -= square[lo : lo + len(dist_sq)]
            np.greater(dist_sq, self._thresholds_sq, out=beyond[lo : lo + len(dist_sq)])
        # i is admissible unless some j < i lies beyond threshold j
        beyond &= self._strictly_lower
        return int(np.flatnonzero(~beyond.any(axis=1))[-1])

    def _float32_rows(self):
        """(E, work, e_max, p_m, thresholds) for ``_certified_pick``, or
        False if the grid has one point or a row of sqrt(lambda) q is not
        finite or not well inside float32 range.

        E holds the float32 rows fl32(p_i - p_m), p_i = fl(sqrt(lambda) q_i)
        at grid.values[i] and m = K // 2, in the first half of the buffer's
        bytes; ``work`` is the second half, as float32 rows; e_max bounds |E|.
        The p_i are evaluated a row block at a time in the last rows of the
        buffer, beyond the bytes of E.  ``thresholds`` are the squared
        thresholds as the lower and the upper test compare them.
        """
        k, n = self._buf.shape
        step = min(k // 2, max(1, _BLOCK // n))
        # B's constant assumes A < 1/4, which holds below 2^20 modes
        if step == 0 or n >= 2**20:
            return False
        flat = self._buf.reshape(-1).view(np.float32)
        rows, work = flat[: k * n].reshape(k, n), flat[k * n :].reshape(k, n)
        centre = _evaluate(self.spec, self.grid.values[k // 2], self.eigenvalues, False, np.empty(n))
        centre *= self._root
        top = 0.0
        for lo in range(0, k, step):
            part = self._buf[k - step :][: k - lo]
            _evaluate(self.spec, self.grid.values[lo : lo + len(part), None], self.eigenvalues, False, part)
            part *= self._root
            high, low = part.max(), part.min()
            if not (high < _ROW_LIMIT and low > -_ROW_LIMIT):
                return False
            top = max(top, high, -low)
            part -= centre
            rows[lo : lo + len(part)] = part
        t = self._thresholds_sq
        thresholds = t * ((1.0 + 2.0**-48) / (2.0 - 2.0 * _KAPPA)), t * ((1.0 - 2.0**-48) / (2.0 + 2.0 * _KAPPA))
        return rows, work, 2.0 * top, centre, thresholds

    def _certified_pick(self, rows, y: np.ndarray, y_max: float, square, gram, beyond) -> int:
        """Lepskii's index for the observation y, |y| <= y_max, equal to that
        of ``_exact_pick``, from the float32 rows of ``_float32_rows``; -1
        if it cannot be certified.

        Notation: u = 2^-53, v = 2^-24, t32 = 2^-126; c_i = fl(p_i y) is row
        i of the float64 test and a_i = fl32(E_i fl32(y)); g is the float32
        gram of the a_i, S_i = g_ii, and N = ||a_i||^2 + ||a_j||^2.  The
        float64 test compares its distance Dh_ij with t_j; let
        D_ij = ||c_i - c_j||^2 and D32_ij = ||a_i - a_j||^2, exactly.

        1. Rows.  c_i - c_m = a_i - e_i with ||e_i|| <= 4v ||a_i|| + rho:
           an entry of a_i is (p_i - p_m) y rounded three times in float32
           and once in float64, c_i and c_m are rounded once each (the
           2u ||p_m y|| in rho), and an underflowing cast or product, flushed
           to zero or not, is off by less than t32, which rho collects with
           sqrt(n) e_max and sqrt(n) y_max.  So |sqrt(D) - sqrt(D32)| <= sig
           = 4v (||a_i|| + ||a_j||) + 2 rho, and 2 sig sqrt(D32) <= kappa D32
           + sig^2 / kappa gives (1 - kappa) D32 - sig^2 / kappa <= D
           <= (1 + kappa) D32 + (1 + 1/kappa) sig^2, sig^2 <= 2^-42 N + 8 rho^2.
        2. Gram.  In any summation order, with FMA or not, g_ij is within
           g32 (||a_i||^2 + ||a_j||^2) / 2 + 2 n t32 of a_i . a_j, g32 =
           n v / (1 - n v); so D32 is within 2 g32 N + 8 n t32 of
           S_i + S_j - 2 g_ij, and N <= (S_i + S_j + 4 n t32) / (1 - g32).
        3. The float64 test.  Likewise Dh is within g64 C + 5 n 2^-1022 of
           D, g64 = 2 n u / (1 - n u) + 3.01 u (the syrk, then the sum and
           the difference), with C = ||c_i||^2 + ||c_j||^2 <= 4.01 N
           + 8 rho^2 + 4 ||c_m||^2.

        So Dh_ij lies within (1 -+ kappa -+ A)(S_i + S_j) - 2 (1 -+ kappa)
        g_ij -+ B, A and B from ``_rounding``.  Row i
        is certainly beyond threshold j where the lower end exceeds t_j, so
        every row above the last row that is certainly beyond no threshold
        of a lower row (the candidate) is inadmissible in the float64 test
        too; the candidate is its index if every upper end of the
        candidate's row stays at most t_j.  The tests are divided by
        2 (1 -+ kappa) and compare g_ij with float64 sums, whose rounding
        the 2^-48 in A and in the thresholds covers.
        """
        e32, work, e_max, centre, (beyond_sq, within_sq) = rows
        k, n = work.shape
        if not y_max < min(_ROW_LIMIT, _GRAM_LIMIT / max(e_max * math.sqrt(n), 1.0)):
            return -1
        np.multiply(e32, y.astype(np.float32), out=work)
        np.matmul(work, work.T, out=gram)
        s = gram.diagonal().astype(float)
        centre_y = centre * y
        a, b = _rounding(n, e_max, float(centre_y @ centre_y), y_max)
        # row i is certainly beyond threshold j where g_ij - high_j < low_i
        low = s * ((1.0 - _KAPPA - a) / (2.0 - 2.0 * _KAPPA))
        high = low - beyond_sq
        high -= b / (2.0 - 2.0 * _KAPPA)
        np.copyto(square, gram)
        square -= high
        np.less(square, low[:, None], out=beyond)
        beyond &= self._strictly_lower
        cand = k - 1 - int(np.argmin(beyond.any(axis=1)[::-1]))
        # the candidate is certified where g_cj >= up_j for every j < cand
        up = s[:cand] * ((1.0 + _KAPPA + a) / (2.0 + 2.0 * _KAPPA))
        up += (s[cand] * (1.0 + _KAPPA + a) + b) / (2.0 + 2.0 * _KAPPA)
        up -= within_sq[:cand]
        return cand if np.greater_equal(gram[cand, :cand], up).all() else -1

    def _errors(self, values: np.ndarray, truths: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Entry (r, e) := ||f_hat - truths[r]||^2 for the estimate
        sqrt(lambda) q Y at grid.values[index[r, e]], Y = values[r].

        The estimate rows of as many replications as fit are evaluated in
        the buffer at a time (in a small array if one replication's rows do
        not fit).
        """
        width, n = index.shape[1], self.eigenvalues.size
        rows = self._buf if len(self._buf) >= width else np.empty((width, n))
        step = len(rows) // width
        # BLAS threads a dot product this wide, so its bits would follow the thread count
        wide = n >= _COMPENSATED_FROM
        errors = np.empty(index.shape)
        for lo in range(0, len(values), step):
            reps = slice(lo, lo + step)
            alphas = self.grid.values[index[reps].reshape(-1), None]
            est = rows[: len(alphas)]
            _evaluate(self.spec, alphas, self.eigenvalues, False, est)
            est *= self._root
            per_rep = est.reshape(-1, width, n)
            per_rep *= values[reps, None]
            per_rep -= truths[reps, None]
            errors[reps] = np.reshape([_accumulate(d * d) if wide else d @ d for d in est], (-1, width))
        return errors


# Lepskii's certified float32 test (GridScorer._certified_pick): the split
# constant, and the bounds that keep every float32 product and gram entry
# finite: |p_i|, |y| < 2^63 and |E| |y| sqrt(n) < 2^60, so ||a_i||^2 <= 2^120
_KAPPA = 2.0**-20
_ROW_LIMIT, _GRAM_LIMIT = 2.0**63, 2.0**60


def _rounding(n: int, e_max: float, centre_y_sq: float, y_max: float) -> tuple[float, float]:
    """The relative and absolute terms A and B of the certified Lepskii test
    at n modes, for |E| <= e_max and |y| <= y_max, with ||p_m y||^2 summed
    in float64 to ``centre_y_sq``: from steps 1 to 3 of
    ``GridScorer._certified_pick``, A is the factor of N over 1 - g32, plus
    2^-48, and B the rest, with 1 % to spare."""
    g32 = n * 2.0**-24 / (1.0 - n * 2.0**-24)
    g64 = 2.0 * n * 2.0**-53 / (1.0 - n * 2.0**-53) + 3.01 * 2.0**-53
    a = (2.0 * (1.0 + _KAPPA) * g32 + (1.0 + 1.0 / _KAPPA) * 2.0**-42 + 4.01 * g64) / (1.0 - g32) + 2.0**-48
    cm_sq = 1.01 * centre_y_sq + 2.0 * n * 2.0**-1022
    rho = 2.02 * 2.0**-53 * math.sqrt(cm_sq) + 2.1 * 2.0**-126 * math.sqrt(n) * (e_max + y_max + 1.0)
    underflow = 9.1 * n * 2.0**-126 + 5.0 * n * 2.0**-1022
    b = 1.01 * (underflow + 8.0 * (2.0 + 1.0 / _KAPPA) * rho * rho + 4.01 * g64 * cm_sq)
    return a, b


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
