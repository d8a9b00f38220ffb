"""Candidate grids and the three regularization-parameter choice rules.

The grid discretizes [sigma^2, lambda_1] geometrically with a ratio r > 1.
All rules are deterministic: score ties on the grid are resolved toward the
smallest index.  The oracle, pred and Lepskii rules score the whole grid
for a batch of replications at once through the batch methods of a
:class:`GridScorer`, whose scores equal the per-alpha functions of
:mod:`invreg.risk` bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import lepskii
from .filters import _BLOCK, _MONOTONE_SLACK, FilterSpec, _check_args, _evaluate, _row_blocks
from .risk import _COMPENSATED_FROM, _accumulate, _accumulate_rows

__all__ = [
    "GridScorer",
    "build_grid",
    "grid_size",
]


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


def build_grid(sigma: float, lambda_max: float, ratio: float) -> np.ndarray:
    """Grid {sigma^2 r^j : j = 0..K} with K = floor(log(lambda_max/sigma^2)/log r),
    as a read-only (K + 1,) array."""
    grid = sigma**2 * ratio ** np.arange(grid_size(sigma, lambda_max, ratio), dtype=float)
    grid.setflags(write=False)
    return grid


# the fewest rows GridScorer.batch_picks picks at a time: at a few modes,
# n rows a time would pay a call's fixed cost for every row or two
_PICK_ROWS = 32


class GridScorer:
    """Scores every grid point of one noise level under the oracle, pred and
    Lepskii rules.

    The grid is any nonempty, non-decreasing 1-d array of alphas: the cut
    and Lepskii's less-regularized rows read it in ascending alpha, so any
    other order is refused at construction.  The scorer keeps
    read-only copies of it and of the eigenvalues and checks its inputs
    once, at construction; later blocks are evaluated unchecked.
    What does not depend on the data is computed once, as K-vectors: the
    oracle's variance term sigma^2 sum lambda q^2 and the squared Lepskii
    thresholds.  Pred's offsets 2 sigma^2 sum s are formed with each
    (1 - s)^2 block, from its s rows, and pred's exact scores take theirs
    from the s they evaluate.  Each call fills one K x n scratch buffer
    in place, so a buffer allocated for the largest grid of a run can
    serve the scorers of all its noise levels.  The oracle and pred scores take
    an (R, n) batch of truths or observations and form their block once
    for the whole batch.  Each of the three rules gives each row a grid
    index, and a study makes one call per phase of a batch:
    ``batch_picks`` forms one (1 - s)^2 block for the oracle's truths and
    pred's observations alike and scores exactly only the grid rows that
    may hold each minimum, so the indices equal the first minimum of the
    exact scores for any BLAS summation order; ``batch_lepskii_picks``
    picks Lepskii's indices through ``lepskii.picks``, which holds the
    whole test; and ``batch_errors`` returns the squared errors at any
    grid indices, such as the three picks stacked.  Lepskii's last
    certified index, the guess of the next call, and the rows the last
    calls needed are the only state a call leaves behind, and they change
    no output.  No K x n block outlives a call: each call fills the rows
    it reads, so scorers of other noise levels may share the buffer, and
    the buffer makes a scorer unsafe to share between threads.

    The cut.  The filters are ordered: s and q, and so p = sqrt(lambda) q,
    never grow with alpha, and as computed they rise by at most the share
    ``filters._MONOTONE_SLACK`` (tests/test_monotone.py).  So the bias
    sum (1 - s)^2 r^2 of the picks only grows along the grid, up to that
    slack, and the variance, the pred offset and their rounding are >= 0;
    and Lepskii's distances to a centre row only grow above it.  A call
    forms q, s and Lepskii's float32 rows only for the first h + 1 grid
    rows: as many as the last calls needed (``cut`` of the grid at
    construction), or the whole grid where its K x n block fits one row
    block.  It then proves, for every replication, that no row above h
    matters: the picks, that the lower end a_h - margin_h of row h, less
    its offset and the slack (8 slack + 4 (n + 3) u)(|a_h| + sum r^2),
    lies above the smallest upper end, so every row above h scores above
    the minimum; Lepskii's test, that row h lies certainly beyond the
    centre's threshold (``lepskii._certify``).  Where a replication fails
    that, h + 1 grows by 2, 4, 8, ... rows, up to the whole grid.  The
    variance and thresholds are formed for the rows as they are formed;
    ``batch_oracle_scores``, ``batch_pred_scores`` and Lepskii's float64
    fallback form the whole grid, so every index is that of the whole
    grid.
    """

    def __init__(
        self,
        eigenvalues: np.ndarray,
        sigma: float,
        spec: FilterSpec,
        grid: np.ndarray,
        buffer: np.ndarray | None = None,
        cut: float = 1.0,
    ) -> None:
        eig, grid = np.asarray(eigenvalues, dtype=float), np.array(grid, dtype=float)
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        if grid.ndim != 1 or not grid.size:
            raise ValueError(f"grid must be a nonempty 1-d array of alphas, got shape {grid.shape}")
        if (grid[1:] < grid[:-1]).any():
            raise ValueError("grid must be non-decreasing: the cut and Lepskii's rule read its rows in ascending alpha")
        if not 0 < cut <= 1:
            raise ValueError(f"cut must lie in (0, 1], got {cut!r}")
        k, n = grid.size, eig.size
        if buffer is None:
            buffer = np.empty((k, n))
        if buffer.shape[0] < k or buffer.shape[1:] != (n,) or not buffer.flags.c_contiguous:
            raise ValueError(f"buffer must be C-contiguous with at least {k} rows of {n} modes")
        eig = _check_args(spec, grid[:, None], eig)
        eig.setflags(write=False)
        grid.setflags(write=False)
        self.eigenvalues, self.sigma, self.spec, self.grid = eig, sigma, spec, grid
        self._buf = buffer[:k]
        self._root = np.sqrt(eig)
        self._guess = k // 2
        self._variance, self._thresholds_sq, self._pred_offset = np.empty(k), np.empty(k), np.empty(k)
        # rows [0, formed) have their variance and thresholds
        self._formed = 0
        # the rows the picks and Lepskii's rule needed in their last calls
        self._needs = [min(k, math.ceil(cut * k))] * 2
        self._form(self._needs[0], self._buf)

    @property
    def cut(self) -> float:
        """The share of the grid rows that the last picks and Lepskii calls
        needed, which the next call forms first."""
        return max(self._needs) / len(self.grid)

    def _first_rows(self) -> int:
        """The grid rows a call forms first: all of a grid whose K x n block
        fits one row block of ``filters._BLOCK`` entries, where a cut would
        save less than its checks cost, else as many as the last calls
        needed."""
        return len(self.grid) if self._buf.size <= _BLOCK else max(self._needs)

    def _vectors(self, lo: int, hi: int, scratch: np.ndarray) -> None:
        """The oracle's variance sigma^2 sum lambda q^2 and the squared
        Lepskii thresholds of grid rows [lo, hi), from q formed in
        ``scratch``."""
        q2 = self._fill(slice(lo, hi), scratch[: hi - lo], False)
        np.square(q2, out=q2)
        q2 *= self.eigenvalues
        lq2 = _accumulate_rows(q2)
        self._variance[lo:hi] = self.sigma**2 * lq2
        # float_power calls libm's pow per element, as Python's ** 2 does
        self._thresholds_sq[lo:hi] = np.float_power(4.0 * self.sigma * np.sqrt(lq2), 2.0)

    def _form(self, stop: int, scratch: np.ndarray) -> None:
        """Extend the rows with a variance and threshold to [0, stop),
        through ``scratch`` rows at a time."""
        for lo in range(self._formed, stop, max(1, len(scratch))):
            self._vectors(lo, min(stop, lo + len(scratch)), scratch)
        self._formed = max(self._formed, stop)

    def _fill(self, at, out: np.ndarray, want_s: bool) -> np.ndarray:
        """Row j of ``out`` := s_value (``want_s``) or filter_value at
        grid[at][j], bit for bit, a row block at a time."""
        alphas = self.grid[at, None]
        for b in _row_blocks(*out.shape):
            _evaluate(self.spec, alphas[b], self.eigenvalues, want_s, out[b])
        return out

    def _rows(self, at, out: np.ndarray) -> np.ndarray:
        """``out`` := the rows p = fl(sqrt(lambda) q) at grid[at]; for a
        slice, the thresholds of its rows are formed first, in ``out``."""
        if isinstance(at, slice):
            self._form(at.indices(len(self.grid))[1], out)
        out = self._fill(at, out, False)
        out *= self._root
        return out

    def _check(self, rows) -> np.ndarray:
        """``rows`` as a float (R, n) array, one row per replication."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.eigenvalues.size:
            raise ValueError(f"expected a 2-d array of {self.eigenvalues.size} modes per row")
        return rows

    def _terms(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Buffer rows [lo, hi) (hi = K by default) filled with s at
        grid[lo:hi], which give those rows their pred offsets 2 sigma^2
        sum s, and then rewritten to the oracle's mode weights (1 - s)^2,
        from which the picks also take pred's approximate scores."""
        hi = len(self.grid) if hi is None else hi
        self._form(hi, self._buf[self._formed : hi])
        block = self._fill(slice(lo, hi), self._buf[lo:hi], True)
        self._pred_offset[lo:hi] = 2.0 * self.sigma**2 * _accumulate_rows(block)
        np.subtract(1.0, block, out=block)
        return np.square(block, out=block)

    @staticmethod
    def _exact(block: np.ndarray, offset: np.ndarray, grid_rows, weights: np.ndarray, weight_rows) -> np.ndarray:
        """Entry j := the exact score of grid row grid_rows[j] under the mode
        weights weights[weight_rows[j]]: the sum of the weighted block row as
        risk._accumulate forms it, plus the row's offset.

        This is the one place where a score is formed; ``_scores`` reads it
        for the batch scores and the picks alike, so they agree bit for bit.
        """
        scores = np.empty(len(grid_rows))
        # the gathered block rows and their weights together fill one row block
        for b in _row_blocks(len(grid_rows), 2 * block.shape[1]):
            part = block[grid_rows[b]]
            part *= weights[weight_rows[b]]
            scores[b] = _accumulate_rows(part)
        scores += offset[grid_rows]
        return scores

    def _pred_exact(self, grid_rows, weights: np.ndarray, weight_rows) -> np.ndarray:
        """``_exact`` of the pred terms s^2 - 2s and offsets 2 sigma^2 sum s,
        with s evaluated again at the alphas of the distinct ``grid_rows`` in
        the first buffer rows."""
        present = np.zeros(len(self._buf), dtype=bool)
        present[grid_rows] = True
        rows, index = np.flatnonzero(present), np.cumsum(present)[grid_rows] - 1
        block = self._fill(rows, self._buf[: len(rows)], True)
        offset = 2.0 * self.sigma**2 * _accumulate_rows(block)
        return self._exact(_pred_terms(block), offset, index, weights, weight_rows)

    def _scores(self, block: np.ndarray | None, weights: np.ndarray, m: int, candidates: np.ndarray) -> np.ndarray:
        """Entry (r, i) := the exact score of grid row i for the squared truth
        (r < m) or observation ``weights[r]`` where ``candidates[r, i]``, and
        +inf elsewhere: the oracle's from the (1 - s)^2 ``block``, pred's
        from s evaluated again (``_pred_exact``)."""
        weight_rows, grid_rows = np.nonzero(candidates)
        scores = np.full(candidates.shape, np.inf)
        split = np.searchsorted(weight_rows, m)
        oracle, pred = slice(0, split), slice(split, None)
        # the oracle rows read the block before pred's rows overwrite it
        if m:
            scores[weight_rows[oracle], grid_rows[oracle]] = self._exact(
                block, self._variance, grid_rows[oracle], weights, weight_rows[oracle]
            )
        if len(weights) > m:
            scores[weight_rows[pred], grid_rows[pred]] = self._pred_exact(grid_rows[pred], weights, weight_rows[pred])
        return scores

    def batch_picks(self, truths: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The oracle's grid index for each truth of an (R, n) batch and the
        pred rule's for each observation of an (R', n) batch: the first
        minimum of each row of :meth:`batch_oracle_scores` and
        :meth:`batch_pred_scores`, from one (1 - s)^2 block for both.

        Per row r (a truth f or an observation y), one product of the block
        with r^2 gives t_i = sum (1 - s)^2 r^2.  The oracle's approximate
        score a_i is t_i plus its offset; pred's is t_i - ||y||^2 plus its
        offset, since s^2 - 2s = (1 - s)^2 - 1.  Let u = 2^-53, g = (n + 2)
        u / (1 - (n + 2) u), and Y = ||y||^2 as summed (Y = 0 for a truth).
        A sum of n products of terms rounded twice (1 - s and its square,
        or s^2 - 2s), in any order, with FMA or not, is within g times the
        sum of the terms' magnitudes of the exact sum over the float s and
        r^2, plus n 2^-1074 from underflow.  The oracle's exact score sums
        the same terms as t_i, all >= 0, and the offset is >= 0, so t_i and
        it lie within g t_i <= g a_i of that sum.  For pred, t_i is within
        g T of T = sum (1 - s)^2 y^2, Y within g Y of its sum, and the exact
        score within g (Y - T) of sum (s^2 - 2s) y^2, since |s^2 - 2s| = 1 -
        (1 - s)^2 on [0, 1]; so a_i lies within 2 g Y of it.  Subtracting Y
        from t_i <= (1 + g) Y rounds by u (1 + g) Y at most, and adding an
        offset rounds by u times the sum, in a_i and in the exact score
        alike, which the |a_i| and Y terms cover: the offset needs no term
        of its own.  So the margin 5 (n + 3) u (|a_i| + Y) + 8 n 2^-1074 is
        at least twice the distance of a_i from the exact score, which also
        covers the rounding of the margin and of a_i +- margin.  A grid row
        whose lower end lies above the smallest upper end cannot hold the
        minimum; the others are scored exactly (pred's from s evaluated
        again at their alphas, in the operation order of
        ``batch_pred_scores``), and the first minimum among them is the
        first minimum of all grid rows.  If a lower end is not finite (a NaN
        or infinite row, or a sum that overflows), every grid row is scored
        exactly.  The rows are picked
        for at most max(n, ``_PICK_ROWS``) at a time, so that the (rows, K)
        arrays of the picks hold no more entries than the K x n buffer or
        ``_PICK_ROWS`` grid-sized rows.  One block serves the chunks of
        truths until a chunk holds observations, whose exact scores
        overwrite the block; the next chunk forms it again.
        """
        truths, values = self._check(truths), self._check(values)
        m, step = len(truths), max(self.eigenvalues.size, _PICK_ROWS)
        picks = np.empty(m + len(values), dtype=int)
        rows, self._needs[0] = 0, 1
        for lo in range(0, len(picks), step):
            hi = lo + step
            picks[lo:hi], rows = self._picks(rows, truths[lo:hi], values[max(lo - m, 0) : max(hi - m, 0)])
            if hi > m:  # pred's exact scores overwrite the block
                rows = 0
        return picks[:m], picks[m:]

    def _picks(self, rows: int, truths: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, int]:
        """The grid indices of ``batch_picks`` for the truths and then the
        observations, and the rows of the (1 - s)^2 block in the buffer,
        which holds ``rows`` rows on entry (0: none) and as many as the
        picks needed on return."""
        m, (k, n) = len(truths), self._buf.shape
        weights = np.empty((m + len(values), n))
        np.square(truths, out=weights[:m])
        np.square(values, out=weights[m:])
        # the slack of the lower end of the scores above a row, per unit of |a_i| + sum r^2
        slack = 8.0 * _MONOTONE_SLACK + 4.0 * (n + 3) * 2.0**-53
        cut = start = max(rows, self._first_rows())
        step = 2
        while True:
            if rows < cut:
                self._terms(rows, cut)
                rows = cut
            block = self._buf[:rows]
            approx, margin = _bounds(block, weights, m, self._variance[:rows], self._pred_offset[:rows])
            lower = approx - margin
            upper = np.add(approx, margin, out=margin)
            least = upper.min(axis=1, keepdims=True)
            if rows == k:
                break
            # every row above the last has a score above its lower end, less
            # its offset and the slack of the rows' monotonicity
            above = np.abs(approx[:, -1:])
            above += weights.sum(axis=1, keepdims=True)
            above *= -slack
            above += lower[:, -1:]
            above[:m] -= self._variance[rows - 1]
            above[m:] -= self._pred_offset[rows - 1]
            if (above > least).all():
                break
            cut, step = min(k, rows + step), 2 * step
        if rows > start:
            self._needs[0] = max(self._needs[0], rows)
        candidates = lower <= least
        # a NaN or infinite a_i makes its lower end NaN or infinite; an upper
        # end that alone overflows only widens the candidates
        candidates[~np.isfinite(lower).all(axis=1)] = True
        # rows left unscored stay above every candidate's exact score
        return np.argmin(self._scores(block, weights, m, candidates), axis=1), rows

    def batch_oracle_scores(self, truths: np.ndarray) -> np.ndarray:
        """Exact direct risk sum (1 - s)^2 f^2 + sigma^2 sum lambda q^2 at
        every grid point (columns) for each truth f of an (R, n) batch (rows)."""
        truths = self._check(truths)
        return self._scores(self._terms(), truths**2, len(truths), np.ones((len(truths), len(self._buf)), bool))

    def batch_pred_scores(self, values: np.ndarray) -> np.ndarray:
        """Empirical score sum (s^2 - 2s) Y^2 + 2 sigma^2 sum s at every grid
        point (columns) for each observation Y of an (R, n) batch (rows)."""
        values = self._check(values)
        return self._scores(None, values**2, 0, np.ones((len(values), len(self._buf)), bool))

    def batch_lepskii_picks(self, values: np.ndarray) -> np.ndarray:
        """Lepskii's grid index for each observation of an (R, n) batch,
        from one call of ``lepskii.picks``."""
        best, self._guess, self._needs[1] = lepskii.picks(
            self._buf, self._thresholds_sq, self._check(values), self._guess, self._rows, self._first_rows()
        )
        return best

    def batch_errors(self, values: np.ndarray, truths: np.ndarray, index) -> np.ndarray:
        """Entry (r, e) := the squared error ||f_hat - truths[r]||^2 of the
        estimate sqrt(lambda) q Y at grid[index[r, e]], Y = values[r], for
        (R, n) ``values`` and ``truths`` and an (R, P) ``index`` of integer
        grid indices, P >= 1.

        The estimate rows are formed as ``model.estimate_coefficients``
        forms them, bit for bit, for as many replications as fit the buffer
        at a time (in a small array if one replication's rows do not fit).
        """
        values, truths, index, k = self._check(values), self._check(truths), np.asarray(index), len(self._buf)
        if len(truths) != len(values):
            raise ValueError("expected one truth per observation")
        if index.ndim != 2 or len(index) != len(values) or not index.shape[1]:
            raise ValueError(f"expected an index of shape ({len(values)}, P), P >= 1")
        if index.size and not (np.issubdtype(index.dtype, np.integer) and 0 <= index.min() <= index.max() < k):
            raise ValueError(f"the index must hold integer grid indices in [0, {k})")
        width, n = index.shape[1], self.eigenvalues.size
        out = self._buf if len(self._buf) >= width else np.empty((width, n))
        step = len(out) // width
        # BLAS threads a dot product this wide, so its bits would follow the thread count
        wide = n >= _COMPENSATED_FROM
        errors = np.empty(index.shape)
        for lo in range(0, len(values), step):
            reps = slice(lo, lo + step)
            at = index[reps].reshape(-1)
            est = self._rows(at, out[: len(at)])
            per_rep = est.reshape(-1, width, n)
            per_rep *= values[reps, None]
            per_rep -= truths[reps, None]
            errors[reps] = np.reshape([_accumulate(d * d) if wide else d @ d for d in est], (-1, width))
        return errors


def _pred_terms(block: np.ndarray) -> np.ndarray:
    """The s-block rewritten in place to s^2 - 2s, one row block at a time,
    with 2s taken in one row-block temporary."""
    for b in _row_blocks(*block.shape):
        s = block[b]
        twice = 2.0 * s
        np.square(s, out=s)
        s -= twice
    return block


def _bounds(block: np.ndarray, weights: np.ndarray, m: int, variance: np.ndarray, pred_offset: np.ndarray):
    """The approximate scores a_i of ``GridScorer.batch_picks`` and their
    margins, (rows, K) each: row r scores the squared truth (r < m) or
    observation ``weights[r]`` from the (1 - s)^2 ``block``, with the
    oracle's ``variance`` or pred's ``pred_offset`` as its offsets."""
    n = block.shape[1]
    approx = np.empty((len(weights), len(block)))
    for r, weight in enumerate(weights):
        # one matrix-vector product per row: a matrix product's pack
        # buffers would raise the peak memory of a run
        np.dot(block, weight, out=approx[r])
    shift = np.zeros((len(weights), 1))
    shift[m:, 0] = weights[m:].sum(axis=1)
    approx -= shift
    approx[:m] += variance
    approx[m:] += pred_offset
    margin = np.abs(approx)
    margin += shift
    margin *= 5.0 * (n + 3) * 2.0**-53
    margin += 8.0 * n * 2.0**-1074
    return approx, margin

