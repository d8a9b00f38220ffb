"""Lepskii's rule for a batch of observations (``picks``): the certified
float32 test, the rounding bounds that tie its float32 gram entries of the
rows E_i = fl32(p_i - p_m), p_i = fl(sqrt(lambda) q_i) at grid[i],
to the float64 test of ``_exact_test``, the scan that certifies a batch
from them, and the float64 test itself, which decides what is not
certified.

Notation: u = 2^-53, v = 2^-24, t32 = 2^-126; c_i = fl(p_i y) is row
i of the float64 test, w = fl32(fl(y^2)), and x_ij = sum_k E_ik
E_jk y_k^2, exactly, so D32_ij = x_ii + x_jj - 2 x_ij = ||(E_i -
E_j) y||^2 and N = x_ii + x_jj.  The float64 test compares its
distance Dh_ij with t_j; let D_ij = ||c_i - c_j||^2, exactly.

1. Rows.  (c_i - c_m) - E_i y has norm at most 1.01 v ||E_i y|| +
   rho: E_i is p_i - p_m rounded in float64 and then in float32,
   c_i and c_m are rounded once each (the 2u ||p_m y|| in rho), and
   a cast that underflows, flushed to zero or not, is off by less
   than t32 (the sqrt(n) y_max t32 in rho).  So |sqrt(D) -
   sqrt(D32)| <= sig = 1.01 v (sqrt(x_ii) + sqrt(x_jj)) + 2 rho, and
   2 sig sqrt(D32) <= kappa D32 + sig^2 / kappa gives (1 - kappa) D32
   - sig^2 / kappa <= D <= (1 + kappa) D32 + (1 + 1/kappa) sig^2,
   sig^2 <= 2^-45 N + 8 rho^2.
2. Gram.  An entry g_ij is a float32 sum of the n products of E_i
   and fl32(E_j w), and S_i one of the n products of fl32(E_i^2) and
   w, formed by any kernel in any order, with FMA or not.  Each term
   carries at most n + 3 roundings (y^2, its cast, the product with
   E_j or the square of E_i, and the n of the product and the sums),
   so by itself each entry is within g32 (x_ii + x_jj) / 2 + U of
   x_ij, g32 = (n + 3) v / (1 - (n + 3) v), |E_ik E_jk| <= (E_ik^2 +
   E_jk^2) / 2; U = 1.1 n t32 (e_max^2 + e_max + y_max^2 + 2)
   collects what underflow loses in w, in the products and in the
   sums.  So D32 is within 2 g32 N + 4 U of S_i + S_j - 2 g_ij, and N
   <= (S_i + S_j + 2 U) / (1 - g32).
3. The float64 test.  Dh is within g64 C + 5 n 2^-1022 of D, g64 = 2
   n u / (1 - n u) + 3.01 u (the syrk, then the sum and the
   difference), with C = ||c_i||^2 + ||c_j||^2 <= 4.01 N + 8 rho^2 +
   4 ||c_m||^2.

So Dh_ij lies within (1 -+ kappa -+ A)(S_i + S_j) - 2 (1 -+ kappa) g_ij -+
B, A and B from ``_rounding``.  Row i is certainly beyond threshold j where
the lower end exceeds t_j, and is then inadmissible in the float64 test too;
the last row not certainly beyond is the index if every upper end of its
row stays at most t_j.  Each bound holds entry by entry, so a certified
index is the float64 test's whichever entries were formed, by whichever
product and in whichever order: any set of columns certifies the same
index as the whole gram would, or none.  ``_scan`` marks rows from the
free column of the guess, then forms one column per undecided replication
per round, each product for as many replications as fit the float32
``work`` rows.  The tests are divided by 2 (1 -+ kappa) and compare g_ij
with float64 sums, whose rounding the 2^-48 in A and in the thresholds
covers.

The rows are formed for the first h + 1 grid rows only (``_certify``):
where row h lies certainly beyond the centre's threshold, with B taken
for rho widened by the monotonicity slack (``_CUT_B``), every row above
h does too in the float64 test, so no row above h is admissible.
Row 0 bounds every |p_i| (``_float32_rows``): p >= 0 rises along the grid
by at most the monotonicity slack, so the rows need no bound of their own.
"""

from __future__ import annotations

import math

import numpy as np

from .filters import _MONOTONE_SLACK

# the split constant; the bounds that keep every float32 square, product
# and gram sum finite (|p_i|, |y| < 2^62, so |E| <= 2^63, and
# |E| |y| sqrt(n) < 2^60); the rounds of single columns a replication may
# read
_KAPPA = 2.0**-20
_ROW_LIMIT, _GRAM_LIMIT = 2.0**62, 2.0**60
_ROUNDS = 16
# B of a cut (``_certify``) over B: rho widened by (slack + 2.02 u) ||c_m||
# at most doubles the rho^2 term, plus 16.2 (2 + 1/kappa) (18.1 u)^2 ||c_m||^2,
# under 1e-7 of the 4.01 g64 ||c_m||^2 term of B
_CUT_B = 2.01


# bytes per grid point pair of the float64 test's arrays (``_fallback``)
_FALLBACK_BYTES = 8 + 4 + 1 + 1


def picks(buffer, thresholds_sq, values, guess: int, rows, cut: int) -> tuple[np.ndarray, int, int]:
    """Lepskii's grid index for each observation of the (R, n) batch
    ``values``, the next guess (the last certified index, or ``guess`` if
    none is) and the grid rows the certified test needed (``_certify``).

    Lepskii's balancing rule picks the largest grid index whose estimate
    stays within the noise threshold of every less-regularized estimate;
    index 0 is admissible vacuously, so every observation gets an index.
    ``buffer`` is a scorer's K x n float64 scratch, ``thresholds_sq`` its K
    squared thresholds t_j, and ``rows(at, out)`` writes the rows p_i =
    fl(sqrt(lambda) q_i) at the grid indices ``at`` into ``out`` and
    returns it; for a slice ``at`` it first forms the thresholds of those
    rows, in ``out``, so a threshold is read only once its row is formed.

    Each index is that of the float64 test of ``_exact_test``: ``_certify``
    decides the whole batch at once, on any grid, one-point grids too,
    from float32 rows of the first ``cut`` grid rows or more, formed once
    per call and centred at the guess, whatever order that test's syrk
    sums in.  The replications it cannot certify (all of them, if the rows
    do not fit float32) then take the float64 test over the whole grid,
    one at a time, in the buffer, with the K x K arrays of ``_fallback``,
    allocated at a call's first fallback.
    """
    # a NaN propagates through max and min and fails every range test
    y_max = np.maximum(values.max(axis=1), -values.min(axis=1))
    best, need = _certify(buffer, thresholds_sq, values, y_max, guess, rows, cut)
    certified = best[best >= 0]
    arrays = None
    for r in np.flatnonzero(best < 0):
        if arrays is None:
            arrays = _fallback(len(buffer))
        coeff = rows(slice(None), buffer)
        coeff *= values[r]
        best[r] = _exact_test(coeff, thresholds_sq, *arrays)
    return best, int(certified[-1]) if len(certified) else guess, need


def _fallback(k: int):
    """The arrays of ``_exact_test`` at K grid points: the K x K square,
    distance rows (half a square), the K x K mask and the strictly-lower
    mask, ``_FALLBACK_BYTES`` per grid point pair."""
    lower = np.tri(k, k, -1, dtype=bool)
    return np.empty((k, k)), np.empty((max(1, k // 2), k)), np.empty_like(lower), lower


def _float32_rows(buffer, m: int, rows, cut: int | None = None):
    """(E, work, p_max, p_m) for the certified test over the first ``cut``
    grid rows (all K by default).

    E holds the float32 rows fl32(p_i - p_m) in the first half of the
    bytes of the K x n ``buffer``; ``work`` is the second half, as float32
    rows.  p_max bounds |p_i| on every grid row, formed or not (NaN if row
    0 holds a NaN, and then E is not used): the largest |entry| of row 0,
    formed with the centre in one call, widened by twice the monotonicity
    slack, which stays above the slack once the widening is rounded, and
    by 2^-1074 for underflow.  Row m is evaluated as p_m bit for bit,
    so E_m = 0.  The margins of the test grow with S_i = ||E_i y||^2, so a
    centre row m near the picks narrows them where the picks are decided.
    """
    centre, first = rows([m, 0], np.empty((2, buffer.shape[1])))
    p_max = np.abs(first).max() * (1.0 + 2.0 * _MONOTONE_SLACK) + 2.0**-1074
    return (*_stage(buffer, centre, rows, 0, len(buffer) if cut is None else cut), p_max, centre)


def _stage(buffer, centre, rows, start: int, cut: int):
    """(E, work) of ``_float32_rows``, E over the first ``cut`` grid rows,
    of which the rows from ``start`` on are formed here against the centre
    row ``centre``.  The p_i are written K // 2 rows at a time (one, if K
    = 1) in the last rows of the buffer, beyond the bytes of E."""
    k, n = buffer.shape
    step = max(1, k // 2)
    flat = buffer.reshape(-1).view(np.float32)
    e32, work = flat[: k * n].reshape(k, n), flat[k * n :].reshape(k, n)
    for lo in range(start, cut, step):
        part = rows(slice(lo, min(lo + step, cut)), buffer[k - step :][: cut - lo])
        # rows out of float32 range are refused through p_max
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(part, centre, out=e32[lo : lo + len(part)], casting="unsafe")
    return e32[:cut], work


def _certify(buffer, thresholds_sq, y, y_max, guess: int, rows, cut: int | None = None):
    """The certified Lepskii index of each observation of the (R, n) batch
    y, |y| <= y_max, -1 where it is not certified, and the grid rows the
    test needed, from the float32 rows of the first ``cut`` grid rows (all
    K by default) centred at row ``guess`` (``_float32_rows``); the other
    arguments are those of ``picks``.

    A cut at h + 1 rows, h < K - 1, holds for a replication whose row h
    lies certainly beyond the centre's threshold by the free column of
    ``_scan``, with rho widened by the rows' monotonicity slack
    (``_rounding``): every row i above h then lies beyond that threshold
    too, in the float64 test, since ||c_i - c_m|| is at least ||c_h - c_m||
    less (slack + 2.02 u) ||c_m|| (p_i <= (1 + slack) p_h <= (1 + slack)^2
    p_m, entry by entry, and c = fl(p y)), so no row above h is admissible
    and the test on the rows up to h gives the index of the whole grid.
    That is checked from S_h alone (E_guess = 0, so S_guess and g_h,guess
    are 0) before the other entries are formed; where a replication
    fails it, the rows grow by 2, 4, 8, ... up to K, all within the bound
    p_max that row 0 gives.  The rows needed are the most, over the
    replications that fit, up to the first row above the centre that
    shows the cut.

    Nothing is certified if row 0's bound on the p_i or the replication's
    y lies out of range (a NaN fails every test), or at 2^20 modes or
    more, where B's constant no longer holds.  A one-point grid takes the
    same path: E_0 = 0, no row lies below row 0, and the certificate
    holds at index 0.  The batch is certified at most n replications at a
    time, so the (rows, replications) arrays of the test hold no more
    entries than the K x n buffer.
    """
    k = len(buffer)
    # the centre's column shows the rows above it
    cut, step, best, need = min(k, max(k if cut is None else cut, guess + 2)), 2, np.full(len(y), -1), 1
    e32, work, p_max, centre = _float32_rows(buffer, guess, rows, cut)
    n = e32.shape[1]
    e_max = 2.0 * p_max
    if not (p_max < _ROW_LIMIT and n < 2**20):
        return best, k
    fits = np.flatnonzero(y_max < min(_ROW_LIMIT, _GRAM_LIMIT / max(e_max * math.sqrt(n), 1.0)))
    for at in range(0, len(fits), n):
        reps = fits[at : at + n]
        part = y[at : at + n] if len(fits) == len(y) else y[reps]
        centre_y = part * centre
        a, b = _rounding(n, e_max, np.einsum("rk,rk->r", centre_y, centre_y), y_max[reps])
        w = np.square(part, out=np.empty(part.shape, dtype=np.float32))
        # the cut: row cut - 1 certainly beyond the centre's threshold, by
        # its S alone (E_guess = 0), with B widened by the slack
        while cut < k and not (
            guess + 1 < cut
            and (_gram_columns(np.square(e32[-1:]), w)[0] * (1.0 - _KAPPA - a) > thresholds_sq[guess] * (1.0 + 2.0**-48) + _CUT_B * b).all()
        ):
            cut, step = min(k, cut + step), 2 * step
            e32, _ = _stage(buffer, centre, rows, len(e32), cut)
        # every S_i of every replication from one product of the data-free squares
        np.square(e32, out=work[:cut])
        bounds = _bounds(_gram_columns(work[:cut], w).astype(float), a, b, thresholds_sq[:cut])
        # the rows above the centre that show the cut
        beyond = bounds[0][guess + 1 :] > (_CUT_B - 1.0) * b / (2.0 - 2.0 * _KAPPA) - bounds[1][guess]
        first = np.where(beyond.any(axis=0), beyond.argmax(axis=0) + guess + 2, k) if len(beyond) else [k]
        need = max(need, int(np.max(first)))
        best[reps] = _scan(e32, work, w, bounds, guess)
        del bounds  # before the next chunk forms its own
    return best, need


def _exact_test(coeff: np.ndarray, thresholds_sq, square, scratch, beyond, lower) -> int:
    """Lepskii's index by the float64 test: the last of the estimate rows
    ``coeff`` whose squared distance fl(fl(G_ii + G_jj) - 2 G_ij) to every
    row j < i is at most threshold j, G their gram (one syrk) in the K x K
    ``square``.  The distances are formed a few rows at a time in
    ``scratch``; ``beyond`` is a K x K boolean array and ``lower`` marks the
    pairs j < i."""
    np.matmul(coeff, coeff.T, out=square)
    sq_norm = square.diagonal().copy()
    square *= 2.0
    k = len(coeff)
    for lo in range(0, k, len(scratch)):
        dist_sq = scratch[: k - lo]
        np.add(sq_norm[lo : lo + len(dist_sq), None], sq_norm, out=dist_sq)
        dist_sq -= square[lo : lo + len(dist_sq)]
        np.greater(dist_sq, thresholds_sq, out=beyond[lo : lo + len(dist_sq)])
    # i is admissible unless some j < i lies beyond threshold j
    beyond &= lower
    return int(np.flatnonzero(~beyond.any(axis=1))[-1])


def _bounds(s, a, b, thresholds_sq):
    """(low, high, up, top), the (rows, replications) arrays of the
    certified test, from S_i as a float64 (rows, replications) array, A and
    B from ``_rounding`` and the squared thresholds t_j: row i is certainly
    beyond threshold j where g_ij - high_j < low_i, and a candidate c is
    certified where g_cj - up_j >= top_c for every j < c."""
    beyond_sq = thresholds_sq * ((1.0 + 2.0**-48) / (2.0 - 2.0 * _KAPPA))
    within_sq = thresholds_sq * ((1.0 - 2.0**-48) / (2.0 + 2.0 * _KAPPA))
    low = s * ((1.0 - _KAPPA - a) / (2.0 - 2.0 * _KAPPA))
    high = low - beyond_sq[:, None]
    high -= b / (2.0 - 2.0 * _KAPPA)
    up = s * ((1.0 + _KAPPA + a) / (2.0 + 2.0 * _KAPPA))
    up -= within_sq[:, None]
    top = (s * (1.0 + _KAPPA + a) + b) / (2.0 + 2.0 * _KAPPA)
    return low, high, up, top


def _gram_columns(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The float32 gram entries of the float32 rows in ``rows`` (rows, E_i
    or fl32(E_i^2)) against those in ``columns`` (columns, fl32(E_j w) or
    w).

    The sgemm is tiled into products of at most 10^6 multiply-adds, which
    OpenBLAS runs without its packing buffers: their pages would raise the
    peak memory of a run, and these thin products run faster without them.
    """
    n = rows.shape[1]
    out = np.empty((len(rows), len(columns)), dtype=np.float32)
    step = max(1, 10**6 // n)
    for i in range(0, len(rows), step):
        part = rows[i : i + step]
        width = max(1, 10**6 // (len(part) * n))
        for j in range(0, len(columns), width):
            np.matmul(part, columns[j : j + width].T, out=out[i : i + step, j : j + width])
    return out


def _scan(e32: np.ndarray, work: np.ndarray, w: np.ndarray, bounds, guess: int) -> np.ndarray:
    """The certified Lepskii index of each replication of a batch, -1 where
    it is not certified; replication r has the squared observation w[r]
    and the columns bounds[...][:, r] of ``_certify``.

    Row ``guess`` is the centre of the rows, E_guess = 0, so its gram
    column is 0 and marks for free the rows above it that lie beyond its
    threshold; the last unmarked row is a replication's first candidate.
    Then each round reads one whole column per undecided replication:
    that of its candidate, or that of the witness of a candidate just
    found beyond (the threshold it exceeds most).  The column of a
    candidate c is also row c: it shows c beyond some lower threshold,
    and c is marked, or within them all, and c is decided by the
    upper-end certificate on the same entries.  A witness's column marks
    the rows above it that it shows beyond, so a candidate far above the
    pick costs rounds, not the whole gram.  A replication still undecided
    after ``_ROUNDS`` rounds is not certified.  The products of a round
    are formed for as many replications at a time as fit the ``work``
    rows; the tests run on (rows, replications) arrays.
    """
    low, high, up, top = bounds
    k = len(e32)
    reps = np.arange(len(w))
    marked = np.zeros((k, len(w)), dtype=bool)
    marked[guess + 1 :] = low[guess + 1 :] > -high[guess]
    candidate = k - 1 - np.argmin(marked[::-1], axis=0)
    rows = np.arange(k)[:, None]
    best = np.full(len(w), -1)
    read, witnessing, open_ = candidate, np.zeros(len(w), dtype=bool), np.ones(len(w), dtype=bool)
    gram = np.empty((k, len(w)), dtype=np.float32)
    for _ in range(_ROUNDS):
        chunks = np.flatnonzero(open_)
        for at in range(0, len(chunks), k):
            chunk = chunks[at : at + k]
            part = np.take(e32, read[chunk], axis=0, out=work[: len(chunk)])
            part *= w[chunk]
            gram[:, chunk] = _gram_columns(e32, part)
        below = rows < read
        if witnessing.any():
            # the rows above a witness j that column j shows beyond threshold j
            beyond = gram - high[read, reps] < low
            beyond &= ~below
            beyond[:, ~witnessing] = False
            marked |= beyond
            candidate = k - 1 - np.argmin(marked[::-1], axis=0)
        # row j against every threshold below it, the most exceeded first
        slack = gram - high
        slack[~below] = np.inf
        witness = np.argmin(slack, axis=0)
        at_candidate = open_ & (candidate == read)
        rejected = at_candidate & (slack[witness, reps] < low[read, reps])
        # a candidate within every threshold below it is decided here
        decided = at_candidate & ~rejected
        if decided.any():
            slack = np.subtract(gram, up, out=slack)
            slack[~below] = np.inf
            best[decided] = np.where(slack.min(axis=0) >= top[read, reps], read, -1)[decided]
            open_ &= ~decided
            if not open_.any():
                break
        marked[read[rejected], reps[rejected]] = True
        witnessing = rejected
        read = np.where(rejected, witness, candidate)
    return best


def _rounding(n: int, e_max: float, centre_y_sq, y_max) -> tuple[float, np.ndarray]:
    """The relative and absolute terms A and B of the certified Lepskii test
    at n modes, for |E| <= e_max and |y| <= y_max, with ||p_m y||^2 summed
    in float64 to ``centre_y_sq`` (B per entry of ``centre_y_sq`` and
    ``y_max``): from steps 1 to 3 above, A is the factor of N over 1 - g32,
    plus 2^-48, and B the rest, with 1 % to spare."""
    g32, underflow = _gram_error(n, e_max, y_max)
    cm_sq = 1.01 * np.asarray(centre_y_sq) + 2.0 * n * 2.0**-1022
    rho = _row_error(n, cm_sq, y_max)
    g64 = 2.0 * n * 2.0**-53 / (1.0 - n * 2.0**-53) + 3.01 * 2.0**-53
    a = (2.0 * (1.0 + _KAPPA) * g32 + (1.0 + 1.0 / _KAPPA) * 2.0**-45 + 4.01 * g64) / (1.0 - g32) + 2.0**-48
    b = 1.01 * (4.6 * underflow + 5.0 * n * 2.0**-1022 + 8.0 * (2.0 + 1.0 / _KAPPA) * rho * rho + 4.01 * g64 * cm_sq)
    return a, b


def _row_error(n: int, cm_sq, y_max):
    """Step 1's rho: (c_i - c_m) - E_i y has norm at most 1.01 v ||E_i y||
    + rho, for ||c_m||^2 <= cm_sq and |y| <= y_max."""
    return 2.02 * 2.0**-53 * np.sqrt(cm_sq) + 1.1 * 2.0**-126 * math.sqrt(n) * (np.asarray(y_max) + 1.0)


def _gram_error(n: int, e_max: float, y_max):
    """Step 2's (g32, U): each float32 gram entry g_ij (or S_i = g_ii) is
    within g32 (x_ii + x_jj) / 2 + U of x_ij, for |E| <= e_max and |y| <=
    y_max."""
    g32 = (n + 3) * 2.0**-24 / (1.0 - (n + 3) * 2.0**-24)
    underflow = 1.1 * n * 2.0**-126 * (e_max * e_max + e_max + np.square(y_max) + 2.0)
    return g32, underflow
