"""Exact-arithmetic audit of the rounding bounds of the certified Lepskii
test (``lepskii._certify``, which ``lepskii.picks`` runs for each batch).

Each case builds float64 rows p_i of sqrt(lambda) q, a centre row m and an
observation y, forms the float32 rows E_i = fl32(p_i - p_m) and the float32
gram entries through the products the test uses, and checks the steps of
the derivation one inequality at a time with ``fractions.Fraction``, the
exact values of the floats:

- step 1, per row: ||(c_i - c_m) - E_i y|| <= 1.01 v ||E_i y|| + rho;
- step 2, per entry: |g_ij - x_ij| <= g32 (x_ii + x_jj) / 2 + U, for every
  entry of every product form (the S_i pass, many columns, a single column);
- steps 1 to 3 together, per entry: the float64 test's distance lies in
  (1 -+ kappa -+ A)(S_i + S_j) - 2 (1 -+ kappa) g_ij -+ B.

Each case is built so that one term of the bounds dominates: subnormal
float32 products for U, subnormal float32 rows for the underflow part of
rho, a gram of rows that nearly cancel for g32, a centre far from the rows
for the rounding part of rho.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from invreg.filters import FilterSpec
from invreg.filters import _MONOTONE_SLACK
from invreg.lepskii import _CUT_B, _KAPPA, _bounds, _float32_rows, _gram_columns, _gram_error, _rounding, _row_error
from invreg.selection import GridScorer

V = Fraction(2) ** -24


def fractions(values):
    return [Fraction(float(v)) for v in np.ravel(values)]


def sqrt_above(x: Fraction) -> Fraction:
    """A rational upper bound of sqrt(x)."""
    return Fraction(math.sqrt(float(x)) * (1.0 + 2.0**-50)) + Fraction(2) ** -1074


def audit_rows(p: np.ndarray, m: int, y: np.ndarray):
    """The quantities of the certified test for rows p (float64), centre
    row m and observation y, as ``lepskii._float32_rows`` and
    ``lepskii._certify`` form them."""
    e32 = (p - p[m]).astype(np.float32)
    w = np.square(y, out=np.empty(y.shape, dtype=np.float32))
    n = len(y)
    centre_y = p[m] * y
    centre_y_sq = float(np.dot(centre_y, centre_y))
    e_max, y_max = 2.0 * float(np.abs(p).max()), float(np.abs(y).max())
    fy = fractions(y)
    fe = [fractions(row) for row in e32]
    # x_ij = sum_k E_ik E_jk y_k^2, exactly
    x = [[sum(a * b * t * t for a, b, t in zip(fe[i], fe[j], fy)) for j in range(len(p))] for i in range(len(p))]
    return e32, w, n, centre_y_sq, e_max, y_max, fy, x


def gram_forms(e32: np.ndarray, w: np.ndarray):
    """Every float32 gram entry the test may read, once per product form:
    (i, j, g_ij) from the S_i pass (j = i), from one product of all columns,
    and from one column at a time."""
    k = len(e32)
    s = _gram_columns(np.square(e32), w[None])[:, 0]
    yield [(i, i, s[i]) for i in range(k)]
    window = _gram_columns(e32, e32 * w)
    yield [(i, j, window[i, j]) for i in range(k) for j in range(k)]
    for j in range(k):
        column = _gram_columns(e32, e32[j : j + 1] * w)[:, 0]
        yield [(i, j, column[i]) for i in range(k)]


def float64_distances(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The float64 test's fl(fl(G_ii + G_jj) - 2 G_ij), G the gram of the
    rows fl(p_i y), as ``lepskii.picks`` forms them for ``_exact_test``."""
    coeff = p * y
    square = coeff @ coeff.T
    sq_norm = square.diagonal().copy()
    return (sq_norm[:, None] + sq_norm) - 2.0 * square


def assert_row_error(p, m, y):
    e32, w, n, centre_y_sq, e_max, y_max, fy, x = audit_rows(p, m, y)
    rho = Fraction(float(_row_error(n, 1.01 * centre_y_sq + 2.0 * n * 2.0**-1022, y_max)))
    c = [fractions(row * y) for row in p]
    for i, row in enumerate(e32):
        error = sum((a - b - Fraction(float(e)) * t) ** 2 for a, b, e, t in zip(c[i], c[m], row, fy))
        bound = Fraction(101, 100) * V * sqrt_above(x[i][i]) + rho
        assert error <= bound * bound, f"row {i}"


def assert_gram_error(p, m, y):
    e32, w, n, centre_y_sq, e_max, y_max, fy, x = audit_rows(p, m, y)
    g32, underflow = (Fraction(float(t)) for t in _gram_error(n, e_max, y_max))
    for entries in gram_forms(e32, w):
        for i, j, g in entries:
            assert abs(Fraction(float(g)) - x[i][j]) <= g32 * (x[i][i] + x[j][j]) / 2 + underflow, (i, j)


def assert_distance_interval(p, m, y):
    e32, w, n, centre_y_sq, e_max, y_max, fy, x = audit_rows(p, m, y)
    a, b = (Fraction(float(t)) for t in _rounding(n, e_max, centre_y_sq, y_max))
    kappa = Fraction(_KAPPA)
    dh = float64_distances(p, y)
    s = _gram_columns(np.square(e32), w[None])[:, 0]
    for entries in gram_forms(e32, w):
        for i, j, g in entries:
            total = Fraction(float(s[i])) + Fraction(float(s[j]))
            lower = (1 - kappa - a) * total - 2 * (1 - kappa) * Fraction(float(g)) - b
            upper = (1 + kappa + a) * total - 2 * (1 + kappa) * Fraction(float(g)) + b
            assert lower <= Fraction(float(dh[i, j])) <= upper, (i, j)


def mixed_signs(rng):
    """Rows and an observation of both signs."""
    p = rng.standard_normal((6, 48))
    return p, 2, rng.standard_normal(48)


def cancelling(rng):
    """Rows that nearly coincide far from the centre: the gram sums cancel
    to a distance about 1e-8 of N, where g32 dominates the bounds."""
    base = rng.standard_normal(64)
    p = base + 1e-4 * rng.standard_normal((6, 64))
    p[0] = 0.0
    return p, 0, rng.standard_normal(64)


def subnormal(rng):
    """Rows near 2^-70, so that E_i E_j y^2 lies among the float32
    subnormals (about 2^-140), where U dominates the bounds."""
    p = 2.0**-70 * rng.standard_normal((6, 40))
    return p, 3, rng.standard_normal(40)


def subnormal_rows(rng):
    """Rows near 2^-135, so that E_i itself is a float32 subnormal and its
    cast loses up to 2^-150 per entry, where the underflow part of rho
    dominates step 1."""
    p = 2.0**-135 * rng.standard_normal((6, 40))
    return p, 2, rng.standard_normal(40)


def far_centre(rng):
    """Rows within a relative 2^-40 of a centre near 2^20: the float64
    rows c_i round by about 2^-33 while E_i y is about 2^-20, so rho
    dominates step 1."""
    centre = 2.0**20 * (1.0 + rng.uniform(size=32))
    p = centre * (1.0 + 2.0**-40 * rng.standard_normal((5, 32)))
    p[1] = centre
    return p, 1, rng.standard_normal(32)


CASES = [mixed_signs, cancelling, subnormal, subnormal_rows, far_centre]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
@pytest.mark.parametrize("seed", [0, 1])
def test_step_1_bounds_each_row_error(case, seed):
    assert_row_error(*case(np.random.default_rng(seed)))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
@pytest.mark.parametrize("seed", [0, 1])
def test_step_2_bounds_each_gram_entry_by_itself(case, seed):
    assert_gram_error(*case(np.random.default_rng(seed)))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
@pytest.mark.parametrize("seed", [0, 1])
def test_the_float64_distance_lies_in_each_entrys_interval(case, seed):
    assert_distance_interval(*case(np.random.default_rng(seed)))



@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
@pytest.mark.parametrize("seed", [0, 1])
def test_the_tests_on_the_bounds_never_contradict_the_float64_test(case, seed):
    # with threshold j set to row i's float64 distance Dh_ij, that test
    # finds row i within it, and with it set just below Dh_ij, beyond it:
    # the certified tests on the bounds of lepskii._bounds must not claim
    # the opposite, whichever product form gave the gram entry
    p, m, y = case(np.random.default_rng(seed))
    e32, w, n, centre_y_sq, e_max, y_max, fy, x = audit_rows(p, m, y)
    a, b = _rounding(n, e_max, centre_y_sq, y_max)
    s = _gram_columns(np.square(e32), w[None]).astype(float)
    dh = float64_distances(p, y)
    for entries in gram_forms(e32, w):
        for i, j, g in entries:
            if j < i and dh[i, j] > 0:
                low, high, _, _ = _bounds(s, a, b, np.full(len(p), dh[i, j]))
                assert not g - high[j, 0] < low[i, 0], (i, j)
                _, _, up, top = _bounds(s, a, b, np.full(len(p), np.nextafter(dh[i, j], 0.0)))
                assert not g - up[j, 0] >= top[i, 0], (i, j)

@pytest.mark.parametrize("tie", [-1e-9, 1e-9])
def test_near_ties_agree_with_the_float64_test(tie):
    # Tikhonov rows at 64 modes, with y scaled so that the largest distance
    # to row 0 lies within a relative 1e-9 of threshold 0: every entry's
    # interval holds Dh, and the certified tests, on the bounds of
    # lepskii._bounds, never contradict the float64 test
    n = 64
    eig = 1.0 / np.arange(1.0, n + 1.0) ** 2
    grid = 1e-4 * 1.5 ** np.arange(8)
    scorer = GridScorer(eig, 1e-3, FilterSpec("tikhonov"), grid)
    rows = _float32_rows(scorer._buf, 4, scorer._rows)
    e32, _, p_max, centre = rows
    e_max = 2.0 * p_max
    p = np.array([1.0 / (alpha + eig) * np.sqrt(eig) for alpha in grid])
    assert (e32 == (p - p[4]).astype(np.float32)).all()
    y = np.random.default_rng(5).standard_normal(n) * np.sqrt(eig)
    dist = float64_distances(p, y)[:, 0]
    y *= math.sqrt((1.0 + tie) * scorer._thresholds_sq[0] / dist[1:].max())
    assert_distance_interval(p, 4, y)
    dh = float64_distances(p, y)
    t = scorer._thresholds_sq
    assert np.isclose(dh[1:, 0].max(), t[0] * (1.0 + tie), rtol=1e-12, atol=0.0)
    w = np.square(y, out=np.empty(n, dtype=np.float32))
    s = _gram_columns(np.square(e32), w[None])[:, 0].astype(float)
    a, b = _rounding(n, e_max, float(np.dot(centre * y, centre * y)), float(np.abs(y).max()))
    low, high, up, top = (x[:, 0] for x in _bounds(s[:, None], a, b, t))
    gram = _gram_columns(e32, e32 * w).astype(float)
    for i in range(len(p)):
        for j in range(i):
            if gram[i, j] - high[j] < low[i]:
                assert dh[i, j] > t[j], (i, j)
            if gram[i, j] - up[j] >= top[i]:
                assert dh[i, j] <= t[j], (i, j)


def step_3_excess(p, y, relative, underflow):
    """The largest excess of |Dh_ij - D_ij| over g64 C_ij + underflow over
    the pairs of rows: Dh the float64 test's distance, D = ||c_i - c_j||^2
    and C = ||c_i||^2 + ||c_j||^2 exactly, c = fl(p y); g64 = 2 n u / (1 -
    n u) + ``relative``."""
    n, u = len(y), Fraction(2) ** -53
    g64 = 2 * n * u / (1 - n * u) + relative
    c = [fractions(row * y) for row in p]
    norms = [sum(x * x for x in row) for row in c]
    dh = float64_distances(p, y)
    worst = None
    for i in range(len(p)):
        for j in range(len(p)):
            d = sum((a - b) ** 2 for a, b in zip(c[i], c[j]))
            excess = abs(Fraction(float(dh[i, j])) - d) - g64 * (norms[i] + norms[j]) - underflow(n)
            worst = excess if worst is None else max(worst, excess)
    return worst


def one_mode(rng):
    """Rows of one mode, where the syrk rounds once per entry and the sum
    and difference of step 3 dominate its error."""
    return rng.uniform(0.5, 1.0, (40, 1)), 0, rng.uniform(0.5, 1.0, 1)


def float64_subnormal(rng):
    """Rows near 2^-530, whose products fl(p y) and the syrk's terms fall
    among the float64 subnormals, where the underflow term dominates."""
    return 2.0**-530 * rng.standard_normal((6, 24)), 0, rng.standard_normal(24)


U64 = Fraction(2) ** -53
STEP_3 = dict(relative=Fraction(301, 100) * U64, underflow=lambda n: 5 * n * Fraction(2) ** -1022)


@pytest.mark.parametrize("case", CASES + [one_mode, float64_subnormal], ids=lambda case: case.__name__)
@pytest.mark.parametrize("seed", [0, 1])
def test_step_3_bounds_the_float64_distance(case, seed):
    p, _, y = case(np.random.default_rng(seed))
    assert step_3_excess(p, y, **STEP_3) <= 0


@pytest.mark.parametrize("case, term", [(one_mode, "relative"), (float64_subnormal, "underflow")])
def test_step_3_without_a_term_fails_its_case(case, term):
    # the 3.01 u of the sum and the difference, and the 5 n 2^-1022 of
    # underflow, are each needed
    dropped = dict(STEP_3, **{term: Fraction(0) if term == "relative" else (lambda n: 0)})
    assert any(step_3_excess(*case(np.random.default_rng(seed))[::2], **dropped) > 0 for seed in range(4))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_a_cuts_b_covers_the_widened_rho(case):
    # lepskii._CUT_B B covers B with rho widened by (slack + 2.02 u) ||c_m||
    # for the rows above a cut (lepskii._certify)
    p, m, y = case(np.random.default_rng(0))
    e32, w, n, centre_y_sq, e_max, y_max, fy, x = audit_rows(p, m, y)
    a, b = _rounding(n, e_max, centre_y_sq, y_max)
    cm_sq = 1.01 * centre_y_sq + 2.0 * n * 2.0**-1022
    rho = Fraction(float(_row_error(n, cm_sq, y_max)))
    wide = rho + (Fraction(_MONOTONE_SLACK) + Fraction(202, 100) * U64) * sqrt_above(Fraction(cm_sq))
    widened = Fraction(float(b)) + Fraction(101, 100) * 8 * (2 + 1 / Fraction(_KAPPA)) * (wide * wide - rho * rho)
    assert widened <= Fraction(_CUT_B) * Fraction(float(b))
