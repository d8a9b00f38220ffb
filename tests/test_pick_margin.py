"""Exact-arithmetic audit of the margin of ``GridScorer.batch_picks``
(``selection._bounds``).

For row r (a truth f or an observation y, with float weights w = fl(r^2))
and grid point i, the exact score is, over the float s of the scorer's
s-block and the float offsets, with ``fractions.Fraction``:

- oracle: sum (1 - s)^2 w + variance_i;
- pred:   sum (s^2 - 2s) w + pred_offset_i.

The picks are right if both the approximate score a_i and the score the
picks compare (``batch_oracle_scores`` or ``batch_pred_scores``) lie within
margin_i / 2 of it, margin_i = 5 (n + 3) u (|a_i| + Y) + 8 n 2^-1074.
Each case is built so that one term of the margin dominates: large sums
with a tiny offset for |a_i|, a large ||y||^2 with s near 0 for Y,
subnormal weights for the underflow term; a large offset with small sums
checks that the margin needs no |offset_i| term: both offsets are at least
0, so the rounding of adding one is bounded by |a_i| (oracle) or by |a_i|
and Y (pred).

The cut of ``GridScorer._picks`` leaves out the rows above h where the
lower end of row h, less its offset and the slack (8 slack + 4 (n + 3)
u)(|a_h| + sum r^2), lies above the smallest upper end.  Its audit checks
that every exact score above h then exceeds the exact minimum, from every
first row count.  Where the offsets dominate (``dominant_offsets``), a cut
that kept row h's offset would leave out the minimum.  The 4 (n + 3) u
term cannot be made to fail a case: the lower end already lies half a
margin, 2.5 (n + 3) u (|a_h| + Y), below the exact score of row h, which
covers the rounding of the scores above h while they lie near it.
"""

from fractions import Fraction

import numpy as np
import pytest

from invreg import selection
from invreg.filters import _MONOTONE_SLACK, ALL_FAMILIES, FilterSpec, s_value
from invreg.selection import GridScorer, _bounds


def fractions(values):
    return [Fraction(float(v)) for v in np.ravel(values)]


def mantissas(rng, n, scale):
    """n floats of random sign and mantissa, of magnitude about ``scale``."""
    return rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n) * scale


def large_sums(rng):
    # |a_i| dominates: sums near 1e200, offsets near 1e-200
    eig = np.sort(rng.uniform(0.01, 1.0, 64))[::-1]
    rows = mantissas(rng, (6, 64), 1e100)
    return eig, 1e-100, FilterSpec("tikhonov"), 10.0 ** np.linspace(-3, 0, 8), rows


def large_observations(rng):
    # Y dominates: s <= 1e-8, so a_i = sum (1 - s)^2 y^2 - Y is tiny against Y
    eig = np.sort(rng.uniform(1e-10, 1e-9, 64))[::-1]
    rows = mantissas(rng, (6, 64), 1e100)
    return eig, 1e-100, FilterSpec("tikhonov"), 10.0 ** np.linspace(-1, 0, 8), rows


def subnormal_weights(rng):
    # the underflow term dominates: every weight and product is subnormal
    # and sigma^2 underflows to 0, so the relative terms vanish
    eig = np.sort(rng.uniform(0.01, 1.0, 64))[::-1]
    rows = mantissas(rng, (6, 64), 1e-161)
    return eig, 1e-170, FilterSpec("tikhonov"), 10.0 ** np.linspace(-3, 0, 8), rows


def large_offsets(rng):
    # sums near 1, offsets near 1e100
    eig = np.sort(rng.uniform(0.01, 1.0, 48))[::-1]
    rows = mantissas(rng, (6, 48), 1.0)
    return eig, 1e50, FilterSpec("tikhonov"), 10.0 ** np.linspace(-3, 0, 8), rows


def mixed_families(rng):
    # every family, at scales from 1e-3 to 1e3 and a few modes
    eig = np.sort(rng.uniform(0.0, 1.0, 17))[::-1] + 1e-6
    rows = mantissas(rng, (6, 17), 1.0) * 10.0 ** rng.uniform(-3, 3, (6, 1))
    spec = ALL_FAMILIES(m=3)[rng.integers(0, 5)]
    return eig, 10.0 ** rng.uniform(-3, 0), spec, 10.0 ** np.linspace(-4, -0.5, 10), rows


def dominant_offsets(rng):
    # the oracle's variance and pred's offset dominate every score: 45 modes
    # above every alpha carry no signal, and the three just below them
    # drop out of the cut-off estimate one grid point at a time.  Each row
    # dips at the first drop, rises by delta at the second and dips again
    # at the third, so its first minimum lies above a row that scores above
    # an earlier one: dropping each mode changes the oracle's score by f^2
    # - sigma^2 / lambda and pred's by y^2 - 2 sigma^2
    drops = np.array([0.012, 0.011, 0.010])
    eig = np.concatenate([np.sort(rng.uniform(0.0125, 0.02, 45))[::-1], drops])
    sigma = 10.0 ** rng.uniform(-3, 3)
    delta = rng.uniform(0.01, 0.1, (6, 1)) * sigma**2
    rows = np.zeros((6, eig.size))
    rows[:3, -2:-1] = np.sqrt(sigma**2 / drops[1] + delta[:3])
    rows[3:, -2:-1] = np.sqrt(2.0 * sigma**2 + delta[3:])
    rows *= rng.choice([-1.0, 1.0], rows.shape)
    return eig, sigma, FilterSpec("spectral_cutoff"), np.array([0.009, 0.0105, 0.0115, 0.0122, 0.0124]), rows


CASES = [large_sums, large_observations, subnormal_weights, large_offsets, mixed_families, dominant_offsets]


def audit(case, seed):
    """Per row, three truths and then three observations, and per grid
    point: the approximate score a, its margin, the score the picks
    compare, the exact score and the offset; and per row Y (0 for a truth)."""
    eig, sigma, spec, alphas, rows = case(np.random.default_rng(seed))
    scorer = GridScorer(eig, sigma, spec, alphas)
    weights = np.square(rows)
    approx, margin = _bounds(scorer._terms(), weights, 3, scorer._variance, scorer._pred_offset)
    scores = np.concatenate([scorer.batch_oracle_scores(rows[:3]), scorer.batch_pred_scores(rows[3:])])
    s = [fractions(s_value(spec, a, eig)) for a in alphas]
    offsets = [fractions(scorer._variance)] * 3 + [fractions(scorer._pred_offset)] * 3
    exact, y = [], []
    for r, (w, offset) in enumerate(zip(weights, offsets)):
        fw = fractions(w)
        terms = [[(1 - x) ** 2 if r < 3 else x * x - 2 * x for x in si] for si in s]
        exact.append([sum(a * b for a, b in zip(ti, fw)) + o for ti, o in zip(terms, offset)])
        y.append(sum(fw) if r >= 3 else Fraction(0))
    return [list(map(fractions, x)) for x in (approx, margin, scores)] + [exact, offsets, y]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_the_approximate_scores_lie_within_half_the_margin(case, seed):
    approx, margin, _, exact, _, _ = audit(case, seed)
    for a_row, m_row, e_row in zip(approx, margin, exact):
        for a, m, e in zip(a_row, m_row, e_row):
            assert abs(a - e) <= m / 2


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_the_compared_scores_lie_within_half_the_margin(case, seed):
    # so a grid row whose lower end lies above another's upper end cannot
    # hold the first minimum of the scores the picks compare
    _, margin, scores, exact, _, _ = audit(case, seed)
    for x_row, m_row, e_row in zip(scores, margin, exact):
        for x, m, e in zip(x_row, m_row, e_row):
            assert abs(x - e) <= m / 2


@pytest.mark.parametrize("case, term", [(large_sums, "a"), (large_observations, "y"), (subnormal_weights, "underflow")])
def test_the_margin_without_the_dominant_term_fails_the_case(case, term):
    """Some a_i lies beyond half of the margin left without ``term``, so
    each of those terms is needed."""
    approx, _, _, exact, offsets, y = audit(case, 0)
    n, u = case(np.random.default_rng(0))[0].size, Fraction(2) ** -53
    beyond = False
    for a_row, e_row, o_row, y_r in zip(approx, exact, offsets, y):
        for a, e, o in zip(a_row, e_row, o_row):
            parts = {"a": abs(a), "offset": abs(o), "y": y_r}
            margin = 5 * (n + 3) * u * sum(v for k, v in parts.items() if k != term)
            margin += 0 if term == "underflow" else 8 * n * Fraction(2) ** -1074
            beyond |= abs(a - e) > margin / 2
    assert beyond


def exclusions(case, seed, subtract_offset=True):
    """Per row r and grid point h < K - 1, whether the cut of
    ``GridScorer._picks`` excludes the rows above h, from the approximate
    scores and margins of ``audit`` and the offsets (or without them), and
    whether it may: every exact score above h exceeds the exact minimum."""
    approx, margin, _, exact, offsets, _ = audit(case, seed)
    eig, _, _, _, rows = case(np.random.default_rng(seed))
    weights = np.square(rows).sum(axis=1)
    slack = 8.0 * _MONOTONE_SLACK + 4.0 * (eig.size + 3) * 2.0**-53
    out = []
    for a_row, m_row, e_row, o_row, w in zip(approx, margin, exact, offsets, weights):
        a, m, o = (np.array([float(x) for x in v]) for v in (a_row, m_row, o_row))
        lower, least = a - m, np.minimum.accumulate(a + m)
        above = (np.abs(a) + w) * -slack + lower - (o if subtract_offset else 0.0)
        out += [(above[h] > least[h], min(e_row[h + 1 :]) > min(e_row[: h + 1])) for h in range(len(a) - 1)]
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_the_cut_excludes_only_rows_above_the_exact_minimum(case, seed, monkeypatch):
    """Every cut the picks make from any first row count leaves out only
    rows whose exact scores exceed the exact minimum, and the picks are the
    first minimum of the scores of the whole grid."""
    eig, sigma, spec, alphas, rows = case(np.random.default_rng(seed))
    _, _, scores, exact, _, _ = audit(case, seed)
    scorer = GridScorer(eig, sigma, spec, alphas)
    # a grid this small is formed whole unless its block outgrows a row block
    monkeypatch.setattr(selection, "_BLOCK", 0)
    cuts = 0
    # the truths and observations together and each alone, so that each
    # rule's own rows decide a cut
    for truths, values in ((3, 3), (3, 0), (0, 3)):
        batch = [*range(truths), *range(3, 3 + values)]
        for first in range(1, len(alphas)):
            scorer._needs = [first, first]
            picks, formed = scorer._picks(0, rows[:truths], rows[3 : 3 + values])
            assert picks.tolist() == [scores[r].index(min(scores[r])) for r in batch]
            if formed < len(alphas):
                cuts += 1
                assert all(min(exact[r][formed:]) > min(exact[r][:formed]) for r in batch)
    # the scores of these cases grow fast enough above their minimum
    assert cuts or case not in (large_sums, large_observations)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_the_cut_excludes_a_row_only_where_the_exact_scores_allow(case):
    assert all(allowed for excluded, allowed in exclusions(case, 0) if excluded)


def test_the_cut_without_the_offset_subtraction_fails_the_case():
    """Where the offsets dominate, row h less only its slack may lie above
    an earlier row's upper end although a later row holds the minimum."""
    assert any(excluded and not allowed for excluded, allowed in exclusions(dominant_offsets, 0, subtract_offset=False))
