import contextlib
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invreg.filters import ALL_FAMILIES, FilterSpec, filter_value, s_value
from invreg.problems import TestFunction as GreenTruth
from invreg.problems import make_diagonal_problem, make_green_problem
from invreg.model import (
    SpectralProblem,
    estimate_coefficients,
    sample_observations,
    substream_seed,
)
from invreg.risk import (
    _COMPENSATED_FROM,
    _accumulate,
    _accumulate_rows,
    direct_risk,
    empirical_prediction_risk,
    lepskii_threshold,
)
from invreg.selection import GridScorer, build_grid
from invreg import lepskii
from invreg.lepskii import _GRAM_LIMIT, _ROW_LIMIT, _bounds, _rounding


def oracle_picks(scorer, truths):
    """The oracle's grid index for each truth of an (R, n) batch, from
    ``batch_picks`` with no observations."""
    return scorer.batch_picks(truths, np.empty((0, scorer.eigenvalues.size)))[0]


def pred_picks(scorer, values):
    """The pred rule's grid index for each observation of an (R, n) batch,
    from ``batch_picks`` with no truths."""
    return scorer.batch_picks(np.empty((0, scorer.eigenvalues.size)), values)[1]


def oracle_pick(problem, spec, grid):
    """The oracle's grid index for the truth of ``problem``, picked as the
    studies pick it (``GridScorer.batch_picks``)."""
    scorer = GridScorer(problem.eigenvalues, problem.sigma, spec, grid)
    return int(oracle_picks(scorer, problem.truth_coeffs[None])[0])


def pred_pick(eigenvalues, sigma, spec, grid, obs):
    """The pred rule's grid index for ``obs``, picked as the studies pick it."""
    return int(pred_picks(GridScorer(eigenvalues, sigma, spec, grid), obs[None])[0])


def lepskii_pick(eigenvalues, sigma, spec, grid, obs):
    """Lepskii's grid index for ``obs``, certified as the studies certify it."""
    return int(GridScorer(eigenvalues, sigma, spec, grid).batch_lepskii_picks(obs[None])[0])


def lepskii_errors(scorer, values, truths, picks=None):
    """Lepskii's grid index for each observation of an (R, n) batch, and the
    (R, P + 1) squared errors at the grid indices ``picks[r]`` and then at
    Lepskii's, from the two scorer calls a study makes for them."""
    best = scorer.batch_lepskii_picks(values)
    index = best[:, None] if picks is None else np.column_stack([picks, best])
    return best, scorer.batch_errors(values, truths, index)


def naive_oracle(problem, spec, grid):
    best, best_idx = math.inf, 0
    for i, a in enumerate(grid):
        total = direct_risk(problem, spec, a).total
        if total < best:
            best, best_idx = total, i
    return best_idx


def naive_pred(eigenvalues, sigma, spec, grid, obs):
    best, best_idx = math.inf, 0
    for i, a in enumerate(grid):
        score = empirical_prediction_risk(eigenvalues, sigma, spec, a, obs)
        if score < best:
            best, best_idx = score, i
    return best_idx


def naive_lepskii(eigenvalues, sigma, spec, grid, obs):
    # O(K^2) double loop with explicit estimate vectors
    estimates = []
    problem_like = np.sqrt(eigenvalues)
    for a in grid:
        from invreg.filters import filter_value

        estimates.append(problem_like * filter_value(spec, a, eigenvalues) * obs)
    best = 0
    for i in range(len(grid)):
        ok = True
        for j in range(i):
            dist = np.linalg.norm(estimates[i] - estimates[j])
            if dist > lepskii_threshold(eigenvalues, sigma, spec, float(grid[j])):
                ok = False
                break
        if ok:
            best = i
    return best


def realistic_cases():
    """Paper-size inputs for every family (iterated m = 3): the Green hat
    problem at 1024 modes, sigma = 2^-21, and the diagonal problem at 300
    modes, sigma = 1e-6, each with one sampled Y."""
    for p in (
        make_green_problem(1024, GreenTruth.HAT, 2.0**-21, frame="discrete"),
        make_diagonal_problem(300, 4.0, 4.0, 1e-6, seed=11),
    ):
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
        obs = sample_observations(p, 5)
        for spec in ALL_FAMILIES(m=3):
            yield p, spec, grid, obs


def single_replication_scores(p, spec, grid, row, rule):
    """The per-replication scores that batching replaces: the s-block of
    one observation (``rule`` "pred") or one truth ("oracle") turned into
    (s^2 - 2s) y^2 or (1 - s)^2 f^2, summed row by row, plus the term that
    does not depend on the data."""
    s = np.array([s_value(spec, alpha, p.eigenvalues) for alpha in grid])
    if rule == "pred":
        terms = (s**2 - 2.0 * s) * row**2
        return _accumulate_rows(terms) + 2.0 * p.sigma**2 * _accumulate_rows(s)
    q = np.array([filter_value(spec, alpha, p.eigenvalues) for alpha in grid])
    terms = (1.0 - s) ** 2 * row**2
    return _accumulate_rows(terms) + p.sigma**2 * _accumulate_rows(p.eigenvalues * q**2)


def batch_rows(p, count=4):
    """``count`` observation rows of ``p`` and as many truth rows: its own
    truth and seeded perturbations of it."""
    rng = np.random.default_rng(p.n_modes)
    values = np.array([sample_observations(p, 100 + r) for r in range(count)])
    truths = p.truth_coeffs * (1.0 + 0.1 * rng.standard_normal((count, p.n_modes)))
    truths[0] = p.truth_coeffs
    return values, truths


@functools.cache
def lepskii_problem(n):
    """The diagonal problem at 300 modes, the Green hat problem at 1024 and
    the Green indicator problem (the fsum path) at 10240."""
    if n == 300:
        return make_diagonal_problem(300, 4.0, 4.0, 1e-4, seed=3)
    truth = GreenTruth.HAT if n == 1024 else GreenTruth.INDICATOR
    return make_green_problem(n, truth, 2.0**-15, frame="discrete")


def estimate_rows(scorer, y):
    eig = scorer.eigenvalues
    return np.array([np.sqrt(eig) * filter_value(scorer.spec, a, eig) * y for a in scorer.grid])


def exact_lepskii(scorer, y):
    """Lepskii's index by the float64 test: one syrk of the estimate rows,
    then fl(fl(G_ii + G_jj) - 2 G_ij) against each squared threshold."""
    coeff = estimate_rows(scorer, y)
    gram = coeff @ coeff.T
    sq_norm = gram.diagonal().copy()
    beyond = (sq_norm[:, None] + sq_norm) - 2.0 * gram > scorer._thresholds_sq
    beyond &= np.tri(len(coeff), k=-1, dtype=bool)
    return int(np.flatnonzero(~beyond.any(axis=1))[-1])


def full_gram_lepskii(scorer, rows, y):
    """The certified test over the whole float32 gram of the rows E from
    ``lepskii._float32_rows``, in the products of the batched test: g_ij =
    E_i . fl32(E_j w) and S_i = fl32(E_i^2) . w, w = fl32(y^2).  The last
    row that no lower row shows certainly beyond, if all its upper ends
    stay within their thresholds; -1 otherwise, or if y is out of range."""
    e32, _, p_max, centre = rows
    k, n = e32.shape
    e_max = 2.0 * p_max
    if not (p_max < _ROW_LIMIT and np.abs(y).max() < min(_ROW_LIMIT, _GRAM_LIMIT / max(e_max * math.sqrt(n), 1.0))):
        return -1
    w = np.square(y).astype(np.float32)
    gram = ((e32 * w) @ e32.T).astype(float)
    s = (np.square(e32) @ w).astype(float)
    a, b = _rounding(n, e_max, float((centre * y) @ (centre * y)), float(np.abs(y).max()))
    low, high, up, top = (x[:, 0] for x in _bounds(s[:, None], a, b, scorer._thresholds_sq))
    beyond = (gram - high < low[:, None]) & np.tri(k, k, -1, dtype=bool)
    cand = int(np.flatnonzero(~beyond.any(axis=1))[-1])
    return cand if (gram[cand, :cand] - up[:cand] >= top[cand]).all() else -1


def threshold_ratios(scorer, y):
    """Entry i := the largest ||f_i - f_j||^2 / threshold_j^2 over j < i."""
    coeff = estimate_rows(scorer, y)
    ratios = []
    for i in range(len(coeff)):
        dist_sq = ((coeff[i] - coeff[:i]) ** 2).sum(axis=1)
        ratios.append(max(dist_sq / scorer._thresholds_sq[:i], default=0.0))
    return ratios


def estimate_errors(scorer, values, truths, index):
    """Entry (r, e) := ||f_hat - truths[r]||^2 at grid index index[r, e], as
    the scorer must sum it."""
    errors = np.empty(index.shape)
    for r, e in np.ndindex(index.shape):
        eig, alpha = scorer.eigenvalues, float(scorer.grid[index[r, e]])
        diff = np.sqrt(eig) * filter_value(scorer.spec, alpha, eig) * values[r] - truths[r]
        errors[r, e] = _accumulate(diff * diff) if diff.size >= _COMPENSATED_FROM else diff @ diff
    return errors


def random_problem(rng, max_modes=20):
    n = int(rng.integers(2, max_modes + 1))
    eig = np.sort(rng.uniform(1e-4, 1.0, size=n))[::-1]
    truth = rng.normal(0, 1, size=n) * rng.uniform(0.1, 2.0)
    sigma = 10.0 ** rng.uniform(-3, -0.5)
    return SpectralProblem(eig, truth, sigma)


class TestBuildGrid:
    def test_hand_counted_sizes(self):
        grid = build_grid(0.01, 1.0, 1.2)
        assert len(grid) == 51  # K = floor(log(1e4)/log(1.2)) = 50
        assert grid[0] == pytest.approx(1e-4)

    def test_exact_power_endpoint(self):
        grid = build_grid(1.0, 1.44, 1.2)
        np.testing.assert_allclose(grid, [1.0, 1.2, 1.44], rtol=1e-12)

    def test_values_capped_by_lambda_max(self):
        grid = build_grid(0.03, 0.77, 1.3)
        assert grid[-1] <= 0.77
        assert grid[-1] * 1.3 > 0.77

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            build_grid(2.0, 1.0, 1.2)

    def test_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            build_grid(0.1, 1.0, 1.0)


class TestChooseOracle:
    def test_zero_truth_picks_largest_alpha(self):
        p = SpectralProblem([1.0, 0.5, 0.25], [0.0, 0.0, 0.0], 0.05)
        grid = build_grid(p.sigma, 1.0, 1.4)
        assert oracle_pick(p, FilterSpec("tikhonov"), grid) == len(grid) - 1

    def test_vanishing_noise_picks_smallest_alpha(self):
        p = SpectralProblem([1.0, 0.5, 0.25], [1.0, 1.0, 1.0], 1e-12)
        grid = np.array([1e-3, 1.4e-3, 1.96e-3])
        assert oracle_pick(p, FilterSpec("tikhonov"), grid) == naive_oracle(p, FilterSpec("tikhonov"), grid) == 0

    def test_alpha_is_grid_member(self):
        p = random_problem(np.random.default_rng(0))
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.3)
        spec = FilterSpec("tikhonov")
        index = oracle_pick(p, spec, grid)
        score = GridScorer(p.eigenvalues, p.sigma, spec, grid).batch_oracle_scores(p.truth_coeffs[None])[0, index]
        assert score <= min(direct_risk(p, spec, a).total for a in grid)
        assert score == direct_risk(p, spec, grid[index]).total

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(101)
        for trial in range(100):
            p = random_problem(rng)
            grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
            for spec in ALL_FAMILIES(m=2):
                assert oracle_pick(p, spec, grid) == naive_oracle(p, spec, grid)
        for p, spec, grid, _ in realistic_cases():
            assert oracle_pick(p, spec, grid) == naive_oracle(p, spec, grid)


class TestChoosePred:
    def test_zero_observations_pick_largest_alpha(self):
        eig = np.array([1.0, 0.5, 0.25])
        obs = np.zeros(3)
        grid = build_grid(0.05, 1.0, 1.4)
        assert pred_pick(eig, 0.05, FilterSpec("tikhonov"), grid, obs) == len(grid) - 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.3)
        obs = sample_observations(p, 9)
        base = pred_pick(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid, obs)
        for c in (0.1, 7.0):
            scaled = pred_pick(p.eigenvalues, c * p.sigma, FilterSpec("tikhonov"), grid, c * obs)
            assert scaled == base

    def test_tie_breaks_to_smallest_index(self):
        # single mode with spectral cut-off: both alphas below lambda give
        # s = 1 exactly, so the two smallest grid points tie at the minimum
        eig = np.array([1.0])
        obs = np.array([1.0])
        grid = np.array([0.25, 0.5, 2.0])
        index = pred_pick(eig, 0.1, FilterSpec("spectral_cutoff"), grid, obs)
        scores = [
            empirical_prediction_risk(eig, 0.1, FilterSpec("spectral_cutoff"), a, obs)
            for a in grid
        ]
        assert scores[0] == scores[1] == min(scores)  # genuine tie exercised
        assert index == 0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(202)
        for trial in range(100):
            p = random_problem(rng)
            grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
            obs = sample_observations(p, int(rng.integers(0, 2**32)))
            for spec in ALL_FAMILIES(m=2):
                got = pred_pick(p.eigenvalues, p.sigma, spec, grid, obs)
                assert got == naive_pred(p.eigenvalues, p.sigma, spec, grid, obs)
        for p, spec, grid, obs in realistic_cases():
            got = pred_pick(p.eigenvalues, p.sigma, spec, grid, obs)
            assert got == naive_pred(p.eigenvalues, p.sigma, spec, grid, obs)


class TestChooseLepskii:
    def test_zero_observations_pick_largest_alpha(self):
        eig = np.array([1.0, 0.5, 0.25])
        obs = np.zeros(3)
        grid = build_grid(0.05, 1.0, 1.4)
        assert lepskii_pick(eig, 0.05, FilterSpec("tikhonov"), grid, obs) == len(grid) - 1

    def test_index_trend_in_sigma(self):
        # median selected index weakly decreases as sigma decreases
        eig = np.array([0.5])
        truth = np.array([1.0])
        medians = []
        for sigma in (0.5, 0.05, 0.005):
            p = SpectralProblem(eig, truth, sigma)
            grid = build_grid(sigma, 0.5, 1.3)
            frac = []
            for seed in range(200):
                obs = sample_observations(p, substream_seed(33, seed))
                frac.append(lepskii_pick(eig, sigma, FilterSpec("tikhonov"), grid, obs) / (len(grid) - 1))
            medians.append(float(np.median(frac)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(303)
        for trial in range(100):
            p = random_problem(rng)
            grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
            obs = sample_observations(p, int(rng.integers(0, 2**32)))
            for spec in ALL_FAMILIES(m=2):
                got = lepskii_pick(p.eigenvalues, p.sigma, spec, grid, obs)
                assert got == naive_lepskii(p.eigenvalues, p.sigma, spec, grid, obs)
        for p, spec, grid, obs in realistic_cases():
            got = lepskii_pick(p.eigenvalues, p.sigma, spec, grid, obs)
            assert got == naive_lepskii(p.eigenvalues, p.sigma, spec, grid, obs)

    @pytest.mark.parametrize("spec", ALL_FAMILIES(), ids=lambda spec: spec.family)
    def test_squared_thresholds_are_pythons_square_of_the_threshold_bitwise(self, spec):
        # the scorer squares each threshold with np.float_power(x, 2.0),
        # which calls libm's pow per element, as Python's ** 2 does; x * x
        # (np.square) differs from pow(x, 2) in the last bit for a few x, so
        # every row of the hat and efficiency grids of the benchmark pins
        # the squaring
        hat = make_green_problem(1024, GreenTruth.HAT, 2.0**-15, frame="discrete").eigenvalues
        diagonal = make_diagonal_problem(300, 4.0, 4.0, 0.1, 0).eigenvalues
        cases = [(hat, math.pi**-4.0, 2.0**-k) for k in range(15, 22)]
        cases += [(diagonal, 1.0, 10.0**-k) for k in range(1, 7)]
        for eig, lambda_max, sigma in cases:
            grid = build_grid(sigma, lambda_max, 1.2)
            expected = np.array([lepskii_threshold(eig, sigma, spec, alpha) ** 2 for alpha in grid])
            assert GridScorer(eig, sigma, spec, grid)._thresholds_sq.tobytes() == expected.tobytes(), sigma


class TestGridScorer:
    def test_shared_buffer_matches_fresh_scorers(self):
        # one buffer sized for the largest grid serves every noise level
        sigmas = (2.0**-15, 2.0**-21)
        problems = [make_green_problem(1024, GreenTruth.HAT, s, frame="discrete") for s in sigmas]
        grids = [build_grid(p.sigma, float(p.eigenvalues[0]), 1.2) for p in problems]
        buffer = np.empty((max(map(len, grids)), 1024))

        def selections(scorer, p, obs):
            truths, values = p.truth_coeffs[None], obs[None]
            oracle, pred = scorer.batch_picks(truths, values)
            lep = scorer.batch_lepskii_picks(values)
            scores = scorer.batch_oracle_scores(truths), scorer.batch_pred_scores(values)
            return [oracle.tolist(), pred.tolist(), lep.tolist()] + [x.tobytes() for x in scores]

        for p, grid in zip(problems, grids):
            shared = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid, buffer)
            for seed in range(3):
                obs = sample_observations(p, seed)
                fresh = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
                assert selections(shared, p, obs) == selections(fresh, p, obs)

    def test_pred_scores_equal_the_scalar_score_bitwise(self):
        for p, spec, grid, obs in realistic_cases():
            scores = GridScorer(p.eigenvalues, p.sigma, spec, grid).batch_pred_scores(obs[None])[0]
            expected = [
                empirical_prediction_risk(p.eigenvalues, p.sigma, spec, a, obs) for a in grid
            ]
            assert scores.tobytes() == np.array(expected).tobytes()

    def test_pred_scores_form_no_oracle_block(self, monkeypatch):
        # pred's rows read s evaluated again, offsets included, and the
        # (1 - s)^2 block only the oracle and the picks read
        p = random_problem(np.random.default_rng(5))
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
        values, _ = batch_rows(p)
        expected = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid).batch_pred_scores(values)
        monkeypatch.setattr(GridScorer, "_terms", lambda self, *args: pytest.fail("a (1 - s)^2 block was formed"))
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        for _ in range(2):
            assert scorer.batch_pred_scores(values).tobytes() == expected.tobytes()

    def test_pred_scores_after_picks_that_formed_part_of_the_grid(self):
        # hat observations at sigma = 2^-15 from 60 % of the grid: the picks
        # form the pred offsets of those rows only, and pred's scores at
        # every grid point still equal the scalar score; picks after them
        # equal a fresh scorer's
        p = make_green_problem(1024, GreenTruth.HAT, 2.0**-15, frame="discrete")
        grid = build_grid(p.sigma, math.pi**-4.0, 1.2)
        values = np.array([sample_observations(p, 100 + r) for r in range(3)])
        truths = np.broadcast_to(p.truth_coeffs, values.shape)
        spec = FilterSpec("tikhonov")
        scorer = GridScorer(p.eigenvalues, p.sigma, spec, grid, cut=0.6)
        scorer.batch_picks(truths, values)
        assert scorer._formed < len(grid)
        scores = scorer.batch_pred_scores(values)
        for y, row in zip(values, scores):
            expected = [empirical_prediction_risk(p.eigenvalues, p.sigma, spec, a, y) for a in grid]
            assert row.tobytes() == np.array(expected).tobytes()
        picks = scorer.batch_picks(truths, values)
        expected = GridScorer(p.eigenvalues, p.sigma, spec, grid).batch_picks(truths, values)
        assert [x.tolist() for x in picks] == [x.tolist() for x in expected]

    def test_batch_scores_equal_the_single_replication_scores_bitwise(self):
        for p, spec, grid, _ in realistic_cases():
            scorer = GridScorer(p.eigenvalues, p.sigma, spec, grid)
            values, truths = batch_rows(p)
            pred = scorer.batch_pred_scores(values)
            oracle = scorer.batch_oracle_scores(truths)
            for r in range(len(values)):
                expected = single_replication_scores(p, spec, grid, values[r], "pred")
                assert pred[r].tobytes() == expected.tobytes()
                expected = single_replication_scores(p, spec, grid, truths[r], "oracle")
                assert oracle[r].tobytes() == expected.tobytes()

    def test_oracle_scores_equal_the_direct_risk_bitwise(self):
        for p, spec, grid, _ in realistic_cases():
            scorer = GridScorer(p.eigenvalues, p.sigma, spec, grid)
            scores = scorer.batch_oracle_scores(p.truth_coeffs[None])
            expected = [direct_risk(p, spec, a).total for a in grid]
            assert scores[0].tobytes() == np.array(expected).tobytes()

    def test_errors_read_from_the_lepskii_rows_equal_the_estimates_bitwise(self):
        for p, spec, grid, obs in realistic_cases():
            scorer = GridScorer(p.eigenvalues, p.sigma, spec, grid)
            picks = (0, len(grid) // 2, len(grid) - 1)
            (best,) = scorer.batch_lepskii_picks(obs[None])
            (errors,) = scorer.batch_errors(obs[None], p.truth_coeffs[None], [(*picks, best)])
            assert best == scorer.batch_lepskii_picks(obs[None])[0]
            expected = []
            for i in (*picks, best):
                diff = estimate_coefficients(p, spec, float(grid[i]), obs) - p.truth_coeffs
                expected.append(float(diff @ diff))
            assert errors.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=3), ids=lambda s: s.family)
    def test_a_lepskii_batch_equals_each_replication_alone_bitwise(self, spec):
        # the float32 rows of a call take the bytes of the grid's K buffer
        # rows, whatever rows lie beyond them
        for p in (
            make_diagonal_problem(300, 4.0, 4.0, 1e-4, seed=3),
            make_green_problem(1024, GreenTruth.HAT, 2.0**-18, frame="discrete"),
            make_green_problem(10240, GreenTruth.INDICATOR, 2.0**-15, frame="discrete"),  # the fsum path
        ):
            grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
            k = len(grid)
            values, truths = batch_rows(p, 3)
            picks = np.array([[0, k // 2], [k - 1, 1], [k // 3, k // 3]])
            alone = GridScorer(p.eigenvalues, p.sigma, spec, grid)
            expected = [lepskii_errors(alone, values[r, None], truths[r, None], picks[r, None]) for r in range(3)]
            for rows in (k, k + k // 2, 2 * k, 2 * k + 7):
                scorer = GridScorer(p.eigenvalues, p.sigma, spec, grid, np.empty((rows, p.n_modes)))
                best, errors = lepskii_errors(scorer, values, truths, picks)
                assert best.tolist() == [int(index) for (index,), _ in expected]
                assert errors.tobytes() == np.concatenate([errs for _, errs in expected]).tobytes()
                assert scorer.batch_lepskii_picks(values).tolist() == best.tolist()

    def test_interleaved_scorers_on_one_buffer_read_no_stale_rows(self):
        # each call builds its float32 rows in the shared buffer, and the
        # other grid's calls overwrite them in between
        problems = [make_green_problem(1024, GreenTruth.HAT, s, frame="discrete") for s in (2.0**-15, 2.0**-21)]
        grids = [build_grid(p.sigma, float(p.eigenvalues[0]), 1.2) for p in problems]
        buffer = np.empty((max(map(len, grids)), 1024))
        cases = []
        for p, grid, spec in zip(problems, grids, (FilterSpec("tikhonov"), FilterSpec("showalter"))):
            shared = GridScorer(p.eigenvalues, p.sigma, spec, grid, buffer)
            alone = GridScorer(p.eigenvalues, p.sigma, spec, grid)
            values, truths = batch_rows(p, 3)
            picks = np.stack(alone.batch_picks(truths, values), axis=1)
            expected = lepskii_errors(alone, values, truths, picks)
            cases.append((shared, values, truths, picks, expected))
        assert len(grids[0]) < len(grids[1]) == len(buffer)
        for _ in range(2):
            for shared, values, truths, picks, (best, errors) in cases:
                got_best, got_errors = lepskii_errors(shared, values, truths, picks)
                assert got_best.tolist() == best.tolist() and got_errors.tobytes() == errors.tobytes()
                assert pred_picks(shared, values).tolist() == picks[:, 1].tolist()

    def test_a_lepskii_batch_rejects_rows_of_the_wrong_shape(self):
        p = random_problem(np.random.default_rng(4))
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        for values in (np.ones(p.n_modes), np.ones((2, p.n_modes + 1))):
            with pytest.raises(ValueError):
                scorer.batch_lepskii_picks(values)
            with pytest.raises(ValueError):
                scorer.batch_errors(values, np.ones((2, p.n_modes)), [(0,), (0,)])
        for truths in (np.ones((3, p.n_modes)), np.ones((2, p.n_modes - 1))):
            with pytest.raises(ValueError):
                scorer.batch_errors(np.ones((2, p.n_modes)), truths, [(0,), (0,)])

    @pytest.mark.parametrize(
        "malformed",
        [[(0,)], [(-1,)] * 3, [(0.7,)] * 3, [(51,)] * 3, [()] * 3],
        ids=["one row for three", "negative", "fraction", "K", "no column"],
    )
    def test_the_errors_reject_a_malformed_index(self, malformed):
        p = make_diagonal_problem(300, 4.0, 4.0, 1e-2, seed=3)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
        assert len(grid) == 51
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        values, truths = batch_rows(p, 3)
        with pytest.raises(ValueError, match="index"):
            scorer.batch_errors(values, truths, malformed)
        if len(malformed) == 3:
            with pytest.raises(ValueError, match="index"):
                scorer.batch_errors(values[:1], truths[:1], malformed[:1])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([300, 1024, 10240]),
        family=st.integers(0, 4),
        sigma_exponent=st.floats(-21.0, -7.0),
        buffer=st.sampled_from(["K", "3K/2", "2K + 7"]),
        tie=st.sampled_from([None, -1e-6, -1e-9, 1e-9, 1e-6]),
        level=st.integers(0, 2**16),
        guess=st.sampled_from(["0", "K - 1", "pick - 10", "pick + 10", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certified_lepskii_picks_equal_the_exact_test_bitwise(
        self, n, family, sigma_exponent, buffer, tie, level, guess, seed
    ):
        p = lepskii_problem(n)
        sigma = 2.0**sigma_exponent
        spec = ALL_FAMILIES(m=3)[family]
        grid = build_grid(sigma, float(p.eigenvalues[0]), 1.2)
        k = len(grid)
        rows = {"K": k, "3K/2": k + k // 2, "2K + 7": 2 * k + 7}[buffer]
        scorer = GridScorer(p.eigenvalues, sigma, spec, grid, np.empty((rows, n)))
        rng = np.random.default_rng(seed)
        truths = p.truth_coeffs * (1.0 + 0.1 * rng.standard_normal((3, n)))
        values = np.sqrt(p.eigenvalues) * truths + sigma * rng.standard_normal((3, n))
        if tie is not None:
            # scale the last row so that a grid row that may decide the pick
            # lies within a relative `tie` of its largest threshold ratio
            ratios = threshold_ratios(scorer, values[2])
            deciding = [i for i in range(1, k) if 0 < ratios[i] < min(ratios[i + 1 :], default=np.inf)]
            if deciding:
                values[2] *= math.sqrt((1.0 + tie) / ratios[deciding[level % len(deciding)]])
        picks = rng.integers(0, k, size=(3, 2))
        best, errors = lepskii_errors(scorer, values, truths, picks)
        expected = [exact_lepskii(scorer, y) for y in values]
        assert best.tolist() == expected
        assert errors.tobytes() == estimate_errors(scorer, values, truths, np.column_stack([picks, best])).tobytes()
        # the guess, set as the scorer's last pick, centres the rows and
        # gives the free column the scan starts from: it may cost a
        # certificate only where the whole float32 gram could not give one
        # either
        g = {"0": 0, "K - 1": k - 1, "pick - 10": expected[0] - 10, "pick + 10": expected[0] + 10}.get(guess)
        scorer._guess = int(np.clip(rng.integers(0, k) if g is None else g, 0, k - 1))
        rows = lepskii._float32_rows(scorer._buf, scorer._guess, scorer._rows)
        if rows:
            y_max = np.abs(values).max(axis=1)
            args = scorer._buf, scorer._thresholds_sq, values, y_max, scorer._guess, scorer._rows
            certified = lepskii._certify(*args)[0]
            for y, pick, got in zip(values, expected, certified):
                assert got == pick or got == full_gram_lepskii(scorer, rows, y) == -1

    def test_the_rows_are_rebuilt_after_a_fallback(self, monkeypatch):
        # the float64 test of a replication the batch could not certify
        # overwrites the float32 rows, so it runs after the whole batch is
        # certified, and the next call forms the rows again
        p = lepskii_problem(1024)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
        values, truths = batch_rows(p, 6)
        picks = [(0, r) for r in range(6)]
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        certified = lepskii_errors(scorer, values, truths, picks)
        calls = []
        certify = lepskii._certify

        def every_other(*args):
            best, need = certify(*args)
            for r in range(len(best)):
                calls.append(len(calls) % 2 == 0)
                best[r] = best[r] if calls[-1] else -1
            return best, need

        fallback, allocated = lepskii._fallback, []
        monkeypatch.setattr(lepskii, "_certify", every_other)
        monkeypatch.setattr(lepskii, "_fallback", lambda k: allocated.append(k) or fallback(k))
        best, errors = lepskii_errors(scorer, values, truths, picks)
        # the three fallbacks of the call share the arrays of its first
        assert len(calls) == 6 and allocated == [len(grid)]
        assert best.tolist() == certified[0].tolist() == [exact_lepskii(scorer, y) for y in values]
        assert errors.tobytes() == certified[1].tobytes()
        again = lepskii_errors(scorer, values, truths, picks)
        assert again[0].tolist() == best.tolist() and again[1].tobytes() == errors.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e39, 2.0**62])
    def test_rows_outside_float32_range_take_the_exact_test(self, bad, monkeypatch):
        # 1e39 is beyond float32 range, and 2^62 is inside it but at the
        # limit that keeps the float32 squares and gram sums finite
        p = lepskii_problem(300)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
        values, truths = batch_rows(p, 3)
        values[1, 7] = bad
        outcomes = []
        certify = lepskii._certify

        def recording(*args):
            best, need = certify(*args)
            outcomes.extend(best.tolist())
            return best, need

        monkeypatch.setattr(lepskii, "_certify", recording)
        for spec in (FilterSpec("tikhonov"), FilterSpec("spectral_cutoff")):
            outcomes.clear()
            scorer = GridScorer(p.eigenvalues, p.sigma, spec, grid)
            with np.errstate(invalid="ignore") if math.isinf(bad) else contextlib.nullcontext():
                best, errors = lepskii_errors(scorer, values, truths, [(0,)] * 3)
                expected = [exact_lepskii(scorer, y) for y in values]
            assert outcomes[1] == -1 and outcomes[0] >= 0 and outcomes[-1] >= 0
            assert best.tolist() == expected
            assert np.isfinite(errors[0]).all() and np.isfinite(errors[2]).all()

    @pytest.mark.parametrize("bad", [math.nan, 2.0**62])
    def test_a_row_outside_float32_range_mid_batch_leaves_the_other_picks(self, bad, monkeypatch):
        # a batch of nine with the bad row in the middle: that row alone
        # takes the float64 test, and the others keep the picks and errors
        # they have in a batch without it
        p = lepskii_problem(1024)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
        values, truths = batch_rows(p, 9)
        clean = lepskii_errors(GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid), values, truths)
        values[4, 100] = bad
        outcomes = []
        certify = lepskii._certify

        def recording(*args):
            best, need = certify(*args)
            outcomes.extend(best.tolist())
            return best, need

        monkeypatch.setattr(lepskii, "_certify", recording)
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        best, errors = lepskii_errors(scorer, values, truths)
        assert [r for r, got in enumerate(outcomes) if got < 0] == [4]
        assert best[4] == exact_lepskii(scorer, values[4])
        others = [0, 1, 2, 3, 5, 6, 7, 8]
        assert best[others].tolist() == clean[0][others].tolist() == outcomes[:4] + outcomes[5:]
        assert errors[others].tobytes() == clean[1][others].tobytes()

    def test_rows_of_sqrt_lambda_q_outside_float32_range_take_the_exact_test(self, monkeypatch):
        # at lambda = alpha = 1e-40, sqrt(lambda) q = 1/(2 sqrt(alpha)) = 5e19,
        # beyond the 2^62 that the float32 rows allow
        eig = np.array([1.0, 1e-40, 0.0])
        grid = 1e-40 * 1.2 ** np.arange(8)
        scorer = GridScorer(eig, 1e-20, FilterSpec("tikhonov"), grid)
        certify = lepskii._certify

        def refusing(*args):
            best, need = certify(*args)
            if (best >= 0).any():
                pytest.fail("certified")
            return best, need

        monkeypatch.setattr(lepskii, "_certify", refusing)
        monkeypatch.setattr(lepskii, "_gram_columns", lambda *args: pytest.fail("gram formed"))
        values = np.array([[1.0, 1e-14, 1e-15], [0.5, -2e-15, 0.0]])
        assert scorer.batch_lepskii_picks(values).tolist() == [exact_lepskii(scorer, y) for y in values]

    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=2), ids=lambda spec: spec.family)
    def test_a_one_point_grid_is_certified_without_the_exact_test(self, spec, monkeypatch):
        # the one row is its own centre: E_0 = 0, no row lies below row 0,
        # and the certified test gives index 0 with no K x K arrays
        p = lepskii_problem(300)
        values, _ = batch_rows(p, 3)
        scorer = GridScorer(p.eigenvalues, p.sigma, spec, np.array([0.01]))
        monkeypatch.setattr(lepskii, "_fallback", lambda k: pytest.fail("fell back"))
        assert scorer.batch_lepskii_picks(values).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("n", [8, 32])
    def test_a_large_batch_at_few_modes_certifies_in_chunks(self, n):
        # a batch at 8 or 32 modes may hold 4096 or 1024 replications; the
        # certified test takes at most n of them at a time, so 500 take
        # little more memory than n do: a few arrays of one entry per
        # replication, not (rows, replications) arrays of all 500
        p = make_diagonal_problem(n, 4.0, 4.0, 1e-6, 0)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
        rng = np.random.default_rng(1)
        values = np.sqrt(p.eigenvalues) * p.truth_coeffs + p.sigma * rng.standard_normal((500, n))
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        scorer.batch_lepskii_picks(values[:n])
        peaks = []
        for batch in (values[:n], values):
            tracemalloc.start()
            try:
                best = scorer.batch_lepskii_picks(batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(grid) > 100 and best[::50].tolist() == [exact_lepskii(scorer, y) for y in values[::50]]
        assert peaks[1] - peaks[0] <= 64 * len(values)

    def test_a_large_batch_at_few_modes_is_picked_in_chunks(self):
        # at 8 modes a batch may hold 4096 replications; the picks take at
        # most n rows at a time, so 500 truths and 500 observations stay
        # within the bound of the study runs' memory above the buffer
        p = make_diagonal_problem(8, 4.0, 4.0, 1e-6, 0)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
        rng = np.random.default_rng(3)
        truths = p.truth_coeffs * (1.0 + 0.1 * rng.standard_normal((500, 8)))
        values = np.sqrt(p.eigenvalues) * truths + p.sigma * rng.standard_normal((500, 8))
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        expected = (
            np.argmin(scorer.batch_oracle_scores(truths), axis=1),
            np.argmin(scorer.batch_pred_scores(values), axis=1),
        )
        tracemalloc.start()
        try:
            oracle, pred = scorer.batch_picks(truths, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 152
        assert oracle.tolist() == expected[0].tolist() and pred.tolist() == expected[1].tolist()
        assert peak <= 0.75 * 2**20

    def test_a_large_batch_at_one_mode_forms_few_blocks(self, monkeypatch):
        # one block serves every chunk of truths, and a chunk takes at least
        # _PICK_ROWS rows, not one row per mode
        p = make_diagonal_problem(1, 4.0, 4.0, 1e-6, 0)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
        rng = np.random.default_rng(4)
        truths = p.truth_coeffs * (1.0 + 0.1 * rng.standard_normal((500, 1)))
        values = np.sqrt(p.eigenvalues) * truths + p.sigma * rng.standard_normal((500, 1))
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        expected = (
            np.argmin(scorer.batch_oracle_scores(truths), axis=1),
            np.argmin(scorer.batch_pred_scores(values), axis=1),
        )
        formed = []
        terms = GridScorer._terms
        monkeypatch.setattr(GridScorer, "_terms", lambda self, *args: formed.append(1) or terms(self, *args))
        assert oracle_picks(scorer, truths).tolist() == expected[0].tolist()
        assert len(formed) == 1
        oracle, pred = scorer.batch_picks(truths, values)
        assert oracle.tolist() == expected[0].tolist() and pred.tolist() == expected[1].tolist()
        # 1000 rows in 32 chunks of at most 32: one block serves chunks 0-15
        # (the last of them the first to hold observations), and each of
        # the 16 later chunks forms its own
        assert len(formed) == 1 + 1 + 16

    def test_rejects_rows_of_the_wrong_shape(self):
        p = random_problem(np.random.default_rng(2))
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        for call, rows in (
            (scorer.batch_pred_scores, np.ones(p.n_modes)),
            (scorer.batch_oracle_scores, np.ones((2, p.n_modes + 1))),
            (functools.partial(oracle_picks, scorer), np.ones(p.n_modes)),
            (scorer.batch_lepskii_picks, np.ones((1, p.n_modes - 1))),
        ):
            with pytest.raises(ValueError):
                call(rows)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 2500),
        k=st.integers(1, 120),
        batch=st.integers(1, 6),
        family=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_batch_scores_like_each_replication_alone(self, n, k, batch, family, seed):
        rng = np.random.default_rng(seed)
        eig = np.sort(rng.uniform(1e-6, 1.0, size=n))[::-1]
        sigma = 10.0 ** rng.uniform(-6, -1)
        grid = sigma**2 * 1.2 ** np.arange(k)
        scorer = GridScorer(eig, sigma, ALL_FAMILIES(m=3)[family], grid)
        values = rng.normal(0.0, 1.0, size=(batch, n))
        truths = rng.normal(0.0, 1.0, size=(batch, n))
        pred, oracle = scorer.batch_pred_scores(values), scorer.batch_oracle_scores(truths)
        for r in range(batch):
            assert pred[r].tobytes() == scorer.batch_pred_scores(values[r : r + 1])[0].tobytes()
            assert oracle[r].tobytes() == scorer.batch_oracle_scores(truths[r : r + 1])[0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 2500),
        k=st.integers(1, 120),
        batch=st.integers(1, 6),
        family=st.integers(0, 4),
        zero_rows=st.sets(st.integers(0, 5)),
        zero_share=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_picks_are_the_first_minimum_of_the_exact_scores(
        self, n, k, batch, family, zero_rows, zero_share, seed
    ):
        rng = np.random.default_rng(seed)
        eig = np.sort(rng.uniform(1e-6, 1.0, size=n))[::-1]
        sigma = 10.0 ** rng.uniform(-6, -1)
        grid = sigma**2 * 1.2 ** np.arange(k)
        scorer = GridScorer(eig, sigma, ALL_FAMILIES(m=3)[family], grid)
        rows = []
        for scale in (1.0, sigma):  # truths, then observations of the noise's size
            block = rng.normal(0.0, scale, size=(batch, n))
            # zeros within a row move the pairwise sums' rounding against a
            # BLAS product's, so near-ties of the two orders come up
            block[rng.uniform(size=block.shape) < zero_share] = 0.0
            block[[r for r in zero_rows if r < batch]] = 0.0
            rows.append(block)
        truths, values = rows
        oracle = oracle_picks(scorer, truths)
        pred = pred_picks(scorer, values)
        expected = (
            np.argmin(scorer.batch_oracle_scores(truths), axis=1),
            np.argmin(scorer.batch_pred_scores(values), axis=1),
        )
        assert oracle.tolist() == expected[0].tolist()
        assert pred.tolist() == expected[1].tolist()
        # both rules from one block, as the efficiency study picks them: the
        # oracle rows read the block before pred's exact rows overwrite it
        both = scorer.batch_picks(truths[1:], values)
        assert both[0].tolist() == expected[0][1:].tolist() and both[1].tolist() == expected[1].tolist()

    def test_exact_ties_go_to_the_smallest_index(self, monkeypatch):
        # spectral cut-off: s is 0 or 1, so grid points with no eigenvalue
        # between them have the same s-row and exactly the same score
        eig = 2.0 ** -np.arange(0.0, 40.0, 4.0)
        sigma = 2.0**-20
        grid = build_grid(sigma, 1.0, 1.05)
        scorer = GridScorer(eig, sigma, FilterSpec("spectral_cutoff"), grid)
        rescored = []
        exact = GridScorer._exact

        def counting(block, offset, grid_rows, weights, weight_rows):
            rescored.extend(np.bincount(weight_rows, minlength=len(weights)))
            return exact(block, offset, grid_rows, weights, weight_rows)

        monkeypatch.setattr(GridScorer, "_exact", staticmethod(counting))
        rng = np.random.default_rng(3)
        truths = np.zeros((4, eig.size))
        truths[:, 5:] = rng.normal(0.0, 1e-3, size=(4, eig.size - 5))
        values = truths + sigma * rng.normal(size=truths.shape)
        picks = [oracle_picks(scorer, truths), pred_picks(scorer, values)]
        # each pick re-scored the tied rows, not every row
        assert len(rescored) == 8 and all(1 < count < len(grid) for count in rescored)
        scores = [scorer.batch_oracle_scores(truths), scorer.batch_pred_scores(values)]
        for rule_picks, rule_scores in zip(picks, scores):
            for pick, row in zip(rule_picks, rule_scores):
                tied = np.flatnonzero(row == row.min())
                assert len(tied) > 1 and pick == tied[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_non_finite_approximate_scores_fall_back_to_the_exact_scores(self, bad):
        # 1e200 squares to inf; through mode 4 the cut-off pred scores are
        # -inf at the grid points up to lambda_4 and NaN (0 * inf) above it,
        # so the first minimum is not at index 0
        eig = 2.0 ** -np.arange(0.0, 40.0, 4.0)
        sigma = 2.0**-20
        grid = build_grid(sigma, 1.0, 1.05)
        for spec in (FilterSpec("spectral_cutoff"), FilterSpec("tikhonov")):
            scorer = GridScorer(eig, sigma, spec, grid)
            rows = np.full((2, eig.size), 1e-3)
            rows[0, 4] = bad
            with np.errstate(over="ignore", invalid="ignore"):
                results = (
                    (oracle_picks(scorer, rows), scorer.batch_oracle_scores(rows)),
                    (pred_picks(scorer, rows), scorer.batch_pred_scores(rows)),
                )
            for picks, scores in results:
                assert not np.isfinite(scores[0]).all()
                assert picks.tolist() == np.argmin(scores, axis=1).tolist()

    @pytest.mark.parametrize(
        "spec, eigenvalues, alphas",
        [
            (FilterSpec("landweber"), [1.0 + 1e-15, 0.5], [0.1, 0.2]),
            (FilterSpec("tikhonov"), [0.5, -1e-300], [0.1, 0.2]),
            (FilterSpec("tikhonov"), [1.0, math.nan], [0.01, 0.1]),
            (FilterSpec("tikhonov"), [math.inf, 0.5], [0.01, 0.1]),
            (FilterSpec("tikhonov"), [0.5, 0.25], [0.0, 0.1]),
            (FilterSpec("tikhonov"), [0.5, 0.25], [-0.1, 0.2]),
            (FilterSpec("showalter"), [0.5, 0.25], [0.1, math.nan]),
            # the cut and Lepskii's less-regularized rows read the grid in
            # ascending alpha, so no other order is accepted
            (FilterSpec("tikhonov"), [0.5, 0.25], [0.1, 0.3, 0.2]),
            (FilterSpec("tikhonov"), [0.5, 0.25], [0.3, 0.2, 0.1]),
        ],
        ids=[
            "landweber-lambda-above-one",
            "negative-lambda",
            "nan-lambda",
            "inf-lambda",
            "zero-alpha",
            "negative-alpha",
            "nan-alpha",
            "shuffled-alpha",
            "descending-alpha",
        ],
    )
    def test_refuses_bad_inputs_at_construction(self, spec, eigenvalues, alphas):
        with pytest.raises(ValueError):
            GridScorer(np.array(eigenvalues), 0.01, spec, np.array(alphas))

    @pytest.mark.parametrize("grid", [np.empty(0), np.array([[0.1, 0.2]])], ids=["empty", "2-d"])
    def test_refuses_an_empty_or_2d_grid_at_construction(self, grid):
        with pytest.raises(ValueError, match="grid must be a nonempty 1-d array of alphas"):
            GridScorer(np.array([0.5, 0.25]), 0.01, FilterSpec("tikhonov"), grid)

    def test_later_changes_to_the_callers_eigenvalues_change_no_score(self):
        for p, spec, grid, obs in realistic_cases():
            eig = p.eigenvalues.copy()
            scorer = GridScorer(eig, p.sigma, spec, grid)

            def scores():
                values, truths = obs[None], p.truth_coeffs[None]
                lepskii = lepskii_errors(scorer, values, truths, [(0, len(grid) - 1)])
                return (
                    scorer.batch_pred_scores(values).tobytes(),
                    scorer.batch_oracle_scores(truths).tobytes(),
                    *(x.tobytes() for x in lepskii),
                )

            before = scores()
            eig[:] = eig[::-1] * 0.5
            assert scores() == before
            assert eig.flags.writeable and not scorer.eigenvalues.flags.writeable

    def test_rejects_a_buffer_of_the_wrong_shape(self):
        p = random_problem(np.random.default_rng(1))
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
        for shape in ((len(grid) - 1, p.n_modes), (len(grid), p.n_modes + 1)):
            with pytest.raises(ValueError):
                GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid, np.empty(shape))

