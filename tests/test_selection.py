import contextlib
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invreg.filters import ALL_FAMILIES, filter_value, landweber, s_value, showalter, spectral_cutoff, tikhonov
from invreg.problems import TestFunction as GreenTruth
from invreg.problems import make_diagonal_problem, make_green_problem
from invreg.model import (
    Observations,
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
from invreg.selection import (
    GridScorer,
    ParameterGrid,
    apriori_alpha_polynomial,
    build_grid,
    choose_lepskii,
    choose_oracle,
    choose_pred,
)


def naive_oracle(problem, spec, grid):
    best, best_idx = math.inf, 0
    for i, a in enumerate(grid.values):
        total = direct_risk(problem, spec, a).total
        if total < best:
            best, best_idx = total, i
    return best_idx


def naive_pred(eigenvalues, sigma, spec, grid, obs):
    best, best_idx = math.inf, 0
    for i, a in enumerate(grid.values):
        score = empirical_prediction_risk(eigenvalues, sigma, spec, a, obs)
        if score < best:
            best, best_idx = score, i
    return best_idx


def naive_lepskii(eigenvalues, sigma, spec, grid, obs):
    # O(K^2) double loop with explicit estimate vectors
    estimates = []
    problem_like = np.sqrt(eigenvalues)
    for a in grid.values:
        from invreg.filters import filter_value

        estimates.append(problem_like * filter_value(spec, a, eigenvalues) * obs.values)
    best = 0
    for i in range(len(grid.values)):
        ok = True
        for j in range(i):
            dist = np.linalg.norm(estimates[i] - estimates[j])
            if dist > lepskii_threshold(eigenvalues, sigma, spec, float(grid.values[j])):
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
    s = np.array([s_value(spec, alpha, p.eigenvalues) for alpha in grid.values])
    if rule == "pred":
        terms = (s**2 - 2.0 * s) * row**2
        return _accumulate_rows(terms) + 2.0 * p.sigma**2 * _accumulate_rows(s)
    q = np.array([filter_value(spec, alpha, p.eigenvalues) for alpha in grid.values])
    terms = (1.0 - s) ** 2 * row**2
    return _accumulate_rows(terms) + p.sigma**2 * _accumulate_rows(p.eigenvalues * q**2)


def batch_rows(p, count=4):
    """``count`` observation rows of ``p`` and as many truth rows: its own
    truth and seeded perturbations of it."""
    rng = np.random.default_rng(p.n_modes)
    values = np.array([sample_observations(p, 100 + r).values for r in range(count)])
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
    return np.array([np.sqrt(eig) * filter_value(scorer.spec, a, eig) * y for a in scorer.grid.values])


def exact_lepskii(scorer, y):
    """Lepskii's index by the float64 test: one syrk of the estimate rows,
    then fl(fl(G_ii + G_jj) - 2 G_ij) against each squared threshold."""
    coeff = estimate_rows(scorer, y)
    gram = coeff @ coeff.T
    sq_norm = gram.diagonal().copy()
    beyond = (sq_norm[:, None] + sq_norm) - 2.0 * gram > scorer._thresholds_sq
    beyond &= np.tri(len(coeff), k=-1, dtype=bool)
    return int(np.flatnonzero(~beyond.any(axis=1))[-1])


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
        eig, alpha = scorer.eigenvalues, float(scorer.grid.values[index[r, e]])
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
        assert grid.values[0] == pytest.approx(1e-4)

    def test_exact_power_endpoint(self):
        grid = build_grid(1.0, 1.44, 1.2)
        np.testing.assert_allclose(grid.values, [1.0, 1.2, 1.44], rtol=1e-12)

    def test_values_capped_by_lambda_max(self):
        grid = build_grid(0.03, 0.77, 1.3)
        assert grid.values[-1] <= 0.77
        assert grid.values[-1] * 1.3 > 0.77

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
        sel = choose_oracle(p, tikhonov(), grid)
        assert sel.grid_index == len(grid) - 1

    def test_vanishing_noise_picks_smallest_alpha(self):
        p = SpectralProblem([1.0, 0.5, 0.25], [1.0, 1.0, 1.0], 1e-12)
        grid = ParameterGrid(1.4, np.array([1e-3, 1.4e-3, 1.96e-3]))
        sel = choose_oracle(p, tikhonov(), grid)
        assert sel.grid_index == naive_oracle(p, tikhonov(), grid) == 0

    def test_alpha_is_grid_member(self):
        p = random_problem(np.random.default_rng(0))
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.3)
        sel = choose_oracle(p, tikhonov(), grid)
        assert sel.alpha == grid.values[sel.grid_index]
        assert sel.score <= min(direct_risk(p, tikhonov(), a).total for a in grid.values)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(101)
        for trial in range(100):
            p = random_problem(rng)
            grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
            for spec in ALL_FAMILIES(m=2):
                assert choose_oracle(p, spec, grid).grid_index == naive_oracle(p, spec, grid)
        for p, spec, grid, _ in realistic_cases():
            assert choose_oracle(p, spec, grid).grid_index == naive_oracle(p, spec, grid)


class TestChoosePred:
    def test_zero_observations_pick_largest_alpha(self):
        eig = np.array([1.0, 0.5, 0.25])
        obs = Observations(np.zeros(3))
        grid = build_grid(0.05, 1.0, 1.4)
        sel = choose_pred(eig, 0.05, tikhonov(), grid, obs)
        assert sel.grid_index == len(grid) - 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.3)
        obs = sample_observations(p, 9)
        base = choose_pred(p.eigenvalues, p.sigma, tikhonov(), grid, obs)
        for c in (0.1, 7.0):
            scaled = choose_pred(
                p.eigenvalues, c * p.sigma, tikhonov(), grid, Observations(c * obs.values)
            )
            assert scaled.grid_index == base.grid_index

    def test_tie_breaks_to_smallest_index(self):
        # single mode with spectral cut-off: both alphas below lambda give
        # s = 1 exactly, so the two smallest grid points tie at the minimum
        eig = np.array([1.0])
        obs = Observations(np.array([1.0]))
        grid = ParameterGrid(2.0, np.array([0.25, 0.5, 2.0]))
        sel = choose_pred(eig, 0.1, spectral_cutoff(), grid, obs)
        scores = [
            empirical_prediction_risk(eig, 0.1, spectral_cutoff(), a, obs)
            for a in grid.values
        ]
        assert scores[0] == scores[1] == min(scores)  # genuine tie exercised
        assert sel.grid_index == 0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(202)
        for trial in range(100):
            p = random_problem(rng)
            grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
            obs = sample_observations(p, int(rng.integers(0, 2**32)))
            for spec in ALL_FAMILIES(m=2):
                got = choose_pred(p.eigenvalues, p.sigma, spec, grid, obs)
                assert got.grid_index == naive_pred(p.eigenvalues, p.sigma, spec, grid, obs)
        for p, spec, grid, obs in realistic_cases():
            got = choose_pred(p.eigenvalues, p.sigma, spec, grid, obs)
            assert got.grid_index == naive_pred(p.eigenvalues, p.sigma, spec, grid, obs)


class TestChooseLepskii:
    def test_zero_observations_pick_largest_alpha(self):
        eig = np.array([1.0, 0.5, 0.25])
        obs = Observations(np.zeros(3))
        grid = build_grid(0.05, 1.0, 1.4)
        sel = choose_lepskii(eig, 0.05, tikhonov(), grid, obs)
        assert sel.grid_index == len(grid) - 1

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
                sel = choose_lepskii(eig, sigma, tikhonov(), grid, obs)
                frac.append(sel.grid_index / (len(grid) - 1))
            medians.append(float(np.median(frac)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(303)
        for trial in range(100):
            p = random_problem(rng)
            grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
            obs = sample_observations(p, int(rng.integers(0, 2**32)))
            for spec in ALL_FAMILIES(m=2):
                got = choose_lepskii(p.eigenvalues, p.sigma, spec, grid, obs)
                assert got.grid_index == naive_lepskii(p.eigenvalues, p.sigma, spec, grid, obs)
        for p, spec, grid, obs in realistic_cases():
            got = choose_lepskii(p.eigenvalues, p.sigma, spec, grid, obs)
            assert got.grid_index == naive_lepskii(p.eigenvalues, p.sigma, spec, grid, obs)


class TestGridScorer:
    def test_shared_buffer_matches_fresh_scorers(self):
        # one buffer sized for the largest grid serves every noise level
        sigmas = (2.0**-15, 2.0**-21)
        problems = [make_green_problem(1024, GreenTruth.HAT, s, frame="discrete") for s in sigmas]
        grids = [build_grid(p.sigma, float(p.eigenvalues[0]), 1.2) for p in problems]
        buffer = np.empty((max(map(len, grids)), 1024))
        for p, grid in zip(problems, grids):
            shared = GridScorer(p.eigenvalues, p.sigma, tikhonov(), grid, buffer)
            for seed in range(3):
                obs = sample_observations(p, seed)
                assert shared.oracle(p.truth_coeffs) == choose_oracle(p, tikhonov(), grid)
                assert shared.pred(obs) == choose_pred(p.eigenvalues, p.sigma, tikhonov(), grid, obs)
                lep = choose_lepskii(p.eigenvalues, p.sigma, tikhonov(), grid, obs)
                assert shared.lepskii(obs) == lep

    def test_pred_scores_equal_the_scalar_score_bitwise(self):
        for p, spec, grid, obs in realistic_cases():
            scores = GridScorer(p.eigenvalues, p.sigma, spec, grid).pred_scores(obs)
            expected = [
                empirical_prediction_risk(p.eigenvalues, p.sigma, spec, a, obs) for a in grid.values
            ]
            assert scores.tobytes() == np.array(expected).tobytes()

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
            expected = [direct_risk(p, spec, a).total for a in grid.values]
            assert scores[0].tobytes() == np.array(expected).tobytes()

    def test_errors_read_from_the_lepskii_rows_equal_the_estimates_bitwise(self):
        for p, spec, grid, obs in realistic_cases():
            scorer = GridScorer(p.eigenvalues, p.sigma, spec, grid)
            picks = (0, len(grid) // 2, len(grid) - 1)
            best, errors = scorer.lepskii_errors(obs.values, p.truth_coeffs, picks)
            assert best == scorer.lepskii(obs).grid_index
            expected = []
            for i in (*picks, best):
                diff = estimate_coefficients(p, spec, float(grid.values[i]), obs).values - p.truth_coeffs
                expected.append(float(diff @ diff))
            assert np.array(errors).tobytes() == np.array(expected).tobytes()

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
            expected = [alone.lepskii_errors(values[r], truths[r], tuple(picks[r])) for r in range(3)]
            for rows in (k, k + k // 2, 2 * k, 2 * k + 7):
                scorer = GridScorer(p.eigenvalues, p.sigma, spec, grid, np.empty((rows, p.n_modes)))
                best, errors = scorer.batch_lepskii_errors(values, truths, picks)
                assert best.tolist() == [index for index, _ in expected]
                assert errors.tobytes() == np.array([errs for _, errs in expected]).tobytes()
                assert scorer.batch_lepskii_errors(values)[0].tolist() == best.tolist()

    def test_interleaved_scorers_on_one_buffer_read_no_stale_rows(self):
        # each call builds its float32 rows in the shared buffer, and the
        # other grid's calls overwrite them in between
        problems = [make_green_problem(1024, GreenTruth.HAT, s, frame="discrete") for s in (2.0**-15, 2.0**-21)]
        grids = [build_grid(p.sigma, float(p.eigenvalues[0]), 1.2) for p in problems]
        buffer = np.empty((max(map(len, grids)), 1024))
        cases = []
        for p, grid, spec in zip(problems, grids, (tikhonov(), showalter())):
            shared = GridScorer(p.eigenvalues, p.sigma, spec, grid, buffer)
            alone = GridScorer(p.eigenvalues, p.sigma, spec, grid)
            values, truths = batch_rows(p, 3)
            picks = np.stack([alone.batch_oracle_picks(truths), alone.batch_pred_picks(values)], axis=1)
            expected = alone.batch_lepskii_errors(values, truths, picks)
            cases.append((shared, values, truths, picks, expected))
        assert len(grids[0]) < len(grids[1]) == len(buffer)
        for _ in range(2):
            for shared, values, truths, picks, (best, errors) in cases:
                got_best, got_errors = shared.batch_lepskii_errors(values, truths, picks)
                assert got_best.tolist() == best.tolist() and got_errors.tobytes() == errors.tobytes()
                assert shared.batch_pred_picks(values).tolist() == picks[:, 1].tolist()

    def test_a_lepskii_batch_rejects_rows_of_the_wrong_shape(self):
        p = random_problem(np.random.default_rng(4))
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
        scorer = GridScorer(p.eigenvalues, p.sigma, tikhonov(), grid)
        for values, truths in (
            (np.ones(p.n_modes), None),
            (np.ones((2, p.n_modes + 1)), None),
            (np.ones((2, p.n_modes)), np.ones((3, p.n_modes))),
            (np.ones((2, p.n_modes)), np.ones((2, p.n_modes - 1))),
        ):
            with pytest.raises(ValueError):
                scorer.batch_lepskii_errors(values, truths, [(0,), (0,)])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([300, 1024, 10240]),
        family=st.integers(0, 4),
        sigma_exponent=st.floats(-21.0, -7.0),
        buffer=st.sampled_from(["K", "3K/2", "2K + 7"]),
        tie=st.sampled_from([None, -1e-6, -1e-9, 1e-9, 1e-6]),
        level=st.integers(0, 2**16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certified_lepskii_picks_equal_the_exact_test_bitwise(
        self, n, family, sigma_exponent, buffer, tie, level, seed
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
        best, errors = scorer.batch_lepskii_errors(values, truths, picks)
        expected = [exact_lepskii(scorer, y) for y in values]
        assert best.tolist() == expected
        assert errors.tobytes() == estimate_errors(scorer, values, truths, np.column_stack([picks, best])).tobytes()

    def test_the_rows_are_rebuilt_after_a_fallback(self, monkeypatch):
        p = lepskii_problem(1024)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
        values, truths = batch_rows(p, 6)
        picks = [(0, r) for r in range(6)]
        scorer = GridScorer(p.eigenvalues, p.sigma, tikhonov(), grid)
        certified = scorer.batch_lepskii_errors(values, truths, picks)
        calls = []
        certify = GridScorer._certified_pick

        def every_other(self, *args):
            calls.append(len(calls) % 2 == 0)
            return certify(self, *args) if calls[-1] else -1

        monkeypatch.setattr(GridScorer, "_certified_pick", every_other)
        best, errors = scorer.batch_lepskii_errors(values, truths, picks)
        assert len(calls) == 6
        assert best.tolist() == certified[0].tolist() == [exact_lepskii(scorer, y) for y in values]
        assert errors.tobytes() == certified[1].tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e39, 2.0**62])
    def test_rows_outside_float32_range_take_the_exact_test(self, bad, monkeypatch):
        # 1e39 is beyond float32 range, and 2^62 is inside it but would
        # overflow the float32 gram
        p = lepskii_problem(300)
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
        values, truths = batch_rows(p, 3)
        values[1, 7] = bad
        outcomes = []
        certify = GridScorer._certified_pick

        def recording(self, *args):
            outcomes.append(certify(self, *args))
            return outcomes[-1]

        monkeypatch.setattr(GridScorer, "_certified_pick", recording)
        for spec in (tikhonov(), spectral_cutoff()):
            outcomes.clear()
            scorer = GridScorer(p.eigenvalues, p.sigma, spec, grid)
            with np.errstate(invalid="ignore") if math.isinf(bad) else contextlib.nullcontext():
                best, errors = scorer.batch_lepskii_errors(values, truths, [(0,)] * 3)
                expected = [exact_lepskii(scorer, y) for y in values]
            assert outcomes[1] == -1 and outcomes[0] >= 0 and outcomes[-1] >= 0
            assert best.tolist() == expected
            assert np.isfinite(errors[0]).all() and np.isfinite(errors[2]).all()

    def test_rows_of_sqrt_lambda_q_outside_float32_range_take_the_exact_test(self, monkeypatch):
        # at lambda = alpha = 1e-40, sqrt(lambda) q = 1/(2 sqrt(alpha)) = 5e19,
        # beyond the 2^63 that the float32 rows allow
        eig = np.array([1.0, 1e-40, 0.0])
        grid = ParameterGrid(1.2, 1e-40 * 1.2 ** np.arange(8))
        scorer = GridScorer(eig, 1e-20, tikhonov(), grid)
        monkeypatch.setattr(GridScorer, "_certified_pick", lambda *args: pytest.fail("certified"))
        values = np.array([[1.0, 1e-14, 1e-15], [0.5, -2e-15, 0.0]])
        assert scorer.batch_lepskii_errors(values)[0].tolist() == [exact_lepskii(scorer, y) for y in values]

    def test_rejects_rows_of_the_wrong_shape(self):
        p = random_problem(np.random.default_rng(2))
        grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.25)
        scorer = GridScorer(p.eigenvalues, p.sigma, tikhonov(), grid)
        for call, rows in (
            (scorer.batch_pred_scores, np.ones(p.n_modes)),
            (scorer.batch_oracle_scores, np.ones((2, p.n_modes + 1))),
            (scorer.oracle, np.ones((1, p.n_modes))),
            (scorer.lepskii_errors, np.ones(p.n_modes - 1)),
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
        grid = ParameterGrid(1.2, sigma**2 * 1.2 ** np.arange(k))
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
        grid = ParameterGrid(1.2, sigma**2 * 1.2 ** np.arange(k))
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
        oracle = scorer.batch_oracle_picks(truths)
        pred = scorer.batch_pred_picks(values)
        assert oracle.tolist() == np.argmin(scorer.batch_oracle_scores(truths), axis=1).tolist()
        assert pred.tolist() == np.argmin(scorer.batch_pred_scores(values), axis=1).tolist()

    def test_exact_ties_go_to_the_smallest_index(self, monkeypatch):
        # spectral cut-off: s is 0 or 1, so grid points with no eigenvalue
        # between them have the same s-row and exactly the same score
        eig = 2.0 ** -np.arange(0.0, 40.0, 4.0)
        sigma = 2.0**-20
        grid = build_grid(sigma, 1.0, 1.05)
        scorer = GridScorer(eig, sigma, spectral_cutoff(), grid)
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
        picks = [scorer.batch_oracle_picks(truths), scorer.batch_pred_picks(values)]
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
        for spec in (spectral_cutoff(), tikhonov()):
            scorer = GridScorer(eig, sigma, spec, grid)
            rows = np.full((2, eig.size), 1e-3)
            rows[0, 4] = bad
            with np.errstate(over="ignore", invalid="ignore"):
                results = (
                    (scorer.batch_oracle_picks(rows), scorer.batch_oracle_scores(rows)),
                    (scorer.batch_pred_picks(rows), scorer.batch_pred_scores(rows)),
                )
            for picks, scores in results:
                assert not np.isfinite(scores[0]).all()
                assert picks.tolist() == np.argmin(scores, axis=1).tolist()

    @pytest.mark.parametrize(
        "spec, eigenvalues, alphas",
        [
            (landweber(), [1.0 + 1e-15, 0.5], [0.1, 0.2]),
            (tikhonov(), [0.5, -1e-300], [0.1, 0.2]),
            (tikhonov(), [0.5, 0.25], [0.1, 0.0]),
            (tikhonov(), [0.5, 0.25], [-0.1, 0.2]),
            (showalter(), [0.5, 0.25], [0.1, math.nan]),
        ],
        ids=["landweber-lambda-above-one", "negative-lambda", "zero-alpha", "negative-alpha", "nan-alpha"],
    )
    def test_refuses_bad_inputs_at_construction(self, spec, eigenvalues, alphas):
        with pytest.raises(ValueError):
            GridScorer(np.array(eigenvalues), 0.01, spec, ParameterGrid(1.2, np.array(alphas)))

    def test_later_changes_to_the_callers_eigenvalues_change_no_score(self):
        for p, spec, grid, obs in realistic_cases():
            eig = p.eigenvalues.copy()
            scorer = GridScorer(eig, p.sigma, spec, grid)

            def scores():
                return (
                    scorer.batch_pred_scores(obs.values[None]).tobytes(),
                    scorer.batch_oracle_scores(p.truth_coeffs[None]).tobytes(),
                    scorer.lepskii_errors(obs.values, p.truth_coeffs, (0, len(grid) - 1)),
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
                GridScorer(p.eigenvalues, p.sigma, tikhonov(), grid, np.empty(shape))


class TestAprioriAlpha:
    def test_exponent_arithmetic(self):
        assert apriori_alpha_polynomial(4.0, 1.0, 3.0, 1e-3) == pytest.approx(1e-3, rel=1e-14)

    def test_sigma_one(self):
        assert apriori_alpha_polynomial(2.0, 5.0, 1.0, 1.0) == pytest.approx(5.0 ** 0.25, rel=1e-14)

    def test_balance_residual(self):
        # alpha * phi(alpha)^2 = sigma^2 * S(alpha) with S = (alpha/C_a)^{-1/a},
        # phi(x) = x^{b/(2a)}
        for a, c_a, b, sigma in [(4.0, 2.0, 3.0, 1e-3), (2.5, 0.7, 1.0, 1e-2)]:
            alpha = apriori_alpha_polynomial(a, c_a, b, sigma)
            lhs = alpha * (alpha ** (b / (2 * a))) ** 2
            rhs = sigma**2 * (alpha / c_a) ** (-1.0 / a)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            apriori_alpha_polynomial(1.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            apriori_alpha_polynomial(2.0, 1.0, 1.0, -0.1)
