import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invreg import model
from invreg.filters import FilterSpec
from invreg.model import (
    SpectralProblem,
    _cell_words,
    _generators,
    _seed_words,
    estimate_coefficients,
    sample_observations,
    substream_seed,
)
from invreg.risk import empirical_prediction_risk
from invreg.selection import GridScorer


def small_problem(sigma=1e-3):
    eig = np.array([1.0, 0.5, 0.25, 0.125])
    truth = np.array([1.0, -0.5, 0.25, 0.0])
    return SpectralProblem(eig, truth, sigma)


class TestSpectralProblem:
    def test_rejects_increasing_eigenvalues(self):
        with pytest.raises(ValueError):
            SpectralProblem([0.5, 1.0], [0.0, 0.0], 1.0)

    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(ValueError):
            SpectralProblem([1.0, 0.0], [0.0, 0.0], 1.0)

    @pytest.mark.parametrize("eigenvalues", [[1.0, math.nan], [math.nan, 1.0], [math.inf, 1.0]])
    def test_rejects_non_finite_eigenvalues(self, eigenvalues):
        # a NaN passes both "<= 0" and the order test, and +inf the first
        with pytest.raises(ValueError, match="finite"):
            SpectralProblem(eigenvalues, [1.0, 1.0], 0.1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SpectralProblem([1.0, 0.5], [0.0], 1.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            SpectralProblem([1.0], [0.0], 0.0)

    def test_arrays_are_read_only(self):
        p = small_problem()
        with pytest.raises(ValueError):
            p.eigenvalues[0] = 2.0

    def test_caller_arrays_stay_writeable(self):
        eig, truth = np.array([1.0, 0.5]), np.array([0.25, 0.0])
        values = np.array([0.5, 1.0])
        frozen = [
            (SpectralProblem(eig, truth, 0.1).eigenvalues, eig),
            (SpectralProblem(eig, truth, 0.1).truth_coeffs, truth),
            (GridScorer(eig, 0.1, FilterSpec("tikhonov"), values).grid, values),
        ]
        for held, given in frozen:
            assert not held.flags.writeable
            assert given.flags.writeable
            given[0] = given[0]  # still assignable by its owner

    def test_sampled_observations_are_read_only(self):
        obs = sample_observations(small_problem(), 3)
        assert obs.shape == (4,) and obs.dtype == float
        with pytest.raises(ValueError):
            obs[0] = 0.0

    def test_consumers_leave_the_callers_observations_unchanged(self):
        p = small_problem()
        values = np.array([0.5, -1.0, 0.25, 2.0])
        before = values.copy()
        estimate_coefficients(p, FilterSpec("tikhonov"), 0.1, values)
        empirical_prediction_risk(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), 0.1, values)
        assert values.flags.writeable
        assert values.tobytes() == before.tobytes()
        values[0] = values[0]  # still assignable by its owner


@pytest.mark.parametrize("values", [np.zeros((2, 2)), np.zeros((1, 4)), np.zeros(3), np.zeros(5), np.float64(1.0)],
                         ids=["2-d", "row-of-one", "short", "long", "scalar"])
class TestConsumersRefuseObservationsOfAnotherShape:
    def test_estimate_coefficients(self, values):
        with pytest.raises(ValueError, match="observations"):
            estimate_coefficients(small_problem(), FilterSpec("tikhonov"), 0.1, values)

    def test_empirical_prediction_risk(self, values):
        p = small_problem()
        with pytest.raises(ValueError, match="observations"):
            empirical_prediction_risk(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), 0.1, values)


class TestSubstreamSeed:
    def test_deterministic(self):
        assert substream_seed(42, 7) == substream_seed(42, 7)

    def test_distinct_indices_give_distinct_seeds(self):
        seeds = {substream_seed(42, j) for j in range(10_000)}
        assert len(seeds) == 10_000

    def test_distinct_masters_give_distinct_streams(self):
        a = [substream_seed(1, j) for j in range(100)]
        b = [substream_seed(2, j) for j in range(100)]
        assert not set(a) & set(b)

    def test_result_is_64_bit(self):
        for j in (0, 1, 2**63, 2**64 - 1):
            s = substream_seed(j, j)
            assert 0 <= s < 2**64


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def sequence_words(seed):
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


class TestSeedWords:
    """The study loop seeds its generators from words computed for many
    seeds at once; they must be numpy's, or every stream changes."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_words_equal_seed_sequence(self, seeds):
        seeds = seeds + EDGE_SEEDS
        words = _seed_words(np.array(seeds, dtype=np.uint64))
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        assert words.tolist() == [sequence_words(s).tolist() for s in seeds]

    @pytest.mark.parametrize("master", [-1, -7, -(2**63), 2**64, 2**64 + 5, 2**70 + 3])
    def test_substream_seed_of_uint64_arrays_is_that_of_python_ints(self, master):
        index = [0, 1, 2, 3, 1000, 2**32, 2**63, 2**64 - 1]
        masters = np.full(len(index), master & (2**64 - 1), dtype=np.uint64)
        got = substream_seed(masters, np.array(index, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.tolist() == [substream_seed(master, j) for j in index]

    @pytest.mark.parametrize("master", [-1, -7, -(2**63), 0, 2**64, 2**64 + 5, 2**70 + 3])
    @pytest.mark.parametrize("shape", [(50,), (3, 5), (3, 5, 2)])
    def test_cell_words_are_the_words_of_the_nested_substream_seeds(self, master, shape, monkeypatch):
        # the master seed is taken mod 2^64, as substream_seed takes it; a
        # small chunk makes the cells span several chunks
        monkeypatch.setattr(model, "_SEED_CHUNK", 7)
        expected = []
        for index in np.ndindex(*shape):
            seed = master
            for i in index:
                seed = substream_seed(seed, i)
            expected.append(sequence_words(seed).tolist())
        assert [words.tolist() for words in _cell_words(master, shape)] == expected

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [20240901])
    def test_a_generator_from_words_gives_the_pcg64_stream(self, seed):
        (rng,) = _generators(sequence_words(seed)[None])
        reference = np.random.Generator(np.random.PCG64(seed))
        for draw in (lambda g: g.integers(0, 2, size=301), lambda g: g.standard_normal(300)):
            assert draw(rng).tobytes() == draw(reference).tobytes()


class TestSampleObservations:
    def test_fixed_seed_reproducible(self):
        p = small_problem()
        a = sample_observations(p, 123)
        b = sample_observations(p, 123)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        p = small_problem()
        a = sample_observations(p, 123)
        b = sample_observations(p, 124)
        assert not np.array_equal(a, b)

    def test_noise_free_limit(self):
        p = small_problem(sigma=1e-300)
        obs = sample_observations(p, 5)
        expected = np.sqrt(p.eigenvalues) * p.truth_coeffs
        np.testing.assert_allclose(obs, expected, rtol=1e-12, atol=1e-290)

    def test_first_coordinate_moments(self):
        # mean and variance of Y_1 - sqrt(lambda_1) f_1 over 1e5 draws
        p = small_problem(sigma=0.7)
        n_draws = 100_000
        draws = np.array(
            [sample_observations(p, substream_seed(99, j))[0] for j in range(n_draws)]
        )
        centered = draws - math.sqrt(p.eigenvalues[0]) * p.truth_coeffs[0]
        se_mean = p.sigma / math.sqrt(n_draws)
        assert abs(np.mean(centered)) <= 4 * se_mean
        assert np.var(centered) == pytest.approx(p.sigma**2, rel=0.05)


class TestEstimateCoefficients:
    def test_zero_observations_give_zero_estimate(self):
        p = small_problem()
        obs = np.zeros(4)
        est = estimate_coefficients(p, FilterSpec("tikhonov"), 0.1, obs)
        np.testing.assert_array_equal(est, np.zeros(4))

    def test_single_mode_hand_evaluation(self):
        # sqrt(0.25) * 1/(0.25+0.25) * 2 = 0.5 * 2 * 2 = 2.0
        p = SpectralProblem([0.25], [0.0], 1.0)
        obs = np.array([2.0])
        est = estimate_coefficients(p, FilterSpec("tikhonov"), 0.25, obs)
        assert est[0] == pytest.approx(2.0, rel=1e-15)

    def test_cutoff_above_spectrum_gives_zero(self):
        p = small_problem()
        obs = sample_observations(p, 1)
        est = estimate_coefficients(p, FilterSpec("spectral_cutoff"), 2.0, obs)
        np.testing.assert_array_equal(est, np.zeros(4))

    def test_length_mismatch_rejected(self):
        p = small_problem()
        obs = np.zeros(3)
        with pytest.raises(ValueError):
            estimate_coefficients(p, FilterSpec("tikhonov"), 0.1, obs)
