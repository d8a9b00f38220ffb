import math

import numpy as np
import pytest

from invreg.problems import TestFunction as GreenTruth
from invreg.problems import (
    NumericFailure,
    discretize_integral_operator,
    make_diagonal_problem,
    make_green_problem,
    symmetric_eigenvalues,
)


def hat(x):
    return np.where(x <= 0.5, x, 1.0 - x)


def indicator(x):
    # jump points take the average value so composite Simpson keeps its
    # high-order accuracy on the piecewise constant integrand
    inside = ((x > 0.25) & (x < 0.75)).astype(float)
    return inside + 0.5 * ((x == 0.25) | (x == 0.75))


def simpson_coefficient(f, k, panels=10_000):
    """<f, sqrt(2) sin(k pi x)> by composite Simpson."""
    x = np.linspace(0.0, 1.0, 2 * panels + 1)
    y = f(x) * math.sqrt(2.0) * np.sin(k * math.pi * x)
    w = np.ones_like(x)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * y) / (6.0 * panels))


class TestMakeGreenProblem:
    def test_eigenvalues(self):
        p = make_green_problem(8, GreenTruth.HAT, 0.1)
        k = np.arange(1, 9)
        np.testing.assert_allclose(p.eigenvalues, (math.pi * k) ** -4.0, rtol=1e-15)
        assert p.eigenvalues[0] == pytest.approx(1.0266e-2, rel=1e-4)

    def test_hat_closed_form(self):
        p = make_green_problem(4, GreenTruth.HAT, 0.1)
        assert p.truth_coeffs[0] == pytest.approx(-1.0 / (2.0 * math.pi**3), rel=1e-14)
        assert p.truth_coeffs[0] == pytest.approx(-1.61258e-2, rel=1e-5)
        assert p.truth_coeffs[1] == 0.0

    def test_indicator_closed_form(self):
        p = make_green_problem(4, GreenTruth.INDICATOR, 0.1)
        assert p.truth_coeffs[0] == pytest.approx(-1.0 / (2.0 * math.pi**2), rel=1e-14)
        assert p.truth_coeffs[0] == pytest.approx(-5.06606e-2, rel=1e-5)
        assert p.truth_coeffs[1] == 0.0

    def test_even_modes_vanish(self):
        for truth in GreenTruth:
            for frame in ("analytic", "discrete"):
                p = make_green_problem(64, truth, 0.1, frame)
                assert np.all(p.truth_coeffs[1::2] == 0.0)

    def test_quadrature_oracle_constant_factor(self):
        # analytic closed forms match Simpson quadrature coefficients up to
        # one global magnitude constant per test function, k <= 8
        for truth, f in ((GreenTruth.HAT, hat), (GreenTruth.INDICATOR, indicator)):
            p = make_green_problem(8, truth, 0.1)
            ratios = []
            for k in range(1, 9):
                quad = simpson_coefficient(f, k)
                stored = p.truth_coeffs[k - 1]
                if abs(quad) < 1e-12:
                    assert abs(stored) < 1e-12
                else:
                    ratios.append(abs(quad) / abs(stored))
            assert np.allclose(ratios, ratios[0], rtol=1e-6)

    def test_discrete_frame_matches_quadrature_times_sqrt_n(self):
        n = 16
        for truth, f in ((GreenTruth.HAT, hat), (GreenTruth.INDICATOR, indicator)):
            p = make_green_problem(n, truth, 0.1, frame="discrete")
            for k in range(1, 9):
                quad = simpson_coefficient(f, k)
                assert p.truth_coeffs[k - 1] == pytest.approx(
                    math.sqrt(n) * quad, abs=1e-9
                )

    def test_truncation_adequacy(self):
        # tail sum_{k>n} lambda_k f_k^2 below 1e-12 of the full sum at n=1024,
        # bounded by extending the closed forms far beyond the truncation
        for truth in GreenTruth:
            p = make_green_problem(1024, truth, 0.1)
            head = float(np.sum(p.eigenvalues * p.truth_coeffs**2))
            ext = make_green_problem(20_000, truth, 0.1)
            tail = float(np.sum((ext.eigenvalues * ext.truth_coeffs**2)[1024:]))
            # integral comparison: the summand decays at least like k^{-6},
            # so the remainder beyond 20000 is below tail itself
            assert tail / head < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_green_problem(0, GreenTruth.HAT, 0.1)
        with pytest.raises(ValueError):
            make_green_problem(4, GreenTruth.HAT, 0.1, frame="fourier")


class TestMakeDiagonalProblem:
    def test_eigenvalues(self):
        p = make_diagonal_problem(10, 4.0, 4.0, 0.1, seed=1)
        k = np.arange(1, 11, dtype=float)
        np.testing.assert_allclose(p.eigenvalues, k**-8.0, rtol=1e-15)

    def test_seeded_reproducibility(self):
        a = make_diagonal_problem(50, 3.0, 2.0, 0.1, seed=7)
        b = make_diagonal_problem(50, 3.0, 2.0, 0.1, seed=7)
        np.testing.assert_array_equal(a.truth_coeffs, b.truth_coeffs)

    @pytest.mark.parametrize("n", [1, 2, 3, 31, 300, 1023])
    def test_truth_is_drawn_by_integers_then_standard_normal(self, n):
        # the sign bits are read from raw PCG64 outputs; they must be the
        # bits Generator.integers(0, 2) draws, and leave the normals' stream
        # where integers leaves it
        decay = np.arange(1, n + 1, dtype=float) ** -4.0
        for seed in (0, 1, 7, 2**32, 2**64 - 1):
            rng = np.random.Generator(np.random.PCG64(seed))
            signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
            expected = signs * decay * (1.0 + 0.1 * rng.standard_normal(n))
            got = make_diagonal_problem(n, 4.0, 4.0, 0.1, seed).truth_coeffs
            assert got.tobytes() == expected.tobytes()

    def test_second_moment(self):
        # E f_k^2 = k^{-2 nu} * (1 + 0.1^2); check k=1 over many seeds
        nu = 2.0
        draws = np.array(
            [make_diagonal_problem(1, 4.0, nu, 0.1, seed=s).truth_coeffs[0] for s in range(100_000)]
        )
        sq = draws**2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 1.01) <= 3 * se


class TestDiscretizeIntegralOperator:
    def test_n2_hand_evaluation(self):
        m = discretize_integral_operator(2)
        # x = {0.25, 0.75}; entry (1,1) = (1/2) * min(0.25*0.75, 0.25*0.75)
        assert m[0, 0] == pytest.approx(0.25 * 0.75 / 2.0, rel=1e-15)
        assert m[0, 0] == pytest.approx(0.09375)

    def test_exact_symmetry(self):
        for n in (2, 3, 17, 64):
            m = discretize_integral_operator(n)
            assert m.shape == (n, n) and m.dtype == float
            assert np.array_equal(m, m.T)

    def test_read_only(self):
        m = discretize_integral_operator(4)
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_kernel_values(self):
        n = 8
        m = discretize_integral_operator(n)
        x = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        for i in range(n):
            for j in range(n):
                expected = min(x[i] * (1 - x[j]), x[j] * (1 - x[i])) / n
                assert m[i, j] == pytest.approx(expected, rel=1e-15)


class TestSymmetricEigenvalues:
    def test_diagonal_input(self):
        np.testing.assert_allclose(symmetric_eigenvalues(np.diag([3.0, 1.0]), 2), [3.0, 1.0])

    def test_known_2x2(self):
        m = [[0.0, 1.0], [1.0, 0.0]]  # any array-like
        np.testing.assert_allclose(symmetric_eigenvalues(m, 2), [1.0, -1.0], atol=1e-12)

    def test_against_numpy_random_symmetric(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(30, 30))
        m = a + a.T
        got = symmetric_eigenvalues(m, 30)
        expected = np.sort(np.linalg.eigvalsh(m))[::-1]
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)

    def test_green_spectrum_cross_check(self):
        m = discretize_integral_operator(256)
        top = symmetric_eigenvalues(m, 10)
        k = np.arange(1, 11, dtype=float)
        rel = np.abs(top - 1.0 / (math.pi * k) ** 2) * (math.pi * k) ** 2
        assert np.all(rel < 0.02)

    def test_count_validation(self):
        for count in (3, -1):  # a negative count would slice off the smallest eigenvalues
            with pytest.raises(ValueError, match="count"):
                symmetric_eigenvalues(np.diag([1.0, 2.0]), count)
        assert symmetric_eigenvalues(np.diag([1.0, 2.0]), 0).shape == (0,)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]), 2)

    @pytest.mark.parametrize(
        "matrix",
        [[1.0, 2.0], [[1.0, 2.0]], np.zeros((2, 2, 2)), 1.0, np.ones((2, 3))],
        ids=["1-d", "one-row", "3-d", "scalar", "2x3"],
    )
    def test_non_square_rejected(self, matrix):
        with pytest.raises(ValueError, match="square"):
            symmetric_eigenvalues(matrix, 1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigenvalues(np.diag([1.0, math.nan]), 1)

    def test_callers_array_unchanged(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6))
        for m in (a + a.T, np.asfortranarray(a + a.T), discretize_integral_operator(6)):
            before, writeable = m.tobytes(), m.flags.writeable
            symmetric_eigenvalues(m, 3)
            assert m.tobytes() == before and m.flags.writeable == writeable
