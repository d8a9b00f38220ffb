import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invreg.filters import ALL_FAMILIES, FilterSpec, _check_args, _evaluate, filter_value, s_value
from invreg.problems import TestFunction as GreenTruth
from invreg.problems import make_diagonal_problem, make_green_problem
from invreg.selection import GridScorer, build_grid


def mp_showalter_q(alpha, lam, dps=60):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        return float((1 - mpmath.e ** (-mpmath.mpf(lam) / mpmath.mpf(alpha))) / mpmath.mpf(lam))


class TestConstants:
    def test_tikhonov_constants(self):
        spec = FilterSpec("tikhonov")
        assert spec.c_prime == 1.0
        assert spec.c_double_prime == 1.0
        assert spec.qualification_index == 1.0

    def test_iterated_tikhonov_constants(self):
        spec = FilterSpec("iterated_tikhonov", 3)
        assert spec.c_prime == 3.0
        assert spec.c_double_prime == 1.0
        assert spec.qualification_index == 3.0

    def test_infinite_qualification_families(self):
        for spec in (FilterSpec("spectral_cutoff"), FilterSpec("landweber"), FilterSpec("showalter")):
            assert spec.qualification_index == math.inf

    def test_iterated_tikhonov_requires_positive_m(self):
        with pytest.raises(ValueError):
            FilterSpec("iterated_tikhonov", 0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec("ridge")

    @pytest.mark.parametrize("family", [spec.family for spec in ALL_FAMILIES()])
    def test_every_family_takes_an_integer_m_of_at_least_one(self, family):
        # a numpy integer is an integer, and is stored as int; a bool, a
        # float (even a whole one) and a string are not
        spec = FilterSpec(family, m=np.int64(3))
        assert spec.m == 3 and type(spec.m) is int
        assert spec == FilterSpec(family, m=3) and hash(spec) == hash(FilterSpec(family, m=3))
        for bad in (True, False, 3.0, np.float64(2.0), "3", None, 0, -2):
            with pytest.raises(ValueError, match="m must be an integer of at least 1"):
                FilterSpec(family, m=bad)

    def test_iterated_tikhonov_of_a_numpy_integer(self):
        assert FilterSpec("iterated_tikhonov", np.int64(3)) == FilterSpec("iterated_tikhonov", 3)
        assert FilterSpec("iterated_tikhonov", np.int64(3)).c_prime == 3.0


class TestFilterValue:
    def test_tikhonov_half(self):
        assert filter_value(FilterSpec("tikhonov"), 1.0, 1.0) == 0.5

    def test_cutoff_indicator(self):
        assert filter_value(FilterSpec("spectral_cutoff"), 2.0, 1.0) == 0.0
        assert filter_value(FilterSpec("spectral_cutoff"), 0.5, 1.0) == 1.0

    def test_landweber_two_terms(self):
        # N = floor(1/0.5) = 2 summands: 1 + (1 - 0.5)
        assert filter_value(FilterSpec("landweber"), 0.5, 0.5) == pytest.approx(1.5, rel=1e-15)

    def test_showalter_unit_point(self):
        got = filter_value(FilterSpec("showalter"), 1.0, 1.0)
        assert got == pytest.approx(mp_showalter_q(1.0, 1.0), rel=1e-14)

    def test_showalter_against_high_precision_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = 10.0 ** rng.uniform(-6, 1)
            lam = rng.uniform(1e-12, 1.0)
            got = filter_value(FilterSpec("showalter"), alpha, lam)
            assert got == pytest.approx(mp_showalter_q(alpha, lam), rel=1e-12)

    def test_nonpositive_alpha_rejected(self):
        for spec in ALL_FAMILIES():
            with pytest.raises(ValueError):
                filter_value(spec, 0.0, 0.5)
            with pytest.raises(ValueError):
                filter_value(spec, -1.0, 0.5)

    def test_landweber_lambda_above_one_rejected(self):
        with pytest.raises(ValueError):
            filter_value(FilterSpec("landweber"), 0.5, 1.5)

    def test_landweber_alpha_above_one_gives_zero(self):
        # floor(1/alpha) = 0 summands
        assert filter_value(FilterSpec("landweber"), 1.5, 0.5) == 0.0

    def test_array_and_scalar_agree(self):
        lams = np.linspace(0.0, 1.0, 17)
        for spec in ALL_FAMILIES(m=3):
            vec = filter_value(spec, 0.3, lams)
            scalars = [filter_value(spec, 0.3, float(l)) for l in lams]
            np.testing.assert_allclose(vec, scalars, rtol=0, atol=0)


class TestSValue:
    def test_tikhonov_half(self):
        assert s_value(FilterSpec("tikhonov"), 1.0, 1.0) == 0.5

    def test_zero_lambda_gives_zero(self):
        for spec in ALL_FAMILIES(m=2):
            assert s_value(spec, 0.7, 0.0) == 0.0

    @pytest.mark.parametrize("lam", [0.0, -0.0])
    def test_zero_lambda_gives_positive_zero_at_every_alpha(self, lam):
        # each closed form gives +0.0 at lambda = +0.0 with no fill of its
        # own, and lambda = -0.0 is read as +0.0 where it is admitted
        for spec in ALL_FAMILIES(m=2):
            for alpha in (5e-324, 1e-3, 1.0, 1e300, math.inf):
                s = s_value(spec, alpha, lam)
                block = s_value(spec, alpha, np.full(3, lam))
                assert s == 0.0 and not math.copysign(1.0, s) < 0, (spec, alpha)
                assert (block == 0.0).all() and not np.signbit(block).any(), (spec, alpha)
            # a scorer's s-block, as the grid rules read it
            scorer = GridScorer(np.array([0.5, lam]), 0.1, spec, np.array([1e-3, 1.0]))
            rows = scorer._fill(slice(None), scorer._buf, True)
            assert (rows[:, 1] == 0.0).all() and not np.signbit(rows).any(), spec

    def test_iterated_tikhonov_m2(self):
        # 1 - (alpha/(alpha+lambda))^m = 1 - 0.25
        assert s_value(FilterSpec("iterated_tikhonov", 2), 1.0, 1.0) == pytest.approx(0.75, rel=1e-15)

    def test_showalter_cancellation_safety(self):
        # s at lambda/alpha = 1e-12 vs the 2-term Taylor expansion
        alpha = 1.0
        lam = 1e-12
        s = s_value(FilterSpec("showalter"), alpha, lam)
        taylor = (lam / alpha) * (1.0 - lam / (2.0 * alpha))
        assert s == pytest.approx(taylor, rel=1e-6)

    def test_landweber_small_lambda_series(self):
        mpmath = pytest.importorskip("mpmath")
        alpha = 1e-4  # N = 10000
        for lam in (1e-15, 1e-12, 1e-9):
            got = filter_value(FilterSpec("landweber"), alpha, lam)
            with mpmath.workdps(80):
                n_terms = int(1 / alpha)
                exact = float((1 - (1 - mpmath.mpf(lam)) ** n_terms) / mpmath.mpf(lam))
            assert got == pytest.approx(exact, rel=1e-10)

    def test_landweber_small_lambda_many_iterations(self):
        # N lambda beyond the Taylor range although lambda < 1e-8
        mpmath = pytest.importorskip("mpmath")
        alpha = 1e-12  # N = 10^12, as on a grid at sigma = 1e-6
        for lam in (1e-15, 1e-12, 1e-9, 5e-9):
            got = filter_value(FilterSpec("landweber"), alpha, lam)
            with mpmath.workdps(80):
                n_terms = math.floor(1 / alpha)
                exact = float((1 - (1 - mpmath.mpf(lam)) ** n_terms) / mpmath.mpf(lam))
            assert got == pytest.approx(exact, rel=1e-10)


def random_pairs(rng, count):
    alphas = 10.0 ** rng.uniform(-6, 1, size=count)
    lams = rng.uniform(0.0, 1.0, size=count)
    return alphas, lams


class TestOrderedFilterProperties:
    def test_ordered_in_alpha(self):
        rng = np.random.default_rng(11)
        lams = rng.uniform(0.0, 1.0, size=200)
        alphas = np.sort(10.0 ** rng.uniform(-6, 1, size=20))
        for spec in ALL_FAMILIES(m=4):
            prev = None
            for alpha in alphas[::-1]:  # descending alpha: q must not decrease
                q = filter_value(spec, float(alpha), lams)
                if prev is not None:
                    assert np.all(q >= prev - 1e-9 * np.abs(prev))
                prev = q

    def test_bound_constants(self):
        rng = np.random.default_rng(13)
        alphas, lams = random_pairs(rng, 2000)
        for spec in ALL_FAMILIES(m=4):
            for alpha, lam in zip(alphas, lams):
                q = filter_value(spec, float(alpha), float(lam))
                assert alpha * abs(q) <= spec.c_prime * (1 + 1e-9)
                assert lam * abs(q) <= spec.c_double_prime * (1 + 1e-9)

    def test_s_in_unit_interval(self):
        rng = np.random.default_rng(17)
        alphas, lams = random_pairs(rng, 2000)
        for spec in ALL_FAMILIES(m=4):
            s = np.array([s_value(spec, float(a), float(l)) for a, l in zip(alphas, lams)])
            assert np.all(s >= 0.0)
            assert np.all(s <= 1.0 + 1e-12)

    def test_tikhonov_qualification_bound(self):
        lams = np.linspace(0.0, 1.0, 2001)
        alphas = 10.0 ** np.linspace(-6, 0, 25)
        for v in (0.25, 0.5, 1.0):
            c_v = v**v * (1 - v) ** (1 - v) if v < 1 else 1.0
            for alpha in alphas:
                s = s_value(FilterSpec("tikhonov"), float(alpha), lams)
                lhs = np.max(lams**v * np.abs(1.0 - s))
                assert lhs <= c_v * alpha**v * (1 + 1e-9)


def grid_cases():
    """(lambda, alphas) pairs: the paper-size Green (1024 modes, sigma = 2^-21)
    and diagonal (300 modes, sigma = 1e-6) spectra with their grids, and the
    branch edges lambda in {0, tiny, 1} with alphas around 1 and beyond."""
    cases = []
    for p in (
        make_green_problem(1024, GreenTruth.HAT, 2.0**-21, frame="discrete"),
        make_diagonal_problem(300, 4.0, 4.0, 1e-6, seed=11),
    ):
        cases.append((p.eigenvalues, build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)))
    edges = np.array([1.0, 0.5, 1e-8, 1e-12, 1e-300, 0.0])
    cases.append((edges, np.array([1e-16, 1e-9, 0.3, 0.5, 1.0, 1.5, 30.0])))
    return cases


class TestGridValues:
    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=3), ids=lambda spec: spec.family)
    def test_rows_equal_scalar_alpha_calls_bitwise(self, spec):
        for lams, alphas in grid_cases():
            for want_s, scalar_alpha in ((False, filter_value), (True, s_value)):
                scorer = GridScorer(lams, 1.0, spec, alphas)
                block = scorer._fill(slice(None), scorer._buf, want_s)
                for alpha, row in zip(alphas, block):
                    assert row.tobytes() == scalar_alpha(spec, alpha, lams).tobytes(), (alpha, want_s)

    def test_rejects_nonpositive_alpha(self):
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError):
                GridScorer(np.ones(3), 1.0, FilterSpec("tikhonov"), np.array([0.5, bad]))


def pair_cases():
    """Seeded (alpha, lambda) pairs in the filters-check ranges, crossed with
    the branch edges lambda in {0, tiny, 1} and alpha around 1 and beyond
    (Landweber's N = floor(1/alpha) reaches 0)."""
    rng = np.random.default_rng(23)
    alphas, lams = random_pairs(rng, 500)
    edge_lams = np.array([0.0, 1e-300, 1e-12, 1e-8, 0.5, 1.0])
    edge_alphas = np.array([1e-16, 1e-6, 0.3, 0.5, 1.0, 1.5, 30.0])
    grid_alphas, grid_lams = np.meshgrid(edge_alphas, edge_lams)
    return np.concatenate([alphas, grid_alphas.ravel()]), np.concatenate([lams, grid_lams.ravel()])


def pair_values(spec, alphas, lams, want_s):
    """Element i := s_value (``want_s``) or filter_value of (spec, alphas[i],
    lams[i]), checked and evaluated as ``run_filter_checks`` evaluates its pairs."""
    lams = _check_args(spec, alphas, lams)
    return _evaluate(spec, alphas, lams, want_s, np.empty_like(lams))


class TestPairValues:
    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=3), ids=lambda spec: spec.family)
    def test_elements_equal_scalar_calls_bitwise(self, spec):
        alphas, lams = pair_cases()
        for want_s, scalar in ((False, filter_value), (True, s_value)):
            expected = np.array([scalar(spec, a, l) for a, l in zip(alphas, lams)])
            got = pair_values(spec, alphas, lams, want_s)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "alphas, lams",
        [
            ([0.5, 0.0], [0.5, 0.5]),
            ([0.5, -1.0], [0.5, 0.5]),
            ([0.5, math.nan], [0.5, 0.5]),
            ([0.5, 0.5], [0.5, -1e-300]),
            # a NaN or infinite lambda fails the range test, not only a negative one
            ([0.5, 0.5], [0.5, math.nan]),
            ([0.5, 0.5], [0.5, math.inf]),
        ],
    )
    def test_rejects_bad_arguments(self, alphas, lams):
        for spec in ALL_FAMILIES(m=3):
            with pytest.raises(ValueError):
                pair_values(spec, np.array(alphas), np.array(lams), False)
            for scalar in (filter_value, s_value):
                with pytest.raises(ValueError):
                    scalar(spec, alphas[-1], lams[-1])

    def test_landweber_lambda_above_one_rejected(self):
        with pytest.raises(ValueError):
            pair_values(FilterSpec("landweber"), np.array([0.5, 0.5]), np.array([0.5, 1.5]), True)


def assert_filter_invariants(spec, alpha, lams):
    """0 <= s <= 1, s(0) = 0 and q >= 0 at ``alpha`` over ``lams`` and 0."""
    lam = np.append(np.asarray(lams, dtype=float), 0.0)
    s, q = s_value(spec, alpha, lam), filter_value(spec, alpha, lam)
    assert np.all((s >= 0.0) & (s <= 1.0)), (alpha, lam, s)
    assert s[-1] == 0.0
    assert np.all(q >= 0.0), (alpha, lam, q)
    return s, q


UNIT_LAMBDAS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16)


class TestInvariantProperties:
    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=3), ids=lambda spec: spec.family)
    @settings(max_examples=40)
    @given(alpha=st.floats(1.0, 1e300, exclude_min=True), lams=UNIT_LAMBDAS)
    def test_hold_beyond_alpha_one(self, spec, alpha, lams):
        s, q = assert_filter_invariants(spec, alpha, lams)
        if spec.family == "landweber":  # N = floor(1/alpha) = 0: the zero filter
            assert not s.any() and not q.any()

    @settings(max_examples=60)
    @given(
        alpha=st.floats(0.0, 1e3, exclude_min=True),
        lams=st.lists(st.floats(1.0 - 1e-12, 1.0), min_size=1, max_size=16),
    )
    def test_hold_for_landweber_next_to_lambda_one(self, alpha, lams):
        assert_filter_invariants(FilterSpec("landweber"), alpha, lams)

    def test_landweber_at_the_smallest_alpha_is_warning_free(self):
        # 1/alpha, N log1p(-lam) and the unused Taylor term overflow there,
        # each to the intended value
        alpha, lams = 5e-324, np.array([1.0 - 1e-12, 0.5, 1e-300, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = FilterSpec("landweber")
            s, q = assert_filter_invariants(spec, alpha, lams)
            for want_s, scalar in ((True, s), (False, q)):
                pairs = pair_values(spec, np.full(lams.size + 1, alpha), np.append(lams, 0.0), want_s)
                assert pairs.tobytes() == scalar.tobytes()
        assert np.all(s[:-1] == 1.0) and q[-1] == np.finfo(float).max  # q(0) = N
