import math
import tracemalloc

import numpy as np
import pytest

from invreg.filters import ALL_FAMILIES, tikhonov
from invreg.model import SpectralProblem, _observe, estimate_coefficients, sample_observations, substream_seed
from invreg.montecarlo import (
    DiagonalDescriptor,
    ExperimentConfig,
    GreenDescriptor,
    replicate_once,
    run_efficiency_experiment,
    run_rate_experiment,
)
from invreg.problems import TestFunction as GreenTruth
from invreg.problems import _diagonal_spectrum, _diagonal_truth, make_diagonal_problem, make_green_problem
from invreg.risk import direct_risk, empirical_prediction_risk
from invreg.selection import GridScorer, build_grid, choose_lepskii, choose_oracle, grid_size


def ten_mode_problem(sigma=0.05):
    k = np.arange(1.0, 11.0)
    return SpectralProblem(1.0 / k**2, k**-1.5, sigma)


def small_config(**overrides):
    base = dict(
        problem=GreenDescriptor(GreenTruth.HAT, n_modes=64),
        filter_spec=tikhonov(),
        sigmas=(1e-2, 1e-3),
        replications=20,
        master_seed=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def per_replication_triple(problem, spec, grid, replicate_seed):
    """One replication through the per-alpha functions: argmin of the
    direct risk and of the empirical score, the Lepskii rule, and each
    error as ``estimate_coefficients`` followed by ``diff @ diff``."""
    obs = sample_observations(problem, replicate_seed)
    oracle = np.argmin([direct_risk(problem, spec, a).total for a in grid.values])
    pred = np.argmin(
        [empirical_prediction_risk(problem.eigenvalues, problem.sigma, spec, a, obs) for a in grid.values]
    )
    lep = choose_lepskii(problem.eigenvalues, problem.sigma, spec, grid, obs).grid_index
    errors = []
    for i in (oracle, pred, lep):
        diff = estimate_coefficients(problem, spec, float(grid.values[i]), obs).values - problem.truth_coeffs
        errors.append(float(diff @ diff))
    return tuple(errors)


def rate_loop(config):
    """run_rate_experiment's per_rep arrays as one replicate_once per replication."""
    out = []
    for i, (sigma, grid) in enumerate(zip(config.sigmas, config.grids())):
        problem = config.problem.build(sigma)
        stream = substream_seed(config.master_seed, i)
        triples = [
            replicate_once(problem, config.filter_spec, grid, substream_seed(stream, j))
            for j in range(config.replications)
        ]
        out.append(np.array(triples))
    return out


def efficiency_loop(config):
    """run_efficiency_experiment's rows as one replicate_once per replication."""
    out = []
    for i, (sigma, grid) in enumerate(zip(config.sigmas, config.grids())):
        stream = substream_seed(config.master_seed, i)
        triples = []
        for j in range(config.replications):
            rep_stream = substream_seed(stream, j)
            problem = config.problem.build(sigma, substream_seed(rep_stream, 0))
            triples.append(replicate_once(problem, config.filter_spec, grid, substream_seed(rep_stream, 1)))
        t = np.array(triples)
        out.append((float(np.mean(t[:, 0] / t[:, 1])), float(np.mean(t[:, 0] / t[:, 2]))))
    return out


class TestExperimentConfig:
    def test_rejects_empty_sigmas(self):
        with pytest.raises(ValueError):
            small_config(sigmas=())

    def test_rejects_single_replication(self):
        with pytest.raises(ValueError):
            small_config(replications=1)

    def test_rejects_flat_ratio(self):
        with pytest.raises(ValueError):
            small_config(grid_ratio=1.0)

    def test_a_grid_ratio_just_above_one_is_refused_before_any_grid_is_built(self, monkeypatch):
        import invreg.montecarlo

        def refuse(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(invreg.montecarlo, "build_grid", refuse)
        k = grid_size(1e-2, 1.0, 1 + 2**-52)
        with pytest.raises(ValueError, match=f"{k} grid points \\(grid_ratio = 1.0000000000000002\\), over the budget"):
            ExperimentConfig(DiagonalDescriptor(8), tikhonov(), (1e-2,), 2, grid_ratio=1 + 2**-52)

    def test_grids_are_built_once_with_the_config(self, monkeypatch):
        import invreg.montecarlo

        calls = []

        def counting(*args):
            calls.append(args)
            return build_grid(*args)

        monkeypatch.setattr(invreg.montecarlo, "build_grid", counting)
        config = small_config()
        first, second = config.grids(), config.grids()
        assert len(calls) == len(config.sigmas)
        expected = [build_grid(s, config.problem.lambda_max, config.grid_ratio) for s in config.sigmas]
        for grids in (first, second):
            assert [g.values.tobytes() for g in grids] == [g.values.tobytes() for g in expected]


class TestReplicateOnce:
    def test_same_seed_same_triple(self):
        p = ten_mode_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        a = replicate_once(p, tikhonov(), grid, 999)
        b = replicate_once(p, tikhonov(), grid, 999)
        assert a == b

    def test_errors_finite_nonnegative(self):
        p = ten_mode_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        for seed in range(50):
            triple = replicate_once(p, tikhonov(), grid, substream_seed(8, seed))
            assert all(math.isfinite(e) and e >= 0.0 for e in triple)

    def test_passed_scorer_gives_the_same_triple(self):
        p = ten_mode_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        scorer = GridScorer(p.eigenvalues, p.sigma, tikhonov(), grid)
        for seed in range(5):
            assert replicate_once(p, tikhonov(), grid, seed, scorer=scorer) == replicate_once(
                p, tikhonov(), grid, seed
            )

    def test_scorer_of_another_problem_rejected(self):
        p = ten_mode_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        other = GridScorer(p.eigenvalues, 2 * p.sigma, tikhonov(), grid)
        with pytest.raises(ValueError):
            replicate_once(p, tikhonov(), grid, 1, scorer=other)

    def test_noise_free_limit_is_bias(self):
        p = ten_mode_problem(sigma=1e-300)
        grid = build_grid(1e-6, 1.0, 1.6)  # avoid the huge sigma^2-anchored grid
        err_or, err_pred, err_lep = replicate_once(p, tikhonov(), grid, 3)
        biases = [direct_risk(p, tikhonov(), a).bias_term for a in grid.values]
        assert err_or == pytest.approx(min(biases), rel=1e-10)
        assert err_pred == pytest.approx(min(biases), rel=1e-10)

    def test_oracle_error_mean_matches_closed_form(self):
        p = ten_mode_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        oracle = choose_oracle(p, tikhonov(), grid)
        m = 2000
        errs = np.array(
            [replicate_once(p, tikhonov(), grid, substream_seed(21, j), oracle)[0] for j in range(m)]
        )
        se = errs.std(ddof=1) / math.sqrt(m)
        assert abs(errs.mean() - oracle.score) <= 4 * se


    def test_equals_the_per_replication_formulas_bitwise(self):
        problems = (
            make_green_problem(1024, GreenTruth.HAT, 2.0**-21, frame="discrete"),
            make_diagonal_problem(300, 4.0, 4.0, 1e-6, seed=11),
        )
        for p in problems:
            grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
            for spec in ALL_FAMILIES(m=3):
                for seed in (1, 2):
                    got = np.array(replicate_once(p, spec, grid, seed))
                    assert got.tobytes() == np.array(per_replication_triple(p, spec, grid, seed)).tobytes()

    def test_oracle_of_another_grid_rejected(self):
        p = ten_mode_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        other = choose_oracle(p, tikhonov(), build_grid(p.sigma, 1.0, 1.5))
        with pytest.raises(ValueError):
            replicate_once(p, tikhonov(), grid, 1, other)


class TestEfficiencyDraws:
    @pytest.mark.parametrize("n", [1, 300, 1024])
    def test_truth_and_noise_equal_the_problem_and_its_observations_bytewise(self, n):
        # the efficiency study draws each replication through these helpers
        # from a spectrum built once per run
        eigenvalues, decay = _diagonal_spectrum(n, 4.0, 4.0)
        root = np.sqrt(eigenvalues)
        for seed in range(33):
            p = make_diagonal_problem(n, 4.0, 4.0, 1e-3, seed)
            truth = _diagonal_truth(decay, seed)
            assert truth.tobytes() == p.truth_coeffs.tobytes()
            assert eigenvalues.tobytes() == p.eigenvalues.tobytes()
            noisy = _observe(root, truth, 1e-3, seed + 1000)
            assert noisy.tobytes() == sample_observations(p, seed + 1000).values.tobytes()


class TestBatches:
    """Replications run in batches of at most filters._BLOCK // n (32 at
    1024 modes, 3 at 10240, 109 at 300); the sizes below cross a batch
    boundary."""

    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=3), ids=lambda s: s.family)
    def test_rate_per_rep_equals_a_loop_of_replicate_once(self, spec):
        config = small_config(
            problem=GreenDescriptor(GreenTruth.HAT, n_modes=1024),
            filter_spec=spec,
            sigmas=(2.0**-15, 2.0**-21),
            replications=35,
        )
        for row, expected in zip(run_rate_experiment(config).rows, rate_loop(config)):
            got = np.stack([row.per_rep["or"], row.per_rep["pred"], row.per_rep["lep"]], axis=1)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=3), ids=lambda s: s.family)
    def test_wide_rate_per_rep_equals_a_loop_of_replicate_once(self, spec):
        # 10240 modes: the math.fsum path, batches of 3 replications
        config = small_config(
            problem=GreenDescriptor(GreenTruth.INDICATOR, n_modes=10240),
            filter_spec=spec,
            sigmas=(2.0**-15,),
            replications=4,
        )
        for row, expected in zip(run_rate_experiment(config).rows, rate_loop(config)):
            got = np.stack([row.per_rep["or"], row.per_rep["pred"], row.per_rep["lep"]], axis=1)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=3), ids=lambda s: s.family)
    def test_efficiency_rows_equal_a_loop_of_replicate_once(self, spec):
        config = ExperimentConfig(
            problem=DiagonalDescriptor(n=300, a=4.0, nu=4.0),
            filter_spec=spec,
            sigmas=(1e-2, 1e-6),
            replications=120,
            master_seed=6,
        )
        got = [(row.eff_pred, row.eff_lep) for row in run_efficiency_experiment(config).rows]
        assert np.array(got).tobytes() == np.array(efficiency_loop(config)).tobytes()

    @pytest.mark.parametrize(
        "run, config",
        [
            # the benchmark's rates-hat and efficiency-diag configs
            (
                run_rate_experiment,
                small_config(
                    problem=GreenDescriptor(GreenTruth.HAT, n_modes=1024),
                    sigmas=tuple(2.0**-k for k in range(15, 22)),
                    replications=10,
                    master_seed=20240901,
                ),
            ),
            (
                run_efficiency_experiment,
                ExperimentConfig(
                    problem=DiagonalDescriptor(n=300, a=4.0, nu=4.0),
                    filter_spec=tikhonov(),
                    sigmas=tuple(10.0**-k for k in range(1, 7)),
                    replications=5,
                    master_seed=20240901,
                ),
            ),
        ],
        ids=["rates-hat", "efficiency-diag"],
    )
    def test_memory_above_the_grid_buffer_stays_small(self, run, config):
        # the K_max x n buffer is the one large array of a run; a cached or
        # leaked K x n block per noise level or batch would show here
        run(config)
        n = config.problem.n_modes if isinstance(config.problem, GreenDescriptor) else config.problem.n
        buffer_bytes = max(map(len, config.grids())) * n * 8
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - buffer_bytes <= 0.75 * 2**20

    def test_the_benchmark_hat_config_certifies_its_lepskii_picks(self, monkeypatch):
        # the rates-hat benchmark config: a replication that the float32
        # test cannot certify pays for the float64 test on top of it
        outcomes = []
        certify = GridScorer._certified_pick

        def recording(self, *args):
            best = certify(self, *args)
            outcomes.append(best >= 0)
            return best

        monkeypatch.setattr(GridScorer, "_certified_pick", recording)
        run_rate_experiment(
            small_config(
                problem=GreenDescriptor(GreenTruth.HAT, n_modes=1024),
                sigmas=tuple(2.0**-k for k in range(15, 22)),
                replications=10,
                master_seed=20240901,
            )
        )
        assert len(outcomes) == 70 and sum(outcomes) >= 0.99 * len(outcomes)


class TestRunRateExperiment:
    def test_row_shape_and_aggregation(self):
        table = run_rate_experiment(small_config())
        assert len(table.rows) == 2
        for row, sigma in zip(table.rows, (1e-2, 1e-3)):
            assert row.sigma == sigma
            for key in ("or", "pred", "lep"):
                assert row.per_rep[key].size == 20
            # recomputing means/SEs from retained errors reproduces the row
            assert row.r_or == float(np.mean(row.per_rep["or"]))
            assert row.se_or == float(np.std(row.per_rep["or"], ddof=1) / math.sqrt(20))
            assert row.r_pred == float(np.mean(row.per_rep["pred"]))
            assert row.r_lep == float(np.mean(row.per_rep["lep"]))
            assert row.r_or >= 0 and row.r_pred >= 0 and row.r_lep >= 0

    def test_worker_count_independence(self):
        tables = [run_rate_experiment(small_config(), workers=w) for w in (1, 2, 8)]
        for other in tables[1:]:
            for a, b in zip(tables[0].rows, other.rows):
                assert (a.sigma, a.r_or, a.se_or, a.r_pred, a.se_pred, a.r_lep, a.se_lep) == (
                    b.sigma, b.r_or, b.se_or, b.r_pred, b.se_pred, b.r_lep, b.se_lep
                )
                for key in ("or", "pred", "lep"):
                    np.testing.assert_array_equal(a.per_rep[key], b.per_rep[key])

    def test_master_seed_changes_results(self):
        a = run_rate_experiment(small_config(master_seed=1))
        b = run_rate_experiment(small_config(master_seed=2))
        assert a.rows[0].r_or != b.rows[0].r_or

    def test_oracle_dominates_within_noise(self):
        table = run_rate_experiment(small_config(replications=100))
        for row in table.rows:
            assert row.r_or <= row.r_pred * (1 + 3 * row.se_pred / row.r_pred)
            assert row.r_or <= row.r_lep * (1 + 3 * row.se_lep / row.r_lep)

    def test_requires_green_descriptor(self):
        with pytest.raises(ValueError):
            run_rate_experiment(small_config(problem=DiagonalDescriptor()))


class TestRunEfficiencyExperiment:
    @pytest.mark.parametrize("n, a", [(0, 4.0), (32, -1.0), (32, 200.0), (32, math.nan)])
    def test_descriptor_refuses_a_spectrum_that_is_not_positive_and_non_increasing(self, n, a):
        # the run builds no per-replication problem that would check it
        with pytest.raises(ValueError):
            DiagonalDescriptor(n=n, a=a)

    @pytest.mark.parametrize("n, nu", [(32, -150.0), (32, -300.0), (2, -2000.0), (32, math.nan)])
    def test_descriptor_refuses_a_nu_whose_truth_overflows(self, n, nu):
        with pytest.raises(ValueError, match="nu"):
            DiagonalDescriptor(n=n, nu=nu)

    def test_ratios_in_unit_band(self):
        config = ExperimentConfig(
            problem=DiagonalDescriptor(n=50, a=4.0, nu=4.0),
            filter_spec=tikhonov(),
            sigmas=(1e-2, 1e-4),
            replications=100,
            master_seed=6,
        )
        table = run_efficiency_experiment(config)
        for row in table.rows:
            assert 0.0 < row.eff_pred <= 1.05
            assert 0.0 < row.eff_lep <= 1.05

    def test_worker_count_independence(self):
        config = ExperimentConfig(
            problem=DiagonalDescriptor(n=30, a=3.0, nu=3.0),
            filter_spec=tikhonov(),
            sigmas=(1e-2,),
            replications=40,
            master_seed=6,
        )
        a = run_efficiency_experiment(config, workers=1)
        b = run_efficiency_experiment(config, workers=8)
        assert a == b

    def test_requires_diagonal_descriptor(self):
        with pytest.raises(ValueError):
            run_efficiency_experiment(small_config())


class TestGreenDescriptorFrames:
    def test_default_frame_is_discrete(self):
        assert GreenDescriptor(GreenTruth.HAT).frame == "discrete"

    def test_analytic_frame_builds_printed_coefficients(self):
        desc = GreenDescriptor(GreenTruth.HAT, n_modes=8, frame="analytic")
        p = desc.build(0.1)
        assert p.truth_coeffs[0] == pytest.approx(-1.0 / (2.0 * math.pi**3), rel=1e-14)
