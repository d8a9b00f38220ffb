import math
import tracemalloc

import numpy as np
import pytest

from conftest import config_grids, one_replication
from invreg import lepskii, selection
from invreg.filters import ALL_FAMILIES, FilterSpec
from invreg.model import (
    SpectralProblem,
    _generators,
    _noisy,
    _seed_words,
    estimate_coefficients,
    sample_observations,
    substream_seed,
)
from invreg.montecarlo import (
    DiagonalDescriptor,
    ExperimentConfig,
    GreenDescriptor,
    run_efficiency_experiment,
    run_rate_experiment,
)
from invreg.problems import TestFunction as GreenTruth
from invreg.problems import _diagonal_spectrum, _diagonal_truths, make_diagonal_problem, make_green_problem
from invreg.risk import direct_risk, empirical_prediction_risk
from invreg.selection import GridScorer, build_grid, grid_size


def ten_mode_problem(sigma=0.05):
    k = np.arange(1.0, 11.0)
    return SpectralProblem(1.0 / k**2, k**-1.5, sigma)


def small_config(**overrides):
    base = dict(
        problem=GreenDescriptor(GreenTruth.HAT, n_modes=64),
        filter_spec=FilterSpec("tikhonov"),
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
    oracle = np.argmin([direct_risk(problem, spec, a).total for a in grid])
    pred = np.argmin(
        [empirical_prediction_risk(problem.eigenvalues, problem.sigma, spec, a, obs) for a in grid]
    )
    lep = GridScorer(problem.eigenvalues, problem.sigma, spec, grid).batch_lepskii_picks(obs[None])[0]
    errors = []
    for i in (oracle, pred, lep):
        diff = estimate_coefficients(problem, spec, float(grid[i]), obs) - problem.truth_coeffs
        errors.append(float(diff @ diff))
    return tuple(errors)


def evaluated_alphas(monkeypatch) -> set:
    """The set that collects every alpha at which a scorer evaluates q or s
    from now on (``filters._evaluate``, as ``selection`` calls it)."""
    seen, evaluate = set(), selection._evaluate

    def recording(spec, alpha, lam, want_s, out):
        seen.update(np.ravel(alpha).tolist())
        return evaluate(spec, alpha, lam, want_s, out)

    monkeypatch.setattr(selection, "_evaluate", recording)
    return seen


def scorer_picks(scorer, truths, values):
    """The oracle, pred and Lepskii indices of a batch, as a study's phases pick them."""
    return (*scorer.batch_picks(truths, values), scorer.batch_lepskii_picks(values))


def rate_loop(config):
    """run_rate_experiment's per_rep arrays as one batch of one per replication."""
    out = []
    for i, (sigma, grid) in enumerate(zip(config.sigmas, config_grids(config))):
        desc = config.problem
        problem = make_green_problem(desc.n_modes, desc.truth, sigma, desc.frame)
        stream = substream_seed(config.master_seed, i)
        triples = [
            one_replication(problem, config.filter_spec, grid, substream_seed(stream, j))
            for j in range(config.replications)
        ]
        out.append(np.array(triples))
    return out


def efficiency_loop(config):
    """run_efficiency_experiment's rows as one batch of one per replication."""
    out = []
    for i, (sigma, grid) in enumerate(zip(config.sigmas, config_grids(config))):
        stream = substream_seed(config.master_seed, i)
        triples = []
        for j in range(config.replications):
            rep_stream = substream_seed(stream, j)
            desc = config.problem
            problem = make_diagonal_problem(desc.n, desc.a, desc.nu, sigma, substream_seed(rep_stream, 0))
            triples.append(one_replication(problem, config.filter_spec, grid, substream_seed(rep_stream, 1)))
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
            ExperimentConfig(DiagonalDescriptor(8), FilterSpec("tikhonov"), (1e-2,), 2, grid_ratio=1 + 2**-52)

    def test_a_run_builds_each_grid_once(self, monkeypatch):
        import invreg.montecarlo

        built = []

        def counting(*args):
            built.append(build_grid(*args))
            return built[-1]

        monkeypatch.setattr(invreg.montecarlo, "build_grid", counting)
        config = small_config()
        assert not built  # the config checks the grid sizes without building a grid
        run_rate_experiment(config)
        assert len(built) == len(config.sigmas)
        expected = [build_grid(s, config.problem.lambda_max, config.grid_ratio) for s in config.sigmas]
        assert [g.tobytes() for g in built] == [g.tobytes() for g in expected]


class TestOneReplication:
    """One replication scored as a batch of one (``conftest.one_replication``)."""

    def test_same_seed_same_triple(self):
        p = ten_mode_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        a = one_replication(p, FilterSpec("tikhonov"), grid, 999)
        b = one_replication(p, FilterSpec("tikhonov"), grid, 999)
        assert a == b

    def test_errors_finite_nonnegative(self):
        p = ten_mode_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        for seed in range(50):
            triple = one_replication(p, FilterSpec("tikhonov"), grid, substream_seed(8, seed))
            assert all(math.isfinite(e) and e >= 0.0 for e in triple)

    def test_passed_scorer_gives_the_same_triple(self):
        p = ten_mode_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        for seed in range(5):
            assert one_replication(p, FilterSpec("tikhonov"), grid, seed, scorer=scorer) == one_replication(
                p, FilterSpec("tikhonov"), grid, seed
            )

    def test_noise_free_limit_is_bias(self):
        p = ten_mode_problem(sigma=1e-300)
        grid = build_grid(1e-6, 1.0, 1.6)  # avoid the huge sigma^2-anchored grid
        err_or, err_pred, err_lep = one_replication(p, FilterSpec("tikhonov"), grid, 3)
        biases = [direct_risk(p, FilterSpec("tikhonov"), a).bias_term for a in grid]
        assert err_or == pytest.approx(min(biases), rel=1e-10)
        assert err_pred == pytest.approx(min(biases), rel=1e-10)

    def test_oracle_error_mean_matches_closed_form(self):
        p = ten_mode_problem()
        grid = build_grid(p.sigma, 1.0, 1.3)
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid)
        truths = p.truth_coeffs[None]
        oracle = int(scorer.batch_picks(truths, np.empty((0, p.n_modes)))[0][0])
        score = scorer.batch_oracle_scores(truths)[0, oracle]
        m = 2000
        errs = np.array(
            [one_replication(p, FilterSpec("tikhonov"), grid, substream_seed(21, j), oracle)[0] for j in range(m)]
        )
        se = errs.std(ddof=1) / math.sqrt(m)
        assert abs(errs.mean() - score) <= 4 * se

    def test_equals_the_per_replication_formulas_bitwise(self):
        problems = (
            make_green_problem(1024, GreenTruth.HAT, 2.0**-21, frame="discrete"),
            make_diagonal_problem(300, 4.0, 4.0, 1e-6, seed=11),
        )
        for p in problems:
            grid = build_grid(p.sigma, float(p.eigenvalues[0]), 1.2)
            for spec in ALL_FAMILIES(m=3):
                for seed in (1, 2):
                    got = np.array(one_replication(p, spec, grid, seed))
                    assert got.tobytes() == np.array(per_replication_triple(p, spec, grid, seed)).tobytes()


class TestEfficiencyDraws:
    @pytest.mark.parametrize("n", [1, 300, 1024])
    def test_truth_and_noise_equal_the_problem_and_its_observations_bytewise(self, n):
        # the efficiency study draws each batch through these helpers, from
        # generators built from seed words and a spectrum built once per run
        eigenvalues, decay = _diagonal_spectrum(n, 4.0, 4.0)
        seeds = np.arange(33, dtype=np.uint64)
        truths = _diagonal_truths(decay, _generators(_seed_words(seeds)), 33)
        noisy = _noisy(np.sqrt(eigenvalues) * truths, 1e-3, _generators(_seed_words(seeds + np.uint64(1000))), 33)
        for seed in range(33):
            p = make_diagonal_problem(n, 4.0, 4.0, 1e-3, seed)
            assert truths[seed].tobytes() == p.truth_coeffs.tobytes()
            assert eigenvalues.tobytes() == p.eigenvalues.tobytes()
            assert noisy[seed].tobytes() == sample_observations(p, seed + 1000).tobytes()


class TestBatches:
    """Replications run in batches of at most filters._BLOCK // n (32 at
    1024 modes, 3 at 10240, 109 at 300); the sizes below cross a batch
    boundary."""

    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=3), ids=lambda s: s.family)
    def test_rate_per_rep_equals_a_loop_of_single_replications(self, spec):
        config = small_config(
            problem=GreenDescriptor(GreenTruth.HAT, n_modes=1024),
            filter_spec=spec,
            sigmas=(2.0**-15, 2.0**-21),
            replications=35,
        )
        for row, expected in zip(run_rate_experiment(config), rate_loop(config)):
            got = np.stack([row.per_rep["or"], row.per_rep["pred"], row.per_rep["lep"]], axis=1)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=3), ids=lambda s: s.family)
    def test_wide_rate_per_rep_equals_a_loop_of_single_replications(self, spec):
        # 10240 modes: the math.fsum path, batches of 3 replications
        config = small_config(
            problem=GreenDescriptor(GreenTruth.INDICATOR, n_modes=10240),
            filter_spec=spec,
            sigmas=(2.0**-15,),
            replications=4,
        )
        for row, expected in zip(run_rate_experiment(config), rate_loop(config)):
            got = np.stack([row.per_rep["or"], row.per_rep["pred"], row.per_rep["lep"]], axis=1)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", ALL_FAMILIES(m=3), ids=lambda s: s.family)
    def test_efficiency_rows_equal_a_loop_of_single_replications(self, spec):
        config = ExperimentConfig(
            problem=DiagonalDescriptor(n=300, a=4.0, nu=4.0),
            filter_spec=spec,
            sigmas=(1e-2, 1e-6),
            replications=120,
            master_seed=6,
        )
        got = [(row.eff_pred, row.eff_lep) for row in run_efficiency_experiment(config)]
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
                    filter_spec=FilterSpec("tikhonov"),
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
        buffer_bytes = max(map(len, config_grids(config))) * n * 8
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
        outcomes, batches = [], []
        certify, picks = lepskii._certify, lepskii.picks

        def recording(*args):
            best, need = certify(*args)
            outcomes.extend(best >= 0)
            return best, need

        def counting(buffer, thresholds_sq, values, *args):
            batches.append(len(values))
            return picks(buffer, thresholds_sq, values, *args)

        monkeypatch.setattr(lepskii, "_certify", recording)
        monkeypatch.setattr(lepskii, "picks", counting)
        alphas = evaluated_alphas(monkeypatch)
        phases, calls = ("batch_picks", "batch_lepskii_picks", "batch_errors"), []

        def logged(name, method):
            return lambda self, *args: calls.append(name) or method(self, *args)

        for name in phases:
            monkeypatch.setattr(GridScorer, name, logged(name, getattr(GridScorer, name)))
        config = small_config(
            problem=GreenDescriptor(GreenTruth.HAT, n_modes=1024),
            sigmas=tuple(2.0**-k for k in range(15, 22)),
            replications=10,
            master_seed=20240901,
        )
        run_rate_experiment(config)
        # each noise level evaluates q and s at no more than 60 % of its grid
        # rows (52 of 89 to 76 of 135), the first one too
        for grid in config_grids(config):
            assert len(alphas & set(grid.tolist())) <= 0.6 * len(grid)
        assert len(outcomes) == 70 and sum(outcomes) >= 0.99 * len(outcomes)
        # one Lepskii call per batch: each noise level's 10 replications are one batch
        assert batches == [10] * 7
        # and one scorer call per phase of each batch, in the study's order
        assert calls == list(phases) * 7

    def test_a_batch_whose_lepskii_pick_is_the_top_row_forms_the_whole_grid(self, monkeypatch):
        # the efficiency-diag noise level sigma = 0.1 at 1500 modes, so that
        # its 26 x n block exceeds a row block: Lepskii picks the top row
        # for some replications, so the batch forms every grid row, and
        # every pick equals that of the whole grid formed from the start
        p = make_diagonal_problem(1500, 4.0, 4.0, 0.1, 1)
        grid = build_grid(0.1, 1.0, 1.2)
        values = np.sqrt(p.eigenvalues) * p.truth_coeffs + 0.1 * np.random.default_rng(3).standard_normal((5, 1500))
        truths = np.broadcast_to(p.truth_coeffs, values.shape)
        expected = scorer_picks(GridScorer(p.eigenvalues, 0.1, FilterSpec("tikhonov"), grid), truths, values)
        alphas = evaluated_alphas(monkeypatch)
        got = scorer_picks(GridScorer(p.eigenvalues, 0.1, FilterSpec("tikhonov"), grid, cut=0.5), truths, values)
        assert (got[2] == len(grid) - 1).any() and len(alphas) == len(grid)
        assert [x.tolist() for x in got] == [x.tolist() for x in expected]

    def test_one_replication_alone_forces_the_cut_up(self, monkeypatch):
        # hat observations at sigma = 2^-15: a batch of nine forms the 60 %
        # of the rows it starts from; a tenth observation scaled down 1000
        # times lies within the thresholds far above them, so its Lepskii
        # pick lies above those rows, and the batch forms the whole grid
        # with the picks of the whole grid
        p = make_green_problem(1024, GreenTruth.HAT, 2.0**-15, frame="discrete")
        grid = build_grid(p.sigma, math.pi**-4.0, 1.2)
        rng = np.random.default_rng(11)
        values = np.sqrt(p.eigenvalues) * p.truth_coeffs + p.sigma * rng.standard_normal((10, 1024))
        values[6] *= 1e-3
        truths = np.broadcast_to(p.truth_coeffs, values.shape)
        spec = FilterSpec("tikhonov")
        batches = (np.delete(values, 6, axis=0), values)
        picks = [scorer_picks(GridScorer(p.eigenvalues, p.sigma, spec, grid), truths[: len(b)], b) for b in batches]
        formed = []
        for batch, expected in zip(batches, picks):
            alphas = evaluated_alphas(monkeypatch)
            got = scorer_picks(GridScorer(p.eigenvalues, p.sigma, spec, grid, cut=0.6), truths[: len(batch)], batch)
            assert [x.tolist() for x in got] == [x.tolist() for x in expected]
            formed.append(len(alphas))
        assert formed[0] == math.ceil(0.6 * len(grid)) and formed[1] == len(grid)
        assert expected[2][6] > formed[0]

    def test_lepskii_forms_its_centre_row_once_however_often_the_rows_grow(self, monkeypatch):
        # the hat batch at sigma = 2^-15 whose observation scaled down 1000
        # times picks near the top row: Lepskii's call starts from the 84
        # rows the picks needed and grows them twice, to 86 and to all 89,
        # and it forms the centre row and row 0 together, in one call, and
        # stages every row once
        p = make_green_problem(1024, GreenTruth.HAT, 2.0**-15, frame="discrete")
        grid = build_grid(p.sigma, math.pi**-4.0, 1.2)
        values = np.sqrt(p.eigenvalues) * p.truth_coeffs + p.sigma * np.random.default_rng(11).standard_normal((10, 1024))
        values[6] *= 1e-3
        scorer = GridScorer(p.eigenvalues, p.sigma, FilterSpec("tikhonov"), grid, cut=0.6)
        scorer.batch_picks(np.broadcast_to(p.truth_coeffs, values.shape), values)
        formed, rows, guess, first = [], scorer._rows, scorer._guess, scorer._first_rows()
        monkeypatch.setattr(scorer, "_rows", lambda at, out: formed.append(at) or rows(at, out))
        scorer.batch_lepskii_picks(values)
        staged = [at.indices(len(grid))[:2] for at in formed if isinstance(at, slice)]
        assert [at for at in formed if not isinstance(at, slice)] == [[guess, 0]]
        assert [lo for lo, hi in staged if lo >= first] == [84, 86] and first == 84
        assert sorted(i for lo, hi in staged for i in range(lo, hi)) == list(range(len(grid)))

    def test_the_benchmark_hat_config_reads_a_few_gram_columns_per_pick(self, monkeypatch):
        # a batch reads the S_i pass and a column per candidate or witness,
        # never the whole K x K float32 gram: at most 2 columns' worth of
        # entries (2 K) per replication (1.16 K measured), and no product as
        # wide as K columns of K rows
        replications, entries = [], []
        certify, gram_columns = lepskii._certify, lepskii._gram_columns

        def recording(buffer, thresholds_sq, values, *args):
            replications.extend([len(buffer)] * len(values))
            best, need = certify(buffer, thresholds_sq, values, *args)
            assert (best >= 0).all()
            return best, need

        def counting(rows, columns):
            out = gram_columns(rows, columns)
            entries.append(out.size)
            assert out.size < replications[-1] ** 2
            return out

        monkeypatch.setattr(lepskii, "_certify", recording)
        monkeypatch.setattr(lepskii, "_gram_columns", counting)
        run_rate_experiment(
            small_config(
                problem=GreenDescriptor(GreenTruth.HAT, n_modes=1024),
                sigmas=tuple(2.0**-k for k in range(15, 22)),
                replications=10,
                master_seed=20240901,
            )
        )
        assert len(replications) == 70 and sum(entries) <= 2 * sum(replications)


class TestRunRateExperiment:
    def test_row_shape_and_aggregation(self):
        table = run_rate_experiment(small_config())
        assert len(table) == 2
        for row, sigma in zip(table, (1e-2, 1e-3)):
            assert row.sigma == sigma
            for key in ("or", "pred", "lep"):
                assert row.per_rep[key].size == 20
            # recomputing means/SEs from retained errors reproduces the row
            assert row.r_or == float(np.mean(row.per_rep["or"]))
            assert row.se_or == float(np.std(row.per_rep["or"], ddof=1) / math.sqrt(20))
            assert row.r_pred == float(np.mean(row.per_rep["pred"]))
            assert row.r_lep == float(np.mean(row.per_rep["lep"]))
            assert row.r_or >= 0 and row.r_pred >= 0 and row.r_lep >= 0

    def test_reruns_are_identical(self):
        tables = [run_rate_experiment(small_config()) for _ in range(3)]
        for other in tables[1:]:
            for a, b in zip(tables[0], other):
                assert (a.sigma, a.r_or, a.se_or, a.r_pred, a.se_pred, a.r_lep, a.se_lep) == (
                    b.sigma, b.r_or, b.se_or, b.r_pred, b.se_pred, b.r_lep, b.se_lep
                )
                for key in ("or", "pred", "lep"):
                    np.testing.assert_array_equal(a.per_rep[key], b.per_rep[key])

    def test_master_seed_changes_results(self):
        a = run_rate_experiment(small_config(master_seed=1))
        b = run_rate_experiment(small_config(master_seed=2))
        assert a[0].r_or != b[0].r_or

    def test_oracle_dominates_within_noise(self):
        table = run_rate_experiment(small_config(replications=100))
        for row in table:
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
            filter_spec=FilterSpec("tikhonov"),
            sigmas=(1e-2, 1e-4),
            replications=100,
            master_seed=6,
        )
        table = run_efficiency_experiment(config)
        for row in table:
            assert 0.0 < row.eff_pred <= 1.05
            assert 0.0 < row.eff_lep <= 1.05

    def test_reruns_are_identical(self):
        config = ExperimentConfig(
            problem=DiagonalDescriptor(n=30, a=3.0, nu=3.0),
            filter_spec=FilterSpec("tikhonov"),
            sigmas=(1e-2,),
            replications=40,
            master_seed=6,
        )
        a = run_efficiency_experiment(config)
        b = run_efficiency_experiment(config)
        assert a == b

    def test_requires_diagonal_descriptor(self):
        with pytest.raises(ValueError):
            run_efficiency_experiment(small_config())


class TestGreenDescriptorFrames:
    def test_default_frame_is_discrete(self):
        assert GreenDescriptor(GreenTruth.HAT).frame == "discrete"

    def test_analytic_frame_builds_printed_coefficients(self):
        desc = GreenDescriptor(GreenTruth.HAT, n_modes=8, frame="analytic")
        p = make_green_problem(desc.n_modes, desc.truth, 0.1, desc.frame)
        assert p.truth_coeffs[0] == pytest.approx(-1.0 / (2.0 * math.pi**3), rel=1e-14)
