"""End-to-end acceptance suite.

Each test prints one pass/fail line with the measured values; the printed
verdict always matches the assertion outcome.
"""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import invreg
from invreg.checks import run_filter_checks
from invreg.cli import main
from invreg.filters import ALL_FAMILIES, FilterSpec
from invreg.model import SpectralProblem, sample_observations, substream_seed
from invreg.montecarlo import ExperimentConfig, GreenDescriptor, DiagonalDescriptor, run_efficiency_experiment, run_rate_experiment
from invreg.problems import TestFunction as GreenTruth
from invreg.problems import make_green_problem
from invreg.ratetest import RateSample, normal_cdf, rate_test, weighted_slope_fit
from invreg.risk import direct_risk, empirical_prediction_risk, prediction_risk
from invreg.selection import GridScorer, build_grid
from invreg.tables import emit_efficiency_table, emit_per_rep_errors, emit_risk_table

from conftest import discretize_integral_operator, record_acceptance

MASTER_SEED = 20240901
RATE_SIGMAS = tuple(2.0**-k for k in range(15, 22))

# sha256 of the tables the CLI writes for these studies at MASTER_SEED; a
# change to any of them must be justified in CHANGES.md.  They hold on the
# platform they were recorded on, numpy's X86_V4 loops and OpenBLAS's
# SkylakeX kernels: elsewhere numpy's transcendental loops and BLAS's dot
# product give other bits (tests/test_v0_differential.py checks both)
GOLDEN = {
    "hat": {
        "risk_table.csv": "64b31c0e0e20b8fae015afaf16ea8bd17c67c7107c856ea58d52974d50bee58e",
        "per_rep_errors.csv": "770e2835a022bfe0682f733ad89620c29a1345a65d9b2e460c4940f3093f2244",
    },
    "indicator": {
        "risk_table.csv": "a2af32e450bdbae7f8a0ac3b24c102804a7c4c17ecec307bdeb0c8359890c7b3",
        "per_rep_errors.csv": "481b4e47c1359f47646af3fd52ae1cc35ab994f5ba0536121708abeed8c54375",
    },
    "efficiency": {
        "efficiency.csv": "c70a884ce0e00cb1d64a3438e1272c800021c3486cfead372b4103ecc30c302f",
    },
}


# sha256 of the same tables for the other four families (iterated Tikhonov
# at m = 2), at the same configs and seed.  They were written by the frozen
# v0 CLI of perfbench/reference, run with the Landweber patch of
# test_v0_differential.py (which reproduced GOLDEN for Tikhonov too), not
# by this package; a change to any of them must be justified in CHANGES.md.
# Like GOLDEN, they hold on numpy's X86_V4 loops and OpenBLAS's SkylakeX
# kernels, where they were recorded
FAMILY_GOLDEN = {
    ("spectral_cutoff", "hat"): {
        "risk_table.csv": "b37d7c62097b22e2634f06e91136f57816c80db0310ca7df307cedba02ed9593",
        "per_rep_errors.csv": "92caf09b9d630c7469daf7cc64b5536f8bd1a277e90e1e18e39a38e785fe69a6",
    },
    ("spectral_cutoff", "indicator"): {
        "risk_table.csv": "5dbf0a990729ecc58a774a16ff9c1fd2a1c2e9df3b0bb362a09a0f22c12825e6",
        "per_rep_errors.csv": "a2df7bf58f77adddbe0020537fab6673bb2484ba06fec15973915210856251ef",
    },
    ("spectral_cutoff", "efficiency"): {
        "efficiency.csv": "e3fdaabd0da3e7b33f4f77cf90b5d05e7bcbf8eb8687ba92e28d5d70d00a66bd",
    },
    ("iterated_tikhonov", "hat"): {
        "risk_table.csv": "da63f7209450d932657715642ff8022076d958dabb96aee2e6bf0b57b380e945",
        "per_rep_errors.csv": "9e2898b12eaa8d92f5968dd785fa9419f1e8884a583125802290602bee69ea62",
    },
    ("iterated_tikhonov", "indicator"): {
        "risk_table.csv": "865ca0bc0545ca9c4a4d841af02d973d3916f33202cdb31bee18714f6f4860f6",
        "per_rep_errors.csv": "4f2c4a0fff7b5415e9633734d9863dafe66898b37b265fae7851e9c432caadbb",
    },
    ("iterated_tikhonov", "efficiency"): {
        "efficiency.csv": "c5df10a02c0270dd8fa356b82e40c1d37bc7467d5087c0028ec3b8f8c0f2d646",
    },
    ("landweber", "hat"): {
        "risk_table.csv": "66a04d5626ddef685a4c2f973a3a43db3a3bda8c3a761f65b9bfe7ea99441f95",
        "per_rep_errors.csv": "b88f3c00a5f3bfcbe5761470c84eb37ac1fc41faba4dbdd645d5b52529114906",
    },
    ("landweber", "indicator"): {
        "risk_table.csv": "8cd93019b676b186e151fcb08789d7517854fb5d7d93749dd11a02274c43373b",
        "per_rep_errors.csv": "c12b42a6a448c6e80027d08d34b6cec0b53dfc453e2e3c18b7f0bcbd27ea56ac",
    },
    ("landweber", "efficiency"): {
        "efficiency.csv": "f0bbfcb7d878f13c8425a36ff014d311e826fc7863c66df592d024bba474c31f",
    },
    ("showalter", "hat"): {
        "risk_table.csv": "6dc2469c765855d6f4eeeabcc31a32dcde882246d9e25900088dcfed34ed9998",
        "per_rep_errors.csv": "7aeafdf3884fb82a66487bf2833c3ac4988651dfa910630335a15ff7ed0989f3",
    },
    ("showalter", "indicator"): {
        "risk_table.csv": "b2bc55e9e517e93818e9535f7f7dca529fb2d1e508b72fdaac95ec624425c897",
        "per_rep_errors.csv": "eee532cc8966a259869533471579aea9bc784c5dac2e1c02c0fad97709996caa",
    },
    ("showalter", "efficiency"): {
        "efficiency.csv": "0268545601254dfa57c572686e51bdedae902d5c73e7e1ca6f2f0322cce55fa1",
    },
}

# sha256 of the tables of a 10240-mode run, wide enough for the math.fsum
# accumulation of risk._accumulate (n >= 10^4), which at this width also
# forms each squared error, so the tables do not follow the BLAS thread count
WIDE_CONFIG = {
    "problem": {"kind": "green", "truth": "indicator"},
    "filter": {"family": "showalter"},
    "sigmas": [2.0**-15, 2.0**-18],
    "replications": 2,
    "modes": 10240,
    "master_seed": MASTER_SEED,
}
WIDE_GOLDEN = {
    "risk_table.csv": "7d7571f76eaa25b1357f5a61034e9e72c6ec9ebac4fbd963a30ac737311f1ae7",
    "per_rep_errors.csv": "015443c70571bf2ba917ea75f44b76d7f849c26d322ddfee896365245ef6b26d",
}


def verdict(num, ok, detail):
    record_acceptance(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def rate_config(truth, spec=FilterSpec("tikhonov")):
    return ExperimentConfig(
        problem=GreenDescriptor(truth, n_modes=1024),
        filter_spec=spec,
        sigmas=RATE_SIGMAS,
        replications=200,
        master_seed=MASTER_SEED,
    )


def efficiency_config(spec=FilterSpec("tikhonov")):
    return ExperimentConfig(
        problem=DiagonalDescriptor(n=300, a=4.0, nu=4.0),
        filter_spec=spec,
        sigmas=tuple(10.0**-k for k in range(1, 7)),
        replications=500,
        master_seed=MASTER_SEED,
    )


@pytest.fixture(scope="module")
def hat_table():
    return run_rate_experiment(rate_config(GreenTruth.HAT))


@pytest.fixture(scope="module")
def indicator_table():
    return run_rate_experiment(rate_config(GreenTruth.INDICATOR))


@pytest.fixture(scope="module")
def efficiency_table():
    return run_efficiency_experiment(efficiency_config())


@pytest.fixture(scope="module")
def family_table(request):
    """family_table(family, study): a paper study ("hat", "indicator" or
    "efficiency") of any family, run once per module for its digests and
    its criteria; Tikhonov's are the tables of criteria 2-5."""

    @functools.cache
    def table(family, study):
        if family == "tikhonov":
            return request.getfixturevalue(f"{study}_table")
        spec = FilterSpec(family, 2 if family == "iterated_tikhonov" else 1)
        if study == "efficiency":
            return run_efficiency_experiment(efficiency_config(spec))
        return run_rate_experiment(rate_config(GreenTruth(study), spec))

    return table


def emitted_digests(table, out_dir, emitters):
    digests = {}
    for name, emit in emitters.items():
        emit(table, out_dir / name)
        digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return digests


def rate_check(table, theta_target, rule="pred"):
    samples = [RateSample.from_errors(r.sigma, r.per_rep[rule]) for r in table]
    return rate_test(samples, theta_target)


def oracle_dominance(tables):
    """Criterion 4's worst ratio R_or / (R_rule (1 + 3 rel SE)) over the
    rows of the rate tables, for pred and Lepskii."""
    worst = -math.inf
    for table in tables:
        for row in table:
            worst = max(
                worst,
                row.r_or / (row.r_pred * (1 + 3 * row.se_pred / row.r_pred)),
                row.r_or / (row.r_lep * (1 + 3 * row.se_lep / row.r_lep)),
            )
    return worst


def efficiency_check(table):
    """Criterion 5's verdict and detail for an efficiency table."""
    in_band = all(0.0 < r.eff_pred <= 1.05 and 0.0 < r.eff_lep <= 1.05 for r in table)
    small = sorted(table, key=lambda r: r.sigma)[:2]
    pred_vs_lep = all(r.eff_pred >= r.eff_lep - 0.15 for r in small)
    effs = ", ".join(f"{r.eff_pred:.2f}/{r.eff_lep:.2f}" for r in table)
    return in_band and pred_vs_lep, f"eff_pred/eff_lep per sigma: {effs}; band (0, 1.05], small-sigma margin 0.15"


def test_criterion_1_unbiasedness():
    t0 = time.monotonic()
    problem = make_green_problem(64, GreenTruth.HAT, 1e-3, frame="discrete")
    grid = build_grid(problem.sigma, float(problem.eigenvalues[0]), 1.2)
    alphas = grid[np.linspace(0, len(grid) - 1, 5).astype(int)]
    const = float(np.sum(problem.eigenvalues * problem.truth_coeffs**2))
    m = 2000
    worst = 0.0
    for alpha in alphas:
        scores = np.empty(m)
        for j in range(m):
            obs = sample_observations(problem, substream_seed(MASTER_SEED, j))
            scores[j] = empirical_prediction_risk(
                problem.eigenvalues, problem.sigma, FilterSpec("tikhonov"), float(alpha), obs
            )
        se = scores.std(ddof=1) / math.sqrt(m)
        target = prediction_risk(problem, FilterSpec("tikhonov"), float(alpha)).total
        worst = max(worst, abs(scores.mean() + const - target) / se)
    elapsed = time.monotonic() - t0
    ok = worst <= 4.0 and elapsed < 60.0
    verdict(1, ok, f"max |bias|/SE = {worst:.2f} (limit 4), runtime {elapsed:.1f}s (limit 60s)")


def test_criterion_2_rate_hat(hat_table):
    t0 = time.monotonic()
    result = rate_check(hat_table, 0.75)
    elapsed = time.monotonic() - t0
    ok = result.p_value >= 0.10 and 0.60 <= result.theta_hat <= 0.90
    verdict(
        2,
        ok,
        f"hat truth: theta_hat = {result.theta_hat:.3f} (window [0.60, 0.90]), "
        f"p = {result.p_value:.3f} (>= 0.10), test time {elapsed:.1f}s",
    )


def test_criterion_3_rate_indicator(indicator_table):
    result = rate_check(indicator_table, 1.0 / 3.0)
    ok = result.p_value >= 0.10 and 0.25 <= result.theta_hat <= 0.45
    verdict(
        3,
        ok,
        f"indicator truth: theta_hat = {result.theta_hat:.3f} (window [0.25, 0.45]), "
        f"p = {result.p_value:.3f} (>= 0.10)",
    )


def test_criterion_4_oracle_dominance(hat_table, indicator_table):
    worst = oracle_dominance((hat_table, indicator_table))
    ok = worst <= 1.0
    verdict(4, ok, f"max R_or / (R_rule * (1 + 3 rel SE)) = {worst:.4f} (limit 1)")


def test_criterion_5_efficiency(efficiency_table):
    ok, detail = efficiency_check(efficiency_table)
    verdict(5, ok, detail)


# criteria 2-5 for every ordered filter, on the studies of the goldens
# (iterated Tikhonov at m = 2), with the same bounds; criteria 2 and 3 gate
# pred, and the oracle's and Lepskii's fits are reported, not gated
FAMILIES = [spec.family for spec in ALL_FAMILIES(m=2)]
RATE_TARGETS = {"hat": (2, 0.75, 0.60, 0.90), "indicator": (3, 1.0 / 3.0, 0.25, 0.45)}


@pytest.mark.parametrize("study", list(RATE_TARGETS))
@pytest.mark.parametrize("family", FAMILIES)
def test_criteria_2_and_3_rates_of_every_family(family, study, family_table):
    num, target, lo, hi = RATE_TARGETS[study]
    table = family_table(family, study)
    result = rate_check(table, target)
    fits = {rule: rate_check(table, target, rule) for rule in ("or", "lep")}
    others = "; ".join(f"{rule} theta_hat = {fit.theta_hat:.3f}, p = {fit.p_value:.3f}" for rule, fit in fits.items())
    ok = result.p_value >= 0.10 and lo <= result.theta_hat <= hi
    verdict(
        num,
        ok,
        f"{family}, {study} truth: theta_hat = {result.theta_hat:.3f} (window [{lo:.2f}, {hi:.2f}]), "
        f"p = {result.p_value:.3f} (>= 0.10); not gated: {others}",
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_criterion_4_oracle_dominance_of_every_family(family, family_table):
    worst = oracle_dominance((family_table(family, "hat"), family_table(family, "indicator")))
    verdict(4, worst <= 1.0, f"{family}: max R_or / (R_rule * (1 + 3 rel SE)) = {worst:.4f} (limit 1)")


@pytest.mark.parametrize("family", FAMILIES)
def test_criterion_5_efficiency_of_every_family(family, family_table):
    ok, detail = efficiency_check(family_table(family, "efficiency"))
    verdict(5, ok, f"{family}: {detail}")


def test_criterion_6_filter_invariants():
    report = run_filter_checks(pairs_per_family=1000, seed=MASTER_SEED)
    total = report["total_violations"]
    verdict(6, total == 0, f"{total} invariant violations over >= 1000 pairs per family")


def test_criterion_7_spectrum_cross_check():
    t0 = time.monotonic()
    top = np.linalg.eigvalsh(discretize_integral_operator(256))[::-1][:10]
    k = np.arange(1, 11, dtype=float)
    rel = np.max(np.abs(top - (math.pi * k) ** -2.0) * (math.pi * k) ** 2)
    elapsed = time.monotonic() - t0
    ok = rel < 0.02 and elapsed < 30.0
    verdict(7, ok, f"max relative eigenvalue error {rel:.4%} (limit 2%), runtime {elapsed:.1f}s (limit 30s)")


def test_criterion_8_selection_oracles():
    rng = np.random.default_rng(MASTER_SEED)
    mismatches = 0
    trials = 100
    for _ in range(trials):
        n = int(rng.integers(2, 21))
        eig = np.sort(rng.uniform(1e-4, 1.0, size=n))[::-1]
        truth = rng.normal(0, 1, size=n)
        sigma = 10.0 ** rng.uniform(-3, -0.5)
        p = SpectralProblem(eig, truth, sigma)
        grid = build_grid(sigma, float(eig[0]), 1.25)
        obs = sample_observations(p, int(rng.integers(0, 2**32)))
        spec = ALL_FAMILIES(m=2)[int(rng.integers(0, 5))]

        naive_or = min(range(len(grid)), key=lambda i: direct_risk(p, spec, grid[i]).total)
        naive_pr = min(
            range(len(grid)),
            key=lambda i: empirical_prediction_risk(eig, sigma, spec, grid[i], obs),
        )
        from invreg.risk import lepskii_threshold
        from invreg.filters import filter_value

        ests = [np.sqrt(eig) * filter_value(spec, a, eig) * obs for a in grid]
        naive_lep = 0
        for i in range(len(grid)):
            if all(
                np.linalg.norm(ests[i] - ests[j])
                <= lepskii_threshold(eig, sigma, spec, float(grid[j]))
                for j in range(i)
            ):
                naive_lep = i
        # the picks as the studies make them, from one scorer
        scorer = GridScorer(eig, sigma, spec, grid)
        oracle, pred = scorer.batch_picks(p.truth_coeffs[None], obs[None])
        got = (int(oracle[0]), int(pred[0]), int(scorer.batch_lepskii_picks(obs[None])[0]))
        if got != (naive_or, naive_pr, naive_lep):
            mismatches += 1
    verdict(8, mismatches == 0, f"{mismatches}/{trials} disagreements with naive-scan selections")


def test_criterion_9_rate_inference_examples():
    failures = []
    if abs(normal_cdf(0.0) - 0.5) > 0:
        failures.append("Phi(0)")
    if abs(normal_cdf(1.6448536) - 0.95) > 1e-7:
        failures.append("Phi(1.6448536)")
    x = np.log(np.array([1e-1, 1e-2, 1e-3, 1e-4]))
    theta, rho = weighted_slope_fit(x, 0.75 * x + 2.0, np.array([0.4, 0.1, 0.8, 0.2]))
    if abs(theta - 0.75) > 1e-12:
        failures.append("exact-line theta recovery")
    from invreg.ratetest import estimate_delta

    if abs(estimate_delta([1.0, 3.0]) - 0.5) > 1e-15:
        failures.append("delta hand evaluation")
    rng = np.random.default_rng(2)
    on_line = []
    for sigma in (1e-2, 1e-3, 1e-4):
        mean = sigma**0.75
        devs = 0.03 * rng.uniform(0.5, 1.0, size=40)
        on_line.append(RateSample.from_errors(sigma, mean * np.concatenate([1 + devs, 1 - devs])))
    res = rate_test(on_line, 0.75)
    if abs(res.theta_hat - 0.75) > 1e-10 or abs(res.p_value - 0.5) > 1e-8 or res.reject_at(0.10):
        failures.append("on-target-line test")
    ok = not failures
    verdict(9, ok, "all rate-inference examples pass" if ok else f"failed: {', '.join(failures)}")


def test_criterion_10_worker_determinism(hat_table, tmp_path):
    # the CLI at --workers 8 against the library's serial run, one worker
    config = tmp_path / "hat.json"
    payload = {
        "problem": {"kind": "green", "truth": "hat"},
        "filter": {"family": "tikhonov"},
        "sigmas": list(RATE_SIGMAS),
        "replications": 200,
        "modes": 1024,
        "master_seed": MASTER_SEED,
    }
    config.write_text(json.dumps(payload))
    assert main(["simulate-rates", "--config", str(config), "--out", str(tmp_path / "w8"), "--workers", "8"]) == 0
    emit_risk_table(hat_table, tmp_path / "w1.csv")
    identical = (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w8" / "risk_table.csv").read_bytes()
    verdict(10, identical, f"risk_table.csv byte-identical across workers 1 and 8: {identical}")


def study_emitters(study):
    if study == "efficiency":
        return {"efficiency.csv": emit_efficiency_table}
    return {"risk_table.csv": emit_risk_table, "per_rep_errors.csv": emit_per_rep_errors}


@pytest.mark.parametrize("study", ["hat", "indicator", "efficiency"])
def test_golden_digests(study, request, tmp_path):
    table = request.getfixturevalue(f"{study}_table")
    assert emitted_digests(table, tmp_path, study_emitters(study)) == GOLDEN[study]


@pytest.mark.parametrize("family, study", list(FAMILY_GOLDEN), ids=[f"{f}-{s}" for f, s in FAMILY_GOLDEN])
def test_golden_digests_of_every_family(family, study, family_table, tmp_path):
    table = family_table(family, study)
    assert emitted_digests(table, tmp_path, study_emitters(study)) == FAMILY_GOLDEN[family, study]


def test_golden_digests_wide(tmp_path):
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(WIDE_CONFIG))
    src = str(Path(invreg.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"out-{threads}"
        subprocess.run(
            [sys.executable, "-m", "invreg.cli", "simulate-rates", "--config", str(config), "--out", str(out)],
            env=env, check=True, timeout=300,
        )
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in WIDE_GOLDEN}
        assert digests == WIDE_GOLDEN, f"OPENBLAS_NUM_THREADS={threads}"
