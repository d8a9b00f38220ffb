import tracemalloc
from collections import Counter

import numpy as np
import pytest

from invreg.filters import ALL_FAMILIES, FilterSpec, filter_value, s_value
from invreg.montecarlo import (
    EfficiencyRow,
    ExperimentConfig,
    GreenDescriptor,
    run_rate_experiment,
)
from invreg import checks
from invreg.checks import _REL_EPS, run_filter_checks
from invreg.problems import TestFunction as GreenTruth
from invreg.tables import (
    EFFICIENCY_HEADER,
    RISK_HEADER,
    _read,
    emit_efficiency_table,
    emit_per_rep_errors,
    emit_risk_table,
    emit_score_curve,
    parse_per_rep_errors,
)


@pytest.fixture(scope="module")
def small_table():
    config = ExperimentConfig(
        problem=GreenDescriptor(GreenTruth.HAT, n_modes=32),
        filter_spec=FilterSpec("tikhonov"),
        sigmas=(1e-2, 1e-3),
        replications=10,
        master_seed=11,
    )
    return run_rate_experiment(config)


class TestRiskTableCsv:
    def test_header_contract(self, small_table, tmp_path):
        path = tmp_path / "risk.csv"
        emit_risk_table(small_table, path)
        first = path.read_text().splitlines()[0]
        assert first == "sigma,R_or,se_or,R_pred,se_pred,R_LEP,se_lep"

    def test_round_trip_exact(self, small_table, tmp_path):
        path = tmp_path / "risk.csv"
        emit_risk_table(small_table, path)
        parsed = _read(path, RISK_HEADER)
        assert len(parsed) == len(small_table)
        for a, b in zip(small_table, parsed):
            assert [a.sigma, a.r_or, a.se_or, a.r_pred, a.se_pred, a.r_lep, a.se_lep] == b

    def test_rewrite_is_byte_identical(self, small_table, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_risk_table(small_table, p1)
        emit_risk_table(small_table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_table_refused(self, tmp_path):
        with pytest.raises(ValueError):
            emit_risk_table((), tmp_path / "x.csv")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sigma,oops\n1.0,2.0\n")
        with pytest.raises(ValueError):
            _read(path, RISK_HEADER)


class TestPerRepCsv:
    def test_round_trip_groups(self, small_table, tmp_path):
        path = tmp_path / "per_rep.csv"
        emit_per_rep_errors(small_table, path)
        groups = parse_per_rep_errors(path)
        assert list(groups) == [row.sigma for row in small_table]
        for row in small_table:
            for key in ("or", "pred", "lep"):
                np.testing.assert_array_equal(groups[row.sigma][key], row.per_rep[key])


class TestEfficiencyCsv:
    def test_round_trip(self, tmp_path):
        table = (EfficiencyRow(1e-2, 0.9123, 0.811), EfficiencyRow(1e-3, 0.95, 0.9))
        path = tmp_path / "eff.csv"
        emit_efficiency_table(table, path)
        assert path.read_text().splitlines()[0] == EFFICIENCY_HEADER
        assert tuple(EfficiencyRow(*row) for row in _read(path, EFFICIENCY_HEADER)) == table

    def test_empty_refused(self, tmp_path):
        with pytest.raises(ValueError):
            emit_efficiency_table((), tmp_path / "x.csv")


class TestScoreCurveCsv:
    def test_emit(self, tmp_path):
        path = tmp_path / "score.csv"
        emit_score_curve([(0.1, -1.5), (0.2, -1.2)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,score"
        assert lines[1] == "0.1,-1.5"

    def test_empty_refused(self, tmp_path):
        with pytest.raises(ValueError):
            emit_score_curve([], tmp_path / "x.csv")


class TestFilterChecks:
    def test_clean_report(self):
        report = run_filter_checks(pairs_per_family=1000, seed=20240901)
        assert report["total_violations"] == 0

    def test_reports_every_family(self):
        report = run_filter_checks(pairs_per_family=100, seed=5)
        families = {
            "spectral_cutoff", "tikhonov", "iterated_tikhonov(m=3)", "landweber", "showalter",
        }
        assert families <= set(report)

    def test_traced_peak_stays_below_512_kib(self):
        # the qualification sweep's blocks are a few rows, not all 25
        run_filter_checks(pairs_per_family=1000, seed=20240901)
        tracemalloc.start()
        try:
            run_filter_checks(pairs_per_family=1000, seed=20240901)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_pairs_beyond_the_memory_budget_are_refused_before_any_draw(self, monkeypatch):
        need = 1000 * checks._PAIR_BYTES
        monkeypatch.setattr(checks, "_SCORER_BUDGET", need)
        assert run_filter_checks(pairs_per_family=1000, seed=5)["total_violations"] == 0
        monkeypatch.setattr(checks, "_generator", None)  # a draw would raise TypeError
        for pairs in (1001, 2**61, 10**12):
            with pytest.raises(ValueError, match="budget"):
                run_filter_checks(pairs_per_family=pairs, seed=5)


def loop_filter_checks(pairs_per_family, seed, eps=_REL_EPS):
    """The per-pair loop that ``run_filter_checks`` replaces, kept as its
    reference: the same draws, one scalar filter call per comparison."""
    rng = np.random.Generator(np.random.PCG64(seed))
    report = {}
    for spec in ALL_FAMILIES(m=3):
        violations = {"ordered": 0, "bound_alpha": 0, "bound_lambda": 0, "s_range": 0}
        lams = rng.uniform(0.0, 1.0, size=pairs_per_family)
        alphas = 10.0 ** rng.uniform(-6, 1, size=pairs_per_family)
        alphas2 = alphas * 10.0 ** rng.uniform(-3, 0, size=pairs_per_family)
        for lam, a_hi, a_lo in zip(lams, alphas, alphas2):
            q_hi = filter_value(spec, a_hi, lam)
            q_lo = filter_value(spec, a_lo, lam)
            if a_hi > a_lo and q_hi > q_lo * (1 + eps) + 1e-300:
                violations["ordered"] += 1
            if a_hi * abs(q_hi) > spec.c_prime * (1 + eps):
                violations["bound_alpha"] += 1
            if lam * abs(q_hi) > spec.c_double_prime * (1 + eps):
                violations["bound_lambda"] += 1
            s = s_value(spec, a_hi, lam)
            if not (-eps <= s <= 1 + eps):
                violations["s_range"] += 1
        report[f"{spec.family}" + (f"(m={spec.m})" if spec.family == "iterated_tikhonov" else "")] = violations
    tik = FilterSpec("tikhonov")
    lam_grid = np.linspace(0.0, 1.0, 2001)
    qual_violations = 0
    for v in (0.25, 0.5, 1.0):
        c_v = v**v * (1 - v) ** (1 - v) if v < 1 else 1.0
        for a in 10.0 ** np.linspace(-6, 0, 25):
            lhs = np.max(lam_grid**v * np.abs(1.0 - s_value(tik, a, lam_grid)))
            if lhs > c_v * a**v * (1 + eps):
                qual_violations += 1
    report["tikhonov_qualification"] = {"qualification": qual_violations}
    report["total_violations"] = sum(sum(v.values()) for v in report.values() if isinstance(v, dict))
    return report


@pytest.mark.parametrize(
    "pairs, seed", [(1000, 20240901), (100, 5), (20, 0)] + [(1000, seed) for seed in range(33)]
)
def test_filter_checks_equal_the_per_pair_loop(pairs, seed):
    report = run_filter_checks(pairs_per_family=pairs, seed=seed)
    assert report == loop_filter_checks(pairs, seed)
    assert all(type(n) is int for block in report.values() if isinstance(block, dict) for n in block.values())


def test_filter_checks_count_violations_as_the_loop_does(monkeypatch):
    # a negative slack makes every check fire on some pairs, so the
    # comparison is between nonzero counts
    monkeypatch.setattr(checks, "_REL_EPS", -0.01)
    for seed in (20240901, 7):
        report = run_filter_checks(pairs_per_family=300, seed=seed)
        assert report == loop_filter_checks(300, seed, eps=-0.01)
        fired = Counter()
        for block in report.values():
            if isinstance(block, dict):
                fired.update(block)
        assert len(fired) == 5 and all(fired.values()), fired
