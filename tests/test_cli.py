import json
import math
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invreg
from conftest import code_lines, config_grids, one_replication
from invreg import cli, montecarlo, tables
from invreg.cli import main
from invreg.checks import run_filter_checks
from invreg.filters import FilterSpec
from invreg.model import substream_seed
from invreg.montecarlo import (
    DiagonalDescriptor,
    EfficiencyRow,
    ExperimentConfig,
    GreenDescriptor,
    RiskRow,
)
from invreg.problems import TestFunction as GreenTruth
from invreg.selection import build_grid, grid_size
from invreg.tables import (
    emit_efficiency_table,
    emit_per_rep_errors,
    emit_risk_table,
    parse_per_rep_errors,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def rates_config(**overrides):
    base = {
        "problem": {"kind": "green", "truth": "hat"},
        "filter": {"family": "tikhonov"},
        "sigmas": [1e-2, 1e-3],
        "replications": 8,
        "modes": 32,
        "master_seed": 3,
    }
    base.update(overrides)
    return base


class TestSimulateRates:
    def test_writes_tables_and_metadata(self, tmp_path):
        cfg = write_config(tmp_path, rates_config())
        out = tmp_path / "out"
        assert main(["simulate-rates", "--config", cfg, "--out", str(out)]) == 0
        rows = tables._read(out / "risk_table.csv", tables.RISK_HEADER)
        assert len(rows) == 2
        groups = parse_per_rep_errors(out / "per_rep_errors.csv")
        assert all(g["pred"].size == 8 for g in groups.values())
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["command"] == "simulate-rates"
        assert meta["master_seed"] == 3
        assert "wall_time_s" in meta

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, rates_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate-rates", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate-rates", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "risk_table.csv").read_bytes() == (out2 / "risk_table.csv").read_bytes()
        assert (out1 / "per_rep_errors.csv").read_bytes() == (out2 / "per_rep_errors.csv").read_bytes()

    def test_workers_do_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path, rates_config())
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        assert main(["simulate-rates", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["simulate-rates", "--config", cfg, "--out", str(out8), "--workers", "8"]) == 0
        assert (out1 / "risk_table.csv").read_bytes() == (out8 / "risk_table.csv").read_bytes()

    def test_output_independent_of_blas_threads(self, tmp_path):
        # the Lepskii gram is a BLAS product whose bits may follow the thread
        # count; the tables must not
        cfg = write_config(
            tmp_path, rates_config(modes=1024, sigmas=[2.0**-15, 2.0**-18, 2.0**-21], replications=5)
        )
        src = str(Path(invreg.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "invreg.cli", "simulate-rates", "--config", cfg, "--out", str(out)],
                env=env, check=True, timeout=300,
            )
            outs.append(out)
        for name in ("risk_table.csv", "per_rep_errors.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, rates_config())
        out1, out2 = tmp_path / "s3", tmp_path / "s4"
        assert main(["simulate-rates", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate-rates", "--config", cfg, "--out", str(out2), "--seed", "4"]) == 0
        assert (out1 / "risk_table.csv").read_bytes() != (out2 / "risk_table.csv").read_bytes()
        meta = json.loads((out2 / "metadata.json").read_text())
        assert meta["master_seed"] == 4


class TestConfigValidation:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rates_config(replicatons=8))
        assert main(["simulate-rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "replicatons" in capsys.readouterr().err

    def test_missing_key_exits_2(self, tmp_path, capsys):
        payload = rates_config()
        del payload["replications"]
        cfg = write_config(tmp_path, payload)
        assert main(["simulate-rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "replications" in capsys.readouterr().err

    @pytest.mark.parametrize("problem, name", [(None, "'problem'"), ({}, "'problem.kind'")])
    def test_a_missing_problem_kind_exits_2_without_modes(self, problem, name, tmp_path, capsys):
        # the default of modes is the problem kind's, so it has none here
        payload = rates_config()
        del payload["modes"]
        if problem is None:
            del payload["problem"]
        else:
            payload["problem"] = problem
        cfg = write_config(tmp_path, payload)
        assert main(["simulate-rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"missing: [{name}]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"problem": }')
        assert main(["simulate-rates", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "broken.json:1:" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["simulate-rates", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    def test_bad_filter_family_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, rates_config(filter={"family": "ridge"}))
        assert main(["simulate-rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_frame_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path, rates_config(problem={"kind": "green", "truth": "hat", "frame": "weird"})
        )
        assert main(["simulate-rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def score_curve_config(**overrides):
    base = {"problem": {"kind": "green", "truth": "hat"}, "filter": {"family": "tikhonov"}, "sigmas": [1e-2]}
    base.update(overrides)
    return base


def diagonal_config(**problem):
    return {
        "problem": {"kind": "diagonal", **problem},
        "filter": {"family": "tikhonov"},
        "sigmas": [1e-2],
        "replications": 2,
    }


MALFORMED = {
    "pairs-negative": ("filters-check", {"pairs": -5}),
    "pairs-string": ("filters-check", {"pairs": "abc"}),
    "pairs-fraction": ("filters-check", {"pairs": 2.7}),
    "pairs-bool": ("filters-check", {"pairs": True}),
    "pairs-beyond-budget": ("filters-check", {"pairs": 2**61}),
    "score-curve-empty-sigmas": ("score-curve", score_curve_config(sigmas=[])),
    "score-curve-modes-string": ("score-curve", score_curve_config(modes="x")),
    "score-curve-sigma-above-grid": ("score-curve", score_curve_config(sigmas=[0.5])),
    # only the first sigma is scored, but every one must be a noise level
    "score-curve-later-sigma-negative": ("score-curve", score_curve_config(sigmas=[0.01, -5.0, 1e300])),
    "rates-sigma-above-grid": ("simulate-rates", rates_config(sigmas=[1e-2, 0.5])),
    "rates-sigma-nan": ("simulate-rates", rates_config(sigmas=[1e-2, math.nan])),
    "rates-sigma-underflow": ("simulate-rates", rates_config(sigmas=[1e-170])),
    "rates-replications-fraction": ("simulate-rates", rates_config(replications=2.9)),
    "rates-replications-one": ("simulate-rates", rates_config(replications=1)),
    "rates-modes-zero": ("simulate-rates", rates_config(modes=0)),
    "rates-grid-ratio-string": ("simulate-rates", rates_config(grid_ratio="wide")),
    "efficiency-nu-infinite": ("simulate-efficiency", diagonal_config(nu=math.inf)),
    "efficiency-a-negative": ("simulate-efficiency", diagonal_config(a=-1.0)),
    "rate-test-theta-string": (
        "rate-test", {"rate_test": {"errors_csv": "x.csv", "theta_target": "three quarters"}}
    ),
    "rate-test-block-list": ("rate-test", {"rate_test": ["x.csv", 0.75]}),
    "rate-test-path-number": ("rate-test", {"rate_test": {"errors_csv": 5, "theta_target": 0.75}}),
    "rates-master-seed-fraction": ("simulate-rates", rates_config(master_seed=2.7)),
    "rates-master-seed-bool": ("simulate-rates", rates_config(master_seed=True)),
    "rates-master-seed-string": ("simulate-rates", rates_config(master_seed="12")),
    "rates-master-seed-infinite": ("simulate-rates", rates_config(master_seed=math.inf)),
    "rates-diagonal-problem": ("simulate-rates", rates_config(problem={"kind": "diagonal"})),
    "efficiency-green-problem": ("simulate-efficiency", {**diagonal_config(), "problem": {"kind": "green"}}),
    "efficiency-a-underflow": ("simulate-efficiency", diagonal_config(a=200.0)),
    "score-curve-a-underflow": ("score-curve", score_curve_config(problem={"kind": "diagonal", "a": 200.0})),
    "rates-m-overflow": ("simulate-rates", rates_config(filter={"family": "iterated_tikhonov", "m": 10**400})),
    # every family takes m, and checks it
    "rates-m-string": ("simulate-rates", rates_config(filter={"family": "tikhonov", "m": "abc"})),
    "rates-m-zero": ("simulate-rates", rates_config(filter={"family": "tikhonov", "m": 0})),
    "rates-m-fraction": ("simulate-rates", rates_config(filter={"family": "tikhonov", "m": 2.5})),
    "rates-m-bool": ("simulate-rates", rates_config(filter={"family": "tikhonov", "m": True})),
    # an integer beyond float range where a float is expected
    "rates-grid-ratio-huge-integer": ("simulate-rates", rates_config(grid_ratio=10**400)),
    "efficiency-nu-overflow": ("simulate-efficiency", {**diagonal_config(nu=-300.0), "modes": 32}),
    "efficiency-nu-squared-overflow": ("simulate-efficiency", {**diagonal_config(nu=-150.0), "modes": 32}),
    "score-curve-modes-overflow": ("score-curve", score_curve_config(problem={"kind": "diagonal"}, modes=10**400)),
    "efficiency-modes-overflow": ("simulate-efficiency", {**diagonal_config(), "modes": 10**400}),
    # 1 + 2^-52, the smallest ratio above 1: a few 10^16 grid points, refused
    # from the closed-form grid size before any grid array is built
    "rates-grid-ratio-just-above-one": ("simulate-rates", rates_config(grid_ratio=1.0 + 2.0**-52)),
    "efficiency-grid-ratio-just-above-one": (
        "simulate-efficiency", {**diagonal_config(), "modes": 8, "grid_ratio": 1.0 + 2.0**-52}
    ),
    "score-curve-grid-ratio-just-above-one": ("score-curve", score_curve_config(modes=8, grid_ratio=1.0 + 2.0**-52)),
    # refused from the bytes per replication and noise level before a list
    # of 2^61 replications' batches could be built
    "rates-replications-beyond-budget": ("simulate-rates", rates_config(replications=2**61)),
}


PER_REP_HEADER = "sigma,replication,err_or,err_pred,err_lep\n"
PER_REP_ROWS = "".join(
    f"{sigma},{j},{0.5 * sigma + j * 1e-6},{sigma + j * 1e-6},{2 * sigma + j * 1e-6}\n"
    for sigma in (0.01, 0.001, 0.0001) for j in range(3)
)

# per-replication CSVs that rate-test cannot use, each with a valid config,
# and a fragment of the message that names the fault
MALFORMED_ERRORS_CSV = {
    "wrong-header": ("sigma,err\n0.01,1.0\n", "expected header"),
    "too-few-columns": (PER_REP_HEADER + "0.01,0,1.0\n", ":2: expected 5 fields, got 3"),
    "non-numeric-cell": (PER_REP_HEADER + PER_REP_ROWS + "0.01,3,1.0,abc,1.0\n", ":11: could not convert"),
    "two-noise-levels": (
        PER_REP_HEADER + "".join(f"{s},{j},1.0,{1.0 + j},1.0\n" for s in (0.01, 0.001) for j in range(3)),
        "at least 3 noise levels, got 2",
    ),
    "one-replication": (PER_REP_HEADER + PER_REP_ROWS + "1e-05,0,1.0,1.0,1.0\n", "sigma = 1e-05 needs"),
    "negative-error": (
        PER_REP_HEADER + PER_REP_ROWS.replace("0.001,0,0.0005,0.001,", "0.001,0,0.0005,-0.001,"),
        "sigma = 0.001 needs",
    ),
    "negative-sigma": (
        PER_REP_HEADER + PER_REP_ROWS.replace("0.0001,0,", "-0.0001,0,"),
        "noise level -0.0001",
    ),
}

# per-replication CSVs of finite nonnegative pred errors, not all zero, that
# the rate test still cannot use: the mean of one noise level overflows, or
# underflows to 0, or its spread about a finite mean overflows
DEGENERATE_ERRORS_CSV = {
    "mean-overflows": PER_REP_HEADER + "".join(
        f"{sigma},{j},1.0,1e+308,1.0\n" for sigma in (0.01, 0.001, 0.0001) for j in range(3)
    ),
    "spread-overflows": PER_REP_HEADER + "".join(
        f"{sigma},{j},1.0,{j + 1}e+200,1.0\n" for sigma in (0.01, 0.001, 0.0001) for j in range(3)
    ),
    "mean-underflows": PER_REP_HEADER
    + "".join(f"0.01,{j},1.0,{e},1.0\n" for j, e in enumerate(["5e-324", "0.0", "0.0"]))
    + "".join(line for line in PER_REP_ROWS.splitlines(True) if not line.startswith("0.01,")),
}


def assert_tables_finite(out_dir):
    """Every number in every CSV table of ``out_dir`` is finite."""
    for table in Path(out_dir).glob("*.csv"):
        for line in table.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(cell)) for cell in line.split(",")), (table.name, line)


class TestScorerBudget:
    def test_footprint_of_a_fine_grid_is_over_the_budget(self):
        # computed from the closed-form grid size; no grid or scorer is built
        k = grid_size(1e-3, 1.0, 1.0001)
        assert k == 138163
        assert montecarlo._scorer_bytes(300, [k]) == k * 300 * 8 + k * k * 14 > montecarlo._SCORER_BUDGET
        with pytest.raises(ValueError, match=f"at 300 modes and {k} grid points \\(grid_ratio = 1.0001\\)"):
            ExperimentConfig(DiagonalDescriptor(n=300), FilterSpec("tikhonov"), (1e-3,), 2, grid_ratio=1.0001)

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("simulate-efficiency", {**diagonal_config(), "modes": 32}),
            ("simulate-rates", rates_config(replications=2)),
            ("score-curve", score_curve_config(modes=32)),
        ],
    )
    def test_a_scorer_over_the_budget_exits_2(self, command, payload, tmp_path, capsys, monkeypatch):
        # a small config against a budget set just below its own footprint
        problem = cli._problem(cli._fields(command, payload))
        grids = [build_grid(s, problem.lambda_max, payload.get("grid_ratio", 1.2)) for s in payload["sigmas"]]
        need = montecarlo._scorer_bytes(32, map(len, grids))
        cfg = write_config(tmp_path, payload)
        monkeypatch.setattr(montecarlo, "_SCORER_BUDGET", need)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "at")]) == 0
        monkeypatch.setattr(montecarlo, "_SCORER_BUDGET", need - 1)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "over")]) == 2
        assert f"the scorer needs {need} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("simulate-efficiency", {**diagonal_config(), "sigmas": [1e-2, 1e-3], "modes": 8, "replications": 200}),
            ("simulate-rates", rates_config(modes=8, replications=200)),
        ],
    )
    def test_replications_over_the_budget_exit_2(self, command, payload, tmp_path, capsys, monkeypatch):
        # a budget set just below the config's per-replication bytes, which
        # exceed its scorer's, so the replications alone are refused
        need = 200 * 2 * montecarlo._REPLICATION_BYTES
        assert need > montecarlo._scorer_bytes(8, [grid_size(1e-3, 1.0, 1.2)])
        cfg = write_config(tmp_path, payload)
        monkeypatch.setattr(montecarlo, "_SCORER_BUDGET", need)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "at")]) == 0
        monkeypatch.setattr(montecarlo, "_SCORER_BUDGET", need - 1)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "over")]) == 2
        assert f"200 replications at 2 noise levels need {need} bytes" in capsys.readouterr().err
        assert not (tmp_path / "over").exists()


class TestArgv:
    """The argv contract: malformed command lines exit 2 and write nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["simulate-everything", "--config", "{cfg}", "--out", "{out}"],
            ["filters-check", "--out", "{out}"],
            ["filters-check", "--config", "{cfg}"],
            ["filters-check", "--config", "{cfg}", "--out", "{out}", "--seed", "x"],
        ],
        ids=["no-command", "unknown-command", "no-config", "no-out", "seed-not-an-integer"],
    )
    def test_exits_2_and_writes_nothing(self, argv, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pairs": 20})
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([arg.format(cfg=cfg, out=out) for arg in argv])
        assert exc.value.code == 2
        assert "usage: invreg" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_the_documented_form_runs(self, tmp_path):
        cfg = write_config(tmp_path, {"pairs": 20})
        argv = ["filters-check", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "3", "--workers", "2"]
        assert main(argv) == 0

    def test_options_may_precede_the_command(self, tmp_path):
        cfg = write_config(tmp_path, {"pairs": 20})
        first, last = tmp_path / "first", tmp_path / "last"
        assert main(["--config", cfg, "--out", str(first), "filters-check"]) == 0
        assert main(["filters-check", "--config", cfg, "--out", str(last)]) == 0
        assert (first / "filters_check.json").read_bytes() == (last / "filters_check.json").read_bytes()

    def test_help_lists_every_command_and_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for word in ["--config", "--out", "--seed", "--workers", *cli._COMMANDS]:
            assert word in text


class TestMalformedFields:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_without_a_traceback(self, case, tmp_path, capsys):
        command, payload = MALFORMED[case]
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invreg: config error:") and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(c for c in MALFORMED if "master-seed" in c))
    def test_a_malformed_master_seed_is_named(self, case, tmp_path, capsys):
        command, payload = MALFORMED[case]
        cfg = write_config(tmp_path, payload)
        # also when --seed overrides it
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "4"]) == 2
        assert "master_seed must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(c for c in MALFORMED if "-nu-" in c))
    def test_an_overflowing_nu_is_named(self, case, tmp_path, capsys):
        command, payload = MALFORMED[case]
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]) == 2
        assert "problem.nu" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_refused_run_leaves_no_out_directory(self, case, tmp_path):
        command, payload = MALFORMED[case]
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(c for c in MALFORMED if "-m-" in c))
    def test_a_malformed_m_is_named(self, case, tmp_path, capsys):
        command, payload = MALFORMED[case]
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]) == 2
        assert "config error: filter.m must be" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(c for c in MALFORMED if "-modes-overflow" in c))
    def test_modes_beyond_float_range_are_named(self, case, tmp_path, capsys):
        command, payload = MALFORMED[case]
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]) == 2
        assert "config error: modes must be at most the largest float" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(c for c in MALFORMED if "-grid-ratio-just-above-one" in c))
    def test_a_grid_ratio_just_above_one_is_named(self, case, tmp_path, capsys):
        command, payload = MALFORMED[case]
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]) == 2
        assert "(grid_ratio = 1.0000000000000002), over the budget" in capsys.readouterr().err

    def test_a_large_negative_nu_that_fits_runs_finite(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {**diagonal_config(nu=-100.0), "modes": 32})
        assert main(["simulate-efficiency", "--config", cfg, "--out", str(out)]) == 0
        assert_tables_finite(out)

    def test_a_negative_master_seed_runs(self, tmp_path):
        cfg = write_config(tmp_path, rates_config(master_seed=-7, replications=2))
        out = tmp_path / "o"
        assert main(["simulate-rates", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "metadata.json").read_text())["master_seed"] == -7

    @pytest.mark.parametrize("case", sorted(MALFORMED_ERRORS_CSV))
    def test_rate_test_csv_exits_2_without_a_traceback(self, case, tmp_path, capsys):
        text, fault = MALFORMED_ERRORS_CSV[case]
        csv_path = tmp_path / "errors.csv"
        csv_path.write_text(text)
        cfg = write_config(tmp_path, {"rate_test": {"errors_csv": str(csv_path), "theta_target": 0.75}})
        assert main(["rate-test", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invreg: config error:") and "Traceback" not in err
        assert fault in err

    def test_rate_test_csv_rows_above_are_valid(self, tmp_path):
        # the malformed cases differ from this file only where they say
        csv_path = tmp_path / "errors.csv"
        csv_path.write_text(PER_REP_HEADER + PER_REP_ROWS)
        cfg = write_config(tmp_path, {"rate_test": {"errors_csv": str(csv_path), "theta_target": 0.75}})
        assert main(["rate-test", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def valid_config(tmp_path, where):
    """(command, config) of a valid run of the first command or problem kind of ``where``."""
    if where[0] == "rate-test":
        csv_path = tmp_path / "errors.csv"
        csv_path.write_text(PER_REP_HEADER + PER_REP_ROWS)
        return "rate-test", {"rate_test": {"errors_csv": str(csv_path), "theta_target": 0.75}}
    if where[0] == "filters-check":
        return "filters-check", {"pairs": 20}
    if where[0] in ("diagonal", "simulate-efficiency"):
        return "simulate-efficiency", {**diagonal_config(), "modes": 8}
    return "simulate-rates", rates_config(replications=2)


def bad_values(kind, rule):
    """A bool, a value of another type and, where the field has a range, a
    value outside it."""
    values = [True, 5 if kind is str else "x"]
    if kind is str and rule:
        values.append("x")
    elif kind in (int, float):
        values.append(rule - 1 if rule is not None else 2.5 if kind is int else math.inf)
    elif kind is list:
        values.append([1e-2, math.nan])
    return values


class TestFieldTable:
    """Each field of the CLI's field table refuses a value of the wrong type
    or out of range with exit code 2 and a message that names it."""

    @pytest.mark.parametrize("name", sorted(cli._FIELDS))
    def test_every_field_refuses_a_malformed_value(self, name, tmp_path, capsys):
        where, kind, rule, _ = cli._FIELDS[name]
        command, payload = valid_config(tmp_path, where)
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "valid")]) == 0
        for i, bad in enumerate(bad_values(kind, rule)):
            block = payload
            *parents, key = name.split(".")
            for parent in parents:
                block = block[parent]
            block[key] = bad
            out = tmp_path / f"o{i}"
            capsys.readouterr()
            assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2, bad
            assert f"invreg: config error: {name}" in capsys.readouterr().err, bad
            assert not out.exists()

    def test_omitted_fields_take_the_library_defaults(self):
        green = {"problem": {"kind": "green"}, "filter": {"family": "tikhonov"}, "sigmas": [1e-2], "replications": 2}
        fields = cli._fields("simulate-rates", green)
        expected = ExperimentConfig(GreenDescriptor(GreenTruth.HAT), FilterSpec("tikhonov"), (1e-2,), 2)
        assert cli._experiment_config(fields, fields["master_seed"], "green") == expected
        assert cli._problem(cli._fields("simulate-efficiency", diagonal_config())) == DiagonalDescriptor()
        checks = cli._fields("filters-check", {})
        assert (checks["pairs"], checks["master_seed"]) == run_filter_checks.__defaults__


def scalar_tables(config, out):
    """Write the tables of a simulate command from one batch of one per
    replication, seeded with scalar ``substream_seed`` calls."""
    rate = isinstance(config.problem, GreenDescriptor)
    rows = []
    for i, (sigma, grid) in enumerate(zip(config.sigmas, config_grids(config))):
        stream, triples = substream_seed(config.master_seed, i), []
        for j in range(config.replications):
            seed = substream_seed(stream, j)
            if rate:
                problem, noise_seed = config.problem.build(sigma), seed
            else:
                problem = config.problem.build(sigma, substream_seed(seed, 0))
                noise_seed = substream_seed(seed, 1)
            triples.append(one_replication(problem, config.filter_spec, grid, noise_seed))
        t = np.array(triples)
        if rate:
            stats = [(float(np.mean(c)), float(np.std(c, ddof=1) / math.sqrt(c.size))) for c in t.T]
            per_rep = {"or": t[:, 0], "pred": t[:, 1], "lep": t[:, 2]}
            rows.append(RiskRow(sigma, *[x for pair in stats for x in pair], per_rep=per_rep))
        else:
            rows.append(EfficiencyRow(sigma, float(np.mean(t[:, 0] / t[:, 1])), float(np.mean(t[:, 0] / t[:, 2]))))
    out.mkdir()
    if rate:
        emit_risk_table(tuple(rows), out / "risk_table.csv")
        emit_per_rep_errors(tuple(rows), out / "per_rep_errors.csv")
    else:
        emit_efficiency_table(tuple(rows), out / "efficiency.csv")


class TestOutOfRangeSeeds:
    """A master seed outside [0, 2^64) is taken mod 2^64, as substream_seed
    takes it, in the batched seeding of the study loop too."""

    @pytest.mark.parametrize("where, seed", [("config", -1), ("config", 2**64 + 5), ("argv", -1)])
    @pytest.mark.parametrize("command", ["simulate-rates", "simulate-efficiency"])
    def test_the_tables_are_those_of_the_scalar_seeds(self, command, where, seed, tmp_path):
        if command == "simulate-rates":
            payload, kind = rates_config(replications=6), "green"
        else:
            payload = {**diagonal_config(), "sigmas": [1e-2, 1e-3], "modes": 40, "replications": 6, "master_seed": 5}
            kind = "diagonal"
        argv = [command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]
        if where == "config":
            payload["master_seed"] = seed
            argv[2] = write_config(tmp_path, payload)
        else:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        assert json.loads((tmp_path / "o" / "metadata.json").read_text())["master_seed"] == seed
        scalar_tables(cli._experiment_config(cli._fields(command, payload), seed, kind), tmp_path / "scalar")
        names = sorted(p.name for p in (tmp_path / "scalar").iterdir())
        assert names and all(
            (tmp_path / "o" / name).read_bytes() == (tmp_path / "scalar" / name).read_bytes() for name in names
        )


class TestImportCost:
    @staticmethod
    def loaded_after_import(prefix: str) -> str:
        """The sorted names of the modules starting with ``prefix`` that a
        fresh interpreter holds after ``import invreg.cli``."""
        src = str(Path(invreg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = f"import sys, invreg.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120, capture_output=True)
        return result.stdout.decode().strip()

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # numpy.random is loaded at the first draw, so the import's time
        # and memory do not pay for it
        assert self.loaded_after_import("numpy.random") == "[]"

    def test_importing_the_cli_leaves_dataclasses_unloaded(self):
        # the record types share the methods of invreg._record, so creating
        # them compiles no code; numpy does not import dataclasses either
        assert self.loaded_after_import("dataclasses") == "[]"

    def test_every_module_stays_below_the_parser_token_cliff(self):
        # CPython's parser keeps a module's tokens in an array that doubles
        # when a 4097th token arrives, which adds a few hundred KB to the
        # peak of compiling the module from source; comments and NL tokens
        # never reach the parser
        for path in sorted(Path(invreg.__file__).parent.glob("*.py")):
            with tokenize.open(path) as f:
                kinds = [t.type for t in tokenize.generate_tokens(f.readline)]
            assert sum(kind not in (tokenize.COMMENT, tokenize.NL) for kind in kinds) < 4096, path.name

    def test_src_holds_at_most_1469_code_lines(self):
        # the code budget: no net growth from 1469 code lines, counted as
        # the pytest summary counts them
        total = sum(code_lines(path.read_text()) for path in Path(invreg.__file__).parent.glob("*.py"))
        assert total <= 1469


class TestSimulateEfficiency:
    def test_writes_efficiency_csv(self, tmp_path):
        payload = {
            "problem": {"kind": "diagonal", "a": 4.0, "nu": 4.0},
            "filter": {"family": "tikhonov"},
            "sigmas": [1e-2, 1e-3],
            "replications": 20,
            "modes": 40,
            "master_seed": 5,
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["simulate-efficiency", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "efficiency.csv").read_text().splitlines()
        assert lines[0] == "sigma,eff_pred,eff_lep"
        assert len(lines) == 3

    def test_an_efficiency_that_is_not_finite_exits_3(self, tmp_path, capsys):
        # at sigma = 1e-150 err_or and err_pred both underflow to 0, and 0/0 is NaN
        payload = {**diagonal_config(), "sigmas": [1e-150], "modes": 2, "grid_ratio": 2.0, "replications": 3}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["simulate-efficiency", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invreg: sigma = 1e-150:") and "not finite" in err
        assert not out.exists()


class TestScoreCurve:
    def test_emits_alpha_score_pairs(self, tmp_path):
        payload = {
            "problem": {"kind": "green", "truth": "hat"},
            "filter": {"family": "tikhonov"},
            "sigmas": [1e-2],
            "modes": 64,
            "master_seed": 9,
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["score-curve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "score_curve.csv").read_text().splitlines()
        assert lines[0] == "alpha,score"
        assert len(lines) > 10
        scores = np.array([float(l.split(",")[1]) for l in lines[1:]])
        # the landscape is flat near its minimum: neighbors of the argmin
        # stay within a small fraction of the score range
        i = int(np.argmin(scores))
        span = scores.max() - scores.min()
        for j in (max(i - 1, 0), min(i + 1, scores.size - 1)):
            assert scores[j] - scores[i] <= 0.05 * span


class TestRateTestCommand:
    def test_pipeline_composition(self, tmp_path):
        cfg = write_config(tmp_path, rates_config(replications=30, sigmas=[1e-2, 1e-3, 1e-4]))
        sim_out = tmp_path / "sim"
        assert main(["simulate-rates", "--config", cfg, "--out", str(sim_out)]) == 0
        rt_cfg = write_config(
            tmp_path,
            {
                "rate_test": {
                    "errors_csv": str(sim_out / "per_rep_errors.csv"),
                    "risk": "pred",
                    "theta_target": 0.75,
                }
            },
            name="rt.json",
        )
        rt_out = tmp_path / "rt"
        assert main(["rate-test", "--config", rt_cfg, "--out", str(rt_out)]) == 0
        result = json.loads((rt_out / "rate_test.json").read_text())
        for key in ("theta_hat", "rho_hat", "statistic", "p_value"):
            assert key in result
        assert 0.0 <= result["p_value"] <= 1.0

    def test_the_report_text_is_pinned(self, tmp_path):
        # every key, in order, with its value, the indent and the newline
        csv_path = tmp_path / "errors.csv"
        csv_path.write_text(PER_REP_HEADER + PER_REP_ROWS)
        cfg = write_config(tmp_path, {"rate_test": {"errors_csv": str(csv_path), "risk": "lep", "theta_target": 1.0003}})
        assert main(["rate-test", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "rate_test.json").read_text() == (
            "{\n"
            '  "risk": "lep",\n'
            '  "theta_hat": 0.9997704391725931,\n'
            '  "rho_hat": 0.6921396207036654,\n'
            '  "statistic": -3.0328641508415117,\n'
            '  "p_value": 0.001211223130135021,\n'
            '  "theta_target": 1.0003,\n'
            '  "reject_at_10pct": true\n'
            "}\n"
        )

    def test_bad_risk_name_exits_2(self, tmp_path):
        rt_cfg = write_config(
            tmp_path,
            {"rate_test": {"errors_csv": "x.csv", "risk": "direct", "theta_target": 0.75}},
        )
        assert main(["rate-test", "--config", rt_cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_errors_csv_exits_3(self, tmp_path):
        rt_cfg = write_config(
            tmp_path,
            {"rate_test": {"errors_csv": str(tmp_path / "nope.csv"), "theta_target": 0.75}},
        )
        assert main(["rate-test", "--config", rt_cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("case", sorted(DEGENERATE_ERRORS_CSV))
    def test_a_mean_error_that_overflows_or_underflows_exits_3(self, case, tmp_path, capsys):
        csv_path = tmp_path / "errors.csv"
        csv_path.write_text(DEGENERATE_ERRORS_CSV[case])
        cfg = write_config(tmp_path, {"rate_test": {"errors_csv": str(csv_path), "theta_target": 0.75}})
        out = tmp_path / "o"
        assert main(["rate-test", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invreg: mean error is") and "Traceback" not in err
        assert not out.exists()


class TestFiltersCheckCommand:
    def test_clean_run(self, tmp_path):
        cfg = write_config(tmp_path, {"pairs": 200})
        out = tmp_path / "out"
        assert main(["filters-check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "filters_check.json").read_text())
        assert report["total_violations"] == 0

    def test_metadata_records_the_seed_used(self, tmp_path):
        cfg = write_config(tmp_path, {"pairs": 50})
        default, explicit = tmp_path / "default", tmp_path / "explicit"
        assert main(["filters-check", "--config", cfg, "--out", str(default)]) == 0
        assert main(["filters-check", "--config", cfg, "--out", str(explicit), "--seed", "20240901"]) == 0
        meta = json.loads((default / "metadata.json").read_text())
        assert meta["master_seed"] == 20240901
        report = (default / "filters_check.json").read_bytes()
        assert report == (explicit / "filters_check.json").read_bytes()

    def test_a_negative_seed_runs(self, tmp_path):
        # taken mod 2^64, as the studies take it
        cfg = write_config(tmp_path, {"pairs": 50, "master_seed": -3})
        negative, wrapped = tmp_path / "negative", tmp_path / "wrapped"
        assert main(["filters-check", "--config", cfg, "--out", str(negative)]) == 0
        assert main(["filters-check", "--config", cfg, "--out", str(wrapped), "--seed", str(2**64 - 3)]) == 0
        assert json.loads((negative / "metadata.json").read_text())["master_seed"] == -3
        report = (negative / "filters_check.json").read_bytes()
        assert report == (wrapped / "filters_check.json").read_bytes()

    def test_non_integer_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"pairs": 50, "master_seed": "soon"})
        assert main(["filters-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


FAMILIES = ["spectral_cutoff", "tikhonov", "iterated_tikhonov", "landweber", "showalter"]
# values that no config field accepts, or that only some do
JUNK = st.sampled_from([None, True, -1, 0, 1, 2.5, 200.0, "x", "12", [], [1e-3], {}, math.nan, math.inf])


@st.composite
def fuzz_runs(draw):
    """(command, config, malformed, over_budget): a config of at most 32
    modes and 3 replications, malformed if its problem kind does not suit
    the command and, in about half the draws, by one field replaced with
    junk, one required field dropped together with modes, or one unknown
    key added.  In a few draws the grid ratio lies in (1, 1 + 1e-6]: the
    grid then has at least 46000 points, so its scorer is over the memory
    budget (``over_budget``) unless junk replaced the ratio."""
    command = draw(st.sampled_from(["simulate-rates", "simulate-efficiency", "score-curve"]))
    kind = draw(st.sampled_from(["green", "diagonal"]))
    mismatch = {"simulate-rates": "diagonal", "simulate-efficiency": "green"}.get(command) == kind
    if kind == "green":
        problem = {"kind": kind, "truth": draw(st.sampled_from(["hat", "indicator"]))}
        problem["frame"] = draw(st.sampled_from(["analytic", "discrete"]))
        lambda_1 = math.pi**-4.0
    else:
        problem = {"kind": kind, "a": draw(st.floats(0.0, 8.0)), "nu": draw(st.floats(-2.0, 8.0))}
        lambda_1 = 1.0
    family = draw(st.sampled_from(FAMILIES))
    spec = {"family": family, "m": draw(st.integers(1, 4))} if family == "iterated_tikhonov" else {"family": family}
    exponents = st.lists(st.floats(-8.0, -0.01), min_size=1, max_size=3)
    cfg = {
        "problem": problem,
        "filter": spec,
        "sigmas": [math.sqrt(lambda_1) * 10.0**e for e in draw(exponents)],
        "modes": draw(st.integers(1, 32)),
        "grid_ratio": draw(
            st.floats(1.0, 1.0 + 1e-6, exclude_min=True) if draw(st.integers(0, 9)) == 7 else st.floats(1.1, 4.0)
        ),
        "master_seed": draw(st.integers(-(2**63), 2**64)),
    }
    if command != "score-curve":
        cfg["replications"] = draw(st.integers(2, 3))
    fault = draw(st.sampled_from([None, None, None, "junk", "nested-junk", "drop", "extra"]))
    if fault == "junk":
        cfg[draw(st.sampled_from(sorted(cfg)))] = draw(JUNK)
    elif fault == "nested-junk":
        block = cfg[draw(st.sampled_from(["problem", "filter"]))]
        block[draw(st.sampled_from(sorted(block) + ["m", "extra"]))] = draw(JUNK)
    elif fault == "drop":
        # one required field, and modes, whose default is the problem kind's
        required = ["problem", "problem.kind", "filter", "filter.family", "sigmas", "replications"]
        dropped = draw(st.sampled_from([name for name in required if name != "replications" or name in cfg]))
        for name in [dropped, "modes"]:
            block, _, key = name.rpartition(".")
            del (cfg[block] if block else cfg)[key]
    elif fault == "extra":
        cfg["workers"] = 2
    ratio = cfg.get("grid_ratio")
    over_budget = isinstance(ratio, float) and 1.0 < ratio <= 1.0 + 1e-6
    return command, cfg, mismatch or fault is not None or over_budget, over_budget


class TestFuzz:
    @settings(max_examples=150)
    @given(fuzz_runs())
    def test_random_configs_exit_0_2_or_3(self, run):
        command, payload, malformed, over_budget = run
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), payload)
            code = main([command, "--config", cfg, "--out", str(Path(tmp) / "o")])
            assert code in (0, 2, 3)
            if over_budget:
                assert code == 2
            if not malformed:
                assert code == 0
            if code == 0:
                assert_tables_finite(Path(tmp) / "o")
