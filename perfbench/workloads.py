"""The four benchmark workloads and one checked call of the ``invreg`` CLI.

A workload is a fixed CLI config whose run length (replications, or pairs
for ``filters-check``) is set here.  One *call* runs the workload's CLI
commands in-process through ``invreg.cli.main`` with the given seed and
worker count, times only the ``main`` calls, and hashes the output tables.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 20240901
RATE_SIGMAS = [2.0**-k for k in range(15, 22)]
EFFICIENCY_SIGMAS = [10.0**-k for k in range(1, 7)]
FILTER_FAMILIES = 5  # run_filter_checks draws its pairs once per family


def rates_config(truth: str, family: str, modes: int, replications: int) -> dict:
    return {
        "problem": {"kind": "green", "truth": truth},
        "filter": {"family": family},
        "sigmas": RATE_SIGMAS,
        "replications": replications,
        "modes": modes,
        "grid_ratio": 1.2,
    }


def efficiency_config(replications: int) -> dict:
    return {
        "problem": {"kind": "diagonal", "a": 4.0, "nu": 4.0},
        "filter": {"family": "tikhonov"},
        "sigmas": EFFICIENCY_SIGMAS,
        "replications": replications,
        "modes": 300,
        "grid_ratio": 1.2,
    }


# (command, config, output files) for each CLI command of one call
Step = tuple[str, dict, tuple[str, ...]]


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # replications per call, or pairs per family for filters-check
    units_per_size: int  # noise levels, or filter families
    steps: Callable[[Path, int], list[Step]]
    check: Callable[[Path, int], list[str]]
    # (size, seed) -> {name: sha256} of values computed by direct library calls
    values: Callable[[int, int], dict] | None = None

    def units(self, size: int) -> int:
        return size * self.units_per_size


def _csv_rows(path: Path, columns: int) -> list[list[float]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if any(len(r) != columns for r in rows):
        raise ValueError(f"{path.name}: expected {columns} columns")
    return [[float(v) for v in r] for r in rows]


def _problems_if(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


def _check_rates(out: Path, size: int, with_rate_test: bool) -> list[str]:
    risk = _csv_rows(out / "risk_table.csv", 7)
    per_rep = _csv_rows(out / "per_rep_errors.csv", 5)
    problems = _problems_if(len(risk) == len(RATE_SIGMAS), "risk_table.csv: wrong row count")
    problems += _problems_if(len(per_rep) == len(RATE_SIGMAS) * size, "per_rep_errors.csv: wrong row count")
    values = [v for row in risk + per_rep for v in row]
    problems += _problems_if(all(math.isfinite(v) and v >= 0 for v in values), "negative or non-finite risk")
    if with_rate_test:
        report = json.loads((out / "rate_test.json").read_text())
        problems += _problems_if(0.0 <= report["p_value"] <= 1.0, "rate_test.json: p_value outside [0, 1]")
        problems += _problems_if(math.isfinite(report["theta_hat"]), "rate_test.json: non-finite theta_hat")
    return problems


def _check_efficiency(out: Path, size: int) -> list[str]:
    rows = _csv_rows(out / "efficiency.csv", 3)
    problems = _problems_if(len(rows) == len(EFFICIENCY_SIGMAS), "efficiency.csv: wrong row count")
    effs = [v for row in rows for v in row[1:]]
    return problems + _problems_if(all(math.isfinite(v) and v > 0 for v in effs), "non-positive or non-finite efficiency")


def _check_filters(out: Path, size: int) -> list[str]:
    report = json.loads((out / "filters_check.json").read_text())
    return _problems_if(report["total_violations"] == 0, "filters_check.json: invariant violations")


def _filter_values(size: int, seed: int) -> dict:
    """Digest of the scalar filter values that ``filters-check`` computes.

    Its report holds only violation counts, so a scalar path that returned
    wrong values within the invariant bounds would pass it.  This redraws
    the command's seeded (spec, alpha, lambda) pairs as
    ``checks.run_filter_checks`` does and hashes q and s value for value.
    """
    import numpy as np
    from invreg.filters import ALL_FAMILIES, filter_value, s_value

    rng = np.random.Generator(np.random.PCG64(seed))
    values = []
    for spec in ALL_FAMILIES(m=3):
        lams = rng.uniform(0.0, 1.0, size=size)
        alphas = 10.0 ** rng.uniform(-6, 1, size=size)
        alphas2 = alphas * 10.0 ** rng.uniform(-3, 0, size=size)
        for lam, a_hi, a_lo in zip(lams, alphas, alphas2):
            values += [filter_value(spec, a_hi, lam), filter_value(spec, a_lo, lam), s_value(spec, a_hi, lam)]
    return {"filter_values.f64": hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()}


def _rates_hat_steps(out: Path, size: int) -> list[Step]:
    rate_test = {"errors_csv": str(out / "per_rep_errors.csv"), "risk": "pred", "theta_target": 0.75}
    return [
        ("simulate-rates", rates_config("hat", "tikhonov", 1024, size), ("risk_table.csv", "per_rep_errors.csv")),
        ("rate-test", {"rate_test": rate_test}, ("rate_test.json",)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        # the README pipeline: the problem is fixed per sigma, so all but Y
        # is reusable across replications; Lepskii dominates
        Workload("rates-hat", 10, len(RATE_SIGMAS), _rates_hat_steps,
                 lambda out, size: _check_rates(out, size, True)),
        # fresh truth per replication: problem build and oracle run per rep,
        # n is small, so per-call Python overhead dominates
        Workload("efficiency-diag", 5, len(EFFICIENCY_SIGMAS),
                 lambda out, size: [("simulate-efficiency", efficiency_config(size), ("efficiency.csv",))],
                 _check_efficiency),
        # n >= 10^4 takes the math.fsum path, the K x n block exceeds L2,
        # and Showalter takes the masked Taylor branch
        Workload("rates-wide", 2, len(RATE_SIGMAS),
                 lambda out, size: [("simulate-rates", rates_config("indicator", "showalter", 10240, size),
                                     ("risk_table.csv", "per_rep_errors.csv"))],
                 lambda out, size: _check_rates(out, size, False)),
        # scalar calls into filters: argument checks and dispatch dominate
        Workload("filters-check", 1000, FILTER_FAMILIES,
                 lambda out, size: [("filters-check", {"pairs": size}, ("filters_check.json",))],
                 _check_filters, _filter_values),
    )
}


@dataclass(frozen=True)
class Call:
    elapsed: float  # seconds inside invreg.cli.main, summed over the steps
    exit_code: int  # first nonzero exit code of the steps, or 0
    digests: dict  # output file name -> sha256 hex
    problems: list  # failed output checks

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_call(cli, workload: Workload, run_dir: Path, size: int, seed: int, workers: int) -> Call:
    """Run one call of the workload through ``cli.main`` and check its outputs.

    ``cli`` is the ``invreg.cli`` module; ``main`` is looked up on it at call
    time so that a tracer's rebinding takes effect.  The workload's
    direct-call digests, if any, are added outside the timed calls.
    """
    out = run_dir / "out"
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.iterdir():
        stale.unlink()
    elapsed, exit_code, digests = 0.0, 0, {}
    for i, (command, config, outputs) in enumerate(workload.steps(out, size)):
        config_path = run_dir / f"config-{i}.json"
        config_path.write_text(json.dumps(config))
        argv = [command, "--config", str(config_path), "--out", str(out),
                "--seed", str(seed), "--workers", str(workers)]
        start = time.perf_counter()
        try:
            exit_code = cli.main(argv)
        except Exception:  # a crash is a failed call, not a failed benchmark
            traceback.print_exc(file=sys.stderr)
            exit_code = 1
        elapsed += time.perf_counter() - start
        if exit_code != 0:
            return Call(elapsed, exit_code, digests, [f"{command} exited {exit_code}"])
        for name in outputs:
            path = out / name
            if not path.is_file():
                return Call(elapsed, exit_code, digests, [f"{command} did not write {name}"])
            digests[name] = sha256(path)
    if workload.values is not None:
        digests.update(workload.values(size, seed))
    try:
        problems = workload.check(out, size)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc}"]
    return Call(elapsed, exit_code, digests, problems)
