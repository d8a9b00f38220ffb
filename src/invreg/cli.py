"""Command-line front end: ``invreg <command> --config c.json --out dir``.

Commands: simulate-rates, simulate-efficiency, rate-test, score-curve,
filters-check.  Configs are strict JSON (unknown keys are rejected, since a
typo in a scientific config silently changes the experiment).  Each run
writes its tables plus a metadata sidecar with the config echo, effective
seed, package version and wall time.

Exit codes: 0 success, 2 malformed config, 3 numeric or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checks import run_filter_checks
from .filters import FilterSpec
from .model import sample_observations, substream_seed
from .montecarlo import (
    DiagonalDescriptor,
    ExperimentConfig,
    GreenDescriptor,
    run_efficiency_experiment,
    run_rate_experiment,
)
from .problems import NumericFailure, TestFunction
from .ratetest import DegenerateVarianceError, RateSample, SingularDesignError, rate_test
from .selection import GridScorer, build_grid, grid_size
from .tables import (
    emit_efficiency_table,
    emit_per_rep_errors,
    emit_risk_table,
    emit_score_curve,
    parse_per_rep_errors,
)

__all__ = ["main"]


class ConfigError(Exception):
    pass


_SCHEMAS = {
    "simulate-rates": {
        "required": {"problem", "filter", "sigmas", "replications"},
        "optional": {"grid_ratio", "master_seed", "modes"},
    },
    "simulate-efficiency": {
        "required": {"problem", "filter", "sigmas", "replications"},
        "optional": {"grid_ratio", "master_seed", "modes"},
    },
    "score-curve": {
        "required": {"problem", "filter", "sigmas"},
        "optional": {"grid_ratio", "master_seed", "modes"},
    },
    "rate-test": {"required": {"rate_test"}, "optional": set()},
    "filters-check": {"required": set(), "optional": {"pairs", "master_seed"}},
}


def _load_config(command: str, path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    schema = _SCHEMAS[command]
    keys = set(cfg)
    unknown = keys - schema["required"] - schema["optional"]
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    missing = schema["required"] - keys
    if missing:
        raise ConfigError(f"{path}: missing config keys: {sorted(missing)}")
    return cfg


def _integer(value, name: str, least: int) -> int:
    """An integer config value of at least ``least`` that a float can hold;
    floats, bools and strings are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")
    if value > sys.float_info.max:  # the value is not printed: it may have hundreds of digits
        raise ConfigError(f"{name} must be at most the largest float, {sys.float_info.max!r}")
    return value


def _real(value, name: str, least: float = -math.inf) -> float:
    """A finite number of at least ``least``; bools and strings are refused."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and value >= least):
        bound = "" if least == -math.inf else f" of at least {least}"
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")
    return float(value)


def _sigmas(cfg: dict) -> tuple[float, ...]:
    sigmas = cfg["sigmas"]
    if not isinstance(sigmas, list) or not sigmas:
        raise ConfigError(f"sigmas must be a nonempty list, got {sigmas!r}")
    return tuple(_real(s, "each sigma") for s in sigmas)


def _parse_filter(block) -> FilterSpec:
    if not isinstance(block, dict) or "family" not in block:
        raise ConfigError('"filter" must be an object with a "family" field')
    extra = set(block) - {"family", "m"}
    if extra:
        raise ConfigError(f'unknown "filter" fields: {sorted(extra)}')
    try:
        return FilterSpec(block["family"], m=block.get("m", 1))
    except (ValueError, OverflowError) as exc:  # OverflowError: an m beyond float range
        raise ConfigError(str(exc)) from exc


def _parse_problem(cfg: dict):
    block = cfg["problem"]
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError('"problem" must be an object with a "kind" field')
    kind = block["kind"]
    if kind == "green":
        extra = set(block) - {"kind", "truth", "frame"}
        if extra:
            raise ConfigError(f'unknown "problem" fields: {sorted(extra)}')
        try:
            truth = TestFunction(block.get("truth", "hat"))
        except ValueError as exc:
            raise ConfigError(f'unknown truth {block.get("truth")!r}') from exc
        frame = block.get("frame", "discrete")
        if frame not in ("analytic", "discrete"):
            raise ConfigError(f'problem.frame must be "analytic" or "discrete", got {frame!r}')
        return GreenDescriptor(truth=truth, n_modes=_integer(cfg.get("modes", 1024), "modes", 1), frame=frame)
    if kind == "diagonal":
        extra = set(block) - {"kind", "a", "nu"}
        if extra:
            raise ConfigError(f'unknown "problem" fields: {sorted(extra)}')
        try:  # also refuses an a whose k^(-2a) underflows to 0 and a nu whose truth overflows
            return DiagonalDescriptor(
                n=_integer(cfg.get("modes", 300), "modes", 1),
                a=_real(block.get("a", 4.0), "problem.a", 0.0),  # so that lambda_1 = 1
                nu=_real(block.get("nu", 4.0), "problem.nu"),
            )
        except ValueError as exc:
            raise ConfigError(f"problem.{exc}") from exc
    raise ConfigError(f'unknown problem kind {kind!r}')


# master seed when neither --seed nor the config sets one; 0 otherwise
_DEFAULT_SEEDS = {"filters-check": 20240901}


def _master_seed(command: str, cfg: dict, seed_override) -> int:
    """The seed a command runs with and records; a config's seed must be an integer even if overridden."""
    seed = cfg.get("master_seed", _DEFAULT_SEEDS.get(command, 0))
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"master_seed must be an integer, got {seed!r}")
    return seed if seed_override is None else seed_override


# the most memory one noise level's scorer may take, in bytes
_SCORER_BUDGET = 1 << 30


def _scorer_bytes(n: int, sizes) -> int:
    """Bytes of the float64 arrays of the scorer of the largest of grids of
    ``sizes`` points over n modes: its K x n buffer and the three K x K
    arrays of a Lepskii call."""
    k = max(sizes)
    return (k * n + 3 * k * k) * 8


def _check_budget(problem, sigmas, ratio: float) -> None:
    """Refuse a grid whose scorer would not fit the memory budget, from the
    closed-form grid sizes: no grid is built first, so a ``grid_ratio`` just
    above 1 is refused before it allocates anything."""
    if not ratio > 1:
        raise ConfigError(f"grid_ratio must exceed 1, got {ratio!r}")
    sizes = []
    for sigma in sigmas:
        try:  # also refuses a noise level that leaves an empty grid
            sizes.append(grid_size(sigma, problem.lambda_max, ratio))
        except ValueError as exc:
            raise ConfigError(f"sigma = {sigma!r}: {exc}") from exc
    n = problem.n_modes if isinstance(problem, GreenDescriptor) else problem.n
    need = _scorer_bytes(n, sizes)
    if need > _SCORER_BUDGET:
        raise ConfigError(
            f"the scorer needs {need} bytes at {n} modes and {max(sizes)} grid points"
            f" (grid_ratio = {ratio!r}), over the budget of {_SCORER_BUDGET}"
        )


def _experiment_config(cfg: dict, seed: int, kind: str) -> ExperimentConfig:
    problem, spec = _parse_problem(cfg), _parse_filter(cfg["filter"])
    if cfg["problem"]["kind"] != kind:
        raise ConfigError(f'this command needs problem.kind "{kind}", got {cfg["problem"]["kind"]!r}')
    sigmas, replications = _sigmas(cfg), _integer(cfg["replications"], "replications", 2)
    ratio = _real(cfg.get("grid_ratio", 1.2), "grid_ratio")
    _check_budget(problem, sigmas, ratio)
    try:
        return ExperimentConfig(problem, spec, sigmas, replications, ratio, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_metadata(out_dir: Path, command: str, cfg: dict, seed, workers: int, t0: float, outputs) -> None:
    meta = {
        "command": command,
        "config": cfg,
        "master_seed": seed,
        "workers": workers,
        "version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "outputs": [str(p) for p in outputs],
    }
    (out_dir / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _cmd_simulate_rates(cfg, output, seed: int, workers: int) -> list[Path]:
    config = _experiment_config(cfg, seed, "green")
    table = run_rate_experiment(config, workers=workers)
    risk_path = output("risk_table.csv")
    per_rep_path = output("per_rep_errors.csv")
    emit_risk_table(table, risk_path)
    emit_per_rep_errors(table, per_rep_path)
    return [risk_path, per_rep_path]


def _cmd_simulate_efficiency(cfg, output, seed: int, workers: int) -> list[Path]:
    config = _experiment_config(cfg, seed, "diagonal")
    table = run_efficiency_experiment(config, workers=workers)
    path = output("efficiency.csv")
    emit_efficiency_table(table, path)
    return [path]


def _cmd_score_curve(cfg, output, seed: int, workers: int) -> list[Path]:
    descriptor = _parse_problem(cfg)
    spec = _parse_filter(cfg["filter"])
    sigma = _sigmas(cfg)[0]
    ratio = _real(cfg.get("grid_ratio", 1.2), "grid_ratio")
    _check_budget(descriptor, [sigma], ratio)
    grid = build_grid(sigma, descriptor.lambda_max, ratio)
    if isinstance(descriptor, GreenDescriptor):
        problem = descriptor.build(sigma)
    else:
        problem = descriptor.build(sigma, substream_seed(seed, 1))
    obs = sample_observations(problem, substream_seed(seed, 0))
    pairs = zip(grid.values, GridScorer(problem.eigenvalues, sigma, spec, grid).pred_scores(obs))
    path = output("score_curve.csv")
    emit_score_curve(pairs, path)
    return [path]


def _rate_samples(path, risk: str) -> list[RateSample]:
    """One rate-test sample per noise level of a per-replication CSV; a
    file the test cannot use is a config error."""
    try:
        groups = parse_per_rep_errors(path)
    except ValueError as exc:  # wrong header, field count or number
        raise ConfigError(str(exc)) from exc
    if len(groups) < 3:
        raise ConfigError(f"{path}: the rate test needs at least 3 noise levels, got {len(groups)}")
    for sigma, g in groups.items():
        errors = g[risk]
        if not 0 < sigma < math.inf:
            raise ConfigError(f"{path}: noise level {sigma!r} is not a finite positive number")
        if errors.size < 2 or not np.all((errors >= 0) & (errors < math.inf)) or not errors.any():
            raise ConfigError(
                f"{path}: sigma = {sigma!r} needs at least 2 finite nonnegative {risk} errors, not all zero"
            )
    return [RateSample.from_errors(sigma, g[risk]) for sigma, g in groups.items()]


def _cmd_rate_test(cfg, output, seed: int, workers: int) -> list[Path]:
    block = cfg["rate_test"]
    if not isinstance(block, dict):
        raise ConfigError('"rate_test" must be an object')
    extra = set(block) - {"errors_csv", "risk", "theta_target"}
    if extra:
        raise ConfigError(f'unknown "rate_test" fields: {sorted(extra)}')
    for key in ("errors_csv", "theta_target"):
        if key not in block:
            raise ConfigError(f'"rate_test" block requires {key!r}')
    risk = block.get("risk", "pred")
    if risk not in ("or", "pred", "lep"):
        raise ConfigError(f'rate_test.risk must be one of or/pred/lep, got {risk!r}')
    theta_target = _real(block["theta_target"], "rate_test.theta_target")
    if not isinstance(block["errors_csv"], str):
        raise ConfigError(f'rate_test.errors_csv must be a path string, got {block["errors_csv"]!r}')
    result = rate_test(_rate_samples(block["errors_csv"], risk), theta_target)
    path = output("rate_test.json")
    path.write_text(
        json.dumps(
            {
                "risk": risk,
                "theta_hat": result.theta_hat,
                "rho_hat": result.rho_hat,
                "statistic": result.statistic,
                "p_value": result.p_value,
                "theta_target": result.theta_target,
                "reject_at_10pct": result.reject_at(0.10),
            },
            indent=2,
        )
        + "\n"
    )
    return [path]


def _cmd_filters_check(cfg, output, seed: int, workers: int) -> list[Path]:
    report = run_filter_checks(_integer(cfg.get("pairs", 1000), "pairs", 1), seed)
    path = output("filters_check.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if report["total_violations"]:
        raise NumericFailure(f'{report["total_violations"]} filter invariant violations')
    return [path]


_COMMANDS = {
    "simulate-rates": _cmd_simulate_rates,
    "simulate-efficiency": _cmd_simulate_efficiency,
    "score-curve": _cmd_score_curve,
    "rate-test": _cmd_rate_test,
    "filters-check": _cmd_filters_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="invreg",
        description="Filter-based regularization experiments in the Gaussian sequence model.",
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of %(choices)s")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--workers", type=int, default=1, help="recorded only: replications run serially")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    out_dir = Path(args.out)

    def output(name: str) -> Path:
        # a command asks for its output paths only once its config is
        # accepted, so a refused run leaves no directory behind
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir / name

    try:
        cfg = _load_config(args.command, args.config)
        seed = _master_seed(args.command, cfg, args.seed)
        outputs = _COMMANDS[args.command](cfg, output, seed, max(1, args.workers))
    except ConfigError as exc:
        print(f"invreg: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, DegenerateVarianceError, SingularDesignError, OSError, np.linalg.LinAlgError) as exc:
        print(f"invreg: {exc}", file=sys.stderr)
        return 3
    _write_metadata(out_dir, args.command, cfg, seed, max(1, args.workers), t0, outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
