"""Command-line front end: ``invreg <command> --config c.json --out dir``.

Commands: simulate-rates, simulate-efficiency, rate-test, score-curve,
filters-check.  Configs are strict JSON: every field is a row of one table
(``_FIELDS``: the commands that take it, its type, its bounds or choices
and its default), and unknown fields are rejected, since a typo in a
scientific config silently changes the experiment.  Each run
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
from .filters import _FAMILIES, FilterSpec
from .model import sample_observations, substream_seed
from .montecarlo import (
    DiagonalDescriptor,
    ExperimentConfig,
    GreenDescriptor,
    _check_grids,
    run_efficiency_experiment,
    run_rate_experiment,
)
from .problems import NumericFailure, TestFunction, make_diagonal_problem, make_green_problem
from .ratetest import DegenerateVarianceError, RateSample, RateTestResult, SingularDesignError, rate_test
from .selection import GridScorer, build_grid
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


_STUDIES = ("simulate-rates", "simulate-efficiency", "score-curve")
_REQUIRED = object()
_PAIRS, _CHECK_SEED = run_filter_checks.__defaults__
# the defaults of the fields that take one per problem kind or per command
_MODES = {"green": GreenDescriptor._defaults["n_modes"], "diagonal": DiagonalDescriptor._defaults["n"]}
_SEEDS = dict.fromkeys(_STUDIES, ExperimentConfig._defaults["master_seed"])
_SEEDS["filters-check"] = _CHECK_SEED

# Every config field by dotted name: (where, type, rule, default).  A field
# is read for the commands and problem kinds in ``where``, a block's fields
# only if the block is.  ``rule`` is the least value of a number or the
# choices of a string.  A float is finite; an int with a least value must
# also be at most the largest float; a list is a nonempty list of floats,
# and a dict a block of fields.  A default given per command or problem
# kind is a dict, and a default that a library record or function holds is
# read from it.  A block comes before its fields, and problem.kind before
# the fields of a kind.
_FIELDS = {
    "problem": (_STUDIES, dict, None, _REQUIRED),
    "problem.kind": (_STUDIES, str, ("green", "diagonal"), _REQUIRED),
    "problem.truth": (("green",), str, tuple(t.value for t in TestFunction), "hat"),
    "problem.frame": (("green",), str, ("analytic", "discrete"), GreenDescriptor._defaults["frame"]),
    "problem.a": (("diagonal",), float, 0.0, DiagonalDescriptor._defaults["a"]),  # so that lambda_1 = 1
    "problem.nu": (("diagonal",), float, None, DiagonalDescriptor._defaults["nu"]),
    "filter": (_STUDIES, dict, None, _REQUIRED),
    "filter.family": (_STUDIES, str, _FAMILIES, _REQUIRED),
    "filter.m": (_STUDIES, int, 1, FilterSpec._defaults["m"]),
    "sigmas": (_STUDIES, list, None, _REQUIRED),
    "replications": (_STUDIES[:2], int, 2, _REQUIRED),
    "modes": (_STUDIES, int, 1, _MODES),
    "grid_ratio": (_STUDIES, float, None, ExperimentConfig._defaults["grid_ratio"]),
    "master_seed": (tuple(_SEEDS), int, None, _SEEDS),
    "pairs": (("filters-check",), int, 1, _PAIRS),
    "rate_test": (("rate-test",), dict, None, _REQUIRED),
    "rate_test.errors_csv": (("rate-test",), str, None, _REQUIRED),
    "rate_test.risk": (("rate-test",), str, ("or", "pred", "lep"), "pred"),
    "rate_test.theta_target": (("rate-test",), float, None, _REQUIRED),
}


def _check(name: str, kind: type, rule, value):
    """``value`` if config field ``name`` may take it: of the field's type
    and within its rule; a float field's value as a float, a list's as a
    tuple.  Bools and strings are never numbers, and a float never an int."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is list:
        if not (isinstance(value, list) and value):
            raise ConfigError(f"{name} must be a nonempty list of numbers, got {value!r}")
        return tuple(_check(f"{name}[{i}]", float, None, v) for i, v in enumerate(value))
    if kind is float:  # a NaN fails the first comparison, and an int too large for a float too
        if not (number and abs(value) <= sys.float_info.max and (rule is None or value >= rule)):
            bound = "" if rule is None else f" of at least {rule}"
            raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")
        return float(value)
    if kind is int:
        if not (number and isinstance(value, int) and (rule is None or value >= rule)):
            bound = "" if rule is None else f" of at least {rule}"
            raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
        if rule is not None and value > sys.float_info.max:  # not printed: it may have hundreds of digits
            raise ConfigError(f"{name} must be at most the largest float, {sys.float_info.max!r}")
        return value
    if not isinstance(value, kind) or (rule is not None and value not in rule):
        expected = f"one of {list(rule)}" if rule else "an object" if kind is dict else "a string"
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    return value


def _fields(command: str, cfg: dict) -> dict:
    """The value of every config field of ``command`` by dotted name: the
    config's, checked against ``_FIELDS``, or the field's default."""
    # "" names the config itself, the block of the top-level fields
    tags, known, missing, values = {command}, {""}, [], {"": cfg}
    for name, (where, kind, rule, default) in _FIELDS.items():
        block, _, key = name.rpartition(".")
        if tags.isdisjoint(where) or block not in values:
            continue
        known.add(name)
        if key in values[block]:
            values[name] = _check(name, kind, rule, values[block][key])
            if name == "problem.kind":
                tags.add(values[name])
        elif default is _REQUIRED:
            missing.append(name)
        elif isinstance(default, dict):  # no key matches only if problem.kind is missing, which is reported
            values.update((name, default[tag]) for tag in tags & default.keys())
        else:
            values[name] = default
    unknown = [
        name
        for block in known
        if isinstance(values.get(block), dict)
        for name in (f"{block}.{key}" if block else key for key in values[block])
        if name not in known
    ]
    if unknown or missing:
        raise ConfigError(f"config fields unknown: {sorted(unknown)}, missing: {missing}")
    return values


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nested too deeply, or an integer of over 4300 digits
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _checked(build, *args, prefix: str = ""):
    """build(*args), whose ValueError is a config error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def _problem(fields: dict):
    if fields["problem.kind"] == "green":
        return GreenDescriptor(TestFunction(fields["problem.truth"]), fields["modes"], fields["problem.frame"])
    # also refuses an a whose k^(-2a) underflows to 0 and a nu whose truth overflows
    return _checked(DiagonalDescriptor, fields["modes"], fields["problem.a"], fields["problem.nu"], prefix="problem.")


def _filter(fields: dict) -> FilterSpec:
    return FilterSpec(fields["filter.family"], fields["filter.m"])


def _experiment_config(fields: dict, seed: int, kind: str) -> ExperimentConfig:
    problem, spec = _problem(fields), _filter(fields)
    if fields["problem.kind"] != kind:
        raise ConfigError(f'this command needs problem.kind "{kind}", got {fields["problem.kind"]!r}')
    # the config checks its grid sizes against the scorer budget
    args = problem, spec, fields["sigmas"], fields["replications"], fields["grid_ratio"], seed
    return _checked(ExperimentConfig, *args)


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
    (out_dir / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _cmd_simulate_rates(fields, output, seed: int) -> list[Path]:
    config = _experiment_config(fields, seed, "green")
    rows = run_rate_experiment(config)
    risk_path = output("risk_table.csv")
    per_rep_path = output("per_rep_errors.csv")
    emit_risk_table(rows, risk_path)
    emit_per_rep_errors(rows, per_rep_path)
    return [risk_path, per_rep_path]


def _cmd_simulate_efficiency(fields, output, seed: int) -> list[Path]:
    config = _experiment_config(fields, seed, "diagonal")
    rows = run_efficiency_experiment(config)
    path = output("efficiency.csv")
    emit_efficiency_table(rows, path)
    return [path]


def _cmd_score_curve(fields, output, seed: int) -> list[Path]:
    descriptor, spec = _problem(fields), _filter(fields)
    sigma, ratio = fields["sigmas"][0], fields["grid_ratio"]
    # every sigma is a noise level, refused from the closed-form grid size
    # before the grid is built
    _checked(_check_grids, descriptor, fields["sigmas"], ratio)
    grid = build_grid(sigma, descriptor.lambda_max, ratio)
    if isinstance(descriptor, GreenDescriptor):
        problem = make_green_problem(descriptor.n_modes, descriptor.truth, sigma, descriptor.frame)
    else:
        problem = make_diagonal_problem(descriptor.n, descriptor.a, descriptor.nu, sigma, substream_seed(seed, 1))
    obs = sample_observations(problem, substream_seed(seed, 0))
    scores = GridScorer(problem.eigenvalues, sigma, spec, grid).batch_pred_scores(obs[None])[0]
    path = output("score_curve.csv")
    emit_score_curve(zip(grid, scores), path)
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


def _cmd_rate_test(fields, output, seed: int) -> list[Path]:
    risk = fields["rate_test.risk"]
    result = rate_test(_rate_samples(fields["rate_test.errors_csv"], risk), fields["rate_test.theta_target"])
    fit = {name: getattr(result, name) for name in RateTestResult._init}
    if not all(map(math.isfinite, fit.values())):  # JSON has no infinity or NaN
        raise NumericFailure(f"the rate test is not finite: {fit}")
    report = {"risk": risk, **fit, "reject_at_10pct": result.reject_at(0.10)}
    path = output("rate_test.json")
    path.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    return [path]


def _cmd_filters_check(fields, output, seed: int) -> list[Path]:
    # a pair count over the memory budget is refused before anything is drawn
    report = _checked(run_filter_checks, fields["pairs"], seed)
    path = output("filters_check.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
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
        cfg = _load_config(args.config)
        fields = _fields(args.command, cfg)
        # a config's master seed is checked even if --seed overrides it; rate-test draws nothing and records 0
        seed = fields.get("master_seed", 0) if args.seed is None else args.seed
        outputs = _COMMANDS[args.command](fields, output, seed)
    except ConfigError as exc:
        print(f"invreg: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, DegenerateVarianceError, SingularDesignError, OSError) as exc:
        print(f"invreg: {exc}", file=sys.stderr)
        return 3
    _write_metadata(out_dir, args.command, cfg, seed, max(1, args.workers), t0, outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
